"""Tests for the finite-sample experiment simulator."""

import dataclasses
import itertools

import numpy as np
import pytest

import epioverlap as ep
from epioverlap import bounds, d3cert, expsim, qstate, triples
from epioverlap.expsim import (
    Depolarizing,
    FrequencyTable,
    Misalignment,
    NoNoise,
    NoiseConfig,
    depolarizing_expectations,
    parse_channel,
)


def frequency(table, measurement_label, prep_label, outcome):
    """One relative frequency of a table; an outcome missing from its entry reads 0."""
    return table.entries[(measurement_label, prep_label)].get(outcome, 0.0)


def eps_sigma_bands(d: int, p: float, shots: int):
    """5-sigma binomial bands for the depolarizing aggregates.

    Every error frequency is an independent binomial proportion with success
    rate p/3 (triples) or p/d (pairs); the aggregates average 3 frequencies
    over d^3(d-1)/2 triples and 2 over d^2(d-1)/2 pairs.
    """
    q1, q2 = p / 3, p / d
    n_t = d ** 3 * (d - 1) // 2
    n_p = d ** 2 * (d - 1) // 2
    s1 = np.sqrt(q1 * (1 - q1) / (3 * n_t * shots))
    s2 = np.sqrt(q2 * (1 - q2) / (2 * n_p * shots))
    return 5 * s1, 5 * s2


class TestChannels:
    def test_parse(self):
        assert isinstance(parse_channel("none"), NoNoise)
        assert parse_channel("depolarizing:0.01").p == 0.01
        assert parse_channel("misalignment:0.3").sigma == 0.3

    def test_parse_unknown(self):
        with pytest.raises(ValueError):
            parse_channel("amplitude-damping:0.1")

    def test_depolarizing_range(self):
        with pytest.raises(ValueError):
            Depolarizing(1.5)

    def test_misalignment_range(self):
        with pytest.raises(ValueError):
            Misalignment(-0.1)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_misalignment_must_be_finite(self, sigma):
        with pytest.raises(ValueError):
            Misalignment(sigma)

    def test_shots_floor(self):
        with pytest.raises(ValueError):
            NoiseConfig(channel=NoNoise(), shots=0, seed=0)

    def test_seed_floor(self):
        with pytest.raises(ValueError):
            NoiseConfig(channel=NoNoise(), shots=1, seed=-1)


class TestDesign:
    def test_census(self, d4_design):
        design, _ = d4_design
        assert design.dim == 4
        assert len(design.triples) == 96          # C(4,2) basis pairs x 16 index pairs
        assert len(design.pairs) == 24            # 4 bases x C(4,2)
        assert len(design.settings) == 96 * 3 + 4 * 4

    def test_overlap_weight_is_the_references(self, d4_design, mub_weight):
        """W(c) sums over the e states with the reference c, not a basis vector."""
        design, _ = d4_design
        assert design.overlap_weight == mub_weight(4)

    def test_rejects_partial_family(self, mub4):
        partial = ep.MubFamily(dim=4, bases=mub4.bases[:3])
        with pytest.raises(ValueError):
            expsim.design_from_mubs(partial)

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            expsim.design_from_mubs(ep.generate_mub(3))

    def test_open_dual_gap_fails_the_design(self, mub4, monkeypatch):
        """A kernel that leaves every frame where it started leaves every
        gap open, and the design refuses the unconverged searches."""
        monkeypatch.setattr(triples, "_minimize_misfire", lambda coords, frames: (
            frames, triples._misfire_overlaps(frames, coords)[1] / 3.0,
            np.ones(len(frames), dtype=int)))
        with pytest.raises(RuntimeError, match="did not converge"):
            expsim.design_from_mubs(mub4, restarts=2, seed=0)


class TestRunExperiment:
    def test_deterministic_per_seed(self, d4_design):
        design, _ = d4_design
        noise = NoiseConfig(channel=Depolarizing(0.01), shots=500, seed=3)
        t1 = expsim.run_experiment(design, noise)
        t2 = expsim.run_experiment(design, noise)
        assert t1.entries == t2.entries
        assert t1.f4_mass == t2.f4_mass

    @pytest.mark.parametrize("channel", [Depolarizing(0.01), Misalignment(0.01), NoNoise()],
                             ids=["depolarizing", "misalignment", "none"])
    def test_one_born_call_per_setting(self, d4_design, monkeypatch, count_constructions,
                                       channel):
        """The traced benchmark counts sampled settings as calls to
        Measurement.probabilities, so each setting makes exactly one, on
        its amplitude row: a run builds no PureState."""
        design, _ = d4_design
        seen = []
        probabilities = qstate.Measurement.probabilities

        def counted(self, psi):
            seen.append(self)
            return probabilities(self, psi)

        monkeypatch.setattr(qstate.Measurement, "probabilities", counted)
        states = count_constructions(ep.PureState)
        expsim.run_experiment(design, NoiseConfig(channel=channel, shots=100, seed=1))
        assert len(seen) == len(design.settings)
        assert all(m is s.measurement for m, s in zip(seen, design.settings))
        assert states == []

    def test_born_call_on_the_row_gives_the_states_bits(self, d4_design):
        """Each setting's amplitude row, as a run hands it to the Born call,
        gives the bits its PureState gives; a short row or a 2-D slice of
        the stack is refused."""
        design, _ = d4_design
        _, _, amplitudes = design._sampling_rows
        for setting, row in zip(design.settings, amplitudes):
            m = setting.measurement
            assert (m.probabilities(row).tobytes()
                    == m.probabilities(setting.preparation).tobytes())
            for bad in (row[:3], amplitudes[:1]):
                with pytest.raises(qstate.DimensionMismatchError):
                    m.probabilities(bad)

    def test_amplitude_stack_is_read_only(self, d4_design):
        _, _, amplitudes = d4_design[0]._sampling_rows
        with pytest.raises(ValueError, match="read-only"):
            amplitudes[0, 0] = 0.0

    def test_rotated_rows_are_norm_checked(self, d4_design, monkeypatch):
        """Rotations that scale each state by 1 + 1e-9 fail the run with
        PureState's message."""
        rotations = expsim._rotations
        monkeypatch.setattr(expsim, "_rotations",
                            lambda *args: rotations(*args) * (1 + 1e-9))
        with pytest.raises(ValueError, match="state is not normalized"):
            expsim.run_experiment(d4_design[0], NoiseConfig(
                channel=Misalignment(0.01), shots=100, seed=1))

    @pytest.mark.parametrize("channel", [Misalignment(0.02), Depolarizing(0.01)],
                             ids=["misalignment", "depolarizing"])
    def test_block_size_does_not_change_the_table(self, d4_design, monkeypatch, channel):
        """Both streams are consumed in design order, so chunks of one,
        chunks that end mid-measurement and one chunk for the whole design
        (triple and basis rows together) agree."""
        design, _ = d4_design
        noise = NoiseConfig(channel=channel, shots=1000, seed=11)
        reference = expsim.run_experiment(design, noise)
        for block in (1, 5, 16, 64, len(design.settings) + 1):
            monkeypatch.setattr(expsim, "BLOCK", block)
            table = expsim.run_experiment(design, noise)
            assert table.entries == reference.entries
            assert table.f4_mass == reference.f4_mass

    def test_frequencies_normalized(self, d4_design):
        design, _ = d4_design
        noise = NoiseConfig(channel=Depolarizing(0.05), shots=777, seed=5)
        table = expsim.run_experiment(design, noise)
        for outcomes in table.entries.values():
            assert sum(outcomes.values()) == pytest.approx(1.0, abs=1e-12)

    def test_zero_noise_matched_outcomes_silent(self, d4_design):
        design, _ = d4_design
        noise = NoiseConfig(channel=NoNoise(), shots=100_000, seed=7)
        table = expsim.run_experiment(design, noise)
        summary = expsim.aggregate_eps(table, design)
        # matched outcomes have Born probability at the optimizer residual
        # (~1e-9), so a few hits per million shots at most
        assert summary.eps1 < 3 * np.sqrt(1e-9 / noise.shots) + 1e-7
        assert summary.eps2 == 0.0

    def test_depolarizing_closed_form(self, d4_design):
        design, _ = d4_design
        p, shots = 0.004, 100_000
        noise = NoiseConfig(channel=Depolarizing(p), shots=shots, seed=11)
        summary = expsim.aggregate_eps(expsim.run_experiment(design, noise), design)
        exp1, exp2 = depolarizing_expectations(4, p)
        band1, band2 = eps_sigma_bands(4, p, shots)
        assert abs(summary.eps1 - exp1) < band1
        assert abs(summary.eps2 - exp2) < band2

    def test_depolarizing_single_frequency(self, d4_design):
        design, _ = d4_design
        p, shots = 0.02, 200_000
        noise = NoiseConfig(channel=Depolarizing(p), shots=shots, seed=13)
        table = expsim.run_experiment(design, noise)
        got = frequency(table, "B1", "e1_1", "e1_2")
        q = p / 4
        assert abs(got - q) < 5 * np.sqrt(q * (1 - q) / shots)

    def test_f4_mass_zero_without_misalignment(self, d4_design):
        design, _ = d4_design
        noise = NoiseConfig(channel=Depolarizing(0.01), shots=100, seed=17)
        table = expsim.run_experiment(design, noise)
        assert max(table.f4_mass.values()) < 1e-15

    def test_misalignment_populates_f4(self, d4_design):
        design, _ = d4_design
        noise = NoiseConfig(channel=Misalignment(0.1), shots=100, seed=19)
        table = expsim.run_experiment(design, noise)
        assert max(table.f4_mass.values()) > 0.0

    def test_misalignment_monotone_on_average(self, d4_design):
        design, _ = d4_design

        def mean_eps1(sigma):
            values = []
            for seed in (23, 29, 31):
                noise = NoiseConfig(channel=Misalignment(sigma), shots=20_000, seed=seed)
                table = expsim.run_experiment(design, noise)
                values.append(expsim.aggregate_eps(table, design).eps1)
            return np.mean(values)

        assert mean_eps1(0.1) > mean_eps1(0.01)

    def test_depolarizing_monotone_on_average(self, d4_design):
        design, _ = d4_design

        def mean_eps(p):
            ones, twos = [], []
            for seed in (37, 41):
                noise = NoiseConfig(channel=Depolarizing(p), shots=20_000, seed=seed)
                summary = expsim.aggregate_eps(expsim.run_experiment(design, noise), design)
                ones.append(summary.eps1)
                twos.append(summary.eps2)
            return np.mean(ones), np.mean(twos)

        low1, low2 = mean_eps(0.002)
        high1, high2 = mean_eps(0.02)
        assert high1 > low1
        assert high2 > low2


def per_setting_tables(design, noise):
    """A plain loop over the settings on the two streams a run spawns from
    SeedSequence(seed): per setting, its own Gaussian draw, eigh and u @ psi
    under misalignment, and a one-row multinomial from the count stream.
    Returns the entries, the f4 masses and each setting's normalized pvals,
    in setting order."""
    channel = noise.channel
    dim = design.dim
    gauss, counts = (np.random.Generator(np.random.PCG64(s))
                     for s in np.random.SeedSequence(noise.seed).spawn(2))
    entries, f4_mass, pvals = {}, {}, []
    for setting in design.settings:
        psi = setting.preparation
        if isinstance(channel, Misalignment):
            re, im = gauss.standard_normal((2, dim, dim))
            a = (re + 1j * im) / np.sqrt(2)
            h = channel.sigma * (a + a.conj().T) / 2.0
            vals, vecs = np.linalg.eigh(h)
            u = (vecs * np.exp(1j * vals)) @ vecs.conj().T
            psi = qstate.PureState(u @ psi.amplitudes)
        key = (setting.measurement_label, setting.prep_label)
        probs = setting.measurement.probabilities(psi)
        is_triple = setting.measurement_label.startswith("T")
        k = 3 if is_triple else dim
        if isinstance(channel, Depolarizing):
            p = channel.p
            probs[:k] = (1.0 - p) * probs[:k] + p / k
            probs[k:] *= 1.0 - p
        if is_triple:
            f4_mass[key] = float(probs[k:].sum())
        probs = np.clip(probs[:k], 0.0, None)
        pvals.append(probs / probs.sum())
        row = counts.multinomial(noise.shots, pvals[-1])
        entries[key] = {lab: row[i] / noise.shots
                        for i, lab in enumerate(setting.measurement.labels[:k])}
    return entries, f4_mass, pvals


def hexed(entries, f4_mass, pvals):
    """Every value as float.hex, so equality means equal bits."""
    return ({key: {lab: float(v).hex() for lab, v in row.items()}
             for key, row in entries.items()},
            {key: float(v).hex() for key, v in f4_mass.items()},
            [[float(v).hex() for v in row] for row in pvals])


@pytest.fixture(scope="module")
def d5_design():
    return expsim.design_from_mubs(ep.generate_mub(5), restarts=4, seed=0)


@pytest.fixture(scope="module")
def d8_window():
    """64 settings of a d = 8 design around the switch from triple to basis
    measurements (8-entry basis rows): a run must read its keys, kinds and
    preparations from this window, not from the design it was cut from."""
    design = expsim.design_from_mubs(ep.generate_mub(8), restarts=4, seed=0)
    first_basis = 3 * len(design.triples)
    return dataclasses.replace(design, settings=design.settings[first_basis - 37:first_basis + 27])


class TestSeededStreams:
    @pytest.mark.parametrize("seed", [0, 1, 2 ** 31, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5, 3 ** 70])
    def test_states_match_numpy(self, seed, d8_window):
        """Seeds of one to four 32-bit words give a run the streams numpy
        spawns from SeedSequence(seed): its table is the reference loop's."""
        noise = NoiseConfig(channel=Misalignment(0.05), shots=1000, seed=seed)
        table = expsim.run_experiment(d8_window, noise)
        entries, f4_mass, _ = per_setting_tables(d8_window, noise)
        assert hexed(table.entries, table.f4_mass, []) == hexed(entries, f4_mass, [])

    @pytest.mark.parametrize("design_name", ["d4", "d5", "d8_window"])
    def test_tables_match_per_setting_loop(self, design_name, d4_design, d5_design,
                                           d8_window, monkeypatch):
        """Back-to-back calls that alternate seed and channel reproduce the
        per-setting reference loop bit for bit: frequencies, f4 masses and
        the pvals rows handed to the count stream."""
        design = {"d4": d4_design[0], "d5": d5_design, "d8_window": d8_window}[design_name]
        seen = []

        class Recording(np.random.Generator):
            def multinomial(self, n, pvals, size=None):
                seen.extend(np.atleast_2d(pvals))
                return super().multinomial(n, pvals, size)

        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: Recording(np.random.PCG64(seed)))
        channels = [NoNoise(), Depolarizing(0.01), Depolarizing(1.0),
                    Misalignment(0.02), Misalignment(1.0)]
        # above 2**53 and not a power of two, so Python's exact int / int and
        # numpy's int64 / int (a division of doubles) round differently
        for shots, channel, seed in itertools.product((1000, 2 ** 62 + 3), channels,
                                                      (0, 2 ** 33 + 7)):
            noise = NoiseConfig(channel=channel, shots=shots, seed=seed)
            seen.clear()
            table = expsim.run_experiment(design, noise)
            got = hexed(table.entries, table.f4_mass, seen)
            assert got == hexed(*per_setting_tables(design, noise)), (channel, shots, seed)


class TestAggregation:
    def _table(self, design, value):
        entries = {}
        f4 = {}
        for (alpha, i, beta, j) in design.triples:
            m = f"T{alpha}.{i}-{beta}.{j}"
            entries[(m, f"e{alpha}_{i}")] = {"f1": value, "f2": 0.6, "f3": 0.4 - value}
            entries[(m, f"e{beta}_{j}")] = {"f1": 0.6, "f2": value, "f3": 0.4 - value}
            entries[(m, "c")] = {"f1": 0.6, "f2": 0.4 - value, "f3": value}
            for prep in (f"e{alpha}_{i}", f"e{beta}_{j}", "c"):
                f4[(m, prep)] = 0.0
        for alpha in range(1, 5):
            for i in range(1, 5):
                row = {f"e{alpha}_{k}": value for k in range(1, 5) if k != i}
                row[f"e{alpha}_{i}"] = 1.0 - 3 * value
                entries[(f"B{alpha}", f"e{alpha}_{i}")] = row
        return FrequencyTable(dim=4, shots=1000, entries=entries, f4_mass=f4)

    def test_uniform_error_rate_identity(self, d4_design):
        design, _ = d4_design
        for r in (0.0, 0.01, 0.2):
            summary = expsim.aggregate_eps(self._table(design, r), design)
            assert summary.eps1 == pytest.approx(r, abs=1e-12)
            assert summary.eps2 == pytest.approx(r, abs=1e-12)

    def test_incomplete_table_rejected(self, d4_design):
        design, _ = d4_design
        table = self._table(design, 0.1)
        key = ("T1.1-2.1", "c")
        entries = {k: v for k, v in table.entries.items() if k != key}
        broken = FrequencyTable(dim=4, shots=1000, entries=entries, f4_mass=table.f4_mass)
        with pytest.raises(ValueError, match="does not cover the design"):
            expsim.aggregate_eps(broken, design)

    @staticmethod
    def looked_up(table, design):
        """Per-triple and per-pair averages by frequency, label by label,
        in aggregate_eps's summation order."""
        per_triple = {(a, i, b, j): (frequency(table, f"T{a}.{i}-{b}.{j}", f"e{a}_{i}", "f1")
                                     + frequency(table, f"T{a}.{i}-{b}.{j}", f"e{b}_{j}", "f2")
                                     + frequency(table, f"T{a}.{i}-{b}.{j}", "c", "f3")) / 3.0
                      for (a, i, b, j) in design.triples}
        per_pair = {(a, i, j): (frequency(table, f"B{a}", f"e{a}_{i}", f"e{a}_{j}")
                                + frequency(table, f"B{a}", f"e{a}_{j}", f"e{a}_{i}")) / 2.0
                    for (a, i, j) in design.pairs}
        return per_triple, per_pair

    @pytest.mark.parametrize("channel", [Misalignment(0.02), Depolarizing(0.01)],
                             ids=["misalignment", "depolarizing"])
    def test_cells_give_the_lookups_bits(self, d4_design, channel):
        design, _ = d4_design
        table = expsim.run_experiment(design, NoiseConfig(channel=channel, shots=1000, seed=5))
        summary = expsim.aggregate_eps(table, design)
        per_triple, per_pair = self.looked_up(table, design)
        assert list(summary.per_triple) == list(per_triple)
        assert list(summary.per_pair) == list(per_pair)
        assert [v.hex() for v in summary.per_triple.values()] == [
            v.hex() for v in per_triple.values()]
        assert [v.hex() for v in summary.per_pair.values()] == [
            v.hex() for v in per_pair.values()]

    def test_missing_outcome_reads_zero(self, d4_design):
        """A sampled row may omit an outcome; it reads 0.0, as
        FrequencyTable.frequency reads it."""
        design, _ = d4_design
        table = self._table(design, 0.1)
        entries = dict(table.entries)
        entries[("T1.1-2.1", "c")] = {"f1": 0.6, "f2": 0.3}
        entries[("B2", "e2_3")] = {"e2_3": 1.0}
        sparse = FrequencyTable(dim=4, shots=1000, entries=entries, f4_mass=table.f4_mass)
        summary = expsim.aggregate_eps(sparse, design)
        per_triple, per_pair = self.looked_up(sparse, design)
        assert summary.per_triple == per_triple and summary.per_pair == per_pair
        assert summary.per_triple[(1, 1, 2, 1)] == (0.1 + 0.1 + 0.0) / 3.0
        assert summary.per_pair[(2, 1, 3)] == (0.1 + 0.0) / 2.0

    def test_census_denominators(self, d4_design):
        design, _ = d4_design
        summary = expsim.aggregate_eps(self._table(design, 0.05), design)
        assert len(summary.per_triple) == 4 ** 3 * 3 // 2
        assert len(summary.per_pair) == 4 ** 2 * 3 // 2
        assert summary.overlap_weight == design.overlap_weight


def mub_summary(d, eps1, eps2, weight):
    """A summary of a maximal-MUB design in dimension d at the given averages."""
    return expsim.NoiseSummary(dim=d, per_triple={}, per_pair={},
                               eps1=eps1, eps2=eps2, overlap_weight=weight)


class TestExperimentalBound:
    def test_zero_noise_equals_closed_form(self, mub_weight):
        summary = mub_summary(4, 0.0, 0.0, mub_weight(4))
        assert expsim.experimental_k_bound(summary) == pytest.approx(
            ep.noiseless_bound(4).exact_bound, rel=1e-14, abs=0)

    def test_below_threshold_conclusive(self, mub_weight):
        eps = ep.noise_threshold(4) * 0.95
        assert expsim.experimental_k_bound(mub_summary(4, eps, eps, mub_weight(4))) < 1.0

    def test_large_noise_inconclusive(self, mub_weight):
        assert expsim.experimental_k_bound(mub_summary(4, 0.01, 0.01, mub_weight(4))) > 1.0

    @pytest.mark.parametrize("d", [4, 5, 7, 8, 9, 11])
    def test_equals_closed_form(self, d, mub_weight):
        """The census sizes and the 3 and 2 weights of the misfire sums."""
        threshold = ep.noise_threshold(d)
        for eps1, eps2 in ((threshold, threshold), (0.0, 0.01), (0.01, 0.0)):
            k = expsim.experimental_k_bound(mub_summary(d, eps1, eps2, mub_weight(d)))
            assert k == pytest.approx(ep.noisy_bound(d, eps1, eps2).tight, rel=1e-14, abs=0)


@pytest.fixture(scope="module")
def d3_design(d3_instance):
    return expsim.design_from_d3(d3_instance, restarts=12, seed=0)


class TestD3Protocol:
    def test_design_and_run(self, d3_design):
        assert d3_design.dim == 3
        assert len(d3_design.triples) == 27
        assert len(d3_design.pairs) == 9
        noise = NoiseConfig(channel=Depolarizing(0.01), shots=5000, seed=1)
        summary = expsim.aggregate_eps(expsim.run_experiment(d3_design, noise), d3_design)
        assert abs(summary.eps2 - 0.01 / 3) < 5 * np.sqrt(0.01 / 3 / (2 * 9 * 5000))
        # triple misfires sit on the optimizer floor plus the channel rate
        floor = np.mean(d3_design.census.epsilon)
        assert summary.eps1 == pytest.approx((1 - 0.01) * floor + 0.01 / 3, abs=2e-3)

    def test_union_bound_is_the_certificate(self, d3_instance, d3_design):
        """With no pair term, the design's union bound is the d = 3
        certificate's k at the same restarts and seed."""
        report = d3cert.run_certificate(d3_instance, restarts=12, seed=0)
        assert d3_design.overlap_weight == report.overlap_weight_sum
        k = bounds.union_k_bound(3.0 * sum(d3_design.census.epsilon.tolist()), 0.0,
                                 d3_design.overlap_weight)
        assert k == pytest.approx(report.k_bound, rel=1e-14, abs=0)

    @pytest.mark.parametrize("p, seed", [(0.001, 5), (0.01, 6)])
    def test_depolarized_numerator(self, d3_design, p, seed):
        """1 + 3 sum_t eps_t + 2 sum_p eps_p lands within 5 sigma of
        1 + (1 - p) G + 33 p: each triple setting adds p/3 to its misfire
        outcome (27 p over 81 settings), each basis setting 2p/3 off its own
        outcome (6 p over 9). The numerator less 1 is a sum of 90 independent
        binomial frequencies with rates q, so sigma^2 <= sum q / shots."""
        shots = 100_000
        noise = NoiseConfig(channel=Depolarizing(p), shots=shots, seed=seed)
        summary = expsim.aggregate_eps(expsim.run_experiment(d3_design, noise), d3_design)
        numerator = (1.0 + 3.0 * sum(summary.per_triple.values())
                     + 2.0 * sum(summary.per_pair.values()))
        g = 3.0 * sum(d3_design.census.epsilon.tolist())
        expected = 1.0 + (1.0 - p) * g + 33.0 * p
        assert abs(numerator - expected) < 5.0 * np.sqrt((expected - 1.0) / shots)
        assert expsim.experimental_k_bound(summary) == pytest.approx(
            numerator / d3_design.overlap_weight, rel=1e-14)
