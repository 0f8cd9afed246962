"""Finite-sample simulation of the overlap-bound experiment.

The protocol prepares states drawn from a set of mutually unbiased bases
plus a reference state c, and measures either a basis directly or a
misfire-minimizing four-outcome measurement tied to one triple
(e^a_i, e^b_j, c). Observed frequencies feed the per-triple and per-pair
misfire averages

    eps(c, e^a_i, e^b_j) = (R[f1|e^a_i] + R[f2|e^b_j] + R[f3|c]) / 3
    eps(e^a_i, e^a_j)    = (R[e^a_j|e^a_i] + R[e^a_i|e^a_j]) / 2

whose grand averages eps1 and eps2 plug into the union bound

    k <= (1 + 3 sum_t eps_t + 2 sum_p eps_p) / W(c)

(bounds.union_k_bound) with the design's own W(c), in every dimension: the
d = 3 certificate instance as well as the maximal MUB designs of d >= 4.
A design holds its triples' searches as one triples.Census, as d3cert does.

The measurement is treated as perfectly aligned within the triple's
three-dimensional subspace: probability mass landing on the complement
outcome f4 is renormalized away before sampling and reported separately as
a diagnostic. Detector inefficiency is deliberately not modeled.

A run is reproducible from its seed alone: it samples from two streams
spawned from SeedSequence(seed), one for the misalignment rotations and one
for the outcome counts, each consumed in design order (run_experiment).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import bounds
from .mub import MubFamily
from .qstate import Measurement, PureState, basis_measurement, check_normalized
from .triples import Census, cross_basis_census, triple_measurements


# ---------------------------------------------------------------------------
# Noise channels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoNoise:
    kind: str = "none"


@dataclass(frozen=True)
class Depolarizing:
    """With probability p the outcome distribution is replaced by the uniform
    one: over the three in-subspace outcomes for a triple measurement, over
    all d outcomes for a basis measurement."""

    p: float
    kind: str = "depolarizing"

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("depolarizing strength must lie in [0, 1]")


# The Hermitian generator sigma * (a + a^H) / 2 overflows to inf near the
# float limit (sigma = 1e308 does), and eigh then fails to converge. Below
# this cap an entry of a + a^H would need a modulus above ~1e8 to overflow,
# which Gaussian draws never reach.
MAX_MISALIGNMENT = 1e300


@dataclass(frozen=True)
class Misalignment:
    """Each setting rotates its preparation by exp(iH) with an independent
    Hermitian H whose entries are Gaussian at scale sigma."""

    sigma: float
    kind: str = "misalignment"

    def __post_init__(self):
        if not 0.0 <= self.sigma <= MAX_MISALIGNMENT:
            raise ValueError(
                f"misalignment scale must be nonnegative and at most {MAX_MISALIGNMENT:g}")


def parse_channel(text: str):
    """Parse "none", "depolarizing:p", or "misalignment:sigma"."""
    if text == "none":
        return NoNoise()
    name, _, arg = text.partition(":")
    if name == "depolarizing":
        return Depolarizing(float(arg))
    if name == "misalignment":
        return Misalignment(float(arg))
    raise ValueError(f"unknown noise channel {text!r}")


@dataclass(frozen=True)
class NoiseConfig:
    channel: object
    shots: int
    seed: int

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


# ---------------------------------------------------------------------------
# Experiment design
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Setting:
    measurement_label: str
    prep_label: str
    measurement: Measurement
    preparation: PureState


@dataclass(frozen=True)
class ExperimentDesign:
    dim: int
    settings: tuple
    triples: tuple           # (alpha, i, beta, j) in design order: census.keys
    pairs: tuple             # (alpha, i, j) with i < j
    overlap_weight: float    # W(c), summed over the e states basis by basis
    census: Census           # the triples' conjugate-basis searches, design order

    @cached_property
    def _sampling_rows(self) -> tuple:
        """What every run reads of the settings, in setting order: the
        (measurement, preparation) label keys, whether each measurement
        is a triple's, and the preparations as one read-only (n, dim)
        array, whose rows go to the Born call as they are."""
        settings = self.settings
        amplitudes = np.array([s.preparation.amplitudes for s in settings])
        amplitudes.setflags(write=False)
        return (tuple((s.measurement_label, s.prep_label) for s in settings),
                tuple(s.measurement_label.startswith("T") for s in settings),
                amplitudes)

    @cached_property
    def _eps_cells(self) -> tuple:
        """The table keys aggregate_eps reads, in its summation order: per
        triple the (measurement, preparation) keys of e^a_i, e^b_j and c,
        read at f1, f2 and f3; per pair (key, outcome) for e^a_j given e^a_i
        and for e^a_i given e^a_j."""
        return (tuple(((m, f"e{a}_{i}"), (m, f"e{b}_{j}"), (m, "c"))
                      for a, i, b, j in self.triples for m in [f"T{a}.{i}-{b}.{j}"]),
                tuple((((f"B{a}", e_i), e_j), ((f"B{a}", e_j), e_i))
                      for a, i, j in self.pairs for e_i, e_j in [(f"e{a}_{i}", f"e{a}_{j}")]))


def _assemble_design(dim, c, e_bases, restarts, seed) -> ExperimentDesign:
    census = cross_basis_census(e_bases, c, restarts, seed)
    open_rows = np.flatnonzero(~census.converged)
    if open_rows.size:
        raise RuntimeError("conjugate-basis search did not converge for triple "
                           "({},{},{},{})".format(*census.keys[open_rows[0]]))
    settings = []
    for (alpha, i, beta, j), meas in zip(census.keys, triple_measurements(census.matrices)):
        a, b = e_bases[alpha - 1].vectors[i - 1], e_bases[beta - 1].vectors[j - 1]
        mlabel = f"T{alpha}.{i}-{beta}.{j}"
        for prep_label, prep in ((f"e{alpha}_{i}", a), (f"e{beta}_{j}", b), ("c", c)):
            settings.append(Setting(mlabel, prep_label, meas, prep))

    pairs = []
    for alpha, basis in enumerate(e_bases, start=1):
        meas = basis_measurement(basis, labels=[f"e{alpha}_{k}" for k in range(1, dim + 1)])
        for i, v in enumerate(basis.vectors, start=1):
            settings.append(Setting(f"B{alpha}", f"e{alpha}_{i}", meas, v))
        for i in range(1, dim + 1):
            for j in range(i + 1, dim + 1):
                pairs.append((alpha, i, j))

    w = bounds.overlap_weight(c, [v for basis in e_bases for v in basis.vectors])
    return ExperimentDesign(dim=dim, settings=tuple(settings), triples=census.keys,
                            pairs=tuple(pairs), overlap_weight=w, census=census)


def design_from_mubs(family: MubFamily, restarts: int = 24, seed: int = 0) -> ExperimentDesign:
    """Design over a maximal MUB family: c is the first vector of the first
    basis and the remaining dim bases supply the e states. Requires a family
    of dim + 1 bases in prime-power dimension >= 4."""
    d = family.dim
    if d < 4:
        raise ValueError("MUB designs need dimension >= 4; use design_from_d3 for d=3")
    if family.count != d + 1:
        raise ValueError(f"need a maximal family of {d + 1} bases, got {family.count}")
    c = family.bases[0].vectors[0]
    return _assemble_design(d, c, family.bases[1:], restarts, seed)


def design_from_d3(instance, restarts: int = 64, seed: int = 0) -> ExperimentDesign:
    """Design over a three-dimensional certificate instance: its reference
    state c against all three bases."""
    return _assemble_design(3, instance.c, instance.bases, restarts, seed)


# ---------------------------------------------------------------------------
# Running the experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrequencyTable:
    """Relative frequencies per (measurement, preparation, outcome)."""

    dim: int
    shots: int
    entries: dict       # (measurement_label, prep_label) -> {outcome: frequency}
    f4_mass: dict       # (measurement_label, prep_label) -> pre-sampling f4 probability

    def frequency(self, measurement_label: str, prep_label: str, outcome: str) -> float:
        return self.entries[(measurement_label, prep_label)].get(outcome, 0.0)


# Settings per chunk: under misalignment a chunk's rotations come from one
# stacked eigh. One d = 4 misalignment point (sample, aggregate, bound and
# encode) peaked at 340 KB under tracemalloc in chunks of 16 or 64, and at
# 545 KB in one chunk of all 304 settings. Up to 64 the peak is the
# encoding's, 21 KB of it json_io's memo of the document's 253 quoted keys.
# The draws, and so the table, do not depend on the chunk.
BLOCK = 64


def _rotations(rng: np.random.Generator, n: int, dim: int, sigma: float) -> np.ndarray:
    """exp(iH) for n Hermitian H = sigma * (a + a^H) / 2, each a complex
    Gaussian a drawn in turn from rng: a (n, dim, dim) stack."""
    draws = rng.standard_normal((n, 2, dim, dim))
    a = (draws[:, 0] + 1j * draws[:, 1]) / np.sqrt(2)
    h = sigma * (a + a.conj().swapaxes(-1, -2)) / 2.0
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(1j * vals)[:, None, :]) @ vecs.conj().swapaxes(-1, -2)


def run_experiment(design: ExperimentDesign, noise: NoiseConfig) -> FrequencyTable:
    """Simulate every setting with the configured shot budget.

    A run draws from two streams spawned from SeedSequence(seed): one for
    the misalignment Gaussians, one for the outcome counts. Each is consumed
    in design order, BLOCK settings at a time. Under misalignment one
    Gaussian draw and one stacked eigh rotate a chunk's (n, dim) stack of
    preparation amplitudes, and one check_normalized call checks the
    rotated rows as PureState would. Each setting then makes one
    Measurement.probabilities call on its amplitude row, and each run of
    one measurement kind within the chunk takes one multinomial draw with a
    row per setting. NumPy draws those in turn, so every chunk size gives
    the same table. Only outcome counts are drawn; frequencies are
    sufficient for everything downstream.
    """
    channel = noise.channel
    settings = design.settings
    keys, kinds, amplitudes = design._sampling_rows
    gauss_rng, count_rng = (np.random.default_rng(s)
                            for s in np.random.SeedSequence(noise.seed).spawn(2))
    shots = float(noise.shots)  # numpy's int64 / int divides doubles; int / int would not
    entries = {}
    f4_mass = {}
    for start in range(0, len(settings), BLOCK):
        block = settings[start:start + BLOCK]
        rows = amplitudes[start:start + len(block)]
        if isinstance(channel, Misalignment):
            rotations = _rotations(gauss_rng, len(block), design.dim, channel.sigma)
            rows = (rotations @ rows[:, :, None])[:, :, 0]
            check_normalized(rows)
        probs = [s.measurement.probabilities(row) for s, row in zip(block, rows)]

        first = start
        for is_triple, run in itertools.groupby(kinds[start:start + len(block)]):
            stop = first + len(list(run))
            run_keys = keys[first:stop]
            p = np.array(probs[first - start:stop - start])
            k = 3 if is_triple else design.dim  # sampled outcomes; a triple's f4 follows
            if isinstance(channel, Depolarizing):
                p[:, :k] = (1.0 - channel.p) * p[:, :k] + channel.p / k
                p[:, k:] *= 1.0 - channel.p
            if is_triple:
                f4_mass.update(zip(run_keys, p[:, k:].sum(axis=1).tolist()))
            p = np.clip(p[:, :k], 0.0, None)
            total = p.sum(axis=1)
            if np.any(total < 1e-9):
                raise RuntimeError("vanishing in-subspace probability mass")
            counts = count_rng.multinomial(noise.shots, p / total[:, None]).tolist()
            for key, setting, row in zip(run_keys, settings[first:stop], counts):
                entries[key] = {lab: count / shots
                                for lab, count in zip(setting.measurement.labels, row)}
            first = stop
    return FrequencyTable(dim=design.dim, shots=noise.shots,
                          entries=entries, f4_mass=f4_mass)


# ---------------------------------------------------------------------------
# Aggregation and the experimental bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseSummary:
    dim: int
    per_triple: dict    # (alpha, i, beta, j) -> eps
    per_pair: dict      # (alpha, i, j) -> eps
    eps1: float
    eps2: float
    overlap_weight: float   # the design's W(c)


def aggregate_eps(table: FrequencyTable, design: ExperimentDesign) -> NoiseSummary:
    """Misfire averages per triple and per same-basis pair, plus their
    grand averages over the design and its W(c)."""
    d = design.dim
    entries = table.entries
    triple_keys, pair_cells = design._eps_cells
    try:
        # a missing outcome reads 0.0, as FrequencyTable.frequency reads it
        per_triple = {t: (entries[a].get("f1", 0.0) + entries[b].get("f2", 0.0)
                          + entries[c].get("f3", 0.0)) / 3.0
                      for t, (a, b, c) in zip(design.triples, triple_keys)}
        per_pair = {p: (entries[a].get(x, 0.0) + entries[b].get(y, 0.0)) / 2.0
                    for p, ((a, x), (b, y)) in zip(design.pairs, pair_cells)}
    except KeyError as exc:
        raise ValueError(f"frequency table does not cover the design: {exc}") from exc

    n_triples, n_pairs = bounds.design_size(d)
    if len(per_triple) != n_triples or len(per_pair) != n_pairs:
        raise ValueError("design does not have the full triple/pair census")
    eps1 = sum(per_triple.values()) / n_triples
    eps2 = sum(per_pair.values()) / n_pairs
    return NoiseSummary(dim=d, per_triple=per_triple, per_pair=per_pair,
                        eps1=eps1, eps2=eps2, overlap_weight=design.overlap_weight)


def experimental_k_bound(summary: NoiseSummary) -> float:
    """The union bound at the measured averages, in any dimension: each
    misfire sum is its census size times its grand average."""
    n_triples, n_pairs = bounds.design_size(summary.dim)
    return bounds.union_k_bound(3.0 * n_triples * summary.eps1,
                                2.0 * n_pairs * summary.eps2, summary.overlap_weight)


def depolarizing_expectations(d: int, p: float) -> tuple:
    """Analytic (eps1, eps2) for the depolarizing channel on an exact design:
    matched outcomes have zero Born probability, so every error frequency is
    p/3 for triple measurements and p/d for basis measurements."""
    return p / 3.0, p / d
