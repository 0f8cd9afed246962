"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints its verdict through the criterion recorder in conftest,
which emits one pass/fail line per criterion at the end of the run.
"""

import time
from decimal import Decimal, getcontext

import numpy as np
import pytest

import epioverlap as ep
from epioverlap import expsim, ontomodel
from epioverlap.cli import main
from epioverlap.qstate import basis_measurement
from test_d3cert import TRIPLE_SUM_TABLE

getcontext().prec = 50

ZERO_ROWS = [
    (1, 1, 2, 1), (1, 1, 2, 2), (1, 3, 2, 1), (1, 3, 2, 2),
    (1, 1, 3, 1), (1, 3, 3, 1),
    (2, 1, 3, 1), (2, 2, 3, 1), (2, 2, 3, 2),
]


class TestCriterion1:
    def test_d3_certificate(self, criterion, d3_certificate):
        report, elapsed = d3_certificate
        with criterion(1, "d=3 certificate reproduces the reference aggregates"):
            assert report.grand_noise_sum == pytest.approx(0.649, abs=2e-3)
            assert report.overlap_weight_sum == pytest.approx(1.739, abs=2e-3)
            assert 0.94 <= report.k_bound <= 0.95
            assert report.family_sums[(1, 2)] == pytest.approx(0.2257, abs=2e-3)
            assert elapsed <= 300.0


class TestCriterion2:
    def test_table_regression(self, criterion, d3_certificate, d3_instance):
        report, _ = d3_certificate
        with criterion(2, "every reference table entry regresses at its tolerance"):
            for key in ZERO_ROWS:
                assert report.census.row(report.census.keys.index(key)).epsilon < 1e-8, key
                alpha, i, beta, j = key
                x = ep.triple_overlaps(d3_instance.basis_vector(alpha, i),
                                       d3_instance.basis_vector(beta, j),
                                       d3_instance.c)
                assert ep.pp_incompatible(x), key
            for (alpha, beta), rows in TRIPLE_SUM_TABLE.items():
                for (i, j), value in rows.items():
                    if value == 0.0:
                        continue
                    entry = report.census.row(report.census.keys.index((alpha, i, beta, j)))
                    assert entry.triple_sum == pytest.approx(value, abs=2e-3), (
                        alpha, i, beta, j)
                    x = ep.triple_overlaps(d3_instance.basis_vector(alpha, i),
                                           d3_instance.basis_vector(beta, j),
                                           d3_instance.c)
                    assert not ep.pp_incompatible(x), (alpha, i, beta, j)


class TestCriterion3:
    def test_noiseless_bound_calculator(self, criterion):
        with criterion(3, "closed-form bound matches high-precision values"):
            for d, dsub in ((4, 4), (10, 9)):
                rep = ep.noiseless_bound(d)
                assert rep.subdim == dsub
                dd = Decimal(dsub)
                reference = float((1 + (1 - 1 / dd).sqrt()) / dd)
                assert abs(rep.exact_bound - reference) <= 1e-12
            for d in range(4, 1025):
                rep = ep.noiseless_bound(d)
                assert rep.exact_bound < 2 / rep.subdim
                assert rep.exact_bound < 4 / (d - 1)


class TestCriterion4:
    def test_noise_threshold(self, criterion):
        with criterion(4, "noise threshold value and monotonicity"):
            assert ep.noise_threshold(4) == pytest.approx(0.0034, abs=1e-4)
            thresholds = [ep.noise_threshold(d) for d in (4, 5, 7, 8, 9)]
            assert all(a > b for a, b in zip(thresholds, thresholds[1:]))


def _equivalence_triples(mub4):
    """60 Haar triples and 40 unbiased-family triples, all seeded.

    The family triples are kept unrotated: their fidelities are dyadic
    rationals, so the boundary case of the algebraic criterion is evaluated
    exactly rather than at floating-point mercy.
    """
    rng = np.random.default_rng(2024)
    triples = []
    for _ in range(60):
        states = []
        for _ in range(3):
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            states.append(ep.PureState(v / np.linalg.norm(v)))
        triples.append(tuple(states))
    for _ in range(40):
        picks = rng.choice(5, size=3, replace=False)
        idx = rng.integers(0, 4, size=3)
        triples.append((mub4.bases[picks[0]].vectors[idx[0]],
                        mub4.bases[picks[1]].vectors[idx[1]],
                        mub4.bases[picks[2]].vectors[idx[2]]))
    return triples


class TestCriterion5:
    def test_pp_incompatibility(self, criterion, mub4):
        with criterion(5, "algebraic criterion agrees with the basis search"):
            for d in (4, 5, 7):
                assert ep.pp_incompatible((1 / d, 1 / d, 1 / d)) is True
            assert ep.pp_incompatible((1 / 3, 1 / 3, 1 / 3)) is False
            s = 0.25 + 0.25 + 0.25
            assert abs((s - 1.0) ** 2 - 4 * 0.25 ** 3) <= 1e-15

            for n, (a, b, c) in enumerate(_equivalence_triples(mub4)):
                predicted = ep.pp_incompatible(ep.triple_overlaps(a, b, c))
                eps = ep.find_conjugate_basis(a, b, c, restarts=50, seed=n).epsilon
                assert predicted == (eps < 1e-8), (n, predicted, eps)


class TestCriterion6:
    def test_union_bound_suite(self, criterion):
        with criterion(6, "union-bound and response-bound slacks nonnegative"):
            start = time.monotonic()
            rng = np.random.default_rng(99)
            for _ in range(1000):
                ref = rng.dirichlet(np.ones(50))
                labeled = {(alpha, i): rng.dirichlet(np.ones(50))
                           for alpha in (1, 2) for i in (1, 2, 3)}
                assert ontomodel.bonferroni_check(ref, labeled) >= -1e-9

            basis = ep.random_unitary(4, 1)
            meas = basis_measurement(basis)
            states = list(basis.vectors)
            for _ in range(200):
                table = rng.dirichlet(np.ones(4), size=20)
                rule = dict(zip(meas.labels, table.T))
                model = ontomodel.DiscreteModel(
                    [(s, rng.dirichlet(np.ones(20))) for s in states],
                    response_rule=lambda m, t=rule: t)
                assert ontomodel.response_min_bound(model, states, meas) >= -1e-9
            assert time.monotonic() - start <= 60.0


class TestCriterion7:
    def test_ks_qubit_model(self, criterion):
        with criterion(7, "sphere qubit model reproduces Born and overlaps"):
            model = ep.ks_model_d2()
            worst_born = 0.0
            for k in range(100):
                psi = ep.random_state(2, (10, k))
                meas = basis_measurement(ep.random_unitary(2, (11, k)))
                worst_born = max(worst_born, ontomodel.born_check(model, psi, meas))
            assert worst_born < 1e-6

            pairs = [(ep.random_state(2, (12, k)), ep.random_state(2, (13, k)))
                     for k in range(50)]
            worst_overlap = max(abs(ontomodel.overlap_pair(model, psi, phi)
                                    - ep.quantum_overlap(psi, phi))
                                for psi, phi in pairs)
            assert worst_overlap < 1e-4
            assert ontomodel.verify_overlap_inequality(model, pairs) <= 1e-4


class TestCriterion8:
    def test_simulator_end_to_end(self, criterion, d4_design):
        design, build_time = d4_design
        with criterion(8, "d=4 simulated experiment matches its oracles"):
            start = time.monotonic()
            shots = 1_000_000
            exact = ep.noiseless_bound(4).exact_bound

            clean = expsim.NoiseConfig(channel=expsim.NoNoise(), shots=shots, seed=41)
            summary = expsim.aggregate_eps(expsim.run_experiment(design, clean), design)
            k_clean = expsim.experimental_k_bound(summary)
            # matched outcomes have probability at the optimizer floor
            # (~1e-9), so with 10^6 shots the bound collapses onto the
            # noiseless value well inside any statistical band
            assert abs(k_clean - exact) < 1e-6

            p = 0.002
            noisy = expsim.NoiseConfig(channel=expsim.Depolarizing(p),
                                       shots=shots, seed=43)
            summary = expsim.aggregate_eps(expsim.run_experiment(design, noisy), design)
            q1, q2 = p / 3, p / 4
            band1 = 5 * np.sqrt(q1 * (1 - q1) / (3 * 96 * shots))
            band2 = 5 * np.sqrt(q2 * (1 - q2) / (2 * 24 * shots))
            assert abs(summary.eps1 - q1) < band1
            assert abs(summary.eps2 - q2) < band2
            assert expsim.experimental_k_bound(summary) < 1.0

            assert build_time + (time.monotonic() - start) <= 600.0


class TestCriterion9:
    CASES = [
        ["bound", "--dim", "4"],
        ["bound", "--dim", "10", "--eps1", "0.0001", "--eps2", "0.0002"],
        ["bound", "--threshold", "--dim", "9"],
        ["mub", "--dim", "7"],
        ["d3", "--restarts", "4", "--seed", "17"],
        ["model", "verify", "--model", "ks2", "--pairs", "3", "--seed", "5"],
        ["simulate", "--dim", "4", "--noise", "depolarizing:0.005",
         "--shots", "1000", "--restarts", "8", "--seed", "29"],
        ["bonferroni", "--trials", "30", "--points", "20", "--seed", "7"],
    ]

    def test_cli_byte_determinism(self, criterion, tmp_path, mub4):
        """All computation is sequential and seeded, so the thread count of
        the host has no influence; two runs must agree byte for byte."""
        import json

        from epioverlap.qstate import state_to_obj

        states = tmp_path / "triple.json"
        states.write_text(json.dumps({
            "dim": 4,
            "states": [state_to_obj(mub4.bases[1].vectors[0]),
                       state_to_obj(mub4.bases[2].vectors[1]),
                       state_to_obj(mub4.bases[0].vectors[0])],
        }))
        cases = self.CASES + [
            ["pp-check", "--states", str(states), "--restarts", "12", "--seed", "3"],
        ]
        with criterion(9, "fixed seed gives byte-identical JSON"):
            for n, argv in enumerate(cases):
                first = tmp_path / f"run{n}a.json"
                second = tmp_path / f"run{n}b.json"
                assert main(argv + ["--out", str(first)]) == 0
                assert main(argv + ["--out", str(second)]) == 0
                assert first.read_bytes() == second.read_bytes(), argv
