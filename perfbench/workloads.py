"""The three benchmark workloads and the checks on their outputs.

Each workload has ``setup()``, repeated ``setup_repeats`` times (the median
is ``setup_s``), and ``run_pass()``, which returns one ``Op`` per operation
(a CLI invocation or a sweep point). An op's time covers the program's work
only; its output check runs after the clock stops. Every pass of a run uses
the same inputs, so the outputs of two passes must be byte-identical.

Reference values and tolerances are those of the acceptance suite
(tests/test_acceptance.py); none is loosened here.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

from epioverlap import cli, expsim, json_io, mub

# the deterministic counts each op reports; a traced pass must count the same
COUNT_NAMES = ("triples.search.count", "triples.restarts_used",
               "expsim.settings_sampled", "ontomodel.born_check.count",
               "json_io.bytes")


@dataclass
class Op:
    seconds: float
    sha256: str         # of the op's output; the bytes themselves are not kept
    error: str | None
    counts: dict = field(default_factory=dict)


def _op(seconds, text, error, found=None) -> Op:
    return Op(seconds, hashlib.sha256(text.encode()).hexdigest(), error,
              _counts(found or {}))


def _counts(found: dict) -> dict:
    return {name: found.get(name, 0) for name in COUNT_NAMES}


def _run_cli(argv) -> tuple:
    """cli.main in this process; returns (exit code, stdout, seconds)."""
    out = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue(), time.perf_counter() - start


def _cli_op(argv, check) -> Op:
    """Run one CLI op and check it; a raised error counts as a failed op."""
    try:
        code, text, seconds = _run_cli(argv)
    except (Exception, SystemExit) as exc:  # a crash or argparse exit fails the op
        return _op(0.0, "", f"{type(exc).__name__}: {exc}")
    if code != 0:
        return _op(seconds, text, f"exit code {code}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return _op(seconds, text, f"stdout is not JSON: {exc}")
    try:
        error, found = check(doc)
    except (KeyError, TypeError) as exc:
        return _op(seconds, text, f"unexpected output: {exc!r}")
    found["json_io.bytes"] = len(text.rstrip("\n").encode())
    return _op(seconds, text, error, found)


def _outside(name, value, reference, tol) -> str | None:
    if not abs(value - reference) <= tol:
        return f"{name} = {value!r}, expected {reference} +- {tol}"
    return None


class D3Certificate:
    """``epioverlap d3 --restarts 8 --seed <seed>``: the 27-search certificate.

    Not listed in BENCHMARK.json: on about one seed in ten the program
    reports a triple as not converged and exits 1, at any restart count
    (seed 1783110719 fails on triple (2,1,3,2), also at the default 64).
    The lowest value then comes from a Nelder-Mead restart that ran out of
    evaluations at the minimum the other restarts reached, and
    ``find_conjugate_basis`` requires the lowest restart to have succeeded.
    The workload stays runnable here to reproduce that.
    """

    name = "d3_certificate"
    setup_repeats = 3

    def __init__(self, seed: int, smoke: bool):
        self.argv = ["d3", "--restarts", "4" if smoke else "8", "--seed", str(seed)]

    def setup(self) -> None:
        pass

    def run_pass(self) -> list:
        return [_cli_op(self.argv, self._check)]

    @staticmethod
    def _check(doc) -> tuple:
        entries = doc["entries"]
        found = {"triples.search.count": len(entries),
                 "triples.restarts_used": sum(e["restarts_used"] for e in entries)}
        if len(entries) != 27:
            return f"{len(entries)} triples, expected 27", found
        stalled = [e for e in entries if not e["converged"]]
        if stalled:
            return f"{len(stalled)} triples did not converge", found
        k = doc["k_bound"]
        for error in (
            _outside("G", doc["grand_noise_sum"], 0.649, 2e-3),
            _outside("W", doc["overlap_weight_sum"], 1.739, 2e-3),
            _outside("k", k, 0.948092, 2e-3),
            None if 0.94 <= k <= 0.95 else f"k = {k!r} outside [0.94, 0.95]",
            _outside("family (1,2) sum", doc["family_sums"]["1,2"], 0.2257, 2e-3),
        ):
            if error:
                return error, found
        return None, found


class KS2Verify:
    """``epioverlap model verify --model ks2 --pairs 500 --seed <seed>``."""

    name = "ks2_verify"
    setup_repeats = 7  # set-up is the ~0.7 s import alone, so repeats are cheap

    def __init__(self, seed: int, smoke: bool):
        self.pairs = 20 if smoke else 500
        self.argv = ["model", "verify", "--model", "ks2",
                     "--pairs", str(self.pairs), "--seed", str(seed)]

    def setup(self) -> None:
        pass

    def run_pass(self) -> list:
        return [_cli_op(self.argv, self._check)]

    def _check(self, doc) -> tuple:
        found = {"ontomodel.born_check.count": doc["pairs"]}
        if doc["pairs"] != self.pairs:
            return f"{doc['pairs']} pairs, expected {self.pairs}", found
        # criterion 7 thresholds
        if not doc["born_worst"] < 1e-6:
            return f"Born residual {doc['born_worst']!r} >= 1e-6", found
        if not doc["overlap_worst"] < 1e-4:
            return f"overlap residual {doc['overlap_worst']!r} >= 1e-4", found
        if not doc["overlap_inequality_worst"] <= 1e-4:
            return (f"overlap-inequality violation "
                    f"{doc['overlap_inequality_worst']!r} > 1e-4"), found
        return None, found


DEPOLARIZING_P = tuple(float(p) for p in np.geomspace(5e-4, 1e-2, 10))
MISALIGNMENT_SIGMA = tuple(float(s) for s in np.geomspace(1e-3, 2e-2, 10))
SEEDS_PER_VALUE = 5


class NoiseSweep:
    """Noise sweep on one d=4 design: set-up builds the design (96 searches);
    each timed point samples, aggregates, bounds and encodes one experiment."""

    name = "noise_sweep"
    setup_repeats = 3  # each set-up is 96 searches (~18 s); three keep a run near 80 s
    dim = 4
    restarts = 24

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.shots = 100_000 if smoke else 1_000_000
        if smoke:
            channels = [expsim.Depolarizing(1e-3), expsim.Depolarizing(5e-3),
                        expsim.Misalignment(2e-3), expsim.Misalignment(1e-2)]
            per_value = 1
        else:
            channels = ([expsim.Depolarizing(p) for p in DEPOLARIZING_P]
                        + [expsim.Misalignment(s) for s in MISALIGNMENT_SIGMA])
            per_value = SEEDS_PER_VALUE
        self.points = []
        for channel in channels:
            for _ in range(per_value):
                stream = np.random.SeedSequence((seed, len(self.points)))
                self.points.append((channel, int(stream.generate_state(1)[0])))
        self.design = None

    def setup(self) -> None:
        family = mub.generate_mub(self.dim)
        self.design = expsim.design_from_mubs(family, restarts=self.restarts,
                                              seed=self.seed)

    def run_pass(self) -> list:
        return [self._point(channel, seed) for channel, seed in self.points]

    def _point(self, channel, seed) -> Op:
        design = self.design
        try:
            start = time.perf_counter()
            noise = expsim.NoiseConfig(channel=channel, shots=self.shots, seed=seed)
            table = expsim.run_experiment(design, noise)
            summary = expsim.aggregate_eps(table, design)
            k_bound = expsim.experimental_k_bound(summary)
            text = json_io.dumps(_sweep_payload(table, summary, k_bound, noise))
            seconds = time.perf_counter() - start
        except Exception as exc:  # any crash fails this point, not the run
            return _op(0.0, "", f"{type(exc).__name__}: {exc}")
        found = {"expsim.settings_sampled": len(design.settings),
                 "json_io.bytes": len(text.encode())}
        return _op(seconds, text, self._check(channel, table, summary, k_bound), found)

    def _check(self, channel, table, summary, k_bound) -> str | None:
        if not math.isfinite(k_bound):
            return f"experimental k bound {k_bound!r} is not finite"
        if isinstance(channel, expsim.Misalignment):
            if not sum(table.f4_mass.values()) > 0.0:
                return f"misalignment sigma={channel.sigma}: no f4 mass"
            return None
        # criterion 8's 5-sigma bands around the analytic misfire averages
        n_triples, n_pairs = len(self.design.triples), len(self.design.pairs)
        q1, q2 = expsim.depolarizing_expectations(self.dim, channel.p)
        band1 = 5 * math.sqrt(q1 * (1 - q1) / (3 * n_triples * self.shots))
        band2 = 5 * math.sqrt(q2 * (1 - q2) / (2 * n_pairs * self.shots))
        return (_outside(f"eps1 at p={channel.p}", summary.eps1, q1, band1)
                or _outside(f"eps2 at p={channel.p}", summary.eps2, q2, band2))


def _sweep_payload(table, summary, k_bound, noise) -> dict:
    """The frequency and per-triple document ``epioverlap simulate`` writes."""
    frequencies: dict = {}
    for (mlabel, prep), outcomes in table.entries.items():
        frequencies.setdefault(mlabel, {})[prep] = dict(outcomes)
    f4_mass: dict = {}
    for (mlabel, prep), mass in table.f4_mass.items():
        f4_mass.setdefault(mlabel, {})[prep] = mass
    channel = noise.channel
    return {
        "dim": table.dim,
        "shots": table.shots,
        "seed": noise.seed,
        "noise": {"channel": channel.kind,
                  "parameter": getattr(channel, "p", getattr(channel, "sigma", None))},
        "frequencies": frequencies,
        "f4_mass": f4_mass,
        "per_triple": {f"{a},{i},{b},{j}": v
                       for (a, i, b, j), v in summary.per_triple.items()},
        "per_pair": {f"{a},{i},{j}": v for (a, i, j), v in summary.per_pair.items()},
        "eps1": summary.eps1,
        "eps2": summary.eps2,
        "k_bound": k_bound,
    }


WORKLOADS = {w.name: w for w in (D3Certificate, NoiseSweep, KS2Verify)}
