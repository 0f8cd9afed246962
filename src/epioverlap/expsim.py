"""Finite-sample simulation of the overlap-bound experiment.

The protocol prepares states drawn from a set of mutually unbiased bases
plus a reference state c, and measures either a basis directly or a
misfire-minimizing four-outcome measurement tied to one triple
(e^a_i, e^b_j, c). Observed frequencies feed the per-triple and per-pair
misfire averages

    eps(c, e^a_i, e^b_j) = (R[f1|e^a_i] + R[f2|e^b_j] + R[f3|c]) / 3
    eps(e^a_i, e^a_j)    = (R[e^a_j|e^a_i] + R[e^a_i|e^a_j]) / 2

whose grand averages eps1 and eps2 plug into the noise-adjusted k bound.

The measurement is treated as perfectly aligned within the triple's
three-dimensional subspace: probability mass landing on the complement
outcome f4 is renormalized away before sampling and reported separately as
a diagnostic. Detector inefficiency is deliberately not modeled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bounds
from .mub import MubFamily
from .qstate import Measurement, PureState, basis_measurement
from .triples import cross_basis_census, full_measurement, pairwise_fidelities, pp_incompatible


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


# ---------------------------------------------------------------------------
# Experiment design
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Setting:
    index: int
    measurement_label: str
    prep_label: str
    measurement: Measurement
    preparation: PureState


@dataclass(frozen=True)
class ExperimentDesign:
    dim: int
    settings: tuple
    triples: tuple           # (alpha, i, beta, j) in design order
    pairs: tuple             # (alpha, i, j) with i < j
    triple_epsilons: tuple   # minimized misfire average per triple, design order


def _assemble_design(dim, c, e_bases, restarts, seed) -> ExperimentDesign:
    settings = []
    triples = []
    floors = []
    for (alpha, i, beta, j), a, b, result in cross_basis_census(e_bases, c, restarts, seed):
        if not result.converged:
            raise RuntimeError(
                f"conjugate-basis search did not converge for triple "
                f"({alpha},{i},{beta},{j})")
        if pp_incompatible(pairwise_fidelities(a, b, c)) and result.epsilon > 1e-8:
            raise RuntimeError(
                f"triple ({alpha},{i},{beta},{j}) is PP-incompatible but "
                f"optimization stalled at {result.epsilon:.3e}")
        meas = full_measurement(a, b, c, result)
        mlabel = f"T{alpha}.{i}-{beta}.{j}"
        for prep_label, prep in ((f"e{alpha}_{i}", a), (f"e{beta}_{j}", b), ("c", c)):
            settings.append(Setting(len(settings), mlabel, prep_label, meas, prep))
        triples.append((alpha, i, beta, j))
        floors.append(result.epsilon)

    pairs = []
    for alpha, basis in enumerate(e_bases, start=1):
        meas = basis_measurement(basis, labels=[f"e{alpha}_{k}" for k in range(1, dim + 1)])
        for i, v in enumerate(basis.vectors, start=1):
            settings.append(Setting(len(settings), f"B{alpha}", f"e{alpha}_{i}", meas, v))
        for i in range(1, dim + 1):
            for j in range(i + 1, dim + 1):
                pairs.append((alpha, i, j))

    return ExperimentDesign(dim=dim, settings=tuple(settings), triples=tuple(triples),
                            pairs=tuple(pairs), triple_epsilons=tuple(floors))


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


# Settings per block: under misalignment the block's rotations come from one
# stacked eigh, and each setting's generator lives until the block is done
# (~2.2 KB apiece). At d = 4 a misalignment run took 22.4 ms in blocks of 1,
# 12.9 ms in blocks of 16 and 12.2 ms in one block of all 304 settings, whose
# generators raised the run's traced peak from 0.19 to 0.82 MB.
BLOCK = 16


def _setting_stream(seed: int, setting: Setting) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, setting.index)))


def _rotations(rngs: list, dim: int, sigma: float) -> np.ndarray:
    """exp(iH) for each stream's Hermitian H = sigma * (a + a^H) / 2, with a
    complex Gaussian a drawn from that stream: a (len(rngs), dim, dim) stack."""
    draws = np.array([(rng.standard_normal((dim, dim)), rng.standard_normal((dim, dim)))
                      for rng in rngs])
    a = (draws[:, 0] + 1j * draws[:, 1]) / np.sqrt(2)
    h = sigma * (a + a.conj().swapaxes(-1, -2)) / 2.0
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(1j * vals)[:, None, :]) @ vecs.conj().swapaxes(-1, -2)


def run_experiment(design: ExperimentDesign, noise: NoiseConfig) -> FrequencyTable:
    """Simulate every setting with the configured shot budget.

    Each setting owns an independent random stream keyed by (seed, setting
    index), so the table is identical however settings are scheduled. Settings
    run in blocks of BLOCK; under misalignment one stacked computation builds
    the rotations of a block. Only outcome counts are drawn (a multinomial per
    setting); frequencies are sufficient for everything downstream.
    """
    channel = noise.channel
    entries = {}
    f4_mass = {}
    for start in range(0, len(design.settings), BLOCK):
        block = design.settings[start:start + BLOCK]
        if isinstance(channel, Misalignment):
            rngs = [_setting_stream(noise.seed, s) for s in block]
            rotations = _rotations(rngs, design.dim, channel.sigma)
            preps = (PureState(u @ s.preparation.amplitudes) for s, u in zip(block, rotations))
        else:  # one generator alive at a time
            rngs = (_setting_stream(noise.seed, s) for s in block)
            preps = (s.preparation for s in block)
        for setting, rng, psi in zip(block, rngs, preps):
            key = (setting.measurement_label, setting.prep_label)
            probs = setting.measurement.probabilities(psi)
            is_triple = setting.measurement_label.startswith("T")
            k = 3 if is_triple else design.dim  # sampled outcomes; a triple's f4 follows
            if isinstance(channel, Depolarizing):
                p = channel.p
                probs[:k] = (1.0 - p) * probs[:k] + p / k
                probs[k:] *= 1.0 - p
            if is_triple:
                f4_mass[key] = float(probs[k:].sum())

            probs = np.clip(probs[:k], 0.0, None)
            total = probs.sum()
            if total < 1e-9:
                raise RuntimeError("vanishing in-subspace probability mass")
            counts = rng.multinomial(noise.shots, probs / total)
            entries[key] = {
                lab: counts[i] / noise.shots
                for i, lab in enumerate(setting.measurement.labels[:k])
            }
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


def aggregate_eps(table: FrequencyTable, design: ExperimentDesign) -> NoiseSummary:
    """Misfire averages per triple and per same-basis pair, plus their
    grand averages over the design."""
    d = design.dim
    per_triple = {}
    try:
        for (alpha, i, beta, j) in design.triples:
            mlabel = f"T{alpha}.{i}-{beta}.{j}"
            per_triple[(alpha, i, beta, j)] = (
                table.frequency(mlabel, f"e{alpha}_{i}", "f1")
                + table.frequency(mlabel, f"e{beta}_{j}", "f2")
                + table.frequency(mlabel, "c", "f3")
            ) / 3.0
        per_pair = {}
        for (alpha, i, j) in design.pairs:
            per_pair[(alpha, i, j)] = (
                table.frequency(f"B{alpha}", f"e{alpha}_{i}", f"e{alpha}_{j}")
                + table.frequency(f"B{alpha}", f"e{alpha}_{j}", f"e{alpha}_{i}")
            ) / 2.0
    except KeyError as exc:
        raise ValueError(f"frequency table does not cover the design: {exc}") from exc

    n_triples = d ** 3 * (d - 1) // 2
    n_pairs = d ** 2 * (d - 1) // 2
    if len(per_triple) != n_triples or len(per_pair) != n_pairs:
        raise ValueError("design does not have the full triple/pair census")
    eps1 = sum(per_triple.values()) / n_triples
    eps2 = sum(per_pair.values()) / n_pairs
    return NoiseSummary(dim=d, per_triple=per_triple, per_pair=per_pair,
                        eps1=eps1, eps2=eps2)


def experimental_k_bound(summary: NoiseSummary) -> float:
    """The tight noise-adjusted bound evaluated at the measured averages."""
    if summary.dim < 4:
        raise ValueError("the closed-form noisy bound applies from dimension 4")
    return bounds.noisy_bound(summary.dim, summary.eps1, summary.eps2).tight


def depolarizing_expectations(d: int, p: float) -> tuple:
    """Analytic (eps1, eps2) for the depolarizing channel on an exact design:
    matched outcomes have zero Born probability, so every error frequency is
    p/3 for triple measurements and p/d for basis measurements."""
    return p / 3.0, p / d
