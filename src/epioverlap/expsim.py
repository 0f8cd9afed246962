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

The measurement is treated as perfectly aligned within the triple's
three-dimensional subspace: probability mass landing on the complement
outcome f4 is renormalized away before sampling and reported separately as
a diagnostic. Detector inefficiency is deliberately not modeled.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import bounds
from .mub import MubFamily
from .qstate import Measurement, PureState, basis_measurement
from .triples import cross_basis_census, full_measurement


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
    overlap_weight: float    # W(c), summed over the e states basis by basis


def _assemble_design(dim, c, e_bases, restarts, seed) -> ExperimentDesign:
    settings = []
    triples = []
    floors = []
    for (alpha, i, beta, j), a, b, result in cross_basis_census(e_bases, c, restarts, seed):
        if not result.converged:
            raise RuntimeError(
                f"conjugate-basis search did not converge for triple "
                f"({alpha},{i},{beta},{j})")
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

    w = bounds.overlap_weight(c, [v for basis in e_bases for v in basis.vectors])
    return ExperimentDesign(dim=dim, settings=tuple(settings), triples=tuple(triples),
                            pairs=tuple(pairs), triple_epsilons=tuple(floors),
                            overlap_weight=w)


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
# stacked eigh, and every slot of a block holds its own generator (~2.2 KB),
# reloaded for each block. With one generator built per setting, a d = 4
# misalignment run took 22.4 ms in blocks of 1 and 12.9 ms in blocks of 16;
# one block of all 304 settings (12.2 ms) raised its traced peak from 0.19
# to 0.82 MB.
BLOCK = 16

# SeedSequence's entropy hash and PCG64's seeding step, whose output NumPy
# keeps fixed across releases (NEP 19). The hash runs over all indices at
# once on Python ints used as vectors: each index owns a 64-bit lane holding
# a 32-bit word, a word times a 32-bit constant stays inside its lane, and a
# mask after each step clears what a shift carried in from the next lane.
# (numpy's integer bitwise loops would page in code nothing else here uses.)
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _stream_words(seed: int, indices) -> np.ndarray:
    """SeedSequence((seed, i)).generate_state(8) for each index i < 2**32,
    as an (8, len(indices)) int64 array."""
    seed, n = operator.index(seed), len(indices)
    lane = int.from_bytes(b"\1\0\0\0\0\0\0\0" * n, "little")  # 1 in every lane
    mask = lane * _MASK32

    def xorshift(value):
        return (value ^ value >> 16) & mask

    entropy = []
    while True:  # seed as little-endian 32-bit words, as SeedSequence reads it
        entropy.append(lane * (seed & _MASK32))
        seed >>= 32
        if not seed:
            break
    entropy.append(int.from_bytes(np.asarray(indices, dtype="<i8").tobytes(), "little"))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= lane * hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        return xorshift(value * hash_const & mask)

    def mix(x, y):  # L x - R y modulo 2**32, as L x + (2**32 - R) y
        return xorshift((x * _MIX_MULT_L & mask) + (y * (2**32 - _MIX_MULT_R) & mask) & mask)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for value in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(value))

    hash_const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % 4] ^ lane * hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        words.append(xorshift(value * hash_const & mask).to_bytes(8 * n, "little"))
    return np.frombuffer(b"".join(words), dtype="<i8").reshape(8, n)


def _pcg64_state(w0, w1, w2, w3, w4, w5, w6, w7) -> dict:
    """The state PCG64 seeds from eight generate_state words: the 64-bit
    words (w0 | w1 << 32, ...) read as 128-bit (initstate, initseq), then
    PCG's srandom step."""
    initstate = w1 << 96 | w0 << 64 | w3 << 32 | w2
    inc = (w5 << 97 | w4 << 65 | w7 << 33 | w6 << 1 | 1) & _MASK128
    return {"bit_generator": "PCG64",
            "state": {"state": (inc + initstate) * _PCG_MULT + inc & _MASK128, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def _rotations(rngs: list, dim: int, sigma: float) -> np.ndarray:
    """exp(iH) for each stream's Hermitian H = sigma * (a + a^H) / 2, with a
    complex Gaussian a drawn from that stream: a (len(rngs), dim, dim) stack."""
    draws = np.array([rng.standard_normal((2, dim, dim)) for rng in rngs])
    a = (draws[:, 0] + 1j * draws[:, 1]) / np.sqrt(2)
    h = sigma * (a + a.conj().swapaxes(-1, -2)) / 2.0
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(1j * vals)[:, None, :]) @ vecs.conj().swapaxes(-1, -2)


def run_experiment(design: ExperimentDesign, noise: NoiseConfig) -> FrequencyTable:
    """Simulate every setting with the configured shot budget.

    Each setting owns an independent random stream, the one
    default_rng(SeedSequence((seed, setting index))) would give, so the table
    is identical however settings are scheduled. All streams are seeded in
    one pass and loaded, a block of BLOCK settings at a time, into one reused
    generator per slot. Under misalignment one stacked computation builds
    the rotations of a block. Only outcome counts are drawn (a multinomial
    per setting); frequencies are sufficient for everything downstream.
    """
    channel = noise.channel
    settings = design.settings
    words = _stream_words(noise.seed, [s.index for s in settings])
    rngs = [np.random.Generator(np.random.PCG64(0))
            for _ in range(min(BLOCK, len(settings)))]
    shots = float(noise.shots)  # numpy's int64 / int divides doubles; int / int would not
    entries = {}
    f4_mass = {}
    for start in range(0, len(settings), BLOCK):
        block = settings[start:start + BLOCK]
        for rng, state_words in zip(rngs, words[:, start:start + BLOCK].T.tolist()):
            rng.bit_generator.state = _pcg64_state(*state_words)
        if isinstance(channel, Misalignment):
            rotations = _rotations(rngs[:len(block)], design.dim, channel.sigma)
            preps = [PureState(u @ s.preparation.amplitudes) for s, u in zip(block, rotations)]
        else:
            preps = [s.preparation for s in block]
        probs = [s.measurement.probabilities(psi) for s, psi in zip(block, preps)]
        keys = [(s.measurement_label, s.prep_label) for s in block]

        pvals = [None] * len(block)
        for is_triple in (True, False):
            members = [r for r, key in enumerate(keys) if key[0].startswith("T") == is_triple]
            if not members:
                continue
            p = np.array([probs[r] for r in members])
            k = 3 if is_triple else design.dim  # sampled outcomes; a triple's f4 follows
            if isinstance(channel, Depolarizing):
                p[:, :k] = (1.0 - channel.p) * p[:, :k] + channel.p / k
                p[:, k:] *= 1.0 - channel.p
            if is_triple:
                for r, mass in zip(members, p[:, k:].sum(axis=1).tolist()):
                    f4_mass[keys[r]] = mass
            p = np.clip(p[:, :k], 0.0, None)
            total = p.sum(axis=1)
            if np.any(total < 1e-9):
                raise RuntimeError("vanishing in-subspace probability mass")
            for r, row in zip(members, p / total[:, None]):
                pvals[r] = row

        for setting, key, rng, row in zip(block, keys, rngs, pvals):
            counts = rng.multinomial(noise.shots, row).tolist()
            entries[key] = {lab: count / shots
                            for lab, count in zip(setting.measurement.labels, counts)}
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
