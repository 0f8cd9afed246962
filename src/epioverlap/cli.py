"""Command-line entry point.

One binary with subcommands; every run stamps the package version and the
seed it used, writes canonical JSON (sorted keys, 17 significant digits)
either to stdout or atomically to --out, and prints a short human-readable
summary to stderr. Identical flags and seed give byte-identical JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__, bounds, d3cert, expsim, json_io, mub, ontomodel
from .qstate import (
    InputError,
    basis_measurement,
    random_state,
    random_unitary,
    state_from_obj,
)
from .triples import find_conjugate_basis, pp_incompatible, triple_overlaps

DEFAULT_SEED = 1234


_SEARCH_FIELDS = ("epsilon", "triple_sum", "converged", "restarts_used", "evaluations",
                  "dual_gap")


def _gap_decade(gap: float) -> float:
    """The smallest power of ten at least gap (0 stays 0). A closed gap is
    rounding noise; with DUAL_GAP_TOL a power of ten, "reported gap <= tol"
    is still exactly "converged". log10 rounds, so its guess is checked."""
    if not 0.0 < gap < math.inf:
        return gap
    exponent = math.ceil(math.log10(gap))
    if float(f"1e{exponent - 1}") >= gap:
        exponent -= 1
    elif float(f"1e{exponent}") < gap:
        exponent += 1
    return float(f"1e{exponent}")


def _search_fields(result) -> dict:
    """A pp-check or d3 record's search fields; basis is f1, f2, f3 as [re, im]
    pairs, and dual_gap its decade (_gap_decade)."""
    fields = {name: getattr(result, name) for name in _SEARCH_FIELDS}
    fields["dual_gap"] = _gap_decade(result.dual_gap)
    fields["basis"] = [[[float(a.real), float(a.imag)] for a in f] for f in result.matrix.T]
    return fields


def _read_json(path: str):
    """Parse a JSON input file; unreadable or unparsable files raise InputError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(str(exc) or type(exc).__name__) from None


# ---------------------------------------------------------------------------
# Handlers: each returns (payload, summary_lines)
# ---------------------------------------------------------------------------

def _cmd_mub(args):
    family = mub.generate_mub(args.dim)
    check = mub.verify_mub(family)
    payload = {
        "family": mub.family_to_obj(family),
        "verification": {
            "max_cross_deviation": check.max_cross_deviation,
            "orthonormality_deviation": check.orthonormality_deviation,
        },
    }
    summary = [
        f"mutually unbiased bases   dim {args.dim}: {family.count} bases",
        f"max cross-fidelity deviation from 1/{args.dim}: {check.max_cross_deviation:.3e}",
        f"orthonormality deviation: {check.orthonormality_deviation:.3e}",
    ]
    return payload, summary


def _cmd_pp_check(args):
    doc = _read_json(args.states)
    states = doc.get("states") if isinstance(doc, dict) else None
    if not isinstance(states, list) or len(states) != 3:
        raise InputError('the states file needs a "states" list of exactly 3 states')
    a, b, c = (state_from_obj(s) for s in states)
    if not a.dim == b.dim == c.dim:
        raise InputError("the three states have different dimensions")
    if a.dim > MAX_PP_DIM:
        raise InputError(f"state dimension {a.dim} is above the pp-check limit {MAX_PP_DIM}")
    x = triple_overlaps(a, b, c)
    verdict = pp_incompatible(x)
    result = find_conjugate_basis(a, b, c, restarts=args.restarts, seed=args.seed)
    payload = {
        "x1": x.x1, "x2": x.x2, "x3": x.x3,
        "pp_incompatible": verdict,
        **_search_fields(result),
    }
    summary = [
        f"pairwise fidelities: x1={x.x1:.6f} x2={x.x2:.6f} x3={x.x3:.6f}",
        f"algebraic PP-incompatibility: {verdict}",
        f"minimized misfire average: {result.epsilon:.3e} "
        f"(converged={result.converged}, restarts={result.restarts_used}, "
        f"dual gap={result.dual_gap:.1e}, evaluations={result.evaluations})",
    ]
    return payload, summary


def _cmd_bound(args):
    if args.threshold:
        dsub = mub.largest_prime_power_leq(args.dim)
        value = bounds.noise_threshold(dsub)
        payload = {"report": {"dim": args.dim, "subdim": dsub, "threshold": value}}
        summary = [f"symmetric noise threshold at dim {args.dim} "
                   f"(prime-power subdim {dsub}): {value:.6f}"]
        return payload, summary
    rep = bounds.noiseless_bound(args.dim)
    report = {
        "dim": rep.dim,
        "subdim": rep.subdim,
        "exact_bound": rep.exact_bound,
        "coarse_two_over_subdim": rep.coarse_two_over_subdim,
        "coarse_four_over_dim_minus_one": rep.coarse_four_over_dim_minus_one,
        "noise_adjusted": None,
        "noise_adjusted_coarse": None,
        "threshold_ok": None,
    }
    summary = [
        f"overlap-ratio bound at dim {rep.dim} (prime-power subdim {rep.subdim}):",
        f"  exact bound     (1/d')(1+sqrt(1-1/d')): {rep.exact_bound:.12f}",
        f"  coarse bound    2/d':                   {rep.coarse_two_over_subdim:.12f}",
        f"  coarse bound    4/(d-1):                {rep.coarse_four_over_dim_minus_one:.12f}",
    ]
    if args.eps1 is not None or args.eps2 is not None:
        e1 = args.eps1 or 0.0
        e2 = args.eps2 or 0.0
        noisy = bounds.noisy_bound(args.dim, e1, e2)
        report["noise_adjusted"] = noisy.tight
        report["noise_adjusted_coarse"] = noisy.coarse
        report["threshold_ok"] = noisy.tight < 1.0
        summary.append(f"  noise-adjusted  eps1={e1} eps2={e2}: tight {noisy.tight:.12f}, "
                       f"coarse {noisy.coarse:.12f}, within budget: {report['threshold_ok']}")
    return {"report": report}, summary


def _cmd_d3(args):
    report = d3cert.run_certificate(restarts=args.restarts, seed=args.seed)
    entries = [{"alpha": a, "i": i, "beta": b, "j": j, **_search_fields(report.census.row(t))}
               for t, (a, i, b, j) in enumerate(report.census.keys)]
    payload = {
        "restarts": args.restarts,
        "entries": entries,
        "family_sums": {f"{a},{b}": v for (a, b), v in report.family_sums.items()},
        "grand_noise_sum": report.grand_noise_sum,
        "overlap_weight_sum": report.overlap_weight_sum,
        "k_bound": report.k_bound,
    }
    summary = [
        "three-dimensional certificate:",
        *(f"  family ({a},{b}) noise sum: {v:.6f}"
          for (a, b), v in report.family_sums.items()),
        f"  grand noise sum:    {report.grand_noise_sum:.6f}",
        f"  overlap weight sum: {report.overlap_weight_sum:.6f}",
        f"  k bound:            {report.k_bound:.6f}",
    ]
    if args.csv:
        json_io.write_atomic(args.csv, _d3_csv(entries))
        summary.append(f"  per-triple table written to {args.csv}")
    return payload, summary


def _d3_csv(entries) -> str:
    header = ["alpha", "i", "beta", "j", "epsilon", "triple_sum", "converged"]
    for f in (1, 2, 3):
        for comp in (1, 2, 3):
            header += [f"f{f}_{comp}_re", f"f{f}_{comp}_im"]
    rows = [",".join(header)]
    for e in entries:
        row = [str(e["alpha"]), str(e["i"]), str(e["beta"]), str(e["j"]),
               format(e["epsilon"], ".17g"), format(e["triple_sum"], ".17g"),
               str(e["converged"]).lower()]
        for vec in e["basis"]:
            for re_im in vec:
                row += [format(re_im[0], ".17g"), format(re_im[1], ".17g")]
        rows.append(",".join(row))
    return "\n".join(rows) + "\n"


def _cmd_model(args):
    if args.model == "ks2":
        model = ontomodel.ks_model_d2()
        born_worst = 0.0
        overlap_worst = 0.0
        overlap_inequality_worst = -math.inf
        for start in range(0, args.pairs, ontomodel.CHUNK):
            pairs = []
            for k in range(start, min(start + ontomodel.CHUNK, args.pairs)):
                psi = random_state(2, (args.seed, 2 * k))
                phi = random_state(2, (args.seed, 2 * k + 1))
                meas = basis_measurement(random_unitary(2, (args.seed, k, 99)))
                born_worst = max(born_worst, ontomodel.born_check(model, psi, meas))
                pairs.append((psi, phi))
            # overlap_pair - quantum_overlap per pair, after the pair's Born gates
            for gap in ontomodel.overlap_gaps(model, pairs).tolist():
                overlap_worst = max(overlap_worst, abs(gap))
                overlap_inequality_worst = max(overlap_inequality_worst, gap)
        payload = {
            "model": "ks2",
            "pairs": args.pairs,
            "born_worst": born_worst,
            "overlap_worst": overlap_worst,
            "overlap_inequality_worst": overlap_inequality_worst,
        }
        summary = [
            f"sphere qubit model over {args.pairs} seeded pairs:",
            f"  worst Born residual:                {born_worst:.3e}",
            f"  worst |overlap - quantum overlap|:  {overlap_worst:.3e}",
            f"  worst overlap-inequality violation: {overlap_inequality_worst:.3e}",
        ]
        return payload, summary
    model = ontomodel.abstract_model_from_obj(_read_json(args.model))
    structure = model.verify()
    payload = {"model": args.model, "structure": structure}
    summary = [
        f"discrete model from {args.model}: {structure['points']} ontic points",
        f"  values in range: {structure['values_in_range']}",
        f"  worst state normalization residual: "
        f"{max(structure['state_normalization_residuals'].values(), default=0.0):.3e}",
    ]
    return payload, summary


def _cmd_simulate(args):
    channel = args.noise
    if args.dim == 3:
        design = expsim.design_from_d3(d3cert.canonical_states(),
                                       restarts=args.restarts, seed=args.seed)
    else:
        family = mub.generate_mub(args.dim)
        design = expsim.design_from_mubs(family, restarts=args.restarts, seed=args.seed)
    noise = expsim.NoiseConfig(channel=channel, shots=args.shots, seed=args.seed)
    table = expsim.run_experiment(design, noise)
    summary_stats = expsim.aggregate_eps(table, design)

    frequencies: dict = {}
    for (mlabel, prep), outcomes in table.entries.items():
        frequencies.setdefault(mlabel, {})[prep] = dict(outcomes)
    f4_mass: dict = {}
    for (mlabel, prep), mass in table.f4_mass.items():
        f4_mass.setdefault(mlabel, {})[prep] = mass

    k_bound = expsim.experimental_k_bound(summary_stats)
    parameter = getattr(channel, "p", getattr(channel, "sigma", None))
    payload = {
        "dim": design.dim,
        "shots": args.shots,
        "noise": {"channel": channel.kind, "parameter": parameter},
        "frequencies": frequencies,
        "f4_mass": f4_mass,
        "per_triple": {f"{a},{i},{b},{j}": v
                       for (a, i, b, j), v in summary_stats.per_triple.items()},
        "per_pair": {f"{a},{i},{j}": v
                     for (a, i, j), v in summary_stats.per_pair.items()},
        "eps1": summary_stats.eps1,
        "eps2": summary_stats.eps2,
        "k_bound": k_bound,
        "noise_budget_ok": k_bound < 1.0,
    }
    summary = [
        f"simulated experiment  dim {design.dim}, {len(design.settings)} settings, "
        f"{args.shots} shots each, channel {channel.kind}",
        f"  eps1 (triple average): {summary_stats.eps1:.6e}",
        f"  eps2 (pair average):   {summary_stats.eps2:.6e}",
        f"  noise within budget:   {k_bound < 1.0}",
        f"  experimental k bound:  {k_bound:.6f}",
    ]
    return payload, summary


def _cmd_bonferroni(args):
    rng = np.random.default_rng(args.seed)
    min_slack = float("inf")
    violations = 0
    for _ in range(args.trials):
        ref = rng.dirichlet(np.ones(args.points))
        labeled = {
            (alpha, i): rng.dirichlet(np.ones(args.points))
            for alpha in (1, 2) for i in (1, 2, 3)
        }
        slack = ontomodel.bonferroni_check(ref, labeled)
        min_slack = min(min_slack, slack)
        if slack < -1e-9:
            violations += 1
    payload = {
        "trials": args.trials,
        "points": args.points,
        "min_slack": min_slack,
        "violations": violations,
    }
    summary = [
        f"union-bound slack over {args.trials} random discrete families "
        f"({args.points} points):",
        f"  minimum slack: {min_slack:.6e}   violations: {violations}",
    ]
    return payload, summary


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------

def _noise_average(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text!r}")
    return value


def _int_in_range(lowest: int | None = None, highest: int | None = None):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if lowest is not None and value < lowest:
            raise argparse.ArgumentTypeError(f"must be >= {lowest}, got {value}")
        if highest is not None and value > highest:
            raise argparse.ArgumentTypeError(f"must be <= {highest}, got {value}")
        return value
    return parse


_count = _int_in_range(lowest=1)


def _noise_channel(text: str):
    try:
        return expsim.parse_channel(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# largest_prime_power_leq trial-divides each candidate up to its square root,
# so its time grows like sqrt(dim): ~0.15 s at 10**12, seconds at 10**15.
MAX_BOUND_DIM = 10 ** 12
# An odd prime p builds p + 1 dense p x p bases and verifies every pair, so
# time grows like ~p^3.3: 1.7 s and 128 MB at p = 61, 9.3 s and 459 MB at
# p = 101 (2-core VM).
MAX_MUB_DIM = 64
# A pp-check search works on d x 3 columns, so time and memory grow like dim,
# mostly in reading the states and printing the basis: 0.02 s and 41 MB peak
# at dim = 1,024, 1.2 s and 146 MB at dim = 65,536 (in process, 2-core VM).
# The cap bounds those documents; no caller needs a larger dim.
MAX_PP_DIM = 1024
# A search whose dual gap stays open runs every restart and keeps each
# one's frames: at 10**4 restarts one pp-check search took 3.0 s
# and 74 MB peak (2-core VM).
MAX_RESTARTS = 10_000
# A prime-power dim builds a design of d^3 (d - 1) / 2 conjugate-basis
# searches before sampling, so time and memory grow like d^4: the default
# simulate took 7.3 s and 110 MB at d = 11 (6,655 searches), and d = 13
# (13,182 searches) 15.5 s and 206 MB (2-core VM).
MAX_SIMULATE_DIM = 11
# The multinomial sampler draws counts as int64.
MAX_SHOTS = 2 ** 63 - 1
# A bonferroni trial draws seven Dirichlet families over --points points: one
# took 0.35 s and 119 MB peak at 10**6 points, 2.3 s and 884 MB at 10**7 (2-core VM).
MAX_POINTS = 10 ** 6
_restarts = _int_in_range(lowest=1, highest=MAX_RESTARTS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epioverlap",
        description="Overlap bounds for epistemic models of quantum states.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write JSON here (atomic); default stdout")
        p.add_argument("--seed", type=_int_in_range(lowest=0), default=DEFAULT_SEED,
                       help=f"random seed (default {DEFAULT_SEED}; stamped in output)")

    p = sub.add_parser("mub", help="construct and verify mutually unbiased bases")
    p.add_argument("--dim", type=_int_in_range(highest=MAX_MUB_DIM), required=True)
    common(p)
    p.set_defaults(handler=_cmd_mub)

    p = sub.add_parser("pp-check", help="PP-incompatibility report for a state triple")
    p.add_argument("--states", required=True, help="JSON file with three states")
    p.add_argument("--restarts", type=_restarts, default=32)
    common(p)
    p.set_defaults(handler=_cmd_pp_check)

    p = sub.add_parser("bound", help="closed-form overlap-ratio bounds")
    p.add_argument("--dim", type=_int_in_range(highest=MAX_BOUND_DIM), required=True)
    p.add_argument("--eps1", type=_noise_average, default=None)
    p.add_argument("--eps2", type=_noise_average, default=None)
    p.add_argument("--threshold", action="store_true",
                   help="report the symmetric noise threshold at the largest "
                        "prime power <= dim instead")
    common(p)
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser("d3", help="run the three-dimensional certificate")
    p.add_argument("--restarts", type=_restarts, default=64)
    p.add_argument("--csv", help="also write the per-triple table as CSV")
    common(p)
    p.set_defaults(handler=_cmd_d3)

    p = sub.add_parser("model", help="verify an ontological model")
    msub = p.add_subparsers(dest="model_command", required=True)
    v = msub.add_parser("verify")
    v.add_argument("--model", required=True, help='"ks2" or a JSON model file')
    v.add_argument("--pairs", type=_count, default=20)
    common(v)
    v.set_defaults(handler=_cmd_model)

    p = sub.add_parser("simulate", help="simulate the noisy experiment")
    p.add_argument("--dim", type=_int_in_range(highest=MAX_SIMULATE_DIM), default=4)
    p.add_argument("--noise", type=_noise_channel, default="none",
                   help='"none", "depolarizing:p", or "misalignment:sigma"')
    p.add_argument("--shots", type=_int_in_range(lowest=1, highest=MAX_SHOTS),
                   default=100000)
    p.add_argument("--restarts", type=_restarts, default=24,
                   help="restarts per conjugate-basis search when building the design")
    common(p)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("bonferroni", help="union-bound slack on random families")
    p.add_argument("--trials", type=_count, default=1000)
    p.add_argument("--points", type=_int_in_range(lowest=1, highest=MAX_POINTS), default=50)
    common(p)
    p.set_defaults(handler=_cmd_bonferroni)

    return parser


def report(payload: dict, summary_lines) -> str:
    """Human-readable summary block for a command payload."""
    head = f"[epioverlap {payload.get('version', __version__)}] {payload.get('command', '')}"
    return "\n".join([head, *summary_lines])


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "bound" and args.threshold and (args.eps1, args.eps2) != (None, None):
        parser.error("argument --threshold: not allowed with --eps1 or --eps2")
    try:
        payload, summary = args.handler(args)
        payload = {
            "command": args.command,
            "version": __version__,
            "seed": args.seed,
            **payload,
        }
        text = json_io.dumps(payload)
        if args.out:
            json_io.write_atomic(args.out, text)
        else:
            print(text)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, RuntimeError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(report(payload, summary), file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
