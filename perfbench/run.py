"""epioverlap benchmark: one workload per run, timed, checked and reported.

    python3 perfbench/run.py --workload noise_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``. The
run sets up the workload several times (``setup_s`` is the median), and after
each set-up runs its share of timed passes over the same seeded inputs, until
``--seconds`` have been measured and at least two passes are done. ``wall_s``
is a typical pass: the sum over the pass's ops of each op's median time
across passes. The outputs of all passes must be byte-identical and pass the
workload's checks. ``--trace 1`` instead sets up once, makes one untraced and
one traced pass and reports the per-layer metrics of ``spans.py``.
``--smoke`` shrinks every workload for the harness's own tests.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a readable
report. The full record of the run (samples, output digests, counts and the
machine stamp) goes to ``.perfbench-out/`` in the checkout, along with the
spans of a traced run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

MIN_PASSES = 2  # every run compares the output bytes of two passes
# one BLAS/OpenMP thread: the hot paths are 3x3 and 4x4 linear algebra,
# which threads do not speed up, and runs stay comparable across core counts
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
IMPORT_PROBE = ("import time; t = time.perf_counter(); import epioverlap.cli; "
                "print(time.perf_counter() - t)")
WORKLOAD_NAMES = ("d3_certificate", "noise_sweep", "ks2_verify")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and one set-up, for testing the harness")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def child_import_seconds() -> float:
    """Import time of epioverlap.cli in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def git_revision() -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "epioverlap").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def stamp() -> dict:
    import numpy
    import scipy

    return {
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "thread_env": {name: os.environ.get(name) for name in sorted(THREAD_ENV)},
    }


def run_pass(workload) -> dict:
    gc.collect()
    ops = workload.run_pass()
    return {
        "seconds": sum(op.seconds for op in ops),
        "ops": ops,
        "digests": [op.sha256 for op in ops],
    }


def typical_pass_seconds(passes) -> float:
    """Sum over ops of each op's median time across passes. Per-op medians
    drop a stall of the host that hits one pass, which a median of whole
    passes keeps whenever stalls hit most passes somewhere."""
    per_op = zip(*(p["ops"] for p in passes))
    return sum(statistics.median(op.seconds for op in ops) for ops in per_op)


def pass_counts(one_pass) -> dict:
    total: dict = {}
    for op in one_pass["ops"]:
        for name, value in op.counts.items():
            total[name] = total.get(name, 0) + value
    return total


def measure(workload, tracer, repeats, seconds) -> tuple:
    """Set up ``repeats`` times, each set-up followed by its share of the
    timed passes. The host's speed drifts over tens of seconds, so set-ups
    and passes alike sample it across the whole run, not one stretch."""
    import_times, setup_times, passes = [], [], []
    for n in range(1, repeats + 1):
        import_times.append(child_import_seconds())
        gc.collect()
        start = time.perf_counter()
        if tracer:
            with tracer.installed():
                workload.setup()
        else:
            workload.setup()
        setup_times.append(import_times[-1] + time.perf_counter() - start)
        if not tracer:
            while (len(passes) < MIN_PASSES
                   or sum(p["seconds"] for p in passes) < seconds * n / repeats):
                passes.append(run_pass(workload))
    if tracer:
        passes.append(run_pass(workload))
        tracer.phase = "timed"
        with tracer.installed():
            passes.append(run_pass(workload))
    return import_times, setup_times, passes


def find_problems(passes, tracer, errors) -> list:
    """Failed checks, outputs or counts that differ between passes, and
    traced counts that differ from the counts read from the outputs."""
    problems = errors[:5]
    if any(p["digests"] != passes[0]["digests"] for p in passes):
        problems.append("outputs differ between passes of one seed")
    counts = [pass_counts(p) for p in passes]
    if any(c != counts[0] for c in counts):
        problems.append(f"deterministic counts differ between passes: {counts}")
    if tracer:
        traced = spans.counts(tracer.spans)
        if traced != counts[-1]:
            problems.append(f"traced counts {traced} differ from output counts {counts[-1]}")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "epioverlap" / "__init__.py").is_file():
        print(f"perfbench: no epioverlap package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    load_start = os.getloadavg()
    run_id = uuid.uuid4().hex[:12]

    import workloads  # imports epioverlap, after the thread settings

    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    repeats = 1 if (args.trace or args.smoke) else workload.setup_repeats
    tracer = spans.Tracer(run_id) if args.trace else None
    import_times, setup_times, passes = measure(workload, tracer, repeats, args.seconds)
    load_end = os.getloadavg()

    ops = [op for p in passes for op in p["ops"]]
    errors = [op.error for op in ops if op.error]
    problems = find_problems(passes, tracer, errors)
    if tracer:
        overhead = passes[1]["seconds"] - passes[0]["seconds"]
        named = spans.per_layer_metrics(tracer.spans, statistics.median(import_times),
                                        overhead)
    else:
        named = {
            "wall_s": (typical_pass_seconds(passes), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB"),
        }
    result = {
        "correct": not problems, "attempted": len(ops), "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in named.items()},
    }
    output_sha256 = hashlib.sha256("".join(passes[0]["digests"]).encode()).hexdigest()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "run_id": run_id,
        "stamp": stamp(), "loadavg_start": load_start, "loadavg_end": load_end,
        "argv": getattr(workload, "argv", None),
        "import_s": import_times, "setup_s": setup_times,
        "pass_s": [p["seconds"] for p in passes],
        "op_s": [[op.seconds for op in p["ops"]] for p in passes],
        "output_sha256": output_sha256, "op_sha256": passes[0]["digests"],
        "counts": pass_counts(passes[0]), "problems": problems, "result": result,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{run_id}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        tracer.write(OUT / f"{stem}.spans.jsonl")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} run={run_id}")
    for name, (value, unit) in named.items():
        print(f"  {name:44s} {value:>14.6g} {unit}")
    print(f"  {'error_rate':44s} {len(errors) / len(ops):>14.6g} failed/attempted "
          f"({len(errors)} of {len(ops)} ops)")
    print(f"  samples: per-op medians of {len(passes)} passes, median of "
          f"{len(setup_times)} set-ups; "
          f"load average {load_start[0]:.2f} -> {load_end[0]:.2f}")
    print(f"  output sha256 {output_sha256} (first of {len(passes)} compared passes)")
    for problem in problems:
        print(f"  problem: {problem}")
    print(f"  record: {OUT.relative_to(ROOT) / (stem + '.json')}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
