"""Tests of the benchmark harness itself, at smoke size.

    python3 -m pytest -q perfbench

They check the result-line format against BENCHMARK.json, the traced counts,
and that the harness refuses to run without the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spans

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("triples.search.count", "triples.restarts_used", "expsim.settings_sampled",
          "ontomodel.born_check.count", "json_io.bytes")


def run(workload, trace, seed=17, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return done


def result_of(done):
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def expected_metrics(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == ["noise_sweep", "ks2_verify"]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    names = [m["name"] for section in ("end_to_end", "per_layer") for m in SPEC[section]]
    assert len(names) == len(set(names))


def test_untraced_result_line_matches_spec():
    result = result_of(run("ks2_verify", 0))
    assert units(result) == expected_metrics("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat_exactly():
    first = result_of(run("ks2_verify", 1))
    second = result_of(run("ks2_verify", 1))
    assert units(first) == expected_metrics("per_layer")
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["ontomodel.born_check.count"]["value"] == 20
    assert first["metrics"]["triples.search.count"]["value"] == 0


@pytest.mark.parametrize("workload", ["d3_certificate", "noise_sweep"])
def test_traced_searches_land_where_predicted(workload):
    metrics = {k: v["value"] for k, v in result_of(run(workload, 1))["metrics"].items()}
    assert set(metrics) == set(expected_metrics("per_layer"))
    if workload == "d3_certificate":
        assert metrics["triples.search.count"] == 27
        assert metrics["triples.converged_ratio"] == 1.0
    else:
        assert metrics["triples.search.count"] == 0
        assert metrics["setup.triples.search.count"] == 96
        assert metrics["expsim.settings_sampled"] == 4 * 304
        assert metrics["setup.triples.search.busy_s"] > 0.5 * metrics["expsim.design.s"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run("noise_sweep", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_self_time_subtracts_direct_children():
    # [name, phase, start, end, parent, attrs]
    recorded = [["cli.main", "timed", 0.0, 10.0, None, None],
                ["d3cert.run_certificate", "timed", 1.0, 9.0, 0, None],
                ["triples.find_conjugate_basis", "timed", 2.0, 5.0, 1, None],
                ["triples.find_conjugate_basis", "timed", 5.0, 8.0, 1, None]]
    assert spans.self_times(recorded) == [2.0, 2.0, 3.0, 3.0]
