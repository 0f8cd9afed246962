"""Tests for the command-line interface: outputs, schemas, determinism."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epioverlap as ep
import schemas
from epioverlap import cli, frames, ontomodel, qstate
from epioverlap.cli import main
from epioverlap.qstate import state_to_obj
from epioverlap.triples import DUAL_GAP_TOL


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out


def test_bound_stdout(capsys):
    assert main(["bound", "--dim", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, schemas.BOUND_OUTPUT)
    assert payload["report"]["exact_bound"] == ep.noiseless_bound(4).exact_bound
    assert payload["version"] == ep.__version__


def test_bound_noise_flags(tmp_path):
    code, out = run_to_file(tmp_path, "b.json",
                            ["bound", "--dim", "4", "--eps1", "0.001", "--eps2", "0.001"])
    assert code == 0
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, schemas.BOUND_OUTPUT)
    assert payload["report"]["noise_adjusted"] == pytest.approx(
        ep.noisy_bound(4, 0.001, 0.001).tight)
    assert payload["report"]["threshold_ok"] is True


def test_bound_threshold(tmp_path):
    code, out = run_to_file(tmp_path, "t.json", ["bound", "--threshold", "--dim", "4"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["threshold"] == pytest.approx(0.0034, abs=1e-4)
    assert payload["report"]["subdim"] == 4


def test_bound_threshold_below_a_composite_dim(tmp_path):
    """A dimension that is not a prime power takes the threshold of the
    largest prime power below it, as the caps do, and names it."""
    code, out = run_to_file(tmp_path, "t.json", ["bound", "--threshold", "--dim", "6"])
    assert code == 0
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, schemas.BOUND_OUTPUT)
    assert payload["report"] == {"dim": 6, "subdim": 5, "threshold": ep.noise_threshold(5)}


def test_mub_output(tmp_path):
    code, out = run_to_file(tmp_path, "m.json", ["mub", "--dim", "3"])
    assert code == 0
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, schemas.MUB_OUTPUT)
    assert len(payload["family"]["bases"]) == 4
    assert payload["verification"]["max_cross_deviation"] < 1e-10


def test_mub_unsupported_dimension(capsys):
    assert main(["mub", "--dim", "6"]) == 1
    assert "unsupported dimension" in capsys.readouterr().err


def test_pp_check(tmp_path, mub4):
    states = {
        "dim": 4,
        "states": [state_to_obj(mub4.bases[1].vectors[0]),
                   state_to_obj(mub4.bases[2].vectors[0]),
                   state_to_obj(mub4.bases[0].vectors[0])],
    }
    infile = tmp_path / "states.json"
    infile.write_text(json.dumps(states))
    code, out = run_to_file(tmp_path, "pp.json",
                            ["pp-check", "--states", str(infile),
                             "--restarts", "16", "--seed", "2"])
    assert code == 0
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, schemas.PP_CHECK_OUTPUT)
    assert payload["pp_incompatible"] is True
    assert payload["epsilon"] < 1e-8
    assert len(payload["basis"]) == 3


def test_pp_check_degenerate(tmp_path, capsys):
    psi = state_to_obj(ep.basis_state(3, 0))
    infile = tmp_path / "bad.json"
    infile.write_text(json.dumps({"dim": 3, "states": [psi, psi, psi]}))
    assert main(["pp-check", "--states", str(infile)]) == 1


def test_pp_check_missing_file():
    assert main(["pp-check", "--states", "/nonexistent/states.json"]) == 2


def test_d3_small(tmp_path):
    code, out = run_to_file(tmp_path, "d3.json",
                            ["d3", "--restarts", "4", "--seed", "5",
                             "--csv", str(tmp_path / "d3.csv")])
    assert code == 0
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, schemas.D3_OUTPUT)
    assert len(payload["entries"]) == 27
    assert set(payload["family_sums"]) == {"1,2", "1,3", "2,3"}
    csv_lines = (tmp_path / "d3.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 28
    assert csv_lines[0].startswith("alpha,i,beta,j,epsilon,triple_sum,converged")


def test_d3_converges_on_formerly_failing_seed(tmp_path):
    """At this seed one restart used to stall on the common minimum of a
    triple and fail the whole certificate."""
    code, out = run_to_file(tmp_path, "d3.json",
                            ["d3", "--restarts", "8", "--seed", "1783110719"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["k_bound"] == pytest.approx(0.948092, abs=2e-3)
    assert all(e["converged"] for e in payload["entries"])
    for e in payload["entries"]:
        assert 0.0 <= e["dual_gap"] <= DUAL_GAP_TOL
        assert 1 <= e["restarts_used"] <= e["evaluations"]


class TestGapDecade:
    """pp-check and d3 report each dual gap as the smallest power of ten at
    least the gap, so "reported gap <= DUAL_GAP_TOL" is "converged"."""

    def test_equivalent_to_converged_over_the_census(self, tmp_path):
        report = ep.optimize_all_triples(ep.canonical_states(), restarts=8, seed=7)
        gaps = report.census.dual_gap.tolist()
        tol = DUAL_GAP_TOL
        gaps += [0.0, tol, math.nextafter(tol, 0.0), math.nextafter(tol, 1.0), 5e-324, 0.5]
        for gap in gaps:
            reported = cli._gap_decade(gap)
            assert (reported <= tol) == (gap <= tol)
            assert reported >= gap
            if gap > 0.0:
                assert reported / 10 < gap
                assert reported == float(f"1e{round(math.log10(reported))}")
        code, out = run_to_file(tmp_path, "d3.json", ["d3", "--restarts", "8", "--seed", "7"])
        assert code == 0
        for e in json.loads(out.read_text())["entries"]:
            assert e["converged"] == (e["dual_gap"] <= tol)
            assert e["dual_gap"] == 0.0 or e["dual_gap"] == float(
                f"1e{round(math.log10(e['dual_gap']))}")

    def test_one_ulp_above_the_tolerance(self):
        assert cli._gap_decade(math.nextafter(1e-10, 1.0)) == 1e-9
        assert cli._gap_decade(1e-10) == 1e-10
        assert cli._gap_decade(0.0) == 0.0


def test_cli_import_does_not_load_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    probe = ("import sys, epioverlap.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "[]"


def test_cli_import_does_not_load_the_output_schemas():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    probe = ("import sys, epioverlap.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('jsonschema', 'schemas') or m == 'epioverlap.schemas'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "[]"


def test_model_verify_ks2(tmp_path):
    code, out = run_to_file(tmp_path, "ks.json",
                            ["model", "verify", "--model", "ks2", "--pairs", "4"])
    assert code == 0
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, schemas.MODEL_VERIFY_OUTPUT)
    assert payload["born_worst"] < 1e-6
    assert payload["overlap_worst"] < 1e-4
    assert payload["overlap_inequality_worst"] <= 1e-4


def test_model_verify_file(tmp_path):
    doc = {
        "points": 4,
        "states": {"a": [0.25, 0.25, 0.25, 0.25], "b": [1.0, 0.0, 0.0, 0.0]},
        "responses": {"m": {"u": [1, 0.5, 0, 0], "v": [0, 0.5, 1, 1]}},
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    code, out = run_to_file(tmp_path, "mv.json",
                            ["model", "verify", "--model", str(path)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["structure"]["values_in_range"] is True
    assert payload["structure"]["pairwise_overlaps"]["a|b"] == 0.25


def test_simulate_small(tmp_path):
    argv = ["simulate", "--dim", "4", "--noise", "depolarizing:0.01",
            "--shots", "2000", "--restarts", "8", "--seed", "21"]
    code, out = run_to_file(tmp_path, "sim.json", argv)
    assert code == 0
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, schemas.SIMULATE_OUTPUT)
    assert payload["dim"] == 4
    assert len(payload["per_triple"]) == 96
    assert payload["k_bound"] is not None


@pytest.mark.parametrize("noise, conclusive", [("none", True), ("depolarizing:0.01", False)])
def test_simulate_d3_reports_k(tmp_path, noise, conclusive):
    """The union bound holds in d = 3 too: noiseless, k sits near the
    certificate's 0.948; at p = 0.01 it is above 1 (threshold p < 0.0028)."""
    argv = ["simulate", "--dim", "3", "--noise", noise, "--shots", "100000",
            "--restarts", "8", "--seed", "2"]
    code, out = run_to_file(tmp_path, "sim3.json", argv)
    assert code == 0
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, schemas.SIMULATE_OUTPUT)
    assert isinstance(payload["k_bound"], float)
    assert payload["noise_budget_ok"] is conclusive
    if conclusive:
        assert payload["k_bound"] == pytest.approx(0.948, abs=0.01)


def test_bonferroni(tmp_path):
    code, out = run_to_file(tmp_path, "bf.json",
                            ["bonferroni", "--trials", "40", "--points", "25"])
    assert code == 0
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, schemas.BONFERRONI_OUTPUT)
    assert payload["violations"] == 0
    assert payload["min_slack"] >= -1e-9


class TestSummaries:
    """Human-readable report lines land on stderr with the key quantities."""

    def test_bound_summary_names_all_forms(self, capsys):
        main(["bound", "--dim", "4", "--eps1", "0.001", "--eps2", "0.001"])
        err = capsys.readouterr().err
        assert "exact bound" in err
        assert "2/d'" in err and "4/(d-1)" in err
        assert "noise-adjusted" in err

    def test_d3_summary_names_aggregates(self, tmp_path, capsys):
        main(["d3", "--restarts", "4", "--seed", "5", "--out", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert "grand noise sum" in err
        assert "overlap weight sum" in err
        assert "k bound" in err

    def test_simulate_summary_names_noise_terms(self, tmp_path, capsys):
        main(["simulate", "--dim", "4", "--noise", "none", "--shots", "100",
              "--restarts", "8", "--seed", "2", "--out", str(tmp_path / "s.json")])
        err = capsys.readouterr().err
        assert "eps1" in err and "eps2" in err
        assert "noise within budget" in err


def test_unknown_flag_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--dim", "4", "--bogus"])
    assert exc.value.code == 2


def test_unknown_command_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["bound", "--dim", "7"],
        ["bound", "--threshold", "--dim", "8"],
        ["mub", "--dim", "5"],
        ["bonferroni", "--trials", "25", "--points", "20", "--seed", "3"],
        ["model", "verify", "--model", "ks2", "--pairs", "3", "--seed", "4"],
        ["d3", "--restarts", "4", "--seed", "9"],
    ])
    def test_byte_identical_reruns(self, tmp_path, argv):
        _, first = run_to_file(tmp_path, "a.json", argv)
        _, second = run_to_file(tmp_path, "b.json", argv)
        assert first.read_bytes() == second.read_bytes()

    def test_simulate_byte_identical(self, tmp_path):
        argv = ["simulate", "--dim", "4", "--noise", "misalignment:0.02",
                "--shots", "500", "--restarts", "8", "--seed", "33"]
        _, first = run_to_file(tmp_path, "a.json", argv)
        _, second = run_to_file(tmp_path, "b.json", argv)
        assert first.read_bytes() == second.read_bytes()

    def test_float_formatting_seventeen_digits(self, tmp_path):
        _, out = run_to_file(tmp_path, "f.json", ["bound", "--dim", "4"])
        assert "0.4665063509461097" in out.read_text()


# sha256 of stdout recorded with numpy 2.4.6 on x86_64: the d3 digests from
# the search that stops at the first restart whose dual gap closes, with
# each gap reported as its decade; the simulate digests from runs that draw
# on two streams spawned from SeedSequence(seed), misalignment Gaussians and
# outcome counts, each in design order (d = 3: triple settings with no f4
# outcome; d = 5 and d = 8 misalignment: rank-2 and rank-5 f4, a partial
# last chunk, a seed above 2**32), with k_bound from the union bound in every
# dimension; the ks2 digests at seeds 17, 3, 2099 and 60607 with each
# pair's Born check on a frame of the one-node equatorial polar rule over
# the product rule's azimuthal panels, and its Born gates and overlap on
# stacked equatorial frames around closed-form discriminating bases. Each
# rewrite must reproduce these bits; another LAPACK build may round
# differently.
RECORDED_STDOUT = {
    "d3 --restarts 8 --seed 7":
        "33b3906e68edef67ba494f1d8301e4e00037f03672c46ae87052a4bc30e393a1",
    "d3 --restarts 64 --seed 1783110719":
        "02d61f93074d39c8e043e2f071da5d9f319d54add8f0c72806a790d07c7047f6",
    "simulate --dim 4 --seed 1 --noise depolarizing:0.01 --shots 1000":
        "74f27748e33357c7b197c0a687b8d00eaf8c6afe3660104e5c728bc59bf71bfb",
    "simulate --dim 5 --seed 3 --shots 1000":
        "386052a6b564d711badf8941aa177fdfb03686020ae203a257596425c3055be3",
    "simulate --dim 4 --seed 1 --noise misalignment:0.01 --shots 1000":
        "248a1eaef7f210a8d4ffe7f32fc042ffc9bdb08b2bdf7e8d730b9978d2ff3daa",
    "model verify --model ks2 --pairs 500 --seed 17":
        "4115cb5fbcc31485d17759c7dcde400d18b9eede73df07b3a20cfba2f479bdd0",
    "mub --dim 2":
        "a6792ab65a0f4179b62aaa56921141c255ba683430bec6a9301e12a896b07343",
    "mub --dim 4":
        "a2bb683989defcbb45558eab5a53ca4f4cc33753f33f12e9c285e6d55a6c3dee",
    "mub --dim 8":
        "e2599a0f3335d33cafda300176ad409e2ef91a5e4d71130f0bf418bb56b904fe",
    "mub --dim 9":
        "c51af3901314b21338eac726f0b1e089eedf94e296b4ed2335870f2de021dc3c",
    "mub --dim 61":
        "5cd3d33ec54c0fc267313aa5283ac4b561f57c5ee085d32b76517303235f4d79",
    "simulate --dim 7 --seed 1 --noise depolarizing:0.01 --shots 1000":
        "6f34be3cb4d81d14ff835230d603387dc63d5673be2189fc5007eb953a92c3d9",
    "simulate --dim 5 --seed 1 --noise misalignment:0.01 --shots 1000":
        "e68aa5201f0b44c323c2f68dfdfb739d43556c4ce21294a235b8b59d2f1aaeb3",
    "simulate --dim 8 --seed 1 --noise misalignment:0.01 --shots 1000":
        "dbdd5b20bf0c18fd01714aa5d9fdb7e7cd60fa3d367b836e7ba2f5aa41bedb40",
    "simulate --dim 3 --seed 1 --noise depolarizing:0.01 --shots 1000":
        "9d09e77ff32146e465c08ed85da828faadd904a9eb51bec51b1b6979e40e2c61",
    "simulate --dim 8 --seed 4294967301 --noise misalignment:0.02 --shots 1000":
        "4a02a01019cda747aa84f962e9827afd0e4bed08b391c152898655704e27ac81",
    "model verify --model ks2 --pairs 500 --seed 3":
        "462e887a935be9094049bdef9cc5cc3a2f7ca6c3cac5caffb8784b22e17e4a00",
    "model verify --model ks2 --pairs 500 --seed 2099":
        "4dea8af881cb6b23b55a44de63dfc4276e546121d65f2576a77f20cf49e04b1c",
    "model verify --model ks2 --pairs 500 --seed 60607":
        "43a3fd9bdd8a13e41c25fa6fef4eef7c4cddd436121d2ca51cca8b041209a0d8",
}


@pytest.mark.parametrize("command", RECORDED_STDOUT)
def test_stdout_matches_recorded_digest(command):
    code, out, _ = run_in_process(command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == RECORDED_STDOUT[command]


class TestFlagValidation:
    """Non-finite or negative noise averages, noise averages given to
    --threshold and counts below 1 are usage errors."""

    @pytest.mark.parametrize("argv", [
        ["bound", "--dim", "4", "--eps1", "nan"],
        ["bound", "--dim", "4", "--eps1", "inf"],
        ["bound", "--dim", "4", "--eps2=-inf"],
        ["bound", "--dim", "4", "--eps2", "1e999"],
        ["bound", "--dim", "4", "--eps1", "abc"],
        ["bonferroni", "--trials", "0"],
        ["bonferroni", "--points", "0"],
        ["bonferroni", "--trials", "-3"],
        ["bonferroni", "--points", str(cli.MAX_POINTS + 1), "--trials", "1"],
        ["model", "verify", "--model", "ks2", "--pairs", "0"],
        ["pp-check", "--states", "x.json", "--restarts", "0"],
        ["d3", "--restarts", "0"],
        ["simulate", "--restarts", "0"],
        ["simulate", "--shots", "0"],
        ["mub", "--dim", "4", "--seed", "-1"],
        ["bound", "--dim", "4", "--eps1", "-0.1"],
        ["bound", "--dim", "4", "--eps2=-1e-300"],
        ["bound", "--threshold", "--dim", "4", "--eps1", "0.5"],
        ["bound", "--dim", "4", "--eps2", "0", "--threshold"],
    ])
    def test_rejected_with_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err and "error: argument" in captured.err

    def test_negative_zero_noise_average_accepted(self, capsys):
        assert main(["bound", "--dim", "4", "--eps1", "-0", "--eps2", "-0.0"]) == 0
        assert json.loads(capsys.readouterr().out)["report"]["threshold_ok"] is True

    @pytest.mark.parametrize("spec", [
        "depolarizing:abc", "bogus", "depolarizing:2", "depolarizing:nan",
        "misalignment:nan", "misalignment:inf", "misalignment:-1", "misalignment",
        "misalignment:1e308",
    ])
    def test_malformed_noise_spec_is_a_usage_error(self, spec, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(SystemExit) as exc:
                main(["simulate", "--noise", spec])
        assert exc.value.code == 2 and caught == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err and "Warning" not in captured.err
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "error: argument --noise" in errors[0]

    def test_large_finite_misalignment_runs(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["simulate", "--dim", "4", "--seed", "1", "--noise",
                         "misalignment:1e10", "--shots", "10", "--restarts", "1"])
        assert code == 0 and caught == []
        payload = json.loads(capsys.readouterr().out)
        assert payload["noise"] == {"channel": "misalignment", "parameter": 1e10}

    def test_result_overflow_is_a_computational_failure(self, capsys):
        assert main(["bound", "--dim", "4", "--eps1", "1e308"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: union-bound numerator is not finite: inf")


class TestBoundDimLimit:
    """bound --dim stops where the prime-power search would take seconds;
    dimensions below 4 stay a computational failure."""

    @pytest.mark.parametrize("dim", [cli.MAX_BOUND_DIM + 1, 10 ** 18 + 3])
    def test_huge_dim_is_a_usage_error(self, dim, capsys):
        start = time.monotonic()
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--dim", str(dim)])
        assert time.monotonic() - start < 1.0
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert [line for line in captured.err.splitlines() if "error:" in line] == [
            f"epioverlap bound: error: argument --dim: "
            f"must be <= {cli.MAX_BOUND_DIM}, got {dim}"]

    def test_largest_accepted_dim(self, capsys):
        assert main(["bound", "--dim", str(cli.MAX_BOUND_DIM)]) == 0
        assert json.loads(capsys.readouterr().out)["report"]["subdim"] == 999999999989

    def test_small_dim_stays_a_computational_failure(self, capsys):
        assert main(["bound", "--dim", "3"]) == 1
        assert capsys.readouterr().err.startswith("error: d must be >= 4")


class TestCostCaps:
    """Flags whose cost grows without a ceiling are capped in the parser, so
    a value past the cap is a usage error that starts no work."""

    RESTART_COMMANDS = (["pp-check", "--states", "x.json"], ["d3"], ["simulate"])

    def _rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        assert exc.value.code == 2
        return [line for line in capsys.readouterr().err.splitlines() if "error:" in line]

    def test_mub_dim_above_cap(self, capsys):
        dim = cli.MAX_MUB_DIM + 1
        assert self._rejected(["mub", "--dim", str(dim)], capsys) == [
            f"epioverlap mub: error: argument --dim: must be <= {cli.MAX_MUB_DIM}, got {dim}"]

    def test_mub_dim_at_cap_parses(self):
        assert cli.build_parser().parse_args(
            ["mub", "--dim", str(cli.MAX_MUB_DIM)]).dim == cli.MAX_MUB_DIM

    @pytest.mark.parametrize("command", RESTART_COMMANDS)
    def test_restarts_above_cap(self, command, capsys):
        over = cli.MAX_RESTARTS + 1
        assert self._rejected(command + ["--restarts", str(over)], capsys) == [
            f"epioverlap {command[0]}: error: argument --restarts: "
            f"must be <= {cli.MAX_RESTARTS}, got {over}"]

    @pytest.mark.parametrize("command", RESTART_COMMANDS)
    def test_restarts_at_cap_parses(self, command):
        args = cli.build_parser().parse_args(command + ["--restarts", str(cli.MAX_RESTARTS)])
        assert args.restarts == cli.MAX_RESTARTS

    @pytest.mark.parametrize("dim", [cli.MAX_SIMULATE_DIM + 1, 13, 61, 10 ** 6])
    def test_simulate_dim_above_cap(self, dim, capsys):
        assert self._rejected(["simulate", "--dim", str(dim)], capsys) == [
            f"epioverlap simulate: error: argument --dim: "
            f"must be <= {cli.MAX_SIMULATE_DIM}, got {dim}"]

    def test_simulate_dim_at_cap_parses(self):
        assert cli.build_parser().parse_args(
            ["simulate", "--dim", str(cli.MAX_SIMULATE_DIM)]).dim == cli.MAX_SIMULATE_DIM

    @pytest.mark.parametrize("shots", [2 ** 63, 10 ** 19, 10 ** 40])
    def test_shots_beyond_int64(self, shots, capsys):
        assert self._rejected(["simulate", "--shots", str(shots)], capsys) == [
            f"epioverlap simulate: error: argument --shots: "
            f"must be <= {2 ** 63 - 1}, got {shots}"]


def test_shots_beyond_int64_exit_2_without_traceback():
    """The multinomial sampler draws int64 counts; a larger --shots used to
    escape main as an OverflowError."""
    code, out, err = run_in_process(["simulate", "--dim", "4",
                                     "--shots", "10000000000000000000"])
    assert code == 2 and out == "" and "Traceback" not in err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1


def test_largest_shot_count_runs():
    code, out, _ = run_in_process(["simulate", "--dim", "3", "--restarts", "2",
                                   "--shots", str(2 ** 63 - 1)])
    assert code == 0
    assert json.loads(out)["shots"] == 2 ** 63 - 1


def _expect_input_error(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestMalformedInputFiles:
    """Malformed input documents exit 2 with one error line."""

    def write(self, tmp_path, doc):
        path = tmp_path / "in.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        return str(path)

    def pp_check(self, tmp_path, doc, capsys):
        _expect_input_error(["pp-check", "--states", self.write(tmp_path, doc)], capsys)

    def model(self, tmp_path, doc, capsys):
        _expect_input_error(["model", "verify", "--model", self.write(tmp_path, doc)],
                            capsys)

    def test_states_key_missing(self, tmp_path, capsys):
        self.pp_check(tmp_path, {"dim": 3}, capsys)

    def test_string_amplitudes(self, tmp_path, capsys):
        psi = state_to_obj(ep.basis_state(3, 0))
        bad = {"dim": 3, "amplitudes": [["1", "0"], ["0", "0"], ["0", "0"]]}
        self.pp_check(tmp_path, {"dim": 3, "states": [bad, psi, psi]}, capsys)

    def test_two_states(self, tmp_path, capsys):
        psi = state_to_obj(ep.basis_state(3, 0))
        self.pp_check(tmp_path, {"dim": 3, "states": [psi, psi]}, capsys)

    def test_mixed_dimensions(self, tmp_path, capsys):
        a = state_to_obj(ep.basis_state(3, 0))
        b = state_to_obj(ep.basis_state(4, 1))
        self.pp_check(tmp_path, {"dim": 3, "states": [a, a, b]}, capsys)

    def test_unnormalized_state(self, tmp_path, capsys):
        psi = state_to_obj(ep.basis_state(3, 0))
        bad = {"dim": 3, "amplitudes": [[0.5, 0], [0, 0], [0, 0]]}
        self.pp_check(tmp_path, {"dim": 3, "states": [psi, bad, psi]}, capsys)

    def test_states_file_not_json(self, tmp_path, capsys):
        self.pp_check(tmp_path, "{not json", capsys)

    def test_states_file_nested_too_deep(self, tmp_path, capsys):
        self.pp_check(tmp_path, "[" * 100000 + "]" * 100000, capsys)

    def test_states_file_is_a_directory(self, tmp_path, capsys):
        _expect_input_error(["pp-check", "--states", str(tmp_path)], capsys)

    def test_model_is_a_list(self, tmp_path, capsys):
        self.model(tmp_path, [1, 2, 3], capsys)

    def test_model_empty_response_table(self, tmp_path, capsys):
        self.model(tmp_path, {"points": 2, "states": {"a": [1, 0]},
                              "responses": {"m": {}}}, capsys)

    def test_model_non_finite_weight(self, tmp_path, capsys):
        self.model(tmp_path, '{"points": 2, "states": {"a": [NaN, 1]}}', capsys)

    def test_unwritable_out(self, tmp_path, capsys):
        _expect_input_error(["bound", "--dim", "4", "--out",
                             str(tmp_path / "missing" / "out.json")], capsys)


def test_model_state_label_with_pipe_rejected(tmp_path, capsys):
    """pairwise_overlaps keys a pair as "a|b", so states a, a|b, b|c and c
    gave 6 pairs but 5 keys: (a, b|c), overlap 0, was overwritten by
    (a|b, c), overlap 0.75."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"points": 2, "states": {
        "a": [1, 0], "a|b": [0.5, 0.5], "b|c": [0, 1], "c": [0.75, 0.25]}}))
    assert main(["model", "verify", "--model", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: state label 'a|b' contains '|'\n"


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_out_file_mode_follows_the_umask(tmp_path, umask):
    """The file used to be written through mkstemp, 0o600 whatever the umask."""
    previous = os.umask(umask)
    try:
        code, out = run_to_file(tmp_path, "b.json", ["bound", "--dim", "5"])
    finally:
        os.umask(previous)
    assert code == 0
    assert out.stat().st_mode & 0o777 == 0o666 & ~umask


def test_out_file_overwrite_keeps_the_mode(tmp_path):
    out = tmp_path / "b.json"
    out.write_text("{}")
    out.chmod(0o640)
    previous = os.umask(0o022)
    try:
        assert main(["bound", "--dim", "5", "--out", str(out)]) == 0
    finally:
        os.umask(previous)
    assert out.stat().st_mode & 0o777 == 0o640
    assert json.loads(out.read_text())["command"] == "bound"


def test_model_label_with_control_characters(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"points": 2, "states": {"a\nb": [1, 0], "c\x00": [0, 1]}}))
    assert main(["model", "verify", "--model", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    payload = json.loads(out)
    assert payload["structure"]["pairwise_overlaps"] == {"a\nb|c\x00": 0.0}


def test_ks2_verify_calls_traced_entry_points_once_per_pair(monkeypatch, capsys):
    """A traced run counts born_check spans against the pair count in the
    output: the command calls born_check once per pair, and checks the
    overlaps of each chunk of pairs with one overlap_gaps call, which needs
    no per-pair overlap_pair on these pairs."""
    monkeypatch.setattr(ontomodel, "CHUNK", 2)
    counts = {"born_check": 0, "overlap_gaps": 0, "overlap_pair": 0}
    for name in counts:
        def counted(*args, _name=name, _fn=getattr(ontomodel, name)):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(ontomodel, name, counted)
    assert main(["model", "verify", "--model", "ks2", "--pairs", "3"]) == 0
    assert counts == {"born_check": 3, "overlap_gaps": 2, "overlap_pair": 0}


def test_ks2_verify_samples_four_frames_per_pair(monkeypatch, capsys):
    """Per pair: the Born check on a frame of the model's sample, then the
    two Born gates on the discriminating measurement and the one overlap
    integral on frames that frames.rings stacks, one call for the chunk's
    gates and one for its overlaps."""
    monkeypatch.setattr(ontomodel, "CHUNK", 2)
    samples, rings = [], []
    sample, stack = ontomodel.KSQubitModel.sample, ontomodel.rings

    def counted(self, states, m=None):
        samples.append(len(states))
        return sample(self, states, m)

    monkeypatch.setattr(ontomodel.KSQubitModel, "sample", counted)
    monkeypatch.setattr(ontomodel, "rings",
                        lambda axes: rings.append(axes.shape) or stack(axes))
    assert main(["model", "verify", "--model", "ks2", "--pairs", "3"]) == 0
    assert samples == [1, 1, 1]
    assert rings == [(4, 3, 3), (2, 2, 3), (2, 3, 3), (1, 2, 3)]
    assert len(samples) + sum(n for n, _, _ in rings) == 12


def test_ks2_verify_makes_one_gram_check_per_measurement(monkeypatch, capsys):
    """Per pair, one for the Born check's random basis; per chunk, one over
    the stack of its pairs' discriminating bases. A Measurement reuses its
    basis and checks no Gram matrix of its own."""
    monkeypatch.setattr(ontomodel, "CHUNK", 2)
    calls = []
    check = qstate.check_orthonormal

    def counted(stack):
        calls.append(stack.shape)
        return check(stack)

    monkeypatch.setattr(qstate, "check_orthonormal", counted)
    monkeypatch.setattr(frames, "check_orthonormal", counted)
    assert main(["model", "verify", "--model", "ks2", "--pairs", "3"]) == 0
    assert calls == [(1, 2, 2), (1, 2, 2), (2, 2, 2), (1, 2, 2), (1, 2, 2)]


def test_ks2_verify_output_does_not_depend_on_chunk_size(monkeypatch):
    """Each pair's stacked integrals are computed row by row, so chunks of
    one, chunks that end mid-run and one chunk for every pair agree."""
    argv = ["model", "verify", "--model", "ks2", "--pairs", "40"]
    outputs = set()
    for chunk in (1, 7, 500):
        monkeypatch.setattr(ontomodel, "CHUNK", chunk)
        code, out, _ = run_in_process(argv)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_ks2_verify_refuses_a_model_that_fails_the_born_gate(monkeypatch):
    """A sphere model whose first hemisphere response is cut at x . a >= 0.2
    instead of 0 fails the Born gate of the stacked check: exit 1, one
    error line, no output and no traceback."""
    class Corrupted(ontomodel.KSQubitModel):
        @staticmethod
        def _responses(axes, pts):
            first = [(pts @ a >= 0.2).astype(float) for a in axes[:-1]]
            return first + [np.clip(1.0 - np.sum(first, axis=0), 0.0, None)]

    monkeypatch.setattr(ontomodel, "ks_model_d2", Corrupted)
    code, out, err = run_in_process(["model", "verify", "--model", "ks2", "--pairs", "5"])
    assert code == 1 and out == ""
    assert err.startswith("error: model fails the Born rule on a discriminating measurement")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_ks2_verify_needs_no_eigh_and_no_numpy_sort(monkeypatch):
    """The benchmarked command takes the closed-form discriminating bases
    and sorts panel edges in Python: a numpy sort or eigh on this path maps
    code pages that nothing else in the command uses, and peak RSS grows
    with them."""
    def refused(*args, **kwargs):
        raise AssertionError("called on the model verify --model ks2 path")

    monkeypatch.setattr(np.linalg, "eigh", refused)
    monkeypatch.setattr(np, "sort", refused)
    monkeypatch.setattr(np, "argsort", refused)
    code, out, _ = run_in_process(
        ["model", "verify", "--model", "ks2", "--pairs", "500", "--seed", "17"])
    assert code == 0 and json.loads(out)["pairs"] == 500


class TestPpCheckDimensionCap:
    """pp-check refuses a dimension past MAX_PP_DIM before any search."""

    def states_file(self, tmp_path, dim):
        path = tmp_path / "states.json"
        states = [state_to_obj(ep.basis_state(dim, k)) for k in range(3)]
        path.write_text(json.dumps({"states": states}))
        return str(path)

    def search_stub(self, monkeypatch):
        searches = []

        def search(*args, **kwargs):
            searches.append(args)
            raise RuntimeError("search reached")

        monkeypatch.setattr(cli, "find_conjugate_basis", search)
        return searches

    def test_above_cap_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        searches = self.search_stub(monkeypatch)
        _expect_input_error(
            ["pp-check", "--states", self.states_file(tmp_path, cli.MAX_PP_DIM + 1)], capsys)
        assert searches == []

    def test_at_cap_reaches_the_search(self, tmp_path, monkeypatch, capsys):
        searches = self.search_stub(monkeypatch)
        path = self.states_file(tmp_path, cli.MAX_PP_DIM)
        assert main(["pp-check", "--states", path]) == 1
        assert capsys.readouterr().err == "error: search reached\n"
        assert len(searches) == 1


def run_in_process(argv):
    """(exit code, stdout, stderr) of main(argv); an uncaught exception
    propagates, so a traceback fails the caller."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _flag_value():
    return st.one_of(
        st.integers(-3, 12).map(str),
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.sampled_from(["", "abc", "1e999", "-0", "0x10", " 7", "1_0", "nan"]),
    )


def _option(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def _argv(command, *options):
    return st.tuples(*options).map(lambda parts: command + [t for p in parts for t in p])


SEEDS = _option("--seed", st.one_of(st.integers(-2, 2 ** 70).map(str), _flag_value()))

ARGV = st.one_of(
    _argv(["bound"],
          _option("--dim", st.one_of(st.integers(-2, 64).map(str), _flag_value())),
          _option("--eps1", _flag_value()), _option("--eps2", _flag_value()),
          st.sampled_from([[], ["--threshold"]]), SEEDS),
    _argv(["bonferroni"],
          st.one_of(st.integers(-2, 4).map(str), _flag_value())
          .map(lambda v: ["--trials", v]),
          _option("--points", st.one_of(st.integers(-2, 30).map(str), _flag_value())),
          SEEDS),
    _argv(["model", "verify"],
          _option("--model", st.sampled_from(["ks2", "/nonexistent/model.json", ""])),
          st.one_of(st.integers(-2, 2).map(str), _flag_value())
          .map(lambda v: ["--pairs", v]),
          SEEDS),
)


@settings(max_examples=100, deadline=None)
@given(ARGV)
def test_cli_contract_over_argv(argv):
    code, out, err = run_in_process(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 0:
        json.loads(out)
    else:
        assert out == ""


JSON_SCALAR = st.one_of(st.none(), st.booleans(), st.integers(-2, 4),
                        st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=3))
WEIGHTS = st.one_of(st.lists(st.floats(-0.5, 1.5), min_size=2, max_size=2),
                    st.lists(JSON_SCALAR, max_size=3), JSON_SCALAR)
TABLE = st.one_of(st.dictionaries(st.text(max_size=3), WEIGHTS, max_size=3), JSON_SCALAR)
MODEL_DOC = st.one_of(
    st.fixed_dictionaries(
        {"points": st.one_of(st.just(2), JSON_SCALAR), "states": TABLE},
        optional={"responses": st.one_of(
            st.dictionaries(st.text(max_size=3), TABLE, max_size=2), JSON_SCALAR)}),
    st.lists(JSON_SCALAR, max_size=2), JSON_SCALAR)


@settings(max_examples=100, deadline=None)
@given(MODEL_DOC)
def test_cli_contract_over_model_files(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("model") / "model.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_in_process(["model", "verify", "--model", str(path)])
    assert code in (0, 2)
    assert "Traceback" not in err
    if code == 0:
        json.loads(out)
    else:
        assert out == "" and err.startswith("error: ")


VALID_STATES = [state_to_obj(s) for s in (
    *(ep.random_state(3, k) for k in range(3)), ep.basis_state(3, 0), ep.random_state(4, 0))]
AMPLITUDE = st.one_of(st.lists(st.floats(-1, 1), min_size=2, max_size=2),
                      st.lists(JSON_SCALAR, max_size=3), JSON_SCALAR)
STATE_DOC = st.one_of(
    st.sampled_from(VALID_STATES),
    st.fixed_dictionaries(
        {"dim": st.one_of(st.integers(0, 4), JSON_SCALAR),
         "amplitudes": st.one_of(st.lists(AMPLITUDE, max_size=4), JSON_SCALAR)}),
    st.lists(JSON_SCALAR, max_size=2), JSON_SCALAR)
STATES_DOC = st.one_of(
    st.fixed_dictionaries(
        {"states": st.one_of(
            st.permutations(VALID_STATES[:4]).map(lambda states: states[:3]),
            st.lists(st.sampled_from(VALID_STATES), min_size=3, max_size=3))},
        optional={"dim": JSON_SCALAR}),
    st.fixed_dictionaries(
        {"states": st.one_of(st.lists(STATE_DOC, min_size=2, max_size=4), JSON_SCALAR)},
        optional={"dim": JSON_SCALAR}),
    st.lists(STATE_DOC, max_size=3), JSON_SCALAR)


@settings(max_examples=60, deadline=None)
@given(STATES_DOC)
def test_cli_contract_over_states_files(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("states") / "states.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_in_process(["pp-check", "--states", str(path), "--restarts", "1"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 0:
        json.loads(out)
    else:
        assert out == "" and err.startswith("error: ")


# odd primes p build p + 1 dense p x p bases, so --dim stays small
MUB_ARGV = _argv(["mub"],
                 st.one_of(st.integers(-3, 30).map(str), _flag_value())
                 .map(lambda v: ["--dim", v]),
                 SEEDS)


@settings(max_examples=40, deadline=None)
@given(MUB_ARGV)
def test_cli_contract_over_mub_argv(argv):
    code, out, err = run_in_process(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 0:
        json.loads(out)
    else:
        assert out == ""


# Search commands: restarts, shots and dimensions stay small, so each example
# builds at most a d=4 design. Half the examples draw in-range integers only,
# so that runs which do the work (exit 0 or 1) are reached as well.
def _value(ints, junk):
    return st.one_of(ints.map(str), _flag_value()) if junk else ints.map(str)


def _search_options(junk):
    restarts = _option("--restarts", _value(st.integers(-1, 3), junk))
    seeds = SEEDS if junk else _option("--seed", st.integers(0, 2 ** 70).map(str))
    return restarts, seeds


def _search_argv(junk):
    restarts, seeds = _search_options(junk)
    shots = _option("--shots", st.one_of(_value(st.integers(-1, 500), junk),
                                         st.just(str(2 ** 63))))
    noise = _option("--noise", st.sampled_from(
        ["none", "depolarizing:0.1", "misalignment:0.05", "depolarizing:2",
         "misalignment:nan", "depolarizing:", "bogus"]))
    dim = _value(st.integers(-1, 4), junk).map(lambda v: ["--dim", v])
    return st.one_of(_argv(["d3"], restarts, seeds),
                     _argv(["simulate"], dim, shots, noise, restarts, seeds))


SEARCH_ARGV = st.one_of(_search_argv(junk=False), _search_argv(junk=True))
PP_CHECK_OPTIONS = st.booleans().flatmap(
    lambda junk: _argv([], *_search_options(junk)))


def _check_contract(code, out, err):
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 0:
        json.loads(out)
    else:
        assert out == ""


@settings(max_examples=30, deadline=None)
@given(SEARCH_ARGV)
def test_cli_contract_over_search_argv(argv):
    _check_contract(*run_in_process(argv))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(VALID_STATES[:3] + VALID_STATES[4:]), PP_CHECK_OPTIONS)
def test_cli_contract_over_pp_check_argv(tmp_path_factory, first, options):
    path = tmp_path_factory.mktemp("states") / "states.json"
    path.write_text(json.dumps({"states": [first, *VALID_STATES[1:3]]}))
    _check_contract(*run_in_process(["pp-check", "--states", str(path)] + options))


def test_pp_check_builds_no_basis(tmp_path, mub4, count_constructions):
    """pp-check reads its JSON from the result's matrix: the three input
    states are the only value objects it builds."""
    infile = tmp_path / "states.json"
    infile.write_text(json.dumps({"states": [state_to_obj(v) for v in (
        mub4.bases[1].vectors[0], mub4.bases[2].vectors[1], mub4.bases[0].vectors[0])]}))
    bases = count_constructions(ep.OrthonormalBasis)
    states = count_constructions(ep.PureState)
    code, out = run_to_file(tmp_path, "pp.json", ["pp-check", "--states", str(infile)])
    assert code == 0 and len(json.loads(out.read_text())["basis"]) == 3
    assert bases == [] and len(states) == 3
