"""Tests for the command-line interface: outputs, schemas, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import epioverlap as ep
from epioverlap import schemas
from epioverlap.cli import main
from epioverlap.qstate import state_to_obj


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
        assert 1 <= e["basin_hits"] <= e["restarts_used"] <= e["evaluations"]


def test_cli_import_does_not_load_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    probe = ("import sys, epioverlap.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
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
        assert "0.46650635094610965" in out.read_text()
