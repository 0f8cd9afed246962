"""Every demo script runs to completion against the library in src/, and its
stdout keeps the sha256 digest recorded in RECORDED_STDOUT."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout. The demos are seeded, so their output is
# deterministic; a change here is a change to what a reader of a demo sees.
RECORDED_STDOUT = {
    "01_overlap_measures.py":
        "bcb90f7261cf882a624bb871d08ee05fcf3220936a97c8cef95ad624571e9468",
    "02_mub_constructions.py":
        "bbcaced7e50e7b54c226a7636fbb28bd496aef3765eeda0573acf2cc39a67f91",
    "03_pp_incompatibility.py":
        "db5bb100fb0ad632192f56f8c8c6990078eb55f12b9600531642c48d67cefd6e",
    "04_dimension_bounds.py":
        "64fd803e4b29c3b8c1ebec10f8da23b0db952dbcd9a3c22160574b2c4c492ece",
    "05_d3_certificate.py":
        "0e5563a6de61f01a1471b15babed29b46d9b5844ab2627f8a603bcd5431d8fc3",
    "06_ks_qubit_model.py":
        "723677cd733c0707ca44e30240b4a59978b5701a97639a2268a026990ae87ac2",
    "07_noisy_experiment.py":
        "a63116b2bc6416ae09ebd560dad7d7f950cde4d7e5400caab77c763aef6f9e7f",
}


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == RECORDED_STDOUT[demo.name]
