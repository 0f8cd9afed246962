"""Every function the benchmark's span tracer wraps still exists.

perfbench/spans.py wraps the functions it lists in TARGETS by name. A
deleted or renamed target would only show up as a KeyError in a traced
benchmark run, so this test resolves each one against the package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


def test_targets_listed():
    assert spans.TARGETS


@pytest.mark.parametrize("module_name, path", spans.TARGETS,
                         ids=[f"{m}.{p}" for m, p in spans.TARGETS])
def test_target_resolves(module_name, path):
    owner = importlib.import_module(f"{spans.PACKAGE}.{module_name}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert callable(owner.__dict__[attr])
