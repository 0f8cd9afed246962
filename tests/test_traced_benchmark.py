"""The benchmark's traced run of each listed workload ends correct.

``perfbench/run.py --trace 1`` wraps the functions listed in
``perfbench/spans.py``, makes one untraced and one traced pass, and reports
``correct: false`` when the passes' outputs differ, an op fails its check,
or the traced counts differ from the counts read from the outputs. A change
that binds a traced function where the wrapper cannot reach it breaks that
check without failing any other test, so this runs it in process, with
perfbench's own modules, at ``--smoke`` size. It writes no files.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("run", "spans", "workloads")


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's run, spans and workloads modules, imported from perfbench/
    and taken out of sys.modules again afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    saved = {name: sys.modules.pop(name) for name in MODULES if name in sys.modules}
    import run
    import spans
    import workloads
    yield run, spans, workloads
    for name in MODULES:
        sys.modules.pop(name, None)
    sys.modules.update(saved)


@pytest.mark.parametrize("name", ["noise_sweep", "ks2_verify"])
def test_traced_smoke_run_finds_no_problem(perfbench, name):
    run, spans, workloads = perfbench
    workload = workloads.WORKLOADS[name](17, True)
    tracer = spans.Tracer("tier1")
    _, _, passes = run.measure(workload, tracer, 1, 1.0)
    errors = [op.error for p in passes for op in p["ops"] if op.error]
    assert len(passes) == 2
    assert run.find_problems(passes, tracer, errors) == []
    assert any(phase == "timed" for _, phase, *_ in tracer.spans)
