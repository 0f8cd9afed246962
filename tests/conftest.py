"""Shared fixtures and the acceptance-criteria reporting hook."""

import time
from contextlib import contextmanager
from functools import cache

import pytest

import epioverlap as ep
from epioverlap import bounds, d3cert, expsim

_ACCEPTANCE_RESULTS = []


@contextmanager
def _criterion(number, description):
    try:
        yield
    except BaseException:
        _ACCEPTANCE_RESULTS.append((number, description, False))
        raise
    _ACCEPTANCE_RESULTS.append((number, description, True))


@pytest.fixture
def count_constructions(monkeypatch):
    """count_constructions(cls) returns a list that gains one item for each
    cls built from then on, counted by wrapping its __post_init__."""
    def count(cls):
        built = []
        post_init = cls.__post_init__

        def counted(self):
            built.append(cls)
            post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
        return built
    return count


@pytest.fixture(scope="session")
def criterion():
    """Context manager recording one pass/fail line per acceptance criterion."""
    return _criterion


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, description, passed in sorted(_ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number}: {status} - {description}")


@pytest.fixture(scope="session")
def mub_weight():
    """mub_weight(d) is W(c) of the maximal MUB design in prime-power d: c is
    the first vector of the first basis, the other d bases give the e states."""
    @cache
    def weight(d):
        family = ep.generate_mub(d)
        return bounds.overlap_weight(family.bases[0].vectors[0],
                                     [v for basis in family.bases[1:] for v in basis.vectors])
    return weight


@pytest.fixture(scope="session")
def mub4():
    return ep.generate_mub(4)


@pytest.fixture(scope="session")
def d3_instance():
    return d3cert.canonical_states()


@pytest.fixture(scope="session")
def d3_certificate(d3_instance):
    """Full 27-triple certificate at 64 restarts, with its wall time."""
    start = time.monotonic()
    report = d3cert.run_certificate(d3_instance, restarts=64, seed=7)
    return report, time.monotonic() - start


@pytest.fixture(scope="session")
def d4_design(mub4):
    """Shared d=4 experiment design (96 conjugate-basis optimizations)."""
    start = time.monotonic()
    design = expsim.design_from_mubs(mub4, restarts=16, seed=0)
    return design, time.monotonic() - start
