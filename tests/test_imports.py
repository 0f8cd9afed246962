"""No module of the package, test or demo imports a name it never uses.

A module-level import in src/epioverlap/*.py (other than __init__.py, whose
imports are the public API), tests/*.py or demos/*.py (other than
``from __future__``) must be used somewhere in its module as a name or as
the base of an attribute.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "epioverlap"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")])


def unused_imports(source: str) -> list:
    """Names bound by the module-level imports of source that no Name node reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_checker_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\nfrom .qstate import inner, fidelity\n"
              "np.zeros(fidelity(1, 2))\n")
    assert unused_imports(source) == ["os", "inner"]


def test_modules_found():
    assert {p.name for p in MODULES} >= {"cli.py", "qstate.py", "triples.py"}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scripts_found():
    names = {p.relative_to(ROOT).as_posix() for p in SCRIPTS}
    assert {"tests/conftest.py", "tests/test_imports.py",
            "demos/01_overlap_measures.py"} <= names


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.relative_to(ROOT).as_posix() for p in SCRIPTS])
def test_no_unused_imports_in_scripts(path):
    assert unused_imports(path.read_text()) == []
