"""No private module-level name of the package is left unreferenced.

A function, class or constant bound at module level in src/epioverlap/*.py
under a name with one leading underscore must be read somewhere in the
package outside its own definition: as a name, as an attribute, or by a
``from ... import``. Tests do not count; a helper only they call is dead
code in the program.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "epioverlap").glob("*.py"))


def private_definitions(tree: ast.Module) -> list:
    """(name, statement) for each private name a top-level statement binds."""
    found = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        found += [(name, stmt) for name in names
                  if name.startswith("_") and not name.startswith("__")]
    return found


def references(stmt: ast.stmt) -> set:
    """Names a statement reads: loaded names, attributes and imported names."""
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unreferenced(sources: list) -> list:
    """Private module-level names of the given sources read by no other
    top-level statement of any of them."""
    trees = [ast.parse(source) for source in sources]
    refs = [(stmt, references(stmt)) for tree in trees for stmt in tree.body]
    return [name for tree in trees for name, definition in private_definitions(tree)
            if not any(name in names for stmt, names in refs if stmt is not definition)]


def test_checker_finds_unreferenced_names():
    module = ("_USED, _SPARE = 1, 2\n"
              "def _recursive(n):\n    return _recursive(n - 1) if n else _USED\n"
              "def _helper():\n    return 0\n"
              "class _Kept:\n    pass\n"
              "def public():\n    return _Kept()\n")
    other = "from .module import _helper\n"
    assert unreferenced([module]) == ["_SPARE", "_recursive", "_helper"]
    assert unreferenced([module, other]) == ["_SPARE", "_recursive"]


def test_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "ontomodel.py", "triples.py"}


def test_no_unreferenced_private_names():
    assert unreferenced([path.read_text() for path in MODULES]) == []
