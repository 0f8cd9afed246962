"""Private module-level names of the package are used, and only at home.

A function, class or constant bound at module level in src/epioverlap/*.py
under a name with one leading underscore must be read somewhere in the
package outside its own definition: as a name, as an attribute, or by a
``from ... import``. Tests do not count; a helper only they call is dead
code in the program.

No package module binds a private name of another, by ``from .m import _x``
or as ``m._x``: a helper two modules need is a public name of one of them,
so each decision stays behind the module that owns it.
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


def private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def foreign_private_names(sources: dict) -> list:
    """(module, "m._x") for each private name of a package module m that
    another module binds, given {module name: source}: by ``from .m import
    _x``, or as the attribute ``m._x`` of a module bound by ``from . import
    m``. Absolute imports from ``epioverlap`` count as relative ones."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        modules = {}  # local name -> the package module it binds
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            origin = "." * node.level + (node.module or "")
            if origin in (".", "epioverlap"):
                modules.update({alias.asname or alias.name: alias.name
                                for alias in node.names if alias.name in sources})
            elif origin.startswith((".", "epioverlap.")):
                found += [(module, f"{origin.rpartition('.')[2]}.{alias.name}")
                          for alias in node.names if private(alias.name)]
        found += [(module, f"{modules[node.value.id]}.{node.attr}") for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and private(node.attr)
                  and isinstance(node.value, ast.Name) and node.value.id in modules]
    return found


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


def test_checker_finds_foreign_private_names():
    sources = {
        "geometry": ("_TOL = 1\ndef _helper():\n    return _TOL\n"
                     "def public():\n    return _helper()\n"),
        "model": ("from . import geometry as geo, __version__\n"
                  "from .geometry import _helper, public as _public\n"
                  "def check(obj):\n    return geo._TOL + obj._own + geo.public() + _public()\n"),
        "cli": "from epioverlap.geometry import _TOL\nfrom numpy.linalg import _umath_linalg\n",
    }
    assert foreign_private_names(sources) == [
        ("model", "geometry._helper"), ("model", "geometry._TOL"), ("cli", "geometry._TOL")]


def test_no_module_binds_another_modules_private_names():
    assert foreign_private_names({path.stem: path.read_text() for path in MODULES}) == []
