"""Every name a module of the package or a test file imports is used in
that file, and every public function, class and module constant (an
upper-case name assigned at module level) the package defines is used
somewhere.

No linter ships with the project, so this reads each module's syntax tree
with the standard library.  ``__init__`` re-exports its imports and is
skipped; ``from __future__`` imports are directives, not names.  A
definition is used where it is imported by name (outside ``__init__``,
which imports every public name), read as an attribute (``x.name``), or
read in its own module outside the definition itself (an assignment is
not a read), in the package, the tests, the demos or the benchmark; a bare
name elsewhere is another file's own name.  A public definition that only the tests use is listed
in ``TEST_ONLY``, and a public method or property of a package class that
only the tests read in ``TEST_ONLY_METHODS``, where only an attribute read
is a use of a method; both sets may only shrink.
"""

import ast
from pathlib import Path

import twistk

PACKAGE = Path(twistk.__file__).parent
ROOT = PACKAGE.parents[1]


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_no_unused_imports():
    # tests/test_acceptance.py is a gate and stays as it is, unused ZERO included
    tests = sorted(path for path in (ROOT / "tests").glob("*.py") if path.name != "test_acceptance.py")
    modules = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py") + tests
    assert len(tests) > 20
    unused = {path.name: _unused_imports(ast.parse(path.read_text())) for path in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def _uses(tree: ast.Module) -> set[str]:
    """Names and attributes read in a module, outside the top-level
    definition of the same name (recursion is not a use, and neither is
    the assignment of a constant)."""
    out = set()
    for stmt in tree.body:
        nodes = list(ast.walk(stmt))
        used = {node.id for node in nodes if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        used |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            used.discard(stmt.name)
        out |= used
    return out


def _sources(*folders: str) -> list[Path]:
    """Every Python file under the folders."""
    sources = [path for folder in folders for path in (ROOT / folder).rglob("*.py")]
    assert PACKAGE / "cli.py" in sources
    return sources


def _trees(*folders: str) -> list[ast.Module]:
    """The syntax tree of every Python file under the folders."""
    return [ast.parse(path.read_text()) for path in _sources(*folders)]


def _used_definitions(*folders: str) -> set[str]:
    """The package definitions, as "module.py: name", that the files under
    the folders use: imported by name outside ``__init__``, read as an
    attribute, or named in their own module outside their definition."""
    elsewhere, used = set(), set()
    for path in _sources(*folders):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                elsewhere.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
                elsewhere |= {alias.name for alias in node.names}
        if path.parent == PACKAGE:
            used |= {f"{path.name}: {name}" for name in _uses(tree)}
    return used | {name for name in _public_definitions() if name.split(": ")[1] in elsewhere}


def _defined_names(stmt: ast.stmt) -> list[str]:
    """The name a top-level function or class defines, or the upper-case
    names a module-level assignment binds (``BLOCK = ...``, ``X: T = ...``)."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return [t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()]


def _public_definitions() -> list[str]:
    """Every top-level public function, class and module constant, as
    "module.py: name"."""
    defined = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for stmt in ast.parse(path.read_text()).body
        for name in _defined_names(stmt)
        if not name.startswith("_")
    ]
    assert len(defined) > 50
    assert sum(name.split(": ")[1].isupper() for name in defined) >= 8
    return defined


def test_no_unused_public_definitions():
    used = _used_definitions("src", "tests", "demos", "bench")
    assert [name for name in _public_definitions() if name not in used] == []


# Public definitions that only the tests use.  The set may only shrink: a
# name that comes into use in the package, the demos or the benchmark, or
# that is deleted or moved, must leave it, and no name may join it.
TEST_ONLY = frozenset({
    "algebra.py: convolve",
    "freeprod.py: free_product_multiplier",
    "freeprod.py: xword_to_word",
    "io.py: encode_multiplier",
    "lattices.py: g3_central_phase",
    "lattices.py: qtheta_dimension",
    "multipliers.py: normalize",
    "products.py: two_of_three",
})


def test_public_definitions_used_outside_tests():
    used = _used_definitions("src", "demos", "bench")
    test_only = {name for name in _public_definitions() if name not in used}
    assert sorted(test_only - TEST_ONLY) == [], "only tests use these: move them to tests/ or use them"
    assert sorted(TEST_ONLY - test_only) == [], "used outside the tests now, or gone: drop them from TEST_ONLY"


# Public methods and properties of package classes that only the tests
# read, as "module.py: Class.name".  Like TEST_ONLY, the set may only shrink.
TEST_ONLY_METHODS = frozenset({
    "algebra.py: AlgebraElement.delta",
})


def _public_methods() -> list[str]:
    """Every public method and property of a top-level class, as
    "module.py: Class.name"."""
    return [
        f"{path.name}: {stmt.name}.{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for stmt in ast.parse(path.read_text()).body
        if isinstance(stmt, ast.ClassDef)
        for node in stmt.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]


def test_public_methods_used_outside_tests():
    """A method counts as used when its name is read as an attribute
    (``x.name``) anywhere in the package, the demos or the benchmark; a
    bare name of the same spelling (a local ``tau``, the benchmark's own
    ``scale``) is not a use.  The check is by name alone, so a method that
    shares its name with another (``inverse``, ``value``) counts as used
    wherever that attribute is read."""
    trees = _trees("src", "demos", "bench")
    used = {node.attr for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    test_only = {name for name in _public_methods() if name.rsplit(".", 1)[1] not in used}
    assert sorted(test_only - TEST_ONLY_METHODS) == [], "only tests read these: move them to tests/ or use them"
    assert sorted(TEST_ONLY_METHODS - test_only) == [], "read outside the tests now, or gone: drop them"
