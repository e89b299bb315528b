"""Every name a module of the package imports is used in that module, and
every public function and class the package defines is used somewhere.

No linter ships with the project, so this reads each module's syntax tree
with the standard library.  ``__init__`` re-exports its imports and is
skipped; ``from __future__`` imports are directives, not names.  A use is
a name or an attribute read outside the definition itself, in the
package, the tests, the demos or the benchmark; an import alone is not a
use, since ``__init__`` imports every public name.
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
    modules = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
    assert modules
    unused = {path.name: _unused_imports(ast.parse(path.read_text())) for path in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def _uses(tree: ast.Module) -> set[str]:
    """Names and attributes read in a module, outside the top-level
    definition of the same name (recursion is not a use)."""
    out = set()
    for stmt in tree.body:
        nodes = list(ast.walk(stmt))
        used = {node.id for node in nodes if isinstance(node, ast.Name)}
        used |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            used.discard(stmt.name)
        out |= used
    return out


def test_no_unused_public_definitions():
    sources = [path for folder in ("src", "tests", "demos", "bench") for path in (ROOT / folder).rglob("*.py")]
    assert PACKAGE / "cli.py" in sources
    used = set().union(*(_uses(ast.parse(path.read_text())) for path in sources))
    defined = [
        f"{path.name}: {stmt.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for stmt in ast.parse(path.read_text()).body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_")
    ]
    assert len(defined) > 50
    assert [name for name in defined if name.split(": ")[1] not in used] == []
