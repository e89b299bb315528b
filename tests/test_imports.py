"""Every name a module of the package imports is used in that module.

No linter ships with the project, so this reads each module's syntax tree
with the standard library.  ``__init__`` re-exports its imports and is
skipped; ``from __future__`` imports are directives, not names.
"""

import ast
from pathlib import Path

import twistk

PACKAGE = Path(twistk.__file__).parent


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
