"""Source hygiene checks on the package modules."""

import ast
from pathlib import Path

import weakhopf

PACKAGE = Path(weakhopf.__file__).parent


def _dead_imports(tree):
    """Names a module imports and never reads."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py re-exports what it imports
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    dead = {p.name: _dead_imports(ast.parse(p.read_text(encoding="utf-8"))) for p in modules}
    assert {name: names for name, names in dead.items() if names} == {}


def test_dead_import_detector_sees_one():
    tree = ast.parse("from os import path, sep\nimport json\nprint(sep)\n")
    assert _dead_imports(tree) == ["json", "path"]
