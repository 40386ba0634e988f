"""Source hygiene checks over the package modules."""

import ast
from pathlib import Path

import reftaylor

PACKAGE = Path(reftaylor.__file__).parent


def _unused_imports(path):
    """Module-level imports whose bound name is never read as a Name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                unused.append(f"{path.name}:{node.lineno} {bound}")
    return unused


def test_no_unused_module_imports():
    # __init__.py imports to re-export, so its names are read by users, not by it
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 8
    assert [u for p in modules for u in _unused_imports(p)] == []
