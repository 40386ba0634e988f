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


def _private_names(tree):
    """Module-level private names a module defines: functions, classes, assignments."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_every_private_module_name_is_read_in_the_package():
    # a helper whose last caller went away is dead code that still reads as live
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = [f"{name}:{n}" for name, tree in sorted(trees.items())
              for n in sorted(_private_names(tree) - read)]
    assert unread == []


def _unread_parameters(tree):
    """Parameters of each function or lambda that its body never reads.

    A method's self is exempt: the call protocol passes it whether it is read
    or not.
    """
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        if id(node) in methods:
            params = params[1:]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "lambda")
        unread += [f"{name}:{node.lineno} {p.arg}" for p in params if p and p.arg not in read]
    return unread


def test_every_parameter_is_read():
    # a parameter whose last use went away still shapes every call that passes it
    unread = {p.name: _unread_parameters(ast.parse(p.read_text(encoding="utf-8")))
              for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: u for name, u in unread.items() if u} == {}
