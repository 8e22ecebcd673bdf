"""Every name imported by a module of the package is used in that module,
and every name imported inside a function is used in that function.

Stdlib ast only: a name counts as used when it is loaded anywhere in the
scope, listed in __all__, or named inside a string annotation."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "srlab"
MODULES = sorted(PACKAGE.glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _scopes(tree: ast.Module):
    """The module and every function in it."""
    yield tree
    yield from (n for n in ast.walk(tree) if isinstance(n, FUNCTIONS))


def _own_nodes(scope: ast.AST):
    """The nodes of a scope that no function nested in it holds."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def _imported(scope: ast.AST) -> dict:
    names = {}
    for node in _own_nodes(scope):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, FUNCTIONS):
            yield node.returns
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg):
                if arg is not None:
                    yield arg.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.AST) -> set:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    for ann in _annotations(tree):
        for const in ast.walk(ann) if ann is not None else ():
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                inner = ast.parse(const.value, mode="eval")
                used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return used


def unused_imports(source: str) -> list:
    unused = []
    for scope in _scopes(ast.parse(source)):
        used = _used(scope)
        unused += [(line, name) for name, line in _imported(scope).items() if name not in used]
    return sorted(unused)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_sees_string_annotations_and_dead_imports():
    source = (
        "from typing import Iterator, Sequence\n"
        "from .words import Word\n"
        "def f(x: 'Word | None') -> Sequence[int]:\n"
        "    return ()\n"
    )
    assert unused_imports(source) == [(1, "Iterator")]


def test_checker_sees_a_dead_import_inside_a_function():
    source = (
        "def f():\n"
        "    from . import hnn as hn\n"
        "    return 1\n"
        "def g():\n"
        "    from . import hnn as hn\n"
        "    return hn\n"
    )
    assert unused_imports(source) == [(2, "hn")]
