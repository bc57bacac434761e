"""No file under src/, tests/ or demos/ imports a name it never reads, and no
function under src/ declares a parameter it never reads: dependency-free
stand-ins for a linter's unused-import and unused-argument rules."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "demos")


def imported_names(tree: ast.AST):
    """(name, line) for each name an import binds; ``from __future__``
    features and star imports bind none worth reading."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def read_names(tree: ast.AST) -> set[str]:
    """The names a module reads: loaded names, names inside string
    annotations, and the entries of ``__all__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            names.update(ast.literal_eval(node.value))
        for part in (n for a in annotations if a for n in ast.walk(a)):
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                names |= read_names(ast.parse(part.value, mode="eval"))
    return names


def unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    read = read_names(tree)
    return sorted((line, name) for name, line in imported_names(tree)
                  if name not in read)


def test_finder_flags_only_unread_names():
    source = '''
from __future__ import annotations
import os, os.path as osp
import collections.abc
from typing import Mapping, Optional
from json import *
from math import pi as circle, tau
__all__ = ["tau"]

def f(m: "Mapping[str, int]") -> None:
    return collections.abc.Sized
'''
    assert unused_imports(source) == [(3, "os"), (3, "osp"), (5, "Optional"),
                                      (7, "circle")]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for top in SCANNED for path in sorted((ROOT / top).rglob("*.py"))
             for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert not found, "imported but never read:\n" + "\n".join(found)


def unused_parameters(source: str) -> list[tuple[int, str]]:
    """(line, "function: parameter") for each parameter a function's body
    never reads, nested functions included. Dunder methods are exempt: a
    protocol fixes their signatures."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                or node.name.startswith("__") and node.name.endswith("__")):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, args.vararg,
                                  *args.kwonlyargs, args.kwarg) if a]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        found += [(node.lineno, f"{node.name}: {p}") for p in params
                  if p not in read]
    return found


def test_parameter_finder_flags_only_unread_parameters():
    source = '''
def f(a, b, *rest, c=1, **extra):
    def inner(d):
        return a + d
    return inner(c)

class C:
    def __exit__(self, *exc):
        return False

    def method(self, x):
        x = 2
        return self
'''
    assert unused_parameters(source) == [(2, "f: b"), (2, "f: rest"),
                                         (2, "f: extra"), (11, "method: x")]


def test_no_unused_parameters():
    found = [f"{path.relative_to(ROOT)}:{line}: {what}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for line, what in unused_parameters(path.read_text(encoding="utf-8"))]
    assert not found, "parameter never read:\n" + "\n".join(found)
