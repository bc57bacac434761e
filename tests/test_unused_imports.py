"""No file under src/, tests/ or demos/ imports a name it never reads: a
dependency-free stand-in for a linter's unused-import rule."""

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
