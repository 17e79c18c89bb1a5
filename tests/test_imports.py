"""Every top-level import in the package is used.

A name counts as used if the module reads it anywhere: in code, in an
annotation, or inside a string annotation such as ``-> "SnapshotFile"`` or
``tuple[bool, "Profile"]``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "corrhist"


def unused_imports(source: str) -> list[str]:
    """The names that ``source``'s top-level imports bind and it never reads."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        for annotation in _annotations(node):
            for inner in ast.walk(annotation):
                if isinstance(inner, ast.Constant) and isinstance(inner.value, str):
                    read |= {
                        n.id for n in ast.walk(ast.parse(inner.value, mode="eval"))
                        if isinstance(n, ast.Name)
                    }
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def _annotations(node: ast.AST) -> list[ast.expr]:
    """The type expressions ``node`` holds: its annotations, or the node
    itself if it subscripts a generic."""
    if isinstance(node, ast.arg | ast.AnnAssign):
        return [node.annotation] if node.annotation is not None else []
    if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
        return [node.returns] if node.returns is not None else []
    if isinstance(node, ast.Subscript):
        return [node.slice]
    return []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_top_level_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import gc as collector\n"
        "from typing import Iterator, Sequence\n"
        "from .model import Profile, Snapshot\n"
        "def f(x: Iterator[int]) -> 'Snapshot':\n"
        "    return os.path.join(x)\n"
        "_Parsed = tuple[bool, 'Profile']\n"
    )
    assert unused_imports(source) == ["collector (line 3)", "Sequence (line 4)"]
