"""Every top-level import in the package is used, and every module is;
only ``_cpus`` asks the platform about CPUs.

A name counts as used if the module reads it anywhere: in code, in an
annotation, or inside a string annotation such as ``-> "SnapshotFile"`` or
``tuple[bool, "Profile"]``.  A module counts as used if another module of
the package imports it, at any depth, or ``__init__._EXPORTS`` names it.
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


def unimported_modules(sources: dict[str, str]) -> list[str]:
    """The modules of a package, given as ``{name: source}``, that no other
    module imports and ``__init__._EXPORTS`` does not name.  ``__init__``
    and ``cli``, the entry point, are exempt."""
    used = {"__init__", "cli"}
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                found = [node.module] if node.module else [a.name for a in node.names]
                used |= set(found) - {name}
            elif (
                name == "__init__" and isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["_EXPORTS"]
            ):
                used |= set(ast.literal_eval(node.value))
    return sorted(set(sources) - used)


def test_every_module_is_used():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unimported_modules(sources) == []


def test_the_check_finds_unused_modules():
    sources = {
        "__init__": "_EXPORTS = {'a': ('f',)}\n",
        "cli": "from . import __version__\ndef main():\n    from .b import g\n",
        "a": "",
        "b": "from . import c\n",
        "c": "",
        "d": "from .d import x\n",
        "e": "import os\n",
    }
    assert unimported_modules(sources) == ["d", "e"]


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


# What the platform says about CPUs, and placement on them: ``_cpus`` alone
# calls these, so the rule for placing a helper has one home.
_CPU_CALLS = {"sched_getaffinity", "sched_setaffinity", "cpu_count"}


def cpu_calls(source: str) -> list[str]:
    """Where ``source`` names one of ``os``'s CPU calls, as ``os.NAME`` or
    by importing it from ``os``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute) and node.attr in _CPU_CALLS
            and isinstance(node.value, ast.Name) and node.value.id == "os"
        ):
            found.append(f"os.{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"os.{a.name} (line {node.lineno})" for a in node.names if a.name in _CPU_CALLS]
    return found


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "_cpus.py"), ids=lambda p: p.name
)
def test_only_cpus_asks_about_cpus(path):
    assert cpu_calls(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_cpu_calls():
    source = (
        "import os\n"
        "from os import cpu_count, getpid\n"
        "def f():\n"
        "    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0)))\n"
        "    return os.getpid(), cpu_count\n"
    )
    assert sorted(cpu_calls(source)) == [
        "os.cpu_count (line 2)", "os.sched_getaffinity (line 4)", "os.sched_setaffinity (line 4)",
    ]
