"""No module of the package, its tests or its scripts imports a name it
never uses.  A stdlib AST scan stands in for a linter: a name counts as used
when the module reads it anywhere as an identifier, or inside a quoted
annotation; assigning to it does not count.  The imports of an
``__init__.py`` are its re-exports and are not checked."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCANNED = sorted(
    path for top in ("src/ringmix", "tests", "scripts")
    for path in (ROOT / top).rglob("*.py")
)


def unused_imports(source: str, is_init: bool = False) -> list[str]:
    """Names bound by the module's imports and never read, in source order."""
    tree = ast.parse(source)
    imported = []  # (line, bound name)
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not is_init:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    bound = alias.asname or alias.name.split(".")[0]
                    imported.append((node.lineno, bound))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef,
                               ast.AsyncFunctionDef)):
            hint = getattr(node, "annotation", None) or getattr(node, "returns", None)
            for sub in ast.walk(hint) if hint is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    used.update(n.id for n in ast.walk(ast.parse(sub.value))
                                if isinstance(n, ast.Name))
    return [f"line {line}: {name}" for line, name in sorted(imported)
            if name not in used]


def test_scan_finds_unused_and_skips_reexports():
    source = ("from __future__ import annotations\n"
              "import os, os.path\n"
              "import json as j\n"
              "from re import compile, escape\n"
              "from typing import Sequence\n"
              "import glob\n"
              "def f(x: 'Sequence[int]'):\n"
              "    glob = x\n"
              "    return os.sep, compile\n")
    assert unused_imports(source) == ["line 3: j", "line 4: escape",
                                      "line 6: glob"]
    assert unused_imports(source, is_init=True) == []


@pytest.mark.parametrize("path", SCANNED,
                         ids=[str(p.relative_to(ROOT)) for p in SCANNED])
def test_no_unused_imports(path):
    source = path.read_text(encoding="utf-8")
    assert unused_imports(source, path.name == "__init__.py") == []
