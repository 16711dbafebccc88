"""``import ringmix`` does no cryptographic work and loads no module it
does not use: every command is a fresh process that pays for the import.
No package or test module imports a name it never reads."""

import ast
import subprocess
import sys
from pathlib import Path

import ringmix

PACKAGE_ROOT = str(Path(ringmix.__file__).resolve().parent.parent)

PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import ringmix
from ringmix import curve
print(",".join(m for m in ("dataclasses", "inspect", "json") if m in sys.modules))
print(len(curve._CACHE))
print(curve._VALIDATED == {(c.p, c.b, c.gx, c.gy, c.n)
                           for c in curve.CURVES.values()})
"""


def test_import_loads_no_unused_module_and_runs_no_ladder():
    res = subprocess.run([sys.executable, "-c", PROBE, PACKAGE_ROOT],
                         capture_output=True, text=True, check=True)
    unused, tables, seeded = res.stdout.splitlines()
    assert unused == ""  # none of dataclasses, inspect, json
    assert tables == "0"  # no scalar multiplication ran, nothing is cached
    assert seeded == "True"  # exactly the three built-in parameter sets


def _unused_imports(path):
    """(line, name) for each name ``path`` binds by import and never reads."""
    tree = ast.parse(path.read_text(), str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_no_module_imports_a_name_it_never_reads():
    package = Path(ringmix.__file__).resolve().parent
    tests = Path(__file__).resolve().parent
    paths = [f for f in sorted(package.glob("*.py")) if f.name != "__init__.py"]
    paths += sorted(tests.glob("*.py"))
    assert [(f.name, *u) for f in paths for u in _unused_imports(f)] == []
