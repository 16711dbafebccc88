"""``import ringmix`` does no cryptographic work and loads no module it
does not use: every command is a fresh process that pays for the import."""

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
"""


def test_import_loads_no_unused_module_and_runs_no_ladder():
    res = subprocess.run([sys.executable, "-c", PROBE, PACKAGE_ROOT],
                         capture_output=True, text=True, check=True)
    unused, tables = res.stdout.splitlines()
    assert unused == ""  # none of dataclasses, inspect, json
    assert tables == "0"  # no scalar multiplication ran, nothing is cached
