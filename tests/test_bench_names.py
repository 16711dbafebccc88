"""The names the benchmark reads or replaces in the package still exist.

``perfbench/tracing.py`` wraps each ``(owner, attribute)`` in its
``BOUNDARIES``, ``perfbench/run.py`` reads ``ringmix.curve.mpz`` to report
the arithmetic, and ``perfbench/workloads.py`` builds key chains with
``Point.__add__``.  Without this check only a traced benchmark run would
notice one of them gone.  The module is loaded by path and nothing is
installed."""

import importlib.util
from pathlib import Path

import ringmix.curve
from ringmix.curve import Point

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_names_the_benchmark_uses_are_defined():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, _ in tracing.BOUNDARIES
               if attr not in vars(owner)]
    assert missing == []
    assert ringmix.curve.mpz is int
    assert "__add__" in vars(Point)
