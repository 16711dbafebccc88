"""Span wrappers installed on ringmix's layer boundaries, for traced runs only.

A wrapper replaces the name through which one layer calls the next (for
example ``ringmix.urs.dual_scalar_mul_batch``, the name ``ring_sign`` and
``ring_verify`` look up), records a span around the original call, and
forwards the result.  Spans are recorded only while a benchmark operation
is open, so fixture building and correctness checks leave no trace.  Every
span carries the id of the operation (the root span) that caused it.

``Tracer.install()`` patches and ``Tracer.uninstall()`` restores; nothing
here runs in an untraced process.
"""

from __future__ import annotations

import os
import time

import ringmix.cli
import ringmix.mixer
import ringmix.urs
from ringmix.curve import CurveParams, Point
from ringmix.mixer import Mixer, MixPool

# (owner, attribute, span name).  Several names can feed one span: the
# codec is reached as ringmix.urs.* from the benchmark and as
# ringmix.mixer.decode_signature from the mixer.
BOUNDARIES = [
    (Point, "__rmul__", "curve.mul"),
    (Point, "decode", "curve.decode"),
    (CurveParams, "validate", "curve.validate"),
    (ringmix.urs, "dual_scalar_mul_batch", "curve.batch"),
    (ringmix.urs, "hash_to_curve", "hashing.h2c"),
    (ringmix.urs, "hash_to_scalar", "hashing.h2s"),
    (ringmix.urs, "ring_gen", "urs.keygen"),
    (ringmix.urs, "canonical_ring", "urs.ring"),
    (ringmix.mixer, "Ring", "urs.ring"),
    (ringmix.urs, "ring_sign", "urs.sign"),
    (ringmix.urs, "ring_verify", "urs.verify"),
    (ringmix.mixer, "ring_verify", "urs.verify"),
    (ringmix.urs, "encode_signature", "urs.codec"),
    (ringmix.urs, "decode_signature", "urs.codec"),
    (ringmix.mixer, "decode_signature", "urs.codec"),
    (ringmix.mixer, "setup", "urs.setup"),
    (ringmix.cli, "setup", "urs.setup"),
    (MixPool, "ring", "mixer.ring"),
    (Mixer, "mix_withdraw", "mixer.withdraw"),
    (ringmix.cli, "load_state", "mixer.load_state"),
    (ringmix.cli, "save_state", "mixer.save_state"),
]


class Tracer:
    """In-memory span recorder.

    A span is ``[id, parent, root, name, t0, t1, child_s, extra]`` with
    times from ``time.perf_counter``.  ``child_s`` sums the durations of
    direct children; since the process runs one call at a time, children
    never overlap and self time is ``t1 - t0 - child_s``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._saved: list[tuple] = []

    # -- recording ------------------------------------------------------------

    def _open(self, name: str, extra=None) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), parent[0] if parent else None,
                parent[2] if parent else len(self.spans), name,
                time.perf_counter(), None, 0.0, extra]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[5] = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1][6] += span[5] - span[4]

    def op(self, name: str, fn, *args):
        """Run one benchmark operation as a root span."""
        span = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(span)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            span = self._open(name, _extra(name, args))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if name == "mixer.withdraw":
                span[7] = result.value
            elif name == "mixer.save_state":
                span[7] = os.path.getsize(args[1])
            return result
        return traced

    # -- patching ---------------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name in BOUNDARIES:
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                patched = classmethod(self._wrap(name, original.__func__))
            else:
                patched = self._wrap(name, original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- aggregation --------------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, inclusive ms, self ms and the extras."""
        out: dict[str, dict] = {}
        for _, _, _, name, t0, t1, child_s, extra in self.spans:
            rec = out.setdefault(
                name, {"calls": 0, "ms": 0.0, "self_ms": 0.0, "extra": {}})
            rec["calls"] += 1
            rec["ms"] += (t1 - t0) * 1000
            rec["self_ms"] += (t1 - t0 - child_s) * 1000
            if isinstance(extra, str):
                rec["extra"][extra] = rec["extra"].get(extra, 0) + 1
            elif extra is not None:
                rec["extra"]["sum"] = rec["extra"].get("sum", 0) + extra
        return out

    def min_self_s(self) -> float:
        return min((t1 - t0 - c for _, _, _, _, t0, t1, c, _ in self.spans),
                   default=0.0)

    def dump(self) -> dict:
        base = self.spans[0][4] if self.spans else 0.0
        return {
            "fields": ["id", "parent", "root", "name", "start_ms", "end_ms",
                       "self_ms", "extra"],
            "spans": [
                [i, p, r, n, round((t0 - base) * 1000, 4),
                 round((t1 - base) * 1000, 4),
                 round((t1 - t0 - c) * 1000, 4), e]
                for i, p, r, n, t0, t1, c, e in self.spans
            ],
        }


def _extra(name: str, args: tuple):
    # Work counts measured where the work happens: jobs per batch and bytes
    # per transcript hash.
    if name in ("curve.batch", "hashing.h2s"):
        return len(args[0])
    return None
