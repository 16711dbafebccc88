"""Hashing byte strings to curve points (and to scalars).

``hash_to_curve`` picks one of three point constructions by ``HashVariant``:

* ``TRY_INCREMENT``: ``try_and_increment_field`` on ``hash_to_field``,
  rejection sampling over x candidates.  Simple and works on any curve, but
  the iteration count depends on the input, so the running time leaks
  which candidates failed.  All inputs here are public, which is the only
  reason that is tolerable.
* ``FT_DETERMINISTIC``: ``ft_map``, the Fouque-Tibouchi encoding, on
  ``hash_to_field``.  Fully deterministic with a fixed operation count,
  defined when the prime is 7 mod 12 (secp256k1 qualifies).
* ``INSECURE_MULT_G``: the generator times ``insecure_hash_exponent``, a
  public hash.  The discrete log of the output is public, which guts the
  privacy of any tag built from it.  Kept only so the attack demos can
  show exactly how it fails; signing refuses it unless explicitly
  overridden.

Two one-byte domain tags keep the to-field oracle and the to-scalar oracle
independent even on identical message bytes.
"""

from __future__ import annotations

import enum
from functools import lru_cache
import hashlib

from .curve import (
    CurveParams,
    NonResidueError,
    Point,
    RingmixError,
    Scalar,
    sqrt_mod,
)


class HashToCurveError(RingmixError):
    """No curve point could be produced for the input."""


class UnsupportedCurveError(RingmixError):
    """Curve does not meet the preconditions of the requested map."""


class HashVariant(enum.Enum):
    """Which construction produces the protocol's point-valued hash."""

    TRY_INCREMENT = "try-inc"
    FT_DETERMINISTIC = "ft"
    INSECURE_MULT_G = "insecure-mult-g"


# Domain separation: 0x01 prefixes the to-field oracle, 0x02 the to-scalar
# oracle.  Same message bytes, independent outputs.
_TO_FIELD = b"\x01"
_TO_SCALAR = b"\x02"

# Candidate budget for try-and-increment; the chance of exhausting it on a
# near-half-density curve is about 2^-k.
TRY_INCREMENT_LIMIT = 256


def _digest_int(domain: bytes, msg: bytes) -> int:
    # The zero byte after the tag is part of the pinned digest input: every
    # point, tag and signature derived from a digest depends on it.
    h = hashlib.sha256(domain + b"\x00" + msg).digest()
    return int.from_bytes(h, "big")


def hash_to_field(msg: bytes, curve: CurveParams) -> int:
    """SHA-256 of (domain tag, zero byte, msg), reduced mod p."""
    return _digest_int(_TO_FIELD, msg) % curve.p


def hash_to_scalar(msg: bytes, curve: CurveParams) -> Scalar:
    """SHA-256 of (domain tag, zero byte, msg), reduced mod n.

    The reduction bias is below 2^-128 on secp256k1 because n is within
    2^129 of 2^256.
    """
    return curve.scalar(_digest_int(_TO_SCALAR, msg))


# ---------------------------------------------------------------------------
# Try and increment


def try_and_increment_field(x: int, curve: CurveParams) -> Point:
    """First x' in x, x+1, ... (mod p) whose cubic is a square, paired with
    its root; at most TRY_INCREMENT_LIMIT candidates."""
    p = curve.p
    x %= p
    for _ in range(TRY_INCREMENT_LIMIT):
        try:
            return Point(curve, x, sqrt_mod(curve.rhs(x), p))
        except NonResidueError:
            x = (x + 1) % p
    raise HashToCurveError(
        f"no curve point within {TRY_INCREMENT_LIMIT} increments")


# ---------------------------------------------------------------------------
# Fouque-Tibouchi map


@lru_cache(maxsize=None)
def ft_constants(curve: CurveParams) -> tuple[int, int]:
    """(sqrt_m3, c1) for the Fouque-Tibouchi encoding on ``curve``.

    sqrt_m3 is the canonical square root of -3 mod p and c1 equals
    (-1 + sqrt(-3)) / 2.  Both exist exactly when p = 1 mod 3 with
    p = 3 mod 4, i.e. p = 7 mod 12.
    """
    if curve.p % 12 != 7:
        raise UnsupportedCurveError(
            f"map requires p = 7 mod 12, got p = {curve.p % 12} mod 12"
        )
    sqrt_m3 = sqrt_mod(-3 % curve.p, curve.p)
    return sqrt_m3, (sqrt_m3 - 1) * pow(2, -1, curve.p) % curve.p


@lru_cache(maxsize=None)
def ft_fallback_point(curve: CurveParams) -> Point:
    """Fixed image for the map's two degenerate inputs.

    Smallest x >= 1 whose cubic is a square, with the canonical root.  The
    degenerate inputs (t = 0, and t with 1 + b + t^2 = 0) have no defined
    w, so they are pinned here; the distribution bias is two inputs out
    of p.
    """
    return try_and_increment_field(1, curve)


def ft_map(t: int, curve: CurveParams) -> Point:
    """Deterministic Fouque-Tibouchi encoding of a field element, t mod p.

    Of three candidates x1, x2, x3 it keeps the first whose cubic v has a
    root; the three cubics multiply to a square, so one always does.  The
    root is taken as y = (v*t^2)^((p+1)/4) / t, which is v^((p+1)/4) times
    chi(t), and is kept when y*y == v.  All three are taken, so the
    operation count is fixed: three exponentiations and one inversion,
    of t*(1 + b + t^2), which gives both 1/t and the w line's division.
    The w line multiplies by sqrt(-3), and y carries chi(t); the
    exhaustive on-curve test over F_31 pins both choices.
    """
    sqrt_m3, c1 = ft_constants(curve)
    p, b = curve.p, curve.b
    tv = t % p
    denom = (1 + b + tv * tv) % p
    if tv == 0 or denom == 0:
        return ft_fallback_point(curve)
    inv = pow(tv * denom, -1, p)
    t_inv = inv * denom % p
    w = sqrt_m3 * tv % p * tv % p * inv % p
    x1 = (c1 - tv * w) % p
    x2 = (-1 - x1) % p
    # 1/w^2 = (1 + b + t^2)^2 / (-3 t^2), and 1/3 = (2p + 1)/3 as p = 1 mod 3
    x3 = (1 - (denom * t_inv) ** 2 * ((2 * p + 1) // 3)) % p
    tt = tv * tv % p
    cubics = [(x, curve.rhs(x)) for x in (x1, x2, x3)]
    roots = [pow(v * tt % p, (p + 1) // 4, p) * t_inv % p for _, v in cubics]
    for (x, v), y in zip(cubics, roots):
        if y * y % p == v:
            return Point(curve, x, y)
    raise HashToCurveError(f"no candidate for t = {tv} is on {curve.curve_id}")


# ---------------------------------------------------------------------------
# The broken variant


def insecure_hash_exponent(msg: bytes, curve: CurveParams) -> Scalar:
    """The publicly recomputable discrete log of the INSECURE_MULT_G hash.

    Anyone can evaluate this, which is precisely the flaw: a tag built as
    sk * (e * g) equals e * pk, a product of public values.
    """
    return curve.scalar(_digest_int(_TO_FIELD, msg))


# ---------------------------------------------------------------------------
# Dispatch


def hash_to_curve(msg: bytes, curve: CurveParams, variant: HashVariant) -> Point:
    if variant is HashVariant.TRY_INCREMENT:
        return try_and_increment_field(hash_to_field(msg, curve), curve)
    if variant is HashVariant.FT_DETERMINISTIC:
        return ft_map(hash_to_field(msg, curve), curve)
    if variant is HashVariant.INSECURE_MULT_G:
        return insecure_hash_exponent(msg, curve) * curve.g
    raise ValueError(f"unknown hash variant {variant!r}")
