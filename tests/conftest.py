import math
import random

import pytest

from ringmix import (
    HashVariant,
    SECP256K1,
    Signature,
    Tag,
    TEST_CURVE_31,
    ring_gen,
    ring_message_bytes,
    ring_message_point,
    setup,
)
from ringmix import curve
from ringmix.hashing import hash_to_scalar


@pytest.fixture
def rng():
    return random.Random(1234)


@pytest.fixture
def cold_cache(monkeypatch):
    """An empty scalar-multiplication table cache for one test, so counts
    and cache contents do not depend on which tests ran before.  g's
    lifetime count is kept apart too, and restored with the cache."""
    monkeypatch.setattr(curve, "_CACHE", {})
    monkeypatch.setattr(curve, "_PINNED", {})
    return curve._CACHE


@pytest.fixture(scope="session")
def pp31():
    return setup(8, TEST_CURVE_31, HashVariant.FT_DETERMINISTIC)


@pytest.fixture(scope="session")
def pp31_tryinc():
    return setup(8, TEST_CURVE_31, HashVariant.TRY_INCREMENT)


@pytest.fixture(scope="session")
def pp_secp():
    return setup(128, SECP256K1, HashVariant.FT_DETERMINISTIC)


@pytest.fixture(scope="session")
def pp31_insecure():
    return setup(
        8, TEST_CURVE_31, HashVariant.INSECURE_MULT_G, insecure_override=True
    )


def distinct_keys(pp, rng, count):
    """Key pairs with no repeated public key (tiny curves collide often)."""
    keys, seen = [], set()
    while len(keys) < count:
        pair = ring_gen(pp, rng)
        if pair.pk not in seen:
            seen.add(pair.pk)
            keys.append(pair)
    return keys


def forge_fresh_tag(pp, sk, ring, msg, s, rng):
    """A signature under a tag of the forger's choosing, made by the member
    who holds sk against the urs-ring transcript without tau.

    Every other c_j is 0, so a_j = t_j*g and b_j = t_j*h do not involve
    tau.  The forger commits a_i = r*g and b_i = s*h, hashes to get c, and
    only then solves tau = sk*h + ((s - r)/c)*h, which meets every verify
    equation for that c.  Returns (signature, c), or None when s = r, c is
    not invertible mod n, or tau is the identity (the last two only on a
    composite n).
    """
    g, n = pp.curve.g, pp.curve.n
    i = ring.index_of(sk * g)
    h = ring_message_point(pp, msg, ring)
    ts = [rng.randrange(n) for _ in ring]
    r = ts[i]
    points = [(t * g, t * h) for t in ts]
    points[i] = (r * g, s * h)
    pad = b"\x00" * (1 + pp.curve.field_bytes)
    transcript = b"urs-ring" + ring_message_bytes(msg, ring) + b"".join(
        pad if P.is_infinity else P.encode() for ab in points for P in ab)
    c = hash_to_scalar(transcript, pp.curve).value
    if (s - r) % n == 0 or math.gcd(c, n) != 1:
        return None
    tau = sk * h + ((s - r) * pow(c, -1, n)) * h
    if tau.is_infinity:
        return None
    cs = [0] * len(ring)
    cs[i], ts[i] = c, r - c * sk.value
    sig = Signature(Tag(tau), tuple(map(pp.curve.scalar, cs)),
                    tuple(map(pp.curve.scalar, ts)), ring.digest,
                    curve.digest(msg))
    return sig, c


def affine_add(curve, A, B):
    """A + B for affine (x, y) tuples, None standing for infinity."""
    if A is None or B is None:
        return B if A is None else A
    p = curve.p
    (x1, y1), (x2, y2) = A, B
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if x1 == x2:
        slope = 3 * x1 * x1 * pow(2 * y1, -1, p)
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, p)
    x3 = (slope * slope - x1 - x2) % p
    return x3, (slope * (x1 - x3) - y1) % p


def oracle_xy(k, P):
    """Literal k*P by right-to-left double-and-add, no reduction."""
    A = None if P.is_infinity else (P.x, P.y)
    if k < 0 and A:
        A = (A[0], -A[1] % P.curve.p)
    k, R = abs(k), None
    while k:
        if k & 1:
            R = affine_add(P.curve, R, A)
        A = affine_add(P.curve, A, A)
        k >>= 1
    return R


def brute_force_points(curve):
    """Every affine point by scanning the full (x, y) grid; the point at
    infinity is not among them.  Independent of the package's point logic."""
    pts = []
    for x in range(curve.p):
        for y in range(curve.p):
            if (y * y - (x ** 3 + curve.b)) % curve.p == 0:
                pts.append((x, y))
    return pts


def brute_force_squares(p):
    """The set of quadratic residues mod p, including 0, by enumeration."""
    return {x * x % p for x in range(p)}
