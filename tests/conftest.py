import random

import pytest

from ringmix import (
    HashVariant,
    SECP256K1,
    TEST_CURVE_31,
    ring_gen,
    setup,
)
from ringmix import curve


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
    """Every affine point by scanning the full (x, y) grid; the infinity
    point is appended.  Independent of the package's point logic."""
    pts = []
    for x in range(curve.p):
        for y in range(curve.p):
            if (y * y - (x ** 3 + curve.b)) % curve.p == 0:
                pts.append((x, y))
    return pts


def brute_force_squares(p):
    """The set of quadratic residues mod p, including 0, by enumeration."""
    return {x * x % p for x in range(p)}
