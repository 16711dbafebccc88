"""Hash-to-field and the three point-hash constructions.

The deterministic map is checked exhaustively over F_31 (on-curve for every
input, negation symmetry, exact image size) and by pinned vectors on
secp256k1.  The 256-bit vectors were generated by this package and frozen
as regressions.
"""

import pytest

from conftest import brute_force_points

from ringmix import (
    HashToCurveError,
    HashVariant,
    SECP256K1,
    TEST_CURVE_11,
    TEST_CURVE_31,
    UnsupportedCurveError,
    ft_fallback_point,
    ft_map,
    hash_to_curve,
    hash_to_field,
    hash_to_scalar,
    insecure_hash_exponent,
    try_and_increment_field,
)
from ringmix.curve import chi
from ringmix import hashing
from ringmix.hashing import ft_constants

TRY_INC = HashVariant.TRY_INCREMENT
FT = HashVariant.FT_DETERMINISTIC
INSECURE = HashVariant.INSECURE_MULT_G


# ---------------------------------------------------------------------------
# hash_to_field / hash_to_scalar


def test_hash_to_field_deterministic():
    a = hash_to_field(b"abc", SECP256K1)
    b = hash_to_field(b"abc", SECP256K1)
    assert a == b


def test_hash_to_field_reduced():
    for msg in (b"", b"abc", b"\xff" * 64):
        assert 0 <= hash_to_field(msg, TEST_CURVE_31) < 31
        assert 0 <= hash_to_field(msg, SECP256K1) < SECP256K1.p


def test_hash_to_field_pinned_vectors():
    # frozen regression value for msg "abc" on secp256k1
    assert hash_to_field(b"abc", SECP256K1) == (
        0x876F2E3599BDCC7BF41C2A1DF04CB73E666D54002084C4221BD9E3F9BC092BCA
    )


def test_hash_to_scalar_domain_separated():
    # same message bytes, different oracle: to-scalar != to-field mod n
    s = hash_to_scalar(b"abc", SECP256K1)
    f = hash_to_field(b"abc", SECP256K1)
    assert s.value != f % SECP256K1.n
    assert s.value == 0x78D2B57330E7FCA7060E3DFCDD350C04473A4FC3EAE9C9611E30BDEE2D401AE7


# ---------------------------------------------------------------------------
# try and increment


def test_increment_from_zero_worked_example():
    # u=0: x=0 gives 7 (non-residue mod 11), x=1 gives 8 (non-residue),
    # x=2 gives 4 whose canonical root is 9
    P = try_and_increment_field(0, TEST_CURVE_11)
    assert (P.x, P.y) == (2, 9)


def test_try_increment_on_curve_every_start_f31():
    for u in range(31):
        P = try_and_increment_field(u, TEST_CURVE_31)
        assert not P.is_infinity  # Point construction already proves on-curve


def test_try_increment_exhaustion_error(monkeypatch):
    # a budget of one candidate, starting from a non-residue x, must fail
    monkeypatch.setattr(hashing, "TRY_INCREMENT_LIMIT", 1)
    with pytest.raises(HashToCurveError, match="within 1 increments"):
        try_and_increment_field(0, TEST_CURVE_11)


def test_field_inputs_reduced_mod_p():
    # both maps read their input mod p, as the hash's output always is
    assert try_and_increment_field(11, TEST_CURVE_11) == (
        try_and_increment_field(0, TEST_CURVE_11))
    assert try_and_increment_field(-1, TEST_CURVE_31) == (
        try_and_increment_field(30, TEST_CURVE_31))
    for t in range(31):
        assert ft_map(t + 31, TEST_CURVE_31) == ft_map(t, TEST_CURVE_31)
        assert ft_map(t - 31, TEST_CURVE_31) == ft_map(t, TEST_CURVE_31)


def test_try_increment_no_collisions_secp():
    seen = set()
    for i in range(1000):
        P = hash_to_curve(f"msg-{i}".encode(), SECP256K1, TRY_INC)
        key = (P.x, P.y)
        assert key not in seen
        seen.add(key)


# ---------------------------------------------------------------------------
# deterministic map


def test_ft_constants_f31():
    sqrt_m3, c1 = ft_constants(TEST_CURVE_31)
    assert sqrt_m3 == 20
    assert sqrt_m3 ** 2 % 31 == (-3) % 31
    assert c1 == (sqrt_m3 - 1) * pow(2, -1, 31) % 31 == 25


def test_ft_constants_secp_pinned():
    sqrt_m3, c1 = ft_constants(SECP256K1)
    assert sqrt_m3 * sqrt_m3 % SECP256K1.p == SECP256K1.p - 3
    assert sqrt_m3 == (
        0x0A2D2BA93507F1DF233770C2A797962CC61F6D15DA14ECD47D8D27AE1CD5F852
    )
    assert c1 == (
        0x851695D49A83F8EF919BB86153CBCB16630FB68AED0A766A3EC693D68E6AFA40
    )


def test_ft_requires_7_mod_12():
    # 11 = 11 mod 12: no sqrt(-3) exists, the map must refuse
    with pytest.raises(UnsupportedCurveError):
        ft_constants(TEST_CURVE_11)
    with pytest.raises(UnsupportedCurveError):
        ft_map(3, TEST_CURVE_11)


def test_ft_map_on_curve_exhaustive_f31():
    for t in range(31):
        P = ft_map(t, TEST_CURVE_31)
        assert not P.is_infinity
        assert (P.y * P.y - (P.x ** 3 + 7)) % 31 == 0


def test_ft_map_negation_symmetry_f31():
    # chi(-t) = -chi(t) when p = 3 mod 4, so t and -t share x and negate y
    for t in range(1, 31):
        P = ft_map(t, TEST_CURVE_31)
        Q = ft_map(31 - t, TEST_CURVE_31)
        assert P.x == Q.x
        assert (P.y + Q.y) % 31 == 0


def test_ft_map_deterministic():
    t = 5
    assert ft_map(t, TEST_CURVE_31) == ft_map(t, TEST_CURVE_31)


def test_ft_degenerate_inputs_hit_fallback():
    # t = 0 is the only degenerate input on both supported curves: the
    # other one would need t^2 = -(1+b), and -8 is a non-residue mod 31
    # and mod the secp256k1 prime.
    fallback = ft_fallback_point(TEST_CURVE_31)
    assert (fallback.x, fallback.y) == (1, 16)
    assert ft_map(0, TEST_CURVE_31) == fallback
    assert chi(-(1 + 7), 31) == -1
    assert chi(-(1 + 7) % SECP256K1.p, SECP256K1.p) == -1
    sec_fb = ft_fallback_point(SECP256K1)
    assert sec_fb.x == 1 and sec_fb.y % 2 == 0


def test_ft_image_size_matches_brute_force_oracle():
    image = {
        (P.x, P.y)
        for P in (ft_map(t, TEST_CURVE_31) for t in range(31))
    }
    curve_pts = set(map(tuple, brute_force_points(TEST_CURVE_31)))
    assert image <= curve_pts
    # exact pinned cardinality from enumerating all 31 inputs
    assert len(image) == 16


# ---------------------------------------------------------------------------
# composed hash


def test_hash_to_curve_ft_deterministic_and_pinned():
    P = hash_to_curve(b"abc", SECP256K1, FT)
    assert P == hash_to_curve(b"abc", SECP256K1, FT)
    assert P.encode().hex() == (
        "03bdfc82c491a04793839582162a9b48c9efa6b0c2f515e314a4a019f7397d9397"
    )


# frozen regressions, like the FT vector above: (msg, compressed point) for
# the other two variants on secp256k1
PINNED_POINTS = {
    TRY_INC: [
        (b"abc", "03876f2e3599bdcc7bf41c2a1df04cb73e666d54002084c4221bd9e3f9bc092bca"),
        (b"", "0247dc540c94ceb704a23875c11273e16bb0b8a87aed84de911f2133568115f254"),
    ],
    INSECURE: [
        (b"abc", "03334bf50099c03b90b7106a0d443f08502ff4e0447f79b5d12a0d5ebdcd8548c8"),
        (b"", "03266160b4558fb556fe3bed762d5e05493d7402dbfa7328b99ebbd4b5f817e447"),
    ],
}


@pytest.mark.parametrize("variant", PINNED_POINTS, ids=lambda v: v.value)
def test_hash_to_curve_pinned(variant):
    for msg, want in PINNED_POINTS[variant]:
        assert hash_to_curve(msg, SECP256K1, variant).encode().hex() == want


def test_hash_to_curve_ft_differs_from_try_increment():
    assert hash_to_curve(b"abc", SECP256K1, FT) != (
        hash_to_curve(b"abc", SECP256K1, TRY_INC))


def test_hash_to_curve_ft_on_curve_many_messages():
    for i in range(1000):
        P = hash_to_curve(f"m{i}".encode(), SECP256K1, FT)
        assert not P.is_infinity


def test_dispatch_matches_variants():
    msg = b"dispatch"
    u = hash_to_field(msg, SECP256K1)
    assert hash_to_curve(msg, SECP256K1, TRY_INC) == (
        try_and_increment_field(u, SECP256K1)
    )
    assert hash_to_curve(msg, SECP256K1, FT) == ft_map(u, SECP256K1)
    assert hash_to_curve(msg, SECP256K1, INSECURE) == (
        insecure_hash_exponent(msg, SECP256K1) * SECP256K1.g
    )


# ---------------------------------------------------------------------------
# the deliberately broken variant


def test_insecure_hash_discrete_log_is_public():
    msg = b"anyone can do this"
    e = insecure_hash_exponent(msg, SECP256K1)
    P = hash_to_curve(msg, SECP256K1, INSECURE)
    assert e * SECP256K1.g == P


def test_insecure_hash_exponent_reduced_mod_n():
    e = insecure_hash_exponent(b"x", TEST_CURVE_31)
    assert 0 <= e.value < TEST_CURVE_31.n
