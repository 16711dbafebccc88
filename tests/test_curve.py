"""Field and group law checks, exhaustive where the curve is small enough."""

import itertools
import random

import pytest

from conftest import brute_force_points, brute_force_squares, oracle_xy

from ringmix import (
    CURVES,
    CurveError,
    CurveParams,
    ModulusMismatchError,
    NonResidueError,
    OffCurveError,
    Point,
    PointDecodeError,
    Scalar,
    SECP256K1,
    TEST_CURVE_11,
    TEST_CURVE_31,
)
from ringmix import curve as curve_module
from ringmix.curve import chi, sqrt_mod
from ringmix.hashing import HashVariant
from ringmix.urs import setup


# ---------------------------------------------------------------------------
# residue arithmetic


def test_addition_reduces():
    assert Scalar(10, 11) + Scalar(5, 11) == Scalar(4, 11)


def test_scalars_equal_only_scalars_of_one_modulus():
    # Equal values hash alike, so a Scalar never equals a bare int.
    assert Scalar(5, 21) == Scalar(26, 21)
    assert hash(Scalar(5, 21)) == hash(Scalar(26, 21))
    assert Scalar(5, 21) != 26 and Scalar(5, 21) != 5
    assert Scalar(5, 21) != Scalar(5, 22)
    assert 26 not in {Scalar(5, 21)}


def test_modulus_mismatch_rejected():
    with pytest.raises(ModulusMismatchError):
        Scalar(1, 11) + Scalar(1, 31)


def test_residues_are_immutable():
    s = Scalar(5, 11)
    with pytest.raises(AttributeError):
        s.value = 6


# ---------------------------------------------------------------------------
# quadratic character and square roots


def test_chi_zero():
    assert chi(0, 11) == 0


def test_chi_worked_examples():
    # squares mod 11 are {0, 1, 3, 4, 5, 9}
    assert chi(3, 11) == 1
    assert chi(2, 11) == -1


@pytest.mark.parametrize("p", [11, 31])
def test_chi_matches_square_enumeration(p):
    squares = brute_force_squares(p)
    for a in range(p):
        expected = 0 if a == 0 else (1 if a in squares else -1)
        assert chi(a, p) == expected


def test_chi_square_blinding_invariance():
    # chi(r^2 * a) == chi(a) for every nonzero r: the identity that lets the
    # deterministic point encoding drop its random blinding factors.
    for r in range(1, 31):
        for a in range(31):
            assert chi(r * r * a, 31) == chi(a, 31)


def test_sqrt_worked_example():
    # canonical root 4^((11+1)/4) = 4^3 = 64 = 9 mod 11, and 9^2 = 4
    assert sqrt_mod(4, 11) == 9


def test_sqrt_zero():
    assert sqrt_mod(0, 31) == 0


@pytest.mark.parametrize("p", [11, 31])
def test_sqrt_roundtrip_exhaustive(p):
    for x in range(p):
        root = sqrt_mod(x * x % p, p)
        assert root in (x, (p - x) % p)
        assert root * root % p == x * x % p


def test_sqrt_of_residues_squares_back():
    squares = brute_force_squares(31)
    for a in squares:
        root = sqrt_mod(a, 31)
        assert root * root % 31 == a


def test_sqrt_nonresidue_raises():
    assert chi(2, 11) == -1
    with pytest.raises(NonResidueError):
        sqrt_mod(2, 11)


def test_sqrt_requires_3_mod_4():
    with pytest.raises(ValueError):
        sqrt_mod(4, 13)


# ---------------------------------------------------------------------------
# point arithmetic


def test_point_add_worked_example():
    # lambda = (1-2)/(3-2) = -1 = 10; x3 = 100 - 5 = 7; y3 = 10*(2-7) - 2 = 3
    c = TEST_CURVE_11
    assert Point(c, 2, 2) + Point(c, 3, 1) == Point(c, 7, 3)


def test_identity_element():
    c = TEST_CURVE_11
    P = Point(c, 2, 2)
    inf = Point.infinity(c)
    assert P + inf == P
    assert inf + P == P
    assert inf + inf == inf


def test_inverse_pair_sums_to_infinity():
    c = TEST_CURVE_11
    assert (Point(c, 2, 2) + Point(c, 2, 9)).is_infinity


def test_double_two_torsion_point():
    c = TEST_CURVE_11
    T = Point(c, 5, 0)
    assert (T + T).is_infinity


def test_double_infinity():
    inf = Point.infinity(TEST_CURVE_11)
    assert (inf + inf).is_infinity


def test_double_value_from_group_table():
    # frozen from the exhaustively validated table below
    c = TEST_CURVE_11
    P = Point(c, 2, 2)
    assert P + P == Point(c, 5, 0)


def test_off_curve_coordinates_rejected():
    with pytest.raises(OffCurveError):
        Point(TEST_CURVE_11, 1, 1)


def test_group_table_axioms_f11():
    """Build the full addition table of the 12-point curve and check every
    group axiom.  The misprinted doubling slope (3x + a instead of 3x^2 + a)
    fails closure on this table, which is why it exists."""
    c = TEST_CURVE_11
    raw = brute_force_points(c)
    assert len(raw) + 1 == 12
    pts = [Point.infinity(c)] + [Point(c, x, y) for x, y in raw]

    table = {}
    for P, Q in itertools.product(pts, repeat=2):
        R = P + Q
        table[(P, Q)] = R
        assert R in pts  # closure (on-curve is already enforced, this pins membership)

    for P, Q in itertools.product(pts, repeat=2):
        assert table[(P, Q)] == table[(Q, P)]  # commutativity
    for P in pts:
        assert table[(P, pts[0])] == P  # identity
        assert any(table[(P, Q)].is_infinity for Q in pts)  # inverses
    for P, Q, R in itertools.product(pts, repeat=3):
        assert (P + Q) + R == P + (Q + R)  # associativity


def test_group_table_axioms_f31():
    c = TEST_CURVE_31
    raw = brute_force_points(c)
    assert len(raw) + 1 == 21
    pts = [Point.infinity(c)] + [Point(c, x, y) for x, y in raw]

    table = {(P, Q): P + Q for P, Q in itertools.product(pts, repeat=2)}
    for P, Q in itertools.product(pts, repeat=2):
        assert table[(P, Q)] in pts
        assert table[(P, Q)] == table[(Q, P)]
    for P in pts:
        assert table[(P, pts[0])] == P
        assert any(table[(P, Q)].is_infinity for Q in pts)
    for P, Q, R in itertools.product(pts, repeat=3):
        assert (P + Q) + R == P + (Q + R)


def test_scalar_mul_matches_repeated_addition():
    c = TEST_CURVE_11
    P = Point(c, 2, 2)
    acc = Point.infinity(c)
    for k in range(0, 14):
        assert k * P == acc
        acc = acc + P
    assert 7 * P == Point(c, 2, 9)  # frozen oracle value


def test_one_times_point():
    P = Point(TEST_CURVE_31, 4, 3)
    assert 1 * P == P


def test_negative_scalar():
    P = Point(TEST_CURVE_31, 4, 3)
    assert -1 * P == -P
    assert (-3 * P) + (3 * P) == Point.infinity(TEST_CURVE_31)


@pytest.mark.parametrize("curve", [TEST_CURVE_11, TEST_CURVE_31, SECP256K1])
def test_generator_order(curve):
    assert (curve.n * curve.g).is_infinity
    assert not ((curve.n - 1) * curve.g).is_infinity


def test_scalar_addition_distributes_exhaustive_f11():
    # (k1 + k2 mod n) * P == k1 * P + k2 * P for every point and pair:
    # scalar arithmetic lives mod n, never mod p.
    c = TEST_CURVE_11
    pts = [Point(c, x, y) for x, y in brute_force_points(c)]
    for P in pts:
        for k1 in range(c.n):
            for k2 in range(c.n):
                left = ((k1 + k2) % c.n) * P
                assert left == (k1 * P) + (k2 * P)


def test_scalar_addition_distributes_sampled_secp():
    rng = random.Random(77)
    c = SECP256K1
    for _ in range(4):
        P = rng.randrange(1, c.n) * c.g
        k1 = rng.randrange(c.n)
        k2 = rng.randrange(c.n)
        assert ((k1 + k2) % c.n) * P == (k1 * P) + (k2 * P)


def test_group_law_sampled_secp():
    rng = random.Random(78)
    c = SECP256K1
    pts = [rng.randrange(1, c.n) * c.g for _ in range(3)]
    A, B, C = pts
    assert A + B == B + A
    assert (A + B) + C == A + (B + C)
    assert A + Point.infinity(c) == A
    assert (A + (-A)).is_infinity


# Every entry to the multiplication engine refuses a Scalar of the wrong
# modulus before it reduces k mod n.
SCALE = {
    "rmul": lambda k, P: k * P,
    "multi_mul": lambda k, P: curve_module.multi_mul(P.curve, [[(k, P)]]),
    "dual_batch": lambda k, P: curve_module.dual_scalar_mul_batch(
        [(1, P, k, P)]),
}


@pytest.mark.parametrize("scale", SCALE.values(), ids=SCALE.keys())
def test_scalar_wrong_order_rejected(scale):
    with pytest.raises(ModulusMismatchError):
        scale(Scalar(2, 12), Point(TEST_CURVE_31, 4, 3))


def test_mixed_curve_addition_rejected():
    with pytest.raises(CurveError):
        Point(TEST_CURVE_11, 2, 2) + Point(TEST_CURVE_31, 4, 3)


# ---------------------------------------------------------------------------
# compressed encoding


def test_infinity_encodes_as_single_zero_byte():
    inf = Point.infinity(TEST_CURVE_11)
    assert inf.encode() == b"\x00"
    assert Point.decode(TEST_CURVE_11, b"\x00").is_infinity


def test_codec_roundtrip_every_point_f11():
    c = TEST_CURVE_11
    for x, y in brute_force_points(c):
        P = Point(c, x, y)
        blob = P.encode()
        assert len(blob) == 1 + c.field_bytes
        assert Point.decode(c, blob) == P


def test_decode_rejects_x_off_curve():
    # 8^3 + 7 = 519 = 2 mod 11 and 2 is a non-residue
    with pytest.raises(PointDecodeError):
        Point.decode(TEST_CURVE_11, bytes([0x02, 8]))


def test_decode_rejects_bad_prefix_and_length():
    with pytest.raises(PointDecodeError):
        Point.decode(TEST_CURVE_11, bytes([0x05, 2]))
    with pytest.raises(PointDecodeError):
        Point.decode(TEST_CURVE_11, bytes([0x02, 0, 2]))
    with pytest.raises(PointDecodeError):
        Point.decode(TEST_CURVE_11, b"")


def test_decode_rejects_x_out_of_range():
    with pytest.raises(PointDecodeError):
        Point.decode(TEST_CURVE_11, bytes([0x02, 13]))


def test_y_zero_point_has_no_odd_encoding():
    c = TEST_CURVE_11
    P = Point(c, 5, 0)
    assert Point.decode(c, P.encode()) == P
    with pytest.raises(PointDecodeError):
        Point.decode(c, bytes([0x03, 5]))


@pytest.mark.parametrize("blob, message", [
    (bytes([0x02, 8]), "x = 8 is not on test-11"),  # 8^3 + 7 = 2, a non-residue
    (bytes([0x03, 5]), "y = 0 point has no odd-parity encoding"),
    (bytes([0x04, 2]), "bad prefix byte 0x4"),
    (bytes([0x02, 11]), "x coordinate out of range"),
    (bytes([0x02, 0, 2]), "expected 2 bytes, got 3"),
    (b"", "expected 2 bytes, got 0"),
])
def test_decode_rejection_messages(blob, message):
    with pytest.raises(PointDecodeError) as err:
        Point.decode(TEST_CURVE_11, blob)
    assert str(err.value) == message


def test_codec_roundtrip_sampled_secp():
    rng = random.Random(79)
    c = SECP256K1
    for _ in range(8):
        P = rng.randrange(1, c.n) * c.g
        blob = P.encode()
        assert len(blob) == 33
        assert Point.decode(c, blob) == P


# ---------------------------------------------------------------------------
# parameters


def test_builtin_curves_validate():
    # The import trusts the pinned parameter sets, and setup() runs no
    # other, so this is the check that they describe sound groups.
    assert sorted(CURVES) == ["secp256k1", "test-11", "test-31"]
    for c in CURVES.values():
        assert c.p % 4 == 3 and 27 * c.b * c.b % c.p != 0
        assert (c.gy * c.gy - c.gx ** 3 - c.b) % c.p == 0
        assert oracle_xy(c.n, c.g) is None
        c.validate()
    # The tiny curves: n points, all of them multiples of g.
    for c in (TEST_CURVE_31, TEST_CURVE_11):
        assert len(brute_force_points(c)) + 1 == c.n
        assert all(oracle_xy(k, c.g) is not None for k in range(1, c.n))
    # secp256k1: p and n pass Fermat tests (a guard against a mistyped
    # digit), and by Hasse #E < (sqrt(p) + 1)^2 < 2n, so the prime n that
    # kills g is the order of the whole group.
    c = SECP256K1
    assert all(pow(a, m - 1, m) == 1 for a in (2, 3, 5) for m in (c.p, c.n))
    d = 2 * c.n - c.p - 1
    assert d > 0 and d * d > 4 * c.p


def test_curve_parameters_are_immutable():
    assert CurveParams.__slots__ == ("curve_id", "p", "b", "gx", "gy", "n")
    for name in CurveParams.__slots__:
        with pytest.raises(AttributeError):
            setattr(SECP256K1, name, 1)
    assert SECP256K1.key == (SECP256K1.p, 7, SECP256K1.gx, SECP256K1.gy,
                             SECP256K1.n)


def test_brute_force_group_orders():
    assert len(brute_force_points(TEST_CURVE_11)) + 1 == TEST_CURVE_11.n == 12
    assert len(brute_force_points(TEST_CURVE_31)) + 1 == TEST_CURVE_31.n == 21


def _secp_copy(**changes):
    fields = dict(curve_id="secp256k1", p=SECP256K1.p, b=SECP256K1.b,
                  gx=SECP256K1.gx, gy=SECP256K1.gy, n=SECP256K1.n)
    fields.update(changes)
    return CurveParams(**fields)


def _refused(curve):
    with pytest.raises(CurveError) as err:
        setup(128, curve, HashVariant.TRY_INCREMENT)
    assert str(err.value) == f"{curve.curve_id}: not a built-in curve"


def test_setup_runs_the_builtin_curves_only():
    for c in CURVES.values():
        assert setup(8, c, HashVariant.TRY_INCREMENT).curve is c
    # An equal copy under its own name is the same curve.  A renamed one
    # is refused: a ledger records the curve by name and could not load it.
    copy = setup(128, _secp_copy(), HashVariant.FT_DETERMINISTIC).curve
    assert copy == SECP256K1 and copy is not SECP256K1
    _refused(_secp_copy(curve_id="secp256k1-copy"))


# Each set below is unsound in the way its test names; setup() refuses it,
# as it refuses every set outside CURVES, by name.


def test_singular_curve_rejected():
    _refused(CurveParams(curve_id="bad", p=11, b=0, gx=0, gy=0, n=11))


def test_wrong_generator_order_rejected():
    _refused(CurveParams(curve_id="test-11", p=11, b=7, gx=4, gy=4, n=7))


def test_n_below_the_group_order_rejected():
    _refused(_secp_copy(n=SECP256K1.n - 2))


def test_n_a_multiple_of_the_order_of_g_rejected():
    # y^2 = x^3 + 1 over F_11 has 12 points, cyclic; g = (2, 8) has order 6
    bad = CurveParams(curve_id="e11-g2T", p=11, b=1, gx=2, gy=8, n=12)
    assert len(brute_force_points(bad)) + 1 == 12
    assert oracle_xy(6, bad.g) is None
    _refused(bad)


def test_composite_p_rejected():
    assert pow(2, SECP256K1.p + 1, SECP256K1.p + 2) != 1
    _refused(_secp_copy(p=SECP256K1.p + 2))


def test_p_1_mod_4_rejected():
    # y^2 = x^3 + 2 over F_13 is a cyclic group of prime order 19 generated
    # by (1, 4), but 13 = 1 mod 4: no square root here could decode a point
    # or hash to one.
    bad = CurveParams(curve_id="f13", p=13, b=2, gx=1, gy=4, n=19)
    assert len(brute_force_points(bad)) + 1 == 19
    _refused(bad)
