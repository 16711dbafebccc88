"""The scalar-multiplication engine against a slow double-and-add oracle.

The oracle adds affine (x, y) tuples by the textbook chord-and-tangent
formulas, so it shares nothing with the engine's wNAF recoding, Jacobian
formulas, odd-multiple tables or GLV split; ``Point`` only checks and
carries its results.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import affine_add, brute_force_points, oracle_xy

from ringmix import (
    CurveError,
    CurveParams,
    Point,
    SECP256K1,
    TEST_CURVE_11,
    TEST_CURVE_31,
)
from ringmix import curve as curve_module
from ringmix.curve import (
    _GLV,
    _glv_split,
    dual_scalar_mul_batch,
    multi_mul,
)

CURVES = [SECP256K1, TEST_CURVE_31, TEST_CURVE_11]

# Every test starts from an empty table cache.
pytestmark = pytest.mark.usefixtures("cold_cache")


def as_point(curve, A):
    return Point.infinity(curve) if A is None else Point(curve, *A)


def oracle_mul(k, P):
    return as_point(P.curve, oracle_xy(k, P))


def oracle_sum(curve, job):
    R = None
    for k, P in job:
        R = affine_add(curve, R, oracle_xy(k, P))
    return as_point(curve, R)


def all_points(curve):
    return [Point.infinity(curve)] + [
        Point(curve, x, y) for x, y in brute_force_points(curve)
    ]


def sample_points(curve, seed=7):
    rng = random.Random(seed)
    pts = [Point.infinity(curve), curve.g, -curve.g]
    pts += [rng.randrange(1, curve.n) * curve.g for _ in range(3)]
    if curve is TEST_CURVE_11:
        pts.append(Point(curve, 5, 0))  # 2-torsion: 2P is infinity
    return pts


def edge_scalars(n):
    return [0, 1, 2, n - 1, n, n + 1, 2 * n + 3, -1, -(n - 1), -n, -n - 1]


# ---------------------------------------------------------------------------
# exhaustive on the tiny curves

TINY = [TEST_CURVE_11, TEST_CURVE_31]


def every_point_every_scalar(curve):
    for P in all_points(curve):
        for k in range(-2 * curve.n - 1, 2 * curve.n + 2):
            assert k * P == oracle_mul(k, P), (k, P)


def every_pair_of_points_one_batch(curve):
    pts = all_points(curve)
    rng = random.Random(curve.p)
    jobs = [[(rng.randrange(-curve.n, 2 * curve.n), P),
             (rng.randrange(-curve.n, 2 * curve.n), Q)]
            for P in pts for Q in pts]
    for job, got in zip(jobs, multi_mul(curve, jobs)):
        assert got == oracle_sum(curve, job), job


@pytest.mark.parametrize("curve", TINY, ids=lambda c: c.curve_id)
def test_every_point_every_scalar_tiny(curve):
    every_point_every_scalar(curve)


@pytest.mark.parametrize("curve", TINY, ids=lambda c: c.curve_id)
def test_every_pair_of_points_one_batch_tiny(curve):
    every_pair_of_points_one_batch(curve)


@pytest.mark.parametrize("curve", TINY, ids=lambda c: c.curve_id)
def test_every_point_already_cached_tiny(curve, cold_cache):
    # Every point tabled first, with every level a scalar below 2n reaches,
    # so that each one is warm from the first call of the checks.
    pts = all_points(curve)
    multi_mul(curve, [[(k, P)] for P in pts for k in range(2 * curve.n)])
    assert {key[1:] for key in cold_cache if key[0] == curve.key} == {
        (P.x, P.y) for P in pts if not P.is_infinity}
    every_point_every_scalar(curve)
    every_pair_of_points_one_batch(curve)


@pytest.mark.parametrize("curve", TINY, ids=lambda c: c.curve_id)
def test_every_point_cached_wide_tiny(curve, cold_cache):
    # 3000 jobs on each point pay for width 7 there, so every table holds
    # 32 odd multiples, most of them past n, and some infinity.
    pts = all_points(curve)[1:]
    jobs = [[(k % curve.n, P)] for P in pts for k in range(3000)]
    for job, got in zip(jobs, multi_mul(curve, jobs)):
        assert got == oracle_sum(curve, job)
    assert {len(t) for lv in cold_cache.values() for t in lv} == {32}
    every_point_every_scalar(curve)
    every_pair_of_points_one_batch(curve)


def test_two_torsion_point_f11():
    c = TEST_CURVE_11
    T = Point(c, 5, 0)
    assert (T + T).is_infinity
    for k in range(-30, 30):
        assert k * T == (T if k % 2 else Point.infinity(c))
    # mixed with other bases in one batch, where the tables are built together
    jobs = [[(k, T), (k + 1, c.g), (3, T)] for k in range(-5, 15)]
    for job, got in zip(jobs, multi_mul(c, jobs)):
        assert got == oracle_sum(c, job)


# ---------------------------------------------------------------------------
# edge scalars and bases on every curve


@pytest.mark.parametrize("curve", CURVES, ids=lambda c: c.curve_id)
def test_edge_scalars(curve):
    for P in sample_points(curve):
        for k in edge_scalars(curve.n):
            assert k * P == oracle_mul(k, P), (k, P)


@pytest.mark.parametrize("curve", CURVES, ids=lambda c: c.curve_id)
def test_infinity_as_either_base(curve):
    inf = Point.infinity(curve)
    P = 5 * curve.g
    jobs = [[(3, inf), (4, P)], [(4, P), (3, inf)], [(3, inf), (curve.n - 2, inf)],
            [(0, P), (0, inf)], []]
    got = multi_mul(curve, jobs)
    assert got[0] == got[1] == oracle_mul(4, P)
    assert got[2].is_infinity and got[3].is_infinity and got[4].is_infinity
    assert dual_scalar_mul_batch([(7, P, 9, inf)])[0] == oracle_mul(7, P)


@pytest.mark.parametrize("curve", CURVES, ids=lambda c: c.curve_id)
def test_repeated_bases_in_one_batch(curve):
    rng = random.Random(11)
    pts = sample_points(curve)
    h = pts[3]
    jobs = [[(rng.randrange(-3 * curve.n, 3 * curve.n), curve.g),
             (rng.randrange(curve.n), h), (rng.randrange(curve.n), h),
             (rng.randrange(curve.n), rng.choice(pts))]
            for _ in range(6)]
    jobs.append([(1, h), (-1, h)])
    jobs.append([(curve.n - 1, curve.g), (1, curve.g)])
    for job, got in zip(jobs, multi_mul(curve, jobs)):
        assert got == oracle_sum(curve, job)
    assert multi_mul(curve, jobs) == multi_mul(curve, jobs)  # cached tables


@pytest.mark.parametrize("curve", CURVES, ids=lambda c: c.curve_id)
def test_dual_batch_reduces_mod_n(curve):
    rng = random.Random(13)
    P, Q = sample_points(curve)[3:5]
    pairs = [(rng.randrange(-4 * curve.n, 4 * curve.n), P,
              rng.randrange(-4 * curve.n, 4 * curve.n), Q) for _ in range(5)]
    for (k1, P1, k2, P2), got in zip(pairs, dual_scalar_mul_batch(pairs)):
        assert got == oracle_sum(curve, [(k1 % curve.n, P1), (k2 % curve.n, P2)])


def test_batch_rejects_mixed_curves():
    with pytest.raises(CurveError):
        multi_mul(TEST_CURVE_31, [[(1, TEST_CURVE_31.g), (1, TEST_CURVE_11.g)]])


# ---------------------------------------------------------------------------
# the GLV split


def _cube_root_of_unity(m):
    return next(r for r in (pow(c, (m - 1) // 3, m) for c in range(2, m))
                if r != 1)


def derive_glv(curve):
    """(beta, lam, a1, b1, a2, b2) for the endomorphism (x, y) -> (beta*x, y).

    It exists when p = 1 mod 3 and n is a prime = 1 mod 3; it then
    acts on the group as multiplication by lam, a cube root of unity mod n,
    matched to beta by lam*g == (beta*gx, gy) on the oracle.  (a1, b1) and
    (a2, b2) are short vectors of the lattice {(x, y): x + y*lam = 0 mod n},
    found by extended Euclid on (n, lam) (Guide to ECC, Algorithm 3.74).
    """
    p, n = curve.p, curve.n
    if p % 3 != 1 or n % 3 != 1 or pow(2, n - 1, n) != 1:
        return None
    beta, lam = _cube_root_of_unity(p), _cube_root_of_unity(n)
    lg = oracle_mul(lam, curve.g)
    if lg.x != beta * curve.gx % p:
        beta = beta * beta % p
    assert (lg.x, lg.y) == (beta * curve.gx % p, curve.gy)
    # remainders r_i = s_i*n + t_i*lam; stop at the last r_i >= sqrt(n)
    r0, r1, t0, t1 = n, lam, 0, 1
    while r1 * r1 >= n:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    q = r0 // r1
    r2, t2 = r0 - q * r1, t0 - q * t1
    if r0 * r0 + t0 * t0 > r2 * r2 + t2 * t2:
        r0, t0 = r2, t2
    return beta, lam, r1, -t1, r0, -t0


def test_pinned_glv_constants_match_their_derivation():
    assert derive_glv(SECP256K1) == _GLV[SECP256K1]
    assert derive_glv(TEST_CURVE_31) is None and derive_glv(TEST_CURVE_11) is None


def test_glv_only_on_secp256k1():
    assert set(_GLV) == {SECP256K1}
    beta, lam, a1, b1, a2, b2 = _GLV[SECP256K1]
    p, n = SECP256K1.p, SECP256K1.n
    assert pow(beta, 3, p) == 1 != beta and pow(lam, 3, n) == 1 != lam
    assert oracle_mul(lam, SECP256K1.g) == Point(
        SECP256K1, beta * SECP256K1.gx, SECP256K1.gy)
    assert (a1 + b1 * lam) % n == 0 and (a2 + b2 * lam) % n == 0
    assert a1 * b2 - a2 * b1 in (n, -n)  # a basis of the whole lattice


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=SECP256K1.n - 1))
def test_glv_split_is_short_and_exact(k):
    n = SECP256K1.n
    glv = _GLV[SECP256K1]
    k1, k2 = _glv_split(k, glv, n)
    assert (k1 + k2 * glv[1] - k) % n == 0
    assert abs(k1).bit_length() <= 129 and abs(k2).bit_length() <= 129


# ---------------------------------------------------------------------------
# hypothesis differential tests


def scalars(curve):
    n = curve.n
    return st.one_of(st.sampled_from(edge_scalars(n)),
                     st.integers(min_value=-3 * n, max_value=3 * n))


@pytest.mark.parametrize("curve", CURVES, ids=lambda c: c.curve_id)
def test_hypothesis_single_base(curve):
    pts = sample_points(curve)

    @settings(max_examples=40 if curve is SECP256K1 else 150, deadline=None)
    @given(k=scalars(curve), idx=st.integers(0, len(pts) - 1))
    def check(k, idx):
        assert k * pts[idx] == oracle_mul(k, pts[idx])

    check()


@pytest.mark.parametrize("curve", CURVES, ids=lambda c: c.curve_id)
def test_hypothesis_batches(curve):
    pts = sample_points(curve)
    term = st.tuples(scalars(curve), st.sampled_from(pts))
    batch = st.lists(st.lists(term, max_size=4), min_size=1, max_size=4)

    @settings(max_examples=15 if curve is SECP256K1 else 150, deadline=None)
    @given(jobs=batch)
    def check(jobs):
        for job, got in zip(jobs, multi_mul(curve, jobs)):
            assert got == oracle_sum(curve, job)

    check()


# ---------------------------------------------------------------------------
# shifted tables: warm bases, and bases shared by enough completely folded jobs


def verify_shape(curve, rng, n):
    """The 2n jobs of a size-n ring verify: a_j = t_j*g + c_j*y_j and
    b_j = t_j*h + c_j*tau, h and tau shared by the n b_j jobs."""
    h, tau, *ys = [rng.randrange(1, curve.n) * curve.g for _ in range(n + 2)]
    jobs = []
    for y in ys:
        t, c = rng.randrange(curve.n), rng.randrange(curve.n)
        jobs += [[(t, curve.g), (c, y)], [(t, h), (c, tau)]]
    return jobs


@pytest.mark.parametrize("curve", CURVES, ids=lambda c: c.curve_id)
@pytest.mark.parametrize("n", [4, 5, 8])  # h and tau fold from n = _SHARE
def test_verify_shapes(curve, n):
    jobs = verify_shape(curve, random.Random(n), n)
    for job, got in zip(jobs, multi_mul(curve, jobs)):
        assert got == oracle_sum(curve, job)


@pytest.mark.parametrize("curve", CURVES, ids=lambda c: c.curve_id)
def test_short_unshared_scalar_next_to_folded_digits(curve):
    # A job that does not fold completely but whose other scalar is short:
    # S then spans several levels, and folded digits above S index the
    # level of 2^S*P, not of 2^F*P.  24 sharing jobs widen the shared
    # bases on secp256k1, so those digits index wider tables.
    rng = random.Random(17)
    shorts = [2, 4, 8] if curve.n < 100 else [2**20 + 5, 2**40 + 1, 2**70 + 3]
    ys = [-curve.g] + sample_points(curve)[3:5]  # each in two jobs: unshared
    for sharing in (curve_module._SHARE, 24):
        shared = [rng.randrange(curve.n) * curve.g for _ in range(2)]
        jobs = [[(rng.randrange(curve.n), P) for P in shared]
                for _ in range(sharing)]
        for s, y in zip(shorts, ys):
            jobs += [[(s, y), (rng.randrange(curve.n), curve.g)],
                     [(s, y), (rng.randrange(curve.n), shared[0])]]
        for job, got in zip(jobs, multi_mul(curve, jobs)):
            assert got == oracle_sum(curve, job), job
    if curve is SECP256K1:
        assert widths(curve_module._CACHE, curve, shared) == [6, 6]


def test_verify_shape_builds_only_gs_first_level(monkeypatch, cold_cache):
    # A one-shot verify needs g's digits only below the y_j digits, so on a
    # cold cache it must not pay for g's shifted levels; h and tau get all
    # of theirs.  The same verify again finds the y_j warm and folds them:
    # their levels and g's are built then, once, and a third builds nothing.
    built = []
    odd_multiples = curve_module._odd_multiples

    def counting(Js, tables, sizes, p):
        built.append(len(Js))
        return odd_multiples(Js, tables, sizes, p)

    monkeypatch.setattr(curve_module, "_odd_multiples", counting)
    n = 8
    jobs = verify_shape(SECP256K1, random.Random(3), n)
    built.clear()  # verify_shape's own keygens built g's levels
    cold_cache.clear()
    g_key = (SECP256K1.key, SECP256K1.gx, SECP256K1.gy)
    want = multi_mul(SECP256K1, jobs)
    assert len(cold_cache[g_key]) == 1
    assert len(cold_cache) == 1 + n + 2  # g, the y_j, h and tau
    assert built == [1 + n + 2 * 8]  # g, the y_j, 8 levels of h and of tau
    assert widths(cold_cache, SECP256K1, [SECP256K1.g]) == [5]
    assert multi_mul(SECP256K1, jobs) == want
    # 7 more levels of g and of the y_j, and g's first level widened: its
    # 16 jobs in two calls have paid for width 6.
    assert built[1:] == [7 * (1 + n) + 1]
    assert widths(cold_cache, SECP256K1, [SECP256K1.g]) == [6]
    assert multi_mul(SECP256K1, jobs) == want
    assert built[2:] == []
    assert {len(levels) for levels in cold_cache.values()} == {8}


def held_points(cache):
    return sum(len(levels) * len(levels[0]) for levels in cache.values())


def test_cache_is_bounded_and_keeps_g(cold_cache):
    # Every call on a curve uses its g's entry, so the one at risk is the g
    # of a curve that has been idle the longest: test-31's here.
    c, idle = SECP256K1, TEST_CURVE_31
    bound = curve_module._CACHE_POINTS
    g_key, idle_key = (c.key, c.gx, c.gy), (idle.key, idle.gx, idle.gy)
    19 * idle.g
    idle_levels = cold_cache[idle_key]
    random.Random(5).randrange(c.n) * c.g  # a keygen: all of g's levels
    g_levels = cold_cache[g_key]
    assert len(g_levels) == 8
    kept = 7 * c.g  # used in every step, so never the least recent
    want = oracle_mul(2**100, kept)
    P = 3 * c.g
    keys = []
    for _ in range(bound // 8 + 8):  # each P holds one level of 8 points
        P = P + c.g
        keys.append((c.key, P.x, P.y))
        assert 3 * P == P + P + P
        assert 2**100 * kept == want
        assert held_points(cold_cache) <= bound
        assert cold_cache[g_key] is g_levels
        assert cold_cache[idle_key] is idle_levels
    assert (c.key, kept.x, kept.y) in cold_cache
    assert keys[-1] in cold_cache and keys[0] not in cold_cache
    assert held_points(cold_cache) > bound - 8


def test_wide_entries_count_by_their_points(cold_cache):
    # A 32-member ring verified again and again, each time with a new h and
    # tau, as a mixing pool's ring is: its members stay warm at width 5,
    # each new h and tau holds 8 levels of 32 points, and those, not a
    # count of bases, fill the cache.  g is at its cap, as in a process
    # that has run a while, and holds 8 levels of 256 points.
    c = SECP256K1
    bound = curve_module._CACHE_POINTS
    rng = random.Random(29)
    ys = [rng.randrange(1, c.n) * c.g for _ in range(32)]
    widen_g(c, rng)
    for round_ in range(10):
        h, tau = (rng.randrange(1, c.n) * c.g for _ in range(2))
        jobs = []
        for y in ys:
            t, ch = rng.randrange(c.n), rng.randrange(c.n)
            jobs += [[(t, c.g), (ch, y)], [(t, h), (ch, tau)]]
        got = multi_mul(c, jobs)
        assert held_points(cold_cache) <= bound
        assert all(len(cold_cache[(c.key, P.x, P.y)][0]) == 32
                   for P in (h, tau))
        assert widths(cold_cache, c, [c.g]) == [curve_module._G_WIDTH]
        if round_:
            assert all(len(cold_cache[(c.key, y.x, y.y)]) == 8 for y in ys)
    assert all(len(cold_cache[(c.key, y.x, y.y)][0]) == 8 for y in ys)
    assert held_points(cold_cache) > bound - 2 * 256
    assert len(cold_cache) < 48  # 72 bases would hold all 20 h and tau: 53
    for job, P in zip(jobs[:8], got):
        assert P == oracle_sum(c, job)


def widths(cache, curve, points):
    return [len(cache[(curve.key, P.x, P.y)][0]).bit_length() + 1
            for P in points]


# ---------------------------------------------------------------------------
# g's width, paid for by its lifetime use


def half_bits(curve, k):
    """The bits of the scalar halves that k*P costs the engine."""
    glv, n = _GLV.get(curve), curve.n
    return sum(abs(half).bit_length()
               for half in (_glv_split(k % n, glv, n) if glv else (k % n,)))


def lifetime_width(bits):
    """g's width once it has served ``bits`` bits of scalar halves: the
    smallest width whose next step does not pay, up to g's cap."""
    w = curve_module._W
    while w < curve_module._G_WIDTH and 8 * (w + 1) * (w + 2) << (w - 2) < bits:
        w += 1
    return w


def widen_g(curve, rng):
    """Multiplies g in batches of 1000 until it is at its widest: one on
    secp256k1, about 30 on test-31."""
    cache = curve_module._CACHE
    for _ in range(60):
        multi_mul(curve, [[(rng.randrange(curve.n), curve.g)]
                          for _ in range(1000)])
        if widths(cache, curve, [curve.g]) == [curve_module._G_WIDTH]:
            return
    raise AssertionError("g did not widen to its cap")


def test_g_widens_with_lifetime_use_up_to_its_cap(cold_cache):
    # One keygen at a time: the 256 bits of one never pay for width 6, the
    # bits that g has served since its levels were built do.  A batch past
    # width 11's payback leaves g at its cap.
    c = SECP256K1
    g_key = (c.key, c.gx, c.gy)
    rng = random.Random(47)
    spent, seen = 0, []
    while lifetime_width(spent) < 7:
        k = rng.randrange(c.n)
        assert k * c.g == oracle_mul(k, c.g)
        spent += half_bits(c, k)
        seen.extend(widths(cold_cache, c, [c.g]))
        assert seen[-1] == lifetime_width(spent)
    assert seen[0] == 5 and 6 in seen and seen[-1] == 7
    for _ in range(2):
        ks = [rng.randrange(c.n) for _ in range(1200)]
        jobs = [[(k, c.g)] for k in ks]
        for job, got in zip(jobs[:3], multi_mul(c, jobs)):
            assert got == oracle_sum(c, job)
        spent += sum(half_bits(c, k) for k in ks)
        assert spent > 8 * 11 * 12 << 8  # width 11 would pay for itself
        assert widths(cold_cache, c, [c.g]) == [curve_module._G_WIDTH] == [10]
    assert len(cold_cache[g_key]) == 8
    assert {len(t) for t in cold_cache[g_key]} == {256}


def test_clearing_the_cache_forgets_gs_count(cold_cache):
    # The same keygens widen g at the same one after the cache is cleared:
    # the count starts again with g's levels.
    c = SECP256K1
    rng = random.Random(53)
    ks = [rng.randrange(c.n) for _ in range(12)]

    def keygens():
        seen = []
        for k in ks:
            k * c.g
            seen.extend(widths(cold_cache, c, [c.g]))
        return seen

    first = keygens()
    assert first[0] == 5 and first[-1] == 6
    cold_cache.clear()
    assert keygens() == first


def test_a_64_member_ring_fits_beside_g_at_its_cap(monkeypatch, cold_cache):
    # The working set the cache bound is sized for: a 64-member ring, g at
    # its cap, the h and tau of its verify and those of one more message.
    # The third verify of the same message builds nothing, and a fourth on
    # a new message evicts none of the ring.
    built = []
    odd_multiples = curve_module._odd_multiples

    def counting(Js, tables, sizes, p):
        built.append(len(Js))
        return odd_multiples(Js, tables, sizes, p)

    c = SECP256K1
    rng = random.Random(59)
    jobs = verify_shape(c, rng, 64)
    widen_g(c, rng)
    monkeypatch.setattr(curve_module, "_odd_multiples", counting)
    want = multi_mul(c, jobs)
    assert multi_mul(c, jobs) == want
    built.clear()
    assert multi_mul(c, jobs) == want
    assert built == []
    assert len(cold_cache) == 1 + 64 + 2
    assert widths(cold_cache, c, [c.g]) == [10]
    h2, tau2 = (rng.randrange(1, c.n) * c.g for _ in range(2))
    jobs2 = [[(job[0][0], h2), (job[1][0], tau2)] if i % 2 else job
             for i, job in enumerate(jobs)]
    got = multi_mul(c, jobs2)
    assert len(cold_cache) == 1 + 64 + 4
    assert held_points(cold_cache) <= curve_module._CACHE_POINTS
    for job, P in zip(jobs[:4] + jobs2[:4], want[:4] + got[:4]):
        assert P == oracle_sum(c, job)


def test_g_at_its_cap_tiny(cold_cache):
    c = TEST_CURVE_31
    widen_g(c, random.Random(61))
    every_point_every_scalar(c)
    every_pair_of_points_one_batch(c)
    assert widths(cold_cache, c, [c.g]) == [10]


def test_g_at_its_cap_secp256k1(cold_cache):
    c = SECP256K1
    rng = random.Random(67)
    widen_g(c, rng)
    for k in edge_scalars(c.n) + [rng.randrange(c.n) for _ in range(8)]:
        assert k * c.g == oracle_mul(k, c.g), k
    jobs = verify_shape(c, rng, 8)
    for job, got in zip(jobs, multi_mul(c, jobs)):
        assert got == oracle_sum(c, job)
    assert widths(cold_cache, c, [c.g]) == [10]


def test_bases_shared_past_the_payback_widen(cold_cache):
    # g, h and tau of a 12-member verify pay for width 6; the members,
    # one job each, stay at width 5.
    c = SECP256K1
    jobs = verify_shape(c, random.Random(31), 12)
    cold_cache.clear()
    for job, got in zip(jobs, multi_mul(c, jobs)):
        assert got == oracle_sum(c, job)
    g, h, tau = c.g, jobs[1][0][1], jobs[1][1][1]
    ys = [job[1][1] for job in jobs[0::2]]
    assert widths(cold_cache, c, [g, h, tau]) == [6, 6, 6]
    assert set(widths(cold_cache, c, ys)) == {5}


def test_a_base_keeps_its_width_and_a_shared_cold_base_widens(cold_cache):
    # 12 jobs on g and on U, each with a base of its own: g folds (it is
    # always warm), U folds (12 jobs of the call use it), and both widen,
    # though only their first level is built, as the bases of their own
    # keep each job's doubling chain whole.  A keygen then builds g's
    # other levels at g's width.
    c = SECP256K1
    rng = random.Random(43)
    U, *own = [rng.randrange(1, c.n) * c.g for _ in range(13)]
    jobs = [[(rng.randrange(c.n), c.g), (rng.randrange(c.n), U),
             (rng.randrange(c.n), P)] for P in own]
    cold_cache.clear()
    for job, got in zip(jobs, multi_mul(c, jobs)):
        assert got == oracle_sum(c, job)
    g_levels = cold_cache[(c.key, c.gx, c.gy)]
    assert len(g_levels) == 1 and widths(cold_cache, c, [c.g, U]) == [6, 6]
    k = rng.randrange(c.n)
    assert k * c.g == oracle_mul(k, c.g)
    assert len(g_levels) == 8 and {len(t) for t in g_levels} == {16}


def test_widened_in_place_from_a_narrow_table(cold_cache):
    # W is first tabled at width 5 by a call of its own, then widened by
    # 24 jobs that share it: its table grows in place, keeping its first 8
    # entries, and digits of either sign and on either GLV half read the
    # appended entries and their endomorphism images.
    c = SECP256K1
    glv = _GLV[c]
    rng = random.Random(37)
    W = rng.randrange(1, c.n) * c.g
    k0 = rng.randrange(c.n)
    assert k0 * W == oracle_mul(k0, W)
    level0 = cold_cache[(c.key, W.x, W.y)][0]
    narrow = list(level0)
    assert len(narrow) == 8
    ks = [rng.randrange(c.n) for _ in range(24)]
    halves = [_glv_split(k, glv, c.n) for k in ks]
    assert {k1 < 0 for k1, _ in halves} == {k2 < 0 for _, k2 in halves} == {
        True, False}
    jobs = [[(k, W)] for k in ks]
    for job, got in zip(jobs, multi_mul(c, jobs)):
        assert got == oracle_sum(c, job)
    levels = cold_cache[(c.key, W.x, W.y)]
    assert levels[0] is level0 and level0[:8] == narrow
    assert len(levels) == 8 and {len(t) for t in levels} == {16}  # width 6
    beta = glv[0]
    for i, (x, y, bx) in enumerate(level0):
        assert Point(c, x, y) == oracle_mul(2 * i + 1, W)
        assert bx == beta * x % c.p


def test_narrow_shapes_build_what_they_built(monkeypatch, cold_cache):
    # Below the payback (verifies of 8 or fewer members, keygens) every
    # table of a base other than g has 8 entries, on a cold cache and on a
    # warm one.  g widens in place as its lifetime use pays: in the third
    # 4-member verify and in the second 8-member one.
    c = SECP256K1
    g_key = (c.key, c.gx, c.gy)
    built = []  # (table, size, widened?) of one call
    odd_multiples = curve_module._odd_multiples

    def recording(Js, tables, sizes_, p):
        built.extend((t, size, bool(t)) for t, size in zip(tables, sizes_))
        return odd_multiples(Js, tables, sizes_, p)

    monkeypatch.setattr(curve_module, "_odd_multiples", recording)
    sizes, g_widths = [], []

    def call(fn):
        built.clear()
        fn()
        for t, size, widened in built:
            if not any(t is g_table for g_table in cold_cache[g_key]):
                assert not widened  # nothing but g widens
                sizes.append(size)
        g_widths.extend(widths(cold_cache, c, [c.g]))

    rng = random.Random(41)
    for n in (4, 8):
        jobs = verify_shape(c, rng, n)
        cold_cache.clear()
        for _ in range(3):
            call(lambda: multi_mul(c, jobs))
    for _ in range(3):
        cold_cache.clear()
        call(lambda: rng.randrange(c.n) * c.g)
        call(lambda: rng.randrange(c.n) * c.g)
    assert sizes and set(sizes) == {8}
    assert g_widths == [5, 5, 6, 5, 6, 6] + [5] * 6
    assert {len(t) for lv in cold_cache.values() for t in lv} == {8}


def test_parameter_sets_sharing_g_keep_their_own_levels(cold_cache):
    # The same curve and generator as secp256k1 with another n: no GLV and
    # F = 38 instead of 17, so reading secp256k1's levels of g or of P
    # would give wrong points.  k < n, so the other n reduces nothing.
    c = SECP256K1
    other = CurveParams("other-n", c.p, c.b, c.gx, c.gy, 2**300 + 1)
    rng = random.Random(19)
    P = rng.randrange(c.n) * c.g
    for _ in range(2):  # P's second call folds it: all its levels
        rng.randrange(c.n) * P
    for curve in (other, c, other):
        for base in (curve.g, Point(curve, P.x, P.y)) * 2:  # cold, then warm
            k = rng.randrange(c.n)
            assert k * base == oracle_mul(k, base)
    for x, y in ((c.gx, c.gy), (P.x, P.y)):
        mine, theirs = cold_cache[(other.key, x, y)], cold_cache[(c.key, x, y)]
        assert len(mine) == 7 and len(theirs) == 8  # ceil(301/38), ceil(129/17)
        assert mine[1][0][:2] != theirs[1][0][:2]  # 2^38 * P, 2^17 * P


@pytest.mark.parametrize("curve", CURVES, ids=lambda c: c.curve_id)
def test_hypothesis_shared_bases(curve):
    pts = [P for P in sample_points(curve) if P != curve.g]

    @settings(max_examples=15 if curve is SECP256K1 else 150, deadline=None)
    @given(data=st.data())
    def check(data):
        shared = data.draw(st.lists(st.sampled_from(pts), min_size=2,
                                    max_size=3, unique=True))
        jobs = []
        for _ in range(data.draw(st.integers(4, 10))):
            # each of g and the shared bases with odds 3 in 4, and with odds
            # 1 in 4 another base, which keeps the job from folding completely
            bases = [B for B in [curve.g] + shared if data.draw(st.integers(0, 3))]
            if not data.draw(st.integers(0, 3)):
                bases.append(data.draw(st.sampled_from(pts)))
            jobs.append([(data.draw(scalars(curve)), B) for B in bases])
        for job, got in zip(jobs, multi_mul(curve, jobs)):
            assert got == oracle_sum(curve, job)

    check()
