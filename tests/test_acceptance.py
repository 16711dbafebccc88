"""Acceptance suite: each test is one shipping criterion and prints a
single PASS/FAIL line (run pytest -s to see them alongside the verdicts).

Known red: the image-density bracket in criterion 4 pins the exact image
size (16 of the 31 inputs) but the asymptotic nine-sixteenths density is
stated against the curve order, and this 31-element field is an extreme
outlier: the curve has only 21 points while the map's image tracks
nine-sixteenths of the *field* size (17.4).  16 is within 2 of 17.4 and
far from 11.8, so the bracket as stated cannot hold; the assertion is kept
faithful rather than loosened.
"""

import multiprocessing
import os
import random
import time

from conftest import brute_force_points, brute_force_squares, distinct_keys

from ringmix import (
    CURVES,
    HashVariant,
    LinkResult,
    Mixer,
    SECP256K1,
    Signature,
    Tag,
    TEST_CURVE_31,
    UrsError,
    WithdrawStatus,
    attack_naive_hash,
    attack_tag_reveal,
    canonical_ring,
    encode_signature,
    ft_map,
    link,
    ring_gen,
    ring_sign,
    ring_verify,
    setup,
    withdraw_message,
)
from ringmix.curve import chi, digest, sqrt_mod


def _report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")


# ---------------------------------------------------------------------------
# 1. completeness


def _completeness_job(curve_id, size, signer, messages, seed):
    curve = CURVES[curve_id]
    pp = setup(128 if curve_id == "secp256k1" else 8, curve,
               HashVariant.FT_DETERMINISTIC)
    rng = random.Random(seed)
    keys = distinct_keys(pp, rng, size)
    ring = canonical_ring([k.pk for k in keys])
    accepted = 0
    for m in range(messages):
        msg = f"{curve_id}|{size}|{signer}|{m}".encode()
        while True:
            try:
                sig = ring_sign(pp, keys[signer].sk, ring, msg, rng)
                break
            except UrsError:
                # composite-order tiny curve: this (key, context) has no
                # tag; a fresh message replaces it (impossible on secp256k1)
                msg += b"+"
        if ring_verify(pp, ring, msg, sig):
            accepted += 1
    return accepted


def test_criterion_01_completeness():
    t0 = time.monotonic()
    jobs = []
    for curve_id in ("test-31", "secp256k1"):
        for size in (2, 3, 4, 8):
            for signer in range(size):
                jobs.append((curve_id, size, signer, 50, 1000 + size * 31 + signer))
    if (os.cpu_count() or 1) > 1:
        with multiprocessing.get_context("fork").Pool(2) as pool:
            results = pool.starmap(_completeness_job, jobs)
    else:
        results = [_completeness_job(*job) for job in jobs]
    elapsed = time.monotonic() - t0
    accepted = sum(results)
    expected = len(jobs) * 50
    ok = accepted == expected and elapsed < 30
    _report(1, ok, f"completeness {accepted}/{expected} accepted in {elapsed:.1f}s")
    assert accepted == expected
    assert elapsed < 30, f"completeness took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. uniqueness / linkability


def test_criterion_02_uniqueness_and_linking():
    t0 = time.monotonic()
    pp = setup(128, SECP256K1, HashVariant.FT_DETERMINISTIC)
    rng = random.Random(2024)
    keys = [ring_gen(pp, rng) for _ in range(20)]
    ring = canonical_ring([k.pk for k in keys])
    msg = b"uniqueness context"

    repeat = [ring_sign(pp, keys[0].sk, ring, msg, rng) for _ in range(20)]
    tags_repeat = {s.tau.point for s in repeat}

    one_each = [ring_sign(pp, k.sk, ring, msg, rng) for k in keys]
    tags_each = {s.tau.point for s in one_each}

    linked_ok = all(
        link(repeat[0], s) is LinkResult.LINKED for s in repeat[1:]
    )
    unlinked_ok = all(
        link(one_each[0], s) is LinkResult.UNLINKED for s in one_each[1:]
    )
    elapsed = time.monotonic() - t0
    ok = (len(tags_repeat) == 1 and len(tags_each) == 20
          and linked_ok and unlinked_ok and elapsed < 10)
    _report(2, ok, f"1 tag across 20 re-signs, 20 tags across 20 signers, "
                   f"{elapsed:.1f}s")
    assert len(tags_repeat) == 1
    assert len(tags_each) == 20
    assert linked_ok and unlinked_ok
    assert elapsed < 10


# ---------------------------------------------------------------------------
# 3. tamper rejection


def test_criterion_03_tamper_rejection():
    pp = setup(8, TEST_CURVE_31, HashVariant.FT_DETERMINISTIC)
    curve = pp.curve
    rng = random.Random(1)  # pinned clear of the 1-in-21 lucky acceptance
    keys = distinct_keys(pp, rng, 4)
    ring = canonical_ring([k.pk for k in keys])
    msg = b"tamper-target"
    sig = ring_sign(pp, keys[1].sk, ring, msg, rng)
    assert ring_verify(pp, ring, msg, sig)

    one = curve.scalar(1)
    mutations = []
    for j in range(4):
        cs = list(sig.cs)
        cs[j] = cs[j] + one
        mutations.append(("c", j, ring, msg,
                          Signature(sig.tau, tuple(cs), sig.ts,
                                    sig.ring_hash, sig.msg_hash)))
        ts = list(sig.ts)
        ts[j] = ts[j] + one
        mutations.append(("t", j, ring, msg,
                          Signature(sig.tau, sig.cs, tuple(ts),
                                    sig.ring_hash, sig.msg_hash)))
    shifted = sig.tau.point + curve.g
    mutations.append(("tau", 0, ring, msg,
                      Signature(Tag(shifted), sig.cs, sig.ts,
                                sig.ring_hash, sig.msg_hash)))
    flipped = bytes([msg[0] ^ 1]) + msg[1:]
    mutations.append(("msg", 0, ring, flipped,
                      Signature(sig.tau, sig.cs, sig.ts,
                                sig.ring_hash, digest(flipped))))
    swapped_in = distinct_keys(pp, rng, 6)[-1]
    members = list(ring.members)
    members[2] = swapped_in.pk
    ring2 = canonical_ring(members)
    mutations.append(("ring", 2, ring2, msg,
                      Signature(sig.tau, sig.cs, sig.ts,
                                ring2.digest, sig.msg_hash)))

    rejected = sum(
        not ring_verify(pp, r, m, s) for _, _, r, m, s in mutations
    )
    ok = rejected == len(mutations) == 11
    _report(3, ok, f"{rejected}/{len(mutations)} single-component mutations rejected")
    assert rejected == len(mutations)


# ---------------------------------------------------------------------------
# 4. deterministic map correctness


def _ft_image():
    return {
        (P.x, P.y)
        for P in (ft_map(t, TEST_CURVE_31) for t in range(31))
    }


def test_criterion_04_ft_map_on_curve_and_exact_image():
    t0 = time.monotonic()
    curve_pts = set(map(tuple, brute_force_points(TEST_CURVE_31)))
    image = _ft_image()
    on_curve = image <= curve_pts
    elapsed = time.monotonic() - t0
    ok = on_curve and len(image) == 16 and elapsed < 1
    _report(4, ok, f"all 31 inputs on-curve, image size {len(image)} "
                   f"(oracle 16), {elapsed:.2f}s")
    assert on_curve
    assert len(image) == 16
    assert elapsed < 1


def test_criterion_04_ft_image_density_bracket():
    """Faithful to the stated tolerance: |image| within 2 of (9/16)*#E.
    Expected to fail; see the module docstring for the analysis."""
    image = _ft_image()
    group_order = len(brute_force_points(TEST_CURVE_31)) + 1
    assert group_order == 21
    target = 9 / 16 * group_order
    ok = abs(len(image) - target) <= 2
    _report(4, ok, f"density bracket |{len(image)} - {target:.2f}| <= 2 "
                   f"(field-size target would be {9 / 16 * 31:.2f})")
    assert ok, (
        f"image {len(image)} vs 9/16*#E = {target:.2f}: the bracket assumes "
        f"#E tracks the field size; on F_31 it does not (21 vs 31)"
    )


# ---------------------------------------------------------------------------
# 5. square roots and quadratic characters


def test_criterion_05_sqrt_and_chi_exhaustive():
    checked = 0
    for p in (11, 31):
        squares = brute_force_squares(p)
        for a in range(p):
            expected_chi = 0 if a == 0 else (1 if a in squares else -1)
            assert chi(a, p) == expected_chi
            if expected_chi >= 0:
                root = sqrt_mod(a, p)
                assert root * root % p == a
            for r in range(1, p):
                assert chi(r * r % p * a, p) == chi(a, p)
            checked += 1
    _report(5, True, f"chi and sqrt exhaustive over F_11 and F_31 "
                     f"({checked} elements)")


# ---------------------------------------------------------------------------
# 6. wire sizes


def test_criterion_06_signature_sizes():
    pp = setup(128, SECP256K1, HashVariant.FT_DETERMINISTIC)
    rng = random.Random(66)
    sizes = {}
    for n in (2, 4, 8, 16):
        keys = [ring_gen(pp, rng) for _ in range(n)]
        ring = canonical_ring([k.pk for k in keys])
        sig = ring_sign(pp, keys[0].sk, ring, b"size-probe", rng)
        sizes[n] = len(encode_signature(sig))
    ok = all(sizes[n] == 64 * (n + 1) for n in sizes)
    _report(6, ok, f"encoded sizes {sizes} == 64*(n+1)")
    assert sizes == {2: 192, 4: 320, 8: 576, 16: 1088}


# ---------------------------------------------------------------------------
# 7. generator-multiple hash break


def test_criterion_07_naive_hash_attack():
    rng = random.Random(7)
    pp_bad = setup(128, SECP256K1, HashVariant.INSECURE_MULT_G,
                   insecure_override=True)
    keys = [ring_gen(pp_bad, rng) for _ in range(4)]
    ring = canonical_ring([k.pk for k in keys])
    msg = b"shadow-style tag"

    recovered = 0
    for pair in keys:
        sig = ring_sign(pp_bad, pair.sk, ring, msg, rng)
        assert ring_verify(pp_bad, ring, msg, sig)
        if attack_naive_hash(ring, sig, msg) == ring.index_of(pair.pk):
            recovered += 1

    pp_ft = setup(128, SECP256K1, HashVariant.FT_DETERMINISTIC)
    survived = 0
    for pair in keys:
        sig = ring_sign(pp_ft, pair.sk, ring, msg, rng)
        if attack_naive_hash(ring, sig, msg) is None:
            survived += 1

    ok = recovered == 4 and survived == 4
    _report(7, ok, f"insecure hash: {recovered}/4 signers recovered; "
                   f"deterministic map: {survived}/4 attacks failed")
    assert recovered == 4
    assert survived == 4


# ---------------------------------------------------------------------------
# 8. tag-reveal deanonymization


def test_criterion_08_tag_reveal_attack():
    rng = random.Random(8)
    pp = setup(128, SECP256K1, HashVariant.FT_DETERMINISTIC)
    keys = [ring_gen(pp, rng) for _ in range(4)]
    ring = canonical_ring([k.pk for k in keys])
    msg = b"sybil context"
    signer = keys[2]
    sig = ring_sign(pp, signer.sk, ring, msg, rng)
    others = [k.sk for k in keys if k.pk != signer.pk]

    set_sizes = [len(attack_tag_reveal(pp, ring, sig, msg, others[:k]))
                 for k in range(4)]
    final = attack_tag_reveal(pp, ring, sig, msg, others)
    ok = set_sizes == [4, 3, 2, 1] and final == [ring.index_of(signer.pk)]
    _report(8, ok, f"anonymity set sizes {set_sizes} for 0..3 reveals; "
                   f"n-1 reveals leave exactly the signer")
    assert set_sizes == [4, 3, 2, 1]
    assert final == [ring.index_of(signer.pk)]


# ---------------------------------------------------------------------------
# 9. mixer conservation and double-spend fuzz


def test_criterion_09_mixer_fuzz():
    t0 = time.monotonic()
    pp = setup(128, SECP256K1, HashVariant.FT_DETERMINISTIC)
    double_payouts = 0
    replays_rejected = True
    for seed in range(100):
        rng = random.Random(90000 + seed)
        mixer = Mixer(pp)
        two_pools = seed % 2 == 0
        pools = []
        for pool_no in range(2 if two_pools else 1):
            mix_id = mixer.mix_create(1, 4)
            keys = [ring_gen(pp, rng) for _ in range(4)]
            for i, pair in enumerate(keys):
                funder = f"s{seed}-p{pool_no}-f{i}"
                mixer.fund(funder, 1)
                mixer.mix_deposit(mix_id, pair.pk, funder)
                mixer.check_conservation(mix_id)
            pools.append((mix_id, keys))

        ledger = {}
        blobs = []
        for step in range(6):
            mix_id, keys = pools[rng.randrange(len(pools))]
            ring = mixer.mix_ring(mix_id)
            idx = rng.randrange(4)
            payout = f"{mix_id}-out-{idx}"
            msg = withdraw_message(mix_id, payout)
            blob = encode_signature(ring_sign(pp, keys[idx].sk, ring, msg, rng))
            blobs.append((mix_id, blob, payout))
            st = mixer.mix_withdraw(mix_id, blob, payout)
            if st is WithdrawStatus.ACCEPTED:
                if (mix_id, idx) in ledger:
                    double_payouts += 1
                ledger[(mix_id, idx)] = payout
            else:
                # only the seen-tag guard can fire for these honest inputs
                assert st is WithdrawStatus.TAG_REUSE
                assert (mix_id, idx) in ledger
            for check_id, _ in pools:
                mixer.check_conservation(check_id)
        # replay every recorded blob against its own pool and, when there
        # are two pools, against the other one
        for mix_id, blob, payout in blobs:
            st = mixer.mix_withdraw(mix_id, blob, payout)
            if st is WithdrawStatus.ACCEPTED:
                double_payouts += 1
            if two_pools:
                other = next(m for m, _ in pools if m != mix_id)
                st = mixer.mix_withdraw(other, blob, payout)
                if st is not WithdrawStatus.BAD_SIGNATURE:
                    replays_rejected = False
            for check_id, _ in pools:
                mixer.check_conservation(check_id)
    elapsed = time.monotonic() - t0
    ok = double_payouts == 0 and replays_rejected and elapsed < 60
    _report(9, ok, f"100 interleavings: {double_payouts} double payouts, "
                   f"cross-pool replays {'all rejected' if replays_rejected else 'LEAKED'}, "
                   f"{elapsed:.1f}s")
    assert double_payouts == 0
    assert replays_rejected
    assert elapsed < 60


# ---------------------------------------------------------------------------
# 10. anonymity stand-ins


def test_criterion_10_permutation_symmetry_and_scalar_uniformity():
    import itertools

    # the verification equation treats all indices alike: an honest
    # signature verifies against every reordering of the same member set
    pp31 = setup(8, TEST_CURVE_31, HashVariant.FT_DETERMINISTIC)
    rng = random.Random(1)
    keys = distinct_keys(pp31, rng, 4)
    pks = [k.pk for k in keys]
    ring = canonical_ring(pks)
    sig = ring_sign(pp31, keys[2].sk, ring, b"sym", rng)
    symmetric = all(
        ring_verify(pp31, canonical_ring(perm), b"sym", sig)
        for perm in itertools.permutations(pks)
    )

    # chi-square smoke test on the challenge/response marginals: 1000
    # samples each, 16 bins, alpha = 0.001 (critical value 37.697 at 15
    # degrees of freedom)
    pp = setup(128, SECP256K1, HashVariant.FT_DETERMINISTIC)
    rng = random.Random(1010)
    keys = [ring_gen(pp, rng) for _ in range(4)]
    big_ring = canonical_ring([k.pk for k in keys])
    cs = []
    ts = []
    for m in range(250):
        sig = ring_sign(pp, keys[m % 4].sk, big_ring, f"u{m}".encode(), rng)
        cs.extend(s.value for s in sig.cs)
        ts.extend(s.value for s in sig.ts)

    def chi_square(samples):
        counts = [0] * 16
        for v in samples:
            counts[v * 16 // SECP256K1.n] += 1
        expected = len(samples) / 16
        return sum((c - expected) ** 2 / expected for c in counts)

    chi_c = chi_square(cs[:1000])
    chi_t = chi_square(ts[:1000])
    critical = 37.697
    ok = symmetric and chi_c < critical and chi_t < critical
    _report(10, ok, f"24/24 ring permutations verify; chi-square c={chi_c:.1f} "
                    f"t={chi_t:.1f} < {critical}")
    assert symmetric
    assert chi_c < critical
    assert chi_t < critical
