"""Signing protocol: completeness, uniqueness, soundness surface, codec,
and the equal-discrete-log building block.

Desk-scale caveat baked into several tests here: on the 21-point curve the
challenge space is Z_21, so any wrong statement or mutated signature still
sneaks past verification with probability about 1/21 per attempt.  Small
deterministic instances are therefore pinned to seeds checked to be free of
that luck, and statistical assertions carry explicit bounds.  On secp256k1
the same events have probability ~2^-256 and the tests are exact.
"""

import hashlib
import random

import pytest

from conftest import affine_add, distinct_keys, forge_fresh_tag, oracle_xy

from ringmix import (
    HashVariant,
    InsecureVariantError,
    KeyPair,
    LinkResult,
    Point,
    PublicParams,
    RingError,
    RingSizeMismatchError,
    Scalar,
    SECP256K1,
    Signature,
    SignatureFormatError,
    SignerNotInRingError,
    Tag,
    TEST_CURVE_11,
    TEST_CURVE_31,
    UnsupportedCurveError,
    UrsError,
    canonical_ring,
    decode_signature,
    encode_signature,
    link,
    ring_gen,
    ring_message_bytes,
    ring_message_point,
    ring_sign,
    ring_verify,
    setup,
)
from ringmix import curve as curve_module
from ringmix.curve import digest


# ---------------------------------------------------------------------------
# setup and key generation


def test_setup_rejects_insecure_without_override():
    with pytest.raises(InsecureVariantError):
        setup(128, SECP256K1, HashVariant.INSECURE_MULT_G)


def test_setup_allows_insecure_with_override():
    pp = setup(128, SECP256K1, HashVariant.INSECURE_MULT_G, insecure_override=True)
    assert pp.h_variant is HashVariant.INSECURE_MULT_G


def test_setup_rejects_ft_on_unsupported_curve():
    with pytest.raises(UnsupportedCurveError):
        setup(8, TEST_CURVE_11, HashVariant.FT_DETERMINISTIC)


def test_value_types_compare_hash_and_stay_frozen(pp31, rng):
    assert PublicParams(8, TEST_CURVE_31, HashVariant.FT_DETERMINISTIC) == pp31
    pair = ring_gen(pp31, rng)
    same = KeyPair(sk=pair.sk, pk=pair.pk)
    assert same == pair and hash(same) == hash(pair) and same is not pair
    assert KeyPair(pair.sk, -1 * pair.pk) != pair
    assert KeyPair(5, 21) != Scalar(5, 21)
    assert repr(Tag(pair.pk)) == f"Tag(point={pair.pk!r})"
    for value, field in ((pp31, "curve"), (pair, "sk"), (Tag(pair.pk), "point")):
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(value, field, None)
    with pytest.raises(UrsError, match="identity"):
        Tag(Point.infinity(TEST_CURVE_31))
    with pytest.raises(TypeError):
        KeyPair(pair.sk)


def test_setup_desk_scale_params(pp31):
    assert pp31.curve is TEST_CURVE_31


def test_ring_gen_key_on_curve(pp_secp, rng):
    pair = ring_gen(pp_secp, rng)
    assert not pair.pk.is_infinity
    assert pair.pk == pair.sk * pp_secp.curve.g


def test_ring_gen_no_collisions_secp(pp_secp, rng):
    keys = [ring_gen(pp_secp, rng).pk for _ in range(100)]
    assert len({(k.x, k.y) for k in keys}) == 100


def test_ring_gen_sk_one_gives_generator(pp_secp):
    class OneRng:
        def randrange(self, *a):
            return 1

    pair = ring_gen(pp_secp, OneRng())
    assert pair.pk == pp_secp.curve.g


# ---------------------------------------------------------------------------
# ring canonicalization


def test_ring_order_invariance(pp_secp, rng):
    keys = [ring_gen(pp_secp, rng).pk for _ in range(4)]
    r1 = canonical_ring(keys)
    r2 = canonical_ring(list(reversed(keys)))
    rng.shuffle(keys)
    r3 = canonical_ring(keys)
    assert r1.canonical_bytes == r2.canonical_bytes == r3.canonical_bytes
    assert r1.digest == r3.digest


def test_ring_canonical_bytes_layout(pp_secp, rng):
    keys = [ring_gen(pp_secp, rng).pk for _ in range(4)]
    ring = canonical_ring(keys)
    assert len(ring.canonical_bytes) == 4 * 33
    encoded = [pk.encode() for pk in ring]
    assert encoded == sorted(encoded)


def test_ring_rejects_duplicates(pp_secp, rng):
    pk = ring_gen(pp_secp, rng).pk
    other = ring_gen(pp_secp, rng).pk
    with pytest.raises(RingError):
        canonical_ring([pk, other, pk])


def test_ring_rejects_undersize(pp_secp, rng):
    with pytest.raises(RingError):
        canonical_ring([ring_gen(pp_secp, rng).pk])


def test_ring_rejects_infinity_member(pp_secp, rng):
    with pytest.raises(RingError):
        canonical_ring([ring_gen(pp_secp, rng).pk, Point.infinity(SECP256K1)])


def test_ring_rejects_mixed_curves(pp_secp, rng):
    with pytest.raises(RingError):
        canonical_ring([ring_gen(pp_secp, rng).pk, Point(TEST_CURVE_31, 4, 3)])


@pytest.mark.parametrize("first", [True, False], ids=["first", "second"])
@pytest.mark.parametrize("stray", [object(), "02ab"], ids=["object", "hex"])
def test_ring_rejects_a_member_that_is_not_a_point(pp_secp, rng, stray, first):
    pk = ring_gen(pp_secp, rng).pk
    with pytest.raises(RingError, match="not a Point"):
        canonical_ring([stray, pk] if first else [pk, stray])


def test_ring_index_lookup(pp_secp, rng):
    keys = [ring_gen(pp_secp, rng) for _ in range(3)]
    ring = canonical_ring([k.pk for k in keys])
    for k in keys:
        assert ring.members[ring.index_of(k.pk)] == k.pk
    with pytest.raises(SignerNotInRingError):
        ring.index_of(ring_gen(pp_secp, rng).pk)


# ---------------------------------------------------------------------------
# sign / verify


def test_sign_verify_small_rings(pp31):
    rng = random.Random(1)  # seed checked free of degenerate tiny-group tags
    for size in (2, 3, 4, 8):
        keys = distinct_keys(pp31, rng, size)
        ring = canonical_ring([k.pk for k in keys])
        for kp in keys:
            for m in range(4):
                msg = f"m{m}".encode()
                sig = ring_sign(pp31, kp.sk, ring, msg, rng)
                assert ring_verify(pp31, ring, msg, sig)


def test_sign_verify_try_increment_variant(pp31_tryinc):
    rng = random.Random(6)
    keys = distinct_keys(pp31_tryinc, rng, 3)
    ring = canonical_ring([k.pk for k in keys])
    sig = ring_sign(pp31_tryinc, keys[0].sk, ring, b"ti", rng)
    assert ring_verify(pp31_tryinc, ring, b"ti", sig)


def test_sign_requires_membership(pp31):
    rng = random.Random(1)
    keys = distinct_keys(pp31, rng, 3)
    outsider = distinct_keys(pp31, rng, 4)[-1]
    ring = canonical_ring([k.pk for k in keys[:2]])
    with pytest.raises(SignerNotInRingError):
        ring_sign(pp31, outsider.sk, ring, b"x", rng)
    with pytest.raises(UrsError, match="curve order"):
        ring_sign(pp31, Scalar(keys[0].sk.value, 31), ring, b"x", rng)


def test_tag_stable_across_randomness(pp31):
    rng = random.Random(4)
    keys = distinct_keys(pp31, rng, 4)
    ring = canonical_ring([k.pk for k in keys])
    sigs = [ring_sign(pp31, keys[0].sk, ring, b"fixed", rng) for _ in range(6)]
    assert len({s.tau.point for s in sigs}) == 1
    # but the proof part is randomized
    assert len({s.cs for s in sigs}) > 1
    assert len({s.ts for s in sigs}) > 1


def test_tag_depends_on_signer_message_and_ring(pp31):
    rng = random.Random(1)
    keys = distinct_keys(pp31, rng, 4)
    ring = canonical_ring([k.pk for k in keys])
    base = ring_sign(pp31, keys[0].sk, ring, b"msg-a", rng)
    other_msg = ring_sign(pp31, keys[0].sk, ring, b"msg-b", rng)
    other_signer = ring_sign(pp31, keys[1].sk, ring, b"msg-a", rng)
    assert base.tau != other_msg.tau
    assert base.tau != other_signer.tau


def test_verify_rejects_flipped_message(pp31):
    rng = random.Random(1)
    keys = distinct_keys(pp31, rng, 4)
    ring = canonical_ring([k.pk for k in keys])
    sig = ring_sign(pp31, keys[2].sk, ring, b"payload", rng)
    assert ring_verify(pp31, ring, b"payload", sig)
    assert not ring_verify(pp31, ring, b"Payload", sig)


def test_verify_rejects_shifted_tag(pp31):
    rng = random.Random(1)
    keys = distinct_keys(pp31, rng, 4)
    ring = canonical_ring([k.pk for k in keys])
    msg = b"tag-shift"
    sig = ring_sign(pp31, keys[0].sk, ring, msg, rng)
    assert ring_verify(pp31, ring, msg, sig)
    shifted = sig.tau.point + pp31.curve.g
    mutated = Signature(Tag(shifted), sig.cs, sig.ts, sig.ring_hash, sig.msg_hash)
    assert not ring_verify(pp31, ring, msg, mutated)


def test_verify_rejects_wrong_structure(pp31):
    rng = random.Random(1)
    keys = distinct_keys(pp31, rng, 4)
    ring = canonical_ring([k.pk for k in keys])
    sig = ring_sign(pp31, keys[0].sk, ring, b"s", rng)
    short = Signature(sig.tau, sig.cs[:3], sig.ts[:3], sig.ring_hash, sig.msg_hash)
    assert not ring_verify(pp31, ring, b"s", short)
    wrong_mod = Signature(
        sig.tau,
        tuple(Scalar(c.value, 12) for c in sig.cs),
        sig.ts,
        sig.ring_hash,
        sig.msg_hash,
    )
    assert not ring_verify(pp31, ring, b"s", wrong_mod)
    other_curve = Signature(Tag(Point(TEST_CURVE_11, 5, 0)), sig.cs, sig.ts,
                            sig.ring_hash, sig.msg_hash)
    assert not ring_verify(pp31, ring, b"s", other_curve)


def _oracle_challenge(pp, msg, ring, sig):
    """The urs-ring challenge rebuilt from scratch: the affine oracle's
    point arithmetic, local transcript serialization, local hash."""
    curve = pp.curve
    width = curve.field_bytes

    def compress(P):
        if P is None:
            return b"\x00" * (1 + width)
        x, y = P
        return bytes([0x02 | (y & 1)]) + x.to_bytes(width, "big")

    h = ring_message_point(pp, msg, ring)
    tau = sig.tau.point
    transcript = [b"urs-ring", len(msg).to_bytes(8, "big"), msg,
                  ring.canonical_bytes, compress((tau.x, tau.y))]
    for c_j, t_j, y_j in zip(sig.cs, sig.ts, ring):
        a_j = affine_add(curve, oracle_xy(t_j.value, curve.g),
                         oracle_xy(c_j.value, y_j))
        b_j = affine_add(curve, oracle_xy(t_j.value, h),
                         oracle_xy(c_j.value, tau))
        transcript.append(compress(a_j))
        transcript.append(compress(b_j))
    # the to-scalar domain tag 0x02, then the zero counter byte
    raw = hashlib.sha256(b"\x02\x00" + b"".join(transcript)).digest()
    return int.from_bytes(raw, "big") % curve.n


def test_challenge_sum_matches_independent_transcript_oracle(pp31):
    """Pins the wire-level challenge contract, not just internal
    consistency."""
    # A challenge mod 21 matches a wrong transcript 1 time in 21, so one
    # seed alone proves little: seed 1 also matched the transcript without
    # its zero counter byte, and seeds 3 and 4 do not.
    for seed in (1, 3, 4):
        rng = random.Random(seed)
        keys = distinct_keys(pp31, rng, 4)
        ring = canonical_ring([k.pk for k in keys])
        msg = b"oracle-check"
        sig = ring_sign(pp31, keys[1].sk, ring, msg, rng)
        assert ring_verify(pp31, ring, msg, sig)
        assert (sum(c.value for c in sig.cs) % pp31.curve.n
                == _oracle_challenge(pp31, msg, ring, sig))


def test_challenge_sum_matches_transcript_oracle_on_secp256k1(pp_secp):
    # A wrong transcript matches here with probability about 2^-256.
    rng = random.Random(5)
    keys = [ring_gen(pp_secp, rng) for _ in range(4)]
    ring = canonical_ring([k.pk for k in keys])
    msg = b"oracle-check"
    sig = ring_sign(pp_secp, keys[1].sk, ring, msg, rng)
    assert ring_verify(pp_secp, ring, msg, sig)
    assert (sum(c.value for c in sig.cs) % pp_secp.curve.n
            == _oracle_challenge(pp_secp, msg, ring, sig))


def test_wrong_modulus_reduction_breaks_completeness(pp_secp):
    """A signer that reduces its closing response mod p instead of mod n
    stops verifying.  Mirrors the one-line bug the Scalar type exists to
    prevent.  p != n on secp256k1 as well, and there a bad signature
    verifies by chance with probability about 2^-256; on test-31 it would
    verify 1 time in 21, whatever the bug."""
    curve = pp_secp.curve
    g = curve.g

    def sign_with_wrong_modulus(sk, ring, msg, rng):
        i = ring.index_of(sk * g)
        h = ring_message_point(pp_secp, msg, ring)
        tau = sk * h
        zero = curve.scalar(0)
        cs, ts = [zero] * len(ring), [zero] * len(ring)
        for j in range(len(ring)):
            if j != i:
                ts[j] = curve.scalar(rng.randrange(curve.n))
                cs[j] = curve.scalar(rng.randrange(curve.n))
        r = rng.randrange(curve.n)
        ts[i] = curve.scalar(r)  # with cs[i] = 0, the honest (r*g, r*h)
        from ringmix.urs import _ring_challenge

        c_i = _ring_challenge(g, h, msg, ring, tau, cs, ts) - sum(cs, zero)
        cs[i] = c_i
        wrong_t = (r - c_i.value * sk.value) % curve.p  # the bug: mod p
        ts[i] = curve.scalar(wrong_t)
        return (
            Signature(Tag(tau), tuple(cs), tuple(ts), ring.digest, digest(msg)),
            wrong_t == (r - c_i.value * sk.value) % curve.n,
        )

    rng = random.Random(3)
    mismatch_rejections = 0
    mismatches = 0
    for trial in range(20):
        keys = [ring_gen(pp_secp, rng) for _ in range(4)]
        ring = canonical_ring([k.pk for k in keys])
        msg = f"wrongmod-{trial}".encode()
        sig, coincides = sign_with_wrong_modulus(keys[0].sk, ring, msg, rng)
        if coincides:
            continue  # mod-p and mod-n reductions agree by chance, no signal
        mismatches += 1
        if not ring_verify(pp_secp, ring, msg, sig):
            mismatch_rejections += 1
    assert mismatches >= 10
    assert mismatch_rejections == mismatches


def test_a_member_cannot_forge_a_fresh_tag_on_secp256k1(pp_secp):
    # Accepted for every s while tau was left out of the challenge.
    rng = random.Random(15)
    keys = [ring_gen(pp_secp, rng) for _ in range(4)]
    ring = canonical_ring([k.pk for k in keys])
    tags = {ring_sign(pp_secp, keys[2].sk, ring, b"forge", rng).tau}
    for s in range(1, 8):
        sig, c = forge_fresh_tag(pp_secp, keys[2].sk, ring, b"forge", s, rng)
        assert sum(c_j.value for c_j in sig.cs) == c
        tags.add(sig.tau)
        assert not ring_verify(pp_secp, ring, b"forge", sig)
    assert len(tags) == 8  # each forgery carries a fresh tag


def test_a_member_cannot_forge_a_fresh_tag_on_test_31(pp31):
    """With n = 21 a forgery still verifies whenever the challenge over
    the whole statement happens to equal the forger's c, about 1 time in
    21.  So each verdict must be exactly that coincidence, and the
    coincidences must stay rare."""
    rng = random.Random(16)
    keys = distinct_keys(pp31, rng, 4)
    ring = canonical_ring([k.pk for k in keys])
    forged = accepted = 0
    for s in range(1, 100):
        msg = f"forge-{s}".encode()
        made = forge_fresh_tag(pp31, keys[1].sk, ring, msg, s, rng)
        if made is None:
            continue
        sig, c = made
        verdict = ring_verify(pp31, ring, msg, sig)
        assert verdict == (c == _oracle_challenge(pp31, msg, ring, sig))
        forged += 1
        accepted += verdict
    assert forged >= 40
    assert accepted <= forged // 5


def test_permutation_symmetry(pp31):
    import itertools

    rng = random.Random(1)
    keys = distinct_keys(pp31, rng, 4)
    pks = [k.pk for k in keys]
    ring = canonical_ring(pks)
    msg = b"perm"
    sig = ring_sign(pp31, keys[3].sk, ring, msg, rng)
    for perm in itertools.permutations(pks):
        assert ring_verify(pp31, canonical_ring(perm), msg, sig)


def test_sign_verify_secp_roundtrip(pp_secp):
    rng = random.Random(2)
    keys = [ring_gen(pp_secp, rng) for _ in range(4)]
    ring = canonical_ring([k.pk for k in keys])
    sig = ring_sign(pp_secp, keys[2].sk, ring, b"mainnet-scale", rng)
    assert ring_verify(pp_secp, ring, b"mainnet-scale", sig)
    assert not ring_verify(pp_secp, ring, b"mainnet-scale!", sig)


@pytest.mark.parametrize("size", [3, 8])  # h alone, and h shared and folded
def test_sign_tables_each_base_once(pp_secp, size, monkeypatch, cold_cache):
    # tau = sk*h tables h, and the commitments find it in the cache.
    rng = random.Random(size)
    keys = [ring_gen(pp_secp, rng) for _ in range(size)]
    ring = canonical_ring([k.pk for k in keys])
    h = ring_message_point(pp_secp, b"once", ring)
    tabled = []
    odd_multiples = curve_module._odd_multiples

    def counting(Js, tables, sizes, p):
        tabled.extend((J[0], J[1]) for J in Js if J is not None and J[2] == 1)
        return odd_multiples(Js, tables, sizes, p)

    monkeypatch.setattr(curve_module, "_odd_multiples", counting)
    sig = ring_sign(pp_secp, keys[0].sk, ring, b"once", rng)
    assert tabled.count((h.x, h.y)) == 1
    others = [y for y in ring if y != keys[0].pk]  # c_i = 0 drops y_i
    for P in (*others, sig.tau.point):
        assert tabled.count((P.x, P.y)) == 1
    assert ring_verify(pp_secp, ring, b"once", sig)


def test_insecure_signature_never_verifies_under_honest_params(pp31, pp31_insecure):
    # the two variants hash to different points, so a generator-multiple
    # signature is worthless to an honest verifier (and honest parameters
    # cannot even be constructed with the insecure variant, tested above)
    rng = random.Random(0)
    keys = distinct_keys(pp31_insecure, rng, 4)
    ring = canonical_ring([k.pk for k in keys])
    sig = ring_sign(pp31_insecure, keys[0].sk, ring, b"variant-gap", rng)
    assert ring_verify(pp31_insecure, ring, b"variant-gap", sig)
    assert not ring_verify(pp31, ring, b"variant-gap", sig)


def test_degenerate_tag_raises_on_tiny_curve(pp31):
    # order of H(m||R) divides sk: only possible with composite n
    curve = pp31.curve
    sk = curve.scalar(7)
    pk = sk * curve.g
    rng = random.Random(99)
    others = [k.pk for k in distinct_keys(pp31, rng, 3) if k.pk != pk][:2]
    ring = canonical_ring([pk] + others)
    h = ring_message_point(pp31, b"deg0", ring)
    assert (sk * h).is_infinity
    with pytest.raises(UrsError):
        ring_sign(pp31, sk, ring, b"deg0", random.Random(0))


# ---------------------------------------------------------------------------
# linking


def test_link_verdicts(pp31):
    rng = random.Random(4)
    keys = distinct_keys(pp31, rng, 4)
    ring = canonical_ring([k.pk for k in keys])
    msg = b"ctx"
    s1 = ring_sign(pp31, keys[0].sk, ring, msg, rng)
    s2 = ring_sign(pp31, keys[0].sk, ring, msg, rng)
    assert link(s1, s2) is LinkResult.LINKED

    s3 = ring_sign(pp31, keys[1].sk, ring, msg, rng)
    assert link(s1, s3) is LinkResult.UNLINKED

    s4 = ring_sign(pp31, keys[0].sk, ring, b"other ctx", rng)
    assert link(s1, s4) is LinkResult.INCOMPARABLE


def test_link_incomparable_across_rings(pp31):
    rng = random.Random(1)
    keys = distinct_keys(pp31, rng, 5)
    ring_a = canonical_ring([k.pk for k in keys[:4]])
    ring_b = canonical_ring([k.pk for k in keys[1:5]])
    msg = b"same msg"
    sa = ring_sign(pp31, keys[1].sk, ring_a, msg, rng)
    sb = ring_sign(pp31, keys[1].sk, ring_b, msg, rng)
    assert link(sa, sb) is LinkResult.INCOMPARABLE


# ---------------------------------------------------------------------------
# wire format


def test_signature_sizes_secp(pp_secp):
    rng = random.Random(5)
    for size in (2, 4):
        keys = [ring_gen(pp_secp, rng) for _ in range(size)]
        ring = canonical_ring([k.pk for k in keys])
        sig = ring_sign(pp_secp, keys[0].sk, ring, b"sized", rng)
        assert len(encode_signature(sig)) == 64 * (size + 1)


def test_codec_roundtrip(pp31):
    rng = random.Random(1)
    keys = distinct_keys(pp31, rng, 4)
    ring = canonical_ring([k.pk for k in keys])
    msg = b"roundtrip"
    sig = ring_sign(pp31, keys[1].sk, ring, msg, rng)
    blob = encode_signature(sig)
    assert len(blob) == 2 * 1 + 2 * 4 * 1  # one-byte coordinates and scalars
    back = decode_signature(blob, pp31.curve, msg, ring)
    assert back == sig
    assert ring_verify(pp31, ring, msg, back)


def test_codec_rejects_bad_lengths(pp31):
    ring = canonical_ring([k.pk for k in distinct_keys(pp31, random.Random(1), 2)])
    with pytest.raises(SignatureFormatError):
        decode_signature(b"\x00\x01\x02", pp31.curve, b"m", ring)
    with pytest.raises(SignatureFormatError):
        decode_signature(b"", pp31.curve, b"m", ring)


def test_codec_rejects_ring_size_mismatch(pp31):
    rng = random.Random(1)
    keys = distinct_keys(pp31, rng, 5)
    ring4 = canonical_ring([k.pk for k in keys[:4]])
    ring3 = canonical_ring([k.pk for k in keys[:3]])
    sig = ring_sign(pp31, keys[0].sk, ring4, b"m", rng)
    blob = encode_signature(sig)
    with pytest.raises(RingSizeMismatchError):
        decode_signature(blob, pp31.curve, b"m", ring3)


def test_codec_rejects_noncanonical_scalars(pp31):
    rng = random.Random(1)
    keys = distinct_keys(pp31, rng, 2)
    ring = canonical_ring([k.pk for k in keys])
    blob = bytearray(encode_signature(ring_sign(pp31, keys[0].sk, ring, b"m", rng)))
    blob[2] = 25  # >= n = 21
    with pytest.raises(SignatureFormatError):
        decode_signature(bytes(blob), pp31.curve, b"m", ring)


def test_codec_rejects_off_curve_tag(pp31):
    rng = random.Random(1)
    keys = distinct_keys(pp31, rng, 2)
    ring = canonical_ring([k.pk for k in keys])
    blob = bytearray(encode_signature(ring_sign(pp31, keys[0].sk, ring, b"m", rng)))
    orig = bytes(blob)
    blob[1] = (blob[1] + 1) % 31
    if decode_or_none(bytes(blob), pp31, ring) is None:
        return  # mutated tag no longer on curve: rejected as it should be
    # mutated point happened to be on curve; it still cannot verify
    sig = decode_signature(bytes(blob), pp31.curve, b"m", ring)
    assert bytes(blob) != orig
    assert not ring_verify(pp31, ring, b"m", sig)


def decode_or_none(blob, pp, ring):
    try:
        return decode_signature(blob, pp.curve, b"m", ring)
    except SignatureFormatError:
        return None


def test_secp_codec_roundtrip(pp_secp):
    rng = random.Random(8)
    keys = [ring_gen(pp_secp, rng) for _ in range(3)]
    ring = canonical_ring([k.pk for k in keys])
    sig = ring_sign(pp_secp, keys[2].sk, ring, b"wire", rng)
    blob = encode_signature(sig)
    assert decode_signature(blob, SECP256K1, b"wire", ring) == sig


def test_challenges_go_through_the_module_globals(pp_secp, monkeypatch):
    """The benchmark times its curve.batch and hashing.h2s spans by
    wrapping urs.dual_scalar_mul_batch and urs.hash_to_scalar, so each
    challenge must make exactly one call to each through those names."""
    from ringmix import urs

    calls = []
    batch, h2s = urs.dual_scalar_mul_batch, urs.hash_to_scalar

    def counting_batch(jobs):
        calls.append(("batch", len(jobs)))
        return batch(jobs)

    def counting_h2s(data, curve):
        calls.append(("h2s", len(data)))
        return h2s(data, curve)

    rng = random.Random(14)
    keys = [ring_gen(pp_secp, rng) for _ in range(4)]
    ring = canonical_ring([k.pk for k in keys])
    sig = ring_sign(pp_secp, keys[0].sk, ring, b"spans", rng)
    monkeypatch.setattr(urs, "dual_scalar_mul_batch", counting_batch)
    monkeypatch.setattr(urs, "hash_to_scalar", counting_h2s)
    assert ring_verify(pp_secp, ring, b"spans", sig)
    # label, message length, message, ring, tau, then a_1, b_1, ..., b_4
    assert calls == [("batch", 8), ("h2s", 8 + 8 + 5 + 4 * 33 + 33 + 8 * 33)]


# ---------------------------------------------------------------------------
# message binding helper


def test_ring_message_bytes_layout(pp31):
    rng = random.Random(1)
    keys = distinct_keys(pp31, rng, 2)
    ring = canonical_ring([k.pk for k in keys])
    msg = b"layout"
    raw = ring_message_bytes(msg, ring)
    assert raw == len(msg).to_bytes(8, "big") + msg + ring.canonical_bytes


# ---------------------------------------------------------------------------
# seeded output


def test_seeded_signature_and_dleq_bytes_are_pinned():
    """Seeded signatures keep their exact bytes.

    They fix the rng draw order (t_j then c_j for every non-signer j in
    ring order, then r) and the transcript layout.  The values were
    re-derived when tau joined the urs-ring transcript.  (The name is
    older than the deletion of the DLEQ proofs it also pinned.)
    """
    cases = [
        (SECP256K1, HashVariant.FT_DETERMINISTIC, "76a45948d2c9a7d1"),
        (SECP256K1, HashVariant.TRY_INCREMENT, "2d1553ddeb84986c"),
        (TEST_CURVE_31, HashVariant.FT_DETERMINISTIC, "a3cf9ac61b41fc1c"),
    ]
    for curve, variant, expected in cases:
        pp = setup(128, curve, variant)
        rng = random.Random(2024)
        keys = [ring_gen(pp, rng) for _ in range(4)]
        ring = canonical_ring([k.pk for k in keys])
        sig = ring_sign(pp, keys[1].sk, ring, b"golden", rng)
        blob = encode_signature(sig)
        assert hashlib.sha256(blob).hexdigest()[:16] == expected, curve.curve_id
