"""The scalar-multiplication engine's operation counts, pinned.

Each case runs one operation shape on secp256k1 from an empty table cache
and counts the calls to ``curve._jdouble``, ``curve._jadd`` and
``curve._invert``: the doublings, mixed additions and field inversions the
engine makes.  A refactor that keeps the engine's behaviour leaves every
pin as it is; a change that builds, folds or widens differently moves
some, and must re-derive them deliberately.
"""

import collections
import random

import pytest

from ringmix import (
    HashVariant,
    Mixer,
    SECP256K1,
    WithdrawStatus,
    canonical_ring,
    encode_signature,
    ring_gen,
    ring_sign,
    ring_verify,
    setup,
    withdraw_message,
)
from ringmix import curve as curve_module

PP = setup(128, SECP256K1, HashVariant.FT_DETERMINISTIC)
OPS = ("_jdouble", "_jadd", "_invert")


@pytest.fixture
def tally(monkeypatch, cold_cache):
    counts = collections.Counter()
    for name in OPS:
        def counting(*args, _real=getattr(curve_module, name), _name=name):
            counts[_name] += 1
            return _real(*args)
        monkeypatch.setattr(curve_module, name, counting)
    return counts


def take(counts):
    """(doublings, additions, inversions) since the last take."""
    got = tuple(counts[name] for name in OPS)
    counts.clear()
    return got


def keys(n, rng):
    return [ring_gen(PP, rng) for _ in range(n)]


# (doublings, additions, inversions), derived with the engine as it was
# when this file was written; the two sequences again when g's width came
# to follow its lifetime use, which only a warm cache sees; the verifies
# and sequences again when tau joined the ring challenge, which changes
# every signer's closing (c_i, t_i) and so the verify's scalar digits.
KEYGEN = (142, 97, 3)
SIGN_VERIFY = {  # n -> (a cold sign, a cold verify)
    2: ((679, 470, 9), (509, 381, 3)),
    4: ((1187, 838, 9), (1017, 751, 3)),
    5: ((1442, 1013, 9), (972, 1012, 3)),
    8: ((1552, 1595, 9), (1401, 1561, 3)),
    11: ((1987, 2116, 9), (1825, 2016, 3)),
    32: ((4990, 5507, 9), (4828, 5289, 3)),
}
# The verify of the n = 32 case just after its sign, on the cache that the
# sign warmed: it builds the levels the sign left out.
VERIFY_AFTER_SIGN_32 = (5042, 6064, 3)
RING_32 = (18651, 44911, 71)
POOL_CAP4 = (14948, 18331, 134)


def test_cold_keygen(tally):
    ring_gen(PP, random.Random(32))
    assert take(tally) == KEYGEN


@pytest.mark.parametrize("n", sorted(SIGN_VERIFY))
def test_cold_sign_and_verify(tally, cold_cache, n):
    rng = random.Random(32)
    pairs = keys(n, rng)
    ring = canonical_ring(pair.pk for pair in pairs)
    cold_cache.clear()
    take(tally)
    sig = ring_sign(PP, pairs[0].sk, ring, b"msg", rng)
    sign = take(tally)
    cold_cache.clear()
    assert ring_verify(PP, ring, b"msg", sig)
    assert (sign, take(tally)) == SIGN_VERIFY[n]


def test_first_verify_after_a_sign(tally, cold_cache):
    rng = random.Random(32)
    pairs = keys(32, rng)
    ring = canonical_ring(pair.pk for pair in pairs)
    cold_cache.clear()
    sig = ring_sign(PP, pairs[0].sk, ring, b"msg", rng)
    take(tally)
    assert ring_verify(PP, ring, b"msg", sig)
    assert take(tally) == VERIFY_AFTER_SIGN_32


def test_ring_32_sequence(tally):
    # 32 keygens, then three messages, each signed once and verified twice.
    rng = random.Random(32)
    pairs = keys(32, rng)
    ring = canonical_ring(pair.pk for pair in pairs)
    for m in range(3):
        msg = f"message {m}".encode()
        sig = ring_sign(PP, pairs[m].sk, ring, msg, rng)
        assert ring_verify(PP, ring, msg, sig)
        assert ring_verify(PP, ring, msg, sig)
    assert take(tally) == RING_32


def test_pool_cap4_sequence(tally):
    # Three pools of four: each filled, then each member signs and
    # withdraws.
    rng = random.Random(32)
    mixer = Mixer(PP)
    for _ in range(3):
        mix_id = mixer.mix_create(denomination=1, capacity=4)
        pairs = keys(4, rng)
        for j, pair in enumerate(pairs):
            mixer.fund(f"acct-{j}", 1)
            mixer.mix_deposit(mix_id, pair.pk, f"acct-{j}")
        ring = mixer.mix_ring(mix_id)
        for j, pair in enumerate(pairs):
            payout = f"payout-{j}"
            msg = withdraw_message(mix_id, payout)
            blob = encode_signature(ring_sign(PP, pair.sk, ring, msg, rng))
            assert mixer.mix_withdraw(mix_id, blob, payout) is \
                WithdrawStatus.ACCEPTED
    assert take(tally) == POOL_CAP4
