"""Pool lifecycle, double-spend prevention, attacks, and the state file.

Tiny-curve note: tags live on the 21-point curve here, so two *different*
members can collide on a tag (spurious TAG_REUSE, a liveness miss) and a
replayed signature can pass the mod-21 challenge by luck.  Seeds for the
deterministic scenarios are pinned clear of both; the invariants that must
hold unconditionally (conservation, no same-member-same-payout double
payout) are asserted for every seed.  The acceptance fuzz repeats the whole
exercise on secp256k1 where the lucky branches have probability ~2^-256.
"""

import io
import json
import random
import re
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import distinct_keys, forge_fresh_tag

import ringmix.mixer as mixer_module

from ringmix import (
    HashVariant,
    Mixer,
    MixerError,
    Phase,
    PhaseError,
    SECP256K1,
    TEST_CURVE_11,
    TEST_CURVE_31,
    UnknownAccountError,
    UnknownPoolError,
    UrsError,
    WithdrawStatus,
    attack_naive_hash,
    attack_tag_reveal,
    canonical_ring,
    encode_signature,
    load_state,
    ring_gen,
    ring_sign,
    save_state,
    setup,
    withdraw_message,
)


def fill_pool(pp, mixer, rng, capacity=4, denomination=1, funders=None):
    mix_id = mixer.mix_create(denomination, capacity)
    keys = distinct_keys(pp, rng, capacity)
    funders = funders or [f"acct-{i}" for i in range(capacity)]
    for funder, pair in zip(funders, keys):
        mixer.fund(funder, denomination)
        mixer.mix_deposit(mix_id, pair.pk, funder)
    return mix_id, keys


def withdraw_as(pp, mixer, mix_id, pair, payout, rng):
    ring = mixer.mix_ring(mix_id)
    msg = withdraw_message(mix_id, payout)
    sig = ring_sign(pp, pair.sk, ring, msg, rng)
    return mixer.mix_withdraw(mix_id, encode_signature(sig), payout)


# ---------------------------------------------------------------------------
# lifecycle


def test_create_validates_parameters(pp31):
    mixer = Mixer(pp31)
    with pytest.raises(MixerError):
        mixer.mix_create(0, 4)
    with pytest.raises(MixerError):
        mixer.mix_create(1, 1)


def test_create_assigns_distinct_ids(pp31):
    mixer = Mixer(pp31)
    assert mixer.mix_create(1, 2) != mixer.mix_create(1, 2)


def test_create_refuses_an_id_in_use(pp31):
    mixer = Mixer(pp31)
    mix_id, _ = fill_pool(pp31, mixer, random.Random(0))
    funded = mixer_module.MixPool(**{n: getattr(mixer.pools[mix_id], n)
                                    for n in mixer_module.MixPool._PERSISTED})
    mixer._next_seq = 1  # rewound, as a stale ledger would have it
    with pytest.raises(MixerError, match=f"^{mix_id} already exists$"):
        mixer.mix_create(5, 2)
    assert mixer.pools == {mix_id: funded}
    assert mixer._next_seq == 1


def test_pool_fills_and_publishes_ring(pp31):
    mixer = Mixer(pp31)
    rng = random.Random(0)
    mix_id, keys = fill_pool(pp31, mixer, rng)
    status = mixer.mix_status(mix_id)
    assert status["phase"] == Phase.RING_PUBLISHED.value
    assert status["deposits"] == 4
    ring = mixer.mix_ring(mix_id)
    assert len(ring) == 4
    for pair in keys:
        assert pair.pk in ring


def test_deposit_requires_funds(pp31, rng):
    mixer = Mixer(pp31)
    mix_id = mixer.mix_create(5, 2)
    pair = ring_gen(pp31, rng)
    with pytest.raises(UnknownAccountError):
        mixer.mix_deposit(mix_id, pair.pk, "ghost")
    mixer.fund("poor", 4)
    with pytest.raises(MixerError):
        mixer.mix_deposit(mix_id, pair.pk, "poor")
    assert mixer.balance("poor") == 4  # nothing was debited


def test_deposit_rejects_duplicate_key(pp31, rng):
    mixer = Mixer(pp31)
    mix_id = mixer.mix_create(1, 3)
    pair = ring_gen(pp31, rng)
    mixer.fund("a", 2)
    mixer.mix_deposit(mix_id, pair.pk, "a")
    with pytest.raises(MixerError):
        mixer.mix_deposit(mix_id, pair.pk, "a")


def test_deposit_after_publication_rejected(pp31):
    mixer = Mixer(pp31)
    rng = random.Random(0)
    mix_id, _ = fill_pool(pp31, mixer, rng, capacity=2)
    late = distinct_keys(pp31, rng, 6)[-1]
    mixer.fund("late", 1)
    with pytest.raises(PhaseError):
        mixer.mix_deposit(mix_id, late.pk, "late")


def test_ring_unavailable_while_filling(pp31, rng):
    mixer = Mixer(pp31)
    mix_id = mixer.mix_create(1, 4)
    with pytest.raises(PhaseError):
        mixer.mix_ring(mix_id)


def test_unknown_pool(pp31):
    mixer = Mixer(pp31)
    with pytest.raises(UnknownPoolError):
        mixer.mix_status("mix-9999")


# ---------------------------------------------------------------------------
# withdrawals


def test_four_honest_withdrawals_drain_pool(pp31):
    mixer = Mixer(pp31)
    rng = random.Random(0)  # pinned: no tag collisions, no degenerate tags
    mix_id, keys = fill_pool(pp31, mixer, rng)
    for idx, pair in enumerate(keys):
        st = withdraw_as(pp31, mixer, mix_id, pair, f"payout-{idx}", rng)
        assert st is WithdrawStatus.ACCEPTED
        mixer.check_conservation(mix_id)
    status = mixer.mix_status(mix_id)
    assert status["balance"] == 0
    assert status["payouts"] == 4
    for idx in range(4):
        assert mixer.balance(f"payout-{idx}") == 1


def test_double_spend_same_payout_caught(pp31):
    mixer = Mixer(pp31)
    rng = random.Random(0)
    mix_id, keys = fill_pool(pp31, mixer, rng)
    assert withdraw_as(pp31, mixer, mix_id, keys[0], "dest", rng) is (
        WithdrawStatus.ACCEPTED
    )
    # fresh randomness, same key and payout: identical tag, caught exactly
    st = withdraw_as(pp31, mixer, mix_id, keys[0], "dest", rng)
    assert st is WithdrawStatus.TAG_REUSE
    mixer.check_conservation(mix_id)


def test_replayed_signature_bytes_caught(pp31):
    mixer = Mixer(pp31)
    rng = random.Random(0)
    mix_id, keys = fill_pool(pp31, mixer, rng)
    ring = mixer.mix_ring(mix_id)
    msg = withdraw_message(mix_id, "replay-dest")
    blob = encode_signature(ring_sign(pp31, keys[1].sk, ring, msg, rng))
    assert mixer.mix_withdraw(mix_id, blob, "replay-dest") is WithdrawStatus.ACCEPTED
    assert mixer.mix_withdraw(mix_id, blob, "replay-dest") is WithdrawStatus.TAG_REUSE


def test_withdraw_wrong_phase(pp31, rng):
    mixer = Mixer(pp31)
    mix_id = mixer.mix_create(1, 4)
    st = mixer.mix_withdraw(mix_id, b"\x00" * 10, "dest")
    assert st is WithdrawStatus.WRONG_PHASE


def test_withdraw_garbage_signature(pp31):
    mixer = Mixer(pp31)
    rng = random.Random(0)
    mix_id, _ = fill_pool(pp31, mixer, rng)
    assert mixer.mix_withdraw(mix_id, b"123", "dest") is WithdrawStatus.BAD_SIGNATURE


def test_withdraw_wrong_ring_size(pp31):
    mixer = Mixer(pp31)
    rng = random.Random(0)
    mix_id, keys = fill_pool(pp31, mixer, rng, capacity=4)
    small_ring = canonical_ring([keys[0].pk, keys[1].pk])
    msg = withdraw_message(mix_id, "dest")
    sig = ring_sign(pp31, keys[0].sk, small_ring, msg, rng)
    st = mixer.mix_withdraw(mix_id, encode_signature(sig), "dest")
    assert st is WithdrawStatus.WRONG_RING


def test_signature_over_wrong_mix_id_rejected(pp31):
    mixer = Mixer(pp31)
    rng = random.Random(0)
    mix_id, keys = fill_pool(pp31, mixer, rng)
    ring = mixer.mix_ring(mix_id)
    msg = withdraw_message("mix-7777", "dest")  # wrong pool in the message
    sig = ring_sign(pp31, keys[0].sk, ring, msg, rng)
    st = mixer.mix_withdraw(mix_id, encode_signature(sig), "dest")
    assert st is WithdrawStatus.BAD_SIGNATURE


def test_cross_pool_replay_rejected(pp31):
    # same members deposit in two pools; a pool-A signature replayed on
    # pool B fails because the message binds the mix id (seed pinned clear
    # of the 1/21 tiny-curve lucky acceptance)
    mixer = Mixer(pp31)
    rng = random.Random(1)
    keys = distinct_keys(pp31, rng, 4)
    ids = []
    for tag in ("a", "b"):
        mix_id = mixer.mix_create(1, 4)
        ids.append(mix_id)
        for i, pair in enumerate(keys):
            funder = f"{tag}-{i}"
            mixer.fund(funder, 1)
            mixer.mix_deposit(mix_id, pair.pk, funder)
    ring = mixer.mix_ring(ids[0])
    msg = withdraw_message(ids[0], "dest")
    blob = encode_signature(ring_sign(pp31, keys[2].sk, ring, msg, rng))
    assert mixer.mix_withdraw(ids[0], blob, "dest") is WithdrawStatus.ACCEPTED
    assert mixer.mix_withdraw(ids[1], blob, "dest") is WithdrawStatus.BAD_SIGNATURE
    mixer.check_conservation(ids[0])
    mixer.check_conservation(ids[1])


def test_payout_switch_characterization(pp31):
    """Documented residual: the signed message binds the payout address, so
    a member signing again toward a different address mints a fresh tag and
    can claim a second denomination while the pool still holds funds.  The
    pool can never pay out more than was deposited; the starved party is
    another member, not the ledger.  See the README security notes."""
    mixer = Mixer(pp31)
    rng = random.Random(0)
    mix_id, keys = fill_pool(pp31, mixer, rng)
    first = withdraw_as(pp31, mixer, mix_id, keys[0], "addr-one", rng)
    assert first is WithdrawStatus.ACCEPTED
    second = withdraw_as(pp31, mixer, mix_id, keys[0], "addr-two", rng)
    assert second is WithdrawStatus.ACCEPTED  # fresh tag: not detectable
    mixer.check_conservation(mix_id)  # ...but conservation still holds
    assert mixer.mix_status(mix_id)["balance"] == 2


def test_pool_never_overdrawn(pp31):
    # exhaust a pool via payout switching, then confirm the balance check
    # refuses further payouts
    mixer = Mixer(pp31)
    rng = random.Random(0)
    mix_id, keys = fill_pool(pp31, mixer, rng)
    accepted = 0
    attempt = 0
    while accepted < 4 and attempt < 40:
        try:
            st = withdraw_as(
                pp31, mixer, mix_id, keys[0], f"switch-{attempt}", rng
            )
        except UrsError:  # degenerate tiny-curve tag, try another address
            attempt += 1
            continue
        attempt += 1
        if st is WithdrawStatus.ACCEPTED:
            accepted += 1
        mixer.check_conservation(mix_id)
    assert accepted == 4
    assert mixer.mix_status(mix_id)["balance"] == 0
    while True:
        try:
            st = withdraw_as(pp31, mixer, mix_id, keys[1], f"late-{attempt}", rng)
            break
        except UrsError:
            attempt += 1
    assert st is WithdrawStatus.POOL_EMPTY
    mixer.check_conservation(mix_id)


@pytest.mark.parametrize("break_pool, error", [
    (lambda pool: setattr(pool, "balance", -1), "negative balance -1"),
    (lambda pool: setattr(pool, "balance", pool.balance + 1),
     "conservation broken, in=4 out=1 balance=4"),
    (lambda pool: pool.seen_tags.add(b"\x00"), "payout/tag count mismatch"),
])
def test_conservation_check_names_the_broken_pool(pp31, break_pool, error):
    mixer = Mixer(pp31)
    rng = random.Random(0)
    mix_id, keys = fill_pool(pp31, mixer, rng)
    assert withdraw_as(pp31, mixer, mix_id, keys[0], "pay", rng) is (
        WithdrawStatus.ACCEPTED)
    mixer.check_conservation(mix_id)
    break_pool(mixer.pools[mix_id])
    with pytest.raises(MixerError, match=f"^{mix_id}: {re.escape(error)}$"):
        mixer.check_conservation(mix_id)


# ---------------------------------------------------------------------------
# close / refund


def test_close_refunds_underfilled_pool(pp31, rng):
    mixer = Mixer(pp31)
    mix_id = mixer.mix_create(2, 4)
    keys = distinct_keys(pp31, rng, 2)
    for i, pair in enumerate(keys):
        mixer.fund(f"d{i}", 2)
        mixer.mix_deposit(mix_id, pair.pk, f"d{i}")
    assert mixer.balance("d0") == 0
    mixer.mix_close(mix_id)
    assert mixer.mix_status(mix_id)["phase"] == Phase.CLOSED.value
    assert mixer.balance("d0") == 2
    assert mixer.balance("d1") == 2
    mixer.check_conservation(mix_id)


def test_close_after_publication_rejected(pp31):
    mixer = Mixer(pp31)
    rng = random.Random(0)
    mix_id, _ = fill_pool(pp31, mixer, rng)
    with pytest.raises(PhaseError):
        mixer.mix_close(mix_id)


@pytest.mark.parametrize("deposits", [1, 2])
def test_ring_unavailable_after_close(pp31, rng, deposits):
    # One deposit cannot form a ring at all; two would form one that was
    # never published.  Either way a closed pool has no ring.
    mixer = Mixer(pp31)
    mix_id = mixer.mix_create(1, 4)
    for i, pair in enumerate(distinct_keys(pp31, rng, deposits)):
        mixer.fund(f"d{i}", 1)
        mixer.mix_deposit(mix_id, pair.pk, f"d{i}")
    mixer.mix_close(mix_id)
    with pytest.raises(PhaseError):
        mixer.mix_ring(mix_id)


def test_published_ring_is_decoded_once_and_not_persisted(pp31, tmp_path):
    mixer = Mixer(pp31)
    mix_id, keys = fill_pool(pp31, mixer, random.Random(0))
    path = tmp_path / "state.json"
    save_state(mixer, str(path))
    before = path.read_bytes()
    ring = mixer.mix_ring(mix_id)
    assert ring == canonical_ring([k.pk for k in keys])
    assert mixer.mix_ring(mix_id) is ring
    save_state(mixer, str(path))
    assert path.read_bytes() == before


def test_pool_equality_covers_the_persisted_fields_only(pp31):
    a = mixer_module.MixPool("mix-0001", 1, 2)
    b = mixer_module.MixPool(mix_id="mix-0001", denomination=1, capacity=2,
                             phase=Phase.FILLING, balance=0)
    assert a == b and a.deposits is not b.deposits  # fresh defaults
    b._ring = canonical_ring(k.pk for k in distinct_keys(
        pp31, random.Random(0), 2))
    assert a == b
    for name, value in (("mix_id", "mix-0002"), ("denomination", 2),
                        ("capacity", 3), ("phase", Phase.CLOSED),
                        ("deposits", [("02", "x")]), ("seen_tags", {b"t"}),
                        ("payouts", [("a", "74")]), ("refunds", ["x"]),
                        ("balance", 1)):
        c = mixer_module.MixPool("mix-0001", 1, 2)
        setattr(c, name, value)
        assert c != a, name
    with pytest.raises(TypeError):
        hash(a)


# ---------------------------------------------------------------------------
# state file


def test_state_roundtrip_is_deterministic(pp31, tmp_path):
    mixer = Mixer(pp31)
    rng = random.Random(0)
    mix_id, keys = fill_pool(pp31, mixer, rng)
    withdraw_as(pp31, mixer, mix_id, keys[0], "payout-x", rng)
    p1 = tmp_path / "one.json"
    p2 = tmp_path / "two.json"
    save_state(mixer, str(p1))
    reloaded = load_state(str(p1))
    save_state(reloaded, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_state_survives_and_keeps_working(pp31, tmp_path):
    mixer = Mixer(pp31)
    rng = random.Random(0)
    mix_id, keys = fill_pool(pp31, mixer, rng)
    withdraw_as(pp31, mixer, mix_id, keys[0], "payout-x", rng)
    path = tmp_path / "state.json"
    save_state(mixer, str(path))

    reloaded = load_state(str(path))
    assert reloaded.mix_status(mix_id) == mixer.mix_status(mix_id)
    assert reloaded.accounts == mixer.accounts
    # the reloaded contract still blocks the old tag
    st = withdraw_as(pp31, reloaded, mix_id, keys[0], "payout-x", rng)
    assert st is WithdrawStatus.TAG_REUSE
    # and still accepts a fresh member
    st = withdraw_as(pp31, reloaded, mix_id, keys[1], "payout-y", rng)
    assert st is WithdrawStatus.ACCEPTED
    reloaded.check_conservation(mix_id)


def test_state_file_is_versioned_json(pp31, tmp_path):
    mixer = Mixer(pp31)
    path = tmp_path / "state.json"
    save_state(mixer, str(path))
    doc = json.loads(path.read_text())
    assert doc["version"] == 1
    assert doc["params"]["curve"] == "test-31"
    reloaded = load_state(str(path))
    assert reloaded.pp.curve == pp31.curve
    doc["version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(MixerError):
        load_state(str(path))


def state_doc(mixer):
    """The state document, as the library built it before the writer
    learned the document's shape: the spec the state file is held to."""
    return {
        "version": mixer_module.STATE_VERSION,
        "params": {
            "curve": mixer.pp.curve.curve_id,
            "hash": mixer.pp.h_variant.value,
            "security_bits": mixer.pp.security_bits,
            "insecure_override": mixer.pp.insecure_override,
        },
        "next_pool_seq": mixer._next_seq,
        "accounts": dict(sorted(mixer.accounts.items())),
        "pools": {
            mix_id: {
                "denomination": pool.denomination,
                "capacity": pool.capacity,
                "phase": pool.phase.value,
                "deposits": [
                    {"pk": pk, "from": funder} for pk, funder in pool.deposits
                ],
                "seen_tags": sorted(tag.hex() for tag in pool.seen_tags),
                "payouts": [
                    {"address": addr, "tag": tag} for addr, tag in pool.payouts
                ],
                "refunds": list(pool.refunds),
                "balance": pool.balance,
            }
            for mix_id, pool in sorted(mixer.pools.items())
        },
    }


def _old_bytes(mixer):
    """The state file as json.dump(indent=2, sort_keys=True) wrote it."""
    return (json.dumps(state_doc(mixer), indent=2, sort_keys=True)
            + "\n").encode()


NAMES = st.one_of(
    st.sampled_from(["", '"', "\\", '\\"', "\x00\x1f\x7f\n\t", "ünï€😀"]),
    st.text(max_size=12),
)
HEX = st.binary(min_size=1, max_size=33).map(bytes.hex)


# Every parameter set a ledger can hold: the FT map has no constants for
# test-11, and the generator-multiple hash needs the override.
PARAMS = st.one_of(
    st.tuples(st.sampled_from([SECP256K1, TEST_CURVE_31]),
              st.just(HashVariant.FT_DETERMINISTIC), st.booleans()),
    st.tuples(st.sampled_from([SECP256K1, TEST_CURVE_31, TEST_CURVE_11]),
              st.just(HashVariant.TRY_INCREMENT), st.booleans()),
    st.tuples(st.sampled_from([SECP256K1, TEST_CURVE_31, TEST_CURVE_11]),
              st.just(HashVariant.INSECURE_MULT_G), st.just(True)),
)


@st.composite
def ledgers(draw):
    curve, variant, override = draw(PARAMS)
    mixer = Mixer(setup(draw(st.integers(1, 2**70)), curve, variant,
                        insecure_override=override))
    mixer.accounts = draw(st.dictionaries(NAMES, st.integers(-5, 10**30),
                                          max_size=6))
    mixer._next_seq = draw(st.sampled_from([1, 9998, 10**6]))
    for _ in range(draw(st.integers(0, 6))):
        mix_id = mixer.mix_create(draw(st.integers(1, 10**6)),
                                  draw(st.integers(2, 8)))
        pool = mixer.pools[mix_id]
        pool.phase = draw(st.sampled_from(Phase))
        pool.deposits = draw(st.lists(st.tuples(HEX, NAMES), max_size=4))
        pool.seen_tags = draw(st.sets(st.binary(min_size=1, max_size=33),
                                      max_size=3))
        pool.payouts = draw(st.lists(st.tuples(NAMES, HEX), max_size=3))
        pool.refunds = draw(st.lists(NAMES, max_size=3))
        pool.balance = draw(st.integers(-5, 10**9))
    return mixer


def _edge_ledgers():
    """No accounts and no pools; then a pool with no deposits or payouts
    beside a closed pool whose refunds go to awkward names."""
    pp = setup(8, TEST_CURVE_31, HashVariant.FT_DETERMINISTIC)
    empty, mixer = Mixer(pp), Mixer(pp)
    mixer.mix_create(3, 4)
    closed = mixer.mix_create(3, 4)
    for name, pair in zip(['ü"', ""], distinct_keys(pp, random.Random(0), 2)):
        mixer.fund(name, 3)
        mixer.mix_deposit(closed, pair.pk, name)
    mixer.mix_close(closed)
    return empty, mixer


EMPTY_LEDGER, EDGE_LEDGER = _edge_ledgers()


@settings(max_examples=300, deadline=None)
@given(mixer=ledgers())
@example(mixer=EMPTY_LEDGER)
@example(mixer=EDGE_LEDGER)
def test_state_writer_matches_json_dump(mixer, tmp_path_factory):
    path = tmp_path_factory.mktemp("w") / "state.json"
    save_state(mixer, str(path))
    assert path.read_bytes() == _old_bytes(mixer)
    pools = json.loads(path.read_text())["pools"]
    for mix_id, pool in mixer.pools.items():
        assert pools[mix_id]["refunds"] == pool.refunds


def _several_pools():
    """A ledger using every field: a published pool with one payout, a
    closed pool with a refund, and an empty filling pool."""
    pp = setup(128, TEST_CURVE_31, HashVariant.FT_DETERMINISTIC)
    rng = random.Random(0)
    mixer = Mixer(pp)
    mix_id, keys = fill_pool(pp, mixer, rng)
    assert withdraw_as(pp, mixer, mix_id, keys[0], "pay-ü", rng) is (
        WithdrawStatus.ACCEPTED)
    closed = mixer.mix_create(2, 3)
    mixer.fund("Zoë", 2)
    mixer.mix_deposit(closed, keys[1].pk, "Zoë")
    mixer.mix_close(closed)
    mixer.mix_create(1, 2)
    return mixer


SEVERAL_POOLS = _several_pools()


def test_state_writer_writes_pool_by_pool(tmp_path):
    writes = []
    mixer_module._write_state(SEVERAL_POOLS,
                              SimpleNamespace(write=writes.append))
    # The head, then one write per pool in id order, then the tail.
    assert len(writes) == len(SEVERAL_POOLS.pools) + 2
    assert [w.count('"denomination"') for w in writes] == [0, 1, 1, 1, 0]
    for text, mix_id in zip(writes[1:], sorted(SEVERAL_POOLS.pools)):
        assert f'"{mix_id}": {{' in text
    assert "".join(writes).encode() == _old_bytes(SEVERAL_POOLS)
    path = tmp_path / "state.json"
    save_state(SEVERAL_POOLS, str(path))
    assert path.read_bytes() == _old_bytes(SEVERAL_POOLS)


def _spoiled(value):
    """Copies of a small ledger with ``value`` in each place that must
    hold an int (or, for the account name, a str)."""
    pp = setup(8, TEST_CURVE_31, HashVariant.FT_DETERMINISTIC)

    def ledger():
        mixer = Mixer(pp)
        mixer.fund("alice", 3)
        mixer.mix_create(1, 2)
        return mixer, mixer.pools["mix-0001"]

    for where in ("account name", "account balance", "next_pool_seq",
                  "pool balance", "capacity", "denomination"):
        mixer, pool = ledger()
        if where == "account name":
            mixer.accounts[value] = 1
        elif where == "account balance":
            mixer.accounts["alice"] = value
        elif where == "next_pool_seq":
            mixer._next_seq = value
        else:
            setattr(pool, where.replace("pool ", ""), value)
        yield where, mixer


@pytest.mark.parametrize("value", [1.5, None, True])
def test_state_writer_refuses_other_types(tmp_path, value):
    path = tmp_path / "state.json"
    save_state(EDGE_LEDGER, str(path))
    before = path.read_bytes()
    for where, mixer in _spoiled(value):
        with pytest.raises(TypeError):
            save_state(mixer, str(path))
        assert path.read_bytes() == before, where
        assert [p.name for p in tmp_path.iterdir()] == ["state.json"], where


def test_failed_save_keeps_old_file(pp31, tmp_path, monkeypatch):
    mixer = Mixer(pp31)
    for _ in range(3):
        mixer.mix_create(1, 2)
    path = tmp_path / "state.json"
    save_state(mixer, str(path))
    before = path.read_bytes()

    mixer.fund("late", 1)
    real = mixer_module._write_state
    flushed = []

    def failing(mixer, fh):
        def write(text):
            if flushed:
                raise OSError("disk full")
            fh.write(text)
            fh.flush()
            if '"denomination"' in text:  # the first pool went out
                flushed.append(text)
        real(mixer, SimpleNamespace(write=write))
    monkeypatch.setattr(mixer_module, "_write_state", failing)
    with pytest.raises(OSError, match="disk full"):
        save_state(mixer, str(path))
    assert len(flushed) == 1
    assert path.read_bytes() == before
    assert list(tmp_path.glob("*.tmp")) == []


def test_save_keeps_mode_and_symlink(pp31, tmp_path):
    mixer = Mixer(pp31)
    real = tmp_path / "real.json"
    save_state(mixer, str(real))
    real.chmod(0o600)
    link = tmp_path / "state.json"
    link.symlink_to(real)
    mixer.fund("alice", 1)
    save_state(mixer, str(link))
    assert link.is_symlink()
    assert real.stat().st_mode & 0o777 == 0o600
    assert load_state(str(real)).accounts == {"alice": 1}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["real.json",
                                                          "state.json"]


def _valid_doc(pp31, rng):
    """One published pool with one payout."""
    mixer = Mixer(pp31)
    mix_id, keys = fill_pool(pp31, mixer, rng)
    assert withdraw_as(pp31, mixer, mix_id, keys[0], "pay", rng) is (
        WithdrawStatus.ACCEPTED)
    return state_doc(mixer)


def _with(doc, change):
    doc = json.loads(json.dumps(doc))
    change(doc)
    return json.dumps(doc)


def _pool(doc):
    return next(iter(doc["pools"].values()))


BAD_DOCUMENTS = {
    "not-json": lambda doc: "{",
    "truncated": lambda doc: json.dumps(doc, indent=2)[:200],
    "top-level-list": lambda doc: "[]",
    "no-pools": lambda doc: _with(doc, lambda d: d.pop("pools")),
    "pools-list": lambda doc: _with(doc, lambda d: d.update(pools=[])),
    "bad-phase": lambda doc: _with(doc, lambda d: _pool(d).update(phase="bogus")),
    "bad-hash": lambda doc: _with(doc, lambda d: d["params"].update(hash="md5")),
    "insecure-hash": lambda doc: _with(
        doc, lambda d: d["params"].update(hash="insecure-mult-g")),
    "ft-on-test-11": lambda doc: _with(
        doc, lambda d: d["params"].update(curve="test-11")),
    "unknown-curve": lambda doc: _with(
        doc, lambda d: d["params"].update(curve="p-256")),
    "deposit-without-funder": lambda doc: _with(
        doc, lambda d: _pool(d)["deposits"][0].pop("from")),
    "tag-not-hex": lambda doc: _with(
        doc, lambda d: _pool(d).update(seen_tags=["zz"])),
    "version": lambda doc: _with(doc, lambda d: d.update(version=2)),
    "deep-nesting": lambda doc: "[" * 100_000,
    "next-seq-str": lambda doc: _with(doc, lambda d: d.update(next_pool_seq="x")),
    "next-seq-bool": lambda doc: _with(
        doc, lambda d: d.update(next_pool_seq=True)),
    "account-str": lambda doc: _with(
        doc, lambda d: d["accounts"].update({"acct-0": "x"})),
    "account-float": lambda doc: _with(
        doc, lambda d: d["accounts"].update({"acct-0": 1.0})),
    "denomination-str": lambda doc: _with(
        doc, lambda d: _pool(d).update(denomination="1")),
    "capacity-bool": lambda doc: _with(
        doc, lambda d: _pool(d).update(capacity=False)),
    "pool-balance-null": lambda doc: _with(
        doc, lambda d: _pool(d).update(balance=None)),
    "refunds-str": lambda doc: _with(
        doc, lambda d: _pool(d).update(refunds="abc")),
    "refund-int": lambda doc: _with(
        doc, lambda d: _pool(d).update(refunds=[7])),
    "deposit-funder-int": lambda doc: _with(
        doc, lambda d: _pool(d)["deposits"][0].update({"from": 7})),
    "payout-address-int": lambda doc: _with(
        doc, lambda d: _pool(d).update(payouts=[{"address": 7, "tag": "00"}])),
    "payout-tag-int": lambda doc: _with(
        doc, lambda d: _pool(d).update(payouts=[{"address": "a", "tag": 7}])),
    "security-bits-str": lambda doc: _with(
        doc, lambda d: d["params"].update(security_bits="x")),
    "security-bits-bool": lambda doc: _with(
        doc, lambda d: d["params"].update(security_bits=True)),
    "insecure-override-str": lambda doc: _with(
        doc, lambda d: d["params"].update(hash="insecure-mult-g",
                                          insecure_override="false")),
    "insecure-override-int": lambda doc: _with(
        doc, lambda d: d["params"].update(insecure_override=0)),
    # Well-typed books that no lifecycle leaves.
    "seen-tag-dropped": lambda doc: _with(
        doc, lambda d: _pool(d).update(seen_tags=[])),
    "seen-tag-swapped": lambda doc: _with(
        doc, lambda d: _pool(d).update(seen_tags=["00"])),
    "balance-raised": lambda doc: _with(
        doc, lambda d: _pool(d).update(balance=_pool(d)["balance"] + 1)),
    "published-short-one": lambda doc: _with(doc, lambda d: (
        _pool(d)["deposits"].pop(),
        _pool(d).update(balance=_pool(d)["balance"] - 1))),
    "filling-at-capacity": lambda doc: _with(
        doc, lambda d: _pool(d).update(phase="filling")),
    "closed-at-capacity": lambda doc: _with(
        doc, lambda d: _pool(d).update(phase="closed")),
    "over-capacity": lambda doc: _with(
        doc, lambda d: _pool(d).update(capacity=3)),
    "account-negative": lambda doc: _with(
        doc, lambda d: d["accounts"].update({"acct-1": -1})),
    "denomination-zero": lambda doc: _with(
        doc, lambda d: _pool(d).update(denomination=0, balance=0)),
    "capacity-one": lambda doc: _with(
        doc, lambda d: _pool(d).update(capacity=1)),
    "next-pool-seq-stale": lambda doc: _with(
        doc, lambda d: d.update(next_pool_seq=1)),
    # A key the writer never writes: a typo, or a field of another version.
    "unknown-top-key": lambda doc: _with(doc, lambda d: d.update(pool={})),
    "unknown-params-key": lambda doc: _with(
        doc, lambda d: d["params"].update(insecure=True)),
    "unknown-pool-key": lambda doc: _with(
        doc, lambda d: _pool(d).update(withdrawals=0)),
    "unknown-deposit-key": lambda doc: _with(
        doc, lambda d: _pool(d)["deposits"][3].update(amount=1)),
    "unknown-payout-key": lambda doc: _with(
        doc, lambda d: _pool(d)["payouts"][0].update(fee=0)),
}

# The line each well-typed bad book or unknown key gives, after the file
# name.
BAD_BOOKS = {
    "seen-tag-dropped": "mix-0001: payout/tag count mismatch",
    "seen-tag-swapped": "mix-0001: seen tags differ from the payout tags",
    "balance-raised": "mix-0001: conservation broken, in=4 out=1 balance=4",
    "published-short-one":
        "mix-0001: 3 deposits in a ring-published pool of capacity 4",
    "filling-at-capacity": "mix-0001: 4 deposits in a filling pool of capacity 4",
    "closed-at-capacity": "mix-0001: 4 deposits in a closed pool of capacity 4",
    "over-capacity": "mix-0001: 4 deposits in a ring-published pool of "
                     "capacity 3",
    "account-negative": "account 'acct-1' is -1, below 0",
    "denomination-zero": "mix-0001 denomination is 0, below 1",
    "capacity-one": "mix-0001 capacity is 1, below 2",
    "next-pool-seq-stale": "next_pool_seq 1 would reuse mix-0001",
    "unknown-top-key": "unknown key 'pool' in the state file",
    "unknown-params-key": "unknown key 'insecure' in params",
    "unknown-pool-key": "mix-0001: unknown key 'withdrawals' in the pool",
    "unknown-deposit-key": "mix-0001: unknown key 'amount' in a deposit",
    "unknown-payout-key": "mix-0001: unknown key 'fee' in a payout",
}


@pytest.mark.parametrize("name", sorted(BAD_DOCUMENTS))
def test_load_state_reports_malformed_file(pp31, rng, tmp_path, name):
    path = tmp_path / "state.json"
    path.write_text(BAD_DOCUMENTS[name](_valid_doc(pp31, rng)))
    line = f"{path}: {BAD_BOOKS[name]}" if name in BAD_BOOKS else str(path)
    with pytest.raises(MixerError, match=f"^{re.escape(line)}"):
        load_state(str(path))


def test_valid_doc_loads_with_its_books(pp31, rng, tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(_valid_doc(pp31, rng)))
    loaded = load_state(str(path))
    assert len(loaded.pools["mix-0001"].payouts) == 1


def test_load_state_reports_unreadable_file(tmp_path):
    path = tmp_path / "state.json"
    with pytest.raises(MixerError, match="No such file"):
        load_state(str(path))
    path.write_bytes(b'{"version": 1, "\xff": 0}')
    with pytest.raises(MixerError, match=re.escape(str(path))):
        load_state(str(path))


FUZZ_LEDGER = _old_bytes(SEVERAL_POOLS).decode()
JSON_VALUES = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-2, 2**70),
        st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=6),
        st.sampled_from(["", "zz", "02" * 33, "test-11", "p-256", "try-inc",
                         "insecure-mult-g", "closed", "ring-published"]),
    ),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=6), inner,
                                            max_size=3)),
    max_leaves=8,
)


def _node_paths(node, path=()):
    yield path
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _node_paths(child, path + (key,))


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _replaced(path, value):
    doc = json.loads(FUZZ_LEDGER)
    if not path:
        return json.dumps(value).encode()
    _node(doc, path[:-1])[path[-1]] = value
    return json.dumps(doc).encode()


@st.composite
def mutated_ledgers(draw):
    """The fuzz ledger with one node replaced by a random JSON value, one
    dict key deleted, or its bytes truncated."""
    how = draw(st.sampled_from(["replace", "delete", "truncate"]))
    if how == "truncate":
        data = FUZZ_LEDGER.encode()
        return data[:draw(st.integers(0, len(data) - 1))]
    doc = json.loads(FUZZ_LEDGER)
    paths = list(_node_paths(doc))
    if how == "replace":
        return _replaced(draw(st.sampled_from(paths)), draw(JSON_VALUES))
    path = draw(st.sampled_from(
        [p for p in paths if p and isinstance(_node(doc, p[:-1]), dict)]))
    del _node(doc, path[:-1])[path[-1]]
    return json.dumps(doc).encode()


# Random replacements rarely hit the first two, which fail inside setup()
# with errors that are not MixerErrors.  A ledger that loads must also
# save, so a deposit key that is not a string has to be refused on load.
@example(data=_replaced(("params", "curve"), "test-11"))
@example(data=_replaced(("params", "hash"), "insecure-mult-g"))
@example(data=_replaced(("pools", "mix-0001", "deposits", 0, "pk"), 5))
@settings(max_examples=300, deadline=None)
@given(data=mutated_ledgers())
def test_load_state_fuzz_raises_only_mixer_error(data, tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "state.json"
    path.write_bytes(data)
    try:
        loaded = load_state(str(path))
    except MixerError as exc:
        assert str(exc).startswith(f"{path}: ")
        return
    assert isinstance(loaded, Mixer)
    mixer_module._write_state(loaded, io.StringIO())


# ---------------------------------------------------------------------------
# attacks (tiny-curve unit scale; acceptance reruns these on secp256k1)


def test_attack_naive_hash_recovers_every_signer(pp31_insecure):
    rng = random.Random(0)  # pinned: no 21-point false positives
    keys = distinct_keys(pp31_insecure, rng, 4)
    ring = canonical_ring([k.pk for k in keys])
    msg = b"attack-demo"
    for pair in keys:
        sig = ring_sign(pp31_insecure, pair.sk, ring, msg, rng)
        assert attack_naive_hash(ring, sig, msg) == ring.index_of(pair.pk)


def test_attack_naive_hash_two_ring(pp31_insecure):
    rng = random.Random(0)
    keys = distinct_keys(pp31_insecure, rng, 2)
    ring = canonical_ring([k.pk for k in keys])
    sig = ring_sign(pp31_insecure, keys[1].sk, ring, b"pair", rng)
    assert attack_naive_hash(ring, sig, b"pair") == ring.index_of(keys[1].pk)


def test_attack_naive_hash_fails_against_ft(pp31, pp31_insecure):
    rng = random.Random(0)
    keys = distinct_keys(pp31, rng, 4)
    ring = canonical_ring([k.pk for k in keys])
    sig = ring_sign(pp31, keys[0].sk, ring, b"attack-demo", rng)
    assert attack_naive_hash(ring, sig, b"attack-demo") is None


def test_attack_tag_reveal_shrinks_set(pp31):
    rng = random.Random(0)
    keys = distinct_keys(pp31, rng, 4)
    ring = canonical_ring([k.pk for k in keys])
    msg = b"reveal-demo"
    signer = keys[2]
    sig = ring_sign(pp31, signer.sk, ring, msg, rng)
    others = [k.sk for k in keys if k.pk != signer.pk]
    assert len(attack_tag_reveal(pp31, ring, sig, msg, [])) == 4
    assert len(attack_tag_reveal(pp31, ring, sig, msg, others[:1])) == 3
    assert attack_tag_reveal(pp31, ring, sig, msg, others) == [
        ring.index_of(signer.pk)
    ]


def test_attack_tag_reveal_rejects_foreign_key(pp31):
    rng = random.Random(0)
    keys = distinct_keys(pp31, rng, 5)
    ring = canonical_ring([k.pk for k in keys[:4]])
    sig = ring_sign(pp31, keys[0].sk, ring, b"x", rng)
    with pytest.raises(UrsError):
        attack_tag_reveal(pp31, ring, sig, b"x", [keys[4].sk])


# ---------------------------------------------------------------------------
# randomized interleavings (tiny-curve edition; secp version in acceptance)


def test_fuzz_interleavings_tiny_curve(pp31):
    """30 seeded random interleavings of deposits, honest withdrawals,
    same-payout double spends, byte replays, and cross-pool replays.
    Unconditional invariants: conservation after every step, no negative
    balances, and never two payouts for the same (member, payout) pair.
    Cross-pool replays may slip through with probability ~1/21 apiece on
    this curve (counted and bounded); they cannot on secp256k1."""
    lucky_replays = 0
    replay_attempts = 0
    for seed in range(30):
        rng = random.Random(seed)
        mixer = Mixer(pp31)
        pools = {}
        for _ in range(2):
            mix_id, keys = fill_pool(
                pp31,
                mixer,
                rng,
                funders=[f"f{seed}-{rng.randrange(10 ** 6)}" for _ in range(4)],
            )
            pools[mix_id] = {"keys": keys, "done": {}, "blobs": []}
        ids = sorted(pools)
        for _ in range(14):
            mix_id = rng.choice(ids)
            info = pools[mix_id]
            action = rng.randrange(4)
            if action == 0:  # honest withdrawal by a fresh member
                idx = rng.randrange(4)
                payout = f"{mix_id}-payout-{idx}"
                ring = mixer.mix_ring(mix_id)
                msg = withdraw_message(mix_id, payout)
                try:
                    sig = ring_sign(pp31, info["keys"][idx].sk, ring, msg, rng)
                except UrsError:
                    continue  # degenerate tiny-curve tag
                blob = encode_signature(sig)
                info["blobs"].append((blob, payout, idx))
                st = mixer.mix_withdraw(mix_id, blob, payout)
                if st is WithdrawStatus.ACCEPTED:
                    assert (idx, payout) not in info["done"], "double payout"
                    info["done"][(idx, payout)] = True
            elif action == 1 and info["done"]:  # re-sign an already-spent context
                idx, payout = rng.choice(sorted(info["done"]))
                ring = mixer.mix_ring(mix_id)
                msg = withdraw_message(mix_id, payout)
                try:
                    sig = ring_sign(pp31, info["keys"][idx].sk, ring, msg, rng)
                except UrsError:
                    continue
                st = mixer.mix_withdraw(mix_id, encode_signature(sig), payout)
                assert st is WithdrawStatus.TAG_REUSE
            elif action == 2 and info["blobs"]:  # replay exact bytes
                blob, payout, idx = rng.choice(info["blobs"])
                st = mixer.mix_withdraw(mix_id, blob, payout)
                if st is WithdrawStatus.ACCEPTED:
                    # only legitimate if the original attempt never landed
                    assert (idx, payout) not in info["done"], "replay double payout"
                    info["done"][(idx, payout)] = True
            elif action == 3:  # cross-pool replay
                other = ids[0] if mix_id == ids[1] else ids[1]
                if not pools[other]["blobs"]:
                    continue
                blob, payout, _ = rng.choice(pools[other]["blobs"])
                replay_attempts += 1
                st = mixer.mix_withdraw(mix_id, blob, payout)
                if st is WithdrawStatus.ACCEPTED:
                    lucky_replays += 1  # mod-21 challenge luck, bounded below
            for check_id in ids:
                mixer.check_conservation(check_id)
    if replay_attempts:
        assert lucky_replays / replay_attempts < 0.2


def test_a_member_cannot_withdraw_again_under_a_forged_tag(pp_secp):
    rng = random.Random(17)
    mixer = Mixer(pp_secp)
    mix_id, keys = fill_pool(pp_secp, mixer, rng)
    st = withdraw_as(pp_secp, mixer, mix_id, keys[0], "payee", rng)
    assert st is WithdrawStatus.ACCEPTED
    msg = withdraw_message(mix_id, "payee")
    sig, _ = forge_fresh_tag(pp_secp, keys[0].sk, mixer.mix_ring(mix_id),
                             msg, 2, rng)
    st = mixer.mix_withdraw(mix_id, encode_signature(sig), "payee")
    assert st is WithdrawStatus.BAD_SIGNATURE
    assert mixer.balance("payee") == 1
    mixer.check_conservation(mix_id)


def test_fuzz_statuses_make_sense_secp(pp_secp):
    # one compact randomized run at full scale: everything exact
    rng = random.Random(3)
    mixer = Mixer(pp_secp)
    mix_id, keys = fill_pool(pp_secp, mixer, rng, capacity=3)
    st = withdraw_as(pp_secp, mixer, mix_id, keys[0], "w0", rng)
    assert st is WithdrawStatus.ACCEPTED
    st = withdraw_as(pp_secp, mixer, mix_id, keys[0], "w0", rng)
    assert st is WithdrawStatus.TAG_REUSE
    mixer.check_conservation(mix_id)
