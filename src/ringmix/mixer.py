"""Simulated coin-mixing contract gated by unique ring signatures.

A pool collects equal-denomination deposits, each registering a fresh
public key from an off-ledger key pair.  When the pool reaches capacity it
publishes the canonical ring of those keys.  Withdrawals present a ring
signature over the pool's withdrawal message; the signature proves
membership without identifying the member, and its tag makes a second
withdrawal by the same member collide in the seen-tag set.

The withdrawal message binds the payout address (``mix_id|payout``), so a
relay cannot swap its own address into an observed withdrawal.  The flip
side, documented in README security notes: because tags are per-message, a
member who signs again for a *different* payout address produces a fresh
tag.  The pool can never pay out more than was deposited (every payout is
balance-checked), but honest-member starvation by such a double-claimer is
not detectable from signatures alone.

The ledger is an in-process map with no chain underneath.  It is saved
as a versioned, deterministic JSON document, one pool at a time, so a
save holds one pool's text in memory however many pools there are.
"""

from __future__ import annotations

import contextlib
import enum
from itertools import chain
import os
import shutil

from .curve import CurveError, CurveParams, CURVES, Point, RingmixError, Scalar
from .hashing import HashVariant, insecure_hash_exponent
from .urs import (
    PublicParams,
    Ring,
    RingError,
    RingSizeMismatchError,
    Signature,
    SignatureFormatError,
    decode_signature,
    ring_message_bytes,
    ring_message_point,
    ring_verify,
    setup,
)

STATE_VERSION = 1


class MixerError(RingmixError):
    """Ledger or pool operation failed."""


class UnknownAccountError(MixerError):
    pass


class UnknownPoolError(MixerError):
    pass


class PhaseError(MixerError):
    """Operation attempted outside its lifecycle phase."""


class Phase(enum.Enum):
    FILLING = "filling"
    RING_PUBLISHED = "ring-published"
    CLOSED = "closed"


class WithdrawStatus(enum.Enum):
    ACCEPTED = "accepted"
    BAD_SIGNATURE = "bad-signature"
    WRONG_RING = "wrong-ring"
    TAG_REUSE = "tag-reuse"
    WRONG_PHASE = "wrong-phase"
    POOL_EMPTY = "pool-empty"


def withdraw_message(mix_id: str, payout_address: str) -> bytes:
    """Canonical signed message for a withdrawal.

    Generated mix ids never contain '|', so the split is unambiguous.  A
    payout address taken from the command line keeps its own bytes.
    """
    return f"{mix_id}|{payout_address}".encode(errors="surrogateescape")


class MixPool:
    """One pool's ledger record; equal when every persisted field is."""

    _PERSISTED = ("mix_id", "denomination", "capacity", "phase", "deposits",
                  "seen_tags", "payouts", "refunds", "balance")
    __slots__ = _PERSISTED + ("_ring",)

    def __init__(self, mix_id: str, denomination: int, capacity: int,
                 phase: Phase = Phase.FILLING, deposits=(), seen_tags=(),
                 payouts=(), refunds=(), balance: int = 0):
        self.mix_id, self.denomination, self.capacity = mix_id, denomination, capacity
        self.phase, self.balance = phase, balance
        self.deposits: list[tuple[str, str]] = list(deposits)  # (pk hex, funder)
        self.seen_tags: set[bytes] = set(seen_tags)
        self.payouts: list[tuple[str, str]] = list(payouts)  # (address, tag hex)
        self.refunds: list[str] = list(refunds)
        # Decoded on first use; deposits are frozen once the ring is
        # published.  Never persisted.
        self._ring: Ring | None = None

    def __eq__(self, other):
        if type(other) is not MixPool:
            return NotImplemented
        return all(getattr(self, n) == getattr(other, n) for n in self._PERSISTED)

    def ring(self, curve: CurveParams) -> Ring:
        if self.phase is Phase.FILLING:
            raise PhaseError(f"{self.mix_id}: ring not published yet")
        if self.phase is not Phase.RING_PUBLISHED:
            raise PhaseError(f"{self.mix_id}: pool is {self.phase.value}, no ring")
        if self._ring is None:
            try:
                self._ring = Ring(Point.decode(curve, bytes.fromhex(pk))
                                  for pk, _ in self.deposits)
            except (ValueError, TypeError):
                raise MixerError(
                    f"{self.mix_id}: a deposit key is not hex") from None
            except (CurveError, RingError) as exc:
                raise MixerError(f"{self.mix_id}: deposit key: {exc}") from None
        return self._ring


class Mixer:
    """Single-writer contract simulator: accounts, pools, tag sets."""

    def __init__(self, pp: PublicParams):
        self.pp = pp
        self.accounts: dict[str, int] = {}
        self.pools: dict[str, MixPool] = {}
        self._next_seq = 1

    # -- ledger plumbing ----------------------------------------------------

    def fund(self, address: str, amount: int) -> None:
        if amount < 0:
            raise MixerError("cannot fund a negative amount")
        self.accounts[address] = self.accounts.get(address, 0) + amount

    def balance(self, address: str) -> int:
        return self.accounts.get(address, 0)

    def _debit(self, address: str, amount: int) -> None:
        have = self.accounts.get(address)
        if have is None:
            raise UnknownAccountError(f"no account {address!r}")
        if have < amount:
            raise MixerError(f"{address!r} holds {have}, needs {amount}")
        self.accounts[address] = have - amount

    def _pool(self, mix_id: str) -> MixPool:
        try:
            return self.pools[mix_id]
        except KeyError:
            raise UnknownPoolError(f"no pool {mix_id!r}") from None

    # -- lifecycle ------------------------------------------------------------

    def mix_create(self, denomination: int, capacity: int) -> str:
        if denomination <= 0:
            raise MixerError("denomination must be positive")
        if capacity < 2:
            raise MixerError("capacity below 2 makes the anonymity set trivial")
        mix_id = f"mix-{self._next_seq:04d}"
        if mix_id in self.pools:
            raise MixerError(f"{mix_id} already exists")
        self._next_seq += 1
        self.pools[mix_id] = MixPool(
            mix_id=mix_id, denomination=denomination, capacity=capacity
        )
        return mix_id

    def mix_deposit(self, mix_id: str, pk: Point, from_account: str) -> int:
        """Escrow one denomination and register pk.  Returns the fill count.

        The capacity-reaching deposit flips the pool to RING_PUBLISHED.
        """
        pool = self._pool(mix_id)
        if pool.phase is not Phase.FILLING:
            raise PhaseError(f"{mix_id} is not accepting deposits")
        if pk.is_infinity or pk.curve != self.pp.curve:
            raise MixerError("deposit key is not a valid point on the mix curve")
        pk_hex = pk.encode().hex()
        if any(existing == pk_hex for existing, _ in pool.deposits):
            raise MixerError("public key already deposited in this pool")
        self._debit(from_account, pool.denomination)
        pool.balance += pool.denomination
        pool.deposits.append((pk_hex, from_account))
        if len(pool.deposits) == pool.capacity:
            pool.phase = Phase.RING_PUBLISHED
        return len(pool.deposits)

    def mix_ring(self, mix_id: str) -> Ring:
        return self._pool(mix_id).ring(self.pp.curve)

    def mix_withdraw(self, mix_id: str, sig_bytes: bytes,
                     payout_address: str) -> WithdrawStatus:
        """Verify, check the tag set, then pay out, as one atomic step.

        The tag enters seen_tags only on success, so a failed attempt does
        not burn the member's withdrawal right.
        """
        pool = self._pool(mix_id)
        if pool.phase is not Phase.RING_PUBLISHED:
            return WithdrawStatus.WRONG_PHASE
        ring = pool.ring(self.pp.curve)
        msg = withdraw_message(mix_id, payout_address)
        try:
            sig = decode_signature(sig_bytes, self.pp.curve, msg, ring)
        except RingSizeMismatchError:
            return WithdrawStatus.WRONG_RING
        except SignatureFormatError:
            return WithdrawStatus.BAD_SIGNATURE
        if not ring_verify(self.pp, ring, msg, sig):
            return WithdrawStatus.BAD_SIGNATURE
        tag_bytes = sig.tau.point.encode()
        if tag_bytes in pool.seen_tags:
            return WithdrawStatus.TAG_REUSE
        if pool.balance < pool.denomination:
            return WithdrawStatus.POOL_EMPTY
        pool.seen_tags.add(tag_bytes)
        pool.balance -= pool.denomination
        self.fund(payout_address, pool.denomination)
        pool.payouts.append((payout_address, tag_bytes.hex()))
        return WithdrawStatus.ACCEPTED

    def mix_close(self, mix_id: str) -> None:
        """Administratively close an under-filled pool, refunding deposits."""
        pool = self._pool(mix_id)
        if pool.phase is not Phase.FILLING:
            raise PhaseError("only a filling pool can be closed with refunds")
        for _, funder in pool.deposits:
            self.fund(funder, pool.denomination)
            pool.refunds.append(funder)
            pool.balance -= pool.denomination
        pool.phase = Phase.CLOSED

    def mix_status(self, mix_id: str) -> dict:
        pool = self._pool(mix_id)
        return {
            "mix_id": pool.mix_id,
            "phase": pool.phase.value,
            "denomination": pool.denomination,
            "capacity": pool.capacity,
            "deposits": len(pool.deposits),
            "tags_seen": len(pool.seen_tags),
            "payouts": len(pool.payouts),
            "balance": pool.balance,
        }

    def check_conservation(self, mix_id: str) -> None:
        """denomination * deposits == payouts + refunds + remaining balance."""
        pool = self._pool(mix_id)
        if pool.balance < 0:
            raise MixerError(f"{mix_id}: negative balance {pool.balance}")
        moved_in = pool.denomination * len(pool.deposits)
        moved_out = pool.denomination * (len(pool.payouts) + len(pool.refunds))
        if moved_in != moved_out + pool.balance:
            raise MixerError(
                f"{mix_id}: conservation broken, in={moved_in} "
                f"out={moved_out} balance={pool.balance}"
            )
        if len(pool.payouts) != len(pool.seen_tags):
            raise MixerError(f"{mix_id}: payout/tag count mismatch")


# ---------------------------------------------------------------------------
# Attack demonstrations


def attack_naive_hash(ring: Ring, sig: Signature, msg: bytes) -> int | None:
    """Recover the signer index from a generator-multiple-hash signature.

    Under that hash, H(m||R) = e*g for a publicly computable e, so the tag
    sk*H(m||R) equals e*pk: a pure function of public values.  Comparing
    e*pk against the tag for each ring member names the signer.  Returns
    None when nothing matches, which is the expected outcome against the
    secure hash variants.
    """
    curve = ring.curve
    e = insecure_hash_exponent(ring_message_bytes(msg, ring), curve)
    for idx, pk in enumerate(ring):
        if e * pk == sig.tau.point:
            return idx
    return None


def attack_tag_reveal(pp: PublicParams, ring: Ring, sig: Signature, msg: bytes,
                      revealed_sks: list[Scalar]) -> list[int]:
    """Shrink the anonymity set using keys volunteered by ring members.

    Each revealed key lets anyone compute that member's would-be tag for
    this (message, ring); a mismatch with the signature's tag eliminates
    the member.  With n-1 reveals the honest signer stands alone.
    """
    h = ring_message_point(pp, msg, ring)
    g = pp.curve.g
    survivors = set(range(len(ring)))
    for sk in revealed_sks:
        idx = ring.index_of(sk * g)  # raises if the key is not a member
        if sk * h != sig.tau.point:
            survivors.discard(idx)
    return sorted(survivors)


# ---------------------------------------------------------------------------
# State file


# The state document's fixed shape, as json.dumps(doc, indent=2,
# sort_keys=True) lays it out.  Each %s is an encoded JSON value.
_HEAD = """{
  "accounts": %s,
  "next_pool_seq": %d,
  "params": {
    "curve": %s,
    "hash": %s,
    "insecure_override": %s,
    "security_bits": %d
  },
  "pools": """
_POOL = """    %s: {
      "balance": %d,
      "capacity": %d,
      "denomination": %d,
      "deposits": %s,
      "payouts": %s,
      "phase": %s,
      "refunds": %s,
      "seen_tags": %s
    }"""
_DEPOSIT = '{\n          "from": %s,\n          "pk": %s\n        }'
_PAYOUT = '{\n          "address": %s,\n          "tag": %s\n        }'


def _list(items) -> str:
    """One of a pool's JSON lists, from its encoded ``items``."""
    text = ",\n        ".join(items)  # no encoded item is empty
    return f"[\n        {text}\n      ]" if text else "[]"


def _write_state(mixer: Mixer, fh) -> None:
    """Write the ledger as ``json.dumps(doc, indent=2, sort_keys=True)``
    writes its document, one pool per ``fh.write``.  TypeError if a number
    is not an int, the flag not a bool, or a name, key or tag not a str."""
    # Imported on use, as in load_state: nothing else needs json.
    from json.encoder import encode_basestring_ascii as q

    pp = mixer.pp
    numbers = [mixer._next_seq, pp.security_bits, *mixer.accounts.values()]
    if type(pp.insecure_override) is not bool or set(map(type, numbers)) - {int}:
        raise TypeError("a ledger number is not an int or its flag not a bool")
    accounts = ",\n    ".join(f"{q(name)}: {balance}" for name, balance
                              in sorted(mixer.accounts.items()))
    fh.write(_HEAD % (
        "{\n    " + accounts + "\n  }" if accounts else "{}",
        mixer._next_seq, q(pp.curve.curve_id), q(pp.h_variant.value),
        "true" if pp.insecure_override else "false", pp.security_bits))
    sep = "{\n"
    for mix_id, pool in sorted(mixer.pools.items()):
        numbers = pool.balance, pool.capacity, pool.denomination
        if set(map(type, numbers)) != {int}:
            raise TypeError(f"{mix_id}: a count or balance is not an int")
        fh.write(sep + _POOL % (
            q(mix_id), *numbers,
            _list([_DEPOSIT % (q(f), q(pk)) for pk, f in pool.deposits]),
            _list([_PAYOUT % (q(a), q(t)) for a, t in pool.payouts]),
            q(pool.phase.value), _list(map(q, pool.refunds)),
            _list(map(q, sorted([t.hex() for t in pool.seen_tags])))))
        sep = ",\n"
    fh.write(("\n  }" if mixer.pools else "{}")
             + f',\n  "version": {STATE_VERSION}\n}}\n')


def save_state(mixer: Mixer, path: str) -> None:
    """Write the whole ledger as deterministic, human-readable JSON.

    It is written one pool at a time, so a save holds one pool's text.
    The bytes go to ``path + ".tmp"`` and are fsynced before the rename
    over ``path``, so a crash leaves either the old file or the new one.
    The rename goes through a symlink to its target, and a file that
    existed keeps its permission bits.
    """
    path = os.path.realpath(path)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            _write_state(mixer, fh)
            fh.flush()
            os.fsync(fh.fileno())
        with contextlib.suppress(FileNotFoundError):
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_state(path: str) -> Mixer:
    """Read a ledger; any unreadable or malformed file is a MixerError."""
    import json

    try:
        with open(path, encoding="utf-8") as fh:
            return _mixer_from_doc(json.load(fh))
    except OSError as exc:
        raise MixerError(f"{path}: {exc.strerror}") from None
    except RingmixError as exc:
        raise MixerError(f"{path}: {exc}") from None
    except (ValueError, KeyError, TypeError, AttributeError,
            RecursionError) as exc:
        raise MixerError(
            f"{path}: malformed state file ({type(exc).__name__}: {exc})"
        ) from None


def _int(value, what: str, least: int | None = None) -> int:
    # JSON true and false load as bools, which are ints to Python.
    if type(value) is not int:
        raise MixerError(f"{what} is {type(value).__name__}, not an integer")
    if least is not None and value < least:
        raise MixerError(f"{what} is {value}, below {least}")
    return value


# The keys the writer writes, by where they stand; load refuses any other.
_KEYS = {
    "the state file": {"accounts", "next_pool_seq", "params", "pools",
                       "version"},
    "params": {"curve", "hash", "insecure_override", "security_bits"},
    "the pool": {"balance", "capacity", "denomination", "deposits", "payouts",
                 "phase", "refunds", "seen_tags"},
    "a deposit": {"from", "pk"},
    "a payout": {"address", "tag"},
}


def _known_keys(where: str, recs, at: str = "") -> None:
    """Refuses a key of ``recs`` that the writer never writes there."""
    extra = set().union(*map(dict.keys, recs)) - _KEYS[where]
    if extra:
        raise MixerError(f"{at}unknown key {min(extra)!r} in {where}")


def _mixer_from_doc(doc) -> Mixer:
    if doc.get("version") != STATE_VERSION:
        raise MixerError(f"unsupported state version {doc.get('version')!r}")
    params = doc["params"]
    _known_keys("the state file", [doc])
    _known_keys("params", [params])
    curve = CURVES.get(params["curve"])
    if curve is None:
        raise MixerError(f"unknown curve {params['curve']!r} in state file")
    override = params.get("insecure_override", False)
    if type(override) is not bool:  # "false" would turn the override on
        raise MixerError(
            f"insecure_override is {type(override).__name__}, not a boolean")
    pp = setup(
        _int(params["security_bits"], "security_bits"),
        curve,
        HashVariant(params["hash"]),
        insecure_override=override,
    )
    mixer = Mixer(pp)
    mixer._next_seq = next_seq = _int(doc["next_pool_seq"], "next_pool_seq")
    mixer.accounts = {address: _int(balance, f"account {address!r}", 0)
                      for address, balance in doc["accounts"].items()}
    for mix_id, rec in doc["pools"].items():
        denomination, capacity, balance = (
            rec["denomination"], rec["capacity"], rec["balance"])
        # _int only to raise: the check inline, its messages on failure.
        if not (type(denomination) is type(capacity) is type(balance) is int
                and denomination >= 1 and capacity >= 2):
            _int(denomination, f"{mix_id} denomination", 1)
            _int(capacity, f"{mix_id} capacity", 2)
            _int(balance, f"{mix_id} balance")
        pool = MixPool(
            mix_id, denomination, capacity, Phase(rec["phase"]),
            [(d["pk"], d["from"]) for d in rec["deposits"]],
            {bytes.fromhex(t) for t in rec["seen_tags"]},
            [(pmt["address"], pmt["tag"]) for pmt in rec["payouts"]],
            rec["refunds"], balance)
        # A string would pass as refunds.  Decoding keys is left to
        # MixPool.ring, but a key that is not a string could not be saved.
        strings = chain(pool.refunds, *pool.deposits, *pool.payouts)
        if type(rec["refunds"]) is not list or set(map(type, strings)) - {str}:
            raise MixerError(
                f"{mix_id}: an account, key or tag is not a string")
        # Each key _KEYS names for a pool, a deposit and a payout was read
        # above, or was a KeyError: only a longer dict can hold another.
        pairs = rec["deposits"] + rec["payouts"]
        if len(rec) > len(_KEYS["the pool"]) or (
                sum(map(len, pairs)) > 2 * len(pairs)):
            for where, recs in (("the pool", [rec]),
                                ("a deposit", rec["deposits"]),
                                ("a payout", rec["payouts"])):
                _known_keys(where, recs, f"{mix_id}: ")
        mixer.pools[mix_id] = pool
        # Books that no lifecycle leaves are refused, and so is a
        # next_pool_seq that would let mix_create give out this id again.
        mixer.check_conservation(mix_id)
        if pool.seen_tags != {bytes.fromhex(tag) for _, tag in pool.payouts}:
            raise MixerError(f"{mix_id}: seen tags differ from the payout tags")
        count = len(pool.deposits)
        if count > pool.capacity or (count == pool.capacity) != (
                pool.phase is Phase.RING_PUBLISHED):
            raise MixerError(f"{mix_id}: {count} deposits in a {rec['phase']} "
                             f"pool of capacity {pool.capacity}")
        number = mix_id.removeprefix("mix-")
        if number != mix_id and number.isdecimal() and int(number) >= next_seq:
            raise MixerError(f"next_pool_seq {next_seq} would reuse {mix_id}")
    return mixer
