"""The three benchmark workloads.

Each workload is a closed loop with one client: one operation at a time,
no threads, no subprocesses.  It calls ringmix's public functions through
their module attributes (``urs.ring_sign``, not a local alias), so that
the traced run's wrappers and the self-test's patches see every call.

Inputs come from two streams derived from the seed: ``inputs`` draws keys,
rings, messages and command arguments, ``nonces`` feeds ``ring_sign``.  A
change to how signing consumes randomness therefore leaves every key, ring
and ledger of a workload unchanged.

A workload runs in rounds.  Every round of a workload does the same
operations in the same order, so per-round counts in the traced run repeat
exactly from one run to the next.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random

from ringmix import cli, mixer, urs
from ringmix.curve import SECP256K1
from ringmix.hashing import HashVariant
from ringmix.mixer import MixerError, WithdrawStatus


def stream(workload: str, seed: int, purpose: str) -> random.Random:
    label = f"ringmix-bench|{workload}|{seed}|{purpose}".encode()
    return random.Random(int.from_bytes(hashlib.sha256(label).digest(), "big"))


def public_params() -> urs.PublicParams:
    return urs.setup(128, SECP256K1, HashVariant.FT_DETERMINISTIC)


def key_chain(pp: urs.PublicParams, rng: random.Random, count: int) -> list:
    """``count`` distinct fixture public keys for ledgers nobody signs from.

    One scalar multiplication for a random start, then one point addition
    per further key, so a ledger of hundreds of pools builds in
    milliseconds instead of one 20 ms ``ring_gen`` per key.
    """
    g = pp.curve.g
    pk = urs.ring_gen(pp, rng).pk
    keys = []
    for _ in range(count):
        keys.append(pk)
        pk = pk + g
    return keys


def conserved(run, m: mixer.Mixer, mix_id: str) -> None:
    """Record a failure unless the pool's books balance."""
    try:
        m.check_conservation(mix_id)
    except MixerError as exc:
        run.expect(False, f"conservation: {exc}")


class Workload:
    name = ""
    headline = ""      # the op whose latency is op_ms_*
    throughput = ""    # the name ops_per_s carries in the report

    def __init__(self, seed: int, workdir: str):
        self.inputs = stream(self.name, seed, "inputs")
        self.nonces = stream(self.name, seed, "nonces")
        self.workdir = workdir
        self.completed = 0  # units counted by ops_per_s

    def build(self) -> None:
        raise NotImplementedError

    def round(self, run, r: int) -> None:
        raise NotImplementedError

    def finish(self, run) -> None:
        """Checks on the final state, after the last round."""


# ---------------------------------------------------------------------------


class PoolCap4(Workload):
    """Full pool lifecycle at capacity 4, one pool per round.

    Per pool: 4 keygens, fund and deposit, publish the ring, 4 honest
    sign + withdraw, 2 re-signed replays (TAG_REUSE), one accepted blob
    replayed against another pool (BAD_SIGNATURE) and one blob cut to the
    wrong ring size (WRONG_RING).  Rings are small, so single-base
    multiplications and per-step inversions of the 8-job batch dominate.
    """

    name = "pool-cap4"
    headline = "withdraw"
    throughput = "payouts_per_s"
    CAPACITY = 4
    DENOMINATION = 10
    REPLAYS = 2

    def build(self) -> None:
        self.pp = public_params()
        self.mixer = mixer.Mixer(self.pp)
        self.mixer.fund("bank", self.DENOMINATION * self.CAPACITY)
        # A published pool that cross-pool replays are presented to.
        self.decoy = self.mixer.mix_create(self.DENOMINATION, self.CAPACITY)
        for pk in key_chain(self.pp, self.inputs, self.CAPACITY):
            self.mixer.mix_deposit(self.decoy, pk, "bank")

    def _withdraw(self, run, mix_id, blob, payout, expected) -> bool:
        status = run.time("withdraw", self.mixer.mix_withdraw,
                          mix_id, blob, payout)
        run.expect(status is expected,
                   f"{mix_id} withdraw gave {status}, expected {expected}")
        conserved(run, self.mixer, mix_id)
        return status is expected

    def round(self, run, r: int) -> None:
        m, pp, cap, denom = self.mixer, self.pp, self.CAPACITY, self.DENOMINATION
        keys = [run.time("keygen", urs.ring_gen, pp, self.inputs)
                for _ in range(cap)]
        mix_id = m.mix_create(denom, cap)
        for i, pair in enumerate(keys):
            funder = f"depositor-{r}-{i}"
            m.fund(funder, denom)
            m.mix_deposit(mix_id, pair.pk, funder)
            conserved(run, m, mix_id)
        ring = m.mix_ring(mix_id)
        run.expect(set(ring) == {pair.pk for pair in keys},
                   f"{mix_id} published the wrong ring")

        blobs, tags = [], []
        for i, pair in enumerate(keys):
            payout = f"payout-{r}-{i}"
            msg = mixer.withdraw_message(mix_id, payout)
            sig = run.time("sign", urs.ring_sign, pp, pair.sk, ring, msg,
                           self.nonces)
            blob = urs.encode_signature(sig)
            if self._withdraw(run, mix_id, blob, payout,
                              WithdrawStatus.ACCEPTED):
                self.completed += 1
            run.expect(m.balance(payout) == denom, f"{payout} was not paid")
            blobs.append(blob)
            tags.append(sig.tau)
        run.expect(len(set(tags)) == cap, "distinct members gave equal tags")

        for i in range(self.REPLAYS):
            payout = f"payout-{r}-{i}"
            msg = mixer.withdraw_message(mix_id, payout)
            sig = run.time("sign", urs.ring_sign, pp, keys[i].sk, ring, msg,
                           self.nonces)
            run.expect(sig.tau == tags[i], "re-sign changed the tag")
            self._withdraw(run, mix_id, urs.encode_signature(sig), payout,
                           WithdrawStatus.TAG_REUSE)
        self._withdraw(run, self.decoy, blobs[2], f"payout-{r}-2",
                       WithdrawStatus.BAD_SIGNATURE)
        pair_bytes = 2 * pp.curve.scalar_bytes
        self._withdraw(run, mix_id, blobs[3][:-pair_bytes], f"payout-{r}-3",
                       WithdrawStatus.WRONG_RING)
        run.expect(m.pools[mix_id].balance == 0, f"{mix_id} not drained")


# ---------------------------------------------------------------------------


class Ring32(Workload):
    """Sign and verify at ring size 32, one signature per round.

    Per round: four fresh members replace random ones, the ring is
    canonicalized from a shuffled key list, a random member signs a random
    message, and four verifies run: the signer's self-check, the
    recipient's check of the decoded wire bytes, one flipped t_j and the
    wrong message.  The last two must reject.  64-job batches amortize the
    inversions, so per-job double and add cost dominates.
    """

    name = "ring-32"
    headline = "verify"
    throughput = "signatures_per_s"
    SIZE = 32
    CHURN = 4  # members replaced per round

    def build(self) -> None:
        self.pp = public_params()
        self.keys = [urs.ring_gen(self.pp, self.inputs)
                     for _ in range(self.SIZE)]

    def _verify(self, run, ring, msg, sig, expected: bool, what: str) -> bool:
        ok = run.time("verify", urs.ring_verify, self.pp, ring, msg, sig)
        run.expect(ok is expected, f"{what}: verify gave {ok}")
        return ok is expected

    def _verify_blob(self, run, ring, msg, blob, what: str) -> None:
        try:
            sig = run.time("decode", urs.decode_signature, blob,
                           self.pp.curve, msg, ring)
        except urs.SignatureFormatError:
            return  # a flip that leaves the scalar range also rejects
        self._verify(run, ring, msg, sig, False, what)

    def round(self, run, r: int) -> None:
        pp, rng, size = self.pp, self.inputs, self.SIZE
        for _ in range(self.CHURN):
            self.keys[rng.randrange(size)] = run.time(
                "keygen", urs.ring_gen, pp, rng)
        pks = [pair.pk for pair in self.keys]
        rng.shuffle(pks)
        ring = run.time("ring", urs.canonical_ring, pks)
        encoded = [pk.encode() for pk in ring]
        run.expect(len(ring) == size and encoded == sorted(encoded),
                   "ring is not canonical")

        signer = self.keys[rng.randrange(size)]
        msg = rng.randbytes(48)
        sig = run.time("sign", urs.ring_sign, pp, signer.sk, ring, msg,
                       self.nonces)
        self._verify(run, ring, msg, sig, True, "self-check")
        blob = run.time("encode", urs.encode_signature, sig)
        run.expect(len(blob) == 64 * (size + 1), f"{len(blob)}-byte signature")
        got = run.time("decode", urs.decode_signature, blob, pp.curve, msg,
                       ring)
        run.expect(got == sig, "decode(encode(sig)) differs from sig")
        if self._verify(run, ring, msg, got, True, "decoded"):
            self.completed += 1

        # Flip one bit in the low half of a random t_j.
        bad = bytearray(blob)
        bad[64 + 64 * rng.randrange(size) + 48 + rng.randrange(16)] ^= (
            1 << rng.randrange(8))
        self._verify_blob(run, ring, msg, bytes(bad), "flipped t_j")
        self._verify_blob(run, ring, msg + b"!", blob, "wrong message")


# ---------------------------------------------------------------------------


class LedgerCli(Workload):
    """``ringmix mix`` commands in-process against a ledger of 300 pools.

    Every command reloads and rewrites the whole state file and builds
    params twice (``cli._build_params`` and ``load_state``), so state I/O
    and curve validation dominate; nothing signs.  A round is eleven
    commands: fund, create, deposit, status, three more deposits and ring
    on a new capacity-4 pool, then status, ring and message on random
    fixture pools.  Each deposit's client makes its key first, so a round
    also times four keygens.  The benchmark keeps a shadow ``Mixer`` that
    predicts every output line.
    """

    name = "ledger-cli"
    headline = "cli"
    throughput = "cli_cmds_per_s"
    POOLS = 300
    CAPACITY = 4
    FUNDERS = 40
    DENOMINATIONS = (1, 5, 10, 50)

    def build(self) -> None:
        self.pp = public_params()
        self.path = os.path.join(self.workdir, "ledger.json")
        self.argv = ["--curve", "secp256k1", "--hash", "ft",
                     "--state", self.path, "mix"]
        rng, cap = self.inputs, self.CAPACITY
        m = self.shadow = mixer.Mixer(self.pp)
        keys = iter(key_chain(self.pp, rng, self.POOLS * cap))
        self.published = []
        for i in range(self.POOLS):
            denom = rng.choice(self.DENOMINATIONS)
            funder = f"funder-{i % self.FUNDERS:03d}"
            mix_id = m.mix_create(denom, cap)
            m.fund(funder, denom * cap)
            kind = i % 10
            count = rng.randrange(1, cap) if kind < 2 else cap
            for _ in range(count):
                m.mix_deposit(mix_id, next(keys), funder)
            if kind == 0:
                m.mix_close(mix_id)
            elif kind > 1:
                self.published.append(mix_id)
        mixer.save_state(m, self.path)

    def _cli(self, run, args: list[str], expect) -> None:
        """Run one command, then apply it to the shadow and compare."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = run.time("cli", cli.main, self.argv + args)
            except SystemExit as exc:  # argparse rejected the command line
                rc = exc.code
        want = expect()
        run.expect(rc == 0 and out.getvalue() == want,
                   f"mix {' '.join(args)}: rc={rc} out={out.getvalue()!r} "
                   f"want={want!r} err={err.getvalue().strip()!r}")
        self.completed += 1

    def _status_line(self, mix_id: str) -> str:
        info = self.shadow.mix_status(mix_id)
        return " ".join(f"{k}={v}" for k, v in info.items()) + "\n"

    def _ring_lines(self, mix_id: str) -> str:
        return "".join(pk + "\n"
                       for pk in sorted(pk for pk, _ in
                                        self.shadow.pools[mix_id].deposits))

    def _deposit(self, run, mix_id: str, funder: str) -> None:
        pk = run.time("keygen", urs.ring_gen, self.pp, self.inputs).pk
        m = self.shadow

        def apply():
            count = m.mix_deposit(mix_id, pk, funder)
            return f"deposits {count}/{m.pools[mix_id].capacity}\n"
        self._cli(run, ["deposit", "--mix", mix_id, "--pk", pk.encode().hex(),
                        "--from", funder], apply)
        conserved(run, m, mix_id)

    def round(self, run, r: int) -> None:
        m, rng, cap = self.shadow, self.inputs, self.CAPACITY
        denom = rng.choice(self.DENOMINATIONS)
        funder = f"client-{r:05d}"

        def fund():
            m.fund(funder, cap * denom)
            return f"{funder} {m.balance(funder)}\n"
        self._cli(run, ["fund", "--account", funder, "--amount",
                        str(cap * denom)], fund)
        mix_id = f"mix-{m._next_seq:04d}"
        self._cli(run, ["create", "--denomination", str(denom),
                        "--capacity", str(cap)],
                  lambda: m.mix_create(denom, cap) + "\n")
        self._deposit(run, mix_id, funder)
        self._cli(run, ["status", "--mix", mix_id],
                  lambda: self._status_line(mix_id))
        for _ in range(cap - 1):
            self._deposit(run, mix_id, funder)
        self._cli(run, ["ring", "--mix", mix_id],
                  lambda: self._ring_lines(mix_id))

        other = f"mix-{rng.randrange(1, self.POOLS + 1):04d}"
        self._cli(run, ["status", "--mix", other],
                  lambda: self._status_line(other))
        published = rng.choice(self.published)
        self._cli(run, ["ring", "--mix", published],
                  lambda: self._ring_lines(published))
        payout = f"addr-{rng.getrandbits(64):016x}"
        self._cli(run, ["message", "--mix", other, "--payout", payout],
                  lambda: mixer.withdraw_message(other, payout).decode() + "\n")
        with run.checking():
            self._check_file(run)

    def _check_file(self, run) -> None:
        """The state file reloads to the shadow ledger and conserves."""
        try:
            disk = mixer.load_state(self.path)
        except (MixerError, OSError, ValueError, KeyError) as exc:
            run.expect(False, f"state file does not reload: {exc!r}")
            return
        same = (disk.accounts == self.shadow.accounts
                and disk.pools == self.shadow.pools
                and disk._next_seq == self.shadow._next_seq)
        run.expect(same, "state file differs from the expected ledger")
        for mix_id in disk.pools:
            conserved(run, disk, mix_id)

    def finish(self, run) -> None:
        with run.checking():
            self._check_file(run)


WORKLOADS = {cls.name: cls for cls in (PoolCap4, Ring32, LedgerCli)}
