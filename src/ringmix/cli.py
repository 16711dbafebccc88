"""Command-line interface: keygen, sign/verify/link, the mix lifecycle,
attack demos, and benchmarks.

Exit codes are a stable scripting contract: 0 success or accept, 1 verify
or withdraw reject (and failed link precondition), 2 usage error, 3 state
or input error.

All outputs are single machine-readable lines; hex is lowercase.  With
--seed every command is deterministic, including generated keys and the
state file bytes, which is what the reproducible test scenarios use.
Without --seed, key material comes from the system entropy pool.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import os
import random
import sys
import time

from .curve import CURVES, CurveError, Point, RingmixError
from .hashing import HashVariant
from .mixer import (
    Mixer,
    WithdrawStatus,
    attack_naive_hash,
    attack_tag_reveal,
    load_state,
    save_state,
    withdraw_message,
)
from .urs import (
    PublicParams,
    Ring,
    UrsError,
    decode_signature,
    encode_signature,
    link,
    ring_gen,
    ring_sign,
    ring_verify,
    setup,
)

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_USAGE = 2
EXIT_STATE = 3


class CliError(RingmixError):
    """Input problem that maps to the state-error exit code."""


# --curve and --hash default to None so that a mix command can tell a flag
# that was given from one that was left out.
DEFAULT_CURVE = "secp256k1"
DEFAULT_HASH = "ft"


def _build_params(args) -> PublicParams:
    return setup(128, CURVES[args.curve or DEFAULT_CURVE],
                 HashVariant(args.hash or DEFAULT_HASH),
                 insecure_override=args.allow_insecure)


def _check_ledger_flags(args, mixer: Mixer) -> None:
    # A given --curve or --hash must match the ledger; one left out follows it.
    curve, hash_ = mixer.pp.curve.curve_id, mixer.pp.h_variant.value
    if args.curve not in (None, curve) or args.hash not in (None, hash_):
        raise CliError(
            f"{args.state}: ledger uses --curve {curve} --hash {hash_}, "
            f"not --curve {args.curve or curve} --hash {args.hash or hash_}")


def _rng(args):
    if args.seed is not None:
        return random.Random(args.seed)
    return random.SystemRandom()


def _read_text(path: str) -> str:
    if not path:
        raise CliError("empty file name")
    # Undecodable bytes fail the hex parse that follows, with its message.
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()


def _message_bytes(args) -> bytes:
    # argparse has already required exactly one of the two flags.  --msg
    # signs the argument's own bytes, which need not be UTF-8.
    if args.msg_hex is None:
        return os.fsencode(args.msg)
    try:
        return bytes.fromhex(args.msg_hex)
    except ValueError:
        raise CliError("--msg-hex is not valid hex") from None


def _sig_bytes(value: str) -> bytes:
    # "@path" reads the hex from a file, anything else is inline hex
    if value.startswith("@"):
        value = _read_text(value[1:]).strip()
    try:
        return bytes.fromhex(value)
    except ValueError:
        raise CliError("signature is not valid hex") from None


def _load_ring(path: str, pp: PublicParams) -> Ring:
    pks = []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            pks.append(Point.decode(pp.curve, bytes.fromhex(line)))
        except (ValueError, CurveError) as exc:
            raise CliError(f"{path}:{lineno}: {exc}") from None
    try:
        return Ring(pks)
    except UrsError as exc:
        raise CliError(f"{path}: {exc}") from None


def _load_key(path: str, pp: PublicParams):
    raw = _read_text(path).strip()
    try:
        value = int(raw, 16)
    except ValueError:
        raise CliError(f"{path}: secret key file is not hex") from None
    if not 0 < value < pp.curve.n:
        raise CliError(f"{path}: secret key out of range")
    return pp.curve.scalar(value)


# ---------------------------------------------------------------------------
# Signature commands


def cmd_keygen(args, pp: PublicParams) -> int:
    if not args.out:
        raise CliError("--out is an empty path")
    pair = ring_gen(pp, _rng(args))
    sk_path = args.out + ".sk"
    pk_path = args.out + ".pk"
    sk_hex = pair.sk.value.to_bytes(pp.curve.scalar_bytes, "big").hex()
    # Owner-only before the first byte: a new file is made 0600, and an
    # existing one loses its group and other bits before it is rewritten.
    fd = os.open(sk_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    with open(fd, "w", encoding="utf-8") as fh:
        os.fchmod(fd, 0o600)
        fh.write(sk_hex + "\n")
    with open(pk_path, "w", encoding="utf-8") as fh:
        fh.write(pair.pk.encode().hex() + "\n")
    print(pair.pk.encode().hex())
    return EXIT_OK


def cmd_sign(args, pp: PublicParams) -> int:
    sk = _load_key(args.key, pp)
    ring = _load_ring(args.ring, pp)
    msg = _message_bytes(args)
    sig = ring_sign(pp, sk, ring, msg, _rng(args))
    hexsig = encode_signature(sig).hex()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(hexsig + "\n")
    print(hexsig)
    return EXIT_OK


def _decode_or_reject(pp, data, msg, ring):
    try:
        return decode_signature(data, pp.curve, msg, ring)
    except UrsError:
        return None


def cmd_verify(args, pp: PublicParams) -> int:
    ring = _load_ring(args.ring, pp)
    msg = _message_bytes(args)
    sig = _decode_or_reject(pp, _sig_bytes(args.sig), msg, ring)
    if sig is not None and ring_verify(pp, ring, msg, sig):
        print("ACCEPT")
        return EXIT_OK
    print("REJECT")
    return EXIT_REJECT


def cmd_link(args, pp: PublicParams) -> int:
    ring = _load_ring(args.ring, pp)
    msg = _message_bytes(args)
    sigs = []
    for label, value in (("sig1", args.sig1), ("sig2", args.sig2)):
        sig = _decode_or_reject(pp, _sig_bytes(value), msg, ring)
        if sig is None or not ring_verify(pp, ring, msg, sig):
            print(f"REJECT {label}")
            return EXIT_REJECT
        sigs.append(sig)
    print(link(sigs[0], sigs[1]).value.upper())
    return EXIT_OK


# ---------------------------------------------------------------------------
# Mix commands


@contextlib.contextmanager
def _state_lock(path: str):
    # Beside the file that save_state replaces, so that a symlink and its
    # target take one lock.  Closing the file releases the lock.
    if os.path.islink(path):
        path = os.path.realpath(path)
    with open(path + ".lock", "w") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        yield


# These change nothing, so an existing state file is not rewritten.  A
# missing one is still created, as every other mix command does.
_READ_ONLY_MIX = ("ring", "message", "status")


def cmd_mix(args, pp: None) -> int:
    # No parameters come in: an existing ledger brings its own curve and
    # hash, and only a new one is built from the flags.
    # Refused before the lock file is made.
    if not args.state:
        raise CliError("--state is an empty path")
    if os.path.isdir(args.state):
        raise CliError(f"{args.state}: Is a directory")
    with _state_lock(args.state):
        existed = os.path.exists(args.state)
        if existed:
            mixer = load_state(args.state)
            _check_ledger_flags(args, mixer)
        else:
            mixer = Mixer(_build_params(args))
        rc = EXIT_OK
        if args.mix_cmd == "create":
            out = mixer.mix_create(args.denomination, args.capacity)
        elif args.mix_cmd == "fund":
            mixer.fund(args.account, args.amount)
            out = f"{args.account} {mixer.balance(args.account)}"
        elif args.mix_cmd == "deposit":
            pk_hex = args.pk
            if os.path.exists(pk_hex):
                pk_hex = _read_text(pk_hex).strip()
            try:
                pk = Point.decode(mixer.pp.curve, bytes.fromhex(pk_hex))
            except (ValueError, CurveError) as exc:
                raise CliError(f"bad public key: {exc}") from None
            count = mixer.mix_deposit(args.mix, pk, getattr(args, "from"))
            out = f"deposits {count}/{mixer.pools[args.mix].capacity}"
        elif args.mix_cmd == "ring":
            ring = mixer.mix_ring(args.mix)
            out = "\n".join(pk.encode().hex() for pk in ring)
        elif args.mix_cmd == "message":
            out = withdraw_message(args.mix, args.payout).decode(
                errors="surrogateescape")
        elif args.mix_cmd == "withdraw":
            status = mixer.mix_withdraw(
                args.mix, _sig_bytes(args.sig), args.payout
            )
            out = status.value.upper().replace("-", "_")
            rc = EXIT_OK if status is WithdrawStatus.ACCEPTED else EXIT_REJECT
        elif args.mix_cmd == "status":
            info = mixer.mix_status(args.mix)
            out = " ".join(f"{k}={v}" for k, v in info.items())
        elif args.mix_cmd == "close":
            mixer.mix_close(args.mix)
            out = f"refunds {len(mixer.pools[args.mix].refunds)}"
        else:  # pragma: no cover - argparse restricts choices
            raise CliError(f"unknown mix command {args.mix_cmd!r}")
        # Printed only once the ledger is saved, so no failed save reports
        # a change it did not keep.
        if not (existed and args.mix_cmd in _READ_ONLY_MIX):
            save_state(mixer, args.state)
    print(out)
    return rc


# ---------------------------------------------------------------------------
# Attack demos and benchmarks


def cmd_attack(args, pp: PublicParams) -> int:
    ring = _load_ring(args.ring, pp)
    msg = _message_bytes(args)
    sig = _decode_or_reject(pp, _sig_bytes(args.sig), msg, ring)
    if sig is None:
        raise CliError("signature does not parse against this ring")
    if args.attack_cmd == "naive-hash":
        idx = attack_naive_hash(ring, sig, msg)
        if idx is None:
            print("attack-failed")
        else:
            print(f"signer-index {idx}")
        return EXIT_OK
    # tag-reveal
    sks = [_load_key(path, pp) for path in args.keys.split(",")]
    survivors = attack_tag_reveal(pp, ring, sig, msg, sks)
    print("anonymity-set " + ",".join(str(i) for i in survivors))
    return EXIT_OK


def cmd_bench(args, pp: PublicParams) -> int:
    rng = _rng(args)
    print(f"{'ring':>6} {'sign_ms':>10} {'verify_ms':>10} {'keygen_ms':>10} "
          f"{'sig_bytes':>10}")
    # sk is drawn from [1, n), so a curve holds at most n - 1 distinct keys;
    # the default leaves out the sizes it cannot supply, an explicit list
    # keeps them and fails on them.
    sizes = args.sizes or [s for s in _BENCH_SIZES if s < pp.curve.n]
    for size in sizes:
        keys = []
        seen = set()
        keygen_s = []
        while len(keys) < size:  # tiny curves can collide, resample
            if len(keygen_s) >= 100 * size:
                raise CliError(f"cannot draw {size} distinct keys on this curve")
            t0 = time.perf_counter()
            pair = ring_gen(pp, rng)
            keygen_s.append(time.perf_counter() - t0)
            if pair.pk not in seen:
                seen.add(pair.pk)
                keys.append(pair)
        ring = Ring(k.pk for k in keys)
        msg = f"bench-{size}".encode()
        for signer in keys:
            t0 = time.perf_counter()
            try:
                sig = ring_sign(pp, signer.sk, ring, msg, rng)
                break
            except UrsError:
                # Only a degenerate tag: on a curve of composite order the
                # order of H(m||R) can divide a key.  ring_sign raises it
                # before it draws from rng, so the next key signs as the
                # first would have.
                if signer is keys[-1]:
                    raise
        t1 = time.perf_counter()
        ok = ring_verify(pp, ring, msg, sig)
        t2 = time.perf_counter()
        if not ok:
            raise CliError(f"benchmark signature failed to verify at size {size}")
        blob = encode_signature(sig)
        # the median; of an even count the lower middle value, which leaves
        # out the first call's table build at size 2
        keygen_ms = sorted(keygen_s)[(len(keygen_s) - 1) // 2] * 1000
        print(f"{size:>6} {(t1 - t0) * 1000:>10.2f} {(t2 - t1) * 1000:>10.2f} "
              f"{keygen_ms:>10.3f} {len(blob):>10}")
    return EXIT_OK


_BENCH_SIZES = (2, 4, 8, 16, 32, 64)


def _ring_sizes(text: str) -> list[int]:
    parts = text.split(",")
    if not all(s.strip().isdecimal() and int(s) >= 2 for s in parts):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated ring sizes of at least 2, got {text!r}")
    return [int(s) for s in parts]


# ---------------------------------------------------------------------------


def _context(p) -> None:
    # --ring and exactly one message flag, for every command that works in
    # a (message, ring) context.
    p.add_argument("--ring", required=True, help="file of hex public keys")
    message = p.add_mutually_exclusive_group(required=True)
    message.add_argument("--msg")
    message.add_argument("--msg-hex")


_REQUIRED = {"required": True}
_INT = {"required": True, "type": int}

# name: (its line in the --help listing, or None for no line; the function
# that runs it; its options).  Options are a list, each _context or a flag
# with its add_argument keywords, or else a table of subcommands of their
# own, name: options.
_COMMANDS = {
    "keygen": ("write <out>.sk and <out>.pk", cmd_keygen,
               [("--out", _REQUIRED)]),
    "sign": (None, cmd_sign,
             [_context, ("--key", {**_REQUIRED, "help": "secret key file"}),
              ("--out", {})]),
    "verify": (None, cmd_verify,
               [_context, ("--sig", {**_REQUIRED, "help": "hex or @file"})]),
    "link": (None, cmd_link,
             [_context, ("--sig1", _REQUIRED), ("--sig2", _REQUIRED)]),
    "mix": ("pool lifecycle against the state file", cmd_mix, {
        "create": [("--denomination", _INT), ("--capacity", _INT)],
        "fund": [("--account", _REQUIRED), ("--amount", _INT)],
        "deposit": [("--mix", _REQUIRED),
                    ("--pk", {**_REQUIRED, "help": "hex public key or file"}),
                    ("--from", _REQUIRED)],
        "ring": [("--mix", _REQUIRED)],
        "message": [("--mix", _REQUIRED), ("--payout", _REQUIRED)],
        "withdraw": [("--mix", _REQUIRED), ("--sig", _REQUIRED),
                     ("--payout", _REQUIRED)],
        "status": [("--mix", _REQUIRED)],
        "close": [("--mix", _REQUIRED)],
    }),
    "attack": ("run a deanonymization demo", cmd_attack, {
        "naive-hash": [_context, ("--sig", _REQUIRED)],
        "tag-reveal": [_context, ("--sig", _REQUIRED),
                       ("--keys", {**_REQUIRED, "help":
                                   "comma-separated secret key files"})],
    }),
    "bench": ("sign/verify/keygen timings and sizes", cmd_bench,
              [("--sizes", {"type": _ring_sizes, "help":
                            "comma-separated ring sizes, each at least 2; "
                            "default 2,4,8,16,32,64, leaving out any larger "
                            "than the curve's n - 1 keys"})]),
}


def _add_commands(sub, argv: list[str], table: dict) -> None:
    """Register every subcommand of ``table``; build those argv names.

    argparse picks a subcommand by its exact name, so one that argv does
    not name can never be chosen.  It is registered by name and help
    alone, which is all the --help listing and "invalid choice" read.
    """
    for name, entry in table.items():
        help_, func, options = entry if type(entry) is tuple else (
            None, None, entry)
        kwargs = {} if help_ is None else {"help": help_}
        if name not in argv:
            sub.add_parser(name, add_help=False, **kwargs)
            continue
        p = sub.add_parser(name, **kwargs)
        if func is not None:
            p.set_defaults(func=func)
        if type(options) is dict:
            _add_commands(p.add_subparsers(dest=f"{name}_cmd", required=True),
                          argv, options)
            continue
        for option in options:
            if option is _context:
                _context(p)
            else:
                p.add_argument(option[0], **option[1])


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for ``argv``, built in full only for the subcommands
    whose names are tokens of it."""
    parser = argparse.ArgumentParser(
        prog="ringmix",
        description="Unique ring signatures and a simulated mixing contract.",
    )
    parser.add_argument("--curve", choices=sorted(CURVES),
                        help=f"default {DEFAULT_CURVE}; a mix command on an "
                             "existing state file uses the file's")
    parser.add_argument("--hash", choices=sorted(v.value for v in HashVariant),
                        help=f"default {DEFAULT_HASH}; a mix command on an "
                             "existing state file uses the file's")
    parser.add_argument("--allow-insecure", action="store_true",
                        help="permit the generator-multiple hash (demos only)")
    parser.add_argument("--state", default="ringmix-state.json",
                        help="mix ledger state file")
    parser.add_argument("--seed", type=int, default=None,
                        help="tests only: keys and signatures follow from the seed")
    _add_commands(parser.add_subparsers(dest="command", required=True), argv,
                  _COMMANDS)
    return parser


def main(argv: list[str] | None = None) -> int:
    # An argument that is not UTF-8 arrives surrogate-escaped, and prints
    # back as its own bytes even where stdout would refuse it.
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(errors="surrogateescape")
    # The one place a failure becomes exit 3.  Any other exception is a
    # bug and keeps its traceback.
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    try:
        pp = None if args.func is cmd_mix else _build_params(args)
        return args.func(args, pp)
    except OSError as exc:
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return EXIT_STATE
    except RingmixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STATE
