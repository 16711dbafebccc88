"""End-to-end command-line scenarios driven through subprocesses."""

import argparse
import errno
import fcntl
import hashlib
import json
import os
import resource
import signal
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import ringmix
from ringmix import cli
from ringmix.mixer import load_state, save_state, withdraw_message

# The directory holding the ringmix package this process imported.  The
# child gets it on PYTHONPATH as an absolute path, so it runs the same code
# whatever its cwd (a relative PYTHONPATH=src does not resolve from a tmp
# directory).
PACKAGE_ROOT = str(Path(ringmix.__file__).resolve().parent.parent)


def run_cli(*args, cwd=None, preexec_fn=None):
    """Run ringmix in a child process.  No invocation may end in a
    traceback: every failure has an exit code and a one-line error."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")])
    )
    res = subprocess.run(
        [sys.executable, "-m", "ringmix", *args],
        capture_output=True,
        text=True,
        errors="surrogateescape",  # a non-UTF-8 argument can come back out
        cwd=cwd,
        env=env,
        preexec_fn=preexec_fn,
    )
    assert "Traceback" not in res.stderr, res.stderr
    return res


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def make_keys(workdir, names, curve="test-31", seed_base=100):
    # seeds chosen so the tiny-curve keys come out distinct
    seeds = {"alice": 1, "bob": 2, "carol": 4, "dave": 5}
    pks = []
    for name in names:
        seed = seeds.get(name, seed_base)
        res = run_cli(
            "--curve", curve, "--seed", str(seed), "keygen",
            "--out", name, cwd=workdir,
        )
        assert res.returncode == 0, res.stderr
        pks.append(res.stdout.strip())
    assert len(set(pks)) == len(pks)
    (workdir / "ring.txt").write_text("\n".join(pks) + "\n")
    return pks


def test_keygen_writes_key_files(workdir):
    res = run_cli("--curve", "secp256k1", "--seed", "7", "keygen",
                  "--out", "k", cwd=workdir)
    assert res.returncode == 0
    sk = (workdir / "k.sk").read_text().strip()
    pk = (workdir / "k.pk").read_text().strip()
    assert len(sk) == 64  # 32-byte scalar
    assert len(pk) == 66  # 33-byte compressed point
    assert res.stdout.strip() == pk


def _limit_file_size():
    # A file write fails after 16 bytes, as a crash inside it would stop.
    os.umask(0o022)
    signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (16, 16))


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing-0644"])
def test_secret_key_is_never_written_readable_by_others(workdir, existing):
    sk = workdir / "k.sk"
    if existing:
        sk.write_text("old\n")
        sk.chmod(0o644)
    res = run_cli("--seed", "7", "keygen", "--out", "k", cwd=workdir,
                  preexec_fn=_limit_file_size)
    assert res.returncode == 3, res.stderr
    assert res.stderr == "error: File too large\n"
    assert stat.S_IMODE(sk.stat().st_mode) == 0o600
    assert not (workdir / "k.pk").exists()


def test_keygen_deterministic_with_seed(workdir):
    a = run_cli("--seed", "42", "keygen", "--out", "a", cwd=workdir)
    b = run_cli("--seed", "42", "keygen", "--out", "b", cwd=workdir)
    assert a.stdout == b.stdout
    assert (workdir / "a.sk").read_text() == (workdir / "b.sk").read_text()


def test_sign_verify_roundtrip_exit_codes(workdir):
    make_keys(workdir, ["alice", "bob", "carol", "dave"])
    res = run_cli("--curve", "test-31", "--seed", "9", "sign",
                  "--key", "alice.sk", "--ring", "ring.txt",
                  "--msg", "hello", "--out", "sig.hex", cwd=workdir)
    assert res.returncode == 0, res.stderr
    ok = run_cli("--curve", "test-31", "verify", "--ring", "ring.txt",
                 "--msg", "hello", "--sig", "@sig.hex", cwd=workdir)
    assert ok.returncode == 0
    assert ok.stdout.strip() == "ACCEPT"
    ok_hex = run_cli("--curve", "test-31", "verify", "--ring", "ring.txt",
                     "--msg-hex", "68656c6c6f", "--sig", "@sig.hex", cwd=workdir)
    assert (ok_hex.returncode, ok_hex.stdout) == (0, "ACCEPT\n")
    bad = run_cli("--curve", "test-31", "verify", "--ring", "ring.txt",
                  "--msg", "hellO", "--sig", "@sig.hex", cwd=workdir)
    assert bad.returncode == 1
    assert bad.stdout.strip() == "REJECT"


def test_empty_msg_hex_is_the_empty_message(workdir):
    make_keys(workdir, ["alice", "bob"])
    res = run_cli("--curve", "test-31", "--seed", "9", "sign",
                  "--key", "alice.sk", "--ring", "ring.txt",
                  "--msg-hex", "", "--out", "sig.hex", cwd=workdir)
    assert res.returncode == 0, res.stderr
    ok = run_cli("--curve", "test-31", "verify", "--ring", "ring.txt",
                 "--msg", "", "--sig", "@sig.hex", cwd=workdir)
    assert (ok.returncode, ok.stdout) == (0, "ACCEPT\n")


# Each command that takes a (message, ring) context, without its message.
CONTEXT_COMMANDS = {
    "sign": ("sign", "--key", "alice.sk"),
    "verify": ("verify", "--sig", "@sig.hex"),
    "link": ("link", "--sig1", "@sig.hex", "--sig2", "@sig.hex"),
    "naive-hash": ("attack", "naive-hash", "--sig", "@sig.hex"),
    "tag-reveal": ("attack", "tag-reveal", "--sig", "@sig.hex",
                   "--keys", "bob.sk"),
}


@pytest.mark.parametrize("command", sorted(CONTEXT_COMMANDS))
@pytest.mark.parametrize("flags", [
    ("--msg", "nope", "--msg-hex", "68656c6c6f"),
    (),
], ids=["both", "neither"])
def test_message_flags_are_one_required_choice(workdir, command, flags):
    make_keys(workdir, ["alice", "bob"])
    res = run_cli("--curve", "test-31", "--seed", "9", "sign",
                  "--key", "alice.sk", "--ring", "ring.txt",
                  "--msg", "hello", "--out", "sig.hex", cwd=workdir)
    assert res.returncode == 0, res.stderr
    res = run_cli("--curve", "test-31", *CONTEXT_COMMANDS[command],
                  "--ring", "ring.txt", *flags, cwd=workdir)
    assert res.returncode == 2
    assert res.stdout == ""
    assert "--msg" in res.stderr.splitlines()[-1]


def test_link_verdicts(workdir):
    make_keys(workdir, ["alice", "bob", "carol", "dave"])
    for seed, key, out in ((9, "alice", "s1"), (10, "alice", "s2"),
                           (11, "bob", "s3")):
        res = run_cli("--curve", "test-31", "--seed", str(seed), "sign",
                      "--key", f"{key}.sk", "--ring", "ring.txt",
                      "--msg", "hello", "--out", f"{out}.hex", cwd=workdir)
        assert res.returncode == 0, res.stderr
    linked = run_cli("--curve", "test-31", "link", "--ring", "ring.txt",
                     "--msg", "hello", "--sig1", "@s1.hex",
                     "--sig2", "@s2.hex", cwd=workdir)
    assert linked.stdout.strip() == "LINKED"
    unlinked = run_cli("--curve", "test-31", "link", "--ring", "ring.txt",
                       "--msg", "hello", "--sig1", "@s1.hex",
                       "--sig2", "@s3.hex", cwd=workdir)
    assert unlinked.stdout.strip() == "UNLINKED"


def test_mix_lifecycle_script(workdir):
    """The scripted happy path: create, fund, 4 deposits, 4 withdrawals,
    then a double spend that exits with the reject code."""
    names = ["alice", "bob", "carol", "dave"]
    make_keys(workdir, names)
    base = ("--curve", "test-31", "--state", "st.json")

    res = run_cli(*base, "mix", "create", "--denomination", "1",
                  "--capacity", "4", cwd=workdir)
    assert res.returncode == 0
    mix_id = res.stdout.strip()
    assert mix_id == "mix-0001"

    for name in names:
        assert run_cli(*base, "mix", "fund", "--account", name,
                       "--amount", "2", cwd=workdir).returncode == 0
    for i, name in enumerate(names, start=1):
        res = run_cli(*base, "mix", "deposit", "--mix", mix_id,
                      "--pk", f"{name}.pk", "--from", name, cwd=workdir)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == f"deposits {i}/4"

    res = run_cli(*base, "mix", "ring", "--mix", mix_id, cwd=workdir)
    assert res.returncode == 0
    (workdir / "mixring.txt").write_text(res.stdout)

    seed = 21
    for name in names:
        msg = run_cli(*base, "mix", "message", "--mix", mix_id,
                      "--payout", f"pay-{name}", cwd=workdir).stdout.strip()
        assert msg == f"{mix_id}|pay-{name}"
        sign = run_cli("--curve", "test-31", "--seed", str(seed), "sign",
                       "--key", f"{name}.sk", "--ring", "mixring.txt",
                       "--msg", msg, "--out", f"w-{name}.hex", cwd=workdir)
        seed += 1
        assert sign.returncode == 0, sign.stderr
        res = run_cli(*base, "mix", "withdraw", "--mix", mix_id,
                      "--sig", f"@w-{name}.hex", "--payout", f"pay-{name}",
                      cwd=workdir)
        assert res.returncode == 0, res.stdout + res.stderr
        assert res.stdout.strip() == "ACCEPTED"

    status = run_cli(*base, "mix", "status", "--mix", mix_id, cwd=workdir)
    assert "balance=0" in status.stdout
    assert "payouts=4" in status.stdout

    # fifth withdrawal: same signer, same payout, fresh randomness
    msg = f"{mix_id}|pay-alice"
    sign = run_cli("--curve", "test-31", "--seed", "77", "sign",
                   "--key", "alice.sk", "--ring", "mixring.txt",
                   "--msg", msg, "--out", "w5.hex", cwd=workdir)
    assert sign.returncode == 0
    res = run_cli(*base, "mix", "withdraw", "--mix", mix_id,
                  "--sig", "@w5.hex", "--payout", "pay-alice", cwd=workdir)
    assert res.returncode == 1
    assert res.stdout.strip() == "TAG_REUSE"


def test_mix_deposit_into_full_pool_fails(workdir):
    names = ["alice", "bob"]
    make_keys(workdir, names + ["carol"])
    base = ("--curve", "test-31", "--state", "st.json")
    run_cli(*base, "mix", "create", "--denomination", "1", "--capacity", "2",
            cwd=workdir)
    for name in names:
        run_cli(*base, "mix", "fund", "--account", name, "--amount", "1",
                cwd=workdir)
        run_cli(*base, "mix", "deposit", "--mix", "mix-0001",
                "--pk", f"{name}.pk", "--from", name, cwd=workdir)
    run_cli(*base, "mix", "fund", "--account", "carol", "--amount", "1",
            cwd=workdir)
    res = run_cli(*base, "mix", "deposit", "--mix", "mix-0001",
                  "--pk", "carol.pk", "--from", "carol", cwd=workdir)
    assert res.returncode == 3
    assert "not accepting deposits" in res.stderr


def test_mix_deposit_decodes_key_on_the_ledger_curve(workdir):
    make_keys(workdir, ["alice", "bob"])
    mix = ("--state", "st.json", "mix")
    run_cli("--curve", "test-31", *mix, "create", "--denomination", "1",
            "--capacity", "2", cwd=workdir)
    run_cli(*mix, "fund", "--account", "a", "--amount", "1", cwd=workdir)
    # No --curve: the flag says secp256k1, the ledger says test-31.
    res = run_cli(*mix, "deposit", "--mix", "mix-0001", "--pk", "alice.pk",
                  "--from", "a", cwd=workdir)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "deposits 1/2\n"


@pytest.mark.parametrize("flags", [("--curve", "secp256k1"),
                                   ("--hash", "try-inc"),
                                   ("--curve", "test-31", "--hash", "try-inc")],
                         ids=["curve", "hash", "right-curve-wrong-hash"])
def test_mix_flags_that_disagree_with_the_ledger_are_refused(workdir, flags):
    mix = ("--state", "st.json", "mix")
    run_cli("--curve", "test-31", *mix, "create", "--denomination", "1",
            "--capacity", "2", cwd=workdir)
    before = (workdir / "st.json").read_bytes()
    res = run_cli(*flags, *mix, "fund", "--account", "a", "--amount", "1",
                  cwd=workdir)
    assert res.returncode == 3
    assert res.stdout == ""
    assert res.stderr.startswith(
        "error: st.json: ledger uses --curve test-31 --hash ft, not ")
    assert res.stderr.count("\n") == 1
    assert (workdir / "st.json").read_bytes() == before


def test_mix_flags_left_out_follow_the_ledger(workdir):
    # The default hash, ft, does not run on test-11; a try-inc ledger there
    # must not need --hash repeated on every command.
    mix = ("--state", "st.json", "mix")
    res = run_cli("--curve", "test-11", "--hash", "try-inc", *mix, "create",
                  "--denomination", "1", "--capacity", "2", cwd=workdir)
    assert res.returncode == 0, res.stderr
    for flags in [(), ("--curve", "test-11"), ("--hash", "try-inc")]:
        res = run_cli(*flags, *mix, "status", "--mix", "mix-0001", cwd=workdir)
        assert res.returncode == 0, (flags, res.stderr)
        assert res.stdout.startswith("mix_id=mix-0001 phase=filling ")


def _mix(capsys, state, *args):
    rc = cli.main(["--curve", "test-31", "--state", state, "mix", *args])
    out, err = capsys.readouterr()
    return rc, out, err


def test_mix_close_refunds_a_filling_pool_and_saves(workdir, capsys):
    state = str(workdir / "st.json")
    assert cli.main(["--curve", "test-31", "--seed", "1", "keygen",
                     "--out", str(workdir / "alice")]) == 0
    for args in (["create", "--denomination", "3", "--capacity", "2"],
                 ["fund", "--account", "carol", "--amount", "5"],
                 ["deposit", "--mix", "mix-0001", "--pk",
                  str(workdir / "alice.pk"), "--from", "carol"]):
        assert _mix(capsys, state, *args)[0] == 0
    before = load_state(state)
    assert _mix(capsys, state, "close", "--mix", "mix-0001") == (
        0, "refunds 1\n", "")
    # The ledger the library leaves, byte for byte.
    before.mix_close("mix-0001")
    save_state(before, str(workdir / "want.json"))
    assert (workdir / "st.json").read_bytes() == (
        workdir / "want.json").read_bytes()
    assert _mix(capsys, state, "fund", "--account", "carol", "--amount",
                "0")[1] == "carol 5\n"
    assert _mix(capsys, state, "status", "--mix", "mix-0001")[1] == (
        "mix_id=mix-0001 phase=closed denomination=3 capacity=2 deposits=1 "
        "tags_seen=0 payouts=0 balance=0\n")


def test_mix_close_on_a_pool_that_is_not_filling_is_state_error(workdir,
                                                                capsys):
    state = str(workdir / "st.json")
    assert cli.main(["--curve", "test-31", "--seed", "1", "keygen",
                     "--out", str(workdir / "alice")]) == 0
    assert cli.main(["--curve", "test-31", "--seed", "2", "keygen",
                     "--out", str(workdir / "bob")]) == 0
    for args in (["create", "--denomination", "1", "--capacity", "2"],
                 ["create", "--denomination", "1", "--capacity", "2"],
                 ["fund", "--account", "carol", "--amount", "2"],
                 *(["deposit", "--mix", "mix-0001", "--pk",
                    str(workdir / f"{name}.pk"), "--from", "carol"]
                   for name in ("alice", "bob")),
                 ["close", "--mix", "mix-0002"]):
        assert _mix(capsys, state, *args)[0] == 0
    saved = (workdir / "st.json").read_bytes()
    for mix_id in ("mix-0001", "mix-0002"):  # published, closed
        assert _mix(capsys, state, "close", "--mix", mix_id) == (
            3, "", "error: only a filling pool can be closed with refunds\n")
    assert _mix(capsys, state, "close", "--mix", "mix-0009") == (
        3, "", "error: no pool 'mix-0009'\n")
    assert (workdir / "st.json").read_bytes() == saved


def test_mix_ring_on_closed_pool_is_state_error(workdir):
    pp = ringmix.setup(128, ringmix.TEST_CURVE_31,
                       ringmix.HashVariant.FT_DETERMINISTIC)
    mixer = ringmix.Mixer(pp)
    mix_id = mixer.mix_create(1, 4)
    mixer.fund("alice", 1)
    mixer.mix_deposit(mix_id, 3 * pp.curve.g, "alice")
    mixer.mix_close(mix_id)
    ringmix.save_state(mixer, str(workdir / "st.json"))
    res = run_cli("--curve", "test-31", "--state", "st.json", "mix", "ring",
                  "--mix", mix_id, cwd=workdir)
    assert res.returncode == 3
    assert res.stdout == ""
    assert res.stderr.startswith("error: ")
    assert res.stderr.count("\n") == 1
    assert "Traceback" not in res.stderr


def _published_pool_state(workdir):
    """st.json holding one capacity-4 pool whose ring is published."""
    pp = ringmix.setup(128, ringmix.TEST_CURVE_31,
                       ringmix.HashVariant.FT_DETERMINISTIC)
    mixer = ringmix.Mixer(pp)
    mix_id = mixer.mix_create(1, 4)
    for k in (2, 3, 5, 7):
        mixer.fund(f"acct-{k}", 1)
        mixer.mix_deposit(mix_id, k * pp.curve.g, f"acct-{k}")
    path = workdir / "st.json"
    ringmix.save_state(mixer, str(path))
    return path, mix_id


def test_read_only_mix_commands_leave_state_file_alone(workdir):
    path, mix_id = _published_pool_state(workdir)
    data, before = path.read_bytes(), path.stat()
    for args in (("status", "--mix", mix_id), ("ring", "--mix", mix_id),
                 ("message", "--mix", mix_id, "--payout", "p")):
        res = run_cli("--curve", "test-31", "--state", "st.json", "mix",
                      *args, cwd=workdir)
        assert res.returncode == 0, res.stderr
        after = path.stat()
        assert path.read_bytes() == data
        assert after.st_mtime_ns == before.st_mtime_ns
        assert after.st_ino == before.st_ino  # not replaced either


# The empty ledger `mix message` wrote on a missing file before read-only
# commands stopped rewriting the state file.
EMPTY_TEST31_LEDGER = """\
{
  "accounts": {},
  "next_pool_seq": 1,
  "params": {
    "curve": "test-31",
    "hash": "ft",
    "insecure_override": false,
    "security_bits": 128
  },
  "pools": {},
  "version": 1
}
"""


def test_mix_message_creates_missing_state_file(workdir):
    res = run_cli("--curve", "test-31", "--state", "st.json", "mix",
                  "message", "--mix", "mix-0001", "--payout", "p",
                  cwd=workdir)
    assert res.returncode == 0
    assert res.stdout == "mix-0001|p\n"
    assert (workdir / "st.json").read_bytes() == EMPTY_TEST31_LEDGER.encode()


def test_mix_command_prints_nothing_when_its_save_fails(workdir):
    base = ("--curve", "test-31", "--state", "st.json", "mix")
    run_cli(*base, "message", "--mix", "mix-0001", "--payout", "p",
            cwd=workdir)
    res = run_cli(*base, "create", "--denomination", "1", "--capacity", "2",
                  cwd=workdir, preexec_fn=_limit_file_size)
    assert (res.returncode, res.stdout, res.stderr) == (
        3, "", "error: File too large\n")
    assert (workdir / "st.json").read_bytes() == EMPTY_TEST31_LEDGER.encode()


CORRUPTIONS = {
    "truncated": lambda text: text[: len(text) // 2],
    "no-pools": lambda text: json.dumps(
        {k: v for k, v in json.loads(text).items() if k != "pools"}),
    "bogus-phase": lambda text: text.replace('"ring-published"', '"bogus"'),
    "top-level-list": lambda text: "[]",
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupt_state_file_is_state_error(workdir, name):
    path, mix_id = _published_pool_state(workdir)
    path.write_text(CORRUPTIONS[name](path.read_text()))
    res = run_cli("--curve", "test-31", "--state", "st.json", "mix",
                  "status", "--mix", mix_id, cwd=workdir)
    assert res.returncode == 3
    assert res.stdout == ""
    assert res.stderr.startswith("error: st.json: ")
    assert res.stderr.count("\n") == 1
    assert "Traceback" not in res.stderr


# Hand edits that load as JSON but not as a ledger: exit 3 and one line,
# never a traceback and exit 1, which scripts read as REJECT.
LEDGER_EDITS = {
    "deposit-key-not-hex": (
        lambda d: d["pools"]["mix-0001"]["deposits"][0].update(pk="zz"),
        ("ring", "--mix", "mix-0001"),
        "error: mix-0001: a deposit key is not hex\n"),
    "deposit-key-not-str": (
        lambda d: d["pools"]["mix-0001"]["deposits"][2].update(pk=5),
        ("ring", "--mix", "mix-0001"),
        "error: st.json: mix-0001: an account, key or tag is not a string\n"),
    # Refused at load, before a saving command could try to write it.
    "deposit-key-int": (
        lambda d: d["pools"]["mix-0001"]["deposits"][0].update(pk=5),
        ("fund", "--account", "acct-2", "--amount", "1"),
        "error: st.json: mix-0001: an account, key or tag is not a string\n"),
    "next-pool-seq-str": (
        lambda d: d.update(next_pool_seq="x"),
        ("create", "--denomination", "1", "--capacity", "2"),
        "error: st.json: next_pool_seq is str, not an integer\n"),
    "account-balance-str": (
        lambda d: d["accounts"].update({"acct-2": "x"}),
        ("fund", "--account", "acct-2", "--amount", "1"),
        "error: st.json: account 'acct-2' is str, not an integer\n"),
    "deposit-key-not-a-point": (
        lambda d: d["pools"]["mix-0001"]["deposits"][0].update(pk="02ff"),
        ("ring", "--mix", "mix-0001"),
        "error: mix-0001: deposit key: x coordinate out of range\n"),
    "deposit-key-twice": (
        lambda d: d["pools"]["mix-0001"]["deposits"][1].update(
            pk=d["pools"]["mix-0001"]["deposits"][0]["pk"]),
        ("ring", "--mix", "mix-0001"),
        "error: mix-0001: deposit key: duplicate ring member\n"),
    "refunds-str": (
        lambda d: d["pools"]["mix-0001"].update(refunds="abc"),
        ("status", "--mix", "mix-0001"),
        "error: st.json: mix-0001: an account, key or tag is not a string\n"),
    "deposit-funder-int": (
        lambda d: d["pools"]["mix-0001"]["deposits"][0].update({"from": 7}),
        ("fund", "--account", "acct-2", "--amount", "1"),
        "error: st.json: mix-0001: an account, key or tag is not a string\n"),
    "insecure-override-str": (
        lambda d: d["params"].update(hash="insecure-mult-g",
                                     insecure_override="false"),
        ("status", "--mix", "mix-0001"),
        "error: st.json: insecure_override is str, not a boolean\n"),
    "security-bits-str": (
        lambda d: d["params"].update(security_bits="x"),
        ("create", "--denomination", "1", "--capacity", "2"),
        "error: st.json: security_bits is str, not an integer\n"),
    # A stale sequence number made create replace the funded pool.
    "next-pool-seq-stale": (
        lambda d: d.update(next_pool_seq=1),
        ("create", "--denomination", "5", "--capacity", "2"),
        "error: st.json: next_pool_seq 1 would reuse mix-0001\n"),
    "pool-balance-raised": (
        lambda d: d["pools"]["mix-0001"].update(balance=5),
        ("status", "--mix", "mix-0001"),
        "error: st.json: mix-0001: conservation broken, in=4 out=0 "
        "balance=5\n"),
    "published-short-one": (
        lambda d: (d["pools"]["mix-0001"]["deposits"].pop(),
                   d["pools"]["mix-0001"].update(balance=3)),
        ("ring", "--mix", "mix-0001"),
        "error: st.json: mix-0001: 3 deposits in a ring-published pool of "
        "capacity 4\n"),
    "filling-at-capacity": (
        lambda d: d["pools"]["mix-0001"].update(phase="filling"),
        ("fund", "--account", "acct-2", "--amount", "1"),
        "error: st.json: mix-0001: 4 deposits in a filling pool of "
        "capacity 4\n"),
    "account-negative": (
        lambda d: d["accounts"].update({"acct-2": -3}),
        ("fund", "--account", "acct-2", "--amount", "5"),
        "error: st.json: account 'acct-2' is -3, below 0\n"),
    "unknown-pool-key": (
        lambda d: d["pools"]["mix-0001"].update(withdrawals=0),
        ("status", "--mix", "mix-0001"),
        "error: st.json: mix-0001: unknown key 'withdrawals' in the pool\n"),
    "unknown-deposit-key": (
        lambda d: d["pools"]["mix-0001"]["deposits"][1].update(amount=1),
        ("fund", "--account", "acct-2", "--amount", "1"),
        "error: st.json: mix-0001: unknown key 'amount' in a deposit\n"),
}


@pytest.mark.parametrize("name", sorted(LEDGER_EDITS))
def test_hand_edited_ledger_is_state_error(workdir, name):
    change, args, error = LEDGER_EDITS[name]
    path, _ = _published_pool_state(workdir)
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))
    edited = path.read_bytes()
    res = run_cli("--curve", "test-31", "--state", "st.json", "mix", *args,
                  cwd=workdir)
    assert (res.returncode, res.stdout, res.stderr) == (3, "", error)
    assert path.read_bytes() == edited


# sha256 of the state file the seeded lifecycle below leaves, as written by
# json.dump(indent=2, sort_keys=True) before the state writer was replaced.
LIFECYCLE_STATE_SHA256 = (
    "5150c39a9bec43b8751f4af05b1e1d6a609b5dac5410f84256ee193a7ad8c244")
ODD_ACCOUNT = 'Zoë "q" \\ ∑\t'


def seeded_mix_lifecycle(workdir, curve="test-31", hash_="ft"):
    """message on a missing file, create, fund, deposits, ring, status, an
    accepted and a repeated withdraw, status.  Returns the exit codes."""
    names = ["alice", "bob", "carol", "dave"]
    make_keys(workdir, names, curve=curve)
    funders = [ODD_ACCOUNT, "bob", "", "dave"]
    base = ("--curve", curve, "--hash", hash_, "--state", "st.json", "mix")
    mix = ("--mix", "mix-0001")
    payout = "pay-ü"
    codes = []

    def cli(*args):
        res = run_cli(*args, cwd=workdir)
        codes.append(res.returncode)
        return res

    cli(*base, "message", *mix, "--payout", payout)
    cli(*base, "create", "--denomination", "2", "--capacity", "4")
    for funder in funders:
        cli(*base, "fund", "--account", funder, "--amount", "3")
    for name, funder in zip(names, funders):
        cli(*base, "deposit", *mix, "--pk", f"{name}.pk", "--from", funder)
    (workdir / "mixring.txt").write_text(cli(*base, "ring", *mix).stdout)
    cli(*base, "status", *mix)
    for seed in (21, 22):
        cli("--curve", curve, "--hash", hash_, "--seed", str(seed), "sign",
            "--key", "alice.sk", "--ring", "mixring.txt",
            "--msg", f"mix-0001|{payout}", "--out", f"w{seed}.hex")
        cli(*base, "withdraw", *mix, "--sig", f"@w{seed}.hex",
            "--payout", payout)
    cli(*base, "status", *mix)
    return codes


def test_seeded_mix_lifecycle_state_bytes_are_pinned(workdir):
    codes = seeded_mix_lifecycle(workdir)
    assert codes == [0] * 15 + [1, 0]  # the repeated withdraw is TAG_REUSE
    state = (workdir / "st.json").read_bytes()
    assert hashlib.sha256(state).hexdigest() == LIFECYCLE_STATE_SHA256


def test_msg_signs_the_arguments_own_bytes(workdir):
    # Python hands a non-UTF-8 argument over as a lone surrogate; "\udcff"
    # here reaches the child as the byte 0xff.
    make_keys(workdir, ["alice", "bob"])
    sign = ("--curve", "test-31", "--seed", "3", "sign", "--key", "alice.sk",
            "--ring", "ring.txt")
    for text, hex_ in (("\udcff", "ff"), ("\u00e9", "c3a9")):
        res = run_cli(*sign, "--msg", text, cwd=workdir)
        assert res.returncode == 0, res.stderr
        assert res.stdout == run_cli(*sign, "--msg-hex", hex_,
                                     cwd=workdir).stdout
        res = run_cli("--curve", "test-31", "verify", "--ring", "ring.txt",
                      "--msg", text, "--sig", res.stdout.strip(), cwd=workdir)
        assert (res.returncode, res.stdout) == (0, "ACCEPT\n")


def test_a_payout_that_is_not_utf8_is_printed_signed_and_paid(workdir):
    make_keys(workdir, ["alice", "bob"])
    base = ("--curve", "test-31", "--state", "st.json", "mix")
    mix, payout = ("--mix", "mix-0001"), "pay-\udcff"
    res = run_cli(*base, "message", *mix, "--payout", payout, cwd=workdir)
    assert (res.returncode, res.stdout) == (0, "mix-0001|pay-\udcff\n")
    assert withdraw_message("mix-0001", payout) == b"mix-0001|pay-\xff"
    run_cli(*base, "create", "--denomination", "1", "--capacity", "2",
            cwd=workdir)
    for name in ("alice", "bob"):
        run_cli(*base, "fund", "--account", name, "--amount", "1",
                cwd=workdir)
        run_cli(*base, "deposit", *mix, "--pk", f"{name}.pk", "--from", name,
                cwd=workdir)
    (workdir / "mixring.txt").write_text(
        run_cli(*base, "ring", *mix, cwd=workdir).stdout)
    res = run_cli("--curve", "test-31", "--seed", "5", "sign", "--key",
                  "alice.sk", "--ring", "mixring.txt", "--msg",
                  f"mix-0001|{payout}", "--out", "w.hex", cwd=workdir)
    assert res.returncode == 0, res.stderr
    res = run_cli(*base, "withdraw", *mix, "--sig", "@w.hex", "--payout",
                  payout, cwd=workdir)
    assert (res.returncode, res.stdout) == (0, "ACCEPTED\n")


def test_non_utf8_arguments_print_on_a_strict_stdout(workdir):
    # Outside UTF-8 mode, a UTF-8 locale gives stdout strict errors.
    env = dict(os.environ, PYTHONIOENCODING="utf-8:strict")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")])
    )
    base = [sys.executable, "-X", "utf8=0", "-m", "ringmix", "--curve",
            "test-31", "--state", "st.json", "mix"]
    for args, out in ((["fund", "--account", b"\xff", "--amount", "3"],
                       b"\xff 3\n"),
                      (["message", "--mix", "mix-0001", "--payout", b"\xff"],
                       b"mix-0001|\xff\n")):
        res = subprocess.run(base + args, capture_output=True, cwd=workdir,
                             env=env)
        assert (res.returncode, res.stdout, res.stderr) == (0, out, b"")


def test_attack_commands(workdir):
    make_keys(workdir, ["alice", "bob", "carol", "dave"])
    insecure = ("--curve", "test-31", "--hash", "insecure-mult-g",
                "--allow-insecure")
    res = run_cli(*insecure, "--seed", "30", "sign", "--key", "bob.sk",
                  "--ring", "ring.txt", "--msg", "attack me",
                  "--out", "asig.hex", cwd=workdir)
    assert res.returncode == 0, res.stderr
    res = run_cli(*insecure, "attack", "naive-hash", "--ring", "ring.txt",
                  "--msg", "attack me", "--sig", "@asig.hex", cwd=workdir)
    assert res.returncode == 0
    assert res.stdout.startswith("signer-index ")

    res = run_cli("--curve", "test-31", "--seed", "31", "sign",
                  "--key", "alice.sk", "--ring", "ring.txt",
                  "--msg", "reveal", "--out", "rsig.hex", cwd=workdir)
    assert res.returncode == 0
    res = run_cli("--curve", "test-31", "attack", "tag-reveal",
                  "--ring", "ring.txt", "--msg", "reveal",
                  "--sig", "@rsig.hex", "--keys", "bob.sk,carol.sk,dave.sk",
                  cwd=workdir)
    assert res.returncode == 0
    assert res.stdout.startswith("anonymity-set ")
    # Under the honest map the naive-hash attack finds no signer.
    res = run_cli("--curve", "test-31", "attack", "naive-hash",
                  "--ring", "ring.txt", "--msg", "reveal",
                  "--sig", "@rsig.hex", cwd=workdir)
    assert (res.returncode, res.stdout) == (0, "attack-failed\n")


def test_insecure_hash_requires_flag(workdir):
    make_keys(workdir, ["alice", "bob"])
    res = run_cli("--curve", "test-31", "--hash", "insecure-mult-g",
                  "--seed", "1", "sign", "--key", "alice.sk",
                  "--ring", "ring.txt", "--msg", "x", cwd=workdir)
    assert res.returncode == 3
    assert "insecure" in res.stderr


def test_missing_ring_file_is_state_error(workdir):
    make_keys(workdir, ["alice", "bob"])
    res = run_cli("--curve", "test-31", "--seed", "1", "sign",
                  "--key", "alice.sk", "--ring", "nope.txt", "--msg", "x",
                  cwd=workdir)
    assert res.returncode == 3


def _two_keys(workdir):
    make_keys(workdir, ["alice", "bob"])


def _degenerate_key(workdir):
    # erin's key is 7, and H("degenerate" || ring) has order 7 on test-31
    make_keys(workdir, ["alice", "erin"], seed_base=15)


def _deep_state_file(workdir):
    (workdir / "st.json").write_text("[" * 100_000)


def _signed(workdir):
    make_keys(workdir, ["alice", "bob"])
    assert run_cli(*SIGN, "--out", "sig.hex", cwd=workdir).returncode == 0


def _undecodable_ring_file(workdir):
    make_keys(workdir, ["alice", "bob"])
    (workdir / "ring.txt").write_bytes(b"\xff\xfe\n")


def _open_pool(workdir):
    res = run_cli("--curve", "test-31", "--state", "st.json", "mix", "create",
                  "--denomination", "1", "--capacity", "2", cwd=workdir)
    assert res.returncode == 0, res.stderr


SIGN = ("--curve", "test-31", "--seed", "9", "sign", "--key", "alice.sk",
        "--ring", "ring.txt", "--msg", "x")
STATE_ERRORS = {
    "ft-hash-on-test-11": (
        None, ("--curve", "test-11", "mix", "status", "--mix", "x"),
        "error: map requires p = 7 mod 12"),
    "lock-in-missing-dir": (
        None, ("--curve", "test-31", "--state", "missing/dir/x.json",
               "mix", "create", "--denomination", "1", "--capacity", "2"),
        "error: missing/dir/x.json.lock: No such file or directory"),
    "degenerate-tag": (
        _degenerate_key, ("--curve", "test-31", "--seed", "9", "sign",
                          "--key", "erin.sk", "--ring", "ring.txt",
                          "--msg", "degenerate"),
        "error: degenerate tag"),
    "keygen-out-missing-dir": (
        None, ("--curve", "test-31", "--seed", "1", "keygen",
               "--out", "missing/dir/k"),
        "error: missing/dir/k.sk: No such file or directory"),
    "sign-out-missing-dir": (
        _two_keys, SIGN + ("--out", "missing/x"),
        "error: missing/x: No such file or directory"),
    "state-is-a-directory": (
        None, ("--curve", "test-31", "--state", ".", "mix", "status",
               "--mix", "x"),
        "error: .: Is a directory"),
    "deeply-nested-state-file": (
        _deep_state_file, ("--curve", "test-31", "--state", "st.json", "mix",
                           "status", "--mix", "x"),
        "error: st.json: malformed state file (RecursionError"),
    "undecodable-ring-file": (
        _undecodable_ring_file, SIGN,
        "error: ring.txt:1: non-hexadecimal number"),
    "verify-msg-hex-not-hex": (
        _two_keys, ("--curve", "test-31", "verify", "--ring", "ring.txt",
                    "--msg-hex", "zz", "--sig", "@sig.hex"),
        "error: --msg-hex is not valid hex"),
    "deposit-bad-public-key": (
        None, ("--curve", "test-31", "--state", "st.json", "mix", "deposit",
               "--mix", "mix-0001", "--pk", "02zz", "--from", "a"),
        "error: bad public key: "),
    "fund-negative-amount": (
        None, ("--curve", "test-31", "--state", "st.json", "mix", "fund",
               "--account", "a", "--amount", "-1"),
        "error: cannot fund a negative amount"),
    "deposit-identity-key": (
        _open_pool, ("--state", "st.json", "mix", "deposit", "--mix",
                     "mix-0001", "--pk", "00", "--from", "a"),
        "error: deposit key is not a valid point on the mix curve"),
    "state-empty-path": (
        None, ("--curve", "test-31", "--state", "", "mix", "create",
               "--denomination", "1", "--capacity", "2"),
        "error: --state is an empty path"),
    "verify-sig-at-without-name": (
        _two_keys, ("--curve", "test-31", "verify", "--ring", "ring.txt",
                    "--msg", "x", "--sig", "@"),
        "error: empty file name"),
    "keygen-out-empty-path": (
        None, ("--curve", "test-31", "--seed", "1", "keygen", "--out", ""),
        "error: --out is an empty path"),
    "sign-key-empty-name": (
        _two_keys, ("--curve", "test-31", "sign", "--key", "", "--ring",
                    "ring.txt", "--msg", "x"),
        "error: empty file name"),
    "sign-ring-empty-name": (
        _two_keys, ("--curve", "test-31", "sign", "--key", "alice.sk",
                    "--ring", "", "--msg", "x"),
        "error: empty file name"),
    "tag-reveal-keys-empty-name": (
        _signed, ("--curve", "test-31", "attack", "tag-reveal", "--ring",
                  "ring.txt", "--msg", "x", "--sig", "@sig.hex",
                  "--keys", "alice.sk,"),
        "error: empty file name"),
}
# Rows that must leave the working directory and its parent as they were.
WRITES_NOTHING = {"state-empty-path", "state-is-a-directory",
                  "verify-sig-at-without-name", "keygen-out-empty-path",
                  "sign-key-empty-name", "sign-ring-empty-name",
                  "tag-reveal-keys-empty-name"}


def _listing(path):
    return sorted(p.name for p in path.iterdir())


@pytest.mark.parametrize("name", sorted(STATE_ERRORS))
def test_state_and_input_errors_exit_3_with_one_line(workdir, name):
    prepare, args, start = STATE_ERRORS[name]
    if prepare:
        prepare(workdir)
    before = _listing(workdir), _listing(workdir.parent)
    res = run_cli(*args, cwd=workdir)
    assert res.returncode == 3
    assert res.stderr.startswith(start)
    assert res.stderr.count("\n") == 1
    if name in WRITES_NOTHING:
        assert (_listing(workdir), _listing(workdir.parent)) == before


@pytest.mark.parametrize("sizes", ["2,x", "", "1,4", "4,0"])
def test_bad_bench_sizes_are_usage_errors(workdir, sizes):
    res = run_cli("--curve", "test-31", "--seed", "1", "bench",
                  "--sizes", sizes, cwd=workdir)
    assert res.returncode == 2
    assert res.stdout == ""
    errors = [line for line in res.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--sizes" in errors[0]


def test_directory_as_state_file_leaves_no_lock_file(workdir):
    (workdir / "ledger").mkdir()
    for state in (".", "ledger"):
        res = run_cli("--curve", "test-31", "--state", state, "mix", "create",
                      "--denomination", "1", "--capacity", "2", cwd=workdir)
        assert res.returncode == 3
        assert res.stderr == f"error: {state}: Is a directory\n"
    assert sorted(p.name for p in workdir.iterdir()) == ["ledger"]
    assert not list((workdir / "ledger").iterdir())


def test_a_symlinked_state_file_takes_its_targets_lock(workdir, capsys):
    # save_state replaces the link's target, so a command through either
    # name must lock the same file.
    real, alias = workdir / "real.json", workdir / "alias.json"
    alias.symlink_to(real.name)
    with cli._state_lock(str(alias)):
        with open(f"{real}.lock", "w") as fh, pytest.raises(BlockingIOError):
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
    assert cli.main(["--curve", "test-31", "--state", str(alias), "mix",
                     "create", "--denomination", "1", "--capacity", "2"]) == 0
    assert capsys.readouterr().out == "mix-0001\n"
    assert sorted(p.name for p in workdir.iterdir()) == [
        "alias.json", "real.json", "real.json.lock"]


def test_os_error_without_a_file_name(workdir, monkeypatch, capsys):
    def disk_full(mixer, path):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    monkeypatch.setattr(cli, "save_state", disk_full)
    state = str(workdir / "st.json")
    assert cli.main(["--curve", "test-31", "--state", state, "mix", "create",
                     "--denomination", "1", "--capacity", "2"]) == 3
    assert capsys.readouterr().err == "error: No space left on device\n"


def test_every_package_error_has_the_common_root():
    errors = [obj for obj in vars(ringmix).values()
              if isinstance(obj, type) and issubclass(obj, Exception)]
    assert len(errors) > 10
    for exc_type in errors + [cli.CliError]:
        assert issubclass(exc_type, ringmix.RingmixError), exc_type


def test_usage_error_exit_code(workdir):
    res = run_cli("frobnicate", cwd=workdir)
    assert res.returncode == 2


# The parser is built only for the subcommands argv names; one built with
# every name must parse, print and exit exactly as it does.
NESTED = {name: list(spec) for name, (_, _, spec) in cli._COMMANDS.items()
          if isinstance(spec, dict)}
EVERY_NAME = [*cli._COMMANDS, *(n for names in NESTED.values() for n in names)]
PARSE_CASES = [
    ["--help"],
    *([name, "--help"] for name in cli._COMMANDS),
    *([top, name, "--help"] for top, names in NESTED.items() for name in names),
    [], ["mix"], ["attack"],
    ["frobnicate"], ["mix", "frobnicate"], ["attack", "frobnicate"],
    ["keygen"], ["mix", "status"], ["sign", "--ring", "r.txt"],
    ["--state", "mix", "keygen", "--out", "k"],
]


def _parse(parser, argv, capsys):
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as exc:
        result = exc.code
    out, err = capsys.readouterr()
    return out, err, result


@pytest.mark.parametrize("argv", PARSE_CASES,
                         ids=lambda argv: " ".join(argv) or "bare")
def test_a_parser_built_for_its_argv_parses_as_the_full_one(argv, monkeypatch,
                                                           capsys):
    monkeypatch.setenv("COLUMNS", "80")
    full = _parse(cli.build_parser(EVERY_NAME), argv, capsys)
    assert _parse(cli.build_parser(argv), argv, capsys) == full


def test_mix_status_builds_only_its_own_options(workdir, monkeypatch, capsys):
    state = str(workdir / "st.json")
    assert cli.main(["--curve", "test-31", "--state", state, "mix", "create",
                     "--denomination", "1", "--capacity", "2"]) == 0
    capsys.readouterr()
    calls = []
    add_argument = argparse._ActionsContainer.add_argument

    def counting(self, *args, **kwargs):
        calls.append(args)
        return add_argument(self, *args, **kwargs)
    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counting)
    assert cli.main(["--state", state, "mix", "status", "--mix", "mix-0001"]) == 0
    assert capsys.readouterr().out.startswith("mix_id=mix-0001 phase=filling")
    # The five top-level options, --mix, and -h on the three parsers argv
    # names; building every subcommand makes 49 calls.
    assert len(calls) <= 10, calls


def test_seeded_runs_are_byte_identical(workdir):
    names = ["alice", "bob", "carol", "dave"]
    make_keys(workdir, names)
    outs = []
    for run in ("one", "two"):
        res = run_cli("--curve", "test-31", "--seed", "55", "sign",
                      "--key", "bob.sk", "--ring", "ring.txt",
                      "--msg", "determinism", cwd=workdir)
        assert res.returncode == 0
        outs.append(res.stdout)
    assert outs[0] == outs[1]

    # and the state file produced by identical command sequences matches
    for state in ("s-one.json", "s-two.json"):
        base = ("--curve", "test-31", "--state", state)
        run_cli(*base, "mix", "create", "--denomination", "2",
                "--capacity", "3", cwd=workdir)
        run_cli(*base, "mix", "fund", "--account", "z", "--amount", "9",
                cwd=workdir)
    assert (workdir / "s-one.json").read_bytes() == (
        (workdir / "s-two.json").read_bytes()
    )


def test_bench_reports_sizes(workdir):
    res = run_cli("--seed", "1", "bench", "--sizes", "2,4,8,16", cwd=workdir)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().splitlines()
    assert len(lines) == 5
    assert lines[0].split() == ["ring", "sign_ms", "verify_ms", "keygen_ms",
                                "sig_bytes"]
    expected = {"2": "192", "4": "320", "8": "576", "16": "1088"}
    for line in lines[1:]:
        cols = line.split()
        assert cols[-1] == expected[cols[0]]
        assert float(cols[3]) > 0


def test_bench_signs_with_a_key_that_gives_a_tag(workdir):
    # With seed 7 the first key of a test-31 ring gives a degenerate tag at
    # some size; the next key signs in its place.
    res = run_cli("--curve", "test-31", "--seed", "7", "bench", cwd=workdir)
    assert res.returncode == 0, res.stderr
    assert len(res.stdout.splitlines()) == 5


def test_bench_default_sizes_fit_the_curve(workdir):
    # test-31 has 20 finite points, so 20 distinct keys at most: the default
    # list stops at 16, and an explicit 32 is still refused.
    res = run_cli("--curve", "test-31", "--seed", "1", "bench", cwd=workdir)
    assert res.returncode == 0, res.stderr
    assert [line.split()[0] for line in res.stdout.splitlines()[1:]] == [
        "2", "4", "8", "16"]
    res = run_cli("--curve", "test-31", "--seed", "1", "bench",
                  "--sizes", "2,32", cwd=workdir)
    assert res.returncode == 3
    assert res.stderr == "error: cannot draw 32 distinct keys on this curve\n"
