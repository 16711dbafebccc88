"""Mutated input files and messages through ``cli.main``: never a traceback.

Byte flips, truncations, non-hex text and empty files in the ring, key and
signature files of ``verify``, ``sign``, ``link`` and ``attack
tag-reveal`` on test-31, each with the valid ``--msg`` or one of arbitrary
bytes, decoded as Python decodes argv.  Whatever the mutation, a command
ends with exit 0 to 3 (accept, reject, usage, state or input error), and
an exit 3 with exactly one line on stderr.  Runs in process, so an
exception that is not a ``RingmixError`` or an ``OSError`` fails the test
with its traceback.
"""

import contextlib
import io
import os

import pytest
from hypothesis import given, settings, strategies as st

from ringmix import cli

CURVE = ("--curve", "test-31")
MSG = "--msg=fuzz me"  # one token, so a drawn message may start with "-"
# command -> (its arguments, the input files it reads)
COMMANDS = {
    "verify": (("verify", "--ring", "ring.txt", MSG, "--sig", "@a.sig"),
               ("ring.txt", "a.sig")),
    "sign": (("--seed", "3", "sign", "--key", "alice.sk", "--ring",
              "ring.txt", MSG), ("ring.txt", "alice.sk")),
    "link": (("link", "--ring", "ring.txt", MSG, "--sig1", "@a.sig",
              "--sig2", "@b.sig"), ("ring.txt", "a.sig", "b.sig")),
    "tag-reveal": (("attack", "tag-reveal", "--ring", "ring.txt", MSG,
                    "--sig", "@a.sig", "--keys", "bob.sk,carol.sk"),
                   ("ring.txt", "a.sig", "bob.sk", "carol.sk")),
}


def run(workdir, *args):
    """(exit code, stdout, stderr) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main([*CURVE, *args])
    finally:
        os.chdir(cwd)
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The valid inputs every command accepts, by file name."""
    workdir = tmp_path_factory.mktemp("fuzz")
    pks = []
    # seeds that give four distinct keys on test-31
    for seed, name in zip((1, 2, 4, 5), ("alice", "bob", "carol", "dave")):
        rc, out, _ = run(workdir, "--seed", str(seed), "keygen", "--out", name)
        assert rc == 0
        pks.append(out)
    (workdir / "ring.txt").write_text("".join(pks))
    for seed, (key, sig) in enumerate((("alice", "a"), ("bob", "b")), start=1):
        assert run(workdir, "--seed", str(seed), "sign", "--key", f"{key}.sk",
                   "--ring", "ring.txt", MSG, "--out", f"{sig}.sig")[0] == 0
    for name, (args, _) in COMMANDS.items():
        assert run(workdir, *args)[0] == 0, name
    return workdir, {p.name: p.read_bytes() for p in workdir.iterdir()}


def mutate(data, raw: bytes) -> bytes:
    kind = data.draw(st.sampled_from(["flip", "truncate", "text", "empty"]))
    if kind == "empty" or not raw:
        return b""
    if kind == "text":
        return data.draw(st.text(max_size=80)).encode()
    at = data.draw(st.integers(0, len(raw) - 1))
    if kind == "truncate":
        return raw[:at]
    # a hex digit in place of another keeps the file hex
    new = data.draw(st.sampled_from(b"0123456789abcdef") | st.integers(0, 255))
    return raw[:at] + bytes([new]) + raw[at + 1:]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_inputs_exit_0_to_3_with_one_error_line(files, data):
    workdir, valid = files
    name = data.draw(st.sampled_from(sorted(COMMANDS)))
    args, inputs = COMMANDS[name]
    target = data.draw(st.sampled_from(inputs))
    for file_name, raw in valid.items():
        (workdir / file_name).write_bytes(raw)
    (workdir / target).write_bytes(mutate(data, valid[target]))
    msg = data.draw(st.just("fuzz me")
                    | st.binary(max_size=24).map(os.fsdecode))
    args = [f"--msg={msg}" if a == MSG else a for a in args]
    rc, _, err = run(workdir, *args)
    assert rc in (0, 1, 2, 3)
    if rc == 3:
        assert err.startswith("error: ") and err.count("\n") == 1, err
