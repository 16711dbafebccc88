"""The README's CLI walkthrough runs as written.

Each command of the ``sh`` block under "CLI walkthrough" runs in one temp
directory through ``sh``, with ``ringmix`` spelled ``python -m ringmix``.
Every command must exit 0, and every result that a comment states must be
what the command prints.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import ringmix

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_ROOT = str(Path(ringmix.__file__).resolve().parent.parent)

# The result a comment states, by its first word after an optional
# "prints", and the stdout it stands for.  None: the signer's ring index.
RESULTS = {
    "LINKED": "LINKED",
    "ACCEPTED": "ACCEPTED",
    "mix-0001": "mix-0001",
    "mix-0001|pay-addr": "mix-0001|pay-addr",
    "signer-index": None,
    "attack-failed": "attack-failed",
}


def walkthrough_commands():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## CLI walkthrough\n\n```sh\n(.*?)```", text, re.S)
    joined = block.group(1).replace("\\\n", " ")
    return [line for line in joined.splitlines()
            if line.strip() and not line.startswith("#")]


def stated_result(command):
    words = command.partition(" #")[2].split()
    if words[:1] == ["prints"]:
        words = words[1:]
    return words[0] if words and words[0] in RESULTS else None


def test_cli_walkthrough_runs_as_written(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    ringmix_cmd = f"{shlex.quote(sys.executable)} -m ringmix"
    stated = []
    for command in walkthrough_commands():
        assert command.startswith("ringmix ") or command.startswith("cat ")
        res = subprocess.run(
            re.sub(r"^ringmix ", ringmix_cmd + " ", command), shell=True,
            cwd=tmp_path, env=env, capture_output=True, text=True)
        assert res.returncode == 0, (command, res.stderr)
        result = stated_result(command)
        if result is None:
            continue
        stated.append(result)
        want = RESULTS[result]
        if want is None:  # ring members are sorted by their encodings
            alice = (tmp_path / "alice.pk").read_text().strip()
            bob = (tmp_path / "bob.pk").read_text().strip()
            want = f"signer-index {sorted([alice, bob]).index(alice)}"
        assert res.stdout == want + "\n", command
    assert sorted(stated) == sorted(RESULTS)
