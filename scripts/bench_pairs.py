#!/usr/bin/env python3
"""Benchmark a change against its parent commit in alternating pairs.

Exports the parent commit (``git archive``) into a temporary directory,
then runs ``perfbench/run.py`` once per side for each of ten seeds and
each workload of BENCHMARK.json, for its ``run_seconds``, one process at a
time.  Odd seeds run the parent first and even seeds the change first, so
a host that drifts over the session shifts both sides alike.  The change is the working tree as it stands, uncommitted edits
included.  Writes one JSON file: every run's environment and result line,
and per workload and gated metric the median and quartiles of each side,
the relative change of the medians, the number of pairs in which the
change was better, and whether that makes a gain or a regression beyond
the metric's bound (see ``summarize``); and per workload and side the share
of operations that failed, flagged where the change's is the higher (see
``failure_shares``); and the line count of ``src/ringmix/*.py`` on each
side (see ``src_lines``).  After the pairs, one traced run per side and
workload on a seed outside them gives the per-layer spans (see
``trace_pair``).

    python3 scripts/bench_pairs.py --parent HEAD --out BENCH_N.json

Standard library only.  Both sides run with PYTHONDONTWRITEBYTECODE=1, so
neither imports from bytecode that the other had to compile.
"""

from __future__ import annotations

import argparse
import glob
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10  # a claimed gain must win at least nine pairs in ten
TRACE_SEED = PAIRS + 1  # the traced runs use a seed none of the pairs used


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def export(rev: str, dest: str) -> None:
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:  # pragma: no cover - Python without extraction filters
            tar.extractall(dest)


def run_once(tree: str, workload: str, seed: int, seconds: float,
             trace: int = 0) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    child = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                           text=True)
    lines = child.stdout.splitlines()
    prefix = "ringmix benchmark "
    environment = next((json.loads(line[len(prefix):]) for line in lines
                        if line.startswith(prefix)), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "error": child.stderr.strip()[-2000:]}
    return {"environment": environment, "result": result,
            "exit": child.returncode}


def trace_pair(trees: dict[str, str], workloads: list[str], seconds: float,
               run=run_once) -> dict:
    """One ``--trace 1`` run per workload and side, parent first, on
    TRACE_SEED: each side's environment and result per workload, keyed as
    ``{workload: {"parent": run, "change": run}}`` beside ``what`` and
    ``command``.  ``run`` is called as ``run_once`` is."""
    doc = {
        "what": "one traced run per workload and side, parent first, on a "
                "seed that is not one of the pairs: per-layer spans",
        "command": f"PYTHONDONTWRITEBYTECODE=1 python3 perfbench/run.py "
                   f"--workload W --seed {TRACE_SEED} --seconds {seconds:g} "
                   "--trace 1",
    }
    for workload in workloads:
        doc[workload] = {}
        for side in ("parent", "change"):
            rec = run(trees[side], workload, TRACE_SEED, seconds, trace=1)
            doc[workload][side] = rec
            print(f"trace {workload} seed {TRACE_SEED} {side}: "
                  f"correct={rec['result'].get('correct')}", flush=True)
    return doc


def not_correct(runs: list[dict], traced: dict, workloads: list[str]) -> list:
    """The paired runs (by ``seq``) and the traced runs (by workload and
    side) whose result is not correct."""
    return ([r["seq"] for r in runs if not r["result"].get("correct")]
            + [f"trace {w} {side}" for w in workloads
               for side, rec in traced[w].items()
               if not rec["result"].get("correct")])


def src_lines(tree: str) -> int:
    """Lines in ``src/ringmix/*.py`` under ``tree``, as ``wc -l`` counts."""
    total = 0
    for path in glob.glob(os.path.join(tree, "src", "ringmix", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"runs": len(values), "median": round(statistics.median(values), 4),
            "q1": round(q1, 4), "q3": round(q3, 4)}


def summarize(runs: list[dict], metrics: dict[str, dict]) -> dict:
    """Per workload and metric (its BENCHMARK.json entry, by name): each
    side's spread, the relative change of the medians, the pairs the change
    won, and two verdicts.  ``gain``: the change is better in at least nine
    pairs in ten and its median beats the parent's by more than the
    parent's q3 - q1.  ``worse_than_bound``: the change's median is worse
    than the parent's by more than the metric's bound."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict[int, dict] = {}
        for r in runs:
            if r["workload"] == workload and "metrics" in r["result"]:
                pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]["metrics"]
        pairs = {s: p for s, p in pairs.items() if len(p) == 2}
        if not pairs:
            continue
        summary[workload] = {}
        for name, spec in metrics.items():
            parent = [p["parent"][name]["value"] for p in pairs.values()]
            change = [p["change"][name]["value"] for p in pairs.values()]
            sign = -1 if spec["better"] == "lower" else 1
            wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
            mp, mc = statistics.median(parent), statistics.median(change)
            base = spread(parent)
            summary[workload][name] = {
                "parent": base,
                "change": spread(change),
                "median_change": round((mc - mp) / mp, 4) if mp else None,
                "pairs_change_better": f"{wins}/{len(pairs)}",
                "gain": (10 * wins >= 9 * len(pairs)
                         and sign * (mc - mp) > base["q3"] - base["q1"]),
                "worse_than_bound": -sign * (mc - mp) > spec["bound"] * abs(mp),
            }
    return summary


def failure_shares(runs: list[dict]) -> dict:
    """Per workload and side, the operations that failed out of those
    attempted, summed over every result line that counts them; and
    ``change_higher``, a failed share above the parent's, which the
    benchmark's rules reject whatever the timings."""
    shares: dict[str, dict] = {}
    for r in runs:
        if "attempted" in r["result"]:
            side = shares.setdefault(r["workload"], {}).setdefault(
                r["side"], {"attempted": 0, "failed": 0})
            side["attempted"] += r["result"]["attempted"]
            side["failed"] += r["result"]["failed"]
    for sides in shares.values():
        for side in sides.values():
            side["share"] = (round(side["failed"] / side["attempted"], 6)
                             if side["attempted"] else None)
        parent, change = (sides.get(s, {}).get("share") for s in
                          ("parent", "change"))
        sides["change_higher"] = (parent is not None and change is not None
                                  and change > parent)
    return shares


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD",
                        help="commit to compare the working tree against")
    parser.add_argument("--workdir", default=None,
                        help="where the parent is exported (default: system "
                             "temporary directory)")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    parent_commit = git("rev-parse", args.parent).decode().strip()
    parent_tree = tempfile.mkdtemp(prefix="bench-parent-", dir=args.workdir)
    workloads = [w["name"] for w in spec["workloads"]]
    runs: list[dict] = []
    try:
        export(parent_commit, parent_tree)
        lines = {"parent": src_lines(parent_tree), "change": src_lines(ROOT)}
        trees = {"parent": parent_tree, "change": ROOT}
        for seed in range(1, PAIRS + 1):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    rec = run_once(trees[side], workload, seed, seconds)
                    runs.append({"seq": len(runs) + 1, "side": side,
                                 "workload": workload, "seed": seed, **rec})
                    print(f"{len(runs):3d} {workload} seed {seed} {side}: "
                          f"correct={rec['result'].get('correct')}", flush=True)
        traced = trace_pair(trees, workloads, seconds)
    finally:
        shutil.rmtree(parent_tree, ignore_errors=True)

    doc = {
        "what": "ringmix benchmark at the parent commit and at this change, "
                "in alternating pairs",
        "parent_commit": parent_commit,
        "command": f"python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace 0",
        "host": f"{platform.platform()}, {os.cpu_count()} CPUs, Python "
                f"{platform.python_version()}, PYTHONDONTWRITEBYTECODE=1; "
                "one run at a time, the parent exported by git archive",
        "order": "Odd seeds run the parent first, even seeds the change first.",
        "summary": summarize(runs, metrics),
        "failures": failure_shares(runs),
        "src_lines": lines,
        "runs": runs,
        "trace_pair": traced,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    failed = not_correct(runs, traced, workloads)
    if failed:
        print(f"runs not correct: {failed}", file=sys.stderr)
    higher = [w for w, sides in doc["failures"].items() if sides["change_higher"]]
    if higher:
        print(f"more operations fail on the change: {higher}", file=sys.stderr)
    return 1 if failed or higher else 0


if __name__ == "__main__":
    sys.exit(main())
