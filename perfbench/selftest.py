"""Self-test of the benchmark, run from the repository root:

    python3 perfbench/selftest.py

Runs every workload briefly, untraced and traced, and checks the result
line against BENCHMARK.json.  Then patches ``ring_verify`` to accept
everything, inside this process only, and checks that the benchmark
reports failures and exits nonzero.  Takes about half a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402

bench.import_ringmix()

import ringmix.mixer  # noqa: E402
import ringmix.urs  # noqa: E402

with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_bench(workload: str, trace: int) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = bench.main(["--workload", workload, "--seed", "7",
                         "--seconds", "1", "--trace", str(trace)])
    return rc, json.loads(out.getvalue().strip().splitlines()[-1])


class BenchmarkSelfTest(unittest.TestCase):

    def test_workloads_match_the_spec(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(bench.NAMES))

    def test_untraced_runs_report_every_end_to_end_metric(self):
        names = {m["name"] for m in SPEC["end_to_end"]}
        for workload in bench.NAMES:
            with self.subTest(workload):
                rc, result = run_bench(workload, 0)
                self.assertEqual(rc, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(set(result["metrics"]), names)
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)

    def test_traced_runs_report_every_per_layer_metric(self):
        names = {m["name"] for m in SPEC["per_layer"]}
        for workload in bench.NAMES:
            with self.subTest(workload):
                rc, result = run_bench(workload, 1)
                self.assertEqual(rc, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(set(result["metrics"]), names)

    def test_accept_all_verify_is_caught(self):
        def accept(*args, **kwargs):
            return True

        for workload in ("pool-cap4", "ring-32"):
            with self.subTest(workload), \
                    mock.patch.object(ringmix.urs, "ring_verify", accept), \
                    mock.patch.object(ringmix.mixer, "ring_verify", accept):
                rc, result = run_bench(workload, 0)
                self.assertNotEqual(rc, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"] / result["attempted"], 0)

    def test_refuses_to_run_without_the_sources(self):
        os.makedirs(bench.OUT, exist_ok=True)
        bare = tempfile.mkdtemp(prefix="bare-", dir=bench.OUT)
        try:
            shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            child = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "ring-32",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
                check=False)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(child.returncode, 0)
        self.assertNotIn('"correct"', child.stdout)


if __name__ == "__main__":
    unittest.main()
