"""The verdicts ``scripts/bench_pairs.py`` writes, on synthetic runs."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = {"op_ms_p90": {"better": "lower", "bound": 0.25},
           "ops_per_s": {"better": "higher", "bound": 0.25}}


def runs(parent, change, workload="w"):
    """One parent and one change run per seed, with the given values."""
    out = []
    for seed, values in enumerate(zip(parent, change), start=1):
        for side, (ms, per_s) in zip(("parent", "change"), values):
            out.append({"side": side, "workload": workload, "seed": seed,
                        "result": {"metrics": {"op_ms_p90": {"value": ms},
                                               "ops_per_s": {"value": per_s}}}})
    return out


def verdicts(parent, change):
    row = bench_pairs.summarize(runs(parent, change), METRICS)["w"]
    return {name: (m["pairs_change_better"], m["gain"], m["worse_than_bound"])
            for name, m in row.items()}


def test_clear_gain_in_both_directions():
    parent = [(10.0 + i % 3, 100.0 - i % 3) for i in range(10)]
    change = [(ms - 3, per_s + 3) for ms, per_s in parent]
    assert verdicts(parent, change) == {"op_ms_p90": ("10/10", True, False),
                                        "ops_per_s": ("10/10", True, False)}


def test_eight_wins_in_ten_is_no_gain():
    parent = [(10.0, 100.0)] * 10
    change = [(7.0, 103.0)] * 8 + [(11.0, 99.0)] * 2
    assert verdicts(parent, change) == {"op_ms_p90": ("8/10", False, False),
                                        "ops_per_s": ("8/10", False, False)}


def test_win_inside_the_parents_spread_is_no_gain():
    parent = [(10.0 + i, 100.0 - i) for i in range(10)]  # q3 - q1 = 5.5
    change = [(ms - 1, per_s + 1) for ms, per_s in parent]  # 10/10, by 1
    assert verdicts(parent, change) == {"op_ms_p90": ("10/10", False, False),
                                        "ops_per_s": ("10/10", False, False)}


def test_worse_than_bound_only_past_the_bound():
    parent = [(10.0, 100.0)] * 10
    just_inside = [(12.4, 76.0)] * 10  # +24% time, -24% rate
    past = [(12.6, 74.0)] * 10  # +26% time, -26% rate
    assert verdicts(parent, just_inside) == {"op_ms_p90": ("0/10", False, False),
                                             "ops_per_s": ("0/10", False, False)}
    assert verdicts(parent, past) == {"op_ms_p90": ("0/10", False, True),
                                      "ops_per_s": ("0/10", False, True)}


def test_unpaired_and_failed_runs_are_left_out():
    rows = runs([(10.0, 100.0)] * 10, [(5.0, 200.0)] * 10)
    rows[0]["result"] = {"correct": False}  # seed 1's parent failed
    rows += runs([(1.0, 1.0)], [(1.0, 1.0)], workload="only-failed")
    for r in rows[-2:]:
        r["result"] = {"correct": False}
    summary = bench_pairs.summarize(rows, METRICS)
    assert list(summary) == ["w"]
    assert summary["w"]["op_ms_p90"]["pairs_change_better"] == "9/9"
    assert summary["w"]["op_ms_p90"]["gain"] is True


def test_failed_share_per_side_flags_a_higher_change():
    rows = runs([(10.0, 100.0)] * 3, [(5.0, 200.0)] * 3)
    for r in rows:
        r["result"].update(attempted=100, failed=1 if r["side"] == "parent" else 2)
    rows += runs([(1.0, 1.0)], [(1.0, 1.0)], workload="even")
    for r in rows[-2:]:
        r["result"].update(attempted=50, failed=0)
    rows.append({"side": "change", "workload": "even", "seed": 2,
                 "result": {"correct": False, "error": "crashed"}})
    shares = bench_pairs.failure_shares(rows)
    assert shares["w"] == {
        "parent": {"attempted": 300, "failed": 3, "share": 0.01},
        "change": {"attempted": 300, "failed": 6, "share": 0.02},
        "change_higher": True}
    assert shares["even"]["change"]["share"] == 0.0
    assert shares["even"]["change_higher"] is False


def test_src_lines_counts_the_package_sources_as_wc_does(tmp_path):
    package = tmp_path / "src" / "ringmix"
    package.mkdir(parents=True)
    (package / "a.py").write_text("one\ntwo\n")
    (package / "b.py").write_text("three\nno newline at the end")
    (package / "notes.txt").write_text("not\ncounted\n")
    (tmp_path / "src" / "other.py").write_text("not counted\n")
    assert bench_pairs.src_lines(str(tmp_path)) == 3
    assert bench_pairs.src_lines(str(tmp_path / "empty")) == 0


def fake_runner(incorrect=()):
    """A stand-in for ``run_once`` that records its calls; the runs named
    in ``incorrect`` (as (workload, tree)) come back not correct."""
    calls = []

    def run(tree, workload, seed, seconds, trace=0):
        calls.append((tree, workload, seed, seconds, trace))
        correct = (workload, tree) not in incorrect
        return {"environment": {"workload": workload, "seed": seed,
                                "trace": trace},
                "result": {"correct": correct}, "exit": 0 if correct else 1}
    return run, calls


def test_trace_pair_runs_each_workload_traced_parent_first():
    run, calls = fake_runner()
    trees = {"parent": "/p", "change": "/c"}
    doc = bench_pairs.trace_pair(trees, ["w1", "w2"], 35, run=run)
    seed = bench_pairs.TRACE_SEED
    assert seed not in range(1, bench_pairs.PAIRS + 1)
    assert calls == [("/p", "w1", seed, 35, 1), ("/c", "w1", seed, 35, 1),
                     ("/p", "w2", seed, 35, 1), ("/c", "w2", seed, 35, 1)]
    assert list(doc) == ["what", "command", "w1", "w2"]
    assert f"--seed {seed} --seconds 35 --trace 1" in doc["command"]
    for workload in ("w1", "w2"):
        assert list(doc[workload]) == ["parent", "change"]
        for side in ("parent", "change"):
            assert doc[workload][side]["environment"] == {
                "workload": workload, "seed": seed, "trace": 1}
            assert doc[workload][side]["result"] == {"correct": True}


def test_a_traced_run_that_is_not_correct_is_reported():
    run, _ = fake_runner(incorrect={("w2", "/c")})
    doc = bench_pairs.trace_pair({"parent": "/p", "change": "/c"},
                                 ["w1", "w2"], 1, run=run)
    paired = [{"seq": 1, "result": {"correct": True}},
              {"seq": 2, "result": {"correct": False, "error": "crashed"}}]
    assert bench_pairs.not_correct(paired, doc, ["w1", "w2"]) == [
        2, "trace w2 change"]
    assert bench_pairs.not_correct(paired[:1], doc, ["w1"]) == []
