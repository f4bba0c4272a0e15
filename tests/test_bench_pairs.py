"""tools/bench_pairs.py's command line, and its report on fixed numbers, with no benchmark run."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "better": "lower", "bound": 0.25},
]


def _run(ops_per_s, setup_s, correct=True, attempted=200, failed=37):
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {"ops_per_s": {"value": ops_per_s}, "setup_s": {"value": setup_s}},
    }


def test_clear_gain_holds():
    runs = {
        "parent": [_run(100.0 + i, 0.20) for i in range(10)],
        "change": [_run(120.0 + i, 0.20) for i in range(10)],
    }
    report = bench_pairs.summarize(runs, END_TO_END)
    ops = report["metrics"]["ops_per_s"]
    assert ops["parent"] == (102.25, 104.5, 106.75)
    assert ops["change"] == (122.25, 124.5, 126.75)
    assert (ops["wins"], ops["pairs"], ops["gain_holds"]) == (10, 10, True)
    # equal values are ties: no wins, no gain
    setup = report["metrics"]["setup_s"]
    assert (setup["wins"], setup["gain_holds"]) == (0, False)
    assert report["sides"]["parent"] == {"correct": True, "failed_share": 0.185}


def test_gain_needs_nine_tenths_of_the_pairs():
    parent = [100.0 + i for i in range(10)]
    change = [130.0 + i for i in range(8)] + [90.0, 90.0]  # 8 of 10 wins
    runs = {"parent": [_run(v, 0.2) for v in parent], "change": [_run(v, 0.2) for v in change]}
    ops = bench_pairs.summarize(runs, END_TO_END)["metrics"]["ops_per_s"]
    assert ops["wins"] == 8
    assert not ops["gain_holds"]


def test_gain_needs_the_medians_further_apart_than_the_parent_spread():
    # the change wins every pair, by less than the parent's interquartile range
    parent = [100.0, 140.0] * 5
    runs = {
        "parent": [_run(v, 0.2) for v in parent],
        "change": [_run(v + 1.0, 0.2) for v in parent],
    }
    ops = bench_pairs.summarize(runs, END_TO_END)["metrics"]["ops_per_s"]
    assert ops["wins"] == 10
    assert ops["parent"][2] - ops["parent"][0] == 40.0
    assert not ops["gain_holds"]


def test_lower_is_better_and_failures_counted():
    runs = {
        "parent": [_run(100.0, 0.30 + 0.001 * i) for i in range(10)],
        "change": [_run(100.0, 0.20, correct=i != 3, failed=40) for i in range(10)],
    }
    report = bench_pairs.summarize(runs, END_TO_END)
    setup = report["metrics"]["setup_s"]
    assert (setup["wins"], setup["gain_holds"]) == (10, True)
    assert report["sides"]["change"] == {"correct": False, "failed_share": 0.2}
    text = bench_pairs.format_report(report)
    assert "setup_s (lower is better)" in text
    assert "change wins 10/10  gain holds: yes" in text
    assert "change: correct=False failed_share=0.2000" in text


def test_gain_needs_ten_pairs():
    # nine clear wins out of nine pairs are too few pairs
    runs = {
        "parent": [_run(100.0 + i, 0.2) for i in range(9)],
        "change": [_run(130.0 + i, 0.2) for i in range(9)],
    }
    ops = bench_pairs.summarize(runs, END_TO_END)["metrics"]["ops_per_s"]
    assert (ops["wins"], ops["pairs"]) == (9, 9)
    assert not ops["gain_holds"]


def test_bound_is_a_share_of_the_parent_median():
    parent = [100.0 + i for i in range(10)]  # median 104.5, quartiles 102.25-106.75
    for change, within in ((90.0, True), (79.0, True), (78.0, False), (70.0, False)):
        # 25% of 104.5 is 26.125: 78.375 is the lowest median within the bound
        runs = {"parent": [_run(v, 0.2) for v in parent], "change": [_run(change, 0.2) for _ in parent]}
        ops = bench_pairs.summarize(runs, END_TO_END)["metrics"]["ops_per_s"]
        assert (ops["bound"], ops["within_bound"]) == (0.25, within), change


def test_bound_lower_is_better():
    runs = {
        "parent": [_run(100.0, 0.200) for _ in range(10)],
        "change": [_run(100.0, 0.240) for _ in range(10)],
    }
    assert bench_pairs.summarize(runs, END_TO_END)["metrics"]["setup_s"]["within_bound"] is True
    runs["change"] = [_run(100.0, 0.260) for _ in range(10)]
    report = bench_pairs.summarize(runs, END_TO_END)
    assert report["metrics"]["setup_s"]["within_bound"] is False
    assert "within bound 0.25: no" in bench_pairs.format_report(report)
    assert report["metrics"]["ops_per_s"]["within_bound"] is True


def test_bound_unresolved_when_the_parent_spreads_wider():
    parent = [50.0, 150.0] * 5  # quartiles 50-150 around a median of 100: spread 1.0 > 0.25
    for change, within in ((100.0, None), (60.0, None), (151.0, True)):
        runs = {"parent": [_run(v, 0.2) for v in parent], "change": [_run(change, 0.2) for _ in parent]}
        report = bench_pairs.summarize(runs, END_TO_END)
        assert report["metrics"]["ops_per_s"]["within_bound"] is within, change
    # 151 beats every parent run, so the bound holds however wide the spread
    runs["change"][0] = _run(149.0, 0.2)
    report = bench_pairs.summarize(runs, END_TO_END)
    assert report["metrics"]["ops_per_s"]["within_bound"] is None
    assert "within bound 0.25: unresolved" in bench_pairs.format_report(report)


def test_workload_may_be_given_more_than_once():
    args = bench_pairs.parse_args(["abc", "HEAD", "--workload", "game-eba", "--workload", "game-fga", "--seed", "7000"])
    assert (args.parent, args.change, args.workload, args.seed) == ("abc", "HEAD", ["game-eba", "game-fga"], 7000)
    assert bench_pairs.parse_args(["abc", "HEAD", "--workload", "power-solve"]).workload == ["power-solve"]
    assert bench_pairs.parse_args(["abc", "HEAD", "--workload", "power-solve"]).seed == 0


def test_workload_is_required():
    with pytest.raises(SystemExit):
        bench_pairs.parse_args(["abc", "HEAD"])
