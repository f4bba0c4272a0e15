"""tools/bench_pairs.py's report on fixed numbers, with no benchmark run."""

import importlib.util
from pathlib import Path

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
