#!/usr/bin/env python3
"""Alternating benchmark pairs of two git revisions, with the gain rule applied.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W [--seed S]

PARENT and CHANGE are git revisions of the repository holding this script
(`git stash create` names an uncommitted working tree). Each is exported
with `git archive | tar -x` into its own temporary directory, so neither
side reuses a __pycache__ that the other or an earlier run left behind;
the exports are removed on exit. Pair i of ten runs
`bench/run.py --workload W --seed S+i --trace 0` in both exports, at the
benchmark's own run length, the parent first in even pairs and the
change first in odd ones.

For every end-to-end metric of BENCHMARK.json it prints each side's median
and quartiles, the pairs the change wins (ties count for neither side) and
whether a gain holds: there are at least ten pairs, the change wins at
least nine tenths of them, and its median is better than the parent's by more than the distance
between the parent's quartiles. It also prints whether the metric stays
within its bound, a share of the parent's median (bench/README.md): "no"
when the change's median is worse than the parent's by more than that
share, and "unresolved" when the parent's quartiles are further apart
than that share, unless every change run reads better than every parent
run. Last come each side's `correct` verdicts and failed share of the
attempted operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10
BOUND_WORDS = {True: "yes", False: "no", None: "unresolved"}


def export(rev: str, dest: Path) -> None:
    """Write the tree of git revision rev into dest."""
    dest.mkdir()
    archive = subprocess.Popen(["git", "-C", str(REPO), "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {rev} failed")


def run_bench(tree: Path, workload: str, seed: int) -> dict:
    """One untraced benchmark run in tree; its final JSON line."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} failed:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile), inclusive method."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs: dict, end_to_end: list) -> dict:
    """The report of paired runs.

    runs maps "parent" and "change" to equally long lists of bench/run.py
    results, pair i at index i; end_to_end is BENCHMARK.json's list of
    {"name", "better", ...}. Returns {"metrics": {name: {...}}, "sides":
    {side: {"correct", "failed_share"}}}. A metric's "within_bound" is
    True, False, or None when unresolved.
    """
    pairs = len(runs["parent"])
    metrics = {}
    for spec in end_to_end:
        name = spec["name"]
        sign = 1.0 if spec["better"] == "higher" else -1.0
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        stats = {side: quartiles(values[side]) for side in SIDES}
        wins = sum(sign * (c - p) > 0.0 for p, c in zip(values["parent"], values["change"]))
        q1, median, q3 = stats["parent"]
        gain = sign * (stats["change"][1] - median)
        allowed = spec["bound"] * abs(median)
        if min(sign * c for c in values["change"]) > max(sign * p for p in values["parent"]):
            within_bound = True  # every change run is better than every parent run
        elif q3 - q1 > allowed:
            within_bound = None  # the parent's own runs spread wider than the bound
        else:
            within_bound = gain >= -allowed
        metrics[name] = {
            "better": spec["better"],
            "parent": stats["parent"],
            "change": stats["change"],
            "wins": wins,
            "pairs": pairs,
            "gain_holds": pairs >= PAIRS and wins >= 0.9 * pairs and gain > q3 - q1,
            "bound": spec["bound"],
            "within_bound": within_bound,
        }
    sides = {}
    for side in SIDES:
        attempted = sum(r["attempted"] for r in runs[side])
        sides[side] = {
            "correct": all(r["correct"] for r in runs[side]),
            "failed_share": sum(r["failed"] for r in runs[side]) / attempted if attempted else 0.0,
        }
    return {"metrics": metrics, "sides": sides}


def format_report(report: dict) -> str:
    lines = []
    for name, m in report["metrics"].items():
        lines.append(
            f"{name} ({m['better']} is better): "
            + "  ".join(
                f"{side} median {m[side][1]:.6g} [q1 {m[side][0]:.6g}, q3 {m[side][2]:.6g}]"
                for side in SIDES
            )
            + f"  change wins {m['wins']}/{m['pairs']}  gain holds: {'yes' if m['gain_holds'] else 'no'}"
            + f"  within bound {m['bound']:g}: {BOUND_WORDS[m['within_bound']]}"
        )
    for side, s in report["sides"].items():
        lines.append(f"{side}: correct={s['correct']} failed_share={s['failed_share']:.4f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    runs = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side, rev in zip(SIDES, (args.parent, args.change)):
            export(rev, trees[side])
        end_to_end = json.loads((trees["parent"] / "BENCHMARK.json").read_text())["end_to_end"]
        for i in range(PAIRS):
            seed = args.seed + i
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                runs[side].append(run_bench(trees[side], args.workload, seed))
            values = "  ".join(
                f"{side} {runs[side][-1]['metrics']['ops_per_s']['value']:.6g}" for side in SIDES
            )
            print(f"pair {i} seed {seed}: ops_per_s {values}", file=sys.stderr, flush=True)
    print(f"workload {args.workload}: {PAIRS} pairs from seed {args.seed}")
    print(format_report(summarize(runs, end_to_end)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
