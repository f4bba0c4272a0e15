"""Walkthrough: seeded benchmark of grouping strategies.

Runs matched-seed trials of the two game strategies against the SCCD and
Gale-Shapley references on a small sweep, prints the summary table, and
writes the deterministic CSV into a temporary directory. Infeasible
outcomes (a strategy's grouping cannot meet the QoS targets at any power)
stay in the table.
"""

import tempfile
from pathlib import Path

from noma_grouping import ExperimentSpec, StrategyKind, run_experiment, summarize
from noma_grouping.harness import watts_to_dbm

spec = ExperimentSpec(
    strategies=[
        StrategyKind("eba"),
        StrategyKind("fga", 5.0),
        StrategyKind("sccd"),
        StrategyKind("gale_shapley"),
    ],
    trials=5,
    base_seed=2024,
    num_users_list=[12, 16],
    num_channels_list=[3],
    num_bs_list=[2],
    rate_ranges_bps=[(60e3, 400e3)],
)

with tempfile.TemporaryDirectory() as tmp:
    spec.output_path = str(Path(tmp) / "strategy_benchmark.csv")
    results = run_experiment(spec)
    csv_lines = Path(spec.output_path).read_text().splitlines()
summary = summarize(results)

print(f"{'sweep':>5} {'strategy':<16} {'feasible':>9} {'mean power':>12} {'mean I (W)':>12}")
for row in summary["stats"]:
    dbm = watts_to_dbm(row["mean_power_w"])
    print(
        f"{row['sweep_index']:>5} {row['strategy']:<16} "
        f"{row['feasible']:>4}/{row['trials']:<4} {dbm:>9.2f} dBm "
        f"{row['mean_interference_w']:>12.3e}"
    )

print("\nmatched-seed win-or-tie rates (row strategy vs column):")
strategies = sorted({r.strategy for r in results})
table = {(w["sweep_index"], w["strategy"], w["versus"]): w["win_or_tie_rate"]
         for w in summary["win_rates"]}
for a in strategies:
    cells = []
    for b in strategies:
        if a == b:
            cells.append("   - ")
        else:
            rate = table.get((0, a, b), float("nan"))
            cells.append(f"{rate:5.2f}")
    print(f"  {a:<16} {' '.join(cells)}")

print(f"\nthe CSV holds {len(csv_lines) - 1} rows; header: {csv_lines[0]}")
