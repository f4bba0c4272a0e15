"""Walkthrough: league graphs and negative differ-group loops.

One BS's users (plus a zero-rate virtual user per subchannel) form a
weighted digraph; a negative-weight cycle through pairwise distinct
groups is exactly a set of moves that lowers total power. The demo builds
the graph, runs both detectors, applies the loop, and shows the predicted
delta matching the recomputed one.
"""

import tempfile
from pathlib import Path

import numpy as np

from noma_grouping import (
    VirtualUser,
    apply_league,
    build_graph,
    draw_channel_gains,
    dump_adjacency_csv,
    find_negative_loop_eba,
    find_negative_loop_fga,
    generate_scenario,
    initial_grouping,
    default_config,
    solve_all_powers,
    total_power,
)

config = default_config(num_users=9, num_channels=3, num_bs=1, seed=31)
scenario = generate_scenario(config, seed=31)
gains = draw_channel_gains(scenario, seed=32)
grouping = initial_grouping(gains, scenario)
base = solve_all_powers(gains, grouping, scenario)
print(f"base total power: {total_power(base):.4e} W")

graph = build_graph(gains, scenario, grouping, bs=0)
adjacency = graph.full_adjacency()
finite = np.isfinite(adjacency)
print(f"graph: {graph.num_nodes} nodes ({graph.num_real} real), "
      f"{int(finite.sum())} edges, most negative {adjacency[finite].min():.3e} W")

with tempfile.TemporaryDirectory() as tmp:
    dump_path = Path(tmp) / "league_graph.csv"
    dump_adjacency_csv(graph, dump_path)
    lines = dump_path.read_text().splitlines()
print(f"adjacency dump: {len(lines) - 1} edge rows, columns {lines[0]}")


def describe(node):
    return f"virtual(ch{node.channel})" if isinstance(node, VirtualUser) else f"u{node}"


exact = find_negative_loop_eba(graph)
greedy = find_negative_loop_fga(graph, alpha=5.0)
for name, league in (("exact search", exact), ("greedy search", greedy)):
    if league is None:
        print(f"{name}: no negative differ-group loop")
        continue
    cyc = " -> ".join(describe(x) for x in league.cycle)
    print(f"{name}: {league.kind} league [{cyc}] predicted {league.predicted_delta_w:.3e} W")

league = exact or greedy
if league is not None:
    moved = apply_league(grouping, league)
    after = solve_all_powers(gains, moved, scenario)
    actual = total_power(after) - total_power(base)
    print(f"applied: actual delta {actual:.3e} W "
          f"(prediction error {abs(actual - league.predicted_delta_w):.1e} W)")
else:
    print("the starting grouping is already all-stable for this draw")
