#!/usr/bin/env python3
"""Deterministic dump of the package's decisions, for old-versus-new parity checks.

    python3 tools/parity_dump.py [TREE] | sha256sum

TREE is the root of a checkout whose src/noma_grouping is imported
(default: the repository holding this script). The game instances are the
pinned ones in this repository's bench/seeds.json, which is only read.
Two trees print the same bytes when they make the same decisions:

- run_game with the fga and the eba finder on every pinned game instance
  and on the infeasible start make_instance(50, 10, 4, 200001):
  each accepted step (BS, moves, total power before and after as
  float.hex), converged, eba_budget_exhaustions, the deterministic
  GameTrace counters (memo_hits, memo_solves, memo_batch_solves,
  eba_relaxations, candidates_tried), the final channel_of and the
  SHA-256 of p, then for every league graph the game built the SHA-256
  of its full_adjacency() and the outcome of find_negative_loop_eba on it
  (the cycle's node names, groups and delta as float.hex, None or
  exhausted, and eba_relaxations), so that a search change is compared
  graph by graph;
- enumerate_leagues (up to 3 nodes) on the starting grouping, whose
  emptiness is the start's is_nash_equilibrium verdict, and
  is_nash_equilibrium on the fga game's final grouping of
  make_instance(10, 3, 1, seed) for seeds 0-59;
- solve_all_powers on the initial, SCCD and Gale-Shapley groupings of
  every pinned power instance, under each decode-order rule (ccinr,
  channel_gain, rate_descending): feasible, fixed_point_iterations, the
  number of zero-power screens and of fixed-point continuations the solve
  ran (on a tree without power.screen_channel, each solve_one_channel
  call is one screen, and one continuation too unless it was refuted at
  iteration 1), sic_order and the SHA-256 of p, group_power and the CCINR
  s and interference;
- the CLI's CSV and --trace-dir logs for eba, fga and sccd at N = 12 and
  16, G = 3, M = 2, 3 trials, seed 7;
- generate_scenario for seeds 0-19 on the default layouts with M = 1, 2
  and 4 BSs and N = 0, 1 and 24 users, and on a rejection-heavy layout
  (one BS at the center of a 300 m square, 120 m clearance): the SHA-256
  of the positions, target rates and association, then the SCCD and
  Gale-Shapley channel_of under Rayleigh and under unit fading.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SEEDS_FILE = REPO / "bench" / "seeds.json"
GAME_CHANNELS, GAME_BS, ALPHA = 10, 4, 5.0
# (N, seed) of a game instance whose starting grouping is infeasible.
INFEASIBLE_START = (50, 200001)
ORDER_RULES = ("ccinr", "channel_gain", "rate_descending")


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def make_instance(pkg, num_users, num_channels, num_bs, seed):
    """Scenario and fading draw, derived as tests/conftest.make_instance derives them."""
    import numpy as np

    ss = np.random.SeedSequence((seed, num_users, num_channels, num_bs))
    s_scen, s_gain = [int(x) for x in ss.generate_state(2, np.uint64)]
    config = pkg.default_config(
        num_users=num_users, num_channels=num_channels, num_bs=num_bs, seed=s_scen
    )
    scenario = pkg.generate_scenario(config, s_scen)
    return scenario, pkg.draw_channel_gains(scenario, s_gain)


def node_name(pkg, node) -> str:
    return f"v{node.channel}" if isinstance(node, pkg.VirtualUser) else f"u{int(node)}"


def dump_games(pkg, out) -> None:
    with open(SEEDS_FILE) as fh:
        game_seeds = json.load(fh)["game"] + [INFEASIBLE_START]
    game_module = pkg.game
    original_build = game_module.build_graph
    for finder in ("fga", "eba"):
        for num_users, seed in game_seeds:
            scenario, gains = make_instance(pkg, num_users, GAME_CHANNELS, GAME_BS, seed)
            graphs = []

            def recording_build(*args, **kwargs):
                graph = original_build(*args, **kwargs)
                graphs.append(graph)
                return graph

            game_module.build_graph = recording_build
            try:
                grouping, solution, trace = pkg.run_game(gains, scenario, finder=finder, alpha=ALPHA)
            finally:
                game_module.build_graph = original_build
            out.write(f"game {finder} N={num_users} seed={seed}\n")
            for k, step in enumerate(trace.iterations):
                moves = " ".join(f"{u}->{g}" for u, g in step.action.moves)
                out.write(
                    f"  step {k} bs={step.bs} moves={moves} "
                    f"before={float(step.total_power_before_w).hex()} "
                    f"after={float(step.total_power_after_w).hex()}\n"
                )
            out.write(
                f"  converged={trace.converged} "
                f"eba_budget_exhaustions={trace.eba_budget_exhaustions}\n"
                f"  memo_hits={trace.memo_hits} memo_solves={trace.memo_solves} "
                f"memo_batch_solves={trace.memo_batch_solves} "
                f"eba_relaxations={trace.eba_relaxations} "
                f"candidates_tried={trace.candidates_tried}\n"
                f"  channel_of={grouping.channel_of.tolist()}\n"
                f"  p_sha256={sha(solution.p.tobytes())}\n"
                f"  graphs={len(graphs)}\n"
            )
            for graph in graphs:
                out.write(f"  adjacency bs={graph.bs} sha256={sha(graph.full_adjacency().tobytes())}\n")
                out.write(f"  eba bs={graph.bs} {eba_outcome(pkg, graph)}\n")


def eba_outcome(pkg, graph) -> str:
    """find_negative_loop_eba on the graph: its cycle, None or exhausted, and its budget count."""
    try:
        league = pkg.find_negative_loop_eba(graph)
    except pkg.graph.EbaBudgetExhausted:
        found = "exhausted"
    else:
        found = "None" if league is None else (
            f"cycle={','.join(node_name(pkg, node) for node in league.cycle)} "
            f"groups={list(league.groups)} delta={float(league.predicted_delta_w).hex()}"
        )
    return f"{found} relaxations={graph.eba_relaxations}"


def dump_oracles(pkg, out) -> None:
    for seed in range(60):
        scenario, gains = make_instance(pkg, 10, 3, 1, seed)
        start = pkg.initial_grouping(gains, scenario)
        leagues = pkg.enumerate_leagues(gains, scenario, start, 3)
        final, _solution, _trace = pkg.run_game(gains, scenario, finder="fga", alpha=ALPHA)
        out.write(
            f"oracle seed={seed} leagues={len(leagues)} "
            f"nash_start={not leagues} "
            f"nash_final={pkg.is_nash_equilibrium(gains, scenario, final, 3)}\n"
        )
        for league in leagues:
            cycle = ",".join(node_name(pkg, node) for node in league.cycle)
            out.write(f"  {cycle} groups={list(league.groups)} delta={float(league.predicted_delta_w).hex()}\n")


def dump_powers(pkg, out) -> None:
    with open(SEEDS_FILE) as fh:
        power_seeds = json.load(fh)["power"]
    power = pkg.power
    counts = {"screens": 0, "continuations": 0}

    def counting(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    if hasattr(power, "screen_channel"):
        wrappers = {
            "screen_channel": counting(power.screen_channel, "screens"),
            "continue_channel": counting(power.continue_channel, "continuations"),
        }
    else:  # a tree from before the split: count each fixed point's parts
        solve_one_channel = power.solve_one_channel

        def counting_fixed_point(*args, **kwargs):
            res = solve_one_channel(*args, **kwargs)
            counts["screens"] += 1
            counts["continuations"] += res.feasible or res.iterations > 1
            return res

        wrappers = {"solve_one_channel": counting_fixed_point}
    originals = {attr: getattr(power, attr) for attr in wrappers}

    for num_users, seed in power_seeds:
        scenario, gains = make_instance(pkg, num_users, GAME_CHANNELS, GAME_BS, seed)
        groupings = {
            "initial": pkg.initial_grouping(gains, scenario),
            "sccd": pkg.baselines.sccd_grouping(gains, scenario),
            "gale_shapley": pkg.baselines.gale_shapley_grouping(gains, scenario),
        }
        for name, grouping in groupings.items():
            for rule in ORDER_RULES:
                counts.update(screens=0, continuations=0)
                for attr, wrapper in wrappers.items():
                    setattr(power, attr, wrapper)
                try:
                    solution = pkg.solve_all_powers(gains, grouping, scenario, order_rule=rule)
                finally:
                    for attr, original in originals.items():
                        setattr(power, attr, original)
                table = solution.ccinr
                ccinr_sha = (
                    "none" if table is None
                    else f"{sha(table.s.tobytes())} {sha(table.interference.tobytes())}"
                )
                orders = ";".join(
                    f"{m},{g}:{','.join(map(str, order))}"
                    for (m, g), order in sorted(solution.sic_order.items())
                )
                out.write(
                    f"power N={num_users} seed={seed} grouping={name} rule={rule} "
                    f"feasible={solution.feasible} "
                    f"iterations={solution.fixed_point_iterations} "
                    f"screens={counts['screens']} continuations={counts['continuations']}\n"
                    f"  sic_order={orders}\n"
                    f"  p_sha256={sha(solution.p.tobytes())} "
                    f"group_power_sha256={sha(solution.group_power.tobytes())}\n"
                    f"  ccinr_sha256={ccinr_sha}\n"
                )


def dump_cli(pkg, out) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "results.csv"
        trace_dir = Path(tmp) / "traces"
        trace_dir.mkdir()
        argv = [
            "--strategy", "eba", "--strategy", "fga", "--strategy", "sccd",
            "--users", "12", "16", "--groups", "3", "--bs", "2",
            "--trials", "3", "--seed", "7",
            "--out", str(csv_path), "--trace-dir", str(trace_dir),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            pkg.cli.main(argv)
        out.write("cli results.csv\n")
        out.write(csv_path.read_text())
        for path in sorted(trace_dir.iterdir()):
            out.write(f"cli {path.name}\n")
            out.write(path.read_text())


def instance_layouts(pkg):
    """(name, config) of every layout the instance section draws."""
    for num_bs in (1, 2, 4):
        for num_users in (0, 1, 24):
            yield f"default M={num_bs} N={num_users}", pkg.default_config(
                num_users=num_users, num_channels=4, num_bs=num_bs
            )
    yield "sparse M=1 N=24", pkg.SimConfig(
        num_bs=1, num_users=24, num_channels=4, area=(0.0, 0.0, 300.0, 300.0),
        bs_positions=[[150.0, 150.0]], min_user_bs_distance=120.0,
    )


def dump_instances(pkg, out) -> None:
    for name, config in instance_layouts(pkg):
        for seed in range(20):
            try:
                scenario = pkg.generate_scenario(config, seed)
            except pkg.ScenarioGenerationError:
                out.write(f"instance {name} seed={seed} error\n")
                continue
            arrays = (scenario.user_positions, scenario.target_rates_bps, scenario.association)
            out.write(
                f"instance {name} seed={seed} "
                f"scenario_sha256={sha(b''.join(a.tobytes() for a in arrays))}\n"
            )
            for fading, unit in (("rayleigh", False), ("unit", True)):
                gains = pkg.draw_channel_gains(scenario, seed, unit_fading=unit)
                out.write(
                    f"  {fading} sccd={pkg.sccd_grouping(gains, scenario).channel_of.tolist()} "
                    f"gale_shapley={pkg.gale_shapley_grouping(gains, scenario).channel_of.tolist()}\n"
                )


def main(argv) -> int:
    tree = Path(argv[1]).resolve() if len(argv) > 1 else REPO
    sys.path.insert(0, str(tree / "src"))
    import noma_grouping as pkg
    import noma_grouping.cli  # noqa: F401  (binds pkg.cli)

    if Path(pkg.__file__).resolve().parent != tree / "src" / "noma_grouping":
        raise ImportError(f"noma_grouping was imported from {pkg.__file__}, not from {tree}")
    out = sys.stdout
    dump_games(pkg, out)
    dump_oracles(pkg, out)
    dump_powers(pkg, out)
    dump_cli(pkg, out)
    dump_instances(pkg, out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
