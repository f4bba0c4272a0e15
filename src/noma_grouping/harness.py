"""Seeded experiment runner: sweeps, matched trials, metrics, CSV output.

A run is a pure function of its spec: every (sweep point, trial) derives
its scenario and fading seeds from (base_seed, sweep index, trial) only,
so all strategies see identical instances and reruns reproduce the table
byte for byte (wallclock is kept in memory but never written).
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from . import baselines
from .baselines import StrategyKind
from .game import run_game
from .power import solve_all_powers, total_power_or_inf
from .scenario import (
    ChannelGains,
    Scenario,
    SimConfig,
    draw_channel_gains,
    generate_scenario,
    default_config,
)

# Keys of a --config file: the sweep defaults the CLI reads.
CONFIG_KEYS = ("num_users", "num_channels", "num_bs", "rate_range_bps")

CSV_COLUMNS = [
    "sweep_index",
    "num_bs",
    "num_users",
    "num_channels",
    "rate_low_bps",
    "rate_high_bps",
    "trial",
    "strategy",
    "seed",
    "feasible",
    "total_power_w",
    "total_power_dbm",
    "avg_interference_w",
    "game_iterations",
]


def watts_to_dbm(power_w: float) -> float:
    if power_w <= 0.0 or not math.isfinite(power_w):
        return -math.inf if power_w == 0.0 else math.nan
    return 10.0 * math.log10(power_w * 1000.0)


@dataclass
class SweepPoint:
    index: int
    num_bs: int
    num_users: int
    num_channels: int
    rate_range_bps: tuple


@dataclass
class TrialResult:
    sweep: SweepPoint
    trial: int
    strategy: str
    seed: int
    feasible: bool
    total_power_w: float
    total_power_dbm: float
    avg_intercell_interference_w: float
    game_iterations: int
    wallclock_ms: float


@dataclass
class ExperimentSpec:
    """Cartesian sweep over instance sizes, run by every strategy."""

    strategies: list
    trials: int = 1
    base_seed: int = 0
    num_users_list: list = field(default_factory=lambda: [50])
    num_channels_list: list = field(default_factory=lambda: [10])
    num_bs_list: list = field(default_factory=lambda: [4])
    rate_ranges_bps: list = field(default_factory=lambda: [(60e3, 600e3)])
    alphas: list = field(default_factory=lambda: [5.0])
    output_path: str | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.strategies:
            raise ValueError("at least one strategy required")

    def sweep_points(self) -> list[SweepPoint]:
        points = []
        combos = product(
            self.num_bs_list, self.num_users_list, self.num_channels_list, self.rate_ranges_bps
        )
        for idx, (m, n, g, rr) in enumerate(combos):
            points.append(SweepPoint(idx, m, n, g, tuple(rr)))
        return points

    def expanded_strategies(self) -> list[StrategyKind]:
        out = []
        for s in self.strategies:
            if s.kind == "fga" and s.alpha is None:
                out.extend(StrategyKind("fga", a) for a in self.alphas)
            else:
                out.append(s)
        return out


def trial_seeds(base_seed: int, sweep_index: int, trial: int) -> tuple[int, int]:
    """Scenario and fading seeds of one matched trial."""
    ss = np.random.SeedSequence((base_seed, sweep_index, trial))
    a, b = ss.generate_state(2, np.uint64)
    return int(a), int(b)


def make_instance(point: SweepPoint, scen_seed: int, gain_seed: int):
    config = default_config(
        num_users=point.num_users,
        num_channels=point.num_channels,
        num_bs=point.num_bs,
        rate_range_bps=point.rate_range_bps,
        seed=scen_seed,
    )
    scenario = generate_scenario(config, scen_seed)
    gains = draw_channel_gains(scenario, gain_seed)
    return scenario, gains


def run_strategy(gains: ChannelGains, scenario: Scenario, strategy: StrategyKind):
    """Dispatch one strategy; returns (grouping, solution, game trace or None)."""
    if strategy.kind in ("eba", "fga"):
        alpha = strategy.alpha if strategy.alpha is not None else 5.0
        grouping, solution, trace = run_game(
            gains, scenario, finder=strategy.kind, alpha=alpha
        )
        return grouping, solution, trace
    if strategy.kind == "sccd":
        grouping = baselines.sccd_grouping(gains, scenario)
    elif strategy.kind == "gale_shapley":
        grouping = baselines.gale_shapley_grouping(gains, scenario)
    elif strategy.kind == "exhaustive":
        grouping, _ = baselines.exhaustive_best_grouping(gains, scenario)
    else:
        raise ValueError(f"unknown strategy {strategy.kind!r}")
    return grouping, solve_all_powers(gains, grouping, scenario), None


def run_experiment(spec: ExperimentSpec, trace_dir: str | None = None) -> list[TrialResult]:
    """All (sweep point, trial, strategy) runs, in fixed order.

    Infeasible outcomes are recorded, never dropped. When output_path is
    set the deterministic CSV is written as well; trace_dir additionally
    writes one line-oriented game log per game-strategy trial.
    """
    results: list[TrialResult] = []
    strategies = spec.expanded_strategies()
    for point in spec.sweep_points():
        for trial in range(spec.trials):
            scen_seed, gain_seed = trial_seeds(spec.base_seed, point.index, trial)
            scenario, gains = make_instance(point, scen_seed, gain_seed)
            for strategy in strategies:
                start = time.perf_counter()
                _grouping, solution, trace = run_strategy(gains, scenario, strategy)
                elapsed_ms = (time.perf_counter() - start) * 1e3
                feasible = solution.feasible
                total_w = total_power_or_inf(solution) if feasible else math.nan
                avg_i = (
                    float(np.mean(solution.ccinr.interference)) if feasible else math.nan
                )
                results.append(
                    TrialResult(
                        sweep=point,
                        trial=trial,
                        strategy=strategy.label(),
                        seed=scen_seed,
                        feasible=feasible,
                        total_power_w=total_w,
                        total_power_dbm=watts_to_dbm(total_w) if feasible else math.nan,
                        avg_intercell_interference_w=avg_i,
                        game_iterations=len(trace.iterations) if trace else 0,
                        wallclock_ms=elapsed_ms,
                    )
                )
                if trace_dir is not None and trace is not None:
                    name = f"trace_s{point.index}_t{trial}_{strategy.label()}.log"
                    with open(f"{trace_dir}/{name}", "w") as fh:
                        write_trace_log(trace, fh)
    if spec.output_path is not None:
        with open(spec.output_path, "w", newline="") as fh:
            fh.write(results_csv(results))
    return results


def results_csv(results: list[TrialResult]) -> str:
    """Deterministic CSV of the results (full-precision floats)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in results:
        writer.writerow(
            [
                r.sweep.index,
                r.sweep.num_bs,
                r.sweep.num_users,
                r.sweep.num_channels,
                repr(float(r.sweep.rate_range_bps[0])),
                repr(float(r.sweep.rate_range_bps[1])),
                r.trial,
                r.strategy,
                r.seed,
                int(r.feasible),
                repr(r.total_power_w),
                repr(r.total_power_dbm),
                repr(r.avg_intercell_interference_w),
                r.game_iterations,
            ]
        )
    return buf.getvalue()


def write_trace_log(trace, fh) -> None:
    """One line per accepted action: BS, moves, and the dBm step."""
    for k, step in enumerate(trace.iterations):
        moves = ";".join(f"u{u}->g{g}" for u, g in step.action.moves)
        before = watts_to_dbm(step.total_power_before_w)
        after = watts_to_dbm(step.total_power_after_w)
        fh.write(
            f"iter={k} bs={step.bs} moves={moves} "
            f"before_dbm={before:.6f} after_dbm={after:.6f} "
            f"delta_db={after - before:.6f}\n"
        )
    fh.write(
        f"converged={trace.converged} "
        f"final_dbm={watts_to_dbm(trace.final_total_power_w):.6f}\n"
    )


def summarize(results: list[TrialResult]) -> dict:
    """Per-(sweep, strategy) stats plus matched-seed win-or-tie rates."""
    if not results:
        raise ValueError("no results to summarize")
    by_key: dict = {}
    for r in results:
        by_key.setdefault((r.sweep.index, r.strategy), []).append(r)

    stats = []
    for (sweep_idx, strategy), rows in sorted(by_key.items()):
        powers = [r.total_power_w for r in rows if r.feasible]
        interf = [r.avg_intercell_interference_w for r in rows if r.feasible]
        stats.append(
            {
                "sweep_index": sweep_idx,
                "strategy": strategy,
                "trials": len(rows),
                "feasible": len(powers),
                "mean_power_w": float(np.mean(powers)) if powers else math.nan,
                "std_power_w": float(np.std(powers)) if powers else math.nan,
                "mean_interference_w": float(np.mean(interf)) if interf else math.nan,
                "std_interference_w": float(np.std(interf)) if interf else math.nan,
            }
        )

    strategies = sorted({r.strategy for r in results})
    sweeps = sorted({r.sweep.index for r in results})
    win_rates = []
    for sweep_idx in sweeps:
        table: dict = {}
        for r in results:
            if r.sweep.index == sweep_idx:
                table[(r.strategy, r.trial)] = (
                    r.total_power_w if r.feasible else math.inf
                )
        trials = sorted({t for (_s, t) in table})
        for a in strategies:
            for b in strategies:
                if a == b:
                    continue
                wins = sum(
                    1
                    for t in trials
                    if table.get((a, t), math.inf) <= table.get((b, t), math.inf)
                )
                win_rates.append(
                    {
                        "sweep_index": sweep_idx,
                        "strategy": a,
                        "versus": b,
                        "win_or_tie_rate": wins / len(trials) if trials else math.nan,
                    }
                )
    return {"stats": stats, "win_rates": win_rates}


def load_config(path: str) -> SimConfig:
    """Default-layout SimConfig from a JSON file.

    The sweep reads only the keys in CONFIG_KEYS; any other key raises
    ValueError rather than being ignored.
    """
    with open(path) as fh:
        raw = json.load(fh)
    unknown = sorted(set(raw) - set(CONFIG_KEYS))
    if unknown:
        raise ValueError(
            f"unsupported config keys {unknown}; allowed: {', '.join(CONFIG_KEYS)}"
        )
    if "rate_range_bps" in raw:
        raw["rate_range_bps"] = tuple(raw["rate_range_bps"])
    return default_config(**raw)
