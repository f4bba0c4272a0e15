"""Seeded experiment runner: sweeps, matched trials, metrics, CSV output.

A run is a pure function of its spec: every (sweep point, trial) derives
its scenario and fading seeds from (base_seed, sweep index, trial) only,
so all strategies see identical instances and reruns reproduce the table
byte for byte. A TrialResult is one row of that table: its fields are the
columns, in order.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import astuple, dataclass, fields
from itertools import product

import numpy as np

from . import baselines
from .game import DEFAULT_ALPHA, run_game
from .graph import check_alpha
from .power import solve_all_powers, total_power
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

def watts_to_dbm(power_w: float) -> float:
    if power_w <= 0.0 or not math.isfinite(power_w):
        return -math.inf if power_w == 0.0 else math.nan
    return 10.0 * math.log10(power_w * 1000.0)


@dataclass(frozen=True)
class StrategyKind:
    """Named strategy; alpha is the greedy finder's restart factor.

    "fga" without an alpha gets DEFAULT_ALPHA, and its alpha must be
    finite and > 0 (graph.check_alpha). The other kinds read no alpha and
    reject one; "eba" runs its greedy fallback at DEFAULT_ALPHA.
    """

    kind: str
    alpha: float | None = None

    _KINDS = ("eba", "fga", "sccd", "gale_shapley", "exhaustive")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown strategy {self.kind!r}")
        if self.kind == "fga":
            if self.alpha is None:
                object.__setattr__(self, "alpha", DEFAULT_ALPHA)
            check_alpha(self.alpha)
        elif self.alpha is not None:
            raise ValueError(f"strategy {self.kind!r} takes no alpha, got {self.alpha!r}")

    def label(self) -> str:
        if self.kind == "fga":
            return f"fga(alpha={self.alpha:g})"
        return self.kind


@dataclass
class SweepPoint:
    index: int
    num_bs: int
    num_users: int
    num_channels: int
    rate_range_bps: tuple


@dataclass
class TrialResult:
    """One row of the results CSV; the fields are its columns, in order."""

    sweep_index: int
    num_bs: int
    num_users: int
    num_channels: int
    rate_low_bps: float
    rate_high_bps: float
    trial: int
    strategy: str
    seed: int
    feasible: bool
    total_power_w: float
    total_power_dbm: float
    avg_interference_w: float
    game_iterations: int


CSV_COLUMNS = [field.name for field in fields(TrialResult)]


@dataclass
class ExperimentSpec:
    """Cartesian sweep over instance sizes, run by every strategy.

    Strategy labels key the results, so no two strategies may share one.
    Every user, subchannel and BS count must be at least 1.
    """

    strategies: list
    num_users_list: list
    num_channels_list: list
    num_bs_list: list
    rate_ranges_bps: list
    trials: int = 1
    base_seed: int = 0
    output_path: str | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.strategies:
            raise ValueError("at least one strategy required")
        for name in ("num_users_list", "num_channels_list", "num_bs_list"):
            low = [count for count in getattr(self, name) if count < 1]
            if low:
                raise ValueError(f"{name} holds counts below 1: {low}")
        labels = [strategy.label() for strategy in self.strategies]
        repeated = sorted({label for label in labels if labels.count(label) > 1})
        if repeated:
            raise ValueError(f"strategy labels {repeated} are used more than once")

    def sweep_points(self) -> list[SweepPoint]:
        points = []
        combos = product(
            self.num_bs_list, self.num_users_list, self.num_channels_list, self.rate_ranges_bps
        )
        for idx, (m, n, g, rr) in enumerate(combos):
            points.append(SweepPoint(idx, m, n, g, tuple(rr)))
        return points


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
    if strategy.kind == "fga":
        return run_game(gains, scenario, finder="fga", alpha=strategy.alpha)
    if strategy.kind == "eba":
        return run_game(gains, scenario, finder="eba")
    if strategy.kind == "sccd":
        grouping = baselines.sccd_grouping(gains, scenario)
    elif strategy.kind == "gale_shapley":
        grouping = baselines.gale_shapley_grouping(gains, scenario)
    else:  # "exhaustive"; StrategyKind rejects unknown kinds
        grouping, _ = baselines.exhaustive_best_grouping(gains, scenario)
    return grouping, solve_all_powers(gains, grouping, scenario), None


def run_experiment(spec: ExperimentSpec, trace_dir: str | None = None) -> list[TrialResult]:
    """All (sweep point, trial, strategy) runs, in fixed order.

    Infeasible outcomes are recorded, never dropped. When output_path is
    set the deterministic CSV is written as well; trace_dir additionally
    writes one line-oriented game log per game-strategy trial.
    """
    results: list[TrialResult] = []
    for point in spec.sweep_points():
        for trial in range(spec.trials):
            scen_seed, gain_seed = trial_seeds(spec.base_seed, point.index, trial)
            scenario, gains = make_instance(point, scen_seed, gain_seed)
            rate_low, rate_high = point.rate_range_bps
            for strategy in spec.strategies:
                _grouping, solution, trace = run_strategy(gains, scenario, strategy)
                feasible = solution.feasible
                total_w = total_power(solution) if feasible else math.nan
                avg_i = (
                    float(np.mean(solution.ccinr.interference)) if feasible else math.nan
                )
                results.append(
                    TrialResult(
                        sweep_index=point.index,
                        num_bs=point.num_bs,
                        num_users=point.num_users,
                        num_channels=point.num_channels,
                        rate_low_bps=float(rate_low),
                        rate_high_bps=float(rate_high),
                        trial=trial,
                        strategy=strategy.label(),
                        seed=scen_seed,
                        feasible=feasible,
                        total_power_w=total_w,
                        total_power_dbm=watts_to_dbm(total_w) if feasible else math.nan,
                        avg_interference_w=avg_i,
                        game_iterations=len(trace.iterations) if trace else 0,
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
    """Deterministic CSV of the results: one row per TrialResult, floats at
    full precision (the csv module writes repr of a float), bools as 0/1."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in results:
        writer.writerow([int(v) if type(v) is bool else v for v in astuple(r)])
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
    # (sweep, strategy, trial) -> total power, +inf when infeasible
    power: dict = {}
    trials_by_sweep: dict = {}
    for r in results:
        by_key.setdefault((r.sweep_index, r.strategy), []).append(r)
        power[(r.sweep_index, r.strategy, r.trial)] = r.total_power_w if r.feasible else math.inf
        trials_by_sweep.setdefault(r.sweep_index, set()).add(r.trial)

    stats = []
    for (sweep_idx, strategy), rows in sorted(by_key.items()):
        powers = [r.total_power_w for r in rows if r.feasible]
        interf = [r.avg_interference_w for r in rows if r.feasible]
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
    win_rates = []
    for sweep_idx, trial_set in sorted(trials_by_sweep.items()):
        trials = sorted(trial_set)
        for a in strategies:
            for b in strategies:
                if a == b:
                    continue
                wins = sum(
                    1
                    for t in trials
                    if power.get((sweep_idx, a, t), math.inf) <= power.get((sweep_idx, b, t), math.inf)
                )
                win_rates.append(
                    {
                        "sweep_index": sweep_idx,
                        "strategy": a,
                        "versus": b,
                        "win_or_tie_rate": wins / len(trials),
                    }
                )
    return {"stats": stats, "win_rates": win_rates}


def load_config(path: str) -> SimConfig:
    """Default-layout SimConfig from a JSON file.

    The file must hold a JSON object of integer sizes and a rate range of
    two finite numbers. The sweep reads only the keys in CONFIG_KEYS; any other
    key, like any other value, raises ValueError rather than being ignored.
    """
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"a config must be a JSON object, not {type(raw).__name__}")
    unknown = sorted(set(raw) - set(CONFIG_KEYS))
    if unknown:
        raise ValueError(f"unsupported config keys {unknown}; allowed: {', '.join(CONFIG_KEYS)}")
    for key in ("num_users", "num_channels", "num_bs"):
        if type(raw.get(key, 0)) is not int:
            raise ValueError(f"{key} must be an integer, got {raw[key]!r}")
    if "rate_range_bps" in raw:
        rates = raw["rate_range_bps"]
        numbers = isinstance(rates, list) and all(type(r) in (int, float) and math.isfinite(r) for r in rates)
        if not (numbers and len(rates) == 2):
            raise ValueError(f"rate_range_bps must be two finite numbers, got {rates!r}")
        raw["rate_range_bps"] = tuple(rates)
    return default_config(**raw)
