"""Sequential best-response game over the BSs' grouping strategies.

Each BS in turn searches its league graph for a negative differ-group
loop and applies it. The shared objective (total transmit power) is an
exact potential for these moves: a BS's improvement is everyone's
improvement, so the sequence of accepted actions strictly descends and
must stop, and the stopping point admits no improving loop the finder can
reach. Every candidate move is re-validated with a full coupled solve
before acceptance; the graph's prediction is never trusted blindly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import baselines
from .graph import (
    NEG_DELTA_FLOOR_W,
    EbaBudgetExhausted,
    apply_league,
    build_graph,
    fga_candidates,
    find_negative_loop_eba,
)
from .power import Grouping, solve_all_powers, total_power_or_inf
from .scenario import ChannelGains, Scenario


@dataclass
class Action:
    """One BS's simultaneous user moves: (user, target channel) pairs."""

    bs: int
    moves: list

    def validate(self, grouping: Grouping) -> None:
        seen = set()
        for user, target in self.moves:
            if user in seen:
                raise ValueError(f"user {user} moved twice in one action")
            seen.add(user)
            if int(grouping.bs_of[user]) != self.bs:
                raise ValueError(f"user {user} does not belong to BS {self.bs}")
            if int(grouping.channel_of[user]) == target:
                raise ValueError(f"user {user} is already on channel {target}")


@dataclass
class TraceStep:
    bs: int
    action: Action
    total_power_before_w: float
    total_power_after_w: float


@dataclass
class GameTrace:
    """Accepted actions in order, for convergence inspection and logging.

    eba_budget_exhaustions counts the searches that fell back to the
    greedy finder; zero means the exact search completed everywhere.
    """

    iterations: list = field(default_factory=list)
    converged: bool = False
    final_total_power_w: float = math.inf
    eba_budget_exhaustions: int = 0


def initial_grouping(gains: ChannelGains, scenario: Scenario) -> Grouping:
    """Every user takes its own-BS strongest subchannel (ties: lowest)."""
    n = scenario.config.num_users
    gsel = gains.gain[scenario.association, :, np.arange(n)]  # (N, G)
    return Grouping(
        channel_of=np.argmax(gsel, axis=1),
        bs_of=scenario.association.copy(),
    )


def apply_action(grouping: Grouping, action: Action) -> Grouping:
    action.validate(grouping)
    return grouping.with_moves(action.moves)


def action_effect(gains: ChannelGains, scenario: Scenario, grouping: Grouping, action: Action) -> float:
    """Total-power change of one action, by full re-solve of both sides.

    Infeasible outcomes are never attractive (+inf), except that a move
    repairing an infeasible grouping is always attractive (-inf).
    """
    before = solve_all_powers(gains, grouping, scenario)
    if not action.moves:
        return 0.0 if before.feasible else math.inf
    after = solve_all_powers(gains, apply_action(grouping, action), scenario)
    if before.feasible and after.feasible:
        return total_power_or_inf(after) - total_power_or_inf(before)
    if not before.feasible and after.feasible:
        return -math.inf
    return math.inf


def is_nash_equilibrium(
    gains: ChannelGains, scenario: Scenario, grouping: Grouping, max_league_len: int
) -> bool:
    """No BS has any improving league up to the given length (oracle check)."""
    return not baselines.enumerate_leagues(gains, scenario, grouping, max_league_len)


def run_game(
    gains: ChannelGains,
    scenario: Scenario,
    finder: str = "fga",
    alpha: float = 5.0,
    start_grouping: Grouping | None = None,
):
    """Best-response sweeps until a full sweep accepts no action.

    finder is "eba" (exact search; falls back to the greedy search when
    its budget is exhausted) or "fga" (greedy with restart factor alpha).
    start_grouping resumes the game from a caller-supplied state, e.g.
    after users connect or disconnect; by default every user starts on its
    strongest own-BS subchannel.

    Returns (grouping, power solution, trace). With "eba" at most one
    candidate loop is tried per BS per sweep; with "fga" the candidates
    are tried best-first until one survives re-validation.
    """
    if finder not in ("eba", "fga"):
        raise ValueError(f"unknown finder {finder!r}")
    if start_grouping is not None:
        if not np.array_equal(start_grouping.bs_of, scenario.association):
            raise ValueError("start_grouping does not match the scenario association")
        grouping = start_grouping
    else:
        grouping = initial_grouping(gains, scenario)
    solution = solve_all_powers(gains, grouping, scenario)
    trace = GameTrace()

    while True:
        accepted_in_sweep = False
        for m in range(scenario.config.num_bs):
            league_graph = build_graph(gains, scenario, grouping, m)
            if finder == "eba":
                try:
                    league = find_negative_loop_eba(league_graph)
                except EbaBudgetExhausted:
                    trace.eba_budget_exhaustions += 1
                    candidates = fga_candidates(league_graph, alpha)
                else:
                    candidates = [league] if league is not None else []
            else:
                candidates = fga_candidates(league_graph, alpha)

            for league in candidates:
                new_grouping = apply_league(grouping, league)
                new_solution = solve_all_powers(gains, new_grouping, scenario)
                before_w = total_power_or_inf(solution)
                after_w = total_power_or_inf(new_solution)
                if new_solution.feasible and (
                    (not solution.feasible) or after_w - before_w < -NEG_DELTA_FLOOR_W
                ):
                    trace.iterations.append(
                        TraceStep(
                            bs=m,
                            action=Action(bs=m, moves=league.moves()),
                            total_power_before_w=before_w,
                            total_power_after_w=after_w,
                        )
                    )
                    grouping = new_grouping
                    solution = new_solution
                    accepted_in_sweep = True
                    break
                if finder == "eba":
                    break  # single candidate was not an improvement: skip BS
        if not accepted_in_sweep:
            break

    trace.converged = solution.feasible
    trace.final_total_power_w = total_power_or_inf(solution)
    return grouping, solution, trace
