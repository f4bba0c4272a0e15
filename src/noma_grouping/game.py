"""Sequential best-response game over the BSs' grouping strategies.

Each BS in turn searches its league graph for a negative differ-group
loop (a League, the one representation of a move) and applies it. The
shared objective (total transmit power) is an exact potential for these
moves: a BS's improvement is everyone's improvement, so the sequence of
accepted actions strictly descends and must stop, and the stopping point
admits no improving loop the finder can reach. Every candidate move is
re-validated with a full coupled solve and graph.is_improvement before
acceptance; the graph's prediction is never trusted blindly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import baselines
from .graph import (
    ChannelTotals,
    EbaBudgetExhausted,
    League,
    apply_league,
    build_graph,
    fga_candidates,
    find_negative_loop_eba,
    is_improvement,
)
from .power import Grouping, solve_all_powers, total_power_or_inf
from .scenario import ChannelGains, Scenario

# Restart factor of the greedy finder ("fga" without an explicit alpha).
DEFAULT_ALPHA = 5.0


@dataclass
class TraceStep:
    """One accepted move: the BS and the league it applied."""

    bs: int
    action: League
    total_power_before_w: float
    total_power_after_w: float


@dataclass
class GameTrace:
    """Accepted actions in order, for convergence inspection and logging.

    eba_budget_exhaustions counts the searches that fell back to the
    greedy finder; zero means the exact search completed everywhere.
    memo_hits and memo_solves count the league graphs' lookups in the
    game's ChannelTotals memo that found a total and that solved one;
    they sum to the lookups, and memo_solves is the number of distinct
    (subchannel, membership) pairs the graphs met. memo_batch_solves is
    the part of memo_solves that solve_channel_batch solved.
    """

    iterations: list = field(default_factory=list)
    converged: bool = False
    final_total_power_w: float = math.inf
    eba_budget_exhaustions: int = 0
    memo_hits: int = 0
    memo_solves: int = 0
    memo_batch_solves: int = 0


def initial_grouping(gains: ChannelGains, scenario: Scenario) -> Grouping:
    """Every user takes its own-BS strongest subchannel (ties: lowest)."""
    n = scenario.config.num_users
    gsel = gains.gain[scenario.association, :, np.arange(n)]  # (N, G)
    return Grouping(
        channel_of=np.argmax(gsel, axis=1),
        bs_of=scenario.association.copy(),
    )


def is_nash_equilibrium(
    gains: ChannelGains, scenario: Scenario, grouping: Grouping, max_league_len: int
) -> bool:
    """No BS has any improving league up to the given length (oracle check)."""
    return not baselines.enumerate_leagues(gains, scenario, grouping, max_league_len)


def run_game(
    gains: ChannelGains,
    scenario: Scenario,
    finder: str = "fga",
    alpha: float = DEFAULT_ALPHA,
    start_grouping: Grouping | None = None,
):
    """Best-response sweeps until a full sweep accepts no action.

    finder is "eba" (exact search; falls back to the greedy search when
    its budget is exhausted) or "fga" (greedy with restart factor alpha).
    start_grouping resumes the game from a caller-supplied state, e.g.
    after users connect or disconnect; by default every user starts on its
    strongest own-BS subchannel. A start that does not fit the scenario
    raises ValueError (see solve_all_powers).

    Returns (grouping, power solution, trace). With "eba" at most one
    candidate loop is tried per BS per sweep (the exact search's loop, or
    the greedy search's best when the budget runs out); with "fga" the
    candidates are tried best-first until one survives re-validation.

    Every league graph reads its subchannel totals from one ChannelTotals
    memo per game, so each (subchannel, membership) is solved once per
    game; the weights are the same as those of a fresh build.

    An infeasible start is returned unchanged after 0 actions. Every edge
    into an infeasible subchannel weighs +inf, so no finder proposes a
    move out of it (is_improvement would accept one), and a move that
    leaves it untouched leaves the grouping infeasible and is rejected.
    """
    if finder not in ("eba", "fga"):
        raise ValueError(f"unknown finder {finder!r}")
    grouping = start_grouping if start_grouping is not None else initial_grouping(gains, scenario)
    solution = solve_all_powers(gains, grouping, scenario)
    trace = GameTrace()
    memo = ChannelTotals()

    while True:
        accepted_in_sweep = False
        for m in range(scenario.config.num_bs):
            league_graph = build_graph(gains, scenario, grouping, m, memo)
            if finder == "eba":
                try:
                    league = find_negative_loop_eba(league_graph)
                except EbaBudgetExhausted:
                    trace.eba_budget_exhaustions += 1
                    candidates = fga_candidates(league_graph, alpha)[:1]
                else:
                    candidates = [league] if league is not None else []
            else:
                candidates = fga_candidates(league_graph, alpha)

            for league in candidates:
                new_grouping = apply_league(grouping, league)
                new_solution = solve_all_powers(gains, new_grouping, scenario)
                before_w = total_power_or_inf(solution)
                after_w = total_power_or_inf(new_solution)
                if is_improvement(after_w - before_w):
                    trace.iterations.append(
                        TraceStep(
                            bs=m,
                            action=league,
                            total_power_before_w=before_w,
                            total_power_after_w=after_w,
                        )
                    )
                    grouping = new_grouping
                    solution = new_solution
                    accepted_in_sweep = True
                    break
        if not accepted_in_sweep:
            break

    trace.memo_hits = memo.hits
    trace.memo_solves = memo.solves
    trace.memo_batch_solves = memo.batch_solves
    trace.converged = solution.feasible
    trace.final_total_power_w = total_power_or_inf(solution)
    return grouping, solution, trace
