"""Sequential best-response game over the BSs' grouping strategies.

On its turn a BS searches its league graph for a negative differ-group
loop (a League, the one representation of a move) and applies it. The
shared objective (total transmit power) is an exact potential for these
moves: a BS's improvement is everyone's improvement, so the sequence of
accepted actions strictly descends and must stop. The game stops once
every BS has searched the current grouping without a move, so no BS has
an improving loop its finder can reach (baselines.is_nash_equilibrium is
the brute-force check of that). Every proposed move is re-validated
before acceptance: the total of the grouping apply_league returns is
read from the game's memo, not summed from the graph's predicted
weights, and graph.is_improvement judges it. At the end an independent
solve_all_powers of the final grouping must match the memo's total.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .graph import (
    ChannelTotals,
    EbaBudgetExhausted,
    League,
    apply_league,
    build_graph,
    check_alpha,
    check_eba_keys,
    fga_candidates,
    find_negative_loop_eba,
    is_improvement,
)
from .power import Grouping, check_gains, solve_all_powers, total_power
from .scenario import ChannelGains, Scenario

# Restart factor of the greedy finder ("fga" without an explicit alpha).
DEFAULT_ALPHA = 5.0

# The final grouping's memo total and its solve_all_powers total must
# agree to this relative gap. Both solve the same systems from zero power
# and differ only in summation order (group totals versus user powers).
END_CHECK_REL = 1e-9


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
    memo_hits and memo_solves count the lookups in the game's
    ChannelTotals memo (by graph builds, re-validations and the reads of
    the start and end totals) that found a total and that solved one;
    they sum to the lookups, and memo_solves is the number of distinct
    (subchannel, membership) pairs the game met. memo_batch_solves is
    the part of memo_solves that solve_channel_batch solved, and
    memo_batch_passes the fixed-point passes those calls ran (per call,
    its highest iteration).
    eba_relaxations sums the budget units (V * V * |group| per relaxed
    (state, group) pair) that the game's eba searches used, exhausted
    ones included. candidates_tried counts the leagues the game applied
    and re-validated, accepted or not, at most one per BS turn. final_gap_rel is the relative gap
    between the final grouping's memo total and the total of
    solve_all_powers on it (0.0 when both are inf). delta_gap_max_rel is
    the largest |predicted - realized| / |realized| delta of an accepted
    league, realized being its total after minus before (0.0 without one).
    """

    iterations: list = field(default_factory=list)
    converged: bool = False
    final_total_power_w: float = math.inf
    eba_budget_exhaustions: int = 0
    memo_hits: int = 0
    memo_solves: int = 0
    memo_batch_solves: int = 0
    memo_batch_passes: int = 0
    eba_relaxations: int = 0
    candidates_tried: int = 0
    final_gap_rel: float = 0.0
    delta_gap_max_rel: float = 0.0


def initial_grouping(gains: ChannelGains, scenario: Scenario) -> Grouping:
    """Every user takes its own-BS strongest subchannel (ties: lowest).

    A gain table that does not fit the scenario raises ValueError (check_gains).
    """
    check_gains(gains, scenario)
    n = scenario.config.num_users
    gsel = gains.gain[scenario.association, :, np.arange(n)]  # (N, G)
    return Grouping(
        channel_of=np.argmax(gsel, axis=1),
        bs_of=scenario.association.copy(),
    )


def run_game(
    gains: ChannelGains,
    scenario: Scenario,
    finder: str = "fga",
    alpha: float = DEFAULT_ALPHA,
    start_grouping: Grouping | None = None,
):
    """Best-response turns until M turns in a row accept no league.

    The BSs take turns in the order 0, 1, ..., M - 1, 0, .... A search
    depends only on the grouping, so after M turns without a move no BS
    has a move left to find: the game stops there, and no BS searches a
    grouping twice.

    finder is "eba" (exact search; falls back to the greedy search when
    its budget is exhausted) or "fga" (greedy with restart factor alpha).
    An unknown finder and an alpha that is not finite and > 0
    (graph.check_alpha) raise ValueError, and so do a gain table and a
    start_grouping that do not fit the scenario and, with "eba", a BS
    whose league graph is too large for the exact search's keys
    (graph.check_eba_keys), before any solve.
    start_grouping resumes the game from a caller-supplied state, e.g.
    after users connect or disconnect; by default every user starts on
    its strongest own-BS subchannel.

    Returns (grouping, power solution, trace). At most one league is
    tried per turn: the exact search's, or with "fga" and when
    the exact search's budget runs out, the greedy search's best.

    The game's state is its grouping and that grouping's total, read by
    ChannelTotals.total_w from the one memo every league graph reads, so
    each (subchannel, membership) is solved once per game. A league is
    accepted when is_improvement holds for the total of the grouping
    apply_league returns minus the current total; that read solves
    nothing, since the league's graph met every new membership.
    solve_all_powers runs once, on the final grouping, for the returned
    solution; its total must match a fresh memo total of that grouping
    to END_CHECK_REL, else RuntimeError is raised.

    An infeasible start is returned unchanged after 0 actions. Every edge
    into an infeasible subchannel weighs +inf, so no finder proposes a
    move out of it (is_improvement would accept one), and a move that
    leaves it untouched leaves the total at +inf and is rejected.
    """
    if finder not in ("eba", "fga"):
        raise ValueError(f"unknown finder {finder!r}")
    check_alpha(alpha)
    if finder == "eba":  # every BS's league graph: its users plus G virtual nodes
        num_channels = scenario.config.num_channels
        for users in np.bincount(scenario.association, minlength=scenario.config.num_bs).tolist():
            check_eba_keys(users + num_channels, num_channels)
    memo = ChannelTotals(gains, scenario)
    grouping = start_grouping if start_grouping is not None else initial_grouping(gains, scenario)
    trace = GameTrace()
    total_w = memo.total_w(grouping)

    num_bs = scenario.config.num_bs
    idle = 0  # turns in a row that accepted no league
    for m in itertools.cycle(range(num_bs)):
        if idle == num_bs:
            break
        idle += 1
        league_graph = build_graph(memo, grouping, m)
        if finder == "eba":
            try:
                leagues = [find_negative_loop_eba(league_graph)]
            except EbaBudgetExhausted:
                trace.eba_budget_exhaustions += 1
                leagues = fga_candidates(league_graph, alpha)
            trace.eba_relaxations += league_graph.eba_relaxations
        else:
            leagues = fga_candidates(league_graph, alpha)
        league = leagues[0] if leagues else None
        if league is None:
            continue

        trace.candidates_tried += 1
        new_grouping = apply_league(grouping, league)
        after_w = memo.total_w(new_grouping)
        realized = after_w - total_w
        if is_improvement(realized):
            gap = abs(league.predicted_delta_w - realized) / abs(realized)
            trace.delta_gap_max_rel = max(trace.delta_gap_max_rel, gap)
            trace.iterations.append(
                TraceStep(
                    bs=m,
                    action=league,
                    total_power_before_w=total_w,
                    total_power_after_w=after_w,
                )
            )
            grouping, total_w = new_grouping, after_w
            idle = 0

    memo_w = memo.total_w(grouping)
    solution = solve_all_powers(gains, grouping, scenario)
    solved_w = total_power(solution)
    # inf against a finite total gives NaN or inf, which fails the check.
    gap = 0.0 if solved_w == memo_w else abs(memo_w - solved_w) / abs(solved_w)
    if not gap <= END_CHECK_REL:
        raise RuntimeError(
            f"the final grouping's memo total {memo_w!r} W differs from its solve, {solved_w!r} W"
        )
    trace.final_gap_rel = gap
    trace.memo_hits = memo.hits
    trace.memo_solves = memo.solves
    trace.memo_batch_solves = memo.batch_solves
    trace.memo_batch_passes = memo.batch_passes
    trace.converged = solution.feasible
    trace.final_total_power_w = solved_w
    return grouping, solution, trace
