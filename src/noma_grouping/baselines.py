"""Reference grouping strategies and brute-force verification oracles.

SCCD pairs the strongest remaining user with the weakest into one group;
Gale-Shapley runs deferred acceptance between users and quota-limited
subchannels. The exhaustive oracle enumerates every assignment, and the
league enumerator recomputes every candidate cycle with a full coupled
solve; both exist to check the optimizing strategies, not to scale.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import product

import numpy as np

from .graph import League, apply_league, is_improvement, league_nodes
from .power import (
    Grouping,
    InfeasibleSolutionError,
    solve_all_powers,
    total_power_or_inf,
)
from .scenario import ChannelGains, Scenario

EXHAUSTIVE_LIMIT = 10 ** 6
LEAGUE_ENUM_BUDGET = 500_000


class InstanceTooLargeError(ValueError):
    """Brute-force enumeration was asked for more than its budget."""


def _gain_summary(gains: ChannelGains, m: int, users) -> dict[int, float]:
    # Scalar per-user channel quality: best own-BS gain across subchannels.
    table = gains.gain[m]
    return {n: float(np.max(table[:, n])) for n in users}


def sccd_grouping(gains: ChannelGains, scenario: Scenario) -> Grouping:
    """Pair strongest with weakest, second strongest with second weakest,
    and so on, cycling through the groups until every user is placed."""
    cfg = scenario.config
    channel_of = np.zeros(cfg.num_users, dtype=np.int64)
    for m in range(cfg.num_bs):
        users = scenario.users_of_bs(m)
        summary = _gain_summary(gains, m, users)
        ranked = sorted(users, key=lambda n: (-summary[n], n))
        k = len(ranked)
        for i in range(k // 2):
            g = i % cfg.num_channels
            channel_of[ranked[i]] = g
            channel_of[ranked[k - 1 - i]] = g
        if k % 2:
            channel_of[ranked[k // 2]] = (k // 2) % cfg.num_channels
    return Grouping(channel_of=channel_of, bs_of=scenario.association.copy())


def gale_shapley_grouping(gains: ChannelGains, scenario: Scenario) -> Grouping:
    """Deferred acceptance per BS.

    Users propose to subchannels in descending own-gain order; each
    subchannel keeps at most ceil(users_of_bs / channels) proposers,
    preferring higher gain (ties: lower user id). Total quota covers all
    users, so the matching always completes.
    """
    cfg = scenario.config
    num_ch = cfg.num_channels
    channel_of = np.zeros(cfg.num_users, dtype=np.int64)
    table = gains.gain
    for m in range(cfg.num_bs):
        users = scenario.users_of_bs(m)
        if not users:
            continue
        quota = math.ceil(len(users) / num_ch)
        prefs = {
            n: sorted(range(num_ch), key=lambda g: (-table[m, g, n], g)) for n in users
        }
        next_choice = {n: 0 for n in users}
        held: list[list[int]] = [[] for _ in range(num_ch)]
        free = deque(sorted(users))
        while free:
            n = free.popleft()
            g = prefs[n][next_choice[n]]
            next_choice[n] += 1
            held[g].append(n)
            if len(held[g]) > quota:
                worst = min(held[g], key=lambda u: (table[m, g, u], -u))
                held[g].remove(worst)
                free.append(worst)
        for g in range(num_ch):
            for n in held[g]:
                channel_of[n] = g
    return Grouping(channel_of=channel_of, bs_of=scenario.association.copy())


def exhaustive_best_grouping(gains: ChannelGains, scenario: Scenario):
    """Global optimum of the grouping problem by full enumeration.

    Walks every per-user channel assignment jointly across the BSs and
    keeps the feasible one of least total power (first found on ties).
    """
    cfg = scenario.config
    count = cfg.num_channels ** cfg.num_users
    if count > EXHAUSTIVE_LIMIT:
        raise InstanceTooLargeError(
            f"{count} assignments exceed the exhaustive limit of {EXHAUSTIVE_LIMIT}"
        )
    bs_of = scenario.association.copy()
    best_grouping = None
    best_total = math.inf
    for assignment in product(range(cfg.num_channels), repeat=cfg.num_users):
        grouping = Grouping(channel_of=np.array(assignment, dtype=np.int64), bs_of=bs_of)
        solution = solve_all_powers(gains, grouping, scenario)
        if solution.feasible:
            total = total_power_or_inf(solution)
            if total < best_total:
                best_total = total
                best_grouping = grouping
    if best_grouping is None:
        raise InfeasibleSolutionError("no feasible grouping exists for this instance")
    return best_grouping, best_total


def enumerate_leagues(
    gains: ChannelGains,
    scenario: Scenario,
    grouping: Grouping,
    max_len: int,
):
    """Every improving league up to max_len, validated by full re-solve.

    Enumerates all directed cycles with pairwise distinct groups over each
    BS's real plus virtual users (each cycle once, anchored at its minimum
    node index), recomputes the exact total-power delta of applying it,
    and returns those that strictly improve.
    """
    cfg = scenario.config
    if max_len > cfg.num_channels:
        max_len = cfg.num_channels
    base = solve_all_powers(gains, grouping, scenario)
    base_total = total_power_or_inf(base)
    leagues: list[League] = []
    checked = 0

    for m in range(cfg.num_bs):
        nodes, node_groups = league_nodes(grouping, m, cfg.num_channels)
        v = len(nodes)

        def _evaluate(path: list[int]) -> None:
            nonlocal checked
            checked += 1
            if checked > LEAGUE_ENUM_BUDGET:
                raise InstanceTooLargeError(
                    f"more than {LEAGUE_ENUM_BUDGET} candidate cycles; instance too large"
                )
            league = League(
                cycle=[nodes[i] for i in path],
                predicted_delta_w=math.nan,
                groups=tuple(node_groups[i] for i in path),
            )
            if not league.moves:
                return
            solution = solve_all_powers(gains, apply_league(grouping, league), scenario)
            delta = total_power_or_inf(solution) - base_total
            if is_improvement(delta):
                league.predicted_delta_w = float(delta)
                leagues.append(league)

        def _extend(start: int, path: list[int], used: set) -> None:
            if len(path) >= 2:
                _evaluate(path)
            if len(path) == max_len:
                return
            for j in range(start + 1, v):
                if j in path or node_groups[j] in used:
                    continue
                used.add(node_groups[j])
                path.append(j)
                _extend(start, path, used)
                path.pop()
                used.remove(node_groups[j])

        for s in range(v):
            _extend(s, [s], {node_groups[s]})
    return leagues


def is_nash_equilibrium(
    gains: ChannelGains, scenario: Scenario, grouping: Grouping, max_league_len: int
) -> bool:
    """No BS has any improving league up to the given length (oracle check)."""
    return not enumerate_leagues(gains, scenario, grouping, max_league_len)
