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
    check_gains,
    solve_all_powers,
    total_power,
)
from .scenario import ChannelGains, Scenario

EXHAUSTIVE_LIMIT = 10 ** 6
LEAGUE_ENUM_BUDGET = 500_000


class InstanceTooLargeError(ValueError):
    """Brute-force enumeration was asked for more than its budget."""


def sccd_grouping(gains: ChannelGains, scenario: Scenario) -> Grouping:
    """Pair strongest with weakest, second strongest with second weakest,
    and so on, cycling through the groups until every user is placed.

    A user's strength is its best own-BS gain over the subchannels; equal
    strengths rank the lower user id first. One max over the gain table
    and one lexsort per BS give that ranking. A gain table that does not
    fit the scenario raises ValueError (check_gains).
    """
    check_gains(gains, scenario)
    cfg = scenario.config
    channel_of = np.zeros(cfg.num_users, dtype=np.int64)
    best = gains.gain.max(axis=1)  # (M, N)
    for m in range(cfg.num_bs):
        users = np.flatnonzero(scenario.association == m)
        ranked = users[np.lexsort((users, -best[m, users]))]
        # Rank i pairs with rank k - 1 - i; an odd middle user sits alone.
        rank = np.arange(ranked.size)
        channel_of[ranked] = np.minimum(rank, ranked.size - 1 - rank) % cfg.num_channels
    return Grouping(channel_of=channel_of, bs_of=scenario.association.copy())


def gale_shapley_grouping(gains: ChannelGains, scenario: Scenario) -> Grouping:
    """Deferred acceptance per BS.

    Users propose to subchannels in descending own-gain order (ties: lower
    subchannel first); each subchannel keeps at most
    ceil(users_of_bs / channels) proposers, preferring higher gain (ties:
    lower user id). Total quota covers all users, so the matching always
    completes. Each BS's preference lists come from one stable argsort of
    its users' gains, and the proposal loop reads gains from plain lists
    of those users alone; users go by their index in the BS's ascending
    user list, which orders them as their ids do. A gain table that does
    not fit the scenario raises ValueError (check_gains).
    """
    check_gains(gains, scenario)
    cfg = scenario.config
    num_ch = cfg.num_channels
    channel_of = np.zeros(cfg.num_users, dtype=np.int64)
    for m in range(cfg.num_bs):
        users = np.flatnonzero(scenario.association == m)
        if not users.size:
            continue
        quota = math.ceil(users.size / num_ch)
        own = gains.gain[m][:, users]  # (G, users of BS m)
        prefs = np.argsort(-own, axis=0, kind="stable").T.tolist()
        own_gain = own.tolist()
        next_choice = [0] * users.size
        held: list[list[int]] = [[] for _ in range(num_ch)]
        free = deque(range(users.size))
        while free:
            i = free.popleft()
            g = prefs[i][next_choice[i]]
            next_choice[i] += 1
            held[g].append(i)
            if len(held[g]) > quota:
                row = own_gain[g]
                worst = min(held[g], key=lambda j: (row[j], -j))
                held[g].remove(worst)
                free.append(worst)
        for g in range(num_ch):
            channel_of[users[held[g]]] = g
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
            total = total_power(solution)
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
    base_total = total_power(base)
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
            delta = total_power(solution) - base_total
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
