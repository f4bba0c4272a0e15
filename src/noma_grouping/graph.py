"""League graph per BS and negative differ-group loop search.

Nodes are one BS's real users plus one zero-rate virtual user per
subchannel. The weight of edge n -> n~ is the change of the target
subchannel's total power (across all cells) when n joins that subchannel
and n~ leaves it, everything else held fixed. A cycle whose nodes sit in
pairwise distinct groups changes each touched subchannel's membership
exactly once, so the cycle's weight sum equals the total-power change of
applying it; a negative cycle is therefore a strict improvement.

Two detectors are provided: an exact, budget-bounded extension of
Bellman-Ford over group-disjoint paths, and a fast greedy search seeded
from the most negative edges.

A weight is a difference of two subchannel totals, each a function of
that subchannel's membership alone. A game keeps them in one
ChannelTotals memo, so a rebuild after a move solves only memberships
that no earlier build of the game has met.
"""

from __future__ import annotations

import csv
import math
from bisect import insort
from dataclasses import dataclass, field

import numpy as np

from .power import ABS_FLOOR_W, Grouping, solve_one_channel
from .scenario import ChannelGains, Scenario

EBA_DEFAULT_BUDGET = 10 ** 6

# A league is "improving" only below this; keeps the finders, the game's
# acceptance guard and the enumeration oracle in exact agreement.
NEG_DELTA_FLOOR_W = ABS_FLOOR_W


def is_improvement(delta_w: float) -> bool:
    """The one acceptance rule: a total-power change below -NEG_DELTA_FLOOR_W.

    For a re-solved move, delta_w is total_power_or_inf(after) minus
    total_power_or_inf(before). A move out of an infeasible grouping then
    gives -inf and is accepted; a move into one gives +inf (or NaN from an
    infeasible start) and is rejected.
    """
    return delta_w < -NEG_DELTA_FLOOR_W


class EbaBudgetExhausted(RuntimeError):
    """Search budget ran out before a cycle or a completeness proof."""


class StaleLeagueError(ValueError):
    """League was built against a different grouping state."""


@dataclass(frozen=True)
class VirtualUser:
    """Zero-rate placeholder node; one per subchannel of the graph's BS."""

    channel: int


@dataclass
class League:
    """One BS's move: a closed differ-group cycle with a negative predicted delta.

    cycle holds user ids and VirtualUser markers in cycle order; groups is
    the build-time subchannel of each node (the staleness witness). A
    cycle containing a virtual node acts as a shift of the real users.
    apply_league is the one way to apply it.
    """

    cycle: list
    predicted_delta_w: float
    groups: tuple = ()

    @property
    def kind(self) -> str:
        """"shift" when a virtual node is on the cycle, else "exchange"."""
        return "shift" if any(isinstance(x, VirtualUser) for x in self.cycle) else "exchange"

    @property
    def moves(self) -> list[tuple[int, int]]:
        """(user, target channel) pairs: each real user takes the next node's group."""
        size = len(self.cycle)
        return [
            (int(node), self.groups[(k + 1) % size])
            for k, node in enumerate(self.cycle)
            if not isinstance(node, VirtualUser)
        ]


def league_nodes(grouping: Grouping, bs: int, num_channels: int) -> tuple[list, list[int]]:
    """Nodes of one BS's league graph and the group of each.

    The BS's real users come first (ascending id), then one VirtualUser
    per subchannel.
    """
    real = [int(n) for n in np.flatnonzero(grouping.bs_of == bs)]
    ch = grouping.channel_of
    nodes = real + [VirtualUser(g) for g in range(num_channels)]
    return nodes, [int(ch[n]) for n in real] + list(range(num_channels))


@dataclass
class ChannelTotals:
    """Per-game memo of subchannel total powers, keyed by membership.

    totals maps (h, sorted ids of the users on h) to subchannel h's total
    power across all cells (math.fsum of its group powers) when exactly
    those users share it, or inf when they cannot be powered. A channel
    solve starts from zero power, so its result is a function of that
    membership alone. The key leaves out every user's BS, the gains and
    the scenario, which must therefore stay fixed: use one memo per game.
    """

    totals: dict = field(default_factory=dict)
    hits: int = 0

    @property
    def solves(self) -> int:
        """Lookups that missed and ran a channel solve, one per entry."""
        return len(self.totals)


class LeagueGraph:
    """Weighted digraph over one BS's real and virtual users.

    Every weight is a difference of two subchannel totals read from a
    ChannelTotals memo. The current total of each subchannel is looked up
    when the graph is built; the first full_adjacency call looks up the
    totals after each move and caches the V x V matrix. Without a memo
    the graph gets a fresh one and solves everything.
    """

    def __init__(
        self,
        gains: ChannelGains,
        scenario: Scenario,
        grouping: Grouping,
        bs: int,
        memo: ChannelTotals | None = None,
    ):
        self.bs = int(bs)
        cfg = scenario.config
        self.num_channels = cfg.num_channels
        self._sigma2 = scenario.noise_power_w
        self._pow2r = np.exp2(scenario.spectral_rates()).tolist()
        self._lists = gains.as_lists()
        self._memo = memo if memo is not None else ChannelTotals()

        self.nodes, self.node_groups = league_nodes(grouping, self.bs, self.num_channels)
        self.num_real = len(self.nodes) - self.num_channels

        self._members = [grouping.members_by_bs(g, cfg.num_bs) for g in range(self.num_channels)]
        # The other BSs' members on each subchannel; no move of this BS changes them.
        self._others = [
            [n for m, row in enumerate(members) if m != self.bs for n in row]
            for members in self._members
        ]
        self._totals = [
            self._total(h, self._members[h][self.bs]) for h in range(self.num_channels)
        ]
        self._adj: np.ndarray | None = None

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def full_adjacency(self) -> np.ndarray:
        """The V x V edge weights in watts, computed on the first call.

        Entry [i, j] is the change of node j's subchannel's total power
        across all cells when node i joins it and node j leaves it; inf
        for self and same-group pairs and when either state is
        infeasible, 0 between two virtual nodes.

        A weight depends only on the target subchannel h's new membership:
        h's members at this BS without j, plus i when i is real. So it is
        the memo's total of that membership minus h's current total, and
        all virtual joiners of a column share one lookup.
        """
        if self._adj is None:
            v = len(self.nodes)
            r = self.num_real
            adj = np.full((v, v), np.inf)
            adj[r:, r:] = 0.0
            np.fill_diagonal(adj[r:, r:], np.inf)
            for j, h in enumerate(self.node_groups):
                now = self._totals[h]
                if now == math.inf:
                    continue
                row = list(self._members[h][self.bs])
                if j < r:
                    row.remove(self.nodes[j])
                    adj[r:, j] = self._total(h, row) - now
                    adj[r + h, j] = math.inf  # h's own virtual node
                for i in range(r):
                    if self.node_groups[i] != h:
                        joined = list(row)
                        insort(joined, self.nodes[i])
                        adj[i, j] = self._total(h, joined) - now
            self._adj = adj
        return self._adj

    def _total(self, h: int, row: list) -> float:
        """Memoized total power of subchannel h when this BS's members there are row."""
        memo = self._memo
        key = (h, tuple(sorted(self._others[h] + row)))
        total = memo.totals.get(key)
        if total is not None:
            memo.hits += 1
            return total
        members = list(self._members[h])
        members[self.bs] = row
        res = solve_one_channel(self._lists, h, members, self._pow2r, self._sigma2)
        total = math.fsum(res.powers) if res.feasible else math.inf
        memo.totals[key] = total
        return total


def build_graph(
    gains: ChannelGains,
    scenario: Scenario,
    grouping: Grouping,
    bs: int,
    memo: ChannelTotals | None = None,
) -> LeagueGraph:
    """League graph of one BS against the current grouping (see LeagueGraph)."""
    return LeagueGraph(gains, scenario, grouping, bs, memo)


def _make_league(graph: LeagueGraph, idx_cycle: list[int], delta: float) -> League:
    return League(
        cycle=[graph.nodes[i] for i in idx_cycle],
        predicted_delta_w=float(delta),
        groups=tuple(graph.node_groups[i] for i in idx_cycle),
    )


def find_negative_loop_eba(graph: LeagueGraph):
    """Exact search for a negative differ-group cycle.

    Dynamic program over (start, end, set of used groups) states, expanded
    level by level in path length; every node is a source at distance 0
    and a cycle closes by the edge back to its start (the cycle's minimum
    node index, so each cycle is examined once). Among the closures of the
    earliest level containing any, the most negative is returned.

    Raises EbaBudgetExhausted when the relaxation budget
    (EBA_DEFAULT_BUDGET) runs out before
    either a cycle or a completed search; returning None is a proof that
    no negative differ-group cycle of length <= G exists.
    """
    w = graph.full_adjacency()
    groups = np.asarray(graph.node_groups)
    v = w.shape[0]
    num_groups = graph.num_channels
    if v == 0:
        return None
    wt = w.T.copy()
    starts_mask = np.arange(v)[None, :] > np.arange(v)[:, None]  # [start, node]
    group_nodes = [np.flatnonzero(groups == h) for h in range(num_groups)]

    # all_levels[subset] = (dist, parent), each (V, V) over [start, end]:
    # the least weight of a path from start to end through one node of
    # each group in subset, and the node before end on it (-1 at the
    # source). That node's state is subset without end's group.
    all_levels: dict[int, tuple] = {}

    def _state(sub: int) -> tuple:
        if sub not in all_levels:
            all_levels[sub] = (np.full((v, v), np.inf), np.full((v, v), -1, dtype=np.int32))
        return all_levels[sub]

    for s in range(v):
        _state(1 << int(groups[s]))[0][s, s] = 0.0

    def _extract(sub: int, start: int, end: int) -> list[int]:
        rev = [end]
        node = end
        while (parent := int(all_levels[sub][1][start, node])) >= 0:
            sub ^= 1 << int(groups[node])
            node = parent
            rev.append(node)
        rev.reverse()
        return rev

    current = dict(all_levels)
    used = 0
    exhausted = False
    for _level in range(2, num_groups + 1):
        nxt: dict[int, tuple] = {}
        for sub in sorted(current):
            dist = current[sub][0]
            for h in range(num_groups):
                if sub & (1 << h):
                    continue
                ks = group_nodes[h]
                if ks.size == 0:
                    continue
                used += v * v * ks.size
                cand = dist[:, :, None] + w[None, :, ks]
                cand_min = cand.min(axis=1)
                cand_arg = cand.argmin(axis=1)
                cand_min = np.where(starts_mask[:, ks], cand_min, np.inf)
                if np.isfinite(cand_min).any():
                    sub2 = sub | (1 << h)
                    nxt[sub2] = _state(sub2)
                    dist2, parent2 = nxt[sub2]
                    old = dist2[:, ks]
                    sel = cand_min < old
                    if sel.any():
                        dist2[:, ks] = np.where(sel, cand_min, old)
                        parent2[:, ks] = np.where(sel, cand_arg.astype(np.int32), parent2[:, ks])
                if used > EBA_DEFAULT_BUDGET:
                    exhausted = True
                    break
            if exhausted:
                break

        # Scan this level's states for negative closures back to the start.
        best = None
        for sub2 in sorted(nxt):
            closure = nxt[sub2][0] + wt
            val = closure.min()
            if is_improvement(val) and (best is None or val < best[0]):
                st, en = np.unravel_index(int(closure.argmin()), closure.shape)
                best = (float(val), int(st), int(en), sub2)
        if best is not None:
            delta, st, en, sub2 = best
            return _make_league(graph, _extract(sub2, st, en), delta)
        if exhausted:
            raise EbaBudgetExhausted(f"relaxation budget {EBA_DEFAULT_BUDGET} exceeded")
        if not nxt:
            return None
        current = nxt
    return None


def check_alpha(alpha: float) -> None:
    """Raise ValueError unless alpha, the greedy restart factor, is finite and > 0."""
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and > 0, got {alpha!r}")


def fga_candidates(graph: LeagueGraph, alpha: float) -> list[League]:
    """All distinct negative cycles the greedy search finds, best first.

    There are ceil(alpha * (real users + groups)) restarts, at least one.
    Their seeds are the least finite edges in (weight, flat index) order,
    one edge each. Every restart checks its seed's 2-cycle; then all of
    them advance together, one greedy hop at a time to the cheapest node
    of a group not yet on their path, and check the closure back to the
    seed after every hop. A restart stops when it has no finite hop left
    or its path visits every group.
    """
    check_alpha(alpha)
    w = graph.full_adjacency()
    v = w.shape[0]
    num_groups = graph.num_channels
    if v == 0:
        return []
    restarts = max(1, math.ceil(alpha * (graph.num_real + num_groups)))
    flat = w.ravel()
    seeds = np.argsort(flat, kind="stable")[:restarts]
    seeds = seeds[np.isfinite(flat[seeds])]
    groups = np.asarray(graph.node_groups)
    in_group = groups[None, :] == np.arange(num_groups)[:, None]  # (G, V)

    start, cur = np.divmod(seeds, v)
    paths = np.empty((seeds.size, max(2, num_groups)), dtype=np.intp)
    paths[:, 0], paths[:, 1] = start, cur
    cost = flat[seeds]
    blocked = in_group[groups[start]] | in_group[groups[cur]]
    found: dict[tuple, tuple[float, list[int]]] = {}
    length = 2
    while True:
        closure = cost + w[cur, start]
        for k in np.flatnonzero(is_improvement(closure)).tolist():
            _record(found, paths[k, :length].tolist(), float(closure[k]))
        if length >= num_groups:
            break
        rows = np.where(blocked, np.inf, w[cur])
        nxt = rows.argmin(axis=1)
        hop = rows[np.arange(nxt.size), nxt]
        alive = np.isfinite(hop)
        if not alive.any():
            break
        start, cur, paths = start[alive], nxt[alive], paths[alive]
        cost = cost[alive] + hop[alive]
        blocked = blocked[alive] | in_group[groups[cur]]
        paths[:, length] = cur
        length += 1

    ordered = sorted(found.items(), key=lambda kv: (kv[1][0], kv[0]))
    return [_make_league(graph, cyc, delta) for _key, (delta, cyc) in ordered]


def _record(found: dict, path: list[int], closure: float) -> None:
    # Canonical rotation (start at the minimum node index) dedups cycles
    # rediscovered from different seeds.
    k = path.index(min(path))
    canon = tuple(path[k:] + path[:k])
    prev = found.get(canon)
    if prev is None or closure < prev[0]:
        found[canon] = (closure, list(canon))


def apply_league(grouping: Grouping, league: League) -> Grouping:
    """Rotate the league's users along the cycle; virtual nodes move nobody.

    Raises ValueError unless the league is a cycle of at least two nodes
    in pairwise distinct groups (so no user moves twice or stays put)
    whose real users all belong to one BS, and StaleLeagueError when a
    node has left the group recorded at build time.
    """
    if len(league.cycle) != len(league.groups):
        raise ValueError("league is missing its group snapshot")
    if len(league.cycle) < 2 or len(set(league.groups)) != len(league.groups):
        raise ValueError(f"league groups {league.groups} are not a cycle of distinct groups")
    owners = {int(grouping.bs_of[n]) for n in league.cycle if not isinstance(n, VirtualUser)}
    if len(owners) > 1:
        raise ValueError(f"league moves users of several BSs {sorted(owners)}")
    for node, g in zip(league.cycle, league.groups):
        current = node.channel if isinstance(node, VirtualUser) else int(grouping.channel_of[node])
        if current != g:
            raise StaleLeagueError(
                f"node {node!r} moved from group {g} to {current} since the league was built"
            )
    return grouping.with_moves(league.moves)


def dump_adjacency_csv(graph: LeagueGraph, path) -> None:
    """Debug dump: one row per edge with groups and weight in watts."""
    w = graph.full_adjacency()

    def _name(node):
        return f"v{node.channel}" if isinstance(node, VirtualUser) else f"u{node}"

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["from", "to", "group_from", "group_to", "weight_w"])
        for i in range(graph.num_nodes):
            for j in range(graph.num_nodes):
                writer.writerow(
                    [
                        _name(graph.nodes[i]),
                        _name(graph.nodes[j]),
                        graph.node_groups[i],
                        graph.node_groups[j],
                        repr(float(w[i, j])),
                    ]
                )
