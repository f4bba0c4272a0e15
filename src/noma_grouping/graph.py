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
"""

from __future__ import annotations

import csv
import math
from bisect import insort
from dataclasses import dataclass

import numpy as np

from .power import ABS_FLOOR_W, Grouping, solve_one_channel
from .scenario import ChannelGains, Scenario

EBA_DEFAULT_BUDGET = 10 ** 6

# A league is "improving" only below this; keeps the finders, the game's
# acceptance guard and the enumeration oracle in exact agreement.
NEG_DELTA_FLOOR_W = ABS_FLOOR_W


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
    """A closed differ-group cycle with a strictly negative predicted delta.

    cycle holds user ids and VirtualUser markers in cycle order; groups is
    the build-time subchannel of each node (the staleness witness). A
    cycle containing a virtual node acts as a shift of the real users.
    """

    cycle: list
    predicted_delta_w: float
    groups: tuple = ()

    @property
    def kind(self) -> str:
        """"shift" when a virtual node is on the cycle, else "exchange"."""
        return "shift" if any(isinstance(x, VirtualUser) for x in self.cycle) else "exchange"

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


class LeagueGraph:
    """Weighted digraph over one BS's real and virtual users.

    Edge weights are computed lazily and cached; a full materialization
    costs O(V^2) per-subchannel solves.
    """

    def __init__(self, gains: ChannelGains, scenario: Scenario, grouping: Grouping, bs: int):
        self.bs = int(bs)
        cfg = scenario.config
        self.num_channels = cfg.num_channels
        self._num_bs = cfg.num_bs
        self._sigma2 = scenario.noise_power_w
        self._pow2r = np.exp2(scenario.spectral_rates()).tolist()
        self._lists = gains.as_lists()

        self.nodes, self.node_groups = league_nodes(grouping, self.bs, self.num_channels)
        self.num_real = len(self.nodes) - self.num_channels

        self._base_members = [
            grouping.members_by_bs(g, self._num_bs) for g in range(self.num_channels)
        ]
        self._base_powers: list = [None] * self.num_channels
        self._base_totals: list = [None] * self.num_channels
        for g in range(self.num_channels):
            res = solve_one_channel(
                self._lists, g, self._base_members[g], self._pow2r, self._sigma2
            )
            if res.feasible:
                self._base_powers[g] = res.powers
                self._base_totals[g] = math.fsum(res.powers)

        v = len(self.nodes)
        self._adj = np.full((v, v), np.nan)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def weight(self, i: int, j: int) -> float:
        """Edge weight i -> j in watts, computed once and cached.

        The change of node j's subchannel's total power across all cells
        when node i joins it and node j leaves it; inf for self and
        same-group pairs and when either state is infeasible, 0 between
        two virtual nodes.
        """
        w = self._adj[i, j]
        if math.isnan(w):
            w = self._compute_weight(i, j)
            self._adj[i, j] = w
        return w

    def full_adjacency(self) -> np.ndarray:
        """Materialize and return the V x V weight matrix."""
        v = len(self.nodes)
        if np.any(np.isnan(self._adj)):
            for i in range(v):
                for j in range(v):
                    self.weight(i, j)
        return self._adj

    def _compute_weight(self, i: int, j: int) -> float:
        if i == j or self.node_groups[i] == self.node_groups[j]:
            return math.inf
        node_i = self.nodes[i]
        node_j = self.nodes[j]
        virtual_i = isinstance(node_i, VirtualUser)
        virtual_j = isinstance(node_j, VirtualUser)
        if virtual_i and virtual_j:
            return 0.0
        target = self.node_groups[j]
        base_total = self._base_totals[target]
        if base_total is None:
            return math.inf
        members = list(self._base_members[target])
        row = list(members[self.bs])
        if not virtual_j:
            row.remove(node_j)
        if not virtual_i:
            insort(row, node_i)
        members[self.bs] = row
        res = solve_one_channel(
            self._lists,
            target,
            members,
            self._pow2r,
            self._sigma2,
            warm_start=self._base_powers[target],
        )
        if not res.feasible:
            return math.inf
        return math.fsum(res.powers) - base_total


def build_graph(gains: ChannelGains, scenario: Scenario, grouping: Grouping, bs: int) -> LeagueGraph:
    """League graph of one BS against the current grouping."""
    return LeagueGraph(gains, scenario, grouping, bs)


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

    # all_levels[subset] = [dist, parent_node, parent_subset], each (V, V)
    all_levels: dict[int, list] = {}
    for s in range(v):
        bit = 1 << int(groups[s])
        entry = all_levels.get(bit)
        if entry is None:
            entry = [
                np.full((v, v), np.inf),
                np.full((v, v), -1, dtype=np.int32),
                np.zeros((v, v), dtype=np.int64),
            ]
            all_levels[bit] = entry
        entry[0][s, s] = 0.0

    def _extract(state_sub: int, start: int, end: int) -> list[int]:
        rev = []
        node, sub = end, state_sub
        while True:
            rev.append(node)
            dist, pnode, psub = all_levels[sub]
            parent = int(pnode[start, node])
            if parent < 0:
                break
            node, sub = parent, int(psub[start, node])
        rev.reverse()
        return rev

    current = {bit: all_levels[bit] for bit in all_levels}
    used = 0
    exhausted = False
    for _level in range(2, num_groups + 1):
        nxt: dict[int, list] = {}
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
                if not np.any(np.isfinite(cand_min)):
                    if used > EBA_DEFAULT_BUDGET:
                        exhausted = True
                        break
                    continue
                sub2 = sub | (1 << h)
                entry = nxt.get(sub2)
                if entry is None:
                    entry = all_levels.get(sub2)
                    if entry is None:
                        entry = [
                            np.full((v, v), np.inf),
                            np.full((v, v), -1, dtype=np.int32),
                            np.zeros((v, v), dtype=np.int64),
                        ]
                        all_levels[sub2] = entry
                    nxt[sub2] = entry
                dist2, pnode2, psub2 = entry
                old = dist2[:, ks]
                sel = cand_min < old
                if np.any(sel):
                    dist2[:, ks] = np.where(sel, cand_min, old)
                    pnode2[:, ks] = np.where(sel, cand_arg.astype(np.int32), pnode2[:, ks])
                    psub2[:, ks] = np.where(sel, sub, psub2[:, ks])
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
            if val < -NEG_DELTA_FLOOR_W and (best is None or val < best[0]):
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


def fga_candidates(graph: LeagueGraph, alpha: float) -> list[League]:
    """All distinct negative cycles the greedy search finds, best first.

    Each restart seeds from the globally minimal edge still available (a
    working copy; used seeds are retired), checks the immediate 2-cycle,
    then extends greedily through unused groups, checking the closure back
    to the seed after every hop. Restart count is ceil(alpha * (real
    users + groups)), clamped to at least one.
    """
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    w = graph.full_adjacency()
    groups = graph.node_groups
    v = w.shape[0]
    num_groups = graph.num_channels
    if v == 0:
        return []
    restarts = max(1, math.ceil(alpha * (graph.num_real + num_groups)))
    work = w.copy()
    groups_arr = np.asarray(groups)
    found: dict[tuple, tuple[float, list[int]]] = {}

    for _ in range(restarts):
        flat = int(np.argmin(work))
        i, j = divmod(flat, v)
        if not math.isfinite(work[i, j]):
            break
        work[i, j] = math.inf
        path = [i, j]
        cost = float(w[i, j])
        used = {groups[i], groups[j]}
        closure = cost + w[j, i]
        if closure < -NEG_DELTA_FLOOR_W:
            _record(found, path, float(closure))
        cur = j
        for _hop in range(3, num_groups + 1):
            group_used = np.zeros(num_groups, dtype=bool)
            for h in used:
                group_used[h] = True
            row = np.where(group_used[groups_arr], np.inf, w[cur])
            k = int(np.argmin(row))
            if not math.isfinite(row[k]):
                break
            cost += float(w[cur, k])
            path.append(k)
            used.add(groups[k])
            closure = cost + w[k, i]
            if closure < -NEG_DELTA_FLOOR_W:
                _record(found, path, float(closure))
            cur = k

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


def find_negative_loop_fga(graph: LeagueGraph, alpha: float):
    """Best negative differ-group cycle the greedy search finds, or None."""
    cands = fga_candidates(graph, alpha)
    return cands[0] if cands else None


def apply_league(grouping: Grouping, league: League) -> Grouping:
    """Rotate the league's users along the cycle; virtual nodes move nobody."""
    if len(league.cycle) != len(league.groups):
        raise ValueError("league is missing its group snapshot")
    for node, g in zip(league.cycle, league.groups):
        current = node.channel if isinstance(node, VirtualUser) else int(grouping.channel_of[node])
        if current != g:
            raise StaleLeagueError(
                f"node {node!r} moved from group {g} to {current} since the league was built"
            )
    return grouping.with_moves(league.moves())


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
