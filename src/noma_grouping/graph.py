"""League graph per BS and negative differ-group loop search.

Nodes are one BS's real users plus one zero-rate virtual user per
subchannel. The weight of edge n -> n~ is the change of the target
subchannel's total power (across all cells) when n joins that subchannel
and n~ leaves it, everything else held fixed. A cycle whose nodes sit in
pairwise distinct groups changes each touched subchannel's membership
exactly once, so the cycle's weight sum equals the total-power change of
applying it; a negative cycle is therefore a strict improvement.

Two detectors are provided, each proposing at most one cycle: an exact,
budget-bounded extension of Bellman-Ford over group-disjoint paths, and a
fast greedy search seeded from the most negative edges that keeps the
most negative closure it meets. The exact one starts at path length 2,
whose paths are the edges themselves, so its 2-cycle closures are read
off one w + w.T; it runs each longer length as one array sweep over the
(subset, start) rows of the last that hold a finite distance, sorted by
that key, and reads a level's states off those sorted rows. Its
relaxation budget stops a level after a prefix of its (state, group)
pairs, in a fixed order, so an exhausted search is deterministic.

A weight is a difference of two subchannel totals, each a function of
that subchannel's membership alone. A game keeps them in one
ChannelTotals memo and builds every LeagueGraph from that memo alone, so
a rebuild after a move solves only memberships no earlier build has met.
A memo key is the bytes of one uint64 row: the subchannel, then the
words of the bitmask of its users. ChannelTotals alone knows that
layout: keys makes a grouping's G keys after check_grouping, and
moved_keys makes the keys of all of a build's entries as one array, one
row per entry, each a grouping key with one user's bit cleared and
another's set. A build hands them, with its grouping and each entry's
(subchannel, leaver, joiner), to ChannelTotals.lookup, the one caller of
a channel kernel here. It reads the members of each miss from the
grouping and the entry's move, never from a key, and solves the misses
together: in one solve_channel_batch call when there are
BATCH_MIN_MISSES or more, else in one solve_one_channel call each, with
the same bits. A game re-validates a move by the memo total
(ChannelTotals.total_w) of the grouping apply_league returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .power import (
    Grouping,
    check_gains,
    check_grouping,
    pow2_rates,
    solve_channel_batch,
    solve_one_channel,
)
from .scenario import ChannelGains, Scenario

EBA_DEFAULT_BUDGET = 10 ** 6

# A build with at least this many memo misses solves them in one
# solve_channel_batch call, and one with fewer calls solve_one_channel per
# miss. Per miss, kernel alone, on the misses of the pinned N = 50 fga
# game (2-core AMD EPYC, numpy 2.4, best of 7 runs): the scalar path takes
# 14 us; the batch path 92 us at 1 miss, 15 at 8, 11 at 12, 9 at 16, 7 at
# 24, 4.6 at 40 and 1.2 at 256. The break-even is nearer 10, but moving
# the threshold moves memo_batch_solves and the scalar edge solves that
# bench/tests assert.
BATCH_MIN_MISSES = 24

# A league is "improving" only below this; keeps the finders, the game's
# acceptance guard and the enumeration oracle in exact agreement.
NEG_DELTA_FLOOR_W = 1e-18


def is_improvement(delta_w: float) -> bool:
    """The one acceptance rule: a total-power change below -NEG_DELTA_FLOOR_W.

    For a move in a game, delta_w is ChannelTotals.total_w of the grouping
    after minus that of the grouping before. A move out of an infeasible
    grouping then gives -inf and is accepted; a move into one gives +inf
    (or NaN from an infeasible start) and is rejected.
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


class ChannelTotals:
    """Per-game memo of subchannel total powers, keyed by membership.

    totals maps the key of a membership of subchannel h to h's total
    power across all cells (math.fsum of its group powers) when exactly
    those users share it, or inf when they cannot be powered. A key is
    the bytes of one little-endian uint64 row: h, then the ceil(N / 64)
    words of the membership's bitmask, whose bit n % 64 of word n // 64 is
    set when user n is on h. Only this class builds keys: keys gives a
    grouping's, and moved_keys those of memberships one move away. No key
    is decoded: every lookup carries the grouping its keys come from and
    each entry's move, and a miss's members are packed from those
    (_members). A solve starts from zero power, so it is a function of
    that membership, the gains and the scenario alone, and the memo is
    the one holder of both for the LeagueGraphs that read it. lookup
    solves the misses; batch_solves counts those that solve_channel_batch
    solved, and batch_passes the fixed-point passes of those calls (per
    call, its highest iteration). keys and total_w read a whole grouping,
    which must fit the scenario, as the gain table must (check_gains).
    """

    def __init__(self, gains: ChannelGains, scenario: Scenario):
        check_gains(gains, scenario)
        self.gains = gains
        self.scenario = scenario
        self.totals: dict = {}
        self.hits = 0
        self.batch_solves = 0
        self.batch_passes = 0
        self._pow2r = pow2_rates(scenario.spectral_rates())
        num_users = scenario.config.num_users
        users = np.arange(num_users)
        # Row n holds user n's bit as mask words; the last row, all zero,
        # is nobody's, so index -1 moves nobody.
        self._bits = np.zeros((num_users + 1, (num_users + 63) // 64), dtype="<u8")
        self._bits[users, users // 64] = np.uint64(1) << (users % 64).astype(np.uint64)
        self._key_type = np.dtype((np.void, 8 * (1 + self._bits.shape[1])))

    @property
    def solves(self) -> int:
        """Lookups that missed and ran a channel solve, one per entry."""
        return len(self.totals)

    def keys(self, grouping: Grouping) -> list:
        """The G keys of the grouping's subchannels, in subchannel order; ValueError unless it fits."""
        check_grouping(grouping, self.scenario)
        num_channels = self.scenario.config.num_channels
        rows = np.zeros((num_channels, self._bits.shape[1] + 1), dtype="<u8")
        rows[:, 0] = np.arange(num_channels)
        np.bitwise_or.at(rows[:, 1:], grouping.channel_of, self._bits[:-1])
        return rows.view(self._key_type).ravel().tolist()

    def moved_keys(self, keys: list, channels, leavers, joiners) -> list:
        """Keys of the memberships one move away from those of keys.

        keys are a grouping's (see keys). Entry e is subchannel
        channels[e]'s membership with user leavers[e] taken out, then user
        joiners[e] put in; -1 moves nobody.
        """
        rows = np.frombuffer(b"".join(keys), dtype="<u8").reshape(len(keys), -1)[channels]
        rows[:, 1:] ^= self._bits[leavers]
        rows[:, 1:] |= self._bits[joiners]
        return rows.view(self._key_type).ravel().tolist()

    def total_w(self, grouping: Grouping) -> float:
        """Total power of the grouping: the fsum of its G memo totals."""
        return math.fsum(self.lookup(grouping, self.keys(grouping)))

    def lookup(self, grouping: Grouping, keys: list, channels=None, leavers=None, joiners=None) -> list[float]:
        """Memoized totals of entries of the grouping, after solving the distinct misses.

        Entry e is subchannel channels[e]'s membership in the grouping with
        user leavers[e] taken out, then joiners[e] put in (-1 moves
        nobody), and keys[e] is its key (moved_keys). Without channels,
        leavers and joiners, keys are the grouping's own (keys) and entry h
        is subchannel h with no move. A miss's members are read from the
        grouping and the entry's move. BATCH_MIN_MISSES or more misses go
        to solve_channel_batch in one call, fewer to solve_one_channel one
        at a time; both give the same bits.
        """
        totals = self.totals
        found = list(map(totals.get, keys))
        missing = [e for e, total in enumerate(found) if total is None]
        misses = dict(zip(map(keys.__getitem__, missing), missing))  # one entry per distinct key
        self.hits += len(keys) - len(misses)
        if not misses:
            return found
        at = np.fromiter(misses.values(), dtype=np.intp, count=len(misses))
        if channels is None:
            channels, leavers = at, np.full(at.size, -1)
            joiners = leavers
        else:
            channels, leavers, joiners = (np.asarray(x)[at] for x in (channels, leavers, joiners))
        members = self._members(grouping, channels, leavers, joiners)
        sigma2 = self.scenario.noise_power_w
        if len(misses) >= BATCH_MIN_MISSES:
            res = solve_channel_batch(self.gains.gain, channels, members, self._pow2r, sigma2)
            powers = res.powers.tolist()
            for k in np.flatnonzero(~res.feasible).tolist():
                powers[k] = [math.inf]
            totals.update(zip(misses, map(math.fsum, powers)))
            self.batch_solves += len(misses)
            self.batch_passes += int(res.iterations.max())
        else:
            for key, h, rows in zip(misses, channels.tolist(), members.tolist()):
                members_by_bs = [[n for n in row if n >= 0] for row in rows]
                res = solve_one_channel(self.gains.as_lists(), h, members_by_bs, self._pow2r, sigma2)
                totals[key] = math.fsum(res.powers) if res.feasible else math.inf
        for e in missing:
            found[e] = totals[keys[e]]
        return found

    def _members(self, grouping: Grouping, channels, leavers, joiners) -> np.ndarray:
        """solve_channel_batch's members of the entries (channels[e], leavers[e], joiners[e]).

        members[e, m] holds BS m's users on subchannel channels[e] in the
        grouping, with leavers[e] taken out and joiners[e] put in (-1
        moves nobody), ascending, padded with -1 to the longest row of the
        entries (width 0 when every membership is empty).
        """
        config = self.scenario.config
        bs_of = np.append(grouping.bs_of, 0)  # index -1, nobody, changes no slot of BS 0's row
        pad = grouping.num_users  # above every user, so a padded row stays sorted
        # The grouping's rows: row [h, m] lists BS m's users on h, with a spare slot for a joiner.
        row_of = grouping.channel_of * config.num_bs + grouping.bs_of
        users = np.argsort(row_of, kind="stable")
        row_of = row_of[users]
        counts = np.bincount(row_of, minlength=config.num_channels * config.num_bs)
        table = np.full((counts.size, int(counts.max(initial=0)) + 1), pad)
        table[row_of, np.arange(users.size) - (counts.cumsum() - counts)[row_of]] = users
        rows = table.reshape(config.num_channels, config.num_bs, -1)[channels]
        entry = np.arange(rows.shape[0])
        # In the leaver's row, every slot from the leaver's on takes the next one's user.
        at = entry, bs_of[leavers]
        row = rows[at]
        gone = np.where(leavers >= 0, leavers, pad + 1)[:, None]
        rows[at] = np.where(row >= gone, np.concatenate((row[:, 1:], row[:, -1:]), axis=1), row)
        # In the joiner's row, slot t takes min(row[t], max(row[t - 1], joiner)): a sorted insertion.
        at = entry, bs_of[joiners]
        row = rows[at]
        new = np.where(joiners >= 0, joiners, pad)[:, None]
        before = np.concatenate((np.full_like(row[:, :1], -1), row[:, :-1]), axis=1)
        rows[at] = np.minimum(row, np.maximum(before, new))
        width = rows.shape[2]
        while width and (rows[..., width - 1] == pad).all():
            width -= 1
        rows = rows[..., :width]
        rows[rows == pad] = -1
        return rows


class LeagueGraph:
    """Weighted digraph over one BS's real and virtual users.

    Every weight is a difference of two subchannel totals read from the
    ChannelTotals memo, which also supplies the gains and the scenario.
    The current total of each subchannel is looked up when the graph is
    built; the first full_adjacency call looks up the totals after each
    move, by keys that ChannelTotals.moved_keys derives from the
    grouping's in one array operation, and caches the V x V matrix. A BS
    outside [0, M) and a grouping that does not fit (ChannelTotals.keys)
    raise ValueError before any solve.
    eba_relaxations is the budget count of the last eba search on it.
    """

    def __init__(self, memo: ChannelTotals, grouping: Grouping, bs: int):
        config = memo.scenario.config
        if not 0 <= bs < config.num_bs:
            raise ValueError(f"BS {bs} is outside [0, {config.num_bs})")
        self._keys = memo.keys(grouping)
        self._memo = memo
        self._grouping = grouping
        self.bs = int(bs)
        self.num_channels = config.num_channels
        self.nodes, self.node_groups = league_nodes(grouping, self.bs, self.num_channels)
        self.num_real = len(self.nodes) - self.num_channels
        self._totals = memo.lookup(grouping, self._keys)
        self._adj: np.ndarray | None = None
        self.eba_relaxations = 0

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
        h's users without j, plus i when i is real. So it is the memo's
        total of that membership minus h's current total, and all virtual
        joiners of a column share one entry. The keys of all entries, the
        columns' virtual-joiner entries first, then the real joiners
        column by column, are looked up in one ChannelTotals.lookup call,
        which solves the build's memo misses together.
        """
        if self._adj is None:
            v = len(self.nodes)
            r = self.num_real
            groups = np.array(self.node_groups)
            now = np.array(self._totals)
            users = np.array(self.nodes[:r] + [-1] * self.num_channels)  # -1: a virtual node
            adj = np.full((v, v), np.inf)
            adj[r:, r:] = 0.0
            np.fill_diagonal(adj[r:, r:], np.inf)
            open_cols = now[groups] != math.inf
            leave = np.flatnonzero(open_cols[:r])  # real j: the virtual joiners' entry
            cols, rows = np.nonzero(open_cols[:, None] & (groups[:, None] != groups[:r]))  # real i joins j
            channels = np.concatenate((groups[leave], groups[cols]))
            leavers = np.concatenate((users[leave], users[cols]))
            joiners = np.concatenate((np.full(leave.size, -1), users[rows]))
            keys = self._memo.moved_keys(self._keys, channels, leavers, joiners)
            totals = np.array(self._memo.lookup(self._grouping, keys, channels, leavers, joiners))
            adj[r:, leave] = totals[: leave.size] - now[groups[leave]]
            adj[rows, cols] = totals[leave.size :] - now[groups[cols]]
            adj[r + groups[:r], np.arange(r)] = np.inf  # each real node's own virtual node
            self._adj = adj
        return self._adj


# bench/tracing.py wraps this name, and bench/tests assert its graph.build span.
build_graph = LeagueGraph


def _make_league(graph: LeagueGraph, idx_cycle: list[int], delta: float) -> League:
    return League(
        cycle=[graph.nodes[i] for i in idx_cycle],
        predicted_delta_w=float(delta),
        groups=tuple(graph.node_groups[i] for i in idx_cycle),
    )


def _relaxed_prefix(subs: np.ndarray, units: np.ndarray, used: int, budget: int):
    """The (state, group) pairs of one level that the budget lets relax.

    subs holds the level's subsets, ascending; pair (i, h) costs units[h]
    when group h is outside subs[i], else 0, and only pairs that cost
    something are relaxed. Counting on from used in the order of
    ascending subsets, then ascending h, the first pair that takes the
    count above budget is the last one relaxed. Returns the relaxed mask
    of the states up to that pair, the count reached and whether the
    budget ran out.
    """
    num_groups = units.size
    pair_units = np.where((subs[:, None] >> np.arange(num_groups)) & 1 == 0, units, 0)
    spent = used + np.cumsum(pair_units)
    over = int(spent.searchsorted(budget, side="right"))  # spent never decreases
    exhausted = over < spent.size
    last = min(over, spent.size - 1)
    relaxed = pair_units.ravel() > 0
    relaxed[last + 1:] = False
    return relaxed.reshape(pair_units.shape)[: last // num_groups + 1], int(spent[last]), exhausted


def _sweep(dist: np.ndarray, mids: np.ndarray, w: np.ndarray):
    """Per row, the least dist[row, mid] + w[mid, k] over the row's mids, and the mid.

    mids[row] lists the nodes of the row's own groups, ascending, padded
    with nodes at which dist[row] is inf. They are taken in that order
    under a strict <, so the first minimizing mid is the parent (-1 where
    no path is finite).
    """
    v = dist.shape[1]
    src = dist.ravel()[np.arange(0, dist.size, v)[:, None] + mids]
    best = np.full(dist.shape, np.inf)
    arg = np.full(dist.shape, -1, dtype=np.int16)
    cand = np.empty_like(best)
    less = np.empty(best.shape, dtype=bool)
    for j in range(mids.shape[1]):
        mid = mids[:, j]
        np.add(src[:, j, None], w[mid], out=cand)
        np.less(cand, best, out=less)
        np.copyto(best, cand, where=less)
        np.copyto(arg, mid[:, None], where=less)
    return best, arg


def check_eba_keys(num_nodes: int, num_groups: int) -> None:
    """Raise ValueError unless the exact search's keys fit in int64.

    A league graph of num_nodes nodes in num_groups groups has
    num_nodes * 2^num_groups (subset, start) keys, from 0 up.
    """
    if num_nodes << num_groups > 1 << 63:
        raise ValueError(f"{num_nodes} nodes in {num_groups} groups: (subset, start) keys overflow int64")


def find_negative_loop_eba(graph: LeagueGraph):
    """Exact search for a negative differ-group cycle.

    Dynamic program over (start, end, set of used groups) states, expanded
    level by level in path length; a cycle closes by the edge back to its
    start (the cycle's minimum node index, so each cycle is examined once).
    Among the closures of the earliest level containing any, the most
    negative is returned (ties: the least subset, then the least (start,
    end)).

    A level is a table of (subset, start) rows, sorted by that key, that
    hold a finite distance: dist[row, end] is the least weight of a path
    from start to end through one node of each group in the subset, and
    parent[row, end] the node before end, whose row is the subset without
    end's group. The rows are sorted by subset, so the level's states,
    its distinct subsets, are read where the subset changes. The search
    starts at level 2, whose path start -> k is the edge itself (parent
    start, start < k), so its closures w[start, k] + w[k, start] are read
    off one w + w.T masked to the level's relaxed pairs; its cells are
    gathered only when none improves. Each later level is one sweep over
    the rows of the last: step j takes every row's j-th node of its own
    groups as mid, in ascending order, and keeps the least
    dist[row, mid] + w[mid, k] under a strict < (the first minimizing mid
    is the parent), for k above start and outside the subset. A level's
    closures back to the start are scanned before its table is built.

    The budget counts V * V * |group h| per (state, group h) pair, in the
    order of ascending subsets, then ascending h, skipping used and empty
    groups; a state is a subset with a row. The first pair that takes the
    count above EBA_DEFAULT_BUDGET (read at call time) is the last one
    relaxed: its level keeps only the pairs up to it, its closures are
    scanned, and without a negative one EbaBudgetExhausted is raised.
    Returning None is a proof that no negative differ-group cycle of
    length <= G exists. The count reached is left in
    graph.eba_relaxations, also when the search raises. A graph whose
    (subset, start) keys do not fit in int64 (check_eba_keys) raises
    ValueError before any search.
    """
    budget = EBA_DEFAULT_BUDGET
    v, num_groups = graph.num_nodes, graph.num_channels
    graph.eba_relaxations = 0
    check_eba_keys(v, num_groups)
    w = graph.full_adjacency()
    groups = np.asarray(graph.node_groups, dtype=np.int64)
    bits = np.left_shift(1, groups)
    # Budget units of a pair extending a state by group h; 0 for an empty group.
    units = v * v * np.bincount(groups, minlength=num_groups)
    above = np.arange(v) > np.arange(v)[:, None]  # [start, k]: start < k
    tables = []  # (keys, parent) of each level from 2 on

    def _extract(sub: int, start: int, end: int, parent: int) -> list[int]:
        path = [end, parent]
        sub ^= 1 << int(groups[end])
        for keys, parents in reversed(tables):
            node = path[-1]
            row = int(np.searchsorted(keys, sub * v + start))
            sub ^= 1 << int(groups[node])
            path.append(int(parents[row, node]))
        return path[::-1]

    # Level 1 as rows, one per node alone at distance 0 from itself; it
    # only seeds level 2, so it has no dist or table.
    row_start = np.argsort(groups, kind="stable")
    row_sub = bits[row_start]
    flat_w = w.ravel()
    dist = None
    used = 0
    for _level in range(2, num_groups + 1):
        # The rows are sorted by subset, so a state starts where the subset changes.
        first = np.concatenate(([True], row_sub[1:] != row_sub[:-1]))
        subs, state = row_sub[first], np.cumsum(first) - 1
        relaxed, used, exhausted = _relaxed_prefix(subs, units, used, budget)
        graph.eba_relaxations = used
        rows = int(np.searchsorted(state, len(relaxed)))  # the rows of states with a relaxed pair
        starts = row_start[:rows]
        pairs = relaxed[:, groups][state[:rows]] & above[starts]
        if dist is None:  # level 2: the path start -> k is the edge itself
            # The least closure start -> k -> start, first in (subset, start, k) order on ties.
            closure = np.where(pairs, (w + w.T)[starts], np.inf)
            delta = float(closure.min())
            if is_improvement(delta):
                r, k = np.nonzero(closure == delta)
                at = np.lexsort((k, starts[r], row_sub[r] | bits[k]))[0]
                return _make_league(graph, [int(starts[r[at]]), int(k[at])], delta)
            best, arg = w[starts], None
        else:
            outside = (subs[: len(relaxed), None] >> groups) & 1 == 0
            width = v - int(outside.sum(axis=1).min())
            own = np.argsort(outside, axis=1, kind="stable")[:, :width]
            best, arg = _sweep(dist[:rows], own[state[:rows]], w)
        cells = np.flatnonzero(pairs & np.isfinite(best))
        r, k = np.divmod(cells, v)
        sub, start, value = row_sub[r] | bits[k], starts[r], best.ravel()[cells]
        parent = start if arg is None else arg.ravel()[cells]  # level 2's parents are the starts

        # The least closure back to the start, first in (subset, start, end) order on ties.
        if arg is not None and value.size:
            closure = value + flat_w[k * v + start]
            delta = float(closure.min())
            if is_improvement(delta):
                ties = np.flatnonzero(closure == delta)
                at = ties[np.lexsort((k[ties], start[ties], sub[ties]))[0]]
                path = _extract(int(sub[at]), int(start[at]), int(k[at]), int(parent[at]))
                return _make_league(graph, path, delta)
        if exhausted:
            raise EbaBudgetExhausted(f"relaxation budget {budget} exceeded")
        if not value.size:
            return None

        keys, row = np.unique(sub * v + start, return_inverse=True)
        row_sub, row_start = np.divmod(keys, v)
        dist = np.full((keys.size, v), np.inf)
        parents = np.full(dist.shape, -1, dtype=np.int16)
        flat = row * v + k
        dist.ravel()[flat] = value
        parents.ravel()[flat] = parent
        tables.append((keys, parents))
    return None


def check_alpha(alpha: float) -> None:
    """Raise ValueError unless alpha, the greedy restart factor, is finite and > 0."""
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and > 0, got {alpha!r}")


def fga_candidates(graph: LeagueGraph, alpha: float) -> list[League]:
    """The best negative cycle the greedy search finds, as a list of at most one League.

    There are ceil(alpha * (real users + groups)) restarts, at most V * V.
    Their seeds are the least finite edges in (weight, flat index) order,
    one edge each. Every restart checks its seed's 2-cycle; then all of
    them advance together, one greedy hop at a time to the cheapest node
    of a group not yet on their path, and check the closure back to the
    seed after every hop. A restart stops when it has no finite hop left
    or its path visits every group. The result is the least (closure,
    node index rotation that starts at the least index) over all
    improving closures.
    """
    check_alpha(alpha)
    w = graph.full_adjacency()
    v = w.shape[0]
    num_groups = graph.num_channels
    # Restarts beyond the V * V seed edges change nothing; the cap keeps ceil finite.
    restarts = math.ceil(min(alpha * (graph.num_real + num_groups), v * v))
    flat = w.ravel()
    seeds = np.argsort(flat, kind="stable")[:restarts]
    seeds = seeds[np.isfinite(flat[seeds])]
    groups = np.asarray(graph.node_groups)
    same_group = groups[:, None] == groups  # (V, V)

    start, cur = np.divmod(seeds, v)
    paths = np.empty((seeds.size, max(2, num_groups)), dtype=np.intp)
    paths[:, 0], paths[:, 1] = start, cur
    cost = flat[seeds]
    blocked = same_group[start] | same_group[cur]
    best = (math.inf, [])
    length = 2
    while True:
        closure = cost + w[cur, start]
        least = float(closure.min(initial=math.inf))
        if is_improvement(least):
            for path in paths[closure == least, :length].tolist():
                k = path.index(min(path))
                best = min(best, (least, path[k:] + path[:k]))
        if length >= num_groups:
            break
        rows = np.where(blocked, np.inf, w[cur])
        cur = rows.argmin(axis=1)
        hop = rows[np.arange(cur.size), cur]
        alive = np.isfinite(hop)
        if not alive.all():  # drop the restarts without a finite hop
            if not alive.any():
                break
            start, cur, hop, cost, paths, blocked = (
                start[alive], cur[alive], hop[alive], cost[alive], paths[alive], blocked[alive]
            )
        cost = cost + hop
        blocked |= same_group[cur]
        paths[:, length] = cur
        length += 1

    delta, cycle = best
    return [_make_league(graph, cycle, delta)] if cycle else []


def apply_league(grouping: Grouping, league: League) -> Grouping:
    """Rotate the league's users along the cycle; virtual nodes move nobody.

    Raises ValueError unless the league is a cycle of at least two nodes
    in pairwise distinct groups (so no user moves twice or stays put)
    whose real users are in [0, N) and belong to one BS, and
    StaleLeagueError when a node has left the group recorded at build time.
    """
    if len(league.cycle) != len(league.groups):
        raise ValueError("league is missing its group snapshot")
    if len(league.cycle) < 2 or len(set(league.groups)) != len(league.groups):
        raise ValueError(f"league groups {league.groups} are not a cycle of distinct groups")
    moved = grouping.with_moves(league.moves)  # first, since it checks each user is in [0, N)
    owners = {int(grouping.bs_of[n]) for n, _g in league.moves}
    if len(owners) > 1:
        raise ValueError(f"league moves users of several BSs {sorted(owners)}")
    for node, g in zip(league.cycle, league.groups):
        current = node.channel if isinstance(node, VirtualUser) else int(grouping.channel_of[node])
        if current != g:
            raise StaleLeagueError(
                f"node {node!r} moved from group {g} to {current} since the league was built"
            )
    return moved

