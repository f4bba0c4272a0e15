"""Shared builders, tolerance helpers and oracles for the test suite.

bench/oracles.py, which imports nothing from the package, is importable
as `oracles`: the references below that must not share the package's
code are built on it.
"""

import math
import sys
from collections import deque
from pathlib import Path

import numpy as np
import pytest

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))

import oracles

from noma_grouping import (
    assemble_coupling,
    decode_orders,
    draw_channel_gains,
    generate_scenario,
    initial_grouping,
    default_config,
    solve_all_powers,
)
from noma_grouping import Grouping, ScenarioGenerationError
from noma_grouping import game as game_module
from noma_grouping import graph as graph_module
from noma_grouping import scenario as scenario_module
from noma_grouping.graph import League, is_improvement
from noma_grouping.power import CCINR_ORDER

REL = 1e-9
FLOOR = 1e-18


def assert_close(a, b, rel=REL, floor=FLOOR, label=""):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    tol = np.maximum(rel * np.maximum(np.abs(a), np.abs(b)), floor)
    ok = np.abs(a - b) <= tol
    assert np.all(ok), f"{label} mismatch: {a} vs {b}"


def make_instance(
    num_users,
    num_channels,
    num_bs,
    seed,
    rate_range=(60e3, 600e3),
    unit_fading=False,
):
    """Scenario plus one fading draw, deterministically derived from seed."""
    ss = np.random.SeedSequence((seed, num_users, num_channels, num_bs))
    s_scen, s_gain = [int(x) for x in ss.generate_state(2, np.uint64)]
    config = default_config(
        num_users=num_users,
        num_channels=num_channels,
        num_bs=num_bs,
        rate_range_bps=rate_range,
        seed=s_scen,
    )
    scenario = generate_scenario(config, s_scen)
    gains = draw_channel_gains(scenario, s_gain, unit_fading=unit_fading)
    return scenario, gains


def feasible_instances(count, num_users, num_channels, num_bs, rate_range=(60e3, 600e3), start_seed=0, max_draws=10000):
    """Yield `count` instances whose max-gain starting grouping is feasible.

    Dense draws can be genuinely unpowerable (QoS coupling diverges); the
    comparisons under test are only defined on feasible starts, so seeds
    are screened deterministically.
    """
    produced = 0
    seed = start_seed
    while produced < count:
        if seed - start_seed >= max_draws:
            raise RuntimeError("could not find enough feasible instances")
        scenario, gains = make_instance(num_users, num_channels, num_bs, seed, rate_range)
        grouping = initial_grouping(gains, scenario)
        solution = solve_all_powers(gains, grouping, scenario)
        seed += 1
        if solution.feasible:
            produced += 1
            yield scenario, gains, grouping, solution


def single_cell_group(s, rates, members=None):
    """One BS whose users' CCINR is s: gains s at unit noise, no interference.

    Returns the group's ascending-CCINR decode order, its closed-form
    power from the coupling assembly (-b of the 1 x 1 system) and pow2r.
    """
    rows = [[float(x) for x in s]]
    pow2r = [2.0 ** r for r in rates]
    members = list(range(len(s))) if members is None else list(members)
    orders = decode_orders(rows, [members], pow2r, 1.0, [0.0], CCINR_ORDER)
    _a, b = assemble_coupling(rows, orders, pow2r, 1.0)
    return orders[0], -b[0], pow2r


def channel_system(gains, grouping, pow2r, sigma2, group_power, g):
    """Coupling system (a, b) of subchannel g under the CCINR orders at group_power."""
    num_bs, num_ch = gains.gain.shape[:2]
    rows = [gains.as_lists()[m][g] for m in range(num_bs)]
    powers = [float(group_power[m][g]) for m in range(num_bs)]
    orders = decode_orders(
        rows, grouping.members_by_channel(num_ch, num_bs)[g], pow2r, sigma2, powers, CCINR_ORDER
    )
    return assemble_coupling(rows, orders, pow2r, sigma2)


def jacobi_group_power(gains, grouping, scenario, max_sweeps):
    """Group powers by Jacobi iteration of the per-group closed form, from zero.

    An independent path to the coupled solution, on bench/oracles.py
    alone: every sweep applies oracles.ccinr_step (the group powers under
    the ascending-CCINR orders at the current powers) to each subchannel.
    Returns the powers and whether two successive sweeps agreed to 1e-13
    relative.
    """
    cfg = scenario.config
    sigma2 = scenario.noise_power_w
    pow2r = np.exp2(scenario.spectral_rates()).tolist()
    channel_of, bs_of = grouping.channel_of.tolist(), grouping.bs_of.tolist()
    rows = [gains.gain[:, g, :].tolist() for g in range(cfg.num_channels)]
    members = [oracles.members_by_bs(channel_of, bs_of, cfg.num_bs, g) for g in range(cfg.num_channels)]
    gp = np.zeros((cfg.num_bs, cfg.num_channels))
    for _ in range(max_sweeps):
        new = np.zeros_like(gp)
        for g in range(cfg.num_channels):
            new[:, g], _orders = oracles.ccinr_step(rows[g], members[g], pow2r, sigma2, gp[:, g].tolist())
        done = np.all(np.abs(new - gp) <= np.maximum(1e-13 * np.abs(new), 1e-22))
        gp = new
        if done:
            return gp, True
    return gp, False


def fga_candidates_reference(graph, alpha):
    """The greedy finder with its restarts run one at a time (oracle).

    Each restart seeds from the globally minimal edge still available (a
    working copy; used seeds are retired), checks the immediate 2-cycle,
    then extends greedily through unused groups, checking the closure back
    to the seed after every hop. Cycles found from several seeds are kept
    once, under their rotation that starts at the least node index, with
    the least closure; the result is sorted by (delta, that rotation).
    """
    w = graph.full_adjacency()
    groups = graph.node_groups
    v = w.shape[0]
    num_groups = graph.num_channels
    if v == 0:
        return []
    restarts = max(1, math.ceil(alpha * (graph.num_real + num_groups)))
    work = w.copy()
    groups_arr = np.asarray(groups)
    found = {}

    def record(path, closure):
        k = path.index(min(path))
        canon = tuple(path[k:] + path[:k])
        if canon not in found or closure < found[canon]:
            found[canon] = closure

    for _ in range(restarts):
        flat = int(np.argmin(work))
        i, j = divmod(flat, v)
        if not math.isfinite(work[i, j]):
            break
        work[i, j] = math.inf
        path = [i, j]
        cost = float(w[i, j])
        blocked = (groups_arr == groups[i]) | (groups_arr == groups[j])
        closure = cost + w[j, i]
        if is_improvement(closure):
            record(path, float(closure))
        cur = j
        for _hop in range(3, num_groups + 1):
            row = np.where(blocked, np.inf, w[cur])
            k = int(np.argmin(row))
            if not math.isfinite(row[k]):
                break
            cost += float(w[cur, k])
            path.append(k)
            blocked |= groups_arr == groups[k]
            closure = cost + w[k, i]
            if is_improvement(closure):
                record(path, float(closure))
            cur = k

    return [
        League(
            cycle=[graph.nodes[i] for i in canon],
            predicted_delta_w=delta,
            groups=tuple(graph.node_groups[i] for i in canon),
        )
        for canon, delta in sorted(found.items(), key=lambda kv: (kv[1], kv[0]))
    ]


def find_negative_loop_eba_reference(graph):
    """The exact finder's subset DP run one (state, group) pair at a time (oracle).

    States are (start, end, set of used groups), expanded level by level
    in path length, with every node a source at distance 0. Each level
    visits its states in ascending subset order and, per state, the
    groups h not yet used in ascending order; the pair adds
    V * V * |group h| to the budget count and takes, for every
    (start, k in group h) with start < k, the least dist[start, mid] +
    w[mid, k] with its first minimizing mid as the parent. When the count
    exceeds graph.EBA_DEFAULT_BUDGET (read at call time) after a pair,
    the level stops there. Each level's closures back to the start are
    then scanned subset by subset; the first strictly least improving
    one is returned, else the exhausted search raises EbaBudgetExhausted
    and an empty level returns None. graph.eba_relaxations is set to the
    budget count.
    """
    budget = graph_module.EBA_DEFAULT_BUDGET
    w = graph.full_adjacency()
    groups = np.asarray(graph.node_groups)
    v = w.shape[0]
    num_groups = graph.num_channels
    graph.eba_relaxations = 0
    if v == 0:
        return None
    wt = w.T.copy()
    starts_mask = np.arange(v)[None, :] > np.arange(v)[:, None]  # [start, node]
    group_nodes = [np.flatnonzero(groups == h) for h in range(num_groups)]

    # all_levels[subset] = (dist, parent), each (V, V) over [start, end].
    all_levels = {}

    def state(sub):
        if sub not in all_levels:
            all_levels[sub] = (np.full((v, v), np.inf), np.full((v, v), -1, dtype=np.int32))
        return all_levels[sub]

    for s in range(v):
        state(1 << int(groups[s]))[0][s, s] = 0.0

    def extract(sub, start, end):
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
        nxt = {}
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
                    nxt[sub2] = state(sub2)
                    dist2, parent2 = nxt[sub2]
                    old = dist2[:, ks]
                    sel = cand_min < old
                    if sel.any():
                        dist2[:, ks] = np.where(sel, cand_min, old)
                        parent2[:, ks] = np.where(sel, cand_arg.astype(np.int32), parent2[:, ks])
                if used > budget:
                    exhausted = True
                    break
            if exhausted:
                break
        graph.eba_relaxations = used

        best = None
        for sub2 in sorted(nxt):
            closure = nxt[sub2][0] + wt
            val = closure.min()
            if is_improvement(val) and (best is None or val < best[0]):
                st, en = np.unravel_index(int(closure.argmin()), closure.shape)
                best = (float(val), int(st), int(en), sub2)
        if best is not None:
            delta, st, en, sub2 = best
            cycle = extract(sub2, st, en)
            return League(
                cycle=[graph.nodes[i] for i in cycle],
                predicted_delta_w=delta,
                groups=tuple(graph.node_groups[i] for i in cycle),
            )
        if exhausted:
            raise graph_module.EbaBudgetExhausted(f"relaxation budget {budget} exceeded")
        if not nxt:
            return None
        current = nxt
    return None


def placement_reference(config, seed):
    """Positions, target rates and association, one placement try at a time (oracle).

    Each try draws one point; a user gets the first point at least
    min_user_bs_distance from every BS, and a user still unplaced after
    scenario._MAX_PLACEMENT_TRIES tries (read at call time) raises
    ScenarioGenerationError. The rates are drawn after the last user.
    """
    rng = np.random.default_rng(seed)
    x0, y0, x1, y1 = config.area
    bs = config.bs_positions
    positions = np.empty((config.num_users, 2))
    for n in range(config.num_users):
        for _ in range(scenario_module._MAX_PLACEMENT_TRIES):
            p = rng.uniform((x0, y0), (x1, y1))
            if np.min(np.hypot(*(bs - p).T)) >= config.min_user_bs_distance:
                positions[n] = p
                break
        else:
            raise ScenarioGenerationError("area too small")
    lo, hi = config.rate_range_bps
    rates = rng.uniform(lo, hi, size=config.num_users)
    dists = np.hypot(
        positions[:, 0:1] - bs[None, :, 0], positions[:, 1:2] - bs[None, :, 1]
    )
    return positions, rates, np.argmin(dists, axis=1)


def sccd_grouping_reference(gains, scenario):
    """SCCD with each user's strength read one gain at a time (oracle).

    Users of a BS rank by (-best own-BS gain over subchannels, id); rank i
    and rank k - 1 - i share subchannel i mod G, and an odd middle user
    takes (k // 2) mod G.
    """
    cfg = scenario.config
    channel_of = np.zeros(cfg.num_users, dtype=np.int64)
    for m in range(cfg.num_bs):
        users = scenario.users_of_bs(m)
        summary = {n: float(np.max(gains.gain[m][:, n])) for n in users}
        ranked = sorted(users, key=lambda n: (-summary[n], n))
        k = len(ranked)
        for i in range(k // 2):
            g = i % cfg.num_channels
            channel_of[ranked[i]] = g
            channel_of[ranked[k - 1 - i]] = g
        if k % 2:
            channel_of[ranked[k // 2]] = (k // 2) % cfg.num_channels
    return Grouping(channel_of=channel_of, bs_of=scenario.association.copy())


def gale_shapley_grouping_reference(gains, scenario):
    """Deferred acceptance per BS with per-user sorted preference lists (oracle).

    Users propose in ascending id order, each to its subchannels by
    (-gain, subchannel); a subchannel over its quota ceil(k / G) evicts
    its least-gain holder (ties: the higher id), who proposes again later.
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
        held = [[] for _ in range(num_ch)]
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


def memo_key(channel, mask, num_users):
    """ChannelTotals' key of the membership with bitmask mask on channel.

    The bytes of little-endian uint64s: the channel, then ceil(N / 64)
    mask words, the lowest first.
    """
    return int(channel).to_bytes(8, "little") + mask.to_bytes(8 * ((num_users + 63) // 64), "little")


def memo_key_mask(key):
    """The (channel, mask) of a memo_key."""
    return int.from_bytes(key[:8], "little"), int.from_bytes(key[8:], "little")


def adjacency_keys_reference(graph, grouping, totals):
    """(channel, mask) of every entry LeagueGraph.full_adjacency looks up, in order.

    The per-column loops the key arrays replaced: for each column j whose
    subchannel h has a finite current total (totals[h]), h's mask without
    j when j is real (the virtual joiners' entry), and h's mask without j
    plus each real joiner i outside h. All virtual joiners' entries come
    first, then the real joiners' column by column.
    """
    r = graph.num_real
    groups = graph.node_groups
    masks = [0] * graph.num_channels
    for n, g in enumerate(grouping.channel_of.tolist()):
        masks[g] |= 1 << n
    bits = [1 << n for n in graph.nodes[:r]]
    joiners = [[i for i in range(r) if groups[i] != h] for h in range(graph.num_channels)]
    leave_keys, keys = [], []
    for j, h in enumerate(groups):
        if totals[h] == math.inf:
            continue
        mask = masks[h]
        if j < r:
            mask ^= bits[j]
            leave_keys.append((h, mask))
        keys += [(h, mask | bits[i]) for i in joiners[h]]
    return leave_keys + keys


def record_game_graphs(monkeypatch):
    """Patch run_game's build_graph to record (grouping, bs, graph) per build."""
    built = []
    original = game_module.build_graph

    def recording_build(memo, grouping, bs):
        graph = original(memo, grouping, bs)
        built.append((grouping, bs, graph))
        return graph

    monkeypatch.setattr(game_module, "build_graph", recording_build)
    return built


@pytest.fixture
def small_multicell():
    scenario, gains = make_instance(12, 3, 2, seed=7)
    return scenario, gains
