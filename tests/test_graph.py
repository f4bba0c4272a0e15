import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    assert_close,
    feasible_instances,
    fga_candidates_reference,
    make_instance,
    record_game_graphs,
)
from noma_grouping import (
    Grouping,
    StaleLeagueError,
    VirtualUser,
    apply_league,
    build_graph,
    dump_adjacency_csv,
    fga_candidates,
    find_negative_loop_eba,
    initial_grouping,
    run_game,
    solve_all_powers,
)
from noma_grouping import graph as graph_module
from noma_grouping.game import DEFAULT_ALPHA
from noma_grouping.graph import ChannelTotals, League, LeagueGraph
from noma_grouping.power import solve_one_channel, total_power_or_inf

SEEDS_FILE = Path(__file__).resolve().parents[1] / "bench" / "seeds.json"


def _fake_graph(weights, groups):
    """LeagueGraph stand-in with a fixed adjacency, for finder tests."""
    graph = LeagueGraph.__new__(LeagueGraph)
    graph.bs = 0
    graph.num_channels = int(max(groups)) + 1
    graph.nodes = list(range(len(groups)))
    graph.node_groups = list(groups)
    graph.num_real = len(groups)
    graph._adj = np.asarray(weights, dtype=float)
    return graph


def _edge(graph, n, n_to):
    """Weight of the edge between two nodes, given as user ids or VirtualUser markers."""
    return graph.full_adjacency()[graph.nodes.index(n), graph.nodes.index(n_to)]


class TestEdgeWeight:
    def test_virtual_to_virtual_is_zero(self):
        scenario, gains = make_instance(6, 3, 1, seed=1)
        grouping = initial_grouping(gains, scenario)
        graph = build_graph(gains, scenario, grouping, 0)
        assert _edge(graph, VirtualUser(0), VirtualUser(1)) == 0.0

    def test_move_into_globally_empty_group(self):
        scenario, gains = make_instance(6, 3, 2, seed=21)
        grouping = Grouping(
            channel_of=np.zeros(6, dtype=int), bs_of=scenario.association.copy()
        )
        # channel 2 is empty in every cell; inserting user n alone costs
        # (2^r - 1) * sigma^2 / gain
        users0 = scenario.users_of_bs(0)
        n = users0[0]
        delta = _edge(build_graph(gains, scenario, grouping, 0), n, VirtualUser(2))
        r = scenario.spectral_rates()[n]
        expected = (2.0 ** r - 1.0) * scenario.noise_power_w / gains.gain[0, 2, n]
        assert_close(delta, expected, rel=1e-12)

    def test_two_cycle_sums_to_swap_delta(self):
        for scenario, gains, grouping, base in feasible_instances(3, 10, 3, 1, start_seed=30):
            users = scenario.users_of_bs(0)
            pair = None
            for a in users:
                for b in users:
                    if grouping.channel_of[a] != grouping.channel_of[b]:
                        pair = (a, b)
                        break
                if pair:
                    break
            a, b = pair
            graph = build_graph(gains, scenario, grouping, 0)
            forward = _edge(graph, a, b)
            backward = _edge(graph, b, a)
            swapped = grouping.with_moves(
                [(a, int(grouping.channel_of[b])), (b, int(grouping.channel_of[a]))]
            )
            after = solve_all_powers(gains, swapped, scenario)
            actual = total_power_or_inf(after) - total_power_or_inf(base)
            assert_close(forward + backward, actual)

    def test_same_group_rejected(self):
        scenario, gains = make_instance(6, 2, 1, seed=3)
        grouping = Grouping(channel_of=np.zeros(6, dtype=int), bs_of=scenario.association.copy())
        graph = build_graph(gains, scenario, grouping, 0)
        # a same-group pair is no edge: its weight is +inf, as is a self loop
        assert _edge(graph, 0, 1) == math.inf
        assert _edge(graph, 0, 0) == math.inf


def _reference_weight(gains, scenario, grouping, graph, i, j):
    """Edge weight from two cold solves of subchannel h = group of j, before
    and after the move, with h's members read off the moved grouping."""
    if i == j or graph.node_groups[i] == graph.node_groups[j]:
        return math.inf
    node_i, node_j = graph.nodes[i], graph.nodes[j]
    if isinstance(node_i, VirtualUser) and isinstance(node_j, VirtualUser):
        return 0.0
    h = graph.node_groups[j]
    moves = []
    if not isinstance(node_i, VirtualUser):
        moves.append((node_i, h))
    if not isinstance(node_j, VirtualUser):
        moves.append((node_j, graph.node_groups[i]))
    moved = grouping.with_moves(moves)
    num_bs = scenario.config.num_bs
    lists, sigma2 = gains.as_lists(), scenario.noise_power_w
    pow2r = np.exp2(scenario.spectral_rates()).tolist()
    before = solve_one_channel(lists, h, grouping.members_by_bs(h, num_bs), pow2r, sigma2)
    if not before.feasible:
        return math.inf
    after = solve_one_channel(lists, h, moved.members_by_bs(h, num_bs), pow2r, sigma2)
    if not after.feasible:
        return math.inf
    return math.fsum(after.powers) - math.fsum(before.powers)


def _wrecked_instance():
    """Multi-cell grouping whose subchannel 0 cannot be powered: BS 0's users piled onto it."""
    scenario, gains = make_instance(12, 3, 2, seed=3)
    grouping = initial_grouping(gains, scenario)
    wreck = grouping.with_moves([(n, 0) for n in scenario.users_of_bs(0)])
    return scenario, gains, wreck


def _pinned_game(num_users):
    """The pinned game instance of the benchmark with num_users users (G = 10, M = 4)."""
    with open(SEEDS_FILE) as fh:
        seed = dict(json.load(fh)["game"])[num_users]
    return make_instance(num_users, 10, 4, seed)


class TestFullAdjacency:
    def test_every_entry_matches_moved_grouping_solve(self, monkeypatch):
        cases = [case[:3] for case in feasible_instances(2, 12, 3, 2, start_seed=60)]
        cases.append(_wrecked_instance())
        graphs = [
            (scenario, gains, grouping, build_graph(gains, scenario, grouping, m))
            for scenario, gains, grouping in cases
            for m in range(scenario.config.num_bs)
        ]
        # Every graph of the fga game on the pinned N = 60 instance: edge
        # solves warm-started from the current powers called 30 of their
        # entries feasible that a cold solve calls infeasible.
        built = record_game_graphs(monkeypatch)
        scenario, gains = _pinned_game(60)
        run_game(gains, scenario, finder="fga")
        graphs += [(scenario, gains, grouping, graph) for grouping, _bs, graph in built]
        for scenario, gains, grouping, graph in graphs:
            adjacency = graph.full_adjacency()
            for i in range(graph.num_nodes):
                for j in range(graph.num_nodes):
                    expected = _reference_weight(gains, scenario, grouping, graph, i, j)
                    assert adjacency[i, j] == expected, (graph.bs, i, j, adjacency[i, j], expected)

    def test_infeasible_subchannel_columns(self):
        scenario, gains, wreck = _wrecked_instance()
        pow2r = np.exp2(scenario.spectral_rates()).tolist()
        members = wreck.members_by_bs(0, 2)
        assert not solve_one_channel(gains.as_lists(), 0, members, pow2r, scenario.noise_power_w).feasible
        for m in range(2):
            graph = build_graph(gains, scenario, wreck, m)
            adjacency = graph.full_adjacency()
            r = graph.num_real
            for j, h in enumerate(graph.node_groups):
                if h != 0:
                    continue
                expected = np.full(graph.num_nodes, np.inf)
                if j >= r:  # virtual node 0: the virtual block stays 0
                    expected[r:] = 0.0
                    expected[j] = np.inf
                assert np.array_equal(adjacency[:, j], expected), (m, j)
            assert np.any(np.isfinite(adjacency[:r, :]))  # other subchannels still take joiners


class TestBuildGraph:
    def test_structure(self):
        scenario, gains = make_instance(5, 2, 1, seed=4)
        grouping = Grouping(channel_of=np.zeros(5, dtype=int), bs_of=scenario.association.copy())
        graph = build_graph(gains, scenario, grouping, 0)
        assert graph.num_nodes == 5 + 2
        adjacency = graph.full_adjacency()
        assert np.all(np.isinf(np.diag(adjacency)))
        for i in range(graph.num_nodes):
            for j in range(graph.num_nodes):
                if i == j:
                    continue
                same_group = graph.node_groups[i] == graph.node_groups[j]
                assert math.isinf(adjacency[i, j]) == same_group

    def test_virtual_count_and_zero_rate(self):
        scenario, gains = make_instance(6, 3, 2, seed=5)
        grouping = initial_grouping(gains, scenario)
        graph = build_graph(gains, scenario, grouping, 1)
        virtuals = [x for x in graph.nodes if isinstance(x, VirtualUser)]
        assert len(virtuals) == 3
        assert sorted(v.channel for v in virtuals) == [0, 1, 2]

    def test_csv_dump(self, tmp_path):
        scenario, gains = make_instance(4, 2, 1, seed=6)
        grouping = initial_grouping(gains, scenario)
        graph = build_graph(gains, scenario, grouping, 0)
        out = tmp_path / "adj.csv"
        dump_adjacency_csv(graph, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "from,to,group_from,group_to,weight_w"
        assert len(lines) == 1 + graph.num_nodes ** 2


class TestEba:
    def test_all_positive_weights(self):
        weights = [
            [math.inf, 1.0, 2.0],
            [1.5, math.inf, 0.5],
            [2.5, 3.0, math.inf],
        ]
        graph = _fake_graph(weights, [0, 1, 2])
        assert find_negative_loop_eba(graph) is None

    def test_hand_built_three_cycle(self):
        inf = math.inf
        weights = [
            [inf, -5.0, inf],
            [inf, inf, 2.0],
            [1.0, inf, inf],
        ]
        graph = _fake_graph(weights, [0, 1, 2])
        league = find_negative_loop_eba(graph)
        assert league is not None
        assert league.predicted_delta_w == pytest.approx(-2.0)
        assert league.cycle == [0, 1, 2]

    def test_two_cycle_detected(self):
        inf = math.inf
        weights = [
            [inf, -3.0],
            [1.0, inf],
        ]
        graph = _fake_graph(weights, [0, 1])
        league = find_negative_loop_eba(graph)
        assert league.predicted_delta_w == pytest.approx(-2.0)
        assert len(league.cycle) == 2

    def test_agrees_with_enumeration_on_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(150):
            v = int(rng.integers(3, 9))
            num_groups = int(rng.integers(2, 4))
            groups = [int(g) for g in rng.integers(0, num_groups, v)]
            weights = rng.uniform(-1.0, 2.0, (v, v))
            _check_eba_against_enumeration(weights, groups, num_groups)

        # Longer paths: 4-6 groups, V <= 12, and a mostly negative cycle
        # planted through one node of every group among positive edges, so
        # that the first negative closures often come after 4-6 hops.
        rng = np.random.default_rng(12)
        lengths = set()
        for _ in range(100):
            num_groups = int(rng.integers(4, 7))
            v = int(rng.integers(num_groups, 13))
            groups = [int(g) for g in rng.integers(0, num_groups, v)]
            weights = rng.uniform(0.5, 2.0, (v, v))
            first_of_group = {}
            for node in rng.permutation(v).tolist():
                first_of_group.setdefault(groups[node], node)
            planted = list(first_of_group.values())
            for a, b in zip(planted, planted[1:] + planted[:1]):
                weights[a, b] = rng.uniform(-0.3, 0.1)
            league = _check_eba_against_enumeration(weights, groups, num_groups)
            if league is not None:
                lengths.add(len(league.cycle))
        assert {4, 5, 6} <= lengths


def _check_eba_against_enumeration(weights, groups, num_groups):
    """Assert eba finds a cycle exactly when brute force does, and that its
    cycle is differ-group with the weight it reports; returns the league."""
    v = len(groups)
    for i in range(v):
        for j in range(v):
            if i == j or groups[i] == groups[j]:
                weights[i, j] = math.inf
    graph = _fake_graph(weights.copy(), groups)

    # brute force: any directed cycle with pairwise distinct groups
    def extend(path, used, cost):
        last = path[-1]
        if len(path) >= 2:
            closing = weights[last, path[0]]
            if math.isfinite(closing) and cost + closing < -1e-18:
                return True
        if len(path) == num_groups:
            return False
        for k in range(v):
            if k <= path[0] or k in path or groups[k] in used:
                continue
            w = weights[last, k]
            if not math.isfinite(w):
                continue
            if extend(path + [k], used | {groups[k]}, cost + w):
                return True
        return False

    league = find_negative_loop_eba(graph)
    assert (league is not None) == any(extend([s], {groups[s]}, 0.0) for s in range(v))
    if league is not None:
        idx = [graph.nodes.index(x) for x in league.cycle]
        assert len(set(league.groups)) == len(idx)
        total = sum(weights[a, b] for a, b in zip(idx, idx[1:] + idx[:1]))
        assert_close(total, league.predicted_delta_w, rel=1e-12)
    return league


class TestFga:
    def test_all_positive_weights(self):
        weights = [
            [math.inf, 1.0, 2.0],
            [1.5, math.inf, 0.5],
            [2.5, 3.0, math.inf],
        ]
        graph = _fake_graph(weights, [0, 1, 2])
        assert fga_candidates(graph, 5.0) == []

    def test_hand_built_three_cycle_traced(self):
        # seed edge 0->1 (-5), extension 1->2 (+2), closure 2->0 (+1)
        inf = math.inf
        weights = [
            [inf, -5.0, inf],
            [inf, inf, 2.0],
            [1.0, inf, inf],
        ]
        graph = _fake_graph(weights, [0, 1, 2])
        leagues = fga_candidates(graph, 5.0)
        assert leagues
        league = leagues[0]
        assert league.cycle == [0, 1, 2]
        assert league.predicted_delta_w == pytest.approx(-2.0)

    def test_returned_league_is_negative_and_differ_group(self):
        for scenario, gains, grouping, _sol in feasible_instances(4, 12, 3, 2, start_seed=40):
            for m in range(2):
                graph = build_graph(gains, scenario, grouping, m)
                for league in fga_candidates(graph, 5.0):
                    assert league.predicted_delta_w < 0
                    assert len(set(league.groups)) == len(league.groups)

    def test_alpha_validation(self):
        graph = _fake_graph([[math.inf]], [0])
        for alpha in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and > 0"):
                fga_candidates(graph, alpha)


def _candidate_bits(leagues):
    return [(lg.cycle, lg.groups, float(lg.predicted_delta_w).hex()) for lg in leagues]


def _assert_fga_matches_reference(graph, alpha):
    assert _candidate_bits(fga_candidates(graph, alpha)) == _candidate_bits(
        fga_candidates_reference(graph, alpha)
    )


def _game_instances():
    """Two screened N = 16, G = 4, M = 3 instances (feasible starts)."""
    return [case[:2] for case in feasible_instances(2, 16, 4, 3, start_seed=500)]


class TestFgaMatchesScalarRestarts:
    """The batched restarts give the scalar loop's candidates bit for bit."""

    def test_random_integer_weights_with_ties(self):
        rng = np.random.default_rng(71)
        for _ in range(200):
            v = int(rng.integers(2, 13))
            num_groups = int(rng.integers(1, 6))
            groups = [int(g) for g in rng.integers(0, num_groups, v)]
            weights = rng.integers(-4, 5, (v, v)).astype(float)
            alpha = float(rng.choice([0.1, 0.5, 1.0, 5.0]))
            _assert_fga_matches_reference(_fake_graph(weights, groups), alpha)

    def test_inf_entries(self):
        rng = np.random.default_rng(72)
        for _ in range(200):
            v = int(rng.integers(2, 13))
            num_groups = int(rng.integers(2, 6))
            groups = [int(g) for g in rng.integers(0, num_groups, v)]
            weights = rng.integers(-4, 5, (v, v)).astype(float)
            weights[rng.random((v, v)) < 0.5] = math.inf
            for i in range(v):
                for j in range(v):
                    if groups[i] == groups[j]:
                        weights[i, j] = math.inf
            _assert_fga_matches_reference(_fake_graph(weights, groups), 5.0)

    def test_edge_cases(self):
        inf = math.inf
        few_edges = [[inf, -1.0, inf], [2.0, inf, inf], [inf, 0.5, inf]]
        # 30 restarts for 3 finite edges
        _assert_fga_matches_reference(_fake_graph(few_edges, [0, 1, 2]), 10.0)
        all_inf = np.full((4, 4), inf)
        assert fga_candidates(_fake_graph(all_inf, [0, 1, 0, 1]), 5.0) == []
        _assert_fga_matches_reference(_fake_graph(all_inf, [0, 1, 0, 1]), 5.0)
        one_group = [[inf, -2.0, 1.0], [-1.0, inf, 3.0], [0.5, -4.0, inf]]
        _assert_fga_matches_reference(_fake_graph(one_group, [0, 0, 0]), 5.0)
        assert fga_candidates(_fake_graph(one_group, [0, 0, 0]), 5.0)

    def test_every_game_graph(self, monkeypatch):
        built = record_game_graphs(monkeypatch)
        for scenario, gains in _game_instances():
            run_game(gains, scenario, finder="fga")
        assert len(built) > 6
        found_any = False
        for _grouping, _bs, graph in built:
            _assert_fga_matches_reference(graph, DEFAULT_ALPHA)
            found_any |= bool(fga_candidates(graph, DEFAULT_ALPHA))
        assert found_any


def _record_channel_solves(monkeypatch):
    """Record (channel, per-BS member tuples) of every system graph.py solves, on either path."""
    solves = []
    scalar = graph_module.solve_one_channel
    batch = graph_module.solve_channel_batch

    def recording_scalar(gain_lists, channel, members_by_bs, *args, **kwargs):
        solves.append((channel, tuple(map(tuple, members_by_bs))))
        return scalar(gain_lists, channel, members_by_bs, *args, **kwargs)

    def recording_batch(gain, channels, members, *args):
        for channel, rows in zip(channels, np.asarray(members).tolist()):
            solves.append((channel, tuple(tuple(n for n in row if n >= 0) for row in rows)))
        return batch(gain, channels, members, *args)

    monkeypatch.setattr(graph_module, "solve_one_channel", recording_scalar)
    monkeypatch.setattr(graph_module, "solve_channel_batch", recording_batch)
    return solves


def _solve_paths(monkeypatch):
    """Send every memo miss to solve_one_channel, then every one to solve_channel_batch."""
    for path, threshold in (("scalar", math.inf), ("batch", 1)):
        monkeypatch.setattr(graph_module, "BATCH_MIN_MISSES", threshold)
        yield path


class TestColumnReuse:
    @pytest.mark.parametrize("finder", ["fga", "eba"])
    def test_game_graphs_equal_fresh_builds(self, monkeypatch, finder):
        built = record_game_graphs(monkeypatch)
        solves = _record_channel_solves(monkeypatch)
        lookups = [0]
        lookup = LeagueGraph._lookup

        def counting_lookup(graph, keys):
            lookups[0] += len(keys)
            return lookup(graph, keys)

        monkeypatch.setattr(LeagueGraph, "_lookup", counting_lookup)
        adjacencies = {}
        for path in _solve_paths(monkeypatch):
            adjacencies[path] = []
            for scenario, gains in _game_instances():
                del built[:], solves[:]
                lookups[0] = 0
                _grouping, _solution, trace = run_game(gains, scenario, finder=finder)
                assert trace.iterations
                assert trace.memo_hits + trace.memo_solves == lookups[0]
                assert trace.memo_solves == len(solves)
                assert trace.memo_batch_solves == (trace.memo_solves if path == "batch" else 0)
                assert trace.memo_hits > 0
                for grouping, bs, graph in built:
                    fresh = LeagueGraph(gains, scenario, grouping, bs)
                    assert graph.full_adjacency().tobytes() == fresh.full_adjacency().tobytes()
                    adjacencies[path].append(graph.full_adjacency().tobytes())
        # both paths make the same game, graph for graph
        assert adjacencies["batch"] == adjacencies["scalar"]

    def test_no_membership_solved_twice_in_a_game(self, monkeypatch):
        # Memberships recur across a game's builds: every league's new
        # memberships are edges of the graph that proposed it.
        solves = _record_channel_solves(monkeypatch)
        scenario, gains = _game_instances()[0]
        for path in _solve_paths(monkeypatch):
            for finder in ("fga", "eba"):
                del solves[:]
                run_game(gains, scenario, finder=finder)
                assert solves
                assert len(set(solves)) == len(solves), (path, finder)

    def test_unchanged_rebuild_solves_nothing(self, monkeypatch):
        scenario, gains = _game_instances()[0]
        grouping = initial_grouping(gains, scenario)
        solves = _record_channel_solves(monkeypatch)
        for _path in _solve_paths(monkeypatch):
            memo = ChannelTotals()
            first = [build_graph(gains, scenario, grouping, m, memo) for m in range(3)]
            for graph in first:
                graph.full_adjacency()
            memo_solves, memo_hits = memo.solves, memo.hits
            del solves[:]
            for m in range(3):
                again = build_graph(gains, scenario, grouping, m, memo)
                assert again.full_adjacency().tobytes() == first[m].full_adjacency().tobytes()
            assert solves == []
            assert memo.solves == memo_solves and memo.hits > memo_hits

    def test_rebuild_after_league_solves_touched_subchannels_only(self, monkeypatch):
        scenario, gains = _game_instances()[0]
        grouping = initial_grouping(gains, scenario)
        solves = _record_channel_solves(monkeypatch)
        for _path in _solve_paths(monkeypatch):
            memo = ChannelTotals()
            graphs = [build_graph(gains, scenario, grouping, m, memo) for m in range(3)]
            for graph in graphs:
                graph.full_adjacency()
            # a league that leaves some subchannel untouched
            league = next(
                lg
                for graph in graphs
                for lg in fga_candidates(graph, DEFAULT_ALPHA)
                if len(lg.groups) < scenario.config.num_channels
            )
            touched = set(league.groups)
            moved = apply_league(grouping, league)
            for m in range(3):
                del solves[:]
                memo_solves = memo.solves
                graph = build_graph(gains, scenario, moved, m, memo)
                # the league's own edges already met every new membership
                assert solves == []
                adjacency = graph.full_adjacency()
                assert solves and {h for h, _members in solves} <= touched
                assert memo.solves - memo_solves == len(solves)
                fresh = LeagueGraph(gains, scenario, moved, m)
                assert adjacency.tobytes() == fresh.full_adjacency().tobytes()


class TestApplyLeague:
    def test_two_real_users_swap(self):
        scenario, gains = make_instance(8, 2, 1, seed=8)
        grouping = initial_grouping(gains, scenario)
        users = scenario.users_of_bs(0)
        a = users[0]
        b = next(u for u in users if grouping.channel_of[u] != grouping.channel_of[a])
        ga, gb = int(grouping.channel_of[a]), int(grouping.channel_of[b])
        league = League(cycle=[a, b], predicted_delta_w=-1.0, groups=(ga, gb))
        assert league.kind == "exchange"
        assert league.moves == [(a, gb), (b, ga)]
        new = apply_league(grouping, league)
        assert int(new.channel_of[a]) == gb
        assert int(new.channel_of[b]) == ga

    def test_shift_via_virtual(self):
        scenario, gains = make_instance(8, 3, 1, seed=9)
        grouping = initial_grouping(gains, scenario)
        n = scenario.users_of_bs(0)[0]
        gn = int(grouping.channel_of[n])
        target = (gn + 1) % 3
        league = League(
            cycle=[n, VirtualUser(target)],
            predicted_delta_w=-1.0,
            groups=(gn, target),
        )
        assert league.kind == "shift"
        assert league.moves == [(n, target)]
        new = apply_league(grouping, league)
        assert int(new.channel_of[n]) == target
        moved = np.flatnonzero(new.channel_of != grouping.channel_of)
        assert list(moved) == [n]

    def test_stale_league_rejected(self):
        scenario, gains = make_instance(8, 2, 1, seed=10)
        grouping = initial_grouping(gains, scenario)
        n = scenario.users_of_bs(0)[0]
        gn = int(grouping.channel_of[n])
        league = League(
            cycle=[n, VirtualUser(1 - gn)],
            predicted_delta_w=-1.0,
            groups=(gn, 1 - gn),
        )
        moved = grouping.with_moves([(n, 1 - gn)])
        with pytest.raises(StaleLeagueError):
            apply_league(moved, league)

    def test_rejects_mixed_bs_and_repeated_groups(self):
        scenario, gains = make_instance(8, 3, 2, seed=4)
        grouping = initial_grouping(gains, scenario)
        ch = grouping.channel_of
        own = scenario.users_of_bs(0)[0]
        foreign = next(u for u in scenario.users_of_bs(1) if ch[u] != ch[own])
        g_own, g_foreign = int(ch[own]), int(ch[foreign])
        mixed = League(cycle=[own, foreign], predicted_delta_w=-1.0, groups=(g_own, g_foreign))
        with pytest.raises(ValueError, match="several BSs"):
            apply_league(grouping, mixed)
        # a repeated group moves a user onto its own group, or twice
        for cycle in ([own, VirtualUser(g_own)], [own, own]):
            league = League(cycle=cycle, predicted_delta_w=-1.0, groups=(g_own, g_own))
            with pytest.raises(ValueError, match="distinct groups"):
                apply_league(grouping, league)
        # fewer than two nodes: an empty move, or a user staying put
        for cycle, groups in (([], ()), ([own], (g_own,))):
            league = League(cycle=cycle, predicted_delta_w=-1.0, groups=groups)
            with pytest.raises(ValueError, match="distinct groups"):
                apply_league(grouping, league)

    def test_applied_league_delta_matches_prediction_single_cell(self):
        for scenario, gains, grouping, base in feasible_instances(4, 10, 3, 1, start_seed=50):
            graph = build_graph(gains, scenario, grouping, 0)
            leagues = fga_candidates(graph, 5.0)
            if not leagues:
                continue
            league = leagues[0]
            new = apply_league(grouping, league)
            after = solve_all_powers(gains, new, scenario)
            actual = total_power_or_inf(after) - total_power_or_inf(base)
            assert_close(actual, league.predicted_delta_w, rel=1e-6)
            assert actual < 0
