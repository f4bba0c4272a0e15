import math

import numpy as np
import pytest

from conftest import assert_close, feasible_instances, make_instance
from noma_grouping import (
    Grouping,
    StaleLeagueError,
    VirtualUser,
    apply_league,
    build_graph,
    dump_adjacency_csv,
    find_negative_loop_eba,
    find_negative_loop_fga,
    initial_grouping,
    solve_all_powers,
)
from noma_grouping.graph import League, LeagueGraph, fga_candidates
from noma_grouping.power import total_power_or_inf


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
    return graph.weight(graph.nodes.index(n), graph.nodes.index(n_to))


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
            for i in range(v):
                for j in range(v):
                    if i == j or groups[i] == groups[j]:
                        weights[i, j] = math.inf
            graph = _fake_graph(weights.copy(), groups)

            # brute force: any directed cycle with pairwise distinct groups
            def exists_negative():
                nodes = range(v)

                def extend(path, used, cost):
                    last = path[-1]
                    if len(path) >= 2:
                        closing = weights[last, path[0]]
                        if math.isfinite(closing) and cost + closing < -1e-18:
                            return True
                    if len(path) == num_groups:
                        return False
                    for k in nodes:
                        if k <= path[0] or k in path or groups[k] in used:
                            continue
                        w = weights[last, k]
                        if not math.isfinite(w):
                            continue
                        if extend(path + [k], used | {groups[k]}, cost + w):
                            return True
                    return False

                return any(extend([s], {groups[s]}, 0.0) for s in nodes)

            league = find_negative_loop_eba(graph)
            assert (league is not None) == exists_negative()
            if league is not None:
                total = sum(
                    weights[idx_a, idx_b]
                    for idx_a, idx_b in zip(
                        [graph.nodes.index(x) for x in league.cycle],
                        [graph.nodes.index(x) for x in league.cycle[1:] + league.cycle[:1]],
                    )
                )
                assert_close(total, league.predicted_delta_w, rel=1e-12)


class TestFga:
    def test_all_positive_weights(self):
        weights = [
            [math.inf, 1.0, 2.0],
            [1.5, math.inf, 0.5],
            [2.5, 3.0, math.inf],
        ]
        graph = _fake_graph(weights, [0, 1, 2])
        assert find_negative_loop_fga(graph, 5.0) is None

    def test_hand_built_three_cycle_traced(self):
        # seed edge 0->1 (-5), extension 1->2 (+2), closure 2->0 (+1)
        inf = math.inf
        weights = [
            [inf, -5.0, inf],
            [inf, inf, 2.0],
            [1.0, inf, inf],
        ]
        graph = _fake_graph(weights, [0, 1, 2])
        league = find_negative_loop_fga(graph, 5.0)
        assert league is not None
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
        with pytest.raises(ValueError):
            find_negative_loop_fga(graph, 0.0)


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
        assert league.moves() == [(a, gb), (b, ga)]
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
        assert league.moves() == [(n, target)]
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

    def test_applied_league_delta_matches_prediction_single_cell(self):
        for scenario, gains, grouping, base in feasible_instances(4, 10, 3, 1, start_seed=50):
            graph = build_graph(gains, scenario, grouping, 0)
            league = find_negative_loop_fga(graph, 5.0)
            if league is None:
                continue
            new = apply_league(grouping, league)
            after = solve_all_powers(gains, new, scenario)
            actual = total_power_or_inf(after) - total_power_or_inf(base)
            assert_close(actual, league.predicted_delta_w, rel=1e-6)
            assert actual < 0
