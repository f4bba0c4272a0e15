import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    adjacency_keys_reference,
    assert_close,
    feasible_instances,
    fga_candidates_reference,
    find_negative_loop_eba_reference,
    make_instance,
    memo_key,
    memo_key_mask,
    record_game_graphs,
)
from noma_grouping import (
    Grouping,
    StaleLeagueError,
    VirtualUser,
    apply_league,
    fga_candidates,
    find_negative_loop_eba,
    initial_grouping,
    run_game,
    solve_all_powers,
)
from noma_grouping import game as game_module
from noma_grouping import graph as graph_module
from noma_grouping.game import DEFAULT_ALPHA
from noma_grouping.graph import ChannelTotals, EbaBudgetExhausted, League, LeagueGraph, is_improvement
from noma_grouping.power import solve_one_channel, total_power

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
        graph = LeagueGraph(ChannelTotals(gains, scenario), grouping, 0)
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
        delta = _edge(LeagueGraph(ChannelTotals(gains, scenario), grouping, 0), n, VirtualUser(2))
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
            graph = LeagueGraph(ChannelTotals(gains, scenario), grouping, 0)
            forward = _edge(graph, a, b)
            backward = _edge(graph, b, a)
            swapped = grouping.with_moves(
                [(a, int(grouping.channel_of[b])), (b, int(grouping.channel_of[a]))]
            )
            after = solve_all_powers(gains, swapped, scenario)
            actual = total_power(after) - total_power(base)
            assert_close(forward + backward, actual)

    def test_same_group_rejected(self):
        scenario, gains = make_instance(6, 2, 1, seed=3)
        grouping = Grouping(channel_of=np.zeros(6, dtype=int), bs_of=scenario.association.copy())
        graph = LeagueGraph(ChannelTotals(gains, scenario), grouping, 0)
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
    num_bs, num_ch = scenario.config.num_bs, scenario.config.num_channels
    lists, sigma2 = gains.as_lists(), scenario.noise_power_w
    pow2r = np.exp2(scenario.spectral_rates()).tolist()
    before = solve_one_channel(lists, h, grouping.members_by_channel(num_ch, num_bs)[h], pow2r, sigma2)
    if not before.feasible:
        return math.inf
    after = solve_one_channel(lists, h, moved.members_by_channel(num_ch, num_bs)[h], pow2r, sigma2)
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
            (scenario, gains, grouping, LeagueGraph(ChannelTotals(gains, scenario), grouping, m))
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
        members = wreck.members_by_channel(3, 2)[0]
        assert not solve_one_channel(gains.as_lists(), 0, members, pow2r, scenario.noise_power_w).feasible
        for m in range(2):
            graph = LeagueGraph(ChannelTotals(gains, scenario), wreck, m)
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
        graph = LeagueGraph(ChannelTotals(gains, scenario), grouping, 0)
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
        graph = LeagueGraph(ChannelTotals(gains, scenario), grouping, 1)
        virtuals = [x for x in graph.nodes if isinstance(x, VirtualUser)]
        assert len(virtuals) == 3
        assert sorted(v.channel for v in virtuals) == [0, 1, 2]

    def test_grouping_that_does_not_fit_rejected(self):
        scenario, gains = make_instance(12, 3, 2, seed=1)
        grouping = initial_grouping(gains, scenario)
        user = scenario.users_of_bs(0)[0]
        bs_of = grouping.bs_of.copy()
        bs_of[user] = 1
        memo = ChannelTotals(gains, scenario)
        # every reader of a whole grouping checks it before any lookup
        for read in (lambda g: LeagueGraph(memo, g, 0), memo.keys, memo.total_w):
            for channel in (-1, 3):
                with pytest.raises(ValueError, match="subchannel outside"):
                    read(grouping.with_moves([(user, channel)]))
            with pytest.raises(ValueError, match="association"):
                read(Grouping(grouping.channel_of, bs_of))
        for bs in (2, -1, 7):
            with pytest.raises(ValueError, match=r"BS -?\d+ is outside \[0, 2\)"):
                LeagueGraph(memo, grouping, bs)
        assert memo.totals == {} and memo.hits == 0

    def test_memo_keys_and_total_of_a_grouping(self):
        for scenario, gains, grouping, solution in feasible_instances(2, 12, 3, 2, start_seed=60):
            memo = ChannelTotals(gains, scenario)
            keys = memo.keys(grouping)
            assert [memo_key_mask(key)[0] for key in keys] == [0, 1, 2] and memo.totals == {}
            for h, key in enumerate(keys):
                assert key == memo_key(h, sum(1 << int(n) for n in np.flatnonzero(grouping.channel_of == h)), 12)
            total = memo.total_w(grouping)
            assert total == math.fsum(memo.totals[key] for key in keys)
            assert total == pytest.approx(total_power(solution), rel=1e-12)
            assert (memo.solves, memo.hits) == (3, 0)
            assert memo.total_w(grouping) == total and memo.hits == 3


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


def _eba_outcome(finder, graph):
    """(cycle, groups, delta hex) of an eba search's league, None or "exhausted"; and its budget count."""
    try:
        league = finder(graph)
    except EbaBudgetExhausted:
        found = "exhausted"
    else:
        found = None if league is None else _candidate_bits([league])[0]
    return found, graph.eba_relaxations


def _assert_eba_matches_reference(graph):
    outcome = _eba_outcome(find_negative_loop_eba, graph)
    assert outcome == _eba_outcome(find_negative_loop_eba_reference, graph)
    return outcome


def _random_tie_graph(rng, max_nodes=14, max_groups=7, lowest=-3):
    """Integer weights from lowest to 5 (many ties), about 30% inf entries, groups possibly empty."""
    v = int(rng.integers(1, max_nodes))
    num_groups = int(rng.integers(1, max_groups))
    groups = [int(g) for g in rng.integers(0, num_groups, v)]
    weights = rng.integers(lowest, 6, (v, v)).astype(float)
    weights[rng.random((v, v)) < 0.3] = math.inf
    return _fake_graph(weights, groups)


def _walk_budgets(monkeypatch, graph):
    """Compare both searches at every budget boundary of the graph; return the outcomes.

    From budget 0, each exhausted search reports the cumulative count U of
    its last pair; the walk checks U - 1 (the same last pair) and U (the
    strict > lets that pair pass) and goes on from U until a search ends
    within its budget.
    """
    outcomes = []
    budget = 0
    while True:
        monkeypatch.setattr(graph_module, "EBA_DEFAULT_BUDGET", budget)
        outcome = _assert_eba_matches_reference(graph)
        outcomes.append(outcome)
        used = outcome[1]
        if used <= budget:
            return outcomes
        monkeypatch.setattr(graph_module, "EBA_DEFAULT_BUDGET", used - 1)
        assert _assert_eba_matches_reference(graph)[1] == used
        budget = used


def _deep_cycle_graph(closing_weight):
    """Five nodes, one per group; the cycle 0 -> 1 -> 2 -> 3 -> 4 -> 0 has four
    edges of -1 and a closing edge of the given weight, all other edges +10.

    Every other cycle takes a +10 edge and at most three edges of the
    five-cycle, so for closing weights above -3 the five-cycle is the only
    one that can be negative, and it is when closing_weight < 4. Each pair
    costs 5 * 5 * 1 = 25 budget units: levels 2, 3, 4 and 5 have 20, 30, 20
    and 5 pairs, 1,875 units in all, 1,750 before level 5. The first level-5
    pair (state {0, 1, 2, 3}, group 4) writes the cycle's path.
    """
    weights = np.full((5, 5), 10.0)
    np.fill_diagonal(weights, math.inf)
    for node in range(4):
        weights[node, node + 1] = -1.0
    weights[4, 0] = closing_weight
    return _fake_graph(weights, [0, 1, 2, 3, 4])


class TestEbaMatchesReference:
    """One array sweep per level gives the pair-at-a-time DP's result bit for bit."""

    def test_every_game_graph(self, monkeypatch):
        built = record_game_graphs(monkeypatch)
        for scenario, gains in _game_instances():
            run_game(gains, scenario, finder="eba")
        assert len(built) > 6
        found = [_assert_eba_matches_reference(graph)[0] for _grouping, _bs, graph in built]
        assert None in found and any(isinstance(f, tuple) for f in found)

    def test_pinned_game(self, monkeypatch):
        # every pinned benchmark game, at full scale
        with open(SEEDS_FILE) as fh:
            sizes = [num_users for num_users, _seed in json.load(fh)["game"]]
        assert sizes == [50, 55, 60, 65]
        for num_users in sizes:
            scenario, gains = _pinned_game(num_users)
            with monkeypatch.context() as patch:
                built = record_game_graphs(patch)
                _grouping, solution, trace = run_game(gains, scenario, finder="eba")
            outcomes = [_assert_eba_matches_reference(graph) for _grouping, _bs, graph in built]
            assert "exhausted" in [found for found, _used in outcomes]
            assert trace.eba_relaxations == sum(used for _found, used in outcomes)

            with monkeypatch.context() as patch:
                patch.setattr(game_module, "find_negative_loop_eba", find_negative_loop_eba_reference)
                _grouping, ref_solution, ref_trace = run_game(gains, scenario, finder="eba")
            assert ref_trace.eba_relaxations == trace.eba_relaxations
            assert ref_trace.eba_budget_exhaustions == trace.eba_budget_exhaustions
            assert [(s.bs, _candidate_bits([s.action])) for s in ref_trace.iterations] == [
                (s.bs, _candidate_bits([s.action])) for s in trace.iterations
            ]
            assert total_power(ref_solution).hex() == total_power(solution).hex()

    def test_random_integer_weights_with_ties_and_inf(self):
        rng = np.random.default_rng(81)
        found = [_assert_eba_matches_reference(_random_tie_graph(rng))[0] for _ in range(400)]
        assert found.count(None) > 50 and sum(isinstance(f, tuple) for f in found) > 100

    def test_twin_nodes_tie_every_mid(self):
        # Each node has a twin in its group with the same edges, and no
        # 2-cycle is negative, so every league's path has tied mids.
        rng = np.random.default_rng(83)
        found = []
        for _ in range(200):
            v = int(rng.integers(1, 8))
            groups = rng.integers(0, int(rng.integers(1, 6)), v)
            weights = rng.integers(-3, 6, (v, v)).astype(float)
            weights[rng.random((v, v)) < 0.3] = math.inf
            weights = np.maximum(weights, -weights.T)
            twins = np.repeat(np.arange(v), 2)
            graph = _fake_graph(weights[np.ix_(twins, twins)], groups[twins].tolist())
            found.append(_assert_eba_matches_reference(graph)[0])
        assert sum(isinstance(f, tuple) for f in found) > 20

    def test_high_group_bits(self):
        # 57 one-node groups, the most whose (subset, start) keys fit in
        # int64; the only negative cycle is 0 -> 56 -> 0, in subset 2^56 + 1
        weights = np.full((57, 57), 1.0)
        weights[0, 56] = -3.0
        graph = _fake_graph(weights, list(range(57)))
        found, _used = _assert_eba_matches_reference(graph)
        assert found == ([0, 56], (0, 56), (-2.0).hex())

    def test_keys_that_overflow_int64_rejected(self):
        # 64 one-node groups: int64 subset masks would wrap at group 63
        weights = np.full((64, 64), 1.0)
        weights[0, 63] = -3.0
        graph = _fake_graph(weights, list(range(64)))
        with pytest.raises(ValueError, match="overflow int64"):
            find_negative_loop_eba(graph)
        # keys run from 0 to V * 2^G - 1, so V * 2^G = 2^63 still fits
        graph_module.check_eba_keys(64, 57)
        graph_module.check_eba_keys(1, 63)
        for num_nodes, num_groups in ((65, 57), (2, 63), (1, 64)):
            with pytest.raises(ValueError, match=f"{num_nodes} nodes in {num_groups} groups"):
                graph_module.check_eba_keys(num_nodes, num_groups)

    def test_edge_cases(self):
        inf = math.inf
        one_group = _fake_graph([[inf, -2.0, 1.0], [-1.0, inf, 3.0], [0.5, -4.0, inf]], [0, 0, 0])
        all_inf = _fake_graph(np.full((4, 4), inf), [0, 1, 0, 1])
        for graph in (one_group, all_inf):
            assert _assert_eba_matches_reference(graph)[0] is None

    def test_budget_boundaries(self, monkeypatch):
        # first pair, mid-level, exactly at and one below every cumulative
        # count, and never
        rng = np.random.default_rng(82)
        outcomes = _walk_budgets(monkeypatch, _deep_cycle_graph(-1.0))
        for _ in range(12):
            graph = _random_tie_graph(rng, max_nodes=10, max_groups=6, lowest=-1)
            outcomes += _walk_budgets(monkeypatch, graph)
        found = [f for f, _used in outcomes]
        assert found.count("exhausted") > 100 and None in found and any(isinstance(f, tuple) for f in found)

    @pytest.mark.parametrize("planted", [(0, 1), (8, 9)], ids=["relaxed-two-cycle", "cut-two-cycle"])
    def test_level_two_cut_by_the_default_budget(self, planted):
        # 60 nodes in 10 groups cost V^3 (G - 1) = 1.94e6 units at level 2,
        # so EBA_DEFAULT_BUDGET stops inside it. The negative 2-cycle
        # between groups 0 and 1 is among the relaxed pairs; the one between
        # groups 8 and 9 is not.
        rng = np.random.default_rng(84)
        groups = rng.integers(0, 10, 60)
        assert np.unique(groups).size == 10
        weights = rng.uniform(0.5, 2.0, (60, 60))
        a, b = (int(np.flatnonzero(groups == g)[0]) for g in planted)
        weights[a, b], weights[b, a] = -2.0, 1.0
        found, used = _assert_eba_matches_reference(_fake_graph(weights, groups.tolist()))
        assert graph_module.EBA_DEFAULT_BUDGET < used < 60 ** 3 * 9
        if planted == (0, 1):
            assert found == (sorted([a, b]), tuple(groups[sorted([a, b])].tolist()), (-1.0).hex())
        else:
            assert found == "exhausted"


class TestEbaBudget:
    def test_deep_cycle_needs_the_budget(self, monkeypatch):
        graph = _deep_cycle_graph(-1.0)
        monkeypatch.setattr(graph_module, "EBA_DEFAULT_BUDGET", 1749)
        with pytest.raises(EbaBudgetExhausted):
            find_negative_loop_eba(graph)
        assert graph.eba_relaxations == 1750
        for budget, used in ((1750, 1775), (10 ** 6, 1875)):
            monkeypatch.setattr(graph_module, "EBA_DEFAULT_BUDGET", budget)
            league = find_negative_loop_eba(graph)
            assert league.cycle == [0, 1, 2, 3, 4]
            assert league.predicted_delta_w == -5.0
            assert graph.eba_relaxations == used

    def test_none_is_a_proof_only_within_budget(self, monkeypatch):
        graph = _deep_cycle_graph(5.0)
        monkeypatch.setattr(graph_module, "EBA_DEFAULT_BUDGET", 1874)
        with pytest.raises(EbaBudgetExhausted):
            find_negative_loop_eba(graph)
        monkeypatch.setattr(graph_module, "EBA_DEFAULT_BUDGET", 1875)
        assert find_negative_loop_eba(graph) is None
        assert graph.eba_relaxations == 1875

    def test_game_falls_back_to_greedy_and_descends(self, monkeypatch):
        scenario, gains = _game_instances()[0]
        _grouping, _solution, full = run_game(gains, scenario, finder="eba")
        assert full.eba_budget_exhaustions == 0

        fallbacks = []
        greedy = game_module.fga_candidates

        def recording_greedy(graph, alpha):
            leagues = greedy(graph, alpha)
            fallbacks.extend(leagues[:1])
            return leagues

        monkeypatch.setattr(game_module, "fga_candidates", recording_greedy)
        monkeypatch.setattr(graph_module, "EBA_DEFAULT_BUDGET", 500)
        _grouping, solution, trace = run_game(gains, scenario, finder="eba")
        assert trace.eba_budget_exhaustions > 0
        assert trace.eba_relaxations < full.eba_relaxations
        assert any(any(step.action is league for league in fallbacks) for step in trace.iterations)
        assert trace.converged
        powers = [trace.iterations[0].total_power_before_w]
        for step in trace.iterations:
            assert step.total_power_before_w == powers[-1]
            assert is_improvement(step.total_power_after_w - step.total_power_before_w)
            powers.append(step.total_power_after_w)
        assert total_power(solution) == powers[-1]


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
                graph = LeagueGraph(ChannelTotals(gains, scenario), grouping, m)
                leagues = fga_candidates(graph, 5.0)
                assert len(leagues) <= 1
                for league in leagues:
                    assert league.predicted_delta_w < 0
                    assert len(set(league.groups)) == len(league.groups)

    def test_huge_alpha_takes_every_seed(self):
        # alpha * (real + groups) overflows to inf; the restarts stop at the V * V seed edges.
        scenario, gains = _pinned_game(50)
        graph = LeagueGraph(ChannelTotals(gains, scenario), initial_grouping(gains, scenario), 0)
        v = graph.num_nodes
        leagues = fga_candidates(graph, 1e308)
        assert leagues
        assert _candidate_bits(leagues) == _candidate_bits(fga_candidates(graph, float(v * v)))

    def test_alpha_validation(self):
        graph = _fake_graph([[math.inf]], [0])
        for alpha in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and > 0"):
                fga_candidates(graph, alpha)


def _candidate_bits(leagues):
    return [(lg.cycle, lg.groups, float(lg.predicted_delta_w).hex()) for lg in leagues]


def _assert_fga_matches_reference(graph, alpha):
    assert _candidate_bits(fga_candidates(graph, alpha)) == _candidate_bits(
        fga_candidates_reference(graph, alpha)[:1]
    )


def _game_instances():
    """Two screened N = 16, G = 4, M = 3 instances (feasible starts)."""
    return [case[:2] for case in feasible_instances(2, 16, 4, 3, start_seed=500)]


class TestFgaMatchesScalarRestarts:
    """The batched restarts give the scalar loop's best candidate bit for bit."""

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
        lookup = ChannelTotals.lookup

        def counting_lookup(memo, grouping, keys, *moves):
            lookups[0] += len(keys)
            return lookup(memo, grouping, keys, *moves)

        monkeypatch.setattr(ChannelTotals, "lookup", counting_lookup)
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
                    fresh = LeagueGraph(ChannelTotals(gains, scenario), grouping, bs)
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
            memo = ChannelTotals(gains, scenario)
            first = [LeagueGraph(memo, grouping, m) for m in range(3)]
            for graph in first:
                graph.full_adjacency()
            memo_solves, memo_hits = memo.solves, memo.hits
            del solves[:]
            for m in range(3):
                again = LeagueGraph(memo, grouping, m)
                assert again.full_adjacency().tobytes() == first[m].full_adjacency().tobytes()
            assert solves == []
            assert memo.solves == memo_solves and memo.hits > memo_hits

    def test_rebuild_after_league_solves_touched_subchannels_only(self, monkeypatch):
        scenario, gains = _game_instances()[0]
        grouping = initial_grouping(gains, scenario)
        solves = _record_channel_solves(monkeypatch)
        for _path in _solve_paths(monkeypatch):
            memo = ChannelTotals(gains, scenario)
            graphs = [LeagueGraph(memo, grouping, m) for m in range(3)]
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
                graph = LeagueGraph(memo, moved, m)
                # the league's own edges already met every new membership
                assert solves == []
                adjacency = graph.full_adjacency()
                assert solves and {h for h, _members in solves} <= touched
                assert memo.solves - memo_solves == len(solves)
                fresh = LeagueGraph(ChannelTotals(gains, scenario), moved, m)
                assert adjacency.tobytes() == fresh.full_adjacency().tobytes()


def _pack_reference(bs_of, num_bs, masks):
    """Per-row decode of membership masks (oracle for ChannelTotals._members).

    Row [k, m] holds BS m's users among the set bits of masks[k], found bit
    by bit in ascending order, padded with -1 to the longest such row.
    """
    bs_of = bs_of.tolist()
    systems = []
    for mask in masks:
        rows = [[] for _ in range(num_bs)]
        n = 0
        while mask >> n:
            if mask >> n & 1:
                rows[bs_of[n]].append(n)
            n += 1
        systems.append(rows)
    width = max(len(row) for rows in systems for row in rows)
    return np.array(
        [[row + [-1] * (width - len(row)) for row in rows] for rows in systems], dtype=np.int64
    ).reshape(len(masks), num_bs, width)


def _assert_members_match_their_keys(memo, grouping, channels, leavers, joiners, members):
    """members, packed from the grouping and the moves, equal the per-row decode of the entries' keys.

    Returns the keys.
    """
    keys = memo.moved_keys(memo.keys(grouping), channels, leavers, joiners)
    decoded = [memo_key_mask(key) for key in keys]
    assert [h for h, _mask in decoded] == np.asarray(channels).tolist()
    assert members.dtype == np.int64
    expected = _pack_reference(memo.scenario.association, memo.scenario.config.num_bs, [m for _h, m in decoded])
    assert np.array_equal(members, expected)
    return keys


class TestPack:
    """The members of memo misses, packed from the grouping and each entry's move,
    equal the per-row decode of the entries' keys."""

    @pytest.mark.parametrize("finder", ["fga", "eba"])
    def test_every_memo_miss_of_the_pinned_games(self, monkeypatch, finder):
        packs = []
        pack = ChannelTotals._members

        def recording_members(memo, grouping, channels, leavers, joiners):
            members = pack(memo, grouping, channels, leavers, joiners)
            packs.append((memo, grouping, channels, leavers, joiners, members))
            return members

        monkeypatch.setattr(ChannelTotals, "_members", recording_members)
        with open(SEEDS_FILE) as fh:
            pinned = json.load(fh)["game"]
        high_bit = moved = False
        for num_users, _seed in pinned:
            scenario, gains = _pinned_game(num_users)
            del packs[:]
            _grouping, _solution, trace = run_game(gains, scenario, finder=finder)
            # every miss is packed once: the build-time and full_adjacency lookups
            keys = []
            for memo, *entries in packs:
                keys += _assert_members_match_their_keys(memo, *entries)
                moved |= bool((np.asarray(entries[2]) >= 0).any() and (np.asarray(entries[3]) >= 0).any())
            assert len(keys) == trace.memo_solves == len(set(keys))
            assert set(keys) == set(packs[0][0].totals)
            high_bit |= any(memo_key_mask(key)[1] >> 64 for key in keys)
        assert high_bit  # user 64 of the N = 65 game
        assert moved  # entries with a leaver and a joiner

    def test_random_masks_up_to_130_users(self):
        # the masks of random entries (subchannel, leaver, joiner) of random groupings
        rng = np.random.default_rng(91)
        for num_users in (1, 7, 63, 64, 65, 66, 127, 128, 129, 130):
            scenario, gains = make_instance(num_users, 10, 4, seed=num_users)
            memo = ChannelTotals(gains, scenario)
            for share in rng.random(12):
                # a share of the users on subchannel 0, the others spread out
                channel_of = np.where(rng.random(num_users) < share, 0, rng.integers(0, 10, num_users))
                grouping = Grouping(channel_of, scenario.association)
                channels = rng.integers(0, 10, 40)
                leavers, joiners = [], []
                for h in channels:
                    on, off = np.flatnonzero(channel_of == h), np.flatnonzero(channel_of != h)
                    leavers.append(int(rng.choice(on)) if on.size and rng.random() < 0.7 else -1)
                    joiners.append(int(rng.choice(off)) if off.size and rng.random() < 0.7 else -1)
                leavers, joiners = np.array(leavers), np.array(joiners)
                members = memo._members(grouping, channels, leavers, joiners)
                _assert_members_match_their_keys(memo, grouping, channels, leavers, joiners, members)

    def test_empty_memberships_pack_to_width_zero_and_solve_as_scalar(self):
        scenario, gains = make_instance(12, 3, 2, seed=1)
        memo = ChannelTotals(gains, scenario)
        # user 0 alone on subchannel 1, everyone else on subchannel 0
        grouping = Grouping([1] + [0] * 11, scenario.association)
        channels, leavers, nobody = np.array([2, 1, 2, 1]), np.array([-1, 0, -1, 0]), np.full(4, -1)
        packed = memo._members(grouping, channels, leavers, nobody)
        _assert_members_match_their_keys(memo, grouping, channels, leavers, nobody, packed)
        assert packed.shape == (len(channels), 2, 0)
        pow2r = np.exp2(scenario.spectral_rates()).tolist()
        sigma2 = scenario.noise_power_w
        res = graph_module.solve_channel_batch(gains.gain, channels, packed, pow2r, sigma2)
        for k, channel in enumerate(channels.tolist()):
            one = solve_one_channel(gains.as_lists(), channel, [[], []], pow2r, sigma2)
            assert (one.feasible, one.iterations) == (True, 2)
            assert one.powers == [0.0, 0.0]
            assert bool(res.feasible[k]) and int(res.iterations[k]) == 2
            assert np.array(one.powers).tobytes() == res.powers[k].tobytes()


class TestEntryKeys:
    @pytest.mark.parametrize("num_users", [63, 64, 65, 130])
    def test_every_entry_key_matches_the_per_column_loops(self, monkeypatch, num_users):
        # Mask word boundaries; BS 0's users piled onto subchannel 0, which
        # then cannot be powered, so some columns are skipped.
        scenario, gains = make_instance(num_users, 10, 4, seed=num_users)
        grouping = initial_grouping(gains, scenario)
        grouping = grouping.with_moves([(n, 0) for n in scenario.users_of_bs(0)])
        memo = ChannelTotals(gains, scenario)
        totals = memo.lookup(grouping, memo.keys(grouping))
        assert totals[0] == math.inf and min(totals) < math.inf
        lookups = []
        lookup = ChannelTotals.lookup

        def recording_lookup(memo, grouping, keys, *moves):
            lookups.append(keys)
            return lookup(memo, grouping, keys, *moves)

        monkeypatch.setattr(ChannelTotals, "lookup", recording_lookup)
        high_bit = False
        for bs in range(4):
            graph = LeagueGraph(memo, grouping, bs)
            del lookups[:]
            graph.full_adjacency()
            expected = adjacency_keys_reference(graph, grouping, totals)
            # subchannel 0's columns, its virtual node's included, are skipped
            assert expected and all(h != 0 for h, _mask in expected)
            assert lookups == [[memo_key(h, mask, num_users) for h, mask in expected]]
            high_bit |= any(mask >> (64 * ((num_users - 1) // 64)) for _h, mask in expected)
        assert high_bit  # a user in the last mask word


class TestApplyLeague:
    @pytest.mark.parametrize("user", [-1, 3, 7])
    def test_user_outside_the_grouping_rejected(self, user):
        # -1 used to wrap around to user 2, and 7 to raise IndexError
        grouping = Grouping([0, 1, 2], [0, 0, 0])
        league = League(cycle=[user, VirtualUser(0)], predicted_delta_w=-1.0, groups=(2, 0))
        with pytest.raises(ValueError, match=rf"user {user} is outside \[0, 3\)"):
            apply_league(grouping, league)
        with pytest.raises(ValueError, match=rf"user {user} is outside \[0, 3\)"):
            grouping.with_moves([(user, 0)])
        assert grouping.channel_of.tolist() == [0, 1, 2]

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
        unsnapped = League(cycle=[own, VirtualUser(g_foreign)], predicted_delta_w=-1.0)
        with pytest.raises(ValueError, match="missing its group snapshot"):
            apply_league(grouping, unsnapped)

    def test_applied_league_delta_matches_prediction_single_cell(self):
        for scenario, gains, grouping, base in feasible_instances(4, 10, 3, 1, start_seed=50):
            graph = LeagueGraph(ChannelTotals(gains, scenario), grouping, 0)
            leagues = fga_candidates(graph, 5.0)
            if not leagues:
                continue
            league = leagues[0]
            new = apply_league(grouping, league)
            after = solve_all_powers(gains, new, scenario)
            actual = total_power(after) - total_power(base)
            assert_close(actual, league.predicted_delta_w, rel=1e-6)
            assert actual < 0
