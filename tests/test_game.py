import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_close, feasible_instances, make_instance, memo_key, record_game_graphs
from noma_grouping import (
    apply_league,
    default_config,
    draw_channel_gains,
    enumerate_leagues,
    generate_scenario,
    initial_grouping,
    is_improvement,
    is_nash_equilibrium,
    run_game,
    solve_all_powers,
)
from noma_grouping import game as game_module
from noma_grouping import graph as graph_module
from noma_grouping.graph import NEG_DELTA_FLOOR_W
from noma_grouping.power import total_power
from noma_grouping.scenario import ChannelGains

SEEDS_FILE = Path(__file__).resolve().parents[1] / "bench" / "seeds.json"


def _no_solve(*args, **kwargs):
    raise AssertionError("a channel was solved")


class TestInitialGrouping:
    def test_argmax_channel(self):
        gain = np.zeros((1, 3, 1))
        gain[0, :, 0] = [1e-12, 3e-12, 2e-12]
        scenario, _ = make_instance(1, 3, 1, seed=1)
        scenario.association = np.array([0])
        grouping = initial_grouping(ChannelGains(gain=gain), scenario)
        assert int(grouping.channel_of[0]) == 1

    def test_tie_breaks_to_lowest_channel(self):
        gain = np.full((1, 3, 1), 2e-12)
        scenario, _ = make_instance(1, 3, 1, seed=2)
        scenario.association = np.array([0])
        grouping = initial_grouping(ChannelGains(gain=gain), scenario)
        assert int(grouping.channel_of[0]) == 0

    def test_single_channel(self):
        scenario, gains = make_instance(9, 1, 2, seed=3)
        grouping = initial_grouping(gains, scenario)
        assert np.all(grouping.channel_of == 0)

    @pytest.mark.parametrize("num_users", [10, 14])
    def test_gain_table_of_another_shape_rejected(self, num_users):
        # at 10 users this raised IndexError; at 14 it read users 12 and 13
        scenario, gains = make_instance(12, 3, 2, seed=1)
        table = np.concatenate([gains.gain, gains.gain], axis=2)[:, :, :num_users]
        with pytest.raises(ValueError, match=f"shape \\(2, 3, {num_users}\\), the scenario \\(2, 3, 12\\)"):
            initial_grouping(ChannelGains(gain=table), scenario)


class TestAcceptanceRule:
    def test_rule_cases(self):
        # deltas as run_game forms them from total_power values
        feasible, infeasible = 1e-3, math.inf
        assert is_improvement(feasible - infeasible)  # repair: -inf
        assert not is_improvement(infeasible - feasible)  # +inf
        assert not is_improvement(infeasible - infeasible)  # NaN
        assert not is_improvement(feasible - feasible)  # equal total
        assert is_improvement(-2 * NEG_DELTA_FLOOR_W)
        assert not is_improvement(-NEG_DELTA_FLOOR_W)

    def test_repair_move_is_always_attractive(self):
        # wreck a feasible grouping by piling one BS's users onto one
        # channel; the moves restoring them must rate as -inf
        for scenario, gains, grouping, _sol in feasible_instances(4, 12, 3, 2, start_seed=15):
            users = scenario.users_of_bs(0)
            wreck = grouping.with_moves([(n, 0) for n in users])
            wrecked = solve_all_powers(gains, wreck, scenario)
            if wrecked.feasible:
                continue
            restored = solve_all_powers(gains, grouping, scenario)
            delta = total_power(restored) - total_power(wrecked)
            assert delta == -math.inf
            assert is_improvement(delta)
            return
        pytest.skip("no wreckable instance found in the scanned range")


class TestNashEquilibrium:
    def test_single_user_total(self):
        scenario, gains = make_instance(1, 2, 1, seed=5)
        grouping = initial_grouping(gains, scenario)
        assert is_nash_equilibrium(gains, scenario, grouping, 2)

    def test_planted_improvement_is_detected(self):
        # search instances until one has an improving league at the start
        found = False
        for seed in range(60):
            scenario, gains = make_instance(10, 3, 1, seed=seed)
            grouping = initial_grouping(gains, scenario)
            solution = solve_all_powers(gains, grouping, scenario)
            if not solution.feasible:
                continue
            leagues = enumerate_leagues(gains, scenario, grouping, 3)
            if leagues:
                found = True
                assert not is_nash_equilibrium(gains, scenario, grouping, 3)
                break
        assert found

    def test_eba_result_is_equilibrium(self):
        done = 0
        for scenario, gains, _grouping, _sol in feasible_instances(3, 9, 3, 2, start_seed=40):
            grouping, solution, trace = run_game(gains, scenario, finder="eba")
            assert trace.converged
            assert is_nash_equilibrium(gains, scenario, grouping, 3)
            done += 1
        assert done == 3


class TestRunGame:
    def test_no_moves_possible(self):
        # one user per BS and a single channel: nothing can move
        scenario, gains = make_instance(2, 1, 2, seed=6)
        grouping, solution, trace = run_game(gains, scenario, finder="fga")
        assert trace.iterations == []
        assert trace.converged == solution.feasible

    def test_trace_strictly_decreasing_and_finite(self):
        for scenario, gains, _grouping, _sol in feasible_instances(3, 14, 3, 2, start_seed=50):
            _g, solution, trace = run_game(gains, scenario, finder="fga", alpha=5.0)
            last = math.inf
            for step in trace.iterations:
                assert step.total_power_after_w < step.total_power_before_w
                assert step.total_power_before_w <= last * (1 + 1e-12)
                last = step.total_power_after_w
            assert trace.converged
            assert trace.final_total_power_w == pytest.approx(
                total_power(solution)
            )

    def test_no_grouping_repeats(self):
        for scenario, gains, grouping, _sol in feasible_instances(2, 14, 3, 2, start_seed=60):
            seen = {grouping.key()}
            current = grouping
            _g, _s, trace = run_game(gains, scenario, finder="fga", start_grouping=grouping)
            for step in trace.iterations:
                current = apply_league(current, step.action)
                key = current.key()
                assert key not in seen
                seen.add(key)

    def test_trace_totals_match_fresh_solves(self):
        for scenario, gains, grouping, solution in feasible_instances(2, 12, 3, 2, start_seed=70):
            current = grouping
            _g, _s, trace = run_game(gains, scenario, finder="fga", start_grouping=grouping)
            before = total_power(solution)
            for step in trace.iterations:
                assert_close(step.total_power_before_w, before)
                current = apply_league(current, step.action)
                after = total_power(solve_all_powers(gains, current, scenario))
                assert_close(step.total_power_after_w, after)
                before = after

    def test_resume_from_converged_state_is_stable(self):
        for scenario, gains, _grouping, _sol in feasible_instances(2, 10, 2, 2, start_seed=80):
            grouping, solution, trace = run_game(gains, scenario, finder="fga")
            again, solution2, trace2 = run_game(
                gains, scenario, finder="fga", start_grouping=grouping
            )
            assert trace2.iterations == []
            assert np.array_equal(again.channel_of, grouping.channel_of)

    def test_start_that_does_not_fit_rejected(self, small_multicell):
        scenario, gains = small_multicell
        start = initial_grouping(gains, scenario)
        with pytest.raises(ValueError, match="subchannel outside"):
            run_game(gains, scenario, start_grouping=start.with_moves([(0, 7)]))
        other_bs = start.bs_of.copy()
        other_bs[0] = 1 - other_bs[0]
        with pytest.raises(ValueError, match="association"):
            run_game(gains, scenario, start_grouping=type(start)(start.channel_of, other_bs))

    @pytest.mark.parametrize("num_users", [10, 14])
    def test_gain_table_of_another_shape_rejected_before_any_solve(self, monkeypatch, num_users):
        # at 10 users the solve used to raise IndexError; at 14 the game
        # returned a feasible result computed on the wrong gains
        scenario, gains = make_instance(12, 3, 2, seed=1)
        table = np.concatenate([gains.gain, gains.gain], axis=2)[:, :, :num_users]
        monkeypatch.setattr(graph_module, "solve_one_channel", _no_solve)
        monkeypatch.setattr(graph_module, "solve_channel_batch", _no_solve)
        with pytest.raises(ValueError, match=f"shape \\(2, 3, {num_users}\\), the scenario \\(2, 3, 12\\)"):
            run_game(ChannelGains(gain=table), scenario)

    def test_eba_keys_that_overflow_int64_rejected_before_any_solve(self, monkeypatch):
        # Each BS's league graph has its share of the 70 users plus 64 virtual nodes,
        # so its (subset, start) keys overflow int64. The game used to
        # solve the start grouping and raise only at its first search.
        config = default_config(num_users=70, num_channels=64, num_bs=2)
        scenario = generate_scenario(config, config.seed)
        gains = draw_channel_gains(scenario, 1)
        monkeypatch.setattr(graph_module, "solve_one_channel", _no_solve)
        monkeypatch.setattr(graph_module, "solve_channel_batch", _no_solve)
        monkeypatch.setattr(game_module, "solve_all_powers", _no_solve)
        with pytest.raises(ValueError, match="overflow int64"):
            run_game(gains, scenario, finder="eba")
        with pytest.raises(AssertionError, match="a channel was solved"):
            run_game(gains, scenario, finder="fga")  # the greedy finder has no such keys

    @pytest.mark.parametrize("finder", ["fga", "eba"])
    def test_a_rate_too_high_for_a_float_warns_nothing(self, finder):
        # 1e9 bit/s over 200 kHz: 2^r overflows to inf, and the start is infeasible
        scenario, gains = make_instance(12, 3, 2, seed=1, rate_range=(1e9, 1e9))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _final, solution, trace = run_game(gains, scenario, finder=finder)
        assert not solution.feasible and trace.iterations == []
        assert trace.final_total_power_w == math.inf

    def test_unknown_finder_rejected(self):
        scenario, gains = make_instance(4, 2, 1, seed=7)
        with pytest.raises(ValueError):
            run_game(gains, scenario, finder="magic")

    @pytest.mark.parametrize("instance", [(12, 3, 2, 1), (50, 10, 4, 90001)])
    def test_bad_alpha_rejected_before_any_search(self, monkeypatch, instance):
        # On the small instance no eba search exhausts its budget, so alpha
        # would never reach the greedy finder; on the pinned one it would.
        scenario, gains = make_instance(*instance)
        builds = []
        monkeypatch.setattr(game_module, "build_graph", lambda *args: builds.append(args))
        for finder in ("eba", "fga"):
            for alpha in (-1.0, 0.0, math.nan, math.inf):
                with pytest.raises(ValueError, match="finite and > 0"):
                    run_game(gains, scenario, finder=finder, alpha=alpha)
        assert builds == []

    def test_huge_alpha_runs(self):
        # alpha = N + G >= V already takes all V * V seed edges in every search.
        scenario, gains = make_instance(12, 3, 2, 1)
        final, _solution, trace = run_game(gains, scenario, finder="fga", alpha=1e308)
        capped, _solution, capped_trace = run_game(gains, scenario, finder="fga", alpha=15.0)
        assert trace.iterations == capped_trace.iterations
        assert final.key() == capped.key()

    def test_infeasible_start_without_repair(self):
        # hunt for an instance whose starting grouping cannot be powered
        found = False
        for seed in range(80):
            scenario, gains = make_instance(14, 2, 2, seed=seed)
            grouping = initial_grouping(gains, scenario)
            if solve_all_powers(gains, grouping, scenario).feasible:
                continue
            found = True
            # returned unchanged after 0 actions (see run_game)
            final, solution, trace = run_game(gains, scenario, finder="fga")
            assert trace.iterations == []
            assert np.array_equal(final.channel_of, grouping.channel_of)
            assert not solution.feasible
            assert not trace.converged
            assert trace.final_total_power_w == math.inf
            break
        assert found


def _count_end_solves(monkeypatch):
    """Patch run_game's solve_all_powers to count its calls."""
    calls = []
    solve = game_module.solve_all_powers

    def counting_solve(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(game_module, "solve_all_powers", counting_solve)
    return calls


class TestEndCheck:
    """Moves are re-validated from the memo; one solve_all_powers checks the end."""

    def test_one_solve_per_game(self, monkeypatch):
        calls = _count_end_solves(monkeypatch)
        scenario, gains, _grouping, solution = next(feasible_instances(1, 14, 3, 2, start_seed=50))
        for finder in ("fga", "eba"):
            del calls[:]
            final, end, trace = run_game(gains, scenario, finder=finder)
            assert trace.iterations and len(calls) == 1
            assert np.array_equal(calls[0][1].channel_of, final.channel_of)
            assert trace.final_total_power_w == total_power(end)
            assert trace.iterations[0].total_power_before_w == pytest.approx(total_power(solution), rel=1e-12)
            assert 0.0 <= trace.final_gap_rel <= 1e-12

    def test_one_solve_for_an_infeasible_start(self, monkeypatch):
        calls = _count_end_solves(monkeypatch)
        scenario, gains = make_instance(50, 10, 4, 200001)
        start = initial_grouping(gains, scenario)
        for finder in ("fga", "eba"):
            del calls[:]
            final, solution, trace = run_game(gains, scenario, finder=finder)
            assert len(calls) == 1
            assert trace.iterations == [] and not solution.feasible and not trace.converged
            # one turn per BS, each rejecting its league
            assert trace.candidates_tried == 4
            assert np.array_equal(final.channel_of, start.channel_of)
            assert trace.final_gap_rel == 0.0 and trace.delta_gap_max_rel == 0.0

    def test_candidates_tried_counts_applied_leagues(self, monkeypatch):
        applied = []
        apply = game_module.apply_league

        def counting_apply(grouping, league):
            applied.append(league)
            return apply(grouping, league)

        monkeypatch.setattr(game_module, "apply_league", counting_apply)
        for scenario, gains, _grouping, _sol in feasible_instances(2, 14, 3, 2, start_seed=50):
            for finder in ("fga", "eba"):
                del applied[:]
                _final, _solution, trace = run_game(gains, scenario, finder=finder)
                assert trace.candidates_tried == len(applied) >= len(trace.iterations)

    @pytest.mark.parametrize("poison", [1 + 1e-6, math.inf])
    def test_poisoned_memo_total_raises(self, monkeypatch, poison):
        # Every build scales the memo's total of subchannel 0's current
        # membership once, so the final grouping's memo total is off (or
        # inf) while its independent solve is not.
        build = game_module.build_graph
        poisoned = set()

        def poisoning_build(memo, grouping, bs):
            key = memo_key(0, sum(1 << int(n) for n in np.flatnonzero(grouping.channel_of == 0)), grouping.num_users)
            if key in memo.totals and key not in poisoned:
                memo.totals[key] *= poison
                poisoned.add(key)
            return build(memo, grouping, bs)

        monkeypatch.setattr(game_module, "build_graph", poisoning_build)
        scenario, gains, _grouping, _sol = next(feasible_instances(1, 14, 3, 2, start_seed=50))
        with pytest.raises(RuntimeError, match="memo total"):
            run_game(gains, scenario, finder="fga")

    def test_infeasible_end_solve_of_a_feasible_memo_raises(self, monkeypatch):
        solve = game_module.solve_all_powers

        def infeasible_solve(*args, **kwargs):
            solution = solve(*args, **kwargs)
            solution.feasible = False
            return solution

        monkeypatch.setattr(game_module, "solve_all_powers", infeasible_solve)
        scenario, gains, _grouping, _sol = next(feasible_instances(1, 14, 3, 2, start_seed=50))
        with pytest.raises(RuntimeError, match="memo total"):
            run_game(gains, scenario, finder="fga")


class TestDeltaGap:
    @pytest.mark.parametrize("finder", ["fga", "eba"])
    def test_predicted_deltas_match_realized_on_pinned_games(self, finder):
        with open(SEEDS_FILE) as fh:
            instances = [tuple(game) for game in json.load(fh)["game"]]
        for num_users, seed in instances:
            scenario, gains = make_instance(num_users, 10, 4, seed)
            _final, _solution, trace = run_game(gains, scenario, finder=finder)
            gaps = []
            for step in trace.iterations:
                realized = step.total_power_after_w - step.total_power_before_w
                gaps.append(abs(step.action.predicted_delta_w - realized) / abs(realized))
            assert trace.delta_gap_max_rel == max(gaps) > 0.0, (num_users, seed)
            assert trace.delta_gap_max_rel <= 1e-9, (num_users, seed)


class TestStoppingRule:
    """The game stops once every BS has searched the current grouping without a move."""

    @pytest.mark.parametrize("finder", ["fga", "eba"])
    def test_every_bs_searches_each_grouping_at_most_once(self, monkeypatch, finder):
        built = record_game_graphs(monkeypatch)
        with open(SEEDS_FILE) as fh:
            instances = [tuple(game) for game in json.load(fh)["game"]]
        # the pinned games and an infeasible start
        for num_users, seed in instances + [(50, 200001)]:
            del built[:]
            scenario, gains = make_instance(num_users, 10, 4, seed)
            final, _solution, _trace = run_game(gains, scenario, finder=finder)
            searched = [(bs, grouping.key()) for grouping, bs, _graph in built]
            assert len(set(searched)) == len(searched), (num_users, seed)
            assert sorted(searched[-4:]) == [(bs, final.key()) for bs in range(4)]


# The deterministic counters of the pinned benchmark games, keyed by
# (finder, N): accepted actions, memo_hits, memo_solves, memo_batch_solves,
# candidates_tried, eba_relaxations, eba_budget_exhaustions and the final
# total power as float.hex. A change that moves any of them moved a
# decision, a memo lookup or the batch threshold; one that means to
# (ROADMAP items 1 and 4) updates the pins.
PINNED_COUNTERS = {
    ("fga", 50): (18, 3940, 4126, 4088, 18, 0, 0, "0x1.87861b8757910p-10"),
    ("fga", 55): (18, 3375, 4167, 4157, 18, 0, 0, "0x1.62a227cbfdf6bp-10"),
    ("fga", 60): (14, 2548, 4564, 4554, 14, 0, 0, "0x1.ff49e491dd2e8p-10"),
    ("fga", 65): (19, 4542, 6126, 6116, 19, 0, 0, "0x1.827cf1ad845b4p-10"),
    ("eba", 50): (19, 5186, 3888, 3878, 19, 15110468, 12, "0x1.8f7a4cd958836p-10"),
    ("eba", 55): (31, 7704, 6716, 6706, 31, 18433063, 13, "0x1.5deb649769a7ep-10"),
    ("eba", 60): (45, 8890, 10414, 10404, 45, 16840735, 7, "0x1.fb833ffa38b18p-10"),
    ("eba", 65): (58, 14148, 14156, 14146, 58, 22267153, 10, "0x1.7de0ea9fd793ep-10"),
}


class TestPinnedCounters:
    @pytest.mark.parametrize("finder", ["fga", "eba"])
    def test_counters_of_the_pinned_games(self, finder):
        with open(SEEDS_FILE) as fh:
            instances = [tuple(game) for game in json.load(fh)["game"]]
        assert [num_users for num_users, _seed in instances] == [50, 55, 60, 65]
        for num_users, seed in instances:
            scenario, gains = make_instance(num_users, 10, 4, seed)
            _final, _solution, trace = run_game(gains, scenario, finder=finder)
            counters = (
                len(trace.iterations),
                trace.memo_hits,
                trace.memo_solves,
                trace.memo_batch_solves,
                trace.candidates_tried,
                trace.eba_relaxations,
                trace.eba_budget_exhaustions,
                trace.final_total_power_w.hex(),
            )
            assert counters == PINNED_COUNTERS[finder, num_users], (finder, num_users)


class TestBatchPasses:
    @pytest.mark.parametrize("finder", ["fga", "eba"])
    def test_passes_sum_each_batch_calls_highest_iteration(self, monkeypatch, finder):
        passes = []
        batch = graph_module.solve_channel_batch

        def recording_batch(*args):
            res = batch(*args)
            passes.append(int(res.iterations.max()))
            return res

        monkeypatch.setattr(graph_module, "solve_channel_batch", recording_batch)
        with open(SEEDS_FILE) as fh:
            num_users, seed = json.load(fh)["game"][0]
        scenario, gains = make_instance(num_users, 10, 4, seed)
        _final, _solution, trace = run_game(gains, scenario, finder=finder)
        assert trace.memo_batch_passes == sum(passes)
        # a batch solves, then confirms; a straggler costs its whole batch a pass
        assert len(passes) * 2 < trace.memo_batch_passes

    def test_scalar_solves_run_no_batch_pass(self, monkeypatch):
        monkeypatch.setattr(graph_module, "BATCH_MIN_MISSES", math.inf)
        scenario, gains = make_instance(12, 3, 2, seed=1)
        _final, _solution, trace = run_game(gains, scenario, finder="fga")
        assert trace.memo_solves > 0 and (trace.memo_batch_solves, trace.memo_batch_passes) == (0, 0)
