import math

import numpy as np
import pytest

from conftest import feasible_instances, make_instance
from noma_grouping import (
    Grouping,
    InstanceTooLargeError,
    StrategyKind,
    decode_orders,
    enumerate_leagues,
    exhaustive_best_grouping,
    gale_shapley_grouping,
    initial_grouping,
    is_nash_equilibrium,
    run_game,
    sccd_grouping,
    solve_all_powers,
)
from noma_grouping.power import CHANNEL_GAIN_ORDER, RATE_DESCENDING_ORDER, total_power_or_inf
from noma_grouping.scenario import ChannelGains


def _single_bs_instance(num_users, num_channels, seed, per_user_gains=None):
    scenario, gains = make_instance(num_users, num_channels, 1, seed=seed)
    if per_user_gains is not None:
        gains = ChannelGains(gain=np.asarray(per_user_gains, dtype=float))
    return scenario, gains


class TestSccd:
    def test_four_users_two_groups(self):
        # gains ranked u0 > u1 > u2 > u3: pairs {u0,u3} and {u1,u2}
        gain = np.zeros((1, 2, 4))
        for n, scale in enumerate([4.0, 3.0, 2.0, 1.0]):
            gain[0, :, n] = scale * 1e-12
        scenario, gains = _single_bs_instance(4, 2, 1, gain)
        grouping = sccd_grouping(gains, scenario)
        assert int(grouping.channel_of[0]) == int(grouping.channel_of[3]) == 0
        assert int(grouping.channel_of[1]) == int(grouping.channel_of[2]) == 1

    def test_single_user(self):
        scenario, gains = make_instance(1, 3, 1, seed=2)
        grouping = sccd_grouping(gains, scenario)
        assert int(grouping.channel_of[0]) == 0

    def test_two_g_users_balance(self):
        scenario, gains = make_instance(8, 4, 1, seed=3)
        grouping = sccd_grouping(gains, scenario)
        counts = np.bincount(grouping.channel_of, minlength=4)
        assert np.all(counts == 2)

    def test_valid_grouping(self):
        scenario, gains = make_instance(13, 4, 2, seed=4)
        grouping = sccd_grouping(gains, scenario)
        assert np.array_equal(grouping.bs_of, scenario.association)
        assert np.all((grouping.channel_of >= 0) & (grouping.channel_of < 4))


class TestGaleShapley:
    def test_conflict_resolved_by_gain(self):
        # both users prefer channel 0; quota 1; the stronger one keeps it
        gain = np.zeros((1, 2, 2))
        gain[0, 0, 0] = 5e-12
        gain[0, 1, 0] = 1e-12
        gain[0, 0, 1] = 4e-12
        gain[0, 1, 1] = 2e-12
        scenario, gains = _single_bs_instance(2, 2, 5, gain)
        grouping = gale_shapley_grouping(gains, scenario)
        assert int(grouping.channel_of[0]) == 0
        assert int(grouping.channel_of[1]) == 1

    def test_everyone_alone_when_channels_abound(self):
        # distinct top channels, more channels than users
        gain = np.full((1, 4, 3), 1e-13)
        gain[0, 1, 0] = 9e-12
        gain[0, 3, 1] = 8e-12
        gain[0, 0, 2] = 7e-12
        scenario, gains = _single_bs_instance(3, 4, 6, gain)
        grouping = gale_shapley_grouping(gains, scenario)
        assert [int(g) for g in grouping.channel_of] == [1, 3, 0]

    def test_quota_respected(self):
        scenario, gains = make_instance(23, 4, 2, seed=7)
        grouping = gale_shapley_grouping(gains, scenario)
        for m in range(2):
            users = scenario.users_of_bs(m)
            quota = math.ceil(len(users) / 4)
            for g in range(4):
                assert len(grouping.members_by_bs(g, 2)[m]) <= quota


def _reference_order(rule, members, own_gains, pow2r):
    """Decode order of one single-cell group under a reference rule."""
    (order,) = decode_orders([own_gains], [members], pow2r, 1.0, [0.0], rule)
    return order


class TestReferenceOrders:
    def test_equal_rates_fall_back_to_id(self):
        order = _reference_order(RATE_DESCENDING_ORDER, [3, 1, 2], [0.0, 5.0, 3.0, 4.0], [1.0, 4.0, 4.0, 4.0])
        assert order == (1, 2, 3)

    def test_channel_gain_equals_ccinr_without_interference(self):
        scenario, gains = make_instance(8, 2, 1, seed=8)
        grouping = initial_grouping(gains, scenario)
        solution = solve_all_powers(gains, grouping, scenario)
        assert solution.feasible
        pow2r = np.exp2(scenario.spectral_rates()).tolist()
        for (m, g), order in solution.sic_order.items():
            members = grouping.members_by_bs(g, 1)[m]
            if not members:
                continue
            own = gains.as_lists()[m][g]
            assert order == _reference_order(CHANNEL_GAIN_ORDER, members, own, pow2r)

    def test_rate_descending_puts_high_rate_first(self):
        order = _reference_order(RATE_DESCENDING_ORDER, [0, 1], [1.0, 2.0], [2.0 ** 10.0, 2.0 ** 99.0])
        assert order == (1, 0)


class TestExhaustive:
    def test_counts_assignments(self):
        scenario, gains = make_instance(2, 2, 1, seed=9)
        best, total = exhaustive_best_grouping(gains, scenario)
        # 4 assignments checked; the best is no worse than any explicit one
        for a in range(2):
            for b in range(2):
                grouping = Grouping(channel_of=[a, b], bs_of=scenario.association.copy())
                solution = solve_all_powers(gains, grouping, scenario)
                if solution.feasible:
                    assert total <= total_power_or_inf(solution) * (1 + 1e-12)

    def test_size_guard(self):
        scenario, gains = make_instance(30, 4, 2, seed=10)
        with pytest.raises(InstanceTooLargeError):
            exhaustive_best_grouping(gains, scenario)

    def test_dominates_all_strategies_and_is_stable(self):
        count = 0
        for scenario, gains, _grouping, _sol in feasible_instances(3, 6, 2, 2, start_seed=90):
            best, best_total = exhaustive_best_grouping(gains, scenario)
            _g_eba, sol_eba, _t = run_game(gains, scenario, finder="eba")
            assert best_total <= total_power_or_inf(sol_eba) * (1 + 1e-9)
            for strategy in (sccd_grouping, gale_shapley_grouping):
                sol = solve_all_powers(gains, strategy(gains, scenario), scenario)
                assert best_total <= total_power_or_inf(sol) * (1 + 1e-9)
            assert is_nash_equilibrium(gains, scenario, best, 2)
            count += 1
        assert count == 3


class TestEnumerateLeagues:
    def test_all_returned_leagues_improve(self):
        for scenario, gains, grouping, base in feasible_instances(3, 9, 3, 1, start_seed=100):
            base_total = total_power_or_inf(base)
            for league in enumerate_leagues(gains, scenario, grouping, 3):
                from noma_grouping import apply_league

                applied = apply_league(grouping, league)
                after = solve_all_powers(gains, applied, scenario)
                assert after.feasible
                assert total_power_or_inf(after) < base_total

    def test_empty_after_eba_convergence(self):
        done = 0
        for scenario, gains, _grouping, _sol in feasible_instances(2, 8, 2, 2, start_seed=110):
            grouping, solution, trace = run_game(gains, scenario, finder="eba")
            assert trace.converged
            assert enumerate_leagues(gains, scenario, grouping, 2) == []
            done += 1
        assert done == 2

    def test_planted_swap_is_found(self):
        # craft a single-cell instance where swapping two users helps:
        # start from a converged grouping, then un-swap one improving pair
        found = False
        for seed in range(40):
            scenario, gains = make_instance(8, 2, 1, seed=seed)
            grouping = initial_grouping(gains, scenario)
            if not solve_all_powers(gains, grouping, scenario).feasible:
                continue
            leagues = enumerate_leagues(gains, scenario, grouping, 2)
            exchanges = [lg for lg in leagues if lg.kind == "exchange"]
            if exchanges:
                found = True
                break
        assert found


class TestStrategyKind:
    def test_labels(self):
        assert StrategyKind("fga", 5.0).label() == "fga(alpha=5)"
        assert StrategyKind("eba").label() == "eba"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            StrategyKind("greedy")
