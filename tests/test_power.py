import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    assert_close,
    channel_system,
    feasible_instances,
    jacobi_group_power,
    make_instance,
    single_cell_group,
)
from noma_grouping import (
    Grouping,
    InfeasibleSolutionError,
    achieved_rates,
    ccinr,
    decode_orders,
    default_config,
    draw_channel_gains,
    gale_shapley_grouping,
    generate_scenario,
    initial_grouping,
    sccd_grouping,
    solve_all_powers,
    solve_coupling,
    total_power,
    user_powers,
)
from noma_grouping import graph as graph_module
from noma_grouping import power
from noma_grouping import run_game
from noma_grouping.power import (
    CCINR_ORDER,
    CHANNEL_GAIN_ORDER,
    RATE_DESCENDING_ORDER,
    assemble_coupling,
    solve_channel_batch,
    solve_one_channel,
)
from noma_grouping.scenario import ChannelGains

ORDER_RULES = (CCINR_ORDER, CHANNEL_GAIN_ORDER, RATE_DESCENDING_ORDER)


def _no_solve(*args, **kwargs):
    raise AssertionError("a channel was solved")


def _toy_gains(gain_array):
    return ChannelGains(gain=np.asarray(gain_array, dtype=float))


class TestCcinr:
    def test_single_cell_no_interference(self):
        gains = _toy_gains(np.full((1, 2, 3), 2e-10))
        grouping = Grouping(channel_of=[0, 1, 0], bs_of=[0, 0, 0])
        table = ccinr(gains, grouping, np.ones((1, 2)), 1e-15)
        assert np.all(table.interference == 0.0)
        assert_close(table.s, 2e-10 / 1e-15)

    def test_two_cell_hand_case(self):
        # own gain 1e-10, other cell gain 1e-12 at 1 W -> I = 1e-12
        gain = np.zeros((2, 1, 1))
        gain[0, 0, 0] = 1e-10
        gain[1, 0, 0] = 1e-12
        grouping = Grouping(channel_of=[0], bs_of=[0])
        table = ccinr(_toy_gains(gain), grouping, [[0.0], [1.0]], 1e-15)
        assert table.interference[0] == pytest.approx(1e-12, rel=1e-12)
        assert table.s[0] == pytest.approx(1e-10 / 1.001e-12, rel=1e-12)

    def test_rejects_indices_outside_the_gain_table(self):
        gains = _toy_gains(np.full((2, 2, 3), 2e-10))
        for channel_of, bs_of, message in (
            ([0, 1, -1], [0, 1, 0], "subchannel outside"),
            ([0, 1, 2], [0, 1, 0], "subchannel outside"),
            ([0, 1, 1], [0, -1, 0], "BS outside"),
            ([0, 1, 1], [0, 2, 0], "BS outside"),
        ):
            with pytest.raises(ValueError, match=message):
                ccinr(gains, Grouping(channel_of=channel_of, bs_of=bs_of), np.ones((2, 2)), 1e-15)

    def test_rejects_a_power_table_that_is_not_m_by_g(self):
        gains = _toy_gains(np.full((2, 2, 3), 2e-10))
        grouping = Grouping(channel_of=[0, 1, 1], bs_of=[0, 1, 0])
        for table in (np.ones((1, 1)), np.ones((2, 1)), np.ones((1, 2)), np.ones((2, 2, 1)), [1.0, 1.0]):
            with pytest.raises(ValueError, match=r"shape .* not \(2, 2\)"):
                ccinr(gains, grouping, table, 1e-15)

    def test_rejects_more_users_than_the_gain_table(self):
        gains = _toy_gains(np.full((2, 2, 3), 2e-10))
        grouping = Grouping(channel_of=[0, 1, 1, 0], bs_of=[0, 1, 0, 1])
        with pytest.raises(ValueError, match="4 users, the gain table 3"):
            ccinr(gains, grouping, np.ones((2, 2)), 1e-15)

    @pytest.mark.parametrize("bad", [-1.0, -5e-324, math.inf, math.nan])
    def test_rejects_a_negative_or_non_finite_power(self, bad):
        gains = _toy_gains(np.full((2, 2, 3), 2e-10))
        grouping = Grouping(channel_of=[0, 1, 1], bs_of=[0, 1, 0])
        table = np.ones((2, 2))
        table[1, 0] = bad
        with pytest.raises(ValueError, match="negative or non-finite"):
            ccinr(gains, grouping, table, 1e-15)

    def test_zero_other_powers_reduce_to_single_cell(self):
        scenario, gains = make_instance(8, 2, 2, seed=1)
        grouping = initial_grouping(gains, scenario)
        table = ccinr(gains, grouping, np.zeros((2, 2)), scenario.noise_power_w)
        assert np.all(table.interference == 0.0)


class TestSicOrder:
    def test_sorts_ascending(self):
        order, _closed, _pow2r = single_cell_group([3.0, 1.0, 2.0], [0.0] * 3)
        assert order == (1, 2, 0)

    def test_singleton(self):
        order, _closed, _pow2r = single_cell_group([5.0], [0.0])
        assert order == (0,)

    def test_ties_break_by_id(self):
        order, _closed, _pow2r = single_cell_group([2.0, 2.0, 2.0], [0.0] * 3, members=[2, 0, 1])
        assert order == (0, 1, 2)

    def test_interference_enters_the_order(self):
        # user 0 has the larger own gain but sits under BS 1's interference
        rows = [[4.0, 3.0], [1.0, 0.0]]
        members = [[0, 1], []]
        quiet = decode_orders(rows, members, [2.0, 2.0], 1.0, [0.0, 0.0], CCINR_ORDER)
        loud = decode_orders(rows, members, [2.0, 2.0], 1.0, [0.0, 1.0], CCINR_ORDER)
        assert quiet == ((1, 0), ())
        assert loud == ((0, 1), ())

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            decode_orders([[1.0]], [[0]], [2.0], 1.0, [0.0], "loudest_first")


class TestGroupPowerForms:
    def test_zero_rate_single_user(self):
        _order, closed, _pow2r = single_cell_group([10.0], [0.0])
        assert closed == 0.0

    def test_two_user_hand_case(self):
        s = [10.0, 5.0]
        order, closed, pow2r = single_cell_group(s, [1.0, 1.0])
        assert closed == pytest.approx(0.4, rel=1e-12)
        powers = user_powers(order, s, pow2r)
        assert powers[0] == pytest.approx(0.1, rel=1e-12)
        assert powers[1] == pytest.approx(0.3, rel=1e-12)

    def test_singleton_recursion_base_case(self):
        powers = user_powers((0,), [10.0], [2.0])
        assert powers[0] == pytest.approx(0.1, rel=1e-12)

    def test_zero_rate_user_contributes_nothing(self):
        s = [10.0, 5.0, 7.0]
        rates = [1.0, 1.0, 0.0]
        order3, _closed, pow2r = single_cell_group(s, rates)
        order2, _closed, _pow2r = single_cell_group(s, rates, members=[0, 1])
        with_zero = user_powers(order3, s, pow2r)
        without = user_powers(order2, s, pow2r)
        assert with_zero[2] == 0.0
        assert with_zero[0] == pytest.approx(without[0], rel=1e-12)
        assert with_zero[1] == pytest.approx(without[1], rel=1e-12)

    def test_closed_form_equals_recursion_sum_randomized(self):
        rng = np.random.default_rng(123)
        for _ in range(500):
            k = int(rng.integers(1, 7))
            s = rng.uniform(1e-3, 1e3, k)
            order, closed, pow2r = single_cell_group(s, rng.uniform(0.0, 3.0, k))
            recursed = sum(user_powers(order, s, pow2r).values())
            assert_close(closed, recursed, rel=1e-12)

    def test_ccinr_order_beats_every_permutation(self):
        rng = np.random.default_rng(7)

        def order_total(order, s, rates):
            acc = 0.0
            total = 0.0
            for n in reversed(order):
                p = (2.0 ** rates[n] - 1.0) * (1.0 / s[n] + acc)
                acc += p
                total += p
            return total

        for _ in range(200):
            k = int(rng.integers(2, 6))
            s = rng.uniform(0.1, 100.0, k)
            rates = rng.uniform(0.0, 3.0, k)
            _order, best, _pow2r = single_cell_group(s, rates)
            for perm in itertools.permutations(range(k)):
                assert best <= order_total(list(perm), s, rates) * (1 + 1e-9)


class TestChannelSystem:
    def test_empty_channel(self):
        gains = _toy_gains(np.full((3, 2, 2), 1e-10))
        grouping = Grouping(channel_of=[0, 0], bs_of=[0, 1])
        a, b = channel_system(gains, grouping, [2.0, 2.0], 1e-15, np.zeros((3, 2)), 1)
        assert np.array_equal(a, -np.eye(3))
        assert np.array_equal(b, np.zeros(3))

    def test_single_cell_system(self):
        gains = _toy_gains(np.full((1, 1, 2), 1e-10))
        grouping = Grouping(channel_of=[0, 0], bs_of=[0, 0])
        sigma2 = 1e-15
        table = ccinr(gains, grouping, np.zeros((1, 1)), sigma2)
        pow2r = [2.0, 2.0]
        a, b = channel_system(gains, grouping, pow2r, sigma2, np.zeros((1, 1)), 0)
        assert a == [[-1.0]]
        # equal CCINR: the tie decodes user 0 first
        expected = sum(user_powers((0, 1), table.s, pow2r).values())
        assert_close(-b[0], expected, rel=1e-12)
        assert_close(solve_coupling(a, b)[0], expected, rel=1e-12)

    def test_two_cell_hand_entries(self):
        # one user per cell on the same channel, hand-picked gains
        gain = np.zeros((2, 1, 2))
        gain[0, 0, 0] = 1e-10   # own gain of user 0 (BS 0)
        gain[1, 0, 0] = 2e-12   # cross gain of user 0 from BS 1
        gain[1, 0, 1] = 5e-11   # own gain of user 1 (BS 1)
        gain[0, 0, 1] = 1e-12   # cross gain of user 1 from BS 0
        grouping = Grouping(channel_of=[0, 0], bs_of=[0, 1])
        sigma2 = 1e-15
        pow2r = [2.0, 4.0]  # rates 1 and 2 bit/s/Hz
        a, b = channel_system(_toy_gains(gain), grouping, pow2r, sigma2, np.zeros((2, 1)), 0)
        # row 0: member user 0: w = (2^1-1)/1e-10; a01 = w * gain[1,0,0]
        assert a[0][1] == pytest.approx((1.0 / 1e-10) * 2e-12, rel=1e-12)
        # row 1: member user 1: w = (2^2-1)/5e-11; a10 = w * gain[0,0,1]
        assert a[1][0] == pytest.approx((3.0 / 5e-11) * 1e-12, rel=1e-12)
        assert b[0] == pytest.approx(-(1.0 / 1e-10) * sigma2, rel=1e-12)
        assert b[1] == pytest.approx(-(3.0 / 5e-11) * sigma2, rel=1e-12)


class TestSolveChannelPowers:
    def test_single_cell(self):
        assert_close(solve_coupling([[-1.0]], [-0.4]), [0.4], rel=1e-12)

    def test_two_cell_symmetric(self):
        assert_close(solve_coupling([[-1.0, 0.5], [0.5, -1.0]], [-1.0, -1.0]), [2.0, 2.0], rel=1e-12)

    def test_strong_coupling_is_infeasible(self):
        assert solve_coupling([[-1.0, 1.1], [1.1, -1.0]], [-1.0, -1.0]) is None

    def test_singular_is_infeasible(self):
        assert solve_coupling([[-1.0, 1.0], [-1.0, 1.0]], [-1.0, -1.0]) is None

    def test_inputs_untouched(self):
        a = [[-1.0, 0.5], [0.5, -1.0]]
        b = [-1.0, -1.0]
        solve_coupling(a, b)
        assert a == [[-1.0, 0.5], [0.5, -1.0]] and b == [-1.0, -1.0]


# Spectral radii the coupling draws are scaled to, on both sides of 1.
_RHO_TARGETS = (0.0, 0.01, 0.5, 0.9, 0.999, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 1.001, 1.1, 3.0, 1e3)


@st.composite
def _coupling_draws(draw):
    """1-8 systems (C, c) of one size M = 1-6: C >= 0 and c > 0.

    The entries span 12 decades, some of C's are exactly 0, and C is
    scaled to a drawn spectral radius, so both verdicts occur.
    """
    size = draw(st.integers(1, 6))
    count = draw(st.integers(1, 8))
    zero_share = draw(st.sampled_from([0.0, 0.2, 0.6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    systems = []
    for _ in range(count):
        coupling = 10.0 ** rng.uniform(-12.0, 0.0, (size, size))
        coupling[rng.random((size, size)) < zero_share] = 0.0
        rho = max(abs(np.linalg.eigvals(coupling)))
        if rho > 0.0:
            coupling *= rng.choice(_RHO_TARGETS) / rho
        systems.append((coupling, 10.0 ** rng.uniform(-12.0, 0.0, size)))
    return systems


def _refined_solve(matrix, rhs):
    """numpy.linalg.solve plus one refinement step on a long double residual.

    numpy's pivoting LU alone is accurate in norm only: on entries over 12
    decades its smallest components can be off by 1e-8 relative.
    """
    x = np.linalg.solve(matrix, rhs)
    residual = rhs.astype(np.longdouble) - matrix.astype(np.longdouble) @ x
    return x + np.linalg.solve(matrix, residual.astype(float))


class TestCouplingVerdict:
    """The pivot-free elimination's verdict against an eigenvalue oracle.

    I - C is a Z-matrix, a nonsingular M-matrix exactly when rho(C) < 1,
    and then (I - C)P = c has the unique solution P >= 0. So solve_coupling
    must return None exactly when rho(C) >= 1, and otherwise numpy's
    solution; the batch path must give its bits.
    """

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_coupling_draws())
    def test_none_exactly_when_the_spectral_radius_reaches_one(self, systems):
        # too close to 1 for eigvals to tell
        systems = [(c, v) for c, v in systems if abs(max(abs(np.linalg.eigvals(c))) - 1.0) >= 1e-9]
        assume(systems)
        size = systems[0][1].size
        aug = np.zeros((size, size + 1, len(systems)))
        results = []
        for k, (coupling, noise) in enumerate(systems):
            a = coupling - np.eye(size)
            aug[:, :size, k], aug[:, size, k] = a, -noise
            x = solve_coupling(a.tolist(), (-noise).tolist())
            assert (x is None) == (max(abs(np.linalg.eigvals(coupling))) >= 1.0)
            if x is not None:
                assert min(x) >= 0.0
                assert_close(x, _refined_solve(-a, noise), rel=1e-9, floor=0.0)
            results.append(x)
        with np.errstate(all="ignore"):
            powers, ok = power._solve_coupling_batch(aug)
        assert ok.tolist() == [x is not None for x in results]
        for k, x in enumerate(results):
            if x is not None:
                assert [v.hex() for v in powers[:, k].tolist()] == [v.hex() for v in x]


class TestSolveAllPowers:
    def test_rejects_grouping_that_does_not_fit_the_scenario(self):
        scenario, gains, grouping, _sol = next(feasible_instances(1, 12, 3, 2, start_seed=0))
        # a user on a subchannel that does not exist used to drop out of
        # the solve silently (p = 0 and a lower total)
        for channel in (7, 3, -1):
            with pytest.raises(ValueError, match="subchannel outside"):
                solve_all_powers(gains, grouping.with_moves([(0, channel)]), scenario)
        short = Grouping(channel_of=grouping.channel_of[:-1], bs_of=grouping.bs_of[:-1])
        with pytest.raises(ValueError, match="11 users, the scenario 12"):
            solve_all_powers(gains, short, scenario)
        other_bs = grouping.bs_of.copy()
        other_bs[0] = 1 - other_bs[0]
        with pytest.raises(ValueError, match="association"):
            solve_all_powers(gains, Grouping(channel_of=grouping.channel_of, bs_of=other_bs), scenario)

    def test_rejects_a_gain_table_of_another_shape(self, monkeypatch):
        # a 10-user table used to raise IndexError mid-solve, a 14-user one
        # to solve on the wrong gains
        scenario, gains = make_instance(12, 3, 2, seed=1)
        grouping = initial_grouping(gains, scenario)
        monkeypatch.setattr(power, "solve_one_channel", _no_solve)
        for table in (gains.gain[:, :, :10], np.concatenate([gains.gain, gains.gain[:, :, :2]], axis=2)):
            with pytest.raises(ValueError, match=r"shape \(2, 3, 1[04]\), the scenario \(2, 3, 12\)"):
                solve_all_powers(ChannelGains(gain=table), grouping, scenario)

    def test_single_cell_two_iterations_and_recursion_match(self):
        scenario, gains = make_instance(10, 3, 1, seed=3)
        grouping = initial_grouping(gains, scenario)
        solution = solve_all_powers(gains, grouping, scenario)
        assert solution.feasible
        assert solution.fixed_point_iterations <= 2
        pow2r = [2.0 ** r for r in scenario.spectral_rates()]
        lists = gains.as_lists()
        for g in range(3):
            (order,) = decode_orders(
                [lists[0][g]], grouping.members_by_channel(3, 1)[g], pow2r, scenario.noise_power_w,
                [solution.group_power[0, g]], CCINR_ORDER,
            )
            powers = user_powers(order, solution.ccinr.s, pow2r)
            for n in order:
                assert_close(solution.p[n], powers[n], rel=1e-12)

    def test_group_power_equals_member_sum(self):
        for scenario, gains, grouping, solution in feasible_instances(
            5, 16, 4, 4, start_seed=100
        ):
            members_by_channel = grouping.members_by_channel(4, 4)
            for m in range(4):
                for g in range(4):
                    members = members_by_channel[g][m]
                    total = float(np.sum(solution.p[members])) if members else 0.0
                    assert_close(total, solution.group_power[m, g])

    def test_jacobi_oracle_agreement(self):
        # independent fixed point: iterate the closed form per group
        checked = 0
        for scenario, gains, grouping, solution in feasible_instances(
            10, 20, 4, 4, start_seed=200
        ):
            checked += 1
            gp, _converged = jacobi_group_power(gains, grouping, scenario, 200000)
            assert_close(gp, solution.group_power)
        assert checked == 10

    def test_sic_orders_are_ascending_ccinr(self):
        for scenario, gains, grouping, solution in feasible_instances(
            3, 18, 3, 4, start_seed=300
        ):
            s = solution.ccinr.s
            for (m, g), order in solution.sic_order.items():
                expected = sorted(grouping.members_by_channel(3, 4)[g][m], key=lambda n: (s[n], n))
                assert list(order) == expected

    def test_zero_rate_member_is_neutral(self):
        # adding a zero-rate user leaves every other power bitwise
        # unchanged (what makes virtual-user bookkeeping safe)
        from noma_grouping.scenario import Scenario

        for scenario, gains, grouping, _sol in feasible_instances(
            3, 13, 3, 2, start_seed=700
        ):
            n_users = scenario.config.num_users
            extra = n_users - 1  # treat the last user as the added one
            scenario.target_rates_bps = scenario.target_rates_bps.copy()
            scenario.target_rates_bps[extra] = 0.0
            with_extra = solve_all_powers(gains, grouping, scenario)
            assert with_extra.feasible
            assert with_extra.p[extra] == 0.0

            import dataclasses

            cfg2 = dataclasses.replace(scenario.config, num_users=n_users - 1)
            scenario2 = Scenario(
                config=cfg2,
                user_positions=scenario.user_positions[:-1],
                target_rates_bps=scenario.target_rates_bps[:-1],
                association=scenario.association[:-1],
                noise_power_w=scenario.noise_power_w,
            )
            gains2 = type(gains)(gain=gains.gain[:, :, :-1].copy())
            grouping2 = type(grouping)(
                channel_of=grouping.channel_of[:-1], bs_of=grouping.bs_of[:-1]
            )
            without = solve_all_powers(gains2, grouping2, scenario2)
            assert without.feasible
            assert np.array_equal(with_extra.p[:-1], without.p)

    @pytest.mark.parametrize("num_users", [50, 55, 60, 65])
    def test_table_and_powers_equal_the_public_forms(self, num_users):
        # the power-solve benchmark's instances and groupings, every rule
        feasible = dict.fromkeys(ORDER_RULES, 0)
        for seed in range(90000, 90010):
            scenario, gains = make_instance(num_users, 10, 4, seed)
            for grouping in (
                initial_grouping(gains, scenario),
                sccd_grouping(gains, scenario),
                gale_shapley_grouping(gains, scenario),
            ):
                for rule in ORDER_RULES:
                    feasible[rule] += _assert_public_forms(gains, grouping, scenario, rule)
        assert all(feasible.values()), feasible

    @pytest.mark.parametrize("order_rule", ORDER_RULES)
    def test_one_pass_over_the_grouping(self, monkeypatch, order_rule):
        # Under the CCINR rule the table is the fixed points' last decodes:
        # no CCINR decode beyond the solves' own; the fixed-order rules
        # decode once per subchannel at the converged powers. The users are
        # split into (subchannel, BS) groups once per solve.
        decodes, iterations, splits = [0], [0], [0]
        member_ccinr, solve = power._member_ccinr, power.solve_one_channel
        members_by_channel = Grouping.members_by_channel

        def counting_decode(*args):
            decodes[0] += 1
            return member_ccinr(*args)

        def counting_solve(*args, **kwargs):
            res = solve(*args, **kwargs)
            iterations[0] += res.iterations
            return res

        def counting_split(*args):
            splits[0] += 1
            return members_by_channel(*args)

        checked = 0
        for scenario, gains, grouping, _sol in feasible_instances(3, 20, 4, 4, start_seed=300):
            with monkeypatch.context() as patch:
                patch.setattr(power, "_member_ccinr", counting_decode)
                patch.setattr(power, "solve_one_channel", counting_solve)
                patch.setattr(Grouping, "members_by_channel", counting_split)
                decodes[0] = iterations[0] = splits[0] = 0
                solution = solve_all_powers(gains, grouping, scenario, order_rule=order_rule)
            assert splits[0] == 1
            if solution.feasible:
                checked += 1
                assert decodes[0] == (iterations[0] if order_rule == CCINR_ORDER else 4)
        assert checked > 0

    def test_public_forms_with_empty_subchannel_and_empty_group(self):
        scenario, gains = make_instance(5, 3, 2, seed=2)
        bs_of = scenario.association
        assert bs_of.tolist() == [1, 0, 0, 0, 0]
        # BS 1 serves only on subchannel 0, BS 0 on 0 and 1; subchannel 2 is empty
        channel_of = np.array([0, 1, 0, 1, 0])
        grouping = Grouping(channel_of=channel_of, bs_of=bs_of)
        for rule in ORDER_RULES:
            assert _assert_public_forms(gains, grouping, scenario, rule)
            solution = solve_all_powers(gains, grouping, scenario, order_rule=rule)
            assert solution.sic_order[(0, 2)] == solution.sic_order[(1, 2)] == solution.sic_order[(1, 1)] == ()
            assert solution.group_power[:, 2].tolist() == [0.0, 0.0]
            assert solution.group_power[1, 1] == 0.0

    def test_monotone_in_target_rate(self):
        for scenario, gains, grouping, solution in feasible_instances(
            5, 14, 3, 4, start_seed=400
        ):
            base = total_power(solution)
            rng = np.random.default_rng(1)
            n = int(rng.integers(0, 14))
            scenario.target_rates_bps = scenario.target_rates_bps.copy()
            scenario.target_rates_bps[n] *= 1.2
            bumped = solve_all_powers(gains, grouping, scenario)
            if bumped.feasible:
                assert total_power(bumped) >= base * (1 - 1e-9)


def _assert_public_forms(gains, grouping, scenario, order_rule) -> bool:
    """A feasible solve's CCINR table is ccinr() at its group powers, and its p
    the user_powers recursion over its orders, bit for bit. Returns feasible."""
    solution = solve_all_powers(gains, grouping, scenario, order_rule=order_rule)
    if not solution.feasible:
        return False
    table = ccinr(gains, grouping, solution.group_power, scenario.noise_power_w)
    assert np.array_equal(solution.ccinr.s.view(np.int64), table.s.view(np.int64))
    assert np.array_equal(solution.ccinr.interference.view(np.int64), table.interference.view(np.int64))
    pow2r = np.exp2(scenario.spectral_rates()).tolist()
    p = np.full(grouping.num_users, np.nan)
    for order in solution.sic_order.values():
        for n, p_n in user_powers(order, solution.ccinr.s, pow2r).items():
            p[n] = p_n
    assert np.array_equal(solution.p.view(np.int64), p.view(np.int64))
    return True


class TestAchievedRates:
    def test_singleton_group_rate(self):
        scenario, gains = make_instance(1, 1, 1, seed=5)
        grouping = initial_grouping(gains, scenario)
        solution = solve_all_powers(gains, grouping, scenario)
        rates = achieved_rates(
            gains, grouping, solution, scenario.noise_power_w, scenario.config.bandwidth_hz
        )
        s = solution.ccinr.s[0]
        expected = scenario.config.bandwidth_hz * math.log2(1.0 + s * solution.p[0])
        assert_close(rates[0], expected, rel=1e-12)

    def test_two_user_case_hits_targets_exactly(self):
        # the 0.1/0.3 W hand case achieves exactly 1 bit/s/Hz each
        gain = np.zeros((1, 1, 2))
        sigma2 = 1e-12
        gain[0, 0, 0] = 10.0 * sigma2   # s = 10
        gain[0, 0, 1] = 5.0 * sigma2    # s = 5
        gains = _toy_gains(gain)
        from noma_grouping.scenario import Scenario, SimConfig

        config = SimConfig(
            num_bs=1,
            num_users=2,
            num_channels=1,
            area=(0, 0, 1, 1),
            bs_positions=np.array([[0.5, 0.5]]),
            min_user_bs_distance=0.1,
            bandwidth_hz=1.0,
            rate_range_bps=(1.0, 1.0),
        )
        scenario = Scenario(
            config=config,
            user_positions=np.zeros((2, 2)),
            target_rates_bps=np.array([1.0, 1.0]),
            association=np.array([0, 0]),
            noise_power_w=sigma2,
        )
        grouping = Grouping(channel_of=[0, 0], bs_of=[0, 0])
        solution = solve_all_powers(gains, grouping, scenario)
        assert solution.feasible
        assert_close(solution.p, [0.1, 0.3], rel=1e-9)
        rates = achieved_rates(gains, grouping, solution, sigma2, 1.0)
        assert_close(rates, [1.0, 1.0], rel=1e-9)

    def test_qos_met_on_random_instances(self):
        for scenario, gains, grouping, solution in feasible_instances(
            8, 18, 4, 4, start_seed=500
        ):
            rates = achieved_rates(
                gains, grouping, solution, scenario.noise_power_w, scenario.config.bandwidth_hz
            )
            assert np.all(rates >= scenario.target_rates_bps * (1 - 1e-9))


class TestTotalPower:
    def test_no_users(self):
        scenario, gains = make_instance(0, 2, 1, seed=6)
        grouping = Grouping(channel_of=np.zeros(0, dtype=int), bs_of=np.zeros(0, dtype=int))
        solution = solve_all_powers(gains, grouping, scenario)
        assert total_power(solution) == 0.0

    def test_zero_rates_need_zero_power(self):
        scenario, gains = make_instance(6, 2, 2, seed=7)
        scenario.target_rates_bps = np.zeros(6)
        grouping = initial_grouping(gains, scenario)
        solution = solve_all_powers(gains, grouping, scenario)
        assert total_power(solution) == 0.0

    def test_infeasible_is_inf(self):
        from noma_grouping.power import PowerSolution

        bad = PowerSolution(
            p=np.full(2, np.nan),
            group_power=np.zeros((1, 1)),
            ccinr=None,
            sic_order={},
            feasible=False,
            fixed_point_iterations=100,
        )
        assert total_power(bad) == math.inf
        scenario, gains = make_instance(2, 1, 1, seed=6)
        grouping = Grouping(channel_of=[0, 0], bs_of=[0, 0])
        with pytest.raises(InfeasibleSolutionError):
            achieved_rates(gains, grouping, bad, scenario.noise_power_w, scenario.config.bandwidth_hz)

    def test_matches_per_channel_norms(self):
        for scenario, gains, grouping, solution in feasible_instances(
            5, 16, 3, 4, start_seed=600
        ):
            pow2r = np.exp2(scenario.spectral_rates()).tolist()
            total = 0.0
            for g in range(3):
                a, b = channel_system(
                    gains, grouping, pow2r, scenario.noise_power_w, solution.group_power, g
                )
                total += float(np.sum(solve_coupling(a, b)))
            assert_close(total, total_power(solution))


class TestChannelFixedPoint:
    @pytest.mark.parametrize("order_rule", [CCINR_ORDER, CHANNEL_GAIN_ORDER])
    def test_one_solve_per_order_and_result_certifies_itself(self, monkeypatch, order_rule):
        solve = power.solve_coupling
        calls = [0]

        def counting_solve(a, b):
            calls[0] += 1
            return solve(a, b)

        monkeypatch.setattr(power, "solve_coupling", counting_solve)

        def counted(*args, **kwargs):
            calls[0] = 0
            return solve_one_channel(*args, order_rule=order_rule, **kwargs), calls[0]

        converged = reordered = 0
        for scenario, gains, grouping, _sol in feasible_instances(3, 16, 4, 3, start_seed=300):
            num_bs, num_ch = scenario.config.num_bs, scenario.config.num_channels
            lists, sigma2 = gains.as_lists(), scenario.noise_power_w
            pow2r = np.exp2(scenario.spectral_rates()).tolist()
            for g in range(num_ch):
                members = grouping.members_by_channel(num_ch, num_bs)[g]
                cold, cold_solves = counted(lists, g, members, pow2r, sigma2)
                runs = [(members, cold, cold_solves)]
                if cold.feasible:
                    # one user joins g, as on a league-graph edge into g
                    for n in np.flatnonzero(grouping.channel_of != g).tolist():
                        joined = grouping.with_moves([(n, g)]).members_by_channel(num_ch, num_bs)[g]
                        runs.append((joined, *counted(lists, g, joined, pow2r, sigma2)))
                for mem, res, solves in runs:
                    if not res.feasible:
                        assert solves == res.iterations
                        continue
                    converged += 1
                    reordered += res.iterations > 2
                    # the confirming decode is counted but solves nothing
                    assert solves == res.iterations - 1
                    rows = [lists[m][g] for m in range(num_bs)]
                    assert decode_orders(rows, mem, pow2r, sigma2, res.powers, order_rule) == res.orders
                    again = solve(*assemble_coupling(rows, res.orders, pow2r, sigma2))
                    assert [x.hex() for x in again] == [x.hex() for x in res.powers]
        assert converged > 0
        if order_rule == CCINR_ORDER:
            assert reordered > 0


def _assert_batch_matches_scalar(gain, systems, pow2r, sigma2):
    """solve_channel_batch on the (channel, members_by_bs) systems equals
    solve_one_channel on each: the same powers to the bit, iterations and verdict."""
    num_bs = gain.shape[0]
    width = max([len(row) for _h, members in systems for row in members] + [0])
    packed = np.full((len(systems), num_bs, width), -1)
    for k, (_h, members) in enumerate(systems):
        for m, row in enumerate(members):
            packed[k, m, : len(row)] = row
    res = solve_channel_batch(gain, [h for h, _members in systems], packed, np.asarray(pow2r), sigma2)
    assert res.powers.shape == (len(systems), num_bs)
    lists, pow2r_list = gain.tolist(), np.asarray(pow2r, dtype=float).tolist()
    for k, (h, members) in enumerate(systems):
        ref = solve_one_channel(lists, h, members, pow2r_list, sigma2)
        assert [x.hex() for x in res.powers[k].tolist()] == [x.hex() for x in ref.powers], (k, h, members)
        assert (int(res.iterations[k]), bool(res.feasible[k])) == (ref.iterations, ref.feasible), (k, h, members)
    return res


def _random_systems(rng, num_bs, num_ch, num_users, count, max_row):
    """count random (channel, members_by_bs) systems; each user belongs to one BS."""
    bs_of = rng.integers(0, num_bs, num_users)
    systems = []
    for _ in range(count):
        members = []
        for m in range(num_bs):
            own = np.flatnonzero(bs_of == m)
            size = int(rng.integers(0, min(max_row, own.size) + 1))
            members.append(sorted(rng.choice(own, size, replace=False).tolist()))
        systems.append((int(rng.integers(0, num_ch)), members))
    return systems


class TestChannelBatch:
    """solve_channel_batch gives solve_one_channel's bits, system by system."""

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_kernels_agree_at_the_iteration_cap(self, monkeypatch, cap):
        systems = []
        for seed in range(200000, 200060):
            scenario, gains = make_instance(50, 10, 4, seed)
            grouping = initial_grouping(gains, scenario)
            pow2r = np.exp2(scenario.spectral_rates())
            systems.append((gains.gain, list(enumerate(grouping.members_by_channel(10, 4))), pow2r, scenario.noise_power_w))
        uncapped = [_assert_batch_matches_scalar(*system).feasible for system in systems]
        monkeypatch.setattr(power, "MAX_FIXED_POINT_ITERATIONS", cap)
        cut = 0
        for system, feasible in zip(systems, uncapped):
            res = _assert_batch_matches_scalar(*system)
            assert (res.iterations <= cap).all() and not (res.feasible & ~feasible).any()
            # systems that converge without the cap and stop at it unconverged
            cut += int((feasible & ~res.feasible & (res.iterations == cap)).sum())
        # every one of these systems converges within 3 iterations
        assert (cut > 0) == (cap < 3)

    def test_every_membership_of_a_pinned_fga_game(self, monkeypatch):
        with open(Path(__file__).resolve().parents[1] / "bench" / "seeds.json") as fh:
            seed = dict(json.load(fh)["game"])[50]
        scenario, gains = make_instance(50, 10, 4, seed)
        systems = []
        scalar = graph_module.solve_one_channel

        def recording(gain_lists, channel, members_by_bs, *args, **kwargs):
            systems.append((channel, [list(row) for row in members_by_bs]))
            return scalar(gain_lists, channel, members_by_bs, *args, **kwargs)

        monkeypatch.setattr(graph_module, "solve_one_channel", recording)
        monkeypatch.setattr(graph_module, "BATCH_MIN_MISSES", math.inf)
        _grouping, _solution, trace = run_game(gains, scenario, finder="fga")
        assert len(systems) == trace.memo_solves > 1000
        pow2r = np.exp2(scenario.spectral_rates())
        res = _assert_batch_matches_scalar(gains.gain, systems, pow2r, scenario.noise_power_w)
        assert res.feasible.any() and not res.feasible.all()
        assert (res.iterations > 2).any()
        # batches of other sizes, K = 1 included
        for lo, hi in ((0, 1), (1, 8), (8, 40), (40, 200)):
            _assert_batch_matches_scalar(gains.gain, systems[lo:hi], pow2r, scenario.noise_power_w)

    def test_random_batches(self):
        rng = np.random.default_rng(91)
        verdicts = set()
        for _trial in range(60):
            num_bs = int(rng.integers(1, 5))
            num_ch = int(rng.integers(1, 4))
            num_users = int(rng.integers(1, 25))
            # coarse gain levels make CCINR ties between users of one row
            gain = rng.choice([0.25, 0.5, 1.0, 2.0, 4.0], (num_bs, num_ch, num_users)) * 1e-9
            pow2r = np.exp2(rng.choice([0.0, 0.5, 1.0, 2.0, 3.0], num_users))
            sigma2 = float(rng.choice([1e-12, 1e-10, 1e-9]))
            count = int(rng.choice([1, 2, 5, 30]))
            max_row = int(rng.choice([1, 4, 12]))
            systems = _random_systems(rng, num_bs, num_ch, num_users, count, max_row)
            res = _assert_batch_matches_scalar(gain, systems, pow2r, sigma2)
            verdicts |= set(zip(res.feasible.tolist(), (res.iterations > 2).tolist()))
        # feasible and infeasible systems; some feasible ones reorder
        assert {(True, True), (True, False), (False, False)} <= verdicts

    def test_singular_empty_and_single_user_rows(self):
        # On channel 0 every gain is 0.5 and users 0 and 1 have 2^r = 2, so
        # w = 2 exactly and eliminating the first column of the coupling
        # system leaves a zero pivot; BS 2 has no users there.
        gain = np.full((3, 2, 4), 0.5)
        gain[:, 1, :] = [[0.5, 0.25, 2.0, 1.0], [0.125, 0.5, 1.0, 4.0], [1.0, 1.0, 0.5, 2.0]]
        pow2r = np.array([2.0, 2.0, 3.0, 1.5])
        systems = [
            (0, [[0], [1], []]),  # singular
            (0, [[], [], []]),  # nobody on the channel
            (1, [[0], [], []]),  # one user alone
            (1, [[0, 2], [1], [3]]),
            (0, [[0, 2], [], [1, 3]]),
        ]
        a, _b = assemble_coupling([gain[m, 0].tolist() for m in range(3)], ((0,), (1,), ()), pow2r.tolist(), 1e-3)
        assert a == [[-1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [0.0, 0.0, -1.0]]
        res = _assert_batch_matches_scalar(gain, systems, pow2r, 1e-3)
        assert res.feasible.tolist()[:3] == [False, True, True]
        assert res.iterations[0] == 1
        for k in range(len(systems)):
            _assert_batch_matches_scalar(gain, systems[k : k + 1], pow2r, 1e-3)

    def test_pad_slot_next_to_a_zero_gain(self):
        # BS 1's row is padded, and its gain to user 0 is exactly 0. A pad
        # slot that took user 0's gain as its own would make the coupling
        # NaN and the system infeasible at iteration 1.
        gain = np.full((2, 1, 4), 1e-13)
        gain[0, 0, [0, 2]] = 5e-10, 2e-10
        gain[1, 0, 1] = 3e-10
        gain[1, 0, 0] = 0.0
        res = _assert_batch_matches_scalar(gain, [(0, [[0, 2], [1]])], np.full(4, 2.0), 1e-15)
        assert res.feasible.tolist() == [True] and res.iterations.tolist() == [2]
        assert res.powers[0].tolist() == pytest.approx([9.0017e-06, 3.3363e-06], rel=1e-4)

    def test_zero_own_gain_is_infeasible_on_both_paths(self):
        # User 0's gain from its own BS is exactly 0, so no power serves it:
        # both paths stop at iteration 1 with zero powers, under every rule.
        gain = np.full((2, 1, 3), 1e-10)
        gain[0, 0, 0] = 0.0
        res = _assert_batch_matches_scalar(gain, [(0, [[0, 2], [1]])], np.full(3, 2.0), 1e-15)
        assert res.feasible.tolist() == [False] and res.iterations.tolist() == [1]
        for rule in ORDER_RULES:
            ref = solve_one_channel(gain.tolist(), 0, [[0, 2], [1]], [2.0] * 3, 1e-15, order_rule=rule)
            assert (ref.powers, ref.iterations, ref.feasible) == ([0.0, 0.0], 1, False)


# Gain levels: 0, denormals, the smallest normal, and a coarse grid whose
# repeats make CCINR ties between users of one row.
_SPECIAL_GAINS = (0.0, 5e-324, 1e-310, 2.2250738585072014e-308)
_TIE_GAINS = (1e-12, 1e-10, 4e-10, 1e-8)


@st.composite
def _kernel_inputs(draw):
    """A gain table, pow2r, sigma2 and 1-64 systems of 1-6 BSs with groups of 0-7 users.

    Hypothesis draws the shapes, the ranges and the share of each kind of
    value; numpy draws the values from a drawn seed. The gains that are
    neither special nor tied span 1, 4 or 12 decades below 1e-4. The rates
    span 3 decades below 0.1, 1 or 10 bit/s/Hz, and some are exactly 0.
    """
    num_bs = draw(st.integers(1, 6))
    num_ch = draw(st.integers(1, 3))
    num_users = draw(st.integers(1, 48))
    count = draw(st.integers(1, 64))
    max_row = draw(st.integers(0, 7))
    special_share, tie_share, zero_rate_share = (draw(st.sampled_from([0.0, 0.05, 0.3])) for _ in range(3))
    span = draw(st.sampled_from([1.0, 4.0, 12.0]))
    top = draw(st.sampled_from([-1.0, 0.0, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (num_bs, num_ch, num_users)
    gain = 10.0 ** rng.uniform(-4.0 - span, -4.0, shape)
    tie = rng.random(shape) < tie_share
    gain[tie] = rng.choice(_TIE_GAINS, int(tie.sum()))
    special = rng.random(shape) < special_share
    gain[special] = rng.choice(_SPECIAL_GAINS, int(special.sum()))
    rates = 10.0 ** rng.uniform(top - 3.0, top, num_users)
    rates[rng.random(num_users) < zero_rate_share] = 0.0
    sigma2 = float(10.0 ** rng.uniform(-15.0, -9.0))
    systems = _random_systems(rng, num_bs, num_ch, num_users, count, max_row)
    return gain, systems, np.exp2(rates), sigma2


class TestKernelContract:
    """Both kernel paths agree bit for bit over the whole input domain."""

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(_kernel_inputs())
    def test_paths_agree_on_random_systems(self, inputs):
        _assert_batch_matches_scalar(*inputs)


class TestGroupingIds:
    @pytest.mark.parametrize(
        "channel_of, bs_of",
        [
            ([0.7, 1.9], [0, 0]),  # used to become channels [0, 1]
            ([0, 1], [0.0, 0.5]),
            ([np.nan, 0], [0, 0]),
            ([1e30, 0], [0, 0]),
            (np.array([2**63, 0], dtype=np.uint64), [0, 0]),
            ([[0, 1]], [[0, 0]]),  # used to be accepted with num_users 1
            ([0, 1], [[0], [0]]),
            (0, 0),
        ],
        ids=["fractional-channels", "fractional-bs", "nan", "huge-float", "beyond-int64", "2-d", "2-d-bs", "scalars"],
    )
    def test_rejects_what_is_not_a_vector_of_integer_ids(self, channel_of, bs_of):
        with pytest.raises(ValueError, match="integer ids|1-D vector"):
            Grouping(channel_of=channel_of, bs_of=bs_of)

    def test_integer_values_of_any_dtype_convert(self):
        grouping = Grouping(channel_of=[2.0, -0.0, 1.0], bs_of=np.array([1, 0, 1], dtype=np.int32))
        assert grouping.channel_of.dtype == grouping.bs_of.dtype == np.int64
        assert grouping.channel_of.tolist() == [2, 0, 1]
        empty = Grouping(channel_of=[], bs_of=[])
        assert empty.num_users == 0 and empty.channel_of.dtype == np.int64
        ids = np.array([1, 0], dtype=np.int64)
        assert Grouping(channel_of=ids, bs_of=ids).channel_of is ids  # no copy


class TestSolveAllPowersOutputs:
    def test_no_users_on_three_subchannels(self):
        config = default_config(num_users=0, num_channels=3, num_bs=2, seed=1)
        scenario = generate_scenario(config, 1)
        gains = draw_channel_gains(scenario, 1)
        solution = solve_all_powers(gains, initial_grouping(gains, scenario), scenario)
        assert solution.feasible
        assert solution.p.shape == (0,)
        gp = solution.group_power
        assert gp.shape == (2, 3) and gp.flags["C_CONTIGUOUS"]
        assert gp.tolist() == [[0.0] * 3] * 2 and not np.signbit(gp).any()
        assert list(solution.sic_order.items()) == [((m, g), ()) for g in range(3) for m in range(2)]
        assert solution.fixed_point_iterations == 2

    def test_group_power_is_bs_by_subchannel_in_c_order(self):
        # a pinned power-solve case that both the package and the
        # fixed-point oracle call feasible (bench/seeds.json power_reference)
        scenario, gains = make_instance(50, 10, 4, 90000)
        grouping = gale_shapley_grouping(gains, scenario)
        solution = solve_all_powers(gains, grouping, scenario)
        assert solution.feasible
        gp = solution.group_power
        assert gp.shape == (4, 10) and gp.dtype == np.float64 and gp.flags["C_CONTIGUOUS"]
        p = solution.p
        for (m, g), order in solution.sic_order.items():
            assert_close(gp[m, g], sum(p[n] for n in order), rel=1e-9)

    def test_zero_power_decode_has_the_bits_of_the_interference_sums(self):
        rng = np.random.default_rng(5)
        rows = (10.0 ** rng.uniform(-14.0, -4.0, (3, 9))).tolist()
        rows[1][4] = 0.0
        members = [[0, 4, 7], [1, 2], [3, 5, 6, 8]]
        sigma2 = 7.962143411069939e-16
        for powers in ([0.0, 0.0, 0.0], [-0.0, 0.0, -0.0]):
            expected = []
            for m, mem in enumerate(members):
                group = []
                for n in mem:
                    i_n = 0.0
                    for mp in range(3):
                        if mp != m:
                            i_n += rows[mp][n] * powers[mp]
                    group.append((rows[m][n] / (i_n + sigma2), n, i_n))
                expected.append(group)
            got = power._member_ccinr(rows, members, powers, sigma2)
            assert repr(got) == repr(expected)
            assert all(math.copysign(1.0, i_n) == 1.0 for group in got for _s, _n, i_n in group)
