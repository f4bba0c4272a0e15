"""Tests of the benchmark's oracles on hand-solved and random channels."""

import math

import numpy as np
import pytest

import oracles

SIGMA2 = 1e-12


def _two_users_one_cell():
    # S = 10 for user 0 and 5 for user 1; 1 bit/s/Hz each. Decoding user 1
    # first needs 0.1 W for user 0 and 0.3 W for user 1.
    rows = [[10.0 * SIGMA2, 5.0 * SIGMA2]]
    pow2r = [2.0, 2.0]
    return rows, pow2r


def _symmetric_pair(own, cross, rate):
    """Two BSs, one user each on one subchannel, equal gains and rates.

    The fixed point is p = (f - 1) sigma2 / (own - (f - 1) cross) per BS
    when own > (f - 1) cross, and does not exist otherwise.
    """
    rows = [[own, cross], [cross, own]]
    members = [[0], [1]]
    f = 2.0 ** rate
    return rows, members, [f, f]


def _random_channel(rng, num_bs=3, max_group=3):
    sizes = rng.integers(0, max_group + 1, size=num_bs)
    num_users = int(sizes.sum())
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    members = [list(range(bounds[m], bounds[m + 1])) for m in range(num_bs)]
    rows = (10.0 ** rng.uniform(-12, -9, size=(num_bs, num_users))).tolist()
    for m in range(num_bs):
        for n in members[m]:
            rows[m][n] *= 30.0  # own-BS links are stronger
    pow2r = np.exp2(rng.uniform(0.3, 3.0, size=num_users)).tolist()
    return rows, members, pow2r


class TestSicRates:
    def test_hand_case_meets_targets_exactly(self):
        rows, _ = _two_users_one_cell()
        rates = oracles.channel_sic_rates(rows, [[1, 0]], {0: 0.1, 1: 0.3}, SIGMA2)
        assert rates[0] == pytest.approx(1.0, rel=1e-12)
        assert rates[1] == pytest.approx(1.0, rel=1e-12)

    def test_order_against_ccinr_is_limited_by_the_later_decoder(self):
        # Decoding user 0 first: user 1 (S = 5) must also decode it, at
        # 0.1 / (0.3 + 1/5) = 0.2, while user 0's own decoder gets 0.25.
        rows, _ = _two_users_one_cell()
        powers = {0: 0.1, 1: 0.3}
        sic = oracles.channel_sic_rates(rows, [[0, 1]], powers, SIGMA2)
        own = oracles.channel_sic_rates(rows, [[0, 1]], powers, SIGMA2, own_decoder_only=True)
        assert sic[0] == pytest.approx(math.log2(1.2), rel=1e-12)
        assert own[0] == pytest.approx(math.log2(1.25), rel=1e-12)

    def test_interference_comes_from_other_groups(self):
        rows = [[4.0 * SIGMA2, 1.0 * SIGMA2], [2.0 * SIGMA2, 3.0 * SIGMA2]]
        rates = oracles.channel_sic_rates(rows, [[0], [1]], {0: 1.0, 1: 2.0}, SIGMA2)
        s0 = 4.0 * SIGMA2 / (2.0 * SIGMA2 * 2.0 + SIGMA2)
        assert rates[0] == pytest.approx(math.log2(1.0 + s0 * 1.0), rel=1e-12)

    def test_orders_must_cover_each_group(self):
        gain = np.full((1, 1, 2), SIGMA2)
        with pytest.raises(ValueError):
            oracles.sic_rates(gain, [0, 0], [0, 0], [0.1, 0.1], {(0, 0): (0,)}, SIGMA2)


class TestFixedPoint:
    def test_single_cell_is_the_closed_form(self):
        rows, pow2r = _two_users_one_cell()
        verdict, powers, orders = oracles.fixed_point_channel(rows, [[0, 1]], pow2r, SIGMA2)
        assert verdict == "feasible"
        assert orders == ((1, 0),)
        assert powers[0] == pytest.approx(0.4, rel=1e-12)

    def test_symmetric_pair_matches_formula(self):
        own, cross, rate = 1e-10, 2e-11, 1.5
        rows, members, pow2r = _symmetric_pair(own, cross, rate)
        verdict, powers, _ = oracles.fixed_point_channel(rows, members, pow2r, SIGMA2)
        f = 2.0 ** rate
        expected = (f - 1.0) * SIGMA2 / (own - (f - 1.0) * cross)
        assert verdict == "feasible"
        assert powers == pytest.approx([expected, expected], rel=1e-12)

    def test_symmetric_pair_without_fixed_point_diverges(self):
        rows, members, pow2r = _symmetric_pair(1e-10, 1e-10, 1.5)
        verdict, powers, _ = oracles.fixed_point_channel(rows, members, pow2r, SIGMA2)
        assert verdict == "infeasible" and powers is None

    def test_result_is_a_fixed_point_of_the_map(self):
        rng = np.random.default_rng(3)
        checked = 0
        for _ in range(40):
            rows, members, pow2r = _random_channel(rng)
            verdict, powers, orders = oracles.fixed_point_channel(rows, members, pow2r, SIGMA2)
            if verdict != "feasible":
                continue
            image, image_orders = oracles.ccinr_step(rows, members, pow2r, SIGMA2, powers)
            assert image_orders == orders
            assert image == pytest.approx(powers, rel=1e-10)
            checked += 1
        assert checked >= 10


class TestFixedOrderPowers:
    def test_one_cell_equals_closed_form(self):
        rows, pow2r = _two_users_one_cell()
        assert oracles.fixed_order_powers(rows, [[1, 0]], pow2r, SIGMA2) == pytest.approx([0.4], rel=1e-12)

    def test_negative_solution_is_rejected(self):
        rows, members, pow2r = _symmetric_pair(1e-10, 1e-10, 1.5)
        assert oracles.fixed_order_powers(rows, members, pow2r, SIGMA2) is None

    def test_singular_system_is_rejected(self):
        # own == (f - 1) * cross makes I - C singular.
        rows, members, pow2r = _symmetric_pair(1e-10, 1e-10, 1.0)
        assert oracles.fixed_order_powers(rows, members, pow2r, SIGMA2) is None


class TestBruteForce:
    def test_feasible_witness_and_infeasible_verdict(self):
        rows, pow2r = _two_users_one_cell()
        assert oracles.brute_force_channel(rows, [[0, 1]], pow2r, SIGMA2) == ("feasible", ((1, 0),))
        rows, members, pow2r = _symmetric_pair(1e-10, 1e-10, 1.5)
        assert oracles.brute_force_channel(rows, members, pow2r, SIGMA2) == ("infeasible", None)

    def test_too_many_orders_are_unchecked(self):
        rows = [[SIGMA2] * 8]
        verdict, _ = oracles.brute_force_channel(rows, [list(range(8))], [2.0] * 8, SIGMA2)
        assert verdict == "unchecked"

    def test_agrees_with_the_fixed_point_on_random_channels(self):
        # Yates: a channel has a valid allocation exactly when T has a
        # fixed point, and that fixed point is the least power.
        rng = np.random.default_rng(11)
        verdicts = set()
        for _ in range(60):
            rows, members, pow2r = _random_channel(rng)
            brute, orders = oracles.brute_force_channel(rows, members, pow2r, SIGMA2)
            fixed, powers, fp_orders = oracles.fixed_point_channel(rows, members, pow2r, SIGMA2)
            assert brute == fixed
            verdicts.add(brute)
            if brute == "feasible":
                witness = oracles.fixed_order_powers(rows, orders, pow2r, SIGMA2)
                assert sum(powers) <= sum(witness) * (1 + 1e-9)
        assert verdicts == {"feasible", "infeasible"}

    def test_grouping_verdict_needs_every_channel(self):
        gain = np.empty((2, 2, 2))
        gain[:, 0, :] = [[1e-10, 2e-11], [2e-11, 1e-10]]  # feasible pair
        gain[:, 1, :] = [[1e-10, 1e-10], [1e-10, 1e-10]]  # infeasible pair
        pow2r = [2.0 ** 1.5] * 2
        assert oracles.brute_force_grouping(gain, [0, 0], [0, 1], pow2r, SIGMA2) == "feasible"
        assert oracles.brute_force_grouping(gain, [1, 1], [0, 1], pow2r, SIGMA2) == "infeasible"
