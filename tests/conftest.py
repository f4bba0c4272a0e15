"""Shared builders and tolerance helpers for the test suite."""

import numpy as np
import pytest

from noma_grouping import (
    assemble_coupling,
    ccinr,
    decode_orders,
    draw_channel_gains,
    generate_scenario,
    initial_grouping,
    default_config,
    solve_all_powers,
    user_powers,
)
from noma_grouping.power import CCINR_ORDER

REL = 1e-9
FLOOR = 1e-18


def assert_close(a, b, rel=REL, floor=FLOOR, label=""):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    tol = np.maximum(rel * np.maximum(np.abs(a), np.abs(b)), floor)
    ok = np.abs(a - b) <= tol
    assert np.all(ok), f"{label} mismatch: {a} vs {b}"


def is_close(a, b, rel=REL, floor=FLOOR):
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), floor)


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
    num_bs = gains.gain.shape[0]
    rows = [gains.as_lists()[m][g] for m in range(num_bs)]
    powers = [float(group_power[m][g]) for m in range(num_bs)]
    orders = decode_orders(
        rows, grouping.members_by_bs(g, num_bs), pow2r, sigma2, powers, CCINR_ORDER
    )
    return assemble_coupling(rows, orders, pow2r, sigma2)


def jacobi_group_power(gains, grouping, scenario, max_sweeps):
    """Group powers by Jacobi iteration of the per-group recursion, from zero.

    An independent path to the coupled solution: every sweep recomputes the
    CCINR table at the current group powers, then each group's power as the
    recursion sum in ascending-CCINR order. Returns the powers and whether
    two successive sweeps agreed to 1e-13 relative.
    """
    cfg = scenario.config
    sigma2 = scenario.noise_power_w
    pow2r = np.exp2(scenario.spectral_rates()).tolist()
    lists = gains.as_lists()
    members = [grouping.members_by_bs(g, cfg.num_bs) for g in range(cfg.num_channels)]
    gp = np.zeros((cfg.num_bs, cfg.num_channels))
    for _ in range(max_sweeps):
        table = ccinr(gains, grouping, gp, sigma2)
        new = np.zeros_like(gp)
        for g in range(cfg.num_channels):
            rows = [lists[m][g] for m in range(cfg.num_bs)]
            orders = decode_orders(rows, members[g], pow2r, sigma2, gp[:, g].tolist(), CCINR_ORDER)
            for m, order in enumerate(orders):
                new[m, g] = sum(user_powers(order, table.s, pow2r).values())
        done = np.all(np.abs(new - gp) <= np.maximum(1e-13 * np.abs(new), 1e-22))
        gp = new
        if done:
            return gp, True
    return gp, False


@pytest.fixture
def small_multicell():
    scenario, gains = make_instance(12, 3, 2, seed=7)
    return scenario, gains
