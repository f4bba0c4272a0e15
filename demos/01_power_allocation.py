"""Walkthrough: decode ordering and coupled power allocation.

Builds a small two-cell network, solves the minimum-power allocation for
a fixed grouping, and verifies the pieces against each other: the decode
order statistic, each group's power from the coupled solve vs. the sum of
its per-user recursion, and the achieved rates vs. the QoS targets.
"""

import numpy as np

from noma_grouping import (
    achieved_rates,
    draw_channel_gains,
    generate_scenario,
    initial_grouping,
    default_config,
    solve_all_powers,
    total_power,
    user_powers,
)

config = default_config(num_users=10, num_channels=3, num_bs=2, seed=0)
scenario = generate_scenario(config, seed=0)
gains = draw_channel_gains(scenario, seed=1)

print(f"{config.num_users} users, {config.num_bs} BSs, {config.num_channels} subchannels")
print(f"noise power sigma^2 = {scenario.noise_power_w:.3e} W")
print(f"target rates: {np.round(scenario.target_rates_bps / 1e3, 1)} kbps")

grouping = initial_grouping(gains, scenario)
print(f"\nstrongest-channel grouping: {grouping.channel_of.tolist()}")

solution = solve_all_powers(gains, grouping, scenario)
print(f"feasible: {solution.feasible}, fixed-point iterations: {solution.fixed_point_iterations}")
print(f"total transmit power: {total_power(solution):.4e} W")

print("\nper-group decode orders (first decoded first) and power split:")
pow2r = np.exp2(scenario.spectral_rates()).tolist()
for (m, g), order in sorted(solution.sic_order.items()):
    if not order:
        continue
    recursed = user_powers(order, solution.ccinr.s, pow2r)
    print(
        f"  BS {m} ch {g}: order {list(order)}  group power {solution.group_power[m, g]:.3e} W "
        f"(= sum of {[f'{recursed[n]:.2e}' for n in order]})"
    )

achieved = achieved_rates(gains, grouping, solution, scenario.noise_power_w, config.bandwidth_hz)
slack = (achieved - scenario.target_rates_bps) / scenario.target_rates_bps
print(f"\nworst QoS slack: {slack.min():.2e} (>= 0 means every target rate is met)")
print(f"mean inter-cell interference: {solution.ccinr.interference.mean():.3e} W")
