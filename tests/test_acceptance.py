"""Acceptance suite: one test per release criterion, one PASS line each.

The heavy multi-cell criteria condition on instances whose starting
grouping is powerable at all (dense QoS draws can make the coupled system
diverge for every strategy; comparisons are only defined where a solution
exists). Screening is deterministic, so every run sees the same instances.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import math
import time

import numpy as np
import pytest

from conftest import (
    assert_close,
    channel_system,
    jacobi_group_power,
    make_instance,
    single_cell_group,
)
from noma_grouping import (
    League,
    achieved_rates,
    apply_league,
    build_graph,
    enumerate_leagues,
    exhaustive_best_grouping,
    gale_shapley_grouping,
    initial_grouping,
    is_nash_equilibrium,
    run_game,
    sccd_grouping,
    solve_all_powers,
    solve_coupling,
    user_powers,
)
from noma_grouping.power import total_power_or_inf


def _report(num, detail):
    print(f"\n[criterion {num:02d}] PASS - {detail}")


def _screened_benchmark_instance(num_users, seed):
    """Next feasible-start default-layout instance at or after `seed`."""
    while True:
        scenario, gains = make_instance(num_users, 10, 4, seed)
        grouping = initial_grouping(gains, scenario)
        solution = solve_all_powers(gains, grouping, scenario)
        if solution.feasible:
            return scenario, gains, grouping, solution, seed + 1
        seed += 1


def _recursion_total(order, s_vals, rates):
    acc = 0.0
    total = 0.0
    for n in reversed(order):
        p = (2.0 ** rates[n] - 1.0) * (1.0 / s_vals[n] + acc)
        acc += p
        total += p
    return total


# ----------------------------------------------------------------------
# criterion 1: the ascending-CCINR decode order is power optimal
# ----------------------------------------------------------------------
def test_criterion_01_order_optimality():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    violations = 0
    for _ in range(1000):
        k = int(rng.integers(2, 6))
        s_vals = rng.uniform(1e-2, 1e3, k)
        rates = rng.uniform(0.0, 3.0, k)
        _order, best, _pow2r = single_cell_group(s_vals, rates)
        for perm in itertools.permutations(range(k)):
            other = _recursion_total(list(perm), s_vals, rates)
            if best > other * (1 + 1e-9):
                violations += 1
                break
    elapsed = time.perf_counter() - start
    assert violations == 0
    assert elapsed < 10.0
    _report(1, f"1000 groups, exhaustive permutations, 0 violations, {elapsed:.2f}s")


# ----------------------------------------------------------------------
# criterion 2: closed-form group power (the coupling assembly) equals the
# recursion sum
# ----------------------------------------------------------------------
def test_criterion_02_closed_form_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(10000):
        k = int(rng.integers(1, 7))
        s_vals = rng.uniform(1e-3, 1e3, k)
        rates = rng.uniform(0.0, 3.0, k)
        order, closed, pow2r = single_cell_group(s_vals, rates)
        summed = sum(user_powers(order, s_vals, pow2r).values())
        if closed > 0:
            worst = max(worst, abs(closed - summed) / closed)
        assert abs(closed - summed) <= max(1e-12 * closed, 1e-30)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(2, f"10000 groups, worst rel err {worst:.2e}, {elapsed:.2f}s")


# ----------------------------------------------------------------------
# criteria 3 + 4 share 500 feasible multi-cell instances
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def feasible_multicell_batch():
    rng = np.random.default_rng(303)
    batch = []
    seed = 0
    while len(batch) < 500:
        num_users = int(rng.integers(8, 31))
        num_channels = int(rng.integers(2, 6))
        scenario, gains = make_instance(num_users, num_channels, 4, 30000 + seed)
        seed += 1
        grouping = initial_grouping(gains, scenario)
        solution = solve_all_powers(gains, grouping, scenario)
        if solution.feasible:
            batch.append((scenario, gains, grouping, solution))
    return batch


def test_criterion_03_lu_equals_jacobi_and_norm_identity(feasible_multicell_batch):
    start = time.perf_counter()
    for scenario, gains, grouping, solution in feasible_multicell_batch:
        # independent path: nonlinear Jacobi iteration of the recursion
        gp, converged = jacobi_group_power(gains, grouping, scenario, 500000)
        assert converged
        assert_close(gp, solution.group_power, label="jacobi vs LU")
        # total power equals the sum of per-channel solved 1-norms
        pow2r = np.exp2(scenario.spectral_rates()).tolist()
        total = 0.0
        for g in range(scenario.config.num_channels):
            a, b = channel_system(
                gains, grouping, pow2r, scenario.noise_power_w, solution.group_power, g
            )
            powers = solve_coupling(a, b)
            assert powers is not None
            total += float(np.sum(powers))
        assert_close(total, float(np.sum(solution.p)), label="norm identity")
    elapsed = time.perf_counter() - start
    _report(3, f"500 feasible instances, LU=Jacobi and norm identity at 1e-9, {elapsed:.1f}s")


def test_criterion_04_qos(feasible_multicell_batch):
    violations = 0
    for scenario, gains, grouping, solution in feasible_multicell_batch:
        rates = achieved_rates(
            gains, grouping, solution, scenario.noise_power_w, scenario.config.bandwidth_hz
        )
        if not np.all(rates >= scenario.target_rates_bps * (1 - 1e-9)):
            violations += 1
    assert violations == 0
    _report(4, "500 feasible solves, every achieved rate meets its target")


# ----------------------------------------------------------------------
# criterion 5: cycle weight sums equal recomputed power deltas
# ----------------------------------------------------------------------
def test_criterion_05_cycle_sum_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    checked = 0
    for inst in range(200):
        scenario, gains = make_instance(10, 4, 1, 50000 + inst)
        grouping = initial_grouping(gains, scenario)
        base = solve_all_powers(gains, grouping, scenario)
        assert base.feasible  # single cell is uncoupled, always solvable
        base_total = total_power_or_inf(base)
        graph = build_graph(gains, scenario, grouping, 0)
        cycles_done = 0
        guard = 0
        while cycles_done < 50:
            guard += 1
            assert guard < 2000
            length = int(rng.integers(2, 5))
            order = rng.permutation(graph.num_nodes)
            cycle = []
            used = set()
            for i in order:
                g = graph.node_groups[i]
                if g not in used:
                    cycle.append(int(i))
                    used.add(g)
                if len(cycle) == length:
                    break
            if len(cycle) < length:
                continue
            predicted = sum(
                graph.weight(cycle[k], cycle[(k + 1) % length]) for k in range(length)
            )
            if not math.isfinite(predicted):
                continue
            league = League(
                cycle=[graph.nodes[i] for i in cycle],
                predicted_delta_w=predicted,
                groups=tuple(graph.node_groups[i] for i in cycle),
            )
            after = solve_all_powers(gains, apply_league(grouping, league), scenario)
            actual = total_power_or_inf(after) - base_total
            assert_close(predicted, actual, label="cycle sum identity")
            cycles_done += 1
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 200 * 50
    _report(5, f"200 instances x 50 cycles, identity at 1e-9, {elapsed:.1f}s")


# ----------------------------------------------------------------------
# criterion 6: converged exact search leaves no league behind
# ----------------------------------------------------------------------
def test_criterion_06_all_stability():
    start = time.perf_counter()
    converged_cases = 0
    seed = 60000
    draws = 0
    while converged_cases < 100:
        draws += 1
        assert draws < 3000
        scenario, gains = make_instance(9, 3, 2, seed, rate_range=(60e3, 300e3))
        seed += 1
        if max(len(scenario.users_of_bs(m)) for m in range(2)) > 6:
            continue
        grouping, solution, trace = run_game(gains, scenario, finder="eba")
        if not solution.feasible:
            continue
        assert trace.converged
        assert trace.eba_budget_exhaustions == 0
        leagues = enumerate_leagues(gains, scenario, grouping, 3)
        assert leagues == []
        converged_cases += 1
    elapsed = time.perf_counter() - start
    _report(6, f"100/100 converged tiny instances league-free ({draws} draws, {elapsed:.1f}s)")


# ----------------------------------------------------------------------
# criterion 7: finite improvement property at benchmark scale
# ----------------------------------------------------------------------
def test_criterion_07_finite_improvement():
    start = time.perf_counter()
    seed = 70000
    action_counts = []
    for _ in range(200):
        scenario, gains, grouping, solution, seed = _screened_benchmark_instance(50, seed)
        final, final_sol, trace = run_game(gains, scenario, finder="fga", alpha=5.0)
        assert trace.converged
        seen = {initial_grouping(gains, scenario).key()}
        current = initial_grouping(gains, scenario)
        last = math.inf
        for step in trace.iterations:
            assert step.total_power_after_w < step.total_power_before_w
            assert step.total_power_after_w < last
            last = step.total_power_after_w
            current = current.with_moves(step.action.moves)
            key = current.key()
            assert key not in seen
            seen.add(key)
        action_counts.append(len(trace.iterations))
    median = float(np.median(action_counts))
    elapsed = time.perf_counter() - start
    assert median <= 30.0
    _report(
        7,
        f"200 runs strictly decreasing, no repeats, median actions {median:.0f} <= 30, "
        f"{elapsed:.0f}s",
    )


# ----------------------------------------------------------------------
# criterion 8: decode-order comparison at benchmark scale
# ----------------------------------------------------------------------
def test_criterion_08_decoding_order_comparison():
    start = time.perf_counter()
    seed = 80000
    sweep = (50, 55, 60, 65, 70, 75)
    wins_cg = 0
    wins_rd = 0
    finite_triples = []
    for k in range(100):
        scenario, gains, grouping, solution, seed = _screened_benchmark_instance(
            sweep[k % len(sweep)], seed
        )
        p_ccinr = total_power_or_inf(solution)
        p_cg = total_power_or_inf(
            solve_all_powers(gains, grouping, scenario, order_rule="channel_gain")
        )
        p_rd = total_power_or_inf(
            solve_all_powers(gains, grouping, scenario, order_rule="rate_descending")
        )
        wins_cg += p_ccinr <= p_cg * (1 + 1e-9)
        wins_rd += p_ccinr <= p_rd * (1 + 1e-9)
        if math.isfinite(p_cg) and math.isfinite(p_rd):
            finite_triples.append((p_ccinr, p_cg, p_rd))
    elapsed = time.perf_counter() - start
    assert wins_cg >= 95
    assert wins_rd >= 95
    assert len(finite_triples) >= 10
    mean_ccinr = float(np.mean([t[0] for t in finite_triples]))
    mean_cg = float(np.mean([t[1] for t in finite_triples]))
    mean_rd = float(np.mean([t[2] for t in finite_triples]))
    assert mean_ccinr <= mean_cg
    assert mean_ccinr <= mean_rd
    assert elapsed < 300.0
    _report(
        8,
        f"100 trials: win-or-tie {wins_cg}/{wins_rd} of 100, means "
        f"{mean_ccinr:.3e} <= {mean_cg:.3e} (gain order), {mean_rd:.3e} (rate order), "
        f"{elapsed:.0f}s",
    )


# ----------------------------------------------------------------------
# criterion 9: strategy ordering at benchmark scale
# ----------------------------------------------------------------------
def test_criterion_09_strategy_comparison():
    start = time.perf_counter()
    seed = 90000
    sweep = (50, 55, 60, 65)
    rows = []
    for k in range(100):
        scenario, gains, grouping, solution, seed = _screened_benchmark_instance(
            sweep[k % len(sweep)], seed
        )
        _g, s_eba, tr_eba = run_game(gains, scenario, finder="eba")
        _g, s_fga, _tr = run_game(gains, scenario, finder="fga", alpha=5.0)
        s_sccd = solve_all_powers(gains, sccd_grouping(gains, scenario), scenario)
        s_gs = solve_all_powers(gains, gale_shapley_grouping(gains, scenario), scenario)

        def interference(sol):
            return float(np.mean(sol.ccinr.interference)) if sol.feasible else math.nan

        rows.append(
            {
                "eba": total_power_or_inf(s_eba),
                "fga": total_power_or_inf(s_fga),
                "sccd": total_power_or_inf(s_sccd),
                "gs": total_power_or_inf(s_gs),
                "i_eba": interference(s_eba),
                "i_fga": interference(s_fga),
                "i_sccd": interference(s_sccd),
                "i_gs": interference(s_gs),
                "eba_complete": tr_eba.eba_budget_exhaustions == 0,
            }
        )
    assert all(math.isfinite(r["eba"]) and math.isfinite(r["fga"]) for r in rows)
    mean_eba = float(np.mean([r["eba"] for r in rows]))
    mean_fga = float(np.mean([r["fga"] for r in rows]))
    assert mean_eba <= mean_fga * (1 + 1e-9)
    mean_i_eba = float(np.mean([r["i_eba"] for r in rows]))
    mean_i_fga = float(np.mean([r["i_fga"] for r in rows]))
    assert mean_i_eba <= mean_i_fga * (1 + 1e-6)

    detail = [f"power eba {mean_eba:.3e} <= fga {mean_fga:.3e}"]
    # baselines can be unpowerable at this density; compare on the trials
    # they solve (an infeasible baseline loses by definition)
    for name in ("sccd", "gs"):
        ok = [r for r in rows if math.isfinite(r[name])]
        if ok:
            mean_base = float(np.mean([r[name] for r in ok]))
            mean_fga_ok = float(np.mean([r["fga"] for r in ok]))
            mean_i_base = float(np.mean([r["i_" + name] for r in ok]))
            mean_i_fga_ok = float(np.mean([r["i_fga"] for r in ok]))
            assert mean_fga_ok <= mean_base
            assert mean_i_fga_ok <= mean_i_base
            detail.append(f"fga <= {name} on {len(ok)} solvable trials")
        else:
            detail.append(f"{name} never feasible (counts as +inf)")
    complete = [r for r in rows if r["eba_complete"]]
    if complete:
        near = all(r["fga"] <= r["eba"] * 1.05 for r in complete)
        assert near
        detail.append(f"fga within 5% of eba on {len(complete)} budget-complete trials")
    else:
        detail.append("no trial completed the exact-search budget (scale-expected)")
    elapsed = time.perf_counter() - start
    _report(9, "; ".join(detail) + f", {elapsed:.0f}s")


# ----------------------------------------------------------------------
# criterion 10: greedy restart factor plateau
# ----------------------------------------------------------------------
def test_criterion_10_alpha_plateau():
    start = time.perf_counter()
    seed = 100000
    p5 = []
    p10 = []
    for _ in range(50):
        scenario, gains, grouping, solution, seed = _screened_benchmark_instance(50, seed)
        _g, s5, _t = run_game(gains, scenario, finder="fga", alpha=5.0)
        _g, s10, _t = run_game(gains, scenario, finder="fga", alpha=10.0)
        p5.append(total_power_or_inf(s5))
        p10.append(total_power_or_inf(s10))
    mean5 = float(np.mean(p5))
    mean10 = float(np.mean(p10))
    rel = abs(mean5 - mean10) / mean10
    elapsed = time.perf_counter() - start
    assert rel <= 0.01
    _report(10, f"alpha 5 vs 10 means differ {100 * rel:.2f}% <= 1%, {elapsed:.0f}s")


# ----------------------------------------------------------------------
# criterion 11: single-cell convergence scale
# ----------------------------------------------------------------------
def test_criterion_11_single_cell_iterations():
    start = time.perf_counter()
    counts = []
    for s in range(25):
        scenario, gains = make_instance(50, 26, 1, 110000 + s)
        _g, solution, trace = run_game(gains, scenario, finder="fga", alpha=5.0)
        assert solution.feasible and trace.converged
        counts.append(len(trace.iterations))
    mean_iters = float(np.mean(counts))
    elapsed = time.perf_counter() - start
    assert mean_iters <= 40.0
    _report(11, f"26 groups, 50 users: mean accepted actions {mean_iters:.1f} <= 40, {elapsed:.0f}s")


# ----------------------------------------------------------------------
# criterion 12: oracle dominance on tiny instances
# ----------------------------------------------------------------------
def test_criterion_12_oracle_dominance():
    start = time.perf_counter()
    done = 0
    seed = 120000
    draws = 0
    while done < 50:
        draws += 1
        assert draws < 2000
        n_users = 6 + (done % 2)
        scenario, gains = make_instance(n_users, 3, 2, seed, rate_range=(60e3, 300e3))
        seed += 1
        grouping = initial_grouping(gains, scenario)
        if not solve_all_powers(gains, grouping, scenario).feasible:
            continue
        best, best_total = exhaustive_best_grouping(gains, scenario)
        _g, s_eba, _t = run_game(gains, scenario, finder="eba")
        p_eba = total_power_or_inf(s_eba)
        p_sccd = total_power_or_inf(
            solve_all_powers(gains, sccd_grouping(gains, scenario), scenario)
        )
        p_gs = total_power_or_inf(
            solve_all_powers(gains, gale_shapley_grouping(gains, scenario), scenario)
        )
        assert best_total <= p_eba * (1 + 1e-9)
        assert p_eba <= p_sccd * (1 + 1e-9)
        assert p_eba <= p_gs * (1 + 1e-9)
        assert is_nash_equilibrium(gains, scenario, best, 3)
        done += 1
    elapsed = time.perf_counter() - start
    _report(12, f"50 instances: optimum <= eba <= both baselines, optimum stable, {elapsed:.0f}s")
