"""Tests of the benchmark's pinned inputs, its power-solve verdicts and its tracer."""

import dataclasses
from types import SimpleNamespace

import noma_grouping
import tracing
import workloads


def test_pinned_seeds_are_derived_from_their_base_seed():
    pinned = workloads.pinned_seeds()
    assert workloads.derive_seeds(noma_grouping, pinned["base_seed"]) == pinned


def test_power_verdicts_on_one_pinned_instance():
    # (50, 90001): both fixed-order allocations meet every target at the
    # user's own decoder but leave a user short under SIC.
    pkg = noma_grouping
    workload = workloads.PowerWorkload()
    pinned = workloads.pinned_seeds()
    ops = workload.build(pkg, {"power": [[50, 90001]], "power_reference": pinned["power_reference"]})
    results = [workload.run(pkg, op) for op in ops]
    assert [(op.grouping_name, op.order_rule, op.reference) for op in ops] == [
        ("initial", "ccinr", True),
        ("sccd", "ccinr", False),
        ("gale_shapley", "ccinr", True),
        ("initial", "channel_gain", False),
        ("initial", "rate_descending", False),
    ]
    assert [workload.check(op, r)[0] for op, r in zip(ops, results)] == ["ok", "ok", "ok", "failed", "failed"]
    assert workload.check(ops[0], dataclasses.replace(results[0], feasible=False))[0] == "wrong"


def test_tracer_records_calls_made_inside_the_package():
    pkg = noma_grouping
    original = pkg.graph.solve_one_channel
    inst = workloads.make_instance(pkg, 12, 7)
    tracer = tracing.Tracer()
    tracer.install(pkg)
    try:
        tracer.begin_op(0)
        _grouping, _solution, trace = pkg.game.run_game(inst.gains, inst.scenario, finder="fga")
    finally:
        tracer.uninstall()
    assert pkg.graph.solve_one_channel is original
    names = {span[0] for span in tracer.spans}
    assert {"game", "graph.build", "graph.adjacency", "graph.fga", "power.solve_one_channel"} <= names
    assert tracer.counts["edge_solves"] > 0
    assert tracer.counts["accepted_actions"] == len(trace.iterations)
    assert not tracer.errors
    for own in tracer.self_times():
        assert own >= -1e-9
    metrics = tracer.layer_metrics(1, {"scenario": 0.0, "baselines": 0.0}, 1.0, 1.0, 1.0)
    assert set(metrics) == set(tracing.LAYER_METRICS)
    assert metrics["game.delta_gap_max_rel"]["value"] <= 1e-9


def test_tracer_flags_a_broken_cycle_sum_identity():
    tracer = tracing.Tracer()
    tracer.begin_op(0)
    step = SimpleNamespace(total_power_before_w=2.0, total_power_after_w=1.0)
    tracer._applies.append(("start", "next", -1.0 * (1 + 1e-6)))
    tracer._after_game((), {}, (None, None, SimpleNamespace(iterations=[step])), None, -1)
    assert abs(tracer.delta_gaps[0] - 1e-6) < 1e-12
    assert len(tracer.errors) == 1
