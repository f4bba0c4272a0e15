"""Spans and counts recorded at the package's public functions.

The tracer wraps functions of a freshly imported noma_grouping from the
outside: every module attribute bound to a wrapped function is replaced
(graph.py and game.py import several functions by name, so patching the
defining module alone would miss their calls). A span is (name, start,
end, parent span, operation); spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# Layer name -> (module, attribute). LeagueGraph.full_adjacency is a
# method and is patched on the class.
WRAPPED = {
    "scenario.default_config": ("scenario", "default_config"),
    "scenario.generate_scenario": ("scenario", "generate_scenario"),
    "scenario.draw_channel_gains": ("scenario", "draw_channel_gains"),
    "baselines.sccd_grouping": ("baselines", "sccd_grouping"),
    "baselines.gale_shapley_grouping": ("baselines", "gale_shapley_grouping"),
    "power.solve_one_channel": ("power", "solve_one_channel"),
    "power.solve_all_powers": ("power", "solve_all_powers"),
    "graph.build": ("graph", "build_graph"),
    "graph.adjacency": ("graph", "LeagueGraph.full_adjacency"),
    "graph.fga": ("graph", "fga_candidates"),
    "graph.eba": ("graph", "find_negative_loop_eba"),
    "graph.apply": ("graph", "apply_league"),
    "game": ("game", "run_game"),
}

# The cycle-sum identity: an accepted league's predicted change of total
# power equals the realized change to this relative tolerance.
DELTA_GAP_LIMIT = 1e-9

# Per-layer metrics, in the order they are reported: name -> unit.
# Counts and self times are per operation of the workload; self time is
# a span's duration minus the time its child spans cover.
LAYER_METRICS = {
    "scenario.instances_s": "s",
    "baselines.grouping_s": "s",
    "power.solve_one_channel.calls": "count/op",
    "power.solve_one_channel.self_s": "s/op",
    "power.solve_one_channel.us_per_call": "us",
    "power.solve_one_channel.iterations_mean": "count",
    "power.solve_one_channel.feasible_share": "share",
    "power.solve_all_powers.calls": "count/op",
    "power.solve_all_powers.self_s": "s/op",
    "graph.build.calls": "count/op",
    "graph.build.self_s": "s/op",
    "graph.adjacency.self_s": "s/op",
    "graph.edge_solves": "count/op",
    "graph.edge_solves.repeat_share": "share",
    "graph.fga.calls": "count/op",
    "graph.fga.self_s": "s/op",
    "graph.fga.candidates_mean": "count",
    "graph.eba.calls": "count/op",
    "graph.eba.self_s": "s/op",
    "graph.eba.budget_exhaustions": "count/op",
    "graph.eba.complete_share": "share",
    "game.accepted_actions": "count/op",
    "game.candidates_tried": "count/op",
    "game.accept_share": "share",
    "game.revalidate.self_s": "s/op",
    "game.delta_gap_max_rel": "ratio",
    "trace.ops_per_s": "1/s",
    "trace.overhead_share": "share",
}


def _resolve(module, dotted: str):
    owner = module
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Records spans and counts while installed on a noma_grouping import."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: int | None = None
        self.counts: Counter = Counter()
        self.delta_gaps: list[float] = []
        self.errors: list[str] = []
        self._edge_keys: set = set()
        self._applies: list[tuple] = []
        self._patches: list[tuple] = []
        self._eba_exhausted = None

    # -- installation ---------------------------------------------------
    def install(self, pkg) -> None:
        """Wrap every function in WRAPPED on this import of the package."""
        hooks = {
            "power.solve_one_channel": self._after_channel_solve,
            "graph.fga": self._after_fga,
            "graph.eba": self._after_eba,
            "graph.apply": self._after_apply,
            "game": self._after_game,
        }
        modules = [
            mod
            for name, mod in sys.modules.items()
            if name == pkg.__name__ or name.startswith(pkg.__name__ + ".")
        ]
        for name, (mod_name, dotted) in WRAPPED.items():
            owner, attr = _resolve(getattr(pkg, mod_name), dotted)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, hooks.get(name))
            if owner is getattr(pkg, mod_name):
                targets = [m for m in modules if getattr(m, attr, None) is original]
            else:
                targets = [owner]
            for target in targets:
                self._patches.append((target, attr, original))
                setattr(target, attr, wrapper)
        self._eba_exhausted = pkg.graph.EbaBudgetExhausted

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn, after):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = time.perf_counter()
                stack.pop()
                if after is not None:
                    after(args, kwargs, None, exc, parent)
                raise
            span[2] = time.perf_counter()
            stack.pop()
            if after is not None:
                after(args, kwargs, result, None, parent)
            return result

        return wrapper

    # -- hooks ------------------------------------------------------------
    def begin_op(self, op: int) -> None:
        self.op = op
        self._edge_keys.clear()
        self._applies.clear()

    def _parent_name(self, parent: int):
        return self.spans[parent][0] if parent >= 0 else None

    def _after_channel_solve(self, args, kwargs, result, exc, parent):
        if result is None:
            return
        self.counts["channel_iterations"] += result.iterations
        self.counts["channel_feasible"] += bool(result.feasible)
        if self._parent_name(parent) == "graph.adjacency":
            channel = args[1] if len(args) > 1 else kwargs["channel"]
            members = args[2] if len(args) > 2 else kwargs["members_by_bs"]
            key = (channel, tuple(tuple(row) for row in members))
            self.counts["edge_solves"] += 1
            if key in self._edge_keys:
                self.counts["edge_repeats"] += 1
            else:
                self._edge_keys.add(key)

    def _after_fga(self, args, kwargs, result, exc, parent):
        if result is not None:
            self.counts["fga_candidates"] += len(result)

    def _after_eba(self, args, kwargs, result, exc, parent):
        if exc is None:
            self.counts["eba_complete"] += 1
        elif isinstance(exc, self._eba_exhausted):
            self.counts["eba_exhausted"] += 1

    def _after_apply(self, args, kwargs, result, exc, parent):
        if result is None or self._parent_name(parent) != "game":
            return
        grouping, league = args[0], args[1]
        self._applies.append((grouping.key(), result.key(), league.predicted_delta_w))

    def _after_game(self, args, kwargs, result, exc, parent):
        if result is None:
            return
        _grouping, _solution, trace = result
        steps = trace.iterations
        self.counts["accepted_actions"] += len(steps)
        # The accepted candidate from state k is the last one tried from k:
        # after it the game never returns to k (no grouping repeats).
        last_from: dict = {}
        states: list = []
        for before, after, predicted in self._applies:
            if before not in last_from:
                states.append(before)
            last_from[before] = (after, predicted)
        if len(states) < len(steps):
            self.errors.append(f"operation {self.op}: {len(steps)} accepted actions but {len(states)} states tried")
            return
        for k, step in enumerate(steps):
            after, predicted = last_from[states[k]]
            if k + 1 < len(states) and after != states[k + 1]:
                self.errors.append(f"operation {self.op}: accepted leagues do not chain at step {k}")
                return
            realized = step.total_power_after_w - step.total_power_before_w
            gap = abs(predicted - realized) / abs(realized)
            self.delta_gaps.append(gap)
            if gap > DELTA_GAP_LIMIT:
                self.errors.append(f"operation {self.op}: step {k} realized {realized} W, league predicted {predicted} W")

    # -- results ----------------------------------------------------------
    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - cov for (_n, start, end, _p, _o), cov in zip(self.spans, covered)]

    def layer_metrics(
        self, ops: int, setup_layer_s: dict, ops_per_s: float, untraced_ops_per_s: float, time_scale: float
    ) -> dict:
        """Per-layer metrics of the traced rounds (`ops` operations); see LAYER_METRICS.

        Span times are multiplied by time_scale, which takes them to the
        reference machine speed of speed.py.
        """
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for (name, _s, _e, parent, _op), own in zip(self.spans, self.self_times()):
            calls[name] += 1
            own *= time_scale
            self_s[name] += own
            if name == "power.solve_all_powers" and self._parent_name(parent) == "game":
                self_s["game.revalidate"] += own
            if name == "graph.apply" and self._parent_name(parent) == "game":
                calls["game.candidates_tried"] += 1
        c = self.counts
        solves = calls["power.solve_one_channel"]
        eba_calls = calls["graph.eba"]
        values = {
            "scenario.instances_s": setup_layer_s["scenario"],
            "baselines.grouping_s": setup_layer_s["baselines"],
            "power.solve_one_channel.calls": _ratio(solves, ops),
            "power.solve_one_channel.self_s": _ratio(self_s["power.solve_one_channel"], ops),
            "power.solve_one_channel.us_per_call": _ratio(1e6 * self_s["power.solve_one_channel"], solves),
            "power.solve_one_channel.iterations_mean": _ratio(c["channel_iterations"], solves),
            "power.solve_one_channel.feasible_share": _ratio(c["channel_feasible"], solves),
            "power.solve_all_powers.calls": _ratio(calls["power.solve_all_powers"], ops),
            "power.solve_all_powers.self_s": _ratio(self_s["power.solve_all_powers"], ops),
            "graph.build.calls": _ratio(calls["graph.build"], ops),
            "graph.build.self_s": _ratio(self_s["graph.build"], ops),
            "graph.adjacency.self_s": _ratio(self_s["graph.adjacency"], ops),
            "graph.edge_solves": _ratio(c["edge_solves"], ops),
            "graph.edge_solves.repeat_share": _ratio(c["edge_repeats"], c["edge_solves"]),
            "graph.fga.calls": _ratio(calls["graph.fga"], ops),
            "graph.fga.self_s": _ratio(self_s["graph.fga"], ops),
            "graph.fga.candidates_mean": _ratio(c["fga_candidates"], calls["graph.fga"]),
            "graph.eba.calls": _ratio(eba_calls, ops),
            "graph.eba.self_s": _ratio(self_s["graph.eba"], ops),
            "graph.eba.budget_exhaustions": _ratio(c["eba_exhausted"], ops),
            "graph.eba.complete_share": _ratio(c["eba_complete"], eba_calls),
            "game.accepted_actions": _ratio(c["accepted_actions"], ops),
            "game.candidates_tried": _ratio(calls["game.candidates_tried"], ops),
            "game.accept_share": _ratio(c["accepted_actions"], calls["game.candidates_tried"]),
            "game.revalidate.self_s": _ratio(self_s["game.revalidate"], ops),
            "game.delta_gap_max_rel": max(self.delta_gaps, default=0.0),
            "trace.ops_per_s": ops_per_s,
            "trace.overhead_share": 1.0 - _ratio(ops_per_s, untraced_ops_per_s),
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()}

    def layer_time(self, prefix: str) -> float:
        """Total duration of the spans of one layer, nested ones counted once."""
        total = 0.0
        for name, start, end, parent, _op in self.spans:
            if name.startswith(prefix) and not (parent >= 0 and self.spans[parent][0].startswith(prefix)):
                total += end - start
        return total

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}))
                fh.write("\n")

