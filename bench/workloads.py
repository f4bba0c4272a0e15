"""Inputs, operations and output checks of the three workloads.

Instances are paper-scale downlinks (G = 10 subchannels, M = 4 BSs,
N in SIZES users) derived from pinned seeds exactly as the test suite's
make_instance derives them, so a seed names the same instance in both.
Every check compares the package's answer with an oracle in oracles.py.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles

NUM_CHANNELS = 10
NUM_BS = 4
SIZES = (50, 55, 60, 65)
GAME_STARTS_PER_SIZE = 1
POWER_SEEDS_PER_SIZE = 10
ALPHA = 5.0
SEEDS_FILE = Path(__file__).with_name("seeds.json")
POWER_REL_TOL = 1e-9


@dataclass
class Instance:
    """One network draw plus the plain arrays the oracles read."""

    num_users: int
    seed: int
    scenario: object
    gains: object

    def __post_init__(self):
        self.gain = self.gains.gain
        self.rates = self.scenario.target_rates_bps / self.scenario.config.bandwidth_hz
        self.pow2r = np.exp2(self.rates).tolist()
        self.sigma2 = self.scenario.noise_power_w


def make_instance(pkg, num_users: int, seed: int) -> Instance:
    """One scenario and fading draw, as tests/conftest.make_instance makes it."""
    ss = np.random.SeedSequence((seed, num_users, NUM_CHANNELS, NUM_BS))
    s_scen, s_gain = [int(x) for x in ss.generate_state(2, np.uint64)]
    sc = pkg.scenario
    config = sc.default_config(
        num_users=num_users, num_channels=NUM_CHANNELS, num_bs=NUM_BS, seed=s_scen
    )
    scenario = sc.generate_scenario(config, s_scen)
    return Instance(num_users, seed, scenario, sc.draw_channel_gains(scenario, s_gain))


def own_start(inst: Instance) -> np.ndarray:
    """Starting subchannels: each user's strongest own-BS subchannel."""
    assoc = inst.scenario.association
    return np.argmax(inst.gain[assoc, :, np.arange(inst.num_users)], axis=1)


def close(a: float, b: float, rel: float = POWER_REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def rate_errors(inst, channel_of, bs_of, solution, orders, label, own_decoder_only=False) -> list:
    """Errors when a user misses its target rate under the given orders."""
    try:
        achieved = oracles.sic_rates(
            inst.gain, channel_of, bs_of, solution.p, orders, inst.sigma2, own_decoder_only
        )
    except ValueError as exc:
        return [f"{label}: {exc}"]
    if not oracles.rates_met(achieved, inst.rates):
        where = "at its own decoder" if own_decoder_only else "under SIC"
        return [f"{label}: a user misses its target rate {where}"]
    return []


# ----------------------------------------------------------------------
# Pinned seeds
# ----------------------------------------------------------------------
def derive_seeds(pkg, base_seed: int) -> dict:
    """Seed lists of every workload, derived from one base seed.

    Game starts are the first seeds from base_seed on whose starting
    grouping both the package and the fixed-point oracle call feasible;
    power-solve takes consecutive seeds unscreened, because infeasible
    verdicts are part of what it measures. Its power figure is taken over
    the CCINR cases that both call feasible ("power_reference"), so that a
    later change to which verdicts are feasible does not change that set.
    """
    game = []
    for n in SIZES:
        seed = base_seed
        found = 0
        while found < GAME_STARTS_PER_SIZE:
            inst = make_instance(pkg, n, seed)
            start = pkg.game.initial_grouping(inst.gains, inst.scenario)
            if pkg.power.solve_all_powers(inst.gains, start, inst.scenario).feasible:
                total = oracles.fixed_point_total(
                    inst.gain, own_start(inst), inst.scenario.association, inst.pow2r, inst.sigma2
                )
                if total is not None:
                    game.append([n, seed])
                    found += 1
            seed += 1
    power = [[n, base_seed + k] for n in SIZES for k in range(POWER_SEEDS_PER_SIZE)]
    reference = []
    for n, seed in power:
        inst = make_instance(pkg, n, seed)
        for name, grouping in power_groupings(pkg, inst).items():
            channel_of, bs_of = np.asarray(grouping.channel_of), np.asarray(grouping.bs_of)
            if pkg.power.solve_all_powers(inst.gains, grouping, inst.scenario).feasible and (
                oracles.fixed_point_total(inst.gain, channel_of, bs_of, inst.pow2r, inst.sigma2) is not None
            ):
                reference.append([n, seed, name])
    return {"base_seed": base_seed, "game": game, "power": power, "power_reference": reference}


def pinned_seeds() -> dict:
    with open(SEEDS_FILE) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Game workloads: one operation is one run_game
# ----------------------------------------------------------------------
class GameWorkload:
    def __init__(self, finder: str):
        self.finder = finder
        self._oracle_totals: dict = {}

    def build(self, pkg, seeds: dict) -> list:
        return [make_instance(pkg, n, s) for n, s in seeds["game"]]

    def run(self, pkg, inst: Instance):
        return pkg.game.run_game(inst.gains, inst.scenario, finder=self.finder, alpha=ALPHA)

    def power_w(self, inst: Instance, result) -> float | None:
        return float(np.sum(result[1].p))

    def fingerprint(self, result) -> tuple:
        grouping, solution, trace = result
        return grouping.channel_of.tobytes(), np.asarray(solution.p).tobytes(), len(trace.iterations)

    def _oracle_total(self, inst: Instance, channel_of: np.ndarray):
        key = (inst.num_users, inst.seed, channel_of.tobytes())
        if key not in self._oracle_totals:
            self._oracle_totals[key] = oracles.fixed_point_total(
                inst.gain, channel_of, inst.scenario.association, inst.pow2r, inst.sigma2
            )
        return self._oracle_totals[key]

    def check(self, inst: Instance, result) -> tuple[str, list]:
        """("ok", []) or ("wrong", errors); a game never counts as failed."""
        grouping, solution, trace = result
        errors = []
        assoc = inst.scenario.association
        if not (solution.feasible and trace.converged):
            return "wrong", ["final grouping is not feasible"]
        if not np.array_equal(grouping.bs_of, assoc):
            errors.append("final grouping changed the BS association")

        # Replay the accepted actions from an independently computed start.
        channel_of = own_start(inst)
        seen = {channel_of.tobytes()}
        before = self._oracle_total(inst, channel_of)
        for k, step in enumerate(trace.iterations):
            users = [u for u, _ in step.action.moves]
            if len(set(users)) != len(users) or not users:
                errors.append(f"step {k}: moves are empty or repeat a user")
            for user, target in step.action.moves:
                if assoc[user] != step.bs or channel_of[user] == target or not 0 <= target < NUM_CHANNELS:
                    errors.append(f"step {k}: invalid move of user {user} to {target}")
            channel_of = channel_of.copy()
            for user, target in step.action.moves:
                channel_of[user] = target
            if channel_of.tobytes() in seen:
                errors.append(f"step {k}: grouping repeats")
            seen.add(channel_of.tobytes())
            after = self._oracle_total(inst, channel_of)
            if before is None or after is None:
                errors.append(f"step {k}: oracle finds a grouping on the path infeasible")
                break
            if not close(step.total_power_before_w, before) or not close(step.total_power_after_w, after):
                errors.append(f"step {k}: reported powers differ from the fixed-point oracle")
            if not (after < before and step.total_power_after_w < step.total_power_before_w):
                errors.append(f"step {k}: total power does not strictly decrease")
            if k and step.total_power_before_w != trace.iterations[k - 1].total_power_after_w:
                errors.append(f"step {k}: starts from another power than step {k - 1} ended at")
            before = after
        if not np.array_equal(channel_of, grouping.channel_of):
            errors.append("replayed actions do not end at the returned grouping")

        errors += rate_errors(inst, grouping.channel_of, assoc, solution, solution.sic_order, "final grouping")
        total = self._oracle_total(inst, np.asarray(grouping.channel_of))
        if total is None or not close(float(np.sum(solution.p)), total):
            errors.append("final total power differs from the fixed-point oracle")
        return ("wrong" if errors else "ok"), errors


# ----------------------------------------------------------------------
# power-solve: one operation is one solve_all_powers on a fixed grouping
# ----------------------------------------------------------------------
def power_groupings(pkg, inst: Instance) -> dict:
    """The fixed groupings power-solve solves, by name."""
    return {
        "initial": pkg.game.initial_grouping(inst.gains, inst.scenario),
        "sccd": pkg.baselines.sccd_grouping(inst.gains, inst.scenario),
        "gale_shapley": pkg.baselines.gale_shapley_grouping(inst.gains, inst.scenario),
    }


@dataclass
class PowerOp:
    inst: Instance
    grouping: object
    grouping_name: str
    order_rule: str
    # Counted in final_power_mw; pinned as feasible (see derive_seeds).
    reference: bool


class PowerWorkload:
    # (grouping, decode-order rule) pairs solved for every instance.
    CASES = (
        ("initial", "ccinr"),
        ("sccd", "ccinr"),
        ("gale_shapley", "ccinr"),
        ("initial", "channel_gain"),
        ("initial", "rate_descending"),
    )

    def build(self, pkg, seeds: dict) -> list:
        ops = []
        reference = {tuple(case) for case in seeds["power_reference"]}
        for n, s in seeds["power"]:
            inst = make_instance(pkg, n, s)
            groupings = power_groupings(pkg, inst)
            for name, rule in self.CASES:
                ops.append(PowerOp(inst, groupings[name], name, rule, rule == "ccinr" and (n, s, name) in reference))
        return ops

    def run(self, pkg, op: PowerOp):
        return pkg.power.solve_all_powers(op.inst.gains, op.grouping, op.inst.scenario, order_rule=op.order_rule)

    def power_w(self, op: PowerOp, result) -> float | None:
        return float(np.sum(result.p)) if op.reference else None

    def fingerprint(self, result) -> tuple:
        return bool(result.feasible), np.asarray(result.p).tobytes()

    def check(self, op: PowerOp, result) -> tuple[str, list]:
        """Verdict of one solve and the errors found.

        The verdict is "ok", "unchecked" (too large to enumerate), "failed"
        (a refuted infeasible verdict, or a fixed-order allocation that
        misses a rate under SIC) or "wrong".
        """
        inst = op.inst
        channel_of = np.asarray(op.grouping.channel_of)
        bs_of = np.asarray(op.grouping.bs_of)
        label = f"seed {inst.seed} N={inst.num_users} {op.grouping_name}/{op.order_rule}"
        if op.order_rule == "ccinr":
            if op.reference and not result.feasible:
                return "wrong", [f"{label}: infeasible, but pinned as a feasible reference case"]
            if not result.feasible:
                verdict = oracles.brute_force_grouping(inst.gain, channel_of, bs_of, inst.pow2r, inst.sigma2)
                return {"feasible": "failed", "infeasible": "ok", "unchecked": "unchecked"}[verdict], []
            errors = rate_errors(inst, channel_of, bs_of, result, result.sic_order, label)
            total = oracles.fixed_point_total(inst.gain, channel_of, bs_of, inst.pow2r, inst.sigma2)
            if total is None or not close(float(np.sum(result.p)), total):
                errors.append(f"{label}: total power differs from the fixed-point oracle")
            return ("wrong" if errors else "ok"), errors
        return self._check_fixed_order(op, result, channel_of, bs_of, label)

    def _check_fixed_order(self, op, result, channel_of, bs_of, label) -> tuple[str, list]:
        # A fixed order makes each subchannel one linear solve; the
        # allocation gives each user its target at its own decoder, which
        # is checked first. Missing a target at a later decoder under SIC
        # is a known fault of the package and counts as failed.
        inst = op.inst
        totals = []
        orders = {}
        feasible = True
        for g in range(NUM_CHANNELS):
            members = oracles.members_by_bs(channel_of, bs_of, NUM_BS, g)
            if op.order_rule == "channel_gain":
                ch_orders = [sorted(mem, key=lambda n, m=m: (inst.gain[m, g, n], n)) for m, mem in enumerate(members)]
            else:
                ch_orders = [sorted(mem, key=lambda n: (-inst.rates[n], n)) for mem in members]
            powers = oracles.fixed_order_powers(inst.gain[:, g, :].tolist(), ch_orders, inst.pow2r, inst.sigma2)
            if powers is None:
                feasible = False
                break
            totals.extend(powers)
            orders.update({(m, g): order for m, order in enumerate(ch_orders)})
        if not result.feasible:
            if feasible:
                return "wrong", [f"{label}: infeasible, but the fixed-order solve is nonnegative"]
            return "ok", []
        if not feasible:
            return "wrong", [f"{label}: feasible, but the fixed-order solve is not"]
        errors = []
        if any(tuple(result.sic_order[key]) != tuple(order) for key, order in orders.items()):
            errors.append(f"{label}: decode orders differ from the rule")
        else:
            errors += rate_errors(inst, channel_of, bs_of, result, orders, label, own_decoder_only=True)
        if not close(float(np.sum(result.p)), math.fsum(totals)):
            errors.append(f"{label}: total power differs from the fixed-order solve")
        if errors:
            return "wrong", errors
        return ("failed" if rate_errors(inst, channel_of, bs_of, result, orders, label) else "ok"), []


WORKLOADS = {
    "game-fga": lambda: GameWorkload("fga"),
    "game-eba": lambda: GameWorkload("eba"),
    "power-solve": PowerWorkload,
}
