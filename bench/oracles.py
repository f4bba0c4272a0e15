"""Independent checks of the power layer, written against the model only.

Nothing here imports noma_grouping: every oracle works on plain arrays
(gain[m][g][n], channel_of, bs_of, spectral rates, noise power) so that it
can judge the package's answers without sharing its code.

Model (one subchannel g, BS m, decode order o_1, o_2, ... first decoded
first): user n sees inter-cell interference I_n = sum over other BSs m' of
gain[m'][g][n] * P[m'][g], where P is the group power; its channel
coefficient to interference-plus-noise ratio is S_n = gain[m][g][n] /
(I_n + sigma2). A user decoded at position k is detected by every later
decoder i, which treats the not-yet-decoded powers as noise, so its rate is

    min over i >= k of log2(1 + p_n / (later_k + 1 / S_i)),

with later_k the power decoded after position k.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

RATE_REL_TOL = 1e-9
# A solved power counts as negative below -max(floor, rounding * largest).
NEG_POWER_FLOOR_W = 1e-18
ROUNDING_REL = 1e-12

# Fixed-point iteration limits; past either the channel counts as
# diverged (infeasible) or undecided.
FIXED_POINT_MAX_ITERATIONS = 100_000
DIVERGENCE_POWER_W = 1e6
# A linear-solve shortcut is accepted only if the map reproduces it this
# closely.
SHORTCUT_REL_TOL = 1e-11
STALL_REL_TOL = 1e-14

BRUTE_FORCE_LIMIT = 5040


def members_by_bs(channel_of, bs_of, num_bs: int, g: int) -> list[list[int]]:
    """Per-BS member lists of subchannel g, ascending user id."""
    out: list[list[int]] = [[] for _ in range(num_bs)]
    for n, (ch, m) in enumerate(zip(channel_of, bs_of)):
        if ch == g:
            out[m].append(n)
    return out


def _ccinr(rows, group_powers, m: int, n: int, sigma2: float) -> float:
    itf = 0.0
    for mp, p in enumerate(group_powers):
        if mp != m:
            itf += rows[mp][n] * p
    return rows[m][n] / (itf + sigma2)


# ----------------------------------------------------------------------
# Achieved SIC rates
# ----------------------------------------------------------------------
def channel_sic_rates(rows, orders, user_power, sigma2: float, own_decoder_only: bool = False) -> dict[int, float]:
    """Rates (bit/s/Hz) of one subchannel's users under SIC.

    rows[m][n] is BS m's gain to user n on this subchannel, orders[m] the
    decode order of BS m's group, user_power[n] the power of user n.
    Group powers are summed from user_power, not taken from the solver.
    own_decoder_only drops the later decoders: the rate at which each
    user decodes its own signal, which a fixed-order allocation targets.
    """
    group_powers = [math.fsum(user_power[n] for n in order) for order in orders]
    rates: dict[int, float] = {}
    for m, order in enumerate(orders):
        inv_s = [1.0 / _ccinr(rows, group_powers, m, n, sigma2) for n in order]
        later = 0.0
        for k in range(len(order) - 1, -1, -1):
            n = order[k]
            worst_inv_s = inv_s[k] if own_decoder_only else max(inv_s[k:])
            rates[n] = math.log2(1.0 + user_power[n] / (later + worst_inv_s))
            later += user_power[n]
    return rates


def sic_rates(gain, channel_of, bs_of, user_power, orders: dict, sigma2: float, own_decoder_only: bool = False) -> np.ndarray:
    """Achieved rate (bit/s/Hz) of every user from powers and decode orders.

    orders maps (bs, subchannel) to a decode order; every group must be
    listed by a permutation of its members, or ValueError is raised.
    """
    num_bs, num_ch, num_users = gain.shape
    rates = np.full(num_users, np.nan)
    power = [float(x) for x in user_power]
    for g in range(num_ch):
        members = members_by_bs(channel_of, bs_of, num_bs, g)
        ch_orders = []
        for m in range(num_bs):
            order = [int(n) for n in orders.get((m, g), ())]
            if sorted(order) != members[m]:
                raise ValueError(f"order of group (bs {m}, channel {g}) is not a permutation of its members")
            ch_orders.append(order)
        rows = gain[:, g, :].tolist()
        for n, r in channel_sic_rates(rows, ch_orders, power, sigma2, own_decoder_only).items():
            rates[n] = r
    return rates


def rates_met(achieved, targets) -> bool:
    """Every achieved rate reaches its target within RATE_REL_TOL."""
    return bool(np.all(np.asarray(achieved) >= np.asarray(targets) * (1.0 - RATE_REL_TOL)))


# ----------------------------------------------------------------------
# Fixed decode orders: the exact linear solve
# ----------------------------------------------------------------------
def fixed_order_powers(rows, orders, pow2r, sigma2: float):
    """Group powers of one subchannel for fixed decode orders, or None.

    With the orders fixed, the closed-form group power is affine in the
    other groups' powers, P = C P + d, so P = (I - C)^-1 d. None when the
    system is singular, the result is not finite, or a power is negative
    beyond rounding (the orders cannot be powered).
    """
    num_bs = len(orders)
    lhs = np.eye(num_bs)
    rhs = np.zeros(num_bs)
    for m, order in enumerate(orders):
        prod = 1.0
        for n in order:
            weight = (pow2r[n] - 1.0) / rows[m][n] * prod
            rhs[m] += weight * sigma2
            for mp in range(num_bs):
                if mp != m:
                    lhs[m, mp] -= weight * rows[mp][n]
            prod *= pow2r[n]
    try:
        p = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(p)):
        return None
    if np.any(p < -max(NEG_POWER_FLOOR_W, ROUNDING_REL * float(np.max(np.abs(p))))):
        return None
    return np.maximum(p, 0.0).tolist()


def user_powers(rows, orders, group_powers, pow2r, sigma2: float) -> dict[int, float]:
    """Per-user powers from the recursion p_n = (2^r_n - 1)(1/S_n + later)."""
    out: dict[int, float] = {}
    for m, order in enumerate(orders):
        later = 0.0
        for n in reversed(order):
            s = _ccinr(rows, group_powers, m, n, sigma2)
            p_n = (pow2r[n] - 1.0) * (1.0 / s + later)
            out[n] = p_n
            later += p_n
    return out


# ----------------------------------------------------------------------
# The per-channel fixed point
# ----------------------------------------------------------------------
def ccinr_step(rows, members, pow2r, sigma2: float, group_powers):
    """One application of T: group powers under CCINR orders at group_powers.

    Returns (new group powers, orders). Orders are ascending CCINR, ties
    by user id.
    """
    new_powers = []
    orders = []
    for m, mem in enumerate(members):
        keyed = sorted((_ccinr(rows, group_powers, m, n, sigma2), n) for n in mem)
        total = 0.0
        prod = 1.0
        for s, n in keyed:
            total += (pow2r[n] - 1.0) / s * prod
            prod *= pow2r[n]
        new_powers.append(total)
        orders.append(tuple(n for _, n in keyed))
    return new_powers, tuple(orders)


def _close(a, b, rel: float) -> bool:
    return all(abs(x - y) <= rel * max(abs(x), abs(y), NEG_POWER_FLOOR_W) for x, y in zip(a, b))


def fixed_point_channel(rows, members, pow2r, sigma2: float):
    """Least fixed point of T on one subchannel, iterated from zero power.

    T is a standard interference function (Yates, IEEE JSAC 13(7), 1995),
    so the iterates rise monotonically to its unique fixed point when one
    exists and grow without bound otherwise. Once the orders repeat, the
    exact solve for those orders is tried as a shortcut; it is accepted
    only when T maps it to itself under the same orders, which makes it
    that unique fixed point.

    Returns ("feasible", group powers, orders), ("infeasible", None, None)
    when the iterates pass DIVERGENCE_POWER_W, or ("undecided", None,
    None) after FIXED_POINT_MAX_ITERATIONS.
    """
    p = [0.0] * len(members)
    prev_orders = None
    for _ in range(FIXED_POINT_MAX_ITERATIONS):
        p_next, orders = ccinr_step(rows, members, pow2r, sigma2, p)
        if orders == prev_orders:
            shortcut = fixed_order_powers(rows, orders, pow2r, sigma2)
            if shortcut is not None:
                image, image_orders = ccinr_step(rows, members, pow2r, sigma2, shortcut)
                if image_orders == orders and _close(image, shortcut, SHORTCUT_REL_TOL):
                    return "feasible", shortcut, orders
        if sum(p_next) > DIVERGENCE_POWER_W:
            return "infeasible", None, None
        if _close(p_next, p, STALL_REL_TOL):
            return "feasible", p_next, orders
        prev_orders = orders
        p = p_next
    return "undecided", None, None


def fixed_point_total(gain, channel_of, bs_of, pow2r, sigma2: float):
    """Total power of a grouping at the fixed point, or None if not feasible."""
    num_bs, num_ch, _ = gain.shape
    totals = []
    for g in range(num_ch):
        members = members_by_bs(channel_of, bs_of, num_bs, g)
        verdict, powers, _ = fixed_point_channel(gain[:, g, :].tolist(), members, pow2r, sigma2)
        if verdict != "feasible":
            return None
        totals.extend(powers)
    return math.fsum(totals)


# ----------------------------------------------------------------------
# Brute force over decode orders
# ----------------------------------------------------------------------
def brute_force_channel(rows, members, pow2r, sigma2: float):
    """Is one subchannel feasible under some combination of decode orders?

    For every combination of per-BS orders, the exact powers for those
    orders are a witness when they are nonnegative and every user meets
    its rate under SIC (which holds only if the orders are ascending CCINR
    at those powers, i.e. consistent with them). Returns ("feasible",
    orders), ("infeasible", None), or ("unchecked", None) when there are
    more than BRUTE_FORCE_LIMIT combinations.
    """
    combos = 1
    for mem in members:
        combos *= math.factorial(len(mem))
    if combos > BRUTE_FORCE_LIMIT:
        return "unchecked", None
    targets = {n: math.log2(pow2r[n]) for mem in members for n in mem}
    for orders in itertools.product(*(itertools.permutations(mem) for mem in members)):
        group_powers = fixed_order_powers(rows, orders, pow2r, sigma2)
        if group_powers is None:
            continue
        powers = user_powers(rows, orders, group_powers, pow2r, sigma2)
        if any(p < 0.0 for p in powers.values()):
            continue
        rates = channel_sic_rates(rows, orders, powers, sigma2)
        if all(rates[n] >= t * (1.0 - RATE_REL_TOL) for n, t in targets.items()):
            return "feasible", orders
    return "infeasible", None


def brute_force_grouping(gain, channel_of, bs_of, pow2r, sigma2: float) -> str:
    """Verdict of a whole grouping from brute_force_channel.

    "feasible" if every subchannel has a witness, "infeasible" if some
    subchannel provably has none, otherwise "unchecked".
    """
    num_bs, num_ch, _ = gain.shape
    verdict = "feasible"
    for g in range(num_ch):
        members = members_by_bs(channel_of, bs_of, num_bs, g)
        ch_verdict, _ = brute_force_channel(gain[:, g, :].tolist(), members, pow2r, sigma2)
        if ch_verdict == "infeasible":
            return "infeasible"
        if ch_verdict == "unchecked":
            verdict = "unchecked"
    return verdict
