"""Decode ordering and coupled power allocation for grouped NOMA downlinks.

Within a group (one BS, one subchannel) the minimum-power superposition
decodes users in ascending order of their channel-coefficient to
interference-plus-noise ratio (CCINR) and allocates

    p_n = (2^r_n - 1) * (1/S_n + sum of powers decoded after n),

with r_n the spectral target rate (bit/s/Hz) and S_n = |H_n|^2/(I_n + s2).
Summing the recursion gives the closed form

    group power = sum_n (2^r_n - 1)/S_n * prod_{i decoded before n} 2^r_i.

Across cells, interference couples the groups that share a subchannel: the
per-channel group powers solve a dense M x M linear system whose entries
depend on the grouping and decode orders but not on the powers themselves.
A fixed-point loop, started from zero power, alternates (interference ->
CCINR -> orders -> linear solve) and stops when the orders at the current
powers equal the orders those powers were solved for: that solve is
exact, and is returned without being repeated. Its result is therefore a
function of the subchannel's membership alone, which is what lets the
league graph memoize channel totals by membership.

Every caller runs the same kernel, one function per layer: decode_orders
(the order rules), assemble_coupling (the linear system), solve_coupling
(LU solve and the nonnegativity check) and user_powers (the recursion);
solve_one_channel iterates the first three, and solve_all_powers ends
with the fourth.

The kernel has two paths with the same bits. solve_one_channel solves
one system on nested lists. solve_channel_batch runs the same fixed
point, under the CCINR rule, on K systems at once as numpy arrays, with
every sum in the scalar order. Its numpy calls cost the same for one
system as for hundreds, so it is slower than the scalar path below a few
dozen systems. The league graph picks the path by its number of memo
misses (graph.BATCH_MIN_MISSES); solve_all_powers stays scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .scenario import ChannelGains, Scenario

ABS_FLOOR_W = 1e-18
MAX_FIXED_POINT_ITERATIONS = 100

# Decode-order rules. CCINR_ORDER is the power-minimizing rule; the other
# two are reference rules used for comparison experiments only.
CCINR_ORDER = "ccinr"
CHANNEL_GAIN_ORDER = "channel_gain"
RATE_DESCENDING_ORDER = "rate_descending"


class InfeasibleSolutionError(RuntimeError):
    """Raised when a caller asks for a quantity of an infeasible solution."""


@dataclass
class Grouping:
    """Per-user (BS, subchannel) assignment; the decision variable.

    bs_of is copied from the scenario association and never changes; only
    channel_of is optimized.
    """

    channel_of: np.ndarray
    bs_of: np.ndarray

    def __post_init__(self):
        self.channel_of = np.asarray(self.channel_of, dtype=np.int64)
        self.bs_of = np.asarray(self.bs_of, dtype=np.int64)
        if self.channel_of.shape != self.bs_of.shape:
            raise ValueError("channel_of and bs_of must have equal length")

    @property
    def num_users(self) -> int:
        return self.channel_of.shape[0]

    def members_by_bs(self, g: int, num_bs: int) -> list[list[int]]:
        """Per-BS member lists on subchannel g (ascending ids)."""
        out: list[list[int]] = [[] for _ in range(num_bs)]
        users = np.flatnonzero(self.channel_of == g)
        for n, m in zip(users.tolist(), self.bs_of[users].tolist()):
            out[m].append(n)
        return out

    def with_moves(self, moves) -> "Grouping":
        """New grouping with each (user, target_channel) move applied."""
        ch = self.channel_of.copy()
        for n, g in moves:
            ch[n] = g
        return Grouping(channel_of=ch, bs_of=self.bs_of)

    def key(self) -> tuple:
        """Hashable snapshot of the assignment (for repeat detection)."""
        return tuple(self.channel_of.tolist())


@dataclass
class CcinrTable:
    """Per-user CCINR S_n (1/W) and inter-cell interference I_n (W)."""

    s: np.ndarray
    interference: np.ndarray


@dataclass
class PowerSolution:
    """Converged allocation for one grouping.

    sic_order maps (bs, channel) to the decode order (first decoded first).
    When feasible is False the remaining fields are not meaningful.
    """

    p: np.ndarray
    group_power: np.ndarray
    ccinr: CcinrTable | None
    sic_order: dict
    feasible: bool
    fixed_point_iterations: int


class ChannelSolveResult(NamedTuple):
    powers: list[float]
    orders: tuple
    iterations: int
    feasible: bool


def _member_ccinr(rows, members_by_bs, powers, sigma2: float) -> list[list[tuple]]:
    """(S_n, n, I_n) of every member of one subchannel, grouped per BS.

    rows[m][n] is BS m's gain to user n on the subchannel and powers[m] its
    group power there; I_n sums the other BSs' gains times their powers.
    """
    num_bs = len(rows)
    out = []
    for m, mem in enumerate(members_by_bs):
        row = rows[m]
        group = []
        for n in mem:
            i_n = 0.0
            for mp in range(num_bs):
                if mp != m:
                    i_n += rows[mp][n] * powers[mp]
            group.append((row[n] / (i_n + sigma2), n, i_n))
        out.append(group)
    return out


def _ccinr_table(gain_lists, channel_members, group_power_table, sigma2: float, num_users: int) -> CcinrTable:
    """CCINR table from channel_members[g], the per-BS member lists of subchannel g."""
    gp = np.asarray(group_power_table, dtype=float).tolist()
    s = np.empty(num_users)
    interference = np.empty(num_users)
    for g, members_by_bs in enumerate(channel_members):
        rows = [gain_lists[m][g] for m in range(len(gp))]
        powers = [gp_m[g] for gp_m in gp]
        for group in _member_ccinr(rows, members_by_bs, powers, sigma2):
            for s_n, n, i_n in group:
                s[n] = s_n
                interference[n] = i_n
    return CcinrTable(s=s, interference=interference)


def ccinr(gains: ChannelGains, grouping: Grouping, group_power_table, noise_power_w: float) -> CcinrTable:
    """CCINR table at the given per-group power levels.

    I_n sums, over the other BSs, their gain to user n on n's subchannel
    times their group power on that subchannel. Entries of
    group_power_table must be >= 0.
    """
    num_bs, num_ch = gains.gain.shape[:2]
    channel_members = [grouping.members_by_bs(g, num_bs) for g in range(num_ch)]
    return _ccinr_table(
        gains.as_lists(), channel_members, group_power_table, noise_power_w, grouping.num_users
    )


# ----------------------------------------------------------------------
# The channel kernel: decode orders -> assembly -> solve -> recursion
# ----------------------------------------------------------------------
def decode_orders(rows, members_by_bs, pow2r, sigma2: float, powers, order_rule: str) -> tuple:
    """Decode order of every BS's group on one subchannel, first decoded first.

    ccinr decodes ascending CCINR at the group powers `powers` (the
    power-minimizing rule); channel_gain decodes ascending own-BS gain (the
    single-cell convention); rate_descending decodes the highest target
    rate first. Ties go to the lower user id.
    """
    if order_rule == CCINR_ORDER:
        orders = []
        for group in _member_ccinr(rows, members_by_bs, powers, sigma2):
            group.sort()
            orders.append(tuple([n for _s, n, _i in group]) if group else ())
        return tuple(orders)
    if order_rule == CHANNEL_GAIN_ORDER:
        return tuple(
            tuple(sorted(mem, key=lambda n, row=rows[m]: (row[n], n)))
            for m, mem in enumerate(members_by_bs)
        )
    if order_rule == RATE_DESCENDING_ORDER:
        return tuple(tuple(sorted(mem, key=lambda n: (-pow2r[n], n))) for mem in members_by_bs)
    raise ValueError(f"unknown order rule: {order_rule!r}")


def assemble_coupling(rows, orders, pow2r, sigma2: float) -> tuple[list, list]:
    """Coupling system a @ P = b of one subchannel under the given orders.

    Row m accumulates, over BS m's members in decode order, the weight
    w_n = (2^r_n - 1)/|H_own|^2 * prod(earlier 2^r_i); a has -1 on the
    diagonal, the off-diagonal entry (m, m') is sum_n w_n |H_m'|^2, and
    b_m = -sigma^2 sum_n w_n. pow2r[n] = 2 ** spectral_rate[n].
    """
    num_bs = len(rows)
    a = [[0.0] * num_bs for _ in range(num_bs)]
    b = [0.0] * num_bs
    for m in range(num_bs):
        a[m][m] = -1.0
        row = rows[m]
        arow = a[m]
        prod = 1.0
        wsum = 0.0
        for n in orders[m]:
            f = pow2r[n]
            w = (f - 1.0) / row[n] * prod
            wsum += w
            for mp in range(num_bs):
                if mp != m:
                    arow[mp] += w * rows[mp][n]
            prod *= f
        b[m] = -sigma2 * wsum
    return a, b


def solve_coupling(a_rows: list, b_vec: list):
    """Group powers P >= 0 with a @ P = b, or None when infeasible.

    Dense LU with partial pivoting on nested lists. Numerical singularity
    and negative or non-finite components all mean the grouping cannot be
    powered on this subchannel; none of them is an error.
    """
    n = len(b_vec)
    a = [row[:] for row in a_rows]
    x = list(b_vec)
    for k in range(n):
        piv = k
        best = abs(a[k][k])
        for i in range(k + 1, n):
            v = abs(a[i][k])
            if v > best:
                best = v
                piv = i
        if best < 1e-300:
            return None
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            x[k], x[piv] = x[piv], x[k]
        ak = a[k]
        akk = ak[k]
        for i in range(k + 1, n):
            f = a[i][k] / akk
            if f != 0.0:
                ai = a[i]
                for j in range(k + 1, n):
                    ai[j] -= f * ak[j]
                x[i] -= f * x[k]
    for i in range(n - 1, -1, -1):
        ai = a[i]
        acc = x[i]
        for j in range(i + 1, n):
            acc -= ai[j] * x[j]
        x[i] = acc / ai[i]
    for i, v in enumerate(x):
        if not math.isfinite(v):
            return None
        if v < 0.0:
            if v < -ABS_FLOOR_W:
                return None
            x[i] = 0.0
    return x


def user_powers(order, s, pow2r) -> dict[int, float]:
    """Per-user powers of one group, by the recursion from the last decoder.

    p_n = (2^r_n - 1) * (1/S_n + sum of powers decoded after n); their sum
    is the group power. order is first decoded first, s[n] the CCINR.
    """
    powers: dict[int, float] = {}
    acc = 0.0
    for n in reversed(order):
        p_n = (pow2r[n] - 1.0) * (1.0 / s[n] + acc)
        powers[n] = p_n
        acc += p_n
    return powers


def solve_one_channel(
    gain_lists,
    channel: int,
    members_by_bs,
    pow2r,
    sigma2: float,
    order_rule: str = CCINR_ORDER,
) -> ChannelSolveResult:
    """Fixed point of one subchannel: orders and the exact linear solve.

    pow2r[n] = 2 ** spectral_rate[n]. The iteration starts from zero power,
    so the result depends only on the subchannel and its members. Each
    iteration decodes the orders at the current powers. When they equal
    the orders those powers were solved for, the system (a function of the
    orders alone) is unchanged, so the powers are exact and are returned
    without solving again; the confirming decode counts as an iteration.
    Otherwise the new orders are solved.
    """
    rows = [gain_lists[m][channel] for m in range(len(members_by_bs))]
    p_cur = [0.0] * len(rows)
    orders = solved_orders = None
    iterations = 0
    for iterations in range(1, MAX_FIXED_POINT_ITERATIONS + 1):
        # Only the CCINR orders depend on the powers.
        if orders is None or order_rule == CCINR_ORDER:
            orders = decode_orders(rows, members_by_bs, pow2r, sigma2, p_cur, order_rule)
        if orders == solved_orders:
            return ChannelSolveResult(p_cur, orders, iterations, True)
        p_new = solve_coupling(*assemble_coupling(rows, orders, pow2r, sigma2))
        if p_new is None:
            return ChannelSolveResult(p_cur, orders, iterations, False)
        p_cur, solved_orders = p_new, orders
    return ChannelSolveResult(p_cur, solved_orders, iterations, False)


class ChannelBatchResult(NamedTuple):
    powers: np.ndarray  # (K, M) group powers
    iterations: np.ndarray  # (K,)
    feasible: np.ndarray  # (K,) bool


def solve_channel_batch(gain, channels, members, pow2r, sigma2: float) -> ChannelBatchResult:
    """solve_one_channel under the CCINR rule for K independent systems at once.

    gain is the (M, G, N) gain table, channels[k] the subchannel of system
    k and members[k, m] BS m's users on it in ascending id order, padded at
    the end with -1. pow2r[n] = 2 ** spectral_rate[n]. System k's powers,
    iterations and verdict equal solve_one_channel's bit for bit: every
    sum runs in the scalar order (a loop over BSs, over decode positions
    and over LU columns), the LU keeps the first-max pivot, the 1e-300
    singular test and the f != 0 skip, and the result check is the same.
    A system leaves the batch when its orders repeat or its solve fails.

    The system index is the last axis of every working array, so each
    step is a few numpy operations on contiguous (..., K) blocks.
    """
    members = np.asarray(members, dtype=np.intp).transpose(1, 2, 0)  # (M, P, K)
    num_bs, _width, num_sys = members.shape
    valid = members >= 0
    ids = np.where(valid, members, 0)
    # gg[mp, m, p, k]: BS mp's gain to slot p of BS m's row in system k.
    # The own-BS gains move to `own`; zeroed in gg, they add exact zeros
    # where the scalar kernel skips mp == m.
    gg = np.asarray(gain)[:, np.asarray(channels, dtype=np.intp), ids]
    bs = np.arange(num_bs)
    own = gg[bs, bs]  # (M, P, K)
    gg[bs, bs] = 0.0
    f = np.where(valid, np.asarray(pow2r)[ids], 1.0)  # a pad adds w = 0

    powers = np.zeros((num_bs, num_sys))
    iterations = np.full(num_sys, MAX_FIXED_POINT_ITERATIONS)
    feasible = np.zeros(num_sys, dtype=bool)
    act = np.arange(num_sys)  # the systems still iterating
    p_cur = powers.copy()
    solved = None  # the orders p_cur was solved for
    with np.errstate(all="ignore"):
        for it in range(1, MAX_FIXED_POINT_ITERATIONS + 1):
            interference = np.zeros(own.shape)
            for mp in range(num_bs):
                interference = interference + gg[mp] * p_cur[mp]
            s = np.where(valid, own / (interference + sigma2), np.inf)
            orders = np.argsort(s, axis=1, kind="stable")  # ties: the lower slot, so the lower id
            if solved is not None:
                done = (orders == solved).all(axis=(0, 1))
                iterations[act[done]] = it
                feasible[act[done]] = True
                powers[:, act[done]] = p_cur[:, done]
                keep = ~done
                act, orders, p_cur = act[keep], orders[..., keep], p_cur[:, keep]
                gg, own, f, valid = gg[..., keep], own[..., keep], f[..., keep], valid[..., keep]
                if act.size == 0:
                    break
            p_new, ok = _solve_coupling_batch(*_assemble_coupling_batch(gg, own, f, orders, sigma2))
            iterations[act[~ok]] = it
            powers[:, act[~ok]] = p_cur[:, ~ok]
            if not ok.all():
                act, orders, p_new = act[ok], orders[..., ok], p_new[:, ok]
                gg, own, f, valid = gg[..., ok], own[..., ok], f[..., ok], valid[..., ok]
                if act.size == 0:
                    break
            p_cur, solved = p_new, orders
        else:
            powers[:, act] = p_cur
    return ChannelBatchResult(powers.T, iterations, feasible)


def _assemble_coupling_batch(gg, own, f, orders, sigma2: float):
    """assemble_coupling of every system, one decode position at a time."""
    num_bs, width, num_sys = own.shape
    # at[m, t, k]: flat index into an (M, P, K) array of the user BS m
    # decodes at position t in system k.
    at = (np.arange(num_bs)[:, None, None] * width + orders) * num_sys + np.arange(num_sys)
    own, f = np.take(own, at), np.take(f, at)
    gg = gg.reshape(num_bs, -1)
    a = np.zeros((num_bs, num_bs, num_sys))
    prod = np.ones((num_bs, num_sys))
    wsum = np.zeros((num_bs, num_sys))
    for t in range(width):
        w = (f[:, t] - 1.0) / own[:, t] * prod
        wsum = wsum + w
        # a[m, m', k] += w * (BS m' gain to the user), zero for m' == m
        a = a + w[:, None] * gg[:, at[:, t]].transpose(1, 0, 2)
        prod = prod * f[:, t]
    diag = np.arange(num_bs)
    a[diag, diag] = -1.0
    return a, -sigma2 * wsum


def _solve_coupling_batch(a, x):
    """solve_coupling of the systems a[:, :, k] @ P = x[:, k], in place.

    Returns (powers, ok): the (M, K) solutions, meaningful where ok.
    """
    n, _n, num_sys = a.shape
    cols = np.arange(num_sys)
    ok = np.ones(num_sys, dtype=bool)
    for k in range(n):
        col = np.abs(a[k:, k])
        # The first maximum, as in the scalar search. (A NaN entry can take
        # the pivot here and not there; either way the solution is NaN.)
        piv = col.argmax(axis=0)
        ok &= ~(col[piv, cols] < 1e-300)
        if k == n - 1:
            break
        if piv.any():
            swap = k + piv
            row_k, x_k = a[k].copy(), x[k].copy()
            a[k], x[k] = a[swap, :, cols].T, x[swap, cols]
            a[swap, :, cols], x[swap, cols] = row_k.T, x_k
        fac = a[k + 1 :, k] / a[k, k]
        nz = fac != 0.0
        sub = a[k + 1 :, k + 1 :]
        a[k + 1 :, k + 1 :] = np.where(nz[:, None], sub - fac[:, None] * a[k, None, k + 1 :], sub)
        x[k + 1 :] = np.where(nz, x[k + 1 :] - fac * x[k], x[k + 1 :])
    for i in range(n - 1, -1, -1):
        acc = x[i]
        for j in range(i + 1, n):
            acc = acc - a[i, j] * x[j]
        x[i] = acc / a[i, i]
    ok &= np.isfinite(x).all(axis=0) & ~(x < -ABS_FLOOR_W).any(axis=0)
    return np.where(x < 0.0, 0.0, x), ok


def solve_all_powers(
    gains: ChannelGains,
    grouping: Grouping,
    scenario: Scenario,
    order_rule: str = CCINR_ORDER,
) -> PowerSolution:
    """Coupled power allocation across all cells and subchannels.

    Subchannels are orthogonal, so each one is solved by its own fixed
    point (started from zero power). Per-user powers are then recovered
    from the converged interference. feasible is False when any channel's
    solve is singular, negative, or fails to converge.

    Raises ValueError unless the grouping has one entry per user of the
    scenario, every channel in [0, G) and bs_of equal to the scenario's
    association.
    """
    cfg = scenario.config
    if grouping.num_users != cfg.num_users:
        raise ValueError(f"grouping has {grouping.num_users} users, the scenario {cfg.num_users}")
    if np.any((grouping.channel_of < 0) | (grouping.channel_of >= cfg.num_channels)):
        raise ValueError(f"grouping uses a subchannel outside [0, {cfg.num_channels})")
    if not np.array_equal(grouping.bs_of, scenario.association):
        raise ValueError("grouping does not match the scenario association")
    sigma2 = scenario.noise_power_w
    pow2r = np.exp2(scenario.spectral_rates()).tolist()
    lists = gains.as_lists()
    num_bs, num_ch = cfg.num_bs, cfg.num_channels

    group_power = np.zeros((num_bs, num_ch))
    channel_members = []
    orders: dict = {}
    max_iters = 0
    for g in range(num_ch):
        members = grouping.members_by_bs(g, num_bs)
        channel_members.append(members)
        res = solve_one_channel(lists, g, members, pow2r, sigma2, order_rule=order_rule)
        max_iters = max(max_iters, res.iterations)
        if not res.feasible:
            return PowerSolution(
                p=np.full(cfg.num_users, np.nan),
                group_power=np.full((num_bs, num_ch), np.nan),
                ccinr=None,
                sic_order={},
                feasible=False,
                fixed_point_iterations=max_iters,
            )
        group_power[:, g] = res.powers
        for m in range(num_bs):
            orders[(m, g)] = res.orders[m]

    table = _ccinr_table(lists, channel_members, group_power, sigma2, cfg.num_users)
    p = np.zeros(cfg.num_users)
    for order in orders.values():
        for n, p_n in user_powers(order, table.s, pow2r).items():
            p[n] = p_n
    return PowerSolution(
        p=p,
        group_power=group_power,
        ccinr=table,
        sic_order=orders,
        feasible=True,
        fixed_point_iterations=max_iters,
    )


def achieved_rates(
    gains: ChannelGains,
    grouping: Grouping,
    solution: PowerSolution,
    noise_power_w: float,
    bandwidth_hz: float,
) -> np.ndarray:
    """Rates every user actually decodes at, in bit/s.

    Each user's rate is the minimum over itself and all later decoders of
    the rate at which that decoder can detect the user's signal; not-yet-
    decoded same-group signals plus inter-cell interference are noise.
    """
    if not solution.feasible:
        raise InfeasibleSolutionError("achieved_rates needs a feasible solution")
    lists = gains.as_lists()
    itf = solution.ccinr.interference
    p = solution.p
    n_users = grouping.num_users
    rates = np.zeros(n_users)
    for (m, g), order in solution.sic_order.items():
        k_count = len(order)
        row = lists[m][g]
        suffix = [0.0] * (k_count + 1)
        for k in range(k_count - 1, -1, -1):
            suffix[k] = suffix[k + 1] + p[order[k]]
        for k, n in enumerate(order):
            later = suffix[k + 1]
            best = math.inf
            for i in order[k:]:
                gi = row[i]
                val = math.log2(1.0 + gi * p[n] / (gi * later + itf[i] + noise_power_w))
                if val < best:
                    best = val
            rates[n] = best * bandwidth_hz
    return rates


def total_power(solution: PowerSolution) -> float:
    """Sum of all user powers in watts; raises when infeasible."""
    if not solution.feasible:
        raise InfeasibleSolutionError("no total power for an infeasible grouping")
    return float(np.sum(solution.p))


def total_power_or_inf(solution: PowerSolution) -> float:
    """Comparison form: +inf for infeasible solutions."""
    return float(np.sum(solution.p)) if solution.feasible else math.inf
