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

The coupling matrix is a = C - I with C >= 0, so I - C is a Z-matrix. It
has an LU factorization with positive pivots exactly when it is a
nonsingular M-matrix, that is, when rho(C) < 1, and then its inverse is
>= 0 (Berman and Plemmons, Nonnegative Matrices in the Mathematical
Sciences, SIAM 1994, ch. 6). When rho(C) >= 1, no powers >= 0 meet the
targets under those orders. So the solve eliminates without pivoting,
and a pivot of a that is not < 0 is the orders' infeasibility verdict.
The right side b = -sigma^2 * (weight sums) is <= 0. While the pivots
are < 0, each Schur update adds a term >= 0, so the off-diagonals stay
>= 0 and b <= 0; back-substitution divides a sum <= 0 by a negative
pivot, so every power is >= +0.0, and past the pivots only an overflow
(a non-finite power) refutes a solve.

The first iteration of every fixed point, the zero-power screen, is the
only one that can refute a subchannel in exact arithmetic. Say the
screen solved orders O1 to powers p1 >= 0, so p1 = C_O1 p1 + c_O1, and
the CCINR orders at p1 are O2. Drop the BSs whose group has no member
with a positive rate: their rows and columns of C and their c are 0.
On the others c > 0, so p1 > 0. At the interference of p1 the CCINR
order needs no more power than any other (Yates, IEEE JSAC 13(7), 1995),
so C_O2 p1 + c_O2 <= C_O1 p1 + c_O1 = p1, hence C_O2 p1 < p1 and
rho(C_O2) < 1 by Collatz-Wielandt; the solve for O2 passes its pivots,
and p2 = (I - C_O2)^-1 c_O2 <= p1 because the inverse is >= 0. The same
step repeats from p2, so the iterates descend and every later solve
passes. Under the fixed-order rules the orders never change, so a passed
screen is confirmed at iteration 2.

Every caller runs the same kernel, one function per layer: decode_orders
(the order rules), assemble_coupling (the linear system), solve_coupling
(pivot-free elimination and the finiteness check) and user_powers
(the recursion). screen_channel runs the first three once at zero power,
continue_channel iterates them from the screen's powers, and
solve_one_channel composes the two; solve_all_powers ends with the
fourth. solve_all_powers sorts the users into (subchannel, BS) groups
once (Grouping.members_by_channel), screens every subchannel, highest
total target rate first, up to the first refuted one, and only when all
pass continues their fixed points in the same order. The subchannels are
orthogonal, so the order changes no verdict and no feasible result; it
only lets an infeasible grouping meet its refuting subchannel, most
often a crowded high-rate one, before the others are screened, and no
fixed point is run to the end for a grouping that a later screen
refutes. The outputs are then assembled in subchannel order. The
solution's CCINR table (PowerSolution.ccinr) has no other producer: under
the CCINR rule it is each fixed point's confirming decode, under the
fixed-order rules one more decode at the converged powers.

The kernel has two paths with the same bits. Both decode the first pass
of every fixed point at zero power without summing interference: the
gains are finite and >= 0, so every I_n there is exactly 0.0.
solve_one_channel solves one system on nested lists. solve_channel_batch
runs the same fixed point, under the CCINR rule, on K systems at once as
numpy arrays, with every sum in the scalar order. It gathers the gains
with one flat index, gives the pad slots of short rows own gain +inf (so
they decode last and add exact zeros), takes each user's
(2^r - 1)/|H_own|^2 once per call, eliminates on the augmented [a | b],
and compacts its arrays once per pass. Its numpy calls cost about the
same for one system as for hundreds, so it is slower than the scalar
path below about two dozen systems. graph.ChannelTotals.lookup picks the
path by its number of misses (graph.BATCH_MIN_MISSES); solve_all_powers
stays scalar and builds each output array once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .scenario import ChannelGains, Scenario

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
    channel_of is optimized. Both must be 1-D vectors of integer values of
    equal length, else ValueError: a value that int64 does not hold as it
    is (0.7, nan, 2**63) is refused, not truncated.
    """

    channel_of: np.ndarray
    bs_of: np.ndarray

    def __post_init__(self):
        self.channel_of = _id_vector(self.channel_of, "channel_of")
        self.bs_of = _id_vector(self.bs_of, "bs_of")
        if self.channel_of.shape != self.bs_of.shape:
            raise ValueError("channel_of and bs_of must have equal length")

    @property
    def num_users(self) -> int:
        return self.channel_of.shape[0]

    def members_by_channel(self, num_channels: int, num_bs: int) -> list[list[list[int]]]:
        """Per-BS member lists of every subchannel, [g][m] (ascending ids), in one pass."""
        out = [[[] for _ in range(num_bs)] for _ in range(num_channels)]
        for n, (g, m) in enumerate(zip(self.channel_of.tolist(), self.bs_of.tolist())):
            out[g][m].append(n)
        return out

    def with_moves(self, moves) -> "Grouping":
        """New grouping with each (user, channel) move applied.

        ValueError for a user or channel that int64 does not hold as it is
        (as in Grouping) and for a user outside [0, N); the channel's range
        is check_grouping's.
        """
        ch = self.channel_of.copy()
        for move in moves:
            n, g = _id_vector(move, "a move")
            if not 0 <= n < ch.size:
                raise ValueError(f"user {n} is outside [0, {ch.size})")
            ch[n] = g
        return Grouping(channel_of=ch, bs_of=self.bs_of)

    def key(self) -> tuple:
        """Hashable snapshot of the assignment (for repeat detection)."""
        return tuple(self.channel_of.tolist())


def _id_vector(values, name: str) -> np.ndarray:
    """values as a 1-D int64 array; ValueError if the conversion changes a value."""
    ids = np.asarray(values)
    if ids.dtype != np.int64:
        with np.errstate(invalid="ignore", over="ignore"):
            cast = ids.astype(np.int64)
        if not np.array_equal(cast, ids):
            raise ValueError(f"{name} must hold integer ids, got {values!r}")
        ids = cast
    if ids.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {ids.shape}")
    return ids


@dataclass
class CcinrTable:
    """Per-user CCINR S_n (1/W) and inter-cell interference I_n (W)."""

    s: np.ndarray
    interference: np.ndarray


@dataclass
class PowerSolution:
    """Converged allocation for one grouping.

    sic_order maps (bs, channel) to the decode order (first decoded first).
    fixed_point_iterations is the highest iteration count among the
    subchannels' fixed points. When feasible is False, refuted_channel
    names the subchannel that refuted the grouping (it is None when
    feasible), and the other fields are not meaningful, except
    fixed_point_iterations: 1 when a zero-power screen refuted it, else
    the highest count among the fixed points continued up to the verdict
    (see solve_all_powers).
    """

    p: np.ndarray
    group_power: np.ndarray
    ccinr: CcinrTable | None
    sic_order: dict
    feasible: bool
    fixed_point_iterations: int
    refuted_channel: int | None = None


class ChannelSolveResult(NamedTuple):
    """One subchannel's fixed point (see solve_one_channel).

    ccinr holds, when feasible, the (S_n, n, I_n) of every member at the
    returned powers, grouped per BS. Under the CCINR rule these are the
    confirming decode's values, in decode order. It is None when
    infeasible.
    """

    powers: list[float]
    orders: tuple
    iterations: int
    feasible: bool
    ccinr: list | None = None


def _member_ccinr(rows, members_by_bs, powers, sigma2: float) -> list[list[tuple]]:
    """(S_n, n, I_n) of every member of one subchannel, grouped per BS.

    rows[m][n] is BS m's gain to user n on the subchannel and powers[m] its
    group power there; I_n sums the other BSs' gains times their powers.
    When every power is 0 (the first decode of every fixed point), each
    I_n is exactly 0.0, since the gains are finite and >= 0, so the sums
    are skipped with the same bits, as solve_channel_batch does.
    """
    if not any(powers):
        return [[(row[n] / sigma2, n, 0.0) for n in mem] for row, mem in zip(rows, members_by_bs)]
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


# ----------------------------------------------------------------------
# The channel kernel: decode orders -> assembly -> solve -> recursion
# ----------------------------------------------------------------------
def pow2_rates(spectral_rates) -> list[float]:
    """2 ** r of every spectral target rate r (bit/s/Hz), as a list of floats.

    A rate of 1024 or more gives inf, without an overflow warning: a
    member with 2^r = inf makes its subchannel's first solve non-finite,
    so the subchannel is infeasible, as such a target is.
    """
    with np.errstate(over="ignore"):
        return np.exp2(spectral_rates).tolist()


def decode_orders(rows, members_by_bs, pow2r, sigma2: float, powers, order_rule: str) -> tuple:
    """Decode order of every BS's group on one subchannel, first decoded first.

    ccinr decodes ascending CCINR at the group powers `powers` (the
    power-minimizing rule); channel_gain decodes ascending own-BS gain (the
    single-cell convention); rate_descending decodes the highest target
    rate first. Ties go to the lower user id.
    """
    if order_rule == CCINR_ORDER:
        return _ccinr_orders(_member_ccinr(rows, members_by_bs, powers, sigma2))
    if order_rule == CHANNEL_GAIN_ORDER:
        return tuple(
            tuple(sorted(mem, key=lambda n, row=rows[m]: (row[n], n)))
            for m, mem in enumerate(members_by_bs)
        )
    if order_rule == RATE_DESCENDING_ORDER:
        return tuple(tuple(sorted(mem, key=lambda n: (-pow2r[n], n))) for mem in members_by_bs)
    raise ValueError(f"unknown order rule: {order_rule!r}")


def _ccinr_orders(groups) -> tuple:
    """Ascending-CCINR orders of _member_ccinr's groups, which it sorts in place."""
    for group in groups:
        group.sort()
    return tuple([tuple([n for _s, n, _i in group]) for group in groups])


def assemble_coupling(rows, orders, pow2r, sigma2: float) -> tuple[list, list]:
    """Coupling system a @ P = b of one subchannel under the given orders.

    Row m accumulates, over BS m's members in decode order, the weight
    w_n = (2^r_n - 1)/|H_own|^2 * prod(earlier 2^r_i); a has -1 on the
    diagonal, the off-diagonal entry (m, m') is sum_n w_n |H_m'|^2, and
    b_m = -sigma^2 sum_n w_n. Each row sums over every BS, its own
    included, and then sets its diagonal. pow2r[n] = 2 ** spectral_rate[n].
    A member whose own-BS gain is 0 raises ZeroDivisionError.
    """
    num_bs = len(rows)
    bs = range(num_bs)
    a = []
    b = []
    for m in bs:
        row = rows[m]
        arow = [0.0] * num_bs
        prod = 1.0
        wsum = 0.0
        for n in orders[m]:
            f = pow2r[n]
            w = (f - 1.0) / row[n] * prod
            wsum += w
            for mp in bs:
                arow[mp] += w * rows[mp][n]
            prod *= f
        arow[m] = -1.0
        a.append(arow)
        b.append(-sigma2 * wsum)
    return a, b


def solve_coupling(a_rows: list, b_vec: list):
    """Group powers P >= 0 with a @ P = b, or None when infeasible.

    The domain is the one assemble_coupling builds: a = C - I with C >= 0
    and b <= 0. Gaussian elimination without pivoting on nested lists;
    every pivot is < 0 exactly when rho(C) < 1, and then P >= +0.0 (see
    the module docstring). So a pivot that is not < 0 (zero, positive or
    NaN) returns None at its step, and so does a result that is not
    finite. None means the grouping cannot be powered on this subchannel;
    it is not an error. A component < 0, which only a system outside the
    domain can give, also returns None.
    """
    n = len(b_vec)
    a = [row[:] for row in a_rows]
    x = list(b_vec)
    for k in range(n):
        ak = a[k]
        akk = ak[k]
        if not akk < 0.0:  # zero, positive or NaN: rho(C) >= 1
            return None
        for i in range(k + 1, n):
            ai = a[i]
            f = ai[k] / akk
            for j in range(k + 1, n):
                ai[j] -= f * ak[j]
            x[i] -= f * x[k]
    for i in range(n - 1, -1, -1):
        ai = a[i]
        acc = x[i]
        for j in range(i + 1, n):
            acc -= ai[j] * x[j]
        x[i] = acc / ai[i]
    for v in x:
        if not 0.0 <= v < math.inf:  # negative, overflowed or NaN
            return None
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


class ChannelScreen(NamedTuple):
    """A subchannel's zero-power screen: the first iteration of its fixed point.

    orders are the decode orders at zero power and powers the exact solve
    for them, or None when that solve refuted the subchannel.
    """

    powers: list[float] | None
    orders: tuple


def screen_channel(
    gain_lists,
    channel: int,
    members_by_bs,
    pow2r,
    sigma2: float,
    order_rule: str = CCINR_ORDER,
) -> ChannelScreen:
    """The zero-power screen of one subchannel: decode at zero power, assemble, solve.

    The decode skips the interference sums, as solve_channel_batch's
    first does. The screen refutes the subchannel (powers None) when the
    solve has a pivot that is not < 0 or a non-finite power, or when a
    member's own-BS gain is 0. A passed screen is feasible in exact
    arithmetic (see the module docstring).
    """
    rows = [gain_lists[m][channel] for m in range(len(members_by_bs))]
    orders = decode_orders(rows, members_by_bs, pow2r, sigma2, [0.0] * len(rows), order_rule)
    try:
        system = assemble_coupling(rows, orders, pow2r, sigma2)
    except ZeroDivisionError:
        return ChannelScreen(None, orders)
    return ChannelScreen(solve_coupling(*system), orders)


def continue_channel(
    gain_lists,
    channel: int,
    members_by_bs,
    pow2r,
    sigma2: float,
    screen: ChannelScreen,
    order_rule: str = CCINR_ORDER,
) -> ChannelSolveResult:
    """The fixed point of one subchannel from iteration 2, after a passed screen.

    It resumes from the screen's powers and the orders they were solved
    for, and runs solve_one_channel's iterations 2 onwards with the same
    bits. A later pivot, an overflow or the iteration cap still refutes
    the subchannel; in exact arithmetic none can (see the module
    docstring), but rounding near rho(C) = 1 can.
    """
    rows = [gain_lists[m][channel] for m in range(len(members_by_bs))]
    p_cur, solved_orders = screen
    iterations = 1
    by_ccinr = order_rule == CCINR_ORDER
    orders = solved_orders  # only the CCINR orders depend on the powers
    for iterations in range(2, MAX_FIXED_POINT_ITERATIONS + 1):
        if by_ccinr:
            table = _member_ccinr(rows, members_by_bs, p_cur, sigma2)
            orders = _ccinr_orders(table)
        if orders == solved_orders:
            if not by_ccinr:
                table = _member_ccinr(rows, members_by_bs, p_cur, sigma2)
            return ChannelSolveResult(p_cur, orders, iterations, True, table)
        # the screen assembled every member, so no own-BS gain is 0 here
        p_new = solve_coupling(*assemble_coupling(rows, orders, pow2r, sigma2))
        if p_new is None:
            return ChannelSolveResult(p_cur, orders, iterations, False)
        p_cur, solved_orders = p_new, orders
    return ChannelSolveResult(p_cur, solved_orders, iterations, False)


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
    Otherwise the new orders are solved. Iteration 1 is screen_channel,
    the rest continue_channel. A feasible result also carries the CCINR
    values at the returned powers (see ChannelSolveResult): under the
    CCINR rule those of the confirming decode, under the fixed-order
    rules one decode more. A subchannel the screen refutes (a member whose
    own-BS gain is 0 among the causes) is infeasible at iteration 1, with
    zero powers, as in solve_channel_batch.
    """
    screen = screen_channel(gain_lists, channel, members_by_bs, pow2r, sigma2, order_rule)
    if screen.powers is None:
        return ChannelSolveResult([0.0] * len(members_by_bs), screen.orders, 1, False)
    return continue_channel(gain_lists, channel, members_by_bs, pow2r, sigma2, screen, order_rule)


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
    and over elimination columns), and the elimination and its checks are
    the same. A system whose solve fails gets its verdict, iteration and
    powers at once and leaves the arrays at the next pass's one
    compaction, with those whose orders repeated; it stays out of the
    write-back at the iteration cap.

    The system index is the last axis of every working array, so each
    step is a few numpy operations on contiguous (..., K) blocks. A pad
    slot has own gain +inf: its CCINR is inf, so it decodes after every
    user, and its weight (f - 1)/own is 0, so it adds exact zeros.
    """
    members = np.asarray(members, dtype=np.intp).transpose(1, 2, 0)  # (M, P, K)
    num_bs, _width, num_sys = members.shape
    gain = np.asarray(gain)
    # gg[mp, m, p, k]: BS mp's gain to slot p of BS m's row in system k,
    # gathered by flat (subchannel, user) index; a pad reads some user's.
    # The own-BS gains move to `own`; zeroed in gg, they add exact zeros
    # where the scalar kernel skips mp == m.
    flat = np.asarray(channels, dtype=np.intp) * gain.shape[2] + members
    gg = np.take(gain.reshape(num_bs, -1), flat, axis=1)
    bs = np.arange(num_bs)
    own = gg[bs, bs]  # (M, P, K)
    gg[bs, bs] = 0.0
    own[members < 0] = np.inf
    f = np.asarray(pow2r)[members]
    with np.errstate(all="ignore"):
        ratio = (f - 1.0) / own

    powers = np.zeros((num_bs, num_sys))
    iterations = np.full(num_sys, MAX_FIXED_POINT_ITERATIONS)
    feasible = np.zeros(num_sys, dtype=bool)
    act = np.arange(num_sys)  # the systems still in the arrays
    p_cur = powers.copy()
    solved = None  # the orders p_cur was solved for
    failed = None  # the systems whose last solve failed; their verdict is written
    with np.errstate(all="ignore"):
        for it in range(1, MAX_FIXED_POINT_ITERATIONS + 1):
            if solved is None:  # at zero power every interference sum is 0.0
                s = own / sigma2
            else:
                interference = gg[0] * p_cur[0]
                for mp in range(1, num_bs):
                    interference = interference + gg[mp] * p_cur[mp]
                s = own / (interference + sigma2)
            orders = np.argsort(s, axis=1, kind="stable")  # ties: the lower slot, so the lower id
            if solved is not None:
                done = (orders == solved).all(axis=(0, 1)) & ~failed
                confirmed = act[done]
                iterations[confirmed] = it
                feasible[confirmed] = True
                powers[:, confirmed] = p_cur[:, done]
                keep = ~(done | failed)  # the one compaction of the pass
                act, orders, p_cur = act[keep], orders[..., keep], p_cur[:, keep]
                gg, own, ratio, f = gg[..., keep], own[..., keep], ratio[..., keep], f[..., keep]
                if act.size == 0:
                    break
            p_new, ok = _solve_coupling_batch(_assemble_coupling_batch(gg, ratio, f, orders, sigma2))
            failed = ~ok
            if failed.any():
                refuted = act[failed]
                iterations[refuted] = it
                powers[:, refuted] = p_cur[:, failed]
                if failed.all():
                    break
            p_cur, solved = p_new, orders
        else:
            powers[:, act[~failed]] = p_cur[:, ~failed]
    return ChannelBatchResult(powers.T, iterations, feasible)


def _assemble_coupling_batch(gg, ratio, f, orders, sigma2: float):
    """assemble_coupling of every system, one decode position at a time.

    ratio holds (f - 1)/own per slot. Returns the augmented [a | b], (M, M + 1, K).
    """
    num_bs, width, num_sys = ratio.shape
    # at[m, t, k]: flat index into an (M, P, K) array of the user BS m
    # decodes at position t in system k.
    at = (np.arange(num_bs)[:, None, None] * width + orders) * num_sys + np.arange(num_sys)
    ratio, f = np.take(ratio, at), np.take(f, at)
    gg = gg.reshape(num_bs, -1)
    aug = np.zeros((num_bs, num_bs + 1, num_sys))
    a = aug[:, :num_bs]
    prod = np.ones((num_bs, num_sys))
    wsum = np.zeros((num_bs, num_sys))
    for t in range(width):
        w = ratio[:, t] * prod
        wsum += w
        # a[m, m', k] += w * (BS m' gain to the user), zero for m' == m
        a += w[:, None] * np.take(gg, at[:, t], axis=1).transpose(1, 0, 2)
        prod *= f[:, t]
    diag = np.arange(num_bs)
    a[diag, diag] = -1.0
    aug[:, num_bs] = -sigma2 * wsum
    return aug


def _solve_coupling_batch(aug):
    """solve_coupling of the systems aug[:, :M, k] @ P = aug[:, M, k], in place.

    Returns (powers, ok): the (M, K) solutions, meaningful where ok. A
    system whose pivot fails is eliminated to the end like the others,
    on values that no longer matter.
    """
    n = aug.shape[0]
    for k in range(n - 1):
        fac = aug[k + 1 :, k] / aug[k, k]
        aug[k + 1 :, k + 1 :] -= fac[:, None] * aug[k, None, k + 1 :]
    # Elimination leaves pivot k at aug[k, k]; the scalar path tests each at its step.
    diag = np.arange(n)
    ok = (aug[diag, diag] < 0.0).all(axis=0)
    x = aug[:, n]
    for i in range(n - 1, -1, -1):
        acc = x[i]
        for j in range(i + 1, n):
            acc = acc - aug[i, j] * x[j]
        x[i] = acc / aug[i, i]
    ok &= np.isfinite(x).all(axis=0)
    return x, ok


def check_grouping(grouping: Grouping, scenario: Scenario) -> None:
    """Raise ValueError unless the grouping fits the scenario.

    It must have one entry per user of the scenario, every channel in
    [0, G) and bs_of equal to the scenario's association.
    """
    cfg = scenario.config
    if grouping.num_users != cfg.num_users:
        raise ValueError(f"grouping has {grouping.num_users} users, the scenario {cfg.num_users}")
    channel_of = grouping.channel_of
    if channel_of.size and (channel_of.min() < 0 or channel_of.max() >= cfg.num_channels):
        raise ValueError(f"grouping uses a subchannel outside [0, {cfg.num_channels})")
    if not (grouping.bs_of == scenario.association).all():
        raise ValueError("grouping does not match the scenario association")


def check_gains(gains: ChannelGains, scenario: Scenario) -> None:
    """Raise ValueError unless the gain table has the scenario's (M, G, N) shape."""
    cfg = scenario.config
    shape = (cfg.num_bs, cfg.num_channels, cfg.num_users)
    if gains.gain.shape != shape:
        raise ValueError(f"gain table has shape {gains.gain.shape}, the scenario {shape}")


def solve_all_powers(
    gains: ChannelGains,
    grouping: Grouping,
    scenario: Scenario,
    order_rule: str = CCINR_ORDER,
) -> PowerSolution:
    """Coupled power allocation across all cells and subchannels.

    Subchannels are orthogonal, so each one is solved by its own fixed
    point (started from zero power), split in two passes over the
    subchannels, each in descending order of their members' total target
    rate (ties: the lower index first). The first runs every
    subchannel's zero-power screen (screen_channel) and stops at the
    first that refutes its subchannel: the result is infeasible, with
    fixed_point_iterations 1 and that subchannel as refuted_channel. A
    passed screen is feasible in exact arithmetic, so only when all pass
    does the second pass continue each fixed point from its screen
    (continue_channel), without solving the screen again; a later pivot
    that is not < 0, a non-finite power or the iteration cap, which only
    rounding can bring about, still refutes its subchannel there. The
    most loaded subchannel is the likeliest to fail, so this order
    refutes an infeasible grouping after fewer screens than index order,
    and no fixed point is run to the end for a grouping that a later
    screen refutes. A feasible result does not depend on the order:
    group_power, the CCINR table,
    sic_order (keyed in subchannel order) and p are assembled in
    subchannel order. The CCINR table is the one at the converged powers:
    under the CCINR rule, the fixed point's confirming decode; under the
    fixed-order rules, one more decode at those powers. Per-user powers
    are then recovered by the recursion. A grouping or gain table that
    does not fit the scenario raises ValueError (see check_grouping and
    check_gains).
    """
    check_grouping(grouping, scenario)
    check_gains(gains, scenario)
    cfg = scenario.config
    sigma2 = scenario.noise_power_w
    rates = scenario.spectral_rates()
    pow2r = pow2_rates(rates)
    lists = gains.as_lists()
    num_bs, num_ch, num_users = cfg.num_bs, cfg.num_channels, cfg.num_users

    def infeasible(channel: int, iterations: int) -> PowerSolution:
        return PowerSolution(
            p=np.full(num_users, np.nan),
            group_power=np.full((num_bs, num_ch), np.nan),
            ccinr=None,
            sic_order={},
            feasible=False,
            fixed_point_iterations=iterations,
            refuted_channel=channel,
        )

    members = grouping.members_by_channel(num_ch, num_bs)
    load = np.bincount(grouping.channel_of, weights=rates, minlength=num_ch)
    solve_order = np.argsort(-load, kind="stable").tolist()  # highest total rate first
    screens = []
    for g in solve_order:
        screen = screen_channel(lists, g, members[g], pow2r, sigma2, order_rule)
        if screen.powers is None:
            return infeasible(g, 1)
        screens.append(screen)
    results = [None] * num_ch
    max_iters = 0
    for g, screen in zip(solve_order, screens):
        res = continue_channel(lists, g, members[g], pow2r, sigma2, screen, order_rule)
        max_iters = max(max_iters, res.iterations)
        if not res.feasible:
            return infeasible(g, max_iters)
        results[g] = res

    s = [0.0] * num_users
    interference = [0.0] * num_users
    orders: dict = {}
    for g, res in enumerate(results):
        for group in res.ccinr:
            for s_n, n, i_n in group:
                s[n] = s_n
                interference[n] = i_n
        for m, order in enumerate(res.orders):
            orders[(m, g)] = order

    p = [0.0] * num_users
    for order in orders.values():
        if order:
            for n, p_n in user_powers(order, s, pow2r).items():
                p[n] = p_n
    return PowerSolution(
        p=np.array(p),
        group_power=np.array([res.powers for res in results]).T.copy(),
        ccinr=CcinrTable(s=np.array(s), interference=np.array(interference)),
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
    """Sum of all user powers in watts; +inf for an infeasible solution."""
    return float(np.sum(solution.p)) if solution.feasible else math.inf
