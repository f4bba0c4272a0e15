"""Reproducible network instances: geometry, fading, noise and QoS targets.

Everything here is a pure function of (config, seed). A scenario fixes the
slow quantities (positions, target rates, nearest-BS association, noise
power); channel gains are drawn separately so several fading realizations
can share one geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

PATH_LOSS_REF_DB = 128.1
PATH_LOSS_SLOPE_DB = 37.6

# Rejected placement tries in a row before the area is declared too small.
_MAX_PLACEMENT_TRIES = 10_000


class ScenarioGenerationError(RuntimeError):
    """Raised when the placement constraints cannot be satisfied."""


@dataclass
class SimConfig:
    """Static description of a network instance.

    area is (x_min, y_min, x_max, y_max) in meters. rate_range_bps is the
    (low, high) interval the per-user target bit rates are drawn from.
    noise_psd_dbm_per_hz is the one-sided noise power spectral density.
    """

    num_bs: int
    num_users: int
    num_channels: int
    area: tuple[float, float, float, float]
    bs_positions: np.ndarray
    min_user_bs_distance: float = 15.0
    bandwidth_hz: float = 200e3
    noise_psd_dbm_per_hz: float = -174.0
    rate_range_bps: tuple[float, float] = (60e3, 600e3)
    seed: int = 0

    def __post_init__(self):
        self.bs_positions = np.asarray(self.bs_positions, dtype=float)
        if self.bs_positions.shape != (self.num_bs, 2):
            raise ValueError(
                f"bs_positions must have shape ({self.num_bs}, 2), "
                f"got {self.bs_positions.shape}"
            )
        # NaN slips past every ordering test below and fails much later
        # (a spinning placement loop, NaN rates, an overflow), so it and
        # the infinities are refused here.
        for name in (
            "min_user_bs_distance", "bandwidth_hz", "noise_psd_dbm_per_hz",
            "area", "bs_positions", "rate_range_bps",
        ):
            value = getattr(self, name)
            if not np.all(np.isfinite(np.asarray(value, dtype=float))):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.min_user_bs_distance <= 0:
            raise ValueError("min_user_bs_distance must be > 0")
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth_hz must be > 0")
        lo, hi = self.rate_range_bps
        if lo < 0:
            raise ValueError(f"rate_range_bps low must be >= 0, got {lo!r}")
        if lo > hi:
            raise ValueError("rate_range_bps low must be <= high")
        if self.num_users < 0 or self.num_channels < 1 or self.num_bs < 1:
            raise ValueError("num_bs/num_users/num_channels out of range")
        x0, y0, x1, y1 = self.area
        if x1 <= x0 or y1 <= y0:
            raise ValueError("area must have positive extent")


@dataclass
class Scenario:
    """One concrete network draw plus the derived constants."""

    config: SimConfig
    user_positions: np.ndarray       # (N, 2) meters
    target_rates_bps: np.ndarray     # (N,) bit/s
    association: np.ndarray          # (N,) BS index of each user
    noise_power_w: float             # sigma^2 in watts

    def users_of_bs(self, m: int) -> list[int]:
        return [int(n) for n in np.flatnonzero(self.association == m)]

    def spectral_rates(self) -> np.ndarray:
        """Target rates normalized to bit/s/Hz of one subchannel."""
        return self.target_rates_bps / self.config.bandwidth_hz


@dataclass
class ChannelGains:
    """Linear power gains, indexed [bs m][channel g][user n].

    The table must be 3-D and every gain finite and >= 0, else ValueError;
    this is the one scan of the values. A zero own gain is valid: it makes
    its subchannel infeasible.
    """

    gain: np.ndarray                 # (M, G, N), dimensionless, >= 0
    _lists: list | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.gain = np.asarray(self.gain, dtype=float)
        if self.gain.ndim != 3:
            raise ValueError(f"gain must be an (M, G, N) array, got shape {self.gain.shape}")
        # NaN fails both comparisons, so this refuses it too.
        if not np.all((self.gain >= 0.0) & (self.gain < np.inf)):
            raise ValueError("gains must be finite and >= 0")

    def as_lists(self) -> list:
        """Nested-list mirror of the gain table for scalar-heavy loops."""
        if self._lists is None:
            self._lists = self.gain.tolist()
        return self._lists


def path_loss_db(distance_m):
    """Large-scale loss in dB at the given link distance(s) in meters."""
    if np.any(distance_m <= 0):
        raise ValueError(f"distance must be > 0, got {distance_m}")
    return PATH_LOSS_REF_DB + PATH_LOSS_SLOPE_DB * np.log10(distance_m / 1000.0)


def noise_power_w(bandwidth_hz: float, noise_psd_dbm_per_hz: float) -> float:
    """Thermal noise power sigma^2 = B * N0 in watts.

    ValueError unless it is finite and > 0: every CCINR divides by it, so
    a PSD so low that sigma^2 underflows to 0, or a PSD and bandwidth so
    high that it overflows, is refused here.
    """
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth must be > 0")
    try:
        psd_w_per_hz = 10.0 ** ((noise_psd_dbm_per_hz - 30.0) / 10.0)
    except OverflowError:
        psd_w_per_hz = math.inf
    sigma2 = psd_w_per_hz * bandwidth_hz
    if not 0.0 < sigma2 < math.inf:
        outcome = "underflows to" if sigma2 == 0.0 else "is not finite:"
        raise ValueError(
            f"noise power of {noise_psd_dbm_per_hz!r} dBm/Hz over {bandwidth_hz!r} Hz {outcome} {sigma2!r} W"
        )
    return sigma2


def generate_scenario(config: SimConfig, seed=None) -> Scenario:
    """Draw user positions, target rates and the nearest-BS association.

    Positions are uniform over the area, resampled until the user sits at
    least min_user_bs_distance away from every BS. Deterministic in
    (config, seed); seed defaults to config.seed.

    Points are drawn in rounds of as many points as users are left to
    place, and user n takes the n-th accepted point. A round's points are
    the same stream values that one draw per try would give, and a round
    can accept at most every point it drew, so the last user is placed by
    the last point of its round: no draw is ever made past it, and the
    target rates that follow come from the same stream position as with
    one try at a time. _MAX_PLACEMENT_TRIES rejections in a row, counted
    across rounds, raise ScenarioGenerationError.
    """
    if seed is None:
        seed = config.seed
    rng = np.random.default_rng(seed)
    x0, y0, x1, y1 = config.area
    bs = config.bs_positions

    positions = np.empty((config.num_users, 2))
    placed = 0
    rejected = 0  # rejections since the last accepted point
    while placed < config.num_users:
        left = config.num_users - placed
        points = rng.uniform((x0, y0), (x1, y1), size=(left, 2))
        dists = np.hypot(bs[None, :, 0] - points[:, 0:1], bs[None, :, 1] - points[:, 1:2])
        accepted = np.flatnonzero(np.min(dists, axis=1) >= config.min_user_bs_distance)
        # Rejection runs before each accepted point and after the last.
        runs = np.diff(np.concatenate(([-1 - rejected], accepted, [left]))) - 1
        if runs.max() >= _MAX_PLACEMENT_TRIES:
            raise ScenarioGenerationError(
                "could not place a user at least "
                f"{config.min_user_bs_distance} m from every BS after "
                f"{_MAX_PLACEMENT_TRIES} tries; area too small"
            )
        positions[placed:placed + accepted.size] = points[accepted]
        placed += accepted.size
        rejected = int(runs[-1])

    lo, hi = config.rate_range_bps
    rates = rng.uniform(lo, hi, size=config.num_users)

    # Nearest BS; np.argmin already breaks ties toward the lowest index.
    dists = np.hypot(
        positions[:, 0:1] - bs[None, :, 0], positions[:, 1:2] - bs[None, :, 1]
    )
    association = np.argmin(dists, axis=1)

    return Scenario(
        config=config,
        user_positions=positions,
        target_rates_bps=rates,
        association=association,
        noise_power_w=noise_power_w(config.bandwidth_hz, config.noise_psd_dbm_per_hz),
    )


def draw_channel_gains(scenario: Scenario, seed, unit_fading: bool = False) -> ChannelGains:
    """Draw |H|^2 per (BS, channel, user): path loss times Rayleigh power.

    The small-scale coefficient is complex normal CN(0, 1), i.i.d. per
    (BS, channel, user), so its squared magnitude is unit-mean exponential.
    Zero draws are resampled to keep every gain strictly positive.
    unit_fading pins |beta|^2 = 1 (test hook for path-loss-only gains).
    """
    cfg = scenario.config
    m, g, n = cfg.num_bs, cfg.num_channels, cfg.num_users
    rng = np.random.default_rng(seed)

    d = np.hypot(
        cfg.bs_positions[:, 0:1] - scenario.user_positions[None, :, 0],
        cfg.bs_positions[:, 1:2] - scenario.user_positions[None, :, 1],
    )  # (M, N)
    pl_linear = 10.0 ** (-path_loss_db(d) / 10.0)

    if unit_fading:
        fading = np.ones((m, g, n))
    else:
        re = rng.standard_normal((m, g, n))
        im = rng.standard_normal((m, g, n))
        fading = (re * re + im * im) / 2.0
        while np.any(fading == 0.0):
            idx = fading == 0.0
            k = int(np.count_nonzero(idx))
            re = rng.standard_normal(k)
            im = rng.standard_normal(k)
            fading[idx] = (re * re + im * im) / 2.0

    return ChannelGains(gain=pl_linear[:, None, :] * fading)


def default_config(
    num_users: int = 50,
    num_channels: int = 10,
    num_bs: int = 4,
    rate_range_bps: tuple[float, float] = (60e3, 600e3),
    seed: int = 0,
) -> SimConfig:
    """Default four-cell layout on a 1000 m x 1000 m area.

    BSs sit on the quarter-points; a single-cell variant puts the BS at the
    center. Other BS counts place BSs evenly on a centered circle.
    """
    if num_bs == 4:
        bs = [(250.0, 250.0), (750.0, 250.0), (250.0, 750.0), (750.0, 750.0)]
    elif num_bs == 1:
        bs = [(500.0, 500.0)]
    else:
        ang = 2 * np.pi * np.arange(num_bs) / num_bs
        bs = np.stack([500 + 250 * np.cos(ang), 500 + 250 * np.sin(ang)], axis=1)
    return SimConfig(
        num_bs=num_bs,
        num_users=num_users,
        num_channels=num_channels,
        area=(0.0, 0.0, 1000.0, 1000.0),
        bs_positions=np.asarray(bs, dtype=float),
        rate_range_bps=rate_range_bps,
        seed=seed,
    )
