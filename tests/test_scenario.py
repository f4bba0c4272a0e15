import math

import numpy as np
import pytest

from conftest import placement_reference
from noma_grouping import scenario as scenario_module
from noma_grouping import (
    ChannelGains,
    ScenarioGenerationError,
    SimConfig,
    draw_channel_gains,
    generate_scenario,
    noise_power_w,
    default_config,
    path_loss_db,
)


class TestPathLoss:
    def test_reference_distance_1km(self):
        assert path_loss_db(1000.0) == pytest.approx(128.1, abs=1e-12)

    def test_100m(self):
        # 128.1 + 37.6*log10(0.1) = 128.1 - 37.6
        assert path_loss_db(100.0) == pytest.approx(90.5, abs=1e-9)

    def test_min_distance_15m(self):
        # independent evaluation of 128.1 + 37.6*log10(0.015)
        assert path_loss_db(15.0) == pytest.approx(59.52103134049361, abs=1e-9)

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ValueError):
            path_loss_db(0.0)
        with pytest.raises(ValueError):
            path_loss_db(-3.0)
        with pytest.raises(ValueError):
            path_loss_db(np.array([[15.0, 100.0], [0.0, 1000.0]]))

    def test_array_is_elementwise(self):
        d = np.array([[15.0, 100.0], [250.0, 1000.0]])
        loss = path_loss_db(d)
        assert loss.shape == d.shape
        assert [float(x) for x in loss.ravel()] == [float(path_loss_db(x)) for x in d.ravel()]


class TestNoisePower:
    def test_default_noise_value(self):
        # 10^(-20.4) * 2e5
        assert noise_power_w(200e3, -174.0) == pytest.approx(7.962143411069939e-16, rel=1e-12)

    def test_unit_bandwidth(self):
        assert noise_power_w(1.0, -30.0) == pytest.approx(1e-6, rel=1e-12)

    def test_linear_in_bandwidth(self):
        base = noise_power_w(200e3, -174.0)
        assert noise_power_w(400e3, -174.0) == pytest.approx(2.0 * base, rel=1e-12)

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            noise_power_w(0.0, -174.0)

    @pytest.mark.parametrize("psd", [-4000.0, -3300.0])
    def test_psd_whose_noise_power_underflows_rejected_at_set_up(self, psd):
        # sigma^2 was 0.0, and solve_all_powers raised ZeroDivisionError
        with pytest.raises(ValueError, match="underflows to 0.0 W"):
            noise_power_w(200e3, psd)
        config = default_config(num_users=12, num_channels=3, num_bs=2, seed=1)
        config.noise_psd_dbm_per_hz = psd
        with pytest.raises(ValueError, match="underflows"):
            generate_scenario(config, seed=1)
        # the lowest PSDs with a denormal sigma^2 still pass
        assert 0.0 < noise_power_w(200e3, -3200.0) < 1e-300

    @pytest.mark.parametrize(
        "bandwidth_hz, psd",
        [(200e3, 3100.0), (200e3, 3200.0), (200e3, 4000.0), (1e300, 2800.0)],
    )
    def test_noise_power_that_overflows_rejected_at_set_up(self, bandwidth_hz, psd):
        # 3,100 dBm/Hz and B = 1e300 Hz gave sigma^2 = inf; 3,200 and
        # 4,000 dBm/Hz raised OverflowError from the power of ten
        with pytest.raises(ValueError, match="is not finite: inf W"):
            noise_power_w(bandwidth_hz, psd)
        config = default_config(num_users=12, num_channels=3, num_bs=2, seed=1)
        config.bandwidth_hz = bandwidth_hz
        config.noise_psd_dbm_per_hz = psd
        with pytest.raises(ValueError, match="is not finite"):
            generate_scenario(config, seed=1)

    def test_highest_finite_noise_power_still_passes(self):
        assert noise_power_w(200e3, 3000.0) == pytest.approx(2e302, rel=1e-9)
        assert noise_power_w(1e300, 100.0) == pytest.approx(1e307, rel=1e-9)


class TestGenerateScenario:
    def test_deterministic(self):
        cfg = default_config(num_users=20, num_channels=4, seed=11)
        a = generate_scenario(cfg, 11)
        b = generate_scenario(cfg, 11)
        assert np.array_equal(a.user_positions, b.user_positions)
        assert np.array_equal(a.target_rates_bps, b.target_rates_bps)
        assert np.array_equal(a.association, b.association)

    def test_single_bs_gets_everyone(self):
        cfg = default_config(num_users=15, num_channels=3, num_bs=1, seed=2)
        sc = generate_scenario(cfg, 2)
        assert np.all(sc.association == 0)

    def test_min_distance_to_every_bs(self):
        cfg = default_config(num_users=50, num_channels=10, num_bs=4, seed=3)
        sc = generate_scenario(cfg, 3)
        for n in range(50):
            d = np.hypot(*(cfg.bs_positions - sc.user_positions[n]).T)
            assert np.min(d) >= 15.0

    def test_association_is_nearest(self):
        cfg = default_config(num_users=50, num_channels=10, num_bs=4, seed=4)
        sc = generate_scenario(cfg, 4)
        for n in range(50):
            d = np.hypot(*(cfg.bs_positions - sc.user_positions[n]).T)
            assert d[sc.association[n]] <= np.min(d) + 1e-12

    def test_rates_within_range(self):
        cfg = default_config(num_users=40, num_channels=5, seed=5)
        sc = generate_scenario(cfg, 5)
        lo, hi = cfg.rate_range_bps
        assert np.all(sc.target_rates_bps >= lo)
        assert np.all(sc.target_rates_bps <= hi)

    def test_impossible_area_fails(self):
        cfg = SimConfig(
            num_bs=1,
            num_users=1,
            num_channels=1,
            area=(0.0, 0.0, 10.0, 10.0),
            bs_positions=np.array([[5.0, 5.0]]),
            min_user_bs_distance=50.0,
        )
        with pytest.raises(ScenarioGenerationError):
            generate_scenario(cfg, 0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(
                num_bs=2,
                num_users=5,
                num_channels=2,
                area=(0, 0, 100, 100),
                bs_positions=np.array([[1.0, 1.0]]),  # wrong count
            )
        # a negative target rate would give a negative spectral target
        for rates in ((-6e5, -1e5), (-1.0, 6e5)):
            with pytest.raises(ValueError, match="low must be >= 0"):
                default_config(num_users=6, num_channels=2, num_bs=1, rate_range_bps=rates)
        assert default_config(num_users=6, num_channels=2, num_bs=1, rate_range_bps=(0.0, 1e5))

    def test_non_finite_fields_rejected(self):
        # each would otherwise fail late: a NaN clearance spins every
        # placement try, a NaN or infinite bandwidth or noise PSD gives
        # NaN or zero rates, a NaN area overflows numpy's uniform draw
        base = dict(
            num_bs=1, num_users=3, num_channels=2,
            area=(0.0, 0.0, 100.0, 100.0), bs_positions=[[50.0, 50.0]],
        )
        SimConfig(**base)
        for field, value in (
            ("min_user_bs_distance", math.nan),
            ("bandwidth_hz", math.nan),
            ("bandwidth_hz", math.inf),
            ("noise_psd_dbm_per_hz", math.nan),
            ("noise_psd_dbm_per_hz", -math.inf),
            ("area", (0.0, 0.0, math.nan, 100.0)),
            ("area", (-math.inf, 0.0, 100.0, 100.0)),
            ("bs_positions", [[50.0, math.nan]]),
            ("rate_range_bps", (60e3, math.inf)),
            ("rate_range_bps", (math.nan, 6e5)),
        ):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                SimConfig(**{**base, field: value})


# Layouts the round-based placement is checked on: the default layouts,
# plus two where many points fall inside a BS's clearance disc (about half
# in the first, all but 0.7% in the second).
def _placement_layouts():
    for num_bs in (1, 2, 4):
        for num_users in (0, 1, 30, 65):
            yield default_config(num_users=num_users, num_channels=4, num_bs=num_bs)
    for num_users in (1, 30):
        yield SimConfig(
            num_bs=1, num_users=num_users, num_channels=4, area=(0.0, 0.0, 300.0, 300.0),
            bs_positions=[[150.0, 150.0]], min_user_bs_distance=120.0,
        )
        yield SimConfig(
            num_bs=4, num_users=num_users, num_channels=4, area=(0.0, 0.0, 600.0, 600.0),
            bs_positions=[[150.0, 150.0], [450.0, 150.0], [150.0, 450.0], [450.0, 450.0]],
            min_user_bs_distance=200.0,
        )


def _placement_outcome(draw, config, seed):
    """(positions, rates, association) as bytes, or "error"."""
    try:
        arrays = draw(config, seed)
    except ScenarioGenerationError:
        return "error"
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def _placement(config, seed):
    sc = generate_scenario(config, seed)
    return sc.user_positions, sc.target_rates_bps, sc.association


class TestPlacementReference:
    def test_matches_one_try_at_a_time(self):
        checked = 0
        for config in _placement_layouts():
            for seed in range(25):
                outcome = _placement_outcome(_placement, config, seed)
                assert outcome != "error"
                assert outcome == _placement_outcome(placement_reference, config, seed)
                checked += 1
        assert checked == 400

    def test_try_limit_matches(self, monkeypatch):
        # A low limit makes some draws fail; both raise on exactly the
        # same ones, and the rest stay bit-identical.
        drawn = errors = 0
        for tries in range(1, 6):
            monkeypatch.setattr(scenario_module, "_MAX_PLACEMENT_TRIES", tries)
            for config in _placement_layouts():
                if config.num_users == 65:
                    continue
                for seed in range(8):
                    outcome = _placement_outcome(_placement, config, seed)
                    assert outcome == _placement_outcome(placement_reference, config, seed)
                    drawn += 1
                    errors += outcome == "error"
        assert 0 < errors < drawn

    def test_error_names_the_try_limit(self, monkeypatch):
        monkeypatch.setattr(scenario_module, "_MAX_PLACEMENT_TRIES", 3)
        config = SimConfig(
            num_bs=1, num_users=1, num_channels=1, area=(0.0, 0.0, 10.0, 10.0),
            bs_positions=[[5.0, 5.0]], min_user_bs_distance=50.0,
        )
        with pytest.raises(ScenarioGenerationError, match="after 3 tries; area too small"):
            generate_scenario(config, 0)


class TestChannelGains:
    def test_unit_fading_inverts_path_loss(self):
        # one BS in the corner so a known distance is easy to plant
        cfg = SimConfig(
            num_bs=1,
            num_users=1,
            num_channels=1,
            area=(0.0, 0.0, 2000.0, 2000.0),
            bs_positions=np.array([[0.0, 0.0]]),
        )
        sc = generate_scenario(cfg, 0)
        sc.user_positions[0] = (1000.0, 0.0)
        gains = draw_channel_gains(sc, 0, unit_fading=True)
        assert gains.gain[0, 0, 0] == pytest.approx(10 ** (-12.81), rel=1e-12)

    def test_deterministic(self):
        cfg = default_config(num_users=10, num_channels=3, seed=6)
        sc = generate_scenario(cfg, 6)
        a = draw_channel_gains(sc, 42)
        b = draw_channel_gains(sc, 42)
        assert np.array_equal(a.gain, b.gain)

    def test_positive(self):
        cfg = default_config(num_users=30, num_channels=6, seed=7)
        sc = generate_scenario(cfg, 7)
        gains = draw_channel_gains(sc, 7)
        assert np.all(gains.gain > 0)

    @pytest.mark.parametrize("bad", [math.nan, -1e-12, math.inf, -math.inf])
    def test_rejects_a_negative_or_non_finite_gain(self, bad):
        table = np.full((2, 3, 4), 1e-10)
        table[1, 2, 3] = bad
        with pytest.raises(ValueError, match="finite and >= 0"):
            ChannelGains(gain=table)

    def test_rejects_a_table_that_is_not_3d(self):
        for table in (np.full((3, 4), 1e-10), np.full((1, 2, 3, 4), 1e-10)):
            with pytest.raises(ValueError, match=r"an \(M, G, N\) array"):
                ChannelGains(gain=table)

    def test_zero_gain_is_valid(self):
        # a zero own gain makes its subchannel infeasible; it is not an input error
        table = np.full((2, 3, 4), 1e-10)
        table[0, 0, 0] = 0.0
        assert ChannelGains(gain=table).gain[0, 0, 0] == 0.0

    def test_fading_power_is_unit_mean(self):
        # strip path loss by dividing out a unit-fading draw of the same
        # geometry; the residual is the squared fading magnitude
        cfg = default_config(num_users=60, num_channels=45, seed=8)
        sc = generate_scenario(cfg, 8)
        flat = draw_channel_gains(sc, 0, unit_fading=True)
        chunks = []
        for k in range(10):  # 10 draws x 4*45*60 = 108k samples
            faded = draw_channel_gains(sc, 100 + k)
            chunks.append((faded.gain / flat.gain).ravel())
        samples = np.concatenate(chunks)
        assert samples.size >= 1e5
        assert abs(float(np.mean(samples)) - 1.0) <= 0.02
