import json
import math
from pathlib import Path

import numpy as np
import pytest

from noma_grouping import StrategyKind, load_config, run_experiment, summarize
from noma_grouping.cli import main as cli_main
from noma_grouping.harness import (
    ExperimentSpec,
    make_instance,
    results_csv,
    trial_seeds,
    watts_to_dbm,
)


def _tiny_spec(**overrides):
    kwargs = dict(
        strategies=[StrategyKind("sccd"), StrategyKind("gale_shapley")],
        trials=2,
        base_seed=123,
        num_users_list=[6],
        num_channels_list=[2],
        num_bs_list=[2],
        rate_ranges_bps=[(60e3, 200e3)],
    )
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


class TestRunExperiment:
    def test_single_row(self):
        spec = _tiny_spec(strategies=[StrategyKind("sccd")], trials=1)
        results = run_experiment(spec)
        assert len(results) == 1
        row = results[0]
        assert row.strategy == "sccd"
        assert row.trial == 0

    def test_row_count_and_order(self):
        spec = _tiny_spec(num_users_list=[6, 8])
        results = run_experiment(spec)
        assert len(results) == 2 * 2 * 2  # sweeps x trials x strategies
        keys = [(r.sweep.index, r.trial, r.strategy) for r in results]
        assert keys == sorted(keys, key=lambda k: (k[0], k[1], keys.index(k)))

    def test_deterministic_csv(self):
        spec = _tiny_spec()
        a = results_csv(run_experiment(spec))
        b = results_csv(run_experiment(spec))
        assert a == b
        assert "wallclock" not in a.splitlines()[0]

    def test_matched_seeds_across_strategies(self):
        spec = _tiny_spec()
        results = run_experiment(spec)
        by_trial = {}
        for r in results:
            by_trial.setdefault((r.sweep.index, r.trial), set()).add(r.seed)
        for seeds in by_trial.values():
            assert len(seeds) == 1

    def test_dbm_consistency(self):
        spec = _tiny_spec()
        for r in run_experiment(spec):
            if r.feasible and r.total_power_w > 0:
                assert r.total_power_dbm == pytest.approx(
                    10 * math.log10(r.total_power_w * 1e3)
                )

    def test_infeasible_rows_recorded(self):
        # dense instance: SCCD tends to be unpowerable; rows must remain
        spec = _tiny_spec(
            strategies=[StrategyKind("sccd")],
            num_users_list=[20],
            num_channels_list=[3],
            rate_ranges_bps=[(400e3, 600e3)],
            trials=3,
        )
        results = run_experiment(spec)
        assert len(results) == 3
        for r in results:
            if not r.feasible:
                assert math.isnan(r.total_power_w)

    def test_game_iterations_recorded(self):
        spec = _tiny_spec(strategies=[StrategyKind("fga", 5.0)], trials=1)
        results = run_experiment(spec)
        assert results[0].game_iterations >= 0

    def test_trace_log_written(self, tmp_path):
        spec = _tiny_spec(strategies=[StrategyKind("fga", 5.0)], trials=1)
        run_experiment(spec, trace_dir=str(tmp_path))
        logs = list(tmp_path.glob("trace_*.log"))
        assert len(logs) == 1
        text = logs[0].read_text()
        assert text.strip().endswith(f"final_dbm={text.strip().split('final_dbm=')[-1]}")
        assert "converged=" in text


class TestSummarize:
    def test_single_row_mean(self):
        spec = _tiny_spec(strategies=[StrategyKind("gale_shapley")], trials=1)
        results = run_experiment(spec)
        summary = summarize(results)
        stats = summary["stats"]
        assert len(stats) == 1
        if results[0].feasible:
            assert stats[0]["mean_power_w"] == pytest.approx(results[0].total_power_w)
            assert stats[0]["std_power_w"] == pytest.approx(0.0)

    def test_all_strategies_present_per_sweep(self):
        spec = _tiny_spec(num_users_list=[6, 8])
        summary = summarize(run_experiment(spec))
        seen = {(row["sweep_index"], row["strategy"]) for row in summary["stats"]}
        for sweep in (0, 1):
            for strategy in ("sccd", "gale_shapley"):
                assert (sweep, strategy) in seen

    def test_eba_mean_at_most_fga_mean_on_tiny_instances(self):
        # the exact finder searches a superset of the greedy finder's
        # cycles; on matched seeds its mean should not be worse
        spec = _tiny_spec(
            strategies=[StrategyKind("eba"), StrategyKind("fga", 5.0)],
            trials=6,
            num_users_list=[10],
            num_channels_list=[3],
        )
        summary = summarize(run_experiment(spec))
        means = {row["strategy"]: row["mean_power_w"] for row in summary["stats"]}
        if not (math.isnan(means["eba"]) or math.isnan(means["fga(alpha=5)"])):
            assert means["eba"] <= means["fga(alpha=5)"] * (1 + 1e-9)

    def test_win_rates_sum(self):
        spec = _tiny_spec()
        summary = summarize(run_experiment(spec))
        for row in summary["win_rates"]:
            assert 0.0 <= row["win_or_tie_rate"] <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestSeedsAndConfig:
    def test_trial_seeds_deterministic(self):
        assert trial_seeds(1, 2, 3) == trial_seeds(1, 2, 3)
        assert trial_seeds(1, 2, 3) != trial_seeds(1, 2, 4)

    def test_instance_reproducible(self):
        from noma_grouping.harness import SweepPoint

        point = SweepPoint(0, 2, 8, 2, (60e3, 200e3))
        s1, g1 = make_instance(point, 11, 22)
        s2, g2 = make_instance(point, 11, 22)
        assert np.array_equal(s1.user_positions, s2.user_positions)
        assert np.array_equal(g1.gain, g2.gain)

    def test_load_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {
                    "num_users": 12,
                    "num_channels": 3,
                    "num_bs": 4,
                    "rate_range_bps": [60e3, 300e3],
                }
            )
        )
        cfg = load_config(str(path))
        assert cfg.num_users == 12
        assert cfg.num_channels == 3
        assert cfg.bs_positions.shape == (4, 2)
        assert cfg.rate_range_bps == (60e3, 300e3)

    def test_load_config_rejects_unhonored_keys(self, tmp_path):
        # the sweep rebuilds its scenarios from these four keys only, so a
        # key it would ignore is an error rather than a silent no-op
        unhonored = {
            "area": [0, 0, 500, 500],
            "bs_positions": [[100.0, 100.0]],
            "min_user_bs_distance": 20.0,
            "bandwidth_hz": 1e6,
            "noise_psd_dbm_per_hz": -150.0,
            "seed": 99,
        }
        path = tmp_path / "cfg.json"
        for key, value in unhonored.items():
            path.write_text(json.dumps({"num_users": 5, "num_channels": 2, key: value}))
            with pytest.raises(ValueError, match=key):
                load_config(str(path))

    def test_shipped_config_loads(self):
        cfg = load_config(str(Path(__file__).parents[1] / "configs" / "default.json"))
        assert (cfg.num_users, cfg.num_channels, cfg.num_bs) == (50, 10, 4)
        assert cfg.rate_range_bps == (60e3, 600e3)

    def test_watts_to_dbm(self):
        assert watts_to_dbm(1.0) == pytest.approx(30.0)
        assert watts_to_dbm(0.0) == -math.inf


class TestCli:
    def test_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "results.csv"
        rc = cli_main(
            [
                "--strategy", "sccd",
                "--strategy", "fga:5",
                "--users", "6",
                "--groups", "2",
                "--bs", "2",
                "--trials", "1",
                "--seed", "3",
                "--out", str(out),
            ]
        )
        assert rc == 0
        text = out.read_text()
        assert text.splitlines()[0].startswith("sweep_index,")
        assert len(text.splitlines()) == 3  # header + 2 strategies
        printed = capsys.readouterr().out
        assert "sccd" in printed and "fga(alpha=5)" in printed

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"num_users": 6, "num_channels": 2, "num_bs": 2})
        )
        out = tmp_path / "res.csv"
        rc = cli_main(
            ["--config", str(cfg), "--strategy", "gale_shapley", "--out", str(out)]
        )
        assert rc == 0
        assert out.exists()

    def test_oracle_flag(self, tmp_path):
        out = tmp_path / "res.csv"
        rc = cli_main(
            [
                "--strategy", "sccd",
                "--oracle",
                "--users", "4",
                "--groups", "2",
                "--bs", "2",
                "--trials", "1",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert "exhaustive" in out.read_text()
