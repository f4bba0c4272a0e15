import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import feasible_instances
from noma_grouping import run_game
from noma_grouping import cli as cli_module
from noma_grouping.cli import main as cli_main
from noma_grouping.harness import (
    ExperimentSpec,
    StrategyKind,
    load_config,
    make_instance,
    results_csv,
    run_experiment,
    summarize,
    trial_seeds,
    watts_to_dbm,
    write_trace_log,
)


SRC = Path(__file__).parents[1] / "src"


def assert_usage_error(capsys, argv, message):
    """cli.main(argv) exits 2 before any trial, printing the usage line and message."""
    with pytest.raises(SystemExit) as info:
        cli_main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: noma-grouping") and message in err, err


def _no_run(*args, **kwargs):
    raise AssertionError("a trial ran")


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
        keys = [(r.sweep_index, r.trial, r.strategy) for r in results]
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
            by_trial.setdefault((r.sweep_index, r.trial), set()).add(r.seed)
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
        results = run_experiment(spec, trace_dir=str(tmp_path))
        logs = list(tmp_path.glob("trace_*.log"))
        assert len(logs) == 1
        last = logs[0].read_text().splitlines()[-1]
        assert results[0].feasible
        assert last.startswith("converged=True ")
        assert last.split("final_dbm=")[1] == f"{results[0].total_power_dbm:.6f}"

    def test_trace_log_step_lines(self):
        scenario, gains, _grouping, _sol = next(feasible_instances(1, 14, 3, 2, start_seed=50))
        _final, _solution, trace = run_game(gains, scenario, finder="fga")
        assert trace.iterations
        buf = io.StringIO()
        write_trace_log(trace, buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == len(trace.iterations) + 1
        assert lines[-1].startswith("converged=True final_dbm=")
        for k, (line, step) in enumerate(zip(lines, trace.iterations)):
            fields = dict(item.split("=", 1) for item in line.split())
            assert list(fields) == ["iter", "bs", "moves", "before_dbm", "after_dbm", "delta_db"]
            assert (fields["iter"], fields["bs"]) == (str(k), str(step.bs))
            moves = [move.removeprefix("u").split("->g") for move in fields["moves"].split(";")]
            assert [(int(u), int(g)) for u, g in moves] == step.action.moves
            assert float(fields["delta_db"]) < 0.0


class TestStrategyAlpha:
    def test_alpha_only_for_game_strategies(self):
        for kind in ("eba", "sccd", "gale_shapley", "exhaustive"):
            assert StrategyKind(kind).alpha is None
            for alpha in (3.0, 0.0, 5.0):
                with pytest.raises(ValueError, match="takes no alpha"):
                    StrategyKind(kind, alpha)
        assert StrategyKind("fga", 2.0).alpha == 2.0

    def test_cli_rejects_alpha_of_other_strategies(self, tmp_path, capsys):
        out = tmp_path / "res.csv"
        for text in ("eba:2", "sccd:3", "exhaustive:0"):
            assert_usage_error(capsys, ["--strategy", "fga", "--strategy", text, "--out", str(out)], "takes no alpha")
        assert not out.exists()


class TestExperimentSpec:
    def test_repeated_label_rejected(self):
        # two rows per trial under one label would merge into one stats row
        for strategies in (
            [StrategyKind("sccd"), StrategyKind("sccd")],
            [StrategyKind("eba"), StrategyKind("eba")],
            [StrategyKind("fga"), StrategyKind("fga", 5.0)],
        ):
            with pytest.raises(ValueError, match="more than once"):
                _tiny_spec(strategies=strategies)
        _tiny_spec(strategies=[StrategyKind("fga", 2.0), StrategyKind("fga", 10.0)])
        with pytest.raises(ValueError, match="at least one strategy"):
            _tiny_spec(strategies=[])

    @pytest.mark.parametrize("field", ["num_users_list", "num_channels_list", "num_bs_list"])
    def test_count_below_one_rejected(self, field):
        # a sweep point with no users would write a feasible 0 W row with a NaN interference
        for counts in ([0], [4, -1]):
            with pytest.raises(ValueError, match=rf"{field} holds counts below 1: \[{counts[-1]}\]"):
                _tiny_spec(**{field: counts})
        with pytest.raises(ValueError, match="trials must be >= 1"):
            _tiny_spec(trials=0)

    def test_cli_rejects_repeated_strategy_before_running(self, tmp_path, capsys):
        out = tmp_path / "res.csv"
        argv = ["--strategy", "sccd", "--strategy", "sccd", "--trials", "2", "--out", str(out)]
        assert_usage_error(capsys, argv, "more than once")
        assert_usage_error(capsys, ["--strategy", "sccd", "--strategy", "fga:nan", "--out", str(out)], "finite and > 0")
        assert not out.exists()


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

    def test_load_config_rejects_malformed_values(self, tmp_path):
        path = tmp_path / "cfg.json"
        for raw, message in (
            (5, "JSON object"),
            ([], "JSON object"),
            ({"num_users": "50"}, "num_users must be an integer"),
            ({"num_bs": 4.0}, "num_bs must be an integer"),
            ({"num_channels": True}, "num_channels must be an integer"),
            ({"rate_range_bps": 5}, "two finite numbers"),
            ({"rate_range_bps": [60e3]}, "two finite numbers"),
            ({"rate_range_bps": [60e3, "6e5"]}, "two finite numbers"),
            ({"rate_range_bps": [math.nan, 6e5]}, "two finite numbers"),
            ({"rate_range_bps": [60e3, math.inf]}, "two finite numbers"),
            (
                {"num_users": 6, "num_channels": 2, "num_bs": 1, "rate_range_bps": [-6e5, -1e5]},
                "low must be >= 0",
            ),
        ):
            path.write_text(json.dumps(raw))
            with pytest.raises(ValueError, match=message):
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

    def test_config_integer_rates_are_written_as_floats(self, tmp_path):
        # the CSV row is TrialResult's fields: an int rate bound and the
        # bool feasible must still be written as 60000.0 and 0/1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"num_users": 6, "num_channels": 2, "num_bs": 2, "rate_range_bps": [60000, 200000]}))
        out = tmp_path / "res.csv"
        rc = cli_main(
            ["--config", str(cfg), "--strategy", "sccd", "--strategy", "gale_shapley", "--trials", "2", "--out", str(out)]
        )
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        for row in rows:
            assert (row["rate_low_bps"], row["rate_high_bps"]) == ("60000.0", "200000.0")
            assert row["feasible"] in ("0", "1")

    def test_argument_errors_exit_with_usage(self, tmp_path, capsys, monkeypatch):
        # each is refused by the parser, before the first trial would run
        monkeypatch.setattr(cli_module, "run_experiment", _no_run)
        out = tmp_path / "res.csv"
        for argv, message in (
            (["--trials", "0"], "argument --trials: must be >= 1, got 0"),
            (["--trials", "two"], "argument --trials: invalid count value: 'two'"),
            (["--strategy", "fga:abc"], "could not convert string to float: 'abc'"),
            (["--strategy", "fga:nan"], "alpha must be finite and > 0"),
            (["--strategy", "sccd:2"], "strategy 'sccd' takes no alpha"),
            (["--strategy", "greedy"], "unknown strategy 'greedy'"),
            (["--users", "-3"], "argument --users: must be >= 1, got -3"),
            (["--users", "0"], "argument --users: must be >= 1, got 0"),
            (["--groups", "0"], "argument --groups: must be >= 1, got 0"),
            (["--bs", "0"], "argument --bs: must be >= 1, got 0"),
            (["--seed", "-1"], "argument --seed: must be >= 0, got -1"),
        ):
            assert_usage_error(capsys, argv + ["--out", str(out)], message)
        assert not out.exists()

    def test_config_errors_exit_with_usage(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli_module, "run_experiment", _no_run)
        cfg = tmp_path / "cfg.json"
        for text, message in (
            ('{"num_users": 6,', "Expecting property name"),
            ('{"num_users": 6, "seed": 1}', "unsupported config keys ['seed']"),
            ('{"num_users": -3}', "num_bs/num_users/num_channels out of range"),
        ):
            cfg.write_text(text)
            assert_usage_error(capsys, ["--config", str(cfg)], message)
        assert_usage_error(capsys, ["--config", str(tmp_path / "missing.json")], "No such file")

    def test_output_path_errors_exit_with_usage(self, tmp_path, capsys, monkeypatch):
        # --out used to fail after the whole sweep, --trace-dir after the first game
        monkeypatch.setattr(cli_module, "run_experiment", _no_run)
        missing = tmp_path / "missing"
        not_a_dir = tmp_path / "file.txt"
        not_a_dir.write_text("")
        for out in (missing / "r.csv", tmp_path):
            assert_usage_error(capsys, ["--out", str(out)], "must name a file in an existing directory")
        for trace_dir in (missing, not_a_dir):
            assert_usage_error(capsys, ["--trace-dir", str(trace_dir)], "is not a directory")
        assert not missing.exists()

    def test_oracle_flag(self, tmp_path):
        # the exhaustive oracle is one more --strategy; there is no flag of its own
        out = tmp_path / "res.csv"
        rc = cli_main(
            [
                "--strategy", "sccd",
                "--strategy", "exhaustive",
                "--users", "4",
                "--groups", "2",
                "--bs", "2",
                "--trials", "2",
                "--out", str(out),
            ]
        )
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["trial"], row["strategy"]) for row in rows] == [
            ("0", "sccd"), ("0", "exhaustive"), ("1", "sccd"), ("1", "exhaustive")
        ]
        with pytest.raises(SystemExit):
            cli_main(["--strategy", "sccd", "--oracle", "--out", str(out)])


class TestImportBoundary:
    def test_package_import_leaves_the_harness_out(self):
        # a fresh interpreter, so no earlier test's imports count
        script = (
            "import sys\n"
            "import noma_grouping\n"
            "print(sorted(m for m in ('noma_grouping.harness', 'noma_grouping.cli', 'csv', 'json')"
            " if m in sys.modules))\n"
            "print(hasattr(noma_grouping, 'run_experiment'))\n"
            "from noma_grouping.harness import ExperimentSpec, StrategyKind, run_experiment, summarize\n"
            "from noma_grouping.cli import main\n"
            "print(hasattr(noma_grouping, 'run_experiment'), callable(run_experiment), callable(main))\n"
        )
        path = os.pathsep.join([str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=True,
        )
        assert proc.stdout.splitlines() == ["[]", "False", "False True True"], proc.stdout
