"""Command line front end for the experiment harness."""

from __future__ import annotations

import argparse
import sys

from .game import DEFAULT_ALPHA
from .harness import ExperimentSpec, StrategyKind, load_config, run_experiment, summarize, watts_to_dbm
from .scenario import default_config


def _parse_strategy(text: str) -> StrategyKind:
    if ":" in text:
        kind, alpha = text.split(":", 1)
        return StrategyKind(kind.strip(), float(alpha))
    return StrategyKind(text.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noma-grouping",
        description="Run seeded user-grouping experiments and write a CSV of metrics.",
    )
    parser.add_argument("--config", help="JSON scenario config (sets the defaults of the sweep)")
    parser.add_argument(
        "--strategy",
        action="append",
        default=None,
        help="strategy to run: eba, fga[:alpha], sccd, gale_shapley, exhaustive "
        f"(repeatable; default: fga sccd gale_shapley; alpha defaults to {DEFAULT_ALPHA:g})",
    )
    parser.add_argument("--users", type=int, nargs="+", default=None, help="user counts to sweep")
    parser.add_argument("--groups", type=int, nargs="+", default=None, help="subchannel counts to sweep")
    parser.add_argument("--bs", type=int, nargs="+", default=None, help="BS counts to sweep")
    parser.add_argument("--trials", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="CSV output path")
    parser.add_argument("--trace-dir", default=None,
                        help="write per-trial game trace logs into this directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    cfg = load_config(args.config) if args.config else default_config()
    strategies = [_parse_strategy(s) for s in (args.strategy or ["fga", "sccd", "gale_shapley"])]

    spec = ExperimentSpec(
        strategies=strategies,
        trials=args.trials,
        base_seed=args.seed,
        num_users_list=args.users or [cfg.num_users],
        num_channels_list=args.groups or [cfg.num_channels],
        num_bs_list=args.bs or [cfg.num_bs],
        rate_ranges_bps=[cfg.rate_range_bps],
        output_path=args.out,
    )
    results = run_experiment(spec, trace_dir=args.trace_dir)
    summary = summarize(results)

    print(f"{'sweep':>5} {'strategy':<18} {'ok':>4} {'mean dBm':>10} {'mean I (W)':>12}")
    for row in summary["stats"]:
        dbm = watts_to_dbm(row["mean_power_w"])
        print(
            f"{row['sweep_index']:>5} {row['strategy']:<18} "
            f"{row['feasible']:>3}/{row['trials']:<3} {dbm:>10.3f} "
            f"{row['mean_interference_w']:>12.4e}"
        )
    if args.out:
        print(f"wrote {len(results)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
