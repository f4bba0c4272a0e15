"""Command line front end for the experiment harness."""

from __future__ import annotations

import argparse
import os
import sys

from .game import DEFAULT_ALPHA
from .harness import ExperimentSpec, StrategyKind, load_config, run_experiment, summarize, watts_to_dbm
from .scenario import default_config


def _parse_strategy(text: str) -> StrategyKind:
    try:
        if ":" in text:
            kind, alpha = text.split(":", 1)
            return StrategyKind(kind.strip(), float(alpha))
        return StrategyKind(text.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _at_least(minimum: int):
    """argparse type of an integer count that must be >= minimum."""

    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noma-grouping",
        description="Run seeded user-grouping experiments and write a CSV of metrics.",
    )
    parser.add_argument("--config", help="JSON scenario config (sets the defaults of the sweep)")
    parser.add_argument(
        "--strategy",
        action="append",
        type=_parse_strategy,
        default=None,
        help="strategy to run: eba, fga[:alpha], sccd, gale_shapley, exhaustive "
        f"(repeatable; default: fga sccd gale_shapley; alpha defaults to {DEFAULT_ALPHA:g})",
    )
    parser.add_argument("--users", type=_at_least(1), nargs="+", default=None, help="user counts to sweep")
    parser.add_argument("--groups", type=_at_least(1), nargs="+", default=None, help="subchannel counts to sweep")
    parser.add_argument("--bs", type=_at_least(1), nargs="+", default=None, help="BS counts to sweep")
    parser.add_argument("--trials", type=_at_least(1), default=1)
    parser.add_argument("--seed", type=_at_least(0), default=0)
    parser.add_argument("--out", default=None, help="CSV output path")
    parser.add_argument("--trace-dir", default=None,
                        help="write per-trial game trace logs into this directory")
    return parser


def main(argv=None) -> int:
    """Run the sweep the arguments describe; bad arguments exit 2 with the usage line.

    A ValueError raised while the arguments are read, a config file that
    cannot be opened or parsed, an --out that is not a file name in an
    existing directory and a --trace-dir that is not a directory become a
    parser error before any trial runs; errors of the run itself propagate.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.out is not None:
        folder = os.path.dirname(args.out) or "."
        if os.path.isdir(args.out) or not os.path.isdir(folder):
            parser.error(f"--out {args.out!r} must name a file in an existing directory")
    if args.trace_dir is not None and not os.path.isdir(args.trace_dir):
        parser.error(f"--trace-dir {args.trace_dir!r} is not a directory")
    try:
        cfg = load_config(args.config) if args.config else default_config()
        spec = ExperimentSpec(
            strategies=args.strategy or [StrategyKind(kind) for kind in ("fga", "sccd", "gale_shapley")],
            trials=args.trials,
            base_seed=args.seed,
            num_users_list=args.users or [cfg.num_users],
            num_channels_list=args.groups or [cfg.num_channels],
            num_bs_list=args.bs or [cfg.num_bs],
            rate_ranges_bps=[cfg.rate_range_bps],
            output_path=args.out,
        )
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
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
