#!/usr/bin/env python3
"""Benchmark of noma_grouping: the grouping game, its search layers and its power kernel.

Run from the repository root:

    python3 bench/run.py --workload game-fga --seed 1 --seconds 30 --trace 0

Workloads (see bench/README.md): game-fga, game-eba, power-solve. The
instances are pinned in bench/seeds.json; --seed only shuffles the order in
which they are visited, and every run repeats whole rounds of them until
--seconds have passed. --base-seed B derives fresh instances from B instead
of the pinned ones, and --derive-seeds B prints what bench/seeds.json would
hold for base seed B.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
rounds with rounds whose spans are recorded at the package's public
functions, and prints the per-layer metrics, including the tracing
overhead. Times are scaled to a reference machine speed sampled while
the work runs (see speed.py). The last line of
standard output is one JSON object: correct, attempted, failed, metrics. Results and spans are also written under
bench/out/.
"""

import os

# One BLAS thread per process; must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
PACKAGE = "noma_grouping"
# Set-up is repeated and its median reported.
SETUP_REPEATS = 11

def fresh_import():
    """Import the package from src/, discarding any earlier import."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    if Path(pkg.__file__).resolve().parent != SRC_DIR / PACKAGE:
        raise ImportError(f"{PACKAGE} was imported from {pkg.__file__}, not from {SRC_DIR}")
    return pkg


def setup(workload, seeds: dict, trace: bool):
    """Import the package and build the inputs, SETUP_REPEATS times.

    Returns the last import, its operations, the median set-up time and,
    when tracing, the median time spent in the scenario and baselines
    layers during one set-up.
    """
    times = []
    layer_s = {"scenario": [], "baselines": []}
    for _ in range(SETUP_REPEATS):
        tracer = tracing.Tracer() if trace else None

        def build():
            pkg = fresh_import()
            if tracer is not None:
                tracer.install(pkg)
            return pkg, workload.build(pkg, seeds)

        with speed.SpeedClock() as clock:
            pkg, ops = clock.measure(None, build)
        times.append(clock.times[0][1])
        if tracer is not None:
            tracer.uninstall()
            for layer in layer_s:
                layer_s[layer].append(tracer.layer_time(layer + ".") * clock.factor)
    layer_median = {k: statistics.median(v) for k, v in layer_s.items() if v}
    return pkg, ops, statistics.median(times), layer_median


def run_round(pkg, workload, ops, rng: random.Random, first: dict, tracer=None, first_op: int = 0):
    """Run every operation once, in shuffled order.

    The first result of each operation is kept in `first` with its
    fingerprint, to be checked later; a later result is only compared with
    that fingerprint, so memory does not grow with the number of rounds.
    Returns (seconds of each operation at reference speed, indexed like
    ops; number of results that differed from the first result of their
    operation; the factor that took the round's raw times to reference
    speed).
    """
    order = list(range(len(ops)))
    rng.shuffle(order)
    differed = 0
    with speed.SpeedClock() as clock:
        for k, idx in enumerate(order):
            if tracer is not None:
                tracer.begin_op(first_op + k)
            result = clock.measure(idx, workload.run, pkg, ops[idx])
            if idx in first:
                differed += workload.fingerprint(result) != first[idx][1]
            else:
                first[idx] = (result, workload.fingerprint(result))
    durations = [0.0] * len(ops)
    for idx, seconds in clock.times:
        durations[idx] = seconds
    return durations, differed, clock.factor


def timed_rounds(pkg, workload, ops, seconds: float, rng: random.Random, first: dict, tracer=None):
    """Run whole rounds until `seconds` have passed.

    With a tracer, rounds alternate between untraced and traced (at least
    one of each), so that both halves see the same machine speed and their
    throughputs give the tracing overhead. Returns (untraced rounds, traced
    rounds, number of differing results, peak resident MB after the first
    round, the median factor that took the traced rounds' raw times to
    reference speed); a round is the list of its operation seconds. Every later round
    repeats the same operations, so the first one reaches the program's
    peak memory; reading it then leaves out the timings this loop keeps.
    """
    untraced: list = []
    traced: list = []
    traced_factors: list = []
    differed = 0
    peak_rss_mb = None
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or (tracer is not None and not traced):
        if tracer is not None and len(traced) < len(untraced):
            tracer.install(pkg)
            try:
                durations, diff, factor = run_round(pkg, workload, ops, rng, first, tracer, len(traced) * len(ops))
            finally:
                tracer.uninstall()
            traced.append(durations)
            traced_factors.append(factor)
        else:
            durations, diff, _factor = run_round(pkg, workload, ops, rng, first)
            untraced.append(durations)
        differed += diff
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return untraced, traced, differed, peak_rss_mb, statistics.median(traced_factors or [1.0])


def per_op_medians(rounds: list) -> list:
    """Each operation's median time over the rounds.

    A median per operation, rather than per round, lets a game workload
    with few rounds still discard a slow outlier of any one operation.
    """
    return [statistics.median(times) for times in zip(*rounds)]


def ops_per_s(rounds: list) -> float:
    """Operations per second: distinct operations over the sum of their median times."""
    per_op = per_op_medians(rounds)
    return len(per_op) / math.fsum(per_op)


def check_outputs(workload, ops, first: dict):
    """Verdict of every operation's first result and the errors found."""
    verdicts = {}
    errors = []
    for idx, (result, _fingerprint) in first.items():
        verdicts[idx], errs = workload.check(ops[idx], result)
        errors += errs
    return verdicts, errors


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--base-seed", type=int, default=None, help="derive fresh instances from this seed")
    parser.add_argument("--derive-seeds", type=int, metavar="B", default=None, help="print the seed lists for base seed B")
    args = parser.parse_args(argv)

    if not (SRC_DIR / PACKAGE / "__init__.py").is_file():
        print(f"error: package source not found at {SRC_DIR / PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))

    if args.derive_seeds is not None:
        print(json.dumps(workloads.derive_seeds(fresh_import(), args.derive_seeds)))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    seeds = (
        workloads.derive_seeds(fresh_import(), args.base_seed)
        if args.base_seed is not None
        else workloads.pinned_seeds()
    )
    workload = workloads.WORKLOADS[args.workload]()
    trace = bool(args.trace)
    pkg, ops, setup_s, setup_layer_s = setup(workload, seeds, trace)

    rng = random.Random(args.seed)
    first: dict = {}
    tracer = tracing.Tracer() if trace else None
    rounds, traced_rounds, differed, peak_rss_mb, traced_factor = timed_rounds(pkg, workload, ops, args.seconds, rng, first, tracer)
    untraced_ops_per_s = ops_per_s(rounds)

    verdicts, errors = check_outputs(workload, ops, first)
    if differed:
        errors.append(f"{differed} repeated operations returned another result than their first run")
    if tracer is not None:
        errors += tracer.errors
    num_rounds = len(rounds) + len(traced_rounds)
    failed = num_rounds * sum(v == "failed" for v in verdicts.values())
    powers = [workload.power_w(ops[idx], first[idx][0]) for idx in range(len(ops))]
    powers = [p for p in powers if p is not None]

    if trace:
        metrics = tracer.layer_metrics(
            len(traced_rounds) * len(ops), setup_layer_s, ops_per_s(traced_rounds), untraced_ops_per_s, traced_factor
        )
    else:
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "ops_per_s": metric(untraced_ops_per_s, "1/s"),
            "op_p50_ms": metric(1e3 * statistics.median(per_op_medians(rounds)), "ms"),
            "final_power_mw": metric(1e3 * math.fsum(powers) / len(powers), "mW"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    result = {"correct": not errors, "attempted": num_rounds * len(ops), "failed": failed, "metrics": metrics}

    verdict_counts = {v: sum(x == v for x in verdicts.values()) for v in ("ok", "failed", "unchecked", "wrong")}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump(
            {**result, "distinct_ops": len(ops), "verdicts": verdict_counts, "errors": errors[:50], "seeds": seeds},
            fh,
            indent=1,
        )
    if tracer is not None:
        tracer.write_spans(OUT_DIR / f"{stem}.spans.jsonl")
    for err in errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    print(f"{args.workload}: {len(ops)} distinct operations, verdicts {verdict_counts}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
