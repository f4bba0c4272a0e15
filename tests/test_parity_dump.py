"""The committed parity check, tools/parity_dump.py, runs against the current package.

A refactor proves itself by printing the same dump on the old and the new
tree, so a rename that breaks the script must fail here rather than at
the next refactor.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SECTION_HEADERS = (
    "game fga N=",
    "game eba N=",
    "oracle seed=",
    "power N=",
    "cli results.csv",
    "cli trace_",
    "instance default M=",
    "instance sparse M=",
)

EBA_LINE = (
    r"  eba bs=\d+ "
    r"(cycle=[uv]\d+(,[uv]\d+)+ groups=\[[\d, ]+\] delta=-0x[0-9a-f.]+p[-+]\d+|None|exhausted) "
    r"relaxations=\d+"
)


INSTANCE_LINE = r"instance (default|sparse) M=\d+ N=\d+ seed=\d+ (scenario_sha256=[0-9a-f]{64}|error)"
GROUPING_LINE = r"  (rayleigh|unit) sccd=\[[\d, ]*\] gale_shapley=\[[\d, ]*\]"


def test_parity_dump_runs():
    proc = subprocess.run(
        [sys.executable, "tools/parity_dump.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    lines = proc.stdout.splitlines()
    for header in SECTION_HEADERS:
        assert any(line.startswith(header) for line in lines), f"no {header!r} section"
    # one line of the deterministic GameTrace counters per game
    counters = [line for line in lines if line.startswith("  memo_hits=")]
    assert len(counters) == sum(line.startswith("game ") for line in lines) > 0
    names = ["memo_hits", "memo_solves", "memo_batch_solves", "eba_relaxations", "candidates_tried"]
    for line in counters:
        fields = dict(item.split("=") for item in line.split())
        assert list(fields) == names
        assert all(value.isdigit() for value in fields.values())
    # one eba search outcome per league graph, after its adjacency line
    graphs = [k for k, line in enumerate(lines) if line.startswith("  adjacency bs=")]
    assert graphs and all(
        re.fullmatch(EBA_LINE, lines[k + 1]) for k in graphs
    ), "no per-graph eba section"
    assert sum(line.startswith("  eba bs=") for line in lines) == len(graphs)
    assert any(" cycle=" in lines[k + 1] for k in graphs)
    for rule in ("ccinr", "channel_gain", "rate_descending"):
        assert any(line.startswith("power N=") and f" rule={rule} " in line for line in lines)
    # every solve_all_powers line counts the channel solves it made
    powers = [line for line in lines if line.startswith("power N=")]
    assert powers and all(re.search(r" iterations=\d+ solves=\d+$", line) for line in powers)
    # each drawn instance is followed by its two groupings under both fadings
    instances = [k for k, line in enumerate(lines) if line.startswith("instance ")]
    assert len(instances) == 10 * 20
    for k in instances:
        assert re.fullmatch(INSTANCE_LINE, lines[k]), lines[k]
        if not lines[k].endswith(" error"):
            assert re.fullmatch(GROUPING_LINE, lines[k + 1]) and lines[k + 1].startswith("  rayleigh ")
            assert re.fullmatch(GROUPING_LINE, lines[k + 2]) and lines[k + 2].startswith("  unit ")
    assert any(line.startswith("instance default M=1 N=0 ") for line in lines)
