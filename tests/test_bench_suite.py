"""The benchmark's own tests (bench/tests) pass against the current package.

They run in a subprocess because bench/tests has its own conftest, which
cannot be collected in the same pytest session as tests/conftest.py. They
check the names the benchmark's tracer wraps, so a refactor that breaks
one fails here. Three package names stay only because bench/ pins them:
graph.build_graph (an alias of LeagueGraph that the tracer wraps as its
graph.build span), the list result of fga_candidates (the tracer counts
its length), and solve_one_channel called under full_adjacency (the
scalar branch of ChannelTotals.lookup, whose calls the tracer counts as
edge solves). bench/oracles.py also serves the tests as their independent
reference, so it must import nothing from the package.
"""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "bench/tests"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]


def test_oracles_import_nothing_from_the_package():
    # tests/conftest.py builds its independent references on bench/oracles.py
    tree = ast.parse((ROOT / "bench" / "oracles.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
    assert imported, "no import statement was found"
    assert not [name for name in imported if name.split(".")[0] == "noma_grouping"], imported
