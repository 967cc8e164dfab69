"""One-line mutants of src/ and the test that must fail on each.

Run from the repository root:

    python3 tools/mutants.py

Each row is (file, old text, new text, the test that kills it). For every
row the script copies src/ and tests/ to a temporary directory, replaces the
old text (which must occur exactly once), and runs the one named test there.
A row is killed when that test fails. Each named test is first run on an
unmutated copy, so a test that fails anyway cannot pass for a kill. Exits 1
when a row survives. This is outside the tier-1 suite and adds nothing to it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CURVES = "src/toruslab/curves.py"
MUTANTS = (
    ("grid cell below MATCH_TOL", CURVES,
     "_CELL = 2.0 ** -30", "_CELL = 2.0 ** -40",
     "tests/test_curves.py::test_hashed_matcher_finds_reversals_across_cell_edges"),
    ("own cell only, no neighbour probes", CURVES,
     "_EDGE = 2.0 ** -9", "_EDGE = 0.0",
     "tests/test_curves.py::test_grid_merge_joins_pairs_torus_tol_apart_across_a_cell_edge"),
    ("probe band narrower than the 0.001-cell tolerance", CURVES,
     "_EDGE = 2.0 ** -9", "_EDGE = 2.0 ** -12",
     "tests/test_curves.py::test_hashed_matcher_finds_reversals_across_cell_edges"),
    ("rows near many cell edges probe their own cell only", CURVES,
     "yield cell, None", "yield cell, (cell,)",
     "tests/test_curves.py::test_rows_near_many_cell_edges_match_the_oracles"),
    ("non-integral point-mass weights accepted", CURVES,
     "if not float(weight).is_integer():", "if False:",
     "tests/test_curves.py::test_zero_current_weights_are_integers"),
    ("M11 sweep keeps the last of equal values", "src/toruslab/torus_flow.py",
     "if vals[i] < best:", "if vals[i] <= best:",
     "tests/test_cli.py::test_diophantine_tie_reports_first_argmin"),
    ("M15 divisors drop the exact-zero term", "src/toruslab/torus_flow.py",
     " | (div == 0.0)", "",
     "tests/test_linearization.py::test_resonant_mode_matches_per_form_route"),
    ("M16 twist check lets NaN through", "src/toruslab/currents.py",
     "if not excess[worst] <= TWIST_TOL:", "if excess[worst] > TWIST_TOL:",
     "tests/test_currents.py::test_nan_twist_route_raises"),
)

# Mutants no test kills yet, with the reason tier-1 passes on each.
SURVIVORS = (
    ("M3 TWIST_TOL 1e-10 -> 1e-3", "src/toruslab/currents.py",
     "both route-mismatch tests perturb a route by a factor of 2"),
    ("M6 SEPARATION_TOL 1e-9 -> 1e-6", "src/toruslab/linearization.py",
     "no test puts a gap between the two"),
    ("M9 anti-parallel pre-filter 1e-12 -> 1e-6", CURVES,
     "no test has a nearly anti-parallel pair in _collect_split_fractions"),
)


def run_test(tree: Path, test: str) -> bool:
    """True when the test passes in tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", test],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    return proc.returncode == 0


def copy_tree(dest: Path) -> None:
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part,
                        ignore=shutil.ignore_patterns("__pycache__"))


def main() -> int:
    survived = 0
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        copy_tree(clean)
        for test in sorted({row[4] for row in MUTANTS}):
            if not run_test(clean, test):
                print(f"FAILS UNMUTATED  {test}")
                return 1
        for k, (name, path, old, new, test) in enumerate(MUTANTS):
            tree = Path(tmp) / f"m{k}"
            copy_tree(tree)
            text = (tree / path).read_text()
            if text.count(old) != 1:
                print(f"STALE ROW        {name}: {old!r} occurs {text.count(old)} times")
                return 1
            (tree / path).write_text(text.replace(old, new))
            killed = not run_test(tree, test)
            survived += not killed
            print(f"{'killed ' if killed else 'SURVIVED'}  {name}  [{test}]")
    for name, path, why in SURVIVORS:
        print(f"known survivor   {name} ({path}): {why}")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
