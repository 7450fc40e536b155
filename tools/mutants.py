"""Mutation gate: small deliberate breaks in src/ that tier-1 tests must catch.

    python3 tools/mutants.py

Each mutant is one exact text replacement in one file under src/, and the
tier-1 tests that must fail on it.  For each mutant the runner copies src/
to a temporary directory, applies the replacement there, runs those tests
against the copy and prints one line.  The exit status is 1 when a mutant
survives (its tests pass) or cannot be run, else 0.  The working tree is
never changed.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
CLI, LUT, EXACT = ("certisqrt/cli.py", "certisqrt/lut.py",
                   "certisqrt/exact.py")
LOAD_TESTS = "tests/test_cli.py::TestTableBuild::"


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/
    anchor: str  # occurs exactly once in the file
    replacement: str
    tests: tuple[str, ...]  # tier-1 test ids, each of which must fail


MUTANTS = (
    Mutant("load_table accepts without the type test", CLI,
           "if set(map(type, roots)) == {int} and table.roots == tuple(roots):",
           "if table.roots == tuple(roots):",
           (LOAD_TESTS + "test_load_rejects_non_integer_entry",)),
    Mutant("load_table accepts without the comparison", CLI,
           "if set(map(type, roots)) == {int} and table.roots == tuple(roots):",
           "if set(map(type, roots)) == {int}:",
           (LOAD_TESTS + "test_load_revalidation_catches_corruption",
            "tests/test_cli.py::TestLoadCorruptions")),
    Mutant("load_table reads the fault without - table.k_min", CLI,
           "roots[bad - table.k_min]", "roots[bad]",
           (LOAD_TESTS + "test_load_reports_first_fault",
            "tests/test_cli.py::TestLoadCorruptions")),
    Mutant("RootTable without its entry-count check", LUT,
           "_check_entry_count(len(self.roots), indices)", "pass",
           (LOAD_TESTS + "test_wrong_length_refused",)),
    Mutant("_radicand refuses zero", EXACT,
           "if y.numerator < 0:", "if y.numerator <= 0:",
           ("tests/test_exact.py::TestSqrtEnclosure::test_zero",)),
)


def mutated_source(mutant: Mutant, text: str) -> str:
    """text with the mutant's anchor replaced; the anchor must occur once."""
    if text.count(mutant.anchor) != 1:
        raise ValueError(f"{mutant.name}: anchor {mutant.anchor!r} occurs "
                         f"{text.count(mutant.anchor)} times in "
                         f"src/{mutant.path}")
    return text.replace(mutant.anchor, mutant.replacement)


def run_mutant(mutant: Mutant, scratch: Path) -> str:
    """'killed', 'SURVIVED' or an error note for one mutant."""
    src = scratch / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    target = src / mutant.path
    target.write_text(mutated_source(mutant, target.read_text()))
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(
               filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *mutant.tests], cwd=ROOT, env=env, capture_output=True, text=True)
    # pytest exits 1 when tests ran and some failed, 0 when all passed
    return {0: "SURVIVED", 1: "killed"}.get(
        result.returncode, f"ERROR (pytest exit {result.returncode})")


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory(prefix="certisqrt-mutants-") as tmp:
        for mutant in MUTANTS:
            start = perf_counter()
            verdict = run_mutant(mutant, Path(tmp))
            failed += verdict != "killed"
            print(f"{verdict:<8} {perf_counter() - start:5.1f} s  "
                  f"src/{mutant.path}: {mutant.name}", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
