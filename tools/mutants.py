"""A standing mutation gate: every mutant in the table must fail its tests.

Each row of ``MUTANTS`` names a file under ``src/``, an exact text that
occurs there once, the text that replaces it, and the test files that must
fail on the result. For each row the script copies ``src/`` to a temporary
directory, applies the one replacement, and runs ``pytest -x -q`` on the
named test files with that copy first on ``PYTHONPATH``. It exits 1 when a
mutant survives, when its tests cannot run, or when an old text is not found
exactly once, so the table cannot go stale silently.

Standard library only. Run it from anywhere:

    python tools/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

LATTICE = "src/slitlogic/lattice.py"
LATTICE_TESTS = ("tests/test_lattice.py",)
CLI = "src/slitlogic/cli.py"
CLI_TESTS = ("tests/test_cli.py",)
NOGO = "src/slitlogic/nogo.py"
NOGO_TESTS = ("tests/test_nogo.py",)
VALUATION = "src/slitlogic/valuation.py"
VALUATION_TESTS = ("tests/test_valuation.py",)
ERRORS_TESTS = ("tests/test_errors.py",)

# (name, file, exact old text, new text, test files that must fail)
MUTANTS = [
    ("join looked up on the union of the up-sets", LATTICE,
     "k = by_up.get(up_i & up[j])", "k = by_up.get(up_i | up[j])", LATTICE_TESTS),
    ("bottom and top swapped", LATTICE,
     "bottom, top = by_up[full], by_down[full]", "bottom, top = by_down[full], by_up[full]",
     LATTICE_TESTS),
    ("the diagonal skipped", LATTICE,
     "for j in range(i, n):\n            k = by_up.get(",
     "for j in range(i + 1, n):\n            k = by_up.get(", LATTICE_TESTS),
    ("a missing meet taken as element 0", LATTICE,
     "k = by_down.get(down_i & down[j])", "k = by_down.get(down_i & down[j], 0)",
     LATTICE_TESTS),
    ("no antisymmetry check", LATTICE,
     "both = (up[i] & down[i]) ^ (1 << i)", "both = 0", LATTICE_TESTS),
    ("no transitive closure", LATTICE,
     "up[i] |= above", "pass", LATTICE_TESTS),
    ("no extremes check on the involution", LATTICE,
     "if inv[bottom] != top:", "if False:", LATTICE_TESTS),
    ("no two-pairs check on the involution", LATTICE,
     "if inv.get(yi, zi) != zi or inv.get(zi, yi) != yi:", "if False:", LATTICE_TESTS),
    ("JSON: a repeated container given another container's text", CLI,
     "dict(zip(distinct, texts))", "dict(zip(distinct, [*texts[1:], texts[0]]))", CLI_TESTS),
    ("JSON: a column's children written at the parent's indent", CLI,
     "texts = _json_column(column, inner, heads, leaves)",
     "texts = _json_column(column, pad, heads, leaves)", CLI_TESTS),
    ("JSON: list items regrouped with a wrong length", CLI,
     "zip(*[iter(texts)] * shape)", "zip(*[iter(texts)] * (shape - 1))", CLI_TESTS),
    ("JSON: the first key's head keeping its comma", CLI,
     'openers[0] = "{" + openers[0][1:]', 'openers[0] = "{" + openers[0]', CLI_TESTS),
    ("JSON: an empty list in a column written as {}", CLI,
     '["{}" if is_dict else "[]"] * len(members)', '["{}"] * len(members)', CLI_TESTS),
    ("JSON: bools in a column written as ints", CLI,
     "        if kind is bool:\n", "        if kind is None:\n", CLI_TESTS),
    ("is_leq reads the pair the other way round", LATTICE,
     "return bool(self.up[self.index(y)] >> self.index(z) & 1)",
     "return bool(self.up[self.index(z)] >> self.index(y) & 1)", LATTICE_TESTS),
    ("cover_pairs not strict: each element covers itself", LATTICE,
     ".bit_count() == 2", ".bit_count() <= 2", LATTICE_TESTS),
    ("the element cap on a build compared with >=", LATTICE,
     "if n > MAX_ELEMENTS:", "if n >= MAX_ELEMENTS:", ERRORS_TESTS),
    ("the element cap on a builtin compared with >=", LATTICE,
     "if size(n) > MAX_ELEMENTS:", "if size(n) >= MAX_ELEMENTS:", ERRORS_TESTS),
    ("the lattice file cap compared with >=", LATTICE,
     "if len(raw) > MAX_FILE_BYTES:", "if len(raw) >= MAX_FILE_BYTES:", LATTICE_TESTS),
    ("a lattice file without a size read one byte only", LATTICE,
     "st_size or MAX_FILE_BYTES", "st_size", LATTICE_TESTS),
    ("a finite grid's cap compared with >=", VALUATION,
     "if n > MAX_GRID_VALUES:", "if n >= MAX_GRID_VALUES:", VALUATION_TESTS),
    ("a denominator grid's cap one value too high", VALUATION,
     "if denominator >= MAX_GRID_VALUES:", "if denominator > MAX_GRID_VALUES:", VALUATION_TESTS),
    ("C-COLLAPSE moved to the (0, 0) corner", NOGO,
     "(C_COLLAPSE, (C_TRUE,)) if v1 else", "(C_COLLAPSE, (C_TRUE,)) if not v1 else", NOGO_TESTS),
    ("C-TRUE moved off the (1, 1) corner", NOGO,
     "(C_COLLAPSE, (C_TRUE,)) if v1 else", "(C_COLLAPSE, ()) if v1 else", NOGO_TESTS),
    ("C-INT moved to unequal priors", NOGO,
     "elif scenario.equal_priors and", "elif not scenario.equal_priors and", NOGO_TESTS),
    ("functions_covered off by a factor of 2", NOGO,
     "functions_covered=2 ** (len(scenario.lattice.elements) - 2)",
     "functions_covered=2 ** (len(scenario.lattice.elements) - 1)", NOGO_TESTS),
    ("the atom type check dropped from Scenario.build", NOGO,
     "if not isinstance(atom, str):", "if False:", NOGO_TESTS),
    ("nogo: a function's corner read with its bound values swapped", CLI,
     "corners[row[i1], row[i2]]", "corners[row[i2], row[i1]]", NOGO_TESTS),
    ("scan: a violating pair also listed as consistent", CLI,
     "        else:\n            violation = _violation_payload(violation)\n",
     "        else:\n            consistent.append([l1, l2])\n"
     "            violation = _violation_payload(violation)\n", CLI_TESTS),
]


def run_mutant(path: str, old: str, new: str, tests: tuple[str, ...]) -> tuple[str, str]:
    """Apply one mutant to a copy of ``src/`` and run its tests there. The
    outcome is "killed", "survived", "stale" (the old text is not found
    exactly once) or "error" (the tests could not run), with the output."""
    source = (ROOT / path).read_text(encoding="utf-8")
    found = source.count(old)
    if found != 1:
        return "stale", f"the old text occurs {found} times in {path}"
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        copy = Path(scratch) / "src"
        shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        (Path(scratch) / path).write_text(source.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy), PYTHONDONTWRITEBYTECODE="1")
        # an installed slitlogic must not stand in for the mutated copy
        where = subprocess.run(
            [sys.executable, "-c", "import slitlogic; print(slitlogic.__file__)"],
            cwd=scratch, env=env, capture_output=True, text=True,
        )
        if not where.stdout.startswith(str(copy)):
            return "error", f"slitlogic is imported from {where.stdout.strip() or where.stderr}"
        # run from the copy's directory, so Hypothesis keeps its example
        # database there and not in the repository
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *(str(ROOT / test) for test in tests)],
            cwd=scratch, env=env, capture_output=True, text=True,
        )
    output = result.stdout + result.stderr
    outcome = {0: "survived", 1: "killed"}.get(result.returncode, "error")
    return outcome, output


def main() -> int:
    bad = 0
    start = time.perf_counter()
    for name, path, old, new, tests in MUTANTS:
        began = time.perf_counter()
        outcome, output = run_mutant(path, old, new, tests)
        print(f"{outcome:8}  {name}  ({time.perf_counter() - began:.1f} s)", flush=True)
        if outcome != "killed":
            bad += 1
            print("\n".join(output.splitlines()[-15:]), flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
