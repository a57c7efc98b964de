"""Run the source mutants that tier-1 must kill.

    python3 tools/mutants.py

Each mutant replaces one snippet of a file under src/ and names the test
files that should fail on it.  For each, in list order, this checks that
the snippet occurs exactly once, copies src/, tests/ and pyproject.toml
to a temporary folder outside the repository, applies the mutant there
and runs its test files with ``python -m pytest -x -q``, no cache and no
bytecode written.  A mutant is KILLED when pytest exits non-zero and
SURVIVED otherwise.  Prints one line per mutant with its time, and exits
1 if any mutant survived.  Stdlib only; the repository is only read.

Left off the list: the four-term-alt orientation mutant (``_sides``
giving four-term-alt the primary displacement G(p,Tp,Tp)).  Every
bundled space has G(x,x,y) = G(x,y,y), so no test can tell the two
orientations apart until a non-symmetric space exists.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file, old, new, why, test files)
MUTANTS = [
    ("src/gfix/core.py",
     'check_id, rank = f"{check_id}:non-finite", math.inf',
     'check_id, rank = f"{check_id}:non-finite", margin',
     "a non-finite row is ranked by its own margin, not first",
     ["tests/test_core.py"]),
    ("src/gfix/core.py",
     "if rank > self.worst[0][0]:",
     "if rank >= self.worst[0][0]:",
     "a row that ties the 10th place displaces the one seen first",
     ["tests/test_core.py"]),
    ("src/gfix/core.py",
     "(2.0 / 3.0) * (g(x, y, a) + gxaz + gayz)",
     "1.0 * (g(x, y, a) + gxaz + gayz)",
     "derived-v's factor 2/3 weakened to 1",
     ["tests/test_core.py"]),
    ("src/gfix/core.py",
     "g(x, a, a) + g(y, a, a) + g(z, a, a))",
     "g(x, a, a) + g(y, a, a) + g(z, a, a) + 1.0)",
     "derived-vi's right side + 1",
     ["tests/test_core.py"]),
    ("src/gfix/core.py",
     'yield le_tol, "axiom-iii", (x, y, z), gxxy, vals[0]',
     'yield le_tol, "axiom-iii", (x, y, z), gxxy, vals[1]',
     "axiom-iii reads G(x,z,y) for G(x,y,z)",
     ["tests/test_core.py"]),
    ("src/gfix/core.py",
     'yield (le_tol, "axiom-v", (x, y, z, a), vals[0],',
     'yield (le_tol, "axiom-v", (x, y, z, a), vals[1],',
     "axiom-v reads G(x,z,y) for G(x,y,z)",
     ["tests/test_core.py"]),
    ("src/gfix/core.py",
     "for v in lane[:width] if abs(v) >= floor]",
     "for v in lane[:width] if abs(v) > floor]",
     "a nonzero_draw lane rejects a value on the floor",
     ["tests/test_lanes.py"]),
    ("src/gfix/core.py",
     "if len(kept) < points:",
     "if len(kept) < points - 1:",
     "a nonzero_draw lane one value short gives a short tuple",
     ["tests/test_lanes.py"]),
    ("src/gfix/core.py",
     "tol * max(1.0, abs(rhs))",
     "tol * 1.0",
     "le_tol's slack drops its term relative to the right side",
     ["tests/test_analysis.py"]),
    ("src/gfix/core.py",
     "return abs(lhs) - tol",
     "return lhs - tol",
     "abs_tol drops the abs, so a negative G(x,x,x) passes",
     ["tests/test_core.py"]),
    ("src/gfix/core.py",
     "lhs - rhs - tol * max(1.0, abs(lhs))",
     "lhs - rhs - tol * max(1.0, abs(rhs))",
     "spread_tol scales its slack by the smallest value, not the largest",
     ["tests/test_core.py"]),
    ("src/gfix/core.py",
     "return lhs - rhs\n",
     "return lhs - rhs - 1e-12\n",
     "le passes a value 1e-12 past its bound",
     ["tests/test_core.py", "tests/test_mann.py"]),
    ("src/gfix/core.py",
     "return rhs - lhs\n",
     "return rhs - lhs - 1e-12\n",
     "ge passes a value 1e-12 short of its bound",
     ["tests/test_core.py"]),
    ("src/gfix/core.py",
     "if count < 1:",
     "if False:",
     "SamplePlan takes a count below 1",
     ["tests/test_records.py"]),
    ("src/gfix/core.py",
     "file.seek(8 * start)",
     "file.seek(8 * start + 8)",
     "the no-os.pread read starts one double late",
     ["tests/test_row_store.py"]),
    ("src/gfix/core.py",
     "run(at, stop)",
     "run(stop, stop)",
     "forked_ranges skips the rest of a range after a worker's chunks",
     ["tests/test_csv_ranges.py", "tests/test_check_ranges.py"]),
    ("src/gfix/core.py",
     "at = range(self.start, self.start + self.size)[i]",
     "at = range(self.size)[i]",
     "a Sized slice or index drops the view's start",
     ["tests/test_row_store.py"]),
    ("src/gfix/core.py",
     "at = range(self.start, self.start + self.size)[i]",
     "at = (range(self.start, self.start + self.size)[i]"
     " if isinstance(i, slice) else self.start + i)",
     "a Sized index is not normalised, so a negative one breaks",
     ["tests/test_cli.py", "tests/test_row_store.py"]),
    ("src/gfix/core.py",
     "range(a - a % self.block, b, self.block)",
     "range(a, b, self.block)",
     "Rows.read does not align its reads to whole blocks",
     ["tests/test_row_store.py"]),
    ("src/gfix/cli.py",
     "lo, hi = max(start - h, 0), max(stop - h, 0)",
     "lo, hi = start, max(stop - h, 0)",
     "a CSV range's data rows start at its line index, not past the head",
     ["tests/test_csv_ranges.py"]),
    ("src/gfix/cli.py",
     "not report.log_space",
     "True",
     "iterate keeps the writer's text after the chain goes to log space",
     ["tests/test_row_store.py"]),
    ("src/gfix/cli.py",
     "e0 = e[0] if at == 0 else e0",
     "e0 = e[1] if at == 0 else e0",
     "the writer takes e_0 from row 1",
     ["tests/test_row_store.py"]),
    ("src/gfix/cli.py",
     "lines[core.read_chunks(lines.file, fh.write):]",
     "lines[core.read_chunks(lines.file, fh.write) + 1:]",
     "the lines the writer covered are counted one too high",
     ["tests/test_row_store.py"]),
    ("src/gfix/rng.py",
     "(self.next_u64() >> 11)",
     "(self.next_u64() >> 12)",
     "Stream.uniform keeps the top 52 bits, not 53",
     ["tests/test_lanes.py"]),
    ("src/gfix/mann.py",
     "rows.read(a, b, range(dim))",
     "rows.read(a + 1, b, range(dim))",
     "the points view reads one row late",
     ["tests/test_mann.py"]),
    ("src/gfix/mann.py",
     "if residual <= stop.residual_tol:",
     "if residual < stop.residual_tol:",
     "a residual exactly on --residual-tol does not stop the run",
     ["tests/test_cli.py"]),
    ("src/gfix/analysis.py",
     "map(le_tol, errors, bounds, repeat(tol))",
     "map(le_tol, errors, bounds, repeat(10 * tol))",
     "verify_bound's tolerance x 10",
     ["tests/test_analysis.py"]),
    ("src/gfix/analysis.py",
     "operator.sub, bounds[a:b], errors[a:b]",
     "operator.sub, bounds[a:b], errors[a + 1:b + 1]",
     "the slack view reads the errors one row late",
     ["tests/test_analysis.py"]),
    ("src/gfix/analysis.py",
     "trace_products(trace, delta), errors[0]",
     "trace_products(trace, delta), errors[1]",
     "verify_bound takes e_0 from errors[1]",
     ["tests/test_analysis.py"]),
    ("src/gfix/analysis.py",
     "if not 0.0 <= tol < math.inf:",
     "if False:",
     "verify_bound accepts a tol that is not finite and >= 0",
     ["tests/test_analysis.py"]),
]


def run(file: str, old: str, new: str, tests: list) -> bool:
    """True when ``tests`` fail with ``old`` replaced by ``new``."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, Path(tmp) / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        target = Path(tmp) / file
        target.write_text(target.read_text().replace(old, new))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=str(Path(tmp) / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", *tests],
            cwd=tmp, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        return done.returncode != 0


def main() -> int:
    for file, old, *_ in MUTANTS:
        count = (ROOT / file).read_text().count(old)
        assert count == 1, f"{file}: {old!r} occurs {count} times"
    survivors = 0
    for file, old, new, why, tests in MUTANTS:
        start = time.perf_counter()
        killed = run(file, old, new, tests)
        survivors += not killed
        print(f"{'KILLED' if killed else 'SURVIVED':8} "
              f"{time.perf_counter() - start:5.1f} s  {file}: {why}",
              flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
