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

``EQUIVALENT`` lists mutants that no input can tell from the source,
each with the reason; their snippets are checked to occur exactly once,
so the list follows the code, but they are not run.

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
     'check_count(count, "count")',
     'check_count(count, "count", 0)',
     "SamplePlan takes a count of 0",
     ["tests/test_records.py"]),
    ("src/gfix/core.py",
     "if n > MAX_COUNT:",
     "if n >= MAX_COUNT:",
     "a count exactly at the cap is rejected",
     ["tests/test_records.py"]),
    ("src/gfix/core.py",
     "file.seek(8 * start)",
     "file.seek(8 * start + 8)",
     "the no-os.pread read starts one double late",
     ["tests/test_row_store.py"]),
    ("src/gfix/core.py",
     "run(worker.read(take, at), stop)",
     "run(max(worker.read(take, at), stop), stop)",
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
    ("src/gfix/analysis.py",
     "if state is None and factors and factors[0] < _LOGSPACE_TRIGGER:\n"
     "        log_b = 0.0",
     "if log_b is None and factors and factors[0] < _LOGSPACE_TRIGGER:\n"
     "        log_b = math.log(b) if b else -math.inf",
     "the mode is re-decided in every block, so a chain that meets a "
     "factor below 1e-8 first in a block sums logs from there",
     ["tests/test_row_store.py"]),
    ("src/gfix/analysis.py",
     "factors and factors[0] <",
     "factors and factors[-1] <",
     "the mode is read from the first block's last factor",
     ["tests/test_row_store.py"]),
    ("src/gfix/analysis.py",
     "(products[-1], log_b)",
     "(products[-2], log_b)",
     "a block's state is one row short, so the next block repeats a B",
     ["tests/test_row_store.py"]),
    ("src/gfix/cli.py",
     "e0 = e[0] if at == 0 else e0",
     "e0 = e[1] if at == 0 else e0",
     "the writer takes e_0 from row 1",
     ["tests/test_row_store.py"]),
    ("src/gfix/cli.py",
     "lines[lines.worker.read(fh.write):]",
     "lines[lines.worker.read(fh.write) + 1:]",
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
    ("src/gfix/contractions.py",
     "contains(ty) and contains(tz))",
     "contains(ty))",
     "a condition's domain check skips the third point's image",
     ["tests/test_contractions.py"]),
    ("src/gfix/core.py",
     'yield ge, "derived-i", (x, y, z), gxyz, tol',
     'yield ge, "derived-i", (x, y, z), gxyz, 0.0',
     "derived-i's floor for separated triples drops from tol to 0",
     ["tests/test_core.py"]),
    ("src/gfix/contractions.py",
     '"1-2b": 1.0 - 2.0 * w["b"]',
     '"1-2b": 1.0 - w["b"]',
     "four-term's region residual 1 - 2b weakened to 1 - b",
     ["tests/test_cli.py"]),
    ("src/gfix/contractions.py",
     '(w["a"] + 2.0 * w["b"]) / (1.0 - w["b"])',
     '(w["a"] + 2.0 * w["b"]) / (1.0 - 2.0 * w["b"])',
     "four-term-alt's delta divides by 1 - 2b, not 1 - b",
     ["tests/test_contractions.py"]),
    ("src/gfix/contractions.py",
     'w["k"] / (1.0 - 2.0 * w["k"])',
     'w["k"] / (1.0 - w["k"])',
     "k-sum's delta divides by 1 - k, not 1 - 2k",
     ["tests/test_contractions.py"]),
    ("src/gfix/contractions.py",
     '"1/3-k": 1.0 / 3.0 - w["k"]',
     '"1/3-k": 1.0 / 2.0 - w["k"]',
     "k-sum's region residual 1/3 - k widened to 1/2 - k",
     ["tests/test_contractions.py"]),
    ("src/gfix/contractions.py",
     '"1/2-a": 0.5 - w["a"]',
     '"1/2-a": 1.0 - w["a"]',
     "three-term's region residual 1/2 - a widened to 1 - a",
     ["tests/test_contractions.py"]),
    ("src/gfix/mann.py",
     'check_count(max_iters, "max_iters")',
     'check_count(max_iters, "max_iters", 0)',
     "StoppingRule takes max_iters 0",
     ["tests/test_records.py"]),
    ("src/gfix/mann.py",
     "max_iters = min(max_iters, sched.limit)",
     "max_iters = max_iters",
     "run_mann steps past an explicit schedule's last value",
     ["tests/test_mann.py"]),
    ("src/gfix/mann.py",
     "OVERFLOW_GUARD.__ge__",
     "OVERFLOW_GUARD.__gt__",
     "a coordinate exactly on the overflow guard diverges",
     ["tests/test_mann.py"]),
    ("src/gfix/mann.py",
     "OVERFLOW_GUARD = 1e150",
     "OVERFLOW_GUARD = 1e300",
     "the overflow guard raised from 1e150 to 1e300",
     ["tests/test_mann.py"]),
    ("src/gfix/cli.py",
     '"," * (5 - values)',
     '"," * (4 - values)',
     "the iterate CSV leaves one blank column too few",
     ["tests/test_cli.py"]),
    ("src/gfix/rng.py",
     "* 0xBF58476D1CE4E5B9 & mask",
     "* 0xBF58476D1CE4E5B9",
     "rng._mix drops the mask after its first multiply",
     ["tests/test_lanes.py"]),
    ("src/gfix/convexity.py",
     "_LAMBDA_ANCHORS = (0.0, 0.5, 1.0)",
     "_LAMBDA_ANCHORS = (0.0, 1.0)",
     "convexity no longer checks the midpoint lambda 1/2",
     ["tests/test_golden.py"]),
    ("src/gfix/core.py",
     'yield abs_tol, "axiom-i", (x,), g(x, x, x), 0.0',
     'yield abs_tol, "axiom-i", (x,), 0.5 * g(x, x, x), 0.0',
     "axiom-i reads G(x,x,x) halved",
     ["tests/test_core.py"]),
    ("src/gfix/core.py",
     "if self.worst_ratio is None or q > self.worst_ratio:",
     "if self.worst_ratio is None or q >= self.worst_ratio:",
     "a later ratio equal to the worst replaces it",
     ["tests/test_core.py"]),
    ("src/gfix/core.py",
     "q = lhs / max(rhs, _RATIO_FLOOR)",
     "q = lhs / max(_RATIO_FLOOR, rhs)",
     "the ratio clamp gives a NaN rhs a finite ratio",
     ["tests/test_core.py"]),
    ("src/gfix/analysis.py",
     "floor = trace.space.g(u, v, v)",
     "floor = 0.0",
     "verify_bound drops its rounding floor for e_n",
     ["tests/test_analysis.py"]),
    ("src/gfix/analysis.py",
     "_FLOOR_ULPS = 4",
     "_FLOOR_ULPS = 1",
     "verify_bound's rounding floor moves u by 1 ulp, not 4",
     ["tests/test_analysis.py"]),
    ("src/gfix/contractions.py",
     'lambda w: (w["a"] + w["b"]) / (1.0 - 2.0 * w["b"]))\n\n_SUM',
     'lambda w: (w["a"] + w["b"]) / (1.0 - w["b"]))\n\n_SUM',
     "four-term's delta divides by 1 - b, not 1 - 2b",
     ["tests/test_contractions.py"]),
    ("src/gfix/contractions.py",
     '"a+3b": w["a"] + 3.0 * w["b"],\n'
     '               "1-(a+3b)": 1.0 - (w["a"] + 3.0 * w["b"])',
     '"a+3b": w["a"] + 3.0 * w["b"],\n'
     '               "1-(a+3b)": 1.0 - (w["a"] + 2.0 * w["b"])',
     "sum's region residual 1 - (a + 3b) widened to 1 - (a + 2b)",
     ["tests/test_contractions.py"]),
    ("src/gfix/core.py",
     'g(x, y, y), 2.0 * g(y, x, x)',
     'g(x, y, y), 2.1 * g(y, x, x)',
     "derived-iii's factor 2 weakened to 2.1",
     ["tests/test_core.py"]),
    ("src/gfix/convexity.py",
     "lam * gx + (1.0 - lam) * gy",
     "(1.0 - lam) * gx + lam * gy",
     "convexity weighs G(x,u,v) by 1 - lam and G(y,u,v) by lam",
     ["tests/test_convexity.py"]),
    ("src/gfix/core.py",
     '"axiom-ii", (x, y), gxxy, STRICT_FLOOR',
     '"axiom-ii", (x, y), gxxy, 0.0',
     "axiom-ii's floor drops from STRICT_FLOOR to 0",
     ["tests/test_core.py"]),
    ("src/gfix/core.py",
     "gxyz, g(x, x, y) + g(x, x, z)",
     "gxyz, g(x, x, y) + g(x, y, z)",
     "derived-ii's right side reads G(x,y,z) for G(x,x,z), so it holds "
     "for any G >= 0",
     ["tests/test_core.py"]),
    ("src/gfix/core.py",
     "(x, y, z, a), gxyz, gxaz + gayz",
     "(x, y, z, a), gxyz, gxaz + gxyz",
     "derived-iv's right side reads G(x,y,z) for G(a,y,z), so it holds "
     "for any G >= 0",
     ["tests/test_core.py"]),
    ("src/gfix/contractions.py",
     'lambda w: (w["a"] + w["b"]) / (1.0 - 2.0 * w["b"]))\n\n_ROWS',
     'lambda w: (w["a"] + w["b"]) / (1.0 - w["b"]))\n\n_ROWS',
     "sum's delta divides by 1 - b, not 1 - 2b",
     ["tests/test_contractions.py"]),
    ("src/gfix/core.py",
     "lo + 0.75 * (hi - lo)",
     "lo + 0.7 * (hi - lo)",
     "the structured pass's three-quarter point moves to 0.7",
     ["tests/test_core.py"]),
    ("src/gfix/rng.py",
     "((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB",
     "(z ^ (z >> 27)) * 0x94D049BB133111EB",
     "rng._mix drops the mask before its second multiply",
     ["tests/test_lanes.py"]),
]

# (file, old, new, why): mutants no input can tell from the source, so
# they are not run; each snippet must still occur exactly once
EQUIVALENT = [
    ("src/gfix/analysis.py",
     "factors[0] < _LOGSPACE_TRIGGER",
     "factors[0] <= _LOGSPACE_TRIGGER",
     "no factor equals the trigger: near 1e-8, every 1 - a*c is a "
     "multiple of 2**-53, and the double 1e-8 is not"),
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
    for file, old, *_ in MUTANTS + EQUIVALENT:
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
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} killed; "
          f"{len(EQUIVALENT)} equivalent mutants listed, not run")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
