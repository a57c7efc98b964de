"""Benchmark of the gfix command line, end to end and layer by layer.

    python3 bench/run.py --workload verify-pass --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --smoke     # tiny sizes; checks metric names and units
    python3 bench/run.py --record    # re-record the expected outputs in expected.json

Each workload is a closed loop with one caller: it runs the workload's
commands one after another, each as a whole CLI invocation in a fresh
single-threaded interpreter (``child.py``), and starts the next when the
previous one has exited.  A pass is one round over the commands; passes
repeat until ``--seconds`` have elapsed.  Neighbours on a shared machine
slow whole stretches of a run, so each command is followed by a
calibration child whose work no change to gfix can move, and times are
reported at reference speed (``norm_wall_s``), as medians over passes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes whose children wrap gfix's module boundaries
(``tracer.py``) and prints the per-layer metrics.  Every command's exit
code and output digest are checked against ``expected.json``; see
README.md for the workloads and what each layer metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
EXPECTED = BENCH / "expected.json"

POOL = 32              # distinct inputs per command, each with recorded outputs
CAL_REF_S = 0.15       # calibration child time that defines reference speed
SETUP_STARTS = 11      # fresh interpreters timed for setup_s
COMMAND_TIMEOUT_S = 20.0  # the slowest command, traced, takes a few seconds
RUN_DEADLINE_S = 150.0   # no command runs past this point of a run

SIZES = {"samples": 10000, "refute_samples": 20000, "steps": 100000}
SMOKE_SIZES = {"samples": 200, "refute_samples": 200, "steps": 2000}

FOUR_TERM = "--condition four-term --coeff a=0.5,b=0,c=0,d=0"

# workload -> (exit code every command must return, command templates)
WORKLOADS = {
    "verify-pass": (0, [
        "check-axioms --space perimeter-3 --samples {samples} --seed {seed}",
        "check-derived --space perimeter-3 --samples {samples} --seed {seed}",
        # min-separation 1 makes the sampler reject about one draw in ten
        "check-axioms --space sign-example --min-separation 1 "
        "--samples {samples} --seed {seed}",
        "check-convexity --space max-2 --samples {samples} --seed {seed}",
        "check-condition --space perimeter-2 --mapping affine:k=0.3 "
        f"{FOUR_TERM} --samples {{samples}} --seed {{seed}}",
    ]),
    "verify-refute": (1, [
        "check-condition --space perimeter-2 --mapping affine:k=2 "
        f"{FOUR_TERM} --samples {{refute_samples}} --seed {{seed}}",
        "check-condition --space max-3 --mapping translation:offset=1;0;0 "
        "--condition k-sum --coeff k=0.3 --samples {refute_samples} --seed {seed}",
    ]),
    "iterate-bound": (0, [
        f"iterate --space perimeter-3 --mapping affine:k=0.5 {FOUR_TERM} "
        "--schedule harmonic --x0 {x0} --max-iters {steps} --out OUT",
        "bound --delta {delta} --schedule harmonic --max-iters {steps} --out OUT",
        # a first factor below 1e-8 sends the products through log space
        "bound --delta {tiny} --schedule harmonic --max-iters {steps} --out OUT",
    ]),
}

E2E_UNITS = {"norm_wall_s": "s", "norm_work_per_s": "1/s", "peak_rss_mb": "MB",
             "setup_s": "s"}

LAYER_UNITS = {
    "rng.streams": "count", "rng.uniform_calls": "count", "rng.time_s": "s",
    "spaces.g_calls": "count", "spaces.g_time_s": "s",
    "spaces.draw_calls": "count", "spaces.draw_rejects": "count",
    "spaces.draw_accept_ratio": "ratio", "spaces.draw_time_s": "s",
    "core.quads": "count", "core.records": "count", "core.violations": "count",
    "core.record_time_s": "s", "core.sample_time_s": "s",
    "core.check_self_s": "s",
    "convexity.blend_calls": "count", "convexity.blend_time_s": "s",
    "convexity.check_self_s": "s",
    "contractions.apply_calls": "count",
    "contractions.apply_per_check": "count/check",
    "contractions.apply_time_s": "s", "contractions.rhs_calls": "count",
    "contractions.check_self_s": "s",
    "mann.steps": "count", "mann.alpha_at_calls": "count",
    "mann.alpha_at_per_row": "count/row", "mann.run_self_s": "s",
    "mann.rss_growth_mb": "MB",
    "analysis.factors": "count", "analysis.log_space_runs": "count",
    "analysis.verify_time_s": "s", "analysis.products_time_s": "s",
    "cli.self_s": "s", "cli.rows": "count", "cli.bytes_out": "B",
    "trace.overhead_frac": "ratio",
}

_TOTAL_CHECKS = re.compile(rb"^total_checks: (\d+)$", re.M)
_STEPS = re.compile(rb"^steps: (\d+)$", re.M)


def command_key(template: str, k: int, sizes: dict) -> str:
    """The command line for pool entry ``k``; ``OUT`` stands for the
    --out path.  The key identifies the command in expected.json."""
    return template.format(**sizes, seed=k, x0=f"{k + 1},{2 - k},{k / 4 + 3}",
                           delta=f"0.{30 + k}", tiny=f"{k + 1}e-10")


def workload_commands(workload: str, seed: int, sizes: dict) -> list:
    """Each template gets its own pool entry, derived from the workload seed."""
    keys = []
    for i, template in enumerate(WORKLOADS[workload][1]):
        h = hashlib.sha256(f"{workload}:{seed}:{i}".encode()).digest()
        keys.append(command_key(template, int.from_bytes(h[:8], "big") % POOL,
                                sizes))
    return keys


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("GFIX_SEED", None)  # iterate echoes the default seed
    return env


@dataclass
class Outcome:
    key: str
    wall_s: float
    code: int | None
    digest: str = ""
    stdout: bytes = b""
    out_rows: int = 0   # CSV lines in the --out file, minus the header
    out_bytes: int = 0
    report: dict = field(default_factory=dict)
    error: str = ""
    cal_s: float = 0.0  # the calibration child run right after this command


def run_child(cmd: list, timeout: float):
    """(exit code or None on timeout, stdout, stderr, wall seconds).

    A timer kills the child at the limit, so the wait itself blocks
    instead of polling, which would round the measured time."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            cwd=ROOT, env=_child_env())
    killed = threading.Event()

    def kill():
        killed.set()
        proc.kill()
    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        stdout, stderr = proc.communicate()
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    return (None if killed.is_set() else proc.returncode), stdout, stderr, wall


def calibration_s() -> float:
    code, _, stderr, wall = run_child(
        [sys.executable, "-E", "-s", str(CHILD), "--calibrate"],
        COMMAND_TIMEOUT_S)
    if code != 0:
        raise RuntimeError(f"calibration failed: {stderr.decode()[-300:]}")
    return wall


def run_command(key: str, tmp: Path, traced: bool, timeout: float) -> Outcome:
    out_path, report_path = tmp / "out.csv", tmp / "report.json"
    for p in (out_path, report_path):
        p.unlink(missing_ok=True)
    argv = [str(out_path) if a == "OUT" else a for a in key.split()]
    code, stdout, stderr, wall = run_child(
        [sys.executable, "-E", "-s", str(CHILD), str(report_path),
         "1" if traced else "0", *argv], timeout)
    if code is None:
        return Outcome(key, wall, None, error=f"timed out after {timeout:.1f} s")
    out = out_path.read_bytes() if out_path.exists() else b""
    report = json.loads(report_path.read_text()) if report_path.exists() else {}
    error = "" if report else (
        "no child report: " + stderr.decode(errors="replace")[-300:])
    return Outcome(key, wall, code, hashlib.sha256(stdout + out).hexdigest(),
                   stdout, max(out.count(b"\n") - 1, 0), len(out), report,
                   error)


def norm_wall_s(passes: list) -> float:
    """Pass wall time at reference speed.  Each command's wall time is
    divided by that of the calibration child run right after it; the
    ratios' median over the passes, summed over the commands, is scaled
    by CAL_REF_S.  Neighbours on a shared machine slow both alike."""
    ratios = defaultdict(list)
    for p in passes:
        for o in p.outcomes:
            ratios[o.key].append(o.wall_s / o.cal_s)
    return CAL_REF_S * sum(statistics.median(r) for r in ratios.values())


@dataclass
class Pass:
    traced: bool
    outcomes: list

    @property
    def wall_s(self) -> float:
        return sum(o.wall_s for o in self.outcomes)

    @property
    def norm_wall_s(self) -> float:
        return norm_wall_s([self])

    @property
    def checks(self) -> int:
        return sum(int(m) for o in self.outcomes
                   for m in _TOTAL_CHECKS.findall(o.stdout))

    @property
    def iterates(self) -> int:
        """Iterates recorded: each reported ``steps`` plus the start point."""
        return sum(int(m) + 1 for o in self.outcomes
                   for m in _STEPS.findall(o.stdout))

    @property
    def csv_rows(self) -> int:
        return sum(o.out_rows for o in self.outcomes)

    @property
    def bytes_out(self) -> int:
        return sum(len(o.stdout) + o.out_bytes for o in self.outcomes)

    def counts(self) -> Counter:
        total = Counter()
        for o in self.outcomes:
            total.update(o.report.get("counts", {}))
        return total

    def self_s(self) -> dict:
        total = defaultdict(float)
        for o in self.outcomes:
            for name, s in o.report.get("self_s", {}).items():
                total[name] += s
        return total


def layer_metrics(p: Pass) -> dict:
    c, s = p.counts(), p.self_s()
    draws, attempts = c["spaces.draw"], c["spaces.draw_attempts"]
    rows = c["cli.rows"]
    check_records = c["contractions.check_records"]
    rss_kb = sum(o.report.get("rss_growth_kb", 0) for o in p.outcomes)
    return {
        "rng.streams": c["rng.stream"],
        "rng.uniform_calls": c["rng.uniform"],
        "rng.time_s": s["rng.stream"] + s["rng.uniform"] + s["rng.next_u64"],
        "spaces.g_calls": c["spaces.g"],
        "spaces.g_time_s": s["spaces.g"],
        "spaces.draw_calls": draws,
        "spaces.draw_rejects": attempts - draws,
        "spaces.draw_accept_ratio": draws / attempts if attempts else 1.0,
        "spaces.draw_time_s": s["spaces.draw"],
        "core.quads": c["core.quads"],
        "core.records": c["core.record"],
        "core.violations": c["core.violations"],
        "core.record_time_s": s["core.record"],
        "core.sample_time_s": s["core.sample"],
        "core.check_self_s": s["core.check"],
        "convexity.blend_calls": c["convexity.blend"],
        "convexity.blend_time_s": s["convexity.blend"],
        "convexity.check_self_s": s["convexity.check"],
        "contractions.apply_calls": c["contractions.apply"],
        "contractions.apply_per_check": (
            c["contractions.check_applies"] / check_records
            if check_records else 0.0),
        "contractions.apply_time_s": s["contractions.apply"],
        "contractions.rhs_calls": c["contractions.rhs"],
        "contractions.check_self_s": s["contractions.check"],
        "mann.steps": c["mann.steps"],
        "mann.alpha_at_calls": c["mann.alpha_at"],
        "mann.alpha_at_per_row": c["mann.alpha_at"] / rows if rows else 0.0,
        "mann.run_self_s": s["mann.run"],
        "mann.rss_growth_mb": rss_kb / 1024,
        "analysis.factors": c["analysis.factors"],
        "analysis.log_space_runs": c["analysis.log_space_runs"],
        "analysis.verify_time_s": s["analysis.verify"],
        "analysis.products_time_s": s["analysis.products"],
        "cli.self_s": s["cli.main"],
        "cli.rows": rows,
        "cli.bytes_out": p.bytes_out,
    }


def invariant_errors(p: Pass) -> list:
    c = p.counts()
    errors = [f"tracer could not wrap {name}"
              for name in sorted({n for o in p.outcomes
                                  for n in o.report.get("missing", [])})]
    for name, traced, reported in (
            ("core.records vs reported total_checks", c["core.record"], p.checks),
            ("mann.steps vs reported steps + 1", c["mann.steps"], p.iterates),
            ("cli.rows vs CSV lines - header", c["cli.rows"], p.csv_rows)):
        if traced != reported:
            errors.append(f"{name}: {traced} != {reported}")
    return errors


def measure_setup(space: str, starts: int) -> float:
    """Wall time, at reference speed (see ``norm_wall_s``), of a fresh
    interpreter that imports gfix.cli, builds the parser and resolves
    ``space``: the median over ``starts`` starts, each followed by a
    calibration child.  A first start, untimed, warms the bytecode cache."""
    times, cals = [], []
    for _ in range(starts + 1):
        code, _, stderr, wall = run_child(
            [sys.executable, "-E", "-s", str(CHILD), "--setup", space],
            COMMAND_TIMEOUT_S)
        if code != 0:
            raise RuntimeError(f"setup start failed: {stderr.decode()[-300:]}")
        times.append(wall)
        cals.append(calibration_s())
    return CAL_REF_S * statistics.median(
        t / c for t, c in zip(times[1:], cals[1:]))


@dataclass
class Run:
    workload: str
    passes: list
    setup_s: float
    attempted: int = 0
    failures: list = field(default_factory=list)
    invariant_failures: list = field(default_factory=list)

    def passes_of(self, traced: bool) -> list:
        return [p for p in self.passes if p.traced == traced]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 sizes: dict = SIZES, expected: dict | None = None,
                 setup_starts: int = SETUP_STARTS) -> Run:
    """Run passes over the workload until ``seconds`` have elapsed; with
    ``trace``, alternate untraced and traced passes, at least two of each.

    Outputs must equal ``expected`` (key -> digest).  Without it, every
    pass must reproduce the first pass's outputs."""
    code, _ = WORKLOADS[workload]
    keys = workload_commands(workload, seed, sizes)
    reference = dict(expected) if expected is not None else {}
    started = time.perf_counter()
    deadline = started + RUN_DEADLINE_S
    run = Run(workload, [],
              0.0 if trace else measure_setup("perimeter-3", setup_starts))
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
        measure_from = time.perf_counter()
        while True:
            traced = trace and len(run.passes) % 2 == 1
            outcomes = []
            for key in keys:
                run.attempted += 1
                left = min(COMMAND_TIMEOUT_S, deadline - time.perf_counter())
                if left <= 0:
                    run.failures.append(f"{key}: not run, run deadline passed")
                    continue
                o = run_command(key, Path(tmp), traced, left)
                o.cal_s = calibration_s()
                outcomes.append(o)
                if expected is None:
                    reference.setdefault(key, o.digest)
                if o.error:
                    run.failures.append(f"{key}: {o.error}")
                elif o.code != code:
                    run.failures.append(f"{key}: exit {o.code}, expected {code}")
                elif key not in reference:
                    run.failures.append(f"{key}: no recorded output")
                elif o.digest != reference[key]:
                    run.failures.append(f"{key}: output digest {o.digest[:12]} "
                                        f"!= {reference[key][:12]}")
            p = Pass(traced, outcomes)
            if outcomes:
                run.passes.append(p)
            if traced:
                run.invariant_failures += invariant_errors(p)
            elapsed = time.perf_counter() - measure_from
            enough = not trace or len(run.passes_of(True)) >= 2
            if (elapsed >= seconds and enough) or time.perf_counter() >= deadline:
                break
    if trace:
        first = run.passes_of(True)[0].counts()
        for p in run.passes:
            if p.traced and p.counts() != first:
                run.invariant_failures.append(
                    "counts differ between traced passes: " + ", ".join(
                        sorted(k for k in first.keys() | p.counts().keys()
                               if first[k] != p.counts()[k])))
    return run


def e2e_metrics(run: Run) -> dict:
    wall = norm_wall_s(run.passes_of(False))
    # verify workloads report checks, iterate-bound writes CSV rows
    work = run.passes[0].checks + run.passes[0].csv_rows
    rss_kb = max((o.report.get("peak_rss_kb", 0) for p in run.passes
                  for o in p.outcomes), default=0)
    return {"norm_wall_s": wall, "norm_work_per_s": work / wall,
            "peak_rss_mb": rss_kb / 1024, "setup_s": run.setup_s}


def trace_metrics(run: Run) -> dict:
    per_pass = [layer_metrics(p) for p in run.passes if p.traced]
    # median_low keeps a measured value; counts repeat in every pass
    metrics = {name: statistics.median_low(m[name] for m in per_pass)
               for name in per_pass[0]}
    metrics["trace.overhead_frac"] = (norm_wall_s(run.passes_of(True))
                                      / norm_wall_s(run.passes_of(False)) - 1)
    return metrics


def summary_lines(run: Run, metrics: dict) -> list:
    """The readable report.  Throughput is named by what it counts, and
    the measured times and calibration stand next to the normalized ones."""
    untraced = run.passes_of(False)
    raw = statistics.median(p.wall_s for p in untraced)
    work = run.passes[0].checks + run.passes[0].csv_rows
    per_s = "rows_per_s" if run.passes[0].csv_rows else "checks_per_s"
    cal = statistics.median(o.cal_s for p in untraced for o in p.outcomes)
    lines = [f"workload {run.workload}: {len(untraced)} untraced and "
             f"{len(run.passes) - len(untraced)} traced passes",
             f"  measured: wall_s = {raw:.6g} s, {per_s} = {work / raw:.6g} 1/s,"
             f" calibration child = {cal:.4g} s"]
    units = {**E2E_UNITS, **LAYER_UNITS}
    for name, value in metrics.items():
        label = f"{name} ({per_s})" if name == "norm_work_per_s" else name
        lines.append(f"  {label} = {value:.6g} {units[name]}")
    walls = [p.norm_wall_s for p in untraced]
    if len(walls) >= 2:
        q1, q2, q3 = statistics.quantiles(walls, n=4)
        lines.append(f"  norm_wall_s quartiles over passes = "
                     f"{q1:.4g} {q2:.4g} {q3:.4g} s")
    lines.append(f"  failed_frac = {len(run.failures) / max(run.attempted, 1):.6g}"
                 f" ({len(run.failures)} of {run.attempted} commands)")
    return lines


def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gfix").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "git_commit": _git_commit(),
            "source_sha256": source.hexdigest(), "workload_seed": seed}


def _git_commit() -> str | None:
    """HEAD read from .git without running git; None outside a clone."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def record() -> int:
    """Run every pool entry of every command once and store its digest."""
    expected = {}
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
        for workload, (code, templates) in WORKLOADS.items():
            for template in templates:
                for k in range(POOL):
                    key = command_key(template, k, SIZES)
                    o = run_command(key, Path(tmp), False, COMMAND_TIMEOUT_S)
                    if o.error or o.code != code:
                        print(f"error: {key}: exit {o.code} {o.error}",
                              file=sys.stderr)
                        return 1
                    expected[key] = o.digest
                print(f"recorded {POOL} x {template}", file=sys.stderr)
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


def smoke() -> int:
    """Tiny sizes: every workload's untraced and traced runs must succeed,
    hold the trace invariants and name exactly the metrics and units of
    BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {trace: {m["name"]: m["unit"] for m in spec[key]}
            for trace, key in ((False, "end_to_end"), (True, "per_layer"))}
    units = {**E2E_UNITS, **LAYER_UNITS}
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            run = run_workload(workload, 0, 0, trace, SMOKE_SIZES,
                               setup_starts=1)
            metrics = trace_metrics(run) if trace else e2e_metrics(run)
            got = {name: units[name] for name in metrics}
            if got != want[trace]:
                problems.append(f"{workload}: metrics {sorted(got.items())} "
                                f"!= {sorted(want[trace].items())}")
            problems += [f"{workload}: {f}" for f in
                         run.failures + run.invariant_failures]
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gfix" / "cli.py").is_file():
        print(f"error: no gfix sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record:
        return record()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")

    trace = bool(args.trace)
    run = run_workload(args.workload, args.seed, args.seconds, trace,
                       expected=json.loads(EXPECTED.read_text()))
    metrics = trace_metrics(run) if trace else e2e_metrics(run)
    units = LAYER_UNITS if trace else E2E_UNITS
    print(json.dumps({"env": environment(args.seed)}))
    for line in summary_lines(run, metrics):
        print(line)
    for problem in run.failures + run.invariant_failures:
        print(f"error: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.failures and not run.invariant_failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
