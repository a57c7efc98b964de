"""Check that every benchmark command still gives its recorded output.

    python3 tools/check_bench_outputs.py

Expands each command template of bench/run.py's WORKLOADS over all POOL
entries at the full SIZES, runs the commands through ``gfix.cli.main``
(OUT a temporary file) in one worker process per CPU this process may
run on, and compares each exit code with the workload's and
sha256(stdout + out) with bench/expected.json.  Prints each mismatch, in command order, then the
count, and exits 1 if there is any mismatch.  It only reads bench/.
The whole check takes a few minutes on one core.
"""

import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import run as bench  # noqa: E402
from gfix import cli  # noqa: E402


def outcome(key: str):
    """(exit code, sha256 of stdout + the --out file) of one command."""
    with tempfile.TemporaryDirectory() as tmp:
        out_path = Path(tmp) / "out.csv"
        argv = [str(out_path) if a == "OUT" else a for a in key.split()]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        out = out_path.read_bytes() if out_path.exists() else b""
    return code, hashlib.sha256(stdout.getvalue().encode() + out).hexdigest()


def main() -> int:
    expected = json.loads(bench.EXPECTED.read_text())
    commands = [(workload, want, bench.command_key(template, k, bench.SIZES))
                for workload, (want, templates) in bench.WORKLOADS.items()
                for template in templates for k in range(bench.POOL)]
    mismatches = 0
    workers = len(os.sched_getaffinity(0))
    with multiprocessing.get_context("spawn").Pool(workers) as pool:
        # imap hands results back in command order
        results = pool.imap(outcome, [key for _, _, key in commands])
        for (workload, want, key), (code, digest) in zip(commands, results):
            if code != want or digest != expected.get(key):
                mismatches += 1
                print(f"mismatch: {workload}: {key}: exit {code} "
                      f"(want {want}), digest {digest} "
                      f"(want {expected.get(key)})")
    print(f"{len(commands)} commands, {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
