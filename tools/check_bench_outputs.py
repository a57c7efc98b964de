"""Check that every benchmark command still gives its recorded output.

    python3 tools/check_bench_outputs.py

Expands each command template of bench/run.py's WORKLOADS over all POOL
entries at the full SIZES and runs each through bench/run.py's
run_command, as a benchmark run does (a child interpreter, the
benchmark's environment, the COMMAND_TIMEOUT_S limit), one at a time per
CPU this process may run on.  The child must write its report, the exit
code must be the workload's and sha256(stdout + out) the one in
bench/expected.json.  Prints each mismatch, in command order, then the
count, and exits 1 if there is any mismatch.  It only reads bench/.
"""

import json
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import run as bench  # noqa: E402


def outcome(key: str) -> bench.Outcome:
    with tempfile.TemporaryDirectory() as tmp:
        return bench.run_command(key, Path(tmp), traced=False,
                                 timeout=bench.COMMAND_TIMEOUT_S)


def main() -> int:
    expected = json.loads(bench.EXPECTED.read_text())
    commands = [(workload, want, bench.command_key(template, k, bench.SIZES))
                for workload, (want, templates) in bench.WORKLOADS.items()
                for template in templates for k in range(bench.POOL)]
    mismatches = 0
    with ThreadPoolExecutor(len(os.sched_getaffinity(0))) as pool:
        # map hands results back in command order
        results = pool.map(outcome, [key for _, _, key in commands])
        for (workload, want, key), o in zip(commands, results):
            if o.error or o.code != want or o.digest != expected.get(key):
                mismatches += 1
                print(f"mismatch: {workload}: {key}: exit {o.code} "
                      f"(want {want}), digest {o.digest} "
                      f"(want {expected.get(key)}) {o.error}")
    print(f"{len(commands)} commands, {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
