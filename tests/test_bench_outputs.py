"""The benchmark's recorded outputs (bench/expected.json) still hold.

The benchmark fails a run whose exit code or output digest differs from
the recorded one.  This test runs pool entry 0 of every workload
template through ``bench/child.py``, as a benchmark run does, so an
output change fails tier-1 instead of only a benchmark run.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import run as bench  # noqa: E402

EXPECTED = json.loads(bench.EXPECTED.read_text())
CASES = [(workload, code, template)
         for workload, (code, templates) in bench.WORKLOADS.items()
         for template in templates]


@pytest.mark.parametrize(
    "workload, code, template", CASES,
    ids=[f"{w}-{i}" for i, (w, _, _) in enumerate(CASES)])
def test_bench_command_reproduces_recorded_output(workload, code, template,
                                                   tmp_path):
    key = bench.command_key(template, 0, bench.SIZES)
    outcome = bench.run_command(key, tmp_path, traced=False,
                                timeout=bench.COMMAND_TIMEOUT_S)
    assert outcome.error == ""
    assert outcome.code == code
    assert outcome.digest == EXPECTED[key]
