"""The benchmark tracer (bench/tracer.py) still finds every gfix hook.

The tracer patches gfix's module boundaries by name; a renamed or
reshaped hook would only show in a benchmark run.  This test installs
it over the source tree's gfix in a fresh interpreter and runs one
small traced ``iterate``.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TRACED_RUN = """
import json, sys
root, out = sys.argv[1], sys.argv[2]
sys.path[:0] = [root + "/src", root + "/bench"]
from tracer import Tracer, install
tracer = Tracer()
install(tracer)
from gfix import cli
code = cli.main(["iterate", "--space", "perimeter-1", "--mapping",
                 "affine:k=0.5", "--condition", "four-term", "--coeff",
                 "a=0.5,b=0,c=0,d=0", "--max-iters", "20", "--out", out])
print(json.dumps({"code": code, **tracer.report()}))
"""


def test_tracer_hooks_present(tmp_path):
    out = tmp_path / "trace.csv"
    proc = subprocess.run(
        [sys.executable, "-E", "-s", "-c", TRACED_RUN, str(ROOT), str(out)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["missing"] == []
    assert report["code"] == 0
    rows = len(out.read_text().splitlines()) - 1
    assert report["counts"]["cli.rows"] == rows
    assert report["counts"]["mann.steps"] == rows
