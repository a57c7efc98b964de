"""Smoke test of the benchmark itself: tiny sizes, every metric name and unit."""

import subprocess
import sys
from pathlib import Path


def test_smoke():
    run = Path(__file__).with_name("run.py")
    proc = subprocess.run([sys.executable, str(run), "--smoke"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().endswith("smoke: ok")
