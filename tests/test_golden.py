"""Byte-exact CLI outputs for small configurations.

Each case's stdout and ``--out`` file are stored in ``tests/golden``.
Refactors must keep them unchanged; after an intended output change,
re-record with ``PYTHONPATH=src python tests/test_golden.py`` and say why
in CHANGES.md.
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from gfix.cli import main

GOLDEN = Path(__file__).parent / "golden"

FOUR_TERM = ["--condition", "four-term", "--coeff", "a=0.5,b=0,c=0,d=0"]

# name: (exit code, argv); "OUT" stands for the --out path and "GOLDEN/"
# for this directory's golden files
CASES = {
    "axioms-perimeter": (0, ["check-axioms", "--space", "perimeter-2",
                             "--samples", "200", "--seed", "7"]),
    "axioms-sign": (0, ["check-axioms", "--space", "sign-example",
                        "--min-separation", "1", "--samples", "200",
                        "--seed", "5", "--out", "OUT"]),
    "derived-max": (0, ["check-derived", "--space", "max-2", "--samples",
                        "200", "--seed", "1"]),
    "convexity-perimeter": (0, ["check-convexity", "--space", "perimeter-2",
                                "--samples", "200", "--seed", "3",
                                "--out", "OUT"]),
    "condition-pass": (0, ["check-condition", "--space", "perimeter-2",
                           "--mapping", "affine:k=0.3", *FOUR_TERM,
                           "--samples", "200", "--seed", "2"]),
    "condition-fail": (1, ["check-condition", "--space", "perimeter-1",
                           "--mapping", "affine:k=2", *FOUR_TERM,
                           "--samples", "100", "--seed", "3",
                           "--out", "OUT"]),
    "condition-fail-ksum": (1, ["check-condition", "--space", "max-3",
                                "--mapping", "translation:offset=1;0;0",
                                "--condition", "k-sum", "--coeff", "k=0.3",
                                "--samples", "50", "--seed", "4"]),
    "iterate-bound": (0, ["iterate", "--space", "perimeter-1",
                          "--mapping", "affine:k=0.5", *FOUR_TERM,
                          "--schedule", "constant", "--alpha", "0.5",
                          "--x0", "1", "--max-iters", "20",
                          "--residual-tol", "0", "--out", "OUT"]),
    "iterate-translation": (0, ["iterate", "--space", "perimeter-2",
                                "--mapping", "translation:offset=1;0",
                                "--condition", "k-sum", "--coeff", "k=0.2",
                                "--schedule", "harmonic", "--x0", "1,2",
                                "--max-iters", "10", "--out", "OUT"]),
    "iterate-vacuous": (0, ["iterate", "--space", "max-2",
                            "--mapping", "affine:k=0.5",
                            "--condition", "three-term",
                            "--coeff", "a=0.4,b=0.1,c=0.1",
                            "--schedule", "power:2", "--x0", "1,-1",
                            "--max-iters", "15"]),
    "iterate-config": (0, ["iterate", "--config", "GOLDEN/iterate.cfg",
                           "--max-iters", "5", "--out", "OUT"]),
    "bound-log": (0, ["bound", "--delta", "1e-10", "--schedule", "harmonic",
                      "--max-iters", "40", "--out", "OUT"]),
    "bound-constant": (0, ["bound", "--delta", "0.5", "--schedule",
                           "constant", "--alpha", "0.5", "--max-iters", "8"]),
}


def run_case(name, tmp):
    """(exit code, stdout bytes, --out bytes or None) for one case."""
    _, argv = CASES[name]
    out = Path(tmp) / "out"
    argv = [str(out) if a == "OUT" else a.replace("GOLDEN/", f"{GOLDEN}/")
            for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return (code, buf.getvalue().encode(),
            out.read_bytes() if out.exists() else None)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    code, stdout, out = run_case(name, tmp_path)
    assert code == CASES[name][0]
    assert stdout == (GOLDEN / f"{name}.stdout").read_bytes()
    out_file = GOLDEN / f"{name}.out"
    assert out == (out_file.read_bytes() if out_file.exists() else None)


def record() -> None:
    for name, (want, _) in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            code, stdout, out = run_case(name, tmp)
        if code != want:
            sys.exit(f"{name}: exit {code}, expected {want}")
        (GOLDEN / f"{name}.stdout").write_bytes(stdout)
        out_file = GOLDEN / f"{name}.out"
        if out is not None:
            out_file.write_bytes(out)
        else:
            out_file.unlink(missing_ok=True)


if __name__ == "__main__":
    record()
