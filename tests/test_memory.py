"""Peak memory of the iterate and bound commands.

tracemalloc counts the Python allocations of one in-process run, so the
peak is the same on every machine and run, unlike the resident set.
Each column is packed doubles and the CSV is written row by row, so
the peak grows with the iterates kept, not with the text written.
"""

import tracemalloc

import pytest

from gfix.cli import main


def peak_mb(args):
    tracemalloc.start()
    try:
        code = main(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak / 1e6


@pytest.mark.parametrize("delta", ["0.39", "1e-10"])  # 1e-10: log space
def test_bound_peak_memory(delta, tmp_path):
    # about 4 MB; holding every row as a tuple of floats and the text as
    # one string took 37 MB
    assert peak_mb(["bound", "--delta", delta, "--schedule", "harmonic",
                    "--max-iters", "100000",
                    "--out", str(tmp_path / "b.csv")]) < 10


def test_iterate_peak_memory(tmp_path, capsys):
    # about 4 MB, most of it the 2e4 points kept as tuples; boxed float
    # columns and the joined text took 14 MB
    assert peak_mb(["iterate", "--space", "perimeter-3",
                    "--mapping", "affine:k=0.5", "--condition", "four-term",
                    "--coeff", "a=0.5,b=0,c=0,d=0", "--schedule", "harmonic",
                    "--x0", "1,2,3", "--max-iters", "20000",
                    "--out", str(tmp_path / "t.csv")]) < 6
