"""Peak memory of the iterate and bound commands.

tracemalloc counts the Python allocations of one in-process run, so the
peak is the same on every machine and run, unlike the resident set.
Each column, the iterates' coordinates included, is packed doubles and
the CSV is written row by row, so the peak grows with the rows kept, not
with the text written.
"""

import tracemalloc

import pytest

import gfix
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
    # about 3.4 MB; a boxed list of the alphas took it to 4.4 MB, and
    # holding every row as a tuple of floats and the text as one string
    # to 37 MB
    assert peak_mb(["bound", "--delta", delta, "--schedule", "harmonic",
                    "--max-iters", "100000",
                    "--out", str(tmp_path / "b.csv")]) < 4


def test_iterate_peak_memory(tmp_path, capsys):
    # about 1.7 MB with the iterates' coordinates packed; keeping the 2e4
    # points as tuples took 4.2 MB, and boxed float columns and the
    # joined text 14 MB
    assert peak_mb(["iterate", "--space", "perimeter-3",
                    "--mapping", "affine:k=0.5", "--condition", "four-term",
                    "--coeff", "a=0.5,b=0,c=0,d=0", "--schedule", "harmonic",
                    "--x0", "1,2,3", "--max-iters", "20000",
                    "--out", str(tmp_path / "t.csv")]) < 2.5


def test_high_dimensional_space_and_maps_build_in_linear_memory():
    # about 0.7 MB at dim 2e4, most of it the box and the two argument
    # tuples; compiling a flat tuple expression per dimension took 124 MB
    dim = 20000
    tracemalloc.start()
    try:
        gfix.get_space(f"perimeter-{dim}")
        gfix.make_affine_contraction((0.0,) * dim, 0.5)
        gfix.make_translation((1.0,) * dim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 1e6 < 3
