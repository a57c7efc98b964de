"""Peak memory of the check, iterate and bound commands.

tracemalloc counts the Python allocations of one in-process run, so the
peak is the same on every machine and run, unlike the resident set.
Each column, the iterates' coordinates included, is packed doubles.  The
CSV's data rows are split into contiguous ranges: this process formats
the first range row by row and copies each forked worker's range from
its pipe in 64 KB chunks, so its peak grows with the rows kept, not with
the text written.  The CSV tests force two ranges.  The checks draw each
witness tuple as they read it, so their peak does not grow with the
samples.
"""

import dataclasses
import tracemalloc

import pytest

import gfix
from gfix import core
from gfix.cli import main
from gfix.core import sample_quads, structured_points, structured_quads


def peak_mb(args, expected_code=0):
    tracemalloc.start()
    try:
        code = main(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == expected_code
    return peak / 1e6


def test_check_condition_peak_memory(capsys, monkeypatch):
    monkeypatch.setattr(core, "_cpus", lambda: 2)
    # about 0.5 MB; holding the 20k witness quadruples in one list before
    # the first check took 10.3 MB
    assert peak_mb(["check-condition", "--space", "perimeter-2",
                    "--mapping", "affine:k=2", "--condition", "four-term",
                    "--coeff", "a=0.5,b=0,c=0,d=0", "--samples", "20000"],
                   expected_code=1) < 1


def test_check_axioms_peak_memory(capsys, monkeypatch):
    monkeypatch.setattr(core, "_cpus", lambda: 2)
    # about 0.2 MB; a list of the 10k quadruples took 6.3 MB
    assert peak_mb(["check-axioms", "--space", "perimeter-3",
                    "--samples", "10000"]) < 1


def test_sampled_witnesses_are_sized_without_drawing():
    draws = []
    perimeter = gfix.get_space("perimeter-3").space

    def draw(stream, box, min_separation):
        draws.append(1)
        return perimeter.draw(stream, box, min_separation)

    space = dataclasses.replace(perimeter, draw=draw)
    plan = gfix.SamplePlan(seed=0, count=500)
    extra = len(structured_quads(structured_points(space)))
    assert len(sample_quads(space, plan)) == 500 + extra
    assert len(sample_quads(space, plan, 3)) == 500 + extra
    assert draws == []


def test_sampled_witnesses_repeat_on_every_pass():
    quads = sample_quads(gfix.get_space("max-2").space,
                         gfix.SamplePlan(seed=3, count=200))
    first = list(quads)
    assert len(first) == len(quads)
    assert list(quads) == first


@pytest.mark.parametrize("delta", ["0.39", "1e-10"])  # 1e-10: log space
def test_bound_peak_memory(delta, tmp_path, monkeypatch):
    monkeypatch.setattr(core, "_cpus", lambda: 2)
    # about 3.4 MB; a boxed list of the alphas took it to 4.4 MB, and
    # holding every row as a tuple of floats and the text as one string
    # to 37 MB
    assert peak_mb(["bound", "--delta", delta, "--schedule", "harmonic",
                    "--max-iters", "100000",
                    "--out", str(tmp_path / "b.csv")]) < 4


def test_iterate_peak_memory(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(core, "_cpus", lambda: 2)
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
