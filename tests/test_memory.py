"""Peak memory of the check, iterate and bound commands.

tracemalloc counts the Python allocations of one in-process run, so the
peak is the same on every machine and run, unlike the resident set.
``iterate`` and ``bound`` keep their rows in ``core.Rows`` stores, which
hold one block of about 256 KB in memory and write the rest to an
unlinked temporary file, and their columns are read back a block at a
time.  The CSV's data rows are split into contiguous ranges: this
process formats the first range row by row, and each forked worker
writes its range to a temporary file that this process reads back in
chunks of 512 rows, about 64 KB.  So past the first blocks the peak
does not grow with the steps, and one test reads the resident set of
the command and its workers.
The CSV tests force two ranges.  The checks draw each witness tuple as
they read it, so their peak does not grow with the samples.
"""

import dataclasses
import os
import subprocess
import sys
import tracemalloc

import pytest

import gfix
from gfix import cli, core
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
    # about 0.9 MB with the rows in stores; the alpha, factor and product
    # columns as arrays took 3.4 MB, a boxed list of the alphas 4.4 MB,
    # and every row as a tuple of floats with the text as one string 37 MB
    assert peak_mb(["bound", "--delta", delta, "--schedule", "harmonic",
                    "--max-iters", "100000",
                    "--out", str(tmp_path / "b.csv")]) < 1


ITERATE = ["iterate", "--space", "perimeter-3", "--mapping", "affine:k=0.5",
           "--condition", "four-term", "--coeff", "a=0.5,b=0,c=0,d=0",
           "--schedule", "harmonic", "--x0", "1,2,3"]


def test_iterate_peak_memory(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(core, "_cpus", lambda: 2)
    # 0.9 to 1.1 MB with the rows in a store, the more when this is the
    # first command run; the packed columns took 1.7 MB, the 2e4 points as
    # tuples 4.2 MB, and boxed float columns and the joined text 14 MB
    assert peak_mb([*ITERATE, "--max-iters", "20000",
                    "--out", str(tmp_path / "t.csv")]) < 1.2


def test_iterate_peak_does_not_grow_with_the_steps(tmp_path, capsys,
                                                   monkeypatch):
    # a 32 KB block fills within 2e3 steps and 1000-row ranges split
    # both runs in two, so the runs differ in steps alone; the first,
    # unused run pays the one-time costs.  About 0.32 and 0.35 MB; with
    # packed columns the peak went from 0.5 to 3 MB
    monkeypatch.setattr(core, "_cpus", lambda: 2)
    monkeypatch.setattr(core, "_BLOCK_VALUES", 4096)
    monkeypatch.setattr(cli, "MIN_ROWS", 1000)
    _, small, large = (peak_mb([*ITERATE, "--max-iters", str(steps),
                                "--out", str(tmp_path / "t.csv")])
                       for steps in (2000, 2000, 40000))
    assert large < small + 0.1


# one wrapper interpreter per run, so that no earlier peak of this
# process reaches the command through fork and exec
WRAPPER = """if True:
    import resource, subprocess, sys
    subprocess.run([sys.executable, "-c",
                    "import sys; from gfix.cli import main; "
                    "sys.exit(main(sys.argv[1:]))", *sys.argv[1:]],
                   check=True, stdout=subprocess.DEVNULL)
    print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in kilobytes on Linux")
def test_iterate_resident_set_with_workers_does_not_grow(tmp_path):
    # RUSAGE_CHILDREN covers the command and every worker it reaped: at
    # 1e5 steps about 17 MB against 16 MB at 2e3; with packed columns
    # the parent took 22 MB and a worker holding its range's text 27 MB
    src = os.path.dirname(os.path.dirname(gfix.__file__))

    def children_peak_mb(steps):
        proc = subprocess.run(
            [sys.executable, "-c", WRAPPER, *ITERATE,
             "--max-iters", str(steps), "--out", str(tmp_path / "t.csv")],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        return int(proc.stdout) / 1024

    assert children_peak_mb(100000) < children_peak_mb(2000) + 3


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
