"""CSV rows split into ranges formatted by forked workers.

``cli._write_lines`` splits a CSV's lines into k contiguous ranges,
k = max(1, min(usable CPUs, lines // MIN_ROWS)), through
``core.forked_ranges``; the head lines lie in the first.  These tests
force k by replacing the CPU count (``core._cpus``) and
``cli.MIN_ROWS``, and check that every k writes the same bytes as one
range, a cut right after the head included, that an error in any range
fails the command with the error line of one range and exit 2, and that
no child process is left behind.
"""

import os
import subprocess
import sys

import pytest

import gfix
from gfix import cli, core

MIN_ROWS = 4  # small enough that a few dozen rows make three ranges

ITERATE = ["iterate", "--space", "perimeter-3", "--mapping", "affine:k=0.5",
           "--schedule", "harmonic", "--x0", "1,2,3", "--max-iters", "40"]
BOUNDS = ["--condition", "four-term", "--coeff", "a=0.5,b=0,c=0,d=0"]


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Force MIN_ROWS; count the forks made while the test runs."""
    monkeypatch.setattr(cli, "MIN_ROWS", MIN_ROWS)
    made = []
    real = os.fork

    def fork():
        made.append(1)
        return real()
    monkeypatch.setattr(os, "fork", fork)
    return made


def run(monkeypatch, capsys, tmp_path, args, cpus):
    """(exit code, --out bytes, stdout) of ``args`` with ``cpus`` CPUs."""
    monkeypatch.setattr(core, "_cpus", lambda: cpus)
    out = tmp_path / f"out-{cpus}.csv"
    code = cli.main([*args, "--out", str(out)])
    assert_no_children()
    return code, out.read_bytes(), capsys.readouterr().out


@pytest.mark.parametrize("args, code", [
    (ITERATE + BOUNDS, 0),
    (ITERATE, 0),  # no --condition: the bound and slack columns are blank
    (["iterate", "--space", "perimeter-1", "--mapping", "affine:k=2",
      "--schedule", "constant", "--alpha", "1", "--x0", "1",
      "--max-iters", "5000"], 1),  # diverges after about a thousand rows
    (["bound", "--delta", "0.3", "--schedule", "harmonic",
      "--max-iters", "41"], 0),
    (["bound", "--delta", "1e-10", "--schedule", "harmonic",
      "--max-iters", "41"], 0),  # log space
])
def test_every_range_count_writes_the_same_bytes(
        args, code, forks, monkeypatch, capsys, tmp_path):
    one = run(monkeypatch, capsys, tmp_path, args, 1)
    assert one[0] == code and one[1].count(b"\n") > 3 * MIN_ROWS
    assert forks == []
    for cpus in (2, 3):
        forks.clear()
        assert run(monkeypatch, capsys, tmp_path, args, cpus) == one
        assert len(forks) == cpus - 1


@pytest.mark.parametrize("rows", [0, 1, MIN_ROWS - 1, MIN_ROWS, MIN_ROWS + 1,
                                  2 * MIN_ROWS, 3 * MIN_ROWS + 1])
def test_range_count_follows_rows_and_cpus(
        rows, forks, monkeypatch, capsys, tmp_path):
    args = ["bound", "--delta", "0.3", "--schedule", "harmonic",
            "--max-iters", str(rows)]
    one = run(monkeypatch, capsys, tmp_path, args, 1)
    lines = rows + 2  # the header and row 0 first
    assert one[1].count(b"\n") == lines
    for cpus in (2, 3):
        forks.clear()
        assert run(monkeypatch, capsys, tmp_path, args, cpus) == one
        assert len(forks) == max(1, min(cpus, lines // MIN_ROWS)) - 1


def test_no_fork_means_one_range(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(cli, "MIN_ROWS", MIN_ROWS)
    args = ITERATE + BOUNDS
    one = run(monkeypatch, capsys, tmp_path, args, 1)
    monkeypatch.delattr(os, "fork")
    assert run(monkeypatch, capsys, tmp_path, args, 3) == one


def test_row_ranges_zip_the_columns():
    # line 0 is the head, so data rows start..stop-1 are lines start+1..
    csv = cli._csv(["n,a"], "%d,%.17g", (range(5), [0.5, 1.5, 2.5, 3.5, 4.5]))
    assert list(csv[1:3]) == ["0,0.5\n", "1,1.5\n"]
    assert list(csv[3:6]) == ["2,2.5\n", "3,3.5\n", "4,4.5\n"]
    assert list(csv[6:6]) == []


# bound's head is two lines, the header and row 0; with one line a range,
# rows + 2 lines in k ranges cut at (rows + 2) * i // k, and each case has
# a cut at line 2 for k = 2 or 3: a range that starts right after the head
@pytest.mark.parametrize("rows", [2, 3, 4, 6])
def test_a_cut_right_after_the_head(rows, monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(cli, "MIN_ROWS", 1)
    assert any(2 in [(rows + 2) * i // k for i in range(1, k)] for k in (2, 3))
    args = ["bound", "--delta", "0.3", "--schedule", "harmonic",
            "--max-iters", str(rows)]
    one = run(monkeypatch, capsys, tmp_path, args, 1)
    assert one[0] == 0 and one[1].count(b"\n") == rows + 2
    for cpus in (2, 3):
        assert run(monkeypatch, capsys, tmp_path, args, cpus) == one


class Poisoned:
    """A column whose iteration raises at row ``at``; a slice of it, the
    way a CSV range reads a column, raises at the same row and names it."""

    def __init__(self, values, at, first=0):
        self.values, self.at, self.first = values, at, first

    def __len__(self):
        return len(self.values)

    def __getitem__(self, rows):
        start = rows.indices(len(self.values))[0]
        return Poisoned(self.values[rows], self.at - start, self.first + start)

    def __iter__(self):
        for i, v in enumerate(self.values):
            if i == self.at:
                raise ValueError(f"poisoned row {self.first + i}")
            yield v


# 42 lines in two ranges: range 0 is the header and rows 0-19, formatted
# in this process
@pytest.mark.parametrize("at", [30, 5], ids=["in-worker", "in-parent"])
def test_failing_range_exits_two_and_leaves_no_child(
        at, forks, monkeypatch, capsys, tmp_path):
    csv = cli._csv
    monkeypatch.setattr(cli, "_csv", lambda head, template, columns: csv(
        head, template, (*columns[:-1], Poisoned(columns[-1], at))))
    errors = []
    for cpus in (1, 2):
        monkeypatch.setattr(core, "_cpus", lambda: cpus)
        code = cli.main([*ITERATE, *BOUNDS, "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert_no_children()
        errors.append(capsys.readouterr().err)
    assert len(forks) == 1
    # the rest of a stopped worker's range runs here: one range's error
    assert errors[1] == errors[0] == f"error: poisoned row {at}\n"


def test_split_stdout_is_written_once(tmp_path):
    # without --out the CSV goes to stdout, a pipe here and so block
    # buffered: a worker that flushed what it inherited would repeat it
    src = os.path.dirname(os.path.dirname(gfix.__file__))
    forced = ("import sys; from gfix import cli, core; cli.MIN_ROWS = 4; "
              "core._cpus = lambda: 3; sys.exit(cli.main(sys.argv[1:]))")

    def gfix_run(*extra):
        proc = subprocess.run(
            [sys.executable, "-c", forced, *ITERATE, *BOUNDS, *extra],
            capture_output=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0 and proc.stderr == b""
        return proc.stdout

    out = tmp_path / "t.csv"
    summary = gfix_run("--out", str(out))
    csv = out.read_bytes()
    assert csv.count(b"\n") == 42 and summary.startswith(b"# gfix iterate\n")
    assert gfix_run() == csv + summary
