"""Row stores: the iterate and bound columns in constant memory.

``core.Rows.add`` keeps the rows after its last full block in memory and
writes each full block to an unlinked temporary file; ``core.Rows.read``
reads rows back a whole block at a time, and ``Rows.column`` views one
column through it as a ``core.Sized``.  These tests force a block
of a row or two (``core._BLOCK_VALUES``) and a CSV range of one row
(``cli.MIN_ROWS``), and check that every block size and range count
writes the bytes of one range with the default block, that the library
columns equal the arrays the former array-based code built, and that
the store's files never outlive it or show up in the temporary folder.
"""

import gc
import math
import operator
import os
import signal
import tempfile
from array import array

import pytest

import gfix
from gfix import analysis, cli, core, mann
from gfix.core import Rows

ITERATE = ["iterate", "--space", "perimeter-3", "--mapping", "affine:k=0.5",
           "--schedule", "harmonic", "--x0", "1,2,3", "--max-iters", "40"]
BOUNDS = ["--condition", "four-term", "--coeff", "a=0.5,b=0,c=0,d=0"]
# a=b=0 gives delta 0, so the alpha 1 of step 3 makes a zero factor; the
# residual 2|x| falls to 0.25 <= 0.3 at x_3, so that step is never taken
PAST_STOP = ["iterate", "--space", "perimeter-1", "--mapping", "affine:k=0",
             "--schedule", "explicit:0.5;0.5;0.5;1;0.5", "--x0", "1",
             "--residual-tol", "0.3", "--condition", "four-term",
             "--coeff", "a=0,b=0,c=0,d=0"]
# delta 0 again: the alpha 1 of step 30 makes a zero factor, after the
# writer has covered blocks, and the chain multiplies on; x_31 = 0 stops
LATE_LOG = ["iterate", "--space", "perimeter-1", "--mapping", "affine:k=0",
            "--schedule", "explicit:" + ";".join(["0.3"] * 30 + ["1", "0.3"]),
            "--x0", "1", "--max-iters", "40", "--condition", "four-term",
            "--coeff", "a=0,b=0,c=0,d=0"]
# T = 0 at alpha 0.5 halves x_n, as fast as any delta's bound allows;
# four-term with b = c = d = 0 has delta a
TINY = ["iterate", "--space", "perimeter-3", "--mapping", "affine:k=0",
        "--x0", "1,2,3", "--max-iters", "40"]


def four_term(a):
    return ["--condition", "four-term", "--coeff", f"a={a!r},b=0,c=0,d=0"]


def explicit(*runs):
    """An explicit schedule of (alpha, count) runs."""
    return "explicit:" + ";".join(";".join([a] * n) for a, n in runs)


# delta 7e-9 and alpha 1 - 1e-9 at step 16 give a factor below 1e-8 that
# leaves B far above underflow: the first factor of a 16-row block, and
# every row its own block at a block of 1 or 7 values (perimeter-1 rows
# are 4 wide), where a chain that picked its mode per block would sum
# logs; residual-tol 0 keeps the run going after it
BOUNDARY = ["iterate", "--space", "perimeter-1", "--mapping", "affine:k=0",
            "--schedule", explicit(("0.3", 16), ("0.999999999", 1),
                                   ("0.3", 23)),
            "--x0", "1", "--max-iters", "40", "--residual-tol", "0",
            *four_term(7e-9)]
# the alpha 1 of the last recorded row, x_30, is never stepped, so only
# the writer's chain meets its factor below 1e-8, in its last block
LAST_ROW = LATE_LOG[:6] + [explicit(("0.3", 30), ("1", 1)), "--x0", "1",
                           "--max-iters", "30", *four_term(7e-9)]
# 0.1 a step: B_n underflows to 0 at n = 324, then the alpha 1 of step
# 400 makes a factor below 1e-8; x_0 = 1e100 keeps x_n above underflow
UNDERFLOW = explicit(("0.9", 400), ("1", 1))
# delta 0 and alpha 1 - 5e-9 make the first factor 5e-9, so the chain
# sums logs throughout, in the writer's blocks too; T = 0 makes e_n
# B_n e_0 in real arithmetic, and x_n stays far above underflow
FIRST_TINY = LATE_LOG[:6] + [explicit(("0.999999995", 1), ("0.3", 39)),
                             "--x0", "1", "--max-iters", "40",
                             "--residual-tol", "0", *four_term(0.0)]


# 1 - (1 - delta) just below and just above 1e-8: every 1 - c near 1e-8
# is a multiple of 2**-53, and 1e-8 * 2**53 is 90071992.5...
BELOW, ABOVE = 90071992 * 2.0 ** -53, 90071993 * 2.0 ** -53

CASES = {
    "iterate": (ITERATE + BOUNDS, 0),
    "iterate-no-bound": (ITERATE, 0),
    "iterate-diverges": (["iterate", "--space", "perimeter-1", "--mapping",
                          "affine:k=2", "--schedule", "constant", "--alpha",
                          "1", "--x0", "1", "--max-iters", "5000"], 1),
    "bound": (["bound", "--delta", "0.3", "--schedule", "harmonic",
               "--max-iters", "41"], 0),
    "bound-log-space": (["bound", "--delta", "1e-10", "--schedule",
                         "harmonic", "--max-iters", "41"], 0),
    "bound-zero-factor": (["bound", "--delta", "0", "--schedule", "constant",
                           "--alpha", "1", "--max-iters", "41"], 0),
    "explicit-past-stop": (PAST_STOP, 0),
    "explicit-late-log-space": (LATE_LOG, 0),
    # delta 7e-9: the factor below 1e-8 of the alpha 1 of step 30 comes
    # after the writer has covered blocks, and the chain multiplies on
    "explicit-tiny-delta-late-log-space": (LATE_LOG[:-1] + [
        "a=7e-9,b=0,c=0,d=0"], 0),
    "iterate-tiny-delta-stays-linear": (TINY + four_term(1e-10), 0),
    "explicit-switch-on-a-block-boundary": (BOUNDARY, 0),
    "explicit-switch-at-the-last-row": (LAST_ROW, 0),
    "bound-underflow-before-late-log-space": (
        ["bound", "--delta", "1e-10", "--schedule", UNDERFLOW,
         "--max-iters", "401"], 0),
    "iterate-underflow-before-late-log-space": (
        LATE_LOG[:6] + [UNDERFLOW, "--x0", "1e100", "--max-iters", "401",
                        "--residual-tol", "0", *four_term(1e-10)], 0),
    "explicit-log-space-from-the-first-factor": (FIRST_TINY, 0),
}


@pytest.fixture
def spills(monkeypatch, tmp_path):
    """Temporary files go to an empty folder; list the files made."""
    made = []
    folder = tmp_path / "spill"
    folder.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(folder))
    real = tempfile.TemporaryFile

    def temporary_file(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]
    monkeypatch.setattr(tempfile, "TemporaryFile", temporary_file)
    yield made
    assert os.listdir(folder) == []


def run(monkeypatch, capsys, tmp_path, args, cpus, block=None):
    """(exit code, --out bytes, stdout) with ``cpus`` CPUs and, when
    given, ``block`` values a store keeps in memory."""
    monkeypatch.setattr(core, "_cpus", lambda: cpus)
    if block is not None:
        monkeypatch.setattr(core, "_BLOCK_VALUES", block)
    out = tmp_path / "out.csv"
    code = cli.main([*args, "--out", str(out)])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return code, out.read_bytes(), capsys.readouterr().out


@pytest.mark.parametrize("args, code", CASES.values(), ids=CASES.keys())
def test_every_block_and_range_count_writes_the_same_bytes(
        args, code, spills, monkeypatch, capsys, tmp_path):
    one = run(monkeypatch, capsys, tmp_path, args, 1)
    assert one[0] == code and spills == []  # less than a block: no file
    monkeypatch.setattr(cli, "MIN_ROWS", 1)
    for block in (1, 7, 64):
        for cpus in (1, 2, 3):
            assert run(monkeypatch, capsys, tmp_path, args, cpus,
                       block) == one
    assert spills and all(f.closed for f in spills)


@pytest.fixture
def forks(monkeypatch):
    """The forks made while the test runs."""
    made = []
    real = os.fork
    monkeypatch.setattr(os, "fork", lambda: made.append(1) or real())
    return made


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_an_iterate_forks_one_writer_at_most(cpus, forks, monkeypatch,
                                             capsys, tmp_path):
    # every row spills, and the few rows a block leaves need no range
    code, _, _ = run(monkeypatch, capsys, tmp_path, ITERATE + BOUNDS, cpus, 7)
    assert code == 0 and len(forks) == (cpus > 1)


# one writer whatever delta is, 0 and below 1e-8 too
@pytest.mark.parametrize("delta", [0.5, 0.0, BELOW])
def test_a_writer_forks_for_every_delta(delta, forks, monkeypatch, capsys,
                                        tmp_path):
    code, _, _ = run(monkeypatch, capsys, tmp_path, TINY + four_term(delta),
                     2, 7)
    assert code == 0 and len(forks) == 1


@pytest.mark.parametrize("delta, linear", [(BELOW, False), (ABOVE, True)])
def test_the_first_factor_picks_the_mode_at_its_boundary(delta, linear):
    assert 1.0 - (1.0 - delta) == delta and (delta < 1e-8) is not linear
    # alpha 1 gives the factor delta: B_1 is delta only in linear space
    rows = analysis._rate_chain(delta, lambda: iter([1.0, 0.5]))
    assert (rows.column(2)[1] == delta) is linear
    # after a first factor near 1/2, the factor delta of step 1 multiplies
    rows = analysis._rate_chain(delta, lambda: iter([0.5, 1.0, 0.5]))
    factors, products = rows.column(1), rows.column(2)
    assert factors[1] == delta and products[2] == factors[0] * delta


# the writer carries the chain's state from block to block, so it covers
# a chain in log space, or one that meets a factor below 1e-8 late
@pytest.mark.parametrize("case", [
    "iterate", "iterate-no-bound", "explicit-late-log-space",
    "explicit-switch-on-a-block-boundary", "explicit-switch-at-the-last-row",
    "iterate-underflow-before-late-log-space",
    "explicit-log-space-from-the-first-factor"])
@pytest.mark.parametrize("block", [7, 64])
def test_the_writer_text_is_used_after_log_space(
        case, block, monkeypatch, capsys, tmp_path):
    kinds = []
    real = cli._write_lines
    monkeypatch.setattr(cli, "_write_lines", lambda path, lines: kinds.append(
        type(lines)) or real(path, lines))
    assert run(monkeypatch, capsys, tmp_path, CASES[case][0], 2, block)[0] == 0
    assert kinds[0] is cli._Written


class PoisonedRows:
    """Row numbers that raise at row ``n``, sliced as a CSV range reads
    them: in any process and any block, the same row fails."""

    def __init__(self, rows, n):
        self.rows, self.n = rows, n

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, rows):
        return PoisonedRows(self.rows[rows], self.n)

    def __iter__(self):
        for row in self.rows:
            if row == self.n:
                raise ValueError(f"poisoned row {row}")
            yield row


def fail_in_run(monkeypatch, error, *args):
    """``error(*args)`` raised by the overflow test of step 20, after the
    writer forks; a new one each time, so the test holds no traceback."""
    calls = []

    def overflowed(p):
        if len(calls) == 20:
            raise error(*args)
        calls.append(p)
        return False
    monkeypatch.setattr(mann, "_overflowed", overflowed)


def poison_row_30(monkeypatch):
    csv = cli._csv
    monkeypatch.setattr(cli, "_csv", lambda head, template, columns: csv(
        head, template, (PoisonedRows(columns[0], 30), *columns[1:])))


@pytest.mark.parametrize("path, code, error", [
    ("success", 0, ""),
    ("diverges", 1, ""),
    ("error-in-run", 2, "error: stop at step 20\n"),
    ("error-in-a-row", 2, "error: poisoned row 30\n"),
])
@pytest.mark.parametrize("cpus", [1, 2])
def test_every_path_closes_its_files_and_reaps_the_writer(
        path, code, error, cpus, spills, monkeypatch, capsys, tmp_path):
    args = (CASES["iterate-diverges"][0] if path == "diverges"
            else ITERATE + BOUNDS)
    if path == "error-in-run":
        fail_in_run(monkeypatch, ValueError, "stop at step 20")
    if path == "error-in-a-row":
        poison_row_30(monkeypatch)
    monkeypatch.setattr(core, "_cpus", lambda: cpus)
    monkeypatch.setattr(core, "_BLOCK_VALUES", 7)
    assert cli.main([*args, "--out", str(tmp_path / "t.csv")]) == code
    assert capsys.readouterr().err == error
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert spills and all(f.closed for f in spills)


def test_a_dead_writer_exits_two(spills, forks, monkeypatch, capsys,
                                 tmp_path):
    # the forked writer kills itself at its first text, so it exits by a
    # signal; the command writes no file, and its summary never prints
    parent, pieces = os.getpid(), cli._pieces

    def killed(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return pieces(*args)
    monkeypatch.setattr(cli, "_pieces", killed)
    monkeypatch.setattr(core, "_cpus", lambda: 2)
    monkeypatch.setattr(core, "_BLOCK_VALUES", 7)
    out = tmp_path / "t.csv"
    assert cli.main([*ITERATE, *BOUNDS, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: the forked CSV writer "
                                   "failed\n")
    assert len(forks) == 1 and not out.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert spills and all(f.closed for f in spills)


def test_an_interrupted_run_closes_its_files_and_reaps_the_writer(
        spills, forks, monkeypatch, tmp_path):
    fail_in_run(monkeypatch, KeyboardInterrupt)
    monkeypatch.setattr(core, "_cpus", lambda: 2)
    monkeypatch.setattr(core, "_BLOCK_VALUES", 7)
    with pytest.raises(KeyboardInterrupt) as interrupt:
        cli.main([*ITERATE, *BOUNDS, "--out", str(tmp_path / "t.csv")])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    del interrupt  # its traceback holds the run's row store
    gc.collect()
    assert len(forks) == 1 and all(f.closed for f in spills)


def reference_chain(delta, alphas):
    """Factors and products in whole arrays, one factor at a time: exp of
    a sum of logs from 0, -inf from a zero factor on, where the first
    factor is below 1e-8, else linear throughout.  Where no later factor
    is below 1e-8, these are the arrays the array-based chain built."""
    alphas = array("d", alphas)
    factors = array("d", (1.0 - a * (1.0 - delta) for a in alphas))
    products = array("d", [1.0])
    log_b = 0.0 if factors and factors[0] < 1e-8 else None
    for f in factors:
        if log_b is None:
            products.append(products[-1] * f)
        else:
            log_b = log_b + math.log(f) if f else -math.inf
            products.append(math.exp(log_b))
    return alphas, factors, products


RUNS = {
    "harmonic": (0.5, gfix.harmonic_schedule(), 0.0, 300),
    "constant-one": (0.0, gfix.constant_schedule(1.0), 0.0, 300),
    # |x_n - c| = 0.75^n |x_0 - c| first falls to 3 or less at x_3, so
    # the alpha 1 that would make a zero factor is recorded, not used
    "explicit-past-stop": (0.0, gfix.explicit_schedule(
        [0.5, 0.5, 0.5, 1.0, 0.5]), 3.0, 5),
}


@pytest.mark.parametrize("block", [1, 7, core._BLOCK_VALUES])
@pytest.mark.parametrize("delta, sched, residual_tol, steps", RUNS.values(),
                         ids=RUNS.keys())
def test_library_columns_equal_the_old_arrays(
        delta, sched, residual_tol, steps, block, monkeypatch):
    monkeypatch.setattr(core, "_BLOCK_VALUES", block)
    space = gfix.get_space("perimeter-2")
    T = gfix.make_affine_contraction((1.0, -2.0), 0.5)
    trace = gfix.run_mann(space, T, (3.0, 4.0), sched, gfix.StoppingRule(
        max_iters=steps, residual_tol=residual_tol))
    points = [(3.0, 4.0)]
    for alpha in trace.alphas[:-1]:
        x = points[-1]
        tx = T.apply(x)
        points.append(space.w.blend(x, tx, 1.0 - alpha))
    g = space.space.g
    assert [array("d", c) for c in zip(*trace.points)] == [
        array("d", c) for c in zip(*points)]
    assert array("d", trace.residuals) == array(
        "d", (g(p, T.apply(p), T.apply(p)) for p in points))
    assert array("d", trace.true_errors) == array(
        "d", (g(p, (1.0, -2.0), (1.0, -2.0)) for p in points))

    _, _, products = reference_chain(delta, trace.alphas[:len(trace) - 1])
    bounds = array("d", (b * trace.true_errors[0] for b in products))
    report = gfix.verify_bound(trace, delta)
    assert array("d", gfix.trace_products(trace, delta)) == products
    assert array("d", report.bounds) == bounds
    assert array("d", report.slacks) == array(
        "d", map(operator.sub, bounds, trace.true_errors))

    n = len(trace) - 1 if sched.limit else steps
    rb = gfix.product_bound(delta, sched, n)
    old = reference_chain(delta, map(sched.alpha_at, range(n)))
    assert (array("d", rb.alphas), array("d", rb.factors),
            array("d", rb.products)) == old


# the factor 1 - 1.0*(1 - delta) of row 3000 is below 1e-8 for delta
# 1e-10 and 0, after two whole chunks and mid-way through the third, and
# the chain multiplies on
MID_CHAIN = [0.3] * 3000 + [1.0] + [0.2] * 2000


@pytest.mark.parametrize("delta", [1e-10, 0.0, 0.5])
def test_a_chain_switched_mid_way_equals_its_reference(delta):
    alphas, factors, products = reference_chain(delta, MID_CHAIN)
    rb = gfix.product_bound(delta, gfix.explicit_schedule(MID_CHAIN),
                            len(MID_CHAIN))
    assert (array("d", rb.alphas), array("d", rb.factors),
            array("d", rb.products)) == (alphas, factors, products)
    rows = analysis._rate_chain(delta, lambda: iter(MID_CHAIN))
    assert rows.width == 3
    assert array("d", rows.column(2)) == products
    # a trace of these step sizes: its bound and slack views over the chain
    errors = [0.5 ** (n % 7) for n in range(len(MID_CHAIN) + 1)]
    report = gfix.verify_bound(mann.IterationTrace(
        gfix.make_perimeter_space(1), MID_CHAIN + [0.5], errors, errors,
        "max-iters"), delta)
    bounds = array("d", (b * errors[0] for b in products))
    assert array("d", report.bounds) == bounds
    assert array("d", report.slacks) == array(
        "d", map(operator.sub, bounds, errors))


# the alpha 1 of step 30 gives a factor below 1e-8 that leaves B far above
# underflow at delta 5e-9 and 1e-10, and the chain multiplies on; after 324
# steps of 0.9, B is 0 first; an alpha 1 first makes the chain sum logs
# throughout, to -inf after the zero factors of delta 0
SWITCH = [0.3] * 30 + [1.0] + [0.2] * 20


@pytest.mark.parametrize("delta, alphas", [
    (5e-9, SWITCH), (1e-10, SWITCH), (1e-10, [0.9] * 400 + [1.0, 0.5]),
    (1e-10, [1.0] + SWITCH), (0.0, [1.0] + SWITCH)],
    ids=["switch-5e-9", "switch-1e-10", "underflow-first", "log-space",
         "log-space-zero-factor"])
def test_a_chain_in_blocks_equals_one_piece(delta, alphas):
    whole = analysis._chain(alphas, delta)
    _, factors, products = reference_chain(delta, alphas)
    assert whole[:2] == (factors, products[:-1])
    assert whole[2][0] == products[-1]
    # a factor below 1e-8 is the first or the last factor of a block of 1,
    # 2, 30 or 31, and inside one of 7 or 64
    for size in (1, 2, 7, 30, 31, 64):
        state, factors, products = None, array("d"), array("d")
        for at in range(0, len(alphas), size):
            f, p, state = analysis._chain(alphas[at:at + size], delta, state)
            factors += f
            products += p
        assert (factors, products, state) == whole


# the factor 1e-10 of step 0 sends the chain to log space, where it
# stays, with no second read
@pytest.mark.parametrize("delta, log_space", [(0.5, False), (1e-10, True)])
def test_a_chain_reads_its_step_sizes_once_unless_it_restarts(delta,
                                                              log_space):
    calls, n = [], 5000
    sched = mann.StepSchedule("harmonic", lambda k: calls.append(k) or
                              1.0 / (k + 1), True)
    rb = gfix.product_bound(delta, sched, n)
    assert len(rb.products) == n + 1 and calls == list(range(n))
    assert (rb.products[1] != rb.factors[0]) is log_space


def spy_reads(monkeypatch):
    """A list that gains (file, start, stop) for every ``core._pread``."""
    reads = []
    real = core._pread
    monkeypatch.setattr(core, "_pread", lambda *a: reads.append(a) or real(*a))
    return reads


def store_file(trace, reads):
    """The file of ``trace``'s row store: the one that reading
    ``trace.alphas[0]`` preads, a spilled row; ``reads`` is then cleared."""
    trace.alphas[0]
    (file, _, _), = reads
    reads.clear()
    return file


def test_columns_read_as_a_sequence(monkeypatch):
    monkeypatch.setattr(core, "_BLOCK_VALUES", 9)
    rows = Rows(3)
    rows.add(float(v) for i in range(10) for v in (i, 10 + i, 20 + i))
    assert rows.spilled == 27 and len(rows.tail) == 3 and len(rows) == 10
    reads = spy_reads(monkeypatch)
    middle, part = rows.column(1), rows.column(2)[2:9]
    assert len(middle) == 10 and len(part) == 7 and reads == []
    assert list(middle) == [float(v) for v in range(10, 20)]
    assert middle[0] == 10.0 and middle[-1] == 19.0 and middle[3] == 13.0
    assert part[0] == 22.0 and part[-1] == 28.0
    assert list(part[2:6]) == [24.0, 25.0, 26.0, 27.0]
    assert list(middle[::-3]) == [19.0, 16.0, 13.0, 10.0]
    assert middle[4:4:1] == rows.column(1)[4:][:0]
    reads.clear()
    assert list(middle[5:7]) == [15.0, 16.0]  # values 15..20, two blocks
    assert [(start, stop) for _, start, stop in reads] == [(15, 18), (18, 21)]
    reads.clear()
    assert middle[4] == 14.0 and middle[-8] == 12.0  # an index reads its row
    assert [(start, stop) for _, start, stop in reads] == [(12, 15), (6, 9)]
    assert 17.0 in middle
    assert middle == rows.column(1) and middle != rows.column(2)
    assert middle != array("d", middle)
    for i in (10, -11):
        with pytest.raises(IndexError):
            middle[i]


@pytest.fixture(scope="module")
def long_trace():
    """A 1e5-step run of width 4: 12 blocks of 8192 rows spilled."""
    return gfix.run_mann(
        gfix.make_perimeter_space(1), gfix.make_affine_contraction((0.0,), 0.5),
        (1.0,), gfix.harmonic_schedule(),
        gfix.StoppingRule(max_iters=100000, residual_tol=0.0))


def test_a_pass_reads_each_block_once(long_trace, monkeypatch):
    trace, errors = long_trace, long_trace.true_errors
    reads = spy_reads(monkeypatch)
    file = store_file(trace, reads)
    # 12 blocks spilled: a block is 8192 rows of width 4
    assert len(errors) == 100001
    assert os.fstat(file.fileno()).st_size == 12 * 8 * core._BLOCK_VALUES
    values = list(errors)
    assert len(reads) == 12
    assert list(errors[5000:]) == values[5000:] and len(reads) == 24
    reads.clear()
    # an index reads its own row; the last row is still in memory
    assert [errors[n] for n in (0, 5000, -1)] == [values[0], values[5000],
                                                  values[-1]]
    assert [(start, stop) for _, start, stop in reads] == [
        (0, 4), (20000, 20004)]


# delta 0.5 stays linear; delta 0 meets the zero factor 1 - 1.0 at step
# 0, so the chain goes to log space there
@pytest.mark.parametrize("delta", [0.5, 0.0], ids=["linear", "log-space"])
def test_a_bound_reads_the_first_error_once(long_trace, delta, monkeypatch):
    trace = long_trace
    reads = spy_reads(monkeypatch)
    file = store_file(trace, reads)
    report = gfix.verify_bound(trace, delta)
    assert len(report.slacks) == len(trace)
    # row 0, 4 values wide, alone is read for errors[0], once in all: the
    # chain holds no errors, and the bound and slack views read theirs by
    # whole blocks
    assert reads.count((file, 0, 4)) == 1


def test_a_bound_reads_each_store_about_once_a_pass(long_trace, monkeypatch):
    # the trace's 12 spilled blocks: a pass for the alphas, two for the
    # slacks' errors (the NaN test and the minimum) and row 0 for e_0;
    # the chain's 9: two passes over B_n; the rows in memory read none
    trace = long_trace
    reads = spy_reads(monkeypatch)
    file = store_file(trace, reads)
    report = gfix.verify_bound(trace, 0.5)
    assert report.holds
    files = [f for f, _, _ in reads]
    assert files.count(file) <= 40
    assert len(files) - files.count(file) <= 20


def test_points_read_each_block_once(monkeypatch):
    # 53 values a row, 10 rows a block: 100 rows spill 10 blocks, and a
    # per-coordinate read would pread each block once per coordinate
    monkeypatch.setattr(core, "_BLOCK_VALUES", 530)
    center = tuple(float(j) for j in range(50))
    trace = gfix.run_mann(
        gfix.get_space("perimeter-50"),
        gfix.make_affine_contraction(center, 0.5), (0.0,) * 50,
        gfix.constant_schedule(0.5),
        gfix.StoppingRule(max_iters=99, residual_tol=0.0))
    reads = spy_reads(monkeypatch)
    file = store_file(trace, reads)
    assert len(trace) == 100  # all 100 rows spilled
    assert os.fstat(file.fileno()).st_size == 8 * 53 * 100
    points = tuple(trace.points)
    assert [(start, stop) for _, start, stop in reads] == [
        (530 * n, 530 * (n + 1)) for n in range(10)]
    assert len(points) == 100 and points[0] == (0.0,) * 50
    assert points[1] == tuple(0.25 * c for c in center)
    reads.clear()
    assert tuple(trace.points[-25:]) == points[75:]
    assert [(start, stop) for _, start, stop in reads] == [
        (53 * 75, 530 * 8), (530 * 8, 530 * 9), (530 * 9, 530 * 10)]


def test_a_platform_without_pread_reads_the_same_rows(
        monkeypatch, capsys, tmp_path):
    # where os.pread is missing, so is os.fork: _pread seeks and reads
    args = ITERATE[:-1] + ["500"]
    both = run(monkeypatch, capsys, tmp_path, args, 2, 7)
    monkeypatch.delattr(os, "pread")
    monkeypatch.delattr(os, "fork")
    assert run(monkeypatch, capsys, tmp_path, args, 2, 7) == both
    assert both[0] == 0


def test_a_failed_fork_exits_two_and_closes_its_files(
        spills, monkeypatch, capsys, tmp_path):
    def fork():
        raise OSError(11, "Resource temporarily unavailable")
    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(core, "_cpus", lambda: 2)
    monkeypatch.setattr(core, "_BLOCK_VALUES", 7)
    code = cli.main([*ITERATE, *BOUNDS, "--out", str(tmp_path / "t.csv")])
    assert code == 2 and capsys.readouterr().err == (
        "error: [Errno 11] Resource temporarily unavailable\n")
    # the store's file and the one the writer's Worker opened
    assert len(spills) == 2 and all(f.closed for f in spills)


def test_spill_error_exits_two(monkeypatch, capsys, tmp_path):
    def full(*args, **kwargs):
        raise OSError(28, "No space left on device")
    monkeypatch.setattr(tempfile, "TemporaryFile", full)
    monkeypatch.setattr(core, "_BLOCK_VALUES", 7)
    code = cli.main([*ITERATE, *BOUNDS, "--out", str(tmp_path / "t.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: [Errno 28] No space left on device\n"
