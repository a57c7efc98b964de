"""Sampled checks split into witness ranges evaluated by forked workers.

``core.evaluate`` splits a check's witness tuples into k contiguous
ranges, k = max(1, min(usable CPUs, tuples // MIN_TUPLES)), through
``core.forked_ranges``.  These tests force k by replacing the CPU count
(``core._cpus``) and ``core.MIN_TUPLES``, and check that every k gives
the same report, exit code and error line as one range, and that no
child process is left behind.
"""

import dataclasses
import math
import os
import signal
import time

import pytest

import gfix
from gfix import cli, core, spaces
from gfix.core import sample_quads

MIN_TUPLES = 100  # small enough that a few hundred samples make three ranges

FOUR_TERM = ["--condition", "four-term", "--coeff", "a=0.5,b=0,c=0,d=0"]


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Force MIN_TUPLES; count the forks made while the test runs."""
    monkeypatch.setattr(core, "MIN_TUPLES", MIN_TUPLES)
    made = []
    real = os.fork

    def fork():
        made.append(1)
        return real()
    monkeypatch.setattr(os, "fork", fork)
    return made


def run(monkeypatch, capsys, args, cpus):
    """(exit code, stdout, stderr) of ``args`` with ``cpus`` CPUs."""
    monkeypatch.setattr(core, "_cpus", lambda: cpus)
    code = cli.main(args)
    assert_no_children()
    out = capsys.readouterr()
    return code, out.out, out.err


def each_range_count(forks, monkeypatch, capsys, args):
    """The result of ``args`` in one range, after checking that two and
    three ranges give the same one and fork once per extra range."""
    one = run(monkeypatch, capsys, args, 1)
    assert forks == []
    for cpus in (2, 3):
        forks.clear()
        assert run(monkeypatch, capsys, args, cpus) == one
        assert len(forks) == cpus - 1
    return one


@pytest.mark.parametrize("args, code", [
    (["check-axioms", "--space", "perimeter-3"], 0),
    # min-separation 1 makes the sampler reject about one draw in ten
    (["check-axioms", "--space", "sign-example", "--min-separation", "1"], 0),
    (["check-derived", "--space", "perimeter-3"], 0),
    # each tuple's weight is drawn after its points
    (["check-convexity", "--space", "max-2"], 0),
    (["check-condition", "--space", "perimeter-2", "--mapping", "affine:k=0.3",
      *FOUR_TERM], 0),
    (["check-condition", "--space", "perimeter-2", "--mapping", "affine:k=2",
      *FOUR_TERM], 1),
])
def test_every_range_count_gives_the_same_report(
        args, code, forks, monkeypatch, capsys):
    one = each_range_count(forks, monkeypatch, capsys,
                           [*args, "--samples", "400"])
    assert one[0] == code and one[2] == ""
    assert "total_checks: " in one[1]
    if code:
        assert one[1].count("\nviolation: ") == 10
        assert "\nworst_ratio: " in one[1]


def test_no_fork_means_one_range(forks, monkeypatch, capsys):
    args = ["check-axioms", "--space", "perimeter-3", "--samples", "400"]
    one = run(monkeypatch, capsys, args, 1)
    monkeypatch.delattr(os, "fork")
    assert run(monkeypatch, capsys, args, 3) == one


def library_reports(forks, monkeypatch, check):
    """repr of ``check()``'s report for one, two and three ranges: equal
    reports with a NaN in them still compare unequal."""
    reports = []
    for cpus in (1, 2, 3):
        forks.clear()
        monkeypatch.setattr(core, "_cpus", lambda: cpus)
        reports.append(check())
        assert len(forks) == cpus - 1
        assert_no_children()
    assert len({repr(r) for r in reports}) == 1
    return reports[0]


def test_tied_margins_keep_the_order_first_seen(forks, monkeypatch):
    # G = 0 fails strict positivity by exactly STRICT_FLOOR at every
    # pair checked; a wide separation makes those pairs rare, so the ten
    # kept are spread over every range
    space = dataclasses.replace(gfix.get_space("perimeter-1").space,
                                g=lambda x, y, z: 0.0)
    plan = gfix.SamplePlan(seed=0, count=600, min_separation=17.0)
    report = library_reports(
        forks, monkeypatch, lambda: gfix.check_axioms(space, plan))
    quads = list(sample_quads(space, plan))
    tied = [i for i, q in enumerate(quads) if math.dist(q[0], q[1]) >= 17.0]
    assert tied[0] < len(quads) // 3 <= tied[9]  # range 0 of three ends
    assert report.violation_count == len(tied) > 10
    assert ([v.witness for v in report.violations]
            == [quads[i][:2] for i in tied[:10]])
    assert {v.margin for v in report.violations} == {core.STRICT_FLOOR}


def test_non_finite_values_past_range_zero(forks, monkeypatch):
    base = gfix.get_space("perimeter-1").space
    plan = gfix.SamplePlan(seed=0, count=300)
    quads = list(sample_quads(base, plan))
    # 358 tuples: range 0 ends at 179 in two ranges and at 119 in three
    inf_points = {quads[190][0], quads[280][0]}
    nan_point = quads[230][0]

    def g(x, y, z):
        if inf_points.intersection((x, y, z)):
            return math.inf
        if nan_point in (x, y, z):
            return math.nan
        return base.g(x, y, z)

    space = dataclasses.replace(base, g=g)
    report = library_reports(
        forks, monkeypatch, lambda: gfix.check_axioms(space, plan))
    # an inf comes first; the NaN after it stays through the later inf
    assert math.isnan(report.worst_margin) and not report.passed
    assert all(v.check_id.endswith(":non-finite")
               for v in report.violations)
    assert report.violations[0].witness[0] == quads[190][0]


@pytest.mark.parametrize("args", [
    ["check-axioms", "--space", "perimeter-3"],
    ["check-condition", "--space", "perimeter-2", "--mapping", "affine:k=2",
     *FOUR_TERM]])
def test_a_worker_sends_no_witness_of_a_passing_row(
        args, forks, monkeypatch, capsys):
    # record reads the witness of a failing row only; this process still
    # records every row, passing ones with None for their witness
    seen = []
    record = core.Collector.record

    def spy(self, check_id, witness, lhs, rhs, margin):
        seen.append((witness is None, -math.inf < margin <= 0.0))
        record(self, check_id, witness, lhs, rhs, margin)
    monkeypatch.setattr(core.Collector, "record", spy)
    one = run(monkeypatch, capsys, [*args, "--samples", "400"], 1)
    assert not any(none for none, _ in seen)
    seen.clear()
    assert run(monkeypatch, capsys, [*args, "--samples", "400"], 2) == one
    assert f"total_checks: {len(seen)}\n" in one[1]
    assert {passing for none, passing in seen if none} == {True}
    assert not any(none for none, passing in seen if not passing)


def offset_to_zero(space_key: str, index: int, samples: int) -> str:
    """A translation that sends the first point of check-condition's
    witness ``index`` to 0, outside sign-example's domain, and no other
    sampled point there."""
    space = spaces.get_space(space_key)
    quads = list(sample_quads(space, gfix.SamplePlan(seed=0, count=samples),
                              3))
    return f"translation:offset={-quads[index][0][0]!r}"


# 336 witness tuples: range 0 ends at 168 in two ranges and 112 in three
@pytest.mark.parametrize("index", [200, 5], ids=["in-worker", "in-parent"])
def test_domain_error_is_the_one_a_single_range_raises(
        index, forks, monkeypatch, capsys):
    args = ["check-condition", "--space", "sign-example", "--mapping",
            offset_to_zero("sign-example", index, 300), "--condition",
            "k-sum", "--coeff", "k=0.3", "--samples", "300"]
    code, out, err = each_range_count(forks, monkeypatch, capsys, args)
    assert code == 2 and out == ""
    assert err.startswith("error: translation maps (") and err.count("\n") == 1


def test_draw_error_is_the_one_a_single_range_raises(monkeypatch, capsys):
    # no point of (-10, 10) lies 20 away from 0: every draw is rejected
    args = ["check-axioms", "--space", "sign-example", "--min-separation",
            "20", "--samples", "10000"]
    one = run(monkeypatch, capsys, args, 1)
    assert one[0] == 2 and one[2].startswith("error: no point of (")
    for cpus in (2, 3):
        assert run(monkeypatch, capsys, args, cpus) == one


def test_unsendable_rows_are_evaluated_here(forks, monkeypatch):
    # marshal takes no float subclass, so the worker stops at the first
    # such value and this process evaluates the rest of its range
    class Real(float):
        pass

    base = gfix.get_space("perimeter-1").space
    plan = gfix.SamplePlan(seed=0, count=300)
    odd = next(sample_quads(base, plan).make(200, 201))[0]
    space = dataclasses.replace(base, g=lambda x, y, z: Real(
        base.g(x, y, z)) if odd in (x, y, z) else base.g(x, y, z))
    library_reports(forks, monkeypatch, lambda: gfix.check_axioms(space, plan))


def test_error_in_range_zero_stops_the_workers(forks, monkeypatch):
    # each worker first waits 20 s; the error at witness 5 ends them
    sign = spaces.make_sign_example_space()
    parent, waited = os.getpid(), []

    def g(x, y, z):
        if os.getpid() != parent and not waited:
            waited.append(time.sleep(20))
        return sign.g(x, y, z)

    space = dataclasses.replace(sign, g=g)
    mapping = cli.parse_mapping(offset_to_zero("sign-example", 5, 300), 1)
    spec = cli.parse_condition("k-sum", "k=0.3")
    monkeypatch.setattr(core, "_cpus", lambda: 3)
    start = time.monotonic()
    with pytest.raises(core.DomainError, match="^translation maps"):
        gfix.check_condition(spec, space, mapping,
                             gfix.SamplePlan(seed=0, count=300))
    assert len(forks) == 2 and time.monotonic() - start < 10
    assert_no_children()


def test_dead_worker_exits_two(forks, monkeypatch, capsys):
    base = gfix.get_space("perimeter-3")
    parent = os.getpid()

    def g(x, y, z):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return base.space.g(x, y, z)

    space = dataclasses.replace(base.space, g=g)
    monkeypatch.setattr(spaces, "get_space", lambda key: space)
    code, out, err = run(monkeypatch, capsys, [
        "check-axioms", "--space", "perimeter-3", "--samples", "400"], 2)
    assert code == 2 and out == "" and len(forks) == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "worker" in err


def test_a_range_draws_only_its_own_tuples():
    draws = []
    perimeter = gfix.get_space("perimeter-2").space

    def draw(stream, box, min_separation):
        draws.append(1)
        return perimeter.draw(stream, box, min_separation)

    space = dataclasses.replace(perimeter, draw=draw)
    quads = sample_quads(space, gfix.SamplePlan(seed=4, count=50))
    whole = list(quads)
    size = len(whole)
    for start, stop in [(0, 0), (0, 7), (13, 50), (45, 60), (50, size),
                        (size - 3, size), (0, size)]:
        draws.clear()
        assert list(quads.make(start, stop)) == whole[start:stop]
        assert len(draws) == 4 * max(min(stop, 50) - start, 0)
