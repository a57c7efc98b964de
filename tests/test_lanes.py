"""Witness tuples drawn a range at a time.

``rng.lanes`` runs the splitmix64 streams of an index range side by side,
one state per 128-bit lane of one Python int, and ``core.sample_tuples``
uses it where a space's draw is ``core.box_draw`` or the sign example's
rejection draw ``core.nonzero_draw``, whose lanes keep their first
accepted values and fall back to a stream for a tuple they leave short.
Any other draw, including a wrapped ``box_draw`` or ``nonzero_draw``,
takes one ``Stream`` per tuple and one draw call per point; these tests
hold the two paths to the same tuples and the same errors.
"""

import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gfix
from gfix import core
from gfix.core import sample_tuples
from gfix.rng import Stream, lanes

SIGN = gfix.make_sign_example_space()
BOUNDS = [(-10.0, 10.0), (0.0, 1.0), (-1000.0, 5.0)]
# Stream(seed, i).uniform over BOUNDS for i = 3..6
EXPECTED = {
    2**64 + 5: [
        (0.1810927874579633, 0.1052649209922869, -464.6554185300115),
        (3.2407200316332503, 0.8880816934884296, -198.21966454399399),
        (9.009949284321348, 0.7328403650264448, -75.27285785462334),
        (2.7688418098492757, 0.5248540725060432, -539.6979522953563)],
    -3: [
        (9.777779309960472, 0.8537347022748929, -796.5188859860575),
        (-5.458147061445162, 0.8455562526473421, -867.0710999967735),
        (-4.422498065266415, 0.3936425144008957, -827.0399095960523),
        (7.563618119992878, 0.49964347380954965, -96.42750484648843)],
}


@pytest.mark.parametrize("seed", sorted(EXPECTED))
def test_lanes_give_the_streams_uniforms(seed):
    columns = lanes(seed, 3, 7, BOUNDS)
    assert len(columns) == len(BOUNDS)  # uniform columns only
    assert all(c.typecode == "d" and len(c) == 4 for c in columns)
    assert list(zip(*columns)) == EXPECTED[seed]
    for i in range(3, 7):
        stream = Stream(seed, i)
        assert [stream.uniform(lo, hi) for lo, hi in BOUNDS] == [
            column[i - 3] for column in columns]


@pytest.mark.parametrize("seed", sorted(EXPECTED))
def test_lambda_column_is_the_next_uniform_after_the_points(seed):
    # the column convexity's random lambda comes from, last after the points
    *_, lam = lanes(seed, 3, 7, BOUNDS + [(0.0, 1.0)])
    for i in range(3, 7):
        stream = Stream(seed, i)
        for lo, hi in BOUNDS:
            stream.uniform(lo, hi)
        assert lam[i - 3] == stream.uniform()
    fast = sample_tuples(gfix.make_max_space(2).space,
                         gfix.SamplePlan(seed=seed, count=7), lambda pts: [],
                         lambda u: u, points=2)
    for i, t in enumerate(fast):
        stream = Stream(seed, i)
        for _ in range(4):
            stream.uniform(-10.0, 10.0)
        assert t[-1] == stream.uniform()


def test_an_empty_range_has_no_lanes():
    assert list(map(len, lanes(1, 5, 5, BOUNDS))) == [0, 0, 0]


def per_point(space):
    """``space`` with its draw wrapped, so ``sample_tuples`` calls it."""
    draw = space.draw
    return dataclasses.replace(
        space, draw=lambda stream, box, sep: draw(stream, box, sep))


def one_weight(u):
    return u, 3.0 * u - 1.0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(dim=st.integers(1, 5), points=st.integers(1, 4),
       weighted=st.booleans(),
       seed=st.one_of(st.integers(-2**70, -1), st.just(0),
                      st.integers(2**64, 2**70)),
       count=st.integers(1, 40), block=st.integers(1, 12),
       start=st.integers(0, 50), length=st.integers(0, 30))
def test_lane_path_equals_per_point_path(dim, points, weighted, seed, count,
                                         block, start, length):
    space = gfix.make_perimeter_space(dim).space
    space = dataclasses.replace(space, default_box=tuple(
        (-1.0 - j, 2.5 * j) for j in range(dim)))
    plan = gfix.SamplePlan(seed=seed, count=count)
    weights = one_weight if weighted else None

    def structured(pts):
        return [(p,) * points + ((0.5, 0.5),) * weighted for p in pts]

    fast = sample_tuples(space, plan, structured, weights, points)
    slow = sample_tuples(per_point(space), plan, structured, weights, points)
    assert len(fast) == len(slow)
    with mock.patch.object(core, "MIN_TUPLES", block):
        # empty ranges, ranges across block edges, into the structured tuples
        assert (list(fast.make(start, start + length))
                == list(slow.make(start, start + length)))
        assert list(fast) == list(slow)


def test_a_range_builds_lanes_for_its_own_indices(monkeypatch):
    built = []

    def counted(seed, start, stop, bounds):
        assert 0 < stop - start <= 10  # blocks of at most MIN_TUPLES
        built.extend(range(start, stop))
        return lanes(seed, start, stop, bounds)
    monkeypatch.setattr(core, "lanes", counted)
    monkeypatch.setattr(core, "MIN_TUPLES", 10)
    space = gfix.make_max_space(2).space
    quads = core.sample_quads(space, gfix.SamplePlan(seed=3, count=45))
    assert built == []  # len() draws nothing
    extra = len(quads) - 45
    for start, stop in ((7, 31), (40, 45 + extra), (45, 45 + extra), (3, 3)):
        built.clear()
        assert len(list(quads.make(start, stop))) == stop - start
        assert built == list(range(start, min(stop, 45)))


def test_other_draws_take_a_stream_per_tuple(monkeypatch):
    plan = gfix.SamplePlan(seed=5, count=30, min_separation=0.5)
    perimeter = gfix.make_perimeter_space(2).space
    expected = [list(core.sample_quads(space, plan))
                for space in (perimeter, SIGN)]
    monkeypatch.setattr(core, "lanes", None)  # any use would raise
    assert [list(core.sample_quads(per_point(space), plan))
            for space in (perimeter, SIGN)] == expected

    def away_from_one(stream, box, min_separation):  # a rejection draw
        while abs((v := stream.uniform(*box[0])) - 1.0) < min_separation:
            pass
        return (v,)
    custom = core.sample_quads(dataclasses.replace(SIGN, draw=away_from_one),
                               plan)
    quads = list(custom)
    assert len(quads) == len(custom)
    assert all(abs(p[0] - 1.0) >= 0.5 for q in quads[:30] for p in q)


# min_separation 1 leaves about one lane in 70 with three of its six
# values, 9.99 nearly every lane with none
@pytest.mark.parametrize("sep, points", [(1.0, 4), (9.99, 1)])
def test_a_short_lane_falls_back_to_its_stream(sep, points):
    plan = gfix.SamplePlan(seed=2, count=200, min_separation=sep)
    tuples = list(core.sample_quads(SIGN, plan, points))
    assert all(len(t) == points and min(abs(p[0]) for p in t) >= sep
               for t in tuples[:200])
    assert tuples == list(core.sample_quads(per_point(SIGN), plan, points))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(points=st.integers(1, 4), weighted=st.booleans(),
       seed=st.one_of(st.integers(-2**70, -1), st.just(0),
                      st.integers(2**64, 2**70)),
       sep=st.sampled_from([0.0, 1e-3, 1.0, 9.99]),
       count=st.integers(1, 40), block=st.integers(1, 12),
       start=st.integers(0, 50), length=st.integers(0, 30))
def test_rejection_lanes_equal_the_per_point_draw(points, weighted, seed, sep,
                                                  count, block, start,
                                                  length):
    # 9.99 accepts one value in 1000: nearly every tuple falls back
    plan = gfix.SamplePlan(seed=seed, count=count, min_separation=sep)
    weights = one_weight if weighted else None

    def structured(pts):
        return [(p,) * points + ((0.5, 0.5),) * weighted for p in pts]

    fast = sample_tuples(SIGN, plan, structured, weights, points)
    slow = sample_tuples(per_point(SIGN), plan, structured, weights, points)
    with mock.patch.object(core, "MIN_TUPLES", block):
        assert (list(fast.make(start, start + length))
                == list(slow.make(start, start + length)))
        assert list(fast) == list(slow)


def test_a_value_on_the_floor_is_accepted():
    # the first uniform of Stream(7, 0) over (-10, 10) is -0.373...; with
    # that as min_separation, every path keeps it as the first point
    v = Stream(7, 0).uniform(-10.0, 10.0)
    plan = gfix.SamplePlan(seed=7, count=5, min_separation=abs(v))
    quads = list(core.sample_quads(SIGN, plan))
    assert quads[0][0] == (v,) and abs(v) < 1.0
    assert quads == list(core.sample_quads(per_point(SIGN), plan))


def test_an_empty_floor_raises_one_error_on_both_paths(monkeypatch):
    # no value of [-10, 10) but -10 itself has |v| >= 10
    monkeypatch.setattr(core, "MIN_TUPLES", 100)
    plan = gfix.SamplePlan(seed=0, count=300, min_separation=10.0)
    messages = []
    for space in (SIGN, per_point(SIGN)):
        for cpus in (1, 2, 3):  # 336 tuples make 1, 2 and 3 ranges
            monkeypatch.setattr(core, "_cpus", lambda: cpus)
            with pytest.raises(gfix.DomainError) as raised:
                gfix.check_axioms(space, plan)
            messages.append(str(raised.value))
    assert messages == ["no point of (-10.0, 10.0) with |v| >= 10.0 "
                        "in 10000 draws"] * 6
