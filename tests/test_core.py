"""Axiom and derived-inequality checks, validated against an independent
brute-force grid sweep before trusting the sampled checkers."""

import dataclasses
import itertools
import math
import operator
from unittest import mock

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import gfix
from gfix import core
from gfix.core import Collector, sample_quads, structured_points
from gfix.rng import Stream

PERIM1 = gfix.make_perimeter_space(1).space
PERIM2 = gfix.make_perimeter_space(2).space
MAX3 = gfix.make_max_space(3).space
SIGN = gfix.make_sign_example_space()


# --- independent oracle: exhaustive sweep on a small grid ---------------

def grid(space, n=5, lo=-2.0, hi=2.0):
    axis = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    pts = [p for p in itertools.product(axis, repeat=space.dim)
           if space.contains(p)]
    return pts


def brute_force_axioms(space, pts, quad_pts=None):
    """Directly sweep the five axioms; independent of the sampler."""
    g = space.g
    quad_pts = quad_pts or pts
    for p in pts:
        assert g(p, p, p) == 0.0
    for x, y in itertools.product(pts, repeat=2):
        if x != y:
            assert g(x, x, y) > 0.0
    for x, y, z in itertools.product(pts, repeat=3):
        if z != y:
            assert g(x, x, y) <= g(x, y, z) + 1e-12
        vals = {g(x, y, z), g(x, z, y), g(y, x, z),
                g(y, z, x), g(z, x, y), g(z, y, x)}
        assert max(vals) - min(vals) <= 1e-12
        for a in quad_pts:
            assert g(x, y, z) <= g(x, a, a) + g(a, y, z) + 1e-12


def test_grid_oracle_perimeter_dim1():
    brute_force_axioms(PERIM1, grid(PERIM1))


def test_grid_oracle_perimeter_dim2():
    pts = grid(PERIM2, n=3)
    brute_force_axioms(PERIM2, pts, quad_pts=pts[::3])


def test_grid_oracle_max_dim3():
    pts = grid(MAX3, n=2)
    brute_force_axioms(MAX3, pts)


def test_grid_oracle_sign_example():
    pts = [(v,) for v in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)]
    brute_force_axioms(SIGN, pts)


# --- evaluating G: space.g on the domain that space.contains admits ------

def test_eval_g_sign_example_same_sign():
    assert SIGN.g((1.0,), (2.0,), (3.0,)) == 4.0


def test_eval_g_sign_example_mixed_sign():
    assert SIGN.g((1.0,), (-1.0,), (2.0,)) == 7.0


def test_eval_g_diagonal_is_zero():
    for space in (PERIM1, PERIM2, MAX3):
        p = (1.5,) * space.dim
        assert space.g(p, p, p) == 0.0
    assert SIGN.g((1.5,), (1.5,), (1.5,)) == 0.0


def test_eval_g_rejects_zero_in_sign_example():
    assert not SIGN.contains((0.0,))
    assert SIGN.contains((1.0,)) and SIGN.contains((2.0,))


def test_eval_g_rejects_wrong_dimension():
    assert not PERIM2.contains((1.0,))
    assert PERIM2.contains((0.0, 0.0))


def test_eval_g_rejects_nonfinite():
    assert not PERIM1.contains((math.inf,))
    assert PERIM1.contains((0.0,))


# --- check_axioms ---------------------------------------------------------

def test_axioms_pass_on_bundled_spaces():
    plan = gfix.SamplePlan(seed=7, count=1000)
    for space in (PERIM2, MAX3, SIGN):
        report = gfix.check_axioms(space, plan)
        assert report.passed, report.violations[:3]
        assert report.violation_count == 0
        assert report.total_checks > plan.count


def test_axioms_fail_on_broken_evaluator():
    # an asymmetric signed function must fail positivity/symmetry
    broken = gfix.GSpace(
        name="broken", dim=2,
        g=lambda x, y, z: x[0] - y[0],
        draw=PERIM2.draw, contains=PERIM2.contains,
        default_box=PERIM2.default_box)
    report = gfix.check_axioms(broken, gfix.SamplePlan(seed=1, count=200))
    assert not report.passed
    ids = {v.check_id for v in report.violations}
    assert ids & {"axiom-ii", "axiom-iv"}
    assert all(len(v.witness) >= 1 for v in report.violations)


def test_reports_are_reproducible():
    plan = gfix.SamplePlan(seed=42, count=500)
    r1 = gfix.check_axioms(PERIM2, plan)
    r2 = gfix.check_axioms(PERIM2, plan)
    assert r1 == r2
    assert repr(r1) == repr(r2)


def test_axioms_pass_implies_derived_pass():
    plan = gfix.SamplePlan(seed=11, count=1000)
    for space in (PERIM1, PERIM2, MAX3, SIGN):
        ax = gfix.check_axioms(space, plan)
        de = gfix.check_derived(space, plan)
        if ax.passed:
            assert de.passed


# --- check_derived ---------------------------------------------------------

def test_derived_hand_check_item_iii():
    # dim 1: G(0,1,1) = 2 <= 2*G(1,0,0) = 4
    assert PERIM1.g((0.0,), (1.0,), (1.0,)) == 2.0
    assert 2.0 * PERIM1.g((1.0,), (0.0,), (0.0,)) == 4.0


def test_derived_pass_on_bundled_spaces():
    plan = gfix.SamplePlan(seed=11, count=1000)
    for space in (PERIM2, MAX3):
        report = gfix.check_derived(space, plan)
        assert report.passed, report.violations[:3]


def test_derived_degenerate_triple():
    g = PERIM2.g
    p = (1.0, -2.0)
    assert g(p, p, p) == 0.0
    assert g(p, p, p) <= g(p, p, p) + g(p, p, p)


# --- sampling machinery -----------------------------------------------------

def test_sample_points_deterministic_and_in_domain():
    quads1 = list(sample_quads(SIGN, gfix.SamplePlan(seed=5, count=200)))
    quads2 = list(sample_quads(SIGN, gfix.SamplePlan(seed=5, count=200)))
    assert quads1 == quads2
    assert all(SIGN.contains(p) and abs(p[0]) >= 1e-3
               for quad in quads1[:200] for p in quad)


def test_sample_points_independent_of_count_prefix():
    # per-index streams: the first k random quads do not depend on count
    long = list(sample_quads(PERIM2, gfix.SamplePlan(seed=9, count=100)))
    short = list(sample_quads(PERIM2, gfix.SamplePlan(seed=9, count=10)))
    assert long[:10] == short[:10]


@pytest.mark.parametrize("space", [PERIM2, MAX3, SIGN],
                         ids=["perimeter-2", "max-3", "sign-example"])
def test_three_point_draws_are_prefixes_of_four_point_draws(space):
    # each point comes from the sample's stream after the ones before it,
    # so dropping the last point changes none of the others; the sign
    # example rejects draws, which must not shift the stream either
    plan = gfix.SamplePlan(seed=11, count=300, min_separation=1.0)
    triples = list(sample_quads(space, plan, 3))
    assert triples == [q[:3] for q in sample_quads(space, plan)]


def test_uniform_is_next_u64_scaled_to_the_interval():
    a, b = Stream(7, 3), Stream(7, 3)
    for i in range(10000):
        lo, hi = (-10.0, 10.0) if i % 2 else (0.0, 1.0)
        expected = lo + (hi - lo) * ((b.next_u64() >> 11) * 2.0 ** -53)
        assert a.uniform(lo, hi) == expected


def test_structured_points_cover_corners_and_midpoint():
    for key in itertools.product(["perimeter", "max"], range(1, 7)):
        space = gfix.get_space("%s-%d" % key).space
        box = space.default_box
        pts = structured_points(space)
        for t in (0.5, 0.25, 0.75):
            assert tuple(lo + t * (hi - lo) for lo, hi in box) in pts, key
        if space.dim <= 3:
            assert set(itertools.product(*box)) <= set(pts), key
        lows, highs = zip(*box)
        assert lows in pts and highs in pts, key


def test_structured_points_respect_sign_domain():
    pts = structured_points(SIGN)
    assert all(p[0] != 0 for p in pts)


def test_sample_plan_validation():
    with pytest.raises(ValueError):
        gfix.SamplePlan(seed=0, count=0)
    for sep in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            gfix.SamplePlan(seed=0, count=1, min_separation=sep)


def test_collector_keeps_ten_worst():
    col = Collector()
    for i in range(100):
        col.record("x", (i,), float(i), 0.0, float(i))
    report = col.report()
    assert report.violation_count == 99  # margin 0 is not a violation
    assert len(report.violations) == 10
    margins = [v.margin for v in report.violations]
    assert margins == sorted(margins, reverse=True)
    assert margins[0] == 99.0


def test_collector_ranks_non_finite_margins_worst():
    col = Collector()
    col.record("x", (0,), 5.0, 0.0, 5.0)
    col.record("x", (1,), math.nan, 0.0, math.nan)
    col.record("x", (2,), 0.0, math.inf, -math.inf)
    col.record("x", (3,), 9.0, 0.0, 9.0)
    report = col.report()
    assert not report.passed and report.violation_count == 4
    assert [v.check_id for v in report.violations] == [
        "x:non-finite", "x:non-finite", "x", "x"]
    assert [v.witness for v in report.violations] == [(1,), (2,), (3,), (0,)]
    assert math.isnan(report.worst_margin)


@pytest.mark.parametrize("margins, worst", [
    ([-math.inf], math.inf),
    ([math.inf], math.inf),
    ([1.0, -math.inf, -1.0], math.inf),
    ([math.nan, -math.inf], math.nan),
    ([-math.inf, math.nan, math.inf], math.nan),
])
def test_collector_infinite_margin_is_worst(margins, worst):
    col = Collector()
    for i, margin in enumerate(margins):
        col.record("x", (i,), 0.0, 0.0, margin)
    report = col.report()
    assert not report.passed
    assert repr(report.worst_margin) == repr(worst)
    # no ratio was noted, so the report shows none (no worst_ratio line)
    assert report.worst_ratio is None


def test_collector_keeps_the_first_of_tied_rows():
    # eleven rows tie at margin 1: the first ten seen stay, in that order
    col = Collector()
    for i in range(11):
        col.record("x", (i,), 1.0, 0.0, 1.0)
    assert [v.witness for v in col.report().violations] == [
        (i,) for i in range(10)]


class SortedCollector:
    """The sort-based Collector the heap replaced, kept as the reference:
    a Violation per violation, re-sorted (stably) past 40 and at report."""

    def __init__(self):
        self.total = 0
        self.count = 0
        self.worst = []
        self.non_finite = []
        self.worst_margin = -math.inf
        self.worst_ratio = None

    def record(self, check_id, witness, lhs, rhs, margin):
        self.total += 1
        if margin > self.worst_margin or margin != margin:
            self.worst_margin = margin
        if -math.inf < margin <= 0.0:
            return
        self.count += 1
        if 0.0 < margin < math.inf:
            self.worst.append(core.Violation(check_id, witness, lhs, rhs,
                                             margin))
            if len(self.worst) > 40:
                self.worst.sort(key=operator.attrgetter("margin"),
                                reverse=True)
                del self.worst[10:]
        else:
            if self.worst_margin == self.worst_margin:
                self.worst_margin = math.inf
            if len(self.non_finite) < 10:
                self.non_finite.append(core.Violation(
                    f"{check_id}:non-finite", witness, lhs, rhs, margin))

    def note_ratio(self, ratio):
        if self.worst_ratio is None or ratio > self.worst_ratio:
            self.worst_ratio = ratio

    def report(self):
        self.worst.sort(key=operator.attrgetter("margin"), reverse=True)
        if self.worst_ratio is not None and not self.worst_margin < math.inf:
            self.worst_ratio = self.worst_margin
        return core.CheckReport(
            total_checks=self.total, violation_count=self.count,
            violations=tuple((self.non_finite + self.worst)[:10]),
            worst_margin=self.worst_margin, passed=self.count == 0,
            worst_ratio=self.worst_ratio)


# a small pool, so that ties at the 10th place are common; non-finite
# margins are a few rows inserted apart, since 10 of them fill a report
_MARGIN = st.sampled_from([0.0, -0.0, -1.0, 5e-324, 0.5, 1.0, 2.0, 3.0])
_NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])
# lhs and rhs: a rhs of 0 or below is clamped, a NaN rhs gives a NaN ratio
_SIDE = st.sampled_from([0.0, -0.0, -1.0, 1e-300, 0.5, 2.0]) | _NON_FINITE
_ROW = st.tuples(_MARGIN, _SIDE, _SIDE)


def feed(col, rows):
    for i, (margin, lhs, rhs) in enumerate(rows):
        col.record(f"c{i % 3}", (i,), lhs, rhs, margin)
        col.note_ratio(lhs / max(rhs, 1e-15))


def evaluated(rows, cut):
    """``evaluate(..., ratio=True)`` with row i as tuple i, the margin of
    each row given; a report is taken, and dropped, before row ``cut``."""
    made = []

    class Reporting(Collector):
        def __init__(self):
            super().__init__()
            made.append(self)

    def row(i):
        if i == cut:
            made[0].report()
        margin, lhs, rhs = rows[i]
        yield (lambda *_: margin), f"c{i % 3}", (i,), lhs, rhs

    tuples = core.Sized(len(rows), lambda start, stop: zip(range(start, stop)))
    with mock.patch.object(core, "Collector", Reporting):
        return core.evaluate(tuples, row, 0.0, ratio=True)


# no shrink phase: a failing example is reported as found, in about a
# second, where shrinking it took about 50 s
@settings(derandomize=True, max_examples=150, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(st.lists(_ROW, max_size=30) | st.lists(_ROW, min_size=41,
                                               max_size=160),
       st.lists(st.tuples(st.integers(0, 160), _NON_FINITE), max_size=12),
       st.integers(0, 170))
# the ratio -0.0 equals 0.0, so it must not replace it
@example(rows=[(0.0, 0.0, 1.0), (0.0, -0.0, 1.0)], inserted=[], cut=0)
def test_heap_collector_matches_sorted_reference(rows, inserted, cut):
    for at, margin in inserted:
        rows.insert(at, (margin, 1.0, 1.0))
    # repr tells NaN, 0.0 and -0.0 apart and finds NaN equal to itself
    ref = SortedCollector()
    feed(ref, rows)
    expected = repr(ref.report())
    assert repr(evaluated(rows, None)) == expected
    assert repr(evaluated(rows, cut)) == expected  # report changes nothing


def test_collector_builds_violations_for_survivors_only(monkeypatch):
    built, violation = [], core.Violation

    def counted(*args):
        built.append(args)
        return violation(*args)
    monkeypatch.setattr(core, "Violation", counted)
    col = Collector()
    non_finite = set(range(3, 100000, 6667))
    assert len(non_finite) == 15
    for i in range(100000):
        col.record("x", (i,), 0.0, 0.0, float(i % 977) + 1.0)
        if i in non_finite:
            col.record("x", (i,), math.nan, 0.0, math.nan)
        assert len(col.worst) <= 10
    report = col.report()
    assert len(built) <= 20
    assert report.violation_count == 100015
    assert [v.witness for v in report.violations] == [
        (i,) for i in sorted(non_finite)[:10]]


def worst_margins(monkeypatch, check, space, plan):
    """The worst margin of each check id in ``check(space, plan)``, all
    rows recorded in this process."""
    worst, record = {}, core.Collector.record

    def spy(self, check_id, witness, lhs, rhs, margin):
        worst[check_id] = max(worst.get(check_id, -math.inf), margin)
        record(self, check_id, witness, lhs, rhs, margin)
    monkeypatch.setattr(core.Collector, "record", spy)
    monkeypatch.setattr(core, "_cpus", lambda: 1)
    check(space, plan)
    return worst


def test_derived_near_miss_margins(monkeypatch):
    # G is 0 on the diagonal, 1 with exactly two points equal and 5 with
    # all three distinct; the structured quad (p, q, r, p) puts a = x,
    # where derived-v's right side is (2/3)(1 + 1 + 5) and derived-vi's
    # is 0 + 1 + 1, so each worst margin pins its right side exactly
    def g(x, y, z):
        return (0.0, 1.0, 5.0)[len({x, y, z}) - 1]
    space = gfix.GSpace(name="jump", dim=1, g=g, draw=core.box_draw,
                        contains=lambda p: 0.0 <= p[0] <= 3.0,
                        default_box=((0.0, 3.0),))
    worst = worst_margins(monkeypatch, gfix.check_derived, space,
                          gfix.SamplePlan(seed=0, count=50))
    assert worst["derived-v"] == 5 - (2 / 3) * 7 - 1e-9 * (2 / 3) * 7
    assert worst["derived-v"] == 0.33333332866666726
    assert worst["derived-vi"] == 3 - 1e-9 * 2


def test_axiom_near_miss_margins(monkeypatch):
    # G(x,x,x) = -0.5 misses 0 from below, by 0.5; G(x,x,y) lies on
    # axiom-ii's floor; the six orders of three distinct points give 4 or
    # 2, so axiom-iv's spread 2 has the slack of 4, the larger value
    def g(x, y, z):
        if len({x, y, z}) == 1:
            return -0.5
        if len({x, y, z}) == 2:
            return core.STRICT_FLOOR
        return 4.0 if x < y else 2.0
    space = gfix.GSpace(name="near", dim=1, g=g, draw=core.box_draw,
                        contains=lambda p: 0.0 <= p[0] <= 3.0,
                        default_box=((0.0, 3.0),))
    plan = gfix.SamplePlan(seed=0, count=50)
    worst = worst_margins(monkeypatch, gfix.check_axioms, space, plan)
    assert worst["axiom-i"] == 0.5 - 1e-9
    assert worst["axiom-ii"] == 0.0
    assert worst["axiom-iv"] == 4.0 - 2.0 - 1e-9 * 4.0
    assert worst["axiom-iv"] == 1.999999996
    worst = worst_margins(monkeypatch, gfix.check_derived, space, plan)
    assert worst["derived-i"] == 0.5 - 1e-9


@pytest.mark.parametrize("form, lhs, rhs, margin", [
    # at tol 0.125 the margin is 0 exactly on each form's boundary, and
    # past it the distance to the boundary, the slack scaled by |rhs| for
    # le_tol and by |lhs| for spread_tol
    (core.le, 2.0, 2.0, 0.0), (core.le, 2.5, 2.0, 0.5),
    (core.ge, 2.0, 2.0, 0.0), (core.ge, 1.5, 2.0, 0.5),
    (core.abs_tol, 0.125, 0.0, 0.0), (core.abs_tol, -0.125, 0.0, 0.0),
    (core.abs_tol, -0.5, 0.0, 0.375),
    (core.le_tol, 4.5, 4.0, 0.0), (core.le_tol, 2.0, -4.0, 5.5),
    (core.spread_tol, 4.0, 3.5, 0.0), (core.spread_tol, 3.0, -8.0, 10.625),
])
def test_margin_forms_at_their_boundaries(form, lhs, rhs, margin):
    assert form(lhs, rhs, 0.125) == margin


def skew_g(x, y, z):
    """Not a G-metric: each argument slot weighs its distances apart, so
    G(x,y,z) != G(x,z,y) and G(x,x,y) != G(x,y,y) off the diagonal."""
    a, b, c = x[0], y[0], z[0]
    return abs(a - b) + 2.0 * abs(b - c) + 4.0 * abs(a - c)


def test_each_check_reads_the_permutation_it_names(monkeypatch):
    # a check that reads a G value computed for another row must read
    # the same permutation: here a swapped one moves the worst margin
    assert skew_g((0.0,), (1.0,), (3.0,)) != skew_g((0.0,), (3.0,), (1.0,))
    skew = dataclasses.replace(PERIM1, name="skew", g=skew_g)
    plan = gfix.SamplePlan(seed=3, count=300)
    g, le, tol = skew_g, core.le_tol, 1e-9
    quads = list(sample_quads(skew, plan))
    expected = {
        "axiom-iii": max(le(g(x, x, y), g(x, y, z), tol)
                         for x, y, z, _ in quads
                         if math.dist(z, y) >= plan.min_separation),
        "axiom-v": max(le(g(x, y, z), g(x, a, a) + g(a, y, z), tol)
                       for x, y, z, a in quads),
        "derived-iv": max(le(g(x, y, z), g(x, a, z) + g(a, y, z), tol)
                          for x, y, z, a in quads),
        "derived-v": max(le(g(x, y, z), (2.0 / 3.0) * (
            g(x, y, a) + g(x, a, z) + g(a, y, z)), tol)
            for x, y, z, a in quads),
    }
    worst = {**worst_margins(monkeypatch, gfix.check_axioms, skew, plan),
             **worst_margins(monkeypatch, gfix.check_derived, skew, plan)}
    assert {k: worst[k] for k in expected} == expected


@pytest.mark.parametrize("check, per_quad", [(gfix.check_axioms, 10),
                                             (gfix.check_derived, 12)])
def test_each_g_value_is_computed_once_per_witness(check, per_quad,
                                                   monkeypatch):
    base, calls = gfix.make_perimeter_space(3).space, []

    def g(x, y, z):
        calls.append(1)
        return base.g(x, y, z)
    monkeypatch.setattr(core, "_cpus", lambda: 1)  # every call counted here
    plan = gfix.SamplePlan(seed=1, count=200)
    assert check(dataclasses.replace(base, g=g), plan).passed
    assert len(calls) == per_quad * len(sample_quads(base, plan))


# --- Sized: the one lazy sequence, held to list semantics ----------------

def sized_and_list(backing, monkeypatch):
    """A ``Sized`` and the list of its items."""
    if backing == "list":
        xs = [0.5 * v for v in range(23)]
        return core.Sized(len(xs), lambda a, b: xs[a:b]), xs
    if backing == "rows":  # 3 rows a block: 7 spilled, 2 in memory
        monkeypatch.setattr(core, "_BLOCK_VALUES", 9)
        rows = core.Rows(3)
        rows.add(float(v) for i in range(23) for v in (i, 100 + i, 200 + i))
        assert rows.spilled == 63
        return rows.column(1), [100.0 + i for i in range(23)]
    # 12 random tuples drawn on lanes, then the structured tail
    quads = sample_quads(PERIM2, gfix.SamplePlan(seed=5, count=12))
    assert len(quads) > 24
    return quads, list(quads)


def outcome(get):
    """``get()``'s items as a list, or the type of what it raised."""
    try:
        value = get()
    except (IndexError, ValueError) as exc:
        return type(exc)
    return value if isinstance(value, tuple | float) else list(value)


@pytest.mark.parametrize("backing", ["list", "rows", "quads"])
def test_sized_indexes_and_slices_like_a_list(backing, monkeypatch):
    items, want = sized_and_list(backing, monkeypatch)
    n = len(want)
    assert len(items) == n and list(items) == want
    for i in range(-n - 2, n + 2):  # negative and out of range too
        assert outcome(lambda: items[i]) == outcome(lambda: want[i])
    bounds = (None, 0, 1, 3, 11, 13, -1, -4, n - 1, n, n + 5, -n, -n - 5)
    for start, stop, step in itertools.product(bounds, bounds,
                                               (None, 1, 2, -1, -3, 0)):
        cut = slice(start, stop, step)
        got = outcome(lambda: items[cut])
        assert got == outcome(lambda: want[cut]), cut
        if step in (None, 1):  # a view, which slices and indexes again
            view, part = items[cut], want[cut]
            assert isinstance(view, core.Sized) and len(view) == len(part)
            assert view == items[cut] and view != part
            for again in (slice(1, -1), slice(None, None, -2), -1, 0, 2):
                assert outcome(lambda: view[again]) == outcome(
                    lambda: part[again]), (cut, again)
    assert items[2:5] != items[3:6] and items != want


def test_nan_evaluator_fails_axioms():
    nan_space = gfix.GSpace(
        name="nan", dim=2, g=lambda x, y, z: math.nan,
        draw=PERIM2.draw, contains=PERIM2.contains,
        default_box=PERIM2.default_box)
    report = gfix.check_axioms(nan_space, gfix.SamplePlan(seed=1, count=50))
    assert not report.passed
    assert report.violation_count == report.total_checks
    assert report.violations[0].check_id.endswith(":non-finite")


def test_unbounded_box_fails_axioms():
    unbounded = dataclasses.replace(PERIM1,
                                    default_box=((-math.inf, math.inf),))
    plan = gfix.SamplePlan(seed=0, count=50)
    assert not gfix.check_axioms(unbounded, plan).passed


# each check with the points it draws per sample: a condition reads and
# draws only three
@pytest.mark.parametrize("check, points", [
    (gfix.check_axioms, 4),
    (gfix.check_derived, 4),
    (lambda space, plan, tol: gfix.check_convexity(
        gfix.ConvexGSpace(space, gfix.linear_interpolation()), plan, tol), 4),
    (lambda space, plan, tol: gfix.check_condition(
        gfix.ContractionSpec(gfix.ConditionKind.K_SUM, {"k": 0.3}), space,
        gfix.make_affine_contraction((0.0, 0.0), 0.5), plan, tol), 3),
], ids=["axioms", "derived", "convexity", "condition"])
def test_bad_tol_is_rejected_before_any_draw(check, points):
    draws = []

    def draw(stream, box, min_separation):
        draws.append(1)
        return PERIM2.draw(stream, box, min_separation)

    counted = dataclasses.replace(PERIM2, draw=draw)
    plan = gfix.SamplePlan(seed=0, count=200)
    with pytest.raises(ValueError, match="tol must be in"):
        check(counted, plan, math.nan)
    assert draws == []
    check(counted, plan, 1e-9)  # the same space draws when tol is good
    assert len(draws) == points * 200


def test_sign_example_sampler_gives_up_on_empty_box():
    with pytest.raises(gfix.DomainError):
        SIGN.draw(Stream(0, 0), ((-0.5, 0.5),), 1.0)


# --- properties --------------------------------------------------------------

coords = st.floats(min_value=-100, max_value=100, allow_nan=False)


@settings(max_examples=50, deadline=None)
@given(st.tuples(coords, coords), st.tuples(coords, coords),
       st.tuples(coords, coords))
def test_permutation_invariance(x, y, z):
    for space in (PERIM2, gfix.make_max_space(2).space):
        vals = [space.g(*perm) for perm in itertools.permutations((x, y, z))]
        assert max(vals) - min(vals) <= 1e-9 * max(1.0, max(vals))


@settings(max_examples=50, deadline=None)
@given(coords, coords, coords)
def test_rectangle_inequality_dim1(a, b, c):
    x, y, z = (a,), (b,), (c,)
    for space in (PERIM1, gfix.make_max_space(1).space):
        for mid in (x, y, z, (0.0,)):
            lhs = space.g(x, y, z)
            rhs = space.g(x, mid, mid) + space.g(mid, y, z)
            assert lhs <= rhs + 1e-9 * max(1.0, rhs)
