"""Convex-structure contract: blending W(x, y; lam, 1-lam) through
``cs.w.blend`` and the two-point inequality."""

import math

import gfix
from gfix import core

PERIM2 = gfix.make_perimeter_space(2)
PERIM1 = gfix.make_perimeter_space(1)
MAX2 = gfix.make_max_space(2)


def test_combine_midpoint():
    assert PERIM2.w.blend((2.0, 0.0), (0.0, 2.0), 0.5) == (1.0, 1.0)


def test_combine_endpoints():
    x, y = (3.0, -1.0), (-2.0, 5.0)
    assert PERIM2.w.blend(x, y, 1.0) == x
    assert PERIM2.w.blend(x, y, 0.0) == y


def test_combine_quarter_weight_dim1():
    assert PERIM1.w.blend((4.0,), (8.0,), 0.25) == (7.0,)


def test_endpoint_identities_exact():
    g = PERIM2.space.g
    x, y = (3.5, -1.25), (-2.0, 7.0)
    assert g(PERIM2.w.blend(x, y, 1.0), x, x) == 0.0
    assert g(PERIM2.w.blend(x, y, 0.0), y, y) == 0.0


def test_each_g_value_of_convexity_has_its_own_weight(monkeypatch):
    # blend(x, y, lam) weighs x by lam, so the right side weighs G(x,u,v)
    # by lam and G(y,u,v) by 1 - lam: every row's right side is that sum
    rows, record = [], core.Collector.record

    def spy(self, check_id, witness, lhs, rhs, margin):
        rows.append((witness, rhs))
        record(self, check_id, witness, lhs, rhs, margin)
    monkeypatch.setattr(core.Collector, "record", spy)
    monkeypatch.setattr(core, "_cpus", lambda: 1)  # every row recorded here
    plan = gfix.SamplePlan(seed=0, count=20)
    assert gfix.check_convexity(PERIM1, plan).passed
    g = PERIM1.space.g
    assert len(rows) > 80 and all(
        rhs == lam * g(x, u, v) + (1.0 - lam) * g(y, u, v)
        for (x, y, u, v, lam), rhs in rows)


def test_check_convexity_passes_bundled_structures():
    plan = gfix.SamplePlan(seed=3, count=2000)
    for cs in (PERIM2, MAX2):
        report = gfix.check_convexity(cs, plan)
        assert report.passed, report.violations[:3]


def test_check_convexity_grid_oracle_dim1():
    # coarse sweep of the inequality, independent of the sampler
    g = PERIM1.space.g
    axis = [(-2.0,), (-1.0,), (0.0,), (1.0,), (2.0,)]
    for x in axis:
        for y in axis:
            for u in axis:
                for v in axis:
                    for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
                        w = (lam * x[0] + (1 - lam) * y[0],)
                        lhs = g(w, u, v)
                        rhs = lam * g(x, u, v) + (1 - lam) * g(y, u, v)
                        assert lhs <= rhs + 1e-12


def test_adversarial_structure_fails_with_witness():
    bad = gfix.ConvexGSpace(
        PERIM2.space,
        gfix.ConvexStructure(
            lambda x, y, lam: tuple(a + b for a, b in zip(x, y))))
    report = gfix.check_convexity(bad, gfix.SamplePlan(seed=3, count=500))
    assert not report.passed
    assert report.violations
    v = report.violations[0]
    assert v.lhs > v.rhs


def test_nan_evaluator_fails_convexity():
    space = PERIM2.space
    nan_space = gfix.GSpace("nan", 2, lambda x, y, z: math.nan, space.draw,
                            space.contains, space.default_box)
    report = gfix.check_convexity(gfix.ConvexGSpace(nan_space, PERIM2.w),
                                  gfix.SamplePlan(seed=3, count=50))
    assert not report.passed
    assert report.violations[0].check_id == "convexity:non-finite"


def test_chord_dominance_at_fixed_anchor():
    # the inequality specialized to u = v = p
    g = PERIM2.space.g
    x, y, p = (4.0, 1.0), (-3.0, 2.0), (0.5, 0.5)
    for k in range(11):
        lam = k / 10.0
        w = PERIM2.w.blend(x, y, lam)
        chord = lam * g(x, p, p) + (1 - lam) * g(y, p, p)
        assert g(w, p, p) <= chord + 1e-12


def test_combine_is_deterministic():
    a = MAX2.w.blend((1.0, 2.0), (3.0, -4.0), 0.3)
    b = MAX2.w.blend((1.0, 2.0), (3.0, -4.0), 0.3)
    assert a == b
