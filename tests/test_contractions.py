"""Contractive-condition encodings, sampled checking, and applicability."""

import dataclasses
import math

import pytest

import gfix
from gfix.contractions import _ROWS, ConditionKind, ContractionSpec
from gfix.core import sample_quads

PERIM1 = gfix.make_perimeter_space(1)
SPACE1 = PERIM1.space


def four_term(a, b, c, d):
    return ContractionSpec(ConditionKind.FOUR_TERM,
                           {"a": a, "b": b, "c": c, "d": d})


def test_rhs_four_term_hand_value():
    T = gfix.make_affine_contraction((0.0,), 0.5)
    spec = four_term(0.5, 0, 0, 0)
    rhs = gfix.rhs_value(spec, SPACE1, T, (0.0,), (1.0,), (3.0,))
    assert rhs == 3.0  # 0.5 * G(0,1,3) = 0.5 * 6


def test_rhs_vanishes_at_fixed_point():
    T = gfix.make_affine_contraction((2.0,), 0.5)
    spec = ContractionSpec(ConditionKind.K_SUM, {"k": 0.2})
    u = (2.0,)
    assert gfix.rhs_value(spec, SPACE1, T, u, u, u) == 0.0


def test_rhs_max_identity_mapping():
    T = gfix.make_affine_contraction((0.0,), 1.0)
    spec = ContractionSpec(ConditionKind.MAX, {"a": 0.0, "b": 1.0})
    assert gfix.rhs_value(spec, SPACE1, T, (1.0,), (2.0,), (5.0,)) == 0.0


def test_spec_validates_coefficients():
    with pytest.raises(ValueError):
        ContractionSpec(ConditionKind.SUM, {"a": 0.5})  # missing b
    with pytest.raises(ValueError):
        ContractionSpec(ConditionKind.K_SUM, {"k": -0.1})
    with pytest.raises(ValueError):
        ContractionSpec(ConditionKind.FOUR_TERM, {"a": 0.1, "b": 0.1})
    with pytest.raises(ValueError):
        four_term(-0.1, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        ContractionSpec(ConditionKind.THREE_TERM,
                        {"a": -0.01, "b": 0.0, "c": 0.0})
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            ContractionSpec(ConditionKind.SUM, {"a": 0.5, "b": bad})


def test_check_condition_halving_passes():
    T = gfix.make_affine_contraction((0.0,), 0.5)
    report = gfix.check_condition(four_term(0.5, 0, 0, 0), SPACE1, T,
                                  gfix.SamplePlan(seed=1, count=1000))
    assert report.passed
    assert report.worst_ratio <= 1.0 + 1e-9


def test_check_condition_doubling_fails():
    T = gfix.make_affine_contraction((0.0,), 2.0)
    report = gfix.check_condition(four_term(0.5, 0, 0, 0), SPACE1, T,
                                  gfix.SamplePlan(seed=1, count=1000))
    assert not report.passed
    assert report.violations
    x, y, z = report.violations[0].witness
    assert report.violations[0].lhs > report.violations[0].rhs


# G(Tx,Ty,Tz), three displacements and, unless the rhs uses displacements
# only, G(x,y,z)
_G_PER_CHECK = {ConditionKind.THREE_TERM: 4, ConditionKind.K_SUM: 4}


@pytest.mark.parametrize("kind", list(ConditionKind))
def test_check_condition_applies_t_once_per_point(kind):
    # T at x, y and z once; the lhs and the rhs displacements share them
    inner = gfix.make_affine_contraction((0.0,), 0.5)
    applied = []
    evaluated = []

    def apply(p):
        applied.append(p)
        return inner.apply(p)

    def g(x, y, z):
        evaluated.append(x)
        return SPACE1.g(x, y, z)

    T = gfix.Mapping("counted", apply, inner.fixed_point)
    space = dataclasses.replace(SPACE1, g=g)
    spec = ContractionSpec(kind, dict.fromkeys(_ROWS[kind].names, 0.1))
    report = gfix.check_condition(spec, space, T,
                                  gfix.SamplePlan(seed=5, count=40))
    assert report.total_checks > 40
    assert len(applied) == 3 * report.total_checks
    assert len(evaluated) == _G_PER_CHECK.get(kind, 5) * report.total_checks


@pytest.mark.parametrize("kind", list(ConditionKind))
def test_rhs_value_is_the_rhs_check_condition_records(kind, monkeypatch):
    space = gfix.make_max_space(2).space
    T = gfix.make_affine_contraction((0.3, -0.2), 1.4)
    names = _ROWS[kind].names
    spec = ContractionSpec(kind, {n: 0.05 * (i + 1)
                                  for i, n in enumerate(names)})
    rows, record = [], gfix.core.Collector.record

    def spy(self, check_id, witness, lhs, rhs, margin):
        rows.append((witness, lhs, rhs))
        record(self, check_id, witness, lhs, rhs, margin)
    monkeypatch.setattr(gfix.core.Collector, "record", spy)
    report = gfix.check_condition(spec, space, T,
                                  gfix.SamplePlan(seed=4, count=60))
    assert len(rows) == report.total_checks > 60
    for (x, y, z), lhs, rhs in rows:
        assert lhs == space.g(T.apply(x), T.apply(y), T.apply(z))
        assert gfix.rhs_value(spec, space, T, x, y, z) == rhs


def test_leaving_the_domain_names_the_mapping_and_point():
    sign = gfix.make_sign_example_space()
    T = gfix.make_affine_contraction((0.0,), 0.0)  # every image is 0
    spec = ContractionSpec(ConditionKind.K_SUM, {"k": 0.3})
    plan = gfix.SamplePlan(seed=0, count=20)
    x = next(iter(sample_quads(sign, plan, 3)))[0]
    message = (f"affine(k=0.0) maps {x!r} to (0.0,), which is not in the "
               "domain of sign-example")
    with pytest.raises(gfix.DomainError) as raised:
        gfix.check_condition(spec, sign, T, plan)
    assert str(raised.value) == message
    with pytest.raises(gfix.DomainError) as raised:
        gfix.rhs_value(spec, sign, T, (2.0,), x, x)
    assert str(raised.value) == message.replace(repr(x), "(2.0,)", 1)


def test_leaving_the_domain_at_the_third_point_is_found():
    # only the image of the third point, 0, lies outside the domain
    sign = gfix.make_sign_example_space()
    T = gfix.Mapping("zero-at-3", lambda p: (0.0,) if p == (3.0,) else p)
    spec = ContractionSpec(ConditionKind.K_SUM, {"k": 0.3})
    with pytest.raises(gfix.DomainError) as raised:
        gfix.rhs_value(spec, sign, T, (1.0,), (2.0,), (3.0,))
    assert str(raised.value) == ("zero-at-3 maps (3.0,) to (0.0,), which is "
                                 "not in the domain of sign-example")


def test_check_condition_constant_map_passes():
    T = gfix.make_affine_contraction((3.0,), 0.0)
    spec = four_term(0.0, 0.4, 0.4, 0.4)
    report = gfix.check_condition(spec, SPACE1, T,
                                  gfix.SamplePlan(seed=2, count=500))
    assert report.passed


def test_affine_scaling_identity():
    # G(Tx,Ty,Tz) = k G(x,y,z) exactly for affine maps about the origin
    for make in (gfix.make_perimeter_space, gfix.make_max_space):
        space = make(2).space
        T = gfix.make_affine_contraction((0.0, 0.0), 0.25)
        for triple in (((1.0, 2.0), (3.0, -4.0), (0.5, 0.0)),
                       ((-8.0, 1.0), (2.0, 2.0), (7.0, -7.0))):
            x, y, z = triple
            lhs = space.g(T.apply(x), T.apply(y), T.apply(z))
            assert lhs == pytest.approx(0.25 * space.g(x, y, z), rel=1e-12)


def test_sum_reduction_of_four_term():
    # equal displacement coefficients collapse the four-term rhs to sum
    T = gfix.make_affine_contraction((1.0,), 0.3)
    ft = four_term(0.2, 0.1, 0.1, 0.1)
    sm = ContractionSpec(ConditionKind.SUM, {"a": 0.2, "b": 0.1})
    for triple in (((0.0,), (2.0,), (5.0,)), ((-3.0,), (1.0,), (1.0,))):
        lhs = gfix.rhs_value(ft, SPACE1, T, *triple)
        rhs = gfix.rhs_value(sm, SPACE1, T, *triple)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_sum_dominates_max_pointwise():
    T = gfix.make_affine_contraction((0.0,), 0.6)
    sm = ContractionSpec(ConditionKind.SUM, {"a": 0.2, "b": 0.1})
    mx = ContractionSpec(ConditionKind.MAX, {"a": 0.2, "b": 0.1})
    quads = list(sample_quads(SPACE1, gfix.SamplePlan(seed=4, count=30)))[:30]
    for x, y, z, _ in quads:
        assert (gfix.rhs_value(sm, SPACE1, T, x, y, z)
                >= gfix.rhs_value(mx, SPACE1, T, x, y, z) - 1e-12)


def test_alt_orientation_differs_from_primary():
    T = gfix.make_affine_contraction((0.0,), 0.5)
    ft = four_term(0.0, 1.0, 0.0, 0.0)
    alt = ContractionSpec(ConditionKind.FOUR_TERM_ALT,
                          {"a": 0.0, "b": 1.0, "c": 0.0, "d": 0.0})
    x, y, z = (4.0,), (1.0,), (2.0,)
    # perimeter dim 1: G(x,Tx,Tx) = 2|x-Tx| = G(x,x,Tx), so both agree here
    assert gfix.rhs_value(ft, SPACE1, T, x, y, z) == pytest.approx(
        gfix.rhs_value(alt, SPACE1, T, x, y, z))


# --- applicability ------------------------------------------------------------

def test_applicability_four_term_satisfied():
    verdict = gfix.check_applicability(four_term(0.2, 0.1, 0.3, 0.3))
    assert verdict.satisfied
    assert verdict.residuals["1-(a+3b)"] == pytest.approx(0.5)


def test_applicability_three_term_a_too_large():
    spec = ContractionSpec(ConditionKind.THREE_TERM,
                           {"a": 0.5, "b": 0.2, "c": 0.2})
    verdict = gfix.check_applicability(spec)
    assert not verdict.satisfied
    assert verdict.residuals["1/2-a"] == pytest.approx(0.0)


@pytest.mark.parametrize("a, b, satisfied", [
    # sum's region is a + 3b > 0 and 1 - (a + 3b) > 0, each strict
    (0.25, 0.25, False), (0.125, 0.25, True), (0.0, 0.0, False),
    (0.0, 0.25, True),
])
def test_applicability_sum_region_edges(a, b, satisfied):
    spec = ContractionSpec(ConditionKind.SUM, {"a": a, "b": b})
    assert gfix.check_applicability(spec).satisfied is satisfied


def test_applicability_k_sum_boundary_is_strict():
    spec = ContractionSpec(ConditionKind.K_SUM, {"k": 1.0 / 3.0})
    assert not gfix.check_applicability(spec).satisfied
    spec = ContractionSpec(ConditionKind.K_SUM, {"k": 0.2})
    assert gfix.check_applicability(spec).satisfied


def test_applicability_alt_kind_has_own_delta():
    # G(x,x,Tx) <= G(Tx,u,u) + 2 G(x,u,u) gives (a+2b)/(1-b), above the
    # four-term (a+b)/(1-2b) for b > 0, in the same region
    coeffs = {"a": 0.2, "b": 0.1, "c": 0.0, "d": 0.0}
    alt = gfix.check_applicability(
        ContractionSpec(ConditionKind.FOUR_TERM_ALT, coeffs))
    four = gfix.check_applicability(
        ContractionSpec(ConditionKind.FOUR_TERM, coeffs))
    assert alt.satisfied and four.satisfied
    assert alt.residuals == four.residuals
    assert alt.delta == (0.2 + 0.2) / 0.9
    assert four.delta == (0.2 + 0.1) / 0.8
    assert alt.delta > four.delta
    assert not alt.vacuous


# inside the region (a+b)/(1-2b) can round to exactly 1.0
EDGE = dict(a=0.236225381023386, b=0.2545915396588713)


# (a+b)/(1-2b) for four-term, sum and max, (a+2b)/(1-b) for four-term-alt,
# a/(1-2a) for three-term and k/(1-2k) for k-sum, each as the float the
# formula evaluates to
@pytest.mark.parametrize("kind, coeffs, delta, vacuous", [
    (ConditionKind.FOUR_TERM, dict(a=0.2, b=0.1, c=0.3, d=0.3),
     0.37500000000000006, False),
    (ConditionKind.FOUR_TERM_ALT, dict(a=0.4, b=0.1, c=0.0, d=0.0),
     (0.4 + 0.2) / 0.9, False),
    (ConditionKind.SUM, dict(a=0.2, b=0.1), 0.37500000000000006, False),
    (ConditionKind.MAX, dict(a=0.5, b=0.15), 0.9285714285714287, False),
    (ConditionKind.THREE_TERM, dict(a=0.25, b=0.2, c=0.2), 0.5, False),
    # a in [1/3, 1/2) yields a factor >= 1: the formula as stated does not
    # contract there, and the flag reports it instead of rejecting
    (ConditionKind.THREE_TERM, dict(a=0.4, b=0.1, c=0.1),
     2.0000000000000004, True),
    (ConditionKind.K_SUM, dict(k=0.3), 0.7499999999999999, False),
    (ConditionKind.FOUR_TERM, dict(a=0.0, b=0.0, c=0.0, d=0.0), 0.0, False),
    (ConditionKind.FOUR_TERM, dict(a=0.5, b=0.0, c=0.0, d=0.0), 0.5, False),
    # close to the edge a + 3b = 1, delta stays below one
    (ConditionKind.FOUR_TERM, dict(a=0.0, b=0.33, c=0.0, d=0.0),
     0.9705882352941178, False),
    (ConditionKind.FOUR_TERM, dict(a=0.9, b=0.03, c=0.0, d=0.0),
     0.9893617021276597, False),
    (ConditionKind.FOUR_TERM, dict(a=0.5, b=0.16, c=0.0, d=0.0),
     0.9705882352941178, False),
    (ConditionKind.THREE_TERM, dict(a=0.0, b=0.0, c=0.0), 0.0, False),
    (ConditionKind.FOUR_TERM, dict(EDGE, c=0.0, d=0.0), 1.0, True),
])
def test_applicability_delta_table(kind, coeffs, delta, vacuous):
    verdict = gfix.check_applicability(ContractionSpec(kind, coeffs))
    assert verdict.satisfied
    assert verdict.delta == delta
    assert verdict.vacuous is vacuous


def test_applicability_outside_region_has_no_delta():
    for spec in (four_term(0.5, 0.2, 0.0, 0.0),
                 four_term(0.7, 0.1, 0.0, 0.0),  # a + 3b = 1
                 ContractionSpec(ConditionKind.THREE_TERM,
                                 {"a": 0.5, "b": 0.0, "c": 0.0})):
        verdict = gfix.check_applicability(spec)
        assert not verdict.satisfied
        assert verdict.delta is None


def _region_grid(kind):
    names = _ROWS[kind].names
    steps = [i / 40 for i in range(41)]
    if kind is ConditionKind.K_SUM:
        yield from ({"k": v} for v in steps)
        return
    for a in steps:
        for b in steps:
            coeffs = dict.fromkeys(names, 0.0)
            coeffs.update(a=a, b=b)
            yield coeffs
    yield {**dict.fromkeys(names, 0.0), **EDGE}


@pytest.mark.parametrize("kind", list(ConditionKind))
def test_applicability_vacuous_iff_delta_reaches_one(kind):
    inside = 0
    for coeffs in _region_grid(kind):
        verdict = gfix.check_applicability(ContractionSpec(kind, coeffs))
        if verdict.satisfied:
            inside += 1
            assert verdict.vacuous is (verdict.delta >= 1), coeffs
    assert inside > 0


# --- mapping constructors -------------------------------------------------------

def test_affine_contraction_values():
    T = gfix.make_affine_contraction((0.0,), 0.5)
    assert T.apply((8.0,)) == (4.0,)
    T = gfix.make_affine_contraction((1.0, 1.0), 0.0)
    assert T.apply((9.0, -3.0)) == (1.0, 1.0)
    T = gfix.make_affine_contraction((2.0,), 0.25)
    assert T.apply((10.0,)) == (4.0,)


def test_affine_fixed_point_only_for_contractions():
    assert gfix.make_affine_contraction((2.0,), 0.5).fixed_point == (2.0,)
    assert gfix.make_affine_contraction((2.0,), 1.0).fixed_point is None


def test_fixed_point_is_actually_fixed():
    T = gfix.make_affine_contraction((1.5, -2.0), 0.7)
    u = T.fixed_point
    space = gfix.make_perimeter_space(2).space
    assert space.g(T.apply(u), u, u) <= 1e-9


def test_mapping_constructors_reject_non_finite():
    for k in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            gfix.make_affine_contraction((0.0,), k)
    with pytest.raises(ValueError):
        gfix.make_affine_contraction((math.inf,), 0.5)
    for offset in ((math.nan,), (0.0, -math.inf)):
        with pytest.raises(ValueError):
            gfix.make_translation(offset)


def test_translation_has_no_fixed_point():
    T = gfix.make_translation((1.0,))
    assert T.fixed_point is None
    assert T.apply((3.0,)) == (4.0,)
