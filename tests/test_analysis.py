"""Derived factors, product bounds, and trace verification."""

import math
from fractions import Fraction

import pytest

import gfix
from gfix.cli import main

PERIM1 = gfix.make_perimeter_space(1)


# --- derived factors ----------------------------------------------------------

def _verdict(kind, **coeffs):
    return gfix.check_applicability(gfix.ContractionSpec(kind, coeffs))


def test_delta_four_term_rejects_out_of_region():
    verdict = _verdict(gfix.ConditionKind.FOUR_TERM,
                       a=0.7, b=0.1, c=0.0, d=0.0)  # a + 3b = 1
    assert not verdict.satisfied
    assert verdict.delta is None
    with pytest.raises(ValueError):
        _verdict(gfix.ConditionKind.FOUR_TERM, a=-0.1, b=0.0, c=0.0, d=0.0)


def test_delta_three_term_vacuous_region():
    # a in [1/3, 1/2) yields a factor >= 1: the formula as stated does not
    # contract there, and the flag reports it instead of rejecting
    verdict = _verdict(gfix.ConditionKind.THREE_TERM, a=0.4, b=0.0, c=0.0)
    assert verdict.satisfied
    assert verdict.delta == pytest.approx(2.0)
    assert verdict.vacuous


def test_delta_three_term_rejects_half_and_beyond():
    for a in (0.5, 0.6):
        verdict = _verdict(gfix.ConditionKind.THREE_TERM, a=a, b=0.0, c=0.0)
        assert not verdict.satisfied
        assert verdict.delta is None
    with pytest.raises(ValueError):
        _verdict(gfix.ConditionKind.THREE_TERM, a=-0.01, b=0.0, c=0.0)


# --- product bound --------------------------------------------------------------

def test_product_bound_constant():
    rb = gfix.product_bound(0.5, gfix.constant_schedule(0.5), 4)
    assert rb.products[0] == 1.0
    assert rb.products[4] == pytest.approx(0.75 ** 4)
    assert rb.products[4] == pytest.approx(0.31640625)


def test_product_bound_empty():
    rb = gfix.product_bound(0.3, gfix.harmonic_schedule(), 0)
    assert tuple(rb.products) == (1.0,)


def test_product_bound_harmonic_hand_value():
    rb = gfix.product_bound(0.5, gfix.harmonic_schedule(), 2)
    assert rb.products[2] == pytest.approx((1 - 0.5) * (1 - 0.25))
    assert rb.products[2] == pytest.approx(0.375)


def test_product_bound_monotone_in_unit_interval():
    rb = gfix.product_bound(0.2, gfix.harmonic_schedule(), 200)
    for b0, b1 in zip(rb.products, rb.products[1:]):
        assert 0.0 <= b1 <= b0 <= 1.0


def test_product_bound_rejects_bad_delta():
    with pytest.raises(ValueError):
        gfix.product_bound(1.0, gfix.constant_schedule(0.5), 5)
    with pytest.raises(ValueError):
        gfix.product_bound(-0.1, gfix.constant_schedule(0.5), 5)


def test_product_bound_log_space_agrees_with_direct():
    # the first factor is 1e-9 < 1e-8, so the products go through log space
    logged = gfix.product_bound(1e-9, gfix.harmonic_schedule(), 500)
    assert logged.factors[0] < 1e-8
    direct = [1.0]
    for f in logged.factors:
        direct.append(direct[-1] * f)
    assert len(logged.products) == len(direct) == 501
    for a, b in zip(direct, logged.products):
        assert a == pytest.approx(b, rel=1e-12)


def test_product_bound_log_space_survives_underflow():
    # factors of 1e-9 underflow a direct product; log space ends B at 0.0
    rb = gfix.product_bound(1e-9, gfix.constant_schedule(1.0), 2000)
    assert rb.factors[0] < 1e-8
    assert rb.products[-1] == 0.0


def test_product_bound_zero_factor():
    # delta = 0 with a full step kills the product exactly
    rb = gfix.product_bound(0.0, gfix.constant_schedule(1.0), 3)
    assert tuple(rb.products[1:]) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("delta", [1e-10, 5e-9, 0.0])
def test_product_bound_is_within_gamma_n_of_the_exact_product(delta):
    # the alpha 1 of step 30 gives a factor below 1e-8, 0 at delta 0, and
    # the chain multiplies on; an alpha 1 first makes it sum logs throughout
    late, u = [0.3] * 30 + [1.0] + [0.2] * 20, 2.0 ** -53
    for alphas in (late, [1.0] + late):
        rb = gfix.product_bound(delta, gfix.explicit_schedule(alphas),
                                len(alphas))
        exact = [Fraction(1)]
        for f in rb.factors:
            exact.append(exact[-1] * Fraction(f))
        logs = rb.factors[0] < 1e-8
        for n, (b, x) in enumerate(zip(rb.products, exact)):
            if not logs:  # Higham (2002), section 3.1: gamma_n = nu/(1 - nu)
                assert abs(Fraction(b) - x) <= n * u / (1 - n * u) * x
            elif x == 0:
                assert b == 0.0
            else:  # log B_n sums n rounded logs, rounding n times: an
                # error within 2nu|log B_n| of log B_n, relative in B_n
                assert abs(Fraction(b) - x) <= 2 * n * u * (
                    1 - math.log(x)) * x


@pytest.mark.parametrize("sched", [
    gfix.constant_schedule(0.3), gfix.harmonic_schedule(),
    gfix.power_schedule(0.7), gfix.explicit_schedule([1.0, 0.5, 0.2] * 9),
])
def test_product_bound_carries_schedule_alphas(sched):
    rb = gfix.product_bound(0.4, sched, 25)
    assert tuple(rb.alphas) == tuple(map(sched.alpha_at, range(25)))
    assert tuple(rb.factors) == tuple(1.0 - a * (1.0 - 0.4) for a in rb.alphas)


def test_exponential_majorization():
    # 1 - x <= e^{-x}: B_n <= exp(-(1-delta) * sum(alpha))
    delta = 0.4
    sched = gfix.harmonic_schedule()
    rb = gfix.product_bound(delta, sched, 300)
    partial = 0.0
    for n in range(1, 301):
        partial += sched.alpha_at(n - 1)
        assert rb.products[n] <= math.exp(-(1 - delta) * partial) + 1e-15


# --- verify_bound -----------------------------------------------------------------

def halving_trace(n=30):
    T = gfix.make_affine_contraction((0.0,), 0.5)
    return gfix.run_mann(PERIM1, T, (1.0,), gfix.constant_schedule(0.5),
                         gfix.StoppingRule(max_iters=n, residual_tol=0.0))


def first_violation(report, tol):
    """The first n whose slack falls below -tol, or None."""
    return next((n for n, s in enumerate(report.slacks) if s < -tol), None)


def test_verify_bound_exact_linear_case():
    trace = halving_trace()
    report = gfix.verify_bound(trace, 0.5, tol=1e-12)
    assert report.holds
    assert first_violation(report, tol=1e-12) is None
    assert abs(report.min_slack) <= 1e-12


def test_verify_bound_constant_map_positive_slack():
    T = gfix.make_affine_contraction((2.0,), 0.0)
    trace = gfix.run_mann(PERIM1, T, (7.0,), gfix.constant_schedule(1.0),
                          gfix.StoppingRule(max_iters=5, residual_tol=0.0))
    report = gfix.verify_bound(trace, 0.0)
    assert report.holds
    assert trace.true_errors[1] == 0.0


def test_verify_bound_detects_fabricated_delta():
    # doubling map with a pretended contraction factor must violate
    T = gfix.Mapping(name="double", apply=lambda x: (2.0 * x[0],),
                     fixed_point=(0.0,))
    trace = gfix.run_mann(PERIM1, T, (1.0,), gfix.constant_schedule(1.0),
                          gfix.StoppingRule(max_iters=20, residual_tol=0.0))
    report = gfix.verify_bound(trace, 0.5)
    assert not report.holds
    assert first_violation(report, tol=1e-9) == 1


def test_verify_bound_requires_true_errors():
    T = gfix.make_translation((1.0,))
    trace = gfix.run_mann(PERIM1, T, (0.5,), gfix.constant_schedule(0.5),
                          gfix.StoppingRule(max_iters=5, residual_tol=0.0))
    with pytest.raises(ValueError):
        gfix.verify_bound(trace, 0.5)


@pytest.mark.parametrize("true_errors", [(1.0, math.nan), (math.nan, 1.0)])
def test_verify_bound_fails_closed_on_nan_slack(true_errors):
    trace = gfix.IterationTrace(space=PERIM1, alphas=(0.5, 0.5),
                                residuals=(1.0, 0.5),
                                true_errors=true_errors, status="max-iters")
    report = gfix.verify_bound(trace, 0.5)
    assert not report.holds
    assert math.isnan(report.min_slack)


@pytest.mark.parametrize("error, holds", [(1e-9, True), (2e-9, False)])
def test_verify_bound_slack_on_its_tolerance(error, holds):
    # delta 0 and alpha 0 give B_n = 1 and a bound of G(x_0,u,u) = 0, so
    # the slack at step 1 is minus its true error: -tol itself holds
    trace = gfix.IterationTrace(space=PERIM1, alphas=[0.0, 0.0],
                                residuals=[0.0, 0.0],
                                true_errors=[0.0, error], status="max-iters")
    report = gfix.verify_bound(trace, 0.0)
    assert report.min_slack == -error
    assert report.holds is holds


# with delta 0.5 the bound is tight in real arithmetic, so the true slack
# is 0 at every step; rounding in B_n*e_0 grows with e_0, and on these
# runs min_slack falls below -tol, which only the term relative to the
# bound allows
TIGHT = ["iterate", "--space", "perimeter-1", "--mapping", "affine:k=0.5",
         "--condition", "four-term", "--coeff", "a=0.5,b=0,c=0,d=0",
         "--max-iters", "2000"]


@pytest.mark.parametrize("x0, schedule, min_slack", [
    ("1e9", "harmonic", "-1.6391277313232422e-07"),
    ("1e12", "constant", "-2.9802322387695312e-08"),
    ("1e12", "harmonic", "-0.0002288818359375"),
])
def test_a_tight_bound_holds_far_from_its_fixed_point(
        x0, schedule, min_slack, tmp_path, capsys):
    code = main([*TIGHT, f"--x0={x0}", "--schedule", schedule,
                 "--out", str(tmp_path / "t.csv")])
    out = capsys.readouterr().out.splitlines()
    assert "bound_holds: true" in out and f"min_slack: {min_slack}" in out
    assert code == 0


# x_n stops 2 ulps of the center from it, where a step is rounded away,
# while B_n*e_0 goes on to 0: only the floor for e_n, G(u, v, v) with v
# 4 ulps from u, holds the bound; a floor of 1 ulp fails it
@pytest.mark.parametrize("center, x0, min_slack", [
    ("1e9", "1000000001", "-4.76837158203125e-07"),
    ("-1e9", "-999999999", "-4.76837158203125e-07"),
    ("1e12", "1000000000001", "-0.00048828125"),
    ("-1e12", "-999999999999", "-0.00048828125"),
    ("1e15", "1000000000000001", "-0.5"),
    ("-1e15", "-999999999999999", "-0.5"),
])
def test_a_tight_bound_holds_near_a_far_fixed_point(
        center, x0, min_slack, tmp_path, capsys):
    code = main(["iterate", "--space", "perimeter-1", "--mapping",
                 f"affine:k=0.5,center={center}", f"--x0={x0}",
                 "--schedule", "constant", "--max-iters", "200",
                 "--residual-tol", "0", "--condition", "four-term",
                 "--coeff", "a=0.5,b=0,c=0,d=0",
                 "--out", str(tmp_path / "t.csv")])
    out = capsys.readouterr().out.splitlines()
    assert "bound_holds: true" in out and f"min_slack: {min_slack}" in out
    assert code == 0


def test_a_false_premise_still_fails_the_bound(tmp_path, capsys):
    # the map contracts at its k = 0.12, not at the claimed delta 0.102,
    # and the slack falls to -0.276, far below the relative allowance
    code = main(["iterate", "--space", "perimeter-2", "--mapping",
                 "affine:k=0.12,center=3;-2", "--condition", "four-term-alt",
                 "--coeff", "a=0.079,b=0.011,c=0.381,d=0.345",
                 "--x0=10,10", "--max-iters", "50",
                 "--out", str(tmp_path / "t.csv")])
    out = capsys.readouterr().out.splitlines()
    assert "bound_holds: false" in out
    assert "min_slack: -0.27593245963590007" in out
    assert code == 1


def test_verify_bound_refuses_vacuous_delta():
    with pytest.raises(ValueError):
        gfix.verify_bound(halving_trace(), 1.5)


@pytest.mark.parametrize("tol", [math.inf, math.nan, -1e-9, -math.inf])
def test_verify_bound_refuses_a_tol_not_finite_and_nonnegative(tol):
    # with delta 0 this run's min slack is -0.625, which an infinite tol
    # would pass; a NaN tol would fail even the slack-0 delta-0.5 run
    trace = halving_trace(20)
    assert gfix.verify_bound(trace, 0.0).min_slack == -0.625
    for delta in (0.0, 0.5):
        with pytest.raises(ValueError, match="tol must be finite"):
            gfix.verify_bound(trace, delta, tol=tol)


def test_trace_products_match_schedule_products():
    trace = halving_trace(40)
    from_trace = gfix.trace_products(trace, 0.5)
    from_sched = gfix.product_bound(0.5, gfix.constant_schedule(0.5),
                                    len(trace) - 1).products
    for a, b in zip(from_trace, from_sched):
        assert a == pytest.approx(b, rel=1e-14)


@pytest.mark.parametrize("k, sched, delta", [
    (0.5, gfix.constant_schedule(0.5), 0.5),
    (0.6, gfix.harmonic_schedule(), 0.7),
    (0.0, gfix.constant_schedule(1.0), 0.0),
])
def test_verify_bound_columns(k, sched, delta):
    # the bound and slack columns are B_n*G(x_0,u,u) and bound - error,
    # bit for bit, with B_n from trace_products
    T = gfix.make_affine_contraction((1.0,), k)
    trace = gfix.run_mann(PERIM1, T, (8.0,), sched,
                          gfix.StoppingRule(max_iters=30, residual_tol=0.0))
    report = gfix.verify_bound(trace, delta)
    products = gfix.trace_products(trace, delta)
    e0 = trace.true_errors[0]
    assert len(report.bounds) == len(report.slacks) == len(trace)
    for n, err in enumerate(trace.true_errors):
        assert report.bounds[n] == products[n] * e0
        assert report.slacks[n] == report.bounds[n] - err


def test_displacement_chain_on_trace_points():
    # G(x, Tx, Tx) <= G(x,u,u) + 2 G(Tx,u,u): the bridge inequality the
    # rate derivation leans on, checked on actual iterates
    T = gfix.make_affine_contraction((1.0,), 0.6)
    trace = gfix.run_mann(PERIM1, T, (8.0,), gfix.harmonic_schedule(),
                          gfix.StoppingRule(max_iters=50, residual_tol=0.0))
    g = PERIM1.space.g
    u = T.fixed_point
    for x in trace.points:
        tx = T.apply(x)
        assert g(x, tx, tx) <= g(x, u, u) + 2.0 * g(tx, u, u) + 1e-12


def test_per_point_contraction_inequality():
    # G(Tx, Tu, Tu) <= delta * G(x,u,u) for affine k with a = k, b = 0
    k = 0.7
    T = gfix.make_affine_contraction((0.5,), k)
    spec = gfix.ContractionSpec(gfix.ConditionKind.FOUR_TERM,
                                {"a": k, "b": 0.0, "c": 0.0, "d": 0.0})
    delta = gfix.check_applicability(spec).delta
    trace = gfix.run_mann(PERIM1, T, (6.0,), gfix.constant_schedule(0.3),
                          gfix.StoppingRule(max_iters=30, residual_tol=0.0))
    g = PERIM1.space.g
    u = T.fixed_point
    for x in trace.points:
        tx = T.apply(x)
        assert g(tx, u, u) <= delta * g(x, u, u) + 1e-12


# --- convergence diagnostics --------------------------------------------------------

def test_diagnostics_converged_trace():
    trace = halving_trace(60)
    report = gfix.convergence_diagnostics(trace, (0.0,), tail=10, tol=1e-6)
    assert report.passed
    maxima = gfix.diagnostics_maxima(trace, (0.0,), 10)
    assert all(v < 1e-6 for v in maxima.values())


def test_diagnostics_constant_trace_at_fixed_point():
    T = gfix.make_affine_contraction((3.0,), 0.5)
    trace = gfix.run_mann(PERIM1, T, (3.0,), gfix.constant_schedule(0.5),
                          gfix.StoppingRule(max_iters=5, residual_tol=0.0))
    maxima = gfix.diagnostics_maxima(trace, (3.0,), len(trace))
    assert all(v == 0.0 for v in maxima.values())


def test_diagnostics_translation_fails():
    T = gfix.make_translation((1.0,))
    trace = gfix.run_mann(PERIM1, T, (0.5,), gfix.constant_schedule(1.0),
                          gfix.StoppingRule(max_iters=40, residual_tol=0.0))
    report = gfix.convergence_diagnostics(trace, (0.5,), tail=10, tol=1e-6)
    assert not report.passed


def test_diagnostics_tail_validation():
    trace = halving_trace(5)
    with pytest.raises(ValueError):
        gfix.diagnostics_maxima(trace, (0.0,), tail=100)
