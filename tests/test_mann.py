"""Averaged iteration: steps, schedules, stopping, and traces."""

import dataclasses
import gc
import math
import tracemalloc

import pytest

import gfix
from gfix.mann import OVERFLOW_GUARD, _overflowed, step_range

PERIM1 = gfix.make_perimeter_space(1)


def first_step(T, x0, alpha):
    """x_1 of a one-step run from x0 with constant step size alpha."""
    trace = gfix.run_mann(PERIM1, T, x0, gfix.constant_schedule(alpha),
                          gfix.StoppingRule(max_iters=1, residual_tol=0))
    return trace.points[1]


def test_mann_step_hand_value():
    T = gfix.make_affine_contraction((0.0,), 0.5)
    x1 = first_step(T, (1.0,), 0.5)
    assert x1 == (0.75,)


def test_mann_step_endpoints():
    T = gfix.make_affine_contraction((0.0,), 0.5)
    assert first_step(T, (1.0,), 0.0) == (1.0,)
    assert first_step(T, (1.0,), 1.0) == (0.5,)


def test_run_mann_closed_form():
    # x_{n+1} = 0.75 x_n exactly for halving map with alpha = 1/2
    T = gfix.make_affine_contraction((0.0,), 0.5)
    trace = gfix.run_mann(PERIM1, T, (1.0,), gfix.constant_schedule(0.5),
                          gfix.StoppingRule(max_iters=10, residual_tol=0.0))
    assert trace.points[3] == (27.0 / 64.0,)
    for n in range(len(trace) - 1):
        assert trace.points[n + 1][0] == pytest.approx(
            0.75 * trace.points[n][0], rel=1e-15)


def test_identity_stops_immediately_on_residual():
    T = gfix.make_affine_contraction((0.0,), 1.0)
    trace = gfix.run_mann(PERIM1, T, (5.0,), gfix.constant_schedule(0.5),
                          gfix.StoppingRule(max_iters=100, residual_tol=1e-10))
    assert trace.status == "residual-tol"
    assert len(trace) == 1
    assert trace.residuals[0] == 0.0


def test_expansive_map_diverges():
    T = gfix.make_affine_contraction((0.0,), 2.0)
    trace = gfix.run_mann(PERIM1, T, (1.0,), gfix.constant_schedule(1.0),
                          gfix.StoppingRule(max_iters=10000, residual_tol=0.0))
    assert trace.status == "diverged"
    assert len(trace) < 10001
    assert 490 <= len(trace) <= 510  # 2^n crosses 1e150 near n = 498


@pytest.mark.parametrize("T, x0, alpha", [
    # residual G(x, Tx, Tx) overflows: Tx = 1e308 * x; alpha = 0 keeps x
    (gfix.make_affine_contraction((0.0,), 1e308), (1.0,), 0.0),
    # residual 1.5 * 2**1023 is finite, true error 2 * 2**1023 is not;
    # Tx = 0 exactly, so the next iterate would be finite
    (gfix.make_affine_contraction((-2.0 ** 1021,), 0.25), (3 * 2.0 ** 1021,),
     1.0),
    # both overflow at x_0, then Tx = 1e-12 would converge
    (gfix.make_affine_contraction((0.0,), 1e-320), (1e308,), 1.0),
])
def test_non_finite_residual_or_error_diverges(T, x0, alpha):
    trace = gfix.run_mann(PERIM1, T, x0, gfix.explicit_schedule([alpha] * 5),
                          gfix.StoppingRule(max_iters=5, residual_tol=0.0))
    assert trace.status == "diverged"
    assert len(trace) == 1


def test_alpha_zero_stalls():
    T = gfix.make_affine_contraction((0.0,), 0.5)
    trace = gfix.run_mann(PERIM1, T, (1.0,), gfix.constant_schedule(0.0),
                          gfix.StoppingRule(max_iters=5, residual_tol=0.0))
    assert all(p == (1.0,) for p in trace.points)


def test_trace_reproducible():
    T = gfix.make_affine_contraction((0.3,), 0.6)
    args = (PERIM1, T, (2.0,), gfix.harmonic_schedule(),
            gfix.StoppingRule(max_iters=50, residual_tol=0.0))
    a, b = gfix.run_mann(*args), gfix.run_mann(*args)
    assert a == b and a.points == b.points


def test_traces_ending_on_a_nan_compare_equal():
    # G is NaN below 0.6, so the residual of x_2 = 0.5625 is NaN
    g = PERIM1.space.g
    space = dataclasses.replace(PERIM1, space=dataclasses.replace(
        PERIM1.space, g=lambda x, y, z: v if (v := g(x, y, z)) >= 0.6
        else math.nan))
    args = (space, gfix.make_affine_contraction((0.0,), 0.5), (1.0,),
            gfix.constant_schedule(0.5),
            gfix.StoppingRule(max_iters=10, residual_tol=0.0))
    a, b = gfix.run_mann(*args), gfix.run_mann(*args)
    assert a.status == "diverged"
    assert list(a.residuals)[:2] == [1.0, 0.75]
    assert math.isnan(a.residuals[2]) and len(a) == 3
    assert a == b and a.residuals == b.residuals
    # a trace that differs in one value is still unequal
    other = gfix.run_mann(*args[:2], (1.0 + 2 ** -52,), *args[3:])
    assert other.residuals[2] != other.residuals[2]
    assert a != other and a.residuals != other.residuals
    assert a.residuals[:2] != b.residuals[1:]


# --- packed trace -------------------------------------------------------------

PERIM2 = gfix.make_perimeter_space(2)
CENTER2 = (1.0, -2.0)


def packed_run(max_iters=6):
    return gfix.run_mann(PERIM2, gfix.make_affine_contraction(CENTER2, 0.5),
                         (3.0, 4.0), gfix.constant_schedule(0.5),
                         gfix.StoppingRule(max_iters=max_iters,
                                           residual_tol=0.0))


def reference_points(n):
    """x_0 .. x_n by the plain per-coordinate formulas."""
    pts = [(3.0, 4.0)]
    for _ in range(n):
        x = pts[-1]
        tx = tuple(c + 0.5 * (a - c) for a, c in zip(x, CENTER2))
        pts.append(tuple(0.5 * a + 0.5 * t for a, t in zip(x, tx)))
    return tuple(pts)


def test_packed_trace_points():
    trace = packed_run()
    want = reference_points(6)
    assert len(trace) == len(trace.points) == 7
    assert [len(p) for p in trace.points] == [2] * 7
    assert tuple(zip(*trace.points)) == tuple(zip(*want))
    assert tuple(trace.points) == want
    assert trace.points[0] == (3.0, 4.0) and trace.points[2] == want[2]
    assert trace.points[-1] == want[-1] and trace.points[-3] == want[4]
    assert tuple(trace.points[-3:]) == want[4:]
    assert tuple(trace.points[7:]) == () and tuple(trace.points[-9:]) == want
    assert all(type(c) is float for p in trace.points for c in p)


def test_read_points_are_not_kept():
    trace = gfix.run_mann(gfix.get_space("perimeter-3"),
                          gfix.make_affine_contraction((0.0, 1.0, 2.0), 0.5),
                          (1.0, 2.0, 3.0), gfix.harmonic_schedule(),
                          gfix.StoppingRule(max_iters=20000, residual_tol=0.0))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert sum(1 for _ in trace.points) == 20001  # len() reads nothing
        gc.collect()  # empties the free lists, which keep 2000 3-tuples
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < 0.1 * 2**20
    # a pass holds one block of rows, about 0.6 MB; a tuple of all 20 001
    # points would take about 2.9 MB
    assert peak - before < 2**20


def test_packed_traces_of_identical_runs_are_equal():
    a, b = packed_run(), packed_run()
    assert a == b and a.points == b.points
    assert packed_run() != packed_run(5)


def test_diagnostics_on_packed_trace():
    trace = packed_run(60)
    g = PERIM2.space.g
    tail = reference_points(60)[-4:]
    maxima = gfix.diagnostics_maxima(trace, CENTER2, 4)
    assert maxima == {
        "self-pair": max(g(p, p, CENTER2) for p in tail),
        "limit-pair": max(g(p, CENTER2, CENTER2) for p in tail),
        "cross": max(g(p, q, CENTER2) for p in tail for q in tail)}
    assert gfix.convergence_diagnostics(trace, CENTER2, 4, 1e-6).passed
    assert not gfix.convergence_diagnostics(packed_run(), CENTER2, 4,
                                            1e-6).passed


def test_diagnostics_margin_is_exact_at_the_tolerance():
    # the largest maximum, as tol, is met with equality: margin 0, a pass;
    # one ulp below it, the margin is exactly the difference
    trace = packed_run(60)
    top = max(gfix.diagnostics_maxima(trace, CENTER2, 4).values())
    at = gfix.convergence_diagnostics(trace, CENTER2, 4, top)
    assert at.passed and at.worst_margin == 0.0
    below = math.nextafter(top, 0.0)
    past = gfix.convergence_diagnostics(trace, CENTER2, 4, below)
    assert not past.passed and past.worst_margin == top - below > 0.0


def test_diagnostics_need_the_trace_points():
    trace = packed_run()
    bare = gfix.IterationTrace(trace.space, trace.alphas, trace.residuals,
                               trace.true_errors, trace.status)
    assert bare != trace
    with pytest.raises(ValueError, match="trace has no points"):
        gfix.diagnostics_maxima(bare, CENTER2, 4)
    with pytest.raises(ValueError, match="trace has no points"):
        gfix.convergence_diagnostics(bare, CENTER2, 4, 1e-6)


def ref_overflowed(p):
    """The guard as a per-coordinate isfinite/abs test."""
    return any(not math.isfinite(c) or abs(c) > 1e150 for c in p)


@pytest.mark.parametrize("value", [
    math.nan, math.inf, -math.inf, OVERFLOW_GUARD, -OVERFLOW_GUARD,
    math.nextafter(OVERFLOW_GUARD, math.inf),
    -math.nextafter(OVERFLOW_GUARD, math.inf), 0.0, -0.0, 1.0])
def test_overflow_guard_matches_reference(value):
    for p in ((value,), (0.5, value), (value, 2.0, -3.0)):
        assert _overflowed(p) == ref_overflowed(p)


def test_per_step_error_factor():
    # linear structure + affine factor k: error contracts by 1 - alpha(1-k)
    k, alpha = 0.4, 0.5
    T = gfix.make_affine_contraction((1.0,), k)
    trace = gfix.run_mann(PERIM1, T, (9.0,), gfix.constant_schedule(alpha),
                          gfix.StoppingRule(max_iters=40, residual_tol=0.0))
    factor = 1.0 - alpha * (1.0 - k)
    errs = trace.true_errors
    for n in range(len(trace) - 1):
        assert errs[n + 1] == pytest.approx(factor * errs[n], rel=1e-12)


def test_stopping_rule_validation():
    for tol in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            gfix.StoppingRule(residual_tol=tol)


def test_run_mann_rejects_point_outside_domain():
    T = gfix.make_affine_contraction((0.0,), 0.5)
    with pytest.raises(gfix.DomainError):
        gfix.run_mann(PERIM1, T, (1.0, 2.0), gfix.constant_schedule(0.5),
                      gfix.StoppingRule())


# --- schedules -----------------------------------------------------------------

def alphas(sched, n):
    """alpha_0 .. alpha_{n-1} as product_bound draws them."""
    return list(map(sched.alpha_at, step_range(sched, n)))


def test_schedule_values_harmonic():
    assert alphas(gfix.harmonic_schedule(), 3) == [1.0, 0.5, 1.0 / 3.0]


def test_schedule_values_constant():
    assert alphas(gfix.constant_schedule(0.5), 2) == [0.5, 0.5]


def test_schedule_values_power():
    sched = gfix.power_schedule(2.0)
    assert alphas(sched, 3) == [1.0, 0.25, 1.0 / 9.0]
    assert sched.divergent_sum is False


def test_power_schedule_past_overflow():
    # (n + 1) ** 400 overflows from n = 5 on; alpha is then the subnormal
    # or zero (n + 1) ** -400 instead of an OverflowError
    values = alphas(gfix.power_schedule(400.0), 13)
    assert values[4] == 1.0 / 5 ** 400.0
    assert 0.0 < values[5] == 6 ** -400.0 < 1e-300
    assert values[6:] == [0.0] * 7
    assert gfix.power_schedule(1e308).alpha_at(1) == 0.0


EXPLICIT_1000 = [1.0 / (k + 2) for k in range(1000)]


@pytest.mark.parametrize("sched, closed_form, divergent", [
    (gfix.constant_schedule(0.3), lambda n: 0.3, True),
    (gfix.harmonic_schedule(), lambda n: 1.0 / (n + 1), True),
    (gfix.power_schedule(0.7), lambda n: 1.0 / (n + 1) ** 0.7, True),
    (gfix.explicit_schedule(EXPLICIT_1000), EXPLICIT_1000.__getitem__, None),
], ids=["constant", "harmonic", "power", "explicit"])
def test_schedule_alphas_match_closed_forms(sched, closed_form, divergent):
    # list equality compares the floats bit for bit (none is NaN or -0)
    assert alphas(sched, 1000) == [closed_form(n)
                                                 for n in range(1000)]
    assert sched.divergent_sum is divergent


def test_divergent_sum_flags():
    assert gfix.constant_schedule(0.5).divergent_sum is True
    assert gfix.constant_schedule(0.0).divergent_sum is False
    assert gfix.harmonic_schedule().divergent_sum is True
    assert gfix.power_schedule(1.0).divergent_sum is True
    assert gfix.power_schedule(1.5).divergent_sum is False
    assert gfix.explicit_schedule([0.5, 0.5]).divergent_sum is None


def test_explicit_schedule_bounds_iteration():
    T = gfix.make_affine_contraction((0.0,), 0.5)
    sched = gfix.explicit_schedule([1.0, 0.5, 0.25])
    trace = gfix.run_mann(PERIM1, T, (1.0,), sched,
                          gfix.StoppingRule(max_iters=100, residual_tol=0.0))
    assert len(trace) <= 4
    # three steps, then the final iterate's row repeats the last alpha
    assert tuple(trace.alphas) == (1.0, 0.5, 0.25, 0.25)
    assert trace.status == "max-iters"


def test_schedule_validation():
    with pytest.raises(ValueError):
        gfix.constant_schedule(1.5)
    for p in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            gfix.power_schedule(p)
    with pytest.raises(ValueError):
        gfix.explicit_schedule([0.5, 2.0])
    with pytest.raises(ValueError):
        alphas(gfix.explicit_schedule([0.5]), 5)
    with pytest.raises(ValueError):
        gfix.product_bound(0.5, gfix.explicit_schedule([0.5]), 5)
