"""Cumulative product bounds, trace verification and convergence diagnostics.

For applicable coefficient regions the error of the averaged iteration
contracts per step by 1 - alpha_n*(1-delta), where delta is the
condition's derived factor (``contractions.check_applicability``).  B_n
is the product of those factors over steps 0..n-1 (B_0 = 1), a sum of
their logs throughout where the first is below 1e-8 (``_chain``), so B_n
pairs with iterate x_n and

    G(x_n, u, u) <= B_n * G(x_0, u, u).
"""

from __future__ import annotations

import math
import operator
from array import array
from collections import namedtuple
from collections.abc import Callable, Iterable
from itertools import accumulate, islice, repeat

from .core import CheckReport, Point, Rows, Sized, evaluate, le, le_tol
from .mann import IterationTrace, StepSchedule, step_range

_LOGSPACE_TRIGGER = 1e-8  # a chain whose first factor is below it sums logs
_FLOOR_ULPS = 4  # ulps per coordinate of u in the rounding floor of e_n


RateBound = namedtuple("RateBound", "factors products alphas")
RateBound.__doc__ = """Step sizes alpha_0 .. alpha_{n-1}, per-step factors
    1 - alpha_k*(1-delta) and cumulative products B_0 .. B_n, each a
    ``core.Sized`` over the rate chain's rows."""


def _chain(alphas, delta: float, state: tuple | None = None) -> tuple:
    """Factors f_k = 1 - a_k*(1-delta) of ``alphas``, each row's B (the
    product of the factors before its own) and the state (B, log B) after
    them that the next block continues from: a block of the chain that
    ``_rate_chain`` and ``cli._Writer`` run.  The first block (``state``
    None) picks the mode from the first factor: below 1e-8 the chain sums
    logs throughout, from log B_0 = 0, so B survives underflow; else it
    multiplies throughout, and log B is None."""
    c = 1.0 - delta
    factors = array("d", (1.0 - a * c for a in alphas))
    b, log_b = state or (1.0, None)
    if state is None and factors and factors[0] < _LOGSPACE_TRIGGER:
        log_b = 0.0
    if log_b is None:
        products = array("d", accumulate(factors, operator.mul, initial=b))
    else:
        logs = list(accumulate([math.log(f) if f else -math.inf
                                for f in factors], initial=log_b))
        products, log_b = array("d", map(math.exp, logs)), logs[-1]
    return factors, products[:-1], (products[-1], log_b)


def _rate_chain(delta: float,
                step_sizes: Callable[[], Iterable[float]]) -> Rows:
    """Rows (alpha_n, factor_n, B_n) for n = 0 .. len(alphas), alpha and
    factor NaN in the last row, from delta and the alphas
    ``step_sizes()``, read once, 1024 at a time, through ``_chain``.
    ``step_sizes`` is called once delta has passed, so a bad delta is
    reported ahead of any schedule error."""
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"delta must be in [0, 1), got {delta}")
    alphas, rows, state = iter(step_sizes()), Rows(3), None
    while chunk := array("d", islice(alphas, 1024)):
        factors, products, state = _chain(chunk, delta, state)
        values = array("d", [0.0]) * (3 * len(chunk))
        values[0::3], values[1::3], values[2::3] = chunk, factors, products
        rows.add(values)
    rows.add((math.nan, math.nan, state[0] if state else 1.0))
    return rows


def product_bound(delta: float, sched: StepSchedule, n: int) -> RateBound:
    """B_0 .. B_n for the given factor and schedule, in log space only
    where the first factor is below 1e-8 (``_chain``)."""
    rows = _rate_chain(delta, lambda: map(sched.alpha_at,
                                          step_range(sched, n)))
    return RateBound(factors=rows.column(1)[:-1], products=rows.column(2),
                     alphas=rows.column(0)[:-1])


BoundReport = namedtuple("BoundReport", "slacks min_slack holds bounds")
BoundReport.__doc__ = """Per-step bound B_n*G(x_0,u,u) and slack bound -
    G(x_n,u,u), each a ``core.Sized`` view that multiplies and subtracts
    as it is read; a NaN slack makes ``min_slack`` NaN and fails."""


def trace_products(trace: IterationTrace, delta: float) -> Sized:
    """The chain's B_0 .. B_{len(trace)-1}, from the trace's own recorded
    step sizes, so B_n pairs with the recorded x_n."""
    return _rate_chain(delta, lambda: trace.alphas[:len(trace) - 1]).column(2)


def verify_bound(trace: IterationTrace, delta: float,
                 tol: float = 1e-9) -> BoundReport:
    """Check the cumulative bound against a trace's true errors e_n.

    A step fails where its slack is NaN or below -(tol*max(1, bound_n)
    + floor): ``core.le_tol``'s rule for e_n <= bound_n, as rounding in
    B_n*e_0 grows with the bound, plus a floor for e_n, which rounding
    keeps from reaching 0.  The floor is G(u, v, v), v the trace's
    ``fixed_point`` u moved 4 ulps toward 0 per coordinate, or 0 where u
    is None.  A step's blend rounds its two products and its sum, and T
    rounds once more, each by up to half an ulp near u: so x_n can stop
    2 ulps from u, where a step of less than that is rounded away, and
    the floor takes twice that.  Only a ``min_slack`` below -(tol +
    floor) reads the rule.

    Raises for delta >= 1: a non-contracting factor makes any `holds`
    verdict meaningless, and for a ``tol`` that is not finite and >= 0:
    an infinite one passes any slack, a NaN one fails every slack.
    """
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    errors = trace.true_errors
    if errors is None:
        raise ValueError("trace has no true errors (fixed point unknown)")
    u, floor = trace.fixed_point, 0.0
    if u is not None:
        # toward 0, so that v stays finite
        v = tuple(c - math.copysign(_FLOOR_ULPS * math.ulp(c), c) for c in u)
        floor = trace.space.g(u, v, v)
    products, e0 = trace_products(trace, delta), errors[0]
    bounds = Sized(len(products), lambda a, b: map(
        operator.mul, products[a:b], repeat(e0)))
    slacks = Sized(len(products), lambda a, b: map(
        operator.sub, bounds[a:b], errors[a:b]))
    # min() passes over a NaN slack; a NaN must fail the bound instead
    min_slack = math.nan if any(map(math.isnan, slacks)) else min(slacks)
    holds = min_slack >= -tol - floor or (min_slack < -tol - floor and max(
        map(le_tol, errors, bounds, repeat(tol))) <= floor)
    return BoundReport(slacks, min_slack, holds, bounds)


def diagnostics_maxima(trace: IterationTrace, limit: Point,
                       tail: int) -> dict:
    """Maxima of G(x_n,x_n,x), G(x_n,x,x) and G(x_m,x_n,x) over the last
    ``tail`` of ``trace.points``, read once: a view reads only their rows."""
    if tail < 1 or tail > len(trace):
        raise ValueError("tail must be in 1..len(trace)")
    if trace.points is None:
        raise ValueError("trace has no points")
    g = trace.space.g
    pts = tuple(trace.points[-tail:])
    return {
        "self-pair": max(g(p, p, limit) for p in pts),
        "limit-pair": max(g(p, limit, limit) for p in pts),
        "cross": max(g(p, q, limit) for p in pts for q in pts),
    }


def convergence_diagnostics(trace: IterationTrace, limit: Point, tail: int,
                            tol: float) -> CheckReport:
    """Check that all three (equivalent) convergence criteria fall below
    tol over the trace tail."""
    def criterion(family, value):
        yield le, f"conv-{family}", (limit,), value, tol

    return evaluate(list(diagnostics_maxima(trace, limit, tail).items()),
                    criterion, tol)
