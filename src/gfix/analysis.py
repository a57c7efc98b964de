"""Cumulative product bounds, trace verification and convergence diagnostics.

For applicable coefficient regions the error of the averaged iteration
contracts per step by 1 - alpha_n*(1-delta), where delta is the
condition's derived factor (``contractions.check_applicability``).  B_n
is the product of those factors over steps 0..n-1 (B_0 = 1), so B_n
pairs with iterate x_n and

    G(x_n, u, u) <= B_n * G(x_0, u, u).
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Sequence

from .core import CheckReport, Point, evaluate, le
from .mann import IterationTrace, StepSchedule, step_range

_LOGSPACE_TRIGGER = 1e-8  # switch to log accumulation below this factor


@dataclass(frozen=True)
class RateBound:
    """Step sizes alpha_0 .. alpha_{n-1}, per-step factors
    1 - alpha_k*(1-delta) and cumulative products B_0 .. B_n, each an
    ``array("d")``."""

    factors: array
    products: array
    alphas: array


def _rate_chain(delta: float,
                step_sizes: Callable[[], Sequence[float]]) -> RateBound:
    """The chain from delta and the alphas ``step_sizes()`` to factors
    and products.  ``step_sizes`` is called only once delta has passed,
    so a bad delta is reported ahead of any schedule error."""
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"delta must be in [0, 1), got {delta}")
    alphas = array("d", step_sizes())
    factors = array("d", (1.0 - a * (1.0 - delta) for a in alphas))
    if min(factors, default=1.0) < _LOGSPACE_TRIGGER:
        # log accumulation survives the underflow such factors cause;
        # a zero factor sends log B to -inf, so every later B_n is 0
        products = array("d", [1.0])
        log_b = 0.0
        for f in factors:
            log_b = log_b + math.log(f) if f else -math.inf
            products.append(math.exp(log_b))
    else:
        products = array("d", accumulate(factors, operator.mul, initial=1.0))
    return RateBound(factors=factors, products=products, alphas=alphas)


def product_bound(delta: float, sched: StepSchedule, n: int) -> RateBound:
    """B_0 .. B_n for the given factor and schedule, accumulated in log
    space when some factor drops below 1e-8."""
    return _rate_chain(delta, lambda: map(sched.alpha_at,
                                          step_range(sched, n)))


@dataclass(frozen=True)
class BoundReport:
    """Per-step bound B_n*G(x_0,u,u) and slack bound - G(x_n,u,u), each
    an ``array("d")``; a NaN slack makes ``min_slack`` NaN."""

    slacks: array
    min_slack: float
    holds: bool
    bounds: array


def trace_products(trace: IterationTrace, delta: float) -> array:
    """B_0 .. B_{len(trace)-1} recomputed from the trace's own recorded
    step sizes, so B_n pairs with the recorded x_n."""
    return _rate_chain(delta, lambda: trace.alphas[:len(trace) - 1]).products


def verify_bound(trace: IterationTrace, delta: float,
                 tol: float = 1e-9) -> BoundReport:
    """Check the cumulative bound against a trace's true errors.

    Raises for delta >= 1: a non-contracting factor makes any `holds`
    verdict meaningless.
    """
    if trace.true_errors is None:
        raise ValueError("trace has no true errors (fixed point unknown)")
    errors = trace.true_errors
    e0 = errors[0]
    bounds = array("d", (b * e0 for b in trace_products(trace, delta)))
    slacks = array("d", map(operator.sub, bounds, errors))
    # min() passes over a NaN slack; a NaN must fail the bound instead
    min_slack = math.nan if any(map(math.isnan, slacks)) else min(slacks)
    return BoundReport(slacks=slacks, min_slack=min_slack,
                       holds=min_slack >= -tol, bounds=bounds)


def diagnostics_maxima(trace: IterationTrace, limit: Point,
                       tail: int) -> dict:
    """Maxima of the three convergence criteria families over the last
    ``tail`` iterates: G(x_n,x_n,x), G(x_n,x,x) and pairwise G(x_m,x_n,x)."""
    if tail < 1 or tail > len(trace):
        raise ValueError("tail must be in 1..len(trace)")
    g = trace.space.g
    pts = trace.last_points(tail)
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

    maxima = diagnostics_maxima(trace, limit, tail)
    return evaluate(maxima.items, criterion, tol)
