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
from dataclasses import dataclass
from typing import List, Optional

from .core import CheckReport, Point, evaluate, le
from .mann import IterationTrace, StepSchedule, schedule_values

_LOGSPACE_TRIGGER = 1e-8  # switch to log accumulation below this factor


@dataclass(frozen=True)
class RateBound:
    """Per-step factors 1 - alpha_k*(1-delta) and cumulative products
    B_0 .. B_n."""

    delta: float
    factors: tuple
    products: tuple


def _cumulative(factors: List[float], log_space: Optional[bool]) -> List[float]:
    if log_space is None:
        log_space = any(f < _LOGSPACE_TRIGGER for f in factors)
    products = [1.0]
    if not log_space:
        b = 1.0
        for f in factors:
            b *= f
            products.append(b)
        return products
    # log accumulation survives underflow over very long schedules
    log_b = 0.0
    dead = False
    for f in factors:
        if dead or f == 0.0:
            dead = True
            products.append(0.0)
            continue
        log_b += math.log(f)
        products.append(math.exp(log_b))
    return products


def product_bound(delta: float, sched: StepSchedule, n: int,
                  log_space: Optional[bool] = None) -> RateBound:
    """B_0 .. B_n for the given factor and schedule.

    ``log_space`` forces or forbids log accumulation; the default picks
    automatically when some factor drops below 1e-8.
    """
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"delta must be in [0, 1), got {delta}")
    if n < 0:
        raise ValueError("n must be >= 0")
    alphas = schedule_values(sched, n) if n >= 1 else []
    factors = [1.0 - a * (1.0 - delta) for a in alphas]
    return RateBound(delta=delta, factors=tuple(factors),
                     products=tuple(_cumulative(factors, log_space)))


@dataclass(frozen=True)
class BoundReport:
    """Per-step slack B_n*G(x_0,u,u) - G(x_n,u,u)."""

    slacks: tuple
    min_slack: float
    holds: bool
    first_violation: Optional[int]


def trace_products(trace: IterationTrace, delta: float) -> tuple:
    """B_0 .. B_{len(trace)-1} recomputed from the trace's own recorded
    step sizes, so B_n pairs with the recorded x_n."""
    if not 0.0 <= delta < 1.0:
        raise ValueError(
            f"delta must be in [0, 1) for a non-vacuous bound, got {delta}")
    factors = [1.0 - a * (1.0 - delta) for a in trace.alphas[:len(trace) - 1]]
    return tuple(_cumulative(factors, None))


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
    products = trace_products(trace, delta)
    slacks = []
    min_slack = math.inf
    first_violation = None
    for n, err in enumerate(errors):
        slack = products[n] * e0 - err
        slacks.append(slack)
        if slack < min_slack:
            min_slack = slack
        if slack < -tol and first_violation is None:
            first_violation = n
    return BoundReport(slacks=tuple(slacks), min_slack=min_slack,
                       holds=min_slack >= -tol,
                       first_violation=first_violation)


def diagnostics_maxima(trace: IterationTrace, limit: Point,
                       tail: int) -> dict:
    """Maxima of the three convergence criteria families over the last
    ``tail`` iterates: G(x_n,x_n,x), G(x_n,x,x) and pairwise G(x_m,x_n,x)."""
    if tail < 1 or tail > len(trace):
        raise ValueError("tail must be in 1..len(trace)")
    g = trace.space.g
    pts = trace.points[-tail:]
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
    return evaluate(maxima.items(), criterion, tol)
