"""The averaged (Mann) iteration x_{n+1} = W(x_n, Tx_n; 1-alpha_n, alpha_n).

Weight convention: ``blend`` weights its FIRST argument by lambda, and
the iteration keeps weight 1-alpha_n on the current iterate, so a step is
blend(x, Tx, 1 - alpha).  alpha = 0 leaves the iterate unchanged;
alpha = 1 is a pure T-step.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from itertools import chain

from .contractions import Mapping
from .convexity import ConvexGSpace
from .core import DomainError, GSpace, Point, Rows, Sized, check_count

OVERFLOW_GUARD = 1e150

STATUS_RESIDUAL = "residual-tol"
STATUS_MAX_ITERS = "max-iters"
STATUS_DIVERGED = "diverged"


class StepSchedule(namedtuple("StepSchedule",
                              "kind alpha_of divergent_sum limit",
                              defaults=(None,))):
    """Step sizes alpha_n in [0,1]; build one with a ``*_schedule`` factory.

    ``alpha_of(n)`` is alpha_n.  ``divergent_sum`` is set analytically per
    kind; for explicit lists it is unknown (None).  ``limit`` is the number
    of steps an explicit schedule can drive; None if unbounded.
    """

    __slots__ = ()

    def alpha_at(self, n: int) -> float:
        return self.alpha_of(n)


def constant_schedule(alpha: float) -> StepSchedule:
    if alpha is None or not 0.0 <= alpha <= 1.0:
        raise ValueError("constant schedule needs alpha in [0, 1]")
    return StepSchedule("constant", lambda n: alpha, alpha > 0)


def harmonic_schedule() -> StepSchedule:
    return StepSchedule("harmonic", lambda n: 1.0 / (n + 1), True)


def power_schedule(p: float) -> StepSchedule:
    if p is None or not math.isfinite(p) or not 0 < p:
        raise ValueError("power schedule needs a finite p > 0")

    def alpha_of(n: int) -> float:
        try:
            return 1.0 / (n + 1) ** p
        except OverflowError:  # the true alpha underflows
            return (n + 1) ** -p
    return StepSchedule("power", alpha_of, p <= 1)


def explicit_schedule(values: Sequence[float]) -> StepSchedule:
    values = tuple(float(v) for v in values)
    if not values:
        raise ValueError("explicit schedule needs at least one value")
    if any(not 0.0 <= a <= 1.0 for a in values):
        raise ValueError("explicit alphas must lie in [0, 1]")
    # clamped so the trace row for the final iterate stays well defined
    return StepSchedule("explicit", lambda n: values[min(n, len(values) - 1)],
                        None, len(values))


def step_range(sched: StepSchedule, n: int) -> range:
    """range(n), once n is a step count that ``sched`` can drive."""
    check_count(n, "n", 0)
    if sched.limit is not None and n > sched.limit:
        raise ValueError(f"explicit schedule has only {sched.limit} values")
    return range(n)


class StoppingRule:
    """Stop after max_iters steps, 1 .. ``core.MAX_COUNT``, or at a
    residual <= residual_tol."""

    __slots__ = ("max_iters", "residual_tol")

    def __init__(self, max_iters: int = 10000, residual_tol: float = 1e-10):
        check_count(max_iters, "max_iters")
        if not 0 <= residual_tol < math.inf:
            raise ValueError("residual_tol must be finite and >= 0")
        self.max_iters, self.residual_tol = max_iters, residual_tol


class IterationTrace:
    """Full record of one run: iterates ``points``, step sizes, residuals
    G(x_n, Tx_n, Tx_n) and, when the fixed point u is known, true errors
    G(x_n, u, u).  The columns are parallel; entry n describes x_n.
    ``run_mann`` gives each as a ``core.Sized`` over one row store, the
    points read from its first ``space.dim`` columns, and records the
    mapping's ``fixed_point``; a hand-built trace may leave them None.
    Two traces are equal when all fields are."""

    __slots__ = ("space", "alphas", "residuals", "true_errors", "status",
                 "points", "fixed_point")

    def __init__(self, space: GSpace, alphas: Sequence[float],
                 residuals: Sequence[float],
                 true_errors: Sequence[float] | None, status: str,
                 points: Sequence[Point] | None = None,
                 fixed_point: Point | None = None):
        self.space, self.alphas, self.residuals = space, alphas, residuals
        self.true_errors, self.status = true_errors, status
        self.points, self.fixed_point = points, fixed_point

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ([getattr(self, f) for f in self.__slots__]
                == [getattr(other, f) for f in self.__slots__])

    def __len__(self) -> int:
        return len(self.alphas)


def _overflowed(p: Point) -> bool:
    """Some coordinate is NaN, infinite or beyond the overflow guard."""
    return not all(map(OVERFLOW_GUARD.__ge__, map(abs, p)))


def run_mann(cs: ConvexGSpace, T: Mapping, x0: Point, sched: StepSchedule,
             stop: StoppingRule, on_spill=None) -> IterationTrace:
    """Iterate until a stopping criterion fires; fully deterministic.

    A diverging iterate (any coordinate beyond the overflow guard) or a
    non-finite residual or true error ends the run with a divergence
    status instead of raising; that row is still recorded.  Rows of
    x_n, alpha_n, the residual and the true error (0 when the fixed point
    is unknown) go to one ``core.Rows``, with ``on_spill`` when given.
    """
    space = cs.space
    if not space.contains(x0):
        raise DomainError(f"{x0!r} is not in the domain of {space.name}")
    g = space.g
    u = T.fixed_point
    max_iters = stop.max_iters
    if sched.limit is not None:
        max_iters = min(max_iters, sched.limit)

    dim = space.dim
    rows = Rows(dim + 3, on_spill)
    apply, blend, add = T.apply, cs.w.blend, rows.add
    x = tuple(float(c) for c in x0)
    for n in range(max_iters + 1):
        tx = apply(x)
        residual = g(x, tx, tx)
        error = g(x, u, u) if u is not None else 0.0
        alpha = sched.alpha_at(n)
        add((*x, alpha, residual, error))
        if not (math.isfinite(residual) and math.isfinite(error)):
            status = STATUS_DIVERGED
            break
        if residual <= stop.residual_tol:
            status = STATUS_RESIDUAL
            break
        if n == max_iters:
            status = STATUS_MAX_ITERS
            break
        x_next = blend(x, tx, 1.0 - alpha)
        if _overflowed(x_next):
            status = STATUS_DIVERGED
            break
        x = x_next

    return IterationTrace(
        space, rows.column(dim), rows.column(dim + 1),
        rows.column(dim + 2) if u is not None else None, status,
        Sized(len(rows), lambda a, b: chain.from_iterable(
            zip(*block) for block in rows.read(a, b, range(dim)))), u)
