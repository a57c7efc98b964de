"""The averaged (Mann) iteration x_{n+1} = W(x_n, Tx_n; 1-alpha_n, alpha_n).

Weight convention: ``blend`` weights its FIRST argument by lambda, and
the iteration keeps weight 1-alpha_n on the current iterate, so a step is
blend(x, Tx, 1 - alpha).  alpha = 0 leaves the iterate unchanged;
alpha = 1 is a pure T-step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from .contractions import Mapping
from .convexity import ConvexGSpace
from .core import DomainError, GSpace, Point

OVERFLOW_GUARD = 1e150

STATUS_RESIDUAL = "residual-tol"
STATUS_MAX_ITERS = "max-iters"
STATUS_DIVERGED = "diverged"


@dataclass(frozen=True)
class StepSchedule:
    """Step sizes alpha_n in [0,1].

    kinds: ``constant`` (alpha), ``harmonic`` (1/(n+1)), ``power``
    (1/(n+1)**p), ``explicit`` (a finite list).  ``divergent_sum`` is set
    analytically per kind; for explicit lists it is unknown (None).
    """

    kind: str
    alpha: Optional[float] = None
    p: Optional[float] = None
    values: Optional[tuple] = None

    def __post_init__(self):
        if self.kind == "constant":
            if self.alpha is None or not 0.0 <= self.alpha <= 1.0:
                raise ValueError("constant schedule needs alpha in [0, 1]")
        elif self.kind == "harmonic":
            pass
        elif self.kind == "power":
            if self.p is None or not math.isfinite(self.p) or not 0 < self.p:
                raise ValueError("power schedule needs a finite p > 0")
        elif self.kind == "explicit":
            if not self.values:
                raise ValueError("explicit schedule needs at least one value")
            if any(not 0.0 <= a <= 1.0 for a in self.values):
                raise ValueError("explicit alphas must lie in [0, 1]")
        else:
            raise ValueError(f"unknown schedule kind {self.kind!r}")

    @property
    def divergent_sum(self) -> Optional[bool]:
        if self.kind == "constant":
            return self.alpha > 0
        if self.kind == "harmonic":
            return True
        if self.kind == "power":
            return self.p <= 1
        return None

    def alpha_at(self, n: int) -> float:
        if self.kind == "constant":
            return self.alpha
        if self.kind == "harmonic":
            return 1.0 / (n + 1)
        if self.kind == "power":
            try:
                return 1.0 / (n + 1) ** self.p
            except OverflowError:  # the true alpha underflows
                return (n + 1) ** -self.p
        # clamped so the trace row for the final iterate stays well defined
        return self.values[min(n, len(self.values) - 1)]

    def limit(self) -> Optional[int]:
        """Number of steps an explicit schedule can drive; None if unbounded."""
        return len(self.values) if self.kind == "explicit" else None


def constant_schedule(alpha: float) -> StepSchedule:
    return StepSchedule(kind="constant", alpha=alpha)


def harmonic_schedule() -> StepSchedule:
    return StepSchedule(kind="harmonic")


def power_schedule(p: float) -> StepSchedule:
    return StepSchedule(kind="power", p=p)


def explicit_schedule(values: Sequence[float]) -> StepSchedule:
    return StepSchedule(kind="explicit", values=tuple(float(v) for v in values))


def schedule_values(sched: StepSchedule, n: int) -> List[float]:
    """The first n step sizes alpha_0 .. alpha_{n-1}."""
    if n < 0:
        raise ValueError("n must be >= 0")
    lim = sched.limit()
    if lim is not None and n > lim:
        raise ValueError(f"explicit schedule has only {lim} values")
    return [sched.alpha_at(k) for k in range(n)]


@dataclass(frozen=True)
class StoppingRule:
    max_iters: int = 10000
    residual_tol: float = 1e-10

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0 <= self.residual_tol < math.inf:
            raise ValueError("residual_tol must be finite and >= 0")


@dataclass(frozen=True)
class IterationTrace:
    """Full record of one run: points, step sizes, residuals
    G(x_n, Tx_n, Tx_n) and, when the fixed point is known, true errors
    G(x_n, u, u).  The lists are parallel; entry n describes x_n."""

    space: GSpace
    points: tuple
    alphas: tuple
    residuals: tuple
    true_errors: Optional[tuple]
    status: str

    def __len__(self) -> int:
        return len(self.points)


def _overflowed(p: Point) -> bool:
    return any(not math.isfinite(c) or abs(c) > OVERFLOW_GUARD for c in p)


def run_mann(cs: ConvexGSpace, T: Mapping, x0: Point, sched: StepSchedule,
             stop: StoppingRule) -> IterationTrace:
    """Iterate until a stopping criterion fires; fully deterministic.

    A diverging iterate (any coordinate beyond the overflow guard) ends
    the run with a divergence status instead of raising.
    """
    space = cs.space
    if not space.contains(x0):
        raise DomainError(f"{x0!r} is not in the domain of {space.name}")
    g = space.g
    u = T.fixed_point
    max_iters = stop.max_iters
    lim = sched.limit()
    if lim is not None:
        max_iters = min(max_iters, lim)

    points, alphas, residuals = [], [], []
    errors = [] if u is not None else None
    x = tuple(float(c) for c in x0)
    for n in range(max_iters + 1):
        tx = T.apply(x)
        residual = g(x, tx, tx)
        points.append(x)
        alphas.append(sched.alpha_at(n))
        residuals.append(residual)
        if errors is not None:
            errors.append(g(x, u, u))
        if residual <= stop.residual_tol:
            status = STATUS_RESIDUAL
            break
        if n == max_iters:
            status = STATUS_MAX_ITERS
            break
        x_next = cs.w.blend(x, tx, 1.0 - alphas[-1])
        if _overflowed(x_next):
            status = STATUS_DIVERGED
            break
        x = x_next

    return IterationTrace(
        space=space,
        points=tuple(points),
        alphas=tuple(alphas),
        residuals=tuple(residuals),
        true_errors=tuple(errors) if errors is not None else None,
        status=status,
    )
