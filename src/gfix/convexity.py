"""Convex structures on G-metric spaces.

The two-point structure W(x,y; lam, 1-lam) must satisfy

    G(W(x,y;lam,beta), u, v) <= lam*G(x,u,v) + beta*G(y,u,v)

for all u, v and lam + beta = 1.  Only lam is stored; beta is always
derived, so the lam + beta = 1 constraint cannot be violated.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass

from .core import (CheckReport, GSpace, Point, SamplePlan, evaluate, le_tol,
                   sample_tuples)


@dataclass(frozen=True)
class ConvexStructure:
    """Two-point combinator; ``blend(x, y, lam)`` weights x by lam."""

    blend: Callable[[Point, Point, float], Point]


@dataclass(frozen=True)
class ConvexGSpace:
    space: GSpace
    w: ConvexStructure


def linear_interpolation() -> ConvexStructure:
    """Coordinatewise lam*x + (1-lam)*y; the canonical structure for the
    Euclidean-derived spaces."""
    def blend(x: Point, y: Point, lam: float) -> Point:
        b = 1.0 - lam
        return tuple([lam * a + b * c for a, c in zip(x, y)])
    return ConvexStructure(blend)


# every sampled tuple is also checked at these weights; endpoint behavior
# is where candidate structures usually break
_LAMBDA_ANCHORS = (0.0, 0.5, 1.0)


def check_convexity(cs: ConvexGSpace, plan: SamplePlan,
                    tol: float = 1e-9) -> CheckReport:
    """Sampled verification of the two-point convexity inequality."""
    g = cs.space.g
    blend = cs.w.blend

    def convexity(x, y, u, v, lams):
        gx = g(x, u, v)
        gy = g(y, u, v)
        for lam in lams:
            yield (le_tol, "convexity", (x, y, u, v, lam),
                   g(blend(x, y, lam), u, v), lam * gx + (1.0 - lam) * gy)

    def structured(pts):
        for x, y in itertools.combinations(pts, 2):
            for u, v in ((x, y), (y, x), (x, x), (pts[0], pts[-1])):
                yield x, y, u, v, _LAMBDA_ANCHORS

    return evaluate(sample_tuples(cs.space, plan, structured,
                                  lambda lam: (lam,) + _LAMBDA_ANCHORS),
                    convexity, tol)

