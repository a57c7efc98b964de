"""Convex structures on G-metric spaces.

The two-point structure W(x,y; lam, 1-lam) must satisfy

    G(W(x,y;lam,beta), u, v) <= lam*G(x,u,v) + beta*G(y,u,v)

for all u, v and lam + beta = 1.  Only lam is stored; beta is always
derived, so the lam + beta = 1 constraint cannot be violated.

A three-point comparison structure W(x,y,z; lam) with the weaker bound
(lam/3 on each of the three terms) is included as a checker only: as
lam -> 0 its right-hand side vanishes while the left stays positive for
u != v, so no total structure can satisfy it at small lam.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from .core import (CheckReport, DomainError, GSpace, Point, SamplePlan,
                   evaluate, le_tol, sample_tuples)


@dataclass(frozen=True)
class ConvexStructure:
    """Two-point combinator; ``blend(x, y, lam)`` weights x by lam."""

    name: str
    blend: Callable[[Point, Point, float], Point]


@dataclass(frozen=True)
class ModiStructure:
    """Three-point combinator used by the comparison checker."""

    name: str
    blend3: Callable[[Point, Point, Point, float], Point]


@dataclass(frozen=True)
class ConvexGSpace:
    space: GSpace
    w: ConvexStructure


def linear_interpolation() -> ConvexStructure:
    """Coordinatewise lam*x + (1-lam)*y; the canonical structure for the
    Euclidean-derived spaces."""
    def blend(x: Point, y: Point, lam: float) -> Point:
        b = 1.0 - lam
        return tuple(lam * a + b * c for a, c in zip(x, y))
    return ConvexStructure("linear", blend)


def centroid_structure() -> ModiStructure:
    """(x+y+z)/3 regardless of lam; a natural three-point candidate."""
    def blend3(x: Point, y: Point, z: Point, lam: float) -> Point:
        return tuple((a + b + c) / 3.0 for a, b, c in zip(x, y, z))
    return ModiStructure("centroid", blend3)


def combine(cs: ConvexGSpace, x: Point, y: Point, lam: float) -> Point:
    """W(x, y; lam, 1-lam) with input validation."""
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"lambda must be in [0, 1], got {lam}")
    for p in (x, y):
        if not cs.space.contains(p):
            raise DomainError(f"{p!r} is not in the domain of {cs.space.name}")
    return cs.w.blend(x, y, lam)


# every sampled tuple is also checked at these weights; endpoint behavior
# is where candidate structures usually break
_LAMBDA_ANCHORS = (0.0, 0.5, 1.0)
_LAMBDA_ANCHORS_OPEN = (0.01, 0.5, 1.0)


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

    tuples = sample_tuples(cs.space, plan, 4, structured,
                           lambda s: (s.uniform(),) + _LAMBDA_ANCHORS)
    return evaluate(tuples, convexity, tol)


def check_modi_convexity(space: GSpace, m: ModiStructure, plan: SamplePlan,
                         tol: float = 1e-9) -> CheckReport:
    """Sampled verification of the three-point comparison inequality with
    lam drawn from (0, 1]."""
    g = space.g

    def modi_convexity(x, y, z, u, v, lams):
        total = sum((g(u, v, x), g(u, v, y), g(u, v, z)))
        for lam in lams:
            yield (le_tol, "modi-convexity", (x, y, z, u, v, lam),
                   g(u, v, m.blend3(x, y, z, lam)), (lam / 3.0) * total)

    def structured(pts):
        return ((x, y, z, pts[0], pts[-1], _LAMBDA_ANCHORS_OPEN)
                for x, y, z in zip(pts, pts[1:], pts[2:]))

    def weights(s):
        return (1.0 - s.uniform(),) + _LAMBDA_ANCHORS_OPEN  # lam in (0, 1]

    tuples = sample_tuples(space, plan, 5, structured, weights)
    return evaluate(tuples, modi_convexity, tol)
