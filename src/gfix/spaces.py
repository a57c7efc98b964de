"""Bundled G-metric spaces.

Two Euclidean-derived constructions carry a linear convex structure:

* perimeter: G(x,y,z) = d(x,y) + d(y,z) + d(x,z)
* max:       G(x,y,z) = max{d(x,y), d(y,z), d(x,z)}

The sign-based space on the nonzero reals adds 1 whenever the three
arguments do not all share a sign.  Its domain is not convex (0 is
excluded), so it ships without a convex structure.
"""

from __future__ import annotations

import math

from .convexity import ConvexGSpace, linear_interpolation
from .core import GSpace, Point, box_draw, nonzero_draw

_DEFAULT_HALF_WIDTH = 10.0


def _euclid_contains(dim: int):
    def contains(p: Point) -> bool:
        return len(p) == dim and all(map(math.isfinite, p))
    return contains


def _default_box(dim: int):
    return ((-_DEFAULT_HALF_WIDTH, _DEFAULT_HALF_WIDTH),) * dim


def _euclidean_space(name: str, dim: int, g) -> ConvexGSpace:
    """``name-dim`` on R^dim with the given G and linear interpolation."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    space = GSpace(name=f"{name}-{dim}", dim=dim, g=g, draw=box_draw,
                   contains=_euclid_contains(dim),
                   default_box=_default_box(dim))
    return ConvexGSpace(space, linear_interpolation())


def make_perimeter_space(dim: int) -> ConvexGSpace:
    """Sum-of-pairwise-distances G-metric with linear interpolation."""
    dist = math.dist

    def g(x: Point, y: Point, z: Point) -> float:
        return dist(x, y) + dist(y, z) + dist(x, z)

    return _euclidean_space("perimeter", dim, g)


def make_max_space(dim: int) -> ConvexGSpace:
    """Max-of-pairwise-distances G-metric with linear interpolation."""
    dist = math.dist

    def g(x: Point, y: Point, z: Point) -> float:
        return max(dist(x, y), dist(y, z), dist(x, z))

    return _euclidean_space("max", dim, g)


def make_sign_example_space() -> GSpace:
    """The sign-based G-metric on the nonzero reals.

    Same-sign triples get the perimeter value; mixed-sign triples get an
    extra +1.  No convex structure: the domain excludes 0.
    """
    def g(x: Point, y: Point, z: Point) -> float:
        a, b, c = x[0], y[0], z[0]
        base = abs(a - b) + abs(b - c) + abs(a - c)
        if (a > 0 and b > 0 and c > 0) or (a < 0 and b < 0 and c < 0):
            return base
        return 1.0 + base

    def contains(p: Point) -> bool:
        return len(p) == 1 and math.isfinite(p[0]) and p[0] != 0

    return GSpace(name="sign-example", dim=1, g=g, draw=nonzero_draw,
                  contains=contains, default_box=_default_box(1))


class UnknownSpaceError(ValueError):
    """Catalog key does not resolve to a bundled space."""


def get_space(key: str):
    """Resolve a catalog key: ``perimeter-<dim>``, ``max-<dim>`` or
    ``sign-example``, dim in ASCII digits without a leading zero.  Returns
    a ConvexGSpace, or a bare GSpace for the sign example."""
    if key == "sign-example":
        return make_sign_example_space()
    for prefix, maker in (("perimeter-", make_perimeter_space),
                          ("max-", make_max_space)):
        if key.startswith(prefix):
            digits = key[len(prefix):]
            if not (digits.isascii() and digits.isdigit()) or digits[0] == "0":
                raise UnknownSpaceError(f"bad dimension in space key {key!r}")
            return maker(int(digits))
    raise UnknownSpaceError(f"unknown space key {key!r}")
