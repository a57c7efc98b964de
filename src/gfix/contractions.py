"""Contractive conditions on mappings of a G-metric space.

Each condition bounds G(Tx,Ty,Tz) by a weighted combination of G-values
of the arguments and their self-displacements G(p,Tp,Tp).  The checker
verifies a condition on sampled triples.  It applies T once per point
and builds both sides from those images; since the conditions are
stated for a self-map, an image outside the domain is a DomainError.
This module is also the one home of the rate theory: one row per
condition kind in ``_ROWS`` gives its coefficient names, its right-hand
side, the region where a convergence rate for the averaged iteration is
available and, inside it, the per-step factor delta.  A delta >= 1 is
flagged vacuous: the product bound no longer contracts.
"""

from __future__ import annotations

import enum
import math
import operator
from collections import namedtuple
from collections.abc import Callable
from dataclasses import dataclass

from .core import (CheckReport, DomainError, GSpace, Point, SamplePlan,
                   evaluate, le_tol, sample_quads)


class ConditionKind(enum.Enum):
    FOUR_TERM = "four-term"          # a*G(x,y,z) + b,c,d on G(p,Tp,Tp)
    FOUR_TERM_ALT = "four-term-alt"  # same but with G(p,p,Tp) displacements
    SUM = "sum"                      # a*G(x,y,z) + b * sum of displacements
    MAX = "max"                      # a*G(x,y,z) + b * max of displacements
    THREE_TERM = "three-term"        # a,b,c on the three displacements
    K_SUM = "k-sum"                  # k * sum of displacements


# One condition kind.  ``w`` maps coefficient names to values;
# ``rhs(w, g, x, y, z, dx, dy, dz)`` is the right-hand side from G and
# the displacements; every ``region(w)`` residual must be > 0 for
# ``delta(w)`` to be the per-step factor.
_Row = namedtuple("_Row", "names rhs region delta")

_FOUR_TERM = _Row(
    ("a", "b", "c", "d"),
    lambda w, g, x, y, z, dx, dy, dz: (w["a"] * g(x, y, z) + w["b"] * dx
                                       + w["c"] * dy + w["d"] * dz),
    lambda w: {"1-(a+3b)": 1.0 - (w["a"] + 3.0 * w["b"]),
               "1-2b": 1.0 - 2.0 * w["b"]},
    lambda w: (w["a"] + w["b"]) / (1.0 - 2.0 * w["b"]))

_SUM = _Row(
    ("a", "b"),
    lambda w, g, x, y, z, dx, dy, dz: (w["a"] * g(x, y, z)
                                       + w["b"] * (dx + dy + dz)),
    lambda w: {"a+3b": w["a"] + 3.0 * w["b"],
               "1-(a+3b)": 1.0 - (w["a"] + 3.0 * w["b"])},
    lambda w: (w["a"] + w["b"]) / (1.0 - 2.0 * w["b"]))

_ROWS = {
    ConditionKind.FOUR_TERM: _FOUR_TERM,
    # at the fixed point u, G(x,x,Tx) <= G(Tx,u,u) + G(u,x,x) (rectangle)
    # and G(u,x,x) <= 2 G(x,u,u); the same region gives delta < 1
    ConditionKind.FOUR_TERM_ALT: _FOUR_TERM._replace(
        delta=lambda w: (w["a"] + 2.0 * w["b"]) / (1.0 - w["b"])),
    ConditionKind.SUM: _SUM,
    ConditionKind.MAX: _SUM._replace(
        rhs=lambda w, g, x, y, z, dx, dy, dz: (
            w["a"] * g(x, y, z) + w["b"] * max(dx, dy, dz))),
    ConditionKind.THREE_TERM: _Row(
        ("a", "b", "c"),
        lambda w, g, x, y, z, dx, dy, dz: (w["a"] * dx + w["b"] * dy
                                           + w["c"] * dz),
        lambda w: {"1-(a+b+c)": 1.0 - (w["a"] + w["b"] + w["c"]),
                   "1/2-a": 0.5 - w["a"]},
        lambda w: w["a"] / (1.0 - 2.0 * w["a"])),
    ConditionKind.K_SUM: _Row(
        ("k",),
        lambda w, g, x, y, z, dx, dy, dz: w["k"] * (dx + dy + dz),
        lambda w: {"k": w["k"], "1/3-k": 1.0 / 3.0 - w["k"]},
        lambda w: w["k"] / (1.0 - 2.0 * w["k"])),
}


class ContractionSpec:
    """A condition kind and its coefficients, each finite and >= 0."""

    __slots__ = ("kind", "coefficients")

    def __init__(self, kind: ConditionKind, coefficients: dict[str, float]):
        names = _ROWS[kind].names
        got = tuple(sorted(coefficients))
        if got != tuple(sorted(names)):
            raise ValueError(
                f"{kind.value} takes coefficients {names}, got {got}")
        for name, value in coefficients.items():
            if not 0 <= value < math.inf:
                raise ValueError(
                    f"coefficient {name} must be finite and >= 0, got {value}")
        self.kind, self.coefficients = kind, coefficients


@dataclass(frozen=True)
class Mapping:
    """A self-map of the space, with its fixed point when known."""

    name: str
    apply: Callable[[Point], Point]
    fixed_point: Point | None = None


ApplicabilityVerdict = namedtuple(
    "ApplicabilityVerdict", "satisfied residuals delta vacuous",
    defaults=(None, False))
ApplicabilityVerdict.__doc__ = """Whether coefficients admit a convergence
    rate; each residual must be strictly positive.  When satisfied,
    ``delta`` is the per-step factor and ``vacuous`` flags delta >= 1;
    otherwise delta is None."""


def _sides(spec: ContractionSpec, space: GSpace, T: Mapping) -> Callable:
    """``(x, y, z) -> (lhs, rhs)``: G(Tx,Ty,Tz) and the right-hand side,
    both from one image per point; an image outside the domain raises
    DomainError.  G, T, the domain test and the kind's row are bound once."""
    g, t, contains, w = space.g, T.apply, space.contains, spec.coefficients
    rhs, alt = _ROWS[spec.kind].rhs, spec.kind is ConditionKind.FOUR_TERM_ALT

    def sides(x, y, z):
        tx, ty, tz = t(x), t(y), t(z)
        if not (contains(tx) and contains(ty) and contains(tz)):
            for p, tp in ((x, tx), (y, ty), (z, tz)):
                if not contains(tp):
                    raise DomainError(f"{T.name} maps {p!r} to {tp!r}, which "
                                      f"is not in the domain of {space.name}")
        lhs = g(tx, ty, tz)
        dx, dy, dz = ((g(x, x, tx), g(y, y, ty), g(z, z, tz)) if alt
                      else (g(x, tx, tx), g(y, ty, ty), g(z, tz, tz)))
        return lhs, rhs(w, g, x, y, z, dx, dy, dz)
    return sides


def rhs_value(spec: ContractionSpec, space: GSpace, T: Mapping,
              x: Point, y: Point, z: Point) -> float:
    """Right-hand side of the condition's inequality at (x, y, z);
    raises DomainError when T sends one of them outside the domain."""
    return _sides(spec, space, T)(x, y, z)[1]


def check_condition(spec: ContractionSpec, space: GSpace, T: Mapping,
                    plan: SamplePlan, tol: float = 1e-9) -> CheckReport:
    """Verify G(Tx,Ty,Tz) <= rhs on sampled triples; the report carries
    the worst lhs/rhs ratio seen.  Raises DomainError when T sends a
    sampled point outside the domain."""
    check_id, sides = spec.kind.value, _sides(spec, space, T)

    def condition(x, y, z):
        return ((le_tol, check_id, (x, y, z), *sides(x, y, z)),)

    # a quadruple's first three points, without drawing its fourth
    return evaluate(sample_quads(space, plan, 3), condition, tol, ratio=True)


def check_applicability(spec: ContractionSpec) -> ApplicabilityVerdict:
    """Map the coefficients to the constraint region of the matching
    convergence result and, inside it, to the factor delta."""
    row = _ROWS[spec.kind]
    residuals = row.region(spec.coefficients)
    if not all(r > 0 for r in residuals.values()):
        return ApplicabilityVerdict(False, residuals)
    delta = row.delta(spec.coefficients)
    return ApplicabilityVerdict(True, residuals, delta, not delta < 1.0)


def make_affine_contraction(center: Point, k: float) -> Mapping:
    """T x = center + k*(x - center); fixed point is the center for k < 1."""
    if not 0 <= k < math.inf:
        raise ValueError(f"affine factor k must be finite and >= 0, got {k}")
    center = tuple(float(c) for c in center)
    if not all(map(math.isfinite, center)):
        raise ValueError(f"center must be finite, got {center}")

    def apply(x: Point) -> Point:
        return tuple([c + k * (a - c) for a, c in zip(x, center)])

    fixed = center if k < 1 else None
    return Mapping(name=f"affine(k={k})", apply=apply, fixed_point=fixed)


def make_translation(offset: Point) -> Mapping:
    """T x = x + offset; has no fixed point for a nonzero offset."""
    offset = tuple(float(c) for c in offset)
    if not all(map(math.isfinite, offset)):
        raise ValueError(f"offset must be finite, got {offset}")

    def apply(x: Point) -> Point:
        return tuple(map(operator.add, x, offset))

    return Mapping(name="translation", apply=apply, fixed_point=None)
