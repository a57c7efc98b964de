"""Contractive conditions on mappings of a G-metric space.

Each condition bounds G(Tx,Ty,Tz) by a weighted combination of G-values
of the arguments and their self-displacements G(p,Tp,Tp).  The checker
verifies a condition on sampled triples.  This module is also the one
home of the rate theory: ``check_applicability`` maps a condition kind
and its coefficients to the region where a convergence rate for the
averaged iteration is available and, inside it, to the per-step factor
delta:

    kind                          region                 delta
    four-term, four-term-alt      a + 3b < 1, 2b < 1     (a+b)/(1-2b)
    sum, max                      0 < a + 3b < 1         (a+b)/(1-2b)
    three-term                    a + b + c < 1, a < 1/2 a/(1-2a)
    k-sum                         0 < k < 1/3            k/(1-2k)

A delta >= 1 is flagged vacuous: the product bound no longer contracts.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from .core import (CheckReport, GSpace, Point, SamplePlan, evaluate, le_tol,
                   sample_quads)


class ConditionKind(enum.Enum):
    FOUR_TERM = "four-term"          # a*G(x,y,z) + b,c,d on G(p,Tp,Tp)
    FOUR_TERM_ALT = "four-term-alt"  # same but with G(p,p,Tp) displacements
    SUM = "sum"                      # a*G(x,y,z) + b * sum of displacements
    MAX = "max"                      # a*G(x,y,z) + b * max of displacements
    THREE_TERM = "three-term"        # a,b,c on the three displacements
    K_SUM = "k-sum"                  # k * sum of displacements


_COEFF_NAMES = {
    ConditionKind.FOUR_TERM: ("a", "b", "c", "d"),
    ConditionKind.FOUR_TERM_ALT: ("a", "b", "c", "d"),
    ConditionKind.SUM: ("a", "b"),
    ConditionKind.MAX: ("a", "b"),
    ConditionKind.THREE_TERM: ("a", "b", "c"),
    ConditionKind.K_SUM: ("k",),
}


@dataclass(frozen=True)
class ContractionSpec:
    kind: ConditionKind
    coefficients: Dict[str, float]

    def __post_init__(self):
        names = _COEFF_NAMES[self.kind]
        got = tuple(sorted(self.coefficients))
        if got != tuple(sorted(names)):
            raise ValueError(
                f"{self.kind.value} takes coefficients {names}, got {got}")
        for name, value in self.coefficients.items():
            if not 0 <= value < math.inf:
                raise ValueError(
                    f"coefficient {name} must be finite and >= 0, got {value}")

    def __getitem__(self, name: str) -> float:
        return self.coefficients[name]


@dataclass(frozen=True)
class Mapping:
    """A self-map of the space, with its fixed point when known."""

    name: str
    apply: Callable[[Point], Point]
    fixed_point: Optional[Point] = None


@dataclass(frozen=True)
class ApplicabilityVerdict:
    """Whether coefficients admit a convergence rate; each residual must
    be strictly positive.  When satisfied, ``delta`` is the per-step
    factor and ``vacuous`` flags delta >= 1; otherwise delta is None."""

    rule: str
    satisfied: bool
    residuals: Dict[str, float]
    note: str = ""
    delta: Optional[float] = None
    vacuous: bool = False


@dataclass(frozen=True)
class ContractionFactor:
    """A derived per-step factor; ``vacuous`` flags value >= 1, where the
    product bound no longer contracts."""

    value: float
    vacuous: bool


def delta_four_term(a: float, b: float) -> float:
    """Factor (a+b)/(1-2b) for the four-coefficient condition; lies in
    [0, 1) whenever a + 3b < 1."""
    if a < 0 or b < 0:
        raise ValueError("coefficients must be >= 0")
    if not a + 3.0 * b < 1.0:
        raise ValueError(f"requires a + 3b < 1, got a + 3b = {a + 3.0 * b}")
    return (a + b) / (1.0 - 2.0 * b)


def delta_three_term(a: float) -> ContractionFactor:
    """Factor a/(1-2a) for the three-displacement condition.

    For a in [1/3, 1/2) the formula returns a value >= 1: the geometric
    bound is vacuous there, which is reported via the flag rather than
    silently tightening the admissible range to a < 1/3.
    """
    if a < 0:
        raise ValueError("a must be >= 0")
    if a >= 0.5:
        raise ValueError(f"requires a < 1/2, got a = {a}")
    value = a / (1.0 - 2.0 * a)
    return ContractionFactor(value=value, vacuous=value >= 1.0)


def rhs_value(spec: ContractionSpec, space: GSpace, T: Mapping,
              x: Point, y: Point, z: Point) -> float:
    """Right-hand side of the condition's inequality at (x, y, z)."""
    g = space.g
    t = T.apply
    tx, ty, tz = t(x), t(y), t(z)
    kind = spec.kind
    if kind is ConditionKind.FOUR_TERM_ALT:
        dx, dy, dz = g(x, x, tx), g(y, y, ty), g(z, z, tz)
    else:
        dx, dy, dz = g(x, tx, tx), g(y, ty, ty), g(z, tz, tz)
    if kind in (ConditionKind.FOUR_TERM, ConditionKind.FOUR_TERM_ALT):
        return (spec["a"] * g(x, y, z) + spec["b"] * dx
                + spec["c"] * dy + spec["d"] * dz)
    if kind is ConditionKind.SUM:
        return spec["a"] * g(x, y, z) + spec["b"] * (dx + dy + dz)
    if kind is ConditionKind.MAX:
        return spec["a"] * g(x, y, z) + spec["b"] * max(dx, dy, dz)
    if kind is ConditionKind.THREE_TERM:
        return spec["a"] * dx + spec["b"] * dy + spec["c"] * dz
    return spec["k"] * (dx + dy + dz)


def check_condition(spec: ContractionSpec, space: GSpace, T: Mapping,
                    plan: SamplePlan, tol: float = 1e-9) -> CheckReport:
    """Verify G(Tx,Ty,Tz) <= rhs on sampled triples; the report carries
    the worst lhs/rhs ratio seen."""
    g = space.g
    t = T.apply

    def condition(x, y, z, _):
        return ((le_tol, spec.kind.value, (x, y, z), g(t(x), t(y), t(z)),
                 rhs_value(spec, space, T, x, y, z)),)

    return evaluate(sample_quads(space, plan), condition, tol, ratio=True)


def check_applicability(spec: ContractionSpec) -> ApplicabilityVerdict:
    """Map the coefficients to the constraint region of the matching
    convergence result and, inside it, to the factor delta."""
    kind = spec.kind
    note = ""
    if kind is ConditionKind.THREE_TERM:
        a = spec["a"]
        residuals = {"1-(a+b+c)": 1.0 - (a + spec["b"] + spec["c"]),
                     "1/2-a": 0.5 - a}
    elif kind is ConditionKind.K_SUM:
        a = spec["k"]  # k takes a's place in a/(1-2a)
        residuals = {"k": a, "1/3-k": 1.0 / 3.0 - a}
    else:
        a, b = spec["a"], spec["b"]
        if kind in (ConditionKind.SUM, ConditionKind.MAX):
            residuals = {"a+3b": a + 3.0 * b, "1-(a+3b)": 1.0 - (a + 3.0 * b)}
        else:
            residuals = {"1-(a+3b)": 1.0 - (a + 3.0 * b), "1-2b": 1.0 - 2.0 * b}
        if kind is ConditionKind.FOUR_TERM_ALT:
            note = ("alternate displacement orientation; rate constraint "
                    "borrowed from the four-term condition")
    if not all(r > 0 for r in residuals.values()):
        return ApplicabilityVerdict(kind.value, False, residuals, note)
    if kind in (ConditionKind.THREE_TERM, ConditionKind.K_SUM):
        cf = delta_three_term(a)
    else:
        cf = ContractionFactor(delta_four_term(a, b), False)
    return ApplicabilityVerdict(kind.value, True, residuals, note,
                                cf.value, cf.vacuous)


def make_affine_contraction(center: Point, k: float) -> Mapping:
    """T x = center + k*(x - center); fixed point is the center for k < 1."""
    if not 0 <= k < math.inf:
        raise ValueError(f"affine factor k must be finite and >= 0, got {k}")
    center = tuple(float(c) for c in center)
    if not all(map(math.isfinite, center)):
        raise ValueError(f"center must be finite, got {center}")

    def apply(x: Point) -> Point:
        return tuple(c + k * (a - c) for a, c in zip(x, center))

    fixed = center if k < 1 else None
    return Mapping(name=f"affine(k={k})", apply=apply, fixed_point=fixed)


def make_translation(offset: Point) -> Mapping:
    """T x = x + offset; has no fixed point for a nonzero offset."""
    offset = tuple(float(c) for c in offset)
    if not all(map(math.isfinite, offset)):
        raise ValueError(f"offset must be finite, got {offset}")

    def apply(x: Point) -> Point:
        return tuple(a + d for a, d in zip(x, offset))

    return Mapping(name="translation", apply=apply, fixed_point=None)
