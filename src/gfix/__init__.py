"""Verification and fixed-point iteration toolkit for convex G-metric spaces."""

from .analysis import (BoundReport, RateBound, convergence_diagnostics,
                       diagnostics_maxima, product_bound, trace_products,
                       verify_bound)
from .contractions import (ApplicabilityVerdict, ConditionKind,
                           ContractionSpec, Mapping, check_applicability,
                           check_condition, make_affine_contraction,
                           make_translation, rhs_value)
from .convexity import (ConvexGSpace, ConvexStructure, check_convexity,
                        linear_interpolation)
from .core import (CheckReport, DomainError, GSpace, SamplePlan, Violation,
                   check_axioms, check_derived)
from .mann import (IterationTrace, StepSchedule, StoppingRule,
                   constant_schedule, explicit_schedule, harmonic_schedule,
                   power_schedule, run_mann)
from .spaces import (UnknownSpaceError, get_space, make_max_space,
                     make_perimeter_space, make_sign_example_space)

__version__ = "0.1.0"
