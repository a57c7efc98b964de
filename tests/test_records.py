"""gfix's records: which ones are dataclasses, and that the ones that
check their values reject a bad value however they are built.

Plain records are namedtuples or ``__slots__`` classes, which cost less
to define at import than dataclasses.  A namedtuple's ``_replace`` and
``_make`` skip a subclass ``__new__``, so a record that checks its
values is a ``__slots__`` class with no such way around its check.
"""

import dataclasses
import importlib
import math
import pkgutil

import pytest

import gfix
from gfix import ConditionKind, ContractionSpec, SamplePlan, StoppingRule
from gfix.core import MAX_COUNT
from gfix.mann import step_range


def test_only_the_records_the_tracer_rebuilds_are_dataclasses():
    # bench/tracer.py rebuilds spaces, convex structures and mappings with
    # dataclasses.replace.  ROADMAP Direction 8, a benchmark that measures
    # layers without that tracer, frees these four as well.
    found = set()
    for info in pkgutil.iter_modules(gfix.__path__, "gfix."):
        module = importlib.import_module(info.name)
        found.update(f"{module.__name__}.{name}"
                     for name, obj in vars(module).items()
                     if isinstance(obj, type) and dataclasses.is_dataclass(obj)
                     and obj.__module__ == module.__name__)
    assert found == {"gfix.core.GSpace", "gfix.convexity.ConvexStructure",
                     "gfix.convexity.ConvexGSpace", "gfix.contractions.Mapping"}


# (record class, good values in field order, field, bad value)
CHECKED = [
    (SamplePlan, {"seed": 1, "count": 5, "min_separation": 1e-3},
     "count", 0),
    (SamplePlan, {"seed": 1, "count": 5, "min_separation": 1e-3},
     "min_separation", math.nan),
    (SamplePlan, {"seed": 1, "count": 5, "min_separation": 1e-3},
     "min_separation", -1.0),
    (SamplePlan, {"seed": 1, "count": 5, "min_separation": 1e-3},
     "count", MAX_COUNT + 1),
    (StoppingRule, {"max_iters": 10, "residual_tol": 0.0}, "max_iters", 0),
    (StoppingRule, {"max_iters": 10, "residual_tol": 0.0},
     "max_iters", MAX_COUNT + 1),
    (StoppingRule, {"max_iters": 10, "residual_tol": 0.0},
     "residual_tol", math.inf),
    (ContractionSpec, {"kind": ConditionKind.K_SUM,
                       "coefficients": {"k": 0.2}},
     "coefficients", {"k": -0.1}),
    (ContractionSpec, {"kind": ConditionKind.K_SUM,
                       "coefficients": {"k": 0.2}},
     "kind", ConditionKind.SUM),
]


@pytest.mark.parametrize("cls, good, field, bad", CHECKED,
                         ids=[f"{c.__name__}-{f}-{b!r}"
                              for c, _, f, b in CHECKED])
def test_no_way_of_building_a_record_takes_a_bad_value(cls, good, field, bad):
    record = cls(**good)
    values = {**good, field: bad}
    with pytest.raises(ValueError):
        cls(**values)
    with pytest.raises(ValueError):
        cls(*values.values())
    # each other way to build one must raise, or not exist at all
    ways = {
        "_replace": lambda: record._replace(**{field: bad}),
        "_make": lambda: cls._make(values.values()),
        "dataclasses.replace": lambda: dataclasses.replace(
            record, **{field: bad}),
    }
    for way, build in ways.items():
        try:
            built = build()
        except (ValueError, TypeError, AttributeError):
            continue
        pytest.fail(f"{way} built {cls.__name__} with {field}={bad!r}: "
                    f"{getattr(built, field)!r}")


def test_a_count_on_the_cap_is_taken():
    # a plan, a rule and a step range check their counts and run nothing
    assert SamplePlan(seed=1, count=MAX_COUNT).count == MAX_COUNT
    assert StoppingRule(max_iters=MAX_COUNT).max_iters == MAX_COUNT
    assert len(step_range(gfix.harmonic_schedule(), MAX_COUNT)) == MAX_COUNT
    with pytest.raises(ValueError, match=f"^n must be <= {MAX_COUNT}$"):
        step_range(gfix.harmonic_schedule(), MAX_COUNT + 1)
