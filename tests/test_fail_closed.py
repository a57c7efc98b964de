"""Every real-valued CLI input fails closed on extreme values.

Each real-valued flag and spec parameter gets each value below, in the
``--flag=value`` form so that values starting with '-' reach the option.
Whatever the value, the run must end with exit code 0, 1 or 2 without
raising, a run that exits 0 must print no nan or inf, and a FAIL report
must not show its closest margin as -inf.  A Hypothesis test then gives
several inputs of one command extreme or ordinary values at once.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfix.cli import main

VALUES = ["nan", "inf", "-inf", "-0", "1e308", "1e-320", "1e400", "-1",
          "400", "x", ""]

CHECK = ("check-condition --space perimeter-1 --mapping {mapping} "
         "--condition k-sum --coeff k={k} --samples 5")
ITERATE = ("iterate --space perimeter-1 --mapping {mapping} "
           "--condition k-sum --coeff k={k} --max-iters 5")
BOUND = "bound --delta 0.5 --max-iters 5"
COMMANDS = {"check-condition": CHECK, "iterate": ITERATE, "bound": BOUND,
            "check-axioms": "check-axioms --space perimeter-2 --samples 5",
            "check-convexity": "check-convexity --space max-1 --samples 5"}

# (input, commands that read it, where the value V goes)
INPUTS = [
    ("tol", ("check-condition", "check-axioms", "check-convexity"), " --tol=V"),
    ("min-separation", ("check-condition", "check-axioms", "check-convexity"),
     " --min-separation=V"),
    ("alpha", ("iterate", "bound"), " --alpha=V"),
    ("residual-tol", ("iterate",), " --residual-tol=V"),
    ("delta", ("bound",), " --delta=V"),
    ("x0", ("iterate",), " --x0=V"),
    ("coeff", ("check-condition", "iterate"), {"k": "V"}),
    ("k", ("check-condition", "iterate"), {"mapping": "affine:k=V"}),
    ("center", ("check-condition", "iterate"),
     {"mapping": "affine:k=0.5,center=V"}),
    ("offset", ("check-condition", "iterate"),
     {"mapping": "translation:offset=V"}),
    ("constant", ("iterate", "bound"), " --schedule=constant:V"),
    ("power", ("iterate", "bound"), " --schedule=power:V"),
    ("explicit", ("iterate", "bound"), " --schedule=explicit:V"),
]


def _command(command, where):
    fields = {"mapping": "affine:k=0.5", "k": "0.1"}
    if isinstance(where, dict):
        return COMMANDS[command].format(**{**fields, **where})
    return COMMANDS[command].format(**fields) + where


CASES = {f"{name}:{command}": _command(command, where)
         for name, commands, where in INPUTS for command in commands}


def _assert_fails_closed(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = out.getvalue().splitlines()
    assert code in (0, 1, 2)
    if code == 0:
        assert not any("nan" in line or "inf" in line for line in lines)
    if "result: FAIL" in lines:
        assert "worst_margin: -inf" not in lines


@pytest.mark.parametrize("value", VALUES, ids=[v or "empty" for v in VALUES])
@pytest.mark.parametrize("template", list(CASES.values()), ids=list(CASES))
def test_cli_fails_closed(template, value):
    _assert_fails_closed(template.replace("V", value).split(" "))


# every {} is one real-valued input; several are drawn together per run
MIXED = [
    "check-condition --space perimeter-2 --mapping=affine:k={},center={};{} "
    "--condition four-term --coeff=a={},b={},c={},d={} --samples 5 --tol={} "
    "--min-separation={}",
    "check-condition --space max-1 --mapping=translation:offset={} "
    "--condition k-sum --coeff=k={} --samples 5 --tol={}",
    "iterate --space perimeter-1 --mapping=affine:k={},center={} "
    "--condition four-term --coeff=a={},b={},c={},d={} --schedule constant "
    "--alpha={} --x0={} --residual-tol={} --max-iters 5",
    "iterate --space max-2 --mapping=affine:k={} --condition sum "
    "--coeff=a={},b={} --schedule=power:{} --x0={},{} --max-iters 5",
    "iterate --space perimeter-1 --mapping=affine:k={} --condition three-term "
    "--coeff=a={},b={},c={} --schedule=explicit:{};{} --x0={} --max-iters 5",
    "bound --delta={} --schedule constant --alpha={} --max-iters 5",
    "bound --delta={} --schedule=power:{} --max-iters 5",
    "bound --delta={} --schedule=explicit:{};{};{} --max-iters 3",
    "check-axioms --space perimeter-2 --samples 5 --tol={} "
    "--min-separation={}",
    "check-derived --space max-2 --samples 5 --tol={} --min-separation={}",
    "check-convexity --space max-1 --samples 5 --tol={} --min-separation={}",
]
EXTREME = ["nan", "inf", "-inf", "-0", "1e308", "1e-320", "1e400"]
ORDINARY = ["0", "0.1", "0.25", "0.5", "1", "2"]


@st.composite
def mixed_commands(draw):
    """One template with ordinary values, one to three of them extreme."""
    template = draw(st.sampled_from(MIXED))
    n = template.count("{}")
    values = draw(st.lists(st.sampled_from(ORDINARY), min_size=n, max_size=n))
    for i in draw(st.sets(st.integers(0, n - 1), min_size=1,
                          max_size=min(3, n))):
        values[i] = draw(st.sampled_from(EXTREME))
    return template.format(*values).split(" ")


@settings(max_examples=300, derandomize=True, deadline=None)
@given(mixed_commands())
def test_cli_fails_closed_on_mixed_inputs(argv):
    _assert_fails_closed(argv)
