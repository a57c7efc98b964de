"""Every real-valued CLI input fails closed on extreme values.

Each real-valued flag and spec parameter gets each value below, in the
``--flag=value`` form so that values starting with '-' reach the option.
Whatever the value, the run must end with exit code 0, 1 or 2 without
raising, a run that exits 0 must print no nan or inf, and a FAIL report
must not show its closest margin as -inf.
"""

import contextlib
import io

import pytest

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


@pytest.mark.parametrize("value", VALUES, ids=[v or "empty" for v in VALUES])
@pytest.mark.parametrize("template", list(CASES.values()), ids=list(CASES))
def test_cli_fails_closed(template, value):
    argv = template.replace("V", value).split(" ")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = out.getvalue().splitlines()
    assert code in (0, 1, 2)
    if code == 0:
        assert not any("nan" in line or "inf" in line for line in lines)
    if "result: FAIL" in lines:
        assert "worst_margin: -inf" not in lines
