"""CLI behavior: exit codes, CSV contract, config handling."""

import math
import os
import random
import struct
import subprocess
import sys
from array import array

import pytest

import gfix
from gfix.cli import (CSV_HEADER, _csv, _fmt, main, parse_mapping,
                      parse_schedule)


def run(args):
    return main(args)


def test_check_axioms_pass_exit_zero(tmp_path, capsys):
    out = tmp_path / "r.txt"
    rc = run(["check-axioms", "--space", "perimeter-2", "--samples", "500",
              "--seed", "7", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert "result: PASS" in text
    assert "# config:" in text and "space=perimeter-2" in text


def test_check_axioms_unknown_space_exit_two(capsys):
    rc = run(["check-axioms", "--space", "nosuch"])
    assert rc == 2
    assert "unknown space" in capsys.readouterr().err


def test_check_derived_and_convexity(tmp_path):
    rc = run(["check-derived", "--space", "max-2", "--samples", "300",
              "--seed", "1", "--out", str(tmp_path / "d.txt")])
    assert rc == 0
    rc = run(["check-convexity", "--space", "perimeter-2", "--samples", "300",
              "--seed", "1", "--out", str(tmp_path / "c.txt")])
    assert rc == 0


def test_check_convexity_rejects_sign_example(capsys):
    rc = run(["check-convexity", "--space", "sign-example"])
    assert rc == 2


def test_check_condition_pass_and_fail(tmp_path, capsys):
    rc = run(["check-condition", "--space", "perimeter-1",
              "--mapping", "affine:k=0.5", "--condition", "four-term",
              "--coeff", "a=0.5,b=0,c=0,d=0", "--samples", "500",
              "--seed", "3", "--out", str(tmp_path / "ok.txt")])
    assert rc == 0
    rc = run(["check-condition", "--space", "perimeter-1",
              "--mapping", "affine:k=2", "--condition", "four-term",
              "--coeff", "a=0.5,b=0,c=0,d=0", "--samples", "500",
              "--seed", "3", "--out", str(tmp_path / "bad.txt")])
    assert rc == 1
    text = (tmp_path / "bad.txt").read_text()
    assert "result: FAIL" in text
    assert "witness=" in text


def test_check_condition_nan_tol_fails(tmp_path, capsys):
    out = tmp_path / "nan.txt"
    rc = run(["check-condition", "--space", "perimeter-1",
              "--mapping", "affine:k=2", "--condition", "four-term",
              "--coeff", "a=0.5,b=0,c=0,d=0", "--samples", "100",
              "--tol", "nan", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "error: tol must be in [0, 1), got nan\n"
    assert not out.exists()


@pytest.mark.parametrize("tol", ["1e308", "1", "inf", "-inf", "-1e-9"])
def test_tol_outside_unit_interval_exits_two(tol, capsys):
    # at 1e308, tol * max(1, |rhs|) would overflow and fail checks that hold
    rc = run(["check-axioms", "--space", "perimeter-2", "--samples", "5",
              f"--tol={tol}"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: tol must be in [0, 1), got {float(tol)}\n"
    assert captured.out == ""


def test_nan_min_separation_exits_two_promptly():
    src = os.path.dirname(os.path.dirname(gfix.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "gfix.cli", "check-axioms", "--space",
         "sign-example", "--min-separation", "nan"],
        capture_output=True, timeout=30,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 2


@pytest.mark.parametrize("args, line", [
    ("bound --delta 1.5 --schedule explicit:1 --max-iters 5",
     "error: delta must be in [0, 1), got 1.5"),
    ("bound --delta 0.5 --schedule explicit:1 --max-iters 5",
     "error: explicit schedule has only 1 values"),
    ("bound --delta 0.5 --schedule power:0",
     "error: power schedule needs a finite p > 0"),
    ("bound --delta 0.5 --max-iters -1", "error: --max-iters must be >= 0"),
    ("check-condition --space perimeter-1 --mapping affine:k=0.5 "
     "--condition sum --coeff a=x,b=0",
     "error: --coeff a: expected float, got 'x'"),
    ("check-axioms --space nope-3", "error: unknown space key 'nope-3'"),
    ("check-axioms --space perimeter-+1",
     "error: bad dimension in space key 'perimeter-+1'"),
    ("iterate --space max-\u0663 --mapping affine:k=0.5",
     "error: bad dimension in space key 'max-\u0663'"),
    ("iterate --space perimeter-1 --mapping affine:k=0.5 --x0 nan",
     "error: (nan,) is not in the domain of perimeter-1"),
    ("bound --delta 0.5 --schedule power:x",
     "error: --schedule power: expected float, got 'x'"),
    ("iterate --space perimeter-1 --mapping affine:k=x",
     "error: --mapping k: expected float, got 'x'"),
    ("iterate --space perimeter-2 --mapping affine:k=0.5 --x0 1,x",
     "error: --x0: expected float, got 'x'"),
    ("check-axioms --space perimeter-1 --config cfg:samples=1e3",
     "error: samples: expected int, got '1e3'"),
    # iterate reads no seed, yet a file value is checked like a flag's
    ("iterate --space perimeter-1 --mapping affine:k=0.5 "
     "--config cfg:seed=abc",
     "error: seed: expected int, got 'abc'"),
    # --alpha is the one source of a constant step, read by constant only
    ("iterate --space perimeter-1 --mapping affine:k=0.5 "
     "--schedule constant:0.3 --alpha 0.9",
     "error: constant schedule takes no parameter, got '0.3'"),
    ("bound --delta 0.5 --schedule harmonic --alpha 0.9",
     "error: --alpha needs --schedule constant, got 'harmonic'"),
    ("iterate --space perimeter-1 --mapping affine:k=0.5 "
     "--schedule power:2 --alpha=0.5",
     "error: --alpha needs --schedule constant, got 'power:2'"),
    ("bound --delta 0.5 --schedule explicit:1;0.5 --max-iters 2 "
     "--config cfg:alpha=0.9",
     "error: --alpha needs --schedule constant, got 'explicit:1;0.5'"),
    # a count above core.MAX_COUNT draws and iterates nothing
    ("check-axioms --space perimeter-1 --samples 100000000000000000000",
     "error: --samples must be <= 100000000"),
    ("check-convexity --space perimeter-1 --samples 9223372036854775807",
     "error: --samples must be <= 100000000"),
    ("check-axioms --space perimeter-1 --samples 100000001",
     "error: --samples must be <= 100000000"),
    ("check-derived --space perimeter-1 --samples 100000001",
     "error: --samples must be <= 100000000"),
    ("check-convexity --space max-1 --samples 100000001",
     "error: --samples must be <= 100000000"),
    ("check-condition --space perimeter-1 --mapping affine:k=0.5 "
     "--condition four-term --coeff a=0.5,b=0,c=0,d=0 --samples 100000001",
     "error: --samples must be <= 100000000"),
    ("iterate --space perimeter-1 --mapping affine:k=0.5 "
     "--max-iters 100000001",
     "error: --max-iters must be <= 100000000"),
    ("bound --delta 0.5 --max-iters 100000001",
     "error: --max-iters must be <= 100000000"),
    ("iterate --space perimeter-1 --mapping affine:k=0.5 --max-iters 0",
     "error: --max-iters must be >= 1"),
    ("check-axioms --space perimeter-1 --config cfg:samples=0",
     "error: --samples must be >= 1"),
])
def test_error_exit_message(args, line, tmp_path, capsys):
    argv = []
    for a in args.split():
        if a.startswith("cfg:"):  # a config file holding the rest as its line
            (tmp_path / "c.cfg").write_text(a[4:] + "\n")
            a = str(tmp_path / "c.cfg")
        argv.append(a)
    assert run(argv + ["--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.err == line + "\n"
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


_SMALL_RUNS = {
    "check-axioms": "--space perimeter-1 --samples 5",
    "check-derived": "--space perimeter-1 --samples 5",
    "check-convexity": "--space max-1 --samples 5",
    "check-condition": "--space perimeter-1 --mapping affine:k=0.5 "
                       "--condition four-term --coeff a=0.5,b=0,c=0,d=0 "
                       "--samples 5",
    "iterate": "--space perimeter-1 --mapping affine:k=0.5 --max-iters 5",
    "bound": "--delta 0.3 --max-iters 5",
}


@pytest.mark.parametrize("command", sorted(_SMALL_RUNS))
@pytest.mark.parametrize("flag, path", [
    ("--out", "missing/o.csv"),
    ("--out", "."),
    ("--config", "missing.cfg"),
], ids=["out-in-missing-dir", "out-is-dir", "config-missing"])
def test_file_error_exits_two_naming_the_file(command, flag, path, tmp_path,
                                              capsys):
    path = str(tmp_path / path)
    argv = [command, *_SMALL_RUNS[command].split(), flag, path]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and repr(path) in line
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("args", [
    "check-condition --space perimeter-1 --mapping translation:offset=1e308 "
    "--condition k-sum --coeff k=0.1 --samples 5",
])
def test_fail_report_with_infinite_margin(args, capsys):
    assert run(args.split()) == 1
    out = capsys.readouterr().out.splitlines()
    assert "result: FAIL" in out and "worst_margin: inf" in out
    # check-condition reports a ratio, and it follows the margin
    ratios = [line for line in out if line.startswith("worst_ratio:")]
    assert ratios == ["worst_ratio: inf"]


def test_seed_from_flag_or_config_file(tmp_path, capsys):
    assert run(["check-axioms", "--space", "perimeter-1", "--seed", "3",
                "--samples", "5"]) == 0
    assert "seed=3" in capsys.readouterr().out
    cfg = tmp_path / "c.cfg"
    cfg.write_text("seed=4\n")
    assert run(["check-axioms", "--space", "perimeter-1", "--samples", "5",
                "--config", str(cfg)]) == 0
    assert "seed=4" in capsys.readouterr().out


@pytest.mark.parametrize("command, lines", [
    ("check-axioms --space perimeter-1", ["min-separation=1", "samples=010"]),
    ("iterate --space perimeter-1 --mapping affine:k=0.5",
     ["residual-tol=0", "x0=2", "max-iters=03", "alpha=.5"]),
])
def test_a_file_value_echoes_as_the_same_flag(command, lines, tmp_path,
                                              capsys):
    # the config line echoes each value converted, whatever its source
    cfg = tmp_path / "c.cfg"
    cfg.write_text("".join(line + "\n" for line in lines))
    flags = [f"--{line}" for line in lines]
    echoed = []
    for argv in (["--config", str(cfg)], flags):
        assert run([*command.split(), *argv]) == 0
        echoed += [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("# config: ")]
    assert len(echoed) == 2 and echoed[0] == echoed[1]


@pytest.mark.parametrize("args", [
    "bound --delta 0.5 --schedule power:400",
    "bound --delta 0.5 --schedule power:1e308",
    "iterate --space perimeter-1 --mapping affine:k=0.5 --schedule power:400",
    "iterate --space perimeter-1 --mapping affine:k=0.5 "
    "--schedule power:1e308",
])
def test_power_schedule_past_overflow_runs(args):
    assert run(args.split() + ["--max-iters", "12"]) == 0


@pytest.mark.parametrize("args, error", [
    ("--mapping affine:k=0.5,kk=3", "unknown key 'kk' in --mapping"),
    ("--mapping translation:offset=1,k=2", "unknown key 'k' in --mapping"),
    ("--coeff a=1", "--coeff needs --condition"),
])
def test_iterate_rejects_unread_input(args, error, capsys):
    rc = run(["iterate", "--space", "perimeter-1", "--mapping", "affine:k=0.5",
              "--x0", "1", "--max-iters", "1", *args.split()])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {error}")


@pytest.mark.parametrize("line", ["max_iters=5", "out=t.csv", "config=c.cfg"])
def test_config_file_rejects_foreign_key(line, tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"space=perimeter-1\nmapping=affine:k=0.5\n{line}\n")
    assert run(["iterate", "--config", str(cfg)]) == 2
    key = line.split("=")[0]
    assert f"error: unknown key {key!r} in {cfg}" in capsys.readouterr().err


def test_negative_value_in_equals_form(capsys):
    assert run(["iterate", "--space", "perimeter-2", "--mapping",
                "affine:k=0.5", "--x0=-1,2", "--max-iters", "3"]) == 0


def test_check_condition_rejects_image_outside_domain(capsys):
    # T x = 0 for every x, and 0 is the point the sign example excludes
    rc = run(["check-condition", "--space", "sign-example",
              "--mapping", "affine:k=0", "--condition", "k-sum",
              "--coeff", "k=0.3", "--samples", "10"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "affine(k=0.0)" in err and "(0.0,)" in err
    assert "sign-example" in err


def test_bound_rejects_harmonic_parameter(capsys):
    assert run(["bound", "--delta", "0.5", "--schedule", "harmonic:7"]) == 2
    assert "'7'" in capsys.readouterr().err


def test_bound_rejects_nan_power(capsys):
    assert run(["bound", "--delta", "0.5", "--schedule", "power:nan"]) == 2


def iterate_args(out, extra=()):
    return ["iterate", "--space", "perimeter-1", "--mapping", "affine:k=0.5",
            "--condition", "four-term", "--coeff", "a=0.5,b=0,c=0,d=0",
            "--schedule", "constant", "--alpha", "0.5", "--x0", "1",
            "--max-iters", "20", "--residual-tol", "0",
            "--out", str(out), *extra]


@pytest.mark.parametrize("extra", [
    ["--residual-tol", "nan"],
    ["--condition", "four-term", "--coeff", "a=0.5,b=0,c=0,d=inf"],
    ["--mapping", "affine:k=nan"],
    ["--mapping", "translation:offset=nan"],
])
def test_iterate_rejects_non_finite_inputs(extra, tmp_path, capsys):
    rc = run(["iterate", "--space", "perimeter-1", "--mapping", "affine:k=0.5",
              "--schedule", "constant", "--alpha", "0.5", "--x0", "1",
              "--max-iters", "5", *extra, "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_check_condition_rejects_infinite_center(capsys):
    rc = run(["check-condition", "--space", "perimeter-1",
              "--mapping", "affine:k=0.5,center=inf", "--condition",
              "four-term", "--coeff", "a=0.5,b=0,c=0,d=0", "--samples", "10"])
    assert rc == 2


def test_iterate_csv_contract(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    rc = run(iterate_args(out))
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 22  # header + 21 iterates
    row = lines[1].split(",")
    assert row == ["0", "0.5", "1", "2", "2", "0"]
    summary = capsys.readouterr().out
    assert "delta: 0.5" in summary
    assert "bound_holds: true" in summary


def test_iterate_byte_identical_reruns(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(iterate_args(a)) == 0
    assert run(iterate_args(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_iterate_inapplicable_coeffs_omit_bounds(tmp_path, capsys):
    out = tmp_path / "t.csv"
    rc = run(["iterate", "--space", "perimeter-1", "--mapping", "affine:k=1",
              "--condition", "four-term", "--coeff", "a=1,b=0,c=0,d=0",
              "--schedule", "constant", "--alpha", "0.5", "--x0", "3",
              "--max-iters", "10", "--out", str(out)])
    assert rc == 0
    summary = capsys.readouterr().out
    assert "warning:" in summary
    lines = out.read_text().splitlines()
    # identity: residual 0 at n = 0, bound columns empty
    assert lines[1].split(",") == ["0", "0.5", "0", "", "", ""]


def test_iterate_region_warning_names_failing_residuals(tmp_path, capsys):
    rc = run(["iterate", "--space", "perimeter-1", "--mapping", "affine:k=0.5",
              "--condition", "four-term", "--coeff", "a=0,b=1e308,c=0,d=0",
              "--max-iters", "2", "--out", str(tmp_path / "t.csv")])
    assert rc == 0
    summary = capsys.readouterr().out
    assert ("warning: coefficients outside the applicable region "
            "(1-(a+3b) <= 0, 1-2b <= 0); bound columns omitted"
            in summary.splitlines())
    assert "inf" not in summary and "nan" not in summary


def test_iterate_region_warning_at_b_one_half(tmp_path, capsys):
    # 1-2b is 0 on the region's edge, where 1-b would still be 1/2
    rc = run(["iterate", "--space", "perimeter-1", "--mapping", "affine:k=0.5",
              "--condition", "four-term", "--coeff", "a=0,b=0.5,c=0,d=0",
              "--max-iters", "2", "--out", str(tmp_path / "t.csv")])
    assert rc == 0
    assert ("warning: coefficients outside the applicable region "
            "(1-(a+3b) <= 0, 1-2b <= 0); bound columns omitted"
            in capsys.readouterr().out.splitlines())


def test_iterate_delta_rounded_to_one_is_vacuous(tmp_path, capsys):
    # inside the four-term region, yet (a+b)/(1-2b) rounds to exactly 1.0
    rc = run(["iterate", "--space", "perimeter-1", "--mapping", "affine:k=0.5",
              "--condition", "four-term", "--coeff",
              "a=0.236225381023386,b=0.2545915396588713,c=0,d=0",
              "--max-iters", "3", "--out", str(tmp_path / "t.csv")])
    assert rc == 0
    assert ("warning: delta=1 >= 1: bound is vacuous; bound columns omitted"
            in capsys.readouterr().out.splitlines())


@pytest.mark.parametrize("extra, key", [
    (["--condition", "k-sum", "--coeff", "k=0.3,k=0.2"], "k"),
    (["--mapping", "affine:k=1,k=0.5"], "k"),
])
def test_iterate_rejects_repeated_keys(extra, key, tmp_path, capsys):
    rc = run(["iterate", "--space", "perimeter-1", "--mapping", "affine:k=0.5",
              "--max-iters", "3", *extra, "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    assert f"key {key!r} given more than once" in capsys.readouterr().err


def test_config_file_rejects_repeated_key(tmp_path, capsys):
    cfg = tmp_path / "rep.cfg"
    cfg.write_text("space=perimeter-1\nmapping=affine:k=0.5\nmax-iters=5\n"
                   "max-iters=3\n")
    rc = run(["iterate", "--config", str(cfg),
              "--out", str(tmp_path / "c.csv")])
    assert rc == 2
    assert "key 'max-iters' given more than once" in capsys.readouterr().err


def test_iterate_divergence_exit_one(tmp_path, capsys):
    out = tmp_path / "d.csv"
    rc = run(["iterate", "--space", "perimeter-1", "--mapping", "affine:k=2",
              "--schedule", "constant", "--alpha", "1", "--x0", "1",
              "--max-iters", "1000", "--residual-tol", "0",
              "--out", str(out)])
    assert rc == 1
    assert "status: diverged" in capsys.readouterr().out


def test_iterate_residual_exactly_on_tol_stops(capsys):
    # affine:k=0 with alpha 1 sends x_1 to the fixed point: its residual
    # 0 equals --residual-tol 0, and equality stops the run
    rc = run(["iterate", "--space", "perimeter-1", "--mapping", "affine:k=0",
              "--schedule", "constant", "--alpha", "1", "--residual-tol", "0",
              "--x0", "1", "--max-iters", "5"])
    assert rc == 0
    summary = capsys.readouterr().out.splitlines()
    assert "status: residual-tol" in summary and "steps: 1" in summary


@pytest.mark.parametrize("extra", [
    ["--mapping=affine:k=1e308", "--schedule=explicit:0;0", "--x0=1"],
    ["--mapping=affine:k=1e-320", "--alpha=1", "--x0=1e308"],
])
def test_iterate_non_finite_g_diverges(extra, tmp_path, capsys):
    out = tmp_path / "d.csv"
    rc = run(["iterate", "--space", "perimeter-1", *extra,
              "--max-iters", "5", "--out", str(out)])
    assert rc == 1
    summary = capsys.readouterr().out
    assert "status: diverged" in summary and "steps: 0" in summary
    assert len(out.read_text().splitlines()) == 2  # the row that overflowed


def test_iterate_nan_slack_fails_bound(tmp_path, capsys):
    rc = run(["iterate", "--space", "perimeter-1", "--mapping=affine:k=1e-320",
              "--schedule=constant", "--alpha=0.5", "--x0=1e308",
              "--max-iters", "3", "--condition", "four-term",
              "--coeff", "a=0.5,b=0,c=0,d=0",
              "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    summary = capsys.readouterr().out.splitlines()
    assert "bound_holds: false" in summary
    assert "min_slack: nan" in summary
    assert (tmp_path / "t.csv").read_text().splitlines()[1].endswith(",nan")


@pytest.mark.parametrize("extra, status, min_slack", [
    # the map breaks the condition whose delta the bound uses
    (["--mapping", "affine:k=0.9", "--coeff", "a=0.1,b=0,c=0,d=0",
      "--max-iters", "20"], "max-iters", "-1.4469049999999999"),
    (["--mapping=affine:k=1e-320", "--schedule=constant", "--x0=1e308",
      "--coeff", "a=0.5,b=0,c=0,d=0", "--max-iters", "3"], "diverged",
     "nan"),
])
def test_iterate_failed_bound_exits_one(extra, status, min_slack, tmp_path,
                                        capsys):
    rc = run(["iterate", "--space", "perimeter-1", "--condition", "four-term",
              *extra, "--out", str(tmp_path / "t.csv")])
    summary = capsys.readouterr().out.splitlines()
    assert f"status: {status}" in summary
    assert "bound_holds: false" in summary
    assert f"min_slack: {min_slack}" in summary
    assert rc == 1


EDGE_DOUBLES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                2.2250738585072014e-308, 1e16, 1e308, -1e308, 0.1, 1 / 3,
                1.7976931348623157e308, 9007199254740993.0]


def test_row_template_matches_fmt():
    rng = random.Random(0)
    n = 20000
    packed = struct.pack(f"<{n}Q", *(rng.getrandbits(64) for _ in range(n)))
    for x in EDGE_DOUBLES + list(struct.unpack(f"<{n}d", packed)):
        assert "%.17g" % x == format(x, ".17g") == _fmt(x)


def test_csv_rows_formatted_as_read():
    csv = _csv(["n,a,b", "0,,"], "%d,%.17g,%.17g", (
        range(1, 4), array("d", [0.5, -0.0, math.inf]),
        array("d", [1e-320, 2.0, 3.0, 4.0])))
    rows = ["1,0.5,9.9998886718268301e-321\n", "2,-0,2\n", "3,inf,3\n"]
    assert len(csv) == 5
    assert list(csv) == ["n,a,b\n", "0,,\n", *rows]
    # a range past the head formats only its data rows
    assert list(csv[2:]) == rows and list(csv[3:4]) == rows[1:2]
    assert list(csv[1:3]) == ["0,,\n", rows[0]]
    assert list(csv[:1]) == ["n,a,b\n"]
    assert csv[2] == rows[0] and csv[-1] == rows[2] and csv[0] == "n,a,b\n"


def test_iterate_power_schedule_summary(tmp_path, capsys):
    out = tmp_path / "p.csv"
    rc = run(["iterate", "--space", "perimeter-1", "--mapping", "affine:k=0.5",
              "--schedule", "power:2", "--x0", "1", "--max-iters", "200",
              "--residual-tol", "1e-6", "--out", str(out)])
    assert rc == 0
    summary = capsys.readouterr().out
    assert "divergent_sum: False" in summary
    assert "status: max-iters" in summary  # residual plateaus above tol


def test_bound_command(tmp_path):
    out = tmp_path / "b.csv"
    rc = run(["bound", "--delta", "0.5", "--schedule", "constant",
              "--alpha", "0.5", "--max-iters", "4", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,alpha_n,factor,B_n"
    assert lines[-1].split(",")[-1] == "0.31640625"


def test_bound_rejects_bad_delta(capsys):
    assert run(["bound", "--delta", "1.5"]) == 2


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("space=perimeter-1\nmapping=affine:k=0.5\n"
                   "schedule=constant\nalpha=0.5\nx0=1\nmax-iters=5\n"
                   "residual-tol=0\n")
    out = tmp_path / "c.csv"
    rc = run(["iterate", "--config", str(cfg), "--max-iters", "3",
              "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 5  # flag overrides the file's max-iters
    capsys.readouterr()


def test_env_seed_default(monkeypatch, capsys):
    # the seed comes from --seed or the config file only; GFIX_SEED has no
    # effect and the default is 0
    argv = ["check-axioms", "--space", "max-2", "--samples", "100"]
    monkeypatch.delenv("GFIX_SEED", raising=False)
    assert run(argv) == 0
    unset = capsys.readouterr()
    assert "seed=0" in unset.out.split()
    for value in ("x", "99"):
        monkeypatch.setenv("GFIX_SEED", value)
        assert run(argv) == 0
        assert capsys.readouterr() == unset


def test_env_seed_must_be_an_integer(tmp_path, monkeypatch, capsys):
    # a non-integer GFIX_SEED is not read; the integer check is made on the
    # seed's two sources, the flag and the config file
    monkeypatch.setenv("GFIX_SEED", "x")
    argv = ["check-axioms", "--space", "max-2", "--samples", "10"]
    assert run(argv) == 0
    assert "seed=0" in capsys.readouterr().out.split()
    assert run(argv + ["--seed", "x"]) == 2
    assert "invalid int value: 'x'" in capsys.readouterr().err
    cfg = tmp_path / "c.cfg"
    cfg.write_text("seed=x\n")
    assert run(argv + ["--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: seed: expected int, got 'x'\n"


def test_parse_mapping_errors():
    from gfix.cli import ConfigError
    with pytest.raises(ConfigError):
        parse_mapping("affine", 1)  # missing k
    with pytest.raises(ConfigError):
        parse_mapping("warp:k=1", 1)
    with pytest.raises(ConfigError):
        parse_mapping("affine:k=0.5,center=1;2", 1)  # wrong dimension
    with pytest.raises(ValueError):
        parse_mapping("affine:k=-1", 1)  # rejected by the library


def test_parse_schedule_variants():
    from gfix.cli import ConfigError

    def read(text, alpha=None):
        sched = parse_schedule(text, alpha)
        return sched.kind, sched.alpha_at(0), sched.alpha_at(1), sched.limit
    assert read("constant", 0.25) == ("constant", 0.25, 0.25, None)
    with pytest.raises(ConfigError):
        parse_schedule("constant:0.25", None)
    assert read("harmonic") == ("harmonic", 1.0, 0.5, None)
    assert read("power:2") == ("power", 1.0, 0.25, None)
    assert read("explicit:1;0.5") == ("explicit", 1.0, 0.5, 2)


def test_missing_required_flags_exit_two(capsys):
    assert run(["iterate", "--space", "perimeter-1"]) == 2
    assert run(["check-condition", "--space", "perimeter-1"]) == 2
