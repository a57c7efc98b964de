"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
status lines.
"""

import math
import time

import pytest

import gfix
from gfix.cli import CSV_HEADER, main
from gfix.rng import Stream

SPACES = ("perimeter-1", "perimeter-3", "max-2", "sign-example")


def report(num, text):
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


def test_01_axiom_suite(tmp_path):
    start = time.perf_counter()
    for key in SPACES:
        rc = main(["check-axioms", "--space", key, "--samples", "10000",
                   "--seed", "7", "--tol", "1e-9",
                   "--out", str(tmp_path / f"ax-{key}.txt")])
        assert rc == 0, key
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"axiom suite took {elapsed:.1f}s"
    report(1, f"check-axioms exit 0 on {len(SPACES)} spaces x 10000 samples "
              f"in {elapsed:.2f}s")


def test_02_derived_suite(tmp_path):
    for key in SPACES:
        rc = main(["check-derived", "--space", key, "--samples", "10000",
                   "--seed", "7", "--out", str(tmp_path / f"de-{key}.txt")])
        assert rc == 0, key
    report(2, "check-derived exit 0 on all four spaces x 10000 quadruples")


def test_03_convexity_suite(tmp_path):
    for key in ("perimeter-2", "max-2"):
        rc = main(["check-convexity", "--space", key, "--samples", "10000",
                   "--seed", "3", "--out", str(tmp_path / f"cx-{key}.txt")])
        assert rc == 0, key
    bad = gfix.ConvexGSpace(
        gfix.make_perimeter_space(2).space,
        gfix.ConvexStructure(
            lambda x, y, lam: tuple(a + b for a, b in zip(x, y))))
    rep = gfix.check_convexity(bad, gfix.SamplePlan(seed=3, count=1000))
    assert not rep.passed and rep.violations
    report(3, "bundled structures pass at 10000 tuples; adversarial x+y "
              "fails with witness")


def halving_trace(n, x0=1.0, alpha=0.5, sched=None):
    cs = gfix.make_perimeter_space(1)
    T = gfix.make_affine_contraction((0.0,), 0.5)
    sched = sched or gfix.constant_schedule(alpha)
    return gfix.run_mann(cs, T, (x0,), sched,
                         gfix.StoppingRule(max_iters=n, residual_tol=0.0))


def converged_halving_trace():
    # the criterion-4 run continued to the default residual tolerance,
    # so it both covers n = 0..50 and is fully converged for criterion 8
    cs = gfix.make_perimeter_space(1)
    T = gfix.make_affine_contraction((0.0,), 0.5)
    return gfix.run_mann(cs, T, (1.0,), gfix.constant_schedule(0.5),
                         gfix.StoppingRule(max_iters=10000,
                                           residual_tol=1e-10))


def test_04_exact_rate_regression():
    trace = converged_halving_trace()
    assert len(trace) > 51
    e0 = trace.true_errors[0]
    products = gfix.trace_products(trace, 0.5)
    for n, product, error in zip(range(51), products, trace.true_errors):
        bound = product * e0
        assert bound == pytest.approx(0.75 ** n * e0, rel=1e-12)
        assert abs(error - bound) <= 1e-12 * bound
    report(4, "true error equals 0.75^n bound within 1e-12 relative for "
              "n = 0..50")


def test_05_bound_dominance():
    schedules = [gfix.constant_schedule(a) for a in (0.25, 0.5, 1.0)]
    schedules.append(gfix.harmonic_schedule())
    rng = Stream(2024)
    checked = 0
    for trial in range(20):
        dim = 1 + trial % 4
        k = rng.uniform(0.0, 0.9)
        center = tuple(rng.uniform(-5.0, 5.0) for _ in range(dim))
        x0 = tuple(rng.uniform(-9.0, 9.0) for _ in range(dim))
        cs = (gfix.make_perimeter_space(dim) if trial % 2 == 0
              else gfix.make_max_space(dim))
        T = gfix.make_affine_contraction(center, k)
        spec = gfix.ContractionSpec(gfix.ConditionKind.FOUR_TERM,
                                    {"a": k, "b": 0.0, "c": 0.0, "d": 0.0})
        delta = gfix.check_applicability(spec).delta
        for sched in schedules:
            trace = gfix.run_mann(cs, T, x0, sched,
                                  gfix.StoppingRule(max_iters=200,
                                                    residual_tol=0.0))
            rep = gfix.verify_bound(trace, delta, tol=1e-9)
            assert rep.holds, (trial, sched.kind, rep.min_slack)
            assert rep.min_slack >= -1e-9
            checked += 1
    report(5, f"verify_bound holds on {checked} randomized runs of 200 steps")


def test_06_divergent_sum_necessity():
    n = 10 ** 5
    # convergent step sum: bound stalls at a positive level
    rb = gfix.product_bound(0.5, gfix.power_schedule(2.0), n)
    assert rb.products[-1] >= 0.2
    plateau = halving_trace(20000, x0=0.01, sched=gfix.power_schedule(2.0))
    assert plateau.residuals[-1] > 1e-6
    # divergent step sum: bound and error keep falling
    rb_h = gfix.product_bound(0.5, gfix.harmonic_schedule(), n)
    assert rb_h.products[-1] < 1e-2
    trace = halving_trace(n, x0=0.01, sched=gfix.harmonic_schedule())
    assert trace.true_errors[-1] < 1e-4
    report(6, f"power-2 schedule: B stalls at {rb.products[-1]:.3f}, residual "
              f"plateaus at {plateau.residuals[-1]:.2e}; harmonic: "
              f"B_1e5 = {rb_h.products[-1]:.2e}, error = "
              f"{trace.true_errors[-1]:.2e}")


def test_07_violation_detection(tmp_path):
    out = tmp_path / "viol.txt"
    rc = main(["check-condition", "--space", "perimeter-1",
               "--mapping", "affine:k=2", "--condition", "four-term",
               "--coeff", "a=0.5,b=0,c=0,d=0", "--samples", "1000",
               "--seed", "7", "--out", str(out)])
    assert rc == 1
    text = out.read_text()
    assert "result: FAIL" in text and "witness=" in text
    report(7, "expansive map rejected with witness triple within 1000 samples")


def test_08_convergence_diagnostics():
    converged = converged_halving_trace()
    assert converged.status == "residual-tol"
    maxima = gfix.diagnostics_maxima(converged, (0.0,), 10)
    assert all(v < 1e-6 for v in maxima.values()), maxima
    cs = gfix.make_perimeter_space(1)
    walker = gfix.run_mann(cs, gfix.make_translation((1.0,)), (0.5,),
                           gfix.constant_schedule(1.0),
                           gfix.StoppingRule(max_iters=50, residual_tol=0.0))
    rep = gfix.convergence_diagnostics(walker, (0.5,), tail=10, tol=1e-6)
    assert not rep.passed
    report(8, "all three criteria families < 1e-6 on converged tail; "
              "translation map fails all")


def test_09_vacuous_factor_exposure():
    def three_term(a):
        return gfix.check_applicability(gfix.ContractionSpec(
            gfix.ConditionKind.THREE_TERM, {"a": a, "b": 0.0, "c": 0.0}))
    verdict = three_term(0.4)
    assert verdict.delta == pytest.approx(2.0) and verdict.vacuous
    verdict = three_term(0.25)
    assert verdict.delta == pytest.approx(0.5) and not verdict.vacuous
    report(9, "three-displacement factor: 0.4 -> 2.0 flagged vacuous, "
              "0.25 -> 0.5 clean")


def test_10_reproducibility(tmp_path, capsys):
    args = ["iterate", "--space", "perimeter-1", "--mapping", "affine:k=0.5",
            "--condition", "four-term", "--coeff", "a=0.5,b=0,c=0,d=0",
            "--schedule", "constant", "--alpha", "0.5", "--x0", "1",
            "--max-iters", "50", "--residual-tol", "0"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().splitlines()[0] == CSV_HEADER
    report(10, "identical configs produce byte-identical trace CSVs")
