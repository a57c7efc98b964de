"""Falsification sweep of the rate chain.

Wherever a sampled condition holds, its region applies with a
non-vacuous delta and the condition also holds along the orbit at
(x_n, u, u), the averaged iteration must obey

    G(x_n, u, u) <= B_n * G(x_0, u, u)

and no step may shrink the error by less than 1 - alpha_n*(1 - delta).
Each factor of trial i is drawn from its own stream Stream(BASE + j, i),
so the draw of one factor does not shift the draws of the others.
"""

import gfix
from gfix.contractions import _ROWS, ConditionKind, ContractionSpec
from gfix.core import le_tol
from gfix.rng import Stream

BASE = 1000
TRIALS = 800
ORBIT = 60
MIN_KEPT = 50  # the sweep must not pass by keeping nothing
TOL = 1e-9

_KINDS = tuple(ConditionKind)
_SPACES = (gfix.make_perimeter_space, gfix.make_max_space)


def _pick(stream, options):
    return options[int(stream.uniform() * len(options))]


def draw_trial(i):
    """(spec, convex space, mapping, schedule, x0) of trial i."""
    s = [Stream(BASE + j, i) for j in range(7)]
    kind = _pick(s[0], _KINDS)
    spec = ContractionSpec(kind, {n: s[1].uniform(0.0, 0.5)
                                  for n in _ROWS[kind].names})
    dim = 1 + int(s[3].uniform() * 3)
    cs = _pick(s[2], _SPACES)(dim)
    k = s[4].uniform(0.0, 0.95)
    T = gfix.make_affine_contraction(
        tuple(s[4].uniform(-5.0, 5.0) for _ in range(dim)), k)
    schedule = _pick(s[5], ("constant", "harmonic", "power", "explicit"))
    if schedule == "constant":
        sched = gfix.constant_schedule(s[5].uniform())
    elif schedule == "harmonic":
        sched = gfix.harmonic_schedule()
    elif schedule == "power":
        sched = gfix.power_schedule(s[5].uniform(0.2, 2.0))
    else:
        sched = gfix.explicit_schedule([s[5].uniform() for _ in range(ORBIT)])
    x0 = tuple(s[6].uniform(-10.0, 10.0) for _ in range(dim))
    return spec, cs, T, sched, x0


def kept_run(i):
    """The trial's delta and orbit when it passes every filter, else None."""
    spec, cs, T, sched, x0 = draw_trial(i)
    verdict = gfix.check_applicability(spec)
    if not verdict.satisfied or verdict.vacuous:
        return None
    space = cs.space
    plan = gfix.SamplePlan(seed=i, count=100)
    if not gfix.check_condition(spec, space, T, plan).passed:
        return None
    trace = gfix.run_mann(cs, T, x0, sched,
                          gfix.StoppingRule(max_iters=ORBIT, residual_tol=0.0))
    u = T.fixed_point
    for x in trace.points:
        lhs = space.g(T.apply(x), u, u)
        if le_tol(lhs, gfix.rhs_value(spec, space, T, x, u, u), TOL) > 0:
            return None
    return verdict.delta, trace


def test_rate_chain_survives_falsification_sweep():
    kept, failures = 0, []
    for i in range(TRIALS):
        run = kept_run(i)
        if run is None:
            continue
        kept += 1
        delta, trace = run
        if not gfix.verify_bound(trace, delta, TOL).holds:
            failures.append((i, "bound"))
        errors = trace.true_errors
        e0 = errors[0]
        for n, (error, alpha, later) in enumerate(
                zip(errors, trace.alphas, errors[1:])):
            # below this the iterate sits within rounding of u
            if error < 1e-9 * e0:
                continue
            step = 1.0 - alpha * (1.0 - delta)
            if later > (1.0 + 1e-9) * step * error:
                failures.append((i, f"step {n}"))
    assert kept >= MIN_KEPT
    assert failures == []
