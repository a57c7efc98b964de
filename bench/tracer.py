"""Call counts and self-timed spans around gfix's module boundaries.

``install`` replaces public functions and methods of the gfix modules,
and the callables inside resolved spaces and built mappings, with
wrappers that count calls and record self time: a span's duration
minus the time of the spans it encloses.  Nothing on disk changes; the
patching lives only in the child process that runs one traced command.
"""

from __future__ import annotations

import dataclasses
import resource
import time
import types
from collections import Counter, defaultdict


def peak_rss_kb() -> int:
    """Peak resident set of this process image.  Unlike ru_maxrss, VmHWM
    does not start from the parent's peak, which fork and exec carry over."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    def __init__(self):
        self.counts = Counter()
        self.self_s = defaultdict(float)
        self.rss_growth_kb = 0
        self.missing = []
        self._enclosed = []  # per open span: time spent in spans it encloses

    def span(self, name, fn):
        counts, self_s = self.counts, self.self_s
        enclosed, clock = self._enclosed, time.perf_counter

        def wrapper(*args, **kwargs):
            counts[name] += 1
            enclosed.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[name] += elapsed - enclosed.pop()
                if enclosed:
                    enclosed[-1] += elapsed
        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def patch(self, owner, attr, make):
        """Replace ``owner.attr`` by ``make(original)``; a name the code
        no longer has is recorded in ``missing`` instead."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, make(original))

    def report(self) -> dict:
        return {"counts": dict(self.counts), "self_s": dict(self.self_s),
                "rss_growth_kb": self.rss_growth_kb, "missing": self.missing}


def install(t: Tracer) -> None:
    from gfix import analysis, cli, contractions, convexity, core, mann, rng, spaces

    counts = t.counts

    t.patch(rng.Stream, "__init__", lambda f: t.span("rng.stream", f))
    t.patch(rng.Stream, "next_u64", lambda f: t.span("rng.next_u64", f))
    t.patch(rng.Stream, "uniform", lambda f: t.span("rng.uniform", f))

    def traced_space(space):
        draw = space.draw

        def counted_draw(stream, box, min_separation):
            before = counts["rng.uniform"]
            point = draw(stream, box, min_separation)
            # every bundled sampler takes one uniform per coordinate per
            # attempt, so the uniforms used give the attempts made
            counts["spaces.draw_attempts"] += (
                (counts["rng.uniform"] - before) // len(point))
            return point
        return dataclasses.replace(space, g=t.span("spaces.g", space.g),
                                   draw=t.span("spaces.draw", counted_draw))

    def resolve(get_space):
        def wrapper(key):
            target = get_space(key)
            if isinstance(target, convexity.ConvexGSpace):
                w = dataclasses.replace(
                    target.w, blend=t.span("convexity.blend", target.w.blend))
                return dataclasses.replace(
                    target, space=traced_space(target.space), w=w)
            return traced_space(target)
        return wrapper
    t.patch(spaces, "get_space", resolve)

    def sample(f):
        def wrapper(*args, **kwargs):
            quads = f(*args, **kwargs)
            counts["core.quads"] += len(quads)
            return quads
        return t.span("core.sample", wrapper)
    t.patch(core, "sample_quads", sample)
    t.patch(contractions, "sample_quads", lambda f: core.sample_quads)
    t.patch(core, "check_axioms", lambda f: t.span("core.check", f))
    t.patch(core, "check_derived", lambda f: t.span("core.check", f))
    t.patch(core.Collector, "record", lambda f: t.span("core.record", f))

    def report(f):
        def wrapper(self):
            result = f(self)
            counts["core.violations"] += result.violation_count
            return result
        return wrapper
    t.patch(core.Collector, "report", report)

    t.patch(convexity, "check_convexity",
            lambda f: t.span("convexity.check", f))

    def traced_mapping(make):
        def wrapper(*args, **kwargs):
            m = make(*args, **kwargs)
            return dataclasses.replace(
                m, apply=t.span("contractions.apply", m.apply))
        return wrapper
    t.patch(contractions, "make_affine_contraction", traced_mapping)
    t.patch(contractions, "make_translation", traced_mapping)
    t.patch(contractions, "rhs_value", lambda f: t.span("contractions.rhs", f))

    def check_condition(f):
        def wrapper(*args, **kwargs):
            applies, records = counts["contractions.apply"], counts["core.record"]
            result = f(*args, **kwargs)
            counts["contractions.check_applies"] += (
                counts["contractions.apply"] - applies)
            counts["contractions.check_records"] += counts["core.record"] - records
            return result
        return t.span("contractions.check", wrapper)
    t.patch(contractions, "check_condition", check_condition)

    def run_mann(f):
        def wrapper(*args, **kwargs):
            before = peak_rss_kb()
            trace = f(*args, **kwargs)
            t.rss_growth_kb += peak_rss_kb() - before
            counts["mann.steps"] += len(trace)
            return trace
        return t.span("mann.run", wrapper)
    t.patch(mann, "run_mann", run_mann)
    t.patch(mann.StepSchedule, "alpha_at",
            lambda f: t.counter("mann.alpha_at", f))

    # analysis reaches math.log only on the log-space accumulation path
    def counted_math(m):
        proxy = types.SimpleNamespace(**vars(m))
        proxy.log = t.counter("analysis.log_calls", m.log)
        return proxy
    t.patch(analysis, "math", counted_math)

    def products(factors_of):
        def make(f):
            def wrapper(*args, **kwargs):
                logs = counts["analysis.log_calls"]
                result = f(*args, **kwargs)
                counts["analysis.factors"] += factors_of(result)
                if counts["analysis.log_calls"] > logs:
                    counts["analysis.log_space_runs"] += 1
                return result
            return t.span("analysis.products", wrapper)
        return make
    t.patch(analysis, "product_bound", products(lambda rb: len(rb.factors)))
    t.patch(analysis, "trace_products", products(lambda p: len(p) - 1))
    t.patch(analysis, "verify_bound", lambda f: t.span("analysis.verify", f))

    t.patch(cli, "main", lambda f: t.span("cli.main", f))

    def write_lines(f):
        def wrapper(path, lines):
            if path:  # only CSVs go to --out files in the workloads
                counts["cli.rows"] += len(lines) - 1
            return f(path, lines)
        return wrapper
    t.patch(cli, "_write_lines", write_lines)

