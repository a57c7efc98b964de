"""Command-line front end.

Commands: check-axioms, check-derived, check-convexity, check-condition,
iterate, bound.  Exit codes: 0 = all checks passed, 1 = violations or
divergence found, 2 = configuration or file error.

All reals are serialized with 17 significant digits so outputs
round-trip exactly; reruns with an identical configuration are
byte-identical, on any number of CPUs.  The sampled checks and the CSVs
run in ``core.forked_ranges`` of at least ``core.MIN_TUPLES`` witness
tuples or ``MIN_ROWS`` lines; iterate and bound keep their columns in
``core.Rows``, and a CSV is a ``core.Sized`` of lines formatted as they
are read.  Where a ``core.Worker`` is spare, iterate's ``_Writer``
formats the spilled rows' lines during the run.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from functools import partial
from itertools import chain, islice

from . import analysis, contractions, convexity, core, mann, spaces
from .core import CheckReport, SamplePlan

CSV_HEADER = "n,alpha_n,residual,true_error,bound,slack"
MIN_ROWS = 10000  # fewest CSV lines a range gets; a fork costs ~2 ms


class ConfigError(ValueError):
    pass


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_point(p) -> str:
    return "(" + ";".join(_fmt(c) for c in p) + ")"


def _number(text, what: str, kind=float):
    """``text`` as a ``kind``; an error names ``what``, its flag or key."""
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"{what}: expected {kind.__name__}, got {text!r}")


def _coords(text: str, what: str, dim: int, sep: str = ";") -> tuple:
    """A point of the space: ``dim`` reals separated by ``sep``."""
    point = tuple(_number(v, what) for v in text.split(sep))
    if len(point) != dim:
        raise ConfigError(f"{what} dimension does not match space")
    return point


def _pairs(items, where: str, keys=None) -> dict:
    """``key=value`` items as a dict; a malformed item, a repeated key or
    a key outside ``keys`` (when given) is an error naming ``where``."""
    values = {}
    for item in items:
        key, eq, value = item.partition("=")
        key = key.strip()
        if not eq:
            raise ConfigError(f"expected key=value, got {item!r}{where}")
        if key in values:
            raise ConfigError(f"key {key!r} given more than once{where}")
        if keys is not None and key not in keys:
            raise ConfigError(f"unknown key {key!r}{where}")
        values[key] = value.strip()
    return values


_MAPPING_KEYS = {"affine": ("k", "center"), "translation": ("offset",)}


def parse_mapping(text: str, dim: int) -> contractions.Mapping:
    """``affine:k=0.5[,center=1;2]`` or ``translation:offset=1;0``; a
    kind's first key in ``_MAPPING_KEYS`` is required.  Coordinates are
    semicolon-separated; the center defaults to the origin."""
    kind, _, params = text.partition(":")
    keys = _MAPPING_KEYS.get(kind)
    if keys is None:
        raise ConfigError(f"unknown mapping kind {kind!r}")
    kv = _pairs(params.split(",") if params else (), " in --mapping", keys)
    if keys[0] not in kv:
        raise ConfigError(f"{kind} mapping needs {keys[0]}=<value>")
    if kind == "affine":
        k = _number(kv["k"], "--mapping k")
        center = (_coords(kv["center"], "--mapping center", dim)
                  if "center" in kv else (0.0,) * dim)
        return contractions.make_affine_contraction(center, k)
    return contractions.make_translation(
        _coords(kv["offset"], "--mapping offset", dim))


_CONDITIONS = {k.value: k for k in contractions.ConditionKind}


def parse_condition(name: str, coeff: str | None) -> contractions.ContractionSpec:
    if name not in _CONDITIONS:
        raise ConfigError(f"unknown condition {name!r} "
                          f"(choose from {sorted(_CONDITIONS)})")
    if not coeff:
        raise ConfigError("--coeff is required with --condition")
    coeffs = {k: _number(v, f"--coeff {k}")
              for k, v in _pairs(coeff.split(","), " in --coeff").items()}
    return contractions.ContractionSpec(_CONDITIONS[name], coeffs)


def parse_schedule(text: str, alpha: float | None) -> mann.StepSchedule:
    """``constant`` (at step ``alpha``), ``harmonic``, ``power:2`` or
    ``explicit:1;0.5;0.25``."""
    kind, _, param = text.partition(":")
    what = f"--schedule {kind}"
    if kind in ("constant", "harmonic"):
        if param:
            raise ConfigError(f"{kind} schedule takes no parameter, "
                              f"got {param!r}")
        return (mann.constant_schedule(alpha) if kind == "constant"
                else mann.harmonic_schedule())
    if kind == "power":
        return mann.power_schedule(_number(param, what))
    if kind == "explicit":
        return mann.explicit_schedule(
            [_number(v, what) for v in param.split(";")])
    raise ConfigError(f"unknown schedule {text!r}")


_CHECKS = ("check-axioms", "check-derived", "check-convexity",
           "check-condition")
_COMMANDS = _CHECKS + ("iterate", "bound")
_MAPPED = ("check-condition", "iterate")
_REQUIRED = object()

# One row per option: (name, type, {command: default}).  The table builds
# every subparser, in this order and followed by --out and --config, and
# names the keys a command echoes in its config line.
_OPTIONS = (
    ("space", str, dict.fromkeys(_CHECKS + ("iterate",), _REQUIRED)),
    ("mapping", str, dict.fromkeys(_MAPPED, _REQUIRED)),
    ("condition", str, {"check-condition": _REQUIRED, "iterate": None}),
    ("coeff", str, dict.fromkeys(_MAPPED)),
    ("delta", float, {"bound": _REQUIRED}),
    ("schedule", str, dict.fromkeys(("iterate", "bound"), "constant")),
    ("alpha", float, dict.fromkeys(("iterate", "bound"), 0.5)),
    ("x0", str, {"iterate": "1"}),
    ("max-iters", int, {"iterate": 10000, "bound": 100}),
    ("residual-tol", float, {"iterate": 1e-10}),
    ("seed", int, dict.fromkeys(_CHECKS + ("iterate",), 0)),
    ("samples", int, dict.fromkeys(_CHECKS, 1000)),
    ("min-separation", float, dict.fromkeys(_CHECKS, 1e-3)),
    ("tol", float, dict.fromkeys(_CHECKS, 1e-9)),
)
_TYPES = {name: kind for name, kind, _ in _OPTIONS}


class Settings:
    """One command's option values: explicit flags win over the config
    file, which wins over the command's defaults.  Each is converted once,
    read or not; ``values`` keep their given form for the config line.
    The config file is flat ``key=value`` lines of the command's own
    option names; '#' starts a comment.  ``given`` holds the names that a
    flag or the file set."""

    def __init__(self, args: argparse.Namespace):
        own = {name: defaults[args.command]
               for name, _, defaults in _OPTIONS if args.command in defaults}
        file = {}
        if args.config:
            with open(args.config) as fh:
                lines = [line for line in map(str.strip, fh)
                         if line and not line.startswith("#")]
            file = _pairs(lines, f" in {args.config}", own)
        flags = {name: value for name in own if
                 (value := getattr(args, name.replace("-", "_"))) is not None}
        self.values = {**own, **file, **flags}
        self.given, self.typed = {*file, *flags}, {}
        for name, value in self.values.items():  # in _OPTIONS order
            if own[name] is _REQUIRED and value in (_REQUIRED, ""):
                raise ConfigError(f"--{name} is required")
            self.typed[name] = (None if value is None
                                else _number(value, name, _TYPES[name]))

    def get(self, name: str):
        """The value converted to the option's type; None when unset."""
        return self.typed[name]

    def config_line(self) -> str:
        return "# config: " + " ".join(
            f"{k}={v}" for k, v in sorted(self.values.items()) if v is not None)


def _csv(head: list, template: str, columns: tuple) -> core.Sized:
    """CSV lines, each ended by a newline: the preformatted ``head``
    lines, then ``template % row`` for each row of the zipped
    ``columns``.  Lines are formatted as they are read, so the whole text
    is never held at once; a range of them formats only its rows, each
    column sliced to them, and the head lines lie in the range from 0."""
    h, head = len(head), [line + "\n" for line in head]
    row = (template + "\n").__mod__

    def lines(start, stop):
        lo, hi = max(start - h, 0), max(stop - h, 0)
        return chain(head[start:stop],
                     map(row, zip(*(c[lo:hi] for c in columns))))
    return core.Sized(h + min(map(len, columns)), lines)


def _pieces(lines: core.Sized, start: int, stop: int):
    """Lines start..stop-1 of ``lines`` joined 512, about 64 KB, at a
    time: ``(lines done, text)`` pairs."""
    text = iter(lines[start:stop])
    for at in range(start, stop, 512):
        yield min(at + 512, stop), "".join(islice(text, 512))


class _Written(core.Sized):
    """A ``_csv`` whose first lines ``worker`` holds as chunks of text."""

    __slots__ = ("worker",)


class _Writer:
    """One process that formats iterate's CSV lines during the run.

    Called by the run's ``core.Rows`` after each spilled block, it starts
    a ``core.Worker`` at the first, where one is spare, then sends each
    spilled row count through a pipe.  The worker reads the rows by those
    counts (its copy of the store counts those of the fork), takes its
    bounds from ``analysis._chain``'s products, carried from block to
    block, and e_0 of row 0, and writes ``_csv``'s lines as ``_pieces``,
    whose lines done index them."""

    def __init__(self, template, dim, errors, delta):
        self.spec = template, dim, errors, delta
        self.worker = self.pipe = None

    def __call__(self, rows: core.Rows) -> None:
        if self.worker is None and core.Worker.spare():
            read, self.pipe = os.pipe()
            try:
                self.worker = core.Worker(lambda: self._texts(rows, read))
            finally:
                os.close(read)
        if self.pipe is not None:
            with contextlib.suppress(BrokenPipeError):  # it stopped early
                os.write(self.pipe,
                         (rows.spilled // rows.width).to_bytes(8, "little"))

    def _texts(self, rows: core.Rows, pipe: int):
        os.close(self.pipe)  # so that the parent's close ends the loop
        template, dim, errors, delta = self.spec
        at, state = 0, (1.0, None)
        while len(count := os.read(pipe, 8)) == 8:
            rows.spilled = int.from_bytes(count, "little") * rows.width
            for alphas, residuals, e in rows.read(
                    at, rows.spilled // rows.width, range(dim, dim + 3)):
                columns = [range(at, at + len(alphas)), alphas, residuals]
                columns += [e] * errors
                if delta is not None:
                    e0 = e[0] if at == 0 else e0
                    b = state[0]  # B_at, for the block's first row
                    _, products, state = analysis._chain(alphas, delta,
                                                         *state)
                    bounds = [p * e0 for p in (b, *products[:-1])]
                    columns += [bounds, [x - y for x, y in zip(bounds, e)]]
                csv = _csv([CSV_HEADER] * (at == 0), template, columns)
                for done, text in _pieces(csv, 0, len(csv)):
                    yield (at + 1 if at else 0) + done, text  # 1 header
                at += len(alphas)

    def lines(self, csv: core.Sized) -> core.Sized:
        """``csv``, as a ``_Written`` if the writer exited 0."""
        if self.worker is not None:
            os.close(self.pipe)
            self.pipe = None
            if self.worker.wait():
                csv = _Written(len(csv), csv.make)
                csv.worker = self.worker
        return csv

    def close(self) -> None:
        if self.pipe is not None:
            os.close(self.pipe)
        if self.worker is not None:  # killed if the run failed
            self.worker.close()


def _write_lines(path: str | None, lines) -> None:
    """Write ``lines`` to the file ``path`` or, without one, to stdout:
    a list's lines each with a newline added, a ``_csv``'s as they are.

    A ``_Written``'s text comes first, a chunk at a time.  The rest of a
    ``_csv``'s lines run in ``core.forked_ranges`` of ``MIN_ROWS`` or
    more, the head in the first, whose workers send ``_pieces``: no
    process holds a range's text."""
    with (open(path, "w", newline="") if path
          else contextlib.nullcontext(sys.stdout)) as fh:
        if isinstance(lines, list):
            fh.writelines(line + "\n" for line in lines)
            return
        if isinstance(lines, _Written):
            lines = lines[lines.worker.read(fh.write):]
        fh.flush()  # a worker must never hold unwritten output
        core.forked_ranges(len(lines), MIN_ROWS, partial(_pieces, lines),
                           lambda a, b: fh.writelines(lines[a:b]), fh.write)


def _report_lines(cmd: str, settings: Settings, report: CheckReport) -> list:
    lines = [f"# gfix {cmd}", settings.config_line()]
    lines.append(f"result: {'PASS' if report.passed else 'FAIL'}")
    lines.append(f"total_checks: {report.total_checks}")
    lines.append(f"violations: {report.violation_count}")
    lines.append(f"worst_margin: {_fmt(report.worst_margin)}")
    if report.worst_ratio is not None:
        lines.append(f"worst_ratio: {_fmt(report.worst_ratio)}")
    for v in report.violations:
        witness = "|".join(_fmt_point(p) if isinstance(p, tuple) else _fmt(p)
                           for p in v.witness)
        lines.append(f"violation: {v.check_id} lhs={_fmt(v.lhs)} "
                     f"rhs={_fmt(v.rhs)} margin={_fmt(v.margin)} "
                     f"witness={witness}")
    return lines


def _space(settings: Settings, convex: bool):
    """The configured space: its ConvexGSpace when ``convex``, else the
    bare GSpace."""
    key = settings.get("space")
    target = spaces.get_space(key)
    if isinstance(target, convexity.ConvexGSpace):
        return target if convex else target.space
    if convex:
        raise ConfigError(f"space {key!r} carries no convex structure")
    return target


def _schedule(settings: Settings) -> mann.StepSchedule:
    """The configured step schedule; only ``constant`` reads --alpha."""
    text = settings.get("schedule")
    if "alpha" in settings.given and text.partition(":")[0] != "constant":
        raise ConfigError(f"--alpha needs --schedule constant, got {text!r}")
    return parse_schedule(text, settings.get("alpha"))


def _cmd_check(args: argparse.Namespace, settings: Settings) -> int:
    cmd = args.command
    space = _space(settings, convex=cmd == "check-convexity")
    plan = SamplePlan(seed=settings.get("seed"),
                      count=settings.get("samples"),
                      min_separation=settings.get("min-separation"))
    tol = settings.get("tol")
    if cmd == "check-axioms":
        report = core.check_axioms(space, plan, tol)
    elif cmd == "check-derived":
        report = core.check_derived(space, plan, tol)
    elif cmd == "check-convexity":
        report = convexity.check_convexity(space, plan, tol)
    else:
        mapping = parse_mapping(settings.get("mapping"), space.dim)
        spec = parse_condition(settings.get("condition"),
                               settings.get("coeff"))
        report = contractions.check_condition(spec, space, mapping, plan, tol)
    _write_lines(args.out, _report_lines(cmd, settings, report))
    return 0 if report.passed else 1


def _cmd_iterate(args: argparse.Namespace, settings: Settings) -> int:
    target = _space(settings, convex=True)
    space = target.space
    mapping = parse_mapping(settings.get("mapping"), space.dim)
    sched = _schedule(settings)
    x0 = _coords(settings.get("x0"), "--x0", space.dim, ",")
    stop = mann.StoppingRule(max_iters=settings.get("max-iters"),
                             residual_tol=settings.get("residual-tol"))

    warnings, delta = [], None
    condition, coeff = settings.get("condition"), settings.get("coeff")
    if coeff and not condition:
        raise ConfigError("--coeff needs --condition")
    if condition:
        verdict = contractions.check_applicability(
            parse_condition(condition, coeff))
        if not verdict.satisfied:
            failing = ", ".join(f"{k} <= 0" for k, r in
                                verdict.residuals.items() if not r > 0)
            warnings.append("coefficients outside the applicable region "
                            f"({failing}); bound columns omitted")
        elif mapping.fixed_point is None:
            warnings.append("mapping has no known fixed point; "
                            "bound columns omitted")
        elif verdict.vacuous:
            warnings.append(f"delta={_fmt(verdict.delta)} >= 1: bound is "
                            "vacuous; bound columns omitted")
        else:
            delta = verdict.delta

    # "%.17g" writes a double as _fmt does; absent columns stay blank
    errors = mapping.fixed_point is not None
    values = 2 + errors + 2 * (delta is not None)
    template = "%d" + ",%.17g" * values + "," * (5 - values)
    writer = _Writer(template, space.dim, errors, delta)
    with contextlib.closing(writer):
        trace = mann.run_mann(target, mapping, x0, sched, stop, writer)
        columns = [trace.alphas, trace.residuals]
        columns += [trace.true_errors] * errors
        report = (None if delta is None
                  else analysis.verify_bound(trace, delta))
        if report is not None:
            columns += [report.bounds, report.slacks]
        csv = _csv([CSV_HEADER], template, (range(len(trace)), *columns))
        _write_lines(args.out, writer.lines(csv))

    summary = ["# gfix iterate",
               settings.config_line(),
               f"status: {trace.status}",
               f"steps: {len(trace) - 1}",
               f"final_residual: {_fmt(trace.residuals[-1])}",
               f"divergent_sum: {sched.divergent_sum}"]
    if report is not None:
        summary.append(f"delta: {_fmt(delta)}")
        summary.append(f"bound_holds: {str(report.holds).lower()}")
        summary.append(f"min_slack: {_fmt(report.min_slack)}")
    summary += [f"warning: {w}" for w in warnings]
    _write_lines(None, summary)
    failed = report is not None and not report.holds
    return 1 if failed or trace.status == mann.STATUS_DIVERGED else 0


def _cmd_bound(args: argparse.Namespace, settings: Settings) -> int:
    delta = settings.get("delta")
    sched = _schedule(settings)
    rb = analysis.product_bound(delta, sched, settings.get("max-iters"))
    _write_lines(args.out, _csv(
        ["n,alpha_n,factor,B_n", "0,,,%.17g" % rb.products[0]],
        "%d,%.17g,%.17g,%.17g", (range(1, len(rb.products)), rb.alphas,
                                 rb.factors, rb.products[1:])))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gfix",
        description="Verify G-metric/convexity axioms and run the averaged "
                    "fixed-point iteration with rate-bound checking.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _COMMANDS:
        p = sub.add_parser(command)
        for name, kind, defaults in _OPTIONS:
            if command in defaults:
                p.add_argument(f"--{name}", type=kind, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--config", default=None)
    return parser


_HANDLERS = {"iterate": _cmd_iterate, "bound": _cmd_bound}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        handler = _HANDLERS.get(args.command, _cmd_check)
        return handler(args, Settings(args))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
