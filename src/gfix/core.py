"""G-metric spaces and sampled verification of their axioms.

A G-metric assigns a nonnegative real to every triple of points and must
satisfy: vanishing on diagonal triples, strict positivity off the
diagonal, monotonicity G(x,x,y) <= G(x,y,z) for z != y, full symmetry in
all three arguments, and the rectangle inequality
G(x,y,z) <= G(x,a,a) + G(a,y,z).

Nothing here is proved symbolically; the checkers sample the domain
(random draws plus a structured pass over corners, midpoints and
coincident tuples) and report violations as data.

Every check, here and in the convexity and contraction modules, is a
named inequality between G-values at a witness tuple.  A check family
only states its inequalities: a function from one witness tuple to
``(form, check_id, witness, lhs, rhs)`` rows.  ``evaluate`` runs it over
the tuples from ``sample_tuples``, a ``Sized``: the one lazy sequence
type, which also views a column of a ``Rows`` store and a CSV's lines.
It turns each row into a signed margin through a margin form below, and
records it in a Collector: one heap of the 10 worst, non-finite ones
first.  Tuple i is drawn from its own stream, and the streams of a
block of tuples side by side where the draw is ``box_draw`` or
``nonzero_draw``.  So ``evaluate`` splits the tuples into
``forked_ranges``, one per usable CPU, the owner of the rerun of what a
stopped worker left, each range past the first in a ``Worker``, whose
chunks this process takes: it records every row in index order, so a
report, or an error, is the same on any number of CPUs.
"""

from __future__ import annotations

import contextlib
import itertools
import marshal
import math
import os
import tempfile
import weakref
from array import array
from collections import namedtuple
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

from .rng import Stream, lanes

# A point is a tuple of finite floats; dimension is its length.
Point = tuple
# Per-coordinate (low, high) bounds.
Box = tuple

STRICT_FLOOR = 1e-12  # strict positivity is witnessed above this level
_RATIO_FLOOR = 1e-15  # denominator clamp for worst-ratio diagnostics
MIN_TUPLES = 1000  # fewest witness tuples a range gets: 10-30 ms; a fork ~2 ms
_CHUNK_TUPLES = 64  # witness tuples per chunk a check worker sends
_BLOCK_VALUES = 32768  # doubles a row store keeps in memory: 256 KB
MAX_COUNT = 10 ** 8  # most samples or steps a run takes; README gives its cost


class DomainError(ValueError):
    """A point lies outside the space's domain."""


@dataclass(frozen=True)
class GSpace:
    """A G-metric evaluator plus a domain sampler.

    ``g`` must be deterministic and return a finite nonnegative real for
    every triple of domain points.  ``draw`` pulls one point from a
    Stream, rejecting anything outside the domain (e.g. near the excluded
    point of the sign-based space).
    """

    name: str
    dim: int
    g: Callable[[Point, Point, Point], float]
    draw: Callable[[Stream, Box, float], Point]
    contains: Callable[[Point], bool]
    default_box: Box


def check_count(n: int, what: str, low: int = 1) -> None:
    """Raise a ValueError naming ``what`` unless ``n`` lies in
    low..MAX_COUNT, so that a run that ``n`` counts ends in bounded
    time."""
    if n < low:
        raise ValueError(f"{what} must be >= {low}")
    if n > MAX_COUNT:
        raise ValueError(f"{what} must be <= {MAX_COUNT}")


class SamplePlan:
    """How to sample a space: seed, sample count, and the separation
    below which strict-inequality axioms are not checked.  Points are
    drawn from the space's ``default_box``."""

    __slots__ = ("seed", "count", "min_separation")

    def __init__(self, seed: int, count: int,
                 min_separation: float = 1e-3):
        check_count(count, "count")
        sep = min_separation
        if not math.isfinite(sep) or not 0.0 <= sep:
            raise ValueError(
                f"min_separation must be finite and >= 0, got {sep}")
        self.seed, self.count, self.min_separation = seed, count, sep


Violation = namedtuple("Violation", "check_id witness lhs rhs margin")

CheckReport = namedtuple("CheckReport", "total_checks violation_count "
                         "violations worst_margin passed worst_ratio",
                         defaults=(None,))
CheckReport.__doc__ = """Aggregate of one sampled verification run.

    ``violations`` keeps only the 10 worst offenders (sorted by margin,
    descending); ``violation_count`` is the full tally.  ``worst_margin``
    is the maximum signed margin over every check performed, so a passing
    report shows how close the worst sample came.
    """


_KEEP_WORST = 10


class Collector:
    """Accumulates check outcomes, one ``record`` per row.

    A check fails when its margin is > 0 or not finite.  ``worst`` is a
    min-heap, kept sorted, of plain tuples ``(rank, -seq, check_id,
    witness, lhs, rhs, margin)``, seq the violation count at the row and
    rank the margin, or +inf for a NaN or +-inf margin, whose id gains
    ``:non-finite``: the 10 worst violations, ties in the order first
    seen, or placeholders of rank 0; a row enters above ``worst[0]``
    alone.  ``report`` changes nothing and makes a ``Violation`` of each
    survivor.  A non-finite margin makes ``worst_margin`` +inf, or NaN
    for good once a NaN margin is seen, and ``worst_ratio``, when ratios
    are noted, the same.
    """

    def __init__(self):
        self.total = self.count = 0
        self.worst = [(0.0, 0, "", (), 0.0, 0.0, 0.0)] * _KEEP_WORST
        self.worst_margin = -math.inf
        self.worst_ratio: float | None = None

    def record(self, check_id: str, witness: tuple, lhs: float, rhs: float,
               margin: float) -> None:
        self.total += 1
        if margin > self.worst_margin or margin != margin:
            self.worst_margin = margin
        if -math.inf < margin <= 0.0:
            return
        self.count += 1
        rank = margin
        if not 0.0 < margin < math.inf:
            if self.worst_margin == self.worst_margin:  # NaN stays NaN
                self.worst_margin = math.inf
            check_id, rank = f"{check_id}:non-finite", math.inf
        if rank > self.worst[0][0]:
            self.worst[0] = (rank, -self.count, check_id, witness, lhs, rhs,
                             margin)
            self.worst.sort()

    def report(self) -> CheckReport:
        ratio = self.worst_ratio
        if ratio is not None and not self.worst_margin < math.inf:
            ratio = self.worst_margin  # an inf or NaN margin has no ratio
        return CheckReport(
            total_checks=self.total,
            violation_count=self.count,
            violations=tuple(Violation(*row[2:])
                             for row in reversed(self.worst) if row[0]),
            worst_margin=self.worst_margin,
            passed=self.count == 0,
            worst_ratio=ratio,
        )


# Margin forms: each maps a row's (lhs, rhs) and the run's tolerance to a
# signed margin, > 0 on a violation.

def le_tol(lhs: float, rhs: float, tol: float) -> float:
    """lhs <= rhs, with slack tol * max(1, |rhs|)."""
    return lhs - rhs - tol * max(1.0, abs(rhs))


def spread_tol(lhs: float, rhs: float, tol: float) -> float:
    """A largest value lhs exceeds a smallest value rhs by at most
    tol * max(1, |lhs|)."""
    return lhs - rhs - tol * max(1.0, abs(lhs))


def abs_tol(lhs: float, rhs: float, tol: float) -> float:
    """|lhs| <= tol; rhs is the 0 that lhs should equal."""
    return abs(lhs) - tol


def le(lhs: float, rhs: float, tol: float) -> float:
    """lhs <= rhs, no slack."""
    return lhs - rhs


def ge(lhs: float, rhs: float, tol: float) -> float:
    """lhs >= rhs, no slack."""
    return rhs - lhs


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def forked_ranges(size: int, minimum: int, work: Callable, run: Callable,
                  take: Callable) -> None:
    """Run items 0..size-1 in k = max(1, min(1 + ``Worker.spare()``,
    size // minimum)) ranges, each past the first a ``Worker`` of the
    ``(at, payload)`` items of ``work(start, stop)``, items start..at-1
    done.  This process runs ``run(0, stop)``, then, as each worker ends,
    in order, takes its chunks and runs the rest of its range, so an
    error is the one a single range raises.  Every worker is closed, so
    killed when this raises; one that failed raises ``OSError``."""
    k = max(1, min(1 + Worker.spare(), size // minimum))
    cuts = [size * i // k for i in range(k + 1)]
    workers, failed = [], 0
    try:
        for start, stop in zip(cuts[1:-1], cuts[2:]):
            workers.append(Worker(lambda: work(start, stop)))
        run(0, cuts[1])
        for worker, at, stop in zip(workers, cuts[1:], cuts[2:]):
            failed += not worker.wait()
            run(worker.read(take, at), stop)
    finally:
        for worker in workers:
            worker.close()
    if failed:
        raise OSError(f"{failed} of {k - 1} forked workers failed")


class Worker:
    """A forked process that writes each ``(at, payload)`` of ``items()``
    as a length-prefixed ``marshal`` chunk to its own unlinked temporary
    file until one raises (the reader runs the rest and meets the error),
    then leaves by ``os._exit``, flushing no inherited buffer: 0, or 1 on
    a failed write.  ``close`` kills and reaps it unless ``wait`` did, and
    closes its file."""

    def __init__(self, items: Callable[[], Iterable]):
        def chunks():
            with contextlib.suppress(Exception):  # raised by items, not writes
                for chunk in map(marshal.dumps, items()):
                    yield len(chunk).to_bytes(4, "little") + chunk

        self.file = tempfile.TemporaryFile()
        try:
            self.pid = os.fork()
        except BaseException:
            self.file.close()
            raise
        if self.pid == 0:
            try:
                self.file.writelines(chunks())
                self.file.flush()
                os._exit(0)
            finally:
                os._exit(1)

    @staticmethod
    def spare() -> int:
        """How many may run beside this process: CPUs - 1, 0 without fork."""
        return _cpus() - 1 if hasattr(os, "fork") else 0

    def wait(self) -> bool:
        """Reap the worker; whether it exited 0."""
        status, self.pid = os.waitpid(self.pid, 0)[1], None
        return status == 0

    def read(self, take: Callable, at: int = 0) -> int:
        """``take(payload)`` of each whole chunk; the last one's ``at``."""
        self.file.seek(0)
        while len(head := self.file.read(4)) == 4:
            n = int.from_bytes(head, "little")
            if len(chunk := self.file.read(n)) < n:
                break
            at, payload = marshal.loads(chunk)
            take(payload)
        return at

    def close(self) -> None:
        if self.pid is not None:
            os.kill(self.pid, 9)  # SIGKILL: a failed run needs no more rows
            self.wait()
        self.file.close()


def _pread(file, start: int, stop: int) -> memoryview:
    """Doubles start..stop-1 of ``file``; the file offset is left alone."""
    if hasattr(os, "pread"):  # forked workers share the file offset
        data = os.pread(file.fileno(), 8 * (stop - start), 8 * start)
    else:  # where os.pread is missing, so is os.fork
        file.seek(8 * start)
        data = file.read(8 * (stop - start))
    return memoryview(data).cast("d")


class Rows:
    """Rows of ``width`` doubles.  ``add`` appends to ``tail`` and moves
    each full block, about 256 KB at any width, to an unlinked temporary
    file, made then and closed with the store, then calls ``on_spill``
    with the store, when given; ``read`` is the one way rows leave it,
    and ``column`` views one column through it."""

    def __init__(self, width: int, on_spill: Callable | None = None):
        self.width, self.file, self.spilled = width, None, 0
        self.on_spill = on_spill
        self.block = max(1, _BLOCK_VALUES // width) * width  # values
        self.tail = array("d")

    def __len__(self) -> int:
        return (self.spilled + len(self.tail)) // self.width

    def add(self, values: Iterable[float]) -> None:
        """Append ``values``, whole rows in row order."""
        self.tail.extend(values)
        while len(self.tail) >= self.block:
            if self.file is None:
                self.file = tempfile.TemporaryFile()
                weakref.finalize(self, self.file.close)
            self.file.write(memoryview(self.tail)[:self.block])
            self.file.flush()  # _pread reads what the kernel holds
            self.spilled += self.block
            del self.tail[:self.block]
            if self.on_spill:
                self.on_spill(self)

    def read(self, start: int, stop: int, columns: Sequence[int]):
        """Rows start..stop-1, one whole block at a time: for each block
        read, a list of one array per index in ``columns``, copies."""
        w, a, b = self.width, start * self.width, stop * self.width
        for at in range(a - a % self.block, b, self.block):  # whole blocks
            lo, hi, s = max(a, at), min(b, at + self.block), self.spilled
            block = (_pread(self.file, lo, hi) if at < s
                     else memoryview(self.tail)[lo - s:hi - s])
            out = [array("d", block[j::w].tobytes()) for j in columns]
            block.release()  # tail may grow again once no view holds it
            yield out

    def column(self, j: int) -> Sized:
        """Column ``j`` as a ``Sized`` read through ``read``: an index
        reads only its own row, a slice only its rows, and a pass one
        block at a time."""
        def values(a, b):
            return itertools.chain.from_iterable(
                c for c, in self.read(a, b, (j,)))
        return Sized(len(self), values)


class Sized:
    """A lazy sequence: items start..start+size-1 of ``make``, where
    ``make(a, b)`` gives items a..b-1 afresh, so nothing is held between
    passes.  ``len()`` makes nothing, a pass is one ``make`` call, an
    index makes only its own item, and a slice with step 1 is another
    view; a strided slice is a list, made from one pass.  A ``Sized``
    equals only another ``Sized`` with equal items, a NaN item equal to
    a NaN item."""

    __slots__ = ("size", "make", "start")

    def __init__(self, size: int, make: Callable[[int, int], Iterable],
                 start: int = 0):
        self.size, self.make, self.start = size, make, start

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        return iter(self.make(self.start, self.start + self.size))

    def __getitem__(self, i):
        at = range(self.start, self.start + self.size)[i]
        if isinstance(at, int):
            return next(iter(self.make(at, at + 1)))
        if at.step != 1:
            return list(self)[i]
        return Sized(len(at), self.make, at.start)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Sized) and len(self) == len(other)
                and all(a == b or a != a and b != b
                        for a, b in zip(self, other)))


def evaluate(items: Sequence, inequalities: Callable, tol: float,
             ratio: bool = False) -> CheckReport:
    """Record every inequality at every witness tuple ``t`` of ``items``,
    a ``Sized`` or a list, of which a range reads ``items[start:stop]``.

    ``inequalities(*t)`` returns or yields ``(form, check_id, witness,
    lhs, rhs)`` rows; a row's margin is ``form(lhs, rhs, tol)``.  With
    ``ratio`` the report also carries the worst lhs/rhs ratio.  ``tol``
    lies in [0, 1): below, equalities fail; above, slack exceeds values.
    It is checked first, so a bad one makes no range and draws nothing.

    The tuples run in ``forked_ranges`` of ``MIN_TUPLES`` or more.  A
    worker sends its rows in chunks of ``_CHUNK_TUPLES`` tuples, a passing
    row without its witness, and this process records every row in index
    order, so the report, or the error, is the one a single pass gives.
    """
    if not 0.0 <= tol < 1.0:
        raise ValueError(f"tol must be in [0, 1), got {tol}")
    col = Collector()
    record, rows = col.record, []

    if ratio:  # the first ratio enters, a later one when strictly larger
        def keep(check_id, witness, lhs, rhs, margin):
            record(check_id, witness, lhs, rhs, margin)
            q = lhs / max(rhs, _RATIO_FLOOR)  # NaN for a NaN rhs
            if col.worst_ratio is None or q > col.worst_ratio:
                col.worst_ratio = q
    else:
        keep = record

    def run(witnesses, keep=keep):
        for t in witnesses:
            for form, check_id, witness, lhs, rhs in inequalities(*t):
                keep(check_id, witness, lhs, rhs, form(lhs, rhs, tol))

    def send(check_id, witness, lhs, rhs, margin):
        # record reads no witness of a row that passes
        rows.append((check_id, None if -math.inf < margin <= 0.0 else witness,
                     lhs, rhs, margin))

    def work(start, stop):
        witnesses = iter(items[start:stop])  # drawn a block at a time
        for i in range(start, stop, _CHUNK_TUPLES):
            run(itertools.islice(witnesses, _CHUNK_TUPLES), send)
            yield min(i + _CHUNK_TUPLES, stop), rows
            rows.clear()

    def take(rows):
        for row in rows:
            keep(*row)

    forked_ranges(len(items), MIN_TUPLES, work,
                  lambda start, stop: run(items[start:stop]), take)
    return col.report()


def structured_points(space: GSpace) -> list:
    """Deterministic grid pass over the default box, filtered to the domain:
    corners (all up to dim 3, else the two extremes), midpoint, quarters."""
    box = space.default_box
    if space.dim <= 3:
        pts = list(itertools.product(*box))
    else:
        pts = [tuple(lo for lo, _ in box), tuple(hi for _, hi in box)]
    pts.append(tuple((lo + hi) / 2 for lo, hi in box))
    pts.append(tuple(lo + 0.25 * (hi - lo) for lo, hi in box))
    pts.append(tuple(lo + 0.75 * (hi - lo) for lo, hi in box))
    return [tuple(float(c) for c in p) for p in pts if space.contains(p)]


def structured_quads(pts: Sequence[Point]) -> list:
    """Coincident-point combinations the random pass is unlikely to hit."""
    quads = [(p, p, p, p) for p in pts]
    for p, q in itertools.combinations(pts, 2):
        quads.extend([(p, p, q, q), (p, q, q, p), (p, q, p, q),
                      (q, p, p, p), (p, q, q, q)])
    for p, q, r in zip(pts, pts[1:], pts[2:]):
        quads.append((p, q, r, p))
    return quads


def box_draw(stream: Stream, box: Box, min_separation: float) -> Point:
    """One uniform per coordinate of ``box``: the Euclidean spaces' draw."""
    return tuple(itertools.starmap(stream.uniform, box))


_DRAW_ATTEMPTS = 10_000  # rejection budget of one nonzero_draw
_ZERO_GAP = 1e-12  # nonzero_draw keeps |v| >= max(min_separation, this)
_SPARE_DRAWS = 2  # lane columns past a tuple's points, for its rejections


def nonzero_draw(stream: Stream, box: Box, min_separation: float) -> Point:
    """One uniform of ``box``'s first coordinate with |v| >= the floor
    max(min_separation, 1e-12), or DomainError after 10 000 draws: the
    sign example's draw, away from its excluded 0 and its jump there."""
    lo, hi = box[0]
    floor = max(min_separation, _ZERO_GAP)
    for _ in range(_DRAW_ATTEMPTS):
        v = stream.uniform(lo, hi)
        if abs(v) >= floor:
            return (v,)
    raise DomainError(f"no point of ({lo}, {hi}) with |v| >= {floor} "
                      f"in {_DRAW_ATTEMPTS} draws")


def sample_tuples(space: GSpace, plan: SamplePlan,
                  structured: Callable[[list], Iterable[tuple]],
                  weights: Callable[[float], object] | None = None,
                  points: int = 4) -> Sized:
    """Witness tuples: ``plan.count`` random ones, then the structured pass.

    Random tuple i holds ``points`` points drawn from Stream(seed, i),
    then ``weights(u)`` when given, u the stream's next uniform.
    ``structured`` maps the box's structured points to further tuples of
    the same shape.  Random tuples are drawn as a pass reads them, and a
    range draws none before its start; ``len()`` draws nothing.  With
    ``box_draw`` or ``nonzero_draw``, ``rng.lanes`` draws them in blocks
    of at most ``MIN_TUPLES``, u as one more column, with the same
    values.  A ``nonzero_draw`` lane has ``_SPARE_DRAWS`` more values, or
    none before a u, and keeps its first accepted ones; a tuple they
    leave short is drawn from its stream, a draw call per point."""
    box, seed = space.default_box, plan.seed
    draw, sep, count = space.draw, plan.min_separation, plan.count
    extra = list(structured(structured_points(space)))
    dim = 1 if draw is nonzero_draw else len(box)
    width = points + _SPARE_DRAWS * (draw is nonzero_draw and not weights)
    bounds = box[:dim] * width + ((0.0, 1.0),) * bool(weights)
    floor = max(sep, _ZERO_GAP)

    def drawn(i):
        s = Stream(seed, i)
        t = tuple(draw(s, box, sep) for _ in range(points))
        return t + (weights(s.uniform()),) if weights else t

    def nonzero(i, lane):
        kept = [(v,) for v in lane[:width] if abs(v) >= floor]
        if len(kept) < points:
            return drawn(i)
        t = tuple(kept[:points])
        return t + (weights(lane[-1]),) if weights else t

    def tuples(start, stop):
        end = min(stop, count)
        if draw is box_draw or draw is nonzero_draw:
            for at in range(start, end, MIN_TUPLES):
                cols = lanes(seed, at, min(at + MIN_TUPLES, end), bounds)
                if draw is nonzero_draw:
                    yield from map(nonzero, itertools.count(at), zip(*cols))
                    continue
                parts = [zip(*cols[j:j + dim]) for j in range(0, len(cols), dim)]
                if weights:  # the last part is the u column alone
                    parts[-1] = map(weights, cols[-1])
                yield from zip(*parts)
        else:
            yield from map(drawn, range(start, end))
        yield from extra[max(start - count, 0):max(stop - count, 0)]
    return Sized(count + len(extra), tuples)


def sample_quads(space: GSpace, plan: SamplePlan, points: int = 4) -> Sized:
    """Random quadruples per the plan plus the structured pass, each cut
    to its first ``points`` points; those do not depend on ``points``."""
    return sample_tuples(
        space, plan, lambda pts: [q[:points] for q in structured_quads(pts)],
        points=points)


def check_axioms(space: GSpace, plan: SamplePlan, tol: float = 1e-9) -> CheckReport:
    """Sampled verification of the five defining axioms.

    Strict positivity and the z != y side condition are only checked at
    samples separated by at least ``plan.min_separation``: floating point
    cannot witness strict inequalities at arbitrarily close points.
    """
    g, dist = space.g, math.dist
    sep = plan.min_separation

    def axioms(x, y, z, a):
        # (i) vanishing on the diagonal
        yield abs_tol, "axiom-i", (x,), g(x, x, x), 0.0
        # (ii) strict positivity for separated points
        gxxy = g(x, x, y)
        if dist(x, y) >= sep:
            yield ge, "axiom-ii", (x, y), gxxy, STRICT_FLOOR
        # (iv) symmetry in all three arguments; vals[0] is G(x,y,z)
        vals = [g(x, y, z), g(x, z, y), g(y, x, z), g(y, z, x), g(z, x, y),
                g(z, y, x)]
        # (iii) G(x,x,y) <= G(x,y,z) when z is separated from y
        if dist(z, y) >= sep:
            yield le_tol, "axiom-iii", (x, y, z), gxxy, vals[0]
        yield spread_tol, "axiom-iv", (x, y, z), max(vals), min(vals)
        # (v) rectangle inequality
        yield (le_tol, "axiom-v", (x, y, z, a), vals[0],
               g(x, a, a) + g(a, y, z))

    return evaluate(sample_quads(space, plan), axioms, tol)


def check_derived(space: GSpace, plan: SamplePlan, tol: float = 1e-9) -> CheckReport:
    """Sampled verification of the standard consequences of the axioms.

    The implication G = 0 => all points equal cannot be falsified by
    sampling, so it is checked constructively: diagonal triples must give
    exactly 0 and no separated triple may fall below tol.
    """
    g, dist = space.g, math.dist
    sep = plan.min_separation

    def derived(x, y, z, a):
        gxyz = g(x, y, z)
        # (i) constructive: diagonal gives 0, separated triples stay positive
        yield abs_tol, "derived-i", (x,), g(x, x, x), 0.0
        if (dist(x, y) >= sep and dist(y, z) >= sep
                and dist(x, z) >= sep):
            yield ge, "derived-i", (x, y, z), gxyz, tol
        # (ii) G(x,y,z) <= G(x,x,y) + G(x,x,z)
        yield le_tol, "derived-ii", (x, y, z), gxyz, g(x, x, y) + g(x, x, z)
        # (iii) G(x,y,y) <= 2 G(y,x,x)
        yield le_tol, "derived-iii", (x, y), g(x, y, y), 2.0 * g(y, x, x)
        # (iv) G(x,y,z) <= G(x,a,z) + G(a,y,z)
        gxaz, gayz = g(x, a, z), g(a, y, z)
        yield le_tol, "derived-iv", (x, y, z, a), gxyz, gxaz + gayz
        # (v) G(x,y,z) <= (2/3)(G(x,y,a) + G(x,a,z) + G(a,y,z))
        yield (le_tol, "derived-v", (x, y, z, a), gxyz,
               (2.0 / 3.0) * (g(x, y, a) + gxaz + gayz))
        # (vi) G(x,y,z) <= G(x,a,a) + G(y,a,a) + G(z,a,a)
        yield (le_tol, "derived-vi", (x, y, z, a), gxyz,
               g(x, a, a) + g(y, a, a) + g(z, a, a))

    return evaluate(sample_quads(space, plan), derived, tol)
