"""Run one gfix CLI invocation in this fresh interpreter.

    python3 -E -s bench/child.py --setup SPACE
        import gfix.cli, build its parser, resolve SPACE, exit
    python3 -E -s bench/child.py --calibrate
        run a fixed pure-Python loop that does not touch gfix
    python3 -E -s bench/child.py REPORT TRACE ARGS...
        exit with gfix.cli.main(ARGS); write this process's peak RSS and,
        when TRACE is 1, the tracer's counts and self times to REPORT

The gfix package is imported from the ``src`` directory next to this
file's directory, never from an installed copy.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def calibrate() -> None:
    """Work of the kind gfix does (float tuples, small calls, math.dist)
    whose cost no change to gfix can move; it measures machine speed."""
    import math

    def blend(x, y, lam):
        return tuple(lam * a + (1.0 - lam) * b for a, b in zip(x, y))
    x, y, total = (1.0, 2.0, 3.0), (0.5, -1.0, 2.0), 0.0
    for _ in range(60000):
        x = blend(x, y, 0.999)
        total += math.dist(x, y) + abs(x[0] - y[1])
    print(format(total, ".17g"))


def main(argv) -> int:
    if argv[0] == "--calibrate":
        calibrate()
        return 0
    if argv[0] == "--setup":
        from gfix import cli, spaces
        cli.build_parser()
        spaces.get_space(argv[1])
        return 0

    report_path, traced, args = argv[0], argv[1] == "1", argv[2:]
    tracer = None
    if traced:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    from gfix import cli
    code = cli.main(args)
    sys.stdout.flush()

    import json
    from tracer import peak_rss_kb
    report = {"peak_rss_kb": peak_rss_kb()}
    if tracer is not None:
        report.update(tracer.report())
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
