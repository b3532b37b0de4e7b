#!/usr/bin/env python3
"""Per-check in-process wall time of the atomic suites over an atom range,
or of the interval suites over a sample.

    PYTHONPATH=src python scripts/check_times.py --atoms 7..7
    PYTHONPATH=src python scripts/check_times.py --samples 1000

Runs the checks that ``mrfgraph verify --atoms LO..HI`` (or ``mrfgraph
sample --samples N``) selects, in the same order, through the harness's own
instance loop on one ``RunContext``, and prints one line per check: wall
seconds, the process's peak RSS so far (``ru_maxrss``, so it never
decreases down the lines), then its pass/fail/skipped entry counts.  Work
that several checks share is done first, timed on a line of its own rather
than charged to whichever check asks first: ``--atoms`` builds each n's
four quotient and four expanded graphs (the expanded ones share one vertex
universe), the graphs that checks request at the run's alphabet, except
those over the vertex guard, which the checks skip; ``--samples`` draws
the interval class sample.  A check's time still includes the graphs at
other alphabets and the invariants (metrics, triangle profile, partiteness)
that it is the first to ask for; later checks find the graphs cached and
the invariants kept on them, as in a real run.  The last line is the
total.  Nothing is written into a report, and the report of the same run
is unaffected.
"""

import argparse
import resource
import sys
import time

from mrfgraph.cli import _atom_range, _int_at_least
from mrfgraph.graph_build import BoundExceededError, GraphKind
from mrfgraph.harness import RunContext, SuiteConfig, _check_entries, applicable_checks
from mrfgraph.measure_space import INTERVAL


def _builds(ctx: RunContext, *key) -> bool:
    """Build one graph into the run's cache; one over the vertex guard is
    not built, and the checks that ask for it skip it."""
    try:
        ctx.graph(*key)
    except BoundExceededError:
        return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--atoms", type=_atom_range, default=(2, 5), help="atom range, e.g. 7..7")
    group.add_argument("--samples", type=_int_at_least(1),
                       help="time the interval checks on this many sampled classes")
    args = parser.parse_args(argv)
    if args.samples is None:
        config = SuiteConfig(atoms_min=args.atoms[0], atoms_max=args.atoms[1])
    else:
        config = SuiteConfig(backend=INTERVAL, sample_count=args.samples)
    ctx = RunContext(config)
    checks = applicable_checks(config)
    start = time.perf_counter()
    if args.samples is None:
        built = [key for n in range(config.atoms_min, config.atoms_max + 1) for kind in GraphKind
                 for key in ((n, kind, "quotient"), (n, kind, "expanded", config.alphabet))
                 if _builds(ctx, *key)]
        shared = "RunContext.graph", f"{len(built)} quotient and expanded graphs"
    else:
        shared = "RunContext.interval_classes", f"{len(ctx.interval_classes())} sampled classes"
    print(f"{time.perf_counter() - start:8.3f} s  {shared[0]:45s} {shared[1]}")
    for check in checks:
        t0 = time.perf_counter()
        entries = _check_entries(check, ctx)
        elapsed = time.perf_counter() - t0
        statuses = [e.status for e in entries]
        counts = "/".join(str(statuses.count(s)) for s in ("pass", "fail", "skipped"))
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024  # KiB on Linux
        print(f"{elapsed:8.3f} s  {check.id:45s} peak {peak:5d} MiB  pass/fail/skipped {counts}")
    total = time.perf_counter() - start
    print(f"{total:8.3f} s  total over {len(checks)} checks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
