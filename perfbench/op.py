"""One benchmark operation in a fresh interpreter.

    python3 perfbench/op.py --root ROOT --workload NAME --seed N --mode MODE

MODE is ``setup`` (imports only, to sample set-up time), ``plain`` (one timed
operation) or ``traced`` (one timed operation with layer tracing installed).
Prints one JSON object on stdout.  ``ready`` is a ``time.monotonic`` stamp
taken just before the first call into the workload; the parent subtracts
its own stamp from before the spawn to get set-up time (both read the
system-wide monotonic clock).

The operation is timed from the first call into the library until its
output is consumed (captured and hashed); the gate that judges the output
runs afterwards, outside the timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import pathlib
import random
import resource
import statistics
import sys
import time
from fractions import Fraction


def calibrate() -> float:
    """Seconds for a fixed stdlib-only loop shaped like the library's work:
    frozenset algebra and dict lookups, then exact Fraction interval
    intersection.  Its working set stays under 1 MiB, below what any
    operation adds, so it does not move ``peak_rss_mib``.

    It never touches mrfgraph, so no library change can move it.  A shared
    host can slow a process down by tens of percent for tens of seconds at
    a time; timing this loop in the same process just before and after an
    operation lets ``run.wall_ref_s`` correct for most of that.
    """
    t0 = time.perf_counter()
    seen = {}
    for i in range(1, 12_000):
        a = frozenset((i & 7, (i >> 3) & 7, i % 5))
        b = frozenset((i % 3, (i >> 2) & 3))
        seen[i % 211] = hash((a | b) - (a & b))
    rng = random.Random(5)
    den = 27 * 64
    sets = []
    for _ in range(2_000):
        cuts = sorted(rng.sample(range(1, den), 6))
        sets.append(tuple((Fraction(cuts[j], den), Fraction(cuts[j + 1], den))
                          for j in (0, 2, 4)))
    for i in range(6_000):
        a, b = sets[i % 2_000], sets[i * 7919 % 2_000]
        x = y = 0
        while x < 3 and y < 3:
            if max(a[x][0], b[y][0]) < min(a[x][1], b[y][1]):
                seen[i % 211] = i
            if a[x][1] <= b[y][1]:
                x += 1
            else:
                y += 1
    return time.perf_counter() - t0


def _load_library(root: pathlib.Path) -> None:
    src = root / "src"
    if not (src / "mrfgraph" / "__init__.py").is_file():
        raise SystemExit(f"no mrfgraph sources under {src}")
    sys.path.insert(0, str(src))
    import mrfgraph
    from mrfgraph import checks, cli  # noqa: F401  (check registry import)

    if pathlib.Path(mrfgraph.__file__).resolve().parent != (src / "mrfgraph").resolve():
        raise SystemExit(f"imported mrfgraph from {mrfgraph.__file__}, not {src}")


def _run_cli(argv: list[str]) -> tuple[int, bytes]:
    from mrfgraph import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue().encode()


def op_verify_default(seed: int) -> dict:
    rc, out = _run_cli(["verify", "--atoms", "2..5", "--alphabet", "3",
                        "--seed", str(seed), "--format", "json"])
    return {"rc": rc, "digest": hashlib.sha256(out).hexdigest(), "output": out}


def op_interval_sample(seed: int) -> dict:
    rc, out = _run_cli(["sample", "--samples", "1000", "--seed", str(seed),
                        "--format", "json"])
    return {"rc": rc, "digest": hashlib.sha256(out).hexdigest(), "output": out}


EXPANDED_SIZES = ((6, 3), (5, 4))
CALIBRATION_REPEATS = 3   # calibration loops before, and again after, the operation


def op_expanded_build(seed: int) -> dict:
    from mrfgraph.graph_build import GraphKind, build_graph
    from mrfgraph.harness import make_weights
    from mrfgraph.measure_space import AtomicSpace

    h = hashlib.sha256()
    for n, k in EXPANDED_SIZES:
        space = AtomicSpace(make_weights(n, "random-positive", seed))
        for kind in GraphKind:
            g = build_graph(space, kind, "expanded", alphabet=k)
            h.update(f"{g.name()}:{g.n_vertices}\n".encode())
            for i in range(g.n_vertices):
                h.update(f"{g.vertex_label(i)} {g.adj[i]:x}\n".encode())
    return {"rc": 0, "digest": h.hexdigest()}


OPERATIONS = {
    "verify_default": op_verify_default,
    "expanded_build": op_expanded_build,
    "interval_sample": op_interval_sample,
}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(OPERATIONS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "plain", "traced"))
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args()

    _load_library(pathlib.Path(args.root))
    operation = OPERATIONS[args.workload]
    tracer = None
    if args.mode == "traced":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    result: dict = {"ready": ready}
    calib = [calibrate() for _ in range(CALIBRATION_REPEATS)]
    t0 = time.perf_counter()
    try:
        out = operation(args.seed)
    except Exception as exc:  # any raise is a failed operation, reported to the parent
        result.update(wall_s=time.perf_counter() - t0, error=f"{type(exc).__name__}: {exc}")
    else:
        result["wall_s"] = time.perf_counter() - t0
        body = out.pop("output", None)
        if body is not None:
            out["summary"] = json.loads(body)["summary"]
        result.update(out)
    calib += [calibrate() for _ in range(CALIBRATION_REPEATS)]
    result["calib_s"] = statistics.median(calib)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["spans_kept"] = len(tracer.spans)
        result["spans_dropped"] = tracer.dropped
        if args.spans_out:
            path = pathlib.Path(args.spans_out)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                        "names": "id,parent,name,start,end",
                                        "spans": tracer.span_records()}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
