"""mrfgraph benchmark: three workloads, end-to-end metrics and a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every operation runs in a fresh interpreter (``perfbench/op.py``), one at a
time, single-threaded, as a user runs ``mrfgraph verify`` once per command:
no module-level cache carries from one operation to the next.  The run keeps
starting operations while the next one is expected to finish within
``--seconds`` (at least one always runs) and reports medians.

``--trace 0`` prints the end-to-end metrics: ``wall_ref_s`` (the median
operation wall time, each operation rescaled by a calibration loop timed in
its own process, see ``op.calibrate``), ``setup_s`` and ``peak_rss_mib``.
``--trace 1`` alternates untraced and traced operations and prints the
per-layer metrics of the traced ones plus ``trace_overhead_s``.  Every
operation's output is gated; a mismatch counts as a failed operation.  The
last stdout line is the JSON result; the lines before it are a
human-readable summary that also gives the raw ``wall_s``, ``wall_s_tail``
and ``failed_ratio``.  See ``perfbench/NOTES.md`` for the workloads and the
predictions each per-layer metric carries.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

from op import OPERATIONS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OP = HERE / "op.py"
SPANS_DIR = ROOT / ".perfbench-out"

WORKLOADS = tuple(OPERATIONS)
SETUP_PROBES = 9          # import-only interpreters per run, for setup_s
HARD_LIMIT_S = 170.0      # a run must end within 180 s whatever --seconds says
CHILD_ENV = dict(os.environ, PYTHONHASHSEED="0")

# sha256 of reports/atomic.json: `mrfgraph verify --atoms 2..5 --alphabet 3
# --seed 7 --format json` must reproduce it byte for byte.
ATOMIC_JSON_SHA256 = "dc84dd640424c3ade0cacd0739701378ca4035a4782969352c9d42f2bbbc0090"
# `mrfgraph sample --samples 1000 --seed 7 --format json`.  Not a committed
# file: reports/interval.json is at 100 samples and echoes atoms_max 5, where
# the CLI echoes 2 (see NOTES.md).
INTERVAL_1000_SHA256 = "ba330d1d22a1f909ee79b82cf12d197bc439d7f4fd5e799542e3ec5c1cdf3aaa"
# Hash of the expanded_build graphs' names, vertex labels and adjacency rows.
# Adjacency does not depend on the positive weights, so it holds at every seed.
EXPANDED_SHA256 = "f1920d1c8a057de0d00f77e07e1b1f7e88ecb80bfa04a2e2defbacb5f4a0f89b"
# op.calibrate() on an undisturbed core of the 2-vCPU VM the baselines came
# from.  When that host slowed down, the three workloads slowed by about the
# square root of the calibration loop's slowdown (log-log slope 0.4-0.6), so
# wall_ref_s divides by the square root of the calibration ratio.
CALIBRATION_REF_S = 0.1
INTERVAL_SUMMARY = {"pass": 8, "fail": 0, "skipped": 0, "total": 8}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def gate(workload: str, seed: int, rec: dict) -> str | None:
    """Why this operation's output is wrong, or None when it passes."""
    if "error" in rec:
        return rec["error"]
    if workload == "expanded_build":
        if rec["digest"] != EXPANDED_SHA256:
            return f"graph hash {rec['digest']} != recorded {EXPANDED_SHA256}"
        return None
    if rec["rc"] != 0 or rec["summary"]["fail"] != 0:
        return f"exit code {rec['rc']}, summary {rec['summary']}"
    if workload == "verify_default":
        expected = ATOMIC_JSON_SHA256
    else:
        if rec["summary"] != INTERVAL_SUMMARY:
            return f"summary {rec['summary']} != {INTERVAL_SUMMARY}"
        expected = INTERVAL_1000_SHA256
    if seed == 7 and rec["digest"] != expected:
        return f"report hash {rec['digest']} != recorded {expected}"
    return None


def spawn(workload: str, seed: int, mode: str, deadline: float,
          spans_out: pathlib.Path | None = None) -> dict:
    """Run op.py once; returns its record plus ``setup_s`` and ``elapsed``."""
    cmd = [sys.executable, str(OP), "--root", str(ROOT), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=CHILD_ENV,
                              cwd=ROOT, timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        return {"error": "operation timed out", "elapsed": time.monotonic() - start}
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit {proc.returncode}: {tail[0]}", "elapsed": elapsed}
    rec = json.loads(lines[-1])
    rec["setup_s"] = rec["ready"] - start
    rec["elapsed"] = elapsed
    return rec


def wall_ref_s(rec: dict) -> float:
    """An operation's wall time corrected for how slow the host ran around it."""
    return rec["wall_s"] * (CALIBRATION_REF_S / rec["calib_s"]) ** 0.5


def tail_percentile(samples: list[float]) -> tuple[str, float] | None:
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return f"p{100 * (n - 10) / n:.0f}", sorted(samples)[n - 11]


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    start = time.monotonic()
    hard_deadline = start + HARD_LIMIT_S
    spawn(workload, seed, "setup", hard_deadline)   # warm-up: writes .pyc files
    setups = [r["setup_s"] for r in
              (spawn(workload, seed, "setup", hard_deadline) for _ in range(SETUP_PROBES))
              if "setup_s" in r]
    deadline = start + seconds
    modes = ("plain", "traced") if trace else ("plain",)
    records: dict[str, list[dict]] = {m: [] for m in modes}
    failures: list[str] = []
    digests: set[str] = set()
    while True:
        round_start = time.monotonic()
        for mode in modes:
            spans_out = None
            if mode == "traced":
                spans_out = SPANS_DIR / f"spans-{workload}-seed{seed}-{len(records[mode])}.json"
            rec = spawn(workload, seed, mode, hard_deadline, spans_out)
            reason = gate(workload, seed, rec)
            if reason is None:
                digests.add(rec["digest"])
                if len(digests) > 1:
                    reason = f"output differs between operations of one run: {sorted(digests)}"
            if reason is not None:
                failures.append(f"{mode}: {reason}")
            records[mode].append(rec)
        round_s = time.monotonic() - round_start
        if time.monotonic() + round_s > deadline:
            break

    plain = [r for r in records["plain"] if "wall_s" in r]
    walls = [r["wall_s"] for r in plain]
    ref_walls = [wall_ref_s(r) for r in plain]
    attempted = sum(len(r) for r in records.values())
    summary = {"workload": workload, "seed": seed, "operations": len(records["plain"]),
               "failed_ratio": len(failures) / attempted}
    metrics: dict[str, tuple[float, str]] = {}
    if trace:
        traced = [r for r in records["traced"] if "layers" in r]
        for name in (traced[0]["layers"] if traced else ()):
            metrics[name] = (statistics.median(r["layers"][name] for r in traced), unit_of(name))
        if traced and walls:
            # Raw walls: the kept spans slow the calibration loop run after a
            # traced operation, so rescaling would hide part of the overhead.
            overhead = statistics.median(r["wall_s"] for r in traced) - statistics.median(walls)
            metrics["trace_overhead_s"] = (overhead, "s")
        summary["spans_dropped"] = [r["spans_dropped"] for r in traced]
    elif plain:
        setups += [r["setup_s"] for r in plain]
        metrics["wall_ref_s"] = (statistics.median(ref_walls), "s")
        summary["wall_s"] = f"{statistics.median(walls):.4f} s (median, not rescaled)"
        summary["ops_wall_s"] = [round(w, 4) for w in walls]
        summary["ops_calib_s"] = [round(r["calib_s"], 4) for r in plain]
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["peak_rss_mib"] = (statistics.median(r["peak_rss_mib"] for r in plain), "MiB")
        t = tail_percentile(walls)
        summary["wall_s_tail"] = (f"{t[1]:.4f} s at {t[0]} of {len(walls)} samples" if t else
                                  f"n/a: {len(walls)} samples, a percentile with ten "
                                  "beyond it needs at least 11")
        summary["setup_samples"] = len(setups)
    for failure in failures:
        print(f"FAILED {failure}")
    for key, value in summary.items():
        print(f"{key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "mrfgraph" / "__init__.py").is_file():
        sys.stderr.write(f"no mrfgraph sources under {ROOT / 'src'}; nothing to benchmark\n")
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
