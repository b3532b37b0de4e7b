"""Self-checks of the benchmark: recorded hashes and hash-seed independence.

    python3 -m pytest perfbench

Runs one operation of each workload under two ``PYTHONHASHSEED`` values
(about a minute in all) and requires identical output hashes that pass the
workload's gate.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import run


def test_recorded_atomic_hash_is_the_committed_report():
    report = run.ROOT / "reports" / "atomic.json"
    if not report.is_file():
        pytest.skip("reports/atomic.json is not in this tree")
    assert hashlib.sha256(report.read_bytes()).hexdigest() == run.ATOMIC_JSON_SHA256


def _operation(workload: str, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, str(run.OP), "--root", str(run.ROOT), "--workload", workload,
         "--seed", "7", "--mode", "plain"],
        capture_output=True, text=True, env=env, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_output_is_independent_of_hash_seed(workload):
    first, second = _operation(workload, "1"), _operation(workload, "2")
    assert run.gate(workload, 7, first) is None
    assert first["digest"] == second["digest"]


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile([1.0] * 10) is None
    label, value = run.tail_percentile([float(i) for i in range(20)])
    assert (label, value) == ("p50", 9.0)
