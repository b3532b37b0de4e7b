#!/usr/bin/env python3
"""Run the full default verification: atomic backend at desk scale plus the
sampled interval backend, writing both reports next to this script.

Equivalent CLI:
    mrfgraph verify --atoms 2..5 --alphabet 3 --seed 7 --format json
    mrfgraph sample --samples 100 --seed 7 --format json
"""

import pathlib
import sys

from mrfgraph.harness import SuiteConfig, render_report, run_suite

OUT = pathlib.Path(__file__).resolve().parent.parent / "reports"

# The atom range means nothing on the interval backend; it is pinned to the
# 2..2 that `mrfgraph sample` echoes, so the docstring's CLI renders the same
# bytes.
CONFIGS = {
    "atomic": SuiteConfig(atoms_min=2, atoms_max=5),
    "interval": SuiteConfig(backend="interval", atoms_min=2, atoms_max=2, sample_count=100),
}


def main() -> int:
    OUT.mkdir(exist_ok=True)
    failed = False
    for name, config in CONFIGS.items():
        report = run_suite(config)
        (OUT / f"{name}.json").write_text(render_report(report, "json"))
        (OUT / f"{name}.txt").write_text(render_report(report, "text"))
        counts = report.counts()
        print(f"{name}: pass={counts['pass']} fail={counts['fail']} "
              f"skipped={counts['skipped']} -> {OUT / (name + '.json')}")
        failed = failed or report.failed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
