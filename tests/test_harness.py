"""Suite runner determinism, coverage auditing, and the CLI surface."""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

from mrfgraph.cli import main
from mrfgraph.harness import (
    REGISTRY,
    Report,
    SuiteConfig,
    applicable_checks,
    render_report,
    run_suite,
)

SMALL = SuiteConfig(atoms_min=2, atoms_max=3)
ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def small_report() -> Report:
    return run_suite(SMALL)


def test_small_run_all_pass(small_report):
    counts = small_report.counts()
    assert counts["fail"] == 0
    assert counts["pass"] > 80


def test_small_run_matches_committed_report(small_report):
    """Every entry of the 2..3 run appears, in order, in reports/atomic.json."""
    committed = iter(json.loads((ROOT / "reports" / "atomic.json").read_text())["entries"])
    for entry in json.loads(small_report.to_json())["entries"]:
        assert any(entry == other for other in committed), entry


def test_reports_are_byte_identical(small_report):
    again = run_suite(SMALL)
    assert render_report(small_report) == render_report(again)
    assert render_report(small_report, "text") == render_report(again, "text")


def test_coverage_self_audit(small_report):
    audits = [e for e in small_report.entries if e.check == "harness.coverage_complete"]
    assert len(audits) == 1 and audits[0].status == "pass"
    present = {e.check for e in small_report.entries}
    for check in applicable_checks(SMALL):
        assert check.id in present


def test_single_atom_reports_empty_universe():
    report = run_suite(SuiteConfig(atoms_min=1, atoms_max=1,
                                   suites=("measure_core", "zero_divisor")))
    assert not report.failed
    notes = [e for e in report.entries if "no zero-divisors" in e.note]
    assert notes, "expected a pass-with-note entry for the single-atom space"


def test_weight_policy_changes_nothing():
    unit = run_suite(SuiteConfig(atoms_min=2, atoms_max=3, weights="unit"))
    rand = run_suite(SuiteConfig(atoms_min=2, atoms_max=3, weights="random-positive"))
    assert [e.status for e in unit.entries] == [e.status for e in rand.entries]
    assert not unit.failed and not rand.failed


def test_only_filter_runs_single_check():
    report = run_suite(SuiteConfig(atoms_min=2, atoms_max=3,
                                   only="comaximal.distance_formula"))
    assert {e.check for e in report.entries} == {"comaximal.distance_formula"}
    assert not report.failed


def test_kind_filter_skips_with_reason():
    report = run_suite(SuiteConfig(atoms_min=2, atoms_max=2, suites=("comaximal",),
                                   kinds=("zero_divisor",)))
    assert not report.failed
    assert any(e.status == "skipped" and "not selected" in e.note for e in report.entries)


def test_interval_backend_suite():
    report = run_suite(SuiteConfig(backend="interval", sample_count=40))
    assert not report.failed
    present = {e.check for e in report.entries}
    assert "measure_core.split_prefix_exact" in present
    assert "weakly_zd.interval_empty" in present


def test_registry_ids_are_namespaced():
    for check_id, check in REGISTRY.items():
        suite, _, rest = check_id.partition(".")
        assert suite == check.suite and rest


def test_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(backend="p-adic")
    with pytest.raises(ValueError):
        SuiteConfig(suites=("comaximal", "mystery"))
    with pytest.raises(ValueError):
        SuiteConfig(atoms_min=3, atoms_max=2)
    with pytest.raises(ValueError):
        SuiteConfig(alphabet=1)
    with pytest.raises(ValueError):
        SuiteConfig(sample_count=0)
    with pytest.raises(ValueError):
        SuiteConfig(max_cycle_len=2)
    with pytest.raises(ValueError):
        SuiteConfig.from_dict({"no_such_key": 1})


def test_config_round_trip():
    cfg = SuiteConfig(atoms_min=2, atoms_max=4, suites=("comaximal",))
    assert SuiteConfig.from_dict(cfg.to_dict()) == cfg


# -- CLI ----------------------------------------------------------------------

def test_cli_build_dot(capsys):
    assert main(["build", "--atoms", "2", "--kind", "comaximal",
                 "--mode", "quotient", "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert "v0 -- v1" in out


def test_cli_build_interval_sampled(capsys):
    assert main(["build", "--backend", "interval", "--kind", "comaximal",
                 "--samples", "10", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == "sampled"


def test_cli_metrics(capsys):
    assert main(["metrics", "--atoms", "3", "--kind", "comaximal", "--mode",
                 "expanded", "--alphabet", "3",
                 "--which", "clique,chromatic,dominating"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["parameters"]["clique"]["value"] == 3
    assert doc["parameters"]["dominating"]["value"] == 3


def test_cli_iso(capsys):
    assert main(["iso", "--left", "comaximal", "--right", "zero-divisor",
                 "--atoms", "3", "--alphabet", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["outcome"] == "not_isomorphic"
    assert doc["certificate"]["kind"] == "eccentricity-class-count"


def test_cli_verify_pass(capsys):
    assert main(["verify", "--suite", "measure_core", "--atoms", "2..3",
                 "--format", "text"]) == 0
    assert "pass=" in capsys.readouterr().out


def test_cli_verify_only_and_json(capsys):
    assert main(["verify", "--atoms", "2..2", "--only",
                 "comaximal.distance_formula", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["fail"] == 0
    assert all(e["check"] == "comaximal.distance_formula" for e in doc["entries"])


def test_cli_sample(capsys):
    assert main(["sample", "--samples", "30", "--suite", "measure_core",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["backend"] == "interval"
    assert doc["summary"]["fail"] == 0


def test_cli_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"atoms_min": 2, "atoms_max": 2,
                               "suites": ["measure_core"]}))
    assert main(["verify", "--config", str(cfg), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["atoms_max"] == 2


def test_cli_usage_errors():
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "mystery"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["build", "--kind", "septic"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2



def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv,message", [
    (["build", "--atoms", "0", "--kind", "comaximal"], "--atoms: must be at least 1"),
    (["build", "--mode", "expanded", "--alphabet", "1", "--kind", "comaximal"],
     "--alphabet: must be at least 2"),
    (["verify", "--config", "/nonexistent/run.json"], "cannot read config"),
    (["metrics", "--atoms", "5", "--kind", "comaximal", "--which", "dominating",
      "--dominating-bound", "10"], "exceed dominating bound 10"),
    (["build", "--atoms", "9", "--mode", "expanded", "--kind", "comaximal"],
     "exceed guard 5000"),
    (["verify", "--atoms", "2..x"], "--atoms: expected N or LO..HI, got '2..x'"),
    (["verify", "--atoms", "2..3", "--max-cycle-len", "0", "--suite", "comaximal"],
     "invalid configuration: max_cycle_len must be at least 3"),
    (["sample", "--samples", "0"], "--samples: must be at least 1"),
], ids=["atoms-0", "alphabet-1", "missing-config", "bound-exceeded", "graph-too-large",
        "atoms-malformed", "max-cycle-len-0", "samples-0"])
def test_cli_input_errors_exit_2(argv, message, capsys):
    assert _exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err.splitlines()[-1]


def test_cli_malformed_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text("{not json")
    assert _exit_code(["verify", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("cannot read config")


def test_sample_cli_matches_default_suite_script(capsys):
    """scripts/run_default_suite.py writes reports/interval.* with the same
    bytes as the CLI command its docstring names."""
    spec = importlib.util.spec_from_file_location(
        "run_default_suite", ROOT / "scripts" / "run_default_suite.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    expected = render_report(run_suite(script.CONFIGS["interval"]), "json")
    assert main(["sample", "--samples", "100", "--seed", "7", "--format", "json"]) == 0
    assert capsys.readouterr().out == expected
    assert (ROOT / "reports" / "interval.json").read_text() == expected


@pytest.mark.parametrize("argv", [
    ["verify", "--atoms", "2..3", "--format", "json"],
    ["sample", "--samples", "50", "--format", "json"],
], ids=["verify", "sample"])
def test_output_independent_of_hash_seed(argv):
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                            os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "mrfgraph.cli", *argv], env=env,
                              capture_output=True, check=True, timeout=300)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]

def test_cli_out_file(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--atoms", "2..2", "--suite", "measure_core",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["summary"]["fail"] == 0
