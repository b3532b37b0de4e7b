"""Suite runner determinism, coverage auditing, and the CLI surface."""

import dataclasses
import hashlib
import importlib.util
import json
import os
import pathlib
import random
import shlex
import subprocess
import sys
import weakref
from collections import Counter

import pytest

import mrfgraph.checks  # noqa: F401  (populates REGISTRY)
from mrfgraph import graph_build, graph_metrics
from mrfgraph.cli import main
from mrfgraph.graph_build import GraphKind, build_graph, oracle_adjacent, weakly_adjacent_all
from mrfgraph.graph_metrics import (
    MetricsSummary,
    Partiteness,
    TriangleProfile,
    metrics,
    partiteness,
    triangle_profile,
)
from mrfgraph.harness import (
    REGISTRY,
    Outcome,
    Report,
    RunContext,
    SuiteConfig,
    _check_entries,
    applicable_checks,
    make_weights,
    render_report,
    run_suite,
)
from mrfgraph.isomorphism import INCONCLUSIVE, IsoVerdict
from mrfgraph.measure_space import (
    AtomicSpace,
    atom_set,
    complement,
    is_atom,
    null_equal,
    unit_space,
)
from mrfgraph.vertex_universe import UNIT_INTERVAL, enumerate_functions, sample_interval_classes

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
    assert small_report.to_text() == again.to_text()


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


def _spy_build(monkeypatch, built, plant=None):
    """Record each graph ``checks`` builds itself, as (space, kind, mode,
    alphabet), and hand back ``plant(g)`` in place of the graph ``g``.  No
    graph handed back may still be alive when the next is built."""
    build = mrfgraph.checks.build_graph
    handed = []

    def spy(space, kind, mode="quotient", alphabet=None, **kwargs):
        assert all(ref() is None for ref in handed), "a built graph outlived its comparison"
        built.append((space, kind, mode, alphabet))
        g = build(space, kind, mode, alphabet=alphabet, **kwargs)
        g = g if plant is None else plant(g)
        handed.append(weakref.ref(g))
        return g

    monkeypatch.setattr(mrfgraph.checks, "build_graph", spy)


def test_weight_independence_compares_expanded_graphs_at_every_n(monkeypatch):
    """Past the oracle bound too, at n=5, the check builds every kind's graph
    under the other weight policy, in both modes, on that policy's space,
    drops each before the next build and leaves none in the run's cache."""
    built = []
    _spy_build(monkeypatch, built)
    for policy, other in (("unit", "random-positive"), ("random-positive", "unit")):
        built.clear()
        ctx = RunContext(SuiteConfig(atoms_min=5, atoms_max=5, weights=policy))
        assert REGISTRY["measure_core.weight_independence"].fn(ctx, 5, 3).ok
        space = AtomicSpace(make_weights(5, other, 7))
        assert space != ctx.space(5)
        assert built == [(space, kind, mode, alpha) for kind in GraphKind
                         for mode, alpha in (("quotient", None), ("expanded", 3))]
        assert len(ctx._graphs) == 8
        assert all(g.space is ctx.space(5) for g in ctx._graphs.values())


def test_weight_independence_reuses_the_runs_vertex_universe(monkeypatch):
    """Enumeration reads only (n, k), so the comparison graphs under the
    other weight policy hold the run's vertex tuples (and, but for weakly-zd's
    filtered list, its zero-set partitions): no second universe is built."""
    handed = []
    build = mrfgraph.checks.build_graph
    monkeypatch.setattr(mrfgraph.checks, "build_graph",
                        lambda *args, **kwargs: handed.append(build(*args, **kwargs)) or handed[-1])
    graph_build._Universe.cache_clear()
    ctx = RunContext(SuiteConfig(atoms_min=4, atoms_max=4))
    assert REGISTRY["measure_core.weight_independence"].fn(ctx, 4, 3).ok
    assert graph_build._Universe.cache_info().misses == 2  # the quotient and the k=3 universe
    assert len(handed) == 2 * len(GraphKind)
    for h in handed:
        g = ctx.graph(4, h.kind, h.mode, alphabet=h.alphabet)
        assert h is not g and h.space != g.space
        if h.kind is GraphKind.WEAKLY_ZD:
            assert all(x is y for x, y in zip(h.vertices, g.vertices, strict=True))
        else:
            assert h.vertices is g.vertices and h.classes is g.classes


def _flip_first_edge(g):
    adj = list(g.adj)
    adj[0], adj[1] = adj[0] ^ 2, adj[1] ^ 1  # toggle the pair (0, 1)
    return dataclasses.replace(g, adj=tuple(adj))


def _rotate_vertices(g):
    """The same rows on the vertex list rotated by one: other zero sets."""
    h = dataclasses.replace(g, vertices=g.vertices[1:] + g.vertices[:1])
    assert h.zero_sets != g.zero_sets and h.adj == g.adj
    return h


@pytest.mark.parametrize("fault", [_flip_first_edge, _rotate_vertices], ids=["edge", "zero-sets"])
@pytest.mark.parametrize("target", [(GraphKind.COMAXIMAL, "expanded"),
                                    (GraphKind.WEAKLY_ZD, "quotient")],
                         ids=["comaximal-expanded", "weakly_zd-quotient"])
def test_weight_independence_catches_one_differing_graph(monkeypatch, fault, target):
    """One comparison graph with one edge flipped, or with other zero sets,
    fails the check."""
    _spy_build(monkeypatch, [], lambda g: fault(g) if (g.kind, g.mode) == target else g)
    ctx = RunContext(SuiteConfig(atoms_min=3, atoms_max=3))
    outcome = REGISTRY["measure_core.weight_independence"].fn(ctx, 3, 3)
    assert not outcome.ok and outcome.computed == "graphs differ"


def test_ann_preorder_catches_planted_law_breaks(monkeypatch):
    """``measure_core.ann_preorder`` tests the laws, not only ``ann_leq``: at
    n=3 it fails on a relation with {0} <= {0,1} <= {1,2} but not
    {0} <= {1,2} (a dropped transitive consequence, no new equality), and on
    a preorder that reads {1} as {0}, so two distinct zero sets are mutually
    <= (reflexive and transitive, only the equality law breaks)."""
    check = REGISTRY["measure_core.ann_preorder"].fn
    ctx = RunContext(SuiteConfig(atoms_min=3, atoms_max=3))
    assert check(ctx, 3, 3).ok
    leq = mrfgraph.checks.ann_leq
    x0, x1, x01, x12 = atom_set([0]), atom_set([1]), atom_set([0, 1]), atom_set([1, 2])

    def intransitive(space, x, y):
        return leq(space, x, y) or (x, y) == (x01, x12)

    def merged(space, x, y):
        return leq(space, x0 if x == x1 else x, x0 if y == x1 else y)

    for relation in (intransitive, merged):
        monkeypatch.setattr(mrfgraph.checks, "ann_leq", relation)
        outcome = check(ctx, 3, 3)
        assert not outcome.ok and outcome.computed == "law violated", relation.__name__


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
        kind_suite = suite in {k.value for k in GraphKind}
        assert check.kind == (suite if kind_suite else None)


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
    for name in ("clique_bound", "chromatic_bound", "dominating_bound", "iso_budget"):
        with pytest.raises(ValueError, match=f"{name} must be at least 0"):
            SuiteConfig(**{name: -1})
        SuiteConfig(**{name: 0})
    with pytest.raises(ValueError):
        SuiteConfig.from_dict({"no_such_key": 1})
    for name, value in (("seed", True), ("iso_budget", "9"), ("alphabet", 3.0)):
        with pytest.raises(TypeError, match=f"{name} must be an integer, got {value!r}"):
            SuiteConfig(**{name: value})
    for name in ("suites", "kinds"):  # a string would be read as its characters
        with pytest.raises(TypeError, match=f"{name} must be a list of names, got 'comaximal'"):
            SuiteConfig.from_dict({name: "comaximal"})
    with pytest.raises(ValueError, match="suites must name at least one suite"):
        SuiteConfig(suites=())


INVARIANTS = (metrics, triangle_profile, partiteness)


class Recomputed(Exception):
    pass


def _refuse(*args):
    raise Recomputed


@pytest.mark.parametrize("invariant", INVARIANTS, ids=lambda fn: fn.__name__)
def test_invariant_is_kept_on_the_graph_object(invariant, monkeypatch):
    """A second call on the same graph object computes nothing; a graph that
    has not kept the invariant must compute it, and cannot once its
    internals refuse."""
    space = unit_space(3)
    g = build_graph(space, GraphKind.COMAXIMAL, "expanded", alphabet=3)
    first = invariant(g)
    fresh = build_graph(space, GraphKind.COMAXIMAL, "expanded", alphabet=3)
    monkeypatch.setattr(graph_metrics, "_members", _refuse)
    monkeypatch.setattr(graph_metrics, "_levels", _refuse)
    assert invariant(g) is first
    with pytest.raises(Recomputed):
        invariant(fresh)


@pytest.mark.parametrize("invariant", INVARIANTS, ids=lambda fn: fn.__name__)
def test_invariant_of_a_replaced_graph_is_its_own(invariant):
    """A ``dataclasses.replace`` copy with one toggled edge is a new object
    with nothing kept: it gets its own value, and the original keeps its
    own.  At n=2 the graph is K(2,2); without the edge it is a path."""
    g = build_graph(unit_space(2), GraphKind.COMAXIMAL, "expanded", alphabet=3)
    before = invariant(g)
    adj = list(g.adj)
    j = (adj[0] & -adj[0]).bit_length() - 1
    adj[0], adj[j] = adj[0] ^ 1 << j, adj[j] ^ 1
    broken = dataclasses.replace(g, adj=tuple(adj))
    after = invariant(broken)
    assert after != before
    assert after == invariant.__wrapped__(broken)
    assert invariant(g) is before
    assert invariant(broken) is after


@pytest.mark.parametrize("invariant", INVARIANTS, ids=lambda fn: fn.__name__)
def test_invariants_of_two_samples_are_kept_apart(invariant):
    """Every sampled graph has the same kind, mode and (equal) interval
    space, so only the rows tell two of them apart."""
    small, large = (build_graph(UNIT_INTERVAL, GraphKind.COMAXIMAL,
                                sample=sample_interval_classes(7, count))
                    for count in (10, 30))
    assert small.n_vertices < large.n_vertices
    kept = invariant(small), invariant(large)
    assert kept[0] is not kept[1]
    for g, value in zip((small, large), kept):
        assert invariant(g) is value
        assert value == invariant.__wrapped__(g)


def test_a_run_builds_each_invariant_once_per_graph(monkeypatch):
    """One default run constructs each invariant's result at most once per
    graph object, whichever checks ask for it."""
    built, graphs = Counter(), []

    def counted(cls):
        def make(*args):
            g = sys._getframe(1).f_locals["g"]  # the computing function's graph
            graphs.append(g)  # held, so no id is reused during the run
            built[cls.__name__, id(g)] += 1
            return cls(*args)
        return make

    for cls in (MetricsSummary, TriangleProfile, Partiteness):
        monkeypatch.setattr(graph_metrics, cls.__name__, counted(cls))
    assert not run_suite(SuiteConfig()).failed
    assert {name for name, _ in built} == {"MetricsSummary", "TriangleProfile", "Partiteness"}
    assert max(built.values()) == 1


def test_split_prefix_exact_catches_a_part_of_the_wrong_measure(monkeypatch):
    """Each sampled zero set and its complement is one case; a prefix split
    that misses its target measure is counted as a failure."""
    ctx = RunContext(SuiteConfig(backend="interval", sample_count=20))
    good = mrfgraph.checks.check_split_prefix_exact(ctx)
    assert good.ok and good.computed == "0 failures"
    assert good.instance == "40 random (set, target) cases"
    split = mrfgraph.checks.split_at_measure
    monkeypatch.setattr(mrfgraph.checks, "split_at_measure",
                        lambda space, a, r: split(space, a, r / 2))
    bad = mrfgraph.checks.check_split_prefix_exact(ctx)
    assert not bad.ok and bad.computed != "0 failures"


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


def test_cli_metrics_comaximal_n6(capsys):
    assert main(["metrics", "--atoms", "6", "--kind", "comaximal", "--mode",
                 "expanded", "--alphabet", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["vertices"], doc["edges"]) == (664, 86464)
    assert (doc["diameter"], doc["girth"]) == (3, 3)
    # 192 = n(k-1)^(n-1) functions whose zero set is a single atom
    assert doc["eccentricity_histogram"] == {"2": 192, "3": 472}


def test_cli_iso(capsys):
    assert main(["iso", "--left", "comaximal", "--right", "zero-divisor",
                 "--atoms", "3", "--alphabet", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["outcome"] == "not_isomorphic"
    assert doc["certificate"]["kind"] == "eccentricity-class-count"


def test_cli_iso_mapping_is_verified(capsys):
    from mrfgraph.isomorphism import verify_mapping

    assert main(["iso", "--left", "comaximal", "--right", "zero-divisor",
                 "--atoms", "3", "--alphabet", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["outcome"] == "isomorphic"
    left, right = (build_graph(unit_space(3), kind, "expanded", alphabet=2)
                   for kind in (GraphKind.COMAXIMAL, GraphKind.ZERO_DIVISOR))
    index = {right.vertex_label(j): j for j in range(right.n_vertices)}
    labels = [left.vertex_label(i) for i in range(left.n_vertices)]
    assert sorted(doc["mapping"]) == sorted(labels)
    assert sorted(doc["mapping"].values()) == sorted(index)
    assert verify_mapping(left, right, tuple(index[doc["mapping"][label]] for label in labels))


def test_cli_metrics_interval_weakly_zd_is_empty(capsys):
    assert main(["metrics", "--backend", "interval", "--kind", "weakly-zd"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"graph": "weakly_zd_sampled", "empty": True}


def test_cli_build_one_atom_notes_empty_graph(capsys):
    assert main(["build", "--atoms", "1", "--kind", "comaximal"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "note: empty graph (no vertices satisfy the kind's constraints)\n"
    assert json.loads(captured.out)["vertices"] == []


def _suite_config(argv):
    from mrfgraph.cli import _config_from_args, make_parser
    return _config_from_args(make_parser().parse_args(["verify", *argv]), "atomic")


def test_cli_suite_all_keeps_defaults():
    assert _suite_config(["--suite", "all"]) == SuiteConfig()


def test_cli_kinds_all_is_not_a_kind(capsys):
    assert _exit_code(["verify", "--kinds", "all"]) == 2
    assert capsys.readouterr().err == "invalid configuration: unknown kinds ['all']\n"


def test_cli_suite_flags_land_in_their_fields():
    config = _suite_config(["--samples", "5", "--budget", "9", "--format", "text",
                            "--suite", "iso, quotient", "--kinds", "comaximal"])
    assert (config.sample_count, config.iso_budget, config.output) == (5, 9, "text")
    assert (config.suites, config.kinds) == (("iso", "quotient"), ("comaximal",))


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


def test_cli_verify_alphabet_two_skips_girth_rule(capsys):
    assert main(["verify", "--atoms", "2..3", "--alphabet", "2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    entries = [e for e in doc["entries"] if e["check"] == "annihilator.girth_rule"]
    assert [e["status"] for e in entries] == ["skipped"]


def test_cli_verify_alphabet_beyond_oracle_skips(capsys, monkeypatch):
    """The oracle checks skip on the alphabet bound before they pay the k^n
    cost: no oracle table lists its candidate functions past the bound, while
    the unit witness, which reads only the a.e. memo, still runs there."""
    table = graph_build._AnnihilatorTable
    listed = table.__wrapped__.candidates.func

    def guarded(self):
        assert self.k <= graph_build.ORACLE_MAX_ALPHABET, "listed candidates past the oracle bound"
        return listed(self)

    table.cache_clear()
    monkeypatch.setattr(table.__wrapped__, "candidates", property(guarded))
    try:
        assert main(["verify", "--atoms", "2..2", "--alphabet", "5", "--format", "json"]) == 0
    finally:
        table.cache_clear()
    captured = capsys.readouterr()
    assert captured.err == ""
    doc = json.loads(captured.out)
    assert doc["summary"]["fail"] == 0
    witness = [e for e in doc["entries"] if e["check"] == "comaximal.unit_witness"]
    assert [(e["instance"], e["status"]) for e in witness] == [("n=2 k=5 expanded", "pass")]
    oracle = [e for e in doc["entries"] if "oracle bound exceeded" in e.get("note", "")]
    assert {e["check"] for e in oracle} == {
        "comaximal.adjacency_oracle", "zero_divisor.adjacency_oracle",
        "annihilator.adjacency_oracle", "weakly_zd.adjacency_oracle",
        "weakly_zd.trichotomy_oracle", "weakly_zd.self_adjacency_rule"}
    assert all(e["status"] == "skipped" and e["note"] == "oracle bound exceeded: alphabet 5 > 4"
               for e in oracle)


def test_cli_verify_one_atom_huge_alphabet(capsys):
    """One atom has no zero-divisors, so no alphabet makes the run enumerate."""
    assert main(["verify", "--atoms", "1..1", "--alphabet", "100000000",
                 "--only", "comaximal.adjacency_oracle"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"] == {"pass": 1, "fail": 0, "skipped": 0, "total": 1}


@pytest.mark.parametrize("argv,check_id,force", [
    (["verify", "--atoms", "2..3", "--alphabet", "4", "--weights", "random-positive",
      "--seed", "11"], "quotient.k2_rule", True),
    (["sample", "--samples", "20", "--seed", "3"], "weakly_zd.interval_empty", True),
    (["verify", "--atoms", "2..3", "--kinds", "comaximal,annihilator", "--budget", "999",
      "--clique-bound", "100", "--chromatic-bound", "101", "--dominating-bound", "102"],
     "quotient.k2_rule", True),
    (["verify", "--atoms", "3..3", "--max-cycle-len", "3"], "comaximal.cycle_rank_cases", True),
], ids=["atomic", "interval", "atomic-settings", "max-cycle-len"])
def test_failing_entry_repro_line_runs(argv, check_id, force, monkeypatch, capsys):
    """The repro line of a failing entry reruns it under the same settings:
    the rerun reports the same failing entry, and its config differs at most
    in the atom range, narrowed to the failing instance."""
    if force:
        def fail(ctx, *args):
            return Outcome("forced", "failure", False)

        monkeypatch.setitem(REGISTRY, check_id, dataclasses.replace(REGISTRY[check_id], fn=fail))
    assert main(argv + ["--only", check_id, "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    failing = [e for e in report["entries"] if e["status"] == "fail"]
    assert failing
    unnarrowed = lambda config: {key: value for key, value in config.items()
                                 if key not in ("atoms_min", "atoms_max")}
    for entry in failing:
        line = entry["repro"]
        assert line.startswith("mrfgraph ")
        assert main(shlex.split(line)[1:]) == 1
        rerun = json.loads(capsys.readouterr().out)
        assert entry in rerun["entries"]
        assert unnarrowed(rerun["config"]) == unnarrowed(report["config"])


ISO_CHECKS = [(["verify", "--atoms", "2..3"], "annihilator.iso_comaximal_rule"),
              (["verify", "--atoms", "2..3"], "quotient.complement_isomorphism"),
              (["verify", "--atoms", "2..3"], "iso.expanded_complement_dichotomy"),
              (["verify", "--atoms", "2..3"], "iso.self_identity"),
              (["sample", "--samples", "20"], "iso.sampled_complement_probe")]


def test_cli_verify_budget_zero_skips_inconclusive_searches(capsys):
    """A search that runs out of budget is neither answer: its instance is
    skipped, with a note naming the budget, and the run exits 0."""
    assert main(["verify", "--atoms", "2..3", "--budget", "0", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    skipped = [(e["check"], e["instance"], e["note"]) for e in doc["entries"]
               if e["status"] == "skipped"]
    note = "isomorphism search inconclusive within budget 0 nodes"
    assert skipped == [("annihilator.iso_comaximal_rule", "n=2 k=3", note),
                       ("iso.self_identity", "n=2 k=3", note),
                       ("iso.self_identity", "n=3 k=3", note)]
    assert doc["summary"]["fail"] == 0


@pytest.mark.parametrize("argv,check_id", ISO_CHECKS, ids=[c for _, c in ISO_CHECKS])
def test_inconclusive_verdict_skips_every_instance(argv, check_id, monkeypatch, capsys):
    """Every check that reads an isomorphism verdict skips on an inconclusive
    one, including the instances that expect ``not isomorphic``."""
    def inconclusive(g1, g2, budget):
        return IsoVerdict(INCONCLUSIVE, nodes_explored=budget + 1)

    for name in ("are_isomorphic", "complement_iso"):
        monkeypatch.setattr(mrfgraph.checks, name, inconclusive)
    assert main(argv + ["--budget", "7", "--only", check_id, "--format", "json"]) == 0
    entries = json.loads(capsys.readouterr().out)["entries"]
    assert entries and all(e["status"] == "skipped" for e in entries)
    assert {e["note"] for e in entries} == {"isomorphism search inconclusive within budget 7 nodes"}


@pytest.mark.parametrize("check_id,need", [("comaximal.cycle_rank_cases", 6),
                                           ("annihilator.cycle_rank_cases", 4)])
def test_cycle_cap_below_the_rule_skips(check_id, need, capsys):
    """A cycle cap below the largest rank a rule predicts skips the rule's
    instances; at that rank the rule runs and passes."""
    argv = ["verify", "--atoms", "2..4", "--only", check_id, "--format", "json"]
    assert main(argv + ["--max-cycle-len", str(need - 1)]) == 0
    entries = json.loads(capsys.readouterr().out)["entries"]
    assert entries and {(e["status"], e["note"]) for e in entries} == {
        ("skipped", f"the rule needs cycle ranks up to {need}; max_cycle_len is {need - 1}")}
    assert main(argv + ["--max-cycle-len", str(need)]) == 0
    entries = json.loads(capsys.readouterr().out)["entries"]
    assert entries and all(e["status"] == "pass" for e in entries)


_TRIANGLE_ROWS = {"comaximal.triangle_vertex_rule", "zero_divisor.triangle_vertex_rule",
                  "annihilator.orthogonal_complement_rule", "weakly_zd.bipartite_rule"}


def _flip_orthogonal_edge(ctx, n, kind, k):
    """Replace the cached expanded graph with one whose edge between the first
    members of the classes Z={0} and its complement is toggled."""
    _toggle_edge(ctx, n, kind, k, atom_set([0]), complement(ctx.space(n), atom_set([0])))


def _toggle_edge(ctx, n, kind, k, zu, zv):
    """Replace the cached expanded graph with one whose edge between the first
    members of the classes with zero sets ``zu`` and ``zv`` (the first two
    when ``zu == zv``) is toggled."""
    g = ctx.graph(n, kind, "expanded", alphabet=k)
    i = g.classes.members[g.classes.index[zu]][0]
    j = next(v for v in g.classes.members[g.classes.index[zv]] if v != i)
    _flip_pairs(ctx, g, [(i, j)])
    return min(i, j), max(i, j)


def _flip_pairs(ctx, g, pairs):
    """Replace the cached graph ``g`` with one whose edges ``pairs`` are toggled."""
    adj = list(g.adj)
    for i, j in pairs:
        adj[i] ^= 1 << j
        adj[j] ^= 1 << i
    key = next(key for key, cached in ctx._graphs.items() if cached is g)
    ctx._graphs[key] = dataclasses.replace(g, adj=tuple(adj))


@pytest.mark.parametrize("check_id,kind,args", [
    ("comaximal.distance_formula", GraphKind.COMAXIMAL, (3, "expanded", 3)),
    ("comaximal.neighborhood_rule", GraphKind.COMAXIMAL, (3, 3)),
    ("annihilator.orthogonality_rule", GraphKind.ANNIHILATOR, (3, 3)),
    ("comaximal.cycle_rank_cases", GraphKind.COMAXIMAL, (3, 3)),
    ("annihilator.cycle_rank_cases", GraphKind.ANNIHILATOR, (3, 3)),
    ("comaximal.orthogonality_rule", GraphKind.COMAXIMAL, (3, 3)),
    ("comaximal.complemented_unique", GraphKind.COMAXIMAL, (3, "expanded", 3)),
    ("comaximal.class_stability", GraphKind.COMAXIMAL, (3, 3)),
    # the other rule rows at n=2, where all four graphs are K(2,2)
    ("comaximal.eccentricity_formula", GraphKind.COMAXIMAL, (2, 3)),
    ("comaximal.diameter_girth", GraphKind.COMAXIMAL, (2, 3)),
    ("comaximal.triangle_vertex_rule", GraphKind.COMAXIMAL, (2, "expanded", 3)),
    ("comaximal.complete_bipartite_rule", GraphKind.COMAXIMAL, (2, "expanded", 3)),
    ("zero_divisor.complete_bipartite_rule", GraphKind.ZERO_DIVISOR, (2, "expanded", 3)),
    ("zero_divisor.triangle_vertex_rule", GraphKind.ZERO_DIVISOR, (2, 3)),
    ("zero_divisor.eccentricity_formula", GraphKind.ZERO_DIVISOR, (2, 3)),
    ("annihilator.complete_bipartite_rule", GraphKind.ANNIHILATOR, (2, 3)),
    ("annihilator.orthogonal_complement_rule", GraphKind.ANNIHILATOR, (2, 3)),
    ("annihilator.girth_rule", GraphKind.ANNIHILATOR, (2, 3)),
    ("weakly_zd.bipartite_rule", GraphKind.WEAKLY_ZD, (2, 3)),
])
def test_rule_checks_read_the_computed_side_per_vertex_pair(check_id, kind, args):
    """The expected side is constant on zero-set class pairs, but the
    computed side is shared at most within a class of identical adjacency
    rows: one flipped edge between two members of a class pair moves them
    to row classes (and cells) of their own and is a mismatch.  Each row
    reads the graph of its own kind, so the edge is toggled there only.
    Rows on triangles or odd cycles get an edge inside the class Z={0}."""
    fn = REGISTRY[check_id].fn
    ctx = RunContext(SuiteConfig())
    good = fn(ctx, *args)
    assert good.ok
    ctx = RunContext(SuiteConfig())
    n = args[0]
    if check_id in _TRIANGLE_ROWS:
        _toggle_edge(ctx, n, kind, 3, atom_set([0]), atom_set([0]))
    else:
        _flip_orthogonal_edge(ctx, n, kind, 3)
    outcome = fn(ctx, *args)
    assert not outcome.ok
    assert outcome.computed != good.computed


def _per_pair_oracle_outcome(ctx, n, k, kind):
    """The adjacency oracle check one vertex pair at a time: the reference for
    the row comparison, witnesses and counts included."""
    space = ctx.space(n)
    g = ctx.graph(n, kind, "expanded", alphabet=k)
    mismatches = []
    total = 0
    for i in range(g.n_vertices):
        for j in range(i + 1, g.n_vertices):
            total += 1
            closed = g.is_edge(i, j)
            brute = oracle_adjacent(kind, space, k, g.vertices[i], g.vertices[j])
            if closed != brute:
                mismatches.append((g.vertex_label(i), g.vertex_label(j), closed, brute))
    return Outcome(f"{total}/{total} pairs agree", f"{total - len(mismatches)}/{total} pairs agree",
                   not mismatches, witness=mismatches[:5] or None)


@pytest.mark.parametrize("check_id", [
    "comaximal.adjacency_oracle", "zero_divisor.adjacency_oracle",
    "annihilator.adjacency_oracle", "weakly_zd.adjacency_oracle", "comaximal.unit_witness"])
def test_definition_checks_report_one_flipped_edge(check_id):
    """One planted flipped edge is exactly one mismatch, named by its pair."""
    kind = GraphKind(check_id.partition(".")[0])
    n, k = 3, 3
    ctx = RunContext(SuiteConfig())
    assert REGISTRY[check_id].fn(ctx, n, k).ok
    zu = atom_set([0])
    zv = atom_set([1]) if kind is GraphKind.WEAKLY_ZD else complement(ctx.space(n), zu)
    i, j = _toggle_edge(ctx, n, kind, k, zu, zv)
    g = ctx.graph(n, kind, "expanded", alphabet=k)
    outcome = REGISTRY[check_id].fn(ctx, n, k)
    assert not outcome.ok
    if check_id == "comaximal.unit_witness":
        assert outcome.computed == "1 mismatches"
        return
    total = g.n_vertices * (g.n_vertices - 1) // 2
    assert outcome.computed == f"{total - 1}/{total} pairs agree"
    closed = g.is_edge(i, j)
    assert outcome.witness == [(g.vertex_label(i), g.vertex_label(j), closed, not closed)]
    assert outcome == _per_pair_oracle_outcome(ctx, n, k, kind)


@pytest.mark.parametrize("kind", list(GraphKind))
def test_oracle_check_matches_the_per_pair_path(kind):
    """Seven flipped pairs, edges and non-edges, drawn at random: the row
    comparison reports the per-pair path's count and its first five
    witnesses in the same (i, j) order."""
    ctx = RunContext(SuiteConfig())
    g = ctx.graph(3, kind, "expanded", alphabet=3)
    pairs = random.Random(kind.value).sample(
        [(i, j) for i in range(g.n_vertices) for j in range(i + 1, g.n_vertices)], 7)
    _flip_pairs(ctx, g, pairs)
    outcome = REGISTRY[f"{kind.value}.adjacency_oracle"].fn(ctx, 3, 3)
    assert outcome == _per_pair_oracle_outcome(ctx, 3, 3, kind)
    total = g.n_vertices * (g.n_vertices - 1) // 2
    assert outcome.computed == f"{total - 7}/{total} pairs agree"
    assert len(outcome.witness) == 5


def _within_class_forgotten(space, zu, zv, same_vertex=False):
    return not null_equal(space, zu, zv)


def _one_class_pair_flipped(space, zu, zv, same_vertex=False):
    flip = zu == atom_set([0]) and zv == atom_set([1, 2])
    return weakly_adjacent_all(space, zu, zv, same_vertex) != flip


def _self_pairs_flipped(space, zu, zv, same_vertex=False):
    return weakly_adjacent_all(space, zu, zv, same_vertex) != same_vertex


@pytest.mark.parametrize("closed", [weakly_adjacent_all, _within_class_forgotten,
                                    _one_class_pair_flipped, _self_pairs_flipped])
def test_weakly_trichotomy_counts_the_per_pair_mismatches(closed, monkeypatch):
    """With the closed form replaced by a faulty one, the row comparison
    counts the mismatches that comparing each pair i <= j (self-pairs
    included, the ordered pair (f, g) for i < j) one at a time counts."""
    n, k = 3, 3
    ctx = RunContext(SuiteConfig())
    space = ctx.space(n)
    divisors = enumerate_functions(space, k)
    want = sum(
        oracle_adjacent(GraphKind.WEAKLY_ZD, space, k, f, g)
        != closed(space, f.zero_set, g.zero_set, same_vertex=i == j)
        for i, f in enumerate(divisors) for j, g in enumerate(divisors) if i <= j)
    assert (want == 0) == (closed is weakly_adjacent_all)
    monkeypatch.setattr(mrfgraph.checks, "weakly_adjacent_all", closed)
    outcome = REGISTRY["weakly_zd.trichotomy_oracle"].fn(ctx, n, k)
    assert outcome.computed == f"{want} mismatches"
    assert outcome.ok == (want == 0)


def _only_first_atom(space, z):
    return z == atom_set([0])


@pytest.mark.parametrize("atom_test", [is_atom, _only_first_atom])
def test_weakly_self_adjacency_counts_the_per_function_mismatches(atom_test, monkeypatch):
    """With the oracle's self-pair flipped wherever a faulty atom test
    disagrees with ``is_atom``, the rule counts exactly those functions: the
    computed side is the oracle's, never the closed form."""
    n, k = 3, 3
    ctx = RunContext(SuiteConfig())
    space = ctx.space(n)
    want = sum(oracle_adjacent(GraphKind.WEAKLY_ZD, space, k, f, f) == atom_test(space, f.zero_set)
               for f in enumerate_functions(space, k))
    assert (want == 0) == (atom_test is is_atom)
    row = mrfgraph.checks.oracle_row
    monkeypatch.setattr(mrfgraph.checks, "oracle_row", lambda kind, space, k, f, gs: row(
        kind, space, k, f, gs) ^ (atom_test(space, f.zero_set) != is_atom(space, f.zero_set)))
    outcome = REGISTRY["weakly_zd.self_adjacency_rule"].fn(ctx, n, k)
    assert outcome.computed == f"{want} mismatches"
    assert outcome.ok == (want == 0)


def test_edge_triangle_rule_reads_each_edge():
    """At n=3 the annihilator graph joins Z={0} to Z={1,2} and Z={2}, and
    Z={0,1} to the same two classes, but not Z={0} to Z={0,1}; the edges to
    Z={1,2} from Z={0}, and to Z={2} from Z={0,1}, are orthogonal.  An added
    edge u-w between the first members of Z={0} and Z={0,1} gives each
    orthogonal edge at u or w a common neighbour (w or u): one mismatch per
    member of Z={1,2} and of Z={2}: the check counts edges, not cell pairs."""
    fn = REGISTRY["annihilator.edge_triangle_rule"].fn
    ctx = RunContext(SuiteConfig())
    assert fn(ctx, 3, 3).ok
    g = ctx.graph(3, GraphKind.ANNIHILATOR, "expanded", alphabet=3)
    u, v, w, y = (g.classes.members[g.classes.index[atom_set(z)]][0]
                  for z in ([0], [1, 2], [0, 1], [2]))
    assert g.is_edge(u, v) and g.is_edge(v, w) and not g.is_edge(u, w)
    assert g.is_edge(u, y) and g.is_edge(w, y)
    assert not g.adj[u] & g.adj[v] and not g.adj[w] & g.adj[y]
    _toggle_edge(ctx, 3, GraphKind.ANNIHILATOR, 3, atom_set([0]), atom_set([0, 1]))
    outcome = fn(ctx, 3, 3)
    assert not outcome.ok
    flipped = len(g.classes.members[g.classes.of[v]]) + len(g.classes.members[g.classes.of[y]])
    assert int(outcome.computed.split()[0]) == flipped


def test_cli_sample(capsys):
    assert main(["sample", "--samples", "30", "--suite", "measure_core",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["backend"] == "interval"
    assert doc["summary"]["fail"] == 0


@pytest.mark.parametrize("samples,seed,status,instance", [
    (1, 7, "skipped", "all"),
    (2, 7, "pass", "1 sampled edges"),
    (3, 7, "pass", "3 sampled edges"),
    (2, 2, "skipped", "all"),          # the one class pair is not an edge
    (3, 3, "pass", "1 sampled edges"),  # one of the three pairs is an edge
], ids=["s1", "s2", "s3", "s2-no-edge", "s3-one-edge"])
def test_cli_sample_few_classes(samples, seed, status, instance, capsys):
    """s classes hold at most s(s-1)/2 edges: a small sample tests every
    edge it has and skips, rather than fails, when it has none."""
    assert main(["sample", "--samples", str(samples), "--seed", str(seed),
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["fail"] == 0
    [entry] = [e for e in doc["entries"] if e["check"] == "annihilator.sampled_hypertriangulated"]
    assert (entry["status"], entry["instance"]) == (status, instance)
    if status == "skipped":
        assert entry["note"] in ("a single sampled class has no class pairs",
                                 f"no pair of the {samples} sampled classes is an edge")
    else:
        edges = instance.split()[0]
        assert entry["expected"] == f"{edges} sampled edges each on a constructed triangle"
        assert entry["computed"] == f"{edges} edges, 0 failures"


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
    (["build", "--atoms", "3", "--kind", "comaximal", "--out", "/nonexistent/x.dot"],
     "No such file or directory: '/nonexistent/x.dot'"),
    (["verify", "--atoms", "2..2", "--only", "nosuch.check"],
     "invalid configuration: only='nosuch.check' names no atomic-backend check"),
    (["verify", "--only", "measure_core.sampled_no_atoms"],
     "invalid configuration: only='measure_core.sampled_no_atoms' names no atomic-backend check"),
    (["metrics", "--kind", "comaximal", "--atoms", "3", "--which", "foo"],
     "--which: unknown parameter 'foo'"),
    (["verify", "--atoms", "3", "--budget", "-5"],
     "invalid configuration: iso_budget must be at least 0"),
    (["verify", "--atoms", "3", "--clique-bound", "-1"],
     "invalid configuration: clique_bound must be at least 0"),
    (["verify", "--atoms", "3", "--chromatic-bound", "-1"],
     "invalid configuration: chromatic_bound must be at least 0"),
    (["verify", "--atoms", "3", "--dominating-bound", "-1"],
     "invalid configuration: dominating_bound must be at least 0"),
    (["metrics", "--kind", "comaximal", "--atoms", "3", "--which", "clique",
      "--clique-bound", "-1"], "--clique-bound: must be at least 0, got -1"),
    (["metrics", "--kind", "comaximal", "--atoms", "3", "--which", "chromatic",
      "--chromatic-bound", "-1"], "--chromatic-bound: must be at least 0, got -1"),
    (["metrics", "--kind", "comaximal", "--atoms", "3", "--which", "dominating",
      "--dominating-bound", "-1"], "--dominating-bound: must be at least 0, got -1"),
    (["iso", "--left", "comaximal", "--right", "zero_divisor", "--atoms", "2",
      "--budget", "-1"], "--budget: must be at least 0, got -1"),
    (["verify", "--suite", ""], "invalid configuration: unknown suites ['']"),
    (["verify", "--kinds", ""], "invalid configuration: unknown kinds ['']"),
], ids=["atoms-0", "alphabet-1", "missing-config", "bound-exceeded", "graph-too-large",
        "atoms-malformed", "max-cycle-len-0", "samples-0", "out-unwritable", "only-unknown",
        "only-other-backend", "which-unknown", "verify-budget-negative",
        "verify-clique-bound-negative", "verify-chromatic-bound-negative",
        "verify-dominating-bound-negative", "metrics-clique-bound-negative",
        "metrics-chromatic-bound-negative", "metrics-dominating-bound-negative",
        "iso-budget-negative", "suite-empty", "kinds-empty"])
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


@pytest.mark.parametrize("text", [
    "[1, 2]", "null", '"x"', '{"alphabet": 3.0}', '{"max_cycle_len": 8.5}',
    '{"oracle_atoms_max": 2.5}', '{"atoms_max": 3.0}', '{"sample_count": true}',
    '{"seed": {"a": 1}}', '{"output": "xml"}', '{"kinds": "comaximal"}', '{"suites": ""}',
    '{"suites": []}',
])
def test_cli_ill_typed_config_exits_2(text, tmp_path, capsys):
    """No ``--suite`` flag, so the config's own ``suites`` is the one read."""
    cfg = tmp_path / "run.json"
    cfg.write_text(text)
    assert _exit_code(["verify", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid configuration: ")


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_check_times_prints_one_line_per_selected_check(capsys):
    """``--atoms LO..HI`` builds each n's four quotient and four expanded
    graphs first, timed on a line of its own, then times the checks
    ``mrfgraph verify`` runs, in its order."""
    assert _script("check_times").main(["--atoms", "2..3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    ids = [check.id for check in applicable_checks(SuiteConfig(atoms_min=2, atoms_max=3))]
    assert lines[0].split()[2:] == ["RunContext.graph", "16", "quotient", "and", "expanded",
                                    "graphs"]
    assert [line.split()[2] for line in lines[1:-1]] == ids
    assert lines[-1].endswith(f"total over {len(ids)} checks")


def test_check_times_prints_one_line_per_interval_check(capsys):
    """``--samples N`` times the shared class draw first, then the checks
    ``mrfgraph sample --samples N`` runs, in its order; each interval check
    makes one passing entry."""
    assert _script("check_times").main(["--samples", "20"]) == 0
    lines = capsys.readouterr().out.splitlines()
    ids = [check.id for check in applicable_checks(SuiteConfig(backend="interval"))]
    assert len(ids) == 7
    assert lines[0].split()[2:] == ["RunContext.interval_classes", "20", "sampled", "classes"]
    assert [line.split()[2] for line in lines[1:-1]] == ids
    assert all(line.endswith("pass/fail/skipped 1/0/0") for line in lines[1:-1])
    assert lines[-1].endswith(f"total over {len(ids)} checks")
    with pytest.raises(SystemExit):  # one suite per run
        _script("check_times").main(["--samples", "20", "--atoms", "2..2"])


def test_check_times_prints_the_peak_rss_on_every_check_line(capsys):
    """Each check line carries ``peak N MiB`` between the check id and the
    counts; the peak is the process's, so it never decreases down the
    lines.  The shared first line and the total line carry none."""
    assert _script("check_times").main(["--atoms", "2..3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    columns = [line.split()[3:6] for line in lines[1:-1]]
    assert all(col[0] == "peak" and col[2] == "MiB" and int(col[1]) > 0 for col in columns)
    peaks = [int(col[1]) for col in columns]
    assert peaks == sorted(peaks)
    assert "peak" not in lines[0].split() and "peak" not in lines[-1].split()


def test_explore_nonatomic_iso_prints_one_verdict_per_size(capsys):
    assert _script("explore_nonatomic_iso").main(["--sizes", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    verdicts = [line for line in lines if line.startswith("sample size")]
    assert len(verdicts) == 1
    assert verdicts[0].startswith("sample size   5 -> ")
    assert "complement map verified" in verdicts[0]


def test_check_times_skips_over_the_guard(capsys):
    """n=8 has 6,304 expanded vertices, over the default guard of 5,000: the
    shared line builds the five graphs under it (four quotient graphs and the
    1,024-vertex weakly-zd one), and the checks skip the others, as
    ``mrfgraph verify`` does."""
    assert _script("check_times").main(["--atoms", "8..8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    ids = [check.id for check in applicable_checks(SuiteConfig(atoms_min=8, atoms_max=8))]
    assert lines[0].split()[2:] == ["RunContext.graph", "5", "quotient", "and", "expanded",
                                    "graphs"]
    counts = {line.split()[2]: line.split()[-1] for line in lines[1:-1]}
    assert list(counts) == ids
    assert counts["comaximal.class_stability"] == "0/0/1"
    assert counts["comaximal.distance_formula"] == "1/0/1"
    assert counts["zero_divisor.complete_bipartite_rule"] == "1/0/1"
    assert counts["weakly_zd.complete_multipartite_rule"] == "1/0/0"
    assert all(c.split("/")[1] == "0" for c in counts.values())
    assert lines[-1].endswith(f"total over {len(ids)} checks")


@pytest.mark.parametrize("argv,config", [
    (["--atoms", "2..2"], SuiteConfig(atoms_min=2, atoms_max=2)),
    (["--atoms", "2..3"], SuiteConfig(atoms_min=2, atoms_max=3)),
    (["--atoms", "8..8"], SuiteConfig(atoms_min=8, atoms_max=8)),
    (["--samples", "20"], SuiteConfig(backend="interval", sample_count=20)),
], ids=["atoms-2..2", "atoms-2..3", "atoms-8..8", "samples-20"])
def test_check_times_counts_equal_the_report(argv, config, capsys):
    """Each check's pass/fail/skipped counts are those of its entries in the
    report of the same run, the ``none`` skip of an empty domain included."""
    assert _script("check_times").main(argv) == 0
    lines = capsys.readouterr().out.splitlines()[1:-1]
    printed = {line.split()[2]: line.split()[-1] for line in lines}
    statuses: dict[str, list[str]] = {}
    for e in run_suite(config).entries:
        if e.check != "harness.coverage_complete":
            statuses.setdefault(e.check, []).append(e.status)
    assert printed == {check: "/".join(str(got.count(s)) for s in ("pass", "fail", "skipped"))
                       for check, got in statuses.items()}


def test_check_entries_makes_the_gate_and_empty_domain_skips():
    """``_check_entries`` itself makes the ``all`` skip of an unselected kind
    and the ``none`` skip of a check with no instance in the atom range."""
    ctx = RunContext(SuiteConfig(atoms_min=2, atoms_max=2, kinds=("zero_divisor",)))
    gated = _check_entries(REGISTRY["comaximal.distance_formula"], ctx)
    assert [(e.instance, e.status, e.note) for e in gated] == \
        [("all", "skipped", "kind comaximal not selected")]
    ctx = RunContext(SuiteConfig(atoms_min=2, atoms_max=2))
    for check_id in ("comaximal.cycle_rank_cases", "weakly_zd.three_atom_properties"):
        assert [(e.check, e.instance, e.status, e.note)
                for e in _check_entries(REGISTRY[check_id], ctx)] == \
            [(check_id, "none", "skipped", "check produced no instances")]


def test_render_report_follows_the_config(small_report):
    assert render_report(small_report) == small_report.to_json()
    text = Report(dataclasses.replace(small_report.config, output="text"), small_report.entries)
    assert render_report(text) == small_report.to_text()


def test_weight_independence_names_the_graphs_over_the_guard(capsys):
    """At n=8 the three 6,304-vertex expanded graphs are over the guard; the
    other five are compared and the entry passes, naming the three."""
    argv = ["verify", "--atoms", "8..8", "--only", "measure_core.weight_independence"]
    entries = _entries_by_check(argv, capsys)["measure_core.weight_independence"]
    assert [(e["instance"], e["status"], e["note"]) for e in entries] == \
        [("n=8", "pass", UNCOMPARED_AT_8)]


def test_weight_independence_skips_when_no_graph_is_under_the_guard(monkeypatch):
    monkeypatch.setattr(graph_build, "MAX_VERTICES", 1)
    report = run_suite(SuiteConfig(atoms_min=3, atoms_max=3,
                                   only="measure_core.weight_independence"))
    assert [(e.instance, e.status, e.note) for e in report.entries] == \
        [("n=3 k=3", "skipped", "6 vertices exceed guard 1")]


def _entries_by_check(argv, capsys) -> dict[str, list[dict]]:
    assert main(argv) == 0
    by_check: dict[str, list[dict]] = {}
    for entry in json.loads(capsys.readouterr().out)["entries"]:
        by_check.setdefault(entry["check"], []).append(entry)
    return by_check


UNCOMPARED_AT_8 = "; ".join(f"{kind}_expanded_n8_k3 not compared: 6304 vertices exceed guard 5000"
                           for kind in ("zero_divisor", "comaximal", "annihilator"))


def test_verify_skips_the_instances_over_the_guard(monkeypatch, capsys):
    """n=8 expanded graphs have 6,304 vertices, over the guard of 5,000.  The
    run goes on: its entries for n <= 7 are those of ``--atoms 2..7``, and
    each n=8 entry is the one a run with the guard at 6,304 makes, or a
    SKIPPED entry naming the guard; ``measure_core.weight_independence``
    passes on the graphs under the guard and names the three it left out.
    Only the coverage self-audit differs."""
    wide = _entries_by_check(["verify", "--atoms", "2..8"], capsys)
    low = _entries_by_check(["verify", "--atoms", "2..7"], capsys)
    monkeypatch.setattr(graph_build, "MAX_VERTICES", 6304)
    lifted = _entries_by_check(["verify", "--atoms", "8..8"], capsys)
    assert wide.keys() == low.keys() == lifted.keys()
    guard_skips = 0
    for check, entries in wide.items():
        if check == "harness.coverage_complete":
            continue
        assert entries[:len(low[check])] == low[check], check
        top = entries[len(low[check]):]
        full = [e for e in lifted[check] if e.get("note") != "check produced no instances"]
        assert len(top) == len(full), check
        for got, want in zip(top, full):
            if check == "measure_core.weight_independence":
                assert got == dict(want, note=UNCOMPARED_AT_8), check
            elif got != want:
                assert (got["status"], got.get("note")) == \
                    ("skipped", "6304 vertices exceed guard 5000"), check
                guard_skips += 1
    assert guard_skips == 25


def test_a_skipped_per_mode_instance_names_its_mode(capsys):
    """A per-mode check labels a skipped instance as it labels a passing one."""
    argv = ["verify", "--atoms", "8..8", "--only", "comaximal.distance_formula"]
    entries = _entries_by_check(argv, capsys)["comaximal.distance_formula"]
    assert [(e["instance"], e["status"], e.get("note")) for e in entries] == [
        ("n=8 quotient", "pass", None),
        ("n=8 expanded k=3", "skipped", "6304 vertices exceed guard 5000")]


def test_verify_skips_a_class_partition_over_the_guard(capsys):
    """Alphabet 20,000 at n=2 gives 39,998 expanded vertices: the one
    instance skips on the guard, and the run exits 0."""
    argv = ["verify", "--atoms", "2..2", "--alphabet", "20000", "--only",
            "quotient.class_partition"]
    entries = _entries_by_check(argv, capsys)["quotient.class_partition"]
    assert [(e["status"], e["note"]) for e in entries] == \
        [("skipped", "39998 vertices exceed guard 5000")]


def test_sample_skips_the_probe_over_the_guard(monkeypatch, capsys):
    """The complement probe builds its graphs on the 50 complement-closed
    classes of a 100-class sample; with the guard below that the probe alone
    skips, and every other interval check passes."""
    monkeypatch.setattr(graph_build, "MAX_VERTICES", 49)
    by_check = _entries_by_check(["sample", "--samples", "100", "--seed", "7"], capsys)
    probe = by_check.pop("iso.sampled_complement_probe")
    assert [(e["status"], e["note"]) for e in probe] == \
        [("skipped", "50 vertices exceed guard 49")]
    assert len(by_check) == 7
    assert all(e["status"] == "pass" for entries in by_check.values() for e in entries)


def test_kinds_accept_the_cli_aliases(tmp_path, capsys):
    """``--kinds`` and a config's ``kinds`` take the names ``--kind`` takes,
    and the report echoes the canonical ones."""
    base = ["verify", "--atoms", "2..2"]
    assert main(base + ["--kinds", "weakly_zd,zero_divisor"]) == 0
    canonical = capsys.readouterr().out
    assert main(base + ["--kinds", "weakly-zd,zero-divisor"]) == 0
    assert capsys.readouterr().out == canonical
    cfg = tmp_path / "run.json"
    cfg.write_text('{"kinds": ["weakly-zd", "zero-divisor"]}')
    assert main(base + ["--config", str(cfg)]) == 0
    assert capsys.readouterr().out == canonical
    assert _exit_code(base + ["--kinds", "weakly-zd,septic"]) == 2
    assert capsys.readouterr().err == "invalid configuration: unknown kinds ['septic']\n"


def _assert_renders_reports(argv, name, capsys):
    """``argv`` renders reports/<name>.json and reports/<name>.txt byte for
    byte, the commands the README gives with ``--out``."""
    for fmt, suffix in (("json", "json"), ("text", "txt")):
        assert main([*argv, "--format", fmt]) == 0
        assert capsys.readouterr().out == (ROOT / "reports" / f"{name}.{suffix}").read_text()


def test_default_atomic_report_is_pinned(capsys):
    _assert_renders_reports(["verify", "--atoms", "2..5", "--alphabet", "3", "--seed", "7"],
                            "atomic", capsys)


def test_default_interval_report_is_pinned(capsys):
    _assert_renders_reports(["sample", "--samples", "100", "--seed", "7"], "interval", capsys)


@pytest.mark.parametrize("argv,digest", [
    (["--atoms", "2..6", "--alphabet", "3"],
     "2c768ba92c8034ef172a3f737209b8e676986035a8053d7d42ecf3224f0e4285"),
    (["--atoms", "7..7", "--alphabet", "3"],
     "75d60e2c059fafedcb12a7a1bfa28f1ea72d4782fe993d171122d52dd59ebe0b"),
    (["--atoms", "2..4", "--alphabet", "2"],
     "78198540fa168045e7c0f1dd00c56d8485fcb57a5f63491c6f75b65fc0d891ac"),
    (["--atoms", "2..4", "--alphabet", "4"],
     "53f16bc79eab0817d3657c9f0cc380cc2debf59d2b08ad5378694fc43e3a7f63"),
    (["--atoms", "2..5", "--weights", "random-positive"],
     "5ecd2a4046435c8eb688d03ed7fbe0bc22535373ee6db761f3cb9f1669c1229a"),
], ids=["2..6", "7..7", "2..4-alphabet-2", "2..4-alphabet-4", "2..5-random-positive"])
def test_larger_atomic_reports_are_pinned(argv, digest, capsys):
    """The runs reports/atomic.json (n up to 5, k=3, unit weights) does not
    cover: n=6 and n=7; k=2, where the ``needs_k3`` checks skip and
    ``alphabets=(2,)`` adds nothing; k=4, past the oracle's alphabet bound;
    and random positive weights."""
    assert main(["verify", *argv, "--seed", "7", "--format", "json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_sample_1000_report_is_pinned(capsys):
    """The 1000-sample interval report, the same bytes the benchmark's
    ``interval_sample`` workload gates on."""
    assert main(["sample", "--samples", "1000", "--seed", "7", "--format", "json"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "ba330d1d22a1f909ee79b82cf12d197bc439d7f4fd5e799542e3ec5c1cdf3aaa"


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
