"""Acceptance gate: every criterion at its stated scale, zero tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
"""

import functools
import math
from fractions import Fraction

from mrfgraph.graph_build import GraphKind, adjacent, build_graph, oracle_adjacent, weakly_adjacent_all
from mrfgraph.graph_metrics import (
    annihilator_common_neighbor_zero_set,
    comaximal_triangle_zero_sets,
    complementation_profile,
    cycle_rank,
    metrics,
    np_metrics,
    partiteness,
    triangle_profile,
)
from mrfgraph.harness import SuiteConfig, render_report, run_suite
from mrfgraph.isomorphism import (
    NOT_ISOMORPHIC,
    are_isomorphic,
    complement_iso,
    verify_mapping,
)
from mrfgraph.measure_space import (
    IntervalSpace,
    atom_set,
    complement,
    intersect,
    is_atom,
    is_null,
    is_subset,
    measure,
    null_equal,
    split_at_measure,
    split_nonatom,
    unit_space,
)
from mrfgraph.vertex_universe import (
    enumerate_functions,
    sample_interval_class,
    sample_interval_classes,
    zclass,
)

KINDS = (GraphKind.ZERO_DIVISOR, GraphKind.COMAXIMAL,
         GraphKind.ANNIHILATOR, GraphKind.WEAKLY_ZD)
INF = math.inf


@functools.lru_cache(maxsize=None)
def expanded(n: int, kind: GraphKind, k: int = 3):
    return build_graph(unit_space(n), kind, "expanded", alphabet=k)


@functools.lru_cache(maxsize=None)
def quotient(n: int, kind: GraphKind):
    return build_graph(unit_space(n), kind, "quotient")


def announce(number: int, title: str):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {number} ({title}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({title}): PASS")
        return run
    return wrap


@announce(1, "oracle equivalence, all kinds, n=2..4, k=3")
def test_criterion_1_oracle_equivalence():
    for n in (2, 3, 4):
        space = unit_space(n)
        for kind in KINDS:
            g = expanded(n, kind)
            for i in range(g.n_vertices):
                for j in range(i + 1, g.n_vertices):
                    brute = oracle_adjacent(kind, space, 3, g.vertices[i], g.vertices[j])
                    assert g.is_edge(i, j) == brute, (n, kind, i, j)


@announce(2, "comaximal suite, n=2..5")
def test_criterion_2_comaximal_suite():
    for n in range(2, 6):
        space = unit_space(n)
        for g in (quotient(n, GraphKind.COMAXIMAL), expanded(n, GraphKind.COMAXIMAL)):
            summary = metrics(g)
            for i in range(g.n_vertices):
                for j in range(i + 1, g.n_vertices):
                    zu, zv = g.zero_sets[i], g.zero_sets[j]
                    if is_null(space, intersect(space, zu, zv)):
                        want = 1
                    elif not is_null(space, intersect(space, complement(space, zu),
                                                      complement(space, zv))):
                        want = 2
                    else:
                        want = 3
                    assert summary.distance(i, j) == want

        g = expanded(n, GraphKind.COMAXIMAL)
        summary = metrics(g)
        for i in range(g.n_vertices):
            want = 2 if is_atom(space, g.zero_sets[i]) else 3
            assert summary.eccentricity[i] == want
        assert (summary.diameter, summary.girth) == ((2, 4) if n == 2 else (3, 3))

        profile = triangle_profile(g)
        for i in range(g.n_vertices):
            coz_atom = is_atom(space, complement(space, g.zero_sets[i]))
            assert profile.vertex_flags[i] == (not coz_atom)

        assert not profile.is_hypertriangulated
        edge_flags = {(i, j): profile.edge_flag(i, j) for i, j in g.edges()}
        for i in range(g.n_vertices):
            j = g.zero_sets.index(complement(space, g.zero_sets[i]))
            assert g.is_edge(i, j)
            assert edge_flags[(min(i, j), max(i, j))] is False

        comp = complementation_profile(g)
        assert comp.is_complemented and comp.is_uniquely_complemented

        if n in (3, 4):
            for i in range(g.n_vertices):
                for j in range(i + 1, g.n_vertices):
                    zu, zv = g.zero_sets[i], g.zero_sets[j]
                    zeros_null = is_null(space, intersect(space, zu, zv))
                    cozs_null = is_null(space, intersect(space, complement(space, zu),
                                                         complement(space, zv)))
                    if zeros_null and not cozs_null:
                        want = 3
                    elif zeros_null == cozs_null:
                        want = 4
                    else:
                        want = 6
                    assert cycle_rank(g, i, j) == want


@announce(3, "quotient suite: complement isomorphism and parameter transfer")
def test_criterion_3_quotient_suite():
    for n in range(2, 6):
        g1, g2 = quotient(n, GraphKind.ZERO_DIVISOR), quotient(n, GraphKind.COMAXIMAL)
        verdict = complement_iso(g1, g2)
        assert verdict.is_isomorphic
        assert verify_mapping(g1, g2, verdict.mapping)
    for n in range(2, 5):
        gq = quotient(n, GraphKind.COMAXIMAL)
        ge = expanded(n, GraphKind.COMAXIMAL)
        vq = np_metrics(gq, ("clique", "chromatic", "dominating", "total_dominating"),
                        dominating_bound=128)
        ve = np_metrics(ge, ("clique", "chromatic", "dominating", "total_dominating"),
                        clique_bound=128, chromatic_bound=128, dominating_bound=128)
        assert vq["clique"][0] == ve["clique"][0]
        assert vq["chromatic"][0] == ve["chromatic"][0]
        assert vq["dominating"][0] <= ve["dominating"][0]
        assert vq["total_dominating"][0] == ve["total_dominating"][0]
    for n in range(2, 6):
        values = np_metrics(quotient(n, GraphKind.COMAXIMAL), ("clique", "chromatic"))
        assert values["clique"][0] == n and values["chromatic"][0] == n


@announce(4, "annihilator suite, expanded(3), n=2..4")
def test_criterion_4_annihilator_suite():
    for n in range(2, 5):
        space = unit_space(n)
        ga = expanded(n, GraphKind.ANNIHILATOR)
        summary = metrics(ga)
        assert set(summary.eccentricity) == {2}
        assert summary.diameter == 2

        dom = np_metrics(ga, ("dominating", "total_dominating"), dominating_bound=128)
        assert dom["dominating"][0] == 2 and dom["total_dominating"][0] == 2

        gz, gc = expanded(n, GraphKind.ZERO_DIVISOR), expanded(n, GraphKind.COMAXIMAL)
        for i in range(ga.n_vertices):
            assert gz.adj[i] & ~ga.adj[i] == 0
            assert gc.adj[i] & ~ga.adj[i] == 0
        if n == 2:
            assert gz.adj == ga.adj and gc.adj == ga.adj
        else:
            first, rest = atom_set([1]), atom_set(range(2, n))
            f1 = ga.zero_sets.index(rest)
            f2 = ga.zero_sets.index(first)
            assert ga.is_edge(f1, f2) and gc.is_edge(f1, f2) and not gz.is_edge(f1, f2)
            g1 = ga.zero_sets.index(complement(space, first))
            g2 = ga.zero_sets.index(complement(space, rest))
            assert ga.is_edge(g1, g2) and gz.is_edge(g1, g2) and not gc.is_edge(g1, g2)

        assert partiteness(ga).is_complete_bipartite == (n == 2)

        comp = complementation_profile(ga)
        assert comp.is_complemented == (n in (2, 3))
        if comp.is_complemented:
            assert comp.is_uniquely_complemented
        for i in range(ga.n_vertices):
            side_atom = is_atom(space, ga.zero_sets[i]) or \
                is_atom(space, complement(space, ga.zero_sets[i]))
            assert comp.has_complement[i] == side_atom

        verdict = are_isomorphic(ga, gc)
        assert verdict.is_isomorphic == (n == 2)
        if n == 3:
            assert verdict.certificate["kind"] == "eccentricity-class-count"


@announce(5, "weakly-zero-divisor suite")
def test_criterion_5_weakly_suite():
    for n in (2, 3, 4):
        space = unit_space(n)
        divisors = enumerate_functions(space, 3)
        for i, f in enumerate(divisors):
            for j in range(i, len(divisors)):
                g = divisors[j]
                brute = oracle_adjacent(GraphKind.WEAKLY_ZD, space, 3, f, g)
                want = weakly_adjacent_all(space, f.zero_set, g.zero_set,
                                           same_vertex=(i == j))
                assert brute == want
                if i == j:
                    assert brute == (not is_atom(space, f.zero_set))

        gw = expanded(n, GraphKind.WEAKLY_ZD)
        shape = partiteness(gw)
        assert shape.multipartite_parts is not None
        assert len(shape.multipartite_parts) == n
        assert all(len(p) == 2 ** (n - 1) for p in shape.multipartite_parts)
        assert shape.is_bipartite == (n == 2)

        if n >= 3:
            summary = metrics(gw)
            profile = triangle_profile(gw)
            comp = complementation_profile(gw)
            assert profile.is_triangulated and profile.is_hypertriangulated
            assert summary.girth == 3
            assert not any(comp.is_orthogonal(i, j) for i, j in gw.edges())
            assert not any(comp.has_complement) and not comp.is_complemented

        values = np_metrics(gw, ("clique", "chromatic", "dominating"),
                            dominating_bound=128)
        assert values["clique"][0] == n and values["chromatic"][0] == n
        assert values["dominating"][0] == 2


@announce(6, "isomorphism dichotomy at finite alphabets")
def test_criterion_6_iso_dichotomy():
    for n in range(2, 6):
        g1 = build_graph(unit_space(n), GraphKind.ZERO_DIVISOR, "expanded", alphabet=2)
        g2 = build_graph(unit_space(n), GraphKind.COMAXIMAL, "expanded", alphabet=2)
        verdict = complement_iso(g1, g2)
        assert verdict.is_isomorphic
        assert verify_mapping(g1, g2, verdict.mapping)

    verdict = complement_iso(expanded(3, GraphKind.ZERO_DIVISOR), expanded(3, GraphKind.COMAXIMAL))
    assert verdict.outcome == NOT_ISOMORPHIC
    cert = verdict.certificate
    assert cert["kind"] == "eccentricity-class-count"
    assert cert["left"] == {"2": 6, "3": 12}
    assert cert["right"] == {"2": 12, "3": 6}
    left = metrics(expanded(3, GraphKind.ZERO_DIVISOR)).eccentricity_histogram()
    right = metrics(expanded(3, GraphKind.COMAXIMAL)).eccentricity_histogram()
    assert {str(k): v for k, v in left.items()} == cert["left"]
    assert {str(k): v for k, v in right.items()} == cert["right"]


@announce(7, "interval backend: exact splitting and constructed triangles")
def test_criterion_7_interval_backend():
    space = IntervalSpace()
    import random

    rng = random.Random("acceptance-split")
    for i in range(200):
        zc = sample_interval_class(f"acc:{i}", i % 3 + 1)
        candidate = zc.zero_set if i % 2 == 0 else complement(space, zc.zero_set)
        r = measure(space, candidate) * Fraction(rng.randrange(0, 101), 100)
        part = split_at_measure(space, candidate, r)
        assert measure(space, part) == r
        assert is_subset(space, part, candidate)

    classes = sample_interval_classes(7, 100)
    for zc in classes:
        za, zb = comaximal_triangle_zero_sets(space, zc.zero_set)
        zclass(space, za), zclass(space, zb)
        assert adjacent(GraphKind.COMAXIMAL, space, zc.zero_set, za)
        assert adjacent(GraphKind.COMAXIMAL, space, zc.zero_set, zb)
        assert adjacent(GraphKind.COMAXIMAL, space, za, zb)

    found = 0
    for a in range(len(classes)):
        for b in range(a + 1, len(classes)):
            if found >= 100:
                break
            zu, zv = classes[a].zero_set, classes[b].zero_set
            if not adjacent(GraphKind.ANNIHILATOR, space, zu, zv):
                continue
            found += 1
            zh = annihilator_common_neighbor_zero_set(space, zu, zv)
            assert zh is not None
            assert adjacent(GraphKind.ANNIHILATOR, space, zu, zh)
            assert adjacent(GraphKind.ANNIHILATOR, space, zv, zh)
        if found >= 100:
            break
    assert found == 100

    for zc in classes:
        assert not is_atom(space, zc.zero_set)
        assert not is_atom(space, complement(space, zc.zero_set))
        left, right = split_nonatom(space, zc.zero_set)
        assert not is_null(space, left) and not is_null(space, right)

    gw = build_graph(space, GraphKind.WEAKLY_ZD, sample=classes)
    assert gw.n_vertices == 0


@announce(8, "degenerate spaces, weight independence, report determinism")
def test_criterion_8_degenerate_and_determinism():
    for kind in KINDS:
        assert build_graph(unit_space(1), kind, "quotient").n_vertices == 0
        assert build_graph(unit_space(1), kind, "expanded", alphabet=3).n_vertices == 0
    report = run_suite(SuiteConfig(atoms_min=1, atoms_max=1,
                                   suites=("measure_core", "zero_divisor")))
    assert not report.failed
    assert any("no zero-divisors" in e.note for e in report.entries)

    from mrfgraph.harness import make_weights
    from mrfgraph.measure_space import AtomicSpace

    for n in (2, 3, 4):
        random_space = AtomicSpace(make_weights(n, "random-positive", seed=7))
        unit = unit_space(n)
        assert random_space.weights != unit.weights or n == 1
        for kind in KINDS:
            for mode, k in (("quotient", None), ("expanded", 3)):
                g_unit = build_graph(unit, kind, mode, alphabet=k)
                g_rand = build_graph(random_space, kind, mode, alphabet=k)
                assert g_unit.adj == g_rand.adj
                assert g_unit.zero_sets == g_rand.zero_sets

    config = SuiteConfig(atoms_min=2, atoms_max=3)
    first, second = run_suite(config), run_suite(config)
    assert render_report(first) == render_report(second)
    assert first.to_text() == second.to_text()
