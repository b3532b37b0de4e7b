"""Certified isomorphism verdicts and refutation certificates."""

import itertools
import random

import pytest

from mrfgraph.graph_build import Graph, GraphKind, build_graph, zero_set_classes
from mrfgraph.isomorphism import (
    INCONCLUSIVE,
    ISOMORPHIC,
    NOT_ISOMORPHIC,
    are_isomorphic,
    complement_iso,
    verify_mapping,
)
from mrfgraph.measure_space import atom_set, unit_space
from mrfgraph.vertex_universe import ZClass


def raw_graph(n, edges):
    rows = [0] * n
    for i, j in edges:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    space = unit_space(2)
    payload = tuple(ZClass(atom_set([0])) for _ in range(n))
    return Graph(GraphKind.COMAXIMAL, "quotient", None, space,
                 payload, zero_set_classes([p.zero_set for p in payload]), tuple(rows))


def zd_comaximal(n, mode="quotient", k=None):
    space = unit_space(n)
    return (build_graph(space, GraphKind.ZERO_DIVISOR, mode, alphabet=k),
            build_graph(space, GraphKind.COMAXIMAL, mode, alphabet=k))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_complement_iso_verified(n):
    g1, g2 = zd_comaximal(n)
    verdict = complement_iso(g1, g2)
    assert verdict.is_isomorphic and verdict.nodes_explored == 0
    assert verify_mapping(g1, g2, verdict.mapping)
    mapping = verdict.mapping
    assert all(mapping[mapping[i]] == i for i in range(len(mapping)))  # involution


@pytest.mark.parametrize("n", [3, 4])
def test_complement_iso_defers_to_are_isomorphic(n):
    g1, g2 = zd_comaximal(n, "expanded", 3)
    verdict = complement_iso(g1, g2)
    assert verdict.outcome == NOT_ISOMORPHIC
    assert verdict == are_isomorphic(g1, g2)


def test_complement_iso_vertex_count_certificate():
    verdict = complement_iso(raw_graph(2, [(0, 1)]), raw_graph(3, [(0, 1)]))
    assert verdict.certificate == {"kind": "vertex-count", "left": 2, "right": 3}


def test_complement_iso_needs_two_atoms():
    with pytest.raises(ValueError):
        complement_iso(*zd_comaximal(1))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_class_size_iso_alphabet_two(n):
    g1, g2 = zd_comaximal(n, "expanded", 2)
    verdict = complement_iso(g1, g2)
    assert verdict.is_isomorphic
    assert verify_mapping(g1, g2, verdict.mapping)


def test_class_size_iso_two_atoms_any_alphabet():
    verdict = complement_iso(*zd_comaximal(2, "expanded", 3))
    assert verdict.is_isomorphic


def test_class_size_iso_certificate_n3_k3():
    verdict = complement_iso(*zd_comaximal(3, "expanded", 3))
    assert verdict.outcome == NOT_ISOMORPHIC
    cert = verdict.certificate
    assert cert["kind"] == "eccentricity-class-count"
    assert cert["left"] == {"2": 6, "3": 12}
    assert cert["right"] == {"2": 12, "3": 6}


def test_class_size_iso_not_isomorphic_n4_k3():
    verdict = complement_iso(*zd_comaximal(4, "expanded", 3))
    assert verdict.outcome == NOT_ISOMORPHIC


def test_are_isomorphic_identity():
    g = build_graph(unit_space(3), GraphKind.COMAXIMAL, "expanded", alphabet=3)
    verdict = are_isomorphic(g, g)
    assert verdict.is_isomorphic
    assert verify_mapping(g, g, verdict.mapping)


def test_annihilator_vs_comaximal_dichotomy():
    ga2 = build_graph(unit_space(2), GraphKind.ANNIHILATOR, "expanded", alphabet=3)
    gc2 = build_graph(unit_space(2), GraphKind.COMAXIMAL, "expanded", alphabet=3)
    assert are_isomorphic(ga2, gc2).is_isomorphic

    ga3 = build_graph(unit_space(3), GraphKind.ANNIHILATOR, "expanded", alphabet=3)
    gc3 = build_graph(unit_space(3), GraphKind.COMAXIMAL, "expanded", alphabet=3)
    verdict = are_isomorphic(ga3, gc3)
    assert verdict.outcome == NOT_ISOMORPHIC
    assert verdict.certificate["kind"] == "eccentricity-class-count"


def test_vertex_count_certificate():
    verdict = are_isomorphic(raw_graph(2, [(0, 1)]), raw_graph(3, [(0, 1)]))
    assert verdict.outcome == NOT_ISOMORPHIC
    assert verdict.certificate["kind"] == "vertex-count"


@pytest.mark.parametrize("left,right,certificate", [
    # C5 and K_{2,3}: every eccentricity 2 on both sides
    ([(i, (i + 1) % 5) for i in range(5)], [(i, j) for i in (0, 1) for j in (2, 3, 4)],
     {"kind": "edge-count", "left": 5, "right": 6}),
    # two 6-vertex trees with equal eccentricity histograms and edge counts
    ([(0, 1), (0, 2), (0, 3), (0, 4), (1, 5)], [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)],
     {"kind": "degree-multiset", "left": [1, 1, 1, 1, 2, 4], "right": [1, 1, 1, 1, 3, 3]}),
], ids=["edge-count", "degree-multiset"])
def test_count_certificates(left, right, certificate):
    n = max(max(e) for e in left + right) + 1
    verdict = are_isomorphic(raw_graph(n, left), raw_graph(n, right))
    assert verdict.outcome == NOT_ISOMORPHIC
    assert verdict.certificate == certificate


def test_relabeled_cycles_are_isomorphic():
    c6 = raw_graph(6, [(i, (i + 1) % 6) for i in range(6)])
    scrambled = raw_graph(6, [(3, 5), (5, 1), (1, 4), (4, 0), (0, 2), (2, 3)])
    verdict = are_isomorphic(c6, scrambled)
    assert verdict.is_isomorphic
    assert verify_mapping(c6, scrambled, verdict.mapping)


def pairwise_verify(g1, g2, mapping):
    """Edge-by-edge reference for ``verify_mapping``."""
    n = g1.n_vertices
    return (n == g2.n_vertices and sorted(mapping) == list(range(n))
            and all(g1.is_edge(i, j) == g2.is_edge(mapping[i], mapping[j])
                    for i, j in itertools.combinations(range(n), 2)))


def test_verify_mapping_rejects_one_wrong_edge():
    path = raw_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert verify_mapping(path, path, (0, 1, 2, 3))
    assert verify_mapping(path, path, (3, 2, 1, 0))
    # Swapping 0 and 1 sends the edge 1-2 to the non-edge 0-2 and keeps the rest.
    assert not verify_mapping(path, path, (1, 0, 2, 3))
    # Graphs that differ in a single edge: the identity fails on that edge only.
    almost = raw_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert not verify_mapping(path, almost, (0, 1, 2, 3))
    assert not verify_mapping(almost, path, (0, 1, 2, 3))


def test_verify_mapping_rejects_non_bijections():
    path = raw_graph(3, [(0, 1), (1, 2)])
    empty = raw_graph(3, [])
    assert not verify_mapping(path, path, (0, 1, 1))
    assert not verify_mapping(empty, empty, (0, 0, 0))
    assert not verify_mapping(path, path, (0, 1))
    assert not verify_mapping(path, path, (0, 1, 2, 3))
    assert not verify_mapping(path, raw_graph(4, [(0, 1), (1, 2)]), (0, 1, 2))


def test_verify_mapping_matches_pairwise_check():
    rng = random.Random(3)
    c6 = raw_graph(6, [(i, (i + 1) % 6) for i in range(6)])
    g1, g2 = zd_comaximal(3, "expanded", 2)
    for a, b in ((c6, c6), (g1, g2), (g2, g1), (g1, g1)):
        n = a.n_vertices
        for _ in range(200):
            mapping = tuple(rng.sample(range(n), n))
            assert verify_mapping(a, b, mapping) == pairwise_verify(a, b, mapping)
        for mapping in itertools.islice(itertools.permutations(range(n)), 500):
            assert verify_mapping(a, b, mapping) == pairwise_verify(a, b, mapping)


def test_exhausted_search_certificate():
    # K(3,3) and the triangular prism: both 3-regular on 6 vertices with
    # 9 edges and all eccentricities 2, but only the prism has triangles.
    k33 = raw_graph(6, [(i, j) for i in (0, 1, 2) for j in (3, 4, 5)])
    prism = raw_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                          (0, 3), (1, 4), (2, 5)])
    verdict = are_isomorphic(k33, prism)
    assert verdict.outcome == NOT_ISOMORPHIC
    assert verdict.certificate["kind"] == "exhausted-search"
    assert verdict.certificate["nodes_explored"] > 0


def test_budget_exhaustion_is_inconclusive():
    c8 = raw_graph(8, [(i, (i + 1) % 8) for i in range(8)])
    relabel = [3, 6, 1, 4, 7, 2, 5, 0]
    scrambled = raw_graph(8, [(relabel[i], relabel[(i + 1) % 8]) for i in range(8)])
    verdict = are_isomorphic(c8, scrambled, budget=0)
    assert verdict.outcome == INCONCLUSIVE


def test_empty_graphs_isomorphic():
    verdict = are_isomorphic(raw_graph(0, []), raw_graph(0, []))
    assert verdict.is_isomorphic


def recursive_backtrack(g1, g2, budget):
    """The recursive search the explicit stack replaced (slow reference):
    same candidates and order, one Python frame per position, and each
    candidate tested against every placed vertex in turn where the search
    compares one mask."""
    from mrfgraph.graph_metrics import metrics
    from mrfgraph.isomorphism import _wl_colors

    n = g1.n_vertices
    colors1, colors2 = _wl_colors(g1, g2, metrics(g1).eccentricity, metrics(g2).eccentricity)
    candidates = [[j for j in range(n) if colors2[j] == colors1[i]] for i in range(n)]
    count = {c: colors1.count(c) for c in colors1}
    order = sorted(range(n), key=lambda i: (count[colors1[i]], -g1.degree(i), i))
    mapping, used, nodes = [-1] * n, [False] * n, 0

    def backtrack(pos):
        nonlocal nodes
        if pos == n:
            return True
        i = order[pos]
        for j in candidates[i]:
            if used[j]:
                continue
            nodes += 1
            if nodes > budget:
                return None
            if all(g1.is_edge(i, p) == g2.is_edge(j, mapping[p]) for p in order[:pos]):
                mapping[i], used[j] = j, True
                result = backtrack(pos + 1)
                if result:
                    return True
                mapping[i], used[j] = -1, False
                if result is None:
                    return None
        return False

    result = backtrack(0)
    outcome = {True: ISOMORPHIC, False: NOT_ISOMORPHIC, None: INCONCLUSIVE}[result]
    return outcome, tuple(mapping) if result else None, nodes


def edge_switched(n, edges):
    """``edges`` after one degree-preserving switch ab, cd -> ad, cb."""
    edges = set(edges)
    for (a, b), (c, d) in itertools.permutations(sorted(edges), 2):
        new = {tuple(sorted((a, d))), tuple(sorted((c, b)))}
        if len({a, b, c, d}) == 4 and not new & edges:
            return raw_graph(n, (edges - {(a, b), (c, d)}) | new)
    return raw_graph(n, edges)


def test_explicit_stack_search_matches_recursive_reference():
    rng = random.Random("iso-stack")
    k33 = raw_graph(6, [(i, j) for i in (0, 1, 2) for j in (3, 4, 5)])
    prism = raw_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                          (0, 3), (1, 4), (2, 5)])
    pairs = [(k33, prism, budget) for budget in (5, 200_000)]
    for n in (3, 4):  # expanded graphs: twin classes give many equal colours
        g = build_graph(unit_space(n), GraphKind.COMAXIMAL, "expanded", alphabet=3)
        perm = list(range(g.n_vertices))
        rng.shuffle(perm)
        relabeled = raw_graph(g.n_vertices, [(perm[i], perm[j]) for i, j in g.edges()])
        pairs += [(g, g, 200_000), (g, relabeled, 200_000), (g, relabeled, 10)]
    for trial in range(60):
        n = rng.randint(4, 9)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.45]
        perm = list(range(n))
        rng.shuffle(perm)
        g2 = (raw_graph(n, [(perm[i], perm[j]) for i, j in edges]) if trial % 2
              else edge_switched(n, edges))
        pairs.append((raw_graph(n, edges), g2, rng.choice([3, 20, 200_000])))
    searched = set()
    for g1, g2, budget in pairs:
        verdict = are_isomorphic(g1, g2, budget=budget)
        if verdict.certificate and verdict.certificate["kind"] != "exhausted-search":
            continue  # refuted by an invariant before any search
        searched.add(verdict.outcome)
        want = recursive_backtrack(g1, g2, budget)
        assert (verdict.outcome, verdict.mapping, verdict.nodes_explored) == want
    assert searched == {ISOMORPHIC, NOT_ISOMORPHIC, INCONCLUSIVE}


def palette_wl_colors(g1, g2, ecc1, ecc2):
    """Joint 1-dimensional Weisfeiler-Leman refinement with one palette dict
    per round, filled over g1's vertices and then g2's (slow reference)."""
    colors1 = [(g1.degree(i), ecc1[i]) for i in range(g1.n_vertices)]
    colors2 = [(g2.degree(i), ecc2[i]) for i in range(g2.n_vertices)]
    while True:
        palette: dict = {}

        def recolor(g, colors):
            out = []
            for i in range(g.n_vertices):
                signature = (colors[i], tuple(sorted(colors[j] for j in range(g.n_vertices)
                                                     if g.is_edge(i, j))))
                out.append(palette.setdefault(signature, len(palette)))
            return out

        new1, new2 = recolor(g1, colors1), recolor(g2, colors2)
        stable = len(set(new1) | set(new2)) == len(set(colors1) | set(colors2))
        colors1, colors2 = new1, new2
        if stable:
            return colors1, colors2


def test_wl_colors_match_palette_reference():
    from mrfgraph.graph_metrics import metrics
    from mrfgraph.isomorphism import _wl_colors

    pairs = [zd_comaximal(n, "expanded", k) for n in (2, 3, 4) for k in (2, 3)]
    rng = random.Random("wl-colors")
    for trial in range(40):
        n = rng.randint(1, 10)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        perm = list(range(n))
        rng.shuffle(perm)
        g2 = (raw_graph(n, [(perm[i], perm[j]) for i, j in edges]) if trial % 2
              else edge_switched(n, edges))
        pairs.append((raw_graph(n, edges), g2))
    for g1, g2 in pairs:
        ecc1, ecc2 = metrics(g1).eccentricity, metrics(g2).eccentricity
        assert _wl_colors(g1, g2, ecc1, ecc2) == palette_wl_colors(g1, g2, ecc1, ecc2)


def test_isomorphism_search_needs_no_recursion_depth():
    # K_{560,560}: two twin classes, 1,120 vertices, one search position each
    n = 1120
    g = raw_graph(n, [(i, j) for i in range(0, n, 2) for j in range(1, n, 2)])
    verdict = are_isomorphic(g, g)
    assert verdict.is_isomorphic
    assert verdict.mapping == tuple(range(n))
    assert verdict.nodes_explored == n
