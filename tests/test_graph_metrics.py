"""Metric computations cross-validated against networkx and brute force."""

import itertools
import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrfgraph.graph_build import Graph, GraphKind, build_graph
from mrfgraph.graph_metrics import (
    BoundExceededError,
    annihilator_common_neighbor_zero_set,
    comaximal_triangle_zero_sets,
    complementation_profile,
    cycle_rank,
    metrics,
    np_metrics,
    partiteness,
    triangle_profile,
)
from mrfgraph.measure_space import atom_set, complement, intersect, is_atom, is_null, unit_space
from mrfgraph.vertex_universe import ZClass, sample_interval_classes

INF = math.inf


def to_nx(g: Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(g.n_vertices))
    out.add_edges_from(g.edges())
    return out


def raw_graph(n: int, edges) -> Graph:
    """Bare graph for solver tests; payloads are placeholders."""
    rows = [0] * n
    for i, j in edges:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    space = unit_space(max(n, 2))
    payload = tuple(ZClass(atom_set([0])) for _ in range(n))
    zero_sets = tuple(p.zero_set for p in payload)
    return Graph(GraphKind.COMAXIMAL, "quotient", None, space, payload, zero_sets, tuple(rows))


@st.composite
def random_graphs(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]
    return raw_graph(n, edges)


# -- distances / eccentricity / girth ----------------------------------------

def test_distance_example_quotient_n3():
    g = build_graph(unit_space(3), GraphKind.COMAXIMAL, "quotient")
    summary = metrics(g)
    idx = {g.zero_sets[i].atoms: i for i in range(g.n_vertices)}
    i, j = idx[frozenset({1, 2})], idx[frozenset({0, 2})]
    assert summary.distances[i][j] == 3


def test_k22_diameter_and_girth():
    g = build_graph(unit_space(2), GraphKind.COMAXIMAL, "expanded", alphabet=3)
    summary = metrics(g)
    assert summary.diameter == 2
    assert summary.girth == 4


def test_annihilator_eccentricity_all_two():
    g = build_graph(unit_space(3), GraphKind.ANNIHILATOR, "expanded", alphabet=3)
    summary = metrics(g)
    assert set(summary.eccentricity) == {2}


def test_quotient_k2_has_infinite_girth():
    g = build_graph(unit_space(2), GraphKind.COMAXIMAL, "quotient")
    summary = metrics(g)
    assert summary.girth == INF


def test_metrics_empty_graph_rejected():
    g = build_graph(unit_space(1), GraphKind.COMAXIMAL, "quotient")
    with pytest.raises(ValueError):
        metrics(g)


@settings(max_examples=60)
@given(random_graphs())
def test_metrics_match_networkx(g):
    summary = metrics(g)
    h = to_nx(g)
    if nx.is_connected(h):
        ecc = nx.eccentricity(h)
        assert list(summary.eccentricity) == [ecc[i] for i in range(g.n_vertices)]
        assert summary.diameter == nx.diameter(h)
        assert summary.connected
    else:
        assert not summary.connected
        assert summary.diameter == INF
    girth = nx.girth(h)
    assert summary.girth == (INF if girth == math.inf else girth)


@settings(max_examples=40)
@given(random_graphs())
def test_triangle_flags_match_brute_force(g):
    profile = triangle_profile(g)
    h = to_nx(g)
    triangles = [set(t) for t in nx.enumerate_all_cliques(h) if len(t) == 3]
    for i in range(g.n_vertices):
        assert profile.vertex_flags[i] == any(i in t for t in triangles)
    assert [e for e, _ in profile.edge_flags] == list(g.edges())
    for (i, j), flag in profile.edge_flags:
        assert flag == any(i in t and j in t for t in triangles)


# -- cycle rank ---------------------------------------------------------------

def brute_cycle_rank(g: Graph, u: int, v: int, cap: int = 8) -> float:
    """Exhaustive simple-cycle enumeration by permutations (small graphs)."""
    best = INF
    others = [x for x in range(g.n_vertices) if x not in (u, v)]
    for extra in range(1, min(cap - 2, len(others)) + 1):
        for subset in itertools.combinations(others, extra):
            for perm in itertools.permutations((v, *subset)):
                cycle = [u, *perm]
                length = len(cycle)
                if length < 3 or length >= best:
                    continue
                if all(g.is_edge(cycle[i], cycle[(i + 1) % length]) for i in range(length)):
                    best = length
    return best


def test_cycle_rank_examples():
    gq = build_graph(unit_space(3), GraphKind.COMAXIMAL, "quotient")
    idx = {gq.zero_sets[i].atoms: i for i in range(gq.n_vertices)}
    assert cycle_rank(gq, idx[frozenset({0})], idx[frozenset({1})]) == 3

    ge = build_graph(unit_space(3), GraphKind.COMAXIMAL, "expanded", alphabet=3)
    idx_e = {}
    for i, zs in enumerate(ge.zero_sets):
        idx_e.setdefault(zs.atoms, []).append(i)
    a = idx_e[frozenset({0})][0]
    b = idx_e[frozenset({0, 1})][0]
    assert cycle_rank(ge, a, b) == 4  # zero sets meet, cozero sets meet
    c = idx_e[frozenset({0, 1})][0]
    d = idx_e[frozenset({1, 2})][0]
    assert cycle_rank(ge, c, d) == 6  # zero sets meet, cozero sets almost disjoint
    e = idx_e[frozenset({1, 2})][0]
    assert cycle_rank(ge, a, e) == 4  # adjacent orthogonal pair: square via doubles


def test_cycle_rank_no_cycle_is_infinite():
    g = build_graph(unit_space(2), GraphKind.COMAXIMAL, "quotient")
    assert cycle_rank(g, 0, 1) == INF


def test_cycle_rank_validation():
    g = build_graph(unit_space(2), GraphKind.COMAXIMAL, "quotient")
    with pytest.raises(ValueError):
        cycle_rank(g, 0, 0)
    with pytest.raises(ValueError):
        cycle_rank(g, 0, 1, max_len=2)


@settings(max_examples=25, deadline=None)
@given(random_graphs(max_n=6), st.data())
def test_cycle_rank_matches_brute_force(g, data):
    if g.n_vertices < 2:
        return
    u = data.draw(st.integers(0, g.n_vertices - 1))
    v = data.draw(st.integers(0, g.n_vertices - 1))
    if u == v:
        return
    assert cycle_rank(g, u, v, max_len=6) == brute_cycle_rank(g, u, v, cap=6)


# -- triangle profile ---------------------------------------------------------

def test_triangle_profile_atomic_rules():
    space = unit_space(3)
    g = build_graph(space, GraphKind.COMAXIMAL, "expanded", alphabet=3)
    profile = triangle_profile(g)
    for i in range(g.n_vertices):
        want = not is_atom(space, complement(space, g.zero_sets[i]))
        assert profile.vertex_flags[i] == want
    assert not profile.is_triangulated
    assert not profile.is_hypertriangulated


def test_triangle_profile_edge_to_complement_class():
    space = unit_space(4)
    g = build_graph(space, GraphKind.COMAXIMAL, "expanded", alphabet=2)
    flags = dict(triangle_profile(g).edge_flags)
    for i in range(g.n_vertices):
        partner = complement(space, g.zero_sets[i])
        j = g.zero_sets.index(partner)
        key = (min(i, j), max(i, j))
        assert flags[key] is False


def test_interval_triangle_constructions():
    from mrfgraph.measure_space import IntervalSpace

    space = IntervalSpace()
    for zc in sample_interval_classes(11, 25):
        za, zb = comaximal_triangle_zero_sets(space, zc.zero_set)
        assert is_null(space, intersect(space, zc.zero_set, za))
        assert is_null(space, intersect(space, zc.zero_set, zb))
        assert is_null(space, intersect(space, za, zb))


def test_interval_annihilator_common_neighbor():
    from mrfgraph.graph_build import adjacent
    from mrfgraph.measure_space import IntervalSpace

    space = IntervalSpace()
    classes = sample_interval_classes(13, 30)
    found = 0
    for a in range(len(classes)):
        for b in range(a + 1, len(classes)):
            zu, zv = classes[a].zero_set, classes[b].zero_set
            if not adjacent(GraphKind.ANNIHILATOR, space, zu, zv):
                continue
            found += 1
            zh = annihilator_common_neighbor_zero_set(space, zu, zv)
            assert zh is not None
            assert adjacent(GraphKind.ANNIHILATOR, space, zu, zh)
            assert adjacent(GraphKind.ANNIHILATOR, space, zv, zh)
    assert found > 10


def test_sampled_profile_flags_full_graph():
    from mrfgraph.measure_space import IntervalSpace

    space = IntervalSpace()
    g = build_graph(space, GraphKind.COMAXIMAL, sample=sample_interval_classes(5, 15))
    profile = triangle_profile(g)
    assert profile.is_triangulated  # non-atomic measure
    ga = build_graph(space, GraphKind.ANNIHILATOR, sample=sample_interval_classes(5, 15))
    pa = triangle_profile(ga)
    assert pa.is_triangulated and pa.is_hypertriangulated


# -- complementation ----------------------------------------------------------

def test_comaximal_expanded_complemented():
    space = unit_space(3)
    g = build_graph(space, GraphKind.COMAXIMAL, "expanded", alphabet=3)
    profile = complementation_profile(g)
    assert profile.is_complemented and profile.is_uniquely_complemented
    pairs = set(profile.orthogonal_pairs)
    for i in range(g.n_vertices):
        j = g.zero_sets.index(complement(space, g.zero_sets[i]))
        assert (min(i, j), max(i, j)) in pairs


def test_annihilator_complemented_dichotomy():
    g3 = build_graph(unit_space(3), GraphKind.ANNIHILATOR, "quotient")
    p3 = complementation_profile(g3)
    assert p3.is_complemented and p3.is_uniquely_complemented
    g4 = build_graph(unit_space(4), GraphKind.ANNIHILATOR, "quotient")
    assert not complementation_profile(g4).is_complemented


# -- partiteness ---------------------------------------------------------------

def test_partiteness_k22():
    g = build_graph(unit_space(2), GraphKind.ANNIHILATOR, "expanded", alphabet=3)
    shape = partiteness(g)
    assert shape.is_bipartite and shape.is_complete_bipartite
    assert shape.multipartite_parts is not None
    assert sorted(len(p) for p in shape.multipartite_parts) == [2, 2]


def test_partiteness_weakly_n3():
    g = build_graph(unit_space(3), GraphKind.WEAKLY_ZD, "expanded", alphabet=3)
    shape = partiteness(g)
    assert not shape.is_bipartite
    assert shape.multipartite_parts is not None
    assert sorted(len(p) for p in shape.multipartite_parts) == [4, 4, 4]


def test_partiteness_quotient_n3_not_bipartite():
    g = build_graph(unit_space(3), GraphKind.COMAXIMAL, "quotient")
    shape = partiteness(g)
    assert not shape.is_bipartite
    assert shape.multipartite_parts is None


@settings(max_examples=40)
@given(random_graphs())
def test_bipartiteness_matches_networkx(g):
    assert partiteness(g).is_bipartite == nx.is_bipartite(to_nx(g))


# -- exact optimization parameters ---------------------------------------------

def brute_clique(g: Graph) -> int:
    best = 0
    for r in range(1, g.n_vertices + 1):
        for subset in itertools.combinations(range(g.n_vertices), r):
            if all(g.is_edge(i, j) for i, j in itertools.combinations(subset, 2)):
                best = max(best, r)
    return best


def brute_chromatic(g: Graph) -> int:
    n = g.n_vertices
    if n == 0:
        return 0
    for k in range(1, n + 1):
        for coloring in itertools.product(range(k), repeat=n):
            if all(coloring[i] != coloring[j] for i, j in g.edges()):
                return k
    return n


def brute_dominating(g: Graph, total: bool = False) -> float:
    n = g.n_vertices
    for r in range(1, n + 1):
        for subset in itertools.combinations(range(n), r):
            chosen = set(subset)
            ok = True
            for v in range(n):
                if not total and v in chosen:
                    continue
                if not any(g.is_edge(v, c) for c in chosen):
                    ok = False
                    break
            if ok:
                return r
    return INF


def test_np_metrics_examples():
    gq = build_graph(unit_space(3), GraphKind.COMAXIMAL, "quotient")
    values = np_metrics(gq, ("clique", "chromatic"))
    assert values["clique"][0] == 3
    assert values["chromatic"][0] == 3

    ga = build_graph(unit_space(3), GraphKind.ANNIHILATOR, "expanded", alphabet=3)
    dom = np_metrics(ga, ("dominating", "total_dominating"), dominating_bound=64)
    assert dom["dominating"][0] == 2
    assert dom["total_dominating"][0] == 2

    gw = build_graph(unit_space(3), GraphKind.WEAKLY_ZD, "expanded", alphabet=3)
    vw = np_metrics(gw, ("clique", "chromatic", "dominating"), dominating_bound=64)
    assert vw["clique"][0] == 3 and vw["chromatic"][0] == 3 and vw["dominating"][0] == 2


def test_np_metrics_witnesses_are_valid():
    g = build_graph(unit_space(3), GraphKind.COMAXIMAL, "expanded", alphabet=3)
    values = np_metrics(g, ("clique", "chromatic", "dominating", "total_dominating"),
                        dominating_bound=64)
    size, clique = values["clique"]
    assert len(clique) == size
    assert all(g.is_edge(i, j) for i, j in itertools.combinations(clique, 2))
    chi, coloring = values["chromatic"]
    assert len(set(coloring)) <= chi
    assert all(coloring[i] != coloring[j] for i, j in g.edges())
    dt, dom = values["dominating"]
    assert len(dom) == dt
    assert all(v in dom or any(g.is_edge(v, c) for c in dom) for v in range(g.n_vertices))
    dtt, tdom = values["total_dominating"]
    assert len(tdom) == dtt
    assert all(any(g.is_edge(v, c) for c in tdom) for v in range(g.n_vertices))


@settings(max_examples=30, deadline=None)
@given(random_graphs(max_n=7))
def test_solvers_match_brute_force(g):
    if g.n_vertices == 0:
        return
    values = np_metrics(g, ("clique", "chromatic", "dominating", "total_dominating"),
                        dominating_bound=64)
    assert values["clique"][0] == brute_clique(g)
    assert values["chromatic"][0] == brute_chromatic(g)
    assert values["dominating"][0] == brute_dominating(g)
    assert values["total_dominating"][0] == brute_dominating(g, total=True)


def test_np_metrics_bound_guard():
    g = build_graph(unit_space(4), GraphKind.COMAXIMAL, "expanded", alphabet=3)
    with pytest.raises(BoundExceededError):
        np_metrics(g, ("dominating",), dominating_bound=24)
    with pytest.raises(ValueError):
        np_metrics(g, ("spectral_radius",))
