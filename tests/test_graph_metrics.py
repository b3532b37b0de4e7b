"""Metric computations cross-validated against networkx and brute force."""

import itertools
import math
import random
from operator import or_

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrfgraph.checks import _cell_pairs
from mrfgraph.graph_build import Graph, GraphKind, build_graph, zero_set_classes
from mrfgraph.graph_metrics import (
    BoundExceededError,
    _depth_first,
    _dsatur,
    _levels,
    _max_clique,
    _min_dominating,
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
    classes = zero_set_classes([p.zero_set for p in payload])
    return Graph(GraphKind.COMAXIMAL, "quotient", None, space, payload, classes, tuple(rows))


@st.composite
def random_graphs(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]
    return raw_graph(n, edges)


# -- distances / eccentricity / girth ----------------------------------------

def test_distance_example_quotient_n3():
    g = build_graph(unit_space(3), GraphKind.COMAXIMAL, "quotient")
    summary = metrics(g)
    idx = {z: i for i, z in enumerate(g.zero_sets)}
    i, j = idx[atom_set({1, 2})], idx[atom_set({0, 2})]
    assert summary.distance(i, j) == 3


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
    for i in range(g.n_vertices):
        lengths = nx.shortest_path_length(h, i)
        assert [summary.distance(i, j) for j in range(g.n_vertices)] == \
            [lengths.get(j, INF) for j in range(g.n_vertices)]
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


@pytest.mark.parametrize("kind", list(GraphKind))
def test_expanded_metrics_match_networkx(kind):
    g = build_graph(unit_space(4), kind, "expanded", alphabet=3)
    summary = metrics(g)
    h = to_nx(g)
    ecc = []
    for i in range(g.n_vertices):
        lengths = nx.shortest_path_length(h, i)
        ecc.append(max(lengths.values()) if len(lengths) == g.n_vertices else INF)
    assert list(summary.eccentricity) == ecc
    assert summary.girth == nx.girth(h)
    assert partiteness(g).is_bipartite == nx.is_bipartite(h)


@settings(max_examples=40)
@given(random_graphs())
def test_triangle_flags_match_brute_force(g):
    profile = triangle_profile(g)
    h = to_nx(g)
    triangles = [set(t) for t in nx.enumerate_all_cliques(h) if len(t) == 3]
    for i in range(g.n_vertices):
        assert profile.vertex_flags[i] == any(i in t for t in triangles)
    for i in range(g.n_vertices):
        for j in range(i + 1, g.n_vertices):
            want = g.is_edge(i, j) and any(i in t and j in t for t in triangles)
            assert profile.edge_flag(i, j) == want


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


def recursive_cycle_rank(g: Graph, u: int, v: int, max_len: int = 8) -> float:
    """The former ``cycle_rank``: lists every u-v path of the shorter side by
    a recursive search, then looks for a disjoint longer side, with the
    pruning ball taken in the whole graph."""
    ball = list(itertools.accumulate(_levels(g.adj, v)[0], or_))
    ball += [ball[-1]] * (max_len - len(ball))

    def paths(length: int, banned: int, first: bool) -> list[int]:
        results: list[int] = []

        def dfs(x: int, steps: int, internal: int) -> bool:
            row = g.adj[x] & ~banned & ~internal & ~(1 << u)
            if steps == 1:
                if row >> v & 1:
                    results.append(internal)
                    return first
                return False
            row &= ball[steps - 1] & ~(1 << v)
            while row:
                bit = row & -row
                row ^= bit
                if dfs(bit.bit_length() - 1, steps - 1, internal | bit):
                    return True
            return False

        if ball[length] >> u & 1:
            dfs(u, length, 0)
        return results

    path_cache: dict[int, list[int]] = {}
    for total in range(3, max_len + 1):
        for a in range(1, total // 2 + 1):
            if a not in path_cache:
                path_cache[a] = paths(a, 0, False)
            if any(paths(total - a, internal, True) for internal in path_cache[a]):
                return total
    return INF


def test_cycle_rank_examples():
    gq = build_graph(unit_space(3), GraphKind.COMAXIMAL, "quotient")
    idx = {z: i for i, z in enumerate(gq.zero_sets)}
    assert cycle_rank(gq, idx[atom_set({0})], idx[atom_set({1})]) == 3

    ge = build_graph(unit_space(3), GraphKind.COMAXIMAL, "expanded", alphabet=3)
    idx_e = {}
    for i, zs in enumerate(ge.zero_sets):
        idx_e.setdefault(zs, []).append(i)
    a = idx_e[atom_set({0})][0]
    b = idx_e[atom_set({0, 1})][0]
    assert cycle_rank(ge, a, b) == 4  # zero sets meet, cozero sets meet
    c = idx_e[atom_set({0, 1})][0]
    d = idx_e[atom_set({1, 2})][0]
    assert cycle_rank(ge, c, d) == 6  # zero sets meet, cozero sets almost disjoint
    e = idx_e[atom_set({1, 2})][0]
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
    g3 = build_graph(unit_space(3), GraphKind.COMAXIMAL, "quotient")
    assert g3.n_vertices == 6
    for u, v in ((99, 0), (0, 99), (-1, 0)):
        with pytest.raises(ValueError):
            cycle_rank(g3, u, v)


def test_cycle_rank_long_cycle_has_no_depth_limit():
    """On C_1500 the one cycle through two neighbours has 1500 edges: the
    search walks 1499 of them in one path, and a cap one short finds none."""
    n = 1500
    g = raw_graph(n, [(i, (i + 1) % n) for i in range(n)])
    assert cycle_rank(g, 0, 1, max_len=n) == n
    assert cycle_rank(g, 0, 1, max_len=n - 1) == INF


@pytest.mark.parametrize("kind", [GraphKind.COMAXIMAL, GraphKind.ANNIHILATOR])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cycle_rank_matches_recursive_search_on_cell_pairs(kind, n):
    g = build_graph(unit_space(n), kind, "expanded", alphabet=3)
    for i, j, *_ in _cell_pairs(g):
        assert cycle_rank(g, i, j) == recursive_cycle_rank(g, i, j), (i, j)


@settings(max_examples=40, deadline=None)
@given(random_graphs(), st.data())
def test_cycle_rank_matches_recursive_search(g, data):
    if g.n_vertices < 2:
        return
    u, v = data.draw(st.lists(st.integers(0, g.n_vertices - 1), min_size=2, max_size=2,
                              unique=True))
    assert cycle_rank(g, u, v, max_len=8) == recursive_cycle_rank(g, u, v, max_len=8)


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
    profile = triangle_profile(g)
    flags = {(i, j): profile.edge_flag(i, j) for i, j in g.edges()}
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


@pytest.mark.parametrize("space,zu,zv,want", [
    ("interval", "[0,1/2)", "[1/4,1)", "[0,1/4)+[1/2,1)"),   # zero sets meet
    ("interval", "[0,1/2)", "[1/2,1)", "[1/4,1/2)+[3/4,1)"),  # orthogonal, split both
    (4, "{0,1}", "{2,3}", "{1,3}"),
    (3, "{0}", "{1,2}", None),                               # orthogonal to an atom
], ids=["interval-meet", "interval-split", "atomic-split", "atomic-atom"])
def test_annihilator_common_neighbor_cover_cases(space, zu, zv, want):
    """Pairs whose cozero sets cover the space, which sampled sets never do."""
    from mrfgraph.graph_build import adjacent
    from mrfgraph.measure_space import IntervalSpace, parse_set
    from mrfgraph.vertex_universe import zclass

    space = IntervalSpace() if space == "interval" else unit_space(space)
    zu, zv = parse_set(zu), parse_set(zv)
    zh = annihilator_common_neighbor_zero_set(space, zu, zv)
    if want is None:
        assert zh is None
        return
    assert zh == parse_set(want)
    zclass(space, zh)
    assert adjacent(GraphKind.ANNIHILATOR, space, zu, zh)
    assert adjacent(GraphKind.ANNIHILATOR, space, zv, zh)


# -- complementation ----------------------------------------------------------

def test_comaximal_expanded_complemented():
    space = unit_space(3)
    g = build_graph(space, GraphKind.COMAXIMAL, "expanded", alphabet=3)
    profile = complementation_profile(g)
    assert profile.is_complemented and profile.is_uniquely_complemented
    for i in range(g.n_vertices):
        j = g.zero_sets.index(complement(space, g.zero_sets[i]))
        assert profile.is_orthogonal(i, j) and profile.is_orthogonal(j, i)


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


def test_np_metrics_bound_messages():
    g = build_graph(unit_space(3), GraphKind.COMAXIMAL, "expanded", alphabet=3)
    n = g.n_vertices
    for name, label, key in (("clique", "clique", "clique_bound"),
                             ("chromatic", "chromatic", "chromatic_bound"),
                             ("dominating", "dominating", "dominating_bound"),
                             ("total_dominating", "dominating", "dominating_bound")):
        with pytest.raises(BoundExceededError) as exc:
            np_metrics(g, (name,), **{key: n - 1})
        assert str(exc.value) == f"{n} vertices exceed {label} bound {n - 1}"
        assert name in np_metrics(g, (name,), **{key: n})
    with pytest.raises(BoundExceededError, match="exceed clique bound"):
        np_metrics(g, ("clique", "chromatic"), clique_bound=n - 1, chromatic_bound=n - 1)
    with pytest.raises(BoundExceededError, match="exceed chromatic bound"):
        np_metrics(g, ("chromatic", "clique"), clique_bound=n - 1, chromatic_bound=n - 1)


def test_depth_first_walks_a_deep_chain_to_the_end():
    """A chain of 10,000 nested nodes, far past the recursion limit: each
    node is entered and then resumed once its child is done, deepest first,
    and with no node yielding ``True`` the search returns False."""
    entered, finished = [], []

    def chain(depth):
        entered.append(depth)
        if depth < 10_000:
            yield chain(depth + 1)
        finished.append(depth)

    assert _depth_first(chain(1)) is False
    assert entered == list(range(1, 10_001))
    assert finished == list(range(10_000, 0, -1))


def test_depth_first_ends_at_the_first_true():
    """A node at depth 5,000 yields ``True``: the search returns True at
    once, and no node on the path to it is resumed."""
    resumed = []

    def chain(depth):
        yield True if depth == 5_000 else chain(depth + 1)
        resumed.append(depth)

    assert _depth_first(chain(1)) is True
    assert resumed == []


def test_chromatic_needs_no_recursion_depth():
    n = 3000
    path = raw_graph(n, [(i, i + 1) for i in range(n - 1)])
    chi, coloring = np_metrics(path, ("chromatic",), chromatic_bound=n)["chromatic"]
    assert chi == 2
    assert all(coloring[i] != coloring[i + 1] for i in range(n - 1))
    for n in (1, 2, 39):
        assert np_metrics(raw_graph(n, []), ("chromatic",))["chromatic"] == (1, [0] * n)


def recursive_max_clique(rows, n):
    """The recursive branch and bound the explicit stack replaced (slow
    reference): the same greedy-colouring order and bound."""
    best: list[int] = []

    def color_order(p_mask):
        order, bounds, color, uncolored = [], [], 0, p_mask
        while uncolored:
            color += 1
            q = uncolored
            while q:
                bit = q & -q
                v = bit.bit_length() - 1
                q &= ~(rows[v] | bit)
                uncolored ^= bit
                order.append(v)
                bounds.append(color)
        return order, bounds

    def expand(r, p_mask):
        nonlocal best
        order, bounds = color_order(p_mask)
        for idx in range(len(order) - 1, -1, -1):
            if len(r) + bounds[idx] <= len(best):
                return
            v = order[idx]
            r.append(v)
            if p_mask & rows[v]:
                expand(r, p_mask & rows[v])
            elif len(r) > len(best):
                best = r[:]
            r.pop()
            p_mask &= ~(1 << v)

    expand([], (1 << n) - 1)
    return len(best), sorted(best)


def test_max_clique_matches_recursive_reference():
    rng = random.Random("clique-stack")
    for _ in range(80):
        n = rng.randint(1, 24)
        rows = random_rows(rng, n, rng.choice([0.2, 0.5, 0.8]))
        assert _max_clique(rows, n) == recursive_max_clique(rows, n)


def test_max_clique_needs_no_recursion_depth():
    n = 1100
    full = (1 << n) - 1
    rows = tuple(full ^ (1 << v) for v in range(n))
    assert _max_clique(rows, n) == (n, list(range(n)))


def recursive_min_dominating(rows, n, total):
    """The recursive iterative-deepening search the explicit stack replaced
    (slow reference): the same branching vertex and option order."""
    full = (1 << n) - 1
    cover = [rows[i] | (0 if total else 1 << i) for i in range(n)]
    if any(c == 0 for c in cover):
        return INF, []
    max_cover = max(c.bit_count() for c in cover)

    def dfs(chosen, covered, remaining):
        if covered == full:
            return chosen[:]
        if remaining == 0:
            return None
        uncovered = full & ~covered
        if uncovered.bit_count() > remaining * max_cover:
            return None
        u_dom, best_count = 0, n + 1
        for i in range(n):
            if uncovered >> i & 1 and cover[i].bit_count() < best_count:
                best_count, u_dom = cover[i].bit_count(), cover[i]
        for v in range(n):
            if u_dom >> v & 1:
                chosen.append(v)
                result = dfs(chosen, covered | cover[v], remaining - 1)
                if result is not None:
                    return result
                chosen.pop()
        return None

    for size in range(1, n + 1):
        result = dfs([], 0, size)
        if result is not None:
            return len(result), sorted(result)
    return INF, []


def dominating_cases():
    for n in range(2, 6):
        space = unit_space(n)
        for kind in GraphKind:
            yield build_graph(space, kind, "quotient").adj
            for k in (2, 3):
                yield build_graph(space, kind, "expanded", alphabet=k).adj
    rng = random.Random("dominating-stack")
    for _ in range(200):
        yield random_rows(rng, rng.randint(1, 24), rng.choice([0.1, 0.3, 0.6]))


def test_min_dominating_matches_recursive_reference():
    """Value and witness, both variants, on every atomic graph with n <= 5
    (quotient, and expanded at k = 2, 3) and on random graphs, some with an
    isolated vertex (no total dominating set)."""
    infinite = 0
    for rows in dominating_cases():
        n = len(rows)
        for total in (False, True):
            want = recursive_min_dominating(rows, n, total)
            assert _min_dominating(rows, n, total) == want
            infinite += want[0] == INF
    assert infinite >= 10


def test_min_dominating_needs_no_recursion_depth():
    """A perfect matching on 2400 vertices needs 1200 dominators: one stack
    frame per chosen vertex, far past the recursion limit."""
    n = 2400
    rows = tuple(1 << (v ^ 1) for v in range(n))
    size, witness = _min_dominating(rows, n, total=False)
    assert size == n // 2 and witness == list(range(0, n, 2))


# -- the two DSATUR colourers the single search replaced (slow reference) --------

def reference_greedy_coloring(rows, n):
    """DSATUR-style greedy proper coloring (upper bound)."""
    colors = [-1] * n
    neighbor_colors: list[set[int]] = [set() for _ in range(n)]
    for _ in range(n):
        u = max((i for i in range(n) if colors[i] == -1),
                key=lambda i: (len(neighbor_colors[i]), rows[i].bit_count(), -i))
        c = 0
        while c in neighbor_colors[u]:
            c += 1
        colors[u] = c
        row = rows[u]
        while row:
            bit = row & -row
            row ^= bit
            neighbor_colors[bit.bit_length() - 1].add(c)
    return colors


def reference_try_color(rows, n, k, preset):
    """Backtracking k-coloring with the clique preset as symmetry breaking."""
    colors = preset[:]
    uncolored = [i for i in range(n) if colors[i] == -1]

    def saturation(i: int) -> int:
        row = rows[i]
        used = set()
        while row:
            bit = row & -row
            row ^= bit
            c = colors[bit.bit_length() - 1]
            if c != -1:
                used.add(c)
        return len(used)

    def dfs() -> bool:
        pending = [i for i in uncolored if colors[i] == -1]
        if not pending:
            return True
        u = max(pending, key=lambda i: (saturation(i), rows[i].bit_count(), -i))
        forbidden = set()
        row = rows[u]
        while row:
            bit = row & -row
            row ^= bit
            c = colors[bit.bit_length() - 1]
            if c != -1:
                forbidden.add(c)
        used_max = max((c for c in colors if c != -1), default=-1)
        for c in range(min(k, used_max + 2)):
            if c in forbidden:
                continue
            colors[u] = c
            if dfs():
                return True
            colors[u] = -1
        return False

    return colors if dfs() else None


def random_rows(rng, n, p):
    rows = [0] * n
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < p:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return tuple(rows)


def coloring_cases():
    for n in range(2, 6):
        space = unit_space(n)
        for kind in GraphKind:
            yield build_graph(space, kind, "quotient").adj
            for k in (2, 3):
                yield build_graph(space, kind, "expanded", alphabet=k).adj
    rng = random.Random(20261018)
    for _ in range(320):
        yield random_rows(rng, rng.randint(1, 24), rng.random())


def test_dsatur_matches_both_reference_colourers():
    refuted = 0
    for rows in coloring_cases():
        n = len(rows)
        greedy = _dsatur(rows, n, n, [-1] * n)
        assert greedy == reference_greedy_coloring(rows, n)
        size, clique = _max_clique(rows, n)
        preset = [-1] * n
        for c, v in enumerate(clique):
            preset[v] = c
        for k in range(size, max(greedy) + 2):
            result = _dsatur(rows, n, k, preset)
            assert result == reference_try_color(rows, n, k, preset)
            refuted += result is None
    assert refuted >= 20  # searches that backtracked to exhaustion


# -- complete multipartiteness against the definition --------------------------

def brute_multipartite_parts(g: Graph):
    """Parts when 'equal or non-adjacent' is an equivalence relation whose
    classes are independent and pairwise fully joined, else None."""
    n = g.n_vertices
    same = [[i == j or not g.is_edge(i, j) for j in range(n)] for i in range(n)]
    if any(same[i][j] and same[j][l] and not same[i][l]
           for i in range(n) for j in range(n) for l in range(n)):
        return None
    parts = []
    for i in range(n):
        if not any(i in p for p in parts):
            parts.append(tuple(j for j in range(n) if same[i][j]))
    for a, b in itertools.combinations(parts, 2):
        assert all(g.is_edge(i, j) for i in a for j in b)
    return tuple(parts)


def brute_complete_bipartite(g: Graph) -> bool:
    """Whether the vertices split into two nonempty independent sets with
    every cross pair joined.  Vertex 0's side is forced: the other side is
    its neighbourhood."""
    n = g.n_vertices
    right = [g.is_edge(0, j) for j in range(n)]
    return any(right) and all(g.is_edge(i, j) == (right[i] != right[j])
                              for i in range(n) for j in range(n) if i != j)


def planted_multipartite(rng, sizes):
    n = sum(sizes)
    labels = list(range(n))
    rng.shuffle(labels)
    part_of = {}
    start = 0
    for p, size in enumerate(sizes):
        for v in labels[start:start + size]:
            part_of[v] = p
        start += size
    edges = [(i, j) for i, j in itertools.combinations(range(n), 2) if part_of[i] != part_of[j]]
    return edges, n


def test_multipartite_parts_match_brute_force():
    rng = random.Random(7)
    complete_bipartite = 0
    for trial in range(240):
        if trial % 2:
            sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 5))]
            edges, n = planted_multipartite(rng, sizes)
            if trial % 4 == 3 and edges:
                edges.remove(rng.choice(edges))  # one missing cross edge breaks it
            g = raw_graph(n, edges)
        else:
            n = rng.randint(1, 9)
            g = raw_graph(n, [(i, j) for i, j in itertools.combinations(range(n), 2)
                              if rng.random() < 0.7])
        want = brute_multipartite_parts(g)
        shape = partiteness(g)
        assert shape.multipartite_parts == want
        assert shape.is_complete_bipartite == brute_complete_bipartite(g)
        complete_bipartite += shape.is_complete_bipartite
        if trial % 4 == 1:
            assert want is not None and len(want) == len(sizes)
    assert complete_bipartite >= 5
