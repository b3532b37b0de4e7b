"""Twin-class sourcing against the full per-source, per-pair and per-edge
reference.

Vertices with identical adjacency rows are false twins, and swapping two of
them is an automorphism.  ``metrics``, ``triangle_profile`` and
``complementation_profile`` therefore work once per twin class or ordered
pair of twin classes (``Graph.twins``), and the rule checks compare once per
cell pair of the common refinement of zero-set and twin classes.  The slow
reference here searches from every vertex, for every vertex pair and over
every edge, as the library did before.  The memoised ``oracle_adjacent`` is
compared with the per-pair reference in test_graph_build."""

import dataclasses
import json
import math
import random
from functools import cache, partial

import pytest

from mrfgraph import checks, graph_metrics
from mrfgraph.checks import (
    _pair_mismatches,
    expected_annihilator_cycle,
    expected_comaximal_cycle,
    expected_comaximal_distance,
    orthogonal_annihilator,
    orthogonal_comaximal,
)
from mrfgraph.cli import main
from mrfgraph.graph_build import Graph, GraphKind, build_graph, zero_set_classes
from mrfgraph.graph_metrics import (
    SOLVERS,
    Partiteness,
    _levels,
    _members,
    complementation_profile,
    cycle_rank,
    metrics,
    np_metrics,
    partiteness,
    triangle_profile,
)
from mrfgraph.harness import REGISTRY, RunContext, SuiteConfig
from mrfgraph.measure_space import IntervalSpace, atom_set, null_equal, unit_space
from mrfgraph.vertex_universe import ZClass, sample_interval_classes

INF = math.inf
MAX_LEN = 8


def reference_metrics(g: Graph):
    """One BFS per vertex: eccentricities, girth and every distance row."""
    n = g.n_vertices
    full = (1 << n) - 1
    ecc, rows, girth = [], [], INF
    for s in range(n):
        levels, reached, cycle = _levels(g.adj, s)
        ecc.append(len(levels) - 1 if reached == full else INF)
        girth = min(girth, cycle)
        row = [INF] * n
        for d, level in enumerate(levels):
            for x in _members(level):
                row[x] = d
        rows.append(row)
    return tuple(ecc), girth, rows


def reference_triangle_profile(g: Graph):
    """Triangle flags per vertex and per edge: (triangulated,
    hypertriangulated, vertex flags, {edge: flag})."""
    vertex_flags = tuple(any(g.adj[j] & g.adj[i] for j in _members(g.adj[i]))
                         for i in range(g.n_vertices))
    edge_flags = {(i, j): bool(g.adj[i] & g.adj[j]) for i, j in g.edges()}
    return (all(vertex_flags), bool(edge_flags) and all(edge_flags.values()),
            vertex_flags, edge_flags)


def reference_complementation_profile(g: Graph):
    """Orthogonal pairs over every edge, and uniqueness by comparing the rows
    of each vertex's partners: (pairs, has_complement, complemented,
    uniquely complemented)."""
    pairs = [(i, j) for i, j in g.edges() if not g.adj[i] & g.adj[j]]
    partners: list[list[int]] = [[] for _ in range(g.n_vertices)]
    for i, j in pairs:
        partners[i].append(j)
        partners[j].append(i)
    has = tuple(bool(p) for p in partners)
    complemented = all(has)
    unique = complemented and all(g.adj[q] == g.adj[p[0]] for p in partners for q in p)
    return tuple(pairs), has, complemented, unique


def reference_partiteness(g: Graph) -> Partiteness:
    """Bipartiteness by a BFS 2-colouring from every uncoloured vertex, and
    complete multipartiteness by brute force: each vertex joins the first
    part whose first member it is not adjacent to, and the parts must be
    independent sets joined to each other by every edge."""
    n = g.n_vertices
    colour: list[int | None] = [None] * n
    bipartite = True
    for s in range(n):
        if colour[s] is None:
            colour[s], queue = 0, [s]
            for x in queue:
                for y in _members(g.adj[x]):
                    if colour[y] is None:
                        colour[y] = 1 - colour[x]
                        queue.append(y)
                    bipartite = bipartite and colour[y] != colour[x]
    parts: list[list[int]] = []
    for v in range(n):
        part = next((p for p in parts if not g.is_edge(p[0], v)), None)
        if part is None:
            parts.append([v])
        else:
            part.append(v)
    joined = all(g.is_edge(i, j) == (a != b) for a, pa in enumerate(parts)
                 for b, pb in enumerate(parts) for i in pa for j in pb if i != j)
    return Partiteness(bipartite, joined and len(parts) == 2,
                       tuple(map(tuple, parts)) if joined else None)


def assert_profiles_match_reference(g: Graph) -> None:
    tri = triangle_profile(g)
    triangulated, hyper, vertex_flags, edge_flags = reference_triangle_profile(g)
    assert (tri.is_triangulated, tri.is_hypertriangulated) == (triangulated, hyper)
    assert tri.vertex_flags == vertex_flags
    for (i, j), flag in edge_flags.items():
        assert tri.edge_flag(i, j) == tri.edge_flag(j, i) == flag, (i, j)
    comp = complementation_profile(g)
    pairs, has, complemented, unique = reference_complementation_profile(g)
    assert (comp.has_complement, comp.is_complemented,
            comp.is_uniquely_complemented) == (has, complemented, unique)
    orthogonal = set(pairs)
    for i in range(g.n_vertices):
        for j in range(g.n_vertices):
            if i != j:
                assert comp.is_orthogonal(i, j) == ((min(i, j), max(i, j)) in orthogonal), (i, j)
    assert partiteness(g) == reference_partiteness(g)


def assert_matches_reference(g: Graph, ranks: bool = True) -> None:
    summary = metrics(g)
    ecc, girth, rows = reference_metrics(g)
    assert summary.eccentricity == ecc
    assert summary.diameter == max(ecc)
    assert summary.girth == girth
    for s, row in enumerate(rows):
        assert [summary.distance(s, x) for x in range(g.n_vertices)] == row, s
    assert_profiles_match_reference(g)
    if ranks:
        # swapping false twins keeps cycle_rank, as _pair_mismatches requires
        of, members = g.twins.of, g.twins.members
        at_firsts = cache(lambda a, b: cycle_rank(g, members[a][0], members[b][a == b], MAX_LEN))
        for i in range(g.n_vertices):
            for j in range(i + 1, g.n_vertices):
                assert cycle_rank(g, i, j, MAX_LEN) == at_firsts(of[i], of[j]), (i, j)


def atomic_graphs(n: int):
    space = unit_space(n)
    for kind in GraphKind:
        yield build_graph(space, kind, "quotient")
        for k in (2, 3):
            yield build_graph(space, kind, "expanded", alphabet=k)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_atomic_graphs_match_per_source_and_per_pair_reference(n):
    for g in atomic_graphs(n):
        assert_matches_reference(g)


@pytest.mark.parametrize("n", [5, 6])
def test_metrics_match_per_source_reference(n):
    for g in atomic_graphs(n):
        assert_matches_reference(g, ranks=False)


SAMPLED_KINDS = (GraphKind.COMAXIMAL, GraphKind.ZERO_DIVISOR, GraphKind.ANNIHILATOR)


def sampled_graphs(seed: int, size: int):
    sample = sample_interval_classes(seed, size)
    return [build_graph(IntervalSpace(), kind, sample=sample) for kind in SAMPLED_KINDS]


def test_sampled_profiles_match_reference():
    """Sampled graphs are profiled from their rows like any other graph; the
    full-graph statements are the interval checks'
    (``comaximal.sampled_triangulated``,
    ``comaximal.sampled_not_hypertriangulated``,
    ``annihilator.sampled_hypertriangulated``)."""
    for seed, size in ((7, 100), (7, 20), (1, 10)):
        for g in sampled_graphs(seed, size):
            assert_profiles_match_reference(g)


def test_cli_sampled_metrics_print_row_flags(capsys):
    assert main(["metrics", "--backend", "interval", "--kind", "comaximal"]) == 0
    doc = json.loads(capsys.readouterr().out)
    g = build_graph(IntervalSpace(), GraphKind.COMAXIMAL, sample=sample_interval_classes(7, 100))
    triangulated, hyper, _, _ = reference_triangle_profile(g)
    assert (doc["vertices"], doc["edges"]) == (g.n_vertices, g.n_edges())
    assert (doc["triangulated"], doc["hypertriangulated"]) == (triangulated, hyper)
    assert not hyper


def test_metrics_read_rows_only():
    """Every function of ``graph_metrics`` that takes a graph answers the
    same with its vertex payloads, zero-set classes and space taken away."""
    for g in (*atomic_graphs(3), *sampled_graphs(7, 20)):
        bare = dataclasses.replace(g, vertices=(None,) * g.n_vertices, classes=None, space=None)
        last = g.n_vertices - 1
        for fn in (triangle_profile, complementation_profile, partiteness,
                   partial(np_metrics, which=tuple(SOLVERS)),
                   partial(cycle_rank, u=0, v=1), partial(cycle_rank, u=0, v=last)):
            assert fn(bare) == fn(g), (g.name(), fn)
        summary, bare_summary = metrics(g), metrics(bare)
        assert bare_summary == summary, g.name()
        assert all(bare_summary.distance(s, x) == summary.distance(s, x)
                   for s in range(g.n_vertices) for x in range(g.n_vertices)), g.name()


def raw_graph(rows) -> Graph:
    """Bare graph on the given rows; every vertex has the same placeholder
    zero set, so ``classes`` is one class whatever the rows are."""
    payload = tuple(ZClass(atom_set([0])) for _ in rows)
    return Graph(GraphKind.COMAXIMAL, "quotient", None, unit_space(2), payload,
                 zero_set_classes([z.zero_set for z in payload]), tuple(rows))


def planted_twins(rng: random.Random, m: int, p: float):
    """A random graph on m vertices with each vertex blown up into 1-3 false
    twins, the vertex order shuffled; also the base vertex of each vertex."""
    base = [[i != j and rng.random() < p for j in range(m)] for i in range(m)]
    owner = [b for b in range(m) for _ in range(rng.randint(1, 3))]
    rng.shuffle(owner)
    n = len(owner)
    rows = [sum(1 << j for j in range(n)
                if base[min(owner[i], owner[j])][max(owner[i], owner[j])])
            for i in range(n)]
    return raw_graph(rows), owner


@pytest.mark.parametrize("seed", range(12))
def test_planted_twins_match_reference(seed):
    rng = random.Random(f"twins:{seed}")
    g, owner = planted_twins(rng, rng.randint(4, 8), rng.choice([0.3, 0.5, 0.7]))
    of = g.twins.of
    assert all(of[i] == of[j] for i in range(g.n_vertices) for j in range(g.n_vertices)
               if owner[i] == owner[j])
    assert_matches_reference(g)


def test_edgeless_graph_profiles():
    g = raw_graph((0, 0, 0))
    assert_profiles_match_reference(g)
    tri = triangle_profile(g)
    assert not tri.is_triangulated and not tri.is_hypertriangulated
    comp = complementation_profile(g)
    n = g.n_vertices
    assert not any(comp.is_orthogonal(i, j) for i in range(n) for j in range(n) if i != j)
    assert not any(comp.has_complement) and not comp.is_complemented
    assert not comp.is_uniquely_complemented


def test_profiles_never_list_the_edges(monkeypatch):
    def refuse(self):
        raise AssertionError("Graph.edges() called")

    sample = sample_interval_classes(5, 15)
    graphs = [*atomic_graphs(3), *(build_graph(IntervalSpace(), kind, sample=sample)
                                   for kind in GraphKind if kind is not GraphKind.WEAKLY_ZD)]
    monkeypatch.setattr(Graph, "edges", refuse)
    for g in graphs:
        triangle_profile(g)
        complementation_profile(g)


def test_class_masks_are_member_masks():
    rng = random.Random("masks")
    planted = [planted_twins(rng, rng.randint(4, 8), 0.5)[0] for _ in range(4)]
    for g in (*planted, *atomic_graphs(3)):
        for classes in (g.twins, g.classes):
            assert classes.masks == tuple(sum(1 << v for v in vs) for vs in classes.members)


def test_twins_come_from_rows_not_zero_sets():
    # one shared zero set, but a path's rows: the zero-set partition has one
    # class, the row partition one class per vertex
    path = raw_graph((0b0010, 0b0101, 0b1010, 0b0100))
    assert path.classes.members == ((0, 1, 2, 3),)
    assert path.twins.members == ((0,), (1,), (2,), (3,))
    assert_matches_reference(path)


def test_graph_breaking_twinness_shows_as_mismatch():
    space = unit_space(3)
    g = build_graph(space, GraphKind.COMAXIMAL, "expanded", alphabet=3)
    assert g.twins.members == g.classes.members
    u, w = g.edges()[0]
    adj = list(g.adj)
    adj[u] ^= 1 << w
    adj[w] ^= 1 << u
    broken = dataclasses.replace(g, adj=tuple(adj))
    # u and w leave their zero-set classes' row classes
    assert len(broken.twins.members) > len(broken.classes.members)
    assert_matches_reference(broken)
    bad = _pair_mismatches(broken, partial(expected_comaximal_distance, space),
                           metrics(broken).distance)
    assert bad > 0


def reference_pair_mismatches(g: Graph, want, got) -> int:
    """Vertex pairs i < j where ``got(i, j)`` differs from ``want`` on their
    zero sets, with ``got`` called on every vertex pair."""
    classes = g.classes
    rows: dict[int, list] = {}
    bad = 0
    for i, a in enumerate(classes.of):
        if a not in rows:
            rows[a] = [want(classes.zero_sets[a], z) for z in classes.zero_sets]
        for j in range(i + 1, g.n_vertices):
            if got(i, j) != rows[a][classes.of[j]]:
                bad += 1
    return bad


def reference_edge_triangle_mismatches(g: Graph, space) -> int:
    """Edges whose triangle flag equals their orthogonality, read edge by
    edge."""
    profile = triangle_profile(g)
    zsets, of = g.classes.zero_sets, g.classes.of
    orthogonal = [[orthogonal_annihilator(space, zu, zv) for zv in zsets] for zu in zsets]
    return sum(1 for i, j in g.edges() if profile.edge_flag(i, j) == orthogonal[of[i]][of[j]])


def edge_triangle_mismatches(g: Graph, n: int) -> int:
    """The mismatch count of ``annihilator.edge_triangle_rule`` with ``g``
    served in place of the n-atom annihilator graph."""
    ctx = RunContext(SuiteConfig())
    served = ctx.graph(n, GraphKind.ANNIHILATOR, "expanded", alphabet=3)
    key = next(key for key, cached in ctx._graphs.items() if cached is served)
    ctx._graphs[key] = g
    return int(checks.check_annihilator_edge_triangles(ctx, n, 3).computed.split()[0])


def rule_comparisons(g: Graph, space):
    """The (want, got) of every rule check that calls ``_pair_mismatches``.
    Both cycle-rank checks read one table of ``cycle_rank`` per vertex pair,
    built up to n=4; at n=5 it would take about 4 s more."""
    orthogonal = complementation_profile(g).is_orthogonal
    yield partial(expected_comaximal_distance, space), metrics(g).distance
    yield partial(orthogonal_comaximal, space), orthogonal
    yield partial(orthogonal_annihilator, space), orthogonal
    yield partial(null_equal, space), lambda i, j: g.adj[i] == g.adj[j]
    if space.n_atoms <= 4:
        ranks = {(i, j): cycle_rank(g, i, j, MAX_LEN)
                 for i in range(g.n_vertices) for j in range(i + 1, g.n_vertices)}
        yield partial(expected_comaximal_cycle, space), lambda i, j: ranks[i, j]
        yield partial(expected_annihilator_cycle, space), lambda i, j: ranks[i, j]


def flip_first_and_last(g: Graph) -> Graph:
    """``g`` with the vertex pair (0, last) toggled between edge and
    non-edge."""
    last = g.n_vertices - 1
    adj = list(g.adj)
    adj[0] ^= 1 << last
    adj[last] ^= 1
    return dataclasses.replace(g, adj=tuple(adj))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cell_pair_counts_match_per_pair_reference(n):
    """Every rule check's mismatch count, compared once per cell pair,
    equals the per-vertex-pair and per-edge count, on every atomic graph and
    on the same graph with one flipped edge.  The flip makes ``got`` depend
    on the vertex index, so each flipped vertex falls into a cell of its
    own."""
    space = unit_space(n)
    pair_counts, edge_counts = [], []
    for g in atomic_graphs(n):
        broken = flip_first_and_last(g)
        cells = zero_set_classes(zip(broken.classes.of, broken.twins.of))
        assert cells.members[cells.of[0]] == (0,), g.name()
        assert cells.members[cells.of[-1]] == (g.n_vertices - 1,), g.name()
        for h in (g, broken):
            for want, got in rule_comparisons(h, space):
                pair_counts.append(reference_pair_mismatches(h, want, got))
                assert _pair_mismatches(h, want, got) == pair_counts[-1], h.name()
            edge_counts.append(reference_edge_triangle_mismatches(h, space))
            assert edge_triangle_mismatches(h, n) == edge_counts[-1], h.name()
            # distance 1 everywhere: every non-adjacent pair counts, inside
            # a cell too
            pairs = h.n_vertices * (h.n_vertices - 1) // 2
            assert _pair_mismatches(h, lambda zu, zv: 1, metrics(h).distance) == \
                pairs - h.n_edges(), h.name()
    # the rules of one graph read on another, and the flips, give mismatches
    assert any(pair_counts) and (n == 2 or any(edge_counts))


def test_searches_run_once_per_twin_class(monkeypatch):
    ctx = RunContext(SuiteConfig(atoms_min=4, atoms_max=4))
    g = ctx.graph(4, GraphKind.COMAXIMAL, "expanded", alphabet=3)
    classes = len(g.twins.members)
    assert classes < g.n_vertices
    calls = {"cycle_rank": 0, "_levels": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(graph_metrics, "_levels", counted("_levels", graph_metrics._levels))
    monkeypatch.setattr(checks, "cycle_rank", counted("cycle_rank", checks.cycle_rank))
    metrics(g)
    assert 0 < calls["_levels"] <= classes
    outcome = REGISTRY["comaximal.cycle_rank_cases"].fn(ctx, 4, 3)
    assert outcome.ok
    assert 0 < calls["cycle_rank"] <= classes * classes
