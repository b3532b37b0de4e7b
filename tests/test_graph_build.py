"""Graph construction: closed-form adjacency vs definition-level oracles."""

import itertools

import pytest

from mrfgraph.graph_build import (
    GraphKind,
    adjacent,
    build_graph,
    export_graph,
    oracle_adjacent,
    weakly_adjacent_all,
)
from mrfgraph.harness import make_weights
from mrfgraph.measure_space import (
    AtomicSpace,
    IntervalSpace,
    atom_set,
    complement,
    null_equal,
    unit_space,
)
from mrfgraph.vertex_universe import ExpandedFunction, enumerate_functions, sample_interval_classes

KINDS = (GraphKind.ZERO_DIVISOR, GraphKind.COMAXIMAL,
         GraphKind.ANNIHILATOR, GraphKind.WEAKLY_ZD)


def annihilates(h, p):
    return all(a * b == 0 for a, b in zip(h, p))


def test_adjacency_examples():
    space = unit_space(3)
    assert adjacent(GraphKind.COMAXIMAL, space, atom_set([2]), atom_set([0, 1]))
    assert adjacent(GraphKind.ZERO_DIVISOR, space, atom_set([1, 2]), atom_set([0, 2]))
    assert adjacent(GraphKind.ANNIHILATOR, space, atom_set([0, 1]), atom_set([1, 2]))
    assert not adjacent(GraphKind.COMAXIMAL, space, atom_set([0]), atom_set([0, 1]))


def test_weakly_adjacency_requires_atomic_zero_sets():
    space = unit_space(3)
    with pytest.raises(ValueError):
        adjacent(GraphKind.WEAKLY_ZD, space, atom_set([0, 1]), atom_set([2]))
    assert adjacent(GraphKind.WEAKLY_ZD, space, atom_set([0]), atom_set([1]))
    assert not adjacent(GraphKind.WEAKLY_ZD, space, atom_set([0]), atom_set([0]))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", KINDS)
def test_oracle_equivalence(n, kind):
    """Closed forms match brute-force ring definitions on every pair."""
    space = unit_space(n)
    g = build_graph(space, kind, "expanded", alphabet=3)
    for i in range(g.n_vertices):
        for j in range(i + 1, g.n_vertices):
            brute = oracle_adjacent(kind, space, 3, g.vertices[i], g.vertices[j])
            assert g.is_edge(i, j) == brute, (g.vertex_label(i), g.vertex_label(j))


def test_annihilator_oracle_witness_example():
    space = unit_space(3)
    f = ExpandedFunction((0, 1, 1))
    g = ExpandedFunction((1, 0, 1))
    h = (1, 1, 0)  # kills f.g (zero set {0,1}) but neither factor
    product = tuple(a * b for a, b in zip(f.values, g.values))
    assert annihilates(h, product)
    assert not annihilates(h, f.values)
    assert not annihilates(h, g.values)
    assert oracle_adjacent(GraphKind.ANNIHILATOR, space, 3, f, g)


def test_weakly_self_adjacency_example():
    space = unit_space(3)
    f = ExpandedFunction((0, 0, 1))  # zero set {0,1}, not an atom
    assert oracle_adjacent(GraphKind.WEAKLY_ZD, space, 3, f, f)
    g = ExpandedFunction((0, 1, 1))  # zero set {0}, an atom
    assert not oracle_adjacent(GraphKind.WEAKLY_ZD, space, 3, g, g)


@pytest.mark.parametrize("n,k", [(2, 3), (3, 3)])
def test_weakly_trichotomy_over_all_divisors(n, k):
    space = unit_space(n)
    divisors = enumerate_functions(space, k)
    for i, f in enumerate(divisors):
        for j in range(i, len(divisors)):
            g = divisors[j]
            brute = oracle_adjacent(GraphKind.WEAKLY_ZD, space, k, f, g)
            want = weakly_adjacent_all(space, f.zero_set(), g.zero_set(),
                                       same_vertex=(i == j))
            assert brute == want


def test_oracle_bounds():
    space = unit_space(6)
    f = ExpandedFunction((0, 1, 1, 1, 1, 1))
    with pytest.raises(ValueError):
        oracle_adjacent(GraphKind.COMAXIMAL, space, 3, f, f, max_atoms=5)
    with pytest.raises(ValueError):
        oracle_adjacent(GraphKind.COMAXIMAL, unit_space(2), 5,
                        ExpandedFunction((0, 1)), ExpandedFunction((1, 0)))


def test_build_quotient_k2():
    g = build_graph(unit_space(2), GraphKind.COMAXIMAL, "quotient")
    assert g.n_vertices == 2
    assert g.edges() == [(0, 1)]


def test_build_weakly_quotient_is_complete():
    g = build_graph(unit_space(3), GraphKind.WEAKLY_ZD, "quotient")
    assert g.n_vertices == 3
    assert len(g.edges()) == 3


def test_build_expanded_two_atoms_complete_bipartite():
    g = build_graph(unit_space(2), GraphKind.COMAXIMAL, "expanded", alphabet=3)
    assert g.n_vertices == 4
    parts = {}
    for i, zs in enumerate(g.zero_sets):
        parts.setdefault(zs, []).append(i)
    (p1, p2) = parts.values()
    assert len(p1) == len(p2) == 2
    assert all(g.is_edge(i, j) for i in p1 for j in p2)
    assert not any(g.is_edge(i, j) for i in p1 for j in p1 if i < j)


def test_build_empty_for_single_atom():
    for kind in KINDS:
        assert build_graph(unit_space(1), kind, "quotient").n_vertices == 0
        assert build_graph(unit_space(1), kind, "expanded", alphabet=3).n_vertices == 0


def test_build_errors():
    with pytest.raises(ValueError):
        build_graph(IntervalSpace(), GraphKind.COMAXIMAL)
    with pytest.raises(ValueError):
        build_graph(unit_space(2), GraphKind.COMAXIMAL, "expanded")
    with pytest.raises(ValueError):
        build_graph(unit_space(2), GraphKind.COMAXIMAL, "diagonal")


def test_build_guard_rail():
    from mrfgraph.graph_build import GraphTooLargeError
    with pytest.raises(GraphTooLargeError):
        build_graph(unit_space(4), GraphKind.COMAXIMAL, "expanded", alphabet=3,
                    max_vertices=10)


def test_guard_counts_are_exact():
    from mrfgraph.graph_build import GraphTooLargeError
    for n in range(1, 5):
        for k in (2, 3):
            for kind in GraphKind:
                for mode in ("quotient", "expanded"):
                    space = unit_space(n)
                    size = build_graph(space, kind, mode, alphabet=k).n_vertices
                    build_graph(space, kind, mode, alphabet=k, max_vertices=size)
                    if size:
                        with pytest.raises(GraphTooLargeError):
                            build_graph(space, kind, mode, alphabet=k, max_vertices=size - 1)


def test_guard_fires_before_enumeration(monkeypatch):
    from mrfgraph import graph_build
    from mrfgraph.graph_build import GraphTooLargeError

    def refuse(*args, **kwargs):
        raise AssertionError("enumerated vertices of an oversized graph")

    monkeypatch.setattr(graph_build, "enumerate_functions", refuse)
    monkeypatch.setattr(graph_build, "enumerate_zclasses", refuse)
    for kind in GraphKind:
        with pytest.raises(GraphTooLargeError, match="exceed guard 5000"):
            build_graph(unit_space(12), kind, "expanded", alphabet=3)
    with pytest.raises(GraphTooLargeError, match="^4094 vertices exceed guard 5$"):
        build_graph(unit_space(12), GraphKind.COMAXIMAL, "quotient", max_vertices=5)


def test_interval_build_is_sampled_and_deduped():
    space = IntervalSpace()
    classes = sample_interval_classes(3, 20)
    g = build_graph(space, GraphKind.COMAXIMAL, sample=classes + classes)
    assert g.mode == "sampled"
    assert g.n_vertices == len({zc.zero_set for zc in classes})



def pairwise_adjacency(g):
    """Reference build: the closed form called on every vertex pair."""
    rows = [0] * g.n_vertices
    for i, j in itertools.combinations(range(g.n_vertices), 2):
        if adjacent(g.kind, g.space, g.zero_sets[i], g.zero_sets[j]):
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return tuple(rows)


ATOMIC_BUILDS = ([(n, "quotient", None) for n in range(1, 6)]
                 + [(n, "expanded", k) for n in (2, 3, 4) for k in (2, 3, 4)]
                 + [(5, "expanded", 3)])


@pytest.mark.parametrize("weights", ["unit", "random-positive"])
@pytest.mark.parametrize("kind", KINDS)
def test_class_build_matches_pairwise_reference(kind, weights):
    for n, mode, k in ATOMIC_BUILDS:
        space = AtomicSpace(make_weights(n, weights, 7))
        g = build_graph(space, kind, mode, alphabet=k)
        assert g.adj == pairwise_adjacency(g), (g.name(), weights)


@pytest.mark.parametrize("kind", KINDS)
def test_class_build_matches_pairwise_reference_sampled(kind):
    classes = sample_interval_classes(5, 40)
    g = build_graph(IntervalSpace(), kind, sample=classes + classes[::3])
    assert g.adj == pairwise_adjacency(g)

def test_subgraph_containment_and_strictness():
    for n in (2, 3):
        space = unit_space(n)
        gz = build_graph(space, GraphKind.ZERO_DIVISOR, "expanded", alphabet=3)
        gc = build_graph(space, GraphKind.COMAXIMAL, "expanded", alphabet=3)
        ga = build_graph(space, GraphKind.ANNIHILATOR, "expanded", alphabet=3)
        for i in range(gz.n_vertices):
            assert gz.adj[i] & ~ga.adj[i] == 0
            assert gc.adj[i] & ~ga.adj[i] == 0
        if n == 2:
            assert gz.adj == gc.adj == ga.adj
        else:
            assert gz.adj != ga.adj and gc.adj != ga.adj


def test_class_stability_and_representative_invariance():
    space = unit_space(3)
    g = build_graph(space, GraphKind.COMAXIMAL, "expanded", alphabet=3)
    groups = {}
    for i, zs in enumerate(g.zero_sets):
        groups.setdefault(zs, []).append(i)
    for members in groups.values():
        for i in members:
            for j in members:
                if i < j:
                    assert not g.is_edge(i, j)
    classes = list(groups.values())
    for a in range(len(classes)):
        for b in range(a + 1, len(classes)):
            flags = {g.is_edge(i, j) for i in classes[a] for j in classes[b]}
            assert len(flags) == 1


def test_unit_witness_on_adjacent_pairs():
    space = unit_space(3)
    g = build_graph(space, GraphKind.COMAXIMAL, "expanded", alphabet=3)
    for i, j in g.edges():
        witness = [a * a + b * b for a, b in zip(g.vertices[i].values, g.vertices[j].values)]
        assert all(w != 0 for w in witness)


def test_export_dot_k2():
    g = build_graph(unit_space(2), GraphKind.COMAXIMAL, "quotient")
    dot = export_graph(g, "dot")
    assert dot.count("label=") == 2
    assert dot.count(" -- ") == 1


def test_export_json_empty_graph():
    import json

    g = build_graph(unit_space(1), GraphKind.ZERO_DIVISOR, "quotient")
    doc = json.loads(export_graph(g, "json"))
    assert doc["vertices"] == [] and doc["edges"] == []


def test_export_json_quotient_n3():
    import json

    g = build_graph(unit_space(3), GraphKind.COMAXIMAL, "quotient")
    doc = json.loads(export_graph(g, "json"))
    assert len(doc["vertices"]) == 6
    assert len(doc["edges"]) == 6
    # independent re-derivation: classes are adjacent iff zero sets disjoint
    labels = doc["vertices"]
    masks = [frozenset(int(tok) for tok in lab[3:-1].split(",")) for lab in labels]
    expected = [[i, j] for i in range(6) for j in range(i + 1, 6)
                if not masks[i] & masks[j]]
    assert doc["edges"] == expected


def test_export_deterministic():
    g1 = build_graph(unit_space(3), GraphKind.ANNIHILATOR, "expanded", alphabet=3)
    g2 = build_graph(unit_space(3), GraphKind.ANNIHILATOR, "expanded", alphabet=3)
    assert export_graph(g1, "json") == export_graph(g2, "json")
    assert export_graph(g1, "dot") == export_graph(g2, "dot")


def test_export_golden_files():
    from pathlib import Path

    golden = Path(__file__).parent / "golden"
    cases = [
        ("comaximal", "quotient", 3, None),
        ("comaximal", "expanded", 2, 3),
        ("annihilator", "expanded", 2, 3),
        ("weakly_zd", "quotient", 3, None),
    ]
    for kind_name, mode, n, k in cases:
        kind = GraphKind(kind_name)
        g = build_graph(unit_space(n), kind, mode, alphabet=k)
        name = f"{kind_name}_{mode}_n{n}" + (f"_k{k}" if k else "")
        expected = (golden / f"{name}.json").read_text()
        assert export_graph(g, "json") == expected
