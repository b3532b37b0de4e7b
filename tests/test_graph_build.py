"""Graph construction: closed-form adjacency vs definition-level oracles."""

import dataclasses
import hashlib
import itertools
import random

import pytest

from mrfgraph.graph_build import (
    ORACLE_MAX_ALPHABET,
    ORACLE_MAX_ATOMS,
    BoundExceededError,
    GraphKind,
    _AnnihilatorTable,
    _Universe,
    _fill_adjacency,
    _runs,
    adjacent,
    build_graph,
    export_graph,
    oracle_adjacent,
    oracle_mismatches,
    oracle_row,
    weakly_adjacent_all,
    zero_set_classes,
)
import mrfgraph.checks  # noqa: F401  (populates REGISTRY)
from mrfgraph.harness import REGISTRY, RunContext, SuiteConfig, make_weights
from mrfgraph.measure_space import (
    AtomicSpace,
    IntervalSpace,
    atom_set,
    complement,
    difference,
    intersect,
    interval_set,
    is_atom,
    is_null,
    null_equal,
    symdiff,
    unit_space,
)
from mrfgraph.vertex_universe import (
    ExpandedFunction,
    ZClass,
    enumerate_functions,
    enumerate_zclasses,
    sample_interval_classes,
)

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
            want = weakly_adjacent_all(space, f.zero_set, g.zero_set,
                                       same_vertex=(i == j))
            assert brute == want


def zero_divisor_values(n, k):
    """Value tuples with a zero and a nonzero, from ``itertools.product``."""
    return [v for v in itertools.product(range(k), repeat=n) if 0 in v and any(v)]


def slow_oracle_adjacent(kind, space, k, f, g):
    """The per-pair oracle: ann(p) re-derived for every candidate on every
    call, the annihilator candidates from ``itertools.product`` and the
    weakly-zd ones from :func:`zero_divisor_values`.  The slow reference for
    the table-backed ``oracle_adjacent``."""
    def vanishes(values):
        return is_null(space, atom_set(i for i, v in enumerate(values) if v != 0))

    def product(a, b):
        return tuple(x * y for x, y in zip(a, b))

    fv, gv = f.values, g.values
    if kind is GraphKind.ZERO_DIVISOR:
        return vanishes(product(fv, gv))
    if kind is GraphKind.COMAXIMAL:
        return vanishes(tuple(1 if a * a + b * b == 0 else 0 for a, b in zip(fv, gv)))
    if kind is GraphKind.ANNIHILATOR:
        fg = product(fv, gv)
        return any(vanishes(product(h, fg)) and not vanishes(product(h, fv))
                   and not vanishes(product(h, gv))
                   for h in itertools.product(range(k), repeat=space.n_atoms))
    divisors = zero_divisor_values(space.n_atoms, k)
    ann_f = [h for h in divisors if vanishes(product(h, fv))]
    ann_g = [h for h in divisors if vanishes(product(h, gv))]
    return any(vanishes(product(h1, h2)) for h1 in ann_f for h2 in ann_g)


ORACLE_CASES = [(n, k) for n in (1, 2, 3) for k in (2, 3, 4)] + [(4, 3)]


@pytest.mark.parametrize("weights", ["unit", "random-positive"])
@pytest.mark.parametrize("n,k", ORACLE_CASES, ids=[f"n{n}k{k}" for n, k in ORACLE_CASES])
def test_oracle_matches_slow_reference(n, k, weights):
    """The annihilator table answers every ordered pair of zero-divisors,
    self-pairs included, as the per-pair oracle does, for all four kinds:
    both one pair at a time and as bit j of the row of f over all divisors."""
    space = AtomicSpace(make_weights(n, weights, 5))
    divisors = enumerate_functions(space, k)
    for kind in KINDS:
        for f in divisors:
            row = oracle_row(kind, space, k, f, divisors)
            assert row >> len(divisors) == 0
            for j, g in enumerate(divisors):
                slow = slow_oracle_adjacent(kind, space, k, f, g)
                assert oracle_adjacent(kind, space, k, f, g) == slow, (kind, f, g)
                assert bool(row >> j & 1) == slow, (kind, f, g)


KERNEL_CASES = [(2, 3), (3, 3), (3, 4)]


@pytest.mark.parametrize("start", [0, 1])
@pytest.mark.parametrize("n,k", KERNEL_CASES, ids=[f"n{n}k{k}" for n, k in KERNEL_CASES])
def test_oracle_mismatches_match_the_per_pair_reference(n, k, start):
    """Closed rows with planted flips, diagonal bits and bits below the start
    included: the kernel lists, as a list in ascending order, exactly the
    pairs j >= i + start where a per-pair ``oracle_adjacent`` call differs
    from bit j of row i."""
    space = unit_space(n)
    divisors = tuple(enumerate_functions(space, k))
    count = len(divisors)
    rng = random.Random(f"kernel:{n}:{k}:{start}")
    for kind in KINDS:
        brute = [[oracle_adjacent(kind, space, k, f, g) for g in divisors] for f in divisors]
        closed = [sum(1 << j for j, edge in enumerate(row) if edge) for row in brute]
        flips = {(0, 0), (count - 1, count - 1), (count - 1, 0)}
        flips |= set(rng.sample([(i, j) for i in range(count) for j in range(count)], 9))
        for i, j in flips:
            closed[i] ^= 1 << j
        want = [(i, j) for i in range(count) for j in range(i + start, count)
                if brute[i][j] != bool(closed[i] >> j & 1)]
        got = oracle_mismatches(kind, space, k, divisors, closed, start)
        assert type(got) is list
        assert got == want == sorted((i, j) for i, j in flips if j >= i + start), kind
        assert ((0, 0) in got) == (start == 0)


def test_oracle_table_cache_is_isolated():
    """Calls shuffled over three spaces and two alphabets answer as a fresh
    table and the slow reference do, and the cache keeps at most 8 tables."""
    calls = [(kind, space, k, f, g)
             for kind in (GraphKind.ANNIHILATOR, GraphKind.WEAKLY_ZD)
             for space in (unit_space(3), AtomicSpace((1, 2, 3)), unit_space(2))
             for k in (3, 2)
             for f in enumerate_functions(space, k)[::3]
             for g in enumerate_functions(space, k)[::4]]
    random.Random(0).shuffle(calls)
    interleaved = [oracle_adjacent(*call) for call in calls]
    fresh = []
    for call in calls:
        _AnnihilatorTable.cache_clear()
        fresh.append(oracle_adjacent(*call))
    assert interleaved == fresh == [slow_oracle_adjacent(*call) for call in calls]
    for n in (1, 2, 3, 4):
        for k in (2, 3, 4):
            f = ExpandedFunction((0,) + (1,) * (n - 1))
            oracle_adjacent(GraphKind.ANNIHILATOR, unit_space(n), k, f, f)
    assert _AnnihilatorTable.cache_info().currsize == 8


def test_oracle_bounds():
    """Both bounds raise for every kind, before any annihilator table is built."""
    _AnnihilatorTable.cache_clear()
    space = unit_space(ORACLE_MAX_ATOMS + 1)
    f = ExpandedFunction((0,) + (1,) * ORACLE_MAX_ATOMS)
    for kind in KINDS:
        with pytest.raises(BoundExceededError):
            oracle_adjacent(kind, space, 3, f, f)
        with pytest.raises(BoundExceededError):
            oracle_adjacent(kind, unit_space(2), ORACLE_MAX_ALPHABET + 1,
                            ExpandedFunction((0, 1)), ExpandedFunction((1, 0)))
        for gs in ((), (f,)):  # a row checks the bounds even when it is empty
            with pytest.raises(BoundExceededError):
                oracle_row(kind, space, 3, f, gs)
    assert _AnnihilatorTable.cache_info().currsize == 0


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


def test_build_guard_rail(monkeypatch):
    from mrfgraph import graph_build
    monkeypatch.setattr(graph_build, "MAX_VERTICES", 10)
    with pytest.raises(BoundExceededError):
        build_graph(unit_space(4), GraphKind.COMAXIMAL, "expanded", alphabet=3)


def test_guard_counts_are_exact(monkeypatch):
    from mrfgraph import graph_build
    for n in range(1, 5):
        for k in (2, 3):
            for kind in GraphKind:
                for mode in ("quotient", "expanded"):
                    space = unit_space(n)
                    size = build_graph(space, kind, mode, alphabet=k).n_vertices
                    monkeypatch.setattr(graph_build, "MAX_VERTICES", size)
                    build_graph(space, kind, mode, alphabet=k)
                    if size:
                        monkeypatch.setattr(graph_build, "MAX_VERTICES", size - 1)
                        with pytest.raises(BoundExceededError):
                            build_graph(space, kind, mode, alphabet=k)
                    monkeypatch.undo()


def test_guard_fires_before_enumeration(monkeypatch):
    from mrfgraph import graph_build

    def refuse(*args, **kwargs):
        raise AssertionError("enumerated vertices of an oversized graph")

    monkeypatch.setattr(graph_build, "enumerate_functions", refuse)
    monkeypatch.setattr(graph_build, "enumerate_zclasses", refuse)
    monkeypatch.setattr(graph_build, "MAX_VERTICES", 5000)
    for kind in GraphKind:
        with pytest.raises(BoundExceededError, match="exceed guard 5000"):
            build_graph(unit_space(12), kind, "expanded", alphabet=3)
    monkeypatch.setattr(graph_build, "MAX_VERTICES", 5)
    with pytest.raises(BoundExceededError, match="^4094 vertices exceed guard 5$"):
        build_graph(unit_space(12), GraphKind.COMAXIMAL, "quotient")


@pytest.fixture
def fresh_universes():
    """An empty vertex-universe cache, before and after, for tests that
    count enumerations or patch the enumerator."""
    _Universe.cache_clear()
    yield
    _Universe.cache_clear()


def spy_enumerations(monkeypatch):
    """Record every list ``graph_build`` gets from ``enumerate_functions``."""
    from mrfgraph import graph_build

    calls = []

    def spy(space, k):
        calls.append((space, k, enumerate_functions(space, k)))
        return calls[-1][2]

    monkeypatch.setattr(graph_build, "enumerate_functions", spy)
    return calls


def test_expanded_kinds_enumerate_once_per_space(monkeypatch, fresh_universes):
    """The four kinds on one (space, k) enumerate once and share the
    vertices; other weights or another alphabet enumerate again."""
    calls = spy_enumerations(monkeypatch)
    unit, weighted = (AtomicSpace(make_weights(4, policy, 7))
                      for policy in ("unit", "random-positive"))
    assert unit != weighted
    graphs = [build_graph(unit, kind, "expanded", alphabet=3) for kind in KINDS]
    assert [c[:2] for c in calls] == [(unit, 3)]
    assert all(g.vertices is graphs[0].vertices for g in graphs[:3])
    for kind in KINDS:
        build_graph(weighted, kind, "expanded", alphabet=3)
        build_graph(unit, kind, "expanded", alphabet=2)
    assert [c[:2] for c in calls] == [(unit, 3), (weighted, 3), (unit, 2)]


def uncached_expanded_build(space, kind, k):
    """Reference build: a fresh enumeration, the per-function atom filter
    for weakly-zd, a fresh partition and the adjacency kernel."""
    vertices = enumerate_functions(space, k)
    if kind is GraphKind.WEAKLY_ZD:
        vertices = [f for f in vertices if is_atom(space, f.zero_set)]
    zero_sets = tuple(f.zero_set for f in vertices)
    classes = zero_set_classes(zero_sets)
    return tuple(vertices), zero_sets, classes, _fill_adjacency(kind, space, classes)


UNIVERSE_CASES = [(2, 2), (3, 3), (4, 3), (5, 4), (6, 3)]


@pytest.mark.parametrize("weights", ["unit", "random-positive"])
@pytest.mark.parametrize("n,k", UNIVERSE_CASES, ids=[f"n{n}k{k}" for n, k in UNIVERSE_CASES])
def test_shared_universe_builds_match_uncached_reference(n, k, weights, fresh_universes):
    space = AtomicSpace(make_weights(n, weights, 7))
    for kind in KINDS:
        g = build_graph(space, kind, "expanded", alphabet=k)
        assert (g.vertices, g.zero_sets, g.classes, g.adj) == \
            uncached_expanded_build(space, kind, k), g.name()


def test_mutating_an_enumerated_list_leaves_later_builds_unchanged(monkeypatch, fresh_universes):
    """The universe keeps its own tuple: emptying the list the enumerator
    handed it, or one handed to any caller, changes no later build."""
    calls = spy_enumerations(monkeypatch)
    space = unit_space(3)
    first = build_graph(space, GraphKind.COMAXIMAL, "expanded", alphabet=3)
    calls[0][2].clear()
    enumerate_functions(space, 3).reverse()
    for kind in KINDS:
        g = build_graph(space, kind, "expanded", alphabet=3)
        assert g.vertices == uncached_expanded_build(space, kind, 3)[0]
    assert build_graph(space, GraphKind.COMAXIMAL, "expanded", alphabet=3).adj == first.adj
    assert len(calls) == 1


def test_expanded_build_holds_the_universe_partition(fresh_universes):
    """An expanded build holds its universe's vertex tuple and zero-set
    partition objects (weakly-zd its own partition of the atom classes); the
    partition stays out of equality and hashing."""
    space = unit_space(4)
    universe = _Universe(space, 3)
    for kind in KINDS:
        g = build_graph(space, kind, "expanded", alphabet=3)
        if kind is GraphKind.WEAKLY_ZD:
            assert g.classes == zero_set_classes(g.zero_sets)
        else:
            assert g.vertices is universe.vertices and g.classes is universe.classes
        bare = dataclasses.replace(g, classes=None)
        assert bare == g and hash(bare) == hash(g) and "classes" not in repr(g)


def test_quotient_build_holds_the_universe_partition(fresh_universes):
    """The quotient builds of the four kinds on one space hold one vertex
    tuple and one partition object; weakly-zd partitions its atom classes."""
    space = unit_space(4)
    universe = _Universe(space, None)
    for kind in KINDS:
        g = build_graph(space, kind, "quotient")
        if kind is GraphKind.WEAKLY_ZD:
            assert g.classes == zero_set_classes(g.zero_sets)
            assert g.classes is not universe.classes
        else:
            assert g.vertices is universe.vertices and g.classes is universe.classes


def test_quotient_kinds_enumerate_once_per_space(monkeypatch, fresh_universes):
    from mrfgraph import graph_build

    calls = []

    def spy(space):
        calls.append(space)
        return enumerate_zclasses(space)

    monkeypatch.setattr(graph_build, "enumerate_zclasses", spy)
    space = unit_space(4)
    for kind in KINDS:
        build_graph(space, kind, "quotient")
    assert calls == [space]


def test_definition_checks_read_the_shared_vertices(monkeypatch, fresh_universes):
    """The seven definition-level checks take their functions from the run's
    expanded graphs: one enumeration for the (space, k) they share."""
    calls = spy_enumerations(monkeypatch)
    ctx = RunContext(SuiteConfig())
    for check_id in ("comaximal.adjacency_oracle", "zero_divisor.adjacency_oracle",
                     "annihilator.adjacency_oracle", "weakly_zd.adjacency_oracle",
                     "comaximal.unit_witness", "weakly_zd.trichotomy_oracle",
                     "weakly_zd.self_adjacency_rule"):
        assert REGISTRY[check_id].fn(ctx, 3, 3).ok, check_id
    assert [c[:2] for c in calls] == [(ctx.space(3), 3)]
    assert not hasattr(mrfgraph.checks, "enumerate_functions")


def test_expanded_build_workload_output_is_pinned():
    """The eight graphs of the benchmark's ``expanded_build`` workload, at
    seeds 7 and 11: names, vertex labels and hex rows hash to the recorded
    digest, so a change of label or vertex order fails here."""
    for seed in (7, 11):
        h = hashlib.sha256()
        for n, k in ((6, 3), (5, 4)):
            space = AtomicSpace(make_weights(n, "random-positive", seed))
            for kind in GraphKind:
                g = build_graph(space, kind, "expanded", alphabet=k)
                h.update(f"{g.name()}:{g.n_vertices}\n".encode())
                for i in range(g.n_vertices):
                    h.update(f"{g.vertex_label(i)} {g.adj[i]:x}\n".encode())
        assert h.hexdigest() == \
            "f1920d1c8a057de0d00f77e07e1b1f7e88ecb80bfa04a2e2defbacb5f4a0f89b", seed


def test_interval_guard_counts_the_deduped_sample(monkeypatch):
    from mrfgraph import graph_build
    classes = sample_interval_classes(3, 20)
    size = len({zc.zero_set for zc in classes})
    monkeypatch.setattr(graph_build, "MAX_VERTICES", size)
    build_graph(IntervalSpace(), GraphKind.COMAXIMAL, sample=classes + classes)
    monkeypatch.setattr(graph_build, "MAX_VERTICES", size - 1)
    with pytest.raises(BoundExceededError, match=f"^{size} vertices exceed guard {size - 1}$"):
        build_graph(IntervalSpace(), GraphKind.COMAXIMAL, sample=classes)


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


ATOMIC_BUILDS = ([(n, "quotient", None) for n in range(1, 9)]
                 + [(n, "expanded", k) for n in (2, 3, 4) for k in (2, 3, 4)]
                 + [(5, "expanded", 3)])


@pytest.mark.parametrize("weights", ["unit", "random-positive"])
@pytest.mark.parametrize("kind", KINDS)
def test_class_build_matches_pairwise_reference(kind, weights):
    for n, mode, k in ATOMIC_BUILDS:
        space = AtomicSpace(make_weights(n, weights, 7))
        g = build_graph(space, kind, mode, alphabet=k)
        assert g.adj == pairwise_adjacency(g), (g.name(), weights)


LARGE_ALPHABETS = [(2, 50), (3, 12)]


@pytest.mark.parametrize("n,k", LARGE_ALPHABETS, ids=[f"n{n}k{k}" for n, k in LARGE_ALPHABETS])
@pytest.mark.parametrize("kind", KINDS)
def test_expanded_build_beyond_alphabet_four(kind, n, k):
    """Alphabets above the oracle's: the vertices are the filtered product
    (atomic zero sets only for weakly-zd), and every vertex pair matches the
    closed form on zero sets re-derived from the values."""
    space = unit_space(n)
    g = build_graph(space, kind, "expanded", alphabet=k)
    want = [v for v in zero_divisor_values(n, k)
            if kind is not GraphKind.WEAKLY_ZD or v.count(0) == 1]
    assert [f.values for f in g.vertices] == want
    derived = tuple(ExpandedFunction(f.values) for f in g.vertices)  # zero sets from the values
    assert g.adj == pairwise_adjacency(dataclasses.replace(g, vertices=derived))


def test_two_atom_build_at_alphabet_2501():
    """Two classes of 2500 functions each, completely joined."""
    g = build_graph(unit_space(2), GraphKind.COMAXIMAL, "expanded", alphabet=2501)
    assert g.n_vertices == 5000
    assert g.n_edges() == 2500 * 2500


@pytest.mark.parametrize("kind", KINDS)
def test_class_build_matches_pairwise_reference_sampled(kind):
    classes = sample_interval_classes(5, 40)
    g = build_graph(IntervalSpace(), kind, sample=classes + classes[::3])
    assert g.adj == pairwise_adjacency(g)


def complement_closed(space, classes):
    """The zero sets ``iso.sampled_complement_probe`` builds on: each sampled
    zero set, then its complement, first appearance kept."""
    return list(dict.fromkeys(z for zc in classes
                              for z in (zc.zero_set, complement(space, zc.zero_set))))


def grid_sets(m):
    """Every proper nonempty union of the m equal cells of [0, 1), by cell
    mask: bit i of the mask selects the cell [i/m, (i+1)/m)."""
    return [interval_set((f"{i}/{m}", f"{i + 1}/{m}") for i in range(m) if mask >> i & 1)
            for mask in range(1, 2 ** m - 1)]


def bit_runs(mask):
    """Reference for ``_runs``: the maximal runs of set bits, bit by bit."""
    out, lo = [], None
    for i in range(mask.bit_length() + 1):
        if mask >> i & 1 and lo is None:
            lo = i
        elif not mask >> i & 1 and lo is not None:
            out.append((lo, i))
            lo = None
    return out


def test_runs_are_the_maximal_runs_of_set_bits():
    sparse = sum(1 << i for i in random.Random(7).sample(range(2000), 60)) | 1 << 1999
    cases = {0: [], 1 << 5: [(5, 6)], (1 << 40) - 1: [(0, 40)],
             0b10101: [(0, 1), (2, 3), (4, 5)], 0b1011_0111: [(0, 3), (4, 6), (7, 8)],
             sparse: bit_runs(sparse)}
    for mask, want in cases.items():
        assert list(_runs(mask)) == want, bin(mask)
    assert bit_runs(sparse)[-1][1] == 2000
    assert sum(hi - lo for lo, hi in _runs(sparse)) == sparse.bit_count()


def test_grid_degrees_match_closed_forms():
    """On the 4,094 proper unions of the m=12 grid, a class holding j cells
    has comaximal degree 2^(m-j) - 1 (the unions inside its complement),
    zero-divisor degree 2^j - 1 (the proper unions containing its
    complement) and annihilator degree 2^m + 1 - 2^j - 2^(m-j) (the unions
    neither inside it nor containing it)."""
    m = 12
    sets = grid_sets(m)
    cells = [mask.bit_count() for mask in range(1, 2 ** m - 1)]
    want = {GraphKind.COMAXIMAL: lambda j: 2 ** (m - j) - 1,
            GraphKind.ZERO_DIVISOR: lambda j: 2 ** j - 1,
            GraphKind.ANNIHILATOR: lambda j: 2 ** m + 1 - 2 ** j - 2 ** (m - j)}
    for kind, degree in want.items():
        g = build_graph(IntervalSpace(), kind, sample=map(ZClass, sets))
        assert g.n_vertices == len(sets) == 4094
        assert [g.degree(v) for v in range(g.n_vertices)] == list(map(degree, cells)), kind


# Sets that touch at a shared endpoint, start at 0 or end at 1, and repeat.
HAND_SETS = [interval_set(pairs) for pairs in (
    [(0, "1/2")], [("1/2", 1)], [("1/4", "1/2")], [("1/2", "3/4")],
    [(0, "1/4"), ("3/4", 1)], [("1/4", "3/4")], [(0, "1/3")], [("1/3", "1/2"), ("2/3", 1)],
    [(0, "1/2")], [("1/4", "3/4")],
)]


@pytest.mark.parametrize("kind", KINDS)
def test_mask_kernel_matches_pairwise_adjacent_on_intervals(kind):
    """The cell-mask kernel against the closed form on every vertex pair,
    repeated zero sets included, so same-class (diagonal) pairs are tested;
    the empty set and X, twice each, make classes adjacent to themselves
    (comaximal, zero-divisor), whose members' rows drop only their own bit.
    The grid input is every proper union of the m=6 grid cells.
    A weakly-zd build keeps no interval vertex (no set is an atom), so that
    kind's kernel is compared with ``adjacent`` minus its atom guard."""
    space = IntervalSpace()
    closed = complement_closed(space, sample_interval_classes(9, 60))
    if kind is GraphKind.WEAKLY_ZD:
        reference = lambda zu, zv: not null_equal(space, zu, zv)
        assert build_graph(space, kind, sample=map(ZClass, closed)).n_vertices == 0
    else:
        reference = lambda zu, zv: adjacent(kind, space, zu, zv)
        g = build_graph(space, kind, sample=map(ZClass, closed))
        assert g.adj == pairwise_adjacency(g)
    loops = 2 * [interval_set([]), interval_set([(0, 1)])]
    for zero_sets in (closed + closed[:7], HAND_SETS + loops, grid_sets(6)):
        rows = [0] * len(zero_sets)
        for i, j in itertools.combinations(range(len(zero_sets)), 2):
            if reference(zero_sets[i], zero_sets[j]):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        assert _fill_adjacency(kind, space, zero_set_classes(zero_sets)) == tuple(rows)


def built_set_adjacency(kind, space, zu, zv):
    """The closed forms with every Boolean combination built as a set and
    then tested with ``is_null`` (the weakly-zd form without its atom guard)."""
    if kind is GraphKind.COMAXIMAL:
        return is_null(space, intersect(space, zu, zv))
    if kind is GraphKind.ZERO_DIVISOR:
        return is_null(space, intersect(space, complement(space, zu), complement(space, zv)))
    if kind is GraphKind.ANNIHILATOR:
        return (not is_null(space, difference(space, zu, zv))
                and not is_null(space, difference(space, zv, zu)))
    return not is_null(space, symdiff(space, zu, zv))


@pytest.mark.parametrize("kind", KINDS)
def test_adjacent_nullity_forms_match_built_sets_on_intervals(kind):
    """``adjacent`` decides by the set algebra's nullity forms, which build
    no set; called directly on every ordered pair of complement-closed
    sampled zero sets and the hand-made sets, it matches the built-set
    closed forms.  Weakly-zd adjacency is undefined off atoms, so its
    nullity form ``null_equal`` is compared instead."""
    space = IntervalSpace()
    zero_sets = complement_closed(space, sample_interval_classes(9, 60)) + HAND_SETS
    if kind is GraphKind.WEAKLY_ZD:
        predicate = lambda zu, zv: not null_equal(space, zu, zv)
    else:
        predicate = lambda zu, zv: adjacent(kind, space, zu, zv)
    pairs = list(itertools.product(zero_sets, repeat=2))
    verdicts = [predicate(zu, zv) for zu, zv in pairs]
    assert verdicts == [built_set_adjacency(kind, space, zu, zv) for zu, zv in pairs]
    assert set(verdicts) == {False, True}


def grouped_by_zero_set(g):
    """(class of each vertex, members of each class), classes numbered by
    first appearance."""
    first: list = []
    of = []
    for z in g.zero_sets:
        if z not in first:
            first.append(z)
        of.append(first.index(z))
    members = [tuple(v for v, c in enumerate(of) if c == a) for a in range(len(first))]
    return tuple(of), tuple(members), tuple(first)


def test_graph_classes_match_grouping_by_zero_set():
    """``build_graph`` partitions its zero sets once and hands that
    partition to ``classes``; it matches a naive grouping and a fresh one."""
    builds = [(n, "quotient", None) for n in range(1, 6)]
    builds += [(n, "expanded", k) for n in range(1, 6) for k in (2, 3, 4)]
    graphs = [build_graph(unit_space(n), kind, mode, alphabet=k)
              for n, mode, k in builds for kind in KINDS]
    classes = sample_interval_classes(5, 40)
    graphs.append(build_graph(IntervalSpace(), GraphKind.COMAXIMAL, sample=classes))
    for g in graphs:
        assert "classes" in vars(g), g.name()
        assert g.classes == zero_set_classes(g.zero_sets), g.name()
        of, members, zero_sets = grouped_by_zero_set(g)
        got = g.classes
        assert (got.of, got.members, got.zero_sets) == (of, members, zero_sets), g.name()
        assert got.index == {z: c for c, z in enumerate(zero_sets)}


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


def reference_class_stability(g) -> bool:
    """Zero-set classes are stable sets and class pairs fully joined or fully
    apart, tested on every vertex pair."""
    groups = {}
    for i, zs in enumerate(g.zero_sets):
        groups.setdefault(zs, []).append(i)
    classes = list(groups.values())
    if any(g.is_edge(i, j) for members in classes for i in members for j in members if i < j):
        return False
    return all(len({g.is_edge(i, j) for i in classes[a] for j in classes[b]}) == 1
               for a in range(len(classes)) for b in range(a + 1, len(classes)))


def test_class_stability_and_representative_invariance():
    """The registered check tests that each zero-set class lies inside one
    twin class; it agrees with the per-pair reference, also once the edge
    between the first and the last vertex is flipped."""
    check = REGISTRY["comaximal.class_stability"].fn
    for n, k in ((2, 3), (3, 2), (3, 3), (4, 3)):
        ctx = RunContext(SuiteConfig())
        g = ctx.graph(n, GraphKind.COMAXIMAL, "expanded", alphabet=k)
        assert reference_class_stability(g)
        assert check(ctx, n, k).ok
        adj = list(g.adj)
        last = g.n_vertices - 1
        adj[0] ^= 1 << last
        adj[last] ^= 1
        broken = dataclasses.replace(g, adj=tuple(adj))
        key = next(key for key, cached in ctx._graphs.items() if cached is g)
        ctx._graphs[key] = broken
        # at k=2 every class is one vertex, so any graph passes
        assert check(ctx, n, k).ok == reference_class_stability(broken) == (k == 2), (n, k)


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
