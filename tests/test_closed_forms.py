"""The rule checks' closed forms on atom masks against the set-algebra forms
they replaced.

Every ``want`` of a rule row reads the mask of X and the zero-set masks of
one class (``want(full, z)``) or of a class pair (``want(full, a, b)``).
The references below state each rule through the validated set-algebra API
(``is_disjoint``, ``covers``, ``is_atom``, ``complement``, ``null_equal``,
``adjacent``), as the closed forms did before; the two must agree on every
class and every class pair of the rows' graphs, under unit and random
positive weights."""

import pytest

from mrfgraph import checks
from mrfgraph.graph_build import GraphKind, adjacent, build_graph
from mrfgraph.harness import REGISTRY, RunContext, SuiteConfig, make_weights
from mrfgraph.measure_space import AtomicSpace, complement, covers, is_atom, is_disjoint, null_equal
from mrfgraph.vertex_universe import UNIT_INTERVAL, sample_interval_classes


def reference_comaximal_distance(space, zu, zv) -> int:
    if is_disjoint(space, zu, zv):
        return 1
    if not covers(space, zu, zv):
        return 2
    return 3


def reference_comaximal_cycle(space, zu, zv) -> int:
    zeros_null = is_disjoint(space, zu, zv)
    cozs_null = covers(space, zu, zv)
    if zeros_null and not cozs_null:
        return 3
    if zeros_null == cozs_null:
        return 4
    return 6


def reference_orthogonal_comaximal(space, zu, zv) -> bool:
    return is_disjoint(space, zu, zv) and covers(space, zu, zv)


def reference_orthogonal_annihilator(space, zu, zv) -> bool:
    return (reference_orthogonal_comaximal(space, zu, zv)
            and (is_atom(space, zu) or is_atom(space, zv)))


def reference_annihilator_cycle(space, zu, zv) -> int:
    edge = adjacent(GraphKind.ANNIHILATOR, space, zu, zv)
    return 3 if edge and not reference_orthogonal_annihilator(space, zu, zv) else 4


# The reference of every rule read through ``_pair_mismatches`` or
# ``_vertex_mismatches``, by check id.
REFERENCES = {
    "comaximal.distance_formula": reference_comaximal_distance,
    "comaximal.cycle_rank_cases": reference_comaximal_cycle,
    "comaximal.orthogonality_rule": reference_orthogonal_comaximal,
    "comaximal.neighborhood_rule": null_equal,
    "annihilator.orthogonality_rule": reference_orthogonal_annihilator,
    "annihilator.cycle_rank_cases": reference_annihilator_cycle,
    "comaximal.eccentricity_formula": lambda space, z: 2 if is_atom(space, z) else 3,
    "comaximal.triangle_vertex_rule": lambda space, z: not is_atom(space, complement(space, z)),
    "zero_divisor.triangle_vertex_rule": lambda space, z: not is_atom(space, z),
    "zero_divisor.eccentricity_formula":
        lambda space, z: 2 if is_atom(space, complement(space, z)) else 3,
    "annihilator.orthogonal_complement_rule":
        lambda space, z: is_atom(space, z) or is_atom(space, complement(space, z)),
    "weakly_zd.self_adjacency_rule": lambda space, z: not is_atom(space, z),
}
SELF_ADJACENCY = "weakly_zd.self_adjacency_rule"


def row_wants() -> dict:
    """``(want, compare)`` of every rule row, read off the closure that
    ``checks._mismatch_row`` registered."""
    out = {}
    for check_id, check in REGISTRY.items():
        code = getattr(check.fn, "__code__", None)
        if code is None or not check.fn.__closure__:
            continue
        free = dict(zip(code.co_freevars, (c.cell_contents for c in check.fn.__closure__)))
        if "want" in free and "compare" in free:
            out[check_id] = free["want"], free["compare"]
    return out


def self_adjacency_want(monkeypatch):
    """The ``want`` that ``weakly_zd.self_adjacency_rule`` hands to
    ``_vertex_mismatches``."""
    seen = []
    with monkeypatch.context() as m:
        m.setattr(checks, "_vertex_mismatches", lambda g, want, got: seen.append(want) or 0)
        REGISTRY[SELF_ADJACENCY].fn(RunContext(SuiteConfig()), 2, 2)
    return seen[0]


def mask_wants(monkeypatch) -> dict:
    """Every rule's ``(want, compare)``: the rows' and the self-adjacency
    rule's."""
    wants = row_wants()
    wants[SELF_ADJACENCY] = self_adjacency_want(monkeypatch), checks._vertex_mismatches
    return wants


def test_every_rule_has_a_reference(monkeypatch):
    wants = mask_wants(monkeypatch)
    assert set(wants) == set(REFERENCES)
    assert {compare for _, compare in wants.values()} == {checks._pair_mismatches,
                                                         checks._vertex_mismatches}
    # annihilator.edge_triangle_rule reads the same orthogonality form
    assert wants["annihilator.orthogonality_rule"][0] is checks.orthogonal_annihilator


GRAPHS = [("quotient", n, None) for n in range(2, 8)] + [("expanded", n, 3) for n in range(2, 6)]


@pytest.mark.parametrize("weights", ["unit", "random-positive"])
@pytest.mark.parametrize("mode, n, k", GRAPHS)
def test_mask_forms_match_set_algebra_reference(mode, n, k, weights, monkeypatch):
    """Each rule's mask form equals its reference, value and type, on every
    class (vertex rules) and every ordered class pair, the diagonal included
    (pair rules), of the graph the rule reads; ``_cell_pairs`` hands each
    representative pair its classes' zero-set masks."""
    space = AtomicSpace(make_weights(n, weights, 7))
    graphs = {}
    for check_id, (want, compare) in mask_wants(monkeypatch).items():
        kind = GraphKind.COMAXIMAL if check_id == SELF_ADJACENCY else \
            GraphKind(check_id.partition(".")[0])
        if kind not in graphs:
            graphs[kind] = build_graph(space, kind, mode, alphabet=k)
        g = graphs[kind]
        full, zsets, of = (1 << n) - 1, g.classes.zero_sets, g.classes.of
        masks = [z.mask for z in zsets]
        assert all(a == masks[of[i]] and b == masks[of[j]] for i, j, a, b, _ in checks._cell_pairs(g))
        reference = REFERENCES[check_id]
        for a, za in enumerate(zsets):
            if compare is checks._vertex_mismatches:
                pairs = [(want(full, masks[a]), reference(space, za))]
            else:
                pairs = [(want(full, masks[a], masks[b]), reference(space, za, zb))
                         for b, zb in enumerate(zsets)]
            for got, ref in pairs:
                assert got == ref and type(got) is type(ref), (check_id, g.name(), a)


def test_rule_rows_refuse_an_interval_graph():
    """The closed forms read atom masks, so a sampled interval graph, which
    has no atom count, fails loudly instead of reading its cut lists."""
    g = build_graph(UNIT_INTERVAL, GraphKind.COMAXIMAL, sample=sample_interval_classes(1, 6))
    assert g.n_vertices > 1
    with pytest.raises(AttributeError):
        checks._pair_mismatches(g, checks.expected_comaximal_distance, lambda i, j: 1)
    with pytest.raises(AttributeError):
        checks._vertex_mismatches(g, lambda full, z: True, [True] * g.n_vertices)
