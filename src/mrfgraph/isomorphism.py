"""Certified graph isomorphisms and refutations.

Isomorphic verdicts always carry a full vertex bijection that has been
re-verified row by row before being returned.  Refutations carry an
independently checkable certificate: a vertex/edge-count mismatch, an
eccentricity-class-count mismatch, a degree-multiset mismatch, or an
exhausted backtracking search (which records its node bound).  A search
that runs out of budget returns ``inconclusive`` rather than guessing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .graph_build import Graph, zero_set_classes
from .graph_metrics import _depth_first, _members, metrics
from .measure_space import complement

ISOMORPHIC = "isomorphic"
NOT_ISOMORPHIC = "not_isomorphic"
INCONCLUSIVE = "inconclusive"
# The default node budget of the backtracking search.
ISO_BUDGET = 200_000


@dataclass(frozen=True)
class IsoVerdict:
    outcome: str
    mapping: tuple[int, ...] | None = None
    certificate: dict | None = None
    nodes_explored: int = 0

    @property
    def is_isomorphic(self) -> bool:
        return self.outcome == ISOMORPHIC


def verify_mapping(g1: Graph, g2: Graph, mapping: tuple[int, ...]) -> bool:
    """Row-by-row check that ``mapping`` is an isomorphism g1 -> g2: the
    image of each adjacency row of g1 is the row of its image in g2."""
    n = g1.n_vertices
    if n != g2.n_vertices or sorted(mapping) != list(range(n)):
        return False
    return all(sum(1 << mapping[j] for j in _members(row)) == g2.adj[mapping[i]]
               for i, row in enumerate(g1.adj))


def complement_iso(g1: Graph, g2: Graph, budget: int = ISO_BUDGET) -> IsoVerdict:
    """Isomorphism test that tries the complement map first: the members of
    each zero-set class of ``g1`` are paired, in order, with the members of
    the class of ``g2`` whose zero set is the complement.

    When every class meets a complement class of the same size and the
    assembled map verifies row by row, it is returned with
    ``nodes_explored == 0``.  Otherwise the verdict is that of
    :func:`are_isomorphic`, whose eccentricity certificate is the natural
    discriminator between the zero-divisor and comaximal graphs."""
    if g1.n_vertices == 0:
        raise ValueError("complement isomorphism needs vertices; a one-atom space has none")
    space, targets = g1.space, g2.classes
    mapping = [-1] * g1.n_vertices
    for z, members in zip(g1.classes.zero_sets, g1.classes.members):
        c = targets.index.get(complement(space, z))
        if c is None or len(targets.members[c]) != len(members):
            break
        for src, dst in zip(members, targets.members[c]):
            mapping[src] = dst
    else:
        if verify_mapping(g1, g2, tuple(mapping)):
            return IsoVerdict(ISOMORPHIC, mapping=tuple(mapping))
    return are_isomorphic(g1, g2, budget=budget)


def _wl_colors(g1: Graph, g2: Graph, ecc1, ecc2) -> tuple[list[int], list[int]]:
    """Joint 1-dimensional Weisfeiler-Leman refinement over both graphs, run
    on their disjoint union: g1's vertices, then g2's with rows shifted past
    them.  Each round groups the vertices' signatures with
    :func:`zero_set_classes`, so colours are numbered by first appearance."""
    n1 = g1.n_vertices
    adj = g1.adj + tuple(row << n1 for row in g2.adj)
    colors = [(g1.degree(i), ecc1[i]) for i in range(n1)]
    colors += [(g2.degree(i), ecc2[i]) for i in range(g2.n_vertices)]
    while True:
        refined = zero_set_classes([(c, tuple(sorted(colors[j] for j in _members(row))))
                                    for c, row in zip(colors, adj)])
        stable = len(refined.members) == len(set(colors))
        colors = list(refined.of)
        if stable:
            return colors[:n1], colors[n1:]


def are_isomorphic(g1: Graph, g2: Graph, budget: int = ISO_BUDGET) -> IsoVerdict:
    """Generic deterministic isomorphism test: invariant certificates first,
    then partition-refined backtracking within the node budget.  Each search
    node maps one vertex of g1, in a fixed order, to each fitting candidate
    of its colour in turn, as a node generator on ``_depth_first``."""
    n = g1.n_vertices
    if n != g2.n_vertices:
        return IsoVerdict(NOT_ISOMORPHIC, certificate={
            "kind": "vertex-count", "left": n, "right": g2.n_vertices})
    if n == 0:
        return IsoVerdict(ISOMORPHIC, mapping=())
    m1, m2 = metrics(g1), metrics(g2)
    if m1.eccentricity_histogram() != m2.eccentricity_histogram():
        return IsoVerdict(NOT_ISOMORPHIC, certificate={
            "kind": "eccentricity-class-count",
            "left": m1.eccentricity_json(), "right": m2.eccentricity_json()})
    if g1.n_edges() != g2.n_edges():
        return IsoVerdict(NOT_ISOMORPHIC, certificate={
            "kind": "edge-count", "left": g1.n_edges(), "right": g2.n_edges()})
    deg1 = sorted(g1.degree(i) for i in range(n))
    deg2 = sorted(g2.degree(i) for i in range(n))
    if deg1 != deg2:
        return IsoVerdict(NOT_ISOMORPHIC, certificate={
            "kind": "degree-multiset", "left": deg1, "right": deg2})

    colors1, colors2 = _wl_colors(g1, g2, m1.eccentricity, m2.eccentricity)
    by_color = zero_set_classes(colors2)
    of_color = dict(zip(by_color.zero_sets, by_color.members))
    candidates = [of_color.get(c, ()) for c in colors1]
    color_count = Counter(colors1)
    order = sorted(range(n), key=lambda i: (color_count[colors1[i]], -g1.degree(i), i))

    # a candidate j for order[pos] fits when its placed neighbours are the
    # images of order[pos]'s; placed1/placed2 mask the vertices mapped so
    # far and their images, and ``mapping`` is read only on placed1, so a
    # backtracked entry needs no undo
    mapping = [-1] * n
    nodes = 0

    def place(pos: int, placed1: int, placed2: int):
        nonlocal nodes
        i = order[pos]
        image = sum(1 << mapping[p] for p in _members(g1.adj[i] & placed1))
        for j in candidates[i]:
            if placed2 >> j & 1:
                continue
            nodes += 1
            if nodes > budget:
                yield True  # out of budget: the search ends here
            if g2.adj[j] & placed2 == image:
                mapping[i] = j
                yield place(pos + 1, placed1 | 1 << i, placed2 | 1 << j) if pos + 1 < n else True

    found = _depth_first(place(0, 0, 0))
    if nodes > budget:
        return IsoVerdict(INCONCLUSIVE, nodes_explored=nodes)
    if not found:
        return IsoVerdict(NOT_ISOMORPHIC, nodes_explored=nodes, certificate={
            "kind": "exhausted-search", "nodes_explored": nodes, "budget": budget})
    final = tuple(mapping)
    if not verify_mapping(g1, g2, final):
        raise AssertionError("search produced a map that failed verification")
    return IsoVerdict(ISOMORPHIC, mapping=final, nodes_explored=nodes)
