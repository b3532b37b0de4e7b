"""Exact graph invariants: distances, girth, cycles through pairs, triangle
coverage, orthogonality/complementation, partiteness, and the NP-hard
parameters (clique, chromatic, dominating, total dominating) computed by
exact search only.

Infinite values (girth of a forest, smallest-cycle rank of a pair on no
cycle) are first-class and reported as ``inf``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial, wraps
from itertools import accumulate
from operator import or_

from .graph_build import BoundExceededError, Graph  # noqa: F401  (re-exported)
from .graph_build import ZeroSetClasses, _members
from .measure_space import (
    MeasurableSet,
    MeasureSpace,
    complement,
    covers,
    intersect,
    is_atom,
    is_disjoint,
    split_nonatom,
    union,
)

INF = math.inf
# The default vertex bound of each exact solver (``np_metrics``).
SOLVER_BOUND = 128


def _kept(fn):
    """Keep ``fn(g)`` in ``g.__dict__``, beside the graph's cached
    properties, so that each frozen graph computes it once."""
    key = "_kept_" + fn.__name__
    @wraps(fn)
    def kept(g: Graph):
        if key not in g.__dict__:
            g.__dict__[key] = fn(g)
        return g.__dict__[key]
    return kept


@dataclass(frozen=True)
class MetricsSummary:
    """All-pairs exact metrics of one graph.  Distances are not stored: the
    BFS levels over the twin quotient (``Graph.quotient``) from each class
    are, and a distance is read from them when a check asks for it."""

    eccentricity: tuple[float, ...]
    diameter: float
    girth: float
    connected: bool
    twins: ZeroSetClasses = field(compare=False, repr=False)
    levels: tuple[list[int], ...] = field(compare=False, repr=False)

    def distance(self, source: int, target: int) -> float:
        """Shortest-path distance, ``inf`` when unreachable: that of the two
        classes in the quotient, or for two members of one class 2 through a
        shared neighbour (``inf`` with none)."""
        a, b = self.twins.of[source], self.twins.of[target]
        if a == b and source != target:
            return 2 if len(self.levels[a]) > 1 else INF
        return next((d for d, level in enumerate(self.levels[a]) if level >> b & 1), INF)

    def eccentricity_histogram(self) -> dict[float, int]:
        hist: dict[float, int] = {}
        for e in self.eccentricity:
            hist[e] = hist.get(e, 0) + 1
        return hist

    def eccentricity_json(self) -> dict[str, int]:
        """The histogram as a JSON object: string keys, ascending."""
        return {str(e): count for e, count in sorted(self.eccentricity_histogram().items())}


def _levels(adj: tuple[int, ...], source: int, seen: int = 0) -> tuple[list[int], int, float]:
    """Breadth-first search from ``source`` as level masks: each level is the
    OR of its frontier's rows, masked by the vertices not yet seen (the
    bottom-up step of Beamer, Asanovic and Patterson's direction-optimizing
    BFS).  The vertices of ``seen`` count as reached from the start, so the
    search runs in the graph without them.

    Returns the levels, the mask of vertices reached (``seen`` among them),
    and the shortest cycle the search detects: 2d+1 for an edge inside level
    d, 2d+2 for a vertex of level d+1 with two neighbours in level d, ``inf``
    for neither.  Each is the length of a closed walk that contains a cycle,
    so it bounds the girth from above; from a vertex on a shortest cycle it
    equals the girth, so the minimum over all sources is exact.
    """
    frontier = 1 << source
    reached = frontier | seen
    levels = [frontier]
    cycle = INF
    while True:
        unseen = ~reached
        nxt = twice = inner = 0
        probe = frontier
        while probe:
            bit = probe & -probe
            probe ^= bit
            row = adj[bit.bit_length() - 1]
            inner |= row & frontier
            row &= unseen
            twice |= nxt & row
            nxt |= row
        if cycle == INF and (inner or twice):
            cycle = 2 * len(levels) - (1 if inner else 0)
        if not nxt:
            return levels, reached, cycle
        reached |= nxt
        levels.append(nxt)
        frontier = nxt


@_kept
def metrics(g: Graph) -> MetricsSummary:
    """Eccentricities, diameter and girth from one level-set BFS per class of
    the twin quotient (``Graph.quotient``).  A class of two or more members
    adds distance 2 inside itself (``inf`` with no neighbour) and, with two
    or more neighbouring vertices, a 4-cycle; every other cycle of the graph
    is a cycle of the quotient."""
    if g.n_vertices == 0:
        raise ValueError("metrics of an empty graph are undefined")
    q, members = g.quotient, g.twins.members
    full = (1 << len(q)) - 1
    searches = [_levels(q, c) for c in range(len(q))]
    ecc = [len(levels) - 1 if reached == full else INF for levels, reached, _ in searches]
    girth = min(cycle for _, _, cycle in searches)
    for c, row in enumerate(q):
        if len(members[c]) > 1:
            ecc[c] = max(ecc[c], 2) if row else INF
            if sum(len(members[b]) for b in _members(row)) > 1:
                girth = min(girth, 4)
    diameter = max(ecc)
    return MetricsSummary(tuple(ecc[c] for c in g.twins.of), diameter, girth, diameter < INF,
                          g.twins, tuple(levels for levels, _, _ in searches))


def cycle_rank(g: Graph, u: int, v: int, max_len: int = 8) -> float:
    """Length of the smallest cycle containing both vertices, or ``inf`` if
    none exists within ``max_len``.

    A cycle through u and v splits into two internally disjoint u-v paths of
    a and b edges, a <= b.  For every total length up to the cap and every
    split, one search on ``_depth_first`` walks the u-v paths of a edges, and
    each one it finds opens, as its child, the search for a b-edge path that
    avoids it; the first such pair ends the search.  No path passes through
    u again, so a step is pruned when it leaves too few edges to reach v in
    the graph without u (``ball[d]`` masks the vertices within distance d of
    v there).
    """
    if max_len < 3:
        raise ValueError("max_len must be at least 3")
    if u == v:
        raise ValueError("cycle rank takes two distinct vertices")
    if not (0 <= u < g.n_vertices and 0 <= v < g.n_vertices):
        raise ValueError(f"cycle rank takes vertices of the graph, not {u} and {v}")
    adj, target = g.adj, 1 << v
    ball = list(accumulate(_levels(adj, v, seen=1 << u)[0], or_))
    ball += [ball[-1]] * (max_len - len(ball))

    def path(x: int, steps: int, used: int, then):
        """The simple x-v paths of ``steps`` edges that avoid ``used``: at v,
        yield ``then(used)``."""
        row = adj[x] & ~used
        if steps == 1:
            if row & target:
                yield then(used)
            return
        for w in _members(row & ball[steps - 1] & ~target):
            yield path(w, steps - 1, used | 1 << w, then)

    for total in range(3, max_len + 1):
        for a in range(1, total // 2 + 1):
            second = partial(path, u, total - a, then=lambda _: True)
            if _depth_first(path(u, a, 1 << u, second)):
                return total
    return INF


@dataclass(frozen=True)
class TriangleProfile:
    """Triangle coverage, orthogonality and complementation of every vertex
    and every edge.  Edge facts are kept per ordered pair of vertex classes:
    ``flagged[a]`` masks the classes whose edges to class ``a`` lie on a
    triangle, ``partners[a]`` those whose edges to it lie on none (its
    orthogonal partners), and ``of`` gives each vertex's class."""

    is_triangulated: bool
    is_hypertriangulated: bool
    vertex_flags: tuple[bool, ...]
    has_complement: tuple[bool, ...]
    is_complemented: bool
    is_uniquely_complemented: bool
    of: tuple[int, ...] = field(repr=False)
    flagged: tuple[int, ...] = field(repr=False)
    partners: tuple[int, ...] = field(repr=False)

    def edge_flag(self, i: int, j: int) -> bool:
        """Whether the edge i-j lies on a triangle."""
        return bool(self.flagged[self.of[i]] >> self.of[j] & 1)

    def is_orthogonal(self, i: int, j: int) -> bool:
        """Whether i and j are adjacent with no common neighbour."""
        return bool(self.partners[self.of[i]] >> self.of[j] & 1)


def comaximal_triangle_zero_sets(space: MeasureSpace, zs: MeasurableSet):
    """Zero sets of two vertices forming a comaximal triangle with the vertex
    whose zero set is ``zs``: split the cozero set and take the halves."""
    return split_nonatom(space, complement(space, zs))


def annihilator_common_neighbor_zero_set(space: MeasureSpace, zu: MeasurableSet,
                                         zv: MeasurableSet) -> MeasurableSet | None:
    """Zero set of a vertex adjacent to both in the annihilator graph, or
    ``None`` when no common neighbor exists (orthogonal pairs only)."""
    if not covers(space, zu, zv):
        return complement(space, union(space, zu, zv))
    if not is_disjoint(space, zu, zv):
        return complement(space, intersect(space, zu, zv))
    if is_atom(space, zu) or is_atom(space, zv):
        return None
    a1, _a2 = split_nonatom(space, zu)
    b1, _b2 = split_nonatom(space, zv)
    return complement(space, union(space, a1, b1))


@_kept
def triangle_profile(g: Graph) -> TriangleProfile:
    """Triangle coverage, orthogonality ('adjacent with no common neighbor',
    equivalently the smallest common cycle is longer than a triangle) and
    unique complementation, read from the twin quotient (``Graph.quotient``)
    in one pass over its class pairs: an edge lies on a triangle when the
    quotient rows of its two classes meet, and is orthogonal when they do
    not; a vertex lies on a triangle when one of its edges does.  The
    partners of a vertex all have one neighborhood exactly when they lie in
    one twin class, since distinct twin classes have distinct rows.  Like
    every function here it reads the rows alone, so a sampled graph's flags
    describe the sample, not the full graph."""
    if g.n_vertices == 0:
        raise ValueError("triangle profile of an empty graph is undefined")
    q, of = g.quotient, g.twins.of
    flagged = tuple(sum(1 << b for b in _members(row) if row & q[b]) for row in q)
    partners = tuple(row & ~meet for row, meet in zip(q, flagged))
    vertex_flags = tuple(bool(flagged[c]) for c in of)
    has = tuple(bool(partners[c]) for c in of)
    unique = all(has) and all(p.bit_count() == 1 for p in partners)
    return TriangleProfile(all(vertex_flags), any(q) and q == flagged, vertex_flags,
                           has, all(has), unique, of, flagged, partners)


# Another name for the same profile: the package exports it, and
# perfbench/tracing.py wraps it by this name.
complementation_profile = triangle_profile


@dataclass(frozen=True)
class Partiteness:
    is_bipartite: bool
    is_complete_bipartite: bool
    multipartite_parts: tuple[tuple[int, ...], ...] | None


@_kept
def partiteness(g: Graph) -> Partiteness:
    """Bipartiteness as 'no edge inside any BFS level' over every component
    of the twin quotient (``Graph.quotient``), which has the graph's odd
    cycles.  A graph is complete multipartite exactly when each twin class
    is joined to every other; its parts are then the twin classes, and it is
    complete bipartite when there are two."""
    if g.n_vertices == 0:
        raise ValueError("partiteness of an empty graph is undefined")
    q = g.quotient
    levels, seen = [], 0
    for s in range(len(q)):
        if not seen >> s & 1:
            found, reached, _ = _levels(q, s)
            seen |= reached
            levels += found
    bipartite = not any(q[x] & level for level in levels for x in _members(level))
    full = (1 << len(q)) - 1
    joined = all(row == full ^ 1 << c for c, row in enumerate(q))
    parts = g.twins.members if joined else None
    return Partiteness(bipartite, joined and len(parts) == 2, parts)


def _depth_first(root) -> bool:
    """Run a depth-first search whose nodes are generators: a node yields its
    children, in order, as generators, and yields ``True`` to end the whole
    search.  The open ancestors of the current node sit on one list, so the
    depth is not limited by recursion.  Returns whether some node yielded
    ``True``; the nodes still open then are never resumed, so the state
    they changed stays as it is."""
    node, parents = root, []
    while True:
        for child in node:
            if child is True:
                return True
            parents.append(node)
            node = child
            break
        else:
            if not parents:
                return False
            node = parents.pop()


def _max_clique(rows: tuple[int, ...], n: int) -> tuple[int, list[int]]:
    """Branch and bound with a greedy-coloring bound: each node colours its
    candidates greedily and branches on them from the highest colour down,
    while the clique so far plus that colour can beat the best one."""
    best: list[int] = []
    r: list[int] = []

    def color_order(p_mask: int) -> tuple[list[int], list[int]]:
        order, bounds = [], []
        color = 0
        uncolored = p_mask
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

    def expand(p_mask: int):
        nonlocal best
        order, bounds = color_order(p_mask)
        for idx in range(len(order) - 1, -1, -1):
            if len(r) + bounds[idx] <= len(best):
                return
            v = order[idx]
            r.append(v)
            if p_mask & rows[v]:
                yield expand(p_mask & rows[v])
            elif len(r) > len(best):
                best = r[:]
            r.pop()
            p_mask &= ~(1 << v)

    if n == 0:
        return 0, []
    _depth_first(expand((1 << n) - 1))
    return len(best), sorted(best)


def _dsatur(rows: tuple[int, ...], n: int, k: int, preset: list[int]) -> list[int] | None:
    """Backtracking DSATUR (Brélaz 1979): colour next the uncoloured vertex of
    most distinct neighbour colours, then highest degree, then lowest index;
    try its allowed colours smallest first, never opening more than one new
    colour.  The preset colours are fixed (a clique, as symmetry breaking).
    With k = n the first descent never backtracks and is the greedy DSATUR
    colouring.  Returns a proper colouring with colours below k, or ``None``.

    Saturation counts are kept incrementally from one member mask per colour:
    a node colours its vertex, raises the scores of the neighbours that see a
    new colour, and lowers them again once its child is done."""
    colors = preset[:]
    members = [0] * k
    for v, c in enumerate(colors):
        if c >= 0:
            members[c] |= 1 << v
    used = max(colors, default=-1) + 1
    # score = saturation * n + rank of (degree, -index): one int per vertex
    rank = sorted(range(n), key=lambda v: (rows[v].bit_count(), -v))
    score = [0] * n
    for r, v in enumerate(rank):
        score[v] = r + n * sum(1 for m in members[:used] if rows[v] & m)
    pending = [v for v in range(n) if colors[v] < 0]

    def color(used: int, pending_mask: int):
        """Colour the best pending vertex; ``used`` counts the colours in use."""
        u = max(pending, key=score.__getitem__)
        pending.remove(u)
        pending_mask ^= 1 << u
        row = rows[u]
        for c in range(min(k, used + 1)):
            if row & members[c]:
                continue
            colors[u] = c
            members[c] |= 1 << u
            for w in _members(row & pending_mask):
                if rows[w] & members[c] == 1 << u:  # c is new around w
                    score[w] += n
            yield color(max(used, c + 1), pending_mask) if pending else True
            colors[u] = -1
            members[c] ^= 1 << u
            for w in _members(row & pending_mask):
                if not rows[w] & members[c]:  # c is gone around w
                    score[w] -= n
        pending.append(u)

    if pending and not _depth_first(color(used, sum(1 << v for v in pending))):
        return None
    return colors


def _chromatic(rows: tuple[int, ...], n: int) -> tuple[int, list[int]]:
    if n == 0:
        return 0, []
    clique_size, clique = _max_clique(rows, n)
    greedy = _dsatur(rows, n, n, [-1] * n)
    ub = max(greedy) + 1
    if clique_size == ub:
        return ub, greedy
    preset = [-1] * n
    for c, v in enumerate(clique):
        preset[v] = c
    for k in range(clique_size, ub):
        result = _dsatur(rows, n, k, preset)
        if result is not None:
            return k, result
    return ub, greedy


def _min_dominating(rows: tuple[int, ...], n: int, total: bool) -> tuple[float, list[int]]:
    """Iterative-deepening exact search; branches on the vertex with the
    fewest available dominators, which by symmetry are its own cover.  Each
    node adds one dominator to ``chosen`` and takes it out once its child is
    done."""
    full = (1 << n) - 1
    cover = [rows[i] | (0 if total else 1 << i) for i in range(n)]
    if any(c == 0 for c in cover):
        return INF, []
    max_cover = max(c.bit_count() for c in cover)
    chosen: list[int] = []

    def dominators(covered: int, remaining: int) -> int:
        """The cover of the uncovered vertex with the smallest cover, or 0
        when ``remaining`` more vertices cannot cover the rest."""
        uncovered = full & ~covered
        if remaining == 0 or uncovered.bit_count() > remaining * max_cover:
            return 0
        best, best_count = 0, n + 1
        for i in _members(uncovered):
            cnt = cover[i].bit_count()
            if cnt < best_count:
                best_count, best = cnt, cover[i]
        return best

    def dominate(covered: int, remaining: int):
        options = dominators(covered, remaining)
        while options:
            bit = options & -options
            options ^= bit
            v = bit.bit_length() - 1
            chosen.append(v)
            now = covered | cover[v]
            yield True if now == full else dominate(now, remaining - 1)
            chosen.pop()

    for size in range(1, n + 1):
        if _depth_first(dominate(0, size)):
            return len(chosen), sorted(chosen)
    return INF, []


# The exact solvers by parameter name: the bound each one obeys, and the search.
SOLVERS = {
    "clique": ("clique", _max_clique),
    "chromatic": ("chromatic", _chromatic),
    "dominating": ("dominating", partial(_min_dominating, total=False)),
    "total_dominating": ("dominating", partial(_min_dominating, total=True)),
}


def np_metrics(g: Graph, which: tuple[str, ...] = ("clique",),
               clique_bound: int = SOLVER_BOUND, chromatic_bound: int = SOLVER_BOUND,
               dominating_bound: int = SOLVER_BOUND) -> dict[str, tuple[float, list[int]]]:
    """Exact optima with witnesses; raises BoundExceededError instead of
    running heuristics past the configured sizes."""
    n = g.n_vertices
    if n == 0:
        raise ValueError("parameters of an empty graph are undefined")
    bounds = {"clique": clique_bound, "chromatic": chromatic_bound,
              "dominating": dominating_bound}
    out: dict[str, tuple[float, list[int]]] = {}
    for name in which:
        if name not in SOLVERS:
            raise ValueError(f"unknown parameter {name!r}")
        label, solve = SOLVERS[name]
        if n > bounds[label]:
            raise BoundExceededError(f"{n} vertices exceed {label} bound {bounds[label]}")
        out[name] = solve(g.adj, n)
    return out
