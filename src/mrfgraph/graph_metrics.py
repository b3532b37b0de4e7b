"""Exact graph invariants: distances, girth, cycles through pairs, triangle
coverage, orthogonality/complementation, partiteness, and the NP-hard
parameters (clique, chromatic, dominating, total dominating) computed by
exact search only.

Infinite values (girth of a forest, smallest-cycle rank of a pair on no
cycle) are first-class and reported as ``inf``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .graph_build import Graph, GraphKind
from .measure_space import (
    ATOMIC,
    MeasurableSet,
    MeasureSpace,
    complement,
    intersect,
    is_atom,
    is_null,
    split_nonatom,
    union,
)

INF = math.inf


class BoundExceededError(ValueError):
    """Input exceeds a configured bound on exhaustive work: a solver's vertex
    bound, or (raised by checks) the oracle's atom bound."""


@dataclass(frozen=True)
class MetricsSummary:
    """All-pairs exact metrics of one graph."""

    distances: tuple[tuple[float, ...], ...]
    eccentricity: tuple[float, ...]
    diameter: float
    girth: float
    connected: bool

    def eccentricity_histogram(self) -> dict[float, int]:
        hist: dict[float, int] = {}
        for e in self.eccentricity:
            hist[e] = hist.get(e, 0) + 1
        return hist


def _bfs_distances(adj: tuple[int, ...], n: int, source: int) -> list[float]:
    dist: list[float] = [INF] * n
    dist[source] = 0
    q = deque([source])
    while q:
        x = q.popleft()
        row = adj[x]
        while row:
            bit = row & -row
            row ^= bit
            y = bit.bit_length() - 1
            if dist[y] is INF:
                dist[y] = dist[x] + 1
                q.append(y)
    return dist


def _girth(adj: tuple[int, ...], n: int) -> float:
    """Shortest cycle length via BFS from every vertex; non-tree edges close
    walks of length d(x)+d(y)+1, and the minimum over all starts is exact."""
    best = INF
    for s in range(n):
        dist = [-1] * n
        parent = [-1] * n
        dist[s] = 0
        q = deque([s])
        while q:
            x = q.popleft()
            if best < INF and 2 * dist[x] >= best:
                continue
            row = adj[x]
            while row:
                bit = row & -row
                row ^= bit
                y = bit.bit_length() - 1
                if dist[y] == -1:
                    dist[y] = dist[x] + 1
                    parent[y] = x
                    q.append(y)
                elif y != parent[x]:
                    cand = dist[x] + dist[y] + 1
                    if cand < best:
                        best = cand
    return best


def metrics(g: Graph) -> MetricsSummary:
    """Breadth-first all-pairs distances, eccentricities and girth, exact."""
    n = g.n_vertices
    if n == 0:
        raise ValueError("metrics of an empty graph are undefined")
    distances = tuple(tuple(_bfs_distances(g.adj, n, s)) for s in range(n))
    ecc = tuple(max(row[j] for j in range(n) if j != s) if n > 1 else 0
                for s, row in enumerate(distances))
    diameter = max(ecc)
    connected = diameter < INF
    return MetricsSummary(distances, ecc, diameter, _girth(g.adj, n), connected)


def _paths_of_length(g: Graph, u: int, v: int, length: int, banned: int,
                     dist_to_v: list[float]) -> list[int]:
    """Internal-vertex masks of simple u->v paths with exactly ``length``
    edges avoiding ``banned`` vertices; pruned by BFS distance to v."""
    results: list[int] = []

    def dfs(x: int, steps: int, internal: int) -> None:
        if dist_to_v[x] > steps:
            return
        row = g.adj[x] & ~banned & ~internal & ~(1 << u)
        if steps == 1:
            if row >> v & 1:
                results.append(internal)
            return
        row &= ~(1 << v)
        while row:
            bit = row & -row
            row ^= bit
            y = bit.bit_length() - 1
            dfs(y, steps - 1, internal | bit)

    if length == 1:
        if g.is_edge(u, v):
            results.append(0)
    else:
        dfs(u, length, 0)
    return results


def _exists_path(g: Graph, u: int, v: int, length: int, banned: int,
                 dist_to_v: list[float]) -> bool:
    def dfs(x: int, steps: int, internal: int) -> bool:
        if dist_to_v[x] > steps:
            return False
        row = g.adj[x] & ~banned & ~internal & ~(1 << u)
        if steps == 1:
            return bool(row >> v & 1)
        row &= ~(1 << v)
        while row:
            bit = row & -row
            row ^= bit
            y = bit.bit_length() - 1
            if dfs(y, steps - 1, internal | bit):
                return True
        return False

    if length == 1:
        return g.is_edge(u, v)
    return dfs(u, length, 0)


def cycle_rank(g: Graph, u: int, v: int, max_len: int = 8) -> float:
    """Length of the smallest cycle containing both vertices, or ``inf`` if
    none exists within ``max_len``.

    A cycle through u and v splits into two internally disjoint u-v paths;
    the bounded exhaustive search enumerates the shorter side and checks for
    a disjoint longer side, for every total length up to the cap.
    """
    if max_len < 3:
        raise ValueError("max_len must be at least 3")
    if u == v:
        raise ValueError("cycle rank takes two distinct vertices")
    dist_to_v = _bfs_distances(g.adj, g.n_vertices, v)
    path_cache: dict[int, list[int]] = {}
    for total in range(3, max_len + 1):
        for a in range(1, total // 2 + 1):
            b = total - a
            if a not in path_cache:
                path_cache[a] = _paths_of_length(g, u, v, a, 0, dist_to_v)
            for internal_a in path_cache[a]:
                if _exists_path(g, u, v, b, internal_a, dist_to_v):
                    return total
    return INF


@dataclass(frozen=True)
class TriangleProfile:
    is_triangulated: bool
    is_hypertriangulated: bool
    vertex_flags: tuple[bool, ...]
    edge_flags: tuple[tuple[tuple[int, int], bool], ...]
    vertex_witnesses: tuple
    edge_witnesses: tuple


def comaximal_triangle_zero_sets(space: MeasureSpace, zs: MeasurableSet):
    """Zero sets of two vertices forming a comaximal triangle with the vertex
    whose zero set is ``zs``: split the cozero set and take the halves."""
    a, b = split_nonatom(space, complement(space, zs))
    return a, b


def zero_divisor_triangle_zero_sets(space: MeasureSpace, zs: MeasurableSet):
    """Same construction for the zero-divisor graph: split the zero set and
    complement the halves."""
    a, b = split_nonatom(space, zs)
    return complement(space, a), complement(space, b)


def annihilator_common_neighbor_zero_set(space: MeasureSpace, zu: MeasurableSet,
                                         zv: MeasurableSet) -> MeasurableSet | None:
    """Zero set of a vertex adjacent to both in the annihilator graph, or
    ``None`` when no common neighbor exists (orthogonal pairs only)."""
    cozu, cozv = complement(space, zu), complement(space, zv)
    if not is_null(space, intersect(space, cozu, cozv)):
        return complement(space, union(space, zu, zv))
    if not is_null(space, intersect(space, zu, zv)):
        return complement(space, intersect(space, zu, zv))
    if is_atom(space, zu) or is_atom(space, zv):
        return None
    a1, _a2 = split_nonatom(space, zu)
    b1, _b2 = split_nonatom(space, zv)
    return complement(space, union(space, a1, b1))


def triangle_profile(g: Graph) -> TriangleProfile:
    """Triangle coverage with explicit witnesses.

    Atomic-backend graphs are searched directly.  Sampled interval-backend
    graphs get their flags from the defining measure predicates, with the
    witness triangles constructed by splitting sets rather than searched, so
    the flags describe the full graph and not just the sample.
    """
    n = g.n_vertices
    if n == 0:
        raise ValueError("triangle profile of an empty graph is undefined")
    if g.space.backend == ATOMIC:
        vertex_flags, vertex_wits = [], []
        for i in range(n):
            row = g.adj[i]
            wit = None
            probe = row
            while probe and wit is None:
                bit = probe & -probe
                probe ^= bit
                j = bit.bit_length() - 1
                both = g.adj[j] & row
                if both:
                    k = (both & -both).bit_length() - 1
                    wit = (i, j, k)
            vertex_flags.append(wit is not None)
            vertex_wits.append(wit)
        edge_flags, edge_wits = [], []
        for i, j in g.edges():
            both = g.adj[i] & g.adj[j]
            flag = bool(both)
            edge_flags.append(((i, j), flag))
            edge_wits.append(((i, j), (both & -both).bit_length() - 1 if flag else None))
        return TriangleProfile(all(vertex_flags), bool(edge_flags) and all(f for _, f in edge_flags),
                               tuple(vertex_flags), tuple(edge_flags),
                               tuple(vertex_wits), tuple(edge_wits))

    space = g.space
    vertex_flags, vertex_wits = [], []
    for i in range(n):
        zs = g.zero_sets[i]
        if g.kind is GraphKind.COMAXIMAL:
            ok = not is_atom(space, complement(space, zs))
            wit = comaximal_triangle_zero_sets(space, zs) if ok else None
        elif g.kind is GraphKind.ZERO_DIVISOR:
            ok = not is_atom(space, zs)
            wit = zero_divisor_triangle_zero_sets(space, zs) if ok else None
        elif g.kind is GraphKind.ANNIHILATOR:
            if not is_atom(space, complement(space, zs)):
                ok, wit = True, comaximal_triangle_zero_sets(space, zs)
            elif not is_atom(space, zs):
                ok, wit = True, zero_divisor_triangle_zero_sets(space, zs)
            else:
                ok, wit = False, None
        else:
            ok = n >= 3  # complete multipartite on distinct atomic classes
            wit = None
        vertex_flags.append(ok)
        vertex_wits.append(wit)
    edge_flags, edge_wits = [], []
    for i, j in g.edges():
        zu, zv = g.zero_sets[i], g.zero_sets[j]
        if g.kind is GraphKind.COMAXIMAL:
            flag = not is_null(space, intersect(space, complement(space, zu), complement(space, zv)))
            wit = complement(space, union(space, zu, zv)) if flag else None
        elif g.kind is GraphKind.ZERO_DIVISOR:
            flag = not is_null(space, intersect(space, zu, zv))
            wit = intersect(space, zu, zv) if flag else None
        elif g.kind is GraphKind.ANNIHILATOR:
            wit = annihilator_common_neighbor_zero_set(space, zu, zv)
            flag = wit is not None
        else:
            flag = n >= 3
            wit = None
        edge_flags.append(((i, j), flag))
        edge_wits.append(((i, j), wit))
    return TriangleProfile(all(vertex_flags), bool(edge_flags) and all(f for _, f in edge_flags),
                           tuple(vertex_flags), tuple(edge_flags),
                           tuple(vertex_wits), tuple(edge_wits))


@dataclass(frozen=True)
class ComplementationProfile:
    orthogonal_pairs: tuple[tuple[int, int], ...]
    has_complement: tuple[bool, ...]
    is_complemented: bool
    is_uniquely_complemented: bool


def complementation_profile(g: Graph) -> ComplementationProfile:
    """Orthogonality as 'adjacent with no common neighbor' (equivalently the
    smallest common cycle is longer than a triangle); unique complementation
    by literal neighborhood equality across each vertex's partners."""
    n = g.n_vertices
    if n == 0:
        raise ValueError("complementation profile of an empty graph is undefined")
    pairs = [(i, j) for i, j in g.edges() if not g.adj[i] & g.adj[j]]
    partners: list[list[int]] = [[] for _ in range(n)]
    for i, j in pairs:
        partners[i].append(j)
        partners[j].append(i)
    has = tuple(bool(p) for p in partners)
    complemented = all(has)
    unique = complemented
    if complemented:
        for plist in partners:
            first = plist[0]
            if any(g.adj[q] != g.adj[first] for q in plist[1:]):
                unique = False
                break
    return ComplementationProfile(tuple(pairs), has, complemented, unique)


@dataclass(frozen=True)
class Partiteness:
    is_bipartite: bool
    is_complete_bipartite: bool
    multipartite_parts: tuple[tuple[int, ...], ...] | None


def partiteness(g: Graph) -> Partiteness:
    """Bipartiteness by 2-coloring; complete multipartiteness by checking
    that non-adjacency is an equivalence relation with all cross pairs
    joined (parts returned when detected)."""
    n = g.n_vertices
    if n == 0:
        raise ValueError("partiteness of an empty graph is undefined")
    color = [-1] * n
    bipartite = True
    for s in range(n):
        if color[s] != -1:
            continue
        color[s] = 0
        q = deque([s])
        while q and bipartite:
            x = q.popleft()
            for y in g.neighbors(x):
                if color[y] == -1:
                    color[y] = 1 - color[x]
                    q.append(y)
                elif color[y] == color[x]:
                    bipartite = False
                    break
    complete_bipartite = False
    if bipartite and n >= 2 and all(c != -1 for c in color):
        left = [i for i in range(n) if color[i] == 0]
        right = [i for i in range(n) if color[i] == 1]
        if left and right:
            complete_bipartite = all(g.is_edge(i, j) for i in left for j in right)
            # a complete bipartite graph is connected, so the 2-coloring
            # above is only trustworthy when the graph is connected
            if complete_bipartite:
                complete_bipartite = _connected(g)
    parts = _complete_multipartite_parts(g)
    return Partiteness(bipartite, complete_bipartite, parts)


def _connected(g: Graph) -> bool:
    dist = _bfs_distances(g.adj, g.n_vertices, 0)
    return all(d < INF for d in dist)


def _complete_multipartite_parts(g: Graph):
    n = g.n_vertices
    full = (1 << n) - 1
    seen = 0
    parts = []
    for s in range(n):
        if seen >> s & 1:
            continue
        non_adj = full & ~g.adj[s]
        part = [i for i in range(n) if non_adj >> i & 1]
        # all members must share the same non-neighborhood (transitivity)
        for i in part:
            if (full & ~g.adj[i]) != non_adj:
                return None
        parts.append(tuple(part))
        seen |= non_adj
    for a in range(len(parts)):
        for b in range(a + 1, len(parts)):
            if not all(g.is_edge(i, j) for i in parts[a] for j in parts[b]):
                return None
    return tuple(parts)


def _max_clique(rows: tuple[int, ...], n: int) -> tuple[int, list[int]]:
    """Branch and bound with a greedy-coloring bound."""
    best: list[int] = []

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

    def expand(r: list[int], p_mask: int) -> None:
        nonlocal best
        order, bounds = color_order(p_mask)
        for idx in range(len(order) - 1, -1, -1):
            if len(r) + bounds[idx] <= len(best):
                return
            v = order[idx]
            r.append(v)
            new_p = p_mask & rows[v]
            if new_p:
                expand(r, new_p)
            elif len(r) > len(best):
                best = r[:]
            r.pop()
            p_mask &= ~(1 << v)

    if n == 0:
        return 0, []
    expand([], (1 << n) - 1)
    return len(best), sorted(best)


def _greedy_coloring(rows: tuple[int, ...], n: int) -> list[int]:
    """DSATUR-style greedy proper coloring (upper bound)."""
    colors = [-1] * n
    neighbor_colors: list[set[int]] = [set() for _ in range(n)]
    for _ in range(n):
        u = max((i for i in range(n) if colors[i] == -1),
                key=lambda i: (len(neighbor_colors[i]), bin(rows[i]).count("1"), -i))
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


def _try_color(rows: tuple[int, ...], n: int, k: int, preset: list[int]) -> list[int] | None:
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
        u = max(pending, key=lambda i: (saturation(i), bin(rows[i]).count("1"), -i))
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


def _chromatic(rows: tuple[int, ...], n: int) -> tuple[int, list[int]]:
    if n == 0:
        return 0, []
    if not any(rows):
        return 1, [0] * n
    clique_size, clique = _max_clique(rows, n)
    greedy = _greedy_coloring(rows, n)
    ub = max(greedy) + 1
    if clique_size == ub:
        return ub, greedy
    for k in range(clique_size, ub):
        preset = [-1] * n
        for c, v in enumerate(clique):
            preset[v] = c
        result = _try_color(rows, n, k, preset)
        if result is not None:
            return k, result
    return ub, greedy


def _min_dominating(rows: tuple[int, ...], n: int, total: bool) -> tuple[float, list[int]]:
    """Iterative-deepening exact search; branches on the vertex with the
    fewest available dominators."""
    full = (1 << n) - 1
    cover = [rows[i] | (0 if total else 1 << i) for i in range(n)]
    dominators = [rows[i] | (0 if total else 1 << i) for i in range(n)]
    if any(d == 0 for d in dominators):
        return INF, []
    max_cover = max(bin(c).count("1") for c in cover)

    def dfs(chosen: list[int], covered: int, remaining: int) -> list[int] | None:
        if covered == full:
            return chosen[:]
        if remaining == 0:
            return None
        uncovered = full & ~covered
        if bin(uncovered).count("1") > remaining * max_cover:
            return None
        u, u_dom = -1, 0
        probe = uncovered
        best_count = n + 1
        while probe:
            bit = probe & -probe
            probe ^= bit
            i = bit.bit_length() - 1
            cnt = bin(dominators[i]).count("1")
            if cnt < best_count:
                best_count, u, u_dom = cnt, i, dominators[i]
        while u_dom:
            bit = u_dom & -u_dom
            u_dom ^= bit
            v = bit.bit_length() - 1
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


def np_metrics(g: Graph, which: tuple[str, ...] = ("clique",),
               clique_bound: int = 64, chromatic_bound: int = 64,
               dominating_bound: int = 24) -> dict[str, tuple[float, list[int]]]:
    """Exact optima with witnesses; raises BoundExceededError instead of
    running heuristics past the configured sizes."""
    n = g.n_vertices
    if n == 0:
        raise ValueError("parameters of an empty graph are undefined")
    out: dict[str, tuple[float, list[int]]] = {}
    for name in which:
        if name == "clique":
            if n > clique_bound:
                raise BoundExceededError(f"{n} vertices exceed clique bound {clique_bound}")
            out[name] = _max_clique(g.adj, n)
        elif name == "chromatic":
            if n > chromatic_bound:
                raise BoundExceededError(f"{n} vertices exceed chromatic bound {chromatic_bound}")
            out[name] = _chromatic(g.adj, n)
        elif name == "dominating":
            if n > dominating_bound:
                raise BoundExceededError(f"{n} vertices exceed dominating bound {dominating_bound}")
            out[name] = _min_dominating(g.adj, n, total=False)
        elif name == "total_dominating":
            if n > dominating_bound:
                raise BoundExceededError(f"{n} vertices exceed dominating bound {dominating_bound}")
            out[name] = _min_dominating(g.adj, n, total=True)
        else:
            raise ValueError(f"unknown parameter {name!r}")
    return out
