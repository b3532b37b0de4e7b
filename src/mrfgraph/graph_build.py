"""Build the four graphs on zero-divisors, in quotient and expanded modes.

Adjacency is decided by closed-form nullity predicates on zero sets:

* comaximal        -- the zero sets meet in a null set;
* zero-divisor     -- the cozero sets meet in a null set (the product
                      vanishes almost everywhere);
* annihilator      -- both zero-set differences have positive measure
                      (neither annihilator ideal contains the other);
* weakly-zd        -- on vertices whose zero set is an atom: the zero sets
                      differ by a set of positive measure.

The four kinds share one vertex set, so an atomic build takes its vertices
and their zero-set partition from one cached universe per space and alphabet
(None in quotient mode); a build then only fills the adjacency, and weakly-zd
keeps the members of the classes whose zero set is an atom.  A build decides
the predicates on cell masks, where a set is null exactly when its mask is
0, so both backends share one int kernel: each predicate is an OR over the
runs of consecutive cells of a class's mask, read from a sparse table of
per-cell vertex columns, so a class row costs a few lookups and no class
pair is tested; ``adjacent`` is the exact reference.  ``oracle_row``
recomputes the same relations from the ring-theoretic definitions alone, one
row per vertex: the adjacency of f to each function of a list, as a bitmask
(pointwise products; annihilator ideals as bitsets over the k^n candidate
functions; one cached table per space and alphabet, which also memoises the
a.e. test per value tuple), so that the closed forms can be cross-validated
exhaustively by comparing rows; ``oracle_mismatches`` lists the pairs where
a vertex list's oracle rows differ from given rows.  ``oracle_adjacent`` is
its one-pair case.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from operator import add, mul, not_, or_, xor
from typing import Iterable, Sequence

from .measure_space import (
    ATOMIC,
    AtomicSpace,
    MeasurableSet,
    MeasureSpace,
    atom_set,
    cell_masks,
    covers,
    is_atom,
    is_disjoint,
    is_null,
    is_subset,
    null_equal,
)
from .vertex_universe import (
    ExpandedFunction,
    ZClass,
    enumerate_functions,
    enumerate_zclasses,
    zclass,
)


class GraphKind(Enum):
    ZERO_DIVISOR = "zero_divisor"
    COMAXIMAL = "comaximal"
    ANNIHILATOR = "annihilator"
    WEAKLY_ZD = "weakly_zd"


KIND_BY_NAME = {k.value: k for k in GraphKind}
# CLI-friendly aliases
KIND_BY_NAME.update({"zero-divisor": GraphKind.ZERO_DIVISOR, "weakly-zd": GraphKind.WEAKLY_ZD})


class BoundExceededError(ValueError):
    """Input lies outside what a check can decide: past a bound on exhaustive
    work (the vertex guard, the oracle's atom or alphabet bound, a solver's
    vertex bound, a check's own cap) or short of the cases it compares."""


# The vertex guard, read at each build; the brute-force oracle's largest n and k.
MAX_VERTICES = 5000
ORACLE_MAX_ATOMS = 5
ORACLE_MAX_ALPHABET = 4


def adjacent(kind: GraphKind, space: MeasureSpace, zu: MeasurableSet, zv: MeasurableSet) -> bool:
    """Closed-form adjacency between two distinct zero-divisor zero sets."""
    if kind is GraphKind.COMAXIMAL:
        return is_disjoint(space, zu, zv)
    if kind is GraphKind.ZERO_DIVISOR:
        return covers(space, zu, zv)
    if kind is GraphKind.ANNIHILATOR:
        return not is_subset(space, zu, zv) and not is_subset(space, zv, zu)
    if kind is GraphKind.WEAKLY_ZD:
        if not (is_atom(space, zu) and is_atom(space, zv)):
            raise ValueError("weakly-zd adjacency is defined on atomic zero sets only")
        return not null_equal(space, zu, zv)
    raise ValueError(f"unknown graph kind {kind!r}")


def weakly_adjacent_all(space: MeasureSpace, zu: MeasurableSet, zv: MeasurableSet,
                        same_vertex: bool = False) -> bool:
    """Weakly-zd adjacency over all zero-divisors, before the atomic-zero-set
    restriction: functions with differing zero sets are adjacent; within one
    class adjacency (including self-adjacency) holds iff the zero set is not
    an atom."""
    if not same_vertex and not null_equal(space, zu, zv):
        return True
    return not is_atom(space, zu)


class _Memo(dict):
    """A dict that computes a missing value with ``fn`` on first lookup and
    keeps it, so a hit costs one dict lookup and no Python call."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


@lru_cache(maxsize=8)
class _AnnihilatorTable:
    """The oracle's memo for one space and alphabet, each entry computed on
    first lookup of a value tuple p.  ``vanishes[p]`` is the a.e. test.
    ``ann[p]`` is ann(p) as a bitset over the k^n candidate functions: bit c
    is set when candidates[c] * p vanishes a.e.  ``reach[p]`` is the union of
    ann(h) over the candidates h in ann(p) that do not vanish a.e.;
    ``nonzero`` marks those candidates.  The candidates are enumerated on
    first use, so rows that ask only ``vanishes`` never list them."""

    def __init__(self, space: AtomicSpace, k: int):
        self.space = space
        self.k = k
        self.vanishes = _Memo(self._vanishes)
        self.ann = _Memo(self._ann)
        self.reach = _Memo(self._reach)

    @cached_property
    def candidates(self) -> list[tuple[int, ...]]:
        return list(itertools.product(range(self.k), repeat=self.space.n_atoms))

    @cached_property
    def nonzero(self) -> int:
        vanishes = self.vanishes
        return sum(1 << c for c, h in enumerate(self.candidates) if not vanishes[h])

    def _vanishes(self, p: tuple[int, ...]) -> bool:
        return is_null(self.space, atom_set(i for i, v in enumerate(p) if v != 0))

    def _ann(self, p: tuple[int, ...]) -> int:
        vanishes = self.vanishes
        return sum(1 << c for c, h in enumerate(self.candidates) if vanishes[tuple(map(mul, h, p))])

    def _reach(self, p: tuple[int, ...]) -> int:
        mask = 0
        for c in _members(self.ann[p] & self.nonzero):
            mask |= self.ann[self.candidates[c]]
        return mask


def check_oracle_bounds(space: AtomicSpace, k: int) -> None:
    """Raise :class:`BoundExceededError` past the oracle's atom or alphabet bound."""
    n = space.n_atoms
    if n > ORACLE_MAX_ATOMS:
        raise BoundExceededError(f"oracle bound exceeded: {n} atoms > {ORACLE_MAX_ATOMS}")
    if k > ORACLE_MAX_ALPHABET:
        raise BoundExceededError(f"oracle bound exceeded: alphabet {k} > {ORACLE_MAX_ALPHABET}")


def oracle_row(kind: GraphKind, space: AtomicSpace, k: int,
               f: ExpandedFunction, gs: Sequence[ExpandedFunction]) -> int:
    """Definition-level brute-force adjacency of ``f`` to each of ``gs``, no
    closed forms: bit j is set when f is adjacent to ``gs[j]``.

    zero-divisor: the product f.g vanishes a.e.
    comaximal:    f^2 + g^2 is a unit up to null sets (its pointwise zero
                  set is null), which generates the ideal sum.
    annihilator:  some h lies in ann(f.g) but in neither ann(f) nor ann(g),
                  over all k^n candidate assignments.
    weakly-zd:    some zero-divisors h1 in ann(f), h2 in ann(g) have a
                  product vanishing a.e., over all candidate pairs; nonzero
                  h1, h2 with h1.h2 = 0 are zero-divisors by definition.
                  h2 ranges over the union of ann(h1) for the nonzero h1 in
                  ann(f), so the test is one intersection with ann(g).

    Every bit comes from value tuples alone.  The bounds are checked and the
    kind dispatched once per row; raises :class:`BoundExceededError` past
    ``check_oracle_bounds``, before any table is built.
    """
    check_oracle_bounds(space, k)
    return _oracle_row(kind, _AnnihilatorTable(space, k), f, gs)


def _oracle_row(kind: GraphKind, table: _AnnihilatorTable, f: ExpandedFunction,
                gs: Sequence[ExpandedFunction]) -> int:
    """:func:`oracle_row` on the given table, with no bound check."""
    fv = f.values
    values = [g.values for g in gs]
    vanishes, ann = table.vanishes, table.ann
    if kind is GraphKind.ZERO_DIVISOR:
        tests = [vanishes[tuple(map(mul, fv, gv))] for gv in values]
    elif kind is GraphKind.COMAXIMAL:
        # the indicator of the pointwise zero set of f^2 + g^2 vanishes a.e.
        squares = tuple(map(mul, fv, fv))
        tests = [vanishes[tuple(map(not_, map(add, squares, map(mul, gv, gv))))]
                 for gv in values]
    elif kind is GraphKind.ANNIHILATOR:
        outside_f = ~ann[fv]
        tests = [ann[tuple(map(mul, fv, gv))] & outside_f & ~ann[gv] for gv in values]
    elif kind is GraphKind.WEAKLY_ZD:
        reach = table.reach[fv] & table.nonzero
        tests = [reach & ann[gv] for gv in values]
    else:
        raise ValueError(f"unknown graph kind {kind!r}")
    return sum(1 << j for j, t in enumerate(tests) if t)


def oracle_adjacent(kind: GraphKind, space: AtomicSpace, k: int,
                    f: ExpandedFunction, g: ExpandedFunction) -> bool:
    """:func:`oracle_row` for the single pair (f, g)."""
    return oracle_row(kind, space, k, f, (g,)) == 1


def oracle_mismatches(kind: GraphKind, space: AtomicSpace, k: int,
                      vertices: Sequence[ExpandedFunction], closed: Sequence[int],
                      start: int = 1) -> list[tuple[int, int]]:
    """The pairs (i, j), j >= i + ``start``, ascending, where the oracle row
    of ``vertices[i]`` differs from the row ``closed[i]``.  No bound is
    checked: callers run :func:`check_oracle_bounds` first unless the kind's
    rows never list the k^n candidates (comaximal)."""
    table = _AnnihilatorTable(space, k)
    out = []
    for i, f in enumerate(vertices):
        lo = i + start
        diff = _oracle_row(kind, table, f, vertices[lo:]) ^ closed[i] >> lo
        out.extend((i, lo + j) for j in _members(diff))
    return out


def _members(mask: int):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        bit = mask & -mask
        mask ^= bit
        yield bit.bit_length() - 1


@dataclass(frozen=True)
class ZeroSetClasses:
    """Vertices grouped by zero set, classes numbered by first appearance
    (never by hash order).  Adjacency depends only on the zero set, so the
    members of one class are false twins.  Fed adjacency rows in place of
    zero sets, the same grouping gives the false-twin classes themselves;
    fed any hashable keys, it groups their positions."""

    zero_sets: tuple[MeasurableSet, ...]     # zero set of each class
    index: dict[MeasurableSet, int]          # class of each zero set
    of: tuple[int, ...]                      # class of each vertex
    members: tuple[tuple[int, ...], ...]     # vertices of each class, ascending

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """The member bitmask of each class."""
        return tuple(sum(1 << v for v in vs) for vs in self.members)


def zero_set_classes(zero_sets: Sequence[MeasurableSet]) -> ZeroSetClasses:
    """Partition positions by key, numbering the classes by first appearance."""
    index: dict[MeasurableSet, int] = {}
    members: list[list[int]] = []
    of = []
    for v, z in enumerate(zero_sets):
        c = index.setdefault(z, len(members))
        if c == len(members):
            members.append([])
        members[c].append(v)
        of.append(c)
    return ZeroSetClasses(tuple(index), index, tuple(of), tuple(map(tuple, members)))


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph: vertex payloads plus symmetric adjacency.

    ``adj`` holds one bitmask per vertex (bit j of row i set iff i-j is an
    edge); the diagonal is empty and rows are mutually consistent.
    """

    kind: GraphKind
    mode: str  # "quotient" | "expanded" | "sampled"
    alphabet: int | None
    space: MeasureSpace
    vertices: tuple
    classes: ZeroSetClasses = field(repr=False, compare=False)  # determined by the vertices
    adj: tuple[int, ...]

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @cached_property
    def zero_sets(self) -> tuple[MeasurableSet, ...]:
        """The zero set of each vertex."""
        return tuple(v.zero_set for v in self.vertices)

    @cached_property
    def twins(self) -> ZeroSetClasses:
        """The false-twin classes: vertices grouped by adjacency row, read
        from ``adj`` alone and never from the zero sets."""
        return zero_set_classes(self.adj)

    @cached_property
    def quotient(self) -> tuple[int, ...]:
        """Per twin class, the mask of the twin classes its members are
        adjacent to: rows are unions of whole classes, so with the class
        sizes this is all of ``adj``.  False twins are never adjacent."""
        twins = self.twins
        firsts = sum(1 << vs[0] for vs in twins.members)
        return tuple(sum(1 << twins.of[v] for v in _members(self.adj[vs[0]] & firsts))
                     for vs in twins.members)

    def is_edge(self, i: int, j: int) -> bool:
        return i != j and bool(self.adj[i] >> j & 1)

    def degree(self, i: int) -> int:
        return self.adj[i].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """Edges (i, j), i < j, in row order: the bits of each row above i."""
        return [(i, j) for i, row in enumerate(self.adj)
                for j in _members(row >> i + 1 << i + 1)]

    def n_edges(self) -> int:
        return sum(self.degree(i) for i in range(self.n_vertices)) // 2

    def vertex_label(self, i: int) -> str:
        return self.vertices[i].label

    def name(self) -> str:
        parts = [self.kind.value, self.mode]
        if isinstance(self.space, AtomicSpace):
            parts.append(f"n{self.space.n_atoms}")
        if self.alphabet is not None:
            parts.append(f"k{self.alphabet}")
        return "_".join(parts)


def _runs(mask: int):
    """The maximal runs of set bits of ``mask`` as ranges ``(lo, hi)``,
    ``hi`` exclusive, lowest first."""
    while mask:
        lo = (mask & -mask).bit_length() - 1
        carried = mask + (1 << lo)  # the run's carry lands on bit hi
        yield lo, (carried & -carried).bit_length() - 1
        mask &= carried


def _range_or_table(columns: list[int]) -> list[list[int]]:
    """Sparse table over ``columns``: level k holds the OR of each window of
    2^k consecutive columns, so the OR of any range is two lookups."""
    table = [columns]
    span = 1
    while 2 * span <= len(columns):
        level = table[-1]
        table.append(list(map(or_, level, level[span:])))
        span *= 2
    return table


def _range_or(table: list[list[int]], mask: int) -> int:
    """The OR of the columns of the cells of ``mask``, two lookups per run."""
    out = 0
    for lo, hi in _runs(mask):
        k = (hi - lo).bit_length() - 1
        level = table[k]
        out |= level[lo] | level[hi - (1 << k)]
    return out


def _fill_adjacency(kind, space, classes: ZeroSetClasses) -> tuple[int, ...]:
    """Adjacency rows from the cell masks of the zero-set classes, one class
    row at a time and no class pair tested.  XORing each class's member mask
    into a difference array at both ends of each run of its cell mask, a
    prefix XOR gives the column of each cell: the vertices whose zero set
    contains it (the cozero column is its complement).  With P(M) and Q(M)
    the ORs of the zero and cozero columns over the cells of M, read from a
    sparse table of each, and ``every`` the mask of all vertices, the row of
    the class with cell mask Z is:

    * comaximal:    no zero set meets Z, ``every & ~P(Z)``;
    * zero-divisor: no cozero set meets X - Z, ``every & ~Q(X - Z)``;
    * annihilator:  ``P(X - Z) & Q(Z)``;
    * weakly-zd:    every other class, ``every & ~members``: distinct zero
      sets have distinct cell masks.  The atom filter must run before, on
      the original space: a single cell would look like an atom.

    A vertex's row is its class row without its own bit; a class row holds
    its own members only if the class is adjacent to itself, so every other
    vertex shares its class row."""
    members = classes.masks
    every = (1 << len(classes.of)) - 1
    if kind is GraphKind.WEAKLY_ZD:
        rows = [every ^ m for m in members]
    else:
        full, masks = cell_masks(space, classes.zero_sets)
        diff = [0] * (full.bit_length() + 1)
        for z, m in zip(masks, members):
            for lo, hi in _runs(z):
                diff[lo] ^= m
                diff[hi] ^= m
        zero = list(itertools.accumulate(diff[:-1], xor))
        if kind is GraphKind.COMAXIMAL:
            p = _range_or_table(zero)
            rows = [every ^ _range_or(p, z) for z in masks]
        else:
            q = _range_or_table([every ^ col for col in zero])
            if kind is GraphKind.ZERO_DIVISOR:
                rows = [every ^ _range_or(q, full ^ z) for z in masks]
            else:
                p = _range_or_table(zero)
                rows = [_range_or(p, full ^ z) & _range_or(q, z) for z in masks]
    loops = [bool(r & m) for r, m in zip(rows, members)]
    return tuple(rows[c] ^ (1 << v) if loops[c] else rows[c] for v, c in enumerate(classes.of))


def _vertex_count(n: int, kind: GraphKind, mode: str, alphabet: int | None) -> int:
    """Closed-form vertex count of an atomic graph, known before enumeration:
    zero sets are the proper nonempty atom subsets (single atoms for
    weakly-zd), each realized by (k-1)^|cozero| functions in expanded mode."""
    if n == 1:
        return 0
    if kind is GraphKind.WEAKLY_ZD:
        return n if mode == "quotient" else n * (alphabet - 1) ** (n - 1)
    if mode == "quotient":
        return 2 ** n - 2
    return alphabet ** n - (alphabet - 1) ** n - 1


@lru_cache(maxsize=8)
class _Universe:
    """The atomic vertices of one space and alphabet, enumerated once for all
    four graph kinds, as a tuple, and their zero-set partition: the classes
    of :func:`enumerate_zclasses` when ``k`` is None (quotient mode), else
    the functions of :func:`enumerate_functions`.  Keyed by the space, not
    by n, so a space with other weights enumerates its own."""

    def __init__(self, space: AtomicSpace, k: int | None):
        found = enumerate_zclasses(space) if k is None else enumerate_functions(space, k)
        self.vertices = tuple(found)
        self.classes = zero_set_classes([v.zero_set for v in self.vertices])


def build_graph(space: MeasureSpace, kind: GraphKind, mode: str = "quotient",
                alphabet: int | None = None, sample: Iterable[ZClass] | None = None) -> Graph:
    """Construct one graph with a deterministic vertex order.

    Atomic backend: ``quotient`` enumerates one class per proper nonempty
    atom subset, ``expanded`` enumerates all zero-divisor assignments over
    ``alphabet`` symbols.  A single-atom space yields the empty graph.
    Interval backend: requires an explicit ``sample`` of classes and tags
    the result ``sampled``; it is never an exhaustive graph.
    """
    if space.backend != ATOMIC:
        if sample is None:
            raise ValueError("interval-backend graphs need an explicit sampled vertex list")
        mode, alphabet = "sampled", None
        payloads = [zclass(space, z) for z in dict.fromkeys(zc.zero_set for zc in sample)]
        classes = zero_set_classes([p.zero_set for p in payloads])
    else:
        if mode not in ("quotient", "expanded"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "expanded" and (alphabet is None or alphabet < 2):
            raise ValueError("expanded mode needs an alphabet size k >= 2")
        alphabet = alphabet if mode == "expanded" else None
        count = _vertex_count(space.n_atoms, kind, mode, alphabet)
        if count > MAX_VERTICES:
            raise BoundExceededError(f"{count} vertices exceed guard {MAX_VERTICES}")
        universe = _Universe(space, alphabet)
        payloads, classes = universe.vertices, universe.classes
    if kind is GraphKind.WEAKLY_ZD:  # the members of the atom classes, in vertex order
        keep = [vs for z, vs in zip(classes.zero_sets, classes.members) if is_atom(space, z)]
        payloads = [payloads[v] for v in sorted(itertools.chain.from_iterable(keep))]
        classes = zero_set_classes([p.zero_set for p in payloads])
    if len(payloads) > MAX_VERTICES:
        raise BoundExceededError(f"{len(payloads)} vertices exceed guard {MAX_VERTICES}")
    return Graph(kind, mode, alphabet, space, tuple(payloads), classes,
                 _fill_adjacency(kind, space, classes))


def export_graph(g: Graph, fmt: str) -> str:
    """Render DOT or JSON, byte-reproducible for a fixed input."""
    if fmt == "dot":
        lines = [f"graph {g.name()} {{"]
        for i in range(g.n_vertices):
            lines.append(f'  v{i} [label="{g.vertex_label(i)}"];')
        for i, j in g.edges():
            lines.append(f"  v{i} -- v{j};")
        lines.append("}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        doc = {
            "kind": g.kind.value,
            "mode": g.mode,
            "n": g.space.n_atoms if isinstance(g.space, AtomicSpace) else None,
            "k": g.alphabet,
            "vertices": [g.vertex_label(i) for i in range(g.n_vertices)],
            "edges": [[i, j] for i, j in g.edges()],
        }
        return json.dumps(doc, indent=2) + "\n"
    raise ValueError(f"unknown export format {fmt!r}")
