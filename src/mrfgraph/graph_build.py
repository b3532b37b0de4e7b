"""Build the four graphs on zero-divisors, in quotient and expanded modes.

Adjacency is decided by closed-form nullity predicates on zero sets:

* comaximal        -- the zero sets meet in a null set;
* zero-divisor     -- the cozero sets meet in a null set (the product
                      vanishes almost everywhere);
* annihilator      -- both zero-set differences have positive measure
                      (neither annihilator ideal contains the other);
* weakly-zd        -- on vertices whose zero set is an atom: the zero sets
                      differ by a set of positive measure.

``oracle_adjacent`` recomputes the same relations from the ring-theoretic
definitions alone (pointwise products, ideal membership by enumeration) so
that the closed forms can be cross-validated exhaustively.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .measure_space import (
    ATOMIC,
    AtomicSpace,
    MeasurableSet,
    MeasureSpace,
    atom_set,
    complement,
    difference,
    intersect,
    is_atom,
    is_null,
    null_equal,
)
from .vertex_universe import (
    ExpandedFunction,
    ZClass,
    enumerate_functions,
    enumerate_zclasses,
    format_function,
    format_zclass,
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


class GraphTooLargeError(ValueError):
    """Requested graph exceeds the configured vertex guard rail."""


def adjacent(kind: GraphKind, space: MeasureSpace, zu: MeasurableSet, zv: MeasurableSet) -> bool:
    """Closed-form adjacency between two distinct zero-divisor zero sets."""
    if kind is GraphKind.COMAXIMAL:
        return is_null(space, intersect(space, zu, zv))
    if kind is GraphKind.ZERO_DIVISOR:
        return is_null(space, intersect(space, complement(space, zu), complement(space, zv)))
    if kind is GraphKind.ANNIHILATOR:
        return not is_null(space, difference(space, zu, zv)) and not is_null(
            space, difference(space, zv, zu)
        )
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


def _coz_indices(values: Sequence[int]) -> list[int]:
    return [i for i, v in enumerate(values) if v != 0]


def _pointwise_product(f: Sequence[int], g: Sequence[int]) -> tuple[int, ...]:
    return tuple(a * b for a, b in zip(f, g))


def _vanishes_ae(space: AtomicSpace, values: Sequence[int]) -> bool:
    return is_null(space, atom_set(_coz_indices(values)))


def _annihilates(space: AtomicSpace, h: Sequence[int], p: Sequence[int]) -> bool:
    """h is in ann(p): the pointwise product is zero almost everywhere."""
    return _vanishes_ae(space, _pointwise_product(h, p))


def oracle_adjacent(kind: GraphKind, space: AtomicSpace, k: int,
                    f: ExpandedFunction, g: ExpandedFunction,
                    max_atoms: int = 5, max_alphabet: int = 4) -> bool:
    """Definition-level brute-force adjacency, no closed forms.

    zero-divisor: the product f.g vanishes a.e.
    comaximal:    f^2 + g^2 is a unit up to null sets (its pointwise zero
                  set is null), which generates the ideal sum.
    annihilator:  some h lies in ann(f.g) but in neither ann(f) nor ann(g),
                  over all k^n candidate assignments.
    weakly-zd:    some zero-divisors h1 in ann(f), h2 in ann(g) have a
                  product vanishing a.e., over all candidate pairs.
    """
    n = space.n_atoms
    if n > max_atoms:
        raise ValueError(f"oracle bound exceeded: {n} atoms > {max_atoms}")
    if k > max_alphabet:
        raise ValueError(f"oracle bound exceeded: alphabet {k} > {max_alphabet}")
    fv, gv = f.values, g.values
    if kind is GraphKind.ZERO_DIVISOR:
        return _vanishes_ae(space, _pointwise_product(fv, gv))
    if kind is GraphKind.COMAXIMAL:
        witness = tuple(a * a + b * b for a, b in zip(fv, gv))
        return _vanishes_ae(space, tuple(1 if w == 0 else 0 for w in witness))
    if kind is GraphKind.ANNIHILATOR:
        product = _pointwise_product(fv, gv)
        for h in itertools.product(range(k), repeat=n):
            if (_annihilates(space, h, product)
                    and not _annihilates(space, h, fv)
                    and not _annihilates(space, h, gv)):
                return True
        return False
    if kind is GraphKind.WEAKLY_ZD:
        divisors = [h.values for h in enumerate_functions(space, k)]
        ann_f = [h for h in divisors if _annihilates(space, h, fv)]
        ann_g = [h for h in divisors if _annihilates(space, h, gv)]
        for h1 in ann_f:
            for h2 in ann_g:
                if _vanishes_ae(space, _pointwise_product(h1, h2)):
                    return True
        return False
    raise ValueError(f"unknown graph kind {kind!r}")


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
    zero_sets: tuple[MeasurableSet, ...]
    adj: tuple[int, ...]

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def is_edge(self, i: int, j: int) -> bool:
        return i != j and bool(self.adj[i] >> j & 1)

    def neighbors(self, i: int) -> list[int]:
        row = self.adj[i]
        return [j for j in range(self.n_vertices) if row >> j & 1]

    def degree(self, i: int) -> int:
        return bin(self.adj[i]).count("1")

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.n_vertices)
                for j in range(i + 1, self.n_vertices) if self.adj[i] >> j & 1]

    def n_edges(self) -> int:
        return sum(self.degree(i) for i in range(self.n_vertices)) // 2

    def vertex_label(self, i: int) -> str:
        v = self.vertices[i]
        return format_function(v) if isinstance(v, ExpandedFunction) else format_zclass(v)

    def name(self) -> str:
        parts = [self.kind.value, self.mode]
        if isinstance(self.space, AtomicSpace):
            parts.append(f"n{self.space.n_atoms}")
        if self.alphabet is not None:
            parts.append(f"k{self.alphabet}")
        return "_".join(parts)


def _fill_adjacency(kind, space, zero_sets) -> tuple[int, ...]:
    """Adjacency rows, deciding each pair of distinct zero sets once.

    Adjacency depends only on the zero set, so vertices sharing one are
    false twins.  Vertices are grouped into classes numbered by first
    appearance (never by hash order), ``adjacent`` is called once per
    unordered pair of classes and once per class with itself, and each row
    is the union of the member masks of its adjacent classes minus the
    vertex's own bit.  Classes are indexed by position inside the pair
    loop: hashing an interval set is not cached and costs a tuple of
    Fractions per lookup.
    """
    class_index: dict[MeasurableSet, int] = {}
    reps: list[MeasurableSet] = []
    members: list[int] = []
    vertex_class: list[int] = []
    for v, z in enumerate(zero_sets):
        c = class_index.setdefault(z, len(reps))
        if c == len(reps):
            reps.append(z)
            members.append(0)
        members[c] |= 1 << v
        vertex_class.append(c)
    reach = [members[c] if adjacent(kind, space, z, z) else 0 for c, z in enumerate(reps)]
    for a, za in enumerate(reps):
        for b in range(a + 1, len(reps)):
            if adjacent(kind, space, za, reps[b]):
                reach[a] |= members[b]
                reach[b] |= members[a]
    return tuple(reach[c] & ~(1 << v) for v, c in enumerate(vertex_class))


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


def build_graph(space: MeasureSpace, kind: GraphKind, mode: str = "quotient",
                alphabet: int | None = None, sample: Iterable[ZClass] | None = None,
                max_vertices: int = 5000) -> Graph:
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
        seen, classes = set(), []
        for zc in sample:
            if zc.zero_set not in seen:
                seen.add(zc.zero_set)
                classes.append(zclass(space, zc.zero_set))
        if kind is GraphKind.WEAKLY_ZD:
            classes = [zc for zc in classes if is_atom(space, zc.zero_set)]
        zero_sets = tuple(zc.zero_set for zc in classes)
        if len(classes) > max_vertices:
            raise GraphTooLargeError(f"{len(classes)} vertices exceed guard {max_vertices}")
        return Graph(kind, "sampled", None, space, tuple(classes), zero_sets,
                     _fill_adjacency(kind, space, zero_sets))

    if mode not in ("quotient", "expanded"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "expanded" and (alphabet is None or alphabet < 2):
        raise ValueError("expanded mode needs an alphabet size k >= 2")
    count = _vertex_count(space.n_atoms, kind, mode, alphabet)
    if count > max_vertices:
        raise GraphTooLargeError(f"{count} vertices exceed guard {max_vertices}")
    if mode == "quotient":
        payloads: list = list(enumerate_zclasses(space))
        if kind is GraphKind.WEAKLY_ZD:
            payloads = [zc for zc in payloads if is_atom(space, zc.zero_set)]
        zero_sets = tuple(zc.zero_set for zc in payloads)
    else:
        payloads = list(enumerate_functions(space, alphabet))
        if kind is GraphKind.WEAKLY_ZD:
            payloads = [f for f in payloads if is_atom(space, f.zero_set())]
        zero_sets = tuple(f.zero_set() for f in payloads)
    return Graph(kind, mode, alphabet if mode == "expanded" else None, space,
                 tuple(payloads), zero_sets, _fill_adjacency(kind, space, zero_sets))


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
