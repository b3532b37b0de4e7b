"""Exact measure-space backends: weighted atoms and rational subintervals of [0,1).

Two finitely representable backends share one set-algebra API:

* ``AtomicSpace`` -- finitely many atoms with strictly positive rational
  weights; a measurable set is a subset of atom indices, held as an int
  bitmask (bit i = atom i).  A set is null exactly when it is empty.
* ``IntervalSpace`` -- the unit interval [0,1) with length measure; a
  measurable set is a finite union of half-open rational intervals kept in
  a unique canonical form (sorted, pairwise disjoint, adjacent pieces
  merged).  The backend is non-atomic: no set is an atom.

All values are ``fractions.Fraction``; nothing in this module ever rounds.
All types are immutable and all operations are pure functions.  Each
operation validates its arguments once, then branches once on the backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import ClassVar, Iterable, Sequence

ATOMIC = "atomic"
INTERVAL = "interval"


class BackendMismatchError(ValueError):
    """A set was used with a space of the other backend."""


@dataclass(frozen=True)
class AtomicSpace:
    """Purely atomic space: one strictly positive rational weight per atom."""

    weights: tuple[Fraction, ...]
    n_atoms: int = field(init=False, repr=False, compare=False)
    backend: ClassVar[str] = ATOMIC

    def __post_init__(self):
        if len(self.weights) < 1:
            raise ValueError("an atomic space needs at least one atom")
        ws = tuple(Fraction(w) for w in self.weights)
        if any(w <= 0 for w in ws):
            raise ValueError("atom weights must be strictly positive")
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "n_atoms", len(ws))


@dataclass(frozen=True)
class IntervalSpace:
    """The unit interval [0,1) with exact length measure (non-atomic)."""

    backend: ClassVar[str] = INTERVAL


MeasureSpace = AtomicSpace | IntervalSpace


def unit_space(n_atoms: int) -> AtomicSpace:
    """Counting-measure style space: ``n_atoms`` atoms of weight 1."""
    return AtomicSpace(tuple(Fraction(1) for _ in range(n_atoms)))


@dataclass(frozen=True)
class MeasurableSet:
    """A set in one backend: atom bitmask, or canonical interval union.

    Exactly one payload is populated, selected by ``backend``.  Interval
    payloads are always canonical, so structural equality coincides with
    null-equality (two canonical interval unions that differ must differ by
    a set of positive length).
    """

    backend: str
    mask: int = 0
    intervals: tuple[tuple[Fraction, Fraction], ...] = ()

    def __str__(self) -> str:
        return format_set(self)


def atom_set(indices: Iterable[int]) -> MeasurableSet:
    """Atomic-backend set from atom indices."""
    mask = 0
    for i in indices:
        i = int(i)
        if i < 0:
            raise ValueError("atom indices must be non-negative")
        mask |= 1 << i
    return MeasurableSet(ATOMIC, mask=mask)


def interval_set(pairs: Iterable[tuple[Fraction | int | str, Fraction | int | str]]) -> MeasurableSet:
    """Interval-backend set from [lo, hi) pairs, canonicalized."""
    cleaned = []
    for lo, hi in pairs:
        lo, hi = Fraction(lo), Fraction(hi)
        if not (0 <= lo < hi <= 1):
            raise ValueError(f"intervals must satisfy 0 <= lo < hi <= 1, got [{lo},{hi})")
        cleaned.append((lo, hi))
    return MeasurableSet(INTERVAL, intervals=_canonical(cleaned))


def _canonical(pairs: Sequence[tuple[Fraction, Fraction]]) -> tuple[tuple[Fraction, Fraction], ...]:
    """Sort, merge overlapping and adjacent pieces; unique per set."""
    out: list[tuple[Fraction, Fraction]] = []
    for lo, hi in sorted(pairs):
        if out and lo <= out[-1][1]:
            prev_lo, prev_hi = out[-1]
            out[-1] = (prev_lo, max(prev_hi, hi))
        else:
            out.append((lo, hi))
    return tuple(out)


def _check(space: MeasureSpace, *sets: MeasurableSet) -> None:
    for s in sets:
        if s.backend != space.backend:
            raise BackendMismatchError(
                f"set backend {s.backend!r} used with space backend {space.backend!r}"
            )
        if s.backend == ATOMIC and s.mask >> space.n_atoms:
            raise ValueError(f"atom index out of range for a {space.n_atoms}-atom space")


def _interval_union(a, b):
    return _canonical(list(a) + list(b))


def _interval_intersect(a, b):
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo < hi:
            out.append((lo, hi))
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return tuple(out)


def _interval_complement(a):
    out = []
    cursor = Fraction(0)
    for lo, hi in a:
        if cursor < lo:
            out.append((cursor, lo))
        cursor = hi
    if cursor < 1:
        out.append((cursor, Fraction(1)))
    return tuple(out)


def union(space: MeasureSpace, a: MeasurableSet, b: MeasurableSet) -> MeasurableSet:
    _check(space, a, b)
    if space.backend == ATOMIC:
        return MeasurableSet(ATOMIC, mask=a.mask | b.mask)
    return MeasurableSet(INTERVAL, intervals=_interval_union(a.intervals, b.intervals))


def intersect(space: MeasureSpace, a: MeasurableSet, b: MeasurableSet) -> MeasurableSet:
    _check(space, a, b)
    if space.backend == ATOMIC:
        return MeasurableSet(ATOMIC, mask=a.mask & b.mask)
    return MeasurableSet(INTERVAL, intervals=_interval_intersect(a.intervals, b.intervals))


def difference(space: MeasureSpace, a: MeasurableSet, b: MeasurableSet) -> MeasurableSet:
    _check(space, a, b)
    if space.backend == ATOMIC:
        return MeasurableSet(ATOMIC, mask=a.mask & ~b.mask)
    return MeasurableSet(INTERVAL, intervals=_interval_intersect(
        a.intervals, _interval_complement(b.intervals)))


def symdiff(space: MeasureSpace, a: MeasurableSet, b: MeasurableSet) -> MeasurableSet:
    _check(space, a, b)
    if space.backend == ATOMIC:
        return MeasurableSet(ATOMIC, mask=a.mask ^ b.mask)
    x, y = a.intervals, b.intervals
    return MeasurableSet(INTERVAL, intervals=_interval_union(
        _interval_intersect(x, _interval_complement(y)),
        _interval_intersect(y, _interval_complement(x))))


def complement(space: MeasureSpace, a: MeasurableSet) -> MeasurableSet:
    """Complement relative to X (all atoms, or [0,1))."""
    _check(space, a)
    if space.backend == ATOMIC:
        return MeasurableSet(ATOMIC, mask=a.mask ^ ((1 << space.n_atoms) - 1))
    return MeasurableSet(INTERVAL, intervals=_interval_complement(a.intervals))


def measure(space: MeasureSpace, a: MeasurableSet) -> Fraction:
    """Exact weight sum / length sum."""
    _check(space, a)
    if space.backend == ATOMIC:
        return sum((w for i, w in enumerate(space.weights) if a.mask >> i & 1), Fraction(0))
    return sum((hi - lo for lo, hi in a.intervals), Fraction(0))


def is_null(space: MeasureSpace, a: MeasurableSet) -> bool:
    """True when the set has measure zero.

    With strictly positive atom weights / canonical nonempty intervals this
    is the same as being empty, on both backends.
    """
    _check(space, a)
    if space.backend == ATOMIC:
        return not a.mask
    return not a.intervals


def null_equal(space: MeasureSpace, a: MeasurableSet, b: MeasurableSet) -> bool:
    """Almost-everywhere equality of sets: the symmetric difference is null."""
    return is_null(space, symdiff(space, a, b))


def is_atom(space: MeasureSpace, a: MeasurableSet) -> bool:
    """Positive-measure set admitting no split into two positive-measure parts.

    On the interval backend this is false for every set: any set of positive
    length splits at its measure midpoint.
    """
    _check(space, a)
    if space.backend == ATOMIC:
        return a.mask.bit_count() == 1
    return False


def split_nonatom(space: MeasureSpace, a: MeasurableSet) -> tuple[MeasurableSet, MeasurableSet]:
    """Deterministically split a non-atom of positive measure into two
    positive-measure parts (lowest atom index vs rest; measure midpoint).
    """
    _check(space, a)
    if space.backend == ATOMIC:
        lowest = a.mask & -a.mask
        if lowest == a.mask:
            raise ValueError("cannot split a null set" if not lowest else "cannot split an atom")
        return MeasurableSet(ATOMIC, mask=lowest), MeasurableSet(ATOMIC, mask=a.mask ^ lowest)
    if not a.intervals:
        raise ValueError("cannot split a null set")
    half = measure(space, a) / 2
    left = split_at_measure(space, a, half)
    return left, difference(space, a, left)


def split_at_measure(space: MeasureSpace, a: MeasurableSet, r: Fraction | int | str) -> MeasurableSet:
    """Subset of ``a`` of exact measure ``r`` by a left-to-right prefix scan.

    Interval backend only: exact subsets of a prescribed measure need not
    exist among atom subsets.
    """
    _check(space, a)
    if space.backend != INTERVAL:
        raise BackendMismatchError("split_at_measure is defined on the interval backend only")
    r = Fraction(r)
    total = measure(space, a)
    if not (0 <= r <= total):
        raise ValueError(f"target measure {r} outside [0, {total}]")
    out: list[tuple[Fraction, Fraction]] = []
    remaining = r
    for lo, hi in a.intervals:
        if remaining == 0:
            break
        length = hi - lo
        if length <= remaining:
            out.append((lo, hi))
            remaining -= length
        else:
            out.append((lo, lo + remaining))
            remaining = Fraction(0)
    return MeasurableSet(INTERVAL, intervals=tuple(out))


def cell_masks(space: MeasureSpace, sets: Sequence[MeasurableSet]) -> tuple[int, list[int]]:
    """Masks of X and of each set over the cells of the algebra the sets
    generate: the atoms, or the intervals between consecutive distinct
    endpoints (0 and 1 included), each of positive length.  A Boolean
    combination of the sets is null exactly when that of the masks is 0."""
    _check(space, *sets)
    if space.backend == ATOMIC:
        return (1 << space.n_atoms) - 1, [s.mask for s in sets]
    cuts = sorted({Fraction(0), Fraction(1), *(x for s in sets for p in s.intervals for x in p)})
    cell = {x: i for i, x in enumerate(cuts)}
    return (1 << len(cuts) - 1) - 1, [sum((1 << cell[hi]) - (1 << cell[lo])
                                          for lo, hi in s.intervals) for s in sets]


def is_subset(space: MeasureSpace, a: MeasurableSet, b: MeasurableSet) -> bool:
    """a contained in b up to null sets (exact containment on these backends)."""
    return is_null(space, difference(space, a, b))


def format_rational(q: Fraction) -> str:
    return str(Fraction(q))


def format_set(s: MeasurableSet) -> str:
    """Canonical literal: ``{0,2,5}`` or ``[0,1/4)+[1/2,3/4)`` (``[]`` empty)."""
    if s.backend == ATOMIC:
        return "{" + ",".join(str(i) for i in range(s.mask.bit_length()) if s.mask >> i & 1) + "}"
    if not s.intervals:
        return "[]"
    return "+".join(f"[{format_rational(lo)},{format_rational(hi)})" for lo, hi in s.intervals)


def parse_set(text: str) -> MeasurableSet:
    """Parse a set literal produced by :func:`format_set` (exact round-trip)."""
    text = text.strip()
    if text.startswith("{"):
        if not text.endswith("}"):
            raise ValueError(f"malformed atom-set literal: {text!r}")
        body = text[1:-1].strip()
        if not body:
            return MeasurableSet(ATOMIC)
        return atom_set(int(tok) for tok in body.split(","))
    if text == "[]":
        return MeasurableSet(INTERVAL)
    if text.startswith("["):
        pieces = []
        for chunk in text.split("+"):
            chunk = chunk.strip()
            if not (chunk.startswith("[") and chunk.endswith(")")):
                raise ValueError(f"malformed interval literal: {chunk!r}")
            lo_s, hi_s = chunk[1:-1].split(",")
            pieces.append((Fraction(lo_s), Fraction(hi_s)))
        return interval_set(pieces)
    raise ValueError(f"unrecognized set literal: {text!r}")
