"""Exact measure-space backends: weighted atoms and rational subintervals of [0,1).

Two finitely representable backends share one set-algebra API:

* ``AtomicSpace`` -- finitely many atoms with strictly positive rational
  weights; a measurable set is a subset of atom indices, held as an int
  bitmask (bit i = atom i).  A set is null exactly when it is empty.
* ``IntervalSpace`` -- the unit interval [0,1) with length measure; a
  measurable set is a finite union of half-open rational intervals, held
  as integer cuts over one reduced denominator: the pieces are
  ``[cuts[2i]/den, cuts[2i+1]/den)`` with the cuts strictly increasing, so
  adjacent pieces are merged and the form is unique.  The backend is
  non-atomic: no set is an atom.

Each binary operation is a 4-entry truth table on the two memberships,
evaluated on atom masks by ``_atoms`` and on intervals by one merge sweep
over the two cut lists (``_sweep``), the one kernel that builds interval
sets.  The nullity forms ask whether such a set is null and build no set:
``is_disjoint``, ``is_subset`` and ``null_equal`` (``_null``) stop the
sweep at its first cut, and ``covers`` (the union is X), which is
zero-divisor adjacency as ``is_disjoint`` is comaximal, at the first gap.

Weights, measures and split targets are ``fractions.Fraction``; interval
endpoints are ints over a common denominator, so the interval algebra is
int arithmetic.  Nothing in this module ever rounds, and the entry points
that take a value (``AtomicSpace``, ``interval_set``, ``split_at_measure``)
refuse floats.  A set is a named tuple and a space a frozen dataclass, so
all types are immutable, and all operations are pure functions.  Each
operation validates its arguments once, then branches once on the backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import index
from typing import ClassVar, Iterable, NamedTuple, Sequence

ATOMIC = "atomic"
INTERVAL = "interval"


class BackendMismatchError(ValueError):
    """A set was used with a space of the other backend."""


def _exact(value: Fraction | int | str) -> Fraction:
    """``Fraction(value)``, refusing floats: a float is not an exact rational.
    A Fraction is immutable, so one is returned as it is."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(f"exact rationals only (int, Fraction or str), got float {value!r}")
    return Fraction(value)


@dataclass(frozen=True)
class AtomicSpace:
    """Purely atomic space: one strictly positive rational weight per atom.

    The hash is computed once, in ``__post_init__``: a space keys the
    oracle's annihilator-table cache, which is looked up on every oracle
    call."""

    weights: tuple[Fraction, ...]
    n_atoms: int = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)
    backend: ClassVar[str] = ATOMIC

    def __post_init__(self):
        if len(self.weights) < 1:
            raise ValueError("an atomic space needs at least one atom")
        ws = tuple(_exact(w) for w in self.weights)
        if any(w <= 0 for w in ws):
            raise ValueError("atom weights must be strictly positive")
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "n_atoms", len(ws))
        object.__setattr__(self, "_hash", hash(ws))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True)
class IntervalSpace:
    """The unit interval [0,1) with exact length measure (non-atomic)."""

    backend: ClassVar[str] = INTERVAL


MeasureSpace = AtomicSpace | IntervalSpace


def unit_space(n_atoms: int) -> AtomicSpace:
    """Counting-measure style space: ``n_atoms`` atoms of weight 1."""
    return AtomicSpace(tuple(Fraction(1) for _ in range(n_atoms)))


class MeasurableSet(NamedTuple):
    """A set in one backend: atom bitmask, or canonical interval union.

    A named tuple, cheap to build, hash and compare; ``backend`` is its
    first field, so an atomic set never equals an interval set.  Exactly one
    payload is populated, selected by ``backend``: ``mask``, or ``den`` and
    ``cuts``.  Interval payloads are always canonical -- cuts strictly
    increasing in [0, den] and even in number, ``gcd(den, *cuts) == 1``, the
    empty set ``den=1, cuts=()`` -- so structural equality coincides with
    null-equality (two canonical interval unions that differ must differ by
    a set of positive length).
    """

    backend: str
    mask: int = 0
    den: int = 1
    cuts: tuple[int, ...] = ()

    @property
    def intervals(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """The pieces as ``(lo, hi)`` Fraction pairs, left to right."""
        c, d = self.cuts, self.den
        return tuple((Fraction(c[i], d), Fraction(c[i + 1], d)) for i in range(0, len(c), 2))

    def __str__(self) -> str:
        return format_set(self)


def atom_set(indices: Iterable[int]) -> MeasurableSet:
    """Atomic-backend set from atom indices; a non-integer index such as a
    float raises TypeError rather than being truncated."""
    mask = 0
    for i in indices:
        i = index(i)
        if i < 0:
            raise ValueError("atom indices must be non-negative")
        mask |= 1 << i
    return MeasurableSet(ATOMIC, mask=mask)


def _interval(den: int, cuts: Sequence[int]) -> MeasurableSet:
    """Interval set from strictly increasing cuts over ``den``, in lowest terms."""
    g = gcd(den, *cuts)
    if g != 1:
        den //= g
        cuts = [c // g for c in cuts]
    return MeasurableSet(INTERVAL, 0, den, tuple(cuts))  # positional binds faster


def interval_set(pairs: Iterable[tuple[Fraction | int | str, Fraction | int | str]]) -> MeasurableSet:
    """Interval-backend set from [lo, hi) pairs, canonicalized."""
    exact = [(_exact(lo), _exact(hi)) for lo, hi in pairs]
    den = lcm(*(x.denominator for pair in exact for x in pair))
    scaled = []
    for lo, hi in exact:
        a, b = lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator)
        if not (0 <= a < b <= den):
            raise ValueError(f"intervals must satisfy 0 <= lo < hi <= 1, got [{lo},{hi})")
        scaled.append((a, b))
    cuts: list[int] = []
    for a, b in sorted(scaled):
        if cuts and a <= cuts[-1]:
            cuts[-1] = max(cuts[-1], b)
        else:
            cuts += (a, b)
    return _interval(den, cuts)


def _check(space: MeasureSpace, *sets: MeasurableSet) -> None:
    """Refuse a set of the other backend, or an atomic set with a bit at or
    above the atom count.  An interval set costs one comparison."""
    backend = space.backend
    for s in sets:
        if s.backend != backend:
            raise BackendMismatchError(
                f"set backend {s.backend!r} used with space backend {backend!r}"
            )
    if backend == ATOMIC:
        for s in sets:
            if s.mask >> space.n_atoms:
                raise ValueError(f"atom index out of range for a {space.n_atoms}-atom space")


# The binary operations as truth tables, indexed by 2 * in_a + in_b; each is
# false on (0, 0), so what lies in neither set lies outside the result.
UNION = (0, 1, 1, 1)
INTERSECT = (0, 0, 0, 1)
DIFFERENCE = (0, 0, 1, 0)
SYMDIFF = (0, 1, 1, 0)


def _rescaled(a: MeasurableSet, b: MeasurableSet):
    """The cut lists of two interval sets over their common denominator, and it."""
    if a.den == b.den:
        return a.cuts, b.cuts, a.den
    den = lcm(a.den, b.den)
    fa, fb = den // a.den, den // b.den
    return [c * fa for c in a.cuts], [c * fb for c in b.cuts], den


def _sweep(ca: Sequence[int], cb: Sequence[int], table: tuple[int, ...],
           limit: int | None = None) -> list[int]:
    """The cuts, left to right, of the set where ``table[2 * in_a + in_b]``
    holds, for two cut lists over one denominator; a ``limit`` ends the
    merge at its first ``limit`` cuts.  Just past a cut, ``state`` holds
    both memberships: a cut of a toggles its bit 2, a cut of b its bit 1.
    Once one list is spent its set is left behind, so the rest of the other
    list is the rest of the result, or none of it."""
    na, nb = len(ca), len(cb)
    out: list[int] = []
    i = j = state = inside = 0
    while i < na and j < nb:
        x, y = ca[i], cb[j]
        if x <= y:
            i += 1
            state ^= 2
        if y <= x:
            j += 1
            state ^= 1
            x = y
        if table[state] != inside:
            inside ^= 1
            out.append(x)
            if len(out) == limit:
                return out
    if i < na:
        if table[2]:
            out += ca[i:]
    elif table[1]:
        out += cb[j:]
    return out


def _atoms(x: int, y: int, table: tuple[int, ...]) -> int:
    """The mask where ``table`` holds on two atom masks: ``table[1]``,
    ``[2]`` and ``[3]`` pick the atoms in y only, in x only and in both."""
    return (table[1] and y & ~x) | (table[2] and x & ~y) | (table[3] and x & y)


def _combine(space: MeasureSpace, a: MeasurableSet, b: MeasurableSet,
             table: tuple[int, ...]) -> MeasurableSet:
    """The set where ``table`` holds; on intervals in canonical form."""
    _check(space, a, b)
    if space.backend == ATOMIC:
        return MeasurableSet(ATOMIC, _atoms(a.mask, b.mask, table))
    ca, cb, den = _rescaled(a, b)
    return _interval(den, _sweep(ca, cb, table))


def _null(space: MeasureSpace, a: MeasurableSet, b: MeasurableSet, table: tuple[int, ...]) -> bool:
    """True when the set where ``table`` holds is null, building no set: on
    intervals the sweep stops at its first cut."""
    _check(space, a, b)
    if space.backend == ATOMIC:
        return not _atoms(a.mask, b.mask, table)
    ca, cb, _ = _rescaled(a, b)
    return not _sweep(ca, cb, table, 1)


def union(space: MeasureSpace, a: MeasurableSet, b: MeasurableSet) -> MeasurableSet:
    return _combine(space, a, b, UNION)


def intersect(space: MeasureSpace, a: MeasurableSet, b: MeasurableSet) -> MeasurableSet:
    return _combine(space, a, b, INTERSECT)


def difference(space: MeasureSpace, a: MeasurableSet, b: MeasurableSet) -> MeasurableSet:
    return _combine(space, a, b, DIFFERENCE)


def symdiff(space: MeasureSpace, a: MeasurableSet, b: MeasurableSet) -> MeasurableSet:
    return _combine(space, a, b, SYMDIFF)


def complement(space: MeasureSpace, a: MeasurableSet) -> MeasurableSet:
    """Complement relative to X (all atoms, or [0,1)).

    On intervals this toggles the cuts at 0 and at ``den``; neither one
    changes ``gcd(den, *cuts)``, so the result is already in lowest terms."""
    _check(space, a)
    if space.backend == ATOMIC:
        return MeasurableSet(ATOMIC, mask=a.mask ^ ((1 << space.n_atoms) - 1))
    c, den = a.cuts, a.den
    c = c[1:] if c and c[0] == 0 else (0, *c)
    c = c[:-1] if c and c[-1] == den else (*c, den)
    return MeasurableSet(INTERVAL, 0, den, c)


def measure(space: MeasureSpace, a: MeasurableSet) -> Fraction:
    """Exact weight sum / length sum."""
    _check(space, a)
    if space.backend == ATOMIC:
        return sum((w for i, w in enumerate(space.weights) if a.mask >> i & 1), Fraction(0))
    return Fraction(sum(a.cuts[1::2]) - sum(a.cuts[::2]), a.den)


def is_null(space: MeasureSpace, a: MeasurableSet) -> bool:
    """True when the set has measure zero.

    With strictly positive atom weights / canonical nonempty intervals this
    is the same as being empty, on both backends.
    """
    _check(space, a)
    if space.backend == ATOMIC:
        return not a.mask
    return not a.cuts


def null_equal(space: MeasureSpace, a: MeasurableSet, b: MeasurableSet) -> bool:
    """Almost-everywhere equality of sets: the symmetric difference is null."""
    return _null(space, a, b, SYMDIFF)


def is_disjoint(space: MeasureSpace, a: MeasurableSet, b: MeasurableSet) -> bool:
    """The sets meet in a null set."""
    return _null(space, a, b, INTERSECT)


def covers(space: MeasureSpace, a: MeasurableSet, b: MeasurableSet) -> bool:
    """The union is X up to null sets, building no set.  On intervals one
    walk over both lists' pieces tracks the covered prefix [0, reach): a
    piece that starts within or at its end extends it, and when neither
    list's next piece does, [reach, den) has a gap of positive length."""
    _check(space, a, b)
    if space.backend == ATOMIC:
        return a.mask | b.mask == (1 << space.n_atoms) - 1
    ca, cb, den = _rescaled(a, b)
    na, nb = len(ca), len(cb)
    i = j = reach = 0
    while reach < den:
        if i < na and ca[i] <= reach:
            hi = ca[i + 1]
            i += 2
        elif j < nb and cb[j] <= reach:
            hi = cb[j + 1]
            j += 2
        else:
            return False
        if hi > reach:
            reach = hi
    return True


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
    if not a.cuts:
        raise ValueError("cannot split a null set")
    # over 2 * den, half the length is the length over den
    c = [2 * x for x in a.cuts]
    left, right = _split_cuts(c, sum(a.cuts[1::2]) - sum(a.cuts[::2]))
    return _interval(2 * a.den, left), _interval(2 * a.den, right)


def _split_cuts(c: Sequence[int], r: int) -> tuple[list[int], list[int]]:
    """The cuts of the first ``r`` units of length of the pieces ``c``, and
    of the rest; ``r`` lies between 0 and their total length."""
    for k in range(0, len(c), 2):
        lo, hi = c[k], c[k + 1]
        if r <= hi - lo:
            x = lo + r
            left = [*c[:k], lo, x] if r else [*c[:k]]
            return left, [x, hi, *c[k + 2:]] if x < hi else [*c[k + 2:]]
        r -= hi - lo
    return [], []


def split_at_measure(space: MeasureSpace, a: MeasurableSet, r: Fraction | int | str) -> MeasurableSet:
    """Subset of ``a`` of exact measure ``r`` by a left-to-right prefix scan.

    Interval backend only: exact subsets of a prescribed measure need not
    exist among atom subsets.  The scan runs on ints over
    ``lcm(den, r.denominator)``.
    """
    _check(space, a)
    if space.backend != INTERVAL:
        raise BackendMismatchError("split_at_measure is defined on the interval backend only")
    r = _exact(r)
    den = lcm(a.den, r.denominator)
    c = [x * (den // a.den) for x in a.cuts]
    total = sum(c[1::2]) - sum(c[::2])
    remaining = r.numerator * (den // r.denominator)
    if not (0 <= remaining <= total):
        raise ValueError(f"target measure {r} outside [0, {Fraction(total, den)}]")
    return _interval(den, _split_cuts(c, remaining)[0])


def cell_masks(space: MeasureSpace, sets: Sequence[MeasurableSet]) -> tuple[int, list[int]]:
    """Masks of X and of each set over the cells of the algebra the sets
    generate: the atoms, or the intervals between consecutive distinct
    endpoints (0 and 1 included), each of positive length.  A Boolean
    combination of the sets is null exactly when that of the masks is 0."""
    _check(space, *sets)
    if space.backend == ATOMIC:
        return (1 << space.n_atoms) - 1, [s.mask for s in sets]
    den = lcm(*{s.den for s in sets})
    scaled = [[x * (den // s.den) for x in s.cuts] for s in sets]
    cuts = sorted({0, den, *(x for c in scaled for x in c)})
    cell = {x: i for i, x in enumerate(cuts)}
    return (1 << len(cuts) - 1) - 1, [sum((1 << cell[c[k + 1]]) - (1 << cell[c[k]])
                                          for k in range(0, len(c), 2)) for c in scaled]


def is_subset(space: MeasureSpace, a: MeasurableSet, b: MeasurableSet) -> bool:
    """a contained in b up to null sets (exact containment on these backends)."""
    return _null(space, a, b, DIFFERENCE)


def format_set(s: MeasurableSet) -> str:
    """Canonical literal: ``{0,2,5}`` or ``[0,1/4)+[1/2,3/4)`` (``[]`` empty)."""
    if s.backend == ATOMIC:
        return "{" + ",".join(str(i) for i in range(s.mask.bit_length()) if s.mask >> i & 1) + "}"
    if not s.intervals:
        return "[]"
    return "+".join(f"[{lo},{hi})" for lo, hi in s.intervals)


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
