"""Zero-divisor vertices: null-equivalence classes and finite-alphabet functions.

A measurable function is a zero-divisor exactly when its zero set and the
complement both have positive measure.  Up to almost-everywhere equality a
zero-divisor is determined by its zero set, so

* ``ZClass`` -- one equivalence class, canonically represented by its zero
  set.  These are the vertices of every quotient graph.
* ``ExpandedFunction`` -- an atoms -> {0,...,k-1} assignment over a purely
  atomic space; value 0 is the unique zero symbol.  These realize class
  multiplicities (k-1)^|cozero| and are the vertices of expanded graphs.

Annihilator-ideal comparisons reduce to nullity of zero-set differences:
ann(f) <= ann(g) iff Z(f) \\ Z(g) is null, and equality holds iff the zero
sets agree almost everywhere.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property

from .measure_space import (
    ATOMIC,
    AtomicSpace,
    IntervalSpace,
    MeasurableSet,
    MeasureSpace,
    _interval,
    covers,
    format_set,
    is_null,
    is_subset,
)

UNIT_INTERVAL = IntervalSpace()
# Sampled zero sets are unions of 1..SAMPLE_MAX_DEPTH disjoint intervals.
SAMPLE_MAX_DEPTH = 3


@dataclass(frozen=True)
class ZClass:
    """A null-equivalence class of zero-divisors, keyed by its zero set."""

    zero_set: MeasurableSet

    @property
    def label(self) -> str:
        """``Z={...}``, the zero set in set notation."""
        return "Z=" + format_set(self.zero_set)

    def __str__(self) -> str:
        return self.label


def zclass(space: MeasureSpace, zero_set: MeasurableSet) -> ZClass:
    """Build a ZClass, enforcing the zero-divisor condition: the zero set
    has positive measure and does not cover X, so its complement (the
    cozero set) has positive measure too."""
    if is_null(space, zero_set):
        raise ValueError("zero set of a zero-divisor must have positive measure")
    if covers(space, zero_set, zero_set):
        raise ValueError("cozero set of a zero-divisor must have positive measure")
    return ZClass(zero_set)


@dataclass(frozen=True)
class ExpandedFunction:
    """Per-atom values in {0,...,k-1}; identity is the full value vector.

    ``zero_set`` is stored, not compared, hashed or shown: built from
    ``values`` alone it is derived from them (the reference), while
    :func:`enumerate_functions` passes one shared set per class."""

    values: tuple[int, ...]
    zero_set: MeasurableSet = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.zero_set is None:
            mask = sum(1 << i for i, v in enumerate(self.values) if v == 0)
            object.__setattr__(self, "zero_set", MeasurableSet(ATOMIC, mask=mask))

    @cached_property
    def label(self) -> str:
        """``f=[v0,...]``, formatted on first use and kept, so graphs that
        share the function share the string; not a field, so it stays out
        of equality, hashing and ``repr``."""
        return "f=[" + ",".join(map(str, self.values)) + "]"

    def __str__(self) -> str:
        return self.label


def enumerate_zclasses(space: AtomicSpace) -> list[ZClass]:
    """All 2^n - 2 proper nonempty atom subsets as zero sets.

    Order is deterministic: ascending bitmask with bit i = atom i present.
    A single-atom space has no zero-divisors and yields the empty list.
    """
    return [ZClass(MeasurableSet(ATOMIC, mask=mask))
            for mask in range(1, (1 << space.n_atoms) - 1)]


def enumerate_functions(space: AtomicSpace, k: int) -> list[ExpandedFunction]:
    """All zero-divisor assignments, lexicographic; k^n - (k-1)^n - 1 of them.

    The work is O(V + k^(n-1)): the k^(n-1) heads (values on atoms 0..n-2)
    are walked in order with their zero-set masks, and only the last value
    is constrained -- a head with no zero takes 0 alone, an all-zero head
    1..k-1, any other head all k values.  One ``MeasurableSet`` is built per
    zero-set mask and shared by every member of its class.  A single-atom
    space has no zero-divisors and yields the empty list.
    """
    if k < 2:
        raise ValueError("alphabet size must be at least 2")
    n = space.n_atoms
    if n < 2:
        return []
    heads = [((), 0)]
    for i in range(n - 1):
        heads = [(h + (v,), m if v else m | 1 << i) for h, m in heads for v in range(k)]
    last, all_zero = 1 << n - 1, (1 << n - 1) - 1
    sets: dict[int, MeasurableSet] = {}

    def zero_set(mask: int) -> MeasurableSet:
        z = sets.get(mask)
        if z is None:
            z = sets[mask] = MeasurableSet(ATOMIC, mask=mask)
        return z

    out = []
    for h, m in heads:
        if m != all_zero:
            out.append(ExpandedFunction(h + (0,), zero_set(m | last)))
        if m:
            z = zero_set(m)
            out.extend(ExpandedFunction(h + (v,), z) for v in range(1, k))
    return out


def class_size(space: AtomicSpace, zc: ZClass, k: int) -> int:
    """Number of alphabet-k functions in the class: (k-1)^|cozero set|."""
    if zc.zero_set.backend != ATOMIC:
        raise ValueError("class sizes are defined on the atomic backend only")
    coz = space.n_atoms - zc.zero_set.mask.bit_count()
    return (k - 1) ** coz


def ann_leq(space: MeasureSpace, zf: MeasurableSet, zg: MeasurableSet) -> bool:
    """ann(f) contained in ann(g), i.e. Z(f) \\ Z(g) is null."""
    return is_subset(space, zf, zg)


def sample_interval_class(seed, depth: int) -> ZClass:
    """Deterministic random interval-backend ZClass.

    The zero set is a union of ``depth`` disjoint rational intervals chosen
    away from 0 and 1, so both it and its complement have positive measure.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    rng = random.Random(f"zclass:{seed}:{depth}")
    denom = 3 ** depth * 64
    cuts: set[int] = set()
    while len(cuts) < 2 * depth:
        cuts.add(rng.randrange(1, denom))
    return zclass(UNIT_INTERVAL, _interval(denom, sorted(cuts)))


def sample_interval_classes(seed, count: int) -> list[ZClass]:
    """``count`` deterministic samples with depths cycling through
    1..SAMPLE_MAX_DEPTH."""
    return [
        sample_interval_class(f"{seed}:{i}", i % SAMPLE_MAX_DEPTH + 1)
        for i in range(count)
    ]
