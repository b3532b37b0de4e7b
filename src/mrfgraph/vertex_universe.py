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

import itertools
import random
from dataclasses import dataclass

from .measure_space import (
    ATOMIC,
    AtomicSpace,
    IntervalSpace,
    MeasurableSet,
    MeasureSpace,
    _interval,
    complement,
    difference,
    format_set,
    is_null,
)

UNIT_INTERVAL = IntervalSpace()
# Sampled zero sets are unions of 1..SAMPLE_MAX_DEPTH disjoint intervals.
SAMPLE_MAX_DEPTH = 3


@dataclass(frozen=True)
class ZClass:
    """A null-equivalence class of zero-divisors, keyed by its zero set."""

    zero_set: MeasurableSet

    def __str__(self) -> str:
        return format_zclass(self)


def zclass(space: MeasureSpace, zero_set: MeasurableSet) -> ZClass:
    """Build a ZClass, enforcing that both the zero set and its complement
    have positive measure (the zero-divisor condition)."""
    if is_null(space, zero_set):
        raise ValueError("zero set of a zero-divisor must have positive measure")
    if is_null(space, complement(space, zero_set)):
        raise ValueError("cozero set of a zero-divisor must have positive measure")
    return ZClass(zero_set)


@dataclass(frozen=True)
class ExpandedFunction:
    """Per-atom values in {0,...,k-1}; identity is the full value vector."""

    values: tuple[int, ...]

    @property
    def zero_set(self) -> MeasurableSet:
        mask = sum(1 << i for i, v in enumerate(self.values) if v == 0)
        return MeasurableSet(ATOMIC, mask=mask)

    def is_zero_divisor(self) -> bool:
        return any(v == 0 for v in self.values) and any(v != 0 for v in self.values)

    def __str__(self) -> str:
        return format_function(self)


def enumerate_zclasses(space: AtomicSpace) -> list[ZClass]:
    """All 2^n - 2 proper nonempty atom subsets as zero sets.

    Order is deterministic: ascending bitmask with bit i = atom i present.
    A single-atom space has no zero-divisors and yields the empty list.
    """
    return [ZClass(MeasurableSet(ATOMIC, mask=mask))
            for mask in range(1, (1 << space.n_atoms) - 1)]


def enumerate_functions(space: AtomicSpace, k: int) -> list[ExpandedFunction]:
    """All zero-divisor assignments, lexicographic; k^n - (k-1)^n - 1 of them."""
    if k < 2:
        raise ValueError("alphabet size must be at least 2")
    out = []
    for values in itertools.product(range(k), repeat=space.n_atoms):
        f = ExpandedFunction(values)
        if f.is_zero_divisor():
            out.append(f)
    return out


def class_size(space: AtomicSpace, zc: ZClass, k: int) -> int:
    """Number of alphabet-k functions in the class: (k-1)^|cozero set|."""
    if zc.zero_set.backend != ATOMIC:
        raise ValueError("class sizes are defined on the atomic backend only")
    coz = space.n_atoms - zc.zero_set.mask.bit_count()
    return (k - 1) ** coz


def ann_leq(space: MeasureSpace, zf: MeasurableSet, zg: MeasurableSet) -> bool:
    """ann(f) contained in ann(g), i.e. Z(f) \\ Z(g) is null."""
    return is_null(space, difference(space, zf, zg))


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


def format_zclass(zc: ZClass) -> str:
    return "Z=" + format_set(zc.zero_set)


def format_function(f: ExpandedFunction) -> str:
    return "f=[" + ",".join(str(v) for v in f.values) + "]"

