"""Exact set algebra, measure evaluation, atoms, and constructive splitting."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrfgraph.measure_space import (
    AtomicSpace,
    BackendMismatchError,
    IntervalSpace,
    MeasurableSet,
    atom_set,
    cell_masks,
    complement,
    difference,
    format_set,
    intersect,
    interval_set,
    is_atom,
    is_null,
    is_subset,
    measure,
    null_equal,
    parse_set,
    split_at_measure,
    split_nonatom,
    symdiff,
    union,
    unit_space,
)

INTERVAL_SPACE = IntervalSpace()


def iv(*pairs):
    return interval_set([(Fraction(lo), Fraction(hi)) for lo, hi in pairs])


# -- strategies -------------------------------------------------------------

atom_spaces = st.integers(1, 5).map(unit_space)


@st.composite
def weighted_spaces(draw):
    n = draw(st.integers(1, 5))
    weights = tuple(Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9)))
                    for _ in range(n))
    return AtomicSpace(weights)


@st.composite
def space_and_sets(draw, count=2):
    space = draw(weighted_spaces())
    sets = tuple(
        atom_set(i for i in range(space.n_atoms) if draw(st.booleans()))
        for _ in range(count)
    )
    return (space, *sets)


@st.composite
def interval_sets(draw, max_pieces=3):
    pieces = draw(st.integers(0, max_pieces))
    denom = draw(st.sampled_from([8, 12, 16, 24, 64]))
    cuts = draw(st.lists(st.integers(0, denom), min_size=2 * pieces,
                         max_size=2 * pieces, unique=True))
    points = sorted(Fraction(c, denom) for c in cuts)
    return interval_set((points[2 * i], points[2 * i + 1]) for i in range(pieces))


# -- construction and literals ----------------------------------------------

def test_atomic_space_rejects_nonpositive_weights():
    with pytest.raises(ValueError):
        AtomicSpace((Fraction(0), Fraction(1)))
    with pytest.raises(ValueError):
        AtomicSpace(())


def test_interval_set_canonicalizes_adjacent_pieces():
    assert iv((0, "1/3"), ("1/3", "1/2")) == iv((0, "1/2"))


def test_interval_set_rejects_bad_bounds():
    with pytest.raises(ValueError):
        iv(("1/2", "1/4"))
    with pytest.raises(ValueError):
        iv((0, "3/2"))


def test_literal_round_trips():
    for text in ("{0,2,5}", "{}", "[0,1/4)+[1/2,3/4)", "[]"):
        assert format_set(parse_set(text)) == text


def test_parse_canonicalizes_interval_literal():
    assert parse_set("[0,1/3)+[1/3,1/2)") == iv((0, "1/2"))
    assert format_set(parse_set("[0,1/3)+[1/3,1/2)")) == "[0,1/2)"
    with pytest.raises(ValueError):
        parse_set("[1/2,1/4)")
    with pytest.raises(ValueError):
        parse_set("(0,1/2)")


# -- boolean algebra --------------------------------------------------------

def test_atomic_intersection_example():
    space = unit_space(3)
    assert intersect(space, atom_set([0, 1]), atom_set([1, 2])) == atom_set([1])


def test_interval_complement_example():
    assert complement(INTERVAL_SPACE, iv(("1/4", "1/2"))) == iv((0, "1/4"), ("1/2", 1))


def test_interval_union_merges():
    assert union(INTERVAL_SPACE, iv((0, "1/3")), iv(("1/3", "1/2"))) == iv((0, "1/2"))


def test_backend_mismatch_raises():
    with pytest.raises(BackendMismatchError):
        measure(unit_space(2), iv((0, "1/2")))
    with pytest.raises(BackendMismatchError):
        union(INTERVAL_SPACE, iv((0, "1/2")), atom_set([0]))


def test_atom_index_out_of_range():
    space, ok = unit_space(2), atom_set([0])
    with pytest.raises(ValueError):
        measure(space, atom_set([5]))
    for bad in (atom_set([2]), atom_set([0, 5]), MeasurableSet("atomic", mask=-1)):
        for binary in (union, intersect, difference, symdiff, null_equal, is_subset):
            with pytest.raises(ValueError):
                binary(space, ok, bad)
            with pytest.raises(ValueError):
                binary(space, bad, ok)
        for unary in (complement, measure, is_null, is_atom, split_nonatom):
            with pytest.raises(ValueError):
                unary(space, bad)


def _members(s: MeasurableSet) -> frozenset[int]:
    """The atoms of an atomic set, read bit by bit from its mask."""
    assert s.backend == "atomic" and s.mask >= 0
    return frozenset(i for i in range(s.mask.bit_length()) if s.mask >> i & 1)


@given(weighted_spaces(), st.data())
def test_atomic_operations_match_frozenset_model(space, data):
    """Every atomic operation on masks agrees with plain frozenset algebra."""
    n = space.n_atoms
    x, y = (data.draw(st.integers(0, (1 << n) - 1)) for _ in range(2))
    a, b = MeasurableSet("atomic", mask=x), MeasurableSet("atomic", mask=y)
    sa, sb = _members(a), _members(b)
    assert _members(union(space, a, b)) == sa | sb
    assert _members(intersect(space, a, b)) == sa & sb
    assert _members(difference(space, a, b)) == sa - sb
    assert _members(symdiff(space, a, b)) == sa ^ sb
    assert _members(complement(space, a)) == frozenset(range(n)) - sa
    assert measure(space, a) == sum((space.weights[i] for i in sa), Fraction(0))
    assert is_null(space, a) == (not sa)
    assert is_atom(space, a) == (len(sa) == 1)
    assert null_equal(space, a, b) == (sa == sb)
    text = format_set(a)
    assert text == "{" + ",".join(str(i) for i in sorted(sa)) + "}"
    assert parse_set(text) == a
    if len(sa) < 2:
        with pytest.raises(ValueError):
            split_nonatom(space, a)
    else:
        left, right = split_nonatom(space, a)
        assert (_members(left), _members(right)) == ({min(sa)}, sa - {min(sa)})


@given(space_and_sets())
def test_de_morgan_atomic(args):
    space, a, b = args
    assert complement(space, union(space, a, b)) == intersect(
        space, complement(space, a), complement(space, b))
    assert complement(space, intersect(space, a, b)) == union(
        space, complement(space, a), complement(space, b))


@given(interval_sets(), interval_sets())
def test_de_morgan_interval(a, b):
    space = INTERVAL_SPACE
    assert complement(space, union(space, a, b)) == intersect(
        space, complement(space, a), complement(space, b))


@given(space_and_sets())
def test_absorption_laws(args):
    space, a, b = args
    assert union(space, a, intersect(space, a, b)) == a
    assert intersect(space, a, union(space, a, b)) == a


@given(interval_sets(), interval_sets())
def test_absorption_laws_interval(a, b):
    space = INTERVAL_SPACE
    assert union(space, a, intersect(space, a, b)) == a
    assert intersect(space, a, union(space, a, b)) == a


@given(interval_sets(), interval_sets())
def test_symdiff_definition_interval(a, b):
    space = INTERVAL_SPACE
    assert symdiff(space, a, b) == union(
        space, difference(space, a, b), difference(space, b, a))


@given(interval_sets())
def test_canonical_idempotence(a):
    assert interval_set(a.intervals) == a


@given(interval_sets(), interval_sets())
def test_boolean_outputs_are_canonical(a, b):
    for op in (union, intersect, difference, symdiff):
        out = op(INTERVAL_SPACE, a, b)
        assert interval_set(out.intervals) == out


# -- measure ----------------------------------------------------------------

def test_weighted_measure_example():
    space = AtomicSpace((Fraction(1), Fraction(2), Fraction(5)))
    assert measure(space, atom_set([0, 2])) == 6


def test_interval_measure_example():
    assert measure(INTERVAL_SPACE, iv((0, "1/4"), ("1/2", 1))) == Fraction(3, 4)


def test_null_equal_examples():
    space = unit_space(2)
    assert null_equal(space, atom_set([0]), atom_set([0]))
    assert not null_equal(space, atom_set([0]), atom_set([1]))


@given(space_and_sets())
def test_finite_additivity(args):
    space, a, b = args
    disjoint_b = difference(space, b, a)
    assert measure(space, union(space, a, disjoint_b)) == \
        measure(space, a) + measure(space, disjoint_b)


@given(interval_sets(), interval_sets())
def test_finite_additivity_interval(a, b):
    space = INTERVAL_SPACE
    disjoint_b = difference(space, b, a)
    assert measure(space, union(space, a, disjoint_b)) == \
        measure(space, a) + measure(space, disjoint_b)


# -- atoms and splitting ----------------------------------------------------

def test_is_atom_examples():
    space = unit_space(3)
    assert is_atom(space, atom_set([1]))
    assert not is_atom(space, atom_set([0, 2]))
    assert not is_atom(INTERVAL_SPACE, iv((0, "1/2")))
    assert not is_atom(space, atom_set([]))


def test_split_nonatom_atomic_example():
    space = unit_space(3)
    assert split_nonatom(space, atom_set([0, 2])) == (atom_set([0]), atom_set([2]))


def test_split_nonatom_interval_midpoint():
    left, right = split_nonatom(INTERVAL_SPACE, iv((0, "1/2")))
    assert left == iv((0, "1/4"))
    assert right == iv(("1/4", "1/2"))
    assert measure(INTERVAL_SPACE, left) == measure(INTERVAL_SPACE, right)


def test_split_nonatom_rejects_atoms_and_null():
    with pytest.raises(ValueError):
        split_nonatom(unit_space(2), atom_set([1]))
    with pytest.raises(ValueError):
        split_nonatom(unit_space(2), atom_set([]))


@given(space_and_sets(count=1))
def test_split_nonatom_reassembles(args):
    space, a = args
    if is_null(space, a) or is_atom(space, a):
        return
    left, right = split_nonatom(space, a)
    assert union(space, left, right) == a
    assert is_null(space, intersect(space, left, right))
    assert not is_null(space, left) and not is_null(space, right)


def test_split_at_measure_examples():
    space = INTERVAL_SPACE
    assert split_at_measure(space, iv((0, 1)), Fraction(1, 3)) == iv((0, "1/3"))
    part = split_at_measure(space, iv((0, "1/4"), ("1/2", 1)), Fraction(1, 2))
    assert part == iv((0, "1/4"), ("1/2", "3/4"))
    assert measure(space, part) == Fraction(1, 2)
    assert split_at_measure(space, iv((0, "1/4")), 0) == MeasurableSet("interval")


def test_split_at_measure_errors():
    with pytest.raises(ValueError):
        split_at_measure(INTERVAL_SPACE, iv((0, "1/4")), Fraction(1, 2))
    with pytest.raises(BackendMismatchError):
        split_at_measure(unit_space(2), atom_set([0]), Fraction(1, 2))


@settings(max_examples=200)
@given(interval_sets(), st.integers(0, 100))
def test_split_at_measure_exact_subset(a, percent):
    space = INTERVAL_SPACE
    r = measure(space, a) * Fraction(percent, 100)
    part = split_at_measure(space, a, r)
    assert measure(space, part) == r
    assert is_subset(space, part, a)


@given(weighted_spaces(), st.integers(0, 31))
def test_atom_dichotomy(space, mask):
    b = atom_set(i for i in range(space.n_atoms) if mask >> i & 1)
    for a in range(space.n_atoms):
        atom = atom_set([a])
        assert is_null(space, intersect(space, atom, b)) or \
            is_null(space, difference(space, atom, b))


# -- cell masks --------------------------------------------------------------

@given(st.lists(interval_sets(), min_size=1, max_size=5))
def test_interval_cell_masks_commute_with_set_algebra(sets):
    """A mask is 0 iff its set is null, masks are equal iff their sets are,
    and every operation on sets is the matching int operation on masks."""
    a, b = sets[0], sets[-1]
    ops = [union(INTERVAL_SPACE, a, b), intersect(INTERVAL_SPACE, a, b),
           difference(INTERVAL_SPACE, a, b), complement(INTERVAL_SPACE, a)]
    full, masks = cell_masks(INTERVAL_SPACE, [*sets, *ops])
    ma, mb = masks[0], masks[len(sets) - 1]
    assert masks[len(sets):] == [ma | mb, ma & mb, ma & ~mb, full ^ ma]
    everything = [*sets, *ops]
    for s, m in zip(everything, masks):
        assert (m == 0) == is_null(INTERVAL_SPACE, s)
        assert m & ~full == 0
    for (s, m), (t, n) in itertools.combinations(zip(everything, masks), 2):
        assert (m == n) == null_equal(INTERVAL_SPACE, s, t)


def test_interval_cell_masks_examples():
    sets = [iv((0, "1/2")), iv(("1/2", 1)), iv(("1/4", "1/2"), ("3/4", 1))]
    assert cell_masks(INTERVAL_SPACE, sets) == (0b1111, [0b0011, 0b1100, 0b1010])
    assert cell_masks(INTERVAL_SPACE, []) == (0b1, [])
    assert cell_masks(INTERVAL_SPACE, [iv()]) == (0b1, [0])
    with pytest.raises(BackendMismatchError):
        cell_masks(INTERVAL_SPACE, [atom_set([0])])


@given(space_and_sets(count=3))
def test_atomic_cell_masks_are_the_atom_masks(args):
    space, *sets = args
    full, masks = cell_masks(space, sets)
    assert full == complement(space, MeasurableSet("atomic")).mask
    assert masks == [s.mask for s in sets]
