"""Exact set algebra, measure evaluation, atoms, and constructive splitting."""

import itertools
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrfgraph import measure_space
from mrfgraph.measure_space import (
    DIFFERENCE,
    INTERSECT,
    SYMDIFF,
    UNION,
    AtomicSpace,
    BackendMismatchError,
    IntervalSpace,
    MeasurableSet,
    _exact,
    _null,
    atom_set,
    cell_masks,
    complement,
    covers,
    difference,
    format_set,
    intersect,
    interval_set,
    is_atom,
    is_disjoint,
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


# Denominators: powers of two, the sampler's 3^d * 64 (d = 1, 3), and two
# coprime to them, so that rescaling to a common denominator, reduction to
# lowest terms and split targets over a foreign denominator all occur.
DENOMS = [8, 12, 16, 24, 64, 192, 1728, 7, 25]


@st.composite
def interval_sets(draw, max_pieces=3):
    pieces = draw(st.integers(0, max_pieces))
    denom = draw(st.sampled_from(DENOMS))
    cuts = draw(st.lists(st.integers(0, denom), min_size=2 * pieces,
                         max_size=2 * pieces, unique=True))
    points = sorted(Fraction(c, denom) for c in cuts)
    return interval_set((points[2 * i], points[2 * i + 1]) for i in range(pieces))


# -- slow reference: the interval algebra on sorted Fraction pairs -----------

def _canonical(pairs):
    """Sort, merge overlapping and adjacent pieces; unique per set."""
    out = []
    for lo, hi in sorted(pairs):
        if out and lo <= out[-1][1]:
            prev_lo, prev_hi = out[-1]
            out[-1] = (prev_lo, max(prev_hi, hi))
        else:
            out.append((lo, hi))
    return tuple(out)


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


def _interval_split(a, r):
    """Prefix of the pieces ``a`` of total length ``r``."""
    out = []
    for lo, hi in a:
        if r == 0:
            break
        take = min(hi - lo, r)
        out.append((lo, lo + take))
        r -= take
    return tuple(out)


def _interval_cells(sets):
    cuts = sorted({Fraction(0), Fraction(1), *(x for s in sets for p in s for x in p)})
    cell = {x: i for i, x in enumerate(cuts)}
    return (1 << len(cuts) - 1) - 1, [sum((1 << cell[hi]) - (1 << cell[lo]) for lo, hi in s)
                                      for s in sets]


# -- construction and literals ----------------------------------------------

def test_atomic_space_rejects_nonpositive_weights():
    with pytest.raises(ValueError):
        AtomicSpace((Fraction(0), Fraction(1)))
    with pytest.raises(ValueError):
        AtomicSpace(())


def test_interval_set_canonicalizes_adjacent_pieces():
    assert iv((0, "1/3"), ("1/3", "1/2")) == iv((0, "1/2"))


def test_floats_are_rejected_at_exact_entry_points():
    """A float is not an exact rational: 0.1 would silently become
    3602879701896397/36028797018963968."""
    with pytest.raises(TypeError):
        interval_set([(0.1, Fraction(1, 2))])
    with pytest.raises(TypeError):
        interval_set([(0, 1.0)])
    with pytest.raises(TypeError):
        split_at_measure(INTERVAL_SPACE, iv((0, 1)), 0.1)
    with pytest.raises(TypeError):
        AtomicSpace((0.1, 1))
    assert interval_set([(0, "1/2")]) == interval_set([(Fraction(0), Fraction(1, 2))])
    assert split_at_measure(INTERVAL_SPACE, iv((0, 1)), "1/10") == iv((0, "1/10"))
    assert AtomicSpace((1, "1/3")).weights == (Fraction(1), Fraction(1, 3))


def test_atomic_space_hash_is_cached_and_equality_unchanged():
    a = AtomicSpace((Fraction(1), Fraction(2, 3)))
    b = AtomicSpace((1, "2/3"))
    assert a == b and hash(a) == hash(b) and hash(a) == hash(a)
    assert a != AtomicSpace((Fraction(1), Fraction(1, 3)))
    assert a != unit_space(2)
    assert {a: 0}[b] == 0
    assert repr(a) == f"AtomicSpace(weights={a.weights!r})"


def test_interval_payload_is_reduced_integer_cuts():
    assert iv((0, "1/4"), ("1/2", "3/4")).den == 4
    assert iv((0, "1/4"), ("1/2", "3/4")).cuts == (0, 1, 2, 3)
    assert iv(("1/6", "1/2")) == MeasurableSet("interval", den=6, cuts=(1, 3))
    assert iv((0, 1)) == MeasurableSet("interval", den=1, cuts=(0, 1))
    assert iv() == MeasurableSet("interval") == complement(INTERVAL_SPACE, iv((0, 1)))
    assert iv(("1/3", "2/3")).intervals == ((Fraction(1, 3), Fraction(2, 3)),)


def test_measurable_set_is_a_value():
    """Keyword and positional construction agree, the backend takes part in
    equality, a set cannot be assigned to, and ``repr``, ``str`` and
    ``hash`` read as those of the frozen dataclass the named tuple replaced."""
    kw = MeasurableSet(backend="interval", mask=0, den=4, cuts=(0, 1, 2, 3))
    pos = MeasurableSet("interval", 0, 4, (0, 1, 2, 3))
    assert kw == pos == iv((0, "1/4"), ("1/2", "3/4")) and hash(kw) == hash(pos)
    assert hash(kw) == hash(("interval", 0, 4, (0, 1, 2, 3)))
    assert MeasurableSet("atomic") != MeasurableSet("interval")
    assert atom_set([]) != iv() and len({atom_set([]), iv()}) == 2
    assert MeasurableSet("atomic", mask=1) != MeasurableSet("interval", mask=1)
    with pytest.raises(AttributeError):
        kw.cuts = ()
    assert repr(kw) == "MeasurableSet(backend='interval', mask=0, den=4, cuts=(0, 1, 2, 3))"
    assert str(kw) == "[0,1/4)+[1/2,3/4)" and f"{kw}" == str(kw)
    a = atom_set([0, 2])
    assert repr(a) == "MeasurableSet(backend='atomic', mask=5, den=1, cuts=())"
    assert str(a) == "{0,2}" and str(iv()) == "[]"


def test_exact_passes_a_fraction_through():
    """A Fraction is immutable, so ``_exact`` returns it as it is."""
    r = Fraction(2, 7)
    assert _exact(r) is r
    assert _exact("2/7") == r and _exact(3) == Fraction(3)
    with pytest.raises(TypeError):
        _exact(0.25)


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


def test_atom_set_rejects_non_integer_indices():
    """Indices are taken with ``operator.index``: a float raises rather than
    being truncated, while ints, bools and int-like objects pass."""
    for bad in ([1.5, 0.9], [0, 2.0], ["1"], [Fraction(1)]):
        with pytest.raises(TypeError):
            atom_set(bad)
    small = type("Small", (), {"__index__": lambda self: 2})
    assert atom_set([0, True, small()]) == atom_set([0, 1, 2])
    assert atom_set(range(3)).mask == 0b111


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


# -- integer cuts against the Fraction-pair reference -------------------------

def _assert_canonical(s):
    """Cuts strictly increasing in [0, den], even in number, in lowest terms."""
    c = s.cuts
    assert s.backend == "interval" and s.mask == 0 and len(c) % 2 == 0
    assert all(0 <= x <= s.den for x in c) and list(c) == sorted(set(c))
    assert math.gcd(s.den, *c) == 1


@st.composite
def raw_pieces(draw):
    """Unsorted, possibly overlapping or touching pieces over mixed denominators."""
    out = []
    for _ in range(draw(st.integers(0, 4))):
        denom = draw(st.sampled_from(DENOMS))
        lo, hi = sorted(draw(st.lists(st.integers(0, denom), min_size=2, max_size=2,
                                      unique=True)))
        out.append((Fraction(lo, denom), Fraction(hi, denom)))
    return out


@given(raw_pieces())
def test_interval_set_matches_reference_canonical_form(pieces):
    s = interval_set(pieces)
    _assert_canonical(s)
    assert s.intervals == _canonical(pieces)


@settings(max_examples=300)
@given(interval_sets(), interval_sets(), st.integers(0, 100),
       st.sampled_from([1, 2, 3, 7, 100]))
def test_interval_algebra_matches_fraction_reference(a, b, numer, denom):
    """Every interval operation on integer cuts equals the Fraction-pair
    algebra it replaced, and every result is canonical."""
    space = INTERVAL_SPACE
    x, y = a.intervals, b.intervals
    cx, cy = _interval_complement(x), _interval_complement(y)
    expected = {
        union: _canonical(x + y),
        intersect: _interval_intersect(x, y),
        difference: _interval_intersect(x, cy),
        symdiff: _canonical(_interval_intersect(x, cy) + _interval_intersect(y, cx)),
    }
    for op, want in expected.items():
        out = op(space, a, b)
        _assert_canonical(out)
        assert out.intervals == want
    assert complement(space, a).intervals == cx
    _assert_canonical(complement(space, a))
    assert measure(space, a) == sum((hi - lo for lo, hi in x), Fraction(0))
    assert (a == b) == (x == y)
    assert null_equal(space, a, b) == (x == y)
    text = format_set(a)
    assert text == ("+".join(f"[{lo},{hi})" for lo, hi in x) or "[]")
    assert parse_set(text) == a
    r = measure(space, a) * Fraction(min(numer, denom), denom)
    part = split_at_measure(space, a, r)
    _assert_canonical(part)
    assert part.intervals == _interval_split(x, r)
    if x:
        left, right = split_nonatom(space, a)
        half = _interval_split(x, measure(space, a) / 2)
        assert left.intervals == half
        assert right.intervals == _interval_intersect(x, _interval_complement(half))
    else:
        with pytest.raises(ValueError):
            split_nonatom(space, a)
    sets = [a, b, complement(space, a)]
    assert cell_masks(space, sets) == _interval_cells([s.intervals for s in sets])


def test_split_at_measure_foreign_denominator():
    """A target over a denominator coprime to the set's rescales both."""
    part = split_at_measure(INTERVAL_SPACE, iv((0, "1/2")), Fraction(1, 7))
    assert part == iv((0, "1/7")) and (part.den, part.cuts) == (7, (0, 1))
    part = split_at_measure(INTERVAL_SPACE, iv((0, "1/8"), ("1/2", 1)), Fraction(2, 7))
    assert part == iv((0, "1/8"), ("1/2", Fraction(1, 2) + Fraction(2, 7) - Fraction(1, 8)))
    assert part.den == 56


# -- the truth-table sweep against the generic sweep it replaced ---------------

def generic_combine(a, b, op):
    """The generic merge sweep the truth-table kernel replaced (slow
    reference): one call of ``op(in_a, in_b)`` per cut of either list, and
    a cut emitted wherever its value changes, to the end of both lists."""
    den = math.lcm(a.den, b.den)
    ca = [c * (den // a.den) for c in a.cuts]
    cb = [c * (den // b.den) for c in b.cuts]
    na, nb = len(ca), len(cb)
    out = []
    i = j = 0
    while i < na or j < nb:
        x = ca[i] if j == nb or (i < na and ca[i] < cb[j]) else cb[j]
        if i < na and ca[i] == x:
            i += 1
        if j < nb and cb[j] == x:
            j += 1
        if op(i & 1, j & 1) != len(out) & 1:
            out.append(x)
    g = math.gcd(den, *out)
    return MeasurableSet("interval", den=den // g, cuts=tuple(c // g for c in out))


BINARY = {union: (operator.or_, UNION), intersect: (operator.and_, INTERSECT),
          difference: (operator.gt, DIFFERENCE), symdiff: (operator.xor, SYMDIFF)}
# Each nullity form, and the operation whose built set it tests.
NULLITY = {is_disjoint: intersect, is_subset: difference, null_equal: symdiff,
           covers: lambda space, a, b: intersect(space, complement(space, a),
                                                 complement(space, b))}

# Every set of cells over thirds and over quarters: empty and full sets,
# cuts shared by both sides (0, 1, and 1/2 among the quarters), and pairs
# whose cut lists run out in either order, with and without rescaling.
GRID = [interval_set((Fraction(i, d), Fraction(i + 1, d)) for i in range(d) if mask >> i & 1)
        for d in (3, 4) for mask in range(1 << d)]


def test_grid_covers_the_sweep_edge_cases():
    pairs = list(itertools.product(GRID, repeat=2))
    assert any(not a.cuts and b.cuts for a, b in pairs)
    assert any(a.cuts and b.cuts and a.cuts[-1] == b.cuts[-1] and a.den == b.den
               and a.cuts != b.cuts for a, b in pairs)
    assert any(a.cuts and b.cuts and a.cuts[-1] * b.den < b.cuts[-1] * a.den for a, b in pairs)
    assert any(a.den != b.den for a, b in pairs)


def test_sweep_matches_generic_reference_on_the_grid():
    for a, b in itertools.product(GRID, repeat=2):
        for op, (generic, _) in BINARY.items():
            assert op(INTERVAL_SPACE, a, b) == generic_combine(a, b, generic), (op, a, b)


@settings(max_examples=300)
@given(interval_sets(), interval_sets())
def test_sweep_matches_generic_reference(a, b):
    for op, (generic, _) in BINARY.items():
        out = op(INTERVAL_SPACE, a, b)
        _assert_canonical(out)
        assert out == generic_combine(a, b, generic)


def _assert_nullity_forms(space, a, b):
    """Every nullity form against ``is_null`` of the set it stands for."""
    for form, op in NULLITY.items():
        assert form(space, a, b) == is_null(space, op(space, a, b)), (form, a, b)
    for op, (_, table) in BINARY.items():
        assert _null(space, a, b, table) == is_null(space, op(space, a, b)), (op, a, b)


def test_nullity_forms_match_built_sets_on_the_grid():
    for a, b in itertools.product(GRID, repeat=2):
        _assert_nullity_forms(INTERVAL_SPACE, a, b)


@settings(max_examples=300)
@given(interval_sets(), interval_sets())
def test_nullity_forms_match_fraction_reference(a, b):
    """Over mixed denominators: each nullity form equals ``is_null`` of the
    built set and the emptiness of the Fraction-pair result."""
    _assert_nullity_forms(INTERVAL_SPACE, a, b)
    x, y = a.intervals, b.intervals
    assert is_disjoint(INTERVAL_SPACE, a, b) == (not _interval_intersect(x, y))
    assert is_subset(INTERVAL_SPACE, a, b) == (not _interval_intersect(x, _interval_complement(y)))
    assert null_equal(INTERVAL_SPACE, a, b) == (_canonical(x) == _canonical(y))
    assert covers(INTERVAL_SPACE, a, b) == (
        not _interval_intersect(_interval_complement(x), _interval_complement(y)))


@given(space_and_sets())
def test_nullity_forms_match_built_sets_atomic(args):
    space, a, b = args
    _assert_nullity_forms(space, a, b)
    sa, sb = _members(a), _members(b)
    assert is_disjoint(space, a, b) == (not sa & sb)
    assert is_subset(space, a, b) == (sa <= sb)
    assert null_equal(space, a, b) == (sa == sb)
    assert covers(space, a, b) == (sa | sb == set(range(space.n_atoms)))


def test_nullity_forms_check_their_arguments():
    space, ok = unit_space(2), atom_set([0])
    for form in NULLITY:
        with pytest.raises(ValueError):
            form(space, ok, atom_set([2]))
        with pytest.raises(BackendMismatchError):
            form(INTERVAL_SPACE, iv((0, "1/2")), ok)


def test_nullity_forms_build_no_set(monkeypatch):
    """``is_disjoint``, ``is_subset``, ``null_equal`` and ``covers`` answer
    from the payloads on both backends: no call constructs a set."""
    atomic = unit_space(3)
    cases = [(atomic, atom_set(i for i in range(3) if x >> i & 1),
              atom_set(i for i in range(3) if y >> i & 1))
             for x in range(8) for y in range(8)]
    cases += [(INTERVAL_SPACE, a, b) for a, b in itertools.product(GRID, repeat=2)]
    half, first = iv((0, "1/2")), atom_set([0])
    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return MeasurableSet(*args, **kwargs)

    monkeypatch.setattr(measure_space, "MeasurableSet", counting)
    for space, a, b in cases:
        for form in NULLITY:
            form(space, a, b)
    assert built == []
    complement(INTERVAL_SPACE, half)  # the spy does see a set that is built
    complement(atomic, first)
    assert len(built) == 2
