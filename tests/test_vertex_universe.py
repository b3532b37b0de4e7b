"""Zero-divisor classes, finite-alphabet functions, annihilator predicates."""

import dataclasses
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mrfgraph.measure_space import atom_set, complement, is_null, null_equal, unit_space
from mrfgraph.vertex_universe import (
    ExpandedFunction,
    ZClass,
    ann_leq,
    class_size,
    enumerate_functions,
    enumerate_zclasses,
    sample_interval_class,
    sample_interval_classes,
    zclass,
)
from mrfgraph.vertex_universe import UNIT_INTERVAL


def brute_zero_divisors(n: int, k: int) -> list[tuple[int, ...]]:
    """Independent exhaustive filter: some value is zero, some is not."""
    out = []
    for values in itertools.product(range(k), repeat=n):
        if any(v == 0 for v in values) and any(v != 0 for v in values):
            out.append(values)
    return out


def test_enumerate_zclasses_counts():
    assert enumerate_zclasses(unit_space(1)) == []
    assert [zc.zero_set for zc in enumerate_zclasses(unit_space(2))] == \
        [atom_set([0]), atom_set([1])]
    assert len(enumerate_zclasses(unit_space(4))) == 14


def test_enumerate_zclasses_all_valid():
    space = unit_space(4)
    for zc in enumerate_zclasses(space):
        assert not is_null(space, zc.zero_set)
        assert not is_null(space, complement(space, zc.zero_set))


@pytest.mark.parametrize("n,k,count", [(2, 2, 2), (3, 3, 18), (2, 3, 4)])
def test_enumerate_functions_counts(n, k, count):
    functions = enumerate_functions(unit_space(n), k)
    assert len(functions) == count
    assert len(brute_zero_divisors(n, k)) == count
    assert len(functions) == k ** n - (k - 1) ** n - 1


def test_enumerate_functions_order_is_lexicographic():
    functions = enumerate_functions(unit_space(2), 2)
    assert [f.values for f in functions] == [(0, 1), (1, 0)]


ENUMERATION_CASES = [(n, k) for n in range(1, 7) for k in (2, 3, 4)] + [(2, 50), (3, 12)]


@pytest.mark.parametrize("n,k", ENUMERATION_CASES, ids=[f"n{n}k{k}" for n, k in ENUMERATION_CASES])
def test_enumerate_functions_matches_filtered_product(n, k):
    """Order and count against the filtered ``itertools.product``; every
    stored zero set equals the one derived from the values alone, members of
    one class share one set object, and an enumerated function is equal to,
    hashes like and prints like one built directly."""
    functions = enumerate_functions(unit_space(n), k)
    assert [f.values for f in functions] == brute_zero_divisors(n, k)
    assert len(functions) == k ** n - (k - 1) ** n - 1
    shared = {}
    for f in functions:
        direct = ExpandedFunction(f.values)
        assert direct.zero_set == atom_set(i for i, v in enumerate(f.values) if v == 0)
        assert f.zero_set == direct.zero_set
        assert shared.setdefault(f.zero_set, f.zero_set) is f.zero_set
        assert f == direct and hash(f) == hash(direct)
        assert (repr(f), str(f)) == (repr(direct), str(direct))


def test_enumerate_functions_one_atom_and_large_alphabet():
    """The work follows the output: one atom has no zero-divisors whatever
    the alphabet, and two atoms over 2501 symbols give 2 * 2500 functions."""
    assert enumerate_functions(unit_space(1), 10 ** 9) == []
    assert len(enumerate_functions(unit_space(2), 2501)) == 5000


def test_class_size_matches_exhaustive_count():
    space = unit_space(3)
    zc = ZClass(atom_set([0]))
    brute = sum(1 for v in brute_zero_divisors(3, 3) if ExpandedFunction(v).zero_set == zc.zero_set)
    assert brute == 4
    assert class_size(space, zc, 3) == 4
    assert class_size(space, zc, 2) == 1

    space4 = unit_space(4)
    zc4 = ZClass(atom_set([0, 1]))
    brute4 = sum(1 for v in brute_zero_divisors(4, 4) if ExpandedFunction(v).zero_set == zc4.zero_set)
    assert brute4 == 9
    assert class_size(space4, zc4, 4) == 9


@pytest.mark.parametrize("n,k", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 3)])
def test_class_partition(n, k):
    space = unit_space(n)
    functions = enumerate_functions(space, k)
    by_class = {}
    for f in functions:
        by_class.setdefault(f.zero_set, []).append(f)
    classes = enumerate_zclasses(space)
    assert set(by_class) == {zc.zero_set for zc in classes}
    assert sum(len(v) for v in by_class.values()) == k ** n - (k - 1) ** n - 1
    for zc in classes:
        assert len(by_class[zc.zero_set]) == class_size(space, zc, k)


def test_ann_leq_examples():
    space = unit_space(3)
    assert ann_leq(space, atom_set([0]), atom_set([0, 1]))
    assert not ann_leq(space, atom_set([0, 1]), atom_set([0]))
    for zc in enumerate_zclasses(space):
        assert null_equal(space, zc.zero_set, zc.zero_set)


@given(st.integers(2, 5), st.data())
def test_ann_preorder_properties(n, data):
    space = unit_space(n)
    masks = data.draw(st.tuples(*[st.integers(1, 2 ** n - 2)] * 3))
    x, y, z = (atom_set(i for i in range(n) if m >> i & 1) for m in masks)
    assert ann_leq(space, x, x)
    if ann_leq(space, x, y) and ann_leq(space, y, z):
        assert ann_leq(space, x, z)
    assert null_equal(space, x, y) == (ann_leq(space, x, y) and ann_leq(space, y, x))


def test_two_atom_partition_replay():
    space = unit_space(2)
    targets = (atom_set([0]), atom_set([1]))
    for zc in enumerate_zclasses(space):
        assert any(null_equal(space, zc.zero_set, t) for t in targets)


def test_zclass_invariant_enforced():
    space = unit_space(2)
    with pytest.raises(ValueError):
        zclass(space, atom_set([]))
    with pytest.raises(ValueError):
        zclass(space, atom_set([0, 1]))
    assert zclass(space, atom_set([0])).zero_set == atom_set([0])


def test_sample_interval_class_deterministic():
    a = sample_interval_class(42, 2)
    b = sample_interval_class(42, 2)
    assert a == b
    assert a != sample_interval_class(43, 2)


def test_sample_interval_class_invariants():
    for zc in sample_interval_classes(7, 100):
        assert not is_null(UNIT_INTERVAL, zc.zero_set)
        assert not is_null(UNIT_INTERVAL, complement(UNIT_INTERVAL, zc.zero_set))


def test_function_and_class_literals():
    f = ExpandedFunction((0, 2, 1))
    assert f.label == str(f) == "f=[0,2,1]"
    zc = ZClass(atom_set([0, 2]))
    assert zc.label == str(zc) == "Z={0,2}"


@pytest.mark.parametrize("n,k", [(3, 3), (4, 5)])
def test_function_label_matches_joined_values(n, k):
    for f in enumerate_functions(unit_space(n), k):
        assert f.label == "f=[" + ",".join(str(v) for v in f.values) + "]"


def test_function_label_is_kept_but_not_compared():
    """The label is formatted once and kept on the function, outside its
    fields: equality, hashing and ``repr`` see the values alone."""
    f, g = ExpandedFunction((0, 2, 1)), ExpandedFunction((0, 2, 1))
    assert f.label is f.label
    assert "label" in vars(f) and "label" not in vars(g)
    assert f == g and hash(f) == hash(g) and repr(f) == repr(g)
    assert "label" not in repr(f)
    assert "label" not in {field.name for field in dataclasses.fields(f)}
