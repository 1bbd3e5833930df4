"""Flat coordinates for alternating multilinear maps."""

from fractions import Fraction
from itertools import combinations, count
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import flat, flat_index, gl_algebra, mask_insert
from liedeform import cochains
from liedeform.cochains import AltMap, cochain_dim, subset_position


def masks(n: int, k: int) -> dict:
    """{bit mask: position} of the k-subsets of {0..n-1}, made as the
    differential and the pullback map make theirs."""
    return dict(zip(map(sum, combinations([1 << i for i in range(n)], k)),
                    count()))


def test_subsets_lexicographic():
    # the one numbering: combinations order, read back by subset_position
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert list(combinations(range(4), 2)) == pairs
    assert [subset_position(4, s) for s in pairs] == list(range(6))
    # one empty subset in degree 0, none above the dimension
    assert subset_position(3, ()) == 0
    assert AltMap.from_values(0, 3, 1, {(): [5]}).nonzeros == {0: 5}
    assert list(combinations(range(3), 4)) == [] and cochain_dim(3, 4, 1) == 0


def test_subset_masks_follow_the_enumeration():
    # the masks' sums over combinations of the bits run in the order of the
    # subsets they encode
    assert tuple(masks(4, 2)) == (0b11, 0b101, 0b1001, 0b110, 0b1010, 0b1100)
    assert tuple(masks(3, 0)) == (0,)
    assert tuple(masks(3, 4)) == ()
    for n in range(8):
        for k in range(n + 1):
            assert tuple(masks(n, k)) == tuple(
                sum(1 << i for i in s) for s in combinations(range(n), k))


def test_mask_positions_invert_enumeration():
    pos = masks(5, 3)
    for p, s in enumerate(combinations(range(5), 3)):
        assert pos[sum(1 << i for i in s)] == p == subset_position(5, s)
    assert len(pos) == comb(5, 3)


def test_cochain_dim():
    assert cochain_dim(4, 2, 3) == 18
    assert cochain_dim(3, 0, 5) == 5
    assert cochain_dim(2, 3, 7) == 0


def test_flat_index_layout():
    # carrier index varies fastest within a subset block
    assert flat_index(subset_position(4, (0, 1)), 3, 0) == 0
    assert flat_index(subset_position(4, (0, 1)), 3, 2) == 2
    assert flat_index(subset_position(4, (0, 2)), 3, 0) == 3
    m = AltMap.from_values(2, 4, 3, {(0, 1): [0, 0, 7], (0, 2): [8, 0, 0]})
    assert m.nonzeros == {2: 7, 3: 8}


class TestMaskInsertion:
    def test_insert_positions(self):
        assert mask_insert(2, (0, 1, 3)) == (1, (0, 1, 2, 3))
        assert mask_insert(0, (1, 2)) == (1, (0, 1, 2))
        assert mask_insert(3, (1, 2)) == (1, (1, 2, 3))
        assert mask_insert(1, (0, 2)) == (-1, (0, 1, 2))

    def test_duplicate_vanishes(self):
        assert mask_insert(1, (0, 1, 2)) == (0, None)

    def test_sign_matches_sort_parity(self):
        # inserting at position p carries (-1)^p
        sign, merged = mask_insert(4, (0, 1, 2, 3, 5))
        assert merged == (0, 1, 2, 3, 4, 5)
        assert sign == 1  # position 4


def test_mask_faces_drop_one_element():
    # T - u_i is T ^ (1 << u_i), at the position of the tuple face
    faces = masks(6, 2)
    for T, mask in zip(combinations(range(6), 3), masks(6, 3)):
        for u in T:
            face = tuple(x for x in T if x != u)
            assert faces[mask ^ (1 << u)] == subset_position(6, face)


class TestAltMap:
    def test_from_values_and_value(self):
        m = AltMap.from_values(2, 3, 2, {(0, 2): [Fraction(5), Fraction(-1)]})
        assert m.value((0, 2)) == [Fraction(5), Fraction(-1)]
        assert m.value((0, 1)) == [Fraction(0), Fraction(0)]

    def test_flat_round_trip(self):
        values = [Fraction(i) for i in range(cochain_dim(3, 2, 2))]
        m = AltMap.from_flat(2, 3, 2, values)
        assert flat(m) == values
        assert m.nonzeros == {i: i for i in range(1, len(values))}

    def test_arithmetic(self):
        a = AltMap.from_values(1, 2, 1, {(0,): [Fraction(1)]})
        b = AltMap.from_values(1, 2, 1, {(1,): [Fraction(2)]})
        s = a.add(b).scale(Fraction(3))
        assert s.value((0,)) == [Fraction(3)]
        assert s.value((1,)) == [Fraction(6)]
        assert a.sub(a).is_zero()

    def test_sup_abs_and_nonzero_entries(self):
        m = AltMap.from_values(2, 3, 1, {(0, 1): [Fraction(-7, 2)]})
        assert m.sup_abs() == Fraction(7, 2)
        assert m.nonzero_entries() == [((0, 1), 0, Fraction(-7, 2))]

    def test_zero(self):
        z = AltMap.zero(2, 4, 3)
        assert z.is_zero()
        assert z.sup_abs() == 0

    def test_wrong_flat_length(self):
        with pytest.raises(ValueError):
            AltMap.from_flat(2, 3, 2, [Fraction(0)] * 5)


def test_subset_position_counts_without_the_table():
    for n in range(7):
        for k in range(n + 1):
            table = list(combinations(range(n), k))
            assert [subset_position(n, s) for s in table] == list(range(len(table)))
    for bad in ((1, 0), (0, 0), (-1, 2), (0, 3)):
        with pytest.raises(KeyError):
            subset_position(3, bad)
        with pytest.raises(KeyError):
            AltMap.zero(2, 3, 1).value(bad)
        with pytest.raises(KeyError):
            AltMap.from_values(2, 3, 1, {bad: [5]})
    # sorted subsets whose size is not the degree
    for bad in ((0, 1, 2), (1,), ()):
        with pytest.raises(KeyError):
            AltMap.zero(2, 3, 1).value(bad)
        with pytest.raises(KeyError):
            AltMap.from_values(2, 3, 1, {bad: [5]})


def test_value_builds_no_subset_table(monkeypatch):
    # reading every pair block of gl_4's bracket cochain once counts each
    # position, walking no subsets
    jac = gl_algebra(4).candidate.as_altmap()
    walks = []

    def counted(*args):
        walks.append(args)
        return combinations(*args)

    monkeypatch.setattr(cochains, "combinations", counted)
    blocks = [jac.value(s) for s in combinations(range(16), 2)]
    assert len(blocks) == 120 and walks == []
    assert [x for block in blocks for x in block] == flat(jac)


# ---------------------------------------------------------------------------
# AltMap against a dense flat reference written here: the flat vector, its
# blocks and its arithmetic entry by entry

entries = st.one_of(st.sampled_from([0, 0, 0, 1, -1]), st.integers(-5, 5),
                    st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def flats(draw):
    """(degree, n, m, dense flat vector of ints and Fractions)."""
    n = draw(st.integers(0, 4))
    k, m = draw(st.integers(0, n)), draw(st.integers(1, 3))
    size = len(list(combinations(range(n), k))) * m
    return k, n, m, draw(st.lists(entries, min_size=size, max_size=size))


def ref_blocks(k, n, m, values) -> dict:
    return {s: [Fraction(x) for x in values[p * m:(p + 1) * m]]
            for p, s in enumerate(combinations(range(n), k))}


@settings(max_examples=150, deadline=None)
@given(flats(), st.data())
def test_altmap_matches_a_dense_reference(drawn, data):
    k, n, m, values = drawn
    a = AltMap.from_flat(k, n, m, values)
    assert a.nonzeros == {i: x for i, x in enumerate(values) if x}
    assert all(type(x) is int or x.denominator != 1 for x in a.nonzeros.values())
    blocks = ref_blocks(k, n, m, values)
    assert a == AltMap.from_values(k, n, m, blocks)
    assert {s: a.value(s) for s in blocks} == blocks
    assert all(type(x) is Fraction for v in blocks for x in a.value(v))
    assert a.is_zero() == (not any(values))
    assert a.sup_abs() == max((abs(Fraction(x)) for x in values), default=0)
    assert a.nonzero_entries() == [
        (s, c, x) for s, block in blocks.items()
        for c, x in enumerate(block) if x]
    other = data.draw(st.lists(entries, min_size=len(values),
                               max_size=len(values)))
    b, f = AltMap.from_flat(k, n, m, other), data.draw(entries)
    assert flat(a.add(b)) == [Fraction(x) + y for x, y in zip(values, other)]
    assert flat(a.sub(b)) == [Fraction(x) - y for x, y in zip(values, other)]
    assert flat(a.scale(f)) == [Fraction(f) * x for x in values]
    assert flat(a.add_scaled(b, f)) == [x + Fraction(f) * y
                                        for x, y in zip(values, other)]
    # equal cochains are equal and hash equal, however built
    same = [AltMap.from_flat(k, n, m, [Fraction(x) for x in values]),
            AltMap(k, n, m, dict(reversed(a.nonzeros.items()))),
            a.add(b).sub(b), a.scale(1), b.add(a).sub(b)]
    assert all(x == a and hash(x) == hash(a) for x in same)
    if any(values):
        assert a != AltMap.zero(k, n, m) and a.sub(a) == AltMap.zero(k, n, m)
