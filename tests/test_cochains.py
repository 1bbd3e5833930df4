"""Flat coordinates for alternating multilinear maps."""

from fractions import Fraction

import pytest

from helpers import flat_index
from liedeform.cochains import (AltMap, cochain_dim, insertion_sign,
                                subset_positions, subsets)


def test_subsets_lexicographic():
    assert subsets(4, 2) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert subsets(3, 0) == [()]
    assert subsets(3, 4) == []


def test_subset_positions_inverts_enumeration():
    pos = subset_positions(5, 3)
    for p, s in enumerate(subsets(5, 3)):
        assert pos[s] == p


def test_cochain_dim():
    assert cochain_dim(4, 2, 3) == 18
    assert cochain_dim(3, 0, 5) == 5
    assert cochain_dim(2, 3, 7) == 0


def test_flat_index_layout():
    # carrier index varies fastest within a subset block
    pos = subset_positions(4, 2)
    assert flat_index(pos[(0, 1)], 3, 0) == 0
    assert flat_index(pos[(0, 1)], 3, 2) == 2
    assert flat_index(pos[(0, 2)], 3, 0) == 3


class TestInsertionSign:
    def test_insert_positions(self):
        assert insertion_sign(2, (0, 1, 3)) == (1, (0, 1, 2, 3))
        assert insertion_sign(0, (1, 2)) == (1, (0, 1, 2))
        assert insertion_sign(3, (1, 2)) == (1, (1, 2, 3))
        assert insertion_sign(1, (0, 2)) == (-1, (0, 1, 2))

    def test_duplicate_vanishes(self):
        assert insertion_sign(1, (0, 1, 2)) == (0, None)

    def test_sign_matches_sort_parity(self):
        # inserting at position p carries (-1)^p
        sign, merged = insertion_sign(4, (0, 1, 2, 3, 5))
        assert merged == (0, 1, 2, 3, 4, 5)
        assert sign == 1  # position 4


class TestAltMap:
    def test_from_values_and_value(self):
        m = AltMap.from_values(2, 3, 2, {(0, 2): [Fraction(5), Fraction(-1)]})
        assert m.value((0, 2)) == [Fraction(5), Fraction(-1)]
        assert m.value((0, 1)) == [Fraction(0), Fraction(0)]

    def test_flat_round_trip(self):
        flat = [Fraction(i) for i in range(cochain_dim(3, 2, 2))]
        m = AltMap.from_flat(2, 3, 2, flat)
        assert m.flat() == flat

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
