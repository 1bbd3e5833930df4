"""Exact rational linear algebra: elimination, subspaces, quotients."""

from fractions import Fraction

import pytest

from helpers import image_basis, kernel_basis
from liedeform.exactlin import (Matrix, format_scalar, invert, parse_scalar,
                                quotient_coords, rank, reduced_basis, rref,
                                solve_particular, Subspace, _subspace)


def F(x, y=1):
    return Fraction(x, y)


class TestScalars:
    def test_round_trip(self):
        for text in ("0", "5", "-7", "3/4", "-22/7"):
            assert format_scalar(parse_scalar(text)) == text

    def test_normalization(self):
        assert parse_scalar("2/4") == F(1, 2)
        assert parse_scalar(" -6/3 ") == F(-2)

    def test_rejects_garbage(self):
        for bad in ("", "a/b", "1/0", "x"):
            with pytest.raises((ValueError, ZeroDivisionError)):
                parse_scalar(bad)


class TestMatrixBasics:
    def test_identity_and_mul(self):
        m = Matrix.from_rows([[1, 2], [3, 4]])
        assert m.mul(Matrix.identity(2)) == m
        assert Matrix.identity(2).mul(m) == m

    def test_apply(self):
        m = Matrix.from_rows([[1, 2], [0, 1]])
        assert m.apply([F(1), F(1)]) == [F(3), F(1)]

    def test_from_columns_round_trip(self):
        cols = [[F(1), F(0), F(2)], [F(0), F(1), F(-1)]]
        m = Matrix.from_columns(cols, rows=3)
        assert m.column(0) == cols[0]
        assert m.column(1) == cols[1]

    def test_empty_shapes(self):
        z = Matrix.zeros(0, 3)
        assert z.rows == 0 and z.cols == 3
        assert rank(z) == 0
        assert kernel_basis(z).dim == 3
        assert rank(Matrix.zeros(3, 0)) == 0


class TestElimination:
    def test_rref_pivots(self):
        m = Matrix.from_rows([[0, 2, 4], [1, 1, 1]])
        r, pivots = rref(m)
        assert pivots == [0, 1]
        assert r.data[0][0] == 1 and r.data[1][1] == 1
        assert r.data[0][1] == 0  # cleared above the pivot

    def test_rank_of_dependent_rows(self):
        m = Matrix.from_rows([[1, 2], [2, 4], [3, 6]])
        assert rank(m) == 1

    def test_kernel_is_annihilated(self):
        m = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
        for vec in kernel_basis(m).basis:
            assert all(x == 0 for x in m.apply(list(vec)))

    def test_rank_nullity(self):
        m = Matrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert rank(m) + kernel_basis(m).dim == 3
        assert rank(m) == 2

    def test_image_basis_spans_products(self):
        m = Matrix.from_rows([[1, 2, 3], [2, 4, 6]])
        img = image_basis(m)
        assert img.dim == 1
        span = Matrix.from_columns([list(v) for v in img.basis], rows=2)
        assert solve_particular(span, m.apply([F(1), F(1), F(1)])) is not None

    def test_solve_particular(self):
        m = Matrix.from_rows([[1, 1], [0, 1]])
        sol = solve_particular(m, [F(3), F(1)])
        assert m.apply(sol) == [F(3), F(1)]

    def test_solve_unsolvable(self):
        m = Matrix.from_rows([[1, 1], [2, 2]])
        assert solve_particular(m, [F(1), F(0)]) is None

    def test_invert_round_trip(self):
        m = Matrix.from_rows([[2, 1], [1, 1]])
        inv = invert(m)
        assert m.mul(inv) == Matrix.identity(2)
        assert inv.mul(m) == Matrix.identity(2)

    def test_invert_singular(self):
        with pytest.raises(ValueError):
            invert(Matrix.from_rows([[1, 2], [2, 4]]))

    def test_invert_empty(self):
        assert invert(Matrix.zeros(0, 0)) == Matrix.zeros(0, 0)


class TestSubspaces:
    def test_contains(self):
        s = _subspace(3, [[1, 0, 1], [0, 1, 0]])
        assert s.contains([F(2), F(3), F(2)])
        assert not s.contains([F(1), F(0), F(0)])

    def test_reduced_basis_is_canonical(self):
        s1 = _subspace(3, [[1, 0, 1], [0, 1, 0]])
        s2 = _subspace(3, [[1, 1, 1], [2, 1, 2]])
        rows1, piv1 = reduced_basis(s1)
        rows2, piv2 = reduced_basis(s2)
        assert rows1 == rows2 and piv1 == piv2


class TestQuotientCoords:
    def test_projection_section_identity(self):
        s = _subspace(3, [[1, 0, 2]])
        qc = quotient_coords(s)
        assert qc.dim == 2
        assert qc.projection.mul(qc.section) == Matrix.identity(2)

    def test_projection_kills_subspace(self):
        s = _subspace(3, [[1, 0, 2], [0, 1, -1]])
        qc = quotient_coords(s)
        for vec in s.basis:
            assert all(x == 0 for x in qc.projection.apply(list(vec)))

    def test_sub_coords_round_trip(self):
        s = _subspace(3, [[1, 0, 2], [0, 1, -1]])
        qc = quotient_coords(s)
        v = [F(3), F(5), F(1)]  # 3*(1,0,2) + 5*(0,1,-1) = (3,5,1)
        coords = qc.to_sub_coords(v)
        assert coords == [F(3), F(5)]
        assert qc.from_sub_coords(coords) == v

    def test_full_and_zero_subspace(self):
        full = _subspace(2, [[1, 0], [0, 1]])
        qc = quotient_coords(full)
        assert qc.dim == 0
        zero = _subspace(2, [])
        qc0 = quotient_coords(zero)
        assert qc0.dim == 2
        assert qc0.projection == Matrix.identity(2)
        assert qc0.section == Matrix.identity(2)
