"""Exact rational linear algebra: elimination, subspaces, quotients."""

from collections import Counter
from fractions import Fraction

import pytest

from helpers import (bench_families, column, contains, dense, dense_apply,
                     from_sub_coords, image_basis, kernel_basis, nonzeros)
from liedeform import cecomplex, exactlin
from liedeform.algebras import (adjoint_rep, catalog_algebra, catalog_names,
                                hom_preset, hom_preset_names, pullback_rep,
                                quotient_rep, sub_preset, sub_preset_names)
from liedeform.cecomplex import cohomology
from liedeform.exactlin import (Matrix, RankForm, format_scalar, invert,
                                parse_scalar, quotient_coords, rank, rref,
                                solve, solve_particular, Subspace, _subspace)


def F(x, y=1):
    return Fraction(x, y)


def coefficient_systems() -> list:
    """The adjoint, pullback and quotient systems of the catalog, the presets
    and the benchmark's families, these with the signs of one seed."""
    fam = bench_families()
    signs = fam.Signs(1)
    algebras = [catalog_algebra(name) for name in catalog_names()] + [
        fam.abelian(3, signs), fam.heisenberg(2, signs), fam.filiform(6, signs),
        fam.gl(2, signs), fam.borel(3, signs), fam.sl(3, signs)]
    homs = [hom_preset(name) for name in hom_preset_names()] + [
        fam.heis3_to_heis5(signs), fam.borel2_to_borel3(signs),
        fam.sl2_to_gl2(signs)]
    subs = [sub_preset(name) for name in sub_preset_names()] + [
        fam.centre_of_heis(2, signs), fam.nilradical_of_borel3(signs),
        fam.borel3_in_sl3(signs)]
    return ([adjoint_rep(g) for g in algebras] + [pullback_rep(h) for h in homs]
            + [quotient_rep(w) for w in subs])


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
        assert m.apply({0: 1, 1: 1}) == {0: 3, 1: 1}
        assert m.apply({0: F(1, 2), 1: F(-1, 2)}) == {0: F(-1, 2), 1: F(-1, 2)}
        assert m.apply({1: 0}) == {} and m.apply({}) == {}

    def test_add_scaled(self):
        a, b = Matrix.from_rows([[1, 2], [0, 1]]), Matrix.from_rows([[2, 4], [1, 0]])
        assert a.add_scaled(b, F(-1, 2)).row_maps == [{}, {0: F(-1, 2), 1: 1}]
        assert a.add_scaled(b, 3).data == [[7, 14], [3, 1]]
        with pytest.raises(ValueError):
            a.add_scaled(Matrix.zeros(2, 3), 1)

    def test_from_columns_round_trip(self):
        cols = [[F(1), F(0), F(2)], [F(0), F(1), F(-1)]]
        m = Matrix.from_columns(cols, rows=3)
        assert column(m, 0) == cols[0]
        assert column(m, 1) == cols[1]

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
            assert m.apply(nonzeros(vec)) == {}
            assert all(x == 0 for x in dense_apply(m, vec))

    def test_rank_nullity(self):
        m = Matrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert rank(m) + kernel_basis(m).dim == 3
        assert rank(m) == 2

    def test_image_basis_spans_products(self):
        m = Matrix.from_rows([[1, 2, 3], [2, 4, 6]])
        img = image_basis(m)
        assert img.dim == 1
        span = Matrix.from_columns([list(v) for v in img.basis], rows=2)
        assert solve_particular(span, dense_apply(m, [F(1), F(1), F(1)])) is not None

    def test_solve_particular(self):
        m = Matrix.from_rows([[1, 1], [0, 1]])
        sol = solve_particular(m, [F(3), F(1)])
        assert dense_apply(m, sol) == [F(3), F(1)]

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
        assert contains(s, [F(2), F(3), F(2)])
        assert not contains(s, [F(1), F(0), F(0)])

    def test_reduced_basis_is_canonical(self):
        s1 = _subspace(3, [[1, 0, 1], [0, 1, 0]])
        s2 = _subspace(3, [[1, 1, 1], [2, 1, 2]])
        qc1, qc2 = quotient_coords(s1), quotient_coords(s2)
        assert qc1.sub_rows == qc2.sub_rows and qc1.pivots == qc2.pivots


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
            assert qc.projection.apply(nonzeros(vec)) == {}

    def test_sub_coords_round_trip(self):
        s = _subspace(3, [[1, 0, 2], [0, 1, -1]])
        qc = quotient_coords(s)
        v = [F(3), F(5), F(1)]  # 3*(1,0,2) + 5*(0,1,-1) = (3,5,1)
        coords = dense(qc.sub_coords.apply(nonzeros(v)), 2)
        assert coords == [F(3), F(5)]
        assert from_sub_coords(qc, coords) == v

    def test_full_and_zero_subspace(self):
        full = _subspace(2, [[1, 0], [0, 1]])
        qc = quotient_coords(full)
        assert qc.dim == 0
        zero = _subspace(2, [])
        qc0 = quotient_coords(zero)
        assert qc0.dim == 2
        assert qc0.projection == Matrix.identity(2)
        assert qc0.section == Matrix.identity(2)


def layout(row_maps) -> list:
    """Every (column, value type) of every row, in dict order."""
    return [[(j, type(x)) for j, x in r.items()] for r in row_maps]


def dense_product(a, b) -> list:
    return [[sum((x * y for x, y in zip(row, col)), F(0)) for col in zip(*b)]
            for row in a]


class TestSparse:
    # (a, b, the row maps of a): the nonzeros of each row, ints where
    # integral, in column order, from ints, Fractions, strings and floats
    CASES = [
        ([[1, 0, 2], [0, 0, 0], [F(1, 2), 3, 0]], [[0, 1], [2, 0], [1, -1]],
         [{0: 1, 2: 2}, {}, {0: F(1, 2), 1: 3}]),
        ([[F(4, 2), "-3/3", 0.5]], [[1], ["0"], [F(2)]],
         [{0: 2, 1: -1, 2: F(1, 2)}]),
        ([[0, 0], [0, 0]], [[1, 2], [3, 4]], [{}, {}]),
        ([[F(1, 3), F(2, 3)], [F(-1, 6), 0]], [[3, 0], [0, F(3, 2)]],
         [{0: F(1, 3), 1: F(2, 3)}, {0: F(-1, 6)}])]

    def test_products_match_dense(self):
        for a, b, row_maps in self.CASES:
            ma, mb = Matrix.from_rows(a), Matrix.from_rows(b)
            assert ma.row_maps == row_maps
            assert layout(ma.row_maps) == layout(row_maps)
            product = ma.mul(mb)
            assert product.data == dense_product(ma.data, mb.data)
            assert all(type(x) is int or x.denominator != 1
                       for r in product.row_maps for x in r.values())
            vec = [F(j + 1, 2) for j in range(ma.cols)]
            assert dense(ma.apply(nonzeros(vec)), ma.rows) == [
                sum((x * v for x, v in zip(row, vec)), F(0)) for row in ma.data]

    def test_cancelling_product_is_zero(self):
        for a, b in (([[1, 1]], [[1], [-1]]),
                     ([[F(1, 2), F(1, 3)]], [[2], [-3]]),
                     ([[1, 2], [2, 4]], [[2, -4], [-1, 2]])):
            product = Matrix.from_rows(a).mul(Matrix.from_rows(b))
            assert product.is_zero()
            assert product.row_maps == [{}] * product.rows


class TestReaders:
    def test_rref_holds_the_relations_of_the_free_columns(self):
        m = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
        r, pivots = rref(m)
        assert pivots == [0, 1]
        assert r.row_maps == [{0: 1, 2: -1}, {1: 1, 2: 2}]
        rows = RankForm(m.row_maps, keep=True)
        assert rows.kept == pivots and rows.free(range(3)) == [2]
        assert rows.null_vector(2) == {0: 1, 1: -2, 2: 1}

    def test_solve_sets_free_variables_to_zero(self):
        m = Matrix.from_rows([[1, 1, 2], [0, 0, 0]])
        assert solve(m, {0: F(3)}) == {0: 3}
        assert solve(m, {0: F(3), 1: F(1)}) is None

    def test_reversed_positions_pivot_at_the_last_nonzero(self):
        # positions taken as ~p: the pivots are the last nonzero positions
        form = RankForm([{~0: 1, ~1: 1}, {~1: 1, ~2: 1}], keep=True)
        assert sorted(~p for p in form.pivots) == [1, 2]
        s, rem = form.reduce({~0: 1, ~2: 1})
        assert {~p: F(x, s) for p, x in rem.items()} == {0: 2}

    def test_reduce_keeps_its_scale(self):
        # 6 * (1/2, 1/3) - 1 * (3, 2) = 0: in the span, at scale 6
        form = RankForm([{0: 3, 1: 2}], keep=True)
        assert form.reduce({0: F(1, 2), 1: F(1, 3)}) == (6, {})
        s, rem = form.reduce({1: 1})
        assert F(rem[1], s) == 1 and set(rem) == {1}

    def test_solve_reads_only_the_nonzeros_of_b(self):
        # an explicit zero at a zero row once made the row {2: 0}, of gcd 0
        m = Matrix.from_rows([[1, 0], [0, 0]])
        assert solve(m, {0: 2, 1: 0}) == solve(m, {0: 2}) == {0: 2}
        assert solve(m, {0: 0, 1: 0}) == solve(m, {}) == {}
        assert solve(m, {0: 2, 1: F(0)}) == {0: 2}
        assert solve(m, {0: 0, 1: 5}) is None
        m = Matrix.from_rows([[1, 1], [2, 2], [0, 3]])
        for b in ({0: 1, 1: 2, 2: 0}, {0: 0, 1: 0, 2: 3}):
            assert solve(m, b) == solve(m, {i: x for i, x in b.items() if x})

    def test_solve_hands_the_rank_form_no_zero(self, monkeypatch):
        # RankForm reads every entry of a row as a nonzero: a zero would
        # be taken as a pivot, so solve must pass none
        seen = []

        def spy(rows, which=None, keep=False):
            seen.extend(x for row in rows for x in row.values())
            return real(rows, which, keep)

        real = exactlin.RankForm
        monkeypatch.setattr(exactlin, "RankForm", spy)
        m = Matrix.from_rows([[1, 0], [0, 0], [2, 1]])
        assert solve(m, {0: 1, 1: 0, 2: F(0)}) == {0: 1, 1: -2}
        assert seen and all(x != 0 for x in seen)

    def test_the_exact_layer_hands_the_rank_form_no_zero(self, monkeypatch):
        # reports, H-representatives and class coordinates, on the catalog,
        # the presets and the benchmark's families, keep the contract that
        # the solve spy above checks for solve
        handed = Counter()

        class Checked(exactlin.RankForm):
            def __init__(self, rows, which=None, keep=False, ints=False):
                handed.update(x == 0 for row in rows for x in row.values())
                super().__init__(rows, which, keep, ints)

            def reduce(self, v, ints=False):
                handed.update(x == 0 for x in v.values())
                return super().reduce(v, ints)

        for mod in (exactlin, cecomplex):
            monkeypatch.setattr(mod, "RankForm", Checked)
        for rep in coefficient_systems():
            report = cohomology(rep)
            for d in report.degrees:
                for j, z in enumerate(d.h_representatives):
                    assert d.class_coords(z) == [int(i == j)
                                                 for i in range(d.dim_h)]
                if d.k:
                    one = {0: F(1, 2)} if d.complex.dim_cochains(d.k - 1) else {}
                    assert not any(d.class_coords(
                        d.complex.d(d.k - 1).apply(one)))
        assert handed[False] and not handed[True]

    def test_empty_span(self):
        m = Matrix.zeros(1, 0)
        assert solve(m, {}) == {}
        assert solve(m, {0: F(1)}) is None


class TestRankForm:
    def test_dims_form_keeps_no_rows(self):
        form = RankForm([{0: 1, 1: 1}])
        assert form.kept == [0] and form.rows == [0]
        assert not hasattr(form, "pivots")

    def test_rows_at_no_kept_pivot(self):
        # rows are taken last first: {2: 1, 3: 1} meets no pivot and is kept
        # as the very dict, {0: 2, 1: 4} meets none either but is divided by
        # its gcd 2, and {1: 3, 2: 3} reaches pivot 2 and is reduced; none
        # of them is written to
        rows = [{1: 3, 2: 3}, {0: 2, 1: 4}, {2: 1, 3: 1}]
        before = [dict(row) for row in rows]
        form = RankForm(rows, keep=True)
        assert form.rows == [2, 1, 0] and form.kept == [0, 1, 2]
        assert form.pivots[2] is rows[2]
        assert form.pivots[0] == {0: 1, 1: 2}
        assert form.pivots[1] == {1: 1, 3: -1}
        assert rows == before

    def test_null_vector_over_a_common_denominator(self):
        # x0 = -x1 / 2 and x1 = -x2 / 3: the vector at column 2 is
        # (1/6, -1/3, 1), in column order, ints where integral
        form = RankForm([{0: 2, 1: 1}, {1: 3, 2: 1}, {}], keep=True)
        assert form.kept == [0, 1] and form.free(range(3)) == [2]
        got = form.null_vector(2)
        assert got == {0: F(1, 6), 1: F(-1, 3), 2: 1}
        assert list(got) == [0, 1, 2]
        integral = RankForm([{0: 2, 1: 4}], keep=True).null_vector(1)
        assert integral == {0: -2, 1: 1} and type(integral[0]) is int

    def test_null_vector_reaches_only_the_rows_it_touches(self):
        # column 3 meets no row, so its vector is the unit vector
        form = RankForm([{0: 1, 1: 1}, {1: 1, 2: -1}], keep=True)
        assert form.free(range(4)) == [2, 3]
        assert form.null_vector(2) == {0: -1, 1: 1, 2: 1}
        assert form.null_vector(3) == {3: 1}

    def test_rational_rows_and_chosen_rows(self):
        rows = [{0: F(1, 2), 2: F(1, 3)}, {1: 1}, {0: 1, 1: 5}]
        form = RankForm(rows, [0], keep=True)
        assert form.rows == [0] and form.free(range(3)) == [1, 2]
        assert form.null_vector(2) == {0: F(-2, 3), 2: 1}
