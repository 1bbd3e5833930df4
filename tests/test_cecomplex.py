"""Differentials, cohomology reports, induced maps, and the long exact
sequence for a subalgebra."""

import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations
from math import comb
from pathlib import Path

import pytest

from liedeform.algebras import (BracketCandidate, Homomorphism, Matrix,
                                RepSpec, abelian, adjoint_rep, catalog_algebra,
                                catalog_names, hom_preset, pullback_rep,
                                quotient_rep, sub_preset, sub_preset_names,
                                subalgebra_witness, validate_bracket)
from liedeform.cecomplex import (CEComplex, ChainMapError,
                                 CohomologyUndefinedError, Problem, _exact_at,
                                 adjoint_cohomology,
                                 cohomology, connecting_map_on_h,
                                 differential_matrix, euler_characteristic,
                                 induced_map_on_h, les_subalgebra,
                                 pullback_cochain_map)
from helpers import (bench_families, dense, dense_apply, dense_report_tuples, flat, filiform_algebra, gl_algebra,
                     heisenberg_algebra, identity_chain_maps, nilradical,
                     rescaled_algebra, sl_algebra)
from liedeform.cochains import AltMap
from liedeform import cecomplex, exactlin


def all_reps():
    reps = [adjoint_rep(catalog_algebra(name)) for name in catalog_names()]
    for name in ("id-sl2", "borel-incl", "zero-to-sl2"):
        reps.append(pullback_rep(hom_preset(name)))
    for name in ("borel-in-sl2", "center-in-heis3"):
        reps.append(quotient_rep(sub_preset(name)))
    # structure constants that are not all integers
    for name in ("sl2", "heis3"):
        reps.append(adjoint_rep(rescaled_algebra(
            catalog_algebra(name), [Fraction(1, 2), Fraction(3, 5), 1])))
    return reps


class TestComplexValidity:
    def test_d_squared_vanishes_everywhere(self):
        for rep in all_reps():
            assert CEComplex(rep).d_squared_defect() is None, rep.label

    def test_d_composition_is_zero_matrix(self):
        cx = CEComplex(adjoint_rep(catalog_algebra("heis3")))
        for k in range(3):
            assert cx.d(k + 1).mul(cx.d(k)).is_zero()

    def test_top_differential_lands_in_zero_space(self):
        cx = CEComplex(adjoint_rep(catalog_algebra("sl2")))
        assert cx.d(3).rows == 0

    def test_apply_d_matches_matrix(self):
        cx = CEComplex(adjoint_rep(catalog_algebra("sl2")))
        om = AltMap.from_values(1, 3, 3, {(0,): [0, 1, 0], (2,): [1, 0, 0]})
        assert flat(cx.apply_d(om)) == dense_apply(cx.d(1), flat(om))


def row_layout(m: Matrix) -> list:
    """Each row's (column, type, value) nonzeros, in the row's order."""
    return [[(j, type(x), x) for j, x in row.items()] for row in m.row_maps]


@pytest.mark.parametrize("rep", [
    *all_reps(), adjoint_rep(filiform_algebra(6)),
    adjoint_rep(heisenberg_algebra(2))], ids=lambda rep: rep.label)
def test_forms_leave_the_differentials_as_they_were(rep):
    # a rank form may keep a row of d_k as the very dict, so none of the
    # forms, nor what is read from them, may write to it
    cx = CEComplex(rep)
    n = cx.n
    before = [row_layout(cx.d(k)) for k in range(n + 1)]
    for k in range(n + 1):
        basis = cx.basis_form(k)
        assert len(cx.rank_form(k).kept) == len(basis.kept)
        for f in basis.free(range(cx.dim_cochains(k))):
            z = basis.null_vector(f)
            b = cx.d(k).apply({f: 1})
            assert exactlin.solve(cx.d(k), b) is not None
            if k:
                cx.class_form(k).reduce(z)
        degree = cx.degree(k)
        for z in degree.h_representatives:
            degree.class_coords(z)
    assert [row_layout(cx.d(k)) for k in range(n + 1)] == before


class TestRefusal:
    def bad_rep(self):
        # bracket violating Jacobi with matching ad matrices: differentials
        # exist but do not square to zero
        cand = BracketCandidate.from_entries(
            3, {(0, 1): [1, 0, 0], (0, 2): [0, 0, 1], (1, 2): [0, 0, 0]})
        mats = []
        for i in range(3):
            x = [Fraction(0)] * 3
            x[i] = Fraction(1)
            cols = [cand.basis_bracket(i, j) for j in range(3)]
            mats.append(Matrix.from_columns([list(c) for c in cols]))
        return RepSpec("adjoint", cand, 3, tuple(m.row_maps for m in mats),
                       label="bad")

    def test_cohomology_refuses(self):
        with pytest.raises(CohomologyUndefinedError):
            cohomology(self.bad_rep())

    def test_every_degree_refuses(self):
        # the complex refuses its first degree read, in any degree, and the
        # report refuses with the same text
        rep = self.bad_rep()
        text = r"^d o d is nonzero at degree 0; cohomology undefined$"
        for k in range(rep.acting.dim + 1):
            with pytest.raises(CohomologyUndefinedError, match=text):
                CEComplex(rep).degree(k)
        with pytest.raises(CohomologyUndefinedError, match=text):
            cohomology(rep)

    def test_the_check_runs_once_per_complex(self, monkeypatch):
        checked, orig = [], CEComplex.d_squared_defect

        def counted(cx):
            checked.append(cx)
            return orig(cx)

        monkeypatch.setattr(CEComplex, "d_squared_defect", counted)
        cx = CEComplex(adjoint_rep(catalog_algebra("heis3")))
        for k in (2, 0, 3, 1, 4):
            cx.degree(k)
        cohomology(cx)
        assert checked == [cx]
        cohomology(adjoint_rep(catalog_algebra("heis3")))
        assert len(checked) == 2

    def test_differential_matrix_does_not_refuse(self):
        m = differential_matrix(1, self.bad_rep())
        assert m.rows == 9 and m.cols == 9


class TestFrozenDimensions:
    def test_heis3_adjoint(self):
        assert adjoint_cohomology(catalog_algebra("heis3")).dims_h() == [1, 4, 5, 2]

    def test_abelian3_adjoint(self):
        assert adjoint_cohomology(catalog_algebra("abelian3")).dims_h() == [3, 9, 9, 3]

    def test_semisimple_vanishing(self):
        for name in ("sl2", "so3"):
            assert adjoint_cohomology(catalog_algebra(name)).dims_h() == [0, 0, 0, 0]

    def test_aff1_vanishing(self):
        assert adjoint_cohomology(catalog_algebra("aff1")).dims_h() == [0, 0, 0]

    def test_borel_all_three_systems_vanish(self):
        assert adjoint_cohomology(catalog_algebra("borel")).dims_h() == [0, 0, 0]
        assert cohomology(pullback_rep(hom_preset("borel-incl"))).dims_h() == [0, 0, 0]
        report = cohomology(quotient_rep(sub_preset("borel-in-sl2")))
        assert report.dims_h() == [0, 0, 0]
        assert [d.dim_cochains for d in report.degrees] == [1, 2, 1]

    def test_zero_map_pullback(self):
        assert cohomology(pullback_rep(hom_preset("zero-to-sl2"))).dims_h() == [3, 3]

    def test_center_quotient(self):
        report = cohomology(quotient_rep(sub_preset("center-in-heis3")))
        assert report.dims_h()[:2] == [2, 2]

    def test_euler_characteristic_zero(self):
        for name in catalog_names():
            report = adjoint_cohomology(catalog_algebra(name))
            assert euler_characteristic(report) == 0

    def test_rank_nullity_per_degree(self):
        report = adjoint_cohomology(catalog_algebra("heis3"))
        for d in report.degrees:
            assert d.dim_h == d.dim_cocycles - d.dim_coboundaries
            assert d.dim_cocycles <= d.dim_cochains

    def test_degree_selection(self):
        rep = adjoint_rep(catalog_algebra("sl2"))
        report = cohomology(rep)
        assert report.degree(2).dim_cocycles == 6

    @pytest.mark.parametrize("read", [
        lambda: CEComplex(adjoint_rep(catalog_algebra("sl2"))).degree(3000),
        lambda: Problem.of(catalog_algebra("heis3")).degree(5000),  # no torus
        lambda: connecting_map_on_h(sub_preset("borel-in-sl2"), 5000)],
        ids=["sl2-adjoint", "heis3-problem", "borel-in-sl2-connecting-map"])
    def test_a_degree_far_above_the_dimension_is_zero(self, read):
        # C^k = 0 above the acting dimension n, so above n + 1 its block is
        # ((), 0) with no block below read: a walk down through every lower
        # degree overflowed the recursion limit here
        start = time.perf_counter()
        out = read()
        assert time.perf_counter() - start < 1
        if isinstance(out, Matrix):
            assert (out.rows, out.cols) == (0, 0)
        else:
            assert (out.dim_cochains, out.dim_cocycles, out.dim_coboundaries,
                    out.dim_h, out.h_representatives) == (0, 0, 0, 0, ())

    @pytest.mark.parametrize("name", ["sl2", "heis3"])
    def test_blocks_above_the_dimension_are_empty(self, name):
        cx = CEComplex(adjoint_rep(catalog_algebra(name)))
        zero, rank_off = cx.block(cx.n + 1)  # made from the blocks below
        assert not zero and rank_off == 0
        for k in (cx.n + 2, 3000):
            assert cx.block(k) == ((), 0)


class TestInducedMaps:
    def test_identity_maps_induce_identity(self):
        report = adjoint_cohomology(catalog_algebra("heis3"))
        maps = identity_chain_maps(report)
        ind = induced_map_on_h(maps, report, report, 2)
        assert ind.rank == 5 and ind.injective and ind.surjective

    def test_pullback_of_identity_is_isomorphism(self):
        g = catalog_algebra("sl2")
        report = adjoint_cohomology(g)
        hid = hom_preset("id-sl2")
        maps = {j: pullback_cochain_map(hid, j) for j in range(0, 3)}
        ind = induced_map_on_h(maps, report, report, 1)
        assert ind.rank == 0 and ind.is_zero  # H^1 = 0, map vacuously zero

    def test_pullback_chain_map_commutes(self):
        hom = hom_preset("borel-incl")
        src = adjoint_cohomology(hom.target)
        tgt = cohomology(pullback_rep(hom))
        for k in range(2):
            left = tgt.complex.d(k).mul(pullback_cochain_map(hom, k))
            right = pullback_cochain_map(hom, k + 1).mul(src.complex.d(k))
            assert left.data == right.data

    def test_non_chain_map_rejected(self):
        report = adjoint_cohomology(catalog_algebra("heis3"))
        maps = identity_chain_maps(report)
        broken = dict(maps)
        m = maps[1]
        data = [list(row) for row in m.data]
        data[0][0] += 1
        data[0][1] += 1
        broken[1] = Matrix.from_rows(data)
        with pytest.raises(ChainMapError):
            induced_map_on_h(broken, report, report, 1)

    def test_missing_degree_rejected(self):
        report = adjoint_cohomology(catalog_algebra("heis3"))
        maps = identity_chain_maps(report)
        del maps[2]
        with pytest.raises(ChainMapError):
            induced_map_on_h(maps, report, report, 1)


class TestLongExactSequence:
    def test_borel_in_sl2_trivially_exact(self):
        les = les_subalgebra(sub_preset("borel-in-sl2"), 2)
        assert les.all_exact
        assert all(node.dim == 0 for node in les.nodes)

    def test_center_in_heis3_exact_with_frozen_dims(self):
        les = les_subalgebra(sub_preset("center-in-heis3"), 2)
        assert les.all_exact
        assert [node.dim for node in les.nodes] == [1, 3, 2, 1, 3, 2]
        for node in les.nodes:
            assert node.rank_in + node.rank_out <= node.dim or node.exact
            assert node.membership_ok

    def test_node_labels_cycle_through_modules(self):
        les = les_subalgebra(sub_preset("center-in-heis3"), 1)
        assert [n.label for n in les.nodes[:3]] == [
            "H^0(h,h)", "H^0(h,g)", "H^0(h,g/h)"]

    def test_exactness_rank_identity(self):
        les = les_subalgebra(sub_preset("center-in-heis3"), 2)
        for node in les.nodes:
            assert node.exact == (node.rank_in + node.rank_out == node.dim)

    def test_connecting_map_shape(self):
        # H^0(h, g/h) -> H^1(h, h), from a witness or its problem alike
        w = sub_preset("center-in-heis3")
        p = Problem.of(w)
        m = connecting_map_on_h(w, 0)
        assert m.rows == p.inclusion.source.degree(1).dim_h
        assert m.cols == p.degree(0).dim_h
        assert connecting_map_on_h(p, 0) == m
        with pytest.raises(TypeError):
            connecting_map_on_h(hom_preset("id-sl2"), 0)

    def test_a_window_below_dim_h_ends_at_the_closing_node(self):
        # with max degree m < dim h the sequence stops at H^(m+1)(h,h), its
        # closing node: the first 3(m+1) + 1 nodes of the whole sequence
        families = bench_families()
        subs = [sub_preset(name) for name in sub_preset_names()] + [
            families.centre_of_heis(m) for m in (1, 2, 3)] + [
            families.nilradical_of_borel3(), families.borel3_in_sl3()]
        for w in subs:
            whole = les_subalgebra(w, w.dim).nodes
            assert len(whole) == 3 * (w.dim + 1)
            for m in range(w.dim):
                nodes = les_subalgebra(w, m).nodes
                assert nodes == whole[:3 * (m + 1) + 1]
                assert nodes[-1].label == f"H^{m + 1}(h,h)"

    def test_negative_max_degree_is_refused(self):
        with pytest.raises(ValueError):
            les_subalgebra(sub_preset("borel-in-sl2"), -1)

    def test_degrees_are_the_sub_problems(self, monkeypatch):
        # the nodes are the degrees of h, of the inclusion and of the
        # subalgebra, read from their problems: degrees 0 and 1 of each, as
        # dim h = 1, and no whole report
        def refused(*args):
            raise AssertionError("the sequence built a whole report")

        monkeypatch.setattr(cecomplex, "cohomology", refused)
        p = Problem(sub_preset("center-in-heis3"))
        les = les_subalgebra(p, 2)
        systems = (p.inclusion.source, p.inclusion, p)
        assert [n.dim for n in les.nodes] == [
            q.degree(k).dim_h for k in (0, 1) for q in systems]
        assert [sorted(q.complex._degrees) for q in systems] == [
            [0, 1], [0, 1], [0, 1]]

    def test_json_round_trip_fields(self):
        les = les_subalgebra(sub_preset("center-in-heis3"), 2)
        doc = les.to_json_dict()
        assert doc["max_degree"] == 2
        assert all(set(n) == {"label", "k", "dimH", "rank_in", "rank_out",
                              "exact"} for n in doc["nodes"])
        assert doc["all_exact"] is True

    def test_sequence_matches_the_block_diagonal_chain_maps(self, monkeypatch):
        # the sequence reads iota and pi by post-composing representatives;
        # here they are the block-diagonal chain maps, each square checked
        for w in les_subalgebras():
            p = Problem.of(w)
            incl, kh = p.inclusion, w.dim
            iota = {k: block_diagonal(incl.obj.matrix, comb(kh, k))
                    for k in range(kh + 2)}
            pi = {k: block_diagonal(w.coords.projection, comb(kh, k))
                  for k in range(kh + 2)}
            # no ChainMapError: both are chain maps in every degree
            i_on_h = [induced_map_on_h(iota, incl.source, incl, k).matrix
                      for k in range(kh + 1)]
            p_on_h = [induced_map_on_h(pi, incl, p, k).matrix
                      for k in range(kh + 1)]
            conn = [connecting_map_on_h(p, k) for k in range(kh + 1)]
            for d in range(kh + 2):
                top, nodes = min(d, kh), []
                for k in range(top + 1):
                    incoming = conn[k - 1] if k else Matrix.zeros(
                        incl.source.degree(0).dim_h, 0)
                    nodes += [_exact_at(f"H^{k}(h,h)", k, incoming, i_on_h[k]),
                              _exact_at(f"H^{k}(h,g)", k, i_on_h[k], p_on_h[k]),
                              _exact_at(f"H^{k}(h,g/h)", k, p_on_h[k], conn[k])]
                if top + 1 <= kh:
                    nodes.append(_exact_at(f"H^{top + 1}(h,h)", top + 1,
                                           conn[top], i_on_h[top + 1]))
                assert les_subalgebra(w, d).nodes == tuple(nodes), (w.name, d)

        def refused(*args):
            raise AssertionError("the sequence called induced_map_on_h")

        monkeypatch.setattr(cecomplex, "induced_map_on_h", refused)
        for w in les_subalgebras():
            les_subalgebra(w, w.dim + 1)


def block_diagonal(matrix: Matrix, n_subsets: int) -> Matrix:
    """The matrix applying ``matrix`` to every value block of a cochain."""
    r, c = matrix.rows, matrix.cols
    return Matrix.of_rows(n_subsets * r, n_subsets * c, [
        {p * c + j: x for j, x in row.items()}
        for p in range(n_subsets) for row in matrix.row_maps])


def les_subalgebras() -> list:
    """Both presets, the benchmark's five subalgebras, and in every catalog
    algebra the trivial subalgebra, the whole algebra and the spans of its
    first and of its last basis vector."""
    families = bench_families()
    subs = [sub_preset(name) for name in sub_preset_names()] + [
        families.centre_of_heis(m) for m in (1, 2, 3)] + [
        families.nilradical_of_borel3(), families.borel3_in_sl3()]
    for name in catalog_names():
        g = catalog_algebra(name)
        unit = [[int(i == j) for j in range(g.dim)] for i in range(g.dim)]
        subs += [subalgebra_witness(g, vectors, name=f"{name}-{tag}")
                 for tag, vectors in (("0", []), ("all", unit),
                                      ("first", unit[:1]), ("last", unit[-1:]))]
    return subs


def test_report_json_shape():
    report = adjoint_cohomology(catalog_algebra("heis3"))
    doc = report.to_json_dict()
    assert [row["dimH"] for row in doc["degrees"]] == [1, 4, 5, 2]
    assert doc["euler"] == 0


def test_reports_match_dense_elimination():
    # cocycle and representative bases are the ones dense
    # Gauss-Jordan elimination gives, vector for vector
    for rep in all_reps():
        report = cohomology(rep)
        got = [(d.cocycles.basis, tuple(tuple(dense(r, d.dim_cochains))
                                        for r in d.h_representatives))
               for d in report.degrees]
        assert got == [(z, r) for z, _, r in dense_report_tuples(rep)], rep.label


def test_abelian_closed_form():
    # every differential of an abelian algebra on itself is zero, so
    # H^k(a_n, a_n) = C^k = Lambda^k(n) (x) n; n = 0 is the empty algebra
    for n in range(9):
        a_n = validate_bracket(BracketCandidate.zero(n), name=f"abelian{n}")
        assert adjoint_cohomology(a_n).dims_h() == [
            comb(n, k) * n for k in range(n + 1)], n


@pytest.mark.parametrize("name, dims", [("sl2", [0, 0, 0, 0]),
                                        ("heis3", [1, 4, 5, 2])])
def test_rational_structure_constants(name, dims):
    # the basis rescaled by 1/2 and 3/5 gives an isomorphic algebra whose
    # constants are not all integers: same dims, and each representative is
    # its own class
    g = rescaled_algebra(catalog_algebra(name), [Fraction(1, 2), Fraction(3, 5), 1])
    assert any(x.denominator > 1 for plane in g.c for row in plane for x in row)
    report = adjoint_cohomology(g)
    assert report.dims_h() == dims
    for d in report.degrees:
        units = [[int(i == j) for j in range(d.dim_h)] for i in range(d.dim_h)]
        assert [d.class_coords(z) for z in d.h_representatives] == units


class TestFrontier:
    # dims from the Fraction-based engine; each report takes well under 10 s
    @pytest.mark.parametrize("g, dims", [
        (filiform_algebra(10), [1, 10, 36, 85, 140, 161, 130, 72, 27, 8, 2]),
        (heisenberg_algebra(5),
         [1, 56, 330, 935, 1518, 1320, 1287, 1540, 1056, 430, 99, 10])])
    def test_dims_only_report(self, g, dims):
        t = time.perf_counter()
        report = adjoint_cohomology(g)
        assert report.dims_h() == dims
        assert euler_characteristic(report) == 0
        assert time.perf_counter() - t < 10


class TestClosedFormsAtTheRankFormFrontier:
    # dims-only reports read ranks only; each takes well under 5 s
    def test_abelian_12(self):
        t = time.perf_counter()
        report = adjoint_cohomology(
            validate_bracket(BracketCandidate.zero(12), name="abelian12"))
        assert report.dims_h() == [12 * comb(12, k) for k in range(13)]
        assert euler_characteristic(report) == 0
        assert time.perf_counter() - t < 5

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_gl_n_poincare_polynomial(self, n):
        # H(gl_n, gl_n) = H(gl_n) (x) centre, and H(gl_n) is an exterior
        # algebra on generators of degrees 1, 3, .., 2n - 1
        t = time.perf_counter()
        report = adjoint_cohomology(gl_algebra(n))
        assert report.dims_h() == exterior_dims(range(1, 2 * n, 2))
        assert euler_characteristic(report) == 0
        assert time.perf_counter() - t < 5


class TestClosedFormsAtDimensionEightAndNine:
    def test_sl3_whitehead(self):
        t = time.perf_counter()
        report = adjoint_cohomology(sl_algebra(3))
        assert report.dims_h() == [0] * 9
        assert euler_characteristic(report) == 0
        assert time.perf_counter() - t < 5

    def test_gl3(self):
        # H(gl_3, gl_3) = H(gl_3) (x) centre, H(gl_3) = exterior algebra on
        # generators of degrees 1, 3 and 5
        report = adjoint_cohomology(gl_algebra(3))
        assert report.dims_h() == [1, 1, 0, 1, 1, 1, 1, 0, 1, 1]
        assert euler_characteristic(report) == 0


def exterior_dims(degrees) -> list:
    """Coefficients of prod (1 + t^d) over ``degrees``: the dimensions of an
    exterior algebra on generators of those degrees."""
    poly = [1]
    for d in degrees:
        poly = [a + (poly[i - d] if i >= d else 0)
                for i, a in enumerate(poly + [0] * d)]
    return poly


def trivial_rep(g) -> RepSpec:
    """g acting on C by zero: the pullback system of the zero homomorphism
    to abelian(1)."""
    return pullback_rep(Homomorphism(g, abelian(1), Matrix.zeros(1, g.dim)))


class TestKostant:
    # H^k(n_n, C) holds one weight w.rho - rho for each permutation w of
    # length k (Kostant, 1961): dim H^k is the number of permutations of n
    # letters with k inversions; with the torus added, Hochschild-Serre
    # leaves only w = 1, so H^k(b(sl_n), C) is Lambda^k of the torus's dual
    @pytest.mark.parametrize("n", range(3, 7))
    def test_nilradical_gives_the_mahonian_numbers(self, n):
        inversions = Counter(sum(a > b for a, b in combinations(w, 2))
                             for w in permutations(range(n)))
        t = time.perf_counter()
        # no inner torus acts: every d_k is built whole
        cx = CEComplex(trivial_rep(nilradical(n)))
        report = cohomology(cx)
        assert cx.generic is None
        assert report.dims_h() == [inversions[k] for k in range(cx.n + 1)]
        assert euler_characteristic(report) == 0
        assert time.perf_counter() - t < 2

    @pytest.mark.parametrize("n", range(3, 6))
    def test_borel_gives_the_torus_exterior_algebra(self, n):
        t = time.perf_counter()
        # the Cartan elements act diagonally: only zero-weight rows are built
        cx = CEComplex(trivial_rep(bench_families().borel(n)))
        report = cohomology(cx)
        assert cx.generic is not None
        assert report.dims_h() == [comb(n - 1, k) for k in range(cx.n + 1)]
        assert euler_characteristic(report) == 0
        assert time.perf_counter() - t < 2


class TestReductiveTrivialCoefficients:
    # H*(g, C) of a reductive g is the exterior algebra on its primitive
    # classes, one of degree 2i - 1 for each i = 2..n on sl_n and i = 1..n on
    # gl_n (Chevalley and Eilenberg, 1948; Koszul, 1950).  The inner torus
    # acts, so each rank form builds partial rows, here at acting indices
    # past those of the Kostant cases above
    @pytest.mark.parametrize("family, first", [("sl", 2), ("gl", 1)])
    @pytest.mark.parametrize("n", range(2, 5))
    def test_poincare_polynomial_is_the_primitive_exterior_algebra(
            self, family, first, n):
        t = time.perf_counter()
        cx = CEComplex(trivial_rep(getattr(bench_families(), family)(n)))
        report = cohomology(cx)
        assert cx.generic is not None
        assert report.dims_h() == exterior_dims(range(2 * first - 1, 2 * n, 2))
        assert euler_characteristic(report) == 0
        assert time.perf_counter() - t < 1


DROPPED_REPORT = """
import gc, tracemalloc
import families
from liedeform import adjoint_rep, cohomology
cohomology(adjoint_rep(families.borel(4)))
gc.collect()
tracemalloc.start()
report = cohomology(adjoint_rep(families.borel(5)))
del report
gc.collect()
print(tracemalloc.get_traced_memory()[0])
"""


def test_a_dropped_report_leaves_nothing_behind():
    # in a fresh process, which no earlier test has warmed: after a warm-up
    # on b(sl_4), b(sl_5)'s report, once dropped, leaves nothing behind, as
    # no table of its subsets outlives the call that read it (a table per
    # (n, k) kept 3.2 MiB here)
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root / "bench")]))
    out = subprocess.run([sys.executable, "-c", DROPPED_REPORT], cwd=root,
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    kept = int(out.stdout)
    assert kept < 2 ** 19, f"{kept / 2 ** 20:.2f} MiB kept"
