"""Differentials, cohomology reports, induced maps, and the long exact
sequence for a subalgebra."""

from fractions import Fraction

import pytest

from liedeform.algebras import (BracketCandidate, Homomorphism, Matrix,
                                RepSpec, adjoint_rep, catalog_algebra,
                                catalog_names, hom_preset, pullback_rep,
                                quotient_rep, sub_preset)
from liedeform.cecomplex import (CEComplex, ChainMapError,
                                 CohomologyUndefinedError, Problem,
                                 adjoint_cohomology,
                                 cohomology, connecting_map_on_h,
                                 differential_matrix, euler_characteristic,
                                 induced_map_on_h, les_subalgebra,
                                 pullback_cochain_map)
from helpers import identity_chain_maps
from liedeform.cochains import AltMap


def all_reps():
    reps = [adjoint_rep(catalog_algebra(name)) for name in catalog_names()]
    for name in ("id-sl2", "borel-incl", "zero-to-sl2"):
        reps.append(pullback_rep(hom_preset(name)))
    for name in ("borel-in-sl2", "center-in-heis3"):
        reps.append(quotient_rep(sub_preset(name)))
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
        assert list(cx.apply_d(om).flat()) == list(cx.d(1).apply(list(om.flat())))


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
        return RepSpec("adjoint", cand, 3, tuple(mats), label="bad")

    def test_cohomology_refuses(self):
        with pytest.raises(CohomologyUndefinedError):
            cohomology(self.bad_rep())

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
        w = sub_preset("center-in-heis3")
        les = les_subalgebra(w, 2)
        m = connecting_map_on_h(w, les.quotient_report, les.ambient_report,
                                les.sub_report, 0)
        assert m.rows == les.sub_report.degree(1).dim_h
        assert m.cols == les.quotient_report.degree(0).dim_h

    def test_negative_max_degree_is_refused(self):
        with pytest.raises(ValueError):
            les_subalgebra(sub_preset("borel-in-sl2"), -1)

    def test_reports_are_the_sub_problems(self):
        p = Problem(sub_preset("center-in-heis3"))
        les = les_subalgebra(p, 2)
        assert les.sub_report is p.inclusion.source.report
        assert les.ambient_report is p.inclusion.report
        assert les.quotient_report is p.report

    def test_json_round_trip_fields(self):
        les = les_subalgebra(sub_preset("center-in-heis3"), 2)
        doc = les.to_json_dict()
        assert doc["max_degree"] == 2
        assert all(set(n) == {"label", "k", "dimH", "rank_in", "rank_out",
                              "exact"} for n in doc["nodes"])
        assert doc["all_exact"] is True


def test_report_json_shape():
    report = adjoint_cohomology(catalog_algebra("heis3"))
    doc = report.to_json_dict()
    assert [row["dimH"] for row in doc["degrees"]] == [1, 4, 5, 2]
    assert doc["euler"] == 0
