"""Jacobiator/curvature expansions, splittings, and the three obstruction
maps."""

from fractions import Fraction
from unittest import mock

import pytest

from liedeform import kuranishi
from liedeform.algebras import (BracketCandidate, Matrix, abelian,
                                catalog_algebra, hom_preset, sub_preset)
from liedeform.cecomplex import CEComplex, adjoint_rep
from liedeform.cochains import AltMap
from helpers import column, flat
from liedeform.kuranishi import (NonCocycleError, ObstructionClass, Splitting,
                                 curvature_expansion_check, eta_matrix,
                                 jacobiator, jacobiator_expansion_check,
                                 kuranishi_bracket, kuranishi_hom,
                                 kuranishi_sub, matrix_as_one_cochain,
                                 omega_sigma, shifted_splitting,
                                 splitting_independence_check,
                                 standard_splitting)


def two_cochain(n, values):
    return AltMap.from_values(2, n, n, values)


class TestJacobiator:
    def test_vanishes_on_valid_brackets(self):
        for name in ("sl2", "heis3", "aff1", "so3"):
            g = catalog_algebra(name)
            assert jacobiator(g.candidate).is_zero()

    def test_detects_jacobi_failure(self):
        cand = BracketCandidate.from_entries(
            3, {(0, 1): [1, 0, 0], (0, 2): [0, 0, 1], (1, 2): [0, 0, 0]})
        jac = jacobiator(cand)
        assert jac.value((0, 1, 2)) == [Fraction(0), Fraction(0), Fraction(1)]

    def test_reads_a_two_cochain_and_refuses_other_types(self):
        cand = BracketCandidate.from_entries(
            3, {(0, 1): [1, 0, 0], (0, 2): [0, 0, 1], (1, 2): [0, 0, 0]})
        assert flat(jacobiator(cand.as_altmap())) == flat(jacobiator(cand))
        assert flat(jacobiator(catalog_algebra("sl2"))) == flat(
            jacobiator(catalog_algebra("sl2").candidate.as_altmap()))
        for other in (42, cand.c, Matrix.identity(3)):
            with pytest.raises(TypeError, match="expected a bracket candidate"):
                jacobiator(other)

    def test_quadratic_scaling(self):
        # the jacobiator of a bracket candidate is quadratic: J(2c) = 4 J(c)
        cand = BracketCandidate.from_entries(
            3, {(0, 1): [1, 0, 0], (0, 2): [0, 0, 1], (1, 2): [0, 0, 0]})
        doubled = BracketCandidate.from_altmap(cand.as_altmap().scale(2))
        assert flat(jacobiator(doubled)) == flat(jacobiator(cand).scale(4))


class TestExpansions:
    def test_bracket_expansion_exact_on_fixed_directions(self):
        g = catalog_algebra("sl2")
        xi = two_cochain(3, {(0, 1): [1, 2, 0], (0, 2): [0, 0, -1],
                             (1, 2): [Fraction(1, 3), 0, 0]})
        eta = two_cochain(3, {(0, 1): [0, 1, 1], (1, 2): [2, 0, 5]})
        report = jacobiator_expansion_check(g.candidate, xi, eta)
        assert report.ok and report.max_defect == 0
        assert report.first_mismatch is None
        assert len(report.coefficients) == 5

    def test_constant_coefficient_is_base_jacobiator(self):
        cand = BracketCandidate.from_entries(
            3, {(0, 1): [1, 0, 0], (0, 2): [0, 0, 1], (1, 2): [0, 0, 0]})
        xi = two_cochain(3, {(0, 1): [0, 0, 1]})
        eta = two_cochain(3, {})
        report = jacobiator_expansion_check(cand, xi, eta)
        assert report.ok
        assert flat(report.coefficients[0]) == flat(jacobiator(cand))

    def test_linear_coefficient_is_minus_differential(self):
        g = catalog_algebra("heis3")
        xi = two_cochain(3, {(0, 1): [1, 0, 2], (0, 2): [0, 1, 0]})
        eta = two_cochain(3, {})
        report = jacobiator_expansion_check(g.candidate, xi, eta)
        cx = CEComplex(adjoint_rep(g))
        expected = cx.apply_d(xi).scale(-1)
        assert report.ok
        assert flat(report.coefficients[1]) == flat(expected)

    def test_curvature_expansion_exact(self):
        rho = hom_preset("borel-incl")
        xi = Matrix.from_rows([[1, 0], [0, 2], [Fraction(1, 2), 1]])
        report = curvature_expansion_check(rho, xi)
        assert report.ok and report.max_defect == 0

    def test_curvature_expansion_from_non_homomorphism_start(self):
        g = catalog_algebra("aff1")
        from liedeform.algebras import Homomorphism
        swap = Homomorphism(g, g, Matrix.from_rows([[0, 1], [1, 0]]), name="swap")
        xi = Matrix.from_rows([[1, 1], [0, 1]])
        report = curvature_expansion_check(swap, xi)
        assert report.ok  # identity holds around any base map
        assert not report.coefficients[0].is_zero()

    @staticmethod
    def negated_differential(monkeypatch):
        real = kuranishi.differential_matrix

        def negated(k, rep):
            d = real(k, rep)
            return Matrix.zeros(d.rows, d.cols).add_scaled(d, -1)

        monkeypatch.setattr(kuranishi, "differential_matrix", negated)

    def test_bracket_expansion_reports_a_wrong_differential(self, monkeypatch):
        # with -d_2 in place of d_2 the t^1 coefficient -d(xi) is off by
        # 2 d(xi), and the report names it
        g = catalog_algebra("sl2")
        xi = two_cochain(3, {(0, 1): [1, 2, 0], (0, 2): [0, 0, -1]})
        self.negated_differential(monkeypatch)
        report = jacobiator_expansion_check(g.candidate, xi,
                                            two_cochain(3, {}))
        assert not report.ok and report.first_mismatch == "t^1: -d(xi)"
        d_xi = CEComplex(adjoint_rep(g)).apply_d(xi)
        assert report.max_defect == 2 * d_xi.sup_abs() > 0
        assert report.summary() == ("expansion mismatch at t^1: -d(xi) "
                                    f"(defect {report.max_defect})")

    def test_curvature_expansion_reports_a_wrong_differential(self,
                                                              monkeypatch):
        rho = hom_preset("borel-incl")
        xi = Matrix.from_rows([[1, 0], [0, 2], [Fraction(1, 2), 1]])
        self.negated_differential(monkeypatch)
        report = curvature_expansion_check(rho, xi)
        assert not report.ok and report.first_mismatch == "t^1: d(xi)"
        assert report.max_defect > 0
        assert report.summary() == ("expansion mismatch at t^1: d(xi) "
                                    f"(defect {report.max_defect})")


class TestSplittings:
    def test_standard_splitting_invariants(self):
        for name in ("borel-in-sl2", "center-in-heis3"):
            sp = standard_splitting(sub_preset(name))
            om = sp.omega_s
            assert om.mul(om).data == om.data  # idempotent

    def test_projection_section_identity_enforced(self):
        w = sub_preset("borel-in-sl2")
        bad = Matrix.from_rows([[1], [0], [0]])  # maps class of f to h
        with pytest.raises(ValueError):
            Splitting(w, bad)

    def test_shifted_splitting_is_still_splitting(self):
        sp = standard_splitting(sub_preset("borel-in-sl2"))
        shift = Matrix.from_rows([[3], [-2]])
        sp2 = shifted_splitting(sp, shift)
        assert sp2.section.data != sp.section.data
        assert sp2.omega_s.mul(sp2.omega_s).data == sp2.omega_s.data

    def test_independence_of_splitting_choice(self):
        # the obstruction class changes only by an explicit coboundary when
        # the section changes; verified exactly for several shifts
        w = sub_preset("borel-in-sl2")
        sp = standard_splitting(w)
        eta = matrix_as_one_cochain(Matrix.from_rows([[1, 0]]))
        for shift_rows in ([[1], [0]], [[0], [1]], [[2], [-3]], [[Fraction(1, 2)], [5]]):
            sp2 = shifted_splitting(sp, Matrix.from_rows(shift_rows))
            comp = splitting_independence_check(sp, sp2, eta)
            assert comp.ok and comp.max_defect == 0

    def test_independence_check_solves_for_no_primitive(self):
        sp = standard_splitting(sub_preset("borel-in-sl2"))
        sp2 = shifted_splitting(sp, Matrix.from_rows([[2], [-3]]))
        eta = matrix_as_one_cochain(Matrix.from_rows([[1, 0]]))
        with mock.patch.object(kuranishi, "solve",
                               wraps=kuranishi.solve) as spy:
            assert splitting_independence_check(sp, sp2, eta).ok
            assert spy.call_count == 0
            kuranishi_sub(sp, eta)  # the spy sees the class's one solve
            assert spy.call_count == 1

    def test_independence_check_refuses_eta_as_the_class_does(self):
        # a non-cocycle, a 1-cochain of the wrong shape and a 2-cochain:
        # the same exception, text and defect as kuranishi_sub gives
        sp = standard_splitting(sub_preset("borel-in-sl2"))
        sp2 = shifted_splitting(sp, Matrix.from_rows([[2], [-3]]))

        def refusal(check, eta):
            with pytest.raises(ValueError) as exc:
                check(eta)
            return (type(exc.value), str(exc.value),
                    getattr(exc.value, "defect", None))

        for eta, kind, text in (
                (matrix_as_one_cochain(Matrix.from_rows([[0, 1]])),
                 NonCocycleError, "eta is not a 1-cocycle"),
                (AltMap.zero(1, 2, 2), ValueError,
                 "cochain does not fit this complex"),
                (AltMap.zero(2, 2, 1), ValueError,
                 "eta must be a 1-cochain on the subalgebra with values in "
                 "the quotient")):
            got = refusal(lambda e: splitting_independence_check(sp, sp2, e),
                          eta)
            assert got == refusal(lambda e: kuranishi_sub(sp, e), eta)
            assert got[:2] == (kind, text)

    def test_independence_check_reports_a_wrong_coboundary(self, monkeypatch):
        # a coboundary moved off by d of the unit cochain at e (d_1 there is
        # -4) is refused, with the defect
        sp = standard_splitting(sub_preset("borel-in-sl2"))
        sp2 = shifted_splitting(sp, Matrix.from_rows([[2], [-3]]))
        eta = matrix_as_one_cochain(Matrix.from_rows([[1, 0]]))
        real = kuranishi.matrix_as_one_cochain
        monkeypatch.setattr(kuranishi, "matrix_as_one_cochain", lambda m: real(
            m).add(AltMap.of(1, 2, 1, {1: 1})))
        comp = splitting_independence_check(sp, sp2, eta)
        assert not comp.ok and comp.max_defect == 4
        assert comp.summary() == "splitting comparison failed (defect 4)"

    def test_eta_matrix_round_trip(self):
        m = Matrix.from_rows([[1, 2]])
        assert eta_matrix(matrix_as_one_cochain(m)).data == m.data


class TestBorelFrozenValues:
    """Hand-computed values for the Borel subalgebra of sl2: basis (h, e)
    inside (h, e, f), quotient spanned by the class of f."""

    def eta(self):
        # eta(h) = class of f, eta(e) = 0
        return matrix_as_one_cochain(Matrix.from_rows([[1, 0]]))

    def test_eta_is_quotient_cocycle(self):
        sp = standard_splitting(sub_preset("borel-in-sl2"))
        omega_sigma(sp, self.eta())  # would raise NonCocycleError otherwise

    def test_omega_sigma_value(self):
        sp = standard_splitting(sub_preset("borel-in-sl2"))
        om = omega_sigma(sp, self.eta())
        # Omega(h, e) = -h, written in subalgebra coordinates
        assert om.value((0, 1)) == [Fraction(-1), Fraction(0)]

    def test_obstruction_class_vanishes_with_primitive(self):
        sp = standard_splitting(sub_preset("borel-in-sl2"))
        cls = kuranishi_sub(sp, self.eta())
        assert cls.kind == "sub" and cls.degree == 2
        assert cls.is_zero_in_h
        # Phi(h, e) = class of f; the primitive omega has omega(e) = -1/4 f
        assert cls.representative.value((0, 1)) == [Fraction(1)]
        assert cls.primitive.value((1,)) == [Fraction(-1, 4)]

    def test_non_cocycle_eta_refused(self):
        sp = standard_splitting(sub_preset("borel-in-sl2"))
        bad = matrix_as_one_cochain(Matrix.from_rows([[0, 1]]))  # eta(e) = fbar
        with pytest.raises(NonCocycleError) as exc:
            kuranishi_sub(sp, bad)
        assert not exc.value.defect.is_zero()


class TestBracketObstruction:
    def test_abelian_nonzero_class(self):
        # on an abelian algebra the differential vanishes, so the class of a
        # direction xi is J(xi) itself and is nonzero iff J(xi) is
        g = abelian(3)
        xi = two_cochain(3, {(0, 1): [1, 0, 0], (0, 2): [0, 0, 1]})
        cls = kuranishi_bracket(g, xi)
        assert cls.kind == "bracket" and cls.degree == 3
        assert not cls.is_zero_in_h
        assert cls.primitive is None
        assert flat(cls.representative) == flat(jacobiator(
            BracketCandidate.from_altmap(xi)))

    def test_abelian_jacobi_direction_gives_zero_class(self):
        g = abelian(3)
        xi = catalog_algebra("heis3").candidate.as_altmap()
        cls = kuranishi_bracket(g, xi)
        assert cls.is_zero_in_h
        assert cls.representative.is_zero()

    def test_sl2_class_always_exact(self):
        # H^3(sl2, sl2) = 0: every obstruction class admits a primitive
        g = catalog_algebra("sl2")
        cx = CEComplex(adjoint_rep(g))
        xi = two_cochain(3, {(0, 1): [0, 0, 1], (0, 2): [0, 1, 0],
                             (1, 2): [1, 0, 0]})
        assert cx.apply_d(xi).is_zero()  # direction is a cocycle
        cls = kuranishi_bracket(g, xi)
        assert cls.is_zero_in_h
        assert flat(cx.apply_d(cls.primitive)) == flat(cls.representative)

    def test_non_cocycle_direction_refused(self):
        g = catalog_algebra("sl2")
        xi = two_cochain(3, {(0, 1): [1, 0, 0]})
        with pytest.raises(NonCocycleError):
            kuranishi_bracket(g, xi)


class TestHomObstruction:
    def one_cocycle_for_id_sl2(self):
        # inner direction: u -> [x, u] with x = e is a pullback 1-cocycle
        g = catalog_algebra("sl2")
        from liedeform.algebras import ad_rows
        m = Matrix.of_rows(3, 3, ad_rows(g.candidate, ((1, 1),)))
        return matrix_as_one_cochain(m)

    def test_id_sl2_class_exact(self):
        rho = hom_preset("id-sl2")
        cls = kuranishi_hom(rho, self.one_cocycle_for_id_sl2())
        assert cls.kind == "hom" and cls.degree == 2
        assert cls.is_zero_in_h

    def test_representative_value(self):
        # for the direction xi = ad_e the representative is (u,v) -> [xi u, xi v]
        rho = hom_preset("id-sl2")
        xi = self.one_cocycle_for_id_sl2()
        cls = kuranishi_hom(rho, xi)
        g = catalog_algebra("sl2")
        xm = eta_matrix(xi)
        for (i, j) in ((0, 1), (0, 2), (1, 2)):
            expected = g.bracket(column(xm, i), column(xm, j))
            assert cls.representative.value((i, j)) == expected

    def test_zero_direction_gives_zero_class(self):
        rho = hom_preset("borel-incl")
        xi = AltMap.zero(1, 2, 3)
        cls = kuranishi_hom(rho, xi)
        assert cls.is_zero_in_h and cls.representative.is_zero()

    def test_non_cocycle_direction_refused(self):
        rho = hom_preset("borel-incl")
        xi = matrix_as_one_cochain(Matrix.from_rows([[0, 0], [0, 0], [1, 0]]))
        with pytest.raises(NonCocycleError):
            kuranishi_hom(rho, xi)


def test_obstruction_json_shape():
    g = abelian(3)
    xi = AltMap.from_values(2, 3, 3, {(0, 1): [1, 0, 0], (0, 2): [0, 0, 1]})
    doc = kuranishi_bracket(g, xi).to_json_dict()
    assert doc["kind"] == "bracket"
    assert doc["vanishes"] is False
    assert "primitive" not in doc
    assert doc["representative"]  # nonzero entries listed
    zero = kuranishi_bracket(g, AltMap.zero(2, 3, 3)).to_json_dict()
    assert zero["vanishes"] is True and zero["primitive"] == []
