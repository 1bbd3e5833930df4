"""Bracket candidates, Lie algebras, homomorphisms, subalgebras, and the
three coefficient systems."""

from fractions import Fraction

import pytest

from liedeform.algebras import (BracketCandidate, Homomorphism, RepSpec,
                                RepresentationError, ValidationError,
                                abelian, ad_rows,
                                adjoint_rep, catalog_algebra, catalog_names,
                                curvature, hom_preset, pullback_rep,
                                quotient_rep, sub_preset, subalgebra_defect,
                                subalgebra_witness, validate_bracket,
                                validate_homomorphism)
from liedeform import exactlin
from liedeform.cecomplex import CohomologyUndefinedError, cohomology
from liedeform.exactlin import Matrix, _subspace
from liedeform import algebras
from helpers import (bench_families, borel_in_sl, column,
                     dense_identity_failure)


class TestBracketCandidate:
    def test_from_entries_completes_antisymmetrically(self):
        cand = BracketCandidate.from_entries(2, {(0, 1): [0, 1]})
        assert cand.c[1][0] == (Fraction(0), Fraction(-1))

    def test_explicit_mirror_is_kept(self):
        cand = BracketCandidate.from_entries(2, {(0, 1): [0, 1], (1, 0): [0, 1]})
        assert cand.antisymmetry_violation() is not None

    def test_bracket_bilinear(self):
        g = catalog_algebra("sl2")
        u = [Fraction(1), Fraction(2), Fraction(0)]
        v = [Fraction(0), Fraction(1), Fraction(1)]
        w = g.bracket(u, v)
        w_scaled = g.bracket([2 * x for x in u], v)
        assert w_scaled == [2 * x for x in w]


class TestValidation:
    def test_catalog_algebras_are_valid(self):
        for name in catalog_names():
            g = catalog_algebra(name)
            assert g.candidate.antisymmetry_violation() is None
            assert g.candidate.jacobiator().is_zero()

    def test_antisymmetry_failure_reported_first(self):
        cand = BracketCandidate.from_entries(
            2, {(0, 1): [0, 1], (1, 0): [0, 1]})
        with pytest.raises(ValidationError) as exc:
            validate_bracket(cand)
        assert exc.value.kind == "antisymmetry"

    def test_diagonal_counts_as_antisymmetry(self):
        cand = BracketCandidate.from_entries(1, {(0, 0): [1]})
        with pytest.raises(ValidationError) as exc:
            validate_bracket(cand)
        assert exc.value.kind == "antisymmetry"
        assert tuple(exc.value.location) == (0, 0)

    def test_jacobi_failure_carries_defect(self):
        # [e1,e2]=e1, [e1,e3]=e3 leaves a Jacobi defect equal to e3 on the
        # triple (e1,e2,e3)
        cand = BracketCandidate.from_entries(
            3, {(0, 1): [1, 0, 0], (0, 2): [0, 0, 1], (1, 2): [0, 0, 0]})
        with pytest.raises(ValidationError) as exc:
            validate_bracket(cand)
        assert exc.value.kind == "jacobi"
        assert tuple(exc.value.location) == (0, 1, 2)
        assert list(exc.value.defect) == [Fraction(0), Fraction(0), Fraction(1)]

    def test_dim_zero_is_valid(self):
        g = validate_bracket(BracketCandidate.zero(0))
        assert g.dim == 0


def action(rep, k) -> Matrix:
    """The action of acting basis vector k as a matrix."""
    return Matrix.of_rows(rep.carrier_dim, rep.carrier_dim, rep.rows[k])


class TestAdjoint:
    def test_sl2_ad_h_is_diagonal(self):
        g = catalog_algebra("sl2")
        m = Matrix.of_rows(3, 3, ad_rows(g.candidate, ((0, 1),)))
        assert m.data == [[0, 0, 0], [0, 2, 0], [0, 0, -2]]

    def test_heis3_ad_p_sends_q_to_z(self):
        g = catalog_algebra("heis3")
        m = Matrix.of_rows(3, 3, ad_rows(g.candidate, ((0, 1),)))
        assert column(m, 1) == [Fraction(0), Fraction(0), Fraction(1)]
        assert column(m, 0) == [Fraction(0)] * 3
        assert column(m, 2) == [Fraction(0)] * 3

    def test_abelian_rep_is_zero(self):
        rep = adjoint_rep(abelian(3))
        assert all(action(rep, k).is_zero() for k in range(3))

    def test_representation_identity(self):
        # adjoint_rep leaves the identity to validate_bracket's Jacobi check;
        # it still holds on every catalog algebra
        for name in catalog_names():
            rep = adjoint_rep(catalog_algebra(name))
            assert rep.check_identity() is rep

    @staticmethod
    def jacobi_breaking():
        """Built without validate_bracket: [e0,e1] = e1, [e1,e2] = e0 is
        antisymmetric, and its Jacobiator on (e0,e1,e2) is e0."""
        cand = BracketCandidate.from_entries(3, {(0, 1): [0, 1, 0],
                                                 (1, 2): [1, 0, 0]})
        return algebras.LieAlgebra("bad", 3, ("e0", "e1", "e2"), cand)

    def test_bracket_breaking_jacobi_is_refused_by_cohomology(self):
        bad = self.jacobi_breaking()
        with pytest.raises(ValidationError, match="Jacobi"):
            validate_bracket(bad.candidate)
        rep = adjoint_rep(bad)
        with pytest.raises(RepresentationError):
            rep.check_identity()
        with pytest.raises(CohomologyUndefinedError):
            cohomology(rep)

    def test_pullback_over_a_jacobi_breaking_bracket_is_refused_by_cohomology(self):
        # the identity map passes validate_homomorphism; pullback_rep leaves
        # the representation identity to the target's Jacobi identity, so
        # the d o d check refuses the system
        bad = self.jacobi_breaking()
        rep = pullback_rep(Homomorphism(bad, bad, Matrix.identity(3)))
        with pytest.raises(CohomologyUndefinedError):
            cohomology(rep)

    def test_restriction_of_a_jacobi_breaking_bracket_is_refused_by_cohomology(self):
        # as_subalgebra inherits the ambient identities instead of proving
        # them again, so the whole space of an unvalidated bracket gives an
        # algebra whose adjoint system the d o d check refuses
        bad = self.jacobi_breaking()
        h = subalgebra_witness(bad, [[1, 0, 0], [0, 1, 0],
                                     [0, 0, 1]]).as_subalgebra()
        assert h.candidate == bad.candidate
        with pytest.raises(CohomologyUndefinedError):
            cohomology(adjoint_rep(h))

    @pytest.mark.parametrize("rep_of, k, entry, value, pair", [
        (lambda: adjoint_rep(catalog_algebra("sl2")), 1, (0, 2), 2, (1, 2)),
        (lambda: adjoint_rep(catalog_algebra("sl2")), 2, (1, 1), Fraction(1, 3),
         (0, 2)),
        (lambda: pullback_rep(hom_preset("borel-incl")), 0, (2, 2),
         Fraction(1, 2), (0, 1)),
        (lambda: quotient_rep(sub_preset("borel-in-sl2")), 1, (0, 0),
         Fraction(1, 2), (0, 1))])
    def test_one_changed_action_entry_is_refused(self, rep_of, k, entry,
                                                 value, pair):
        rep = rep_of()
        q = rep.carrier_dim
        mats = [action(rep, i).data for i in range(len(rep.rows))]
        assert mats[k][entry[0]][entry[1]] != value
        mats[k][entry[0]][entry[1]] = Fraction(value)
        bad = RepSpec(rep.variant, rep.acting, q,
                      tuple(Matrix(q, q, m).row_maps for m in mats), rep.label)
        with pytest.raises(RepresentationError, match=(
                r"^representation identity fails on pair \(%d,%d\)$" % pair)):
            bad.check_identity()
        with pytest.raises(CohomologyUndefinedError):
            cohomology(bad)


class TestHomomorphisms:
    def test_identity_is_valid(self):
        validate_homomorphism(hom_preset("id-sl2"))

    def test_zero_map_is_valid(self):
        validate_homomorphism(hom_preset("zero-to-sl2"))

    def test_swap_curvature_value(self):
        # on [x,y]=y, swapping x and y gives K(x,y) = [y,x] - x = -x - y
        g = catalog_algebra("aff1")
        swap = Homomorphism(g, g, Matrix.from_rows([[0, 1], [1, 0]]), name="swap")
        k = curvature(swap)
        assert k.value((0, 1)) == [Fraction(-1), Fraction(-1)]
        with pytest.raises(ValidationError) as exc:
            validate_homomorphism(swap)
        assert exc.value.kind == "curvature"

    def test_pullback_of_identity_equals_adjoint(self):
        g = catalog_algebra("sl2")
        assert pullback_rep(hom_preset("id-sl2")).rows == adjoint_rep(g).rows

    def test_pullback_rejects_non_homomorphism(self):
        g = catalog_algebra("aff1")
        swap = Homomorphism(g, g, Matrix.from_rows([[0, 1], [1, 0]]), name="swap")
        with pytest.raises(ValidationError):
            pullback_rep(swap)

    def test_shape_mismatch(self):
        g = catalog_algebra("sl2")
        with pytest.raises(ValueError):
            Homomorphism(g, g, Matrix.from_rows([[1, 0], [0, 1]]))


class TestSubalgebras:
    def test_borel_witness(self):
        w = sub_preset("borel-in-sl2")
        assert w.dim == 2 and w.quotient_dim == 1

    def test_closure_failure(self):
        # span{e, f} in sl2 is not closed: [e,f] = h escapes
        g = catalog_algebra("sl2")
        with pytest.raises(ValidationError) as exc:
            subalgebra_witness(g, [[0, 1, 0], [0, 0, 1]])
        assert exc.value.kind == "closure"

    def test_subalgebra_defect_value(self):
        g = catalog_algebra("sl2")
        sub = _subspace(3, [[0, 1, 0], [0, 0, 1]])
        defect = subalgebra_defect(g, sub)
        assert defect.value((0, 1)) == [Fraction(1)]  # the class of h

    def test_closed_defect_vanishes(self):
        g = catalog_algebra("sl2")
        sub = _subspace(3, [[1, 0, 0], [0, 1, 0]])
        assert subalgebra_defect(g, sub).is_zero()

    def test_dependent_vectors_rejected(self):
        g = catalog_algebra("sl2")
        with pytest.raises(ValidationError) as exc:
            subalgebra_witness(g, [[1, 0, 0], [2, 0, 0]])
        assert exc.value.kind == "independence"

    def test_whole_algebra_and_zero(self):
        g = catalog_algebra("sl2")
        whole = subalgebra_witness(g, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert whole.quotient_dim == 0
        trivial = subalgebra_witness(g, [])
        assert trivial.dim == 0 and trivial.quotient_dim == 3

    def test_as_subalgebra_of_borel_matches_catalog(self):
        w = sub_preset("borel-in-sl2")
        b = w.as_subalgebra()
        assert b.candidate.c == catalog_algebra("borel").candidate.c


    @pytest.mark.parametrize("vectors, refusal", [
        ([[1, 0, 0], [0, 1, 0]], None),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], None),
        ([], None),
        ([[1, 0, 0], [2, 0, 0]],
         ("subalgebra basis vectors are linearly dependent", "independence",
          (), [])),
        ([[0, 1, 0], [0, 0, 1]],
         ("bracket of subspace basis pair (0,1) leaves the subspace",
          "closure", (0, 1), [Fraction(1)]))])
    def test_witness_reduces_its_basis_once(self, vectors, refusal,
                                            monkeypatch):
        forms = []
        init = exactlin.RankForm.__init__
        monkeypatch.setattr(exactlin.RankForm, "__init__",
                            lambda self, *a, **kw: forms.append(1)
                            or init(self, *a, **kw))
        g = catalog_algebra("sl2")
        if refusal is None:
            subalgebra_witness(g, vectors)
        else:
            with pytest.raises(ValidationError) as exc:
                subalgebra_witness(g, vectors)
            err = exc.value
            assert (str(err), err.kind, err.location, err.defect) == refusal
        assert len(forms) == (1 if vectors else 0)  # no basis, no reduction


class TestQuotientRep:
    def test_borel_action_values(self):
        w = sub_preset("borel-in-sl2")
        rep = quotient_rep(w)
        assert rep.carrier_dim == 1
        # h acts on the class of f by -2, e by 0
        assert action(rep, 0).data[0][0] == -2
        assert action(rep, 1).data[0][0] == 0

    def test_center_rep_is_zero(self):
        rep = quotient_rep(sub_preset("center-in-heis3"))
        assert all(action(rep, k).is_zero() for k in range(len(rep.rows)))

    def test_whole_algebra_carrier_zero(self):
        g = catalog_algebra("sl2")
        w = subalgebra_witness(g, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert quotient_rep(w).carrier_dim == 0

    def test_zero_subspace_recovers_adjoint(self):
        g = catalog_algebra("sl2")
        w = subalgebra_witness(g, [])
        rep = quotient_rep(w)
        assert rep.carrier_dim == 3
        assert rep.acting.dim == 0


def test_catalog_contents():
    assert set(catalog_names()) == {"abelian2", "abelian3", "aff1", "borel",
                                    "heis3", "sl2", "so3"}
    assert catalog_algebra("so3").dim == 3
    with pytest.raises(KeyError):
        catalog_algebra("nope")


def test_each_catalog_call_is_validated_and_fresh(monkeypatch):
    validated, validate = [], algebras.validate_bracket
    monkeypatch.setattr(algebras, "validate_bracket", lambda *a, **kw: (
        validated.append(a), validate(*a, **kw))[1])
    first, second = catalog_algebra("sl2"), catalog_algebra("sl2")
    assert first == second and first is not second
    assert len(validated) == 2


@pytest.mark.parametrize("build, name", [(catalog_algebra, "sl2"),
                                         (hom_preset, "id-sl2"),
                                         (sub_preset, "borel-in-sl2")])
def test_a_key_error_inside_a_builder_is_not_an_unknown_name(
        monkeypatch, build, name):
    # a known name is looked up before it is built, so a KeyError raised
    # while building (here by the validation of sl2, which each of these
    # builds) propagates as it is
    def broken(*args, **kwargs):
        raise KeyError("raised while building")

    monkeypatch.setattr(algebras, "validate_bracket", broken)
    with pytest.raises(KeyError) as exc:
        build(name)
    assert exc.value.args == ("raised while building",)


@pytest.mark.parametrize("build, noun, names", [
    (catalog_algebra, "catalog algebra", catalog_names),
    (hom_preset, "homomorphism preset", algebras.hom_preset_names),
    (sub_preset, "subalgebra preset", algebras.sub_preset_names)])
def test_unknown_name_lists_the_available_ones(build, noun, names):
    with pytest.raises(KeyError) as exc:
        build("nope")
    assert exc.value.args == (
        f"unknown {noun} 'nope'; available: {', '.join(names())}",)


class TestSparseActionRows:
    SYSTEMS = {"adjoint": lambda: adjoint_rep(catalog_algebra("sl2")),
               "pullback": lambda: pullback_rep(hom_preset("borel-incl")),
               "quotient": lambda: quotient_rep(borel_in_sl(3))}

    @staticmethod
    def mutants(rep, how):
        """``rep`` with one action entry changed, position by position:
        one inserted where a row had none, one deleted, or one made
        rational."""
        for k, mat in enumerate(rep.rows):
            for a, row in enumerate(mat):
                if how == "insert":
                    rows = [{**row, b: 1} for b in range(rep.carrier_dim)
                            if b not in row]
                elif how == "delete":
                    rows = [{c: x for c, x in row.items() if c != b}
                            for b in row]
                else:
                    rows = [{**row, b: x + Fraction(1, 2)} for b, x in row.items()]
                for new in rows:
                    changed = list(rep.rows)
                    changed[k] = mat[:a] + [dict(sorted(new.items()))] + mat[a + 1:]
                    yield RepSpec(rep.variant, rep.acting, rep.carrier_dim,
                                  tuple(changed), rep.label)

    @pytest.mark.parametrize("how", ["insert", "delete", "rational"])
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_one_changed_sparse_entry_is_refused(self, system, how):
        # every change that breaks the identity on dense matrices, at every
        # pair and carrier row, is refused naming the same pair
        rep = self.SYSTEMS[system]()
        assert dense_identity_failure(rep) is None
        bad = [(m, dense_identity_failure(m)) for m in self.mutants(rep, how)]
        bad = [(m, pair) for m, pair in bad if pair is not None]
        assert bad
        for m, pair in bad:
            with pytest.raises(RepresentationError, match=(
                    r"^representation identity fails on pair \(%d,%d\)$" % pair)):
                m.check_identity()
        with pytest.raises(CohomologyUndefinedError):
            cohomology(bad[0][0])
        with pytest.raises(CohomologyUndefinedError):
            cohomology(bad[-1][0])

    def test_dense_matrices_are_read_into_rows(self):
        rep = pullback_rep(hom_preset("borel-incl"))
        q = rep.carrier_dim
        dense = [action(rep, k).data for k in range(len(rep.rows))]
        again = RepSpec(rep.variant, rep.acting, q,
                        tuple(Matrix(q, q, m).row_maps for m in dense),
                        rep.label)
        assert again == rep and again.rows == rep.rows
        assert all(type(x) is int for mat in again.rows for row in mat
                   for x in row.values())

    def test_builders_make_no_dense_matrix(self, monkeypatch):
        # the systems are built from the nonzero structure constants: no
        # dense Matrix on the way
        families = bench_families()
        builds = [(algebras.adjoint_rep, families.filiform(7)),
                  (algebras.pullback_rep, families.borel2_to_borel3()),
                  (algebras.quotient_rep, families.borel3_in_sl3())]
        made, init = [], Matrix.__init__
        monkeypatch.setattr(Matrix, "__init__", lambda self, *args, **kwargs: (
            made.append(args), init(self, *args, **kwargs))[1])
        reps = [build(obj) for build, obj in builds]
        assert made == []
        assert [rep.carrier_dim for rep in reps] == [7, 5, 3]

    def test_cohomology_reads_no_dense_data(self, monkeypatch):
        # building the system and reducing it read only the row maps
        families = bench_families()
        builds = [(adjoint_rep, families.filiform(7)),
                  (pullback_rep, families.heis3_to_heis5()),
                  (quotient_rep, families.borel3_in_sl3())]
        reads, data = [], Matrix.data
        monkeypatch.setattr(Matrix, "data", property(lambda self: (
            reads.append(self), data.fget(self))[1]))
        dims = [cohomology(build(obj)).dims_h() for build, obj in builds]
        assert reads == []
        assert dims == [[1, 7, 17, 25, 23, 14, 7, 2], [3, 8, 9, 4], [0] * 6]
