"""The exact report kernels on their nonzeros: the differential build against
the independent oracle, the d o d check and the composed-zero test of the
long exact sequence against the product they no longer build, ``apply_d``
against the dense product, and the coefficient-system builders without dense
vectors."""

import random
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liedeform import cecomplex
from liedeform.algebras import (BracketCandidate, RepSpec,
                                RepresentationError, adjoint_rows,
                                adjoint_rep, catalog_algebra, catalog_names,
                                hom_preset, hom_preset_names, pullback_rep,
                                quotient_rep, sub_preset, sub_preset_names,
                                validate_bracket)
from liedeform.cecomplex import (CEComplex, CohomologyUndefinedError,
                                 _exact_at, adjoint_cohomology, cohomology,
                                 differential_matrix)
from liedeform.cli import run
from liedeform.cochains import AltMap, cochain_dim
from liedeform.exactlin import Matrix, QuotientCoords, RankForm, _exact
from liedeform.kuranishi import curvature_expansion_check
from elimination_oracle import differential_entries
from helpers import (act_on_bracket_exact, bench_families, dense,
                     dense_apply, filiform_algebra, gl_algebra,
                     nonzeros, rescaled_algebra)
import test_cecomplex

values = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-3, 3),
                   st.fractions(min_value=-3, max_value=3, max_denominator=4))


def _rep(n, m, pair_vectors, action):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    cand = BracketCandidate.from_entries(n, dict(zip(pairs, pair_vectors)))
    rows = tuple([{a: _exact(Fraction(x)) for a, x in enumerate(row) if x}
                  for row in r] for r in action)
    return RepSpec("test", cand, m, rows)


@st.composite
def rep_specs(draw):
    """Coefficient systems with n <= 4 and m <= 3 whose int and Fraction
    structure constants and action rows need not satisfy Jacobi or the
    representation identity; returned with the dense action[i][b][a]."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    vec = st.lists(values, min_size=n, max_size=n)
    pair_vectors = draw(st.lists(vec, min_size=n * (n - 1) // 2,
                                 max_size=n * (n - 1) // 2))
    row = st.lists(values, min_size=m, max_size=m)
    action = draw(st.lists(st.lists(row, min_size=m, max_size=m),
                           min_size=n, max_size=n))
    return _rep(n, m, pair_vectors, action), action


def assert_matches_oracle(rep, action):
    n, m = rep.acting.dim, rep.carrier_dim
    for k in range(n + 1):
        d = differential_matrix(k, rep)
        expect = differential_entries(k, n, m, rep.acting.c, action)
        assert (d.rows, d.cols) == (len(expect), cochain_dim(n, k, m))
        assert d.data == expect
        for row in d.row_maps:
            for x in row.values():
                assert x != 0
                assert type(x) is int or x.denominator != 1


@settings(max_examples=80, deadline=None)
@given(rep_specs())
def test_differential_matches_the_oracle(drawn):
    assert_matches_oracle(*drawn)


def test_fractions_summing_to_an_integer_are_stored_as_an_int():
    # d_1 at (e0 ^ e1, e1): r(e0) = 3/2 less the bracket [e0, e1] = 1/2 e1
    rep = _rep(2, 1, [[0, Fraction(1, 2)]], [[[Fraction(3, 2)]], [[0]]])
    assert_matches_oracle(rep, [[[Fraction(3, 2)]], [[0]]])
    assert differential_matrix(1, rep).row_maps == [{1: 1}]
    assert type(differential_matrix(1, rep).row_maps[0][1]) is int


def test_entries_that_cancel_are_not_stored():
    # the same entry with r(e0) = 1/2 cancels exactly; so do ints
    for a, c in ((Fraction(1, 2), Fraction(1, 2)), (2, 2)):
        rep = _rep(2, 1, [[0, c]], [[[a]], [[1]]])
        assert_matches_oracle(rep, [[[a]], [[1]]])
        assert differential_matrix(1, rep).row_maps == [{0: -1}]


def _action(rep):
    return [Matrix.of_rows(rep.carrier_dim, rep.carrier_dim, r).data
            for r in rep.rows]


def _catalog_reps():
    return ([adjoint_rep(catalog_algebra(n)) for n in catalog_names()]
            + [pullback_rep(hom_preset(n)) for n in hom_preset_names()]
            + [quotient_rep(sub_preset(n)) for n in sub_preset_names()])


def test_catalog_differentials_match_the_oracle():
    for rep in _catalog_reps():
        assert_matches_oracle(rep, _action(rep))


def _family_reps():
    """The benchmark's generated systems of acting dimension at most 7, in
    a signed basis: every algebra's adjoint system, and the pullback and
    quotient systems of its homomorphisms and subalgebras."""
    fam = bench_families()
    signs = fam.Signs(11)
    algebras = ([fam.abelian(n, signs) for n in (5, 6)]
                + [fam.heisenberg(m, signs) for m in (1, 2, 3)]
                + [fam.filiform(n, signs) for n in (5, 6, 7)]
                + [fam.gl(2, signs), fam.borel(2, signs), fam.borel(3, signs),
                   fam.sl(2, signs)])
    homs = [fam.heis3_to_heis5(signs), fam.borel2_to_borel3(signs),
            fam.sl2_to_gl2(signs)]
    subs = [fam.centre_of_heis(m, signs) for m in (1, 2, 3)] + [
        fam.nilradical_of_borel3(signs), fam.borel3_in_sl3(signs)]
    return ([adjoint_rep(g) for g in algebras]
            + [pullback_rep(h) for h in homs] + [quotient_rep(w) for w in subs])


@pytest.mark.parametrize("rep", _family_reps(), ids=lambda rep: rep.label)
def test_family_differentials_match_the_oracle(rep):
    # every subset mask bit up to 6 is reached, past the drawn n <= 4
    assert_matches_oracle(rep, _action(rep))


def test_rational_differentials_match_the_oracle():
    # a rescaled algebra, with Fraction structure constants, and random
    # rational systems of acting dimension 5 and 6 that need satisfy no
    # identity
    reps = [adjoint_rep(rescaled_algebra(filiform_algebra(6),
                                         [1, Fraction(1, 2), -3, Fraction(2, 3),
                                          5, Fraction(-1, 4)]))]
    rng = random.Random(2718)
    pick = [0, 0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4)]
    for n, m in ((5, 1), (5, 2), (6, 2)):
        pair_vectors = [[rng.choice(pick) for _ in range(n)]
                        for _ in range(n * (n - 1) // 2)]
        action = [[[rng.choice(pick) for _ in range(m)] for _ in range(m)]
                  for _ in range(n)]
        reps.append(_rep(n, m, pair_vectors, action))
    for rep in reps:
        assert not rep.all_ints
        assert_matches_oracle(rep, _action(rep))


class Walked(tuple):
    """A tuple that counts the walks over its items."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def test_a_system_is_read_once_not_once_per_degree():
    # the cohomology of L_7 builds d_0 .. d_7 of one system: its action
    # cells are gathered, and its structure constants and action entries
    # tested for ints, once
    g = filiform_algebra(7)
    terms, rows = Walked(g.candidate.terms), Walked(adjoint_rep(g).rows)
    rep = RepSpec("adjoint", BracketCandidate(7, terms), 7, rows)
    report = cohomology(rep)
    assert len(report.degrees) == 8 and all(
        report.complex.d(k) == differential_matrix(k, adjoint_rep(g))
        for k in range(8))
    assert report.dims_h() == adjoint_cohomology(g).dims_h()
    assert (terms.walks, rows.walks) == (1, 1)


# ---------------------------------------------------------------------------
# whether a product is zero, without the product

sparse = st.one_of(st.just(0), st.just(0), st.integers(-3, 3),
                   st.fractions(min_value=-3, max_value=3, max_denominator=5))


def _matrix(rows, cols):
    return st.lists(st.lists(sparse, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(
        lambda data: Matrix(rows, cols, data))


@st.composite
def products(draw):
    """(A, B) with A B defined: B random, or the null vectors of A (so that
    A B = 0), perhaps with one column changed."""
    r, s = draw(st.integers(0, 4)), draw(st.integers(1, 4))
    a = draw(_matrix(r, s))
    if draw(st.booleans()):
        return a, draw(_matrix(s, draw(st.integers(0, 4))))
    form = RankForm(a.row_maps, keep=True)
    null = list(map(form.null_vector, form.free(range(s))))
    if null and draw(st.booleans()):
        null[-1] = {**null[-1], draw(st.integers(0, s - 1)): 1}
    rows = [{t: v[i] for t, v in enumerate(null) if v.get(i)}
            for i in range(s)]
    return a, Matrix.of_rows(s, len(null), [
        {t: _exact(Fraction(x)) for t, x in row.items()} for row in rows])


@settings(max_examples=150, deadline=None)
@given(products())
def test_mul_is_zero_agrees_with_the_product(ab):
    a, b = ab
    assert a.mul_is_zero(b) == a.mul(b).is_zero()


def test_mul_is_zero_reads_the_last_row():
    a = Matrix.from_rows([[1, -1], [2, -2], [0, 1]])
    b = Matrix.from_rows([[1, 0], [1, 0]])
    assert a.mul(b).row_maps == [{}, {}, {0: 1}]
    assert not a.mul_is_zero(b)
    assert Matrix.from_rows([[1, -1], [2, -2]]).mul_is_zero(b)


def test_mul_is_zero_sees_exact_cancellation():
    a = Matrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [3, 2]])
    b = Matrix.from_rows([[Fraction(2, 3)], [-1]])
    assert a.mul(b).row_maps == [{}, {}]
    assert a.mul_is_zero(b)


def test_mul_is_zero_checks_shapes():
    with pytest.raises(ValueError, match="shape mismatch"):
        Matrix.zeros(2, 3).mul_is_zero(Matrix.zeros(2, 3))


def test_the_dd_check_and_the_les_build_no_product():
    def refuse(*_):
        raise AssertionError("Matrix.mul called")

    reps = _catalog_reps()
    with mock.patch.object(Matrix, "mul", refuse):
        for rep in reps:
            assert CEComplex(rep).d_squared_defect() is None
        assert _exact_at("n", 0, Matrix.from_rows([[1], [-1]]),
                         Matrix.from_rows([[1, 1]])).exact


@settings(max_examples=60, deadline=None)
@given(rep_specs())
def test_dd_defect_names_the_first_nonzero_composite(drawn):
    cx = CEComplex(drawn[0])
    first = next((k for k in range(cx.n)
                  if not cx.d(k + 1).mul(cx.d(k)).is_zero()), None)
    assert cx.d_squared_defect() == first


# the systems of the catalog and the presets, each a representation
VALID_SYSTEMS = ([adjoint_rep(catalog_algebra(n)) for n in catalog_names()]
                 + [pullback_rep(hom_preset(n)) for n in hom_preset_names()]
                 + [quotient_rep(sub_preset(n)) for n in sub_preset_names()])


def identity_refusal(rep):
    """The message ``check_identity`` refuses ``rep`` with, or None."""
    try:
        rep.check_identity()
    except RepresentationError as exc:
        return str(exc)
    return None


@settings(max_examples=80, deadline=None)
@given(st.one_of(rep_specs().map(lambda drawn: drawn[0]),
                 st.sampled_from(VALID_SYSTEMS)))
def test_identity_check_names_the_first_nonzero_row_of_d1_d0(rep):
    # (d_1 d_0 v)(u_i, u_j) is minus the identity's defect on (u_i, u_j)
    # applied to v, and d_1's rows run pair by pair, so the product's first
    # nonzero row lies in the block of the first failing pair
    dd = differential_matrix(1, rep).mul(differential_matrix(0, rep))
    first = next((t for t, row in enumerate(dd.row_maps) if row), None)
    want = None
    if first is not None:
        i, j = list(combinations(range(rep.acting.dim), 2))[first // rep.carrier_dim]
        want = f"representation identity fails on pair ({i},{j})"
    assert identity_refusal(rep) == want


def test_refusal_names_the_first_bad_degree():
    bad = test_cecomplex.TestRefusal().bad_rep()
    # the same bracket on the trivial module: d_1 d_0 = 0, d_2 d_1 != 0
    trivial = RepSpec("trivial", bad.acting, 1, ([{}], [{}], [{}]))
    for rep, k in ((bad, 0), (trivial, 1)):
        with pytest.raises(CohomologyUndefinedError) as exc:
            cohomology(rep)
        assert str(exc.value) == (f"d o d is nonzero at degree {k}; "
                                  "cohomology undefined")


# ---------------------------------------------------------------------------
# d o d in every degree, by the product the report no longer builds: the
# report checks degrees 0 and 1 only, where a failed identity first shows

def first_nonzero_composite(rep):
    """The first k with d_(k+1) d_k != 0 as a built product, or None."""
    ds = [differential_matrix(k, rep) for k in range(rep.acting.dim + 1)]
    return next((k for k in range(rep.acting.dim)
                 if not ds[k + 1].mul(ds[k]).is_zero()), None)


def _rational_basis(g, rng):
    """g in a seeded random rational basis: L U, L unit lower triangular and
    U upper triangular with a nonzero diagonal, so invertible."""
    n, pick = g.dim, [0, 0, 1, -2, Fraction(1, 2), Fraction(-2, 3)]
    low = [[1 if i == j else rng.choice(pick) if j < i else 0
            for j in range(n)] for i in range(n)]
    up = [[rng.choice([1, -1, Fraction(3, 2)]) if i == j else
           rng.choice(pick) if j > i else 0 for j in range(n)]
          for i in range(n)]
    a = Matrix.from_rows(low).mul(Matrix.from_rows(up))
    return validate_bracket(act_on_bracket_exact(a, g.candidate),
                            name=f"{g.name}-rational")


def _lie_systems():
    """Systems that satisfy both identities: the catalog, the presets, the
    signed benchmark families, random rational bases, and gl_3 and L_9,
    whose n = 9 reaches subset mask bit 8."""
    rng = random.Random(36)
    rational = [_rational_basis(g, rng) for g in (
        catalog_algebra("sl2"), catalog_algebra("heis3"), filiform_algebra(5),
        bench_families().borel(3))]
    return (_catalog_reps() + _family_reps()
            + [adjoint_rep(g) for g in rational]
            + [adjoint_rep(rescaled_algebra(filiform_algebra(6), [
                1, Fraction(1, 2), -3, Fraction(2, 3), 5, Fraction(-1, 4)]))]
            + [adjoint_rep(gl_algebra(3)), adjoint_rep(filiform_algebra(9))])


@pytest.mark.parametrize("rep", _lie_systems(), ids=lambda rep: rep.label)
def test_every_composite_of_a_lie_system_is_zero(rep):
    assert first_nonzero_composite(rep) is None


def _random_bracket(n, vector):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return BracketCandidate.from_entries(
        n, {p: vector() for p in pairs})


@st.composite
def unchecked_systems(draw):
    """A bracket that need not satisfy Jacobi, acting on itself by its
    adjoint rows, or by zero on a carrier of dimension m (the trivial module
    when m = 1), or a drawn system of ``rep_specs``: the first two reach
    degree 1 whenever Jacobi fails, the third mostly fails at degree 0."""
    kind = draw(st.sampled_from(["adjoint", "zero", "zero", "drawn"]))
    if kind == "drawn":
        return draw(rep_specs())[0]
    n = draw(st.integers(1, 5))
    cand = _random_bracket(n, lambda: draw(st.lists(values, min_size=n,
                                                    max_size=n)))
    if kind == "adjoint":
        return RepSpec("adjoint", cand, n, adjoint_rows(cand))
    m = draw(st.integers(1, 3))
    return RepSpec("zero", cand, m, tuple([{} for _ in range(m)]
                                          for _ in range(n)))


@settings(max_examples=150, deadline=None)
@given(unchecked_systems())
def test_d_o_d_first_fails_in_degree_0_or_1(rep):
    first = first_nonzero_composite(rep)
    assert first in (0, 1, None)
    assert CEComplex(rep).d_squared_defect() == first


def test_unchecked_systems_reach_every_outcome():
    # seeded draws of the kinds above: a zero action fails first at degree 1
    # exactly when Jacobi fails, an adjoint one at degree 0
    rng, seen = random.Random(7), set()
    pick = [0, 0, 0, 1, -1, 2, Fraction(1, 2)]
    for t in range(60):
        n = 2 + t % 4
        cand = _random_bracket(n, lambda: [rng.choice(pick)
                                           for _ in range(n)])
        for rep in (RepSpec("adjoint", cand, n, adjoint_rows(cand)),
                    RepSpec("trivial", cand, 1, ([{}],) * n)):
            first = first_nonzero_composite(rep)
            assert first in (0, 1, None)
            assert CEComplex(rep).d_squared_defect() == first
            seen.add(first)
    assert seen == {0, 1, None}


# ---------------------------------------------------------------------------
# rank forms of int systems: told, not scanned

def _int_reps():
    reps = [rep for rep in _catalog_reps() + _family_reps() if rep.all_ints]
    assert len(reps) > 20
    return reps


def _fraction_reps():
    """The systems above with a Fraction entry, identities or not."""
    rng = random.Random(2718)
    pick = [0, 0, 1, -1, Fraction(1, 2), Fraction(-3, 4)]
    reps = [_rep(2, 1, [[0, Fraction(1, 2)]], [[[Fraction(3, 2)]], [[0]]]),
            _rep(2, 1, [[0, Fraction(1, 2)]], [[[Fraction(1, 2)]], [[1]]]),
            adjoint_rep(rescaled_algebra(filiform_algebra(6), [
                1, Fraction(1, 2), -3, Fraction(2, 3), 5, Fraction(-1, 4)]))]
    for n, m in ((4, 1), (5, 2)):
        reps.append(_rep(n, m, [[rng.choice(pick) for _ in range(n)]
                                for _ in range(n * (n - 1) // 2)],
                         [[[rng.choice(pick) for _ in range(m)]
                           for _ in range(m)] for _ in range(n)]))
    assert not any(rep.all_ints for rep in reps)
    return reps


def test_the_int_flag_changes_no_form():
    for rep in _int_reps():
        cx = CEComplex(rep)
        for k in range(cx.n + 1):
            rows, which = cx.d(k).row_maps, cx.block(k + 1)[0]
            plain, told = (RankForm(rows, which, keep=True, ints=ints)
                           for ints in (False, True))
            assert (told.kept, told.rows) == (plain.kept, plain.rows)
            assert told.pivots == plain.pivots
            assert told.rows == cx.rank_form(k).rows


def test_the_int_flag_is_passed_only_for_int_rows(monkeypatch):
    told = []  # (where, whether every entry handed in is an int)

    class Spied(RankForm):
        def __init__(self, rows, which=None, keep=False, ints=False):
            if ints:
                told.append(("rows", all(type(x) is int for row in rows
                                         for x in row.values())))
            super().__init__(rows, which, keep, ints)

        def reduce(self, v, ints=False):
            if ints:
                told.append(("reduce", all(type(x) is int
                                           for x in v.values())))
            return super().reduce(v, ints)

    monkeypatch.setattr(cecomplex, "RankForm", Spied)
    for rep in _fraction_reps():
        cx = CEComplex(rep)
        for k in range(cx.n + 1):
            cx.rank_form(k)
            cx.basis_form(k)
            if k:
                cx.class_form(k).reduce({0: Fraction(1, 2)})
    assert told == []
    for rep in _int_reps():
        report = cohomology(rep)
        for d in report.degrees:
            for j, z in enumerate(d.h_representatives):
                assert d.class_coords(z) == [int(i == j)
                                             for i in range(d.dim_h)]
    assert {where for where, _ in told} == {"rows", "reduce"}
    assert all(ints for _, ints in told)


def test_class_coords_of_a_fraction_cocycle():
    # an int system's representative at half scale, plus a Fraction
    # coboundary: the class form scans the cocycle and reads 1/2
    for rep in _int_reps():
        report = cohomology(rep)
        cx = report.complex
        for d in report.degrees:
            b = cx.apply_d(AltMap.of(d.k - 1, cx.n, cx.carrier_dim,
                                     {0: Fraction(1, 3)})).nonzeros if (
                d.k and cx.dim_cochains(d.k - 1)) else {}
            for j, z in enumerate(d.h_representatives):
                half = {i: Fraction(z.get(i, 0)) / 2 + b.get(i, 0)
                        for i in {*z, *b}}
                half = {i: x for i, x in half.items() if x}
                assert d.class_coords(half) == [
                    Fraction(1, 2) if i == j else 0 for i in range(d.dim_h)]


# ---------------------------------------------------------------------------
# a report keeps d_0, d_1 and d_2 only, and a basis read builds only the rows
# its rank form kept

def test_a_basis_read_builds_only_its_kept_rows(monkeypatch):
    fam, partial, cached = bench_families(), 0, 0
    for g in (fam.filiform(7), fam.heisenberg(3), fam.borel(3)):
        report = cohomology(adjoint_rep(g))
        cx = report.complex
        assert sorted(cx._d) == [0, 1, 2]
        builds = []

        def spied(k, rep, rows=None):
            builds.append((k, rows))
            return differential_matrix(k, rep, rows)

        monkeypatch.setattr(cecomplex, "differential_matrix", spied)
        reps = [d.h_representatives for d in report.degrees]
        monkeypatch.undo()
        # each degree with a representative and no cached d_k builds the
        # rows its rank form kept, ascending, and holds none of them; one
        # with a cached d_k reads that d_k's rows and builds none
        assert builds == [(k, cx.rank_form(k).rows[::-1])
                          for k in range(cx.n + 1) if reps[k] and k not in cx._d]
        assert sorted(cx._d) == [0, 1, 2]
        # the representatives of a basis form built from all of d_k
        for k, got in enumerate(reps):
            form = RankForm(differential_matrix(k, cx.rep).row_maps,
                            cx.rank_form(k).rows[::-1], keep=True)
            d = report.degree(k)
            assert got == tuple(form.null_vector(f) for f in d.free
                                if f not in d.classes)
        assert sum(map(len, reps)) == sum(report.dims_h())
        partial += len(builds)
        cached += sum(bool(reps[k]) for k in cx._d)
    assert partial and cached


@pytest.mark.parametrize("rep", _lie_systems(), ids=lambda rep: rep.label)
def test_forms_of_the_rows_built_equal_forms_of_the_whole_differential(rep):
    # every form reads only the rows it builds, and matches the form of the
    # same rows or columns taken from all of d_k, as do the representatives
    # and their class coordinates
    cx, whole = CEComplex(rep), [differential_matrix(k, rep)
                                 for k in range(rep.acting.dim + 1)]
    for k, d in enumerate(whole):
        form = RankForm(d.row_maps, cx.block(k + 1)[0], ints=rep.all_ints)
        assert (cx.rank_form(k).rows, cx.rank_form(k).kept) == (
            form.rows, form.kept)
        basis = RankForm(d.row_maps, form.rows[::-1], keep=True)
        built = cx.basis_form(k)
        assert (built.kept, built.pivots) == (basis.kept, basis.pivots)
        degree = cx.degree(k)
        reps = degree.h_representatives
        assert reps == tuple(basis.null_vector(f) for f in degree.free
                             if f not in degree.classes)
        if k:
            cols = whole[k - 1].columns()
            classes = RankForm([{~i: x for i, x in cols[j].items()}
                                for j in reversed(cx.block(k - 1)[0])],
                               keep=True)
            assert (cx.class_form(k).rows, cx.class_form(k).pivots) == (
                classes.rows, classes.pivots)
        assert [degree.class_coords(z) for z in reps] == [
            [int(i == j) for i in range(len(reps))] for j in range(len(reps))]


@settings(max_examples=100, deadline=None)
@given(st.one_of(rep_specs().map(lambda drawn: drawn[0]), unchecked_systems()),
       st.data())
def test_a_build_over_a_row_list_builds_those_rows_only(rep, data):
    # on systems that need satisfy no identity: each listed row is the whole
    # build's row, cell for cell in the same order, and every other row is
    # the one shared empty row, never written
    for k in range(rep.acting.dim + 1):
        whole = differential_matrix(k, rep)
        listed = sorted(data.draw(st.sets(st.integers(0, whole.rows - 1)))
                        if whole.rows else ())
        part = differential_matrix(k, rep, listed)
        assert (part.rows, part.cols) == (whole.rows, whole.cols)
        for i, (row, want) in enumerate(zip(part.row_maps, whole.row_maps)):
            if i in listed:
                assert list(row.items()) == list(want.items())
                assert type(row) is dict
            else:
                assert row is cecomplex._NO_ROW
    assert dict(cecomplex._NO_ROW) == {}


def test_composed_zero_of_the_les():
    twice = Matrix.from_rows([[1], [1]])
    assert not _exact_at("n", 0, twice, Matrix.from_rows([[1, 0]])).exact
    assert _exact_at("n", 0, twice, Matrix.from_rows([[1, -1]])).exact


LES = {
    "borel-in-sl2": """\
long exact sequence through degree 2 for 'borel-in-sl2':
  H^0(h,h): dimH=0 rank_in=0 rank_out=0 exact
  H^0(h,g): dimH=0 rank_in=0 rank_out=0 exact
  H^0(h,g/h): dimH=0 rank_in=0 rank_out=0 exact
  H^1(h,h): dimH=0 rank_in=0 rank_out=0 exact
  H^1(h,g): dimH=0 rank_in=0 rank_out=0 exact
  H^1(h,g/h): dimH=0 rank_in=0 rank_out=0 exact
  H^2(h,h): dimH=0 rank_in=0 rank_out=0 exact
  H^2(h,g): dimH=0 rank_in=0 rank_out=0 exact
  H^2(h,g/h): dimH=0 rank_in=0 rank_out=0 exact
all interior nodes exact
""",
    "center-in-heis3": """\
long exact sequence through degree 2 for 'center-in-heis3':
  H^0(h,h): dimH=1 rank_in=0 rank_out=1 exact
  H^0(h,g): dimH=3 rank_in=1 rank_out=2 exact
  H^0(h,g/h): dimH=2 rank_in=2 rank_out=0 exact
  H^1(h,h): dimH=1 rank_in=0 rank_out=1 exact
  H^1(h,g): dimH=3 rank_in=1 rank_out=2 exact
  H^1(h,g/h): dimH=2 rank_in=2 rank_out=0 exact
all interior nodes exact
""",
}


@pytest.mark.parametrize("sub", sorted(LES))
def test_les_output_of_the_presets(sub, capsys):
    assert run(["les", "--sub", sub]) == 0
    assert capsys.readouterr().out == LES[sub]


# ---------------------------------------------------------------------------
# apply_d over the columns its cochain touches

def test_apply_d_matches_the_dense_product():
    for rep in _catalog_reps():
        cx = CEComplex(rep)
        for k in range(cx.n + 1):
            dim = cx.dim_cochains(k)
            for start in range(0, dim, 3):
                vec = {j: (-1) ** j * Fraction(j + 1, 2)
                       for j in range(start, min(dim, start + 4))}
                out = cx.apply_d(AltMap.of(k, cx.n, cx.carrier_dim, vec))
                expect = nonzeros(dense_apply(cx.d(k), dense(vec, dim)))
                assert out.nonzeros == expect
                assert list(out.nonzeros) == sorted(expect)
                assert all(type(x) is int or x.denominator != 1
                           for x in out.nonzeros.values())


def test_apply_d_keeps_one_column_view_per_degree():
    # every read of d_1's columns by apply_d gets the one view built on the
    # first; the class form of degree 2 reads d_1's zero weight rows, not
    # its column view
    cx = CEComplex(adjoint_rep(catalog_algebra("sl2")))
    d, columns, views = cx.d(1), Matrix.columns, []

    def spy(m):
        views.append(columns(m))
        return views[-1]

    with mock.patch.object(Matrix, "columns", spy):
        for j in range(9):
            cx.apply_d(AltMap.of(1, 3, 3, {j: 1}))
        cx.class_form(2)
    assert len(views) == 9 and all(v is views[0] for v in views)
    assert d.columns() is d.columns() is views[0]


# ---------------------------------------------------------------------------
# coefficient systems from nonzeros

def test_coefficient_systems_read_no_dense_vector():
    def refuse(*_):
        raise AssertionError("dense read")

    expect = [pullback_rep(hom_preset(n)).rows for n in hom_preset_names()]
    expect += [quotient_rep(sub_preset(n)).rows for n in sub_preset_names()]
    homs = [hom_preset(n) for n in hom_preset_names()]
    subs = [sub_preset(n) for n in sub_preset_names()]
    with mock.patch.object(Matrix, "data", property(refuse)), \
            mock.patch.object(QuotientCoords, "sub_basis",
                              property(refuse)):
        got = [pullback_rep(h).rows for h in homs]
        got += [quotient_rep(w).rows for w in subs]
        for h in homs:
            assert curvature_expansion_check(h, h.matrix).ok
    assert got == expect


def test_quotient_coords_keep_the_echelon_basis_nonzeros():
    w = sub_preset("borel-in-sl2")
    assert w.coords.sub_rows == (((0, 1),), ((1, 1),))
    assert w.coords.sub_basis == ((1, 0, 0), (0, 1, 0))
    assert w.coords.sub_basis is w.coords.sub_basis  # built once, kept
    assert all(type(x) is Fraction for v in w.coords.sub_basis for x in v)
    assert [w.basis_vector(t) for t in range(2)] == [[1, 0, 0], [0, 1, 0]]
