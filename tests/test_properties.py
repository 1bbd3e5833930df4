"""Property-based invariants over randomized exact inputs."""

import random
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liedeform.algebras import (BracketCandidate, Homomorphism, Matrix,
                                ValidationError, abelian, ad_rows,
                                adjoint_rows, catalog_algebra, catalog_names,
                                hom_preset, hom_preset_names, pullback_rep,
                                quotient_rep, sub_preset, sub_preset_names,
                                subalgebra_witness, validate_bracket)
from liedeform.cecomplex import (CEComplex, Problem, adjoint_rep, cohomology,
                                 pullback_cochain_map)
from liedeform.cli import _first_quotient_cocycle
from liedeform.cochains import AltMap, cochain_dim
from liedeform.deformlab import float_matrix
from elimination_oracle import bareiss_rank
import helpers as dense
from helpers import (_det as laplace_det, act_on_bracket_exact, borel_in_sl,
                     dense_report_tuples, image_basis, kernel_basis,
                     mask_insert, rref, sl_in_gl, solve_particular)
from liedeform.exactlin import RankForm, _dense, invert, rank
from liedeform import exactlin, kuranishi
from liedeform.kuranishi import (curvature_expansion_check, jacobiator,
                                 jacobiator_expansion_check)

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=7)


def matrix_strategy(max_side=4):
    return st.integers(1, max_side).flatmap(
        lambda r: st.integers(1, max_side).flatmap(
            lambda c: st.lists(
                st.lists(rationals, min_size=c, max_size=c),
                min_size=r, max_size=r).map(Matrix.from_rows)))


@settings(max_examples=60, deadline=None)
@given(matrix_strategy())
def test_rank_nullity(m):
    assert rank(m) + kernel_basis(m).dim == m.cols


@settings(max_examples=60, deadline=None)
@given(matrix_strategy())
def test_kernel_vectors_annihilated(m):
    for vec in kernel_basis(m).basis:
        assert m.apply(dense.nonzeros(vec)) == {}
        assert all(x == 0 for x in dense.dense_apply(m, vec))


@settings(max_examples=60, deadline=None)
@given(matrix_strategy())
def test_image_vectors_solvable(m):
    for vec in image_basis(m).basis:
        sol = solve_particular(m, list(vec))
        assert sol is not None
        assert dense.dense_apply(m, sol) == list(vec)


sparse_entries = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), rationals)


def sparse_matrix_strategy(max_side=6):
    return st.integers(1, max_side).flatmap(
        lambda r: st.integers(1, max_side).flatmap(
            lambda c: st.lists(
                st.lists(sparse_entries, min_size=c, max_size=c),
                min_size=r, max_size=r).map(Matrix.from_rows)))


int_entries = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-6, 6))


def mixed_sparse_matrix_strategy(max_side=7):
    # sparse matrices of ints, whose rows at no kept pivot the rank form
    # takes as they are, or of rationals, which it scales
    return st.tuples(st.sampled_from([int_entries, sparse_entries]),
                     st.integers(1, max_side), st.integers(1, max_side)
                     ).flatmap(lambda e_r_c: st.lists(
                         st.lists(e_r_c[0], min_size=e_r_c[2],
                                  max_size=e_r_c[2]),
                         min_size=e_r_c[1], max_size=e_r_c[1]
                     ).map(Matrix.from_rows))


@settings(max_examples=100, deadline=None)
@given(mixed_sparse_matrix_strategy())
def test_rank_form_matches_dense_elimination(m):
    # rows are taken last first, and row i is kept exactly when it is not
    # in the span of the rows after it; the rows it keeps as they are stay
    # unwritten
    before = [[(j, type(x), x) for j, x in row.items()] for row in m.row_maps]
    form = RankForm(m.row_maps, keep=True)
    data = m.data
    ranks = [bareiss_rank(data[i:]) for i in range(m.rows + 1)]
    assert form.rows == [i for i in reversed(range(m.rows))
                         if ranks[i] > ranks[i + 1]]
    _, pivots = rref(m)
    assert form.kept == pivots
    assert len(form.kept) == ranks[0]
    kernel = [tuple(_dense(form.null_vector(f), m.cols))
              for f in form.free(range(m.cols))]
    assert kernel == list(kernel_basis(m).basis)
    assert [[(j, type(x), x) for j, x in row.items()]
            for row in m.row_maps] == before


@settings(max_examples=80, deadline=None)
@given(sparse_matrix_strategy(), st.data())
def test_rank_form_rows_and_remainders_are_integers(m, data):
    # rational rows are scaled to integers, so no kept row, scale or
    # remainder ever holds a Fraction; the remainder over its scale is the
    # vector less a combination of the rows, zero at every pivot
    form = RankForm(m.row_maps, keep=True)
    for row in form.pivots.values():
        assert all(type(x) is int for x in row.values())
    v = data.draw(st.lists(sparse_entries, min_size=m.cols, max_size=m.cols))
    s, rem = form.reduce(dense.nonzeros(v))
    assert type(s) is int and s > 0
    assert all(type(x) is int and x for x in rem.values())
    assert not set(rem) & set(form.kept)
    diff = [x - Fraction(rem.get(j, 0), s) for j, x in enumerate(v)]
    transpose = Matrix.from_columns(m.data, rows=m.cols)
    assert dense.solve_particular(transpose, diff) is not None


@settings(max_examples=80, deadline=None)
@given(sparse_matrix_strategy(), st.data())
def test_solve_matches_solve_particular(m, data):
    x = data.draw(st.lists(sparse_entries, min_size=m.cols, max_size=m.cols))
    b_any = data.draw(st.lists(sparse_entries, min_size=m.rows, max_size=m.rows))
    for b in (dense.dense_apply(m, x), b_any):
        got, want = exactlin.solve(m, dense.nonzeros(b)), dense.solve_particular(m, b)
        assert (got is None) == (want is None)
        if got is not None:
            assert dense.dense(got, m.cols) == want == exactlin.solve_particular(m, b)
            assert all(x and (type(x) is int or x.denominator != 1)
                       for x in got.values())


@settings(max_examples=80, deadline=None)
@given(sparse_matrix_strategy())
def test_representatives_are_the_unit_vectors_off_the_pivots(m):
    # rows of m: coboundaries in the coordinates of a cocycle at the free
    # columns, where the cocycle basis is the standard one; the dense
    # reference takes the unit columns that are pivots of [m^T | I].  The
    # rank form of the rows at reversed positions ~p, as the class form
    # takes them, pivots at the last nonzero positions
    units = [[Fraction(int(i == j)) for i in range(m.cols)] for j in range(m.cols)]
    _, pivots = rref(Matrix.from_columns(m.data + units, rows=m.cols))
    form = RankForm([{~j: x for j, x in row.items()} for row in m.row_maps])
    last = {~p for p in form.kept}
    slots = [i for i in range(m.cols) if i not in last]
    assert slots == [p - m.rows for p in pivots if p >= m.rows]


def entry_rows(r, c, entries=sparse_entries):
    return st.lists(st.lists(entries, min_size=c, max_size=c),
                    min_size=r, max_size=r)


def low_rank(r, c):
    # the product of r x k and k x c factors with k below both sides
    return st.integers(0, min(r, c) - 1).flatmap(
        lambda k: st.tuples(entry_rows(r, k), entry_rows(k, c)).map(
            lambda ab: Matrix(r, k, ab[0]).mul(Matrix(k, c, ab[1]))))


low_rank_matrices = st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
    lambda rc: low_rank(*rc))
square_matrices = st.integers(1, 5).flatmap(lambda n: st.one_of(
    entry_rows(n, n).map(Matrix.from_rows),
    entry_rows(n, n, rationals).map(Matrix.from_rows), low_rank(n, n)))


# the one Matrix type against dense lists of lists

def dense_entry_rows(max_side=5):
    """Dense rows of any shape, zero sides included, with int and Fraction
    entries and zeros among them."""
    entries = st.one_of(st.just(0), st.integers(-9, 9), sparse_entries)
    return st.tuples(st.integers(0, max_side), st.integers(0, max_side)).flatmap(
        lambda rc: st.tuples(st.just(rc[0]), st.just(rc[1]),
                             entry_rows(rc[0], rc[1], entries)))


def dense_mul(a, b, inner: int, cols: int) -> list:
    return [[sum((a[i][t] * b[t][j] for t in range(inner)), Fraction(0))
             for j in range(cols)] for i in range(len(a))]


@settings(max_examples=150, deadline=None)
@given(dense_entry_rows(), st.integers(0, 4), st.data())
def test_matrix_matches_a_dense_reference(drawn, k, data):
    r, c, rows = drawn
    m, want = Matrix(r, c, rows), [[Fraction(x) for x in row] for row in rows]
    assert m.data == want and m.data is not m.data
    assert all(type(x) is Fraction for row in m.data for x in row)
    assert m.is_zero() == (not any(map(any, want)))
    assert float_matrix(m).tolist() == [[float(x) for x in row]
                                        for row in want]
    for j in range(c):
        assert dense.column(m, j) == [row[j] for row in want]
        assert all(type(x) is Fraction for x in dense.column(m, j))
    assert m.columns() == [{i: want[i][j] for i in range(r) if want[i][j]}
                           for j in range(c)]
    # round trips through rows and columns
    assert Matrix.from_columns([dense.column(m, j) for j in range(c)],
                               rows=r) == m
    if r:
        assert Matrix.from_rows(m.data) == m
    # the product with a vector of ints and Fractions that lists some zero
    # values, also after emptying a row and a column
    hole = data.draw(st.tuples(st.integers(-1, r - 1), st.integers(-1, c - 1)))
    holed = [[0 if hole[0] == i or hole[1] == j else x
              for j, x in enumerate(row)] for i, row in enumerate(want)]
    entries = st.one_of(st.just(0), st.integers(-9, 9), sparse_entries)
    vec = data.draw(st.lists(st.tuples(entries, st.booleans()),
                             min_size=c, max_size=c))
    for a, rows in ((m, want), (Matrix(r, c, holed), holed)):
        applied = [sum((x * v for x, (v, _) in zip(row, vec)), Fraction(0))
                   for row in rows]
        got = a.apply({j: v for j, (v, listed) in enumerate(vec)
                       if v or listed})
        assert got == {i: x for i, x in enumerate(applied) if x}
        assert list(got) == sorted(got)
        assert all(type(x) is (int if applied[i].denominator == 1
                               else Fraction) for i, x in got.items())
    other = data.draw(entry_rows(c, k))
    product = m.mul(Matrix(c, k, other))
    assert (product.rows, product.cols) == (r, k)
    assert product.data == dense_mul(want, other, c, k)
    # equal matrices hash equal, however built; a .data copy is the caller's
    same = [Matrix(r, c, want),
            Matrix.of_rows(r, c, [{j: x for j, x in enumerate(row) if x}
                                  for row in want]),
            Matrix.of_rows(r, c, [dict(row) for row in m.row_maps])]
    assert all(x == m and hash(x) == hash(m) for x in same)
    before, copy = hash(m), m.data
    for row in copy:
        row[:] = [x + 1 for x in row]
    assert m.data == want and hash(m) == before and m == same[0]
    if r and c:
        assert m != Matrix(r, c, copy)


@settings(max_examples=120, deadline=None)
@given(st.one_of(sparse_matrix_strategy(), low_rank_matrices), st.data())
def test_rref_and_solve_match_the_dense_reference(m, data):
    assert exactlin.rref(m) == dense.rref(m)
    x = data.draw(st.lists(sparse_entries, min_size=m.cols, max_size=m.cols))
    b_any = data.draw(st.lists(sparse_entries, min_size=m.rows, max_size=m.rows))
    for b in (dense.dense_apply(m, x), b_any):
        assert exactlin.solve_particular(m, b) == dense.solve_particular(m, b)


@settings(max_examples=120, deadline=None)
@given(square_matrices)
def test_invert_matches_the_dense_reference(m):
    try:
        want = dense.invert(m)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            exactlin.invert(m)
    else:
        assert exactlin.invert(m) == want


# linear maps of every rank between spaces of dims 1..5, the zero map among
# them
linear_maps = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda rc: st.one_of(entry_rows(*rc).map(lambda rows: Matrix(*rc, rows)),
                         low_rank(*rc), st.just(Matrix.zeros(*rc))))


@settings(max_examples=100, deadline=None)
@given(linear_maps, st.integers(0, 3))
def test_pullback_entries_are_the_minors_of_rho(rho, k):
    # Cauchy-Binet: the k-th exterior power of rho couples source subset S
    # and target subset T by the minor det rho[T, S], on every carrier index
    hom = Homomorphism(abelian(rho.cols), abelian(rho.rows), rho)
    f, m, data = pullback_cochain_map(hom, k), rho.rows, rho.data
    src = list(combinations(range(rho.cols), k))
    tgt = list(combinations(range(m), k))
    assert (f.rows, f.cols) == (len(src) * m, len(tgt) * m)
    for s_pos, S in enumerate(src):
        for t_pos, T in enumerate(tgt):
            minor = laplace_det([[data[t][s] for s in S] for t in T])
            for b in range(m):
                row = f.row_maps[s_pos * m + b]
                assert [row.get(t_pos * m + c, 0) for c in range(m)] == [
                    minor if c == b else 0 for c in range(m)]


@settings(max_examples=40, deadline=None)
@given(matrix_strategy(3))
def test_inverse_round_trip(m):
    if m.rows != m.cols or rank(m) < m.rows:
        return
    inv = invert(m)
    assert inv.mul(m).data == Matrix.identity(m.rows).data


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6))
def test_cochain_dim_binomial(n, k):
    from math import comb
    assert cochain_dim(n, k, 1) == comb(n, k)
    assert len(list(combinations(range(n), k))) == comb(n, k)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5),
       st.lists(st.integers(0, 5), min_size=0, max_size=4, unique=True))
def test_mask_insertion_parity(extra, subset):
    subset = tuple(sorted(subset))
    sign, merged = mask_insert(extra, subset)
    if extra in subset:
        assert sign == 0 and merged is None
    else:
        assert sign in (1, -1)
        assert merged == tuple(sorted(subset + (extra,)))
        # sign equals parity of the insertion position
        pos = merged.index(extra)
        assert sign == (-1) ** pos


def bracket_strategy(n=3):
    pair_count = n * (n - 1) // 2
    return st.lists(
        st.lists(rationals, min_size=n, max_size=n),
        min_size=pair_count, max_size=pair_count).map(
            lambda rows: BracketCandidate.from_entries(
                n, {pair: rows[idx] for idx, pair in enumerate(
                    [(i, j) for i in range(n) for j in range(i + 1, n)])}))


@settings(max_examples=30, deadline=None)
@given(bracket_strategy())
def test_jacobiator_quadratic_scaling(cand):
    tripled = BracketCandidate.from_altmap(cand.as_altmap().scale(3))
    assert dense.flat(jacobiator(tripled)) == dense.flat(jacobiator(cand).scale(9))


@settings(max_examples=15, deadline=None)
@given(st.lists(st.lists(rationals, min_size=3, max_size=3),
                min_size=3, max_size=3),
       st.lists(st.lists(rationals, min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_expansion_identity_on_heis3(xi_rows, eta_rows):
    g = catalog_algebra("heis3")
    pairs = [(0, 1), (0, 2), (1, 2)]
    xi = AltMap.from_values(2, 3, 3, dict(zip(pairs, xi_rows)))
    eta = AltMap.from_values(2, 3, 3, dict(zip(pairs, eta_rows)))
    report = jacobiator_expansion_check(g.candidate, xi, eta)
    assert report.ok and report.max_defect == 0


def unimodular_matrix(n, shears):
    # a product of elementary shears is always invertible
    m = Matrix.identity(n)
    for (r, c, v) in shears:
        r, c = r % n, c % n
        if r == c:
            continue
        rows = [list(row) for row in m.data]
        rows[r] = [a + Fraction(v) * b for a, b in zip(rows[r], rows[c])]
        m = Matrix.from_rows(rows)
    return m


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                          st.integers(-2, 2)), min_size=1, max_size=4),
       st.sampled_from(sorted(catalog_names())))
def test_cohomology_is_orbit_invariant(shears, name):
    from liedeform.cecomplex import adjoint_cohomology
    g = catalog_algebra(name)
    a = unimodular_matrix(g.dim, shears)
    moved = act_on_bracket_exact(a, g.candidate)
    g2 = validate_bracket(moved, name=f"{name}-moved")
    assert adjoint_cohomology(g2).dims_h() == adjoint_cohomology(g).dims_h()


@settings(max_examples=30, deadline=None)
@given(bracket_strategy())
def test_validation_matches_jacobiator(cand):
    from liedeform.algebras import ValidationError
    try:
        validate_bracket(cand)
    except ValidationError:
        assert not jacobiator(cand).is_zero()
    else:
        assert jacobiator(cand).is_zero()


def dense_bracket(cand, u, v) -> list:
    """The bracket of coordinate vectors summed over every pair of basis
    vectors and every structure constant, zero or not."""
    n = cand.dim
    return [sum((u[a] * v[b] * cand.c[a][b][m] for a in range(n)
                 for b in range(n)), Fraction(0)) for m in range(n)]


def dense_jacobiator(cand, i, j, k) -> list:
    """[[e_i,e_j],e_k] + cyclic, from the dense bracket."""
    def e(a):
        return [Fraction(int(a == b)) for b in range(cand.dim)]

    t = [dense_bracket(cand, dense_bracket(cand, e(a), e(b)), e(c))
         for a, b, c in ((i, j, k), (j, k, i), (k, i, j))]
    return [x + y + z for x, y, z in zip(*t)]


def candidates(max_dim=5):
    """Random candidates, antisymmetric (from entries i < j) or not (from a
    full tensor); most fail Jacobi."""
    def tensor(n, antisymmetric):
        size = n * (n - 1) // 2 if antisymmetric else n * n
        return st.lists(st.lists(sparse_entries, min_size=n, max_size=n),
                        min_size=size, max_size=size)

    def build(n, antisymmetric, vectors):
        if antisymmetric:
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            return BracketCandidate.from_entries(n, dict(zip(pairs, vectors)))
        return BracketCandidate.from_tensor(
            [vectors[i * n:(i + 1) * n] for i in range(n)])

    return st.integers(3, max_dim).flatmap(lambda n: st.booleans().flatmap(
        lambda anti: tensor(n, anti).map(lambda v: build(n, anti, v))))


@settings(max_examples=40, deadline=None)
@given(st.one_of(candidates(), st.sampled_from(
    [catalog_algebra(name).candidate for name in catalog_names()])))
def test_jacobiator_value_matches_the_dense_bracket(cand):
    failing, jac = [], cand.jacobiator()
    for t in combinations(range(cand.dim), 3):
        value = jac.value(t)
        assert value == dense_jacobiator(cand, *t)
        assert all(type(x) is Fraction for x in value)
        if any(value):
            failing.append(t)
    assert jac.is_zero() == (not failing)
    # validation refuses at the first failing triple, with its dense value
    if cand.antisymmetry_violation() is None and failing:
        with pytest.raises(ValidationError) as exc:
            validate_bracket(cand)
        assert (exc.value.kind, exc.value.location, exc.value.defect) == (
            "jacobi", failing[0], dense_jacobiator(cand, *failing[0]))
    elif cand.antisymmetry_violation() is None:
        validate_bracket(cand)


@settings(max_examples=40, deadline=None)
@given(candidates().flatmap(lambda cand: st.tuples(
    st.just(cand), *[st.lists(sparse_entries, min_size=cand.dim,
                              max_size=cand.dim)] * 2)))
def test_bracket_and_ad_rows_match_the_dense_bracket(drawn):
    cand, u, v = drawn
    expect = dense_bracket(cand, u, v)
    assert cand.bracket(u, v) == expect
    assert all(type(x) is Fraction for x in cand.bracket(u, v))
    ad_u = Matrix.of_rows(cand.dim, cand.dim,
                          ad_rows(cand, dense.nonzeros(u).items()))
    assert dense.dense(ad_u.apply(dense.nonzeros(v)), cand.dim) == expect


# ---------------------------------------------------------------------------
# coefficient systems: the sparse builders against the dense path

def assert_same_rows(rows, expect):
    """Equal dicts, with equal value types (int or Fraction), in equal key
    order."""
    assert rows == expect
    assert dense.row_layout(rows) == dense.row_layout(expect)


nonzero_rationals = rationals.filter(bool)


def rescaled_catalog():
    """A catalog algebra in a basis s_i e_i with random rational s_i, so
    with rational structure constants."""
    return st.tuples(st.sampled_from(catalog_names()),
                     st.lists(nonzero_rationals, min_size=3, max_size=3)).map(
        lambda drawn: dense.rescaled_algebra(
            catalog_algebra(drawn[0]), drawn[1][:catalog_algebra(drawn[0]).dim]))


def built_reps(check, *args):
    """The coefficient systems ``check(*args)`` builds a differential of, in
    order."""
    built, build = [], kuranishi.differential_matrix

    def spy(k, rep, *a):
        built.append(rep)
        return build(k, rep, *a)

    with mock.patch.object(kuranishi, "differential_matrix", spy):
        check(*args)
    return built


@settings(max_examples=60, deadline=None)
@given(st.one_of(candidates(), rescaled_catalog().map(lambda g: g.candidate),
                 st.sampled_from([catalog_algebra(name).candidate
                                  for name in catalog_names()])),
       st.lists(sparse_entries, min_size=5, max_size=5))
def test_adjoint_rows_match_the_dense_path(cand, vec):
    n, expect = cand.dim, dense.dense_adjoint_rows(cand)
    assert_same_rows(adjoint_rows(cand), expect)
    if cand.antisymmetry_violation() is None and cand.jacobiator().is_zero():
        assert_same_rows(adjoint_rep(validate_bracket(cand)).rows, expect)
    # a non-Lie base, as the Jacobiator expansion check builds it
    zero = AltMap.from_flat(2, n, n, [0] * cochain_dim(n, 2, n))
    (rep,) = built_reps(jacobiator_expansion_check, cand, zero, zero)
    assert_same_rows(rep.rows, expect)
    u = vec[:n]
    ad_u = ad_rows(cand, dense.nonzeros(u).items())
    assert_same_rows((ad_u,), dense.dense_rows([dense.dense_ad_matrix(cand, u)]))
    assert Matrix.of_rows(n, n, ad_u) == dense.dense_ad_matrix(cand, u)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(catalog_names()), st.sampled_from(catalog_names()),
       st.data())
def test_pullback_rows_match_the_dense_path(source, target, data):
    # a random rational linear map, as the curvature expansion check builds
    # its pullback system: neither a homomorphism nor checked
    h, g = catalog_algebra(source), catalog_algebra(target)
    if data.draw(st.booleans()):
        g = data.draw(rescaled_catalog().filter(lambda a: a.dim == g.dim))
    m = Matrix.from_rows(data.draw(st.lists(
        st.lists(sparse_entries, min_size=h.dim, max_size=h.dim),
        min_size=g.dim, max_size=g.dim)))
    rho = Homomorphism(h, g, m)
    (rep,) = built_reps(curvature_expansion_check, rho, Matrix.zeros(g.dim, h.dim))
    assert_same_rows(rep.rows, dense.dense_pullback_rows(g.candidate, m))


def test_pullback_rep_rows_match_the_dense_path():
    homs = ([hom_preset(name) for name in hom_preset_names()]
            + [Homomorphism(w.as_subalgebra(), w.ambient, Matrix.from_columns(
                [w.basis_vector(t) for t in range(w.dim)], rows=w.ambient.dim))
               for w in (borel_in_sl(2), borel_in_sl(3), sl_in_gl(3))])
    for rho in homs:
        assert_same_rows(pullback_rep(rho).rows,
                         dense.dense_pullback_rows(rho.target.candidate, rho.matrix))


def quotient_witnesses():
    """The preset witnesses, b(sl_n) in sl_n and sl_n in gl_n, and random
    ones with rational echelon bases: a line in a catalog algebra, and in
    heis_3 or heis_5 a subspace containing the centre, which is an ideal."""
    # in the line through 3h + e, the projection brings the columns of a
    # row in out of order
    fixed = ([sub_preset(name) for name in sub_preset_names()]
             + [borel_in_sl(n) for n in (2, 3)] + [sl_in_gl(n) for n in (2, 3)]
             + [subalgebra_witness(catalog_algebra("sl2"), [[3, 1, 0]])])
    algebras = st.one_of(st.sampled_from(catalog_names()).map(catalog_algebra),
                         rescaled_catalog())

    def line(g):
        return st.lists(sparse_entries, min_size=g.dim, max_size=g.dim).filter(
            any).map(lambda v: subalgebra_witness(g, [v]))

    def over_centre(g):
        z = [0] * (g.dim - 1) + [1]
        return st.lists(st.lists(rationals, min_size=g.dim, max_size=g.dim),
                        max_size=g.dim - 2).map(
            lambda vs: _independent(g, vs + [z]))

    heis = st.sampled_from([dense.heisenberg_algebra(1),
                            dense.heisenberg_algebra(2)])
    return st.one_of(st.sampled_from(fixed), algebras.flatmap(line),
                     heis.flatmap(over_centre))


def _independent(g, vectors):
    """The witness of an independent subset of ``vectors`` spanning them."""
    _, pivots = rref(Matrix.from_columns(vectors))
    kept = [vectors[p] for p in pivots]
    return subalgebra_witness(g, kept)


@settings(max_examples=60, deadline=None)
@given(quotient_witnesses())
def test_quotient_rows_match_the_dense_path(w):
    assert_same_rows(quotient_rep(w).rows, dense.dense_quotient_rows(w))


# ---------------------------------------------------------------------------
# the rank form, and the weight blocks of an inner torus

def bareiss_det(rows) -> Fraction:
    """Determinant by fraction-free elimination with row swaps; every
    division is exact."""
    a = [[Fraction(x) for x in r] for r in rows]
    k, sign, prev = len(a), 1, Fraction(1)
    for i in range(k):
        swap = next((r for r in range(i, k) if a[r][i] != 0), None)
        if swap is None:
            return Fraction(0)
        if swap != i:
            a[i], a[swap], sign = a[swap], a[i], -sign
        for r in range(i + 1, k):
            for c in range(i + 1, k):
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) / prev
        prev = a[i][i]
    return sign * prev


def deficient_rows(data, cols) -> list:
    """Random sparse rows, with zero rows, repeated rows and combinations of
    earlier rows among them."""
    rows = []
    for _ in range(data.draw(st.integers(0, 8))):
        how = data.draw(st.sampled_from(["fresh", "zero", "repeat", "mix"]))
        if how == "zero":
            rows.append([Fraction(0)] * cols)
        elif how == "fresh" or not rows:
            rows.append(data.draw(st.lists(sparse_entries, min_size=cols,
                                           max_size=cols)))
        elif how == "repeat":
            rows.append(list(data.draw(st.sampled_from(rows))))
        else:
            p, q = data.draw(st.sampled_from(rows)), data.draw(st.sampled_from(rows))
            x, y = data.draw(rationals), data.draw(rationals)
            rows.append([x * a + y * b for a, b in zip(p, q)])
    return rows


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7), st.data())
def test_rank_form_keeps_the_echelon_columns(cols, data):
    rows = deficient_rows(data, cols)
    m = Matrix(len(rows), cols, rows)
    form = RankForm(m.row_maps)
    assert form.kept == rref(m)[1]
    assert len(form.kept) == bareiss_rank(rows)
    # the rows are taken last first: the kept ones are those independent of
    # the rows after them
    assert sorted(form.rows) == [
        i for i in range(len(rows))
        if bareiss_rank(rows[i:]) > bareiss_rank(rows[i + 1:])]
    assert bareiss_det([[m.row_maps[i].get(j, 0) for j in form.kept]
                        for i in form.rows]) != 0
    which = sorted(data.draw(st.sets(st.sampled_from(range(len(rows))))
                             if rows else st.just(set())))
    part = RankForm(m.row_maps, which, keep=True)
    sub = Matrix.of_rows(len(which), cols, [m.row_maps[i] for i in which])
    assert part.kept == rref(sub)[1]
    assert set(part.rows) <= set(which)
    # the kernel vectors by back-substitution are Gauss-Jordan's
    assert [tuple(_dense(part.null_vector(f), cols))
            for f in part.free(range(cols))] == list(kernel_basis(sub).basis)
    assert bareiss_det([[m.row_maps[i].get(j, 0) for j in part.kept]
                        for i in part.rows]) != 0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 6).flatmap(lambda k: st.lists(
    st.lists(sparse_entries, min_size=k, max_size=k), min_size=k, max_size=k)))
def test_local_bareiss_det_matches_laplace(entries):
    assert bareiss_det(entries) == laplace_det(entries)


def signed_algebra(g, signs):
    return dense.rescaled_algebra(g, signs.of(g))


class Signs:
    """One seeded +-1 per basis vector of each algebra, by name."""

    def __init__(self, seed):
        self.rng, self.drawn = random.Random(seed), {}

    def of(self, g) -> list:
        if g.name not in self.drawn:
            self.drawn[g.name] = [self.rng.choice((1, -1)) for _ in range(g.dim)]
        return self.drawn[g.name]


def signed_witness(w, signs):
    """The witness in the ambient algebra's signed basis."""
    s = signs.of(w.ambient)
    return subalgebra_witness(
        signed_algebra(w.ambient, signs),
        [[x * t for x, t in zip(w.basis_vector(i), s)] for i in range(w.dim)],
        name=w.name)


def signed_hom(rho, signs):
    """rho' = T rho S in the signed bases of its source and target."""
    s, t = signs.of(rho.source), signs.of(rho.target)
    m = Matrix.from_rows([[t[i] * x * s[j] for j, x in enumerate(row)]
                          for i, row in enumerate(rho.matrix.data)])
    return Homomorphism(signed_algebra(rho.source, signs),
                        signed_algebra(rho.target, signs), m, name=rho.name)


def inclusion(w):
    basis = Matrix.from_columns([w.basis_vector(t) for t in range(w.dim)],
                                rows=w.ambient.dim)
    return Homomorphism(w.as_subalgebra(), w.ambient, basis,
                        name=f"{w.name}-incl")


def weight_systems(signs) -> list:
    """Adjoint, pullback and quotient systems of the catalog, the presets
    and gl_n, sl_n, b(sl_n) for n <= 3, in seeded signed bases."""
    borels = [borel_in_sl(n) for n in (2, 3)]
    subs = ([sub_preset(n) for n in sub_preset_names()] + borels
            + [sl_in_gl(n) for n in (2, 3)])
    algebras = ([catalog_algebra(n) for n in catalog_names()]
                + [dense.gl_algebra(n) for n in (1, 2, 3)]
                + [w.ambient for w in borels]
                + [w.as_subalgebra(name=f"b(sl{n})")
                   for n, w in zip((2, 3), borels)])
    # x -> h + e: ad x = 0 is diagonal, r(x) = ad(h + e) is not
    tilted = Homomorphism(abelian(1, name="abelian1"), catalog_algebra("sl2"),
                          Matrix.from_rows([[1], [1], [0]]), name="tilted")
    homs = ([hom_preset(n) for n in hom_preset_names()] + [tilted]
            + list(map(inclusion, subs)))
    return ([adjoint_rep(signed_algebra(g, signs)) for g in algebras]
            + [pullback_rep(signed_hom(rho, signs)) for rho in homs]
            + [quotient_rep(signed_witness(w, signs)) for w in subs])


def full_elimination_table(cx) -> list:
    """dimC/dimZ/dimB/dimH from the rank of every row of every differential,
    with no weight block."""
    table, rank_before = [], 0
    for k in range(cx.n + 1):
        rank_k = rank(cx.d(k))
        z = cx.dim_cochains(k) - rank_k
        table.append({"k": k, "dimC": cx.dim_cochains(k), "dimZ": z,
                      "dimB": rank_before, "dimH": z - rank_before})
        rank_before = rank_k
    return table


@settings(max_examples=4, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_weight_blocks_give_the_full_elimination_table(seed):
    tori = 0
    for rep in weight_systems(Signs(seed)):
        report = cohomology(rep)
        assert (report.to_json_dict()["degrees"]
                == full_elimination_table(report.complex)), rep.label
        tori += type(report.complex.block(0)[0]) is list
    assert tori >= 12  # gl_n, sl_n and b(sl_n) act through an inner torus


def scanned_torus(rep) -> tuple:
    """({k: zero weight positions}, {k: acyclic rank}) for k = 0..n + 1, from
    a scan of every weight: the torus elements are read from the dense
    structure constants and action matrices, each k-subset's weight is
    summed afresh, and the rank off the zero block is the alternating sum of
    the nonzero weight cochain counts of degrees k, k - 1, .., 0."""
    n, m, c = rep.acting.dim, rep.carrier_dim, rep.acting.c
    act = [Matrix.of_rows(m, m, rows).data for rows in rep.rows]
    xs = [x for x in range(n)
          if all(c[x][j][l] == 0 for j in range(n) for l in range(n) if l != j)
          and all(act[x][a][b] == 0 for a in range(m) for b in range(m)
                  if a != b)
          and (any(map(any, c[x])) or any(map(any, act[x])))]
    if not xs:
        return {}, {}
    zero, acyclic, off_counts = {}, {}, []
    for k in range(n + 2):
        zero[k] = [p * m + a for p, S in enumerate(combinations(range(n), k))
                   for a in range(m)
                   if all(act[x][a][a] == sum((c[x][i][i] for i in S),
                                              Fraction(0)) for x in xs)]
        off_counts.append(cochain_dim(n, k, m) - len(zero[k]))
        acyclic[k] = sum((-1) ** (k - j) * off_counts[j] for j in range(k + 1))
    return zero, acyclic


def catalog_or_weight_systems(seed) -> list:
    """The systems of the catalog and the presets for seed None, else
    ``weight_systems`` in the bases signed by the seed."""
    return (weight_systems(Signs(seed)) if seed is not None else
            [adjoint_rep(catalog_algebra(n)) for n in catalog_names()]
            + [pullback_rep(hom_preset(n)) for n in hom_preset_names()]
            + [quotient_rep(sub_preset(n)) for n in sub_preset_names()])


def rational_weight_systems() -> list:
    """Systems whose torus weights are not all ints: the pullback along
    abelian(1) -> sl2, x -> (2/3)h, and sl2 in the basis (h/3, e, f)."""
    sl2 = catalog_algebra("sl2")
    rho = Homomorphism(abelian(1, name="abelian1"), sl2, Matrix.from_rows(
        [[Fraction(2, 3)], [0], [0]]), name="two-thirds-h")
    return [pullback_rep(rho), adjoint_rep(dense.rescaled_algebra(
        sl2, [Fraction(1, 3), 1, 1]))]


@pytest.mark.parametrize("seed", [None, 5, 3407])
def test_torus_matches_a_weight_scan(seed):
    tori, rational = 0, rational_weight_systems() if seed is None else []
    for rep in catalog_or_weight_systems(seed) + rational:
        cx, (zero, acyclic) = CEComplex(rep), scanned_torus(rep)
        for k in range(cx.n + 2):
            got = cx.block(k)
            if zero:
                assert got == (zero[k], acyclic[k]), (rep.label, k)
                assert type(got[0]) is list
            else:  # no torus: the one block
                assert got == (range(cx.dim_cochains(k)), 0), (rep.label, k)
        tori += bool(zero)
    assert tori >= (5 if seed is None else 12)
    for rep in rational:  # each weight is scaled to an int, and so is b
        ad, carriers = CEComplex(rep).generic
        assert all(type(w) is int for w in [*ad, *carriers]), rep.label


def test_a_generic_weight_keeps_apart_what_a_small_base_merges():
    # in gl_5 the 6-subset {E12, E32, E42, E52, E14, E15} has weight
    # (3, -4, 1, 0, 0) under the E_ii, which the base 3 sends to 0, the
    # weight of the carriers E_ii; the generic element keeps it off them
    cx = CEComplex(adjoint_rep(dense.gl_algebra(5)))
    ad, carriers = cx.generic
    subset = [a * 5 + b for a, b in ((0, 1), (2, 1), (3, 1), (4, 1), (0, 3),
                                     (0, 4))]
    assert sum(ad[i] for i in subset) not in carriers
    assert carriers[0] == [a * 5 + a for a in range(5)]


@pytest.mark.parametrize("seed", [None, 5, 3407])
def test_degrees_read_in_any_order_match_the_full_report(seed):
    # a fresh complex read from its top degree down, or in a shuffled order,
    # makes each weight block on first read from the blocks below it
    rng = random.Random(seed)
    for rep in catalog_or_weight_systems(seed):
        want = [(d.dim_cochains, d.dim_cocycles, d.dim_coboundaries, d.dim_h,
                 d.h_representatives) for d in cohomology(rep).degrees]
        n = rep.acting.dim
        for order in (range(n, -1, -1), rng.sample(range(n + 1), n + 1)):
            cx = CEComplex(rep)
            got = {k: cx.degree(k) for k in order}
            assert [(d.dim_cochains, d.dim_cocycles, d.dim_coboundaries,
                     d.dim_h, d.h_representatives)
                    for d in map(got.get, range(n + 1))] == want, rep.label


def test_a_degree_read_walks_no_block_above_the_next():
    cx = CEComplex(adjoint_rep(dense.gl_algebra(3)))
    assert cx.degree(2).dim_h == 0 and cx.n == 9
    assert len(cx._blocks) == 4  # degrees 0..3: d_2 has rows in degree 3


# ---------------------------------------------------------------------------
# bases read from the rank form, against dense Gauss-Jordan elimination

def small_problems():
    """Problems of small algebras moved by random shears (no torus is left,
    as a rule) or rescaled (a torus stays), of the preset homomorphisms in
    random signed bases and of the inclusions of random witnesses, and of
    random witnesses; their coefficient systems (adjoint, pullback and
    quotient) have at most 60 cochains in a degree, so the dense reference
    stays quick."""
    algebras = [catalog_algebra(n) for n in sorted(catalog_names())] + [
        dense.gl_algebra(2), dense.heisenberg_algebra(2),
        dense.filiform_algebra(5)]
    moved = st.tuples(st.sampled_from(algebras), st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(-2, 2)),
        max_size=4)).map(lambda drawn: validate_bracket(act_on_bracket_exact(
            unimodular_matrix(drawn[0].dim, drawn[1]), drawn[0].candidate)))
    signed = st.tuples(st.sampled_from(sorted(hom_preset_names())),
                       st.integers(0, 2 ** 32 - 1)).map(
        lambda drawn: signed_hom(hom_preset(drawn[0]), Signs(drawn[1])))
    witnesses = quotient_witnesses()
    kinds = [moved, rescaled_catalog(), signed, witnesses.map(inclusion),
             witnesses]
    return st.sampled_from(kinds).flatmap(lambda kind: kind).map(
        Problem).filter(lambda p: max(
            cochain_dim(p.rep.acting.dim, k, p.rep.carrier_dim)
            for k in range(p.rep.acting.dim + 1)) <= 60)


def small_systems():
    """The coefficient systems of ``small_problems``."""
    return small_problems().map(lambda p: p.rep)


def assert_bases_match_the_dense_reference(rep):
    report = cohomology(rep)
    for d, (coc, _, reps) in zip(report.degrees, dense_report_tuples(rep)):
        assert d.cocycles.basis == coc
        assert tuple(tuple(_dense(z, d.dim_cochains))
                     for z in d.h_representatives) == reps
        assert [d.class_coords(z) for z in d.h_representatives] == [
            [int(i == j) for j in range(d.dim_h)] for i in range(d.dim_h)]
    return report


@settings(max_examples=60, deadline=None)
@given(small_systems())
def test_bases_match_the_dense_reference(rep):
    assert_bases_match_the_dense_reference(rep)


def test_first_quotient_cocycle_may_have_nonzero_weight():
    # b(sl2) has no zero weight 1-cochain with values in sl2/b, so the
    # first free column of d_1 lies outside the zero block; the CLI's
    # cocycle is still Gauss-Jordan's first kernel vector of all of d_1
    for w in ([sub_preset(n) for n in sub_preset_names()]
              + [borel_in_sl(2), borel_in_sl(3), sl_in_gl(2)]):
        p = Problem(w)
        report = assert_bases_match_the_dense_reference(p.rep)
        cx, got = report.complex, _first_quotient_cocycle(p)
        kernel = kernel_basis(cx.d(1)).basis
        assert got.nonzeros == (dense.nonzeros(kernel[0]) if kernel else {})
        if w.name == "borel-in-sl2":
            assert cx.block(1)[0] == [] and got.nonzeros
            assert report.degree(1).free == ()


def test_class_coords_drop_coboundaries_of_nonzero_weight():
    # a representative plus the coboundary of each (k-1)-cochain of
    # nonzero weight is still the unit vector of its class
    report = cohomology(adjoint_rep(dense.gl_algebra(2)))
    cx, seen = report.complex, 0
    zero = [cx.block(k)[0] for k in range(cx.n + 1)]
    for d in report.degrees[1:]:
        for j in range(cx.dim_cochains(d.k - 1)):
            b = cx.apply_d(AltMap.of(d.k - 1, cx.n, cx.carrier_dim, {j: 3}))
            if j in zero[d.k - 1] or b.is_zero():
                continue
            seen += 1
            for i, z in enumerate(d.h_representatives):
                moved = {t: x for t in z.keys() | b.nonzeros.keys()
                         if (x := z.get(t, 0) + b.nonzeros.get(t, 0))}
                assert d.class_coords(moved) == [int(i == t)
                                                 for t in range(d.dim_h)]
    assert seen and type(zero[0]) is list


def random_cocycle(cx, d, data) -> tuple:
    """(c, the nonzeros of sum c_i rep_i + d y) for rational c and a
    rational (k-1)-cochain y at every position, of every weight."""
    c = data.draw(st.lists(rationals, min_size=d.dim_h, max_size=d.dim_h))
    y = data.draw(st.lists(sparse_entries, min_size=cx.dim_cochains(d.k - 1),
                           max_size=cx.dim_cochains(d.k - 1)))
    z = (cx.apply_d(AltMap.of(d.k - 1, cx.n, cx.carrier_dim, dense.nonzeros(y)))
         if d.k else AltMap.zero(0, cx.n, cx.carrier_dim))
    for ci, r in zip(c, d.h_representatives):
        z = z.add_scaled(AltMap.of(d.k, cx.n, cx.carrier_dim, r), ci)
    return c, z.nonzeros


@settings(max_examples=60, deadline=None)
@given(small_systems(), st.data())
def test_class_coords_read_the_class_of_any_cocycle(rep, data):
    # coboundaries of zero weight too leave the coordinates c; the class
    # form's pivots, read back, are the degree's classes
    report = cohomology(rep)
    cx = report.complex
    for d in report.degrees:
        if d.k:
            assert {~p for p in cx.class_form(d.k).kept} == d.classes
        c, z = random_cocycle(cx, d, data)
        assert d.class_coords(z) == c


@settings(max_examples=60, deadline=None)
@given(small_problems(), st.data())
def test_kuranishi_primitives_match_the_dense_solve(p, data):
    # a random cocycle at the tangent degree t, on systems with and without
    # a torus: its obstruction class's primitive is the dense solution of
    # d_t x = representative with free variables zero, None on both sides
    # when the class does not vanish
    cx, t = p.complex, p.tangent_degree
    _, xi = random_cocycle(cx, p.report.degree(t), data)
    xi = AltMap.of(t, cx.n, cx.carrier_dim, xi)
    oc = (kuranishi.kuranishi_sub(kuranishi.standard_splitting(p), xi)
          if p.kind == "sub" else {"bracket": kuranishi.kuranishi_bracket,
                                   "hom": kuranishi.kuranishi_hom}[p.kind](p, xi))
    want = dense.solve_particular(cx.d(t), dense.dense(
        oc.representative.nonzeros, cx.dim_cochains(t + 1)))
    assert oc.is_zero_in_h == (want is not None)
    got = oc.primitive
    assert want == (None if got is None
                    else dense.dense(got.nonzeros, cx.dim_cochains(t)))


# ---------------------------------------------------------------------------
# the identities that make a snake lift land in h and an obstruction
# representative closed: the library relies on them with no run-time check

def _closedness_objects() -> dict:
    """The catalog, the presets and bench-family systems, by name."""
    families = dense.bench_families()
    objects = ([catalog_algebra(n) for n in catalog_names()]
               + [hom_preset(n) for n in hom_preset_names()]
               + [sub_preset(n) for n in sub_preset_names()]
               + [families.heisenberg(2), families.filiform(5), families.gl(2),
                  families.borel(3), families.sl(3), families.heis3_to_heis5(),
                  families.borel2_to_borel3(), families.sl2_to_gl2(),
                  families.centre_of_heis(2), families.nilradical_of_borel3(),
                  families.borel3_in_sl3()])
    return {obj.name: obj for obj in objects}


CLOSEDNESS_OBJECTS = _closedness_objects()


@pytest.mark.parametrize("name", sorted(CLOSEDNESS_OBJECTS))
@settings(max_examples=8, deadline=None)
@given(st.data())
def test_obstruction_representatives_are_closed(name, data):
    # bracket: d J(xi) = +-[d xi, xi]; homomorphism: d [xi,xi] = 2[d xi, xi];
    # subalgebra: d F_2(eta) = 0, the second-order part of the Bianchi
    # identity of the closure defect, under the standard and a shifted
    # splitting, whose snake lift pi(d(section o eta)) = d eta is zero too
    p = Problem.of(CLOSEDNESS_OBJECTS[name])
    cx, t = p.complex, p.tangent_degree
    _, direction = random_cocycle(cx, p.report.degree(t), data)
    direction = AltMap.of(t, cx.n, cx.carrier_dim, direction)
    if p.kind != "sub":
        oc = {"bracket": kuranishi.kuranishi_bracket,
              "hom": kuranishi.kuranishi_hom}[p.kind](p, direction)
        assert cx.apply_d(oc.representative).is_zero()
        return
    w = p.obj
    standard = kuranishi.standard_splitting(p)
    shift = Matrix.from_rows(data.draw(st.lists(
        st.lists(rationals, min_size=w.quotient_dim, max_size=w.quotient_dim),
        min_size=w.dim, max_size=w.dim)))
    for sp in (standard, kuranishi.shifted_splitting(standard, shift)):
        lift = p.inclusion.complex.apply_d(direction.post_compose(sp.section))
        assert lift.post_compose(w.coords.projection).is_zero()
        oc = kuranishi.kuranishi_sub(sp, direction)
        assert cx.apply_d(oc.representative).is_zero()
