"""Property-based invariants over randomized exact inputs."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liedeform.algebras import (BracketCandidate, Matrix, catalog_algebra,
                                catalog_names, validate_bracket)
from liedeform.cecomplex import CEComplex, adjoint_rep
from liedeform.cochains import AltMap, cochain_dim, insertion_sign, subsets
from helpers import act_on_bracket_exact, image_basis, kernel_basis
from liedeform.exactlin import invert, rank, solve_particular
from liedeform.kuranishi import jacobiator, jacobiator_expansion_check

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
        assert all(x == 0 for x in m.apply(list(vec)))


@settings(max_examples=60, deadline=None)
@given(matrix_strategy())
def test_image_vectors_solvable(m):
    for vec in image_basis(m).basis:
        sol = solve_particular(m, list(vec))
        assert sol is not None
        assert m.apply(sol) == list(vec)


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
    assert len(subsets(n, k)) == comb(n, k)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5),
       st.lists(st.integers(0, 5), min_size=0, max_size=4, unique=True))
def test_insertion_sign_parity(extra, subset):
    subset = tuple(sorted(subset))
    sign, merged = insertion_sign(extra, subset)
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
    assert jacobiator(tripled).flat() == jacobiator(cand).scale(9).flat()


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
