"""Helpers only the tests use: reference implementations the tests compare
the package against, and shorthands for single cases."""

from liedeform.algebras import BracketCandidate
from liedeform.cecomplex import CohomologyReport
from liedeform.deformlab import NewtonConfig, run_experiment
from liedeform.exactlin import (Matrix, Subspace, _subspace, invert,
                                kernel_and_pivots, rref)


def kernel_basis(m: Matrix) -> Subspace:
    """Exact basis of the null space of m (acting on column vectors)."""
    return kernel_and_pivots(m)[0]


def image_basis(m: Matrix) -> Subspace:
    """Column-space basis: the pivot columns of the original matrix."""
    _, pivots = rref(m)
    return _subspace(m.rows, [m.column(j) for j in pivots])


def flat_index(position: int, m: int, a: int) -> int:
    return position * m + a


def identity_chain_maps(report: CohomologyReport) -> dict:
    return {k: Matrix.identity(report.complex.dim_cochains(k))
            for k in range(report.acting_dim + 2)}


def act_on_bracket_exact(a_matrix: Matrix, cand: BracketCandidate) -> BracketCandidate:
    """Exact-arithmetic twin of act_on_bracket for rational matrices."""
    n = cand.dim
    ainv = invert(a_matrix)
    entries = {}
    for i in range(n):
        for j in range(n):
            u = ainv.column(i)
            v = ainv.column(j)
            w = a_matrix.apply(cand.bracket(u, v))
            entries[(i, j)] = w
    return BracketCandidate.from_entries(n, entries)


def run_single_experiment(kind: str, obj, scale: float, seed: int,
                          cfg: NewtonConfig) -> dict:
    return run_experiment(kind, obj, [seed], scale, cfg)[0]
