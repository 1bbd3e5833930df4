"""Helpers only the tests use: reference implementations the tests compare
the package against, and shorthands for single cases."""

from fractions import Fraction
from itertools import combinations

import numpy as np

from liedeform.algebras import (BracketCandidate, LieAlgebra, RepSpec,
                                subalgebra_witness, validate_bracket)
from liedeform.cecomplex import CEComplex, CohomologyReport
from liedeform.deformlab import NewtonConfig, graph_basis, run_experiment
from liedeform.exactlin import (Matrix, QuotientCoords, Subspace, _subspace,
                                invert, rref, solve_particular)


def kernel_basis(m: Matrix) -> Subspace:
    """Exact basis of the null space of m (acting on column vectors), read
    from its dense reduced row echelon form: one vector per free column."""
    r, pivots = rref(m)
    basis = []
    for f in (j for j in range(m.cols) if j not in pivots):
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for row_idx, p in enumerate(pivots):
            v[p] = -r.data[row_idx][f]
        basis.append(v)
    return _subspace(m.cols, basis)


def contains(sub: Subspace, vec) -> bool:
    """Whether ``vec`` lies in ``sub``, by a dense solve."""
    if sub.dim == 0:
        return all(x == 0 for x in vec)
    m = Matrix.from_columns([list(v) for v in sub.basis], rows=sub.ambient_dim)
    return solve_particular(m, list(vec)) is not None


def from_sub_coords(qc: QuotientCoords, coords) -> list:
    """The vector of the subspace with echelon-basis coordinates ``coords``."""
    out = [Fraction(0)] * qc.ambient_dim
    for t, c in enumerate(coords):
        if c != 0:
            for j in range(qc.ambient_dim):
                out[j] += Fraction(c) * qc.sub_basis[t][j]
    return out


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


# loop forms of the float structure maps: the references that the package's
# array kernels are checked against

def act_on_bracket_einsum(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(A . c)(u, v) = A c(A^-1 u, A^-1 v) as one four-operand contraction."""
    ainv = np.linalg.inv(a)
    return np.einsum("pi,qj,pqr,kr->ijk", ainv, ainv, c, a)


def jacobiator_loop(c: np.ndarray) -> np.ndarray:
    out = []
    for (i, j, k) in combinations(range(c.shape[0]), 3):
        out.append(c[i, j, :] @ c[:, k, :] + c[j, k, :] @ c[:, i, :]
                   + c[k, i, :] @ c[:, j, :])
    return np.concatenate(out) if out else np.zeros(0)


def pairs_loop(c: np.ndarray) -> np.ndarray:
    out = [c[i, j, :] for (i, j) in combinations(range(c.shape[0]), 2)]
    return np.concatenate(out) if out else np.zeros(0)


def _bracket(c: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.einsum("i,j,ijk->k", x, y, c)


def curvature_loop(c_target: np.ndarray, c_source: np.ndarray,
                   p: np.ndarray) -> np.ndarray:
    out = []
    for (i, j) in combinations(range(c_source.shape[0]), 2):
        out.append(_bracket(c_target, p[:, i], p[:, j]) - p @ c_source[i, j, :])
    return np.concatenate(out) if out else np.zeros(0)


def chart_defect_loop(frames, eta: np.ndarray, c: np.ndarray) -> np.ndarray:
    g = graph_basis(frames, eta)
    out = []
    for (i, j) in combinations(range(g.shape[1]), 2):
        z = _bracket(c, g[:, i], g[:, j])
        out.append(frames.q_reader @ z - eta @ (frames.h_reader @ z))
    return np.concatenate(out) if out else np.zeros(0)


def run_single_experiment(kind: str, obj, scale: float, seed: int,
                          cfg: NewtonConfig) -> dict:
    return run_experiment(kind, obj, [seed], scale, cfg)[0]


# Laplace expansion along the first row, O(k!) for a k x k matrix: the
# reference that the package's fraction-free determinant is checked against
def _det(entries) -> Fraction:
    k = len(entries)
    if k == 0:
        return Fraction(1)
    if k == 1:
        return entries[0][0]
    if k == 2:
        return entries[0][0] * entries[1][1] - entries[0][1] * entries[1][0]
    total = Fraction(0)
    for j in range(k):
        if entries[0][j] == 0:
            continue
        minor = [[entries[r][c] for c in range(k) if c != j] for r in range(1, k)]
        sign = -1 if j % 2 else 1
        total += sign * entries[0][j] * _det(minor)
    return total


def dense_report_tuples(rep: RepSpec) -> list:
    """(cocycles, coboundaries, H-representatives) per degree from dense
    Gauss-Jordan elimination: the kernel of d_k, the pivot columns of
    d_(k-1), and the cocycle columns that are pivots of [B | Z]."""
    cx = CEComplex(rep)
    out, cob = [], ()
    for k in range(cx.n + 1):
        d = cx.d(k).dense()
        coc = kernel_basis(d).basis
        cols = [list(v) for v in cob + coc]
        reps = ()
        if cols:
            _, pivots = rref(Matrix.from_columns(cols, rows=d.cols))
            reps = tuple(coc[p - len(cob)] for p in pivots if p >= len(cob))
        out.append((coc, cob, reps))
        cob = image_basis(d).basis
    return out


def gl_algebra(n: int) -> LieAlgebra:
    """gl_n in the basis E_ab (index a*n + b):
    [E_ab, E_cd] = delta_bc E_ad - delta_da E_cb."""
    entries = {}
    for i, j in combinations(range(n * n), 2):
        (a, b), (c, d) = divmod(i, n), divmod(j, n)
        v = [0] * (n * n)
        if b == c:
            v[a * n + d] += 1
        if d == a:
            v[c * n + b] -= 1
        entries[(i, j)] = v
    return validate_bracket(BracketCandidate.from_entries(n * n, entries),
                            name=f"gl{n}")


def sl_algebra(n: int) -> LieAlgebra:
    """sl_n inside gl_n, spanned by E_ii - E_(i+1)(i+1) and the E_ab with
    a != b."""
    def unit(*pairs):
        v = [0] * (n * n)
        for (a, b), x in pairs:
            v[a * n + b] = x
        return v
    vecs = [unit(((i, i), 1), ((i + 1, i + 1), -1)) for i in range(n - 1)]
    vecs += [unit(((a, b), 1)) for a in range(n) for b in range(n) if a != b]
    return subalgebra_witness(gl_algebra(n), vecs,
                              name=f"sl{n}").as_subalgebra(name=f"sl{n}")
