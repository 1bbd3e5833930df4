"""Helpers only the tests use: reference implementations the tests compare
the package against, and shorthands for single cases."""

import importlib.util
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np

from liedeform import deformlab
from liedeform.algebras import (BracketCandidate, Homomorphism, LieAlgebra,
                                RepSpec, catalog_algebra, hom_preset,
                                sub_preset, subalgebra_witness,
                                validate_bracket, validate_homomorphism)
from liedeform.cecomplex import CEComplex, CohomologyReport
from liedeform.deformlab import (FloatBracket, NewtonConfig, _pairs_flat,
                                 graph_basis, run_experiment)
from liedeform.exactlin import (Matrix, QuotientCoords, Subspace, _frac,
                                _subspace)


# dense Gauss-Jordan elimination: the reference that the package's rref,
# solve_particular and invert, all read from one RankForm, are checked against

def rref(m: Matrix):
    """Reduced row echelon form; returns (R, pivot_columns).

    Pivoting picks the first row with a nonzero entry in the current column,
    so the result is deterministic for identical input.
    """
    r = [row[:] for row in m.data]
    pivots = []
    lead = 0
    for col in range(m.cols):
        pivot_row = None
        for i in range(lead, m.rows):
            if r[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        r[lead], r[pivot_row] = r[pivot_row], r[lead]
        pv = r[lead][col]
        if pv != 1:
            r[lead] = [x / pv for x in r[lead]]
        for i in range(m.rows):
            if i != lead and r[i][col] != 0:
                f = r[i][col]
                r[i] = [a - f * b for a, b in zip(r[i], r[lead])]
        pivots.append(col)
        lead += 1
        if lead == m.rows:
            break
    return Matrix(m.rows, m.cols, r), pivots


def solve_particular(m: Matrix, b):
    """One solution of m x = b with free variables zero, or None, from the
    dense RREF of the augmented matrix."""
    if len(b) != m.rows:
        raise ValueError("right-hand side has wrong length")
    aug = Matrix(m.rows, m.cols + 1,
                 [row + [_frac(x)] for row, x in zip(m.data, b)])
    r, pivots = rref(aug)
    if m.cols in pivots:
        return None
    x, rows = [Fraction(0)] * m.cols, r.data
    for row_idx, p in enumerate(pivots):
        x[p] = rows[row_idx][m.cols]
    return x


def invert(m: Matrix) -> Matrix:
    """Inverse from the dense RREF of [m | I]; ValueError when singular."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    n = m.rows
    aug = Matrix(n, 2 * n, [row + [Fraction(1) if j == i else Fraction(0)
                                   for j in range(n)]
                            for i, row in enumerate(m.data)])
    r, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return Matrix(n, n, [row[n:] for row in r.data])


def kernel_basis(m: Matrix) -> Subspace:
    """Exact basis of the null space of m (acting on column vectors), read
    from its dense reduced row echelon form: one vector per free column."""
    r, pivots = rref(m)
    basis, rows = [], r.data
    for f in (j for j in range(m.cols) if j not in pivots):
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for row_idx, p in enumerate(pivots):
            v[p] = -rows[row_idx][f]
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
    return _subspace(m.rows, [column(m, j) for j in pivots])


def flat_index(position: int, m: int, a: int) -> int:
    return position * m + a


def mask_insert(element: int, rest) -> tuple:
    """Insert an element into a sorted subset on bit masks, as the exact
    layer does: (sign, merged subset), with the sign (-1)^q of its place q
    counted by popcount, or (0, None) when it repeats."""
    mask, bit = sum(1 << i for i in rest), 1 << element
    if mask & bit:
        return 0, None
    union = mask | bit
    merged = tuple(i for i in range(union.bit_length()) if union >> i & 1)
    return (-1) ** (mask & (bit - 1)).bit_count(), merged


# dense views of the package's sparse vectors and cochains, built here

def dense(vec: dict, n: int) -> list:
    """The dense Fraction vector of length n with the {position: value}
    nonzeros ``vec``."""
    out = [Fraction(0)] * n
    for i, x in vec.items():
        out[i] = Fraction(x)
    return out


def nonzeros(vec) -> dict:
    """The {position: value} nonzeros of a dense vector."""
    return {i: x for i, x in enumerate(vec) if x != 0}


def flat(m) -> list:
    """The dense flat vector of an ``AltMap``: C(n, k) * m Fractions."""
    return dense(m.nonzeros, comb(m.domain_dim, m.degree) * m.carrier_dim)


def column(m: Matrix, j: int) -> list:
    """The dense Fraction column j of m, read from its row nonzeros."""
    return [Fraction(row.get(j, 0)) for row in m.row_maps]


def dense_apply(m: Matrix, vec) -> list:
    """The dense product of m and a dense vector, from ``m.data``."""
    return [sum((x * Fraction(v) for x, v in zip(row, vec)), Fraction(0))
            for row in m.data]


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
            u = column(ainv, i)
            v = column(ainv, j)
            w = dense_apply(a_matrix, cand.bracket(u, v))
            entries[(i, j)] = w
    return BracketCandidate.from_entries(n, entries)


# loop forms of the float structure maps: the references that the package's
# array kernels are checked against

def act_on_bracket_einsum(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(A . c)(u, v) = A c(A^-1 u, A^-1 v) as one four-operand contraction."""
    ainv = np.linalg.inv(a)
    return np.einsum("pi,qj,pqr,kr->ijk", ainv, ainv, c, a)


def acted_pairs_tensordot(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Pair coordinates of A . c by a tensordot contraction, then a
    FloatBracket, then its pair read: the reference that the package's
    kernel must equal bit for bit."""
    ainv = np.linalg.inv(a)
    acted = np.tensordot(ainv, ainv.T @ c, (0, 0)) @ a.T
    return _pairs_flat(FloatBracket(len(a), acted).c)


def frame_brackets_tensordot(c: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """Brackets of the frame's column pairs with a tensordot product: the
    reference that the package's must equal bit for bit."""
    i, j = np.array(list(combinations(range(frame.shape[1]), 2)),
                    dtype=int).reshape(-1, 2).T
    t = np.tensordot(frame, c, (0, 0))
    return np.einsum("bj,ibk->ijk", frame, t)[i, j]


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


def linearization_loop(c_source: np.ndarray, mats, m: int) -> np.ndarray:
    """d(xi)(e_i, e_j) = r_i xi_j - r_j xi_i - xi([e_i, e_j]), one pair's
    block of rows at a time."""
    n = len(mats)
    blocks = []
    for (i, j) in combinations(range(n), 2):
        block = np.zeros((m, n * m))
        block[:, j * m:(j + 1) * m] += mats[i]
        block[:, i * m:(i + 1) * m] -= mats[j]
        for l in range(n):
            block[:, l * m:(l + 1) * m] -= c_source[i, j, l] * np.eye(m)
        blocks.append(block)
    return np.vstack(blocks) if blocks else np.zeros((0, n * m))


def run_single_experiment(kind: str, obj, scale: float, seed: int,
                          cfg: NewtonConfig) -> dict:
    return run_experiment(kind, obj, [seed], scale, cfg)[0]


# Laplace expansion along the first row, O(k!) for a k x k matrix: the
# reference that the pullback map's minors and the fraction-free
# determinants are checked against
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
        d = cx.d(k)
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


def filiform_algebra(n: int) -> LieAlgebra:
    """L_n: e0..e(n-1) with [e0, ei] = e(i+1) for 1 <= i <= n-2."""
    entries = {(0, i): [int(k == i + 1) for k in range(n)]
               for i in range(1, n - 1)}
    return validate_bracket(BracketCandidate.from_entries(n, entries),
                            name=f"L{n}")


def heisenberg_algebra(m: int) -> LieAlgebra:
    """heis_(2m+1): p1..pm, q1..qm, z with [p_i, q_i] = z."""
    n = 2 * m + 1
    entries = {(i, m + i): [int(k == n - 1) for k in range(n)]
               for i in range(m)}
    return validate_bracket(BracketCandidate.from_entries(n, entries),
                            name=f"heis{n}")


def nilradical(n: int) -> LieAlgebra:
    """n_n, the nilradical of b(sl_n): the E_ij with i < j, in the order of
    ``combinations(range(n), 2)``, with
    [E_ij, E_kl] = delta_jk E_il - delta_li E_kj."""
    units = list(combinations(range(n), 2))
    at = {pair: t for t, pair in enumerate(units)}
    entries = {}
    for s, t in combinations(range(len(units)), 2):
        (i, j), (k, l) = units[s], units[t]
        v = [0] * len(units)
        if j == k:
            v[at[i, l]] += 1
        if l == i:
            v[at[k, j]] -= 1
        entries[(s, t)] = v
    return validate_bracket(BracketCandidate.from_entries(len(units), entries),
                            name=f"n{n}")


def rescaled_algebra(g: LieAlgebra, scales) -> LieAlgebra:
    """g in the basis s_i e_i: [s_i e_i, s_j e_j] = sum_k (s_i s_j c_ijk /
    s_k) s_k e_k."""
    s = [Fraction(x) for x in scales]
    n = g.dim
    tensor = [[[s[i] * s[j] * g.c[i][j][k] / s[k] for k in range(n)]
               for j in range(n)] for i in range(n)]
    return validate_bracket(BracketCandidate.from_tensor(tensor),
                            basis=g.basis, name=f"{g.name}-rescaled")


def sl_in_gl(n):
    """sl_n in gl_n, spanned by E_ii - E_(i+1)(i+1) and the E_ab, a != b."""
    vecs = []
    for i in range(n - 1):
        v = [0] * (n * n)
        v[i * n + i], v[(i + 1) * n + i + 1] = 1, -1
        vecs.append(v)
    vecs += [[int(p == a * n + b) for p in range(n * n)]
             for a in range(n) for b in range(n) if a != b]
    return subalgebra_witness(gl_algebra(n), vecs, name=f"sl{n}-in-gl{n}")


def borel_in_sl(n):
    """b(sl_n) in sl_n: the basis vectors of sl_n (in its echelon basis
    inside gl_n) that are upper triangular."""
    w = sl_in_gl(n)
    upper = [t for t in range(w.dim)
             if all(x == 0 or p // n <= p % n
                    for p, x in enumerate(w.basis_vector(t)))]
    return subalgebra_witness(w.as_subalgebra(name=f"sl{n}"),
                              [[int(i == t) for i in range(w.dim)]
                               for t in upper], name=f"b(sl{n})-in-sl{n}")


# the dense path the coefficient systems were once built on: ad matrices
# filled entry by entry in Fractions, the quotient action column by column
# through the dense projection, each read into sparse rows afterwards

def dense_ad_matrix(cand: BracketCandidate, vec) -> Matrix:
    """Matrix of u -> bracket(vec, u), in Fractions."""
    data = [[Fraction(0)] * cand.dim for _ in range(cand.dim)]
    for i, vi in enumerate(map(_frac, vec)):
        if vi:
            for j, row in enumerate(cand.terms[i]):
                for k, x in row:
                    data[k][j] += vi * x
    return Matrix(cand.dim, cand.dim, data)


def dense_rows(mats) -> tuple:
    """Each matrix as the {column: value} nonzeros of each row, ints where
    integral."""
    return tuple(mat.row_maps for mat in mats)


def dense_adjoint_rows(cand: BracketCandidate) -> tuple:
    n = cand.dim
    return dense_rows(dense_ad_matrix(cand, [int(a == i) for a in range(n)])
                      for i in range(n))


def dense_pullback_rows(target: BracketCandidate, matrix: Matrix) -> tuple:
    return dense_rows(dense_ad_matrix(target, column(matrix, j))
                      for j in range(matrix.cols))


def dense_quotient_rows(w) -> tuple:
    g, q = w.ambient, w.quotient_dim
    sect, proj = w.coords.section, w.coords.projection
    return dense_rows(Matrix.from_columns(
        [dense_apply(proj, g.bracket(w.basis_vector(i), column(sect, b)))
         for b in range(q)], rows=q) for i in range(w.dim))


def dense_identity_failure(rep: RepSpec):
    """The first basis pair (i, j) where sum_k c_ij^k R_k differs from
    R_i R_j - R_j R_i, over dense matrices R made from ``rep.rows``; None
    when the identity holds."""
    q = rep.carrier_dim
    mats = [[[Fraction(row.get(b, 0)) for b in range(q)] for row in rows]
            for rows in rep.rows]

    def prod(x, y):
        return [[sum((x[a][t] * y[t][b] for t in range(q)), Fraction(0))
                 for b in range(q)] for a in range(q)]

    for i, j in combinations(range(rep.acting.dim), 2):
        lhs = [[sum((c * mats[k][a][b] for k, c in enumerate(rep.acting.c[i][j])),
                    Fraction(0)) for b in range(q)] for a in range(q)]
        ij, ji = prod(mats[i], mats[j]), prod(mats[j], mats[i])
        if lhs != [[x - y for x, y in zip(r, t)] for r, t in zip(ij, ji)]:
            return (i, j)
    return None


def row_layout(rows) -> list:
    """Every (column, value type) of every row, in dict order."""
    return [[[(b, type(x)) for b, x in row.items()] for row in mat]
            for mat in rows]


def bench_families():
    """The benchmark's generators, ``bench/families.py``, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "bench" / "families.py"
    spec = importlib.util.spec_from_file_location("bench_families", path)
    families = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(families)
    return families


def newton_seeds_objects() -> dict:
    """The objects of the benchmark's newton-seeds bands, by name."""
    return {"sl2": catalog_algebra("sl2"), "aff1": catalog_algebra("aff1"),
            "b(sl_3)": bench_families().borel(3),
            "id-sl2": hom_preset("id-sl2"),
            "borel-incl": hom_preset("borel-incl"),
            "borel-in-sl2": sub_preset("borel-in-sl2")}


# the newton-seeds core bands: (kind, object name)
NEWTON_SEEDS_BANDS = [
    ("bracket-recovery", "sl2"), ("bracket-recovery", "aff1"),
    ("bracket-recovery", "b(sl_3)"), ("hom-recovery", "id-sl2"),
    ("hom-recovery", "borel-incl"), ("hom-continuation", "id-sl2"),
    ("hom-continuation", "borel-incl"), ("sub-recovery", "borel-in-sl2"),
    ("sub-continuation", "borel-in-sl2")]


def counting_refreshes(monkeypatch) -> list:
    """A list that gains an entry at each chord refresh, that is at each
    ``deformlab.numeric_jacobian`` call, for the rest of the test."""
    count = []
    jacobian = deformlab.numeric_jacobian
    monkeypatch.setattr(deformlab, "numeric_jacobian",
                        lambda *a: count.append(1) or jacobian(*a))
    return count


def _sl2_into(target: LieAlgebra, images, name: str) -> Homomorphism:
    """families.sl(2), whose basis is H, E, F, -> ``target``, sending them
    to the three {target index: value} maps ``images``."""
    columns = [[image.get(r, 0) for r in range(target.dim)]
               for image in images]
    return validate_homomorphism(Homomorphism(
        bench_families().sl(2), target,
        Matrix.from_columns(columns, rows=target.dim), name=name))


def _sl_units(n: int) -> dict:
    """{(a, b): index of E_ab} in families.sl(n), whose basis is
    H_i = E_ii - E_(i+1)(i+1) (index i - 1), then E_ab for a != b in row
    order (``bench/families.py``)."""
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    return {pair: n - 1 + t for t, pair in enumerate(pairs)}


def principal_sl2(n: int) -> Homomorphism:
    """The principal sl_2 -> sl_n: H -> sum i(n-i) H_i, E -> sum E_(i,i+1),
    F -> sum i(n-i) E_(i+1,i) (i = 1..n-1)."""
    at = _sl_units(n)
    return _sl2_into(bench_families().sl(n), [
        {i - 1: i * (n - i) for i in range(1, n)},
        {at[i - 1, i]: 1 for i in range(1, n)},
        {at[i, i - 1]: i * (n - i) for i in range(1, n)}],
        f"principal-sl2-in-sl{n}")


def principal_sl2_in_gl(n: int) -> Homomorphism:
    """The principal sl_2 -> gl_n: H -> diag(n-1, n-3, .., 1-n),
    E -> sum E_(i,i+1), F -> sum i(n-i) E_(i+1,i) (i = 1..n-1), in
    families.gl(n), whose basis is E_ab at index a*n + b (0-based)."""
    return _sl2_into(bench_families().gl(n), [
        {a * n + a: n - 1 - 2 * a for a in range(n)},
        {(a - 1) * n + a: 1 for a in range(1, n)},
        {a * n + a - 1: a * (n - a) for a in range(1, n)}],
        f"principal-sl2-in-gl{n}")


def corner_sl2(n: int) -> Homomorphism:
    """The corner sl_2 -> sl_n: H -> H_1, E -> E_12, F -> E_21."""
    at = _sl_units(n)
    return _sl2_into(bench_families().sl(n),
                     [{0: 1}, {at[0, 1]: 1}, {at[1, 0]: 1}],
                     f"corner-sl2-in-sl{n}")
