"""Exact linear algebra over the rationals.

Dense matrices with ``fractions.Fraction`` entries and Gaussian elimination
with first-nonzero pivoting.  Everything in this module is exact: ranks,
kernels, solves and quotient coordinates involve no tolerances, and ranks
computed here agree with ranks over the reals.

Conventions: matrices act on column vectors; a vector is a plain list of
Fractions.  All values are treated as immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def parse_scalar(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact rational."""
    return Fraction(str(text))


def format_scalar(q: Fraction) -> str:
    """Render an exact rational as "p/q", or "p" when the denominator is 1."""
    return str(q)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class Matrix:
    """Dense rational matrix; ``data`` is a row-major list of lists."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data=None):
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[Fraction(0)] * cols for _ in range(rows)]
        else:
            if len(data) != rows or any(len(r) != cols for r in data):
                raise ValueError("matrix data does not match declared shape")
            self.data = [[_frac(x) for x in r] for r in data]

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        m = cls(n, n)
        for i in range(n):
            m.data[i][i] = Fraction(1)
        return m

    @classmethod
    def from_rows(cls, rows_list) -> "Matrix":
        rows_list = [list(r) for r in rows_list]
        nr = len(rows_list)
        nc = len(rows_list[0]) if rows_list else 0
        return cls(nr, nc, rows_list)

    @classmethod
    def from_columns(cls, cols_list, rows: int | None = None) -> "Matrix":
        cols_list = [list(c) for c in cols_list]
        nc = len(cols_list)
        nr = len(cols_list[0]) if cols_list else (rows or 0)
        m = cls(nr, nc)
        for j, col in enumerate(cols_list):
            if len(col) != nr:
                raise ValueError("ragged column list")
            for i in range(nr):
                m.data[i][j] = _frac(col[i])
        return m

    def column(self, j: int) -> list:
        return [self.data[i][j] for i in range(self.rows)]

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        out = Matrix(self.rows, other.cols)
        for i in range(self.rows):
            ri = self.data[i]
            oi = out.data[i]
            for k in range(self.cols):
                a = ri[k]
                if a == 0:
                    continue
                rk = other.data[k]
                for j in range(other.cols):
                    if rk[j] != 0:
                        oi[j] += a * rk[j]
        return out

    def apply(self, vec) -> list:
        if len(vec) != self.cols:
            raise ValueError("shape mismatch in matrix-vector product")
        out = [Fraction(0)] * self.rows
        for i in range(self.rows):
            ri = self.data[i]
            s = Fraction(0)
            for j, v in enumerate(vec):
                if v != 0 and ri[j] != 0:
                    s += ri[j] * v
            out[i] = s
        return out

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.data for x in r)

    def to_float_rows(self):
        return [[float(x) for x in r] for r in self.data]

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


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


def rank(m: Matrix) -> int:
    _, pivots = rref(m)
    return len(pivots)


@dataclass(frozen=True)
class Subspace:
    """A linear subspace given by a list of independent vectors."""

    ambient_dim: int
    basis: tuple

    def __post_init__(self):
        for v in self.basis:
            if len(v) != self.ambient_dim:
                raise ValueError("basis vector has wrong length")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vec) -> bool:
        if self.dim == 0:
            return all(x == 0 for x in vec)
        m = Matrix.from_columns([list(v) for v in self.basis], rows=self.ambient_dim)
        return solve_particular(m, list(vec)) is not None


def _subspace(ambient_dim: int, vectors) -> Subspace:
    return Subspace(ambient_dim, tuple(tuple(_frac(x) for x in v) for v in vectors))


def kernel_basis(m: Matrix) -> Subspace:
    """Exact basis of the null space of m (acting on column vectors)."""
    return kernel_and_pivots(m)[0]


def kernel_and_pivots(m: Matrix):
    """Null-space basis of m, one vector per free column, and the pivot
    columns of its reduced row echelon form, from one reduction."""
    r, pivots = rref(m)
    pivot_set = set(pivots)
    free = [j for j in range(m.cols) if j not in pivot_set]
    basis = []
    for f in free:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for row_idx, p in enumerate(pivots):
            v[p] = -r.data[row_idx][f]
        basis.append(v)
    return _subspace(m.cols, basis), pivots


def image_basis(m: Matrix) -> Subspace:
    """Column-space basis: the pivot columns of the original matrix."""
    _, pivots = rref(m)
    return _subspace(m.rows, [m.column(j) for j in pivots])


def solve_particular(m: Matrix, b):
    """One exact solution of m x = b, or None when the system is unsolvable.

    Free variables are set to zero, so the result is deterministic.
    """
    if len(b) != m.rows:
        raise ValueError("right-hand side has wrong length")
    aug = Matrix(m.rows, m.cols + 1,
                 [m.data[i] + [_frac(b[i])] for i in range(m.rows)])
    r, pivots = rref(aug)
    if m.cols in pivots:
        return None
    x = [Fraction(0)] * m.cols
    for row_idx, p in enumerate(pivots):
        x[p] = r.data[row_idx][m.cols]
    return x


def invert(m: Matrix) -> Matrix:
    """Exact inverse of a square matrix; raises ValueError when singular."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    n = m.rows
    aug = Matrix(n, 2 * n, [m.data[i] + [Fraction(1) if j == i else Fraction(0)
                                         for j in range(n)] for i in range(n)])
    r, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return Matrix(n, n, [r.data[i][n:] for i in range(n)])


def reduced_basis(sub: Subspace):
    """Basis of ``sub`` in reduced (column) echelon form, with pivot positions.

    Returned as (rows, pivots): ``rows[t]`` is the t-th basis vector and
    ``rows[t][pivots[s]] == delta(t, s)``.
    """
    if sub.dim == 0:
        return [], []
    m = Matrix.from_rows([list(v) for v in sub.basis])
    r, pivots = rref(m)
    rows = [r.data[t] for t in range(len(pivots))]
    if len(pivots) != sub.dim:
        raise ValueError("subspace basis is linearly dependent")
    return rows, pivots


@dataclass(frozen=True)
class QuotientCoords:
    """Coordinates on ambient/sub induced by the standard-basis complement.

    ``projection`` maps the ambient space onto the quotient coordinates (its
    kernel is exactly the subspace); ``section`` is the right inverse picking
    the standard basis vectors at the non-pivot positions; ``sub_basis`` is
    the subspace basis in reduced echelon form with ``pivots`` the pivot
    positions and ``complement`` the remaining positions.
    """

    ambient_dim: int
    sub_basis: tuple
    pivots: tuple
    complement: tuple
    projection: Matrix
    section: Matrix

    @property
    def dim(self) -> int:
        return len(self.complement)

    def to_sub_coords(self, vec):
        """Coordinates of ``vec`` in the echelon basis of the subspace.

        Only valid when ``vec`` lies in the subspace; callers certify that by
        checking ``projection.apply(vec)`` is zero first.
        """
        return [_frac(vec[p]) for p in self.pivots]

    def from_sub_coords(self, coords):
        out = [Fraction(0)] * self.ambient_dim
        for t, c in enumerate(coords):
            if c != 0:
                for j in range(self.ambient_dim):
                    out[j] += _frac(c) * self.sub_basis[t][j]
        return out


def quotient_coords(sub: Subspace) -> QuotientCoords:
    """Quotient-by-subspace coordinates via the standard complement rule.

    The subspace basis is put in reduced echelon form; the complement is
    spanned by the standard basis vectors at the non-pivot positions, and the
    projection subtracts the unique subspace component.
    """
    n = sub.ambient_dim
    rows, pivots = reduced_basis(sub)
    pivot_set = set(pivots)
    complement = [j for j in range(n) if j not in pivot_set]
    proj = Matrix.zeros(len(complement), n)
    for r_i, q in enumerate(complement):
        proj.data[r_i][q] = Fraction(1)
        for t, p in enumerate(pivots):
            proj.data[r_i][p] = -rows[t][q]
    sect = Matrix.zeros(n, len(complement))
    for r_i, q in enumerate(complement):
        sect.data[q][r_i] = Fraction(1)
    return QuotientCoords(
        ambient_dim=n,
        sub_basis=tuple(tuple(r) for r in rows),
        pivots=tuple(pivots),
        complement=tuple(complement),
        projection=proj,
        section=sect,
    )
