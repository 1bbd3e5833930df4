"""Exact linear algebra over the rationals.

``Matrix`` is the one rational matrix: it keeps the nonzeros of each row
as a {column: value} dict (``row_maps``), ints where integral, and its
``data`` is a fresh dense copy.  ``Echelon`` is an echelon form kept for
repeated solves, and ``RankForm`` its elimination without the bookkeeping,
when only a rank and pivot columns are read.  ``rref``, ``solve_particular``,
``invert`` and the quotient coordinates of a subspace are read from the
``Echelon`` of a matrix's columns, ``rank`` from the ``RankForm`` of its
rows.  Both are fraction-free: each row is an integer vector carrying its
pivot value (a rational vector is first scaled by its common denominator),
so elimination does no ``Fraction`` arithmetic.  Everything in this module
is exact: ranks, kernels, solves and quotient coordinates involve no
tolerances, and ranks computed here agree with ranks over the reals.

``Matrix.mul_is_zero`` says whether a product is zero without building it:
each product row is summed in one accumulator and dropped.

Conventions: matrices act on column vectors, and ``Matrix.apply`` and
``Echelon.solve`` take and give a vector as its {position: value} nonzeros;
the public ``solve_particular`` takes and gives plain lists of Fractions.
All values are treated as immutable after construction.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .records import record


# the exponent of a decimal literal such as "-1.5e3", if any, at the end
_EXPONENT = re.compile(r"(?:e([-+]?\d+(?:_\d+)*))?\s*\Z", re.IGNORECASE)


def parse_scalar(text: str) -> Fraction:
    """Parse "p/q", "p" or a decimal into an exact rational; refuses a decimal
    whose digits plus exponent pass the integer-string limit (ValueError)."""
    text, limit = str(text), sys.get_int_max_str_digits()
    exp = _EXPONENT.search(text)
    size = sum(map(str.isdigit, text[:exp.start()])) + abs(int(exp[1] or 0))
    if limit and "/" not in text and size > limit:
        raise ValueError(f"would exceed the limit ({limit} digits) for "
                         "integer string conversion")
    return Fraction(text)


def format_scalar(q: Fraction) -> str:
    """Render an exact rational as "p/q", or "p" when the denominator is 1;
    one past the integer-string limit as the bit lengths of its terms."""
    try:
        return str(q)
    except ValueError:
        return (f"<{q.numerator.bit_length()}-bit/"
                f"{q.denominator.bit_length()}-bit rational>")


ZERO = Fraction(0)


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _exact(x):
    """``x`` as an int where it is integral, else as a Fraction."""
    return x if type(x) is int or x.denominator != 1 else x.numerator


def _add_scaled(u: dict, v: dict, f) -> dict:
    """The nonzeros of u + f v, for {position: value} nonzeros u and v."""
    acc = dict(u)
    for j, x in v.items():
        acc[j] = acc.get(j, 0) + f * x
    return {j: _exact(x) for j, x in acc.items() if x}


def _dense(vec: dict, n: int) -> list:
    """Dense Fraction vector of length n from {position: value}."""
    out = [ZERO] * n
    for i, x in vec.items():
        out[i] = _frac(x)
    return out


class Matrix:
    """Rational matrix kept as the nonzeros of each row: ``row_maps[i]`` is a
    {column: value} dict, values ints where integral.  ``data`` is a fresh
    dense row-major list of Fractions."""

    __slots__ = ("rows", "cols", "row_maps")

    def __init__(self, rows: int, cols: int, data=None):
        if data is not None and (len(data) != rows
                                 or any(len(r) != cols for r in data)):
            raise ValueError("matrix data does not match declared shape")
        self.rows, self.cols = rows, cols
        self.row_maps = [{} for _ in range(rows)] if data is None else [
            {j: _exact(y) for j, x in enumerate(r) if (y := _frac(x))}
            for r in data]

    @classmethod
    def of_rows(cls, rows: int, cols: int, row_maps) -> "Matrix":
        """The matrix whose rows hold the {column: value} nonzeros
        ``row_maps``, taken as they are (no zero value)."""
        m = cls.__new__(cls)
        m.rows, m.cols, m.row_maps = rows, cols, row_maps
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls.of_rows(n, n, [{i: 1} for i in range(n)])

    @classmethod
    def from_rows(cls, rows_list) -> "Matrix":
        rows_list = [list(r) for r in rows_list]
        nr = len(rows_list)
        nc = len(rows_list[0]) if rows_list else 0
        return cls(nr, nc, rows_list)

    @classmethod
    def from_columns(cls, cols_list, rows: int | None = None) -> "Matrix":
        cols_list = [list(c) for c in cols_list]
        nr = len(cols_list[0]) if cols_list else (rows or 0)
        if any(len(col) != nr for col in cols_list):
            raise ValueError("ragged column list")
        return cls(nr, len(cols_list), [[col[i] for col in cols_list]
                                        for i in range(nr)])

    @property
    def data(self) -> list:
        return [_dense(row, self.cols) for row in self.row_maps]

    def columns(self) -> list:
        """The {row: value} nonzeros of each column."""
        cols = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.row_maps):
            for j, x in row.items():
                cols[j][i] = x
        return cols

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        out = []
        for row in self.row_maps:
            acc = {}
            for k, a in row.items():
                for j, b in other.row_maps[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            out.append({j: _exact(x) for j, x in acc.items() if x} if acc
                       else acc)
        return Matrix.of_rows(self.rows, other.cols, out)

    def mul_is_zero(self, other: "Matrix") -> bool:
        """Whether ``self.mul(other)`` is zero: each product row is summed
        in one accumulator and not kept, and the first nonzero row ends the
        check."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        acc, rows = {}, other.row_maps
        for row in self.row_maps:
            for k, a in row.items():
                for j, b in rows[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            if any(acc.values()):
                return False
            acc.clear()
        return True

    def apply(self, vec: dict) -> dict:
        """The {row: value} nonzeros of this matrix times the vector with the
        {column: value} nonzeros ``vec``."""
        out = {}
        for i, row in enumerate(self.row_maps):
            if y := sum(x * vec[j] for j, x in row.items() if j in vec):
                out[i] = _exact(y)
        return out

    def add_scaled(self, other: "Matrix", factor) -> "Matrix":
        """self + factor * other."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix sum")
        return Matrix.of_rows(self.rows, self.cols, [
            _add_scaled(mine, theirs, factor)
            for mine, theirs in zip(self.row_maps, other.row_maps)])

    def is_zero(self) -> bool:
        return not any(self.row_maps)

    def to_float_rows(self):
        return [[float(row.get(j, 0)) for j in range(self.cols)]
                for row in self.row_maps]

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.row_maps == other.row_maps)

    def __hash__(self):
        return hash((self.rows, self.cols,
                     tuple(frozenset(r.items()) for r in self.row_maps)))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


def rref(m: Matrix):
    """Reduced row echelon form; returns (R, pivot_columns).

    Read from the ``Echelon`` of the columns: the pivots are its kept
    columns, and row t of R is 1 at the t-th of them and holds the t-th
    coefficient of every other column's relation.
    """
    form = Echelon(m.columns())
    r = [{j: 1} for j in form.kept] + [{} for _ in range(m.rows - len(form.kept))]
    for j, combo in form.relations.items():
        for t, c in combo.items():
            r[t][j] = _exact(c)
    return Matrix.of_rows(m.rows, m.cols, r), form.kept


def rank(m: Matrix) -> int:
    return len(RankForm(m.row_maps).kept)


def _ratio(x: int, s: int):
    return x if s == 1 else Fraction(x, s)


def _axpy(acc: dict, m: int, h: int, row: dict):
    """acc = m * acc - h * row in place, dropping the entries that cancel."""
    if m != 1:
        for j in acc:
            acc[j] *= m
    for j, x in row.items():
        y = acc.get(j, 0) - h * x
        if y:
            acc[j] = y
        else:
            del acc[j]


class Echelon:
    """Row echelon form, in integers, of the span of {position: value}
    vectors taken in order; a vector with rational entries is first scaled
    by its common denominator.  A vector left nonzero by the rows so far is
    kept (``kept`` lists the input indices) and becomes a row, with its last
    nonzero position as its pivot.  ``pivots`` maps each pivot to its row and
    the row's combination of the kept vectors: integer vectors with no
    factor common to both, the row zero past its pivot and holding its
    pivot value there.  ``relations`` maps each other input index to its
    (rational) combination.  A remainder zero at every pivot, and so each
    combination, does not depend on how the rows were reduced: for the
    columns of a matrix, ``kept`` are the pivot columns of its RREF,
    ``kernel()`` the null-space basis read from it and ``solve(b)`` the
    solution with free variables zero, as Gauss-Jordan elimination gives
    them."""

    def __init__(self, vectors):
        self.kept, self.relations, self.pivots = [], {}, {}
        for i, v in enumerate(vectors):
            s, rem, combo = self._reduce(v)
            if rem:
                combo = {t: -c for t, c in combo.items()}
                combo[len(self.kept)] = s
                self.pivots[max(rem)] = (rem, combo)
                self.kept.append(i)
            else:
                self.relations[i] = {t: _ratio(c, s) for t, c in combo.items()}

    def _reduce(self, v: dict):
        """(s, w, c) in integers with s * v = w + sum c_t kept_t, s > 0, the
        remainder w zero at every pivot, and no factor common to all; s
        starts as the common denominator of v.  The pivots are cleared from
        the last one down: a row is zero past its pivot, so clearing one
        brings in entries only at earlier positions."""
        s = lcm(*(x.denominator for x in v.values() if type(x) is not int))
        rem = {j: (x * s).numerator for j, x in v.items() if x}
        combo, pivots = {}, self.pivots
        todo = [-p for p in rem if p in pivots]
        heapify(todo)
        while todo:
            p = -heappop(todo)
            if p in rem:
                row, comb = pivots[p]
                a, f = row[p], rem[p]
                g = gcd(a, f) if a > 0 else -gcd(a, f)
                m, h = a // g, f // g
                s *= m
                _axpy(rem, m, h, row)
                _axpy(combo, m, -h, comb)
                for j in row:
                    if j in rem and j in pivots:
                        heappush(todo, -j)
        if s != 1:
            g = gcd(s, *rem.values(), *combo.values())
            s //= g
            rem = {j: x // g for j, x in rem.items()}
            combo = {t: c // g for t, c in combo.items()}
        return s, rem, combo

    def reduce(self, v: dict):
        """(v - sum c_t kept_t, c) with the remainder zero at every pivot, so
        zero exactly when v is in the span."""
        s, rem, combo = self._reduce(v)
        return ({j: _ratio(x, s) for j, x in rem.items()},
                {t: _ratio(c, s) for t, c in combo.items()})

    def solve(self, b: dict) -> dict | None:
        """The {input index: value} nonzeros of the coefficients x (zero off
        the kept vectors) with sum x_i v_i = b, for b given as its
        {position: value} nonzeros; None when b is not in the span."""
        s, rem, combo = self._reduce(b)
        if rem:
            return None
        return {self.kept[t]: _exact(Fraction(c, s)) for t, c in combo.items()}

    def null_vector(self, i: int) -> dict:
        """e_i - sum c_t e_(kept t) for a vector i that was not kept."""
        return {i: 1, **{self.kept[t]: -c
                         for t, c in self.relations[i].items()}}

    def kernel(self) -> list:
        """The null vector of each vector that was not kept."""
        return list(map(self.null_vector, self.relations))


class RankForm:
    """``Echelon``'s integer elimination of the {column: value} rows
    ``which`` (default all), last first, keeping no combinations, relations
    or reduced rows; a row of nonzero ints is taken as it is.  ``rows``
    lists the rows left nonzero, and ``kept`` their first nonzero columns in
    order: ``Echelon``'s kept columns (and, all rows taken, its pivots are
    ``rows``); that minor is nonsingular."""

    def __init__(self, rows, which=None):
        pivots, self.rows = {}, []
        for i in reversed(range(len(rows)) if which is None else which):
            v = rows[i]
            if not v:
                continue
            if all(type(x) is int for x in v.values()):
                rem = dict(v)
            else:
                s = lcm(*(x.denominator for x in v.values() if type(x) is not int))
                rem = {j: (x * s).numerator for j, x in v.items() if x}
            todo = [p for p in rem if p in pivots]
            heapify(todo)
            while todo:  # clearing a pivot brings in only later columns
                p = heappop(todo)
                if p in rem:
                    row = pivots[p]
                    a, f = row[p], rem[p]
                    g = gcd(a, f) if a > 0 else -gcd(a, f)
                    _axpy(rem, a // g, f // g, row)
                    for j in row:
                        if j in rem and j in pivots:
                            heappush(todo, j)
            if rem:
                g = gcd(*rem.values())
                pivots[min(rem)] = {j: x // g for j, x in rem.items()}
                self.rows.append(i)
        self.kept = sorted(pivots)


@record
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


def _subspace(ambient_dim: int, vectors) -> Subspace:
    return Subspace(ambient_dim, tuple(tuple(_frac(x) for x in v) for v in vectors))


def solve_particular(m: Matrix, b):
    """One exact solution of m x = b, or None when the system is unsolvable.

    Free variables are set to zero, so the result is deterministic.
    """
    if len(b) != m.rows:
        raise ValueError("right-hand side has wrong length")
    x = Echelon(m.columns()).solve({i: _frac(y) for i, y in enumerate(b) if y})
    return None if x is None else _dense(x, m.cols)


def invert(m: Matrix) -> Matrix:
    """Exact inverse of a square matrix; raises ValueError when singular."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    n = m.rows
    form = Echelon(m.columns())
    if len(form.kept) < n:
        raise ValueError("matrix is singular")
    rows = [{} for _ in range(n)]
    for j in range(n):
        for i, x in form.solve({j: 1}).items():
            rows[i][j] = x
    return Matrix.of_rows(n, n, rows)


def reduced_basis(sub: Subspace):
    """Basis of ``sub`` in reduced (column) echelon form, with pivot positions.

    Returned as (rows, pivots): ``rows[t]`` holds the {position: value}
    nonzeros of the t-th basis vector, ints where integral, 1 at
    ``pivots[t]`` and zero at the other pivots.
    """
    if sub.dim == 0:
        return [], []
    m = Matrix.from_rows([list(v) for v in sub.basis])
    r, pivots = rref(m)
    if len(pivots) != sub.dim:
        raise ValueError("subspace basis is linearly dependent")
    return r.row_maps[:len(pivots)], pivots


@record
class QuotientCoords:
    """Coordinates on ambient/sub induced by the standard-basis complement.

    ``projection`` maps the ambient space onto the quotient coordinates (its
    kernel is exactly the subspace); ``section`` is the right inverse picking
    the standard basis vectors at the non-pivot positions; ``sub_rows``
    holds the (position, value) nonzeros of each vector of the subspace
    basis in reduced echelon form, ints where integral, with ``pivots`` the
    pivot positions and ``complement`` the remaining positions.
    ``sub_basis`` is that basis as dense Fraction tuples, built on each read.
    """

    ambient_dim: int
    sub_rows: tuple
    pivots: tuple
    complement: tuple
    projection: Matrix
    section: Matrix

    @property
    def dim(self) -> int:
        return len(self.complement)

    @property
    def sub_basis(self) -> tuple:
        return tuple(tuple(_dense(dict(r), self.ambient_dim))
                     for r in self.sub_rows)

    @property
    def sub_coords(self) -> Matrix:
        """The coordinates of a vector in the echelon basis of the subspace:
        its entries at the pivots.

        Only valid on the subspace; callers certify that by checking that
        ``projection`` maps the vector to zero first.
        """
        return Matrix.of_rows(len(self.pivots), self.ambient_dim,
                              [{p: 1} for p in self.pivots])


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
    proj = Matrix.of_rows(len(complement), n, [
        {q: 1, **{p: -rows[t][q] for t, p in enumerate(pivots) if q in rows[t]}}
        for q in complement])
    at = {q: r_i for r_i, q in enumerate(complement)}
    sect = Matrix.of_rows(n, len(complement),
                          [{at[i]: 1} if i in at else {} for i in range(n)])
    return QuotientCoords(
        ambient_dim=n,
        sub_rows=tuple(tuple(sorted(r.items())) for r in rows),
        pivots=tuple(pivots),
        complement=tuple(complement),
        projection=proj,
        section=sect,
    )
