"""Exact linear algebra over the rationals.

``Matrix`` is the one rational matrix: it keeps the nonzeros of each row
as a {column: value} dict (``row_maps``), ints where integral, and its
``data`` is a fresh dense copy.  ``RankForm`` is the one elimination: a
fraction-free reduction of a matrix's rows, each an integer vector (a
rational row is first scaled by its common denominator) reduced by one
method, ``reduce``, that keeps its integer scale.  Ranks are read from its
kept columns and kernel vectors by back-substitution; ``rref`` from the
kernel vectors of the free columns, and a subspace's quotient coordinates
(``quotient_coords``) from the ``rref`` of its basis; ``solve`` and
``solve_particular`` from the form of the rows augmented with -b, and
``invert`` with -I.  All of it is exact, with no tolerance, so ranks agree
with those over the reals.  Matrices act on column vectors; ``Matrix.apply``
and ``solve`` take and give {position: value} nonzeros, ``solve_particular``
plain lists.  Values are treated as immutable once built.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import cached_property
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
    {column: value} dict, values ints where integral; immutable once built,
    so its ``columns`` are kept.  ``data`` is a fresh dense Fraction copy."""

    __slots__ = ("rows", "cols", "row_maps", "_columns")

    def __init__(self, rows: int, cols: int, data=None):
        if data is not None and (len(data) != rows
                                 or any(len(r) != cols for r in data)):
            raise ValueError("matrix data does not match declared shape")
        self.rows, self.cols, self._columns = rows, cols, None
        self.row_maps = [{} for _ in range(rows)] if data is None else [
            {j: _exact(y) for j, x in enumerate(r) if (y := _frac(x))}
            for r in data]

    @classmethod
    def of_rows(cls, rows: int, cols: int, row_maps) -> "Matrix":
        """The matrix whose rows hold the {column: value} nonzeros
        ``row_maps``, taken as they are (no zero value)."""
        m = cls.__new__(cls)
        m.rows, m.cols, m.row_maps, m._columns = rows, cols, row_maps, None
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
        """The {row: value} nonzeros of each column, built on first read and
        kept: shared by every reader, so read-only."""
        if self._columns is None:
            self._columns = cols = [{} for _ in range(self.cols)]
            for i, row in enumerate(self.row_maps):
                for j, x in row.items():
                    cols[j][i] = x
        return self._columns

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
        check; an empty row of ``self`` is skipped, its product being 0."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        acc, rows = {}, other.row_maps
        for row in filter(None, self.row_maps):
            for k, a in row.items():
                for j, b in rows[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            if any(acc.values()):
                return False
            acc.clear()
        return True

    def apply(self, vec: dict) -> dict:
        """The {row: value} nonzeros, in row order, of this matrix times the
        {column: value} nonzeros ``vec``, summed over those columns only."""
        cols, acc = self.columns(), {}
        for j, x in vec.items():
            for i, y in cols[j].items():
                acc[i] = acc.get(i, 0) + y * x
        return {i: _exact(acc[i]) for i in sorted(acc) if acc[i]}

    def add_scaled(self, other: "Matrix", factor) -> "Matrix":
        """self + factor * other."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix sum")
        return Matrix.of_rows(self.rows, self.cols, [
            _add_scaled(mine, theirs, factor)
            for mine, theirs in zip(self.row_maps, other.row_maps)])

    def is_zero(self) -> bool:
        return not any(self.row_maps)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.row_maps == other.row_maps)

    def __hash__(self):
        return hash((self.rows, self.cols,
                     tuple(frozenset(r.items()) for r in self.row_maps)))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


def rref(m: Matrix):
    """(R, pivot columns) for the reduced row echelon form R, read from the
    ``RankForm`` of the rows: row t is 1 at the t-th kept column p_t, and at
    each free column f it holds minus the entry at p_t of f's kernel vector
    (column f is that combination of the kept columns)."""
    form = RankForm(m.row_maps, keep=True)
    r = {p: {p: 1} for p in form.kept}
    for f in form.free(range(m.cols)):
        for p, x in form.null_vector(f).items():
            if p != f:
                r[p][f] = -x
    return Matrix.of_rows(m.rows, m.cols, [*r.values()] + [
        {} for _ in range(m.rows - len(r))]), form.kept


def rank(m: Matrix) -> int:
    return len(RankForm(m.row_maps).kept)


class RankForm:
    """The one exact elimination: the {column: value} rows ``which`` (default
    all) are reduced in integers, last first, each against the rows kept so
    far (``reduce``); an empty row is passed over, since it can add no
    pivot, and a row of ints at no kept pivot is its own remainder,
    kept as it is (shared, never written to), and a rational one is first
    scaled by its common denominator.  A row left nonzero is kept, divided
    by the gcd of its entries unless that is 1, with its first nonzero
    column as its pivot: ``rows`` lists the kept rows, and ``kept`` their
    pivots, the pivot columns of the reduced row echelon form.  ``keep``
    keeps the reduced rows (``pivots``: {pivot: row}), for ``reduce`` and
    the kernel vectors of ``null_vector``.  ``ints``, passed only by a caller
    that knows it, says the rows hold ints only: none is scanned for a
    Fraction.  Unchecked: the rows and the vectors given to ``reduce`` hold
    nonzeros only (a zero is no pivot)."""

    def __init__(self, rows, which=None, keep=False, ints=False):
        self.pivots, self.rows = {}, []
        for i in reversed(range(len(rows)) if which is None else which):
            # an empty row can add no pivot, and a row of ints at no kept
            # pivot is its own remainder
            rem = rows[i]
            if rem and (not self.pivots.keys().isdisjoint(rem) or not ints
                        and any(type(x) is not int for x in rem.values())):
                rem = self.reduce(rem, ints)[1]
            if rem:
                g = gcd(*rem.values())
                self.pivots[min(rem)] = rem if g == 1 else {
                    j: x // g for j, x in rem.items()}
                self.rows.append(i)
        self.kept = sorted(self.pivots)
        if not keep:
            del self.pivots
            return
        self._users = {}  # {column: [(pivot, entry) of each row holding it]}
        for p, row in self.pivots.items():
            for j, v in row.items():
                if j != p:
                    self._users.setdefault(j, []).append((p, v))

    def reduce(self, v: dict, ints=False) -> tuple:
        """(s, w) in integers with s * v - w in the span of the rows, s > 0
        and the remainder w zero at every pivot, for the {column: value}
        nonzeros v; w is zero exactly when v is in the span.  s starts as the
        common denominator of v, unless ``ints`` says v holds ints only.
        The pivots are cleared first to last: a row is zero before its
        pivot, so clearing one brings in only later columns."""
        if ints or all(type(x) is int for x in v.values()):
            s, rem = 1, dict(v)
        else:
            s = lcm(*(x.denominator for x in v.values() if type(x) is not int))
            rem = {j: (x * s).numerator for j, x in v.items() if x}
        pivots = self.pivots
        todo = [p for p in rem if p in pivots]
        heapify(todo)
        while todo:
            p = heappop(todo)
            if p in rem:  # rem = m * rem - h * row
                row = pivots[p]
                a, f = row[p], rem[p]
                g = gcd(a, f) if a > 0 else -gcd(a, f)
                m, h = a // g, f // g
                if m != 1:
                    s *= m
                    for j in rem:
                        rem[j] *= m
                for j, x in row.items():
                    if y := rem.get(j, 0) - h * x:
                        rem[j] = y
                        if j in pivots:
                            heappush(todo, j)
                    else:
                        del rem[j]
        return s, rem

    def free(self, columns) -> list:
        """The columns among ``columns`` that were not kept."""
        kept = set(self.kept)
        return [j for j in columns if j not in kept]

    def null_vector(self, f: int) -> dict:
        """The kernel vector that is 1 at the free column f and 0 at the
        others, as {column: value} nonzeros in order: back-substituted from
        the last pivot down over only the rows f reaches (Gilbert and
        Peierls, SIAM J. Sci. Stat. Comput. 9, 1988), each entry scattered
        into the sums of the rows holding it, over one denominator s."""
        users, reached, todo = self._users, set(), [f]
        while todo:
            new = {p for p, _ in users.get(todo.pop(), ())} - reached
            reached |= new
            todo += new
        x, s, sums = {f: 1}, 1, dict(users.get(f, ()))
        for p in sorted(reached, reverse=True):
            if t := sums.pop(p, 0):
                a = self.pivots[p][p]
                g = gcd(a, t) if a > 0 else -gcd(a, t)
                if a != g:
                    s *= a // g
                    x = {j: y * (a // g) for j, y in x.items()}
                    sums = {q: y * (a // g) for q, y in sums.items()}
                x[p] = y = -t // g
                for q, v in users.get(p, ()):
                    sums[q] = sums.get(q, 0) + v * y
        if s != 1:
            x = {j: _exact(Fraction(y, s)) for j, y in x.items()}
        return dict(sorted(x.items()))


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


def solve(m: Matrix, b: dict) -> dict | None:
    """The {column: value} nonzeros of the solution of m x = b with free
    variables zero, for b given as its {row: value} entries (only its
    nonzeros are read: a ``RankForm`` row holds no zero); None when there
    is none.  Read from the ``RankForm`` of [m | -b]: b is in the column
    space exactly when the extra column is free, and then x is that column's
    kernel vector without its last entry."""
    n = m.cols
    form = RankForm([{**row, n: -b[i]} if b.get(i) else row
                     for i, row in enumerate(m.row_maps)], keep=True)
    return None if n in form.pivots else {
        j: x for j, x in form.null_vector(n).items() if j < n}


def solve_particular(m: Matrix, b):
    """The exact solution of m x = b with free variables zero, or None."""
    if len(b) != m.rows:
        raise ValueError("right-hand side has wrong length")
    x = solve(m, {i: _frac(y) for i, y in enumerate(b) if y})
    return None if x is None else _dense(x, m.cols)


def invert(m: Matrix) -> Matrix:
    """Exact inverse of a square matrix; raises ValueError when singular.
    Column j is read from the ``RankForm`` of [m | -I]: the kernel vector
    at its extra column n + j, once all of m's columns are kept."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    n = m.rows
    form = RankForm([{**row, n + i: -1} for i, row in enumerate(m.row_maps)],
                    keep=True)
    if form.kept != list(range(n)):
        raise ValueError("matrix is singular")
    rows = [{} for _ in range(n)]
    for j in range(n):
        for i, x in form.null_vector(n + j).items():
            if i < n:
                rows[i][j] = x
    return Matrix.of_rows(n, n, rows)


@record
class QuotientCoords:
    """Coordinates on ambient/sub from the standard-basis complement.
    ``projection`` maps the ambient space onto them (its kernel is the
    subspace), and ``section`` is its right inverse at the ``complement``
    positions.  ``sub_rows`` holds the (position, value) nonzeros, ints where
    integral, of the subspace basis in reduced echelon form, with pivots
    ``pivots``; ``sub_basis`` is that basis as dense Fraction tuples, built
    on first read and kept."""

    ambient_dim: int
    sub_rows: tuple
    pivots: tuple
    complement: tuple
    projection: Matrix
    section: Matrix

    @property
    def dim(self) -> int:
        return len(self.complement)

    @cached_property
    def sub_basis(self) -> tuple:
        return tuple(tuple(_dense(dict(r), self.ambient_dim))
                     for r in self.sub_rows)

    @cached_property
    def sub_coords(self) -> Matrix:
        """Coordinates in the echelon basis, its entries at the pivots: valid
        on the subspace only, which callers check with ``projection``; kept."""
        return Matrix.of_rows(len(self.pivots), self.ambient_dim,
                              [{p: 1} for p in self.pivots])


def quotient_coords(sub: Subspace) -> QuotientCoords:
    """Quotient coordinates, read from the ``rref`` of the basis (refused,
    ValueError, when dependent): the complement of the reduced echelon basis
    is spanned by the standard basis vectors off its pivots, and the
    projection subtracts the unique subspace component."""
    n, rows, pivots = sub.ambient_dim, [], []
    if sub.dim:  # no basis, no reduction
        r, pivots = rref(Matrix.from_rows([list(v) for v in sub.basis]))
        if len(pivots) != sub.dim:
            raise ValueError("subspace basis is linearly dependent")
        rows = r.row_maps[:sub.dim]
    pivot_set = set(pivots)
    complement = [j for j in range(n) if j not in pivot_set]
    proj = Matrix.of_rows(len(complement), n, [
        {q: 1, **{p: -rows[t][q] for t, p in enumerate(pivots) if q in rows[t]}}
        for q in complement])
    at = {q: r_i for r_i, q in enumerate(complement)}
    sect = Matrix.of_rows(n, len(complement),
                          [{at[i]: 1} if i in at else {} for i in range(n)])
    return QuotientCoords(n, tuple(tuple(sorted(r.items())) for r in rows),
                          tuple(pivots), tuple(complement), proj, sect)
