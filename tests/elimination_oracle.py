"""Standalone cohomology oracle for the acceptance tests.

Shares no code with the package under test.  Differential matrices are
enumerated directly from the cochain-differential definition using a
sort-with-parity evaluator (instead of the package's insertion signs
counted on bit masks), and ranks come from integer fraction-free Bareiss elimination with a
reversed pivot scan (instead of the package's fraction row reduction with
forward pivoting).  Dimensions follow from rank-nullity alone:

    dim H^k = dim C^k - rank d^k - rank d^(k-1).
"""

from fractions import Fraction
from itertools import combinations
from math import comb


def sort_with_parity(seq):
    """Sort a tuple of indices, counting transpositions.

    Returns (sign, sorted_tuple); (0, None) when two indices coincide.
    """
    items = list(seq)
    sign = 1
    for i in range(len(items)):
        for j in range(len(items) - 1 - i):
            if items[j] > items[j + 1]:
                items[j], items[j + 1] = items[j + 1], items[j]
                sign = -sign
    for a, b in zip(items, items[1:]):
        if a == b:
            return 0, None
    return sign, tuple(items)


def bareiss_rank(rows):
    """Rank of an exact rational matrix via integer Bareiss elimination.

    Each row is first scaled to integers (rank is unchanged); elimination
    keeps every intermediate value an exact integer, and the pivot scan runs
    bottom-up so the path through the matrix differs from ordinary row
    reduction.
    """
    work = []
    for row in rows:
        denom_lcm = 1
        for x in row:
            f = Fraction(x)
            denom_lcm = denom_lcm * f.denominator // _gcd(denom_lcm, f.denominator)
        ints = [int(Fraction(x) * denom_lcm) for x in row]
        if any(ints):
            work.append(ints)
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    prev = 1
    r = 0
    for c in range(ncols):
        pivot = None
        for rr in range(len(work) - 1, r - 1, -1):
            if work[rr][c] != 0:
                pivot = rr
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for rr in range(r + 1, len(work)):
            for cc in range(c + 1, ncols):
                work[rr][cc] = (work[r][c] * work[rr][cc]
                                - work[rr][c] * work[r][cc]) // prev
            work[rr][c] = 0
        prev = work[r][c]
        rank += 1
        r += 1
        if r == len(work):
            break
    return rank


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def _basis_cochain_value(subset, carrier, args, arg_carrier):
    """Value of the basis cochain (subset, carrier) on possibly unsorted
    arguments, at the given carrier component."""
    if carrier != arg_carrier:
        return Fraction(0)
    sign, sorted_args = sort_with_parity(args)
    if sorted_args != subset:
        return Fraction(0)
    return Fraction(sign)


def differential_entries(k, n, m, c, action):
    """Matrix of d^k: C^k -> C^(k+1) for an n-dim acting algebra with
    structure constants c[i][j][r] on an m-dim carrier with action matrices
    action[i][b][a] (component b of e_i acting on carrier basis a).

    Rows are indexed by ((k+1)-subset, carrier component), columns by
    (k-subset, carrier component), both in lexicographic subset order with
    the carrier index fastest.
    """
    cols = [(s, a) for s in combinations(range(n), k) for a in range(m)]
    rows = [(t, b) for t in combinations(range(n), k + 1) for b in range(m)]
    col_pos = {key: idx for idx, key in enumerate(cols)}
    matrix = [[Fraction(0)] * len(cols) for _ in rows]
    for ridx, (t, b) in enumerate(rows):
        for pos, i in enumerate(t):
            rest = t[:pos] + t[pos + 1:]
            term_sign = Fraction(-1) ** pos
            for a in range(m):
                coeff = action[i][b][a]
                if coeff:
                    cidx = col_pos.get((rest, a))
                    if cidx is not None:
                        matrix[ridx][cidx] += term_sign * coeff
        for p in range(len(t)):
            for q in range(p + 1, len(t)):
                i, j = t[p], t[q]
                rest = tuple(x for idx, x in enumerate(t) if idx not in (p, q))
                pair_sign = Fraction(-1) ** (p + q)
                for r in range(n):
                    coeff = c[i][j][r]
                    if not coeff:
                        continue
                    for (s, a) in col_pos:
                        if a != b:
                            continue
                        val = _basis_cochain_value(s, a, (r,) + rest, b)
                        if val:
                            matrix[ridx][col_pos[(s, a)]] += pair_sign * coeff * val
    return matrix


def adjoint_action(c, n):
    """Action matrices of the algebra on itself: row b, column a of e_i's
    matrix is the e_b component of [e_i, e_a]."""
    return [[[c[i][a][b] for a in range(n)] for b in range(n)]
            for i in range(n)]


def oracle_cohomology_dims(c, n):
    """All adjoint cohomology dimensions (degree 0..n) plus the per-degree
    differential ranks, computed exclusively with the oracle machinery."""
    action = adjoint_action(c, n)
    ranks = []
    for k in range(n):
        ranks.append(bareiss_rank(differential_entries(k, n, n, c, action)))
    ranks.append(0)  # d^n maps into the zero space
    dims = []
    for k in range(n + 1):
        ck = comb(n, k) * n
        below = ranks[k - 1] if k > 0 else 0
        dims.append(ck - ranks[k] - below)
    return dims, ranks
