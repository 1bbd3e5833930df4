"""Alternating multilinear maps in coordinates.

A k-cochain on an n-dimensional space with values in an m-dimensional carrier
is indexed by (k-subset, carrier index): subsets of {0..n-1} are numbered in
the lexicographic order ``itertools.combinations(range(n), k)`` walks them,
read back by arithmetic in ``subset_position``, and the carrier index varies
fastest, i.e. flat index = subset_position * m + carrier_index.  No table of
subsets outlives the call that walks them: the differential and the pullback
map number a subset's bit mask, sum(1 << i for i in S), in a {mask: position}
dict of their own, made from sums over ``combinations`` of the bits 1 << i;
they take a face as ``M ^ (1 << i)``, test membership with ``M & bit``, and
count the elements below i with ``(M & ((1 << i) - 1)).bit_count()``.  An
``AltMap`` keeps only its nonzeros, {flat index: value}, as a ``Matrix``
keeps the nonzeros of its rows; the dense values of one subset are read with
``value``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb

from .exactlin import ZERO, _add_scaled, _exact, _frac
from .records import record


def subset_position(n: int, subset) -> int:
    """Position of a sorted subset of {0..n-1} among the subsets of its size,
    in ``combinations`` order, counted as C(n, k) - 1 minus the subsets that
    follow it.  KeyError for a tuple that is not such a subset."""
    s, k = tuple(subset), len(subset)
    if any(b <= a for a, b in zip(s, s[1:])) or s and not 0 <= s[0] <= s[-1] < n:
        raise KeyError(s)
    return comb(n, k) - 1 - sum(comb(n - 1 - x, k - i) for i, x in enumerate(s))


def cochain_dim(n: int, k: int, m: int) -> int:
    if k < 0 or k > n:
        return 0
    return comb(n, k) * m


@record
class AltMap:
    """Alternating k-linear map with values in an m-dimensional carrier, kept
    as ``nonzeros``: {flat index: value}, no zero value, ints where
    integral, treated as immutable."""

    degree: int
    domain_dim: int
    carrier_dim: int
    nonzeros: dict

    def __hash__(self):
        return hash((self.degree, self.domain_dim, self.carrier_dim,
                     frozenset(self.nonzeros.items())))

    @classmethod
    def of(cls, degree: int, domain_dim: int, carrier_dim: int, vec: dict) -> "AltMap":
        """From {flat index: int or Fraction}; zeros are dropped."""
        return cls(degree, domain_dim, carrier_dim,
                   {i: _exact(x) for i, x in vec.items() if x})

    @classmethod
    def from_blocks(cls, degree: int, domain_dim: int, carrier_dim: int,
                    blocks) -> "AltMap":
        """From the {carrier index: int or Fraction} values of every k-subset,
        in order."""
        m = carrier_dim
        return cls(degree, domain_dim, carrier_dim,
                   {p * m + a: _exact(x) for p, block in enumerate(blocks)
                    for a, x in block.items() if x})

    @classmethod
    def zero(cls, degree: int, domain_dim: int, carrier_dim: int) -> "AltMap":
        return cls(degree, domain_dim, carrier_dim, {})

    @classmethod
    def from_flat(cls, degree: int, domain_dim: int, carrier_dim: int, coeffs) -> "AltMap":
        """From the dense flat vector."""
        expect = cochain_dim(domain_dim, degree, carrier_dim)
        if len(coeffs) != expect:
            raise ValueError(
                f"cochain vector has length {len(coeffs)}, expected {expect}")
        return cls.of(degree, domain_dim, carrier_dim,
                      {i: _frac(x) for i, x in enumerate(coeffs)})

    @classmethod
    def from_values(cls, degree: int, domain_dim: int, carrier_dim: int, values: dict) -> "AltMap":
        """Build from a {sorted_subset: value_vector} dict; omitted subsets are
        zero.  KeyError for a subset that is not a sorted degree-subset."""
        vec = {}
        for s, v in values.items():
            if len(v) != carrier_dim:
                raise ValueError("value vector has wrong carrier length")
            if len(s) != degree:
                raise KeyError(tuple(s))
            base = subset_position(domain_dim, s) * carrier_dim
            vec.update((base + a, _frac(x)) for a, x in enumerate(v))
        return cls.of(degree, domain_dim, carrier_dim, vec)

    def value(self, subset) -> list:
        """Value on the basis tuple given by a sorted index subset, as a dense
        vector of Fractions.  KeyError for a subset that is not a sorted
        degree-subset."""
        if len(subset) != self.degree:
            raise KeyError(tuple(subset))
        base = subset_position(self.domain_dim, subset) * self.carrier_dim
        get = self.nonzeros.get
        return [_frac(get(base + a, ZERO)) for a in range(self.carrier_dim)]

    def is_zero(self) -> bool:
        return not self.nonzeros

    def sup_abs(self) -> Fraction:
        """Largest absolute coefficient; exact defect magnitude for reports."""
        return Fraction(max(map(abs, self.nonzeros.values()), default=0))

    def add_scaled(self, other: "AltMap", factor) -> "AltMap":
        """self + factor * other."""
        if (self.degree, self.domain_dim, self.carrier_dim) != \
                (other.degree, other.domain_dim, other.carrier_dim):
            raise ValueError("incompatible alternating maps")
        return AltMap(self.degree, self.domain_dim, self.carrier_dim,
                      _add_scaled(self.nonzeros, other.nonzeros, factor))

    def add(self, other: "AltMap") -> "AltMap":
        return self.add_scaled(other, 1)

    def sub(self, other: "AltMap") -> "AltMap":
        return self.add_scaled(other, -1)

    def scale(self, factor) -> "AltMap":
        f = _frac(factor)
        return AltMap.of(self.degree, self.domain_dim, self.carrier_dim,
                         {i: f * x for i, x in self.nonzeros.items()})

    def post_compose(self, a) -> "AltMap":
        """a o self: each value mapped by the ``Matrix`` a, whose columns are
        the carrier's coordinates."""
        m, r, cols, acc = self.carrier_dim, a.rows, a.columns(), {}
        for i, x in self.nonzeros.items():
            p, b = divmod(i, m)
            for c, y in cols[b].items():
                acc[p * r + c] = acc.get(p * r + c, 0) + y * x
        return AltMap.of(self.degree, self.domain_dim, r, acc)

    def nonzero_entries(self):
        """(subset, carrier_index, value) triples for every nonzero
        coefficient, in flat order."""
        m, nonzeros = self.carrier_dim, sorted(self.nonzeros.items())
        table = list(combinations(range(self.domain_dim), self.degree))
        return [(table[i // m], i % m, x) for i, x in nonzeros]
