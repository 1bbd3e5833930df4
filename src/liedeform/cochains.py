"""Alternating multilinear maps in coordinates.

A k-cochain on an n-dimensional space with values in an m-dimensional carrier
is stored as a flat vector indexed by (k-subset, carrier index): subsets of
{0..n-1} are enumerated in lexicographic order and the carrier index varies
fastest, i.e. flat index = subset_position * m + carrier_index.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb


def subsets(n: int, k: int):
    """All k-subsets of {0..n-1} as sorted tuples, in lexicographic order."""
    if k < 0 or k > n:
        return []
    return list(combinations(range(n), k))


def subset_positions(n: int, k: int) -> dict:
    return {s: i for i, s in enumerate(subsets(n, k))}


def cochain_dim(n: int, k: int, m: int) -> int:
    if k < 0 or k > n:
        return 0
    return comb(n, k) * m


def insertion_sign(element: int, sorted_rest) -> tuple:
    """Sort (element, *rest) into ascending order.

    Returns (sign, sorted_tuple), or (0, None) when the element repeats, in
    which case an alternating map vanishes.
    """
    if element in sorted_rest:
        return 0, None
    pos = 0
    while pos < len(sorted_rest) and sorted_rest[pos] < element:
        pos += 1
    merged = tuple(sorted_rest[:pos]) + (element,) + tuple(sorted_rest[pos:])
    return (-1) ** pos, merged


@dataclass(frozen=True)
class AltMap:
    """Alternating k-linear map with values in an m-dimensional carrier."""

    degree: int
    domain_dim: int
    carrier_dim: int
    coeffs: tuple

    def __post_init__(self):
        expect = cochain_dim(self.domain_dim, self.degree, self.carrier_dim)
        if len(self.coeffs) != expect:
            raise ValueError(
                f"cochain vector has length {len(self.coeffs)}, expected {expect}")

    @classmethod
    def zero(cls, degree: int, domain_dim: int, carrier_dim: int) -> "AltMap":
        size = cochain_dim(domain_dim, degree, carrier_dim)
        return cls(degree, domain_dim, carrier_dim, (Fraction(0),) * size)

    @classmethod
    def from_flat(cls, degree: int, domain_dim: int, carrier_dim: int, coeffs) -> "AltMap":
        return cls(degree, domain_dim, carrier_dim,
                   tuple(Fraction(x) if not isinstance(x, Fraction) else x
                         for x in coeffs))

    @classmethod
    def from_values(cls, degree: int, domain_dim: int, carrier_dim: int, values: dict) -> "AltMap":
        """Build from a {sorted_subset: value_vector} dict; omitted subsets are zero."""
        size = cochain_dim(domain_dim, degree, carrier_dim)
        flat = [Fraction(0)] * size
        pos = subset_positions(domain_dim, degree)
        for s, vec in values.items():
            s = tuple(s)
            if len(vec) != carrier_dim:
                raise ValueError("value vector has wrong carrier length")
            base = pos[s] * carrier_dim
            for a, x in enumerate(vec):
                flat[base + a] = Fraction(x) if not isinstance(x, Fraction) else x
        return cls(degree, domain_dim, carrier_dim, tuple(flat))

    def value(self, subset) -> list:
        """Value on the basis tuple given by a sorted index subset."""
        pos = subset_positions(self.domain_dim, self.degree)[tuple(subset)]
        base = pos * self.carrier_dim
        return [self.coeffs[base + a] for a in range(self.carrier_dim)]

    def flat(self) -> list:
        return list(self.coeffs)

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.coeffs)

    def sup_abs(self) -> Fraction:
        """Largest absolute coefficient; exact defect magnitude for reports."""
        best = Fraction(0)
        for x in self.coeffs:
            ax = -x if x < 0 else x
            if ax > best:
                best = ax
        return best

    def add(self, other: "AltMap") -> "AltMap":
        self._check_compatible(other)
        return AltMap(self.degree, self.domain_dim, self.carrier_dim,
                      tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def sub(self, other: "AltMap") -> "AltMap":
        self._check_compatible(other)
        return AltMap(self.degree, self.domain_dim, self.carrier_dim,
                      tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, factor) -> "AltMap":
        f = Fraction(factor) if not isinstance(factor, Fraction) else factor
        return AltMap(self.degree, self.domain_dim, self.carrier_dim,
                      tuple(f * a for a in self.coeffs))

    def _check_compatible(self, other: "AltMap"):
        if (self.degree, self.domain_dim, self.carrier_dim) != \
                (other.degree, other.domain_dim, other.carrier_dim):
            raise ValueError("incompatible alternating maps")

    def nonzero_entries(self):
        """(subset, carrier_index, value) triples for every nonzero coefficient."""
        out = []
        m = self.carrier_dim
        for pos, s in enumerate(subsets(self.domain_dim, self.degree)):
            for a in range(m):
                x = self.coeffs[pos * m + a]
                if x != 0:
                    out.append((s, a, x))
        return out
