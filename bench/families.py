"""Seeded generators for the benchmark's Lie algebras, homomorphisms and
subalgebras, built only through liedeform's public API.

Every generated object is the standard one of its family after a seeded
signed change of basis e_i -> s_i e_i (s_i = +-1).  The sign flip changes
every input the program sees, but neither the cohomology (so one answer
table serves every seed) nor the elimination work (pivots and entry sizes
are the same up to sign), which keeps timings comparable across seeds.
"""

from __future__ import annotations

import random
from fractions import Fraction

from liedeform import (BracketCandidate, Homomorphism, subalgebra_witness,
                       validate_bracket, validate_homomorphism)
from liedeform.exactlin import Matrix, solve_particular


class Signs:
    """One +-1 per basis vector of every generated algebra, drawn from the
    workload seed in a fixed order so that the same seed gives the same
    inputs."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._by_name = {}

    def of(self, name: str, dim: int) -> list:
        if name not in self._by_name:
            self._by_name[name] = [self._rng.choice((1, -1)) for _ in range(dim)]
        return self._by_name[name]


def _algebra(name, dim, brackets, signs, basis=None):
    """Validate {(i, j): {k: coeff}} after the signed change of basis:
    [s_i e_i, s_j e_j] = s_i s_j c_ijk e_k = (s_i s_j s_k c_ijk) (s_k e_k)."""
    s = signs.of(name, dim) if signs is not None else [1] * dim
    entries = {}
    for (i, j), terms in brackets.items():
        vec = [Fraction(0)] * dim
        for k, coeff in terms.items():
            vec[k] += s[i] * s[j] * s[k] * Fraction(coeff)
        entries[(i, j)] = vec
    cand = BracketCandidate.from_entries(dim, entries)
    return validate_bracket(cand, basis=basis, name=name)


def abelian(n, signs=None):
    return _algebra(f"abelian_{n}", n, {}, signs)


def heisenberg(m, signs=None):
    """heis_{2m+1}: p_1..p_m, q_1..q_m, z with [p_i, q_i] = z."""
    n = 2 * m + 1
    brackets = {(i, m + i): {n - 1: 1} for i in range(m)}
    basis = ([f"p{i + 1}" for i in range(m)] + [f"q{i + 1}" for i in range(m)]
             + ["z"])
    return _algebra(f"heis_{n}", n, brackets, signs, basis)


def filiform(n, signs=None):
    """L_n: e0..e(n-1) with [e0, ei] = e(i+1) for 1 <= i <= n-2."""
    brackets = {(0, i): {i + 1: 1} for i in range(1, n - 1)}
    return _algebra(f"L_{n}", n, brackets, signs)


def _matrix_units(n):
    """Structure constants of gl_n in the basis E_ab, index a*n + b."""
    idx = lambda a, b: a * n + b  # noqa: E731
    brackets = {}
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    i, j = idx(a, b), idx(c, d)
                    if i >= j:
                        continue
                    terms = {}
                    if b == c:
                        terms[idx(a, d)] = terms.get(idx(a, d), 0) + 1
                    if d == a:
                        terms[idx(c, b)] = terms.get(idx(c, b), 0) - 1
                    terms = {k: v for k, v in terms.items() if v}
                    if terms:
                        brackets[(i, j)] = terms
    return brackets


def gl(n, signs=None):
    basis = [f"E{a + 1}{b + 1}" for a in range(n) for b in range(n)]
    return _algebra(f"gl_{n}", n * n, _matrix_units(n), signs, basis)


def _cartan(n):
    """H_i = E_ii - E_(i+1)(i+1) as coordinate vectors over E_ab of gl_n."""
    vecs = []
    for i in range(n - 1):
        v = [0] * (n * n)
        v[i * n + i], v[(i + 1) * n + i + 1] = 1, -1
        vecs.append(v)
    return vecs, [f"H{i + 1}" for i in range(n - 1)]


def _inside_gl(name, n, pairs, signs):
    """The subalgebra of gl_n spanned by the Cartan H_i and the E_ab for
    (a, b) in ``pairs``, with structure constants solved in that basis."""
    g = gl(n)
    vecs, names = _cartan(n)
    for a, b in pairs:
        vecs.append(_unit(n * n, (a * n + b, 1)))
        names.append(f"E{a + 1}{b + 1}")
    span = Matrix.from_columns(vecs, rows=n * n)
    brackets = {}
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            w = g.bracket(vecs[i], vecs[j])
            if any(w):
                coords = solve_particular(span, w)
                brackets[(i, j)] = {k: c for k, c in enumerate(coords) if c}
    return _algebra(name, len(vecs), brackets, signs, names)


def borel(n, signs=None):
    """b(sl_n): upper-triangular traceless matrices; basis H_i, then E_ab
    for a < b in row order."""
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return _inside_gl(f"b(sl_{n})", n, pairs, signs)


def sl(n, signs=None):
    """sl_n; basis H_i, then E_ab for a != b in row order."""
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    return _inside_gl(f"sl_{n}", n, pairs, signs)


def _hom(name, source, target, columns, signs):
    """Homomorphism with the given images of the standard source basis,
    rewritten in both signed bases: rho' = S_target rho S_source."""
    ss = signs.of(source.name, source.dim) if signs is not None else [1] * source.dim
    st = signs.of(target.name, target.dim) if signs is not None else [1] * target.dim
    cols = [[st[r] * ss[j] * Fraction(x) for r, x in enumerate(col)]
            for j, col in enumerate(columns)]
    rho = Homomorphism(source, target, Matrix.from_columns(cols, rows=target.dim),
                       name=name)
    return validate_homomorphism(rho)


def _unit(dim, *pairs):
    v = [0] * dim
    for k, c in pairs:
        v[k] = c
    return v


def heis3_to_heis5(signs=None):
    """p -> p1, q -> q1, z -> z."""
    src, tgt = heisenberg(1, signs), heisenberg(2, signs)
    cols = [_unit(5, (0, 1)), _unit(5, (2, 1)), _unit(5, (4, 1))]
    return _hom("heis3-in-heis5", src, tgt, cols, signs)


def borel2_to_borel3(signs=None):
    """b(sl_2) -> b(sl_3): H -> H1, E12 -> E12."""
    src, tgt = borel(2, signs), borel(3, signs)
    cols = [_unit(5, (0, 1)), _unit(5, (2, 1))]
    return _hom("bsl2-in-bsl3", src, tgt, cols, signs)


def sl2_to_gl2(signs=None):
    """sl_2 (basis H1, E12, E21) -> gl_2: H1 -> E11 - E22, E12 -> E12,
    E21 -> E21."""
    src, tgt = sl(2, signs), gl(2, signs)
    cols = [_unit(4, (0, 1), (3, -1)), _unit(4, (1, 1)), _unit(4, (2, 1))]
    return _hom("sl2-in-gl2", src, tgt, cols, signs)


def _sub(name, g, vectors, signs):
    s = signs.of(g.name, g.dim) if signs is not None else [1] * g.dim
    return subalgebra_witness(g, [[s[k] * x for k, x in enumerate(v)]
                                  for v in vectors], name=name)


def centre_of_heis(m, signs=None):
    g = heisenberg(m, signs)
    return _sub(f"centre-of-heis_{2 * m + 1}", g, [_unit(g.dim, (g.dim - 1, 1))],
                signs)


def nilradical_of_borel3(signs=None):
    """span{E12, E13, E23} inside b(sl_3)."""
    g = borel(3, signs)
    return _sub("nilradical-of-bsl3", g,
                [_unit(5, (2, 1)), _unit(5, (3, 1)), _unit(5, (4, 1))], signs)


def borel3_in_sl3(signs=None):
    """b(sl_3) inside sl_3, where sl_3 is the traceless part of gl_3 in the
    basis H1, H2, E_ab (a != b)."""
    g = sl(3, signs)
    vecs = [_unit(8, (0, 1)), _unit(8, (1, 1)), _unit(8, (2, 1)),
            _unit(8, (3, 1)), _unit(8, (5, 1))]
    return _sub("bsl3-in-sl3", g, vecs, signs)
