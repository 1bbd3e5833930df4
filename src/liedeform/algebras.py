"""Lie algebras over the rationals: bracket candidates, validation,
homomorphisms, subalgebra witnesses and the three coefficient systems
(adjoint, pullback along a homomorphism, quotient by a subalgebra).

A bracket candidate on an n-dimensional space is the structure-constant
tensor c[i][j][k] with bracket(e_i, e_j) = sum_k c[i][j][k] e_k.  Validation
checks antisymmetry and the Jacobi identity exactly and reports the first
violating pair/triple together with the exact defect vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .cochains import AltMap
from .exactlin import (Matrix, QuotientCoords, Subspace, _frac, _subspace,
                       quotient_coords, rank)


class ValidationError(ValueError):
    """A structural validation failed; carries a machine-readable report."""

    def __init__(self, message: str, kind: str, location, defect):
        super().__init__(message)
        self.kind = kind
        self.location = location
        self.defect = defect

    def report(self) -> dict:
        return {"kind": self.kind, "location": list(self.location),
                "defect": [str(x) for x in self.defect]}


@dataclass(frozen=True)
class BracketCandidate:
    """Antisymmetric bilinear candidate bracket in structure constants."""

    dim: int
    c: tuple  # c[i][j][k], full (not i<j only) tensor

    @classmethod
    def from_tensor(cls, tensor) -> "BracketCandidate":
        n = len(tensor)
        c = tuple(tuple(tuple(_frac(x) for x in row) for row in plane)
                  for plane in tensor)
        for plane in c:
            if len(plane) != n or any(len(row) != n for row in plane):
                raise ValueError("structure tensor must be n x n x n")
        return cls(n, c)

    @classmethod
    def from_entries(cls, dim: int, entries: dict) -> "BracketCandidate":
        """Build from {(i, j): value_vector}; the (j, i) values are filled
        antisymmetrically unless given explicitly."""
        tensor = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
        seen = set()
        for (i, j), vec in entries.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"bracket entry index ({i},{j}) out of range")
            if len(vec) != dim:
                raise ValueError(f"bracket entry ({i},{j}) has wrong length")
            tensor[i][j] = [_frac(x) for x in vec]
            seen.add((i, j))
        for (i, j) in list(seen):
            if (j, i) not in seen:
                tensor[j][i] = [-x for x in tensor[i][j]]
        return cls.from_tensor(tensor)

    @classmethod
    def zero(cls, dim: int) -> "BracketCandidate":
        return cls.from_tensor([[[0] * dim for _ in range(dim)] for _ in range(dim)])

    def basis_bracket(self, i: int, j: int) -> list:
        return list(self.c[i][j])

    def bracket(self, u, v) -> list:
        """Bracket of coordinate vectors."""
        n = self.dim
        out = [Fraction(0)] * n
        for i in range(n):
            ui = _frac(u[i])
            if ui == 0:
                continue
            for j in range(n):
                vj = _frac(v[j])
                if vj == 0:
                    continue
                cij = self.c[i][j]
                for k in range(n):
                    if cij[k] != 0:
                        out[k] += ui * vj * cij[k]
        return out

    def antisymmetry_violation(self):
        """First (i, j) with c[i][j] != -c[j][i] (including the diagonal)."""
        n = self.dim
        for i in range(n):
            for j in range(i, n):
                defect = [self.c[i][j][k] + self.c[j][i][k] for k in range(n)]
                if any(x != 0 for x in defect):
                    return (i, j), defect
        return None

    def jacobiator_value(self, i: int, j: int, k: int) -> list:
        """[[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j]."""
        n = self.dim
        e = [[Fraction(1) if a == b else Fraction(0) for b in range(n)]
             for a in range(n)]
        t1 = self.bracket(self.basis_bracket(i, j), e[k])
        t2 = self.bracket(self.basis_bracket(j, k), e[i])
        t3 = self.bracket(self.basis_bracket(k, i), e[j])
        return [a + b + c for a, b, c in zip(t1, t2, t3)]

    def jacobi_violation(self):
        """First triple i<j<k with nonzero Jacobiator, or None."""
        for (i, j, k) in combinations(range(self.dim), 3):
            defect = self.jacobiator_value(i, j, k)
            if any(x != 0 for x in defect):
                return (i, j, k), defect
        return None

    def as_altmap(self) -> AltMap:
        values = {(i, j): self.c[i][j] for (i, j) in combinations(range(self.dim), 2)}
        return AltMap.from_values(2, self.dim, self.dim, values)

    @classmethod
    def from_altmap(cls, m: AltMap) -> "BracketCandidate":
        if m.degree != 2 or m.domain_dim != m.carrier_dim:
            raise ValueError("need a 2-cochain with carrier equal to the domain")
        entries = {s: m.value(s) for s in combinations(range(m.domain_dim), 2)}
        return cls.from_entries(m.domain_dim, entries)

    def add_scaled(self, other: "BracketCandidate", factor) -> "BracketCandidate":
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        f = _frac(factor)
        tensor = [[[self.c[i][j][k] + f * other.c[i][j][k]
                    for k in range(self.dim)]
                   for j in range(self.dim)]
                  for i in range(self.dim)]
        return BracketCandidate.from_tensor(tensor)


@dataclass(frozen=True)
class LieAlgebra:
    """A validated bracket with named basis vectors."""

    name: str
    dim: int
    basis: tuple
    candidate: BracketCandidate

    @property
    def c(self):
        return self.candidate.c

    def bracket(self, u, v):
        return self.candidate.bracket(u, v)

    def basis_bracket(self, i, j):
        return self.candidate.basis_bracket(i, j)


def validate_bracket(candidate: BracketCandidate, basis=None,
                     name: str = "anonymous") -> LieAlgebra:
    """Check antisymmetry and Jacobi exactly; raise ValidationError with the
    first violating location and defect vector on failure."""
    n = candidate.dim
    if basis is None:
        basis = tuple(f"e{i}" for i in range(n))
    basis = tuple(basis)
    if len(basis) != n:
        raise ValueError("basis name list has wrong length")
    anti = candidate.antisymmetry_violation()
    if anti is not None:
        loc, defect = anti
        raise ValidationError(
            f"antisymmetry fails at ({basis[loc[0]]},{basis[loc[1]]})",
            "antisymmetry", loc, defect)
    jac = candidate.jacobi_violation()
    if jac is not None:
        loc, defect = jac
        names = ",".join(basis[i] for i in loc)
        raise ValidationError(
            f"Jacobi identity fails on ({names})", "jacobi", loc, defect)
    return LieAlgebra(name=name, dim=n, basis=basis, candidate=candidate)


def ad_matrix(candidate: BracketCandidate, vec) -> Matrix:
    """Matrix of u -> bracket(vec, u)."""
    n = candidate.dim
    m = Matrix.zeros(n, n)
    for i in range(n):
        vi = _frac(vec[i])
        if vi == 0:
            continue
        for j in range(n):
            cij = candidate.c[i][j]
            for k in range(n):
                if cij[k] != 0:
                    m.data[k][j] += vi * cij[k]
    return m


# ---------------------------------------------------------------------------
# homomorphisms

@dataclass(frozen=True)
class Homomorphism:
    """Linear map between Lie algebras, columns = images of source basis."""

    source: LieAlgebra
    target: LieAlgebra
    matrix: Matrix
    name: str = "anonymous"

    def __post_init__(self):
        if self.matrix.rows != self.target.dim or self.matrix.cols != self.source.dim:
            raise ValueError("homomorphism matrix has wrong shape")

    def image_of_basis(self, j: int) -> list:
        return self.matrix.column(j)

    def apply(self, vec) -> list:
        return self.matrix.apply(vec)


def curvature(hom: Homomorphism) -> AltMap:
    """K(phi)(u,v) = [phi(u),phi(v)] - phi([u,v]); zero iff phi is a
    homomorphism.  Defined for arbitrary linear maps."""
    h, g = hom.source, hom.target
    values = {}
    for (i, j) in combinations(range(h.dim), 2):
        lhs = g.bracket(hom.image_of_basis(i), hom.image_of_basis(j))
        rhs = hom.apply(h.basis_bracket(i, j))
        values[(i, j)] = [a - b for a, b in zip(lhs, rhs)]
    return AltMap.from_values(2, h.dim, g.dim, values)


def validate_homomorphism(hom: Homomorphism) -> Homomorphism:
    """Raise ValidationError with the first pair where curvature is nonzero."""
    k = curvature(hom)
    for (i, j) in combinations(range(hom.source.dim), 2):
        defect = k.value((i, j))
        if any(x != 0 for x in defect):
            raise ValidationError(
                f"curvature nonzero on basis pair ({i},{j})",
                "curvature", (i, j), defect)
    return hom


# ---------------------------------------------------------------------------
# subalgebras

@dataclass(frozen=True)
class SubalgebraWitness:
    """A subspace certified closed under the ambient bracket.

    Downstream coordinates use the reduced echelon basis of the subspace and
    the standard-basis complement for the quotient.
    """

    ambient: LieAlgebra
    subspace: Subspace
    coords: QuotientCoords
    name: str = "anonymous"

    @property
    def dim(self) -> int:
        return self.subspace.dim

    @property
    def quotient_dim(self) -> int:
        return self.coords.dim

    def basis_vector(self, t: int) -> list:
        return list(self.coords.sub_basis[t])

    def as_subalgebra(self, name=None) -> LieAlgebra:
        """The subspace as a standalone Lie algebra in its echelon basis."""
        k = self.dim
        entries = {}
        for (i, j) in combinations(range(k), 2):
            w = self.ambient.bracket(self.basis_vector(i), self.basis_vector(j))
            entries[(i, j)] = self.coords.to_sub_coords(w)
        cand = BracketCandidate.from_entries(k, entries)
        return validate_bracket(cand, name=name or f"{self.name}-sub")


def subalgebra_defect(g: LieAlgebra, sub: Subspace) -> AltMap:
    """Projection of pairwise brackets of the echelon basis to the quotient;
    zero iff the subspace is a subalgebra."""
    qc = quotient_coords(sub)
    k, q = sub.dim, qc.dim
    values = {}
    for (i, j) in combinations(range(k), 2):
        w = g.bracket(list(qc.sub_basis[i]), list(qc.sub_basis[j]))
        values[(i, j)] = qc.projection.apply(w)
    return AltMap.from_values(2, k, q, values)


def subalgebra_witness(g: LieAlgebra, vectors, name: str = "anonymous") -> SubalgebraWitness:
    """Validate independence and closure; raise ValidationError otherwise."""
    vecs = [[_frac(x) for x in v] for v in vectors]
    for v in vecs:
        if len(v) != g.dim:
            raise ValueError("subalgebra basis vector has wrong length")
    m = Matrix.from_columns(vecs, rows=g.dim)
    if rank(m) != len(vecs):
        raise ValidationError("subalgebra basis vectors are linearly dependent",
                              "independence", (), [])
    sub = _subspace(g.dim, vecs)
    qc = quotient_coords(sub)
    defect = subalgebra_defect(g, sub)
    for (i, j) in combinations(range(sub.dim), 2):
        d = defect.value((i, j))
        if any(x != 0 for x in d):
            raise ValidationError(
                f"bracket of subspace basis pair ({i},{j}) leaves the subspace",
                "closure", (i, j), d)
    canonical = Subspace(g.dim, qc.sub_basis)
    return SubalgebraWitness(ambient=g, subspace=canonical, coords=qc, name=name)


# ---------------------------------------------------------------------------
# coefficient systems

class RepresentationError(ValueError):
    pass


@dataclass(frozen=True)
class RepSpec:
    """A coefficient system: the acting algebra's bracket plus one matrix per
    acting basis vector on the carrier."""

    variant: str
    acting: BracketCandidate
    carrier_dim: int
    matrices: tuple
    label: str = ""

    def check_identity(self):
        """r([u,v]) = r(u) r(v) - r(v) r(u), exactly, on all basis pairs."""
        n = self.acting.dim
        for (i, j) in combinations(range(n), 2):
            lhs = Matrix.zeros(self.carrier_dim, self.carrier_dim)
            for k in range(n):
                coeff = self.acting.c[i][j][k]
                if coeff == 0:
                    continue
                mk = self.matrices[k]
                for a in range(self.carrier_dim):
                    for b in range(self.carrier_dim):
                        if mk.data[a][b] != 0:
                            lhs.data[a][b] += coeff * mk.data[a][b]
            mi, mj = self.matrices[i], self.matrices[j]
            comm = mi.mul(mj)
            rev = mj.mul(mi)
            for a in range(self.carrier_dim):
                for b in range(self.carrier_dim):
                    if lhs.data[a][b] != comm.data[a][b] - rev.data[a][b]:
                        raise RepresentationError(
                            f"representation identity fails on pair ({i},{j})")
        return self


def adjoint_rep(g: LieAlgebra) -> RepSpec:
    n = g.dim
    e = [[Fraction(1) if a == b else Fraction(0) for b in range(n)] for a in range(n)]
    mats = tuple(ad_matrix(g.candidate, e[i]) for i in range(n))
    return RepSpec("adjoint", g.candidate, n, mats, label=f"ad({g.name})").check_identity()


def pullback_rep(hom: Homomorphism) -> RepSpec:
    """Source acts on the target through ad(rho(u)); requires a validated
    homomorphism."""
    validate_homomorphism(hom)
    h, g = hom.source, hom.target
    mats = tuple(ad_matrix(g.candidate, hom.image_of_basis(j)) for j in range(h.dim))
    return RepSpec("pullback", h.candidate, g.dim, mats,
                   label=f"{hom.name}:{h.name}->{g.name}").check_identity()


def quotient_rep(w: SubalgebraWitness) -> RepSpec:
    """The subalgebra acts on ambient/sub; well defined because the subspace
    is bracket-closed."""
    g = w.ambient
    k, q = w.dim, w.quotient_dim
    sect = w.coords.section
    mats = []
    for i in range(k):
        m = Matrix.zeros(q, q)
        for b in range(q):
            rep_vec = sect.column(b)
            img = g.bracket(w.basis_vector(i), rep_vec)
            col = w.coords.projection.apply(img)
            for a in range(q):
                m.data[a][b] = col[a]
        mats.append(m)
    sub_alg = w.as_subalgebra()
    return RepSpec("quotient", sub_alg.candidate, q, tuple(mats),
                   label=f"{w.name}:{g.name}/sub").check_identity()


# ---------------------------------------------------------------------------
# catalog

def abelian(n: int, name=None) -> LieAlgebra:
    return validate_bracket(BracketCandidate.zero(n), name=name or f"abelian{n}")


def _build_aff1() -> LieAlgebra:
    cand = BracketCandidate.from_entries(2, {(0, 1): [0, 1]})
    return validate_bracket(cand, basis=("x", "y"), name="aff1")


def _build_heis3() -> LieAlgebra:
    cand = BracketCandidate.from_entries(3, {(0, 1): [0, 0, 1]})
    return validate_bracket(cand, basis=("p", "q", "z"), name="heis3")


def _build_sl2() -> LieAlgebra:
    cand = BracketCandidate.from_entries(3, {
        (0, 1): [0, 2, 0],       # [h,e] = 2e
        (0, 2): [0, 0, -2],      # [h,f] = -2f
        (1, 2): [1, 0, 0],       # [e,f] = h
    })
    return validate_bracket(cand, basis=("h", "e", "f"), name="sl2")


def _build_so3() -> LieAlgebra:
    cand = BracketCandidate.from_entries(3, {
        (0, 1): [0, 0, 1],       # [e1,e2] = e3
        (1, 2): [1, 0, 0],       # [e2,e3] = e1
        (0, 2): [0, -1, 0],      # [e3,e1] = e2
    })
    return validate_bracket(cand, basis=("e1", "e2", "e3"), name="so3")


def _build_borel() -> LieAlgebra:
    # span{h, e} inside sl2, as a standalone algebra: [h,e] = 2e
    cand = BracketCandidate.from_entries(2, {(0, 1): [0, 2]})
    return validate_bracket(cand, basis=("h", "e"), name="borel")


_CATALOG_BUILDERS = {
    "abelian2": lambda: abelian(2),
    "abelian3": lambda: abelian(3),
    "aff1": _build_aff1,
    "heis3": _build_heis3,
    "sl2": _build_sl2,
    "so3": _build_so3,
    "borel": _build_borel,
}


def catalog_names():
    return sorted(_CATALOG_BUILDERS)


def catalog_algebra(name: str) -> LieAlgebra:
    try:
        return _CATALOG_BUILDERS[name]()
    except KeyError:
        raise KeyError(f"unknown catalog algebra {name!r}; "
                       f"available: {', '.join(catalog_names())}") from None


def hom_preset(name: str) -> Homomorphism:
    if name == "id-sl2":
        g = catalog_algebra("sl2")
        return Homomorphism(g, g, Matrix.identity(3), name="id-sl2")
    if name == "borel-incl":
        b = catalog_algebra("borel")
        g = catalog_algebra("sl2")
        m = Matrix.from_columns([[1, 0, 0], [0, 1, 0]], rows=3)
        return Homomorphism(b, g, m, name="borel-incl")
    if name == "zero-to-sl2":
        line = abelian(1, name="abelian1")
        g = catalog_algebra("sl2")
        return Homomorphism(line, g, Matrix.zeros(3, 1), name="zero-to-sl2")
    raise KeyError(f"unknown homomorphism preset {name!r}; "
                   f"available: {', '.join(hom_preset_names())}")


def hom_preset_names():
    return ["borel-incl", "id-sl2", "zero-to-sl2"]


def sub_preset(name: str) -> SubalgebraWitness:
    if name == "borel-in-sl2":
        g = catalog_algebra("sl2")
        return subalgebra_witness(g, [[1, 0, 0], [0, 1, 0]], name="borel-in-sl2")
    if name == "center-in-heis3":
        g = catalog_algebra("heis3")
        return subalgebra_witness(g, [[0, 0, 1]], name="center-in-heis3")
    raise KeyError(f"unknown subalgebra preset {name!r}; "
                   f"available: {', '.join(sub_preset_names())}")


def sub_preset_names():
    return ["borel-in-sl2", "center-in-heis3"]
