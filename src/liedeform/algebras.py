"""Lie algebras over the rationals: bracket candidates, validation,
homomorphisms, subalgebra witnesses and the three coefficient systems
(adjoint, pullback along a homomorphism, quotient by a subalgebra).

A bracket candidate on an n-dimensional space stores its nonzero structure
constants: ``terms[i][j]`` holds the (k, c_ij^k) pairs, ints where integral,
with bracket(e_i, e_j) = sum_k c_ij^k e_k.  Its ``c`` is the dense tensor
c[i][j][k], a view built from ``terms`` on read.  Validation checks
antisymmetry exactly, summing the nonzero terms.  The Jacobi identity, a
homomorphism and a subalgebra are each the zero of a quadratic map, whose
defect is a cochain built from the nonzero terms (the Jacobiator, the
curvature, the closure defect), and the three validators share one rule:
refuse at the defect's first nonzero block, reporting its location and its
exact dense defect vector.  The catalog is one table of structure constants,
each call validated afresh.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, combinations

from .cochains import AltMap
from .exactlin import (Matrix, QuotientCoords, Subspace, _add_scaled, _dense,
                       _exact, _frac, _subspace, format_scalar, quotient_coords)
from .records import record


class ValidationError(ValueError):
    """A structural validation failed; carries a machine-readable report."""

    def __init__(self, message: str, kind: str, location, defect):
        super().__init__(message)
        self.kind = kind
        self.location = location
        self.defect = defect

    def report(self) -> dict:
        return {"kind": self.kind, "location": list(self.location),
                "defect": [format_scalar(x) for x in self.defect]}


def _refuse_nonzero(defect: AltMap, kind: str, message):
    """The validators' one rule: refuse at the first nonzero block of the
    defect cochain, with its subset, ``message(subset)`` and its dense
    values."""
    if defect.nonzeros:
        s = defect.nonzero_entries()[0][0]
        raise ValidationError(message(s), kind, s, defect.value(s))


def _nonzeros(vec) -> tuple:
    """The (k, x) pairs of the nonzero entries of ``vec``, ints where
    integral."""
    return tuple((k, y) for k, x in enumerate(vec)
                 if (y := x if type(x) is int else _exact(_frac(x))))


def _bracket_into(acc: dict, terms, u, v) -> dict:
    """Add [u, v] to the {k: value} dict ``acc``, for u and v given as their
    (index, coefficient) nonzeros, over the nonzero structure constants."""
    for a, x in u:
        for b, y in v:
            xy = x * y
            for k, c in terms[a][b]:
                acc[k] = acc.get(k, 0) + xy * c
    return acc


@record
class BracketCandidate:
    """Bilinear candidate bracket kept as its nonzero structure constants:
    ``terms[i][j]`` holds the (k, c_ij^k) pairs with c_ij^k != 0, k
    ascending, ints where integral.  ``c`` is the dense c[i][j][k] tensor of
    Fractions, built from ``terms`` on each read."""

    dim: int
    terms: tuple

    @classmethod
    def from_tensor(cls, tensor) -> "BracketCandidate":
        n = len(tensor)
        if any(len(plane) != n or any(len(row) != n for row in plane)
               for plane in tensor):
            raise ValueError("structure tensor must be n x n x n")
        return cls(n, tuple(tuple(_nonzeros(row) for row in plane)
                            for plane in tensor))

    @classmethod
    def from_entries(cls, dim: int, entries: dict) -> "BracketCandidate":
        """Build from {(i, j): value_vector}; the (j, i) values are filled
        antisymmetrically unless given explicitly."""
        planes = [[()] * dim for _ in range(dim)]
        for (i, j), vec in entries.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"bracket entry index ({i},{j}) out of range")
            if len(vec) != dim:
                raise ValueError(f"bracket entry ({i},{j}) has wrong length")
            planes[i][j] = _nonzeros(vec)
        for (i, j) in entries:
            if (j, i) not in entries:
                planes[j][i] = tuple((k, -x) for k, x in planes[i][j])
        return cls(dim, tuple(map(tuple, planes)))

    @classmethod
    def zero(cls, dim: int) -> "BracketCandidate":
        return cls(dim, (((),) * dim,) * dim)

    @property
    def c(self) -> tuple:
        """The dense tensor c[i][j][k], built from ``terms`` on each read."""
        return tuple(tuple(tuple(_dense(dict(col), self.dim)) for col in plane)
                     for plane in self.terms)

    def basis_bracket(self, i: int, j: int) -> list:
        return _dense(dict(self.terms[i][j]), self.dim)

    def bracket(self, u, v) -> list:
        """Bracket of coordinate vectors, over the nonzero ``terms``."""
        return _dense(_bracket_into({}, self.terms, _nonzeros(u), _nonzeros(v)),
                      self.dim)

    def antisymmetry_violation(self):
        """First (i, j) with c[i][j] != -c[j][i] (including the diagonal)."""
        terms = self.terms
        for i in range(self.dim):
            for j in range(i, self.dim):
                if terms[i][j] != tuple((k, -x) for k, x in terms[j][i]):
                    defect = dict(terms[i][j])
                    for k, x in terms[j][i]:
                        defect[k] = defect.get(k, 0) + x
                    return (i, j), _dense(defect, self.dim)
        return None

    def jacobiator(self) -> AltMap:
        """The 3-cochain J(e_i,e_j,e_k) = [[e_i,e_j],e_k] + [[e_j,e_k],e_i]
        + [[e_k,e_i],e_j], summed over the nonzero c_ab^l c_lc^m of
        ``terms``; zero iff the Jacobi identity holds."""
        terms = self.terms

        def block(i, j, k):
            acc = {}
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                _bracket_into(acc, terms, terms[a][b], ((c, 1),))
            return acc

        return AltMap.from_blocks(3, self.dim, self.dim, (
            block(*t) for t in combinations(range(self.dim), 3)))

    def pair_brackets(self, vectors) -> AltMap:
        """The 2-cochain (i, j) -> [v_i, v_j] on the vectors v_i, each given
        as its (index, coefficient) nonzeros, summed over ``terms``."""
        return AltMap.from_blocks(2, len(vectors), self.dim, (
            _bracket_into({}, self.terms, vectors[i], vectors[j])
            for i, j in combinations(range(len(vectors)), 2)))

    def as_altmap(self) -> AltMap:
        n = self.dim
        return AltMap(2, n, n, {p * n + k: x for p, (i, j)
                                in enumerate(combinations(range(n), 2))
                                for k, x in self.terms[i][j]})

    @classmethod
    def from_altmap(cls, m: AltMap) -> "BracketCandidate":
        if m.degree != 2 or m.domain_dim != m.carrier_dim:
            raise ValueError("need a 2-cochain with carrier equal to the domain")
        n, pairs = m.domain_dim, list(combinations(range(m.domain_dim), 2))
        planes, cols = [[()] * n for _ in range(n)], {}
        for f, x in m.nonzeros.items():
            cols.setdefault(pairs[f // n], {})[f % n] = x
        for (i, j), col in cols.items():
            planes[i][j] = tuple(sorted(col.items()))
            planes[j][i] = tuple((k, -x) for k, x in planes[i][j])
        return cls(n, tuple(map(tuple, planes)))

    def add_scaled(self, other: "BracketCandidate", factor) -> "BracketCandidate":
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        f = _frac(factor)
        return BracketCandidate(self.dim, tuple(
            tuple(tuple(sorted(_add_scaled(dict(a), dict(b), f).items()))
                  for a, b in zip(mine, theirs))
            for mine, theirs in zip(self.terms, other.terms)))


@record
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
    _refuse_nonzero(candidate.jacobiator(), "jacobi", lambda loc: (
        f"Jacobi identity fails on ({','.join(basis[i] for i in loc)})"))
    return LieAlgebra(name=name, dim=n, basis=basis, candidate=candidate)


def ad_rows(candidate: BracketCandidate, vec) -> list:
    """ad(vec), u -> bracket(vec, u), for vec given as its (index,
    coefficient) nonzeros, as ``RepSpec`` rows: row a holds sum_x vec_x
    c_xj^a at column j, summed over the nonzero ``terms``."""
    terms, rows = candidate.terms, [{} for _ in range(candidate.dim)]
    for j in range(candidate.dim):
        for x, v in vec:
            for a, c in terms[x][j]:
                rows[a][j] = rows[a].get(j, 0) + v * c
    return [{j: _exact(y) for j, y in row.items() if y} for row in rows]


# ---------------------------------------------------------------------------
# homomorphisms

@record
class Homomorphism:
    """Linear map between Lie algebras, columns = images of source basis."""

    source: LieAlgebra
    target: LieAlgebra
    matrix: Matrix
    name: str = "anonymous"

    def __post_init__(self):
        if self.matrix.rows != self.target.dim or self.matrix.cols != self.source.dim:
            raise ValueError("homomorphism matrix has wrong shape")


def _column_brackets(g: LieAlgebra, m: Matrix) -> AltMap:
    """The 2-cochain (u, v) -> [m(u), m(v)] with values in g."""
    return g.candidate.pair_brackets([tuple(c.items()) for c in m.columns()])


def curvature(hom: Homomorphism) -> AltMap:
    """K(phi)(u,v) = [phi(u),phi(v)] - phi([u,v]); zero iff phi is a
    homomorphism.  Defined for arbitrary linear maps: the brackets of phi's
    columns, less phi of the source's bracket, over the nonzeros."""
    return _column_brackets(hom.target, hom.matrix).sub(
        hom.source.candidate.as_altmap().post_compose(hom.matrix))


def validate_homomorphism(hom: Homomorphism) -> Homomorphism:
    """Raise ValidationError with the first pair where curvature is nonzero."""
    _refuse_nonzero(curvature(hom), "curvature",
                    lambda loc: f"curvature nonzero on basis pair ({loc[0]},{loc[1]})")
    return hom


# ---------------------------------------------------------------------------
# subalgebras

@record
class SubalgebraWitness:
    """A subspace certified closed under the ambient bracket, kept once, as
    its quotient coordinates: the reduced echelon basis of the subspace and
    the standard-basis complement for the quotient."""

    ambient: LieAlgebra
    coords: QuotientCoords
    name: str = "anonymous"

    @property
    def dim(self) -> int:
        return len(self.coords.pivots)

    @property
    def quotient_dim(self) -> int:
        return self.coords.dim

    def basis_vector(self, t: int) -> list:
        return list(self.coords.sub_basis[t])

    @cached_property
    def _bracket(self) -> BracketCandidate:
        return BracketCandidate.from_altmap(_basis_brackets(
            self.ambient, self.coords).post_compose(self.coords.sub_coords))

    def as_subalgebra(self, name=None) -> LieAlgebra:
        """The subspace as a Lie algebra in its echelon basis e0, e1, ..: the
        ambient bracket restricted (once) to a subspace proved closed, so it
        inherits antisymmetry and Jacobi and is not validated again."""
        return LieAlgebra(name or f"{self.name}-sub", self.dim,
                          tuple(f"e{i}" for i in range(self.dim)), self._bracket)


def _basis_brackets(g: LieAlgebra, qc: QuotientCoords) -> AltMap:
    """The brackets of the echelon basis pairs, with values in g."""
    return g.candidate.pair_brackets(qc.sub_rows)


def _closure_defect(g: LieAlgebra, qc: QuotientCoords) -> AltMap:
    return _basis_brackets(g, qc).post_compose(qc.projection)


def subalgebra_defect(g: LieAlgebra, sub: Subspace) -> AltMap:
    """Projection of pairwise brackets of the echelon basis to the quotient;
    zero iff the subspace is a subalgebra."""
    return _closure_defect(g, quotient_coords(sub))


def subalgebra_witness(g: LieAlgebra, vectors, name: str = "anonymous") -> SubalgebraWitness:
    """Validate independence and closure; raise ValidationError otherwise.
    The basis is reduced once, into the witness's quotient coordinates."""
    sub = _subspace(g.dim, vectors)
    try:
        qc = quotient_coords(sub)
    except ValueError:
        raise ValidationError("subalgebra basis vectors are linearly dependent",
                              "independence", (), []) from None
    _refuse_nonzero(_closure_defect(g, qc), "closure", lambda loc: (
        f"bracket of subspace basis pair ({loc[0]},{loc[1]}) leaves the subspace"))
    return SubalgebraWitness(ambient=g, coords=qc, name=name)


# ---------------------------------------------------------------------------
# coefficient systems

class RepresentationError(ValueError):
    pass


@record
class RepSpec:
    """A coefficient system: the acting algebra's bracket plus, per acting
    basis vector, its action on the carrier as the {column: value} nonzeros
    of each row, in column order and ints where integral, as a ``Matrix``
    keeps its ``row_maps``; ``action_cells`` and ``all_ints``, read by the
    differential of every degree, are kept on first read."""

    variant: str
    acting: BracketCandidate
    carrier_dim: int
    rows: tuple
    label: str = ""

    @cached_property
    def action_cells(self) -> list:
        """Per acting basis vector, the (b, a, r_ba) nonzeros of its action."""
        return [[(b, a, v) for b, row in enumerate(rows) for a, v in row.items()]
                for rows in self.rows]

    @cached_property
    def all_ints(self) -> bool:
        """Whether every structure constant and action entry is an int."""
        # the last of each (l, c_ij^l) and (b, a, r_ba) is its value
        return all(type(x[-1]) is int for x in chain(
            *chain(*self.acting.terms), *self.action_cells))

    def check_identity(self):
        """r([u,v]) = r(u) r(v) - r(v) r(u), exactly, on all basis pairs in
        ``combinations`` order: sum_k c_uv^k r_k against r_u r_v - r_v r_u."""
        q, terms = self.carrier_dim, self.acting.terms
        r = [Matrix.of_rows(q, q, rows) for rows in self.rows]
        for (i, j) in combinations(range(self.acting.dim), 2):
            lhs = Matrix.zeros(q, q)
            for k, c in terms[i][j]:
                lhs = lhs.add_scaled(r[k], c)
            if lhs != r[i].mul(r[j]).add_scaled(r[j].mul(r[i]), -1):
                raise RepresentationError(
                    f"representation identity fails on pair ({i},{j})")
        return self


def adjoint_rows(candidate: BracketCandidate) -> tuple:
    """ad(e_x) per basis vector: ``rows[x][a][j] = c_xj^a``."""
    # copies each constant: cheaper than ad_rows of each e_x, which sums
    rows = tuple([{} for _ in plane] for plane in candidate.terms)
    for x, plane in enumerate(candidate.terms):
        for j, col in enumerate(plane):
            for a, c in col:
                rows[x][a][j] = c
    return rows


def adjoint_rep(g: LieAlgebra) -> RepSpec:
    """g acting on itself by ad; not checked, since its representation
    identity is the Jacobi identity ``validate_bracket`` proved."""
    return RepSpec("adjoint", g.candidate, g.dim, adjoint_rows(g.candidate),
                   f"ad({g.name})")


def pullback_rep(hom: Homomorphism) -> RepSpec:
    """Source acts on the target through r = ad o rho, for a validated rho;
    r([u,v]) = ad[rho u, rho v] = [ad rho u, ad rho v] by g's Jacobi."""
    return _pullback(validate_homomorphism(hom))


def _pullback(hom: Homomorphism) -> RepSpec:
    """``pullback_rep``'s system for any linear map rho, unvalidated."""
    h, g = hom.source, hom.target
    rows = tuple(ad_rows(g.candidate, col.items())
                 for col in hom.matrix.columns())
    return RepSpec("pullback", h.candidate, g.dim, rows,
                   f"{hom.name}:{h.name}->{g.name}")


def quotient_rep(w: SubalgebraWitness) -> RepSpec:
    """The subalgebra acts on ambient/sub; well defined because the subspace
    is bracket-closed.  Row a of the action of w_i is row a of the
    projection times ad(w_i), read at the complement columns.  Unchecked:
    ad(w) keeps h, so pi o ad(w) = r(w) o pi with pi onto, and ad on h is a
    representation by g's Jacobi identity."""
    g, qc, n = w.ambient, w.coords, w.ambient.dim
    at = {j: b for b, j in enumerate(qc.complement)}
    rows = tuple([{at[j]: y for j, y in sorted(row.items()) if j in at}
                  for row in qc.projection.mul(Matrix.of_rows(n, n, ad)).row_maps]
                 for ad in (ad_rows(g.candidate, v) for v in qc.sub_rows))
    return RepSpec("quotient", w._bracket, qc.dim, rows,
                   f"{w.name}:{g.name}/sub")


# ---------------------------------------------------------------------------
# catalog

def abelian(n: int, name=None) -> LieAlgebra:
    return validate_bracket(BracketCandidate.zero(n), name=name or f"abelian{n}")


# name -> (basis names, {(i, j): [e_i, e_j]} for i < j)
_CATALOG = {
    "abelian2": (("e0", "e1"), {}),
    "abelian3": (("e0", "e1", "e2"), {}),
    "aff1": (("x", "y"), {(0, 1): [0, 1]}),
    "heis3": (("p", "q", "z"), {(0, 1): [0, 0, 1]}),
    "sl2": (("h", "e", "f"), {
        (0, 1): [0, 2, 0],       # [h,e] = 2e
        (0, 2): [0, 0, -2],      # [h,f] = -2f
        (1, 2): [1, 0, 0]}),     # [e,f] = h
    "so3": (("e1", "e2", "e3"), {
        (0, 1): [0, 0, 1],       # [e1,e2] = e3
        (1, 2): [1, 0, 0],       # [e2,e3] = e1
        (0, 2): [0, -1, 0]}),    # [e3,e1] = e2
    # span{h, e} inside sl2, as a standalone algebra: [h,e] = 2e
    "borel": (("h", "e"), {(0, 1): [0, 2]}),
}


def _id_sl2() -> Homomorphism:
    g = catalog_algebra("sl2")
    return Homomorphism(g, g, Matrix.identity(3), name="id-sl2")


_HOM_BUILDERS = {
    "id-sl2": _id_sl2,
    "borel-incl": lambda: Homomorphism(
        catalog_algebra("borel"), catalog_algebra("sl2"),
        Matrix.from_rows([[1, 0], [0, 1], [0, 0]]), name="borel-incl"),
    "zero-to-sl2": lambda: Homomorphism(
        abelian(1, name="abelian1"), catalog_algebra("sl2"),
        Matrix.zeros(3, 1), name="zero-to-sl2"),
}

_SUB_BUILDERS = {
    "borel-in-sl2": lambda: subalgebra_witness(
        catalog_algebra("sl2"), [[1, 0, 0], [0, 1, 0]], name="borel-in-sl2"),
    "center-in-heis3": lambda: subalgebra_witness(
        catalog_algebra("heis3"), [[0, 0, 1]], name="center-in-heis3"),
}


def _lookup(table: dict, noun: str, name: str):
    if name not in table:
        raise KeyError(f"unknown {noun} {name!r}; "
                       f"available: {', '.join(sorted(table))}")
    return table[name]


def catalog_names():
    return sorted(_CATALOG)


def catalog_algebra(name: str) -> LieAlgebra:
    basis, brackets = _lookup(_CATALOG, "catalog algebra", name)
    return validate_bracket(BracketCandidate.from_entries(len(basis), brackets),
                            basis, name)


def hom_preset(name: str) -> Homomorphism:
    return _lookup(_HOM_BUILDERS, "homomorphism preset", name)()


def hom_preset_names():
    return sorted(_HOM_BUILDERS)


def sub_preset(name: str) -> SubalgebraWitness:
    return _lookup(_SUB_BUILDERS, "subalgebra preset", name)()


def sub_preset_names():
    return sorted(_SUB_BUILDERS)
