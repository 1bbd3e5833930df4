"""Obstruction classes and exact expansion identities for deformations of
brackets, homomorphisms and subalgebras.

Sign conventions follow the differential implemented in `cecomplex`:
with J the Jacobiator, the exact quartic expansion is

  J(mu + t xi + 1/2 t^2 eta)
    = J(mu) - t d(xi) + t^2 (J(xi) - 1/2 d(eta)) + t^3/2 B(xi,eta) + t^4/4 J(eta)

where B is the polarization of J and d the adjoint-coefficient differential
at the base bracket.  The curvature of a linear map expands with the
opposite orientation, K(rho + t xi) = K(rho) + t d(xi) + t^2 [xi,xi]/2.
Both identities are verified exactly by sampling at integer parameters and
solving for the polynomial coefficients over the rationals.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .algebras import (BracketCandidate, Homomorphism, LieAlgebra, RepSpec,
                       SubalgebraWitness, ad_rows, adjoint_rows, curvature)
from .cecomplex import Problem, differential_matrix, snake_lift
from .cochains import AltMap
from .exactlin import Matrix, invert
from .records import record


class NonCocycleError(ValueError):
    """The supplied direction is not closed, so its class is undefined."""

    def __init__(self, message, defect: AltMap):
        super().__init__(message)
        self.defect = defect


def _as_candidate(mu) -> BracketCandidate:
    if isinstance(mu, LieAlgebra):
        return mu.candidate
    if isinstance(mu, BracketCandidate):
        return mu
    if isinstance(mu, AltMap):
        return BracketCandidate.from_altmap(mu)
    raise TypeError("expected a bracket candidate, Lie algebra or 2-cochain")


def jacobiator(mu) -> AltMap:
    """J(eta)(u,v,w) = eta(eta(u,v),w) + eta(eta(v,w),u) + eta(eta(w,u),v)."""
    cand = _as_candidate(mu)
    n = cand.dim
    values = {t: cand.jacobiator_value(*t) for t in combinations(range(n), 3)}
    return AltMap.from_values(3, n, n, values)


# ---------------------------------------------------------------------------
# exact expansion identities

@record
class ExpansionReport:
    ok: bool
    max_defect: Fraction
    first_mismatch: str | None
    coefficients: tuple  # AltMap per power of t

    def summary(self) -> str:
        if self.ok:
            return "expansion identity holds exactly"
        return f"expansion mismatch at {self.first_mismatch} (defect {self.max_defect})"


def _interpolate_coefficients(samples, ts):
    """Exact polynomial coefficients from value vectors at integer nodes."""
    deg = len(ts)
    v = Matrix(deg, deg, [[Fraction(t) ** j for j in range(deg)] for t in ts])
    return invert(v).mul(Matrix(deg, len(samples[0]), samples)).data


def _compare_expansion(expected, coeffs, degree: int, n: int,
                       m: int) -> ExpansionReport:
    """Match interpolated coefficients against (label, expected) pairs; the
    coefficients are kept as degree-``degree`` cochains on n with values in
    an m-dimensional carrier."""
    max_defect = Fraction(0)
    first = None
    alt = []
    for (label, want), got in zip(expected, coeffs):
        diff = max((abs(a - b) for a, b in zip(got, want)), default=Fraction(0))
        if diff > max_defect:
            max_defect = diff
        if diff != 0 and first is None:
            first = label
        alt.append(AltMap.from_flat(degree, n, m, got))
    return ExpansionReport(ok=first is None, max_defect=max_defect,
                           first_mismatch=first, coefficients=tuple(alt))


def jacobiator_expansion_check(mu, xi: AltMap, eta: AltMap) -> ExpansionReport:
    """Verify the exact quartic expansion of J(mu + t xi + 1/2 t^2 eta).

    All five t-coefficients are matched: J(mu), -d(xi), J(xi) - d(eta)/2,
    B(xi,eta)/2 and J(eta)/4, with B(a,b) = J(a+b) - J(a) - J(b).
    """
    base = _as_candidate(mu)
    n = base.dim
    xi_c = BracketCandidate.from_altmap(xi)
    eta_c = BracketCandidate.from_altmap(eta)
    ts = [-2, -1, 0, 1, 2]
    samples = []
    for t in ts:
        cand = base.add_scaled(xi_c, Fraction(t)).add_scaled(eta_c, Fraction(t * t, 2))
        samples.append(jacobiator(cand).flat())
    coeffs = _interpolate_coefficients(samples, ts)

    d2 = differential_matrix(2, RepSpec("adjoint", base, n, adjoint_rows(base)))
    d_xi = d2.apply(xi.flat())
    d_eta = d2.apply(eta.flat())
    j_xi = jacobiator(xi_c).flat()
    j_eta = jacobiator(eta_c).flat()
    polar = jacobiator(xi_c.add_scaled(eta_c, 1)).flat()
    b_xi_eta = [p - a - b for p, a, b in zip(polar, j_xi, j_eta)]

    expected = [
        ("t^0: J(mu)", jacobiator(base).flat()),
        ("t^1: -d(xi)", [-x for x in d_xi]),
        ("t^2: J(xi) - d(eta)/2", [a - Fraction(1, 2) * b for a, b in zip(j_xi, d_eta)]),
        ("t^3: B(xi,eta)/2", [Fraction(1, 2) * x for x in b_xi_eta]),
        ("t^4: J(eta)/4", [Fraction(1, 4) * x for x in j_eta]),
    ]
    return _compare_expansion(expected, coeffs, 3, n, n)


def curvature_expansion_check(rho: Homomorphism, xi_matrix: Matrix) -> ExpansionReport:
    """Verify K(rho + t xi) = K(rho) + t d(xi) + t^2 [xi,xi]/2 exactly.

    Holds for arbitrary linear maps rho; d is built from ad(rho(.)) without
    assuming rho is a homomorphism.
    """
    h, g = rho.source, rho.target
    kh, ng = h.dim, g.dim
    if xi_matrix.rows != ng or xi_matrix.cols != kh:
        raise ValueError("direction matrix has wrong shape")

    ts = [-1, 0, 1]
    samples = []
    r, x = rho.matrix.data, xi_matrix.data
    for t in ts:
        m = Matrix(ng, kh, [[r[a][b] + t * x[a][b] for b in range(kh)]
                            for a in range(ng)])
        samples.append(curvature(Homomorphism(h, g, m)).flat())
    coeffs = _interpolate_coefficients(samples, ts)

    rows = tuple(ad_rows(g.candidate, rho.image_of_basis(j)) for j in range(kh))
    d1 = differential_matrix(1, RepSpec("pullback", h.candidate, ng, rows))
    d_xi = d1.apply(matrix_as_one_cochain(xi_matrix).flat())
    half_sq = []
    for (i, j) in combinations(range(kh), 2):
        half_sq.extend(g.bracket(xi_matrix.column(i), xi_matrix.column(j)))

    expected = [
        ("t^0: K(rho)", curvature(rho).flat()),
        ("t^1: d(xi)", d_xi),
        ("t^2: [xi,xi]/2", half_sq),
    ]
    return _compare_expansion(expected, coeffs, 2, kh, ng)


# ---------------------------------------------------------------------------
# obstruction classes

@record
class ObstructionClass:
    kind: str
    representative: AltMap
    is_zero_in_h: bool
    primitive: AltMap | None

    @property
    def degree(self) -> int:
        return self.representative.degree

    def to_json_dict(self) -> dict:
        rep = [{"subset": list(s), "carrier": a, "value": str(x)}
               for (s, a, x) in self.representative.nonzero_entries()]
        out = {"kind": self.kind, "representative": rep,
               "vanishes": self.is_zero_in_h}
        if self.primitive is not None:
            out["primitive"] = [{"subset": list(s), "carrier": a, "value": str(x)}
                                for (s, a, x) in self.primitive.nonzero_entries()]
        return out


def _obstruction(p: Problem, direction: AltMap, representative,
                 not_cocycle: str, not_closed: str) -> ObstructionClass:
    """The argument shared by the three kinds: ``direction`` must be a
    cocycle at the tangent degree t, ``representative(direction)`` is closed
    in degree t + 1, and its class vanishes iff it is d_t of a primitive."""
    cx, t = p.complex, p.tangent_degree
    defect = cx.apply_d(direction)
    if not defect.is_zero():
        raise NonCocycleError(not_cocycle, defect)
    rep = representative(direction)
    assert cx.apply_d(rep).is_zero(), not_closed
    primitive = cx.form(t).solve(rep.flat())
    if primitive is not None:
        primitive = AltMap.from_flat(t, cx.n, cx.carrier_dim, primitive)
    return ObstructionClass(p.kind, rep, primitive is not None, primitive)


def kuranishi_bracket(g: LieAlgebra | Problem, xi: AltMap) -> ObstructionClass:
    """Second-order obstruction of a bracket direction: the class of J(xi)
    against the coboundaries in degree three."""
    return _obstruction(
        Problem.of(g, "bracket"), xi,
        lambda xi: jacobiator(BracketCandidate.from_altmap(xi)),
        "direction is not a 2-cocycle", "J(xi) failed to be closed")


def kuranishi_hom(rho: Homomorphism | Problem, xi: AltMap) -> ObstructionClass:
    """Obstruction of a homomorphism direction xi in Z^1(h, g): the class of
    (u,v) -> [xi(u), xi(v)] against the degree-two coboundaries."""
    p = Problem.of(rho, "hom")
    h, g = p.obj.source, p.obj.target
    if (xi.degree, xi.domain_dim, xi.carrier_dim) != (1, h.dim, g.dim):
        raise ValueError("direction must be a 1-cochain on the source with "
                         "values in the target")

    def representative(xi):
        values = {(i, j): g.bracket(xi.value((i,)), xi.value((j,)))
                  for (i, j) in combinations(range(h.dim), 2)}
        return AltMap.from_values(2, h.dim, g.dim, values)

    return _obstruction(p, xi, representative, "direction is not a 1-cocycle",
                        "[xi,xi]/2 failed to be closed")


# ---------------------------------------------------------------------------
# splittings and the subalgebra obstruction

@record
class Splitting:
    """A right inverse of the quotient projection for a subalgebra, with the
    sub problem it splits; a raw witness is wrapped in a new problem."""

    problem: SubalgebraWitness | Problem
    section: Matrix  # ambient_dim x quotient_dim

    def __post_init__(self):
        object.__setattr__(self, "problem", Problem.of(self.problem, "sub"))
        qc = self.witness.coords
        if self.section.rows != qc.ambient_dim or self.section.cols != qc.dim:
            raise ValueError("section has wrong shape")
        if not qc.projection.mul(self.section) == Matrix.identity(qc.dim):
            raise ValueError("section is not a right inverse of the projection")

    @property
    def witness(self) -> SubalgebraWitness:
        return self.problem.obj

    @property
    def omega_s(self) -> Matrix:
        """Projection of the ambient algebra onto the subalgebra along the
        section image: identity minus section o projection."""
        qc = self.witness.coords
        n = qc.ambient_dim
        sp = self.section.mul(qc.projection).data
        return Matrix(n, n, [[int(i == j) - sp[i][j] for j in range(n)]
                             for i in range(n)])


def standard_splitting(w: SubalgebraWitness | Problem) -> Splitting:
    """The standard-basis complement section from the quotient coordinates."""
    p = Problem.of(w, "sub")
    return Splitting(p, p.obj.coords.section)


def shifted_splitting(sp: Splitting, shift: Matrix) -> Splitting:
    """A new splitting of the same problem, section' = section + basis o
    shift, with ``shift`` a (sub_dim x quotient_dim) matrix into subalgebra
    coordinates."""
    w = sp.witness
    if shift.rows != w.dim or shift.cols != w.quotient_dim:
        raise ValueError("shift has wrong shape")
    add = sp.problem.inclusion.obj.matrix.mul(shift).data
    old, rows, cols = sp.section.data, sp.section.rows, sp.section.cols
    sec = Matrix(rows, cols, [[old[i][j] + add[i][j] for j in range(cols)]
                              for i in range(rows)])
    return Splitting(sp.problem, sec)


def eta_matrix(eta: AltMap) -> Matrix:
    """1-cochain as a matrix, columns = values on the domain basis."""
    if eta.degree != 1:
        raise ValueError("need a 1-cochain")
    return Matrix.from_columns([eta.value((i,)) for i in range(eta.domain_dim)],
                               rows=eta.carrier_dim)


def matrix_as_one_cochain(m: Matrix) -> AltMap:
    flat = []
    for j in range(m.cols):
        flat.extend(m.column(j))
    return AltMap.from_flat(1, m.cols, m.rows, flat)


def _check_eta_shape(w: SubalgebraWitness, eta: AltMap):
    if (eta.degree, eta.domain_dim, eta.carrier_dim) != (1, w.dim, w.quotient_dim):
        raise ValueError("eta must be a 1-cochain on the subalgebra with "
                         "values in the quotient")


def omega_sigma(sp: Splitting, eta: AltMap) -> AltMap:
    """delta(section o eta) computed in the ambient-valued complex, certified
    to take values in the subalgebra and returned in its coordinates.

    Requires eta in Z^1(h, g/h); for non-cocycles the values provably leave
    the subalgebra and the certification fails.
    """
    _check_eta_shape(sp.witness, eta)
    defect = sp.problem.complex.apply_d(eta)
    if not defect.is_zero():
        raise NonCocycleError("eta is not a cocycle; delta(section o eta) "
                              "does not take values in the subalgebra", defect)
    return _omega(sp, eta)


def _omega(sp: Splitting, eta: AltMap) -> AltMap:
    """omega_sigma of an eta already known to be a cocycle: the snake lift
    through the section, in the complexes of the problem's inclusion (values
    in g) and of its source (in h)."""
    incl = sp.problem.inclusion
    return snake_lift(sp.witness, sp.section, eta, incl.complex,
                      incl.source.complex)


def kuranishi_sub(sp: Splitting, eta: AltMap) -> ObstructionClass:
    """Obstruction of a subalgebra direction eta in Z^1(h, g/h):
    (u,v) -> pi[section(eta(u)), section(eta(v))] - eta(omega_sigma(eta)(u,v)),
    classed against the degree-two coboundaries of the quotient system."""
    w = sp.witness
    qc = w.coords

    def representative(eta):
        _check_eta_shape(w, eta)
        omega = _omega(sp, eta)
        em = eta_matrix(eta)
        lift = sp.section.mul(em)
        values = {}
        for (i, j) in combinations(range(w.dim), 2):
            term1 = qc.projection.apply(
                w.ambient.bracket(lift.column(i), lift.column(j)))
            eta_of_w = em.apply(omega.value((i, j)))
            values[(i, j)] = [x - y for x, y in zip(term1, eta_of_w)]
        return AltMap.from_values(2, w.dim, w.quotient_dim, values)

    return _obstruction(sp.problem, eta, representative,
                        "eta is not a 1-cocycle",
                        "subalgebra obstruction is not closed")


@record
class SplittingComparison:
    ok: bool
    max_defect: Fraction
    difference: AltMap
    coboundary: AltMap

    def summary(self) -> str:
        if self.ok:
            return ("splitting change shifts the representative by the "
                    "coboundary of eta o (s'-s) o eta exactly")
        return f"splitting comparison failed (defect {self.max_defect})"


def splitting_independence_check(sp1: Splitting, sp2: Splitting,
                                 eta: AltMap) -> SplittingComparison:
    """Verify Phi_s1(eta) - Phi_s2(eta) = delta(eta o d o eta) exactly, where
    d = (s2 - s1) read as a map from the quotient into the subalgebra.

    The composite types as quotient -> sub -> quotient through eta's domain,
    giving a 1-cochain on the subalgebra with quotient values.
    """
    if sp1.witness is not sp2.witness and sp1.witness != sp2.witness:
        raise ValueError("splittings must share a witness")
    w = sp1.witness
    qc = w.coords
    phi1 = kuranishi_sub(sp1, eta).representative
    phi2 = kuranishi_sub(sp2, eta).representative
    diff = phi1.sub(phi2)
    # d = s2 - s1 has image inside the subalgebra; read it in sub coordinates
    shift_cols = []
    s1, s2 = sp1.section.data, sp2.section.data
    for b in range(w.quotient_dim):
        col = [s2[i][b] - s1[i][b] for i in range(w.ambient.dim)]
        if any(x != 0 for x in qc.projection.apply(col)):
            raise AssertionError("section difference left the subalgebra")
        shift_cols.append(qc.to_sub_coords(col))
    shift = Matrix.from_columns(shift_cols, rows=w.dim)
    em = eta_matrix(eta)
    psi = em.mul(shift).mul(em)  # quotient values on the subalgebra basis
    cob = sp1.problem.complex.apply_d(matrix_as_one_cochain(psi))
    mismatch = diff.sub(cob)
    return SplittingComparison(ok=mismatch.is_zero(),
                               max_defect=mismatch.sup_abs(),
                               difference=diff, coboundary=cob)
