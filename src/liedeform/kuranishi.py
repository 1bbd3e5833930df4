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

Every cochain here is an ``AltMap`` kept as its nonzeros: the Jacobiator
and the curvature are the validators' defect cochains from `algebras`, the
differentials act on nonzeros, the interpolation is ``AltMap`` arithmetic,
and matrices are summed and composed on their row nonzeros (no dense
``Matrix.data`` is read).
"""

from __future__ import annotations

from fractions import Fraction

from .algebras import (BracketCandidate, Homomorphism, LieAlgebra, RepSpec,
                       SubalgebraWitness, _column_brackets, _pullback,
                       adjoint_rows, curvature)
from .cecomplex import Problem, differential_matrix, snake_lift
from .cochains import AltMap
from .exactlin import Matrix, invert, solve
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
    return _as_candidate(mu).jacobiator()


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


def _interpolate_coefficients(samples, ts) -> list:
    """Exact polynomial coefficients (cochains) from the cochains sampled at
    integer nodes: the rows of the inverse Vandermonde matrix combine them."""
    v = Matrix.from_rows([[Fraction(t) ** j for j in range(len(ts))] for t in ts])
    coeffs = []
    for row in invert(v).row_maps:
        acc = samples[0].scale(0)
        for t, c in row.items():
            acc = acc.add_scaled(samples[t], c)
        coeffs.append(acc)
    return coeffs


def _compare_expansion(expected, coeffs) -> ExpansionReport:
    """Match interpolated coefficients against (label, expected) pairs."""
    max_defect = Fraction(0)
    first = None
    for (label, want), got in zip(expected, coeffs):
        diff = got.sub(want).sup_abs()
        if diff > max_defect:
            max_defect = diff
        if diff != 0 and first is None:
            first = label
    return ExpansionReport(ok=first is None, max_defect=max_defect,
                           first_mismatch=first, coefficients=tuple(coeffs))


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
    coeffs = _interpolate_coefficients([
        base.add_scaled(xi_c, t).add_scaled(eta_c, Fraction(t * t, 2)).jacobiator()
        for t in ts], ts)

    d2 = differential_matrix(2, RepSpec("adjoint", base, n, adjoint_rows(base)))
    d_xi = AltMap(3, n, n, d2.apply(xi.nonzeros))
    d_eta = AltMap(3, n, n, d2.apply(eta.nonzeros))
    j_xi, j_eta = xi_c.jacobiator(), eta_c.jacobiator()
    b_xi_eta = xi_c.add_scaled(eta_c, 1).jacobiator().sub(j_xi).sub(j_eta)

    expected = [
        ("t^0: J(mu)", base.jacobiator()),
        ("t^1: -d(xi)", d_xi.scale(-1)),
        ("t^2: J(xi) - d(eta)/2", j_xi.add_scaled(d_eta, Fraction(-1, 2))),
        ("t^3: B(xi,eta)/2", b_xi_eta.scale(Fraction(1, 2))),
        ("t^4: J(eta)/4", j_eta.scale(Fraction(1, 4))),
    ]
    return _compare_expansion(expected, coeffs)


def curvature_expansion_check(rho: Homomorphism, xi_matrix: Matrix) -> ExpansionReport:
    """Verify K(rho + t xi) = K(rho) + t d(xi) + t^2 [xi,xi]/2 exactly.

    Holds for arbitrary linear maps rho; d is built by ``_pullback``, which
    does not assume rho is a homomorphism.
    """
    h, g = rho.source, rho.target
    if xi_matrix.rows != g.dim or xi_matrix.cols != h.dim:
        raise ValueError("direction matrix has wrong shape")

    ts = [-1, 0, 1]
    coeffs = _interpolate_coefficients([
        curvature(Homomorphism(h, g, rho.matrix.add_scaled(xi_matrix, t)))
        for t in ts], ts)

    d1 = differential_matrix(1, _pullback(rho))
    expected = [
        ("t^0: K(rho)", curvature(rho)),
        ("t^1: d(xi)", AltMap(2, h.dim, g.dim, d1.apply(
            matrix_as_one_cochain(xi_matrix).nonzeros))),
        ("t^2: [xi,xi]/2", _column_brackets(g, xi_matrix)),
    ]
    return _compare_expansion(expected, coeffs)


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


def _require_cocycle(p: Problem, direction: AltMap, message: str):
    """Refuses (NonCocycleError) a ``direction`` whose d is not zero."""
    defect = p.complex.apply_d(direction)
    if not defect.is_zero():
        raise NonCocycleError(message, defect)


def _obstruction(p: Problem, direction: AltMap, representative,
                 not_cocycle: str) -> ObstructionClass:
    """The argument shared by the three kinds: ``direction`` must be a
    cocycle at the tangent degree t, ``representative(direction)`` is closed
    in degree t + 1 (unchecked: each kind names its identity), and its class
    vanishes iff it is d_t of a primitive."""
    cx, t = p.complex, p.tangent_degree
    _require_cocycle(p, direction, not_cocycle)
    rep = representative(direction)
    x = solve(cx.d(t), rep.nonzeros)
    primitive = None if x is None else AltMap(t, cx.n, cx.carrier_dim, x)
    return ObstructionClass(p.kind, rep, primitive is not None, primitive)


def kuranishi_bracket(g: LieAlgebra | Problem, xi: AltMap) -> ObstructionClass:
    """Second-order obstruction of a bracket direction: the class of J(xi)
    against the coboundaries in degree three.  J(xi) = [xi, xi]/2 (Nijenhuis-
    Richardson) and d = [mu, .], so d J(xi) = +-[d xi, xi] = 0."""
    return _obstruction(
        Problem.of(g, "bracket"), xi,
        lambda xi: jacobiator(BracketCandidate.from_altmap(xi)),
        "direction is not a 2-cocycle")


def kuranishi_hom(rho: Homomorphism | Problem, xi: AltMap) -> ObstructionClass:
    """Obstruction of a homomorphism direction xi in Z^1(h, g): the class of
    (u,v) -> [xi(u), xi(v)] against the degree-two coboundaries; d_rho is a
    derivation of that bracket, so d[xi,xi] = 2[d xi, xi] = 0."""
    p = Problem.of(rho, "hom")
    h, g = p.obj.source, p.obj.target
    if (xi.degree, xi.domain_dim, xi.carrier_dim) != (1, h.dim, g.dim):
        raise ValueError("direction must be a 1-cochain on the source with "
                         "values in the target")

    return _obstruction(p, xi, lambda xi: _column_brackets(g, eta_matrix(xi)),
                        "direction is not a 1-cocycle")


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
        return Matrix.identity(qc.ambient_dim).add_scaled(
            self.section.mul(qc.projection), -1)


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
    return Splitting(sp.problem, sp.section.add_scaled(
        sp.problem.inclusion.obj.matrix.mul(shift), 1))


def eta_matrix(eta: AltMap) -> Matrix:
    """1-cochain as a matrix, columns = values on the domain basis."""
    if eta.degree != 1:
        raise ValueError("need a 1-cochain")
    m, rows = eta.carrier_dim, [{} for _ in range(eta.carrier_dim)]
    for f, x in eta.nonzeros.items():
        rows[f % m][f // m] = x
    return Matrix.of_rows(m, eta.domain_dim, rows)


def matrix_as_one_cochain(m: Matrix) -> AltMap:
    return AltMap(1, m.cols, m.rows, {j * m.rows + i: x for i, row
                                      in enumerate(m.row_maps)
                                      for j, x in row.items()})


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
    _require_cocycle(sp.problem, eta, "eta is not a cocycle; delta(section o "
                     "eta) does not take values in the subalgebra")
    return _omega(sp, eta)


def _omega(sp: Splitting, eta: AltMap) -> AltMap:
    """omega_sigma of an eta already known to be a cocycle: the snake lift
    through the section, in the complex of the problem's inclusion (values
    in g)."""
    return snake_lift(sp.witness, sp.section, eta,
                      sp.problem.inclusion.complex)


def _sub_representative(sp: Splitting, eta: AltMap) -> AltMap:
    """The representative of the class of a cocycle eta of the right shape
    (ValueError for another shape): (u,v) -> pi[section(eta(u)),
    section(eta(v))] - eta(omega_sigma(eta)(u,v))."""
    w = sp.witness
    _check_eta_shape(w, eta)
    em = eta_matrix(eta)
    return _column_brackets(w.ambient, sp.section.mul(em)).post_compose(
        w.coords.projection).sub(_omega(sp, eta).post_compose(em))


def kuranishi_sub(sp: Splitting, eta: AltMap) -> ObstructionClass:
    """Obstruction of a subalgebra direction eta in Z^1(h, g/h): the class of
    ``_sub_representative`` against the degree-two coboundaries of the
    quotient system: the quadratic part F_2 of the graph chart's closure
    defect F, whose Bianchi identity (from g's Jacobi) gives d F_2(eta) = 0."""
    return _obstruction(sp.problem, eta,
                        lambda eta: _sub_representative(sp, eta),
                        "eta is not a 1-cocycle")


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
    giving a 1-cochain on the subalgebra with quotient values.  eta is
    refused as ``kuranishi_sub`` refuses it, and no primitive is solved for.
    d lands in h unchecked: both sections passed ``Splitting``'s pi o s = 1.
    """
    if sp1.witness is not sp2.witness and sp1.witness != sp2.witness:
        raise ValueError("splittings must share a witness")
    _require_cocycle(sp1.problem, eta, "eta is not a 1-cocycle")
    diff = _sub_representative(sp1, eta).sub(_sub_representative(sp2, eta))
    # d = s2 - s1, read in the subalgebra's basis
    delta = sp2.section.add_scaled(sp1.section, -1)
    shift = sp1.witness.coords.sub_coords.mul(delta)
    em = eta_matrix(eta)
    psi = em.mul(shift).mul(em)  # quotient values on the subalgebra basis
    cob = sp1.problem.complex.apply_d(matrix_as_one_cochain(psi))
    mismatch = diff.sub(cob)
    return SplittingComparison(ok=mismatch.is_zero(),
                               max_defect=mismatch.sup_abs(),
                               difference=diff, coboundary=cob)
