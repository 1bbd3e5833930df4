"""Floating-point deformation laboratory.

Newton orbit recovery and zero continuation for brackets, homomorphisms and
subalgebras, plus finite-difference checks of the curve-derivative and
vertical-derivative identities.  Group elements are parametrized as
exponentials: A = exp(a) acting on brackets, Ad_{exp(x)} = exp(ad_x) acting
on homomorphisms and subspaces.  Newton uses a chord iteration: the
least-squares pseudoinverse of the linearization at the base point is
computed once and reused, refreshed from a numerical Jacobian only on stall.

Flattening follows the cochain convention throughout: a k-cochain value
block for the p-th basis subset occupies flat indices [p*m, (p+1)*m); a
1-cochain seen as a matrix M (columns = values) flattens to M.T.ravel().
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from scipy.linalg import expm, subspace_angles

from .algebras import (BracketCandidate, Homomorphism, LieAlgebra,
                       SubalgebraWitness)
from .cecomplex import Problem, differential_rows
from .exactlin import Matrix, invert
from .verdicts import (bracket_rigidity, hom_rigidity, hom_stability,
                       sub_rigidity, sub_stability)


class PreconditionError(RuntimeError):
    """A cohomological hypothesis required by the operation does not hold."""


class InputDefectError(ValueError):
    """A floating-point input violates its structural contract beyond
    tolerance (Jacobi defect, curvature, subalgebra defect)."""


class ChartError(ValueError):
    """The requested plane is not in the graph chart around the witness."""


def _sup(arr) -> float:
    a = np.asarray(arr, dtype=float)
    return float(np.max(np.abs(a))) if a.size else 0.0


def float_matrix(m: Matrix) -> np.ndarray:
    return np.array(m.to_float_rows(), dtype=float).reshape(m.rows, m.cols)


def ad_float(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix of u -> bracket(x, u) for a float structure tensor."""
    return np.einsum("i,ijk->kj", x, c)


def _bracket_eval(c: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.einsum("i,j,ijk->k", x, y, c)


def jacobiator_flat(c: np.ndarray) -> np.ndarray:
    """Jacobi defects on basis triples i<j<k, flattened in subset order."""
    n = c.shape[0]
    out = []
    for (i, j, k) in combinations(range(n), 3):
        out.append(c[i, j, :] @ c[:, k, :] + c[j, k, :] @ c[:, i, :]
                   + c[k, i, :] @ c[:, j, :])
    return np.concatenate(out) if out else np.zeros(0)


@dataclass(frozen=True)
class FloatBracket:
    """Structure constants in double precision.  Antisymmetry is enforced at
    construction; the Jacobi defect is tracked, never assumed."""

    dim: int
    c: np.ndarray
    provenance: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if c.shape != (self.dim, self.dim, self.dim):
            raise ValueError("structure tensor has wrong shape")
        object.__setattr__(self, "c", (c - c.transpose(1, 0, 2)) / 2.0)

    @classmethod
    def from_exact(cls, g, provenance=None) -> "FloatBracket":
        cand = g.candidate if isinstance(g, LieAlgebra) else g
        c = np.array([[[float(x) for x in cand.c[i][j]]
                       for j in range(cand.dim)] for i in range(cand.dim)])
        prov = dict(provenance or {})
        if isinstance(g, LieAlgebra) and "source" not in prov:
            prov["source"] = g.name
        return cls(cand.dim, c, prov)

    def jacobi_defect(self) -> float:
        return _sup(jacobiator_flat(self.c))

    def bracket(self, x, y) -> np.ndarray:
        return _bracket_eval(self.c, np.asarray(x, float), np.asarray(y, float))


def act_on_bracket(a_matrix: np.ndarray, mu: FloatBracket) -> FloatBracket:
    """(A . mu)(u, v) = A mu(A^-1 u, A^-1 v), on structure constants."""
    a = np.asarray(a_matrix, dtype=float)
    det = np.linalg.det(a)
    if abs(det) < 1e-12:
        raise np.linalg.LinAlgError("matrix acting on the bracket is singular")
    ainv = np.linalg.inv(a)
    c = np.einsum("pi,qj,pqr,kr->ijk", ainv, ainv, mu.c, a)
    prov = dict(mu.provenance)
    prov["acted"] = True
    return FloatBracket(mu.dim, c, prov)


def act_on_bracket_exact(a_matrix: Matrix, cand: BracketCandidate) -> BracketCandidate:
    """Exact-arithmetic twin of act_on_bracket for rational matrices."""
    n = cand.dim
    ainv = invert(a_matrix)
    entries = {}
    for i in range(n):
        for j in range(n):
            u = ainv.column(i)
            v = ainv.column(j)
            w = a_matrix.apply(cand.bracket(u, v))
            entries[(i, j)] = w
    return BracketCandidate.from_entries(n, entries)


# ---------------------------------------------------------------------------
# Newton machinery

@dataclass(frozen=True)
class NewtonConfig:
    tol: float = 1e-10
    max_iter: int = 50
    damping: float = 1.0
    seed: int = 0
    stall_ratio: float = 0.9
    input_defect_tol: float = 1e-8

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tolerance must be positive")
        if self.max_iter < 1:
            raise ValueError("need at least one iteration")
        if not 0 < self.damping <= 1:
            raise ValueError("damping must lie in (0, 1]")


def numeric_jacobian(fn, u: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    base = np.asarray(fn(u), float)
    jac = np.zeros((base.size, u.size))
    for j in range(u.size):
        step = np.zeros_like(u)
        step[j] = eps
        jac[:, j] = (np.asarray(fn(u + step)) - np.asarray(fn(u - step))) / (2 * eps)
    return jac


def _chord_newton(residual_fn, u0: np.ndarray, jac: np.ndarray, cfg: NewtonConfig):
    """Chord Newton with a fixed pseudoinverse, refreshed on stall.

    Returns (u, residual, iterations, converged).  Non-convergence is a
    result, not an exception: an iterate that diverges past floating-point
    range or leaves the chart of the residual ends the iteration, and the
    last finite iterate is returned with converged=False.
    """
    u = np.array(u0, dtype=float)
    r = np.asarray(residual_fn(u), float)
    res = _sup(r)
    if res <= cfg.tol:
        return u, res, 0, True
    pinv = np.linalg.pinv(jac)
    iters = 0
    while iters < cfg.max_iter:
        step = u - cfg.damping * (pinv @ r)
        iters += 1
        try:
            r_step = np.asarray(residual_fn(step), float)
        except (ChartError, np.linalg.LinAlgError):
            return u, res, iters, False
        new_res = _sup(r_step)
        if not np.isfinite(new_res):
            return u, res, iters, False
        u, r = step, r_step
        if new_res <= cfg.tol:
            return u, new_res, iters, True
        if new_res > cfg.stall_ratio * res:
            try:
                refreshed = numeric_jacobian(residual_fn, u)
            except (ChartError, np.linalg.LinAlgError):
                return u, new_res, iters, False
            if not np.all(np.isfinite(refreshed)):
                return u, new_res, iters, False
            pinv = np.linalg.pinv(refreshed)
        res = new_res
    return u, res, iters, False


@dataclass(frozen=True)
class RecoveryResult:
    kind: str
    log_solution: np.ndarray
    group_matrix: np.ndarray
    residual: float
    iterations: int
    converged: bool
    determinant: float
    diagnostics: dict = field(default_factory=dict, compare=False)

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "converged": self.converged,
                "residual": self.residual, "iterations": self.iterations,
                "determinant": self.determinant,
                "log_solution": [list(map(float, row))
                                 for row in np.atleast_2d(self.log_solution)],
                **{k: v for k, v in self.diagnostics.items()}}


@dataclass(frozen=True)
class ContinuationResult:
    kind: str
    solution: np.ndarray
    residual: float
    iterations: int
    converged: bool
    distance: float
    input_defect: float
    diagnostics: dict = field(default_factory=dict, compare=False)

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "converged": self.converged,
                "residual": self.residual, "iterations": self.iterations,
                "distance": self.distance, "input_defect": self.input_defect,
                "solution": [list(map(float, row))
                             for row in np.atleast_2d(self.solution)],
                **{k: v for k, v in self.diagnostics.items()}}


def _pairs_flat(c: np.ndarray) -> np.ndarray:
    n = c.shape[0]
    return np.concatenate([c[i, j, :] for (i, j) in combinations(range(n), 2)]) \
        if n >= 2 else np.zeros(0)


# ---------------------------------------------------------------------------
# orbit recovery

def recover_bracket_orbit(g: LieAlgebra | Problem, mu_prime: FloatBracket,
                          cfg: NewtonConfig = NewtonConfig()) -> RecoveryResult:
    """Find A = exp(a) with A . mu ~ mu'.  Requires H^2(g,g) = 0; the Newton
    linearization at a = 0 is minus the adjoint differential C^1 -> C^2."""
    p = Problem.of(g, "bracket")
    if not bracket_rigidity(p).holds:
        raise PreconditionError("bracket rigidity criterion (H2=0) does not "
                                "hold; orbit recovery is not guaranteed")
    g = p.obj
    n = g.dim
    if mu_prime.dim != n:
        raise ValueError("dimension mismatch")
    defect = mu_prime.jacobi_defect()
    if defect > cfg.input_defect_tol:
        raise InputDefectError("input bracket violates the Jacobi identity "
                               f"(defect {defect:.3e}); it lies on no orbit "
                               "of brackets")
    mu = FloatBracket.from_exact(g)
    target = _pairs_flat(mu_prime.c)

    def residual(u):
        a = u.reshape(n, n).T
        return _pairs_flat(act_on_bracket(expm(a), mu).c) - target

    jac = -float_matrix(p.report.complex.d(1))
    u, res, iters, ok = _chord_newton(residual, np.zeros(n * n), jac, cfg)
    a = u.reshape(n, n).T
    amat = expm(a)
    return RecoveryResult(kind="bracket", log_solution=a, group_matrix=amat,
                          residual=res, iterations=iters, converged=ok,
                          determinant=float(np.linalg.det(amat)),
                          diagnostics={"log_sup": _sup(a)})


def recover_hom_orbit(rho: Homomorphism | Problem, rho_prime: np.ndarray,
                      cfg: NewtonConfig = NewtonConfig()) -> RecoveryResult:
    """Find x with exp(ad_x) o rho ~ rho'.  Requires H^1(h,g) = 0; refuses
    rho' whose curvature exceeds the input tolerance."""
    p = Problem.of(rho, "hom")
    if not hom_rigidity(p).holds:
        raise PreconditionError("homomorphism rigidity criterion (H1=0) does "
                                "not hold; orbit recovery is not guaranteed")
    rho = p.obj
    h, g = rho.source, rho.target
    kh, ng = h.dim, g.dim
    p_prime = np.asarray(rho_prime, dtype=float)
    if p_prime.shape != (ng, kh):
        raise ValueError("matrix has wrong shape")
    cg = FloatBracket.from_exact(g)
    ch = FloatBracket.from_exact(h.candidate)
    curv = _curvature_flat(cg.c, ch.c, p_prime)
    if _sup(curv) > cfg.input_defect_tol:
        raise InputDefectError("target map is not a homomorphism to round-off "
                               f"(curvature {_sup(curv):.3e})")
    p0 = float_matrix(rho.matrix)

    def residual(x):
        m = expm(ad_float(cg.c, x))
        return ((m @ p0) - p_prime).T.ravel()

    jac = -float_matrix(p.report.complex.d(0))
    u, res, iters, ok = _chord_newton(residual, np.zeros(ng), jac, cfg)
    amat = expm(ad_float(cg.c, u))
    return RecoveryResult(kind="hom", log_solution=u, group_matrix=amat,
                          residual=res, iterations=iters, converged=ok,
                          determinant=float(np.linalg.det(amat)),
                          diagnostics={"log_sup": _sup(u)})


def _curvature_flat(c_target: np.ndarray, c_source: np.ndarray,
                    p: np.ndarray) -> np.ndarray:
    kh = c_source.shape[0]
    out = []
    for (i, j) in combinations(range(kh), 2):
        out.append(_bracket_eval(c_target, p[:, i], p[:, j]) - p @ c_source[i, j, :])
    return np.concatenate(out) if out else np.zeros(0)


# ---------------------------------------------------------------------------
# the graph chart around a subalgebra

@dataclass(frozen=True)
class SubFrames:
    """Float frames of the [basis | section] decomposition for a witness."""

    witness: SubalgebraWitness
    basis: np.ndarray      # n x k
    section: np.ndarray    # n x q
    h_reader: np.ndarray   # k x n
    q_reader: np.ndarray   # q x n


def sub_frames(w: SubalgebraWitness) -> SubFrames:
    n, k, q = w.ambient.dim, w.dim, w.quotient_dim
    basis = np.array([[float(w.basis_vector(t)[i]) for t in range(k)]
                      for i in range(n)]).reshape(n, k)
    section = float_matrix(w.coords.section)
    m = np.hstack([basis.reshape(n, k), section.reshape(n, q)])
    minv = np.linalg.inv(m)
    return SubFrames(w, basis, section, minv[:k, :].reshape(k, n),
                     minv[k:, :].reshape(q, n))


def chart_coords(frames: SubFrames, plane: np.ndarray) -> np.ndarray:
    """Chart coordinates eta (q x k) of a k-plane near the witness: the plane
    is the column span of basis + section @ eta.  Raises ChartError when the
    plane's basis-block is singular (plane outside the chart)."""
    w = frames.witness
    n, k = w.ambient.dim, w.dim
    pl = np.asarray(plane, dtype=float)
    if pl.shape != (n, k):
        raise ValueError("plane matrix has wrong shape")
    x = frames.h_reader @ pl
    y = frames.q_reader @ pl
    if abs(np.linalg.det(x)) < 1e-9:
        raise ChartError("plane is outside the graph chart around the witness")
    return y @ np.linalg.inv(x)


def graph_basis(frames: SubFrames, eta: np.ndarray) -> np.ndarray:
    return frames.basis + frames.section @ np.asarray(eta, dtype=float)


def chart_defect_flat(frames: SubFrames, eta: np.ndarray,
                      mu: FloatBracket) -> np.ndarray:
    """Closure defect of the graph plane of eta under mu: for basis columns
    G_u, G_v of the graph, the quotient part of mu(G_u, G_v) minus eta of its
    subalgebra part, flattened over pairs."""
    k = frames.witness.dim
    g = graph_basis(frames, eta)
    out = []
    for (i, j) in combinations(range(k), 2):
        z = mu.bracket(g[:, i], g[:, j])
        out.append(frames.q_reader @ z - np.asarray(eta) @ (frames.h_reader @ z))
    return np.concatenate(out) if out else np.zeros(0)


def recover_sub_orbit(w: SubalgebraWitness | Problem, plane_prime: np.ndarray,
                      cfg: NewtonConfig = NewtonConfig()) -> RecoveryResult:
    """Find x with exp(ad_x)(h) ~ the given plane, in chart coordinates.
    Requires H^1(h,g/h) = 0; refuses planes that fail the subalgebra-closure
    defect check or fall outside the graph chart."""
    p = Problem.of(w, "sub")
    if not sub_rigidity(p).holds:
        raise PreconditionError("subalgebra rigidity criterion (H1=0) does "
                                "not hold; orbit recovery is not guaranteed")
    w = p.obj
    frames = sub_frames(w)
    n, k, q = w.ambient.dim, w.dim, w.quotient_dim
    mu = FloatBracket.from_exact(w.ambient)
    eta_target = chart_coords(frames, plane_prime)
    closure = chart_defect_flat(frames, eta_target, mu)
    if _sup(closure) > cfg.input_defect_tol:
        raise InputDefectError("target plane is not a subalgebra to round-off "
                               f"(closure defect {_sup(closure):.3e})")

    def residual(x):
        m = expm(ad_float(mu.c, x))
        return (chart_coords(frames, m @ frames.basis) - eta_target).T.ravel()

    d0 = float_matrix(p.report.complex.d(0))
    proj = float_matrix(w.coords.projection)
    jac = -(d0 @ proj) if q else np.zeros((0, n))
    u, res, iters, ok = _chord_newton(residual, np.zeros(n), jac, cfg)
    amat = expm(ad_float(mu.c, u))
    recovered = amat @ frames.basis
    if not (k and k < n):
        angles = np.zeros(0)
    elif np.all(np.isfinite(recovered)):
        angles = subspace_angles(recovered, np.asarray(plane_prime, float))
    else:
        # a diverged iterate can overflow the exponential; the plane distance
        # is then meaningless, not merely large
        angles = np.array([np.inf])
    return RecoveryResult(kind="sub", log_solution=u, group_matrix=amat,
                          residual=res, iterations=iters, converged=ok,
                          determinant=float(np.linalg.det(amat)),
                          diagnostics={"log_sup": _sup(u),
                                       "principal_angle_sup": _sup(angles)})


# ---------------------------------------------------------------------------
# zero continuation

def _rows_to_array(rows, n_cols) -> np.ndarray:
    if not rows:
        return np.zeros((0, n_cols))
    return np.array([[float(x) for x in row] for row in rows])


def continue_hom(rho: Homomorphism | Problem, mu_prime: FloatBracket,
                 cfg: NewtonConfig = NewtonConfig()) -> ContinuationResult:
    """Deform rho to a homomorphism into the perturbed bracket mu'.
    Requires H^2(h,g) = 0; Newton runs on the curvature map phi -> K_mu'(phi)
    starting at rho, linearized by the differential built from mu' at rho."""
    p = Problem.of(rho, "hom")
    if not hom_stability(p).holds:
        raise PreconditionError("homomorphism stability criterion (H2=0) does "
                                "not hold; continuation is not guaranteed")
    rho = p.obj
    h, g = rho.source, rho.target
    kh, ng = h.dim, g.dim
    if mu_prime.dim != ng:
        raise ValueError("dimension mismatch")
    defect = mu_prime.jacobi_defect()
    if defect > cfg.input_defect_tol:
        raise InputDefectError("perturbed bracket violates the Jacobi "
                               f"identity (defect {defect:.3e})")
    ch = FloatBracket.from_exact(h.candidate)
    p0 = float_matrix(rho.matrix)

    def residual(u):
        return _curvature_flat(mu_prime.c, ch.c, u.reshape(kh, ng).T)

    def linearization(p: np.ndarray) -> np.ndarray:
        mats = [ad_float(mu_prime.c, p[:, j]) for j in range(kh)]
        rows = differential_rows(1, kh, ng, ch.c, mats)
        return _rows_to_array(rows, kh * ng)

    jac = linearization(p0)
    u, res, iters, ok = _chord_newton(residual, p0.T.ravel(), jac, cfg)
    p_new = u.reshape(kh, ng).T
    return ContinuationResult(kind="hom", solution=p_new, residual=res,
                              iterations=iters, converged=ok,
                              distance=_sup(p_new - p0), input_defect=defect)


def continue_sub(w: SubalgebraWitness | Problem, mu_prime: FloatBracket,
                 cfg: NewtonConfig = NewtonConfig()) -> ContinuationResult:
    """Deform the subalgebra to one closed under the perturbed bracket mu',
    in the graph chart.  Requires H^2(h,g/h) = 0; Newton runs on the chart
    closure defect, linearized by the quotient-type differential of mu'."""
    p = Problem.of(w, "sub")
    if not sub_stability(p).holds:
        raise PreconditionError("subalgebra stability criterion (H2=0) does "
                                "not hold; continuation is not guaranteed")
    w = p.obj
    n, k, q = w.ambient.dim, w.dim, w.quotient_dim
    if mu_prime.dim != n:
        raise ValueError("dimension mismatch")
    defect = mu_prime.jacobi_defect()
    if defect > cfg.input_defect_tol:
        raise InputDefectError("perturbed bracket violates the Jacobi "
                               f"identity (defect {defect:.3e})")
    frames = sub_frames(w)

    def residual(u):
        return chart_defect_flat(frames, u.reshape(k, q).T, mu_prime)

    # quotient-type differential under mu': action = quotient part of
    # mu'(basis_j, section_c); acting bracket = subalgebra part of
    # mu'(basis_i, basis_j)
    mats = []
    for j in range(k):
        m_j = np.zeros((q, q))
        for col in range(q):
            m_j[:, col] = frames.q_reader @ mu_prime.bracket(
                frames.basis[:, j], frames.section[:, col])
        mats.append(m_j)
    c_h = np.zeros((k, k, k))
    for i in range(k):
        for j in range(k):
            c_h[i, j, :] = frames.h_reader @ mu_prime.bracket(
                frames.basis[:, i], frames.basis[:, j])
    rows = differential_rows(1, k, q, c_h, mats)
    jac = _rows_to_array(rows, k * q)
    u, res, iters, ok = _chord_newton(residual, np.zeros(k * q), jac, cfg)
    eta = u.reshape(k, q).T
    plane = graph_basis(frames, eta)
    return ContinuationResult(kind="sub", solution=eta, residual=res,
                              iterations=iters, converged=ok,
                              distance=_sup(eta), input_defect=defect,
                              diagnostics={"plane": [list(map(float, row))
                                                     for row in plane]})


# ---------------------------------------------------------------------------
# seeded perturbations

def perturbed_bracket(g: LieAlgebra, scale: float, seed: int) -> tuple:
    """mu' = exp(a0) . mu with a0 uniform in [-scale, scale] entrywise.
    Returns (FloatBracket, a0)."""
    rng = np.random.default_rng(seed)
    n = g.dim
    a0 = rng.uniform(-scale, scale, (n, n))
    mu = FloatBracket.from_exact(g)
    out = act_on_bracket(expm(a0), mu)
    prov = {"source": g.name, "perturbation": {"scale": scale, "seed": seed}}
    return FloatBracket(n, out.c, prov), a0


def perturbed_hom(rho: Homomorphism, scale: float, seed: int) -> tuple:
    """rho' = exp(ad_x0) o rho with x0 uniform entrywise.  Returns (rho', x0)."""
    rng = np.random.default_rng(seed)
    g = rho.target
    x0 = rng.uniform(-scale, scale, g.dim)
    cg = FloatBracket.from_exact(g)
    p0 = float_matrix(rho.matrix)
    return expm(ad_float(cg.c, x0)) @ p0, x0


def perturbed_plane(w: SubalgebraWitness, scale: float, seed: int) -> tuple:
    """plane' = exp(ad_x0)(h) with x0 uniform entrywise.  Returns (plane', x0)."""
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-scale, scale, w.ambient.dim)
    mu = FloatBracket.from_exact(w.ambient)
    frames = sub_frames(w)
    return expm(ad_float(mu.c, x0)) @ frames.basis, x0


# ---------------------------------------------------------------------------
# finite-difference checks

@dataclass(frozen=True)
class CurveCheckReport:
    kind: str
    steps: tuple
    derivative: np.ndarray
    delta_defects: tuple
    defect_ratio: float | None
    class_residual: float
    ok: bool

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "steps": list(self.steps),
                "delta_defects": list(self.delta_defects),
                "defect_ratio": self.defect_ratio,
                "class_residual": self.class_residual, "ok": self.ok}


def _curve_value_flat(kind: str, base, frames, value) -> np.ndarray:
    if kind == "bracket":
        arr = value.c if isinstance(value, FloatBracket) else np.asarray(value, float)
        return _pairs_flat(arr)
    if kind == "hom":
        return np.asarray(value, float).T.ravel()
    if kind == "sub":
        return chart_coords(frames, value).T.ravel()
    raise ValueError(f"unknown curve kind {kind!r}")


def curve_cocycle_check(kind: str, base, samples) -> CurveCheckReport:
    """Central-difference derivative of a curve through the base object at
    t = 0, checked to be a cocycle up to O(h^2).

    ``base`` is the exact object (LieAlgebra, Homomorphism or
    SubalgebraWitness) the curve passes through at t = 0; ``samples`` is a
    list of (t, value) pairs with values of the matching kind (structure
    tensors / FloatBrackets, matrices, or k-plane frames) containing at
    least one symmetric pair; with two symmetric pairs the O(h^2) scaling of
    the delta-defect is verified, otherwise an absolute bound is used.  The
    report also carries the least-squares residual of the derivative against
    the coboundaries (its distance from class zero).
    """
    p = Problem.of(base, kind)
    base, degree = p.obj, p.tangent_degree
    frames = sub_frames(base) if kind == "sub" else None
    by_t = {}
    for t, value in samples:
        by_t[float(t)] = _curve_value_flat(kind, base, frames, value)
    if len(by_t) < 3 or min(by_t) >= 0 or max(by_t) <= 0:
        raise ValueError("need at least three samples bracketing t = 0")
    hs = sorted({abs(t) for t in by_t if t > 0 and -t in by_t})
    if not hs:
        raise ValueError("need at least one symmetric sample pair")
    sizes = [x for x in by_t.values()]
    if len({v.size for v in sizes}) != 1:
        raise ValueError("inconsistent sample dimensions")
    d_out = float_matrix(p.complex.d(degree))
    d_in = float_matrix(p.complex.d(degree - 1))
    defects = []
    derivs = []
    for h in hs[:2]:
        deriv = (by_t[h] - by_t[-h]) / (2 * h)
        derivs.append(deriv)
        defects.append(_sup(d_out @ deriv))
    derivative = derivs[0]
    if len(hs) >= 2:
        h_big, h_small = hs[1], hs[0]
        d_big, d_small = defects[1], defects[0]
        c_est = d_big / h_big ** 2 if d_big > 0 else 0.0
        ok = d_small <= max(1e-10, 1.5 * c_est * h_small ** 2)
        ratio = d_big / d_small if d_small > 1e-15 else None
    else:
        ok = defects[0] <= 1e-6
        ratio = None
    if d_in.shape[1]:
        sol, *_ = np.linalg.lstsq(d_in, derivative, rcond=None)
        class_residual = _sup(derivative - d_in @ sol)
    else:
        class_residual = _sup(derivative)
    return CurveCheckReport(kind=kind, steps=tuple(hs[:2]),
                            derivative=derivative,
                            delta_defects=tuple(defects),
                            defect_ratio=ratio, class_residual=class_residual,
                            ok=ok)


@dataclass(frozen=True)
class FDCheckReport:
    kind: str
    step: float
    central_defects: tuple
    remainder_sups: tuple
    remainder_ratio: float | None
    ok: bool

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "step": self.step,
                "central_defects": list(self.central_defects),
                "remainder_sups": list(self.remainder_sups),
                "remainder_ratio": self.remainder_ratio, "ok": self.ok}


def vertical_derivative_fd_check(kind: str, base, direction,
                                 h: float = 1e-3) -> FDCheckReport:
    """Finite-difference verification that the derivative of the structure
    map (Jacobiator, curvature, chart closure defect) along ``direction`` at
    the base object equals the matching differential of the direction.

    Two quantities are reported at steps h and h/2: the defect of the
    symmetric difference against the exact derivative, and the sup of the
    first-order Taylor remainder F(x + h d) - F(x) - h dF(d).  The remainder
    scales as h^2 whenever the quadratic term along d is nonzero, so its
    ratio between the two steps sits near 4; for the purely quadratic maps
    (bracket and hom kinds) the symmetric difference is exact and its defect
    is round-off noise, which is why the h^2 assertion rides on the
    remainder.
    """
    if kind == "bracket":
        n = base.dim
        mu = FloatBracket.from_exact(base)
        d_arr = np.asarray(direction, float)
        d_arr = (d_arr - d_arr.transpose(1, 0, 2)) / 2.0

        def value(s):
            return jacobiator_flat(mu.c + s * d_arr)

        # J(mu + s xi) = J(mu) - s d(xi) + O(s^2)
        d_flat = -_pairs_flat(d_arr)
    elif kind == "hom":
        hh, g = base.source, base.target
        cg = FloatBracket.from_exact(g)
        ch = FloatBracket.from_exact(hh.candidate)
        p0 = float_matrix(base.matrix)
        d_mat = np.asarray(direction, float)

        def value(s):
            return _curvature_flat(cg.c, ch.c, p0 + s * d_mat)

        d_flat = d_mat.T.ravel()
    elif kind == "sub":
        frames = sub_frames(base)
        mu = FloatBracket.from_exact(base.ambient)
        d_mat = np.asarray(direction, float)

        def value(s):
            return chart_defect_flat(frames, s * d_mat, mu)

        d_flat = d_mat.T.ravel()
    else:
        raise ValueError(f"unknown kind {kind!r}")
    p = Problem.of(base, kind)
    true_deriv = float_matrix(p.complex.d(p.tangent_degree)) @ d_flat

    base_val = value(0.0)
    central_defects = []
    remainder_sups = []
    for step in (h, h / 2):
        central = (value(step) - value(-step)) / (2 * step)
        central_defects.append(_sup(central - true_deriv))
        remainder = value(step) - base_val - step * true_deriv
        remainder_sups.append(_sup(remainder))
    if remainder_sups[1] > 1e-13:
        remainder_ratio = remainder_sups[0] / remainder_sups[1]
        ratio_ok = 3.5 <= remainder_ratio <= 4.5
    else:
        remainder_ratio = None
        ratio_ok = remainder_sups[0] <= 1e-13
    c_est = central_defects[0] / h ** 2 if central_defects[0] > 0 else 0.0
    central_ok = central_defects[1] <= max(1e-9, 1.5 * c_est * (h / 2) ** 2)
    return FDCheckReport(kind=kind, step=h,
                         central_defects=tuple(central_defects),
                         remainder_sups=tuple(remainder_sups),
                         remainder_ratio=remainder_ratio,
                         ok=bool(central_ok and ratio_ok))


# ---------------------------------------------------------------------------
# seeded experiment driver

# experiment kind -> (document key of its object, seeded perturbation of the
# object, solver of the perturbed problem)
EXPERIMENTS = {
    "bracket-recovery": ("algebra", perturbed_bracket, recover_bracket_orbit),
    "hom-recovery": ("hom", perturbed_hom, recover_hom_orbit),
    "sub-recovery": ("sub", perturbed_plane, recover_sub_orbit),
    "hom-continuation": (
        "hom", lambda rho, scale, seed: perturbed_bracket(rho.target, scale, seed),
        continue_hom),
    "sub-continuation": (
        "sub", lambda w, scale, seed: perturbed_bracket(w.ambient, scale, seed),
        continue_sub),
}


def run_experiment(kind: str, obj, seeds, scale: float = 0.05,
                   cfg: NewtonConfig = NewtonConfig()) -> list:
    """Run one recovery/continuation per seed; records return in seed order.

    The object's cohomology is computed at the first seed and shared by the
    rest, so the precondition and the base linearization are proved once.
    """
    if kind not in EXPERIMENTS:
        raise ValueError(f"unknown experiment kind {kind!r}")
    _, perturb, solve = EXPERIMENTS[kind]
    problem = Problem.of(obj)
    records = []
    for seed in seeds:
        perturbed, pert = perturb(problem.obj, scale, seed)
        result = solve(problem, perturbed, cfg)
        records.append({"seed": seed, "perturbation_sup": _sup(pert),
                        **result.to_json_dict()})
    return records


def run_single_experiment(kind: str, obj, scale: float, seed: int,
                          cfg: NewtonConfig) -> dict:
    return run_experiment(kind, obj, [seed], scale, cfg)[0]
