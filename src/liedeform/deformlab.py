"""Floating-point deformation laboratory.

Newton orbit recovery and zero continuation for brackets, homomorphisms and
subalgebras, plus finite-difference checks of the curve-derivative and
vertical-derivative identities.  Group elements are parametrized as
exponentials: A = exp(a) acting on brackets, Ad_{exp(x)} = exp(ad_x) acting
on homomorphisms and subspaces.  Newton uses a chord iteration: the
least-squares pseudoinverse of the linearization at the base point is
computed once (for recovery, once per chart, so per experiment) and reused,
refreshed from a numerical Jacobian only on stall.

Each problem kind has one float chart (``_CHARTS``): its acting bracket and
base point, flat chart coordinates, structure map, group action and orbit
linearization.  One recovery skeleton and one continuation skeleton run on
any chart, and the finite-difference checks read the chart too.

Flattening follows the cochain convention throughout: a k-cochain value
block for the p-th basis subset occupies flat indices [p*m, (p+1)*m); a
1-cochain seen as a matrix M (columns = values) flattens to M.T.ravel().
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np
from scipy.linalg import expm, subspace_angles

from .algebras import Homomorphism, LieAlgebra, SubalgebraWitness
from .cecomplex import Problem, differential_rows
from .cochains import subsets
from .documents import (ChartError, InputDefectError, NewtonConfig,
                        PreconditionError)
from .exactlin import Matrix, SparseMatrix
from .verdicts import (bracket_rigidity, hom_rigidity, hom_stability,
                       sub_rigidity, sub_stability)


def _sup(arr) -> float:
    a = np.asarray(arr, dtype=float)
    return float(np.max(np.abs(a))) if a.size else 0.0


def float_matrix(m: Matrix | SparseMatrix) -> np.ndarray:
    return np.array(m.to_float_rows(), dtype=float).reshape(m.rows, m.cols)


def ad_float(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix of u -> bracket(x, u) for a float structure tensor."""
    return np.einsum("i,ijk->kj", x, c)


def _bracket_eval(c: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.einsum("i,j,ijk->k", x, y, c)


@cache
def _subset_index(n: int, k: int) -> tuple:
    """Shared read-only index arrays of the k-subsets, in subset order."""
    index = np.array(subsets(n, k), dtype=int).reshape(-1, k).T
    index.flags.writeable = False
    return tuple(index)


def jacobiator_flat(c: np.ndarray) -> np.ndarray:
    """Jacobi defects on basis triples i<j<k, flattened in subset order."""
    i, j, k = _subset_index(c.shape[0], 3)
    t = np.tensordot(c, c, (2, 0))  # t[i, j, k] = [[e_i, e_j], e_k]
    return (t[i, j, k] + t[j, k, i] + t[k, i, j]).ravel()


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
        n = cand.dim
        c = np.array([[[float(x) for x in cand.c[i][j]] for j in range(n)]
                      for i in range(n)]).reshape(n, n, n)
        prov = dict(provenance or {})
        if isinstance(g, LieAlgebra) and "source" not in prov:
            prov["source"] = g.name
        return cls(n, c, prov)

    def bracket(self, x, y) -> np.ndarray:
        return _bracket_eval(self.c, np.asarray(x, float), np.asarray(y, float))


def act_on_bracket(a_matrix: np.ndarray, mu: FloatBracket) -> FloatBracket:
    """(A . mu)(u, v) = A mu(A^-1 u, A^-1 v), on structure constants."""
    a = np.asarray(a_matrix, dtype=float)
    if not np.all(np.isfinite(a)):
        raise np.linalg.LinAlgError("matrix acting on the bracket is not finite")
    if abs(np.linalg.det(a)) < 1e-12:
        raise np.linalg.LinAlgError("matrix acting on the bracket is singular")
    ainv = np.linalg.inv(a)
    c = np.tensordot(ainv, ainv.T @ mu.c, (0, 0)) @ a.T
    prov = dict(mu.provenance)
    prov["acted"] = True
    return FloatBracket(mu.dim, c, prov)


# ---------------------------------------------------------------------------
# Newton machinery

def numeric_jacobian(fn, u: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    base = np.asarray(fn(u), float)
    jac = np.zeros((base.size, u.size))
    for j in range(u.size):
        step = np.zeros_like(u)
        step[j] = eps
        jac[:, j] = (np.asarray(fn(u + step)) - np.asarray(fn(u - step))) / (2 * eps)
    return jac


# a diverging iterate may overflow; the checks below read its result
@np.errstate(over="ignore", invalid="ignore")
def _chord_newton(residual_fn, u0: np.ndarray, pinv: np.ndarray, cfg: NewtonConfig):
    """Chord Newton with a fixed pseudoinverse, refreshed on stall.

    Returns (u, residual, iterations, converged).  Non-convergence is a
    result, not an exception: an iterate that diverges past floating-point
    range or leaves the chart of the residual ends the iteration, and the
    last finite iterate is returned with converged=False.  A refresh
    replaces the chord of this call only, never the caller's ``pinv``.
    """
    u = np.array(u0, dtype=float)
    r = np.asarray(residual_fn(u), float)
    res = _sup(r)
    if res <= cfg.tol:
        return u, res, 0, True
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
    return c[_subset_index(c.shape[0], 2)].ravel()


def _frame_brackets(c: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """Brackets under c of the frame's column pairs i<j, one row per pair."""
    i, j = _subset_index(frame.shape[1], 2)
    t = np.tensordot(frame, c, (0, 0))  # t[i, b] = [f_i, e_b]
    return np.einsum("bj,ibk->ijk", frame, t)[i, j]


def _curvature_flat(c_target: np.ndarray, c_source: np.ndarray,
                    p: np.ndarray) -> np.ndarray:
    pairs = _subset_index(c_source.shape[0], 2)
    return (_frame_brackets(c_target, p) - c_source[pairs] @ p.T).ravel()


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
    eta = np.asarray(eta, dtype=float)
    z = _frame_brackets(mu.c, graph_basis(frames, eta))
    return (z @ frames.q_reader.T - z @ frames.h_reader.T @ eta.T).ravel()


# ---------------------------------------------------------------------------
# one float chart per problem kind

class _Chart:
    """A float chart around the base point of one problem.

    It holds the acting bracket ``mu`` of the algebra whose group acts, the
    base value ``base`` and its chart point ``origin``.  A value (bracket,
    matrix or plane frame) is read as a float array, then as a chart point,
    then in flat chart coordinates.  Log coordinates are x in g, acting on
    matrix values as exp(ad_x); the bracket chart acts by GL(g) instead.
    One chart serves every seed of an experiment: the recovery chord
    ``orbit_pinv`` and the acting algebra's chart ``acting`` are kept.
    """

    # the structure map moves along a direction xi as sign * d_t(xi)
    sign = 1.0

    def __init__(self, p: Problem, algebra: LieAlgebra):
        self.p = p
        self.algebra = algebra
        self.mu = FloatBracket.from_exact(algebra)
        self.log_shape = (algebra.dim,)

    def array(self, value) -> np.ndarray:
        return np.asarray(value, dtype=float)

    def point(self, arr: np.ndarray) -> np.ndarray:
        return arr

    def flat(self, point: np.ndarray) -> np.ndarray:
        return point.T.ravel()

    def unflat(self, u: np.ndarray) -> np.ndarray:
        return u.reshape(self.origin.shape[::-1]).T

    def coords(self, value) -> np.ndarray:
        return self.flat(self.point(self.array(value)))

    def log(self, u: np.ndarray) -> np.ndarray:
        return u

    def group(self, x: np.ndarray) -> np.ndarray:
        return expm(ad_float(self.mu.c, x))

    def act(self, a: np.ndarray, value):
        return a @ value

    def orbit_linearization(self) -> np.ndarray:
        """Derivative at x = 0 of x -> coords(exp(x) . base)."""
        return -float_matrix(self.p.complex.d(self.p.tangent_degree - 1))

    @cached_property
    def orbit_pinv(self) -> np.ndarray:
        return np.linalg.pinv(self.orbit_linearization())

    @cached_property
    def acting(self) -> "_BracketChart":
        return _BracketChart(Problem(self.algebra))

    def linearization(self, mu: FloatBracket) -> np.ndarray:
        """Derivative at the origin of the structure map under ``mu``."""
        c_source, mats = self.action(mu)
        rows = differential_rows(1, len(mats), self.origin.shape[0],
                                 c_source, mats)
        return float_matrix(SparseMatrix(len(rows), self.origin.size, rows))

    def checked(self, value, cfg: NewtonConfig, label: str) -> tuple:
        """(chart point, structure defect) of an outside value; refuses a
        non-finite entry and a defect not within the input tolerance."""
        arr = self.array(value)
        shape = self.array(self.base).shape
        if arr.shape != shape:
            raise ValueError(f"{label} has shape {arr.shape}, expected {shape}")
        if not np.all(np.isfinite(arr)):
            raise InputDefectError(f"{label} has a non-finite entry")
        point = self.point(arr)
        defect = _sup(self.structure(point))
        if not defect <= cfg.input_defect_tol:
            raise InputDefectError(f"{label} is not a {self.name} to round-off "
                                   f"({self.defect_name} {defect:.3e})")
        return point, defect

    def recovery_diagnostics(self, amat: np.ndarray, value) -> dict:
        return {}

    def continuation_diagnostics(self, point: np.ndarray) -> dict:
        return {}


class _BracketChart(_Chart):
    """GL(g) acting on structure tensors: a value is a FloatBracket or its
    tensor, the tensor is its own chart point, log coordinates are a in
    gl(g), and the structure map is the Jacobiator."""

    name, defect_name = "bracket", "Jacobi defect"
    sign = -1.0  # J(mu + s xi) = J(mu) - s d(xi) + O(s^2)

    def __init__(self, p: Problem):
        super().__init__(p, p.obj)
        self.base, self.origin = self.mu, self.mu.c
        self.log_shape = (p.obj.dim, p.obj.dim)

    def array(self, value) -> np.ndarray:
        if not isinstance(value, FloatBracket):
            value = FloatBracket(self.mu.dim, value)
        return value.c

    def flat(self, point: np.ndarray) -> np.ndarray:
        return _pairs_flat(point)

    def structure(self, point: np.ndarray, mu=None) -> np.ndarray:
        return jacobiator_flat(point)

    def log(self, u: np.ndarray) -> np.ndarray:
        return u.reshape(self.log_shape).T

    def group(self, x: np.ndarray) -> np.ndarray:
        return expm(x)

    def act(self, a: np.ndarray, value: FloatBracket) -> FloatBracket:
        return act_on_bracket(a, value)


class _HomChart(_Chart):
    """Ad G acting on homomorphisms rho: h -> g: a value is the matrix of
    rho, its own chart point, and the structure map is the curvature."""

    name, defect_name = "homomorphism", "curvature"

    def __init__(self, p: Problem):
        super().__init__(p, p.obj.target)
        self.source = FloatBracket.from_exact(p.obj.source.candidate)
        self.base = self.origin = float_matrix(p.obj.matrix)

    def structure(self, point: np.ndarray, mu=None) -> np.ndarray:
        return _curvature_flat((mu or self.mu).c, self.source.c, point)

    def action(self, mu: FloatBracket) -> tuple:
        return self.source.c, [ad_float(mu.c, self.origin[:, j])
                               for j in range(self.source.dim)]


class _SubChart(_Chart):
    """Ad G acting on k-planes near the subalgebra h, read in the graph
    chart: a value is a plane frame (n x k), its chart point eta (q x k), and
    the structure map is the closure defect."""

    name, defect_name = "subalgebra", "closure defect"

    def __init__(self, p: Problem):
        w = p.obj
        super().__init__(p, w.ambient)
        self.frames = sub_frames(w)
        self.base = self.frames.basis
        self.origin = np.zeros((w.quotient_dim, w.dim))

    def point(self, arr: np.ndarray) -> np.ndarray:
        return chart_coords(self.frames, arr)

    def structure(self, point: np.ndarray, mu=None) -> np.ndarray:
        return chart_defect_flat(self.frames, point, mu or self.mu)

    def orbit_linearization(self) -> np.ndarray:
        d0 = float_matrix(self.p.complex.d(0))
        proj = float_matrix(self.p.obj.coords.projection)
        return -(d0 @ proj)

    def action(self, mu: FloatBracket) -> tuple:
        # action = quotient part of mu(basis_j, section_c); acting bracket =
        # subalgebra part of mu(basis_i, basis_j)
        f, q = self.frames, len(self.origin)
        mats = [np.array([f.q_reader @ mu.bracket(b, s) for s in f.section.T])
                .reshape(q, q).T for b in f.basis.T]
        c_h = np.array([[f.h_reader @ mu.bracket(a, b) for b in f.basis.T]
                        for a in f.basis.T])
        return c_h, mats

    def recovery_diagnostics(self, amat: np.ndarray, value) -> dict:
        n, k = self.base.shape
        recovered = amat @ self.base
        if not (k and k < n):
            angles = np.zeros(0)
        elif np.all(np.isfinite(recovered)):
            angles = subspace_angles(recovered, np.asarray(value, float))
        else:
            # a diverged iterate can overflow the exponential; the plane
            # distance is then meaningless, not merely large
            angles = np.array([np.inf])
        return {"principal_angle_sup": _sup(angles)}

    def continuation_diagnostics(self, point: np.ndarray) -> dict:
        return {"plane": [list(map(float, row))
                          for row in graph_basis(self.frames, point)]}


_CHARTS = {"bracket": _BracketChart, "hom": _HomChart, "sub": _SubChart}


def _chart(obj, kind: str) -> _Chart:
    """``obj`` itself when it is a chart, else the chart of ``obj`` (raw
    object or problem); refuses (TypeError) a problem of another kind."""
    if kind not in _CHARTS:
        raise ValueError(f"unknown kind {kind!r}")
    if isinstance(obj, _Chart):
        Problem.of(obj.p, kind)
        return obj
    return _CHARTS[kind](Problem.of(obj, kind))


# ---------------------------------------------------------------------------
# orbit recovery and zero continuation

# the record of a diverged iterate reports its determinant as inf
@np.errstate(over="ignore", invalid="ignore")
def _recover(chart: _Chart, value, cfg: NewtonConfig,
             rigidity) -> RecoveryResult:
    """Find log coordinates x with exp(x) . base ~ value: the ``rigidity``
    verdict must hold, the value must pass the input check, and chord
    Newton runs from x = 0 on the orbit-map linearization."""
    p = chart.p
    if not rigidity(p).holds:
        raise PreconditionError(
            f"{chart.name} rigidity criterion "
            f"(H{p.tangent_degree}=0) does not hold; orbit recovery is not "
            "guaranteed")
    target = chart.flat(chart.checked(value, cfg, "input")[0])

    def residual(u):
        value = chart.act(chart.group(chart.log(u)), chart.base)
        return chart.coords(value) - target

    pinv = chart.orbit_pinv
    u, res, iters, ok = _chord_newton(residual, np.zeros(pinv.shape[0]), pinv, cfg)
    x = chart.log(u)
    amat = chart.group(x)
    return RecoveryResult(kind=p.kind, log_solution=x, group_matrix=amat,
                          residual=res, iterations=iters, converged=ok,
                          determinant=float(np.linalg.det(amat)),
                          diagnostics={"log_sup": _sup(x),
                                       **chart.recovery_diagnostics(amat, value)})


def _continue(chart: _Chart, mu_prime: FloatBracket, cfg: NewtonConfig,
              stability) -> ContinuationResult:
    """Move the base point to a zero of the structure map under the
    perturbed bracket mu': the ``stability`` verdict must hold, mu' must
    pass the bracket input check, and chord Newton runs from the base point
    on the structure map's linearization under mu'."""
    p = chart.p
    if not stability(p).holds:
        raise PreconditionError(
            f"{chart.name} stability criterion "
            f"(H{p.tangent_degree + 1}=0) does not hold; continuation is not "
            "guaranteed")
    _, defect = chart.acting.checked(mu_prime, cfg, "perturbed bracket")

    def residual(u):
        return chart.structure(chart.unflat(u), mu_prime)

    pinv = np.linalg.pinv(chart.linearization(mu_prime))
    u, res, iters, ok = _chord_newton(residual, chart.flat(chart.origin),
                                      pinv, cfg)
    point = chart.unflat(u)
    return ContinuationResult(kind=p.kind, solution=point, residual=res,
                              iterations=iters, converged=ok,
                              distance=_sup(point - chart.origin),
                              input_defect=defect,
                              diagnostics=chart.continuation_diagnostics(point))


def recover_bracket_orbit(g: LieAlgebra | Problem, mu_prime: FloatBracket,
                          cfg: NewtonConfig = NewtonConfig()) -> RecoveryResult:
    """Find A = exp(a) with A . mu ~ mu'.  Requires H^2(g,g) = 0; the Newton
    linearization at a = 0 is minus the adjoint differential C^1 -> C^2."""
    return _recover(_chart(g, "bracket"), mu_prime, cfg, bracket_rigidity)


def recover_hom_orbit(rho: Homomorphism | Problem, rho_prime: np.ndarray,
                      cfg: NewtonConfig = NewtonConfig()) -> RecoveryResult:
    """Find x with exp(ad_x) o rho ~ rho'.  Requires H^1(h,g) = 0; refuses
    rho' whose curvature exceeds the input tolerance."""
    return _recover(_chart(rho, "hom"), rho_prime, cfg, hom_rigidity)


def recover_sub_orbit(w: SubalgebraWitness | Problem, plane_prime: np.ndarray,
                      cfg: NewtonConfig = NewtonConfig()) -> RecoveryResult:
    """Find x with exp(ad_x)(h) ~ the given plane, in chart coordinates.
    Requires H^1(h,g/h) = 0; refuses planes that fail the subalgebra-closure
    defect check or fall outside the graph chart."""
    return _recover(_chart(w, "sub"), plane_prime, cfg, sub_rigidity)


def continue_hom(rho: Homomorphism | Problem, mu_prime: FloatBracket,
                 cfg: NewtonConfig = NewtonConfig()) -> ContinuationResult:
    """Deform rho to a homomorphism into the perturbed bracket mu'.
    Requires H^2(h,g) = 0; Newton runs on the curvature map phi -> K_mu'(phi)
    starting at rho, linearized by the differential built from mu' at rho."""
    return _continue(_chart(rho, "hom"), mu_prime, cfg, hom_stability)


def continue_sub(w: SubalgebraWitness | Problem, mu_prime: FloatBracket,
                 cfg: NewtonConfig = NewtonConfig()) -> ContinuationResult:
    """Deform the subalgebra to one closed under the perturbed bracket mu',
    in the graph chart.  Requires H^2(h,g/h) = 0; Newton runs on the chart
    closure defect, linearized by the quotient-type differential of mu'."""
    return _continue(_chart(w, "sub"), mu_prime, cfg, sub_stability)


# ---------------------------------------------------------------------------
# seeded perturbations

def _perturbed(chart: _Chart, scale: float, seed: int) -> tuple:
    """exp(x0) . base, x0 uniform entrywise; refuses an overflowed exp(x0)."""
    x0 = np.random.default_rng(seed).uniform(-scale, scale, chart.log_shape)
    a0 = chart.group(x0)
    if not np.all(np.isfinite(a0)):
        raise InputDefectError("perturbation exp(x0) has a non-finite entry")
    return chart.act(a0, chart.base), x0


def perturbed_bracket(g: LieAlgebra, scale: float, seed: int) -> tuple:
    """mu' = exp(a0) . mu with a0 uniform in [-scale, scale] entrywise.
    Returns (FloatBracket, a0)."""
    chart = _chart(g, "bracket")
    out, a0 = _perturbed(chart, scale, seed)
    prov = {"source": chart.algebra.name,
            "perturbation": {"scale": scale, "seed": seed}}
    return FloatBracket(out.dim, out.c, prov), a0


def perturbed_hom(rho: Homomorphism, scale: float, seed: int) -> tuple:
    """rho' = exp(ad_x0) o rho with x0 uniform entrywise.  Returns (rho', x0)."""
    return _perturbed(_chart(rho, "hom"), scale, seed)


def perturbed_plane(w: SubalgebraWitness, scale: float, seed: int) -> tuple:
    """plane' = exp(ad_x0)(h) with x0 uniform entrywise.  Returns (plane', x0)."""
    return _perturbed(_chart(w, "sub"), scale, seed)


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
    chart = _chart(base, kind)
    p, degree = chart.p, chart.p.tangent_degree
    by_t = {}
    for t, value in samples:
        by_t[float(t)] = chart.coords(value)
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
    chart = _chart(base, kind)
    d = chart.array(direction)

    def value(s):
        return chart.structure(chart.origin + s * d)

    p = chart.p
    true_deriv = float_matrix(p.complex.d(p.tangent_degree)) @ (
        chart.sign * chart.flat(d))

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

def _perturbed_acting(chart: _Chart, scale: float, seed: int) -> tuple:
    """perturbed_bracket of the algebra acting on the chart's base point."""
    return perturbed_bracket(chart.acting, scale, seed)


# experiment kind, in documents.EXPERIMENT_KINDS order -> (seeded
# perturbation of the object, solver of the perturbed problem)
EXPERIMENTS = {
    "bracket-recovery": (perturbed_bracket, recover_bracket_orbit),
    "hom-recovery": (perturbed_hom, recover_hom_orbit),
    "sub-recovery": (perturbed_plane, recover_sub_orbit),
    "hom-continuation": (_perturbed_acting, continue_hom),
    "sub-continuation": (_perturbed_acting, continue_sub),
}


def run_experiment(kind: str, obj, seeds, scale: float = 0.05,
                   cfg: NewtonConfig = NewtonConfig()) -> list:
    """Run one recovery/continuation per seed; records return in seed order.

    One chart of the object serves every seed, so its cohomology (behind
    every precondition verdict), its float base point and the recovery chord
    pseudoinverse are computed once, at the first seed.
    """
    if kind not in EXPERIMENTS:
        raise ValueError(f"unknown experiment kind {kind!r}")
    perturb, solve = EXPERIMENTS[kind]
    problem = Problem.of(obj)
    chart = _CHARTS[problem.kind](problem)
    records = []
    for seed in seeds:
        perturbed, pert = perturb(chart, scale, seed)
        result = solve(chart, perturbed, cfg)
        records.append({"seed": seed, "perturbation_sup": _sup(pert),
                        **result.to_json_dict()})
    return records
