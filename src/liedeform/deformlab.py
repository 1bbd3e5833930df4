"""Floating-point deformation laboratory.

Newton orbit recovery and zero continuation for brackets, homomorphisms and
subalgebras, plus finite-difference checks of the curve-derivative and
vertical-derivative identities.  Group elements are parametrized as
exponentials: A = exp(a) acting on brackets, Ad_{exp(x)} = exp(ad_x) acting
on homomorphisms and subspaces.  Newton steps x - P r(x), a chord
iteration: the least-squares pseudoinverse P of the linearization at the
base point is computed once (for recovery, once per chart) and reused,
refreshed from a numerical Jacobian only on a stall (a round that does not
halve the residual) that leaves its seed another round.
The seeds of a call are perturbed as one stack, exp(x0) . base, refusing as
input defects an overflowed exp(x0) and, on brackets, a singular one.

Each problem kind has one float chart (``_CHARTS``): its acting bracket and
base point, flat chart coordinates, structure map, group action and orbit
linearization, kept in its problem, so one per object.  Its maps take one
value or a stack of values (leading axes), so one Newton loop
(``_chord_newton``) runs the seeds of a call in lockstep: one residual call
per round on every running seed, each seed keeping its own iterate,
residual, iteration count and chord, in one stack of chords per call.
Every chart reads its orbit residual the same way, as the flat coordinates
of its action on the base; the bracket chart acts on plain tensors, so
Newton builds no FloatBracket per iterate.

Importing the module loads no float stack: NumPy, its one dependency, is
imported on the first float computation.  The group map of every chart is
``expm``, a stacked Pade exponential, and the subalgebra recovery diagnostic
reads ``largest_principal_angle``; both are NumPy code here.

Flattening follows the cochain convention throughout: a k-cochain value
block for the p-th basis subset occupies flat indices [p*m, (p+1)*m); a
1-cochain seen as a matrix M (columns = values) flattens to M.T.ravel().
"""

from __future__ import annotations

import sys
from functools import cache, cached_property, wraps
from itertools import combinations
from math import acos, asin, ceil, copysign, factorial, isfinite, log2, prod

from . import pcg64
from .algebras import Homomorphism, LieAlgebra, SubalgebraWitness
from .cecomplex import Problem
from .documents import (DEFAULT_SCALE, ChartError, InputDefectError,
                        NewtonConfig, PreconditionError)
from .records import field, record
from .verdicts import (bracket_rigidity, hom_rigidity, hom_stability,
                       sub_rigidity, sub_stability)


class _FirstUse:
    """Stands in for NumPy as the module name ``np`` until it is first used:
    the first attribute read imports NumPy and rebinds ``np`` to it, so
    every later read goes straight there.  It has no attribute of its own
    to hide one of NumPy's."""

    __slots__ = ()

    def __getattr__(self, attr):
        import numpy
        globals()["np"] = numpy
        return getattr(numpy, attr)


np = _FirstUse()


def _ignoring_overflow(fn):
    """``fn`` run under ``np.errstate(over="ignore", invalid="ignore")``,
    entered on each call, so NumPy is not read when ``fn`` is defined."""
    @wraps(fn)
    def guarded(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore"):
            return fn(*args, **kwargs)
    return guarded


def _sup(arr) -> float:
    a = arr if type(arr) is np.ndarray else np.asarray(arr, dtype=float)
    return float(np.abs(a).max()) if a.size else 0.0


def _row_sup(r: np.ndarray) -> np.ndarray:
    """``_sup`` of each row (last axis) of a stack."""
    return np.abs(r).max(axis=-1, initial=0.0)


def _flat(x: np.ndarray) -> np.ndarray:
    """``x`` with its last two axes read as one, in C order (not for an
    empty stack)."""
    return x.reshape(x.shape[:-2] + (-1,))


def float_matrix(m) -> np.ndarray:
    """An exact matrix as a float array, its row nonzeros put into zeros."""
    out = np.zeros((m.rows, m.cols))
    for i, row in enumerate(m.row_maps):
        out[i, list(row)] = list(map(float, row.values()))
    return out


def ad_float(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix of u -> bracket(x, u) for a float structure tensor; x and the
    tensor may be stacks, whose leading axes broadcast."""
    return np.einsum("...i,...ijk->...kj", x, c)


# Higham (2005), Table 2.3: for each Pade degree m, the largest 1-norm of A
# at which the degree-m approximant of exp(A) meets double precision
_PADE_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
               (7, 9.504178996162932e-1), (9, 2.097847961257068e0),
               (13, 5.371920351148152e0))


@cache
def _pade_terms(m: int, n: int) -> tuple:
    """The degree-m Pade numerator of exp, sum b_j A^j, as U + V with U = A
    p_odd(A^2) and V = p_even(A^2), both polynomials of degree (m - 1)/2:
    shared read-only (lead, terms) for Horner's rule on the two at once,
    the pair (b_m, b_(m-1)) as scalars, then each lower pair (b_(2i+1),
    b_(2i)) times the n x n identity."""
    b = [factorial(2 * m - j) * factorial(m)
         / (factorial(2 * m) * factorial(j) * factorial(m - j))
         for j in range(m + 1)]
    pairs = np.array([(b[j], b[j - 1]) for j in range(m, 0, -2)])
    out = (pairs[0, :, None, None, None],
           pairs[1:, :, None, None, None] * np.eye(n))
    for arr in out:
        arr.flags.writeable = False
    return out


def _pade_squared(b: np.ndarray, m: int, s: int) -> np.ndarray:
    """exp of each matrix of the stack ``b``: the degree-m Pade approximant
    in 2^-s b, squared s times."""
    lead, terms = _pade_terms(m, b.shape[-1])
    if s:
        b = b * 2.0 ** -s
    a2 = b @ b
    w = lead * a2 + terms[0]  # [p_odd, p_even] by Horner's rule in A^2
    for term in terms[1:]:
        w = a2 @ w + term
    u = b @ w[0]
    x = np.linalg.solve(w[1] - u, w[1] + u)
    for _ in range(s):
        x = x @ x
    return x


# a power may overflow as it is squared; its entries then read inf or NaN
@_ignoring_overflow
def expm(a: np.ndarray) -> np.ndarray:
    """exp of one square matrix, or of each of a stack: scaling and squaring
    on a Pade approximant (Higham, SIAM J. Matrix Anal. Appl. 26 (2005)).
    The degree m and the scaling s are read from each matrix's 1-norm alone,
    so a matrix's exponential does not depend on the stack it is in; each
    (m, s) group of the stack is evaluated at once.  A matrix whose 1-norm
    is not finite gives NaN."""
    a = np.ascontiguousarray(a, dtype=float)
    if not a.size:
        return a.copy()
    stack = a.reshape((-1,) + a.shape[-2:])
    groups = {}
    for i, norm in enumerate(np.abs(stack).sum(axis=-2).max(axis=-1).tolist()):
        key = next(((m, 0) for m, theta in _PADE_THETA if norm <= theta), None)
        if key is None and isfinite(norm):
            key = (13, ceil(log2(norm / _PADE_THETA[-1][1])))
        groups.setdefault(key, []).append(i)
    # the usual stack, one (m, s) group, skips the NaN stack and its scatter
    if len(groups) == 1 and None not in groups:
        (m, s), = groups
        return _pade_squared(stack, m, s).reshape(a.shape)
    out = np.full(stack.shape, np.nan)
    for key, rows in groups.items():
        if key is not None:
            out[rows] = _pade_squared(stack[rows], *key)
    return out.reshape(a.shape)


def largest_principal_angle(a: np.ndarray, b: np.ndarray) -> float:
    """The largest principal angle between the column spans of two finite
    frames of full column rank, read as SciPy's ``subspace_angles`` reads
    it (Knyazev and Argentati, SIAM J. Sci. Comput. 23 (2002)): the arccos
    of the smallest cosine, or, when that cosine squared is at least 1/2,
    the arcsin of the largest sine, which is accurate for small angles."""
    qa, qb = np.linalg.qr(a)[0], np.linalg.qr(b)[0]
    cosines = qa.T @ qb
    c = float(np.linalg.svd(cosines, compute_uv=False)[-1])
    if c * c < 0.5:
        return acos(c)
    sine = float(np.linalg.svd(qb - qa @ cosines, compute_uv=False)[0])
    return asin(min(sine, 1.0))


@cache
def _subset_index(n: int, k: int) -> tuple:
    """Shared read-only index arrays of the k-subsets, in subset order."""
    index = np.array(list(combinations(range(n), k)), dtype=int).reshape(-1, k).T
    index.flags.writeable = False
    return tuple(index)


def jacobiator_flat(c: np.ndarray) -> np.ndarray:
    """Jacobi defects on basis triples i<j<k, flattened in subset order, of
    one structure tensor or a stack of them."""
    n, lead = c.shape[-1], c.shape[:-3]
    i, j, k = _subset_index(n, 3)
    # t[..., i, j, k, :] = [[e_i, e_j], e_k], the product tensordot(c, c,
    # (2, 0)) makes
    t = (c.reshape(lead + (n * n, n)) @ c.reshape(lead + (n, n * n))
         ).reshape(lead + (n,) * 4)
    return _flat(t[..., i, j, k, :] + t[..., j, k, i, :] + t[..., k, i, j, :])


@record
class FloatBracket:
    """Structure constants in double precision.  Antisymmetry is enforced at
    construction; the Jacobi defect is tracked, never assumed."""

    __eq__, __hash__ = object.__eq__, object.__hash__  # arrays: by identity

    dim: int
    c: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if c.shape != (self.dim, self.dim, self.dim):
            raise ValueError("structure tensor has wrong shape")
        object.__setattr__(self, "c", (c - c.transpose(1, 0, 2)) / 2.0)

    @classmethod
    def from_exact(cls, g: LieAlgebra) -> "FloatBracket":
        c = np.zeros((g.dim,) * 3)
        for i, plane in enumerate(g.candidate.terms):
            for j, col in enumerate(plane):
                for k, x in col:
                    c[i, j, k] = float(x)
        return cls(g.dim, c)


def _regular(x: np.ndarray, tol: float) -> tuple:
    """(x with each matrix that is not finite, or whose |det| < tol, made the
    identity; which were finite; which of those were singular)."""
    finite = np.isfinite(x).all(axis=(-2, -1))
    x = np.where(finite[..., None, None], x, np.eye(x.shape[-1]))
    singular = abs(np.linalg.det(x)) < tol
    x = np.where(singular[..., None, None], np.eye(x.shape[-1]), x)
    return x, finite, singular


def _acted(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """A c(A^-1 u, A^-1 v) for one matrix A or a stack of them.  A
    non-finite or singular A is refused: one matrix raises LinAlgError, and
    a refused matrix of a stack gives a NaN tensor."""
    n, refused = c.shape[-1], None
    # the common case, every matrix finite and regular, read in Python floats
    if a.size and not (np.isfinite(a).all() and min(
            map(abs, np.linalg.det(a).reshape(-1).tolist())) >= SINGULAR_DET):
        a, finite, singular = _regular(a, SINGULAR_DET)
        if a.ndim == 2:
            raise np.linalg.LinAlgError(
                "matrix acting on the bracket is "
                + ("singular" if finite else "not finite"))
        refused = ~finite | singular
    ainv_t, lead = np.linalg.inv(a).swapaxes(-1, -2), a.shape[:-2]
    # the product tensordot(ainv, ainv.T @ c, (0, 0)) makes, without its wrapper
    m = (ainv_t[..., None, :, :] @ c).reshape(lead + (n, n * n))
    t = ((ainv_t @ m).reshape(lead + (n, n, n))
         @ a.swapaxes(-1, -2)[..., None, :, :])
    if refused is not None:
        t[refused] = np.nan
    return t


def act_on_bracket(a_matrix: np.ndarray, mu: FloatBracket) -> FloatBracket:
    """(A . mu)(u, v) = A mu(A^-1 u, A^-1 v), on structure constants: the
    tensor of ``_acted``, the bracket chart's action, in one record."""
    c = _acted(np.asarray(a_matrix, dtype=float), mu.c)
    return FloatBracket(mu.dim, c)


# ---------------------------------------------------------------------------
# Newton machinery

# the central-difference steps of ``numeric_jacobian`` and of
# ``vertical_derivative_fd_check``; the residual ratio above which chord
# Newton refreshes its chord; the structure defect an outside value may carry
# (its Jacobi defect, curvature or closure defect); the |det| below which the
# bracket action refuses a matrix, one bound for the action and the chart
JACOBIAN_STEP = 1e-6
FD_CHECK_STEP = 1e-3
STALL_RATIO = 1 / 2
INPUT_DEFECT_TOL = 1e-8
SINGULAR_DET = 1e-12
# a central difference errs by about eps/h relative to the Jacobian, so a
# refreshed chord inverts no singular value below 100 times that: those are
# difference noise (the stabilizer directions), not the Jacobian.
# ``sys.float_info``, since NumPy loads only on first use
REFRESH_CUT = 100 * sys.float_info.epsilon / JACOBIAN_STEP


def numeric_jacobian(fn, u: np.ndarray) -> np.ndarray:
    """Central differences of ``fn``, which maps a stack of points (rows) to
    a stack of residuals: the 2 u.size points u + h e_j and u - h e_j, for
    ascending j, are evaluated in one call."""
    step = np.diag(np.full(u.size, JACOBIAN_STEP))
    points = np.stack([u + step, u - step], axis=1).reshape(2 * u.size, u.size)
    r = np.asarray(fn(points), dtype=float)
    return ((r[0::2] - r[1::2]) / (2 * JACOBIAN_STEP)).T


# a diverging iterate may overflow; the checks below read its result
@_ignoring_overflow
def _chord_newton(residual, u0: np.ndarray, chord: np.ndarray,
                  cfg: NewtonConfig) -> tuple:
    """Chord Newton on the seeds (rows) of ``u0`` in lockstep, each stepping
    x - P r(x) with its pseudoinverse P (``chord``, a stack of one per seed)
    until ``cfg`` stops it.  P is refreshed on stall: a round that leaves a
    seed's residual sup above ``STALL_RATIO`` (1/2) of the last gives that
    seed the pseudoinverse of a central-difference Jacobian at its new
    iterate, cut at ``REFRESH_CUT`` relative to its largest singular value,
    so that no direction of difference noise is inverted.
    ``residual(u, seeds)`` evaluates in one call the rows of ``u``, iterates
    of the seeds ``seeds`` picks (an index array, one seed per row, or one
    seed, an int, for every row), and returns their residuals, one row per
    row of ``u``: a row outside the chart of the residual comes back
    non-finite.

    Returns (u, residual, iterations, converged), one entry per seed, at the
    last iterate a lone run of that seed accepts.
    Non-convergence is a result, not an exception: a step with a non-finite
    residual ends its seed at the last finite iterate.  A refresh replaces
    its own seed's chord only.
    """
    u = np.array(u0, dtype=float)
    r = residual(u, np.arange(len(u)))
    res = _row_sup(r)
    iters = np.zeros(len(u), dtype=int)
    converged = res <= cfg.tol
    # the running seeds, and their iterates, residual sups, residuals and
    # chords
    seeds = np.flatnonzero(~converged)
    x, rs, rx = u[seeds], res[seeds], r[seeds]
    p = chord[seeds]  # the loop's own copy: ``chord`` may be a read-only view
    rounds = 0
    while seeds.size:
        step = x - np.matmul(p, rx[..., None])[..., 0]
        rounds += 1
        r = residual(step, seeds)
        new_res = _row_sup(r)
        # Python floats: cheaper than NumPy calls on a few seeds
        if rounds < cfg.max_iter and all(
                cfg.tol < v <= STALL_RATIO * w
                for v, w in zip(new_res.tolist(), rs.tolist())):
            x, rs, rx = step, new_res, r  # no seed ends or stalls
            continue
        moved = np.isfinite(new_res)
        # a seed ending in this round keeps its chord: no later step reads it
        done = ~moved | (new_res <= cfg.tol) | (rounds == cfg.max_iter)
        for i in np.flatnonzero(~done & (new_res > STALL_RATIO * rs)):
            refreshed = numeric_jacobian(
                lambda v, seed=seeds[i]: residual(v, seed), step[i])
            if not np.all(np.isfinite(refreshed)):
                done[i] = True
                continue
            p[i] = np.linalg.pinv(refreshed, rcond=REFRESH_CUT)
        x[moved], rs[moved], rx[moved] = step[moved], new_res[moved], r[moved]
        ended = seeds[done]
        u[ended], res[ended] = x[done], rs[done]
        iters[ended], converged[ended] = rounds, new_res[done] <= cfg.tol
        going = ~done
        seeds, x, rs, rx, p = (v[going] for v in (seeds, x, rs, rx, p))
    return u, res, iters, converged


def _json_record(record: dict) -> dict:
    """``record`` with every non-finite float written as None (JSON null),
    since JSON has no infinity or NaN."""
    return {k: None if isinstance(v, float) and not np.isfinite(v) else v
            for k, v in record.items()}


@record
class RecoveryResult:
    __eq__, __hash__ = object.__eq__, object.__hash__  # arrays: by identity

    kind: str
    log_solution: np.ndarray
    group_matrix: np.ndarray
    residual: float
    iterations: int
    converged: bool
    determinant: float
    diagnostics: dict = field(default_factory=dict, compare=False)

    def to_json_dict(self) -> dict:
        return _json_record({
            "kind": self.kind, "converged": self.converged,
            "residual": self.residual, "iterations": self.iterations,
            "determinant": self.determinant,
            "log_solution": np.atleast_2d(self.log_solution).tolist(),
            **self.diagnostics})


@record
class ContinuationResult:
    __eq__, __hash__ = object.__eq__, object.__hash__  # arrays: by identity

    kind: str
    solution: np.ndarray
    residual: float
    iterations: int
    converged: bool
    distance: float
    input_defect: float
    diagnostics: dict = field(default_factory=dict, compare=False)

    def to_json_dict(self) -> dict:
        return _json_record({
            "kind": self.kind, "converged": self.converged,
            "residual": self.residual, "iterations": self.iterations,
            "distance": self.distance, "input_defect": self.input_defect,
            "solution": np.atleast_2d(self.solution).tolist(),
            **self.diagnostics})


@cache
def _pair_cells(n: int) -> np.ndarray:
    """Flat positions in an n x n x n tensor of the blocks [i, j, :] of the
    pairs i<j in subset order."""
    i, j = _subset_index(n, 2)
    return ((i[:, None] * n + j[:, None]) * n + np.arange(n)).ravel()


def _pairs_flat(c: np.ndarray) -> np.ndarray:
    n = c.shape[-1]
    return c.reshape(c.shape[:-3] + (n ** 3,)).take(_pair_cells(n), axis=-1)


def _frame_brackets(c: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """Brackets under c of the frame's column pairs i<j, one row per pair;
    c and the frame may be stacks."""
    n, k = frame.shape[-2:]
    i, j = _subset_index(k, 2)
    # t[..., i, b, :] = [f_i, e_b], the product tensordot(frame, c, (0, 0))
    # makes
    t = frame.swapaxes(-1, -2) @ c.reshape(c.shape[:-3] + (n, n * n))
    t = t.reshape(t.shape[:-1] + (n, n))
    return np.einsum("...bj,...ibk->...ijk", frame, t)[..., i, j, :]


def _curvature_flat(c_target: np.ndarray, c_source: np.ndarray,
                    p: np.ndarray) -> np.ndarray:
    pairs = _subset_index(c_source.shape[0], 2)
    return _flat(_frame_brackets(c_target, p)
                 - c_source[pairs] @ p.swapaxes(-1, -2))


# ---------------------------------------------------------------------------
# the graph chart around a subalgebra

@record
class SubFrames:
    """Float frames of the [basis | section] decomposition for a witness."""

    __eq__, __hash__ = object.__eq__, object.__hash__  # arrays: by identity

    basis: np.ndarray      # n x k
    section: np.ndarray    # n x q
    h_reader: np.ndarray   # k x n
    q_reader: np.ndarray   # q x n


def sub_frames(w: SubalgebraWitness) -> SubFrames:
    """The exact quotient coordinates as floats: the inclusion matrix, the
    section, and as readers the subalgebra coordinates and the projection.
    Stacked, the readers are exactly the inverse of [basis | section]: each
    basis vector is 1 at its own pivot and 0 at the others, the section is
    the unit vectors at the complement, the projection kills the basis, and
    projection @ section = I."""
    c = w.coords
    return SubFrames(float_matrix(Problem.of(w).inclusion.obj.matrix),
                     float_matrix(c.section), float_matrix(c.sub_coords),
                     float_matrix(c.projection))


_OUTSIDE = "plane is outside the graph chart around the witness"


def _graph_coords(frames: SubFrames, planes: np.ndarray) -> tuple:
    """(eta, outside) for one k-plane or a stack near the witness: the chart
    coordinates eta (q x k), with the plane the column span of basis +
    section @ eta, and whether the plane's basis-block is singular (plane
    outside the chart).  The eta of an outside or non-finite plane is NaN."""
    if planes.shape[-2:] != frames.basis.shape:
        raise ValueError("plane matrix has wrong shape")
    x, finite, outside = _regular(frames.h_reader @ planes, 1e-9)
    eta = frames.q_reader @ planes @ np.linalg.inv(x)
    eta[~finite | outside] = np.nan
    return eta, outside


def graph_basis(frames: SubFrames, eta: np.ndarray) -> np.ndarray:
    return frames.basis + frames.section @ np.asarray(eta, dtype=float)


def chart_defect_flat(frames: SubFrames, eta: np.ndarray,
                      c: np.ndarray) -> np.ndarray:
    """Closure defect of the graph plane of eta under the structure tensor c:
    for basis columns G_u, G_v of the graph, the quotient part of
    c(G_u, G_v) minus eta of its subalgebra part, flattened over pairs.  eta
    and the tensor may be stacks."""
    eta = np.asarray(eta, dtype=float)
    z = _frame_brackets(c, graph_basis(frames, eta))
    return _flat(z @ frames.q_reader.T
                 - z @ frames.h_reader.T @ eta.swapaxes(-1, -2))


# ---------------------------------------------------------------------------
# one float chart per problem kind

class _Chart:
    """A float chart around the base point of one problem.

    It holds the acting bracket ``mu`` of the algebra whose group acts, the
    base value ``base`` and its chart point ``origin``.  A value (bracket,
    matrix or plane frame) is read as a float array, then as a chart point,
    then in flat chart coordinates.  Log coordinates are x in g, acting on
    matrix values as exp(ad_x); the bracket chart acts by GL(g) instead.
    From ``point`` on, every map takes one value or a stack of them (leading
    axes) and keeps the stack's axes.  One chart serves every call on its
    object: the recovery chord ``orbit_pinv`` and the acting algebra's chart
    ``acting`` are kept.
    """

    # the structure map moves along a direction xi as sign * d_t(xi)
    sign = 1.0

    def __init__(self, p: Problem, algebra: LieAlgebra):
        self.p = p
        self.algebra = algebra
        self.log_shape = (algebra.dim,)

    def array(self, value) -> np.ndarray:
        """One value as a float array."""
        return np.asarray(value, dtype=float)

    @cached_property
    def value_shape(self) -> tuple:
        return self.array(self.base).shape

    def stack(self, values) -> tuple:
        """(value arrays, whether ``values`` is one value): an array with one
        leading axis more than a value is a stack of values, and anything
        else one value, read by ``array`` into a stack of one."""
        arr = (values.c if isinstance(values, FloatBracket)
               else np.asarray(values, dtype=float))
        if arr.ndim == len(self.value_shape) + 1:
            return arr, False
        return self.array(values)[None], True

    def point(self, arr: np.ndarray) -> tuple:
        """(chart points, which values lie outside the chart)."""
        return arr, np.zeros(arr.shape[:arr.ndim - len(self.value_shape)],
                             dtype=bool)

    def flat(self, point: np.ndarray) -> np.ndarray:
        return _flat(point.swapaxes(-1, -2))

    def unflat(self, u: np.ndarray) -> np.ndarray:
        shape = u.shape[:-1] + self.origin.shape[::-1]
        return u.reshape(shape).swapaxes(-1, -2)

    def coords(self, value) -> np.ndarray:
        """Flat chart coordinates of one value; ChartError outside."""
        point, outside = self.point(self.array(value))
        if outside:
            raise ChartError(_OUTSIDE)
        return self.flat(point)

    def log(self, u: np.ndarray) -> np.ndarray:
        return u

    def group(self, x: np.ndarray) -> np.ndarray:
        return expm(ad_float(self.mu.c, x))

    def act(self, a: np.ndarray, value):
        return a @ value

    def singular(self, a: np.ndarray) -> np.ndarray:
        # which of a stack of finite group elements the action refuses
        return np.zeros(len(a), dtype=bool)

    def orbit_coords(self, a: np.ndarray) -> np.ndarray:
        """Flat coordinates of a . base; NaN outside the chart."""
        return self.flat(self.point(self.act(a, self.base))[0])

    def orbit_linearization(self) -> np.ndarray:
        """Derivative at x = 0 of x -> coords(exp(x) . base)."""
        return -float_matrix(self.p.complex.d(self.p.tangent_degree - 1))

    @cached_property
    def orbit_pinv(self) -> np.ndarray:
        return np.linalg.pinv(self.orbit_linearization())

    @property
    def acting(self) -> "_BracketChart":
        return _chart(self.algebra, "bracket")

    @cached_property
    def mu(self) -> FloatBracket:
        """The acting bracket, converted once, by the acting algebra's chart."""
        return self.acting.mu

    def linearization(self, c: np.ndarray) -> np.ndarray:
        """Derivative at the origin of the structure map under the bracket
        tensor ``c``, the differential d(xi)(e_i, e_j) = r_i xi_j - r_j xi_i
        - xi([e_i, e_j]) of the bracket and the action matrices r (a stack,
        one per basis vector) that ``action`` reads from ``c``; a stack of
        tensors gives the stack of their linearizations."""
        c_source, r = self.action(c)
        m, n = self.origin.shape
        i, j = _subset_index(n, 2)
        lead, pairs, carrier = r.shape[:-3], np.arange(len(i)), np.arange(m)
        jac = np.zeros(lead + (len(i), n, m, m))  # [pair, basis vector, b, a]
        # summed in the order of cecomplex.differential_matrix, which fixes
        # the rounding of each entry
        jac[..., pairs, j, :, :] += r[..., i, :, :]
        jac[..., pairs, i, :, :] -= r[..., j, :, :]
        jac[..., carrier, carrier] -= c_source[..., i, j, :, None]
        return jac.swapaxes(-3, -2).reshape(lead + (len(i) * m, n * m))

    def checked(self, arr: np.ndarray, label: str) -> tuple:
        """(chart points, structure defects) of a stack of outside values;
        refuses a shape other than a value's, then, at the first value that
        has one, a non-finite entry, a point outside the chart and a defect
        not within the input tolerance."""
        if arr.shape[1:] != self.value_shape:
            raise ValueError(f"{label} has shape {arr.shape[1:]}, "
                             f"expected {self.value_shape}")
        finite = np.isfinite(arr).all(axis=tuple(range(1, arr.ndim)))
        points, outside = self.point(arr)
        defects = self.input_defects(arr, points)
        ok = finite & ~outside & (defects <= INPUT_DEFECT_TOL)
        if not ok.all():
            s = ok.argmin()  # the first refused value
            if not finite[s]:
                raise InputDefectError(f"{label} has a non-finite entry")
            if outside[s]:
                raise ChartError(_OUTSIDE)
            raise InputDefectError(f"{label} is not a {self.name} to round-off "
                                   f"({self.defect_name} {defects[s]:.3e})")
        return points, defects

    def input_defects(self, arr: np.ndarray, points: np.ndarray) -> np.ndarray:
        """The structure defect of each value that ``checked`` bounds."""
        return _row_sup(self.structure(points))

    def recovery_diagnostics(self, amat: np.ndarray, value) -> dict:
        return {}

    def continuation_diagnostics(self, point: np.ndarray) -> dict:
        return {}


class _BracketChart(_Chart):
    """GL(g) acting on structure tensors: a value is a FloatBracket or its
    tensor, the tensor is its own chart point, log coordinates are a in
    gl(g), and the structure map is the Jacobiator.  Its action returns
    plain tensors, so orbit coordinates build no record per iterate."""

    name, defect_name = "bracket", "Jacobi defect"
    sign = -1.0  # J(mu + s xi) = J(mu) - s d(xi) + O(s^2)

    def __init__(self, p: Problem):
        super().__init__(p, p.obj)
        self.mu = FloatBracket.from_exact(p.obj)
        self.base, self.origin = self.mu, self.mu.c
        self.log_shape = (p.obj.dim, p.obj.dim)

    def array(self, value) -> np.ndarray:
        if not isinstance(value, FloatBracket):
            value = FloatBracket(self.mu.dim, value)
        return value.c

    def stack(self, values) -> tuple:
        """Stacked tensors are antisymmetrized as FloatBracket does, which
        leaves a FloatBracket's tensor as it is (short of entries above half
        the float range, which no perturbed bracket was seen to reach)."""
        arr, one = super().stack(values)
        return (arr, one) if one else ((arr - arr.swapaxes(1, 2)) / 2.0, one)

    def flat(self, point: np.ndarray) -> np.ndarray:
        return _pairs_flat(point)

    def structure(self, point: np.ndarray, c=None) -> np.ndarray:
        return jacobiator_flat(point)

    def log(self, u: np.ndarray) -> np.ndarray:
        return u.reshape(u.shape[:-1] + self.log_shape).swapaxes(-1, -2)

    def group(self, x: np.ndarray) -> np.ndarray:
        return expm(x)

    def act(self, a: np.ndarray, value: FloatBracket) -> np.ndarray:
        # A . value for a stack of regular A, in no record: the tensors,
        # antisymmetrized as a FloatBracket holds them
        return self.stack(_acted(a, value.c))[0]

    def singular(self, a: np.ndarray) -> np.ndarray:
        return ~(abs(np.linalg.det(a)) >= SINGULAR_DET)


class _HomChart(_Chart):
    """Ad G acting on homomorphisms rho: h -> g: a value is the matrix of
    rho, its own chart point, and the structure map is the curvature."""

    name, defect_name = "homomorphism", "curvature"

    def __init__(self, p: Problem):
        super().__init__(p, p.obj.target)
        self.source = _chart(p.obj.source, "bracket").mu
        self.base = self.origin = float_matrix(p.obj.matrix)

    def structure(self, point: np.ndarray, c=None) -> np.ndarray:
        """The curvature under ``c`` (tensors, one per point), or under the
        acting bracket."""
        return _curvature_flat(self.mu.c if c is None else c, self.source.c,
                               point)

    def action(self, c: np.ndarray) -> tuple:
        return self.source.c, ad_float(c[..., None, :, :, :], self.origin.T)


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

    def point(self, arr: np.ndarray) -> tuple:
        return _graph_coords(self.frames, arr)

    def structure(self, point: np.ndarray, c=None) -> np.ndarray:
        return chart_defect_flat(self.frames, point,
                                 self.mu.c if c is None else c)

    def orbit_linearization(self) -> np.ndarray:
        return -(float_matrix(self.p.complex.d(0)) @ self.frames.q_reader)

    def input_defects(self, arr: np.ndarray, points: np.ndarray) -> np.ndarray:
        """The closure defect of an orthonormal frame q of each plane: the
        part of each bracket [q_i, q_j] outside the plane.  Unlike the chart
        defect, it does not grow with the plane's distance from h."""
        q = np.linalg.qr(arr)[0]
        z = _frame_brackets(self.mu.c, q)
        return _row_sup(_flat(z - z @ q @ q.swapaxes(-1, -2)))

    def action(self, c: np.ndarray) -> tuple:
        # action = quotient part of c(basis_b, section_s); acting bracket =
        # subalgebra part of c(basis_a, basis_b).  Each reader meets the
        # stack of brackets as a stack of matrix-vector products, which
        # rounds as one product per bracket vector did
        f = self.frames
        t = np.einsum("ib,js,...ijk->...bsk", f.basis, f.section, c)[..., None]
        mats = (f.q_reader @ t)[..., 0].swapaxes(-1, -2)
        t = np.einsum("ia,jb,...ijk->...abk", f.basis, f.basis, c)[..., None]
        return (f.h_reader @ t)[..., 0], mats

    def recovery_diagnostics(self, amat: np.ndarray, value) -> dict:
        n, k = self.base.shape
        recovered = amat @ self.base
        if not (k and k < n):
            angle = 0.0
        elif np.all(np.isfinite(recovered)):
            angle = largest_principal_angle(recovered, value)
        else:
            # a diverged iterate can overflow the exponential; the plane
            # distance is then meaningless, not merely large
            angle = float("inf")
        return {"principal_angle_sup": angle}

    def continuation_diagnostics(self, point: np.ndarray) -> dict:
        return {"plane": graph_basis(self.frames, point).tolist()}


_CHARTS = {"bracket": _BracketChart, "hom": _HomChart, "sub": _SubChart}


def _chart(obj, kind: str | None = None) -> _Chart:
    """``obj`` itself when it is a chart, else the chart kept in the problem
    of ``obj``, made on first use; refuses (TypeError) a kind other than
    ``kind``, when one is named."""
    if isinstance(obj, _Chart):
        Problem.of(obj.p, kind)
        return obj
    p = Problem.of(obj, kind)
    if "_chart" not in vars(p):
        vars(p)["_chart"] = _CHARTS[p.kind](p)
    return vars(p)["_chart"]


# ---------------------------------------------------------------------------
# orbit recovery and zero continuation

# a diverged iterate's determinant is inf; its JSON record writes null
@_ignoring_overflow
def _recover(chart: _Chart, values, cfg: NewtonConfig, rigidity):
    """Find log coordinates x with exp(x) . base ~ value for each value: the
    ``rigidity`` verdict must hold, the values must pass the input check,
    and chord Newton runs from x = 0 on the orbit-map linearization."""
    p = chart.p
    if not rigidity(p).holds:
        raise PreconditionError(
            f"{chart.name} rigidity criterion "
            f"(H{p.tangent_degree}=0) does not hold; orbit recovery is not "
            "guaranteed")
    arr, one = chart.stack(values)
    if not len(arr):
        return []
    targets = chart.flat(chart.checked(arr, "input")[0])

    def residual(u, seeds):
        return chart.orbit_coords(chart.group(chart.log(u))) - targets[seeds]

    pinv = chart.orbit_pinv
    u, res, iters, ok = _chord_newton(
        residual, np.zeros((len(arr), pinv.shape[0])),
        np.broadcast_to(pinv, (len(arr),) + pinv.shape), cfg)
    # the group elements of the last accepted iterates, one stacked call as
    # in the residual: expm reads each matrix alone, so each is the one the
    # residual call of its seed's iterate made, bit for bit
    amat = chart.group(chart.log(u))
    x, det = chart.log(u), np.linalg.det(amat)
    results = [RecoveryResult(
        kind=p.kind, log_solution=x[s], group_matrix=amat[s],
        residual=float(res[s]), iterations=int(iters[s]),
        converged=bool(ok[s]), determinant=float(det[s]),
        diagnostics={"log_sup": _sup(x[s]),
                     **chart.recovery_diagnostics(amat[s], arr[s])})
        for s in range(len(arr))]
    return results[0] if one else results


@_ignoring_overflow
def _continue(chart: _Chart, mu_primes, cfg: NewtonConfig, stability):
    """Move the base point to a zero of the structure map under each
    perturbed bracket mu': the ``stability`` verdict must hold, each mu'
    must pass the bracket input check, and chord Newton runs from the base
    point on the structure map's linearization under mu'."""
    p = chart.p
    if not stability(p).holds:
        raise PreconditionError(
            f"{chart.name} stability criterion "
            f"(H{p.tangent_degree + 1}=0) does not hold; continuation is not "
            "guaranteed")
    arr, one = chart.acting.stack(mu_primes)
    if not len(arr):
        return []
    defects = chart.acting.checked(arr, "perturbed bracket")[1]

    def residual(u, seeds):
        return chart.structure(chart.unflat(u), arr[seeds])

    chords = np.linalg.pinv(chart.linearization(arr))
    u0 = np.repeat(chart.flat(chart.origin)[None], len(arr), axis=0)
    u, res, iters, ok = _chord_newton(residual, u0, chords, cfg)
    points = chart.unflat(u)
    results = [ContinuationResult(
        kind=p.kind, solution=points[s], residual=float(res[s]),
        iterations=int(iters[s]), converged=bool(ok[s]),
        distance=_sup(points[s] - chart.origin),
        input_defect=float(defects[s]),
        diagnostics=chart.continuation_diagnostics(points[s]))
        for s in range(len(arr))]
    return results[0] if one else results


# Each entry takes one value and returns its result, or a stack of values
# (an array with one leading axis more than a value: tensors, matrices of
# rho' or plane frames) and returns a list, equal to one call per value.
# It asks the precondition once and refuses the first value in stack order
# that fails the input check; all values run Newton in lockstep.

def recover_bracket_orbit(g: LieAlgebra | Problem, mu_prime,
                          cfg: NewtonConfig = NewtonConfig()):
    """Find A = exp(a) with A . mu ~ mu' (a FloatBracket or tensor).
    Requires H^2(g,g) = 0; the Newton linearization at a = 0 is minus the
    adjoint differential C^1 -> C^2."""
    return _recover(_chart(g, "bracket"), mu_prime, cfg, bracket_rigidity)


def recover_hom_orbit(rho: Homomorphism | Problem, rho_prime: np.ndarray,
                      cfg: NewtonConfig = NewtonConfig()):
    """Find x with exp(ad_x) o rho ~ rho'.  Requires H^1(h,g) = 0; refuses
    rho' whose curvature exceeds the input tolerance."""
    return _recover(_chart(rho, "hom"), rho_prime, cfg, hom_rigidity)


def recover_sub_orbit(w: SubalgebraWitness | Problem, plane_prime: np.ndarray,
                      cfg: NewtonConfig = NewtonConfig()):
    """Find x with exp(ad_x)(h) ~ the given plane, in chart coordinates.
    Requires H^1(h,g/h) = 0; refuses planes that fail the subalgebra-closure
    defect check or fall outside the graph chart."""
    return _recover(_chart(w, "sub"), plane_prime, cfg, sub_rigidity)


def continue_hom(rho: Homomorphism | Problem, mu_prime,
                 cfg: NewtonConfig = NewtonConfig()):
    """Deform rho to a homomorphism into the perturbed bracket mu' (a
    FloatBracket or tensor).  Requires H^2(h,g) = 0; Newton runs on the
    curvature map phi -> K_mu'(phi) starting at rho, linearized by the
    differential built from mu' at rho."""
    return _continue(_chart(rho, "hom"), mu_prime, cfg, hom_stability)


def continue_sub(w: SubalgebraWitness | Problem, mu_prime,
                 cfg: NewtonConfig = NewtonConfig()):
    """Deform the subalgebra to one closed under the perturbed bracket mu',
    in the graph chart.  Requires H^2(h,g/h) = 0; Newton runs on the chart
    closure defect, linearized by the quotient-type differential of mu'."""
    return _continue(_chart(w, "sub"), mu_prime, cfg, sub_stability)


# ---------------------------------------------------------------------------
# seeded perturbations

def _uniform(seeds: list, scale: float, shape: tuple) -> tuple:
    """(x0s, refusal): for each seed before the first refused one,
    ``np.random.default_rng(seed).uniform(-scale, scale, shape)``, bit for
    bit, drawn from ``pcg64``'s stream with no ``numpy.random``, stacked;
    and the refusal NumPy raises at that seed, of its type and text, or
    None.  As in NumPy, the scale is read once the first seed is seeded:
    a seed is refused before the scale, and a refused scale refuses the
    first seed."""
    entropies, refused = pcg64.entropy(seeds)
    low = span = 0.0
    if entropies:
        try:
            low = float(-scale)
            span = float(scale) - low
            if not isfinite(span):
                raise OverflowError("high - low range exceeds valid bounds")
            if copysign(1.0, span) < 0:
                raise ValueError("high - low < 0")
        except (TypeError, ValueError, OverflowError) as exc:
            entropies, refused = [], exc
    count = prod(shape)
    # (draw, seed, lane word): a state's low and high 64 bits are the
    # first two words of its lane
    state = np.frombuffer(pcg64.states(entropies, count), dtype="<u8")
    state = state.reshape(count, len(entropies), pcg64.LANE_WORDS)
    lo, hi = state[..., 0], state[..., 1]
    # Generator.uniform of PCG64: the XSL-RR output of each state, its top
    # 53 bits times 2^-53, then low + span * u, rounded twice (no FMA)
    xor, rot = lo ^ hi, hi >> 58
    out = xor >> rot | xor << ((64 - rot) & 63)
    u = (out >> 11) * (1.0 / 9007199254740992.0)
    return (low + span * u).T.reshape((len(entropies),) + shape), refused


# an exp(x0) or a value may overflow; both are checked, here and as input
@_ignoring_overflow
def _perturbation(chart: _Chart, scale: float, seed: int | list) -> tuple:
    """(exp(x0) . base, x0), x0 uniform entrywise from the seed's stream,
    refusing a seed or scale that NumPy's generator refuses, an overflowed
    exp(x0) and, on the bracket chart, a singular one.  Of a list of seeds,
    in one draw, one group call and one action: (values, x0s) before the
    first refused seed, its refusal or None."""
    seeds = seed if isinstance(seed, list) else [seed]
    x0, refused = _uniform(seeds, scale, chart.log_shape)
    a = chart.group(x0)
    # k: the first seed refused, or len(a); a False ends each mask
    finite = np.isfinite(a).all(axis=(-2, -1)).tolist()
    k = (finite + [False]).index(False)
    k = ((~chart.singular(a[:k])).tolist() + [False]).index(False)
    if k < len(a):
        refused = InputDefectError("perturbation exp(x0) " + (
            "is singular" if finite[k] else "has a non-finite entry"))
    values = chart.act(a[:k], chart.base)
    if refused is not None and seeds is not seed:
        raise refused
    return (values, x0[:k], refused) if seeds is seed else (values[0], x0[0])


# Each perturbation takes one seed, or a list of seeds: the stacked path of
# run_experiment, which returns (values, x0s, refusal or None) as
# _perturbation does and raises nothing.  perturbed_bracket of a chart
# perturbs the chart's acting bracket.

def perturbed_bracket(g: LieAlgebra, scale: float, seed: int | list) -> tuple:
    """mu' = exp(a0) . mu with a0 uniform in [-scale, scale] entrywise.
    Returns (FloatBracket, a0), the one record made from the acted tensor."""
    chart = _chart(g.acting if isinstance(g, _Chart) else g, "bracket")
    out = _perturbation(chart, scale, seed)
    return out if isinstance(seed, list) else (
        FloatBracket(chart.mu.dim, out[0]), out[1])


def perturbed_hom(rho: Homomorphism, scale: float, seed: int | list) -> tuple:
    """rho' = exp(ad_x0) o rho with x0 uniform entrywise.  Returns (rho', x0)."""
    return _perturbation(_chart(rho, "hom"), scale, seed)


def perturbed_plane(w: SubalgebraWitness, scale: float,
                    seed: int | list) -> tuple:
    """plane' = exp(ad_x0)(h) with x0 uniform entrywise.  Returns (plane', x0)."""
    return _perturbation(_chart(w, "sub"), scale, seed)


# ---------------------------------------------------------------------------
# finite-difference checks

def _within_h2(small: float, big: float, h_small: float, h_big: float,
               floor: float) -> bool:
    """Whether the defect ``small`` at step ``h_small`` is within ``floor``
    or 1.5 times the defect ``big`` at ``h_big`` scaled as h^2."""
    c_est = big / h_big ** 2 if big > 0 else 0.0
    return small <= max(floor, 1.5 * c_est * h_small ** 2)


@record
class CurveCheckReport:
    __eq__, __hash__ = object.__eq__, object.__hash__  # arrays: by identity

    kind: str
    steps: tuple
    derivative: np.ndarray
    delta_defects: tuple
    defect_ratio: float | None
    class_residual: float
    ok: bool


def curve_cocycle_check(base, samples) -> CurveCheckReport:
    """Central-difference derivative of a curve through the base object at
    t = 0, checked to be a cocycle up to O(h^2).

    ``base`` is the exact object (LieAlgebra, Homomorphism or
    SubalgebraWitness), or its ``Problem``, that the curve passes through at
    t = 0; its kind names the chart.  ``samples`` is a list of (t, value)
    pairs with values of that kind (structure tensors / FloatBrackets,
    matrices, or k-plane frames) containing at least one symmetric pair;
    with two symmetric pairs the O(h^2) scaling of the delta-defect is
    verified, otherwise an absolute bound is used.  The
    report also carries the least-squares residual of the derivative against
    the coboundaries (its distance from class zero).
    """
    chart = _chart(base)
    p, degree = chart.p, chart.p.tangent_degree
    by_t = {float(t): chart.coords(value) for t, value in samples}
    if len(by_t) < 3 or min(by_t) >= 0 or max(by_t) <= 0:
        raise ValueError("need at least three samples bracketing t = 0")
    hs = sorted({abs(t) for t in by_t if t > 0 and -t in by_t})
    if not hs:
        raise ValueError("need at least one symmetric sample pair")
    if len({v.size for v in by_t.values()}) != 1:
        raise ValueError("inconsistent sample dimensions")
    d_out = float_matrix(p.complex.d(degree))
    d_in = float_matrix(p.complex.d(degree - 1))
    derivs = [(by_t[h] - by_t[-h]) / (2 * h) for h in hs[:2]]
    defects = [_sup(d_out @ deriv) for deriv in derivs]
    derivative = derivs[0]
    if len(hs) >= 2:
        d_small, d_big = defects
        ok = _within_h2(d_small, d_big, hs[0], hs[1], 1e-10)
        ratio = d_big / d_small if d_small > 1e-15 else None
    else:
        ok = defects[0] <= 1e-6
        ratio = None
    if d_in.shape[1]:
        sol, *_ = np.linalg.lstsq(d_in, derivative, rcond=None)
        class_residual = _sup(derivative - d_in @ sol)
    else:
        class_residual = _sup(derivative)
    return CurveCheckReport(kind=p.kind, steps=tuple(hs[:2]),
                            derivative=derivative,
                            delta_defects=tuple(defects),
                            defect_ratio=ratio, class_residual=class_residual,
                            ok=ok)


@record
class FDCheckReport:
    kind: str
    step: float
    central_defects: tuple
    remainder_sups: tuple
    remainder_ratio: float | None
    ok: bool


def vertical_derivative_fd_check(base, direction) -> FDCheckReport:
    """Finite-difference verification that the derivative of the structure
    map (Jacobiator, curvature, chart closure defect) along ``direction`` at
    the base object equals the matching differential of the direction.

    Two quantities are reported at steps h = ``FD_CHECK_STEP`` and h/2: the
    defect of the symmetric difference against the exact derivative, and the
    sup of the first-order Taylor remainder F(x + h d) - F(x) - h dF(d).  The
    remainder scales as h^2 whenever the quadratic term along d is nonzero,
    so its ratio between the two steps sits near 4; for the purely quadratic
    maps (bracket and hom kinds) the symmetric difference is exact and its
    defect is round-off noise, which is why the h^2 assertion rides on the
    remainder.
    """
    chart, h = _chart(base), FD_CHECK_STEP
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
        ahead = value(step)
        central = (ahead - value(-step)) / (2 * step)
        central_defects.append(_sup(central - true_deriv))
        remainder_sups.append(_sup(ahead - base_val - step * true_deriv))
    if remainder_sups[1] > 1e-13:
        remainder_ratio = remainder_sups[0] / remainder_sups[1]
        ratio_ok = 3.5 <= remainder_ratio <= 4.5
    else:
        remainder_ratio = None
        ratio_ok = remainder_sups[0] <= 1e-13
    central_ok = _within_h2(central_defects[1], central_defects[0], h / 2, h,
                            1e-9)
    return FDCheckReport(kind=p.kind, step=h,
                         central_defects=tuple(central_defects),
                         remainder_sups=tuple(remainder_sups),
                         remainder_ratio=remainder_ratio,
                         ok=bool(central_ok and ratio_ok))


# ---------------------------------------------------------------------------
# seeded experiment driver

# experiment kind, in documents.EXPERIMENT_KINDS order -> (seeded
# perturbation of the object's chart, solver of the perturbed problem)
EXPERIMENTS = {
    "bracket-recovery": (perturbed_bracket, recover_bracket_orbit),
    "hom-recovery": (perturbed_hom, recover_hom_orbit),
    "sub-recovery": (perturbed_plane, recover_sub_orbit),
    "hom-continuation": (perturbed_bracket, continue_hom),
    "sub-continuation": (perturbed_bracket, continue_sub),
}


def run_experiment(kind: str, obj, seeds, scale: float = DEFAULT_SCALE,
                   cfg: NewtonConfig = NewtonConfig()) -> list:
    """Run one recovery/continuation per seed; records return in seed order.

    Each seed's x0 is ``np.random.default_rng(seed).uniform(-scale, scale,
    shape)`` bit for bit, read from ``pcg64``'s stream without
    ``numpy.random``: one draw makes the x0 of every seed, one group call
    and one action perturb them all, and the kind's entry runs once on the
    stack.  A seed is an integer (``operator.index``): None, a float or a
    string is refused with a TypeError.  A call raises what one call per
    seed would raise first: a failing precondition, else the first refused
    seed, scale, exp(x0) or input in seed order, after the entry has run on
    the seeds before it.  The object keeps its problem and chart (validated
    objects are treated as immutable), so its cohomology (behind every
    precondition verdict), float base point and recovery chord are computed
    once per object, in any call.
    """
    if kind not in EXPERIMENTS:
        raise ValueError(f"unknown experiment kind {kind!r}")
    perturb, solve = EXPERIMENTS[kind]
    chart = _chart(obj)
    seeds = list(seeds)
    values, x0, refused = perturb(chart, scale, seeds)
    results = solve(chart, values, cfg) if len(values) else []
    if refused is not None:
        raise refused
    return [{"seed": seed, "perturbation_sup": _sup(x), **r.to_json_dict()}
            for seed, x, r in zip(seeds, x0, results)]
