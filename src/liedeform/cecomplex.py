"""Chevalley-Eilenberg complexes and their exact cohomology.

The differential on a k-cochain omega with values in a module (V, r) is

  (d omega)(u_0..u_k) = sum_i (-1)^i r(u_i) omega(.. u_i-hat ..)
                      + sum_{i<j} (-1)^{i+j} omega([u_i,u_j], .. hats ..)

in the flat coordinates of `cochains`.  The matrix builder works for any
bilinear antisymmetric bracket candidate and any square matrices r(u_i); it
does not assume Jacobi or the representation identity, so the same code
serves the exact complexes and the linearizations of the defect maps.
`cohomology` refuses inputs whose composed differentials are nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .algebras import (Homomorphism, LieAlgebra, RepSpec, SubalgebraWitness,
                       adjoint_rep, pullback_rep, quotient_rep)
from .cochains import (AltMap, cochain_dim, insertion_sign, subset_positions,
                       subsets)
from .exactlin import (Matrix, Subspace, _subspace, kernel_and_pivots, rank,
                       rref, solve_particular)


class CohomologyUndefinedError(ValueError):
    """Raised when d o d != 0, so cohomology is not defined."""


class ChainMapError(ValueError):
    """Raised when per-degree matrices do not commute with the differentials."""


def differential_rows(k: int, n: int, m: int, bracket_c, rep_mats):
    """Rows of the degree-k differential as nested lists.

    Generic over the entry type: exact with Fraction inputs, floating point
    with float inputs.  ``bracket_c[i][j][l]`` are the structure constants of
    the acting bracket and ``rep_mats[i]`` the m x m action matrices.
    """
    rows_subsets = subsets(n, k + 1)
    cols_pos = subset_positions(n, k)
    n_rows = len(rows_subsets) * m
    n_cols = cochain_dim(n, k, m)
    out = [[0] * n_cols for _ in range(n_rows)]
    for t_pos, T in enumerate(rows_subsets):
        row_base = t_pos * m
        # action terms
        for i, ui in enumerate(T):
            S = T[:i] + T[i + 1:]
            col_base = cols_pos[S] * m
            sign = -1 if i % 2 else 1
            r = rep_mats[ui]
            for b in range(m):
                rb = r.data[b] if isinstance(r, Matrix) else r[b]
                orow = out[row_base + b]
                for a in range(m):
                    v = rb[a]
                    if v:
                        orow[col_base + a] = orow[col_base + a] + sign * v
        # bracket-insertion terms
        for i in range(k + 1):
            for j in range(i + 1, k + 1):
                sign_ij = -1 if (i + j) % 2 else 1
                rest = T[:i] + T[i + 1:j] + T[j + 1:]
                cl = bracket_c[T[i]][T[j]]
                for l in range(n):
                    coeff = cl[l]
                    if not coeff:
                        continue
                    eps, merged = insertion_sign(l, rest)
                    if eps == 0:
                        continue
                    col_base = cols_pos[merged] * m
                    factor = sign_ij * eps * coeff
                    for b in range(m):
                        orow = out[row_base + b]
                        orow[col_base + b] = orow[col_base + b] + factor
    return out


def differential_matrix(k: int, rep: RepSpec) -> Matrix:
    """Exact matrix of the degree-k differential for a coefficient system."""
    n, m = rep.acting.dim, rep.carrier_dim
    rows = differential_rows(k, n, m, rep.acting.c, rep.matrices)
    return Matrix(len(rows), cochain_dim(n, k, m), rows)


class CEComplex:
    """Caches the exact differentials of one coefficient system."""

    def __init__(self, rep: RepSpec):
        self.rep = rep
        self.n = rep.acting.dim
        self.carrier_dim = rep.carrier_dim
        self._d = {}

    def d(self, k: int) -> Matrix:
        if k not in self._d:
            self._d[k] = differential_matrix(k, self.rep)
        return self._d[k]

    def dim_cochains(self, k: int) -> int:
        return cochain_dim(self.n, k, self.carrier_dim)

    def d_squared_defect(self):
        """First degree k with d_{k+1} d_k != 0, or None."""
        for k in range(self.n):
            if not self.d(k + 1).mul(self.d(k)).is_zero():
                return k
        return None

    def apply_d(self, m: AltMap) -> AltMap:
        if m.domain_dim != self.n or m.carrier_dim != self.carrier_dim:
            raise ValueError("cochain does not fit this complex")
        out = self.d(m.degree).apply(m.flat())
        return AltMap.from_flat(m.degree + 1, self.n, self.carrier_dim, out)


@dataclass(frozen=True)
class DegreeData:
    k: int
    dim_cochains: int
    dim_cocycles: int
    dim_coboundaries: int
    dim_h: int
    cocycles: Subspace
    coboundaries: Subspace
    h_representatives: tuple


@dataclass(frozen=True)
class CohomologyReport:
    label: str
    acting_dim: int
    carrier_dim: int
    degrees: tuple
    complex: CEComplex

    def degree(self, k: int) -> DegreeData:
        for d in self.degrees:
            if d.k == k:
                return d
        raise KeyError(f"degree {k} not in report")

    def dims_h(self):
        return [d.dim_h for d in self.degrees]

    def to_json_dict(self) -> dict:
        return {
            "degrees": [
                {"k": d.k, "dimC": d.dim_cochains, "dimZ": d.dim_cocycles,
                 "dimB": d.dim_coboundaries, "dimH": d.dim_h}
                for d in self.degrees
            ],
            "euler": euler_characteristic(self),
        }


def _h_representatives(cob: Subspace, coc: Subspace):
    """Cocycle basis vectors whose classes form a basis of Z/B: the cocycle
    columns that are pivots after the coboundary columns."""
    cols = [list(v) for v in cob.basis] + [list(v) for v in coc.basis]
    if not cols:
        return ()
    m = Matrix.from_columns(cols, rows=cob.ambient_dim)
    _, pivots = rref(m)
    nb = cob.dim
    return tuple(coc.basis[p - nb] for p in pivots if p >= nb)


def cohomology(rep: RepSpec | CEComplex) -> CohomologyReport:
    """Exact cohomology of a coefficient system, all degrees 0..n; given a
    complex, its differentials are the ones reduced and kept in the report.

    Each differential is row-reduced once: its pivots give the cocycles of
    its own degree and, as pivot columns, the coboundaries of the next.
    Refuses (CohomologyUndefinedError) when the composed differentials are
    not identically zero, which happens exactly when the bracket or the
    action fails its identity.
    """
    cx = rep if isinstance(rep, CEComplex) else CEComplex(rep)
    bad = cx.d_squared_defect()
    if bad is not None:
        raise CohomologyUndefinedError(
            f"d o d is nonzero at degree {bad}; cohomology undefined")
    out = []
    cob = _subspace(cx.dim_cochains(0), [])
    for k in range(0, cx.n + 1):
        d = cx.d(k)
        coc, pivots = kernel_and_pivots(d)
        reps = _h_representatives(cob, coc)
        data = DegreeData(
            k=k,
            dim_cochains=cx.dim_cochains(k),
            dim_cocycles=coc.dim,
            dim_coboundaries=cob.dim,
            dim_h=coc.dim - cob.dim,
            cocycles=coc,
            coboundaries=cob,
            h_representatives=reps,
        )
        assert len(reps) == data.dim_h
        out.append(data)
        cob = _subspace(d.rows, [d.column(j) for j in pivots])
    return CohomologyReport(label=cx.rep.label or cx.rep.variant,
                            acting_dim=cx.n, carrier_dim=cx.carrier_dim,
                            degrees=tuple(out), complex=cx)


def euler_characteristic(report: CohomologyReport) -> int:
    ks = [d.k for d in report.degrees]
    if ks != list(range(0, report.acting_dim + 1)):
        raise ValueError("euler characteristic needs all degrees 0..n")
    return sum((-1) ** d.k * d.dim_h for d in report.degrees)


def adjoint_cohomology(g: LieAlgebra) -> CohomologyReport:
    return cohomology(adjoint_rep(g))


# wrapped object type -> kind name, coefficient system, tangent degree
_PROBLEM_KINDS = {LieAlgebra: ("bracket", adjoint_rep, 2),
                  Homomorphism: ("hom", pullback_rep, 1),
                  SubalgebraWitness: ("sub", quotient_rep, 1)}


class Problem:
    """One deformation problem: a bracket (LieAlgebra), a homomorphism or a
    subalgebra witness, with its coefficient system (adjoint, pullback or
    quotient) and its tangent degree (2, 1 or 1).

    The coefficient system, its complex and the cohomology report reduced
    from that complex are built on first use and kept, so every verdict,
    obstruction class and Newton seed asked of one problem shares one
    differential per degree.  A homomorphism has ``source`` and ``target``,
    the bracket problems of its two algebras; a subalgebra has
    ``inclusion``, the homomorphism problem of h -> g.
    """

    def __init__(self, obj):
        for cls, (kind, rep_of, degree) in _PROBLEM_KINDS.items():
            if isinstance(obj, cls):
                break
        else:
            raise TypeError("expected a Lie algebra, a homomorphism or a "
                            "subalgebra witness")
        self.obj = obj
        self.kind = kind
        self.tangent_degree = degree
        self._rep_of = rep_of

    @classmethod
    def of(cls, obj, kind: str | None = None) -> "Problem":
        """``obj`` itself when it is a problem, else a new problem for it;
        refuses (TypeError) a problem of another kind than ``kind``."""
        problem = obj if isinstance(obj, cls) else cls(obj)
        if kind is not None and problem.kind != kind:
            raise TypeError(f"expected a {kind} problem, got a "
                            f"{problem.kind} problem")
        return problem

    @cached_property
    def rep(self) -> RepSpec:
        return self._rep_of(self.obj)

    @cached_property
    def complex(self) -> CEComplex:
        return CEComplex(self.rep)

    @cached_property
    def report(self) -> CohomologyReport:
        return cohomology(self.complex)

    @cached_property
    def source(self) -> "Problem":
        return Problem(self.obj.source)

    @cached_property
    def target(self) -> "Problem":
        return Problem(self.obj.target)

    @cached_property
    def inclusion(self) -> "Problem":
        w = self.obj
        basis = Matrix.from_columns([w.basis_vector(t) for t in range(w.dim)],
                                    rows=w.ambient.dim)
        return Problem(Homomorphism(w.as_subalgebra(), w.ambient, basis,
                                    name=f"{w.name}-incl"))

    def h_dim(self, k: int) -> int:
        """dim H^k; 0 above the acting dimension, where C^k = 0."""
        report = self.report
        return report.degree(k).dim_h if k <= report.acting_dim else 0

    def z_dim(self, k: int) -> int:
        """dim Z^k; 0 above the acting dimension, where C^k = 0."""
        report = self.report
        return report.degree(k).dim_cocycles if k <= report.acting_dim else 0


# ---------------------------------------------------------------------------
# chain maps and induced maps on cohomology

def _det(entries) -> Fraction:
    k = len(entries)
    if k == 0:
        return Fraction(1)
    if k == 1:
        return entries[0][0]
    if k == 2:
        return entries[0][0] * entries[1][1] - entries[0][1] * entries[1][0]
    total = Fraction(0)
    for j in range(k):
        if entries[0][j] == 0:
            continue
        minor = [[entries[r][c] for c in range(k) if c != j] for r in range(1, k)]
        sign = -1 if j % 2 else 1
        total += sign * entries[0][j] * _det(minor)
    return total


def pullback_cochain_map(hom: Homomorphism, k: int) -> Matrix:
    """Matrix of omega -> omega(rho . , .. , rho .) from target-side
    k-cochains (adjoint carrier) to source-side k-cochains (pullback carrier).

    The entry coupling source subset S to target subset T is the minor
    det(rho[T, S]); the carrier index is untouched.
    """
    h, g = hom.source, hom.target
    m = g.dim
    src_subsets = subsets(g.dim, k)
    dst_subsets = subsets(h.dim, k)
    src_pos = subset_positions(g.dim, k)
    out = Matrix.zeros(len(dst_subsets) * m, len(src_subsets) * m)
    for d_pos, S in enumerate(dst_subsets):
        for T in src_subsets:
            minor = [[hom.matrix.data[t][s] for s in S] for t in T]
            dt = _det(minor)
            if dt == 0:
                continue
            s_pos = src_pos[T]
            for b in range(m):
                out.data[d_pos * m + b][s_pos * m + b] = dt
    return out


@dataclass(frozen=True)
class InducedMap:
    degree: int
    matrix: Matrix
    source_dim: int
    target_dim: int
    rank: int

    @property
    def surjective(self) -> bool:
        return self.rank == self.target_dim

    @property
    def injective(self) -> bool:
        return self.rank == self.source_dim

    @property
    def is_zero(self) -> bool:
        return self.matrix.is_zero()


def _square_commutes(f_k: Matrix, f_k1: Matrix, d_src: Matrix, d_tgt: Matrix) -> bool:
    return f_k1.mul(d_src) == d_tgt.mul(f_k)


def induced_map_on_h(chain_maps: dict, source: CohomologyReport,
                     target: CohomologyReport, k: int) -> InducedMap:
    """Map induced on degree-k cohomology by per-degree matrices that commute
    with the differentials; refuses non-chain-maps."""
    for j in (k - 1, k):
        if j < 0:
            continue
        if j not in chain_maps or (j + 1) not in chain_maps:
            raise ChainMapError(f"chain map matrices needed at degrees {j} and {j+1}")
        if not _square_commutes(chain_maps[j], chain_maps[j + 1],
                                source.complex.d(j), target.complex.d(j)):
            raise ChainMapError(f"square at degree {j} does not commute")
    sdeg = source.degree(k)
    tdeg = target.degree(k)
    cols = []
    basis_cols = ([list(v) for v in tdeg.coboundaries.basis]
                  + [list(v) for v in tdeg.h_representatives])
    nb = tdeg.coboundaries.dim
    span = Matrix.from_columns(basis_cols, rows=target.complex.dim_cochains(k))
    for z in sdeg.h_representatives:
        fz = chain_maps[k].apply(list(z))
        if any(x != 0 for x in target.complex.d(k).apply(fz)):
            raise ChainMapError("image of a cocycle is not a cocycle")
        coords = solve_particular(span, fz)
        if coords is None:
            raise ChainMapError("image cocycle not in span of target cocycles")
        cols.append(coords[nb:])
    matrix = Matrix.from_columns(cols, rows=tdeg.dim_h)
    return InducedMap(degree=k, matrix=matrix, source_dim=sdeg.dim_h,
                      target_dim=tdeg.dim_h, rank=rank(matrix))


# ---------------------------------------------------------------------------
# the long exact sequence of a subalgebra

def _post_compose_block(matrix: Matrix, n_subsets: int) -> Matrix:
    """Block-diagonal matrix applying ``matrix`` to every value block."""
    r, c = matrix.rows, matrix.cols
    out = Matrix.zeros(n_subsets * r, n_subsets * c)
    for p in range(n_subsets):
        for i in range(r):
            for j in range(c):
                if matrix.data[i][j] != 0:
                    out.data[p * r + i][p * c + j] = matrix.data[i][j]
    return out


@dataclass(frozen=True)
class LESNode:
    label: str
    degree: int
    dim: int
    rank_in: int
    rank_out: int
    exact: bool
    membership_ok: bool


@dataclass(frozen=True)
class LESReport:
    sub_report: CohomologyReport
    ambient_report: CohomologyReport
    quotient_report: CohomologyReport
    nodes: tuple
    max_degree: int

    @property
    def all_exact(self) -> bool:
        return all(n.exact and n.membership_ok for n in self.nodes)

    def to_json_dict(self) -> dict:
        return {
            "max_degree": self.max_degree,
            "nodes": [
                {"label": n.label, "k": n.degree, "dimH": n.dim,
                 "rank_in": n.rank_in, "rank_out": n.rank_out,
                 "exact": n.exact and n.membership_ok}
                for n in self.nodes
            ],
            "all_exact": self.all_exact,
        }


def _exact_at(label: str, k: int, incoming: Matrix, outgoing: Matrix) -> LESNode:
    """Exactness of  prev --incoming--> node --outgoing--> next  plus the
    explicit membership certificate image(in) inside kernel(out).  Each map
    is reduced once; its rank is its pivot count."""
    dim_node = outgoing.cols
    composed_zero = outgoing.mul(incoming).is_zero()
    _, in_pivots = rref(incoming)
    ker, out_pivots = kernel_and_pivots(outgoing)
    r_in, r_out = len(in_pivots), len(out_pivots)
    exact = composed_zero and (r_in + r_out == dim_node)
    kmat = Matrix.from_columns([list(v) for v in ker.basis], rows=dim_node)
    membership = all(solve_particular(kmat, incoming.column(j)) is not None
                     for j in in_pivots)
    return LESNode(label, k, dim_node, r_in, r_out, exact, membership)


def connecting_map_on_h(w: SubalgebraWitness, quotient_report: CohomologyReport,
                        ambient_report: CohomologyReport,
                        sub_report: CohomologyReport, k: int) -> Matrix:
    """Snake connecting map H^k(h, g/h) -> H^{k+1}(h, h): lift a quotient
    cocycle through the standard section, differentiate in the ambient-valued
    complex, certify the values land in the subalgebra and read them there."""
    qc = w.coords
    kh = w.dim
    qdeg = quotient_report.degree(k)
    if k + 1 > kh:
        return Matrix.zeros(0, qdeg.dim_h)
    n_sub = len(subsets(kh, k))
    n_sub_up = len(subsets(kh, k + 1))
    lift = _post_compose_block(qc.section, n_sub)
    proj = _post_compose_block(qc.projection, n_sub_up)
    sdeg = sub_report.degree(k + 1)
    span_cols = ([list(v) for v in sdeg.coboundaries.basis]
                 + [list(v) for v in sdeg.h_representatives])
    nb = sdeg.coboundaries.dim
    span = Matrix.from_columns(span_cols, rows=sub_report.complex.dim_cochains(k + 1))
    cols = []
    for eta in qdeg.h_representatives:
        lifted = lift.apply(list(eta))
        dval = ambient_report.complex.d(k).apply(lifted)
        if any(x != 0 for x in proj.apply(dval)):
            raise AssertionError("connecting value does not land in the subalgebra")
        in_sub = []
        na = w.ambient.dim
        for p in range(n_sub_up):
            block = dval[p * na:(p + 1) * na]
            in_sub.extend(qc.to_sub_coords(block))
        if any(x != 0 for x in sub_report.complex.d(k + 1).apply(in_sub)):
            raise AssertionError("connecting value is not a cocycle")
        coords = solve_particular(span, in_sub)
        if coords is None:
            raise AssertionError("connecting value not in the cocycle span")
        cols.append(coords[nb:])
    return Matrix.from_columns(cols, rows=sdeg.dim_h)


def les_subalgebra(w: SubalgebraWitness | Problem, max_degree: int) -> LESReport:
    """The long exact sequence H^k(h,h) -> H^k(h,g) -> H^k(h,g/h) ->
    H^{k+1}(h,h) -> ..., with exactness certified at every node that has both
    maps inside the computed window.  The three reports are those of the sub
    problem, its inclusion and the inclusion's source."""
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    p = Problem.of(w, "sub")
    w, incl = p.obj, p.inclusion
    rA, rB, rC = incl.source.report, incl.report, p.report
    kh = w.dim
    iota_maps = {k: _post_compose_block(incl.obj.matrix, len(subsets(kh, k)))
                 for k in range(kh + 2)}
    pi_maps = {k: _post_compose_block(w.coords.projection, len(subsets(kh, k)))
               for k in range(kh + 2)}

    top = min(max_degree, kh)
    i_on_h = {k: induced_map_on_h(iota_maps, rA, rB, k) for k in range(top + 2)
              if k <= kh}
    p_on_h = {k: induced_map_on_h(pi_maps, rB, rC, k) for k in range(top + 1)}
    conn = {k: connecting_map_on_h(w, rC, rB, rA, k) for k in range(top + 1)}

    nodes = []
    for k in range(top + 1):
        incoming = conn[k - 1] if k > 0 else Matrix.zeros(rA.degree(0).dim_h, 0)
        nodes += [_exact_at(f"H^{k}(h,h)", k, incoming, i_on_h[k].matrix),
                  _exact_at(f"H^{k}(h,g)", k, i_on_h[k].matrix, p_on_h[k].matrix),
                  _exact_at(f"H^{k}(h,g/h)", k, p_on_h[k].matrix, conn[k])]
    # closing node H^{top+1}(h,h) when the inclusion map there is available
    if top + 1 <= kh:
        nodes.append(_exact_at(f"H^{top+1}(h,h)", top + 1, conn[top],
                               i_on_h[top + 1].matrix))
    return LESReport(sub_report=rA, ambient_report=rB, quotient_report=rC,
                     nodes=tuple(nodes), max_degree=max_degree)
