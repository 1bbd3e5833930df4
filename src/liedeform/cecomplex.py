"""Chevalley-Eilenberg complexes and their exact cohomology.

The differential on a k-cochain omega with values in a module (V, r) is

  (d omega)(u_0..u_k) = sum_i (-1)^i r(u_i) omega(.. u_i-hat ..)
                      + sum_{i<j} (-1)^{i+j} omega([u_i,u_j], .. hats ..)

in the flat coordinates of `cochains`.  `differential_matrix`, the one
builder of these matrices, assumes neither Jacobi nor the representation
identity, so it also serves the expansion identities of `kuranishi`; a
complex refuses its first degree read if its composed differentials are
nonzero in degree 0 or 1, the only degrees where they can first be (see
``CEComplex.degree``).  Only nonzeros are visited: of the actions
and structure constants when d_k is built, of each row of d_(k+1) d_k when
it is checked (without keeping it), and of the cochains, kernel vectors and
H-representatives, which are passed as {position: value} dicts; d_k acts on
a cochain through its ``Matrix``'s kept column view (``Matrix.apply``).
Each degree's dimensions and bases are read from one ``RankForm`` of the
rows of d_k, and its class coordinates from one of the columns of d_(k-1),
in the zero weight ``CEComplex.block`` under an inner torus: only the rows a
form reads are built, and none is held once it is made (see ``DegreeData``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations, compress, count
from math import lcm
from types import MappingProxyType

from .algebras import (Homomorphism, LieAlgebra, RepSpec, SubalgebraWitness,
                       adjoint_rep, pullback_rep, quotient_rep)
from .cochains import AltMap, cochain_dim
from .exactlin import ZERO, Matrix, RankForm, Subspace, _dense, _exact, rank
from .records import record


class CohomologyUndefinedError(ValueError):
    """Raised when d o d != 0, so cohomology is not defined."""


class ChainMapError(ValueError):
    """Raised when per-degree matrices do not commute with the differentials."""


_NO_ROW = MappingProxyType({})  # every row a partial build skips


def differential_matrix(k: int, rep: RepSpec, rows=None) -> Matrix:
    """Exact matrix of the degree-k differential, built row by row as the
    {column: value} nonzeros of its ``row_maps`` (only the ascending ``rows``
    if given; each other row is ``_NO_ROW``); only the nonzero action cells
    (``rep.action_cells``, read once per system) and structure constants
    (``rep.acting.terms``) are visited; a cell is deleted when its sum
    cancels, and made an int where integral only if some input is not one
    (``rep.all_ints``).  The (k+1)-subsets T are walked in ``combinations``
    order as (position, tuple, bit mask), a partial build taking only those
    that hold a row built; a column's k-subset is read from its bit mask in
    a {mask: position} dict made for this call (see ``cochains``): the face
    T - u_i is ``T ^ (1 << u_i)``, and e_l goes into the rest R of T as
    ``R | (1 << l)``, signed by the number of elements of R below l."""
    n, m = rep.acting.dim, rep.carrier_dim
    bits = [1 << i for i in range(n)]
    cols_pos = dict(zip(map(sum, combinations(bits, k)), count()))
    terms, action = rep.acting.terms, rep.action_cells
    size = cochain_dim(n, k + 1, m)
    sets = zip(count(), combinations(range(n), k + 1),
               map(sum, combinations(bits, k + 1)))
    if rows is None or len(rows) == size:
        out = [{} for _ in range(size)]
    else:  # only the row subsets holding a row built
        out, picked = [_NO_ROW] * size, bytearray(size // m)
        for r in rows:
            out[r], picked[r // m] = {}, 1
        sets = compress(sets, picked)
    for t_pos, T, tmask in sets:
        block = out[t_pos * m:(t_pos + 1) * m]
        # action terms
        for i, ui in enumerate(T):
            if not action[ui]:
                continue
            sign = -1 if i % 2 else 1
            col_base = cols_pos[tmask ^ (1 << ui)] * m
            # the columns of T - u_i are apart for distinct i, so each
            # action cell is written once
            for b, a, v in action[ui]:
                if (row := block[b]) is not _NO_ROW:
                    row[col_base + a] = sign * v
        # bracket-insertion terms: e_l goes in at its place q in the rest of
        # T, with sign (-1)^q for the q elements of the rest below l, and
        # vanishes on an element of the rest
        for i in range(k):
            plane, face = terms[T[i]], tmask ^ (1 << T[i])
            for j in range(i + 1, k + 1):
                pair = plane[T[j]]
                if not pair:
                    continue
                sign_ij = -1 if (i + j) % 2 else 1
                rest = face ^ (1 << T[j])
                for l, coeff in pair:
                    bit = 1 << l
                    if rest & bit:
                        continue
                    col_base = cols_pos[rest | bit] * m
                    q = (rest & (bit - 1)).bit_count()
                    factor = -sign_ij * coeff if q % 2 else sign_ij * coeff
                    for c, orow in enumerate(block, col_base):
                        if orow is _NO_ROW:
                            continue
                        if y := orow.get(c, 0) + factor:
                            orow[c] = y
                        else:
                            del orow[c]
    if not rep.all_ints:
        out = [row and {j: _exact(x) for j, x in row.items()} for row in out]
    return Matrix.of_rows(size, cochain_dim(n, k, m), out)


class CEComplex:
    """Caches the d_k a reader asked for whole (``d``; each ``Matrix`` keeps
    its column view), the weight blocks, and the rank and class forms, which
    read a cached d_k's rows and hold none they built (``_rows``)."""

    def __init__(self, rep: RepSpec):
        self.rep = rep
        self.n = rep.acting.dim
        self.carrier_dim = rep.carrier_dim
        self._d, self._classes, self._blocks = {}, {}, {}
        self._ranks, self._degrees = {}, {}

    def d(self, k: int) -> Matrix:
        if k not in self._d:
            self._d[k] = differential_matrix(k, self.rep)
        return self._d[k]

    def _rows(self, k: int, which) -> list:
        """d_k's rows: the cached d_k's, or only those in ``which`` built."""
        return (self._d.get(k) or differential_matrix(k, self.rep, which)).row_maps

    @cached_property
    def generic(self):
        """(each acting basis element's weight, {weight: its carriers}) at the
        generic element sum_i b^i x_i of the inner torus (the x_i with ad x_i
        and r(x_i) diagonal, not both zero), or None.  The weights, made ints
        by the lcm s of their denominators, of a subset less a carrier are
        below b/2 = (n+1)s max|weight| + 1/2: zero iff their generic one is."""
        n, terms, act = self.n, self.rep.acting.terms, self.rep.rows
        xs = [x for x in range(n)
              if all(l == j for j in range(n) for l, _ in terms[x][j])
              and all(b == a for a, row in enumerate(act[x]) for b in row)
              and (any(terms[x]) or any(act[x]))]
        if not xs:
            return None
        ws = [[dict(terms[x][j]).get(j, 0) for x in xs] for j in range(n)] + [
            [act[x][a].get(a, 0) for x in xs] for a in range(self.carrier_dim)]
        s = lcm(*(w.denominator for r in ws for w in r))
        b = 2 * (n + 1) * int(s * max(abs(w) for r in ws for w in r)) + 1
        ws, carriers = [sum(int(w * s) * b ** i for i, w in enumerate(r))
                        for r in ws], {}
        for a, w in enumerate(ws[n:]):
            carriers.setdefault(w, []).append(a)
        return ws[:n], carriers

    def block(self, k: int) -> tuple:
        """(the zero weight k-cochain positions, ascending, rank of d_k off
        them), made on first read from the blocks below: e^S (x) v_a is in it
        where S's ``generic`` weights sum to a's (without a torus, all of C^k);
        ((), 0) above n + 1, as C^k = 0 above n, read from no block below."""
        if k > self.n + 1:
            return (), 0
        if k not in self._blocks:
            zero = range(self.dim_cochains(k))
            if self.generic is not None:
                ad, carriers = self.generic
                zero = [p * self.carrier_dim + a for p, w in enumerate(
                    map(sum, combinations(ad, k))) for a in carriers.get(w, ())]
            self._blocks[k] = zero, self.dim_cochains(k) - len(zero) - (
                self.block(k - 1)[1] if k else 0)
        return self._blocks[k]

    def rank_form(self, k: int) -> RankForm:
        """The ``RankForm`` of d_k's zero weight rows, the cached d_k's or
        those alone built, as ints if ``rep.all_ints``: it keeps no row."""
        if k not in self._ranks:
            zero = self.block(k + 1)[0]
            # an int system's rows are not scanned for a Fraction
            self._ranks[k] = RankForm(self._rows(k, zero), zero,
                                      ints=self.rep.all_ints)
        return self._ranks[k]

    def basis_form(self, k: int) -> RankForm:
        """``rank_form(k)`` with its reduced rows, built anew from only the
        rows it kept, in the same order: the rows it dropped added no pivot."""
        kept = self.rank_form(k).rows[::-1]
        return RankForm(self._rows(k, kept), kept, keep=True,
                        ints=self.rep.all_ints)

    def class_form(self, k: int) -> RankForm:
        """The kept ``RankForm`` of d_(k-1)'s columns in ``block(k - 1)``
        (the other weight blocks are acyclic), read from its rows in
        ``block(k)``, the only ones built, as d keeps weight; each position p
        is taken as ~p so that its pivots are the last nonzero positions,
        ``classes``, and the columns are listed last first, which halves the
        form's nonzeros on L_11."""
        if k not in self._classes:
            zero = self.block(k)[0]
            rows = self._rows(k - 1, zero)
            cols = {j: {} for j in reversed(self.block(k - 1)[0])}
            for i in zero:  # rows[i] lies in cols where d o d = 0
                for j in rows[i].keys() & cols.keys():
                    cols[j][~i] = rows[i][j]
            self._classes[k] = RankForm(list(cols.values()), keep=True)
        return self._classes[k]

    def rank(self, k: int) -> int:
        """rank d_k, from the zero weight rows only.  By Cartan's formula
        L_x = d i_x + i_x d, d keeps each joint eigenspace of the torus, and
        one where some x acts by w != 0 is acyclic (i_x / w contracts it):
        its ranks are alternating sums of its cochain counts."""
        return len(self.rank_form(k).kept) + self.block(k)[1]

    def degree(self, k: int) -> "DegreeData":
        """Degree k >= 0 of the cohomology, zero above the acting dimension;
        the first one made checks d o d = 0 (``d_squared_defect``) and
        refuses (CohomologyUndefinedError) a complex that fails it."""
        if k < 0:
            raise KeyError(f"degree {k} not in report")
        if not self._degrees and (bad := self.d_squared_defect()) is not None:
            raise CohomologyUndefinedError(
                f"d o d is nonzero at degree {bad}; cohomology undefined")
        if k not in self._degrees:
            self._degrees[k] = DegreeData(self, k)
        return self._degrees[k]

    def dim_cochains(self, k: int) -> int:
        return cochain_dim(self.n, k, self.carrier_dim)

    def d_squared_defect(self):
        """First degree k with d_{k+1} d_k != 0, or None, checked at k = 0
        and 1 only (d_0, d_1 and d_2 stay cached): d_1 d_0 = 0 is the
        representation identity; given it, d_2 d_1 omega is omega of the
        Jacobiator up to sign; and the two give d_(k+1) d_k = 0 in every
        degree (Chevalley and Eilenberg, Trans. AMS 63, 1948)."""
        for k in range(min(self.n, 2)):
            if not self.d(k + 1).mul_is_zero(self.d(k)):
                return k
        return None

    def apply_d(self, m: AltMap) -> AltMap:
        """d m, summed over the columns of d_k at the nonzeros of m only."""
        if m.domain_dim != self.n or m.carrier_dim != self.carrier_dim:
            raise ValueError("cochain does not fit this complex")
        return AltMap(m.degree + 1, self.n, self.carrier_dim,
                      self.d(m.degree).apply(m.nonzeros))


class DegreeData:
    """Degree k of a complex's cohomology: the dimensions from the rank
    forms of d_k and d_(k-1), each basis on first read.  A cocycle is fixed
    by its entries at the ``free`` columns, those d_k's form did not keep,
    and a coboundary's last nonzero entry is at a row d_(k-1)'s form kept;
    these ``classes`` are free, and the representatives are the kernel
    vectors at the other free columns, all in the degree's ``block``.
    ``cocycle_vectors``, a basis of Z^k from one form of all rows of d_k,
    has ``cocycles`` as its dense view for readers outside the package."""

    def __init__(self, cx: CEComplex, k: int):
        self.complex = cx
        self.k = k
        self.dim_cochains = cx.dim_cochains(k)
        self.dim_cocycles = self.dim_cochains - cx.rank(k)
        self.dim_coboundaries = cx.rank(k - 1) if k else 0
        self.dim_h = self.dim_cocycles - self.dim_coboundaries

    @cached_property
    def free(self) -> tuple:
        return tuple(self.complex.rank_form(self.k).free(
            self.complex.block(self.k)[0]))

    @cached_property
    def cocycle_vectors(self) -> tuple:
        form = RankForm(self.complex.d(self.k).row_maps, keep=True)
        return tuple(map(form.null_vector, form.free(range(self.dim_cochains))))

    @cached_property
    def cocycles(self) -> Subspace:
        return Subspace(self.dim_cochains, tuple(
            tuple(_dense(v, self.dim_cochains)) for v in self.cocycle_vectors))

    @cached_property
    def classes(self) -> frozenset:
        return frozenset(self.complex.rank_form(self.k - 1).rows if self.k
                         else ())

    @cached_property
    def h_representatives(self) -> tuple:
        slots = [f for f in self.free if f not in self.classes]
        assert len(slots) == self.dim_h
        return tuple(map(self.complex.basis_form(self.k).null_vector,
                         slots)) if slots else ()

    def class_coords(self, z: dict) -> list:
        """Coordinates of the class of the cocycle with nonzeros ``z``: its
        remainder modulo the coboundaries (reduced by the class form, which
        keeps its scale s) at the representatives' columns."""
        v = {~j: x for j, x in z.items()}
        s, rem = self.complex.class_form(self.k).reduce(v) if self.k else (1, v)
        return [Fraction(rem[~f], s) if ~f in rem else ZERO for f in self.free
                if f not in self.classes]


@record
class CohomologyReport:
    label: str
    acting_dim: int
    carrier_dim: int
    degrees: tuple
    complex: CEComplex

    def degree(self, k: int) -> DegreeData:
        return self.complex.degree(k)

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


def cohomology(rep: RepSpec | CEComplex) -> CohomologyReport:
    """Exact cohomology of a coefficient system, every degree 0..n ranked
    before it returns, kept with its complex; no basis, nor d_k above d_2,
    is kept.  Refuses (CohomologyUndefinedError) when d o d != 0, exactly
    when the bracket or the action fails its identity (``CEComplex.degree``)."""
    cx = rep if isinstance(rep, CEComplex) else CEComplex(rep)
    return CohomologyReport(label=cx.rep.label or cx.rep.variant,
                            acting_dim=cx.n, carrier_dim=cx.carrier_dim,
                            degrees=tuple(map(cx.degree, range(cx.n + 1))),
                            complex=cx)


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

    The coefficient system and its complex are built on first use and kept,
    so every verdict, obstruction class and Newton seed asked of one problem
    shares each degree (``degree``), made only where asked; ``report``
    gathers them all.  ``of`` keeps one problem per object (validated
    objects are treated as immutable), so the raw object shares them.  A
    homomorphism has ``source`` and ``target``, the bracket problems of its
    two algebras, and its maps on cohomology, each from one chain map of
    rho* (``pullback_map_on_h``); a subalgebra has ``inclusion``, the
    homomorphism problem of h -> g."""

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
        self._maps_on_h = {}  # a homomorphism's maps on cohomology by degree

    @classmethod
    def of(cls, obj, kind: str | None = None) -> "Problem":
        """``obj`` itself when it is a problem, else the problem kept in the
        object's ``__dict__`` (by identity, dying with it), made on first
        use; refuses (TypeError) a problem of another kind than ``kind``."""
        problem = obj
        if not isinstance(obj, cls):
            problem = getattr(obj, "__dict__", {}).get("_problem")
            # so that Problem.of(obj).obj is obj, also for a shallow copy
            if problem is None or problem.obj is not obj:
                problem = vars(obj)["_problem"] = cls(obj)
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
        return Problem.of(self.obj.source)

    @cached_property
    def target(self) -> "Problem":
        return Problem.of(self.obj.target)

    @cached_property
    def inclusion(self) -> "Problem":
        w, n = self.obj, self.obj.ambient.dim
        # the echelon basis vectors as columns, read from their nonzeros
        rows = Matrix.of_rows(w.dim, n, list(map(dict, w.coords.sub_rows)))
        return Problem(Homomorphism(w.as_subalgebra(), w.ambient, Matrix.of_rows(
            n, w.dim, rows.columns()), name=f"{w.name}-incl"))

    def degree(self, k: int) -> DegreeData:
        """Degree k of the complex, made on first read."""
        return self.complex.degree(k)

    def pullback_map_on_h(self, k: int) -> "InducedMap":
        """H^k(rho*): H^k(g,g) -> H^k(h,g) of a homomorphism problem, made on
        first read and kept, from ``pullback_cochain_map(obj, k)`` unchecked:
        rho is validated, and rho* of a homomorphism commutes with d."""
        if k not in self._maps_on_h:
            self._maps_on_h[k] = _induced(
                pullback_cochain_map(self.obj, k).apply, self.target, self, k)
        return self._maps_on_h[k]


# ---------------------------------------------------------------------------
# chain maps and induced maps on cohomology

def pullback_cochain_map(hom: Homomorphism, k: int) -> Matrix:
    """Matrix of omega -> omega(rho . , .. , rho .) from target-side to
    source-side k-cochains: row block S is rho(e_s1) ^ .. ^ rho(e_sk) (its
    entry at T is the minor det rho[T, S], by Cauchy-Binet), read from the
    nonzeros of rho's columns, with each wedge term keyed by the bit mask of
    its subset T (see ``cochains``); the carrier index is untouched."""
    m = hom.target.dim
    src_pos = dict(zip(map(sum, combinations([1 << i for i in range(m)], k)),
                       count()))
    cols = hom.matrix.columns()
    out = []
    for S in combinations(range(hom.source.dim), k):
        wedge = {0: 1}
        for s in reversed(S):  # each factor is prepended
            acc = {}
            for T, x in wedge.items():
                for t, v in cols[s].items():
                    bit = 1 << t
                    if not T & bit:
                        y = -v * x if (T & (bit - 1)).bit_count() & 1 else v * x
                        acc[T | bit] = acc.get(T | bit, 0) + y
            wedge = acc
        row = sorted((src_pos[T] * m, _exact(x)) for T, x in wedge.items() if x)
        out += [{base + b: x for base, x in row} for b in range(m)]
    return Matrix.of_rows(len(out), len(src_pos) * m, out)


@record
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


def _map_on_h(f, source: DegreeData, target: DegreeData) -> Matrix:
    """The map on cohomology of f, {position: value} nonzeros in and out:
    column j is the class coordinates of f(z) for the j-th H-representative
    z of ``source``.  Unchecked: f must map cocycles to cocycles."""
    return Matrix.from_columns(
        [target.class_coords(f(z)) for z in source.h_representatives],
        rows=target.dim_h)


def _induced(f, source, target, k: int) -> InducedMap:
    """f on H^k, read by ``_map_on_h`` from the problems' ``degree(k)``."""
    sdeg, tdeg = source.degree(k), target.degree(k)
    matrix = _map_on_h(f, sdeg, tdeg)
    return InducedMap(k, matrix, sdeg.dim_h, tdeg.dim_h, rank(matrix))


def induced_map_on_h(chain_maps: dict, source, target, k: int) -> InducedMap:
    """Map induced on degree-k cohomology by per-degree matrices that commute
    with the differentials, read by ``_induced`` once the squares at degrees
    k - 1 and k are checked; refuses non-chain-maps.  ``source`` and
    ``target`` are problems, read through ``complex`` and ``degree(k)``."""
    for j in range(max(k - 1, 0), k + 1):
        if j not in chain_maps or (j + 1) not in chain_maps:
            raise ChainMapError(f"chain map matrices needed at degrees {j} and {j+1}")
        if (chain_maps[j + 1].mul(source.complex.d(j))
                != target.complex.d(j).mul(chain_maps[j])):
            raise ChainMapError(f"square at degree {j} does not commute")
    return _induced(chain_maps[k].apply, source, target, k)


# ---------------------------------------------------------------------------
# the long exact sequence of a subalgebra

@record
class LESNode:
    label: str
    degree: int
    dim: int
    rank_in: int
    rank_out: int
    exact: bool
    membership_ok: bool


@record
class LESReport:
    nodes: tuple
    max_degree: int

    @property
    def all_exact(self) -> bool:
        return all(n.exact for n in self.nodes)

    def to_json_dict(self) -> dict:
        return {
            "max_degree": self.max_degree,
            "nodes": [
                {"label": n.label, "k": n.degree, "dimH": n.dim,
                 "rank_in": n.rank_in, "rank_out": n.rank_out,
                 "exact": n.exact}
                for n in self.nodes
            ],
            "all_exact": self.all_exact,
        }


def _exact_at(label: str, k: int, incoming: Matrix, outgoing: Matrix) -> LESNode:
    """Exactness of  prev --incoming--> node --outgoing--> next; image(in)
    lies in kernel(out), the membership certificate, iff out o in = 0."""
    membership = outgoing.mul_is_zero(incoming)
    r_in, r_out = rank(incoming), rank(outgoing)
    return LESNode(label, k, outgoing.cols, r_in, r_out,
                   membership and r_in + r_out == outgoing.cols, membership)


def snake_lift(w: SubalgebraWitness, section: Matrix, eta: AltMap,
               ambient: CEComplex) -> AltMap:
    """d(section o eta) for a k-cocycle eta of h with values in g/h, taken in
    ``ambient`` (values in g) and read in subalgebra coordinates.  Unchecked:
    it lands in h, as post-composing with pi is a chain map and pi o section
    = 1, so pi d(section o eta) = d eta = 0; it is closed, as iota is an
    injective chain map C(h,h) -> C(h,g), on which d o d = 0."""
    return ambient.apply_d(eta.post_compose(section)).post_compose(
        w.coords.sub_coords)


def connecting_map_on_h(w: SubalgebraWitness | Problem, k: int) -> Matrix:
    """Snake connecting map H^k(h, g/h) -> H^{k+1}(h, h) of a subalgebra
    witness or its problem, read by ``_map_on_h``: the class of the snake
    lift of each quotient representative through the standard section, in
    the complex of the inclusion."""
    p = Problem.of(w, "sub")
    w, incl, qdeg = p.obj, p.inclusion, p.degree(k)
    if k + 1 > w.dim:
        return Matrix.zeros(0, qdeg.dim_h)
    return _map_on_h(lambda eta: snake_lift(
        w, w.coords.section, AltMap.of(k, w.dim, w.quotient_dim, eta),
        incl.complex).nonzeros, qdeg, incl.source.degree(k + 1))


def les_subalgebra(w: SubalgebraWitness | Problem, max_degree: int) -> LESReport:
    """The long exact sequence H^k(h,h) -> H^k(h,g) -> H^k(h,g/h) ->
    H^{k+1}(h,h) -> ..., with exactness certified at every node that has both
    maps inside the computed window, each degree read from the problems of
    h, of the inclusion h -> g and of the subalgebra (``Problem.degree``), so
    none above min(max_degree, dim h) + 1 is made.  iota and pi map each
    representative by post-composing it with the inclusion matrix or the
    projection, unchecked: both are h-module maps, as h is closed (see
    ``quotient_rep``), and post-composing with one commutes with d."""
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    p = Problem.of(w, "sub")
    w, incl, hh = p.obj, p.inclusion, p.inclusion.source
    kh, top = w.dim, min(max_degree, w.dim)

    def on_h(a: Matrix, source, target, k: int) -> Matrix:
        return _map_on_h(lambda z: AltMap(k, kh, a.cols, z).post_compose(
            a).nonzeros, source.degree(k), target.degree(k))

    i_on_h = {k: on_h(incl.obj.matrix, hh, incl, k)
              for k in range(min(top + 1, kh) + 1)}
    p_on_h = {k: on_h(w.coords.projection, incl, p, k) for k in range(top + 1)}
    conn = {k: connecting_map_on_h(p, k) for k in range(top + 1)}

    nodes = []
    for k in range(top + 1):
        incoming = conn[k - 1] if k > 0 else Matrix.zeros(hh.degree(0).dim_h, 0)
        nodes += [_exact_at(f"H^{k}(h,h)", k, incoming, i_on_h[k]),
                  _exact_at(f"H^{k}(h,g)", k, i_on_h[k], p_on_h[k]),
                  _exact_at(f"H^{k}(h,g/h)", k, p_on_h[k], conn[k])]
    # closing node H^{top+1}(h,h) when the inclusion map there is available
    if top + 1 <= kh:
        nodes.append(_exact_at(f"H^{top+1}(h,h)", top + 1, conn[top],
                               i_on_h[top + 1]))
    return LESReport(nodes=tuple(nodes), max_degree=max_degree)
