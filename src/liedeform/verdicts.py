"""Rigidity and stability verdicts from exact cohomology.

Every verdict applies a one-directional sufficient condition: "holds" is
backed by an exact zero-dimension (or exact surjectivity) certificate,
"fails-criterion" only means the sufficient condition is not met and never
claims actual non-rigidity, and "inconclusive" marks the one indicator whose
sufficiency is an open question.
"""

from __future__ import annotations

from .algebras import Homomorphism, LieAlgebra, SubalgebraWitness
from .cecomplex import Problem
from .records import field, record

HOLDS = "holds"
FAILS = "fails-criterion"
INCONCLUSIVE = "inconclusive"


@record
class Verdict:
    criterion: str
    conclusion: str
    citation: str
    evidence: dict = field(compare=False)
    # the problem whose whole report JSON adds to the evidence, or None
    problem: Problem | None = field(default_factory=lambda: None,
                                    compare=False)

    @property
    def holds(self) -> bool:
        return self.conclusion == HOLDS

    def to_json_dict(self) -> dict:
        evidence = self.evidence if self.problem is None else {
            **self.evidence, "report": self.problem.report.to_json_dict()}
        return {"criterion": self.criterion, "conclusion": self.conclusion,
                "citation": self.citation, "evidence": evidence}


# kind (the criterion prefix) -> (name of the H^(t+1) rule, citation of the
# H^t rule, citation of the H^(t+1) rule)
_CRITERIA = {
    "bracket": ("smoothness", "H2(g,g)=0 => bracket rigid under GL(g)",
                "H3(g,g)=0 => brackets form a manifold of dim Z2(g,g) near mu"),
    "hom": ("stability", "H1(h,g)=0 => rho rigid under Ad G",
            "H2(h,g)=0 => rho stable under perturbation of the bracket"),
    "sub": ("stability", "H1(h,g/h)=0 => h rigid under Ad G",
            "H2(h,g/h)=0 => h stable under perturbation of the bracket"),
}


def _vanishing(p: Problem, k: int, criterion: str, citation: str,
               **evidence) -> Verdict:
    h = p.degree(k).dim_h
    return Verdict(criterion, HOLDS if h == 0 else FAILS, citation,
                   {f"dim_h{k}": h, **evidence}, problem=p)


def _rigidity(obj, kind: str) -> Verdict:
    """H^t = 0 at the tangent degree t of the problem."""
    p = Problem.of(obj, kind)
    _, citation, _ = _CRITERIA[kind]
    return _vanishing(p, p.tangent_degree, f"{kind}-rigidity", citation)


def _stability(obj, kind: str) -> Verdict:
    """H^(t+1) = 0 one degree above the tangent degree t; nearby solutions
    then form a manifold of dimension dim Z^t."""
    p = Problem.of(obj, kind)
    rule, _, citation = _CRITERIA[kind]
    t = p.tangent_degree
    return _vanishing(p, t + 1, f"{kind}-{rule}", citation,
                      local_manifold_dim=p.degree(t).dim_cocycles)


def bracket_rigidity(g: LieAlgebra | Problem) -> Verdict:
    """H^2(g,g) = 0 forces every nearby bracket into the GL(g)-orbit."""
    return _rigidity(g, "bracket")


def bracket_smoothness(g: LieAlgebra | Problem) -> Verdict:
    """H^3(g,g) = 0 makes the space of brackets a manifold near g of
    dimension dim Z^2(g,g)."""
    return _stability(g, "bracket")


def hom_rigidity(rho: Homomorphism | Problem) -> Verdict:
    """H^1(h,g) = 0 forces every nearby homomorphism into the Ad G-orbit."""
    return _rigidity(rho, "hom")


def hom_aut_rigidity(rho: Homomorphism | Problem) -> Verdict:
    """Surjectivity of H^1(rho*): H^1(g,g) -> H^1(h,g) forces every nearby
    homomorphism into the Aut(g)-orbit.  Evidence also records dim Z^1(g,g),
    the dimension of the derivation algebra of g."""
    p = Problem.of(rho, "hom")
    induced = p.pullback_map_on_h(1)
    return Verdict(
        criterion="hom-aut-rigidity",
        conclusion=HOLDS if induced.surjective else FAILS,
        citation="H1(rho*) surjective => rho rigid under Aut(g)",
        evidence={
            "induced_rank": induced.rank,
            "dim_h1_source_system": induced.source_dim,
            "dim_h1_target_system": induced.target_dim,
            "derivation_algebra_dim": p.target.degree(1).dim_cocycles,
        },
    )


def hom_stability(rho: Homomorphism | Problem) -> Verdict:
    """H^2(h,g) = 0 lets rho deform along any small change of the target
    bracket; nearby homomorphisms form a manifold of dim Z^1(h,g)."""
    return _stability(rho, "hom")


def hom_infinitesimal_stability_indicator(
        rho: Homomorphism | Problem) -> Verdict:
    """Reports whether H^2(rho*): H^2(g,g) -> H^2(h,g) is the zero map.

    A zero map alone settles nothing (its sufficiency for stability is an
    open question), so the conclusion stays inconclusive unless stability is
    already settled by H^2(h,g)=0 or by rigidity of the target bracket."""
    p = Problem.of(rho, "hom")
    induced = p.pullback_map_on_h(2)
    h2_target_bracket = p.target.degree(2).dim_h
    h2_pullback = p.degree(2).dim_h
    evidence = {
        "indicator_is_zero_map": induced.is_zero,
        "induced_rank": induced.rank,
        "dim_h2_target_bracket": h2_target_bracket,
        "dim_h2_pullback": h2_pullback,
    }
    if h2_pullback == 0:
        conclusion, settled = HOLDS, "hom-stability"
    elif h2_target_bracket == 0:
        conclusion, settled = HOLDS, "bracket-rigidity-of-target"
    else:
        conclusion, settled = INCONCLUSIVE, None
    evidence["settled_by"] = settled
    return Verdict(
        criterion="hom-infinitesimal-stability-indicator",
        conclusion=conclusion,
        citation="H2(rho*)=0 is reported only; its sufficiency for stability "
                 "is an open question",
        evidence=evidence,
    )


def sub_rigidity(w: SubalgebraWitness | Problem) -> Verdict:
    """H^1(h,g/h) = 0 forces every nearby subalgebra into the Ad G-orbit."""
    return _rigidity(w, "sub")


def sub_stability(w: SubalgebraWitness | Problem) -> Verdict:
    """H^2(h,g/h) = 0 lets the subalgebra deform along any small change of
    the ambient bracket; nearby subalgebras form a manifold of dim
    Z^1(h,g/h)."""
    return _stability(w, "sub")


@record
class KuranishiModelDims:
    """Invariant dimensions of the local quadratic model: the model's domain
    (tangent), its target (obstruction fibre), and the cochain/cocycle/
    coboundary dims at the tangent degree."""

    kind: str
    tangent_dim: int
    obstruction_dim: int
    orbit_slice_dims: dict = field(compare=False)
    aut_model_dim: int | None = None

    def to_json_dict(self) -> dict:
        out = {"kind": self.kind, "tangent_dim": self.tangent_dim,
               "obstruction_dim": self.obstruction_dim,
               "orbit_slice_dims": self.orbit_slice_dims}
        if self.aut_model_dim is not None:
            out["aut_model_dim"] = self.aut_model_dim
        return out


def _degree_dims(p: Problem, k: int) -> dict:
    d = p.degree(k)
    return {"k": k, "dim_cochains": d.dim_cochains, "dim_cocycles": d.dim_cocycles,
            "dim_coboundaries": d.dim_coboundaries, "dim_h": d.dim_h}


def kuranishi_model_dims(problem) -> KuranishiModelDims:
    """Dimensions of the quadratic local model: (H^2, H^3) for a bracket,
    (H^1, H^2) for a homomorphism or a subalgebra, in the matching
    coefficient system.  For homomorphisms the Aut(g)-model domain dimension
    dim H^1(h,g) - rank H^1(rho*) is reported as well."""
    p = Problem.of(problem)
    t = p.tangent_degree
    aut_model_dim = None
    if p.kind == "hom":
        aut_model_dim = p.degree(1).dim_h - p.pullback_map_on_h(1).rank
    return KuranishiModelDims(
        kind=p.kind,
        tangent_dim=p.degree(t).dim_h,
        obstruction_dim=p.degree(t + 1).dim_h,
        orbit_slice_dims=_degree_dims(p, t),
        aut_model_dim=aut_model_dim,
    )
