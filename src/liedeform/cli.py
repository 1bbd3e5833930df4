"""Command-line interface.

Verbs: verify, cohomology, verdict, kuranishi, les, deform.  Exit codes:
0 success (including computed "fails-criterion" verdicts), 1 mathematical
validation failure (with a defect report), 2 malformed input.  Output is
deterministic: repeated runs of the same command produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from .algebras import (LieAlgebra, ValidationError, catalog_names,
                       hom_preset_names, sub_preset_names)
from .cecomplex import CohomologyUndefinedError, Problem, les_subalgebra
from .cochains import AltMap, cochain_dim
from .deformlab import (EXPERIMENTS, ChartError, InputDefectError,
                        PreconditionError, run_experiment)
from .documents import (MalformedDocumentError, load_json_file,
                        parse_experiment_doc, resolve_object, resolve_sub)
from .exactlin import Matrix
from . import kuranishi as K
from . import verdicts as V


def _emit(payload, as_json: bool, text_lines):
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _one_of(args, *names):
    given = [n for n in names if getattr(args, n.replace("-", "_"), None)]
    if len(given) != 1:
        raise MalformedDocumentError(
            f"exactly one of {', '.join('--' + n for n in names)} is required")
    return given[0]


def _resolve_object(args):
    """The object flag given and the problem of the object it names."""
    which = _one_of(args, "algebra", "hom", "sub")
    return which, Problem(resolve_object(which, getattr(args, which)))


# ---------------------------------------------------------------------------
# verbs

def _cmd_verify(args) -> int:
    kind, problem = _resolve_object(args)
    obj = problem.obj
    if kind == "algebra":
        payload = {"valid": True, "kind": "algebra", "name": obj.name,
                   "dim": obj.dim}
        lines = ["antisymmetry: OK", "Jacobi: OK",
                 f"valid Lie algebra '{obj.name}' (dim {obj.dim})"]
    elif kind == "hom":
        payload = {"valid": True, "kind": "hom", "name": obj.name,
                   "source_dim": obj.source.dim, "target_dim": obj.target.dim}
        lines = ["curvature: OK",
                 f"valid homomorphism '{obj.name}' "
                 f"({obj.source.name} -> {obj.target.name})"]
    else:
        payload = {"valid": True, "kind": "sub", "name": obj.name,
                   "dim": obj.dim, "ambient_dim": obj.ambient.dim}
        lines = ["closure: OK",
                 f"valid subalgebra '{obj.name}' "
                 f"(dim {obj.dim} in {obj.ambient.name})"]
    _emit(payload, args.json, lines)
    return 0


def _cmd_cohomology(args) -> int:
    _, problem = _resolve_object(args)
    report = problem.report
    payload = {"label": report.label, "acting_dim": report.acting_dim,
               "carrier_dim": report.carrier_dim, **report.to_json_dict()}
    lines = [f"coefficients: {report.label} "
             f"(acting dim {report.acting_dim}, carrier dim {report.carrier_dim})",
             "  k  dimC  dimZ  dimB  dimH"]
    for d in report.degrees:
        lines.append(f"  {d.k}  {d.dim_cochains:4d}  {d.dim_cocycles:4d}  "
                     f"{d.dim_coboundaries:4d}  {d.dim_h:4d}")
    lines.append(f"euler characteristic: {payload['euler']}")
    _emit(payload, args.json, lines)
    return 0


_QUESTIONS = {
    "bracket-rigidity": ("algebra", V.bracket_rigidity),
    "bracket-smoothness": ("algebra", V.bracket_smoothness),
    "hom-rigidity": ("hom", V.hom_rigidity),
    "hom-aut-rigidity": ("hom", V.hom_aut_rigidity),
    "hom-stability": ("hom", V.hom_stability),
    "hom-infinitesimal-stability-indicator":
        ("hom", V.hom_infinitesimal_stability_indicator),
    "sub-rigidity": ("sub", V.sub_rigidity),
    "sub-stability": ("sub", V.sub_stability),
}


def _verdict_line(v) -> str:
    keys = ("dim_h2", "dim_h1", "dim_h3", "induced_rank")
    shown = [f"{k}={v.evidence[k]}" for k in keys if k in v.evidence]
    detail = f" ({', '.join(shown)})" if shown else ""
    return f"{v.criterion}: {v.conclusion}{detail}  [{v.citation}]"


def _cmd_verdict(args) -> int:
    kind, problem = _resolve_object(args)
    if args.question == "kuranishi-model-dims":
        dims = V.kuranishi_model_dims(problem)
        payload = dims.to_json_dict()
        lines = [f"kuranishi model ({dims.kind}): tangent dim "
                 f"{dims.tangent_dim}, obstruction dim {dims.obstruction_dim}"]
        if dims.aut_model_dim is not None:
            lines.append(f"aut-model domain dim: {dims.aut_model_dim}")
        _emit(payload, args.json, lines)
        return 0
    if args.question == "all":
        questions = [q for q, (want, _) in _QUESTIONS.items() if want == kind]
    else:
        if args.question not in _QUESTIONS:
            raise MalformedDocumentError(
                f"unknown question {args.question!r}; choose from "
                f"{', '.join([*sorted(_QUESTIONS), 'kuranishi-model-dims', 'all'])}")
        want, _ = _QUESTIONS[args.question]
        if want != kind:
            raise MalformedDocumentError(
                f"question {args.question!r} needs --{want}")
        questions = [args.question]
    verdicts = [_QUESTIONS[q][1](problem) for q in sorted(questions)]
    payload = {"verdicts": [v.to_json_dict() for v in verdicts]}
    _emit(payload, args.json, [_verdict_line(v) for v in verdicts])
    return 0


def _parse_bracket_direction(doc, g: LieAlgebra) -> AltMap:
    entries = doc.get("brackets", doc) if isinstance(doc, dict) else doc
    if not isinstance(entries, list):
        raise MalformedDocumentError(
            "bracket direction must be a list of {i, j, coeffs} entries or "
            "an object with a 'brackets' list")
    from .documents import _scalar, _require
    values = {}
    n = g.dim
    for pos, item in enumerate(entries):
        loc = f"direction[{pos}]"
        _require(isinstance(item, dict) and {"i", "j", "coeffs"} <= set(item),
                 "entry must be an object with i, j, coeffs", loc)
        i, j = item["i"], item["j"]
        _require(isinstance(i, int) and isinstance(j, int)
                 and 0 <= i < j < n, "need indices 0 <= i < j < dim", loc)
        coeffs = item["coeffs"]
        _require(isinstance(coeffs, list) and len(coeffs) == n,
                 f"coeffs must have length {n}", loc)
        values[(i, j)] = [_scalar(x, loc) for x in coeffs]
    return AltMap.from_values(2, n, n, values)


def _parse_matrix_direction(doc, rows: int, cols: int) -> Matrix:
    from .documents import _scalar, _require
    body = doc.get("matrix", doc) if isinstance(doc, dict) else doc
    _require(isinstance(body, list) and len(body) == rows,
             f"direction matrix must have {rows} rows", "direction")
    data = []
    for r, row in enumerate(body):
        _require(isinstance(row, list) and len(row) == cols,
                 f"row must have {cols} entries", f"direction[{r}]")
        data.append([_scalar(x, f"direction[{r}]") for x in row])
    return Matrix(rows, cols, data)


def _random_rational_flat(count: int, seed: int):
    rng = random.Random(seed)
    return [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            for _ in range(count)]


def _random_rational_matrix(rows: int, cols: int, seed: int) -> Matrix:
    flat = _random_rational_flat(rows * cols, seed)
    return Matrix(rows, cols, [flat[r * cols:(r + 1) * cols]
                               for r in range(rows)])


def _cmd_kuranishi(args) -> int:
    kind, problem = _resolve_object(args)
    obj = problem.obj
    doc = load_json_file(args.direction) if args.direction else None
    if kind == "algebra":
        if doc is None:
            n = obj.dim
            xi = AltMap.from_flat(2, n, n,
                                  _random_rational_flat(cochain_dim(n, 2, n),
                                                        args.seed))
            eta = AltMap.from_flat(2, n, n,
                                   _random_rational_flat(cochain_dim(n, 2, n),
                                                         args.seed + 1))
            rep = K.jacobiator_expansion_check(obj, xi, eta)
            payload = {"check": "jacobiator-expansion", "ok": rep.ok,
                       "seed": args.seed}
            _emit(payload, args.json, [rep.summary()])
            return 0
        xi = _parse_bracket_direction(doc, obj)
        oc = K.kuranishi_bracket(problem, xi)
    elif kind == "hom":
        if doc is None:
            xi = _random_rational_matrix(obj.target.dim, obj.source.dim,
                                         args.seed)
            rep = K.curvature_expansion_check(obj, xi)
            payload = {"check": "curvature-expansion", "ok": rep.ok,
                       "seed": args.seed}
            _emit(payload, args.json, [rep.summary()])
            return 0
        m = _parse_matrix_direction(doc, obj.target.dim, obj.source.dim)
        xi = K.matrix_as_one_cochain(m)
        oc = K.kuranishi_hom(problem, xi)
    else:
        sp = K.standard_splitting(problem)
        if doc is None:
            shift = _random_rational_matrix(obj.dim, obj.quotient_dim,
                                            args.seed)
            eta = _first_quotient_cocycle(problem)
            cmp = K.splitting_independence_check(
                sp, K.shifted_splitting(sp, shift), eta)
            payload = {"check": "splitting-independence", "ok": cmp.ok,
                       "seed": args.seed}
            _emit(payload, args.json, [cmp.summary()])
            return 0
        m = _parse_matrix_direction(doc, obj.quotient_dim, obj.dim)
        eta = K.matrix_as_one_cochain(m)
        oc = K.kuranishi_sub(sp, eta)
    payload = oc.to_json_dict()
    lines = [f"obstruction class ({oc.kind}, degree {oc.degree}): "
             + ("vanishes in H (primitive found)" if oc.is_zero_in_h
                else "does not vanish in H")]
    _emit(payload, args.json, lines)
    return 0


def _first_quotient_cocycle(problem: Problem) -> AltMap:
    """A deterministic element of Z^1(h, g/h): the first cocycle-basis
    vector, or zero when the space is trivial."""
    coc = problem.report.degree(1).cocycles
    k, q = problem.obj.dim, problem.obj.quotient_dim
    if coc.dim == 0:
        return AltMap.zero(1, k, q)
    return AltMap.from_flat(1, k, q, list(coc.basis[0]))


def _cmd_les(args) -> int:
    if args.max_degree < 0:
        raise MalformedDocumentError("--max-degree must be >= 0")
    w = resolve_sub(args.sub)
    report = les_subalgebra(w, args.max_degree)
    payload = report.to_json_dict()
    lines = [f"long exact sequence through degree {report.max_degree} "
             f"for '{w.name}':"]
    for node in payload["nodes"]:
        lines.append(f"  {node['label']}: dimH={node['dimH']} "
                     f"rank_in={node['rank_in']} rank_out={node['rank_out']} "
                     f"{'exact' if node['exact'] else 'NOT EXACT'}")
    lines.append("all interior nodes exact" if payload["all_exact"]
                 else "EXACTNESS FAILURE")
    _emit(payload, args.json, lines)
    return 0


def _cmd_deform(args) -> int:
    if args.experiment:
        doc = load_json_file(args.experiment)
    else:
        if not args.kind:
            raise MalformedDocumentError(
                "deform needs --experiment FILE or --kind with an object flag")
        if args.seeds < 0:
            raise MalformedDocumentError("--seeds must be >= 0")
        doc = {"kind": args.kind,
               "perturbation": {"scale": args.scale,
                                "seeds": list(range(args.seeds))}}
        if args.algebra:
            doc["algebra"] = args.algebra
        if args.hom:
            doc["hom"] = args.hom
        if args.sub:
            doc["sub"] = args.sub
    exp = parse_experiment_doc(doc)
    records = run_experiment(exp["kind"], exp["object"], exp["seeds"],
                             scale=exp["scale"], cfg=exp["config"])
    for record in records:
        print(json.dumps(record, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liedeform",
        description="Exact Chevalley-Eilenberg cohomology, rigidity/stability "
                    "verdicts, Kuranishi obstructions and Newton deformation "
                    "experiments for finite-dimensional Lie algebras.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p, algebra=True, hom=True, sub_flag=True):
        p.add_argument("--json", action="store_true",
                       help="machine-readable JSON output")
        if algebra:
            p.add_argument("--algebra", metavar="NAME_OR_PATH",
                           help=f"catalog name ({', '.join(catalog_names())}) "
                                "or JSON document path")
        if hom:
            p.add_argument("--hom", metavar="NAME_OR_PATH",
                           help=f"preset ({', '.join(hom_preset_names())}) "
                                "or JSON document path")
        if sub_flag:
            p.add_argument("--sub", metavar="NAME_OR_PATH",
                           help=f"preset ({', '.join(sub_preset_names())}) "
                                "or JSON document path")

    p = sub.add_parser("verify", help="validate an algebra, homomorphism or "
                                      "subalgebra document")
    add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("cohomology", help="exact cohomology of a coefficient "
                                          "system")
    add_common(p)
    p.set_defaults(func=_cmd_cohomology)

    p = sub.add_parser("verdict", help="rigidity/stability verdicts")
    add_common(p)
    p.add_argument("--question", default="all",
                   help="one of " + ", ".join(
                       [*sorted(_QUESTIONS), "kuranishi-model-dims", "all"]))
    p.set_defaults(func=_cmd_verdict)

    p = sub.add_parser("kuranishi", help="obstruction classes and exact "
                                         "expansion identities")
    add_common(p)
    p.add_argument("--direction", metavar="PATH",
                   help="JSON direction document (2-cochain entries for an "
                        "algebra, a matrix for a homomorphism or subalgebra); "
                        "omitted: run the exact identity check instead")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the identity-check directions")
    p.set_defaults(func=_cmd_kuranishi)

    p = sub.add_parser("les", help="long exact sequence of a subalgebra")
    add_common(p, algebra=False, hom=False)
    p.add_argument("--max-degree", type=int, default=2)
    p.set_defaults(func=_cmd_les)

    p = sub.add_parser("deform", help="seeded Newton recovery/continuation "
                                      "experiments (JSON-lines output)")
    add_common(p)
    p.add_argument("--experiment", metavar="PATH",
                   help="experiment document; alternative to the flags below")
    p.add_argument("--kind", choices=list(EXPERIMENTS))
    p.add_argument("--seeds", type=int, default=10,
                   help="number of seeds (0..N-1)")
    p.add_argument("--scale", type=float, default=0.05)
    p.set_defaults(func=_cmd_deform)
    return parser


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    as_json = getattr(args, "json", False)
    try:
        return args.func(args)
    except MalformedDocumentError as exc:
        _emit({"error": "malformed-input", "message": str(exc)}, as_json,
              [f"malformed input: {exc}"])
        return 2
    except ValidationError as exc:
        payload = {"error": "validation-failure", **exc.report()}
        _emit(payload, as_json, [f"validation failure: {exc}"])
        return 1
    except K.NonCocycleError as exc:
        _emit({"error": "validation-failure", "message": str(exc)}, as_json,
              [f"validation failure: {exc}"])
        return 1
    except (PreconditionError, InputDefectError, ChartError,
            CohomologyUndefinedError) as exc:
        _emit({"error": "validation-failure", "message": str(exc)}, as_json,
              [f"validation failure: {exc}"])
        return 1


def entry():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    entry()
