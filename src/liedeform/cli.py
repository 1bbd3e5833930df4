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

from .algebras import (ValidationError, catalog_names, hom_preset_names,
                       sub_preset_names)
from .cecomplex import CohomologyUndefinedError, Problem, les_subalgebra
from .cochains import AltMap, cochain_dim
from .documents import (DEFAULT_SCALE, DEFAULT_SEED_COUNT, EXPERIMENT_KINDS,
                        ChartError, InputDefectError, MalformedDocumentError,
                        PreconditionError, load_json_file, parse_direction_doc,
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


_OBJECT_FLAGS = ("algebra", "hom", "sub")


def _resolve_object(args):
    """The object flag given and the problem of the object it names."""
    given = [f for f in _OBJECT_FLAGS if getattr(args, f, None)]
    if len(given) != 1:
        raise MalformedDocumentError(
            "exactly one of --algebra, --hom, --sub is required")
    which = given[0]
    return which, Problem.of(resolve_object(which, getattr(args, which)))


# ---------------------------------------------------------------------------
# the three object kinds

def _random_rational_flat(count: int, seed: int):
    rng = random.Random(seed)
    return [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            for _ in range(count)]


def _random_rational_matrix(rows: int, cols: int, seed: int) -> Matrix:
    flat = _random_rational_flat(rows * cols, seed)
    return Matrix(rows, cols, [flat[r * cols:(r + 1) * cols]
                               for r in range(rows)])


def _verified_bracket(g):
    return ({"valid": True, "kind": "algebra", "name": g.name, "dim": g.dim},
            ["antisymmetry: OK", "Jacobi: OK",
             f"valid Lie algebra '{g.name}' (dim {g.dim})"])


def _verified_hom(rho):
    return ({"valid": True, "kind": "hom", "name": rho.name,
             "source_dim": rho.source.dim, "target_dim": rho.target.dim},
            ["curvature: OK", f"valid homomorphism '{rho.name}' "
                              f"({rho.source.name} -> {rho.target.name})"])


def _verified_sub(w):
    return ({"valid": True, "kind": "sub", "name": w.name, "dim": w.dim,
             "ambient_dim": w.ambient.dim},
            ["closure: OK", f"valid subalgebra '{w.name}' "
                            f"(dim {w.dim} in {w.ambient.name})"])


def _check_bracket(problem: Problem, seed: int):
    n = problem.obj.dim
    xi, eta = (AltMap.from_flat(2, n, n, _random_rational_flat(
        cochain_dim(n, 2, n), s)) for s in (seed, seed + 1))
    return ("jacobiator-expansion",
            K.jacobiator_expansion_check(problem.obj, xi, eta))


def _check_hom(problem: Problem, seed: int):
    rho = problem.obj
    xi = _random_rational_matrix(rho.target.dim, rho.source.dim, seed)
    return "curvature-expansion", K.curvature_expansion_check(rho, xi)


def _check_sub(problem: Problem, seed: int):
    w, sp = problem.obj, K.standard_splitting(problem)
    shift = _random_rational_matrix(w.dim, w.quotient_dim, seed)
    return ("splitting-independence", K.splitting_independence_check(
        sp, K.shifted_splitting(sp, shift), _first_quotient_cocycle(problem)))


def _first_quotient_cocycle(problem: Problem) -> AltMap:
    """A deterministic element of Z^1(h, g/h): the first vector of the
    degree's cocycle basis, or zero when the space is trivial."""
    k, q = problem.obj.dim, problem.obj.quotient_dim
    basis = problem.degree(1).cocycle_vectors
    return AltMap.of(1, k, q, basis[0]) if basis else AltMap.zero(1, k, q)


def _sub_obstruction(problem: Problem, eta: AltMap):
    return K.kuranishi_sub(K.standard_splitting(problem), eta)


# Problem.kind -> (verify payload and text, seeded identity check, obstruction
# class of a direction); plain tuples, like _QUESTIONS, so that a tracer can
# rebind the functions in them
_KINDS = {
    "bracket": (_verified_bracket, _check_bracket, K.kuranishi_bracket),
    "hom": (_verified_hom, _check_hom, K.kuranishi_hom),
    "sub": (_verified_sub, _check_sub, _sub_obstruction),
}


# ---------------------------------------------------------------------------
# verbs

def _cmd_verify(args) -> int:
    _, problem = _resolve_object(args)
    payload, lines = _KINDS[problem.kind][0](problem.obj)
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
    # a text verdict reads only the degrees it names: the whole report a
    # vanishing verdict cites is built and serialized for --json only
    payload = args.json and {"verdicts": [v.to_json_dict() for v in verdicts]}
    _emit(payload, args.json, [_verdict_line(v) for v in verdicts])
    return 0


def _cmd_kuranishi(args) -> int:
    _, problem = _resolve_object(args)
    _, check, obstruction = _KINDS[problem.kind]
    if not args.direction:
        name, rep = check(problem, args.seed)
        _emit({"check": name, "ok": rep.ok, "seed": args.seed}, args.json,
              [rep.summary()])
        return 0
    cx = problem.complex
    oc = obstruction(problem, parse_direction_doc(
        load_json_file(args.direction), problem.tangent_degree, cx.n,
        cx.carrier_dim))
    payload = oc.to_json_dict()
    lines = [f"obstruction class ({oc.kind}, degree {oc.degree}): "
             + ("vanishes in H (primitive found)" if oc.is_zero_in_h
                else "does not vanish in H")]
    _emit(payload, args.json, lines)
    return 0


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
        flags = [f"--{f}" for f in ("kind", "seeds", "scale", *_OBJECT_FLAGS)
                 if getattr(args, f) is not None]
        if flags:
            raise MalformedDocumentError(
                f"--experiment cannot be combined with {', '.join(flags)}")
        doc = load_json_file(args.experiment)
    else:
        if not args.kind:
            raise MalformedDocumentError(
                "deform needs --experiment FILE or --kind with an object flag")
        seeds = DEFAULT_SEED_COUNT if args.seeds is None else args.seeds
        scale = DEFAULT_SCALE if args.scale is None else args.scale
        if seeds < 0:
            raise MalformedDocumentError("--seeds must be >= 0")
        doc = {"kind": args.kind,
               "perturbation": {"scale": scale, "seeds": list(range(seeds))}}
        doc.update((flag, getattr(args, flag)) for flag in _OBJECT_FLAGS
                   if getattr(args, flag))
    exp = parse_experiment_doc(doc)
    # only a well-formed experiment loads the Newton lab, which imports
    # NumPy on its first float computation
    from .deformlab import run_experiment
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
    p.add_argument("--kind", choices=list(EXPERIMENT_KINDS))
    p.add_argument("--seeds", type=int, help="number of seeds (0..N-1)")
    p.add_argument("--scale", type=float)
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
    except (K.NonCocycleError, PreconditionError, InputDefectError,
            ChartError, CohomologyUndefinedError) as exc:
        _emit({"error": "validation-failure", "message": str(exc)}, as_json,
              [f"validation failure: {exc}"])
        return 1


def entry():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    entry()
