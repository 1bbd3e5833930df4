"""JSON documents for algebras, homomorphisms, subalgebras and experiments.

Two failure layers are kept apart: structural problems (wrong keys, types,
shapes, unparsable scalars, unknown names) raise MalformedDocumentError,
while mathematically invalid content in a well-formed document (antisymmetry,
Jacobi, curvature, closure) surfaces as ValidationError from the validators.
The command line maps these to exit codes 2 and 1 respectively.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from .algebras import (BracketCandidate, Homomorphism, LieAlgebra,
                       SubalgebraWitness, catalog_algebra, catalog_names,
                       hom_preset, hom_preset_names, sub_preset,
                       sub_preset_names, subalgebra_witness, validate_bracket,
                       validate_homomorphism)
from .deformlab import EXPERIMENTS, NewtonConfig
from .exactlin import Matrix, format_scalar, parse_scalar


class MalformedDocumentError(ValueError):
    """The document does not match the schema (independent of mathematics)."""

    def __init__(self, message, location: str = ""):
        super().__init__(message if not location else f"{location}: {message}")
        self.location = location


def _require(cond: bool, message: str, location: str = ""):
    if not cond:
        raise MalformedDocumentError(message, location)


def _scalar(value, location: str):
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise MalformedDocumentError(
            "scalars must be integers or 'p/q' strings (floats are not exact)",
            location)
    try:
        return parse_scalar(value if isinstance(value, str) else str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedDocumentError(f"bad scalar {value!r}: {exc}", location)


def _vector(values, length: int, location: str):
    _require(isinstance(values, list) and len(values) == length,
             f"expected a list of {length} scalars", location)
    return [_scalar(v, f"{location}[{p}]") for p, v in enumerate(values)]


# ---------------------------------------------------------------------------
# algebra documents

def parse_algebra_doc(doc) -> LieAlgebra:
    _require(isinstance(doc, dict), "algebra document must be an object")
    _require("dim" in doc, "missing 'dim'")
    n = doc["dim"]
    _require(isinstance(n, int) and not isinstance(n, bool) and n >= 0,
             "'dim' must be a nonnegative integer", "dim")
    name = doc.get("name", "algebra")
    _require(isinstance(name, str), "'name' must be a string", "name")
    basis = doc.get("basis")
    if basis is None:
        basis = [f"e{i}" for i in range(n)]
    _require(isinstance(basis, list) and len(basis) == n
             and all(isinstance(b, str) for b in basis),
             f"'basis' must be a list of {n} names", "basis")
    entries = {}
    brackets = doc.get("brackets", [])
    _require(isinstance(brackets, list), "'brackets' must be a list", "brackets")
    for pos, item in enumerate(brackets):
        loc = f"brackets[{pos}]"
        _require(isinstance(item, dict), "entry must be an object", loc)
        _require(set(item) <= {"i", "j", "coeffs"},
                 f"unknown keys {sorted(set(item) - {'i', 'j', 'coeffs'})}", loc)
        for key in ("i", "j", "coeffs"):
            _require(key in item, f"missing '{key}'", loc)
        i, j = item["i"], item["j"]
        for key, val in (("i", i), ("j", j)):
            _require(isinstance(val, int) and not isinstance(val, bool)
                     and 0 <= val < n, f"'{key}' must be an index in [0, {n})", loc)
        _require((i, j) not in entries, f"duplicate entry for ({i}, {j})", loc)
        entries[(i, j)] = _vector(item["coeffs"], n, f"{loc}.coeffs")
    cand = BracketCandidate.from_entries(n, entries)
    return validate_bracket(cand, name=name, basis=tuple(basis))


def algebra_to_doc(g: LieAlgebra) -> dict:
    brackets = []
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            coeffs = g.candidate.c[i][j]
            if any(x != 0 for x in coeffs):
                brackets.append({"i": i, "j": j,
                                 "coeffs": [format_scalar(x) for x in coeffs]})
    return {"name": g.name, "dim": g.dim, "basis": list(g.basis),
            "brackets": brackets}


# ---------------------------------------------------------------------------
# homomorphism and subalgebra documents

def parse_hom_doc(doc) -> Homomorphism:
    _require(isinstance(doc, dict), "homomorphism document must be an object")
    for key in ("source", "target", "matrix"):
        _require(key in doc, f"missing '{key}'")
    source = resolve_algebra(doc["source"])
    target = resolve_algebra(doc["target"])
    rows = doc["matrix"]
    _require(isinstance(rows, list) and len(rows) == target.dim,
             f"'matrix' must have {target.dim} rows (one per target basis "
             "vector); columns are the images of the source basis", "matrix")
    data = [_vector(row, source.dim, f"matrix[{r}]") for r, row in enumerate(rows)]
    matrix = Matrix(target.dim, source.dim, data)
    name = doc.get("name", "hom")
    _require(isinstance(name, str), "'name' must be a string", "name")
    rho = Homomorphism(source, target, matrix, name=name)
    validate_homomorphism(rho)
    return rho


def hom_to_doc(rho: Homomorphism) -> dict:
    return {"name": rho.name,
            "source": algebra_to_doc(rho.source),
            "target": algebra_to_doc(rho.target),
            "matrix": [[format_scalar(x) for x in row] for row in rho.matrix.data]}


def parse_sub_doc(doc) -> SubalgebraWitness:
    _require(isinstance(doc, dict), "subalgebra document must be an object")
    for key in ("ambient", "basis_vectors"):
        _require(key in doc, f"missing '{key}'")
    ambient = resolve_algebra(doc["ambient"])
    vecs = doc["basis_vectors"]
    _require(isinstance(vecs, list), "'basis_vectors' must be a list",
             "basis_vectors")
    vectors = [_vector(v, ambient.dim, f"basis_vectors[{p}]")
               for p, v in enumerate(vecs)]
    name = doc.get("name", "sub")
    _require(isinstance(name, str), "'name' must be a string", "name")
    return subalgebra_witness(ambient, vectors, name=name)


def sub_to_doc(w: SubalgebraWitness) -> dict:
    return {"name": w.name, "ambient": algebra_to_doc(w.ambient),
            "basis_vectors": [[format_scalar(x) for x in w.basis_vector(t)]
                              for t in range(w.dim)]}


# ---------------------------------------------------------------------------
# name-or-inline-or-path resolution

def load_json_file(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise MalformedDocumentError(f"no such file: {p}")
    try:
        with open(p, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise MalformedDocumentError(f"invalid JSON in {p}: {exc}")


def _looks_like_path(spec: str) -> bool:
    return spec.endswith(".json") or "/" in spec or Path(spec).exists()


def resolve_algebra(spec) -> LieAlgebra:
    """Catalog name, file path, or inline document."""
    if isinstance(spec, LieAlgebra):
        return spec
    if isinstance(spec, dict):
        return parse_algebra_doc(spec)
    if isinstance(spec, str):
        if spec in catalog_names():
            return catalog_algebra(spec)
        if _looks_like_path(spec):
            return parse_algebra_doc(load_json_file(spec))
        raise MalformedDocumentError(
            f"unknown algebra {spec!r}; catalog: {', '.join(catalog_names())}")
    raise MalformedDocumentError("algebra must be a name, a path or an object")


def resolve_hom(spec) -> Homomorphism:
    if isinstance(spec, Homomorphism):
        return spec
    if isinstance(spec, dict):
        return parse_hom_doc(spec)
    if isinstance(spec, str):
        if spec in hom_preset_names():
            return hom_preset(spec)
        if _looks_like_path(spec):
            return parse_hom_doc(load_json_file(spec))
        raise MalformedDocumentError(
            f"unknown homomorphism {spec!r}; presets: "
            f"{', '.join(hom_preset_names())}")
    raise MalformedDocumentError("homomorphism must be a name, a path or an "
                                 "object")


def resolve_sub(spec) -> SubalgebraWitness:
    if isinstance(spec, SubalgebraWitness):
        return spec
    if isinstance(spec, dict):
        return parse_sub_doc(spec)
    if isinstance(spec, str):
        if spec in sub_preset_names():
            return sub_preset(spec)
        if _looks_like_path(spec):
            return parse_sub_doc(load_json_file(spec))
        raise MalformedDocumentError(
            f"unknown subalgebra {spec!r}; presets: "
            f"{', '.join(sub_preset_names())}")
    raise MalformedDocumentError("subalgebra must be a name, a path or an "
                                 "object")


def resolve_object(key: str, spec):
    """Resolve ``spec`` as the object an "algebra", "hom" or "sub" key names."""
    if key == "algebra":
        return resolve_algebra(spec)
    if key == "hom":
        return resolve_hom(spec)
    return resolve_sub(spec)


# ---------------------------------------------------------------------------
# experiment documents

EXPERIMENT_KINDS = tuple(EXPERIMENTS)


def parse_experiment_doc(doc) -> dict:
    """Normalized experiment: kind, resolved object, seeds, scale, config."""
    _require(isinstance(doc, dict), "experiment document must be an object")
    _require("kind" in doc, "missing 'kind'")
    kind = doc["kind"]
    _require(kind in EXPERIMENT_KINDS,
             f"'kind' must be one of {', '.join(EXPERIMENT_KINDS)}", "kind")
    key = EXPERIMENTS[kind][0]
    _require(key in doc, f"{kind} experiments need '{key}'")
    obj = resolve_object(key, doc[key])
    pert = doc.get("perturbation", {})
    _require(isinstance(pert, dict), "'perturbation' must be an object",
             "perturbation")
    scale = pert.get("scale", 0.05)
    # perturbations draw from uniform(-scale, scale), whose width 2 * scale
    # must be a finite float; seeds seed numpy generators, which refuse
    # negative integers
    _require(isinstance(scale, (int, float)) and not isinstance(scale, bool)
             and 0 <= scale <= sys.float_info.max / 2,
             "'scale' must be a finite nonnegative number", "perturbation.scale")
    seeds = pert.get("seeds", list(range(10)))
    _require(isinstance(seeds, list) and all(
        isinstance(s, int) and not isinstance(s, bool) and s >= 0
        for s in seeds),
        "'seeds' must be a list of nonnegative integers", "perturbation.seeds")
    newton = doc.get("newton", {})
    _require(isinstance(newton, dict), "'newton' must be an object", "newton")
    allowed = {"tol", "max_iter", "damping"}
    _require(set(newton) <= allowed,
             f"unknown newton keys {sorted(set(newton) - allowed)}", "newton")
    try:
        cfg = NewtonConfig(**newton)
    except (TypeError, ValueError) as exc:
        raise MalformedDocumentError(f"bad newton config: {exc}", "newton")
    return {"kind": kind, "object": obj, "seeds": list(seeds),
            "scale": float(scale), "config": cfg}
