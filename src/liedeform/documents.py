"""JSON documents for algebras, homomorphisms, subalgebras and experiments.

Every object in a document is read by one rule: it must be an object with
every key its format requires, and a key the format does not name is
refused, never dropped.  Two failure layers are kept apart: structural
problems (wrong or unknown keys, types, shapes, unparsable scalars, unknown
names) raise MalformedDocumentError, while mathematically invalid content
in a well-formed document (antisymmetry, Jacobi, curvature, closure)
surfaces as ValidationError from the validators.  The command line maps
these to exit codes 2 and 1 respectively.
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
from .cochains import AltMap
from .exactlin import Matrix, format_scalar, parse_scalar
from .records import record


class MalformedDocumentError(ValueError):
    """The document does not match the schema (independent of mathematics)."""

    def __init__(self, message, location: str = ""):
        super().__init__(message if not location else f"{location}: {message}")
        self.location = location


class PreconditionError(RuntimeError):
    """A cohomological hypothesis required by the operation does not hold."""


class InputDefectError(ValueError):
    """A floating-point input violates its structural contract beyond
    tolerance (Jacobi defect, curvature, subalgebra defect)."""


class ChartError(ValueError):
    """The requested plane is not in the graph chart around the witness."""


def _require(cond: bool, message: str, location: str = ""):
    if not cond:
        raise MalformedDocumentError(message, location)


def _object(doc, what: str, required=(), optional=(), location: str = ""):
    """``doc``: an object with every ``required`` key and no key unlisted."""
    _require(isinstance(doc, dict), f"{what} must be an object", location)
    unknown = sorted(set(doc).difference(required, optional), key=str)
    _require(not unknown, f"unknown keys {unknown}", location)
    for key in required:
        _require(key in doc, f"missing '{key}'", location)
    return doc


def _name(doc, default: str) -> str:
    name = doc.get("name", default)
    _require(isinstance(name, str), "'name' must be a string", "name")
    return name


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


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


def _rows(values, count, length: int, location: str, message: str) -> list:
    """A list of ``count`` (any number if None) ``length``-vectors."""
    _require(isinstance(values, list)
             and (count is None or len(values) == count), message, location)
    return [_vector(v, length, f"{location}[{p}]") for p, v in enumerate(values)]


def _bracket_entries(items, n: int, location: str) -> dict:
    """{(i, j): coeffs} of a list of {i, j, coeffs} entries with indices in
    [0, n), each pair given once."""
    _require(isinstance(items, list), f"'{location}' must be a list", location)
    entries = {}
    for pos, item in enumerate(items):
        loc = f"{location}[{pos}]"
        _object(item, "entry", ("i", "j", "coeffs"), (), loc)
        i, j = item["i"], item["j"]
        for key, val in (("i", i), ("j", j)):
            _require(_is_int(val) and 0 <= val < n,
                     f"'{key}' must be an index in [0, {n})", loc)
        _require((i, j) not in entries, f"duplicate entry for ({i}, {j})", loc)
        entries[(i, j)] = _vector(item["coeffs"], n, f"{loc}.coeffs")
    return entries


# ---------------------------------------------------------------------------
# algebra documents

def parse_algebra_doc(doc) -> LieAlgebra:
    _object(doc, "algebra document", ("dim",), ("name", "basis", "brackets"))
    n = doc["dim"]
    _require(_is_int(n) and n >= 0, "'dim' must be a nonnegative integer", "dim")
    name = _name(doc, "algebra")
    # no basis: validate_bracket names the basis e0, e1, ..
    basis = doc.get("basis")
    _require("basis" not in doc or (isinstance(basis, list) and len(basis) == n
                                    and all(isinstance(b, str) for b in basis)),
             f"'basis' must be a list of {n} names", "basis")
    entries = _bracket_entries(doc.get("brackets", []), n, "brackets")
    cand = BracketCandidate.from_entries(n, entries)
    return validate_bracket(cand, name=name, basis=basis)


def algebra_to_doc(g: LieAlgebra) -> dict:
    brackets = []
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            if g.candidate.terms[i][j]:
                coeffs = g.candidate.basis_bracket(i, j)
                brackets.append({"i": i, "j": j,
                                 "coeffs": [format_scalar(x) for x in coeffs]})
    return {"name": g.name, "dim": g.dim, "basis": list(g.basis),
            "brackets": brackets}


# ---------------------------------------------------------------------------
# homomorphism and subalgebra documents

def parse_hom_doc(doc) -> Homomorphism:
    _object(doc, "homomorphism document", ("source", "target", "matrix"),
            ("name",))
    source = resolve_algebra(doc["source"])
    target = resolve_algebra(doc["target"])
    data = _rows(doc["matrix"], target.dim, source.dim, "matrix",
                 f"'matrix' must have {target.dim} rows (one per target basis "
                 "vector); columns are the images of the source basis")
    matrix = Matrix(target.dim, source.dim, data)
    return validate_homomorphism(Homomorphism(source, target, matrix,
                                              _name(doc, "hom")))


def hom_to_doc(rho: Homomorphism) -> dict:
    return {"name": rho.name,
            "source": algebra_to_doc(rho.source),
            "target": algebra_to_doc(rho.target),
            "matrix": [[format_scalar(x) for x in row] for row in rho.matrix.data]}


def parse_sub_doc(doc) -> SubalgebraWitness:
    _object(doc, "subalgebra document", ("ambient", "basis_vectors"), ("name",))
    ambient = resolve_algebra(doc["ambient"])
    vectors = _rows(doc["basis_vectors"], None, ambient.dim, "basis_vectors",
                    "'basis_vectors' must be a list")
    return subalgebra_witness(ambient, vectors, name=_name(doc, "sub"))


def sub_to_doc(w: SubalgebraWitness) -> dict:
    return {"name": w.name, "ambient": algebra_to_doc(w.ambient),
            "basis_vectors": [[format_scalar(x) for x in w.basis_vector(t)]
                              for t in range(w.dim)]}


# ---------------------------------------------------------------------------
# direction documents

def parse_direction_doc(doc, degree: int, n: int, m: int) -> AltMap:
    """A tangent direction: a degree-``degree`` cochain on n basis vectors
    with values in an m-dimensional carrier.  Degree 2 (a bracket, m = n) is
    a list of {i, j, coeffs} entries with i < j, or an object with that list
    under 'brackets'; degree 1 is a matrix with m rows and n columns (column
    j the value on basis vector j), or an object with it under 'matrix'."""
    key = "brackets" if degree == 2 else "matrix"
    body = (_object(doc, "direction", (key,), (), "direction")[key]
            if isinstance(doc, dict) else doc)
    if degree == 2:
        entries = _bracket_entries(body, n, "direction")
        _require(all(i < j for i, j in entries),
                 "bracket direction entries need i < j", "direction")
        return AltMap.from_values(2, n, m, entries)
    rows = _rows(body, m, n, "direction", f"direction matrix must have {m} rows")
    return AltMap.from_flat(1, n, m, [row[j] for j in range(n) for row in rows])


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
    except (OSError, UnicodeDecodeError, ValueError, RecursionError) as exc:
        # a directory, undecodable bytes, an integer past Python's digit
        # limit, nesting deeper than the parser's recursion
        raise MalformedDocumentError(f"unreadable document {p}: {exc}")


def _looks_like_path(spec: str) -> bool:
    return spec.endswith(".json") or "/" in spec or Path(spec).exists()


def _resolve(key: str, spec):
    _, cls, parse, names, preset, noun, listing = _DOCS[key]
    if isinstance(spec, cls):
        return spec
    if isinstance(spec, dict):
        return parse(spec)
    if isinstance(spec, str):
        if spec in names():
            return preset(spec)
        # the empty name is no path, though Path("") is the working directory
        if spec and _looks_like_path(spec):
            return parse(load_json_file(spec))
        raise MalformedDocumentError(
            f"unknown {noun} {spec!r}; {listing}: {', '.join(names())}")
    raise MalformedDocumentError(f"{noun} must be a name, a path or an object")


def resolve_algebra(spec) -> LieAlgebra:
    """Catalog name, file path, or inline document."""
    return _resolve("algebra", spec)


def resolve_hom(spec) -> Homomorphism:
    """Preset name, file path, or inline document."""
    return _resolve("hom", spec)


def resolve_sub(spec) -> SubalgebraWitness:
    """Preset name, file path, or inline document."""
    return _resolve("sub", spec)


# object key -> (public resolver, type, document parser, preset names,
# preset builder, noun, what the presets are called)
_DOCS = {
    "algebra": (resolve_algebra, LieAlgebra, parse_algebra_doc, catalog_names,
                catalog_algebra, "algebra", "catalog"),
    "hom": (resolve_hom, Homomorphism, parse_hom_doc, hom_preset_names,
            hom_preset, "homomorphism", "presets"),
    "sub": (resolve_sub, SubalgebraWitness, parse_sub_doc, sub_preset_names,
            sub_preset, "subalgebra", "presets"),
}


def resolve_object(key: str, spec):
    """Resolve ``spec`` as the object an "algebra", "hom" or "sub" key names,
    through that key's public resolver."""
    return _DOCS[key][0](spec)


# ---------------------------------------------------------------------------
# experiment documents

# experiment kind -> document key of the object it perturbs.  The kinds,
# the experiment defaults, NewtonConfig and the Newton errors live here and
# not in deformlab, so that parsing or refusing an experiment never loads
# numpy.
EXPERIMENT_KEYS = {"bracket-recovery": "algebra", "hom-recovery": "hom",
                   "sub-recovery": "sub", "hom-continuation": "hom",
                   "sub-continuation": "sub"}
EXPERIMENT_KINDS = tuple(EXPERIMENT_KEYS)
# the perturbation of an experiment that names no scale or seeds: seeds
# 0 .. DEFAULT_SEED_COUNT - 1, each drawing from uniform(-scale, scale)
DEFAULT_SCALE = 0.05
DEFAULT_SEED_COUNT = 10


@record
class NewtonConfig:
    """When Newton stops a seed: converged at residual sup <= ``tol``, a
    finite number > 0, or after ``max_iter`` rounds, an int >= 1 (no bool)."""

    tol: float = 1e-10
    max_iter: int = 50

    def __post_init__(self):
        if not (_is_number(self.tol) and 0 < self.tol <= sys.float_info.max):
            raise ValueError("tolerance must be a finite positive number")
        if not (_is_int(self.max_iter) and self.max_iter >= 1):
            raise ValueError("need at least one iteration, as an int")


def parse_experiment_doc(doc) -> dict:
    """Normalized experiment: kind, resolved object, seeds, scale, config."""
    blocks = ("perturbation", "newton")
    kind = _object(doc, "experiment document", ("kind",),
                   (*EXPERIMENT_KEYS.values(), *blocks))["kind"]
    _require(kind in EXPERIMENT_KINDS,
             f"'kind' must be one of {', '.join(EXPERIMENT_KINDS)}", "kind")
    key = EXPERIMENT_KEYS[kind]
    _require(key in doc, f"{kind} experiments need '{key}'")
    # of the three object keys, an experiment names only its kind's
    _object(doc, "experiment document", ("kind", key), blocks)
    obj = resolve_object(key, doc[key])
    pert = _object(doc.get("perturbation", {}), "'perturbation'", (),
                   ("scale", "seeds"), "perturbation")
    scale = pert.get("scale", DEFAULT_SCALE)
    # perturbations draw from uniform(-scale, scale), whose width 2 * scale
    # must be a finite float; each seed starts its own stream, NumPy's
    # default_rng(seed) stream, which refuses negative integers
    _require(_is_number(scale) and 0 <= scale <= sys.float_info.max / 2,
             "'scale' must be a finite nonnegative number", "perturbation.scale")
    seeds = pert.get("seeds", list(range(DEFAULT_SEED_COUNT)))
    _require(isinstance(seeds, list) and all(
        _is_int(s) and s >= 0 for s in seeds),
        "'seeds' must be a list of nonnegative integers", "perturbation.seeds")
    newton = _object(doc.get("newton", {}), "'newton'", (),
                     NewtonConfig.__match_args__, "newton")
    try:
        cfg = NewtonConfig(**newton)
    except ValueError as exc:
        raise MalformedDocumentError(f"bad newton config: {exc}", "newton")
    return {"kind": kind, "object": obj, "seeds": list(seeds),
            "scale": float(scale), "config": cfg}
