"""Span recorder for the traced benchmark run.

Nothing here is imported into liedeform: ``install`` wraps public functions
of the package from the outside, rebinding each one on every module-level
name it is reached through (``liedeform.exactlin.rref`` and
``liedeform.cecomplex.rref`` are the same function, and ``deformlab``
imports the verdict functions from ``liedeform.verdicts`` at call time).
Untraced runs never call ``install``, so they run the program untouched.

A span is (name, start, end, parent, task, probe): ``probe`` is the time
spent inside the span by the recorder's own measurements of results (entry
bit-lengths, nonzero counts), which is taken out of every enclosing span.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# metric group -> (module, function or Class.method) wrapped under it
LAYERS = {
    "cli.run": [("cli", "run")],
    "documents.resolve": [("documents", "resolve_algebra"),
                          ("documents", "resolve_hom"),
                          ("documents", "resolve_sub"),
                          ("documents", "parse_experiment_doc")],
    "algebras.validate": [("algebras", "validate_bracket"),
                          ("algebras", "validate_homomorphism"),
                          ("algebras", "subalgebra_witness")],
    "algebras.rep_build": [("algebras", "adjoint_rep"),
                           ("algebras", "pullback_rep"),
                           ("algebras", "quotient_rep"),
                           ("algebras", "RepSpec.check_identity")],
    "verdicts": [("verdicts", name) for name in (
        "bracket_rigidity", "bracket_smoothness", "hom_rigidity",
        "hom_aut_rigidity", "hom_stability",
        "hom_infinitesimal_stability_indicator", "sub_rigidity",
        "sub_stability", "kuranishi_model_dims")],
    "kuranishi.identity_check": [("kuranishi", "jacobiator_expansion_check"),
                                 ("kuranishi", "curvature_expansion_check"),
                                 ("kuranishi", "splitting_independence_check")],
    "kuranishi.obstruction": [("kuranishi", "kuranishi_bracket"),
                              ("kuranishi", "kuranishi_hom"),
                              ("kuranishi", "kuranishi_sub")],
    "cecomplex.cohomology": [("cecomplex", "cohomology")],
    "cecomplex.differential_build": [("cecomplex", "differential_matrix")],
    "cecomplex.dd_check": [("cecomplex", "CEComplex.d_squared_defect")],
    "cecomplex.induced_map": [("cecomplex", "induced_map_on_h")],
    "cecomplex.les": [("cecomplex", "les_subalgebra")],
    "cecomplex.pullback_cochain_map": [("cecomplex", "pullback_cochain_map")],
    "exactlin.rref": [("exactlin", "rref")],
    "exactlin.solve": [("exactlin", "solve_particular")],
    "deformlab.entry": [("deformlab", name) for name in (
        "recover_bracket_orbit", "recover_hom_orbit", "recover_sub_orbit",
        "continue_hom", "continue_sub")],
    "deformlab.perturb": [("deformlab", "perturbed_bracket"),
                          ("deformlab", "perturbed_hom"),
                          ("deformlab", "perturbed_plane")],
    "deformlab.jacobian": [("deformlab", "numeric_jacobian")],
}


class Recorder:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.task = None
        self.probe = 0.0
        self.rref_cells = 0
        self.max_entry_bits = 0
        self.differential_cells = 0
        self.differential_nonzero = 0

    def after_rref(self, args, out):
        m = args[0]
        self.rref_cells += m.rows * m.cols
        bits = self.max_entry_bits
        for row in out[0].data:
            for x in row:
                b = max(x.numerator.bit_length(), x.denominator.bit_length())
                if b > bits:
                    bits = b
        self.max_entry_bits = bits

    def after_differential(self, args, out):
        self.differential_cells += out.rows * out.cols
        self.differential_nonzero += sum(1 for row in out.data for x in row if x)


_POST = {"exactlin.rref": Recorder.after_rref,
         "cecomplex.differential_build": Recorder.after_differential}


def _wrap(rec: Recorder, group: str, orig):
    post = _POST.get(group)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        parent = rec.stack[-1] if rec.stack else -1
        idx = len(rec.spans)
        rec.spans.append(None)
        rec.stack.append(idx)
        probe0 = rec.probe
        t0 = perf_counter()
        try:
            out = orig(*args, **kwargs)
        finally:
            t1 = perf_counter()
            rec.stack.pop()
            rec.spans[idx] = (group, t0, t1, parent, rec.task, rec.probe - probe0)
        if post is not None:
            tp = perf_counter()
            post(rec, args, out)
            rec.probe += perf_counter() - tp
        return out

    return wrapper


def _reachable_modules(extra):
    names = [n for n in sys.modules
             if n == "liedeform" or n.startswith("liedeform.")]
    return [sys.modules[n] for n in names] + list(extra)


def install(rec: Recorder, extra_modules=()):
    """Wrap every function in LAYERS; returns a callable that undoes it."""
    import liedeform  # noqa: F401  (loads every submodule)
    undo = []
    modules = _reachable_modules(extra_modules)
    for group, targets in LAYERS.items():
        for modname, attr in targets:
            mod = sys.modules[f"liedeform.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, _wrap(rec, group, orig))
                undo.append((setattr, cls, meth, orig))
                continue
            orig = getattr(mod, attr)
            wrapper = _wrap(rec, group, orig)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, name, wrapper)
                        undo.append((setattr, m, name, orig))
                    elif isinstance(value, dict):
                        # dispatch tables such as cli._QUESTIONS hold
                        # (kind, function) pairs built at import time
                        for key, item in list(value.items()):
                            if isinstance(item, tuple) and orig in item:
                                value[key] = tuple(wrapper if x is orig else x
                                                   for x in item)
                                undo.append((value.__setitem__, key, item))

    def uninstall():
        for restore, *args in reversed(undo):
            restore(*args)

    return uninstall


def self_times(spans):
    """Self time of every span: its duration, less the probe time inside it,
    less the same measure of each direct child."""
    eff = [s[2] - s[1] - s[5] for s in spans]
    own = list(eff)
    for s, e in zip(spans, eff):
        if s[3] >= 0:
            own[s[3]] -= e
    return eff, own


def _ancestor_in(spans, idx, groups):
    p = spans[idx][3]
    while p >= 0:
        if spans[p][0] in groups:
            return True
        p = spans[p][3]
    return False


def layer_metrics(rec: Recorder, passes: int) -> dict:
    """Per-pass layer numbers from the spans of ``passes`` traced passes."""
    spans = rec.spans
    eff, own = self_times(spans)
    per = 1.0 / passes
    self_s, calls = {}, {}
    for s, o in zip(spans, own):
        self_s[s[0]] = self_s.get(s[0], 0.0) + o
        calls[s[0]] = calls.get(s[0], 0) + 1

    def s_of(group):
        return self_s.get(group, 0.0) * per

    def n_of(group):
        return calls.get(group, 0) * per

    verdict_calls = calls.get("verdicts", 0)
    coh_calls = calls.get("cecomplex.cohomology", 0)
    coh_in_verdicts = sum(1 for i, s in enumerate(spans)
                          if s[0] == "cecomplex.cohomology"
                          and _ancestor_in(spans, i, {"verdicts"}))
    rref_in_reports = sum(1 for i, s in enumerate(spans)
                          if s[0] == "exactlin.rref"
                          and _ancestor_in(spans, i, {"cecomplex.cohomology"}))
    precondition = sum(e for s, e in zip(spans, eff)
                       if s[0] == "verdicts" and s[3] >= 0
                       and spans[s[3]][0] == "deformlab.entry")
    entry = sum(e for s, e in zip(spans, eff) if s[0] == "deformlab.entry")
    perturb = sum(e for s, e in zip(spans, eff) if s[0] == "deformlab.perturb")
    cells = rec.differential_cells
    return {
        "cli.run_s": s_of("cli.run"),
        "documents.resolve_s": s_of("documents.resolve"),
        "algebras.validate_s": s_of("algebras.validate"),
        "algebras.rep_build_s": s_of("algebras.rep_build"),
        "verdicts.calls": n_of("verdicts"),
        "verdicts.s": s_of("verdicts"),
        "verdicts.cohomology_per_verdict":
            coh_in_verdicts / verdict_calls if verdict_calls else 0.0,
        "kuranishi.identity_check_s": s_of("kuranishi.identity_check"),
        "kuranishi.obstruction_s": s_of("kuranishi.obstruction"),
        "cecomplex.cohomology_calls": n_of("cecomplex.cohomology"),
        "cecomplex.cohomology_s": s_of("cecomplex.cohomology"),
        "cecomplex.differential_build_s": s_of("cecomplex.differential_build"),
        "cecomplex.differential_cells": cells * per,
        "cecomplex.differential_nonzero_frac":
            rec.differential_nonzero / cells if cells else 0.0,
        "cecomplex.dd_check_s": s_of("cecomplex.dd_check"),
        "cecomplex.induced_map_s": s_of("cecomplex.induced_map"),
        "cecomplex.les_s": s_of("cecomplex.les"),
        "cecomplex.pullback_cochain_map_s": s_of("cecomplex.pullback_cochain_map"),
        "exactlin.rref_calls": n_of("exactlin.rref"),
        "exactlin.rref_s": s_of("exactlin.rref"),
        "exactlin.rref_cells": rec.rref_cells * per,
        "exactlin.rref_calls_per_report":
            rref_in_reports / coh_calls if coh_calls else 0.0,
        "exactlin.solve_calls": n_of("exactlin.solve"),
        "exactlin.solve_s": s_of("exactlin.solve"),
        "exactlin.max_entry_bits": rec.max_entry_bits,
        "deformlab.precondition_s": precondition * per,
        "deformlab.newton_s": (entry - precondition) * per,
        "deformlab.perturb_s": perturb * per,
        "deformlab.jacobian_refreshes": n_of("deformlab.jacobian"),
    }
