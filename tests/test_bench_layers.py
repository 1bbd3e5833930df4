"""Every function the traced benchmark wraps must exist in the package, so a
rename fails here instead of in a later `bench/run.py --trace 1` run."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_wrapped_function_resolves():
    layers = load_layers()
    assert layers
    for group, targets in layers.items():
        for modname, attr in targets:
            module = importlib.import_module(f"liedeform.{modname}")
            if "." in attr:
                # methods are wrapped where the class itself defines them
                cls_name, meth = attr.split(".")
                target = vars(getattr(module, cls_name, object)).get(meth)
            else:
                target = getattr(module, attr, None)
            assert callable(target), (group, modname, attr)


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_newton_entries_attribute_their_verdict():
    # the traced bench reads Newton precondition time as the verdict spans
    # directly under a recovery or continuation span
    from liedeform.algebras import catalog_algebra, hom_preset, sub_preset
    from liedeform.deformlab import run_experiment

    spans = load_spans()
    rec = spans.Recorder()
    uninstall = spans.install(rec)
    try:
        for kind, obj in (("bracket-recovery", catalog_algebra("sl2")),
                          ("hom-recovery", hom_preset("id-sl2")),
                          ("sub-recovery", sub_preset("borel-in-sl2")),
                          ("hom-continuation", hom_preset("borel-incl")),
                          ("sub-continuation", sub_preset("borel-in-sl2"))):
            rec.spans.clear()
            run_experiment(kind, obj, [0])
            groups = [s[0] for s in rec.spans]
            entries = {i for i, g in enumerate(groups) if g == "deformlab.entry"}
            assert entries, kind
            assert "deformlab.perturb" in groups, kind
            assert any(s[0] == "verdicts" and s[3] in entries
                       for s in rec.spans), kind
    finally:
        uninstall()
