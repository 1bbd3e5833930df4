"""Every function the traced benchmark wraps must exist in the package, so a
rename fails here instead of in a later `bench/run.py --trace 1` run."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"


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


def test_traced_reports_measure_the_differentials():
    # the traced bench reads the differential build and the d o d check from
    # spans around differential_matrix and CEComplex.d_squared_defect
    from liedeform.algebras import (adjoint_rep, catalog_algebra, hom_preset,
                                    pullback_rep)
    from liedeform.cecomplex import cohomology

    spans = load_spans()
    rec = spans.Recorder()
    uninstall = spans.install(rec)
    try:
        cohomology(adjoint_rep(catalog_algebra("heis3")))
        cohomology(pullback_rep(hom_preset("borel-incl")))
        metrics = spans.layer_metrics(rec, 1)
        assert metrics["cecomplex.differential_cells"] > 0
        assert metrics["cecomplex.differential_build_s"] > 0
        assert 0 < metrics["cecomplex.differential_nonzero_frac"] < 1
        assert any(s[0] == "cecomplex.dd_check" for s in rec.spans)
    finally:
        uninstall()


def test_cli_calls_reach_the_traced_resolvers_and_kuranishi(tmp_path, capsys):
    # the traced bench times document resolution and the Kuranishi layer
    # through spans around the public resolvers and entry points, so every
    # CLI call must reach them through names a tracer can rebind
    import liedeform.cli

    directions = {"algebra": ("heis3", [{"i": 0, "j": 1,
                                         "coeffs": ["1", "0", "0"]}]),
                  "hom": ("borel-incl", [["0", "0"], ["1", "0"], ["0", "0"]]),
                  "sub": ("borel-in-sl2", [["1", "0"]])}
    spans = load_spans()
    rec = spans.Recorder()
    uninstall = spans.install(rec)
    try:
        for flag, (name, direction) in directions.items():
            path = tmp_path / f"{flag}.json"
            path.write_text(json.dumps(direction))
            for argv, kuranishi in (
                    (["verify"], False), (["kuranishi"], True),
                    (["kuranishi", "--direction", str(path)], True)):
                rec.spans.clear()
                argv = [*argv, f"--{flag}", name]
                assert liedeform.cli.run(argv) == 0, argv
                groups = {s[0] for s in rec.spans}
                assert "documents.resolve" in groups, argv
                if kuranishi:
                    assert groups & {"kuranishi.identity_check",
                                     "kuranishi.obstruction"}, argv
    finally:
        uninstall()
    capsys.readouterr()


INSTALL_IN_BENCH_ORDER = """
import sys

import spans
import tasks
import families

uninstall = spans.install(spans.Recorder(), extra_modules=(tasks, families))
lab = sys.modules["liedeform.deformlab"]
wrapped = hasattr(lab.numeric_jacobian, "__wrapped__")
uninstall()
print(wrapped, hasattr(lab.numeric_jacobian, "__wrapped__"))
"""


def test_install_in_bench_import_order():
    # bench/run.py imports spans, tasks and families and then installs, with
    # nothing but tasks' own imports loading liedeform: the package loads
    # deformlab lazily, so the wrappers of its functions must still resolve
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "bench")]))
    out = subprocess.run([sys.executable, "-c", INSTALL_IN_BENCH_ORDER],
                         cwd=ROOT, env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["True", "False"]
