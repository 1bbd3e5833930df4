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
