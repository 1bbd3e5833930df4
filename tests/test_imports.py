"""The exact layers never import the float stack: `import liedeform` and
every exact verb leave numpy and SciPy unloaded, and the Newton names of the
package load on first access."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import liedeform

ROOT = Path(__file__).resolve().parents[1]

FRESH_CLI = """
import io, json, sys
from contextlib import redirect_stdout

import liedeform
from liedeform import cli


def call(*argv):
    with redirect_stdout(io.StringIO()):
        return cli.run(list(argv))


direction, malformed = sys.argv[1:]
codes = {}
for flag, name in (("--algebra", "heis3"), ("--hom", "borel-incl"),
                   ("--sub", "borel-in-sl2")):
    for argv in (["verify"], ["cohomology", "--json"], ["verdict"],
                 ["kuranishi"]):
        codes[" ".join([*argv, flag])] = call(*argv, flag, name)
codes["kuranishi --direction"] = call("kuranishi", "--sub", "borel-in-sl2",
                                      "--direction", direction)
codes["les"] = call("les", "--sub", "borel-in-sl2")
codes["deform --experiment malformed"] = call("deform", "--experiment",
                                              malformed)
exact = sorted(m for m in ("numpy", "scipy") if m in sys.modules)
codes["deform"] = call("deform", "--kind", "bracket-recovery", "--algebra",
                       "sl2", "--seeds", "1")
print(json.dumps({"codes": codes, "exact": exact,
                  "numpy_after_deform": "numpy" in sys.modules}))
"""


def test_exact_verbs_never_load_numpy_or_scipy(tmp_path):
    direction = tmp_path / "dir.json"
    direction.write_text('[["1", "0"]]')
    malformed = tmp_path / "exp.json"
    malformed.write_text('{"kind": "bracket-recovery"}')
    out = subprocess.run(
        [sys.executable, "-c", FRESH_CLI, str(direction), str(malformed)],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout)
    codes = result["codes"]
    assert codes.pop("deform --experiment malformed") == 2
    assert set(codes.values()) == {0}, codes
    assert result["exact"] == []
    assert result["numpy_after_deform"]


def test_newton_names_load_on_first_access():
    from liedeform import deformlab
    assert liedeform.run_experiment is deformlab.run_experiment
    assert liedeform.ChartError is deformlab.ChartError
    lazy = {"FloatBracket", "run_experiment", "recover_hom_orbit",
            "continue_sub", "vertical_derivative_fd_check"}
    assert lazy <= set(liedeform._FLOAT_NAMES) <= set(dir(liedeform))
    for name in liedeform._FLOAT_NAMES:
        assert getattr(liedeform, name) is getattr(deformlab, name)
    star = {}
    exec("from liedeform import *", star)
    assert star["run_experiment"] is deformlab.run_experiment
    assert star["cohomology"] is liedeform.cohomology


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        liedeform.no_such_name

