"""The exact layers never import the float stack: `import liedeform` and
every exact verb leave numpy and SciPy unloaded, and the Newton names of the
package load on first access; the Newton lab itself loads NumPy only on its
first float computation, and no module loads SciPy, not even to solve.  Nor
do the
exact layers load ``dataclasses`` (or the ``inspect`` it pulls in): the
records are made by ``liedeform.records``.  And the package keeps one
rational matrix storage, ``exactlin.Matrix``."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import liedeform

ROOT = Path(__file__).resolve().parents[1]

FRESH_CLI = """
import io, json, sys
from contextlib import redirect_stdout

before = set(sys.modules)
import liedeform
from liedeform import cli


def call(*argv):
    with redirect_stdout(io.StringIO()):
        return cli.run(list(argv))


direction, *malformed = sys.argv[1:]
codes = {}
for flag, name in (("--algebra", "heis3"), ("--hom", "borel-incl"),
                   ("--sub", "borel-in-sl2")):
    for argv in (["verify"], ["cohomology", "--json"], ["verdict"],
                 ["kuranishi"]):
        codes[" ".join([*argv, flag])] = call(*argv, flag, name)
codes["kuranishi --direction"] = call("kuranishi", "--sub", "borel-in-sl2",
                                      "--direction", direction)
codes["les"] = call("les", "--sub", "borel-in-sl2")
for path in malformed:
    codes[f"deform --experiment {path}"] = call("deform", "--experiment", path)
exact = sorted(m for m in ("numpy", "scipy") if m in sys.modules)
startup = sorted(m for m in ("dataclasses", "inspect")
                 if m in set(sys.modules) - before)
codes["deform"] = call("deform", "--kind", "bracket-recovery", "--algebra",
                       "sl2", "--seeds", "1")
print(json.dumps({"codes": codes, "exact": exact, "startup": startup,
                  "numpy_after_deform": "numpy" in sys.modules}))
"""


def test_exact_verbs_never_load_numpy_or_scipy(tmp_path):
    direction = tmp_path / "dir.json"
    direction.write_text('[["1", "0"]]')
    # no object, then Newton settings the loop cannot honour, each refused
    # before the Newton lab loads NumPy
    docs = ['{"kind": "bracket-recovery"}'] + [
        '{"kind": "bracket-recovery", "algebra": "sl2", "newton": %s}' % newton
        for newton in ('{"damping": 1.0}', '{"max_iter": 2.5}',
                       '{"max_iter": true}', '{"tol": Infinity}')]
    malformed = []
    for i, doc in enumerate(docs):
        path = tmp_path / f"exp{i}.json"
        path.write_text(doc)
        malformed.append(str(path))
    out = subprocess.run(
        [sys.executable, "-c", FRESH_CLI, str(direction), *malformed],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout)
    codes = result["codes"]
    assert [codes.pop(f"deform --experiment {p}") for p in malformed] == [
        2] * len(docs)
    assert set(codes.values()) == {0}, codes
    assert result["exact"] == []
    assert result["startup"] == []
    assert result["numpy_after_deform"]


FRESH_NEWTON = """
import json, sys
import numpy as np
from liedeform import *
from liedeform import deformlab

mu = FloatBracket.from_exact(catalog_algebra("sl2"))
acted = act_on_bracket(np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0],
                                 [0.0, 0.0, 2.0]]), mu)
defect = float(np.abs(deformlab.jacobiator_flat(acted.c)).max())
loaded = {"numpy": "numpy" in sys.modules, "scipy": "scipy" in sys.modules}
kind = sys.argv[1]
obj = {"bracket": catalog_algebra("sl2"), "hom": hom_preset("borel-incl"),
       "sub": sub_preset("borel-in-sl2")}[kind.split("-")[0]]
record, = run_experiment(kind, obj, [0])
print(json.dumps({"defect": defect, "before_solve": loaded,
                  "after_solve": "scipy" in sys.modules, "record": record}))
"""


@pytest.mark.parametrize("kind", ["bracket-recovery", "hom-recovery",
                                  "sub-recovery", "hom-continuation",
                                  "sub-continuation"])
def test_newton_lab_solves_without_scipy(kind):
    out = subprocess.run(
        [sys.executable, "-c", FRESH_NEWTON, kind], cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout)
    assert result["defect"] < 1e-12
    # float records and kernels need numpy only, and so does a solve in
    # each chart: its exponential and its plane angle are NumPy code
    assert result["before_solve"] == {"numpy": True, "scipy": False}
    assert result["after_solve"] is False
    record = result["record"]
    assert record["converged"]
    if kind == "sub-recovery":
        assert 0 <= record["principal_angle_sup"] < 1e-8


FRESH_FLOAT = """
import json, sys

def loaded():
    return sorted(m for m in ("numpy", "scipy") if m in sys.modules)

if sys.argv[1] == "module":
    import liedeform.deformlab
else:
    from liedeform import *
on_import = loaded()
from liedeform import catalog_algebra, deformlab
mu = deformlab.FloatBracket.from_exact(catalog_algebra("sl2"))
after_float_call = loaded()
import numpy
print(json.dumps({"on_import": on_import, "after_float_call": after_float_call,
                  "bound": deformlab.np is numpy}))
"""


@pytest.mark.parametrize("how", ["module", "star"])
def test_newton_lab_loads_numpy_on_first_float_call(how):
    out = subprocess.run(
        [sys.executable, "-c", FRESH_FLOAT, how], cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    # importing the Newton lab loads no float stack; its first float call
    # loads NumPy and rebinds the module's np to it
    assert json.loads(out.stdout) == {"on_import": [],
                                      "after_float_call": ["numpy"],
                                      "bound": True}


FRESH_DEFORM = """
import io, json, sys
from contextlib import redirect_stdout

if sys.argv[1] == "scipy-first":
    import scipy.linalg
elif sys.argv[1] == "numpy-first":
    import numpy
from liedeform import cli

numpy_before = "numpy" in sys.modules
out = []
for argv in json.loads(sys.argv[2]):
    with redirect_stdout(io.StringIO()) as buf:
        code = cli.run(argv)
    out.append([code, buf.getvalue()])
print(json.dumps([numpy_before, out]))
"""


def test_deform_output_does_not_depend_on_when_the_float_stack_loads():
    objects = (("bracket-recovery", "--algebra", "sl2"),
               ("hom-recovery", "--hom", "id-sl2"),
               ("sub-recovery", "--sub", "borel-in-sl2"),
               ("hom-continuation", "--hom", "borel-incl"),
               ("sub-continuation", "--sub", "borel-in-sl2"))
    commands = [["deform", "--json", "--kind", *obj, "--seeds", "5"]
                for obj in objects]
    # scale 1.0 refreshes Jacobians and leaves some seeds unconverged
    commands.append(["deform", "--json", "--kind", "bracket-recovery",
                     "--algebra", "sl2", "--scale", "1.0", "--seeds", "20"])
    orders = ("scipy-first", "numpy-first", "lazy")
    runs = [subprocess.run(
        [sys.executable, "-c", FRESH_DEFORM, order, json.dumps(commands)],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True) for order in orders]
    assert [run.returncode for run in runs] == [0] * 3, [r.stderr for r in runs]
    numpy_before, (scipy_first, numpy_first, lazy) = zip(
        *(json.loads(run.stdout) for run in runs))
    # NumPy is loaded before the package, or first by the first deform
    assert numpy_before == (True, True, False)
    assert [code for code, _ in lazy] == [0] * len(commands)
    wide = [json.loads(line) for line in lazy[-1][1].splitlines()]
    assert len(wide) == 20 and not all(r["converged"] for r in wide)
    assert scipy_first == numpy_first == lazy


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



def unused_imports(path: Path) -> list:
    """Names a module imports and never reads."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    # the package __init__ imports are its public API
    modules = sorted((ROOT / "src" / "liedeform").glob("*.py"))
    found = {path.name: unused_imports(path) for path in modules
             if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}


def absolute_imports(top: str, walk=ast.walk) -> list:
    """file:line of every absolute import of package ``top`` in the package's
    modules, among the nodes ``walk`` yields from each module's tree."""
    found = []
    for path in sorted((ROOT / "src" / "liedeform").glob("*.py")):
        for node in walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == top for name in names):
                found.append(f"{path.name}:{node.lineno}")
    return found


def outside_functions(tree):
    """The nodes under ``tree`` that run when the module is imported: all
    but the function bodies."""
    for child in ast.iter_child_nodes(tree):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child
            yield from outside_functions(child)


def test_no_module_imports_dataclasses():
    assert absolute_imports("dataclasses") == []


def test_no_module_imports_scipy():
    # SciPy is a test oracle only: no module imports it, not even inside a
    # function
    assert absolute_imports("scipy") == []


def test_no_module_imports_numpy_at_module_level():
    # NumPy is imported on the Newton lab's first float computation, inside
    # a function
    assert absolute_imports("numpy", outside_functions) == []


def documented_layers() -> tuple:
    """Module order of the package docstring's layer list and of the README
    module table, both from the ground up."""
    doc = [re.match(r"- ``(\w+)``", line).group(1)
           for line in liedeform.__doc__.splitlines()
           if re.match(r"- ``\w+``", line)]
    table = re.findall(r"^\| `(\w+)` \|", (ROOT / "README.md").read_text(),
                       re.MULTILINE)
    return doc, table


def package_imports(path: Path) -> set:
    """Package modules a module imports, at top level or inside functions."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module or "").startswith("liedeform."):
            out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            out.update(alias.name.split(".")[1] for alias in node.names
                       if alias.name.startswith("liedeform."))
    return out


def test_modules_import_only_lower_layers():
    doc, table = documented_layers()
    assert doc == table
    modules = {p.stem: p for p in (ROOT / "src" / "liedeform").glob("*.py")
               if p.stem not in ("__init__", "__main__")}
    assert sorted(doc) == sorted(modules)
    upward = {name: sorted(m for m in package_imports(path)
                           if doc.index(m) >= doc.index(name))
              for name, path in modules.items()}
    assert {name: ms for name, ms in upward.items() if ms} == {}


def private_definitions(tree) -> set:
    """Module-level functions, classes and assigned names with one leading
    underscore."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def references(tree) -> set:
    """Names a module reads, as bare names, attributes or imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_no_private_helper_is_left_unreferenced():
    trees = {p.name: ast.parse(p.read_text())
             for p in sorted((ROOT / "src" / "liedeform").glob("*.py"))}
    read = set().union(*map(references, trees.values()))
    found = {name: sorted(private_definitions(tree) - read)
             for name, tree in trees.items()}
    assert {name: names for name, names in found.items() if names} == {}


def scoped_nodes(tree, scope=()):
    """(dotted name of the enclosing classes and functions, node) for every
    node under ``tree``."""
    for child in ast.iter_child_nodes(tree):
        yield ".".join(scope), child
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef))
        yield from scoped_nodes(child, scope + (child.name,) if named
                                else scope)


def reads(node, name: str) -> bool:
    return ((isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name))


def one_path_breaches(package: Path) -> list:
    """Places that make a problem or a float chart other than through
    ``Problem.of`` (or ``Problem.inclusion``, whose homomorphism is its own)
    and ``deformlab._chart``."""
    trees = {p.stem: ast.parse(p.read_text())
             for p in sorted(package.glob("*.py"))}
    chart_classes = {node.name for node in ast.walk(trees["deformlab"])
                     if isinstance(node, ast.ClassDef)
                     and any(reads(b, "_Chart") for b in node.bases)}
    breaches = []
    for module, tree in trees.items():
        for scope, node in scoped_nodes(tree):
            where = f"{module}.{scope}"
            if (isinstance(node, ast.Call) and reads(node.func, "Problem")
                    and where not in ("cecomplex.Problem.of",
                                      "cecomplex.Problem.inclusion")):
                breaches.append(f"{where} calls Problem(")
            if (isinstance(node, ast.Subscript)
                    and reads(node.value, "_CHARTS")
                    and where != "deformlab._chart"):
                breaches.append(f"{where} reads _CHARTS[...]")
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in chart_classes):
                breaches.append(f"{where} calls {node.func.id}(")
    return breaches


def test_problems_and_charts_are_made_on_one_path():
    assert one_path_breaches(ROOT / "src" / "liedeform") == []


# modules that read a matrix only through its row nonzeros: ``.data``
# builds a dense copy of the whole matrix on every read
SPARSE_READERS = {"algebras", "cecomplex", "kuranishi", "verdicts"}


def storage_breaches(package: Path) -> list:
    """Places that name ``SparseMatrix``, call ``.dense()``, assign through
    ``<expr>.data[...]``, read the dense ``.cocycles`` or, in
    ``SPARSE_READERS``, read ``.data``: ``exactlin.Matrix`` is the one
    rational matrix, and its ``data`` is a fresh copy, so such a write would
    be lost; cochains and kernel vectors are read as their nonzeros."""
    breaches = []
    for path in sorted(package.glob("*.py")):
        for scope, node in scoped_nodes(ast.parse(path.read_text())):
            where = f"{path.stem}.{scope}"
            if (path.stem in SPARSE_READERS and isinstance(node, ast.Attribute)
                    and node.attr == "data"):
                breaches.append(f"{where} reads .data")
            if isinstance(node, ast.Attribute) and node.attr == "cocycles":
                breaches.append(f"{where} reads .cocycles")
            if (reads(node, "SparseMatrix")
                    or getattr(node, "name", None) == "SparseMatrix"):
                breaches.append(f"{where} names SparseMatrix")
            if isinstance(node, ast.Call) and reads(node.func, "dense"):
                breaches.append(f"{where} calls .dense()")
            targets = (node.targets if isinstance(node, ast.Assign) else
                       [node.target] if isinstance(node, (ast.AugAssign,
                                                          ast.AnnAssign))
                       else [])
            if any(isinstance(t, ast.Subscript) and reads(t.value, "data")
                   for target in targets for t in ast.walk(target)):
                breaches.append(f"{where} assigns through .data[...]")
    return breaches


def test_one_matrix_storage():
    assert storage_breaches(ROOT / "src" / "liedeform") == []


def test_storage_guard_sees_a_dense_read(tmp_path):
    # the dense copy stays allowed where rows are written out or are small
    for stem in ("cecomplex", "documents", "kuranishi"):
        (tmp_path / f"{stem}.py").write_text(
            "def pull(m):\n    return m.data\n")
    (tmp_path / "cli.py").write_text(
        "def first(d):\n    return d.cocycles.basis[0]\n")
    assert storage_breaches(tmp_path) == ["cecomplex.pull reads .data",
                                          "cli.first reads .cocycles",
                                          "kuranishi.pull reads .data"]
