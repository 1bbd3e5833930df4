"""Golden CLI outputs that print exact cochains: obstruction representatives
and primitives (`kuranishi --direction`), the seeded identity checks and the
long exact sequences.  The stdout and exit code of each command, with and
without ``--json``, are pinned byte for byte in ``golden_cochains.json``."""

import json
from pathlib import Path

import pytest

from liedeform.algebras import sub_preset
from liedeform.cecomplex import DegreeData, Problem
from liedeform.cli import run
from liedeform.cochains import AltMap

GOLDEN = Path(__file__).with_name("golden_cochains.json")

# direction documents: the three of the bench reference, the abelian3
# 2-cocycle whose Jacobiator does not vanish and the borel-in-sl2 direction
# that has a primitive (the last equals the bench's dir-borel-in-sl2)
DIRECTIONS = {
    "dir-heis3": ("--algebra", "heis3", {"brackets": [
        {"coeffs": ["1", "0", "0"], "i": 0, "j": 1}]}),
    "dir-borel-incl": ("--hom", "borel-incl", {"matrix": [
        ["0", "0"], ["1", "0"], ["0", "0"]]}),
    "dir-borel-in-sl2": ("--sub", "borel-in-sl2", {"matrix": [["1", "0"]]}),
    "dir-abelian3": ("--algebra", "abelian3", [
        {"i": 0, "j": 1, "coeffs": ["1", "0", "0"]},
        {"i": 0, "j": 2, "coeffs": ["0", "0", "1"]}]),
    "dir-sub-primitive": ("--sub", "borel-in-sl2", [["1", "0"]]),
    # a bracket direction with a nonzero primitive, a derivation of sl2 with
    # a nonzero representative, and two directions that are not cocycles
    "dir-heis3-primitive": ("--algebra", "heis3", [
        {"i": 0, "j": 1, "coeffs": ["1", "0", "0"]},
        {"i": 0, "j": 2, "coeffs": ["0", "0", "1"]}]),
    "dir-ad-e": ("--hom", "id-sl2", [["0", "0", "1"], ["-2", "0", "0"],
                                     ["0", "0", "0"]]),
    "dir-heis3-not-closed": ("--algebra", "heis3", [
        {"i": 0, "j": 2, "coeffs": ["1", "0", "0"]},
        {"i": 1, "j": 2, "coeffs": ["0", "1", "0"]}]),
    "dir-sl2-not-closed": ("--hom", "id-sl2", [["0", "1", "0"], ["0", "0", "0"],
                                               ["0", "0", "0"]]),
}

OBJECTS = [("--algebra", "sl2"), ("--algebra", "heis3"),
           ("--hom", "borel-incl"), ("--hom", "id-sl2"),
           ("--sub", "borel-in-sl2"), ("--sub", "center-in-heis3")]


def commands(tmp: Path) -> dict:
    """Name -> argv of every pinned command, direction documents written
    under ``tmp``."""
    out = {}
    for name, (flag, obj, doc) in DIRECTIONS.items():
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(doc))
        argv = ["kuranishi", flag, obj, "--direction", str(path)]
        out[name] = argv
        out[f"{name} --json"] = argv + ["--json"]
    for flag, obj in OBJECTS:
        for seed in ("0", "5"):
            argv = ["kuranishi", flag, obj, "--seed", seed]
            out[f"kuranishi {flag} {obj} --seed {seed}"] = argv
            out[f"kuranishi {flag} {obj} --seed {seed} --json"] = argv + ["--json"]
    for sub in ("borel-in-sl2", "center-in-heis3"):
        for top in ("2", "3"):
            out[f"les {sub} {top}"] = ["les", "--sub", sub, "--max-degree",
                                       top, "--json"]
    return out


def outputs(capsys, tmp: Path) -> dict:
    got = {}
    for name, argv in commands(tmp).items():
        code = run(argv)
        got[name] = {"code": code, "stdout": capsys.readouterr().out}
    return got


def test_golden_outputs_are_unchanged(capsys, tmp_path):
    want = json.loads(GOLDEN.read_text())
    got = outputs(capsys, tmp_path)
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name


@pytest.mark.parametrize("name", ["dir-sub-primitive", "dir-abelian3",
                                  "dir-heis3-primitive", "dir-ad-e"])
def test_golden_direction_outputs_print_cochains(name):
    # the pinned set covers nonzero representatives and primitives
    doc = json.loads(json.loads(GOLDEN.read_text())[f"{name} --json"]["stdout"])
    assert doc["representative"]
    assert bool(doc.get("primitive")) == doc["vanishes"]


def test_cochain_paths_build_no_dense_basis(capsys, monkeypatch, tmp_path):
    # cocycle bases are dense views for readers outside the package; the
    # LES, the identity checks, the verdicts and the obstruction classes read
    # kernel vectors and cochains as their nonzeros
    reads = []
    cocycles = DegreeData.__dict__["cocycles"].func
    value = AltMap.value

    def spy_cocycles(d):
        reads.append(("cocycles", d.k))
        return cocycles(d)

    def spy_value(m, subset):
        reads.append(("value", subset))
        return value(m, subset)

    monkeypatch.setattr(DegreeData, "cocycles", property(spy_cocycles))
    monkeypatch.setattr(AltMap, "value", spy_value)
    argvs = [["les", "--sub", "borel-in-sl2"],
             ["kuranishi", "--sub", "borel-in-sl2", "--seed", "0"],
             ["verdict", "--hom", "borel-incl"]]
    argvs += [argv for name, argv in commands(tmp_path).items()
              if name in DIRECTIONS]
    for argv in argvs:
        run(argv)
    capsys.readouterr()
    assert reads == []
    problem = Problem.of(sub_preset("borel-in-sl2"))
    problem.report.degree(1).cocycles  # the spy sees a read
    assert reads == [("cocycles", 1)]
