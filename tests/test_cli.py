"""Command-line interface: verbs, JSON output, exit codes, determinism."""

import json
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    import tomli as tomllib

from liedeform.cli import run

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_catalog_algebra_ok(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--algebra", "sl2")
        assert code == 0
        assert "valid" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--algebra", "heis3", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["valid"] is True and doc["kind"] == "algebra"

    def test_jacobi_failure_exits_one(self, capsys, tmp_path):
        bad = {"name": "bad", "dim": 3, "basis": ["x", "y", "z"],
               "brackets": [{"i": 0, "j": 1, "coeffs": ["1", "0", "0"]},
                            {"i": 0, "j": 2, "coeffs": ["0", "0", "1"]}]}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad))
        code, out, err = run_cli(capsys, "verify", "--algebra", str(p))
        assert code == 1
        assert "jacobi" in (out + err).lower()

    def test_malformed_doc_exits_two(self, capsys, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{oops")
        code, _, err = run_cli(capsys, "verify", "--algebra", str(p))
        assert code == 2

    def test_hom_and_sub_verify(self, capsys):
        assert run_cli(capsys, "verify", "--hom", "borel-incl")[0] == 0
        assert run_cli(capsys, "verify", "--sub", "center-in-heis3")[0] == 0

    def test_no_object_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "verify")
        assert code == 2


class TestCohomology:
    def test_heis3_dims(self, capsys):
        code, out, _ = run_cli(capsys, "cohomology", "--algebra", "heis3",
                               "--json")
        assert code == 0
        doc = json.loads(out)
        assert [d["dimH"] for d in doc["degrees"]] == [1, 4, 5, 2]
        assert doc["euler"] == 0

    def test_text_output_mentions_degrees(self, capsys):
        code, out, _ = run_cli(capsys, "cohomology", "--algebra", "sl2")
        assert code == 0
        assert "dimH" in out and "euler" in out

    def test_pullback_system(self, capsys):
        code, out, _ = run_cli(capsys, "cohomology", "--hom", "zero-to-sl2",
                               "--json")
        assert code == 0
        assert [d["dimH"] for d in json.loads(out)["degrees"]] == [3, 3]

    def test_quotient_system(self, capsys):
        code, out, _ = run_cli(capsys, "cohomology", "--sub",
                               "center-in-heis3", "--json")
        assert code == 0
        assert [d["dimH"] for d in json.loads(out)["degrees"]][:2] == [2, 2]


class TestVerdict:
    def test_single_question(self, capsys):
        code, out, _ = run_cli(capsys, "verdict", "--algebra", "sl2",
                               "--question", "bracket-rigidity", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdicts"][0]["conclusion"] == "holds"

    def test_fails_criterion_still_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verdict", "--algebra", "heis3",
                               "--question", "bracket-rigidity", "--json")
        assert code == 0
        assert json.loads(out)["verdicts"][0]["conclusion"] == "fails-criterion"

    def test_all_questions_for_hom(self, capsys):
        code, out, _ = run_cli(capsys, "verdict", "--hom", "borel-incl",
                               "--json")
        assert code == 0
        doc = json.loads(out)
        crits = [v["criterion"] for v in doc["verdicts"]]
        assert "hom-rigidity" in crits and "hom-stability" in crits
        assert "hom-infinitesimal-stability-indicator" in crits

    def test_model_dims_question(self, capsys):
        code, out, _ = run_cli(capsys, "verdict", "--sub", "borel-in-sl2",
                               "--question", "kuranishi-model-dims", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "sub" and doc["tangent_dim"] == 0

    def test_question_object_mismatch_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "verdict", "--algebra", "sl2",
                               "--question", "hom-rigidity")
        assert code == 2

    def test_text_output_readable(self, capsys):
        code, out, _ = run_cli(capsys, "verdict", "--algebra", "sl2")
        assert code == 0
        assert "holds" in out


class TestKuranishi:
    def test_identity_check_bracket(self, capsys):
        code, out, _ = run_cli(capsys, "kuranishi", "--algebra", "sl2",
                               "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["check"] == "jacobiator-expansion"
        assert doc["ok"] is True and doc["seed"] == 0

    def test_identity_check_hom(self, capsys):
        code, out, _ = run_cli(capsys, "kuranishi", "--hom", "borel-incl",
                               "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["check"] == "curvature-expansion" and doc["ok"] is True

    def test_identity_check_sub(self, capsys):
        code, out, _ = run_cli(capsys, "kuranishi", "--sub", "borel-in-sl2",
                               "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["check"] == "splitting-independence" and doc["ok"] is True

    def test_seeded_checks_are_deterministic(self, capsys):
        a = run_cli(capsys, "kuranishi", "--algebra", "heis3", "--json",
                    "--seed", "5")
        b = run_cli(capsys, "kuranishi", "--algebra", "heis3", "--json",
                    "--seed", "5")
        assert a == b

    def test_bracket_direction_class(self, capsys, tmp_path):
        p = tmp_path / "dir.json"
        # a 2-cocycle on abelian3 whose jacobiator does not vanish
        p.write_text(json.dumps([
            {"i": 0, "j": 1, "coeffs": ["1", "0", "0"]},
            {"i": 0, "j": 2, "coeffs": ["0", "0", "1"]}]))
        code, out, _ = run_cli(capsys, "kuranishi", "--algebra", "abelian3",
                               "--direction", str(p), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["vanishes"] is False and doc["kind"] == "bracket"

    def test_non_cocycle_direction_exits_one(self, capsys, tmp_path):
        p = tmp_path / "dir.json"
        p.write_text(json.dumps([{"i": 0, "j": 1,
                                  "coeffs": ["1", "0", "0"]}]))
        code, _, err = run_cli(capsys, "kuranishi", "--algebra", "sl2",
                               "--direction", str(p))
        assert code == 1

    def test_sub_direction_with_primitive(self, capsys, tmp_path):
        p = tmp_path / "dir.json"
        p.write_text(json.dumps([["1", "0"]]))  # eta(h)=fbar, eta(e)=0
        code, out, _ = run_cli(capsys, "kuranishi", "--sub", "borel-in-sl2",
                               "--direction", str(p), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["vanishes"] is True
        assert doc["primitive"]

    def test_dim_zero_sub_identity_check(self, capsys, tmp_path):
        # Z^1 of a zero-dimensional subalgebra is zero: the check uses the
        # zero cocycle
        p = tmp_path / "sub.json"
        p.write_text(json.dumps({"ambient": "sl2", "basis_vectors": []}))
        code, out, _ = run_cli(capsys, "kuranishi", "--sub", str(p), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["check"] == "splitting-independence" and doc["ok"] is True

    @pytest.mark.parametrize("entries", [
        # a boolean index
        [{"i": False, "j": 1, "coeffs": ["1", "0", "0"]}],
        # the same (i, j) twice
        [{"i": 0, "j": 1, "coeffs": ["1", "0", "0"]},
         {"i": 0, "j": 1, "coeffs": ["0", "0", "1"]}],
    ])
    def test_bad_bracket_direction_entries_are_malformed(self, capsys,
                                                         tmp_path, entries):
        p = tmp_path / "dir.json"
        p.write_text(json.dumps(entries))
        code, out, _ = run_cli(capsys, "kuranishi", "--algebra", "abelian3",
                               "--direction", str(p), "--json")
        assert code == 2
        assert json.loads(out)["error"] == "malformed-input"


class TestLes:
    def test_center_les(self, capsys):
        code, out, _ = run_cli(capsys, "les", "--sub", "center-in-heis3",
                               "--max-degree", "2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["all_exact"] is True
        assert [n["dimH"] for n in doc["nodes"]] == [1, 3, 2, 1, 3, 2]

    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "les", "--sub", "borel-in-sl2")
        assert code == 0
        assert "exact" in out.lower()

    def test_negative_max_degree_is_malformed(self, capsys):
        code, out, _ = run_cli(capsys, "les", "--sub", "borel-in-sl2",
                               "--max-degree", "-1", "--json")
        assert code == 2
        assert json.loads(out)["error"] == "malformed-input"


class TestDeform:
    def test_bracket_recovery_runs(self, capsys):
        code, out, _ = run_cli(capsys, "deform", "--kind", "bracket-recovery",
                               "--algebra", "sl2", "--seeds", "3", "--json")
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert [rec["seed"] for rec in lines] == [0, 1, 2]
        assert all(rec["converged"] for rec in lines)

    def test_deterministic_output(self, capsys):
        args = ("deform", "--kind", "hom-continuation", "--hom", "borel-incl",
                "--seeds", "2", "--json")
        a = run_cli(capsys, *args)
        b = run_cli(capsys, *args)
        assert a == b

    def test_experiment_document(self, capsys, tmp_path):
        p = tmp_path / "exp.json"
        p.write_text(json.dumps({
            "kind": "sub-continuation", "sub": "borel-in-sl2",
            "perturbation": {"scale": 0.05, "seeds": [0, 1]},
            "newton": {"tol": 1e-10}}))
        code, out, _ = run_cli(capsys, "deform", "--experiment", str(p),
                               "--json")
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert len(lines) == 2 and all(r["converged"] for r in lines)

    def test_precondition_failure_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "deform", "--kind", "bracket-recovery",
                               "--algebra", "heis3", "--seeds", "1")
        assert code == 1

    def test_infinite_scale_is_malformed(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "deform", "--kind", "bracket-recovery",
                               "--algebra", "sl2", "--scale", "inf", "--json")
        assert code == 2
        assert json.loads(out)["error"] == "malformed-input"
        p = tmp_path / "exp.json"
        p.write_text('{"kind": "bracket-recovery", "algebra": "sl2", '
                     '"perturbation": {"scale": Infinity, "seeds": [0]}}')
        code, out, _ = run_cli(capsys, "deform", "--experiment", str(p),
                               "--json")
        assert code == 2
        assert json.loads(out)["error"] == "malformed-input"

    def test_seed_count_must_not_be_negative(self, capsys):
        code, out, _ = run_cli(capsys, "deform", "--kind", "bracket-recovery",
                               "--algebra", "sl2", "--seeds", "-3", "--json")
        assert code == 2
        assert json.loads(out)["error"] == "malformed-input"
        assert run_cli(capsys, "deform", "--kind", "bracket-recovery",
                       "--algebra", "sl2", "--seeds", "0") == (0, "", "")

    def test_experiment_file_excludes_the_other_flags(self, capsys, tmp_path):
        p = tmp_path / "exp.json"
        p.write_text(json.dumps({"kind": "bracket-recovery", "algebra": "sl2",
                                 "perturbation": {"seeds": [0]}}))
        for extra in (["--kind", "hom-recovery", "--hom", "id-sl2",
                       "--seeds", "3"], ["--seeds", "3"], ["--scale", "0.1"],
                      ["--algebra", "sl2"], ["--sub", "borel-in-sl2"]):
            code, out, _ = run_cli(capsys, "deform", "--experiment", str(p),
                                   *extra, "--json")
            assert code == 2, extra
            message = json.loads(out)["message"]
            assert message.startswith("--experiment cannot be combined"), extra
            assert all(f in message for f in extra if f.startswith("--"))
        code, out, _ = run_cli(capsys, "deform", "--experiment", str(p),
                               "--json")
        assert code == 0 and len(out.splitlines()) == 1

    def test_default_seeds_and_scale(self, capsys):
        # --seeds and --scale default to None so that --experiment can tell
        # them given; the flags path still runs seeds 0..9 at scale 0.05
        defaults = run_cli(capsys, "deform", "--kind", "sub-recovery",
                           "--sub", "borel-in-sl2", "--json")
        explicit = run_cli(capsys, "deform", "--kind", "sub-recovery",
                           "--sub", "borel-in-sl2", "--seeds", "10",
                           "--scale", "0.05", "--json")
        assert defaults == explicit
        assert [json.loads(line)["seed"] for line in
                defaults[1].splitlines()] == list(range(10))

    def test_dim_zero_objects_run(self, capsys, tmp_path):
        empty = {"dim": 0}
        for kind, flag, doc in (
                ("bracket-recovery", "--algebra", empty),
                ("hom-recovery", "--hom", {"source": empty, "target": "sl2",
                                           "matrix": [[], [], []]}),
                ("hom-continuation", "--hom", {"source": empty,
                                               "target": "sl2",
                                               "matrix": [[], [], []]})):
            p = tmp_path / f"{kind}.json"
            p.write_text(json.dumps(doc))
            code, out, _ = run_cli(capsys, "deform", "--kind", kind, flag,
                                   str(p), "--seeds", "2", "--json")
            assert code == 0, kind
            lines = [json.loads(line) for line in out.strip().splitlines()]
            assert [r["seed"] for r in lines] == [0, 1], kind
            assert all(r["converged"] for r in lines), kind

    def test_text_output_summarizes(self, capsys):
        code, out, _ = run_cli(capsys, "deform", "--kind", "bracket-recovery",
                               "--algebra", "aff1", "--seeds", "2")
        assert code == 0
        assert "seed" in out.lower()

    def test_non_finite_perturbation_is_refused(self, capsys):
        # at scale 1e300 every exp(x0) overflows; the refusal comes before it
        # acts, so no numpy warning is raised on the way
        for kind, flag, name in (("bracket-recovery", "--algebra", "aff1"),
                                 ("bracket-recovery", "--algebra", "sl2"),
                                 ("hom-recovery", "--hom", "id-sl2"),
                                 ("sub-recovery", "--sub", "borel-in-sl2"),
                                 ("hom-continuation", "--hom", "borel-incl"),
                                 ("hom-continuation", "--hom", "zero-to-sl2"),
                                 ("sub-continuation", "--sub", "borel-in-sl2"),
                                 ("sub-continuation", "--sub",
                                  "center-in-heis3")):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, out, _ = run_cli(capsys, "deform", "--kind", kind, flag,
                                       name, "--seeds", "2", "--scale",
                                       "1e300", "--json")
            assert caught == [], (kind, name)
            assert code == 1, (kind, name)
            doc = json.loads(out)
            assert doc["error"] == "validation-failure"
            assert "non-finite" in doc["message"]


class TestArgHandling:
    def test_unknown_verb_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["explode"])
        assert exc.value.code == 2

    def test_no_verb_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 2


def test_module_entry_point():
    out = subprocess.run([sys.executable, "-m", "liedeform", "cohomology",
                          "--algebra", "abelian2", "--json"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert [d["dimH"] for d in json.loads(out.stdout)["degrees"]] == [2, 4, 2]


def test_diverging_newton_leaves_stderr_empty():
    # at scale 0.5 some seeds diverge until exp(a) overflows (seed 73 among
    # them); the record says so, and no NumPy warning reaches stderr
    out = subprocess.run([sys.executable, "-m", "liedeform", "deform",
                          "--kind", "bracket-recovery", "--algebra", "sl2",
                          "--seeds", "80", "--scale", "0.5", "--json"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    records = [json.loads(line) for line in out.stdout.splitlines()]
    assert len(records) == 80 and not records[73]["converged"]
    assert out.stderr == ""


def console_script_command():
    """The `liedeform` command as the user would run it.

    An installed `liedeform` script on PATH is run as it is.  A checkout that
    was never installed has no such script, so the target declared in
    `[project.scripts]` of pyproject.toml is run in a fresh interpreter the way
    an installed script wrapper runs it.
    """
    installed = shutil.which("liedeform")
    if installed:
        return [installed]
    with open(PYPROJECT, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["liedeform"]
    module, attr = target.split(":")
    return [sys.executable, "-c",
            f"import sys; from {module} import {attr}; sys.exit({attr}())"]


def test_console_script_runs(capsys):
    # A success and a refusal, so the script must pass on run()'s exit code
    # as well as its output.
    for argv, want in ((["verify", "--algebra", "so3"], 0), (["verify"], 2)):
        code, expected, _ = run_cli(capsys, *argv)
        out = subprocess.run(console_script_command() + argv,
                             capture_output=True)
        assert out.returncode == code == want
        assert out.stdout == expected.encode()
