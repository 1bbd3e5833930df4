"""Command-line interface: verbs, JSON output, exit codes, determinism."""

import json
import os
import re
import shlex
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

from liedeform.algebras import (Homomorphism, SubalgebraWitness,
                                catalog_names, hom_preset_names,
                                sub_preset_names)
from liedeform.cli import run
from liedeform.deformlab import run_experiment
from liedeform.documents import (parse_algebra_doc, parse_experiment_doc,
                                 parse_hom_doc, parse_sub_doc)

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = Path(__file__).resolve().parents[1] / "README.md"
WORKFLOW = (Path(__file__).resolve().parents[1] / ".github" / "workflows"
            / "tier1.yml")


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

    # one document per refusal kind; the text and JSON lines each pins
    REFUSALS = {
        "antisymmetry": (
            "--algebra", {"name": "skew", "dim": 2, "basis": ["x", "y"],
                          "brackets": [{"i": 0, "j": 1, "coeffs": ["1", "0"]},
                                       {"i": 1, "j": 0,
                                        "coeffs": ["1", "1/2"]}]},
            "antisymmetry fails at (x,y)",
            '{"defect": ["2", "1/2"], "error": "validation-failure", '
            '"kind": "antisymmetry", "location": [0, 1]}'),
        "jacobi": (
            "--algebra", {"name": "bad", "dim": 3, "basis": ["x", "y", "z"],
                          "brackets": [{"i": 0, "j": 1,
                                        "coeffs": ["1", "0", "0"]},
                                       {"i": 0, "j": 2,
                                        "coeffs": ["0", "0", "1"]}]},
            "Jacobi identity fails on (x,y,z)",
            '{"defect": ["0", "0", "1"], "error": "validation-failure", '
            '"kind": "jacobi", "location": [0, 1, 2]}'),
        "curvature": (
            "--hom", {"name": "swap", "source": "borel", "target": "sl2",
                      "matrix": [["1", "0"], ["0", "0"], ["0", "1"]]},
            "curvature nonzero on basis pair (0,1)",
            '{"defect": ["0", "0", "-4"], "error": "validation-failure", '
            '"kind": "curvature", "location": [0, 1]}'),
        "closure": (
            "--sub", {"name": "ef", "ambient": "sl2",
                      "basis_vectors": [["0", "1", "0"], ["0", "0", "1"]]},
            "bracket of subspace basis pair (0,1) leaves the subspace",
            '{"defect": ["1"], "error": "validation-failure", '
            '"kind": "closure", "location": [0, 1]}'),
    }

    @pytest.mark.parametrize("kind", sorted(REFUSALS))
    def test_refusal_output_is_pinned(self, capsys, tmp_path, kind):
        flag, doc, text, as_json = self.REFUSALS[kind]
        p = tmp_path / "doc.json"
        p.write_text(json.dumps(doc))
        assert run_cli(capsys, "verify", flag, str(p)) == (
            1, f"validation failure: {text}\n", "")
        assert run_cli(capsys, "verify", flag, str(p), "--json") == (
            1, as_json + "\n", "")

    def test_malformed_doc_exits_two(self, capsys, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{oops")
        code, _, err = run_cli(capsys, "verify", "--algebra", str(p))
        assert code == 2

    @pytest.mark.parametrize("make", [
        lambda p: p.mkdir(),
        lambda p: p.write_bytes(b"\xff\xfe[1]"),
        lambda p: p.write_text("1" * 5000),
        lambda p: p.write_text("[" * 100_000),
    ], ids=["directory", "utf16-bom", "5000-digit-integer", "deep-nesting"])
    def test_unreadable_doc_is_malformed(self, capsys, tmp_path, make):
        p = tmp_path / "doc.json"
        make(p)
        code, out, err = run_cli(capsys, "verify", "--algebra", str(p),
                                 "--json")
        assert code == 2
        assert json.loads(out)["error"] == "malformed-input"
        assert err == ""

    @pytest.mark.parametrize("coeff, verb, code", [
        ("1e3000000", "cohomology", 2), ("1e999999999", "cohomology", 2),
        ("1e999999999", "verify", 2), (None, "cohomology", 1),
        (None, "verify", 1)],
        ids=["exponent-past-limit", "exponent-far-past-limit",
             "verify-exponent", "defect-past-limit", "verify-defect"])
    def test_scalars_past_the_digit_limit(self, tmp_path, coeff, verb, code):
        # a scalar whose integers would pass Python's integer-string limit
        # is refused before it is built; 3000-digit scalars are accepted,
        # but their Jacobi defect is too long to write in decimal
        big = "7" * 3000
        rows = ([[coeff, "0", "0"], ["0", "1", "0"], ["0", "0", "1"]] if coeff
                else [["1", big, big], [big, "1", big], [big, big, "0"]])
        doc = {"dim": 3, "brackets": [
            {"i": i, "j": j, "coeffs": c}
            for (i, j), c in zip([(0, 1), (0, 2), (1, 2)], rows)]}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        out = subprocess.run([sys.executable, "-m", "liedeform", verb,
                              "--algebra", str(path), "--json"],
                             capture_output=True, text=True, timeout=20)
        assert (out.returncode, out.stderr) == (code, "")
        payload = json.loads(out.stdout)
        if code == 2:
            assert payload["error"] == "malformed-input"
            limit = sys.get_int_max_str_digits()
            assert f"limit ({limit} digits)" in payload["message"]
        else:
            assert payload["kind"] == "jacobi"
            assert payload["defect"][0] == "<19932-bit/1-bit rational>"

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

    def test_model_dims_question_text_names_the_aut_model(self, capsys):
        code, out, _ = run_cli(capsys, "verdict", "--hom", "borel-incl",
                               "--question", "kuranishi-model-dims")
        assert code == 0
        assert out == ("kuranishi model (hom): tangent dim 0, obstruction "
                       "dim 0\naut-model domain dim: 0\n")

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

    def test_window_below_dim_h_prints_the_closing_node(self, capsys):
        code, out, _ = run_cli(capsys, "les", "--sub", "borel-in-sl2",
                               "--max-degree", "0")
        assert code == 0
        assert out == (
            "long exact sequence through degree 0 for 'borel-in-sl2':\n"
            "  H^0(h,h): dimH=0 rank_in=0 rank_out=0 exact\n"
            "  H^0(h,g): dimH=0 rank_in=0 rank_out=0 exact\n"
            "  H^0(h,g/h): dimH=0 rank_in=0 rank_out=0 exact\n"
            "  H^1(h,h): dimH=0 rank_in=0 rank_out=0 exact\n"
            "all interior nodes exact\n")

    def test_a_non_exact_node_is_reported_and_exits_zero(self, capsys,
                                                         monkeypatch):
        # exactness is a computed answer, not a refusal: one node forced
        # non-exact is printed as such, and the run still exits 0
        from liedeform import cecomplex
        exact_at = cecomplex._exact_at

        def first_not_exact(label, *args):
            node = exact_at(label, *args)
            if label != "H^0(h,g)":
                return node
            return cecomplex.LESNode(node.label, node.degree, node.dim,
                                     node.rank_in, node.rank_out, False,
                                     node.membership_ok)

        monkeypatch.setattr(cecomplex, "_exact_at", first_not_exact)
        code, out, _ = run_cli(capsys, "les", "--sub", "borel-in-sl2",
                               "--max-degree", "0")
        assert code == 0
        assert out == (
            "long exact sequence through degree 0 for 'borel-in-sl2':\n"
            "  H^0(h,h): dimH=0 rank_in=0 rank_out=0 exact\n"
            "  H^0(h,g): dimH=0 rank_in=0 rank_out=0 NOT EXACT\n"
            "  H^0(h,g/h): dimH=0 rank_in=0 rank_out=0 exact\n"
            "  H^1(h,h): dimH=0 rank_in=0 rank_out=0 exact\n"
            "EXACTNESS FAILURE\n")
        code, out, _ = run_cli(capsys, "les", "--sub", "borel-in-sl2",
                               "--max-degree", "0", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["all_exact"] is False
        assert [n["exact"] for n in doc["nodes"]] == [True, False, True, True]

    def test_help_offers_only_the_sub_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["les", "--help"])
        out = capsys.readouterr().out
        assert exc.value.code == 0 and "--sub NAME_OR_PATH" in out
        assert "--algebra" not in out and "--hom" not in out

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

    def test_fixed_newton_constants_are_not_document_keys(self, capsys,
                                                          tmp_path):
        # the chord-refresh ratio and the input-defect tolerance are fixed
        p = tmp_path / "exp.json"
        for key in ("stall_ratio", "input_defect_tol"):
            p.write_text(json.dumps({
                "kind": "bracket-recovery", "algebra": "sl2",
                "perturbation": {"seeds": [0]}, "newton": {key: 0.5}}))
            code, out, _ = run_cli(capsys, "deform", "--experiment", str(p),
                                   "--json")
            assert code == 2
            assert json.loads(out) == {
                "error": "malformed-input",
                "message": f"newton: unknown keys [{key!r}]"}

    @pytest.mark.parametrize("newton", ['{"damping": 1.0}',
                                        '{"max_iter": 2.5}',
                                        '{"max_iter": true}',
                                        '{"tol": Infinity}'])
    def test_newton_settings_the_loop_cannot_honour_exit_two(self, capsys,
                                                             tmp_path, newton):
        # damping is gone (every step is the full chord step); a float or
        # bool cap and an infinite tolerance ran, but not as written
        p = tmp_path / "exp.json"
        p.write_text('{"kind": "bracket-recovery", "algebra": "sl2", '
                     f'"perturbation": {{"seeds": [0]}}, "newton": {newton}}}')
        code, out, _ = run_cli(capsys, "deform", "--experiment", str(p),
                               "--json")
        assert code == 2
        assert json.loads(out)["error"] == "malformed-input"

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

    def test_default_seeds_and_scale(self, capsys, tmp_path):
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
        # the flags leave absent settings to the experiment's defaults, as a
        # document without a perturbation block does
        p = tmp_path / "exp.json"
        p.write_text(json.dumps({"kind": "sub-recovery", "sub": "borel-in-sl2"}))
        assert run_cli(capsys, "deform", "--experiment", str(p),
                       "--json") == defaults

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

    def test_singular_perturbation_is_refused(self, capsys):
        # at scale 40, seed 0's exp(x0) is singular to round-off; the bracket
        # action would refuse it, so the perturbation is refused before it
        # acts: exit 1, the usual validation failure, nothing on stderr
        argv = ("deform", "--kind", "bracket-recovery", "--algebra", "sl2",
                "--seeds", "1", "--scale", "40")
        message = "perturbation exp(x0) is singular"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, *argv, "--json")
            assert (code, err) == (1, "")
            assert json.loads(out) == {"error": "validation-failure",
                                       "message": message}
            assert run_cli(capsys, *argv) == (
                1, f"validation failure: {message}\n", "")
        assert caught == []

    def test_records_are_strict_json(self, capsys, tmp_path):
        # at scale 1.0 seed 168 diverges and its last iterate's determinant
        # overflows: it is infinite, which JSON cannot write, so the record
        # says null
        def refuse(token):
            raise ValueError(f"non-JSON constant {token}")

        seeds = [*range(9), 168]
        p = tmp_path / "exp.json"
        p.write_text(json.dumps({
            "kind": "bracket-recovery", "algebra": "sl2",
            "perturbation": {"scale": 1.0, "seeds": seeds}}))
        code, out, _ = run_cli(capsys, "deform", "--experiment", str(p))
        assert code == 0
        records = [json.loads(line, parse_constant=refuse)
                   for line in out.strip().splitlines()]
        assert [r["seed"] for r in records] == seeds
        assert records[9]["determinant"] is None
        assert not records[9]["converged"]
        assert all(isinstance(r["determinant"], float) for r in records[:9])


class TestArgHandling:
    def test_unknown_verb_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["explode"])
        assert exc.value.code == 2

    def test_no_verb_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 2


_SL2_HOM = {"source": "aff1", "target": "sl2",
            "matrix": [[1, 0], [0, 0], [0, 0]]}
_EXPERIMENT = {"kind": "bracket-recovery", "algebra": "sl2"}


# Each misspelt key was dropped and the rest of the document read as if it
# were absent: the abelian algebra's cohomology, the default seeds, scale
# and Newton settings, the default name.  verb, object flag, document, the
# key's location and the key.
@pytest.mark.parametrize("verb, flag, doc, where, key", [
    ("cohomology", "--algebra", {"dim": 2, "brakets": [
        {"i": 0, "j": 1, "coeffs": [0, 1]}]}, "", "brakets"),
    ("verify", "--algebra", {"dim": 2, "brackets": [
        {"i": 0, "j": 1, "coefs": [0, 1]}]}, "brackets[0]: ", "coefs"),
    ("verify", "--hom", {**_SL2_HOM, "nmae": "mine"}, "", "nmae"),
    ("verify", "--hom", {**_SL2_HOM, "source": {"dim": 2, "nmae": "x"}}, "",
     "nmae"),
    ("verify", "--sub", {"ambient": "sl2", "basis_vector": [[1, 0, 0]]}, "",
     "basis_vector"),
    ("deform", "--experiment", {**_EXPERIMENT, "perturbaton": {
        "seeds": [0], "scale": 0.3}}, "", "perturbaton"),
    ("deform", "--experiment", {**_EXPERIMENT, "perturbation": {
        "seed": [0], "scales": 0.3}}, "perturbation: ", "scales', 'seed"),
    ("deform", "--experiment", {**_EXPERIMENT, "neton": {"max_iter": 1}}, "",
     "neton"),
    ("deform", "--experiment", {**_EXPERIMENT, "newton": {"maxiter": 1}},
     "newton: ", "maxiter"),
    # an object key of another kind
    ("deform", "--experiment", {**_EXPERIMENT, "hom": "id-sl2"}, "", "hom"),
    ("kuranishi", "--direction", {"bracket": [
        {"i": 0, "j": 1, "coeffs": [0, 0, 0]}]}, "direction: ", "bracket"),
])
def test_a_misspelt_key_is_refused(capsys, tmp_path, verb, flag, doc, where,
                                   key):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    argv = [verb, flag, str(p), "--json"]
    if verb == "kuranishi":
        argv += ["--algebra", "abelian3"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 2
    assert json.loads(out) == {"error": "malformed-input",
                               "message": f"{where}unknown keys ['{key}']"}


def test_deform_flags_name_one_object(capsys):
    # --hom was dropped: bracket recovery of sl2 ran
    code, out, _ = run_cli(capsys, "deform", "--kind", "bracket-recovery",
                           "--algebra", "sl2", "--hom", "id-sl2", "--json")
    assert code == 2
    assert json.loads(out) == {"error": "malformed-input",
                               "message": "unknown keys ['hom']"}


# An empty object flag was read as no flag, and an empty name as the working
# directory: "exactly one of --algebra, --hom, --sub is required", "unreadable
# document ." or "bracket-recovery experiments need 'algebra'".  The empty
# name is refused as an unknown name, and a missing flag names the verb's.
_UNKNOWN = {
    "algebra": f"unknown algebra ''; catalog: {', '.join(catalog_names())}",
    "hom": "unknown homomorphism ''; presets: "
           f"{', '.join(hom_preset_names())}",
    "sub": f"unknown subalgebra ''; presets: {', '.join(sub_preset_names())}"}


@pytest.mark.parametrize("argv, message", [
    (["verify", "--algebra", ""], _UNKNOWN["algebra"]),
    (["cohomology", "--hom", ""], _UNKNOWN["hom"]),
    (["verdict", "--sub", ""], _UNKNOWN["sub"]),
    (["les", "--sub", ""], _UNKNOWN["sub"]),
    (["deform", "--experiment", {"kind": "sub-recovery", "sub": ""}],
     _UNKNOWN["sub"]),
    (["deform", "--kind", "bracket-recovery", "--algebra", ""],
     _UNKNOWN["algebra"]),
    (["les"], "--sub is required"),
], ids=["verify", "cohomology", "verdict", "les", "experiment", "deform",
        "les-without-sub"])
def test_an_empty_object_name_is_refused_as_unknown(capsys, tmp_path, argv,
                                                    message):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(argv[-1]))
    argv = [str(p) if isinstance(a, dict) else a for a in argv]
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 2
    assert json.loads(out) == {"error": "malformed-input", "message": message}


def test_module_entry_point():
    out = subprocess.run([sys.executable, "-m", "liedeform", "cohomology",
                          "--algebra", "abelian2", "--json"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert [d["dimH"] for d in json.loads(out.stdout)["degrees"]] == [2, 4, 2]


def test_diverging_newton_leaves_stderr_empty():
    # at scale 1.0 some seeds diverge until exp(a) overflows (seed 30 among
    # them); the record says so, and no NumPy warning reaches stderr
    out = subprocess.run([sys.executable, "-m", "liedeform", "deform",
                          "--kind", "bracket-recovery", "--algebra", "sl2",
                          "--seeds", "40", "--scale", "1.0", "--json"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    records = [json.loads(line) for line in out.stdout.splitlines()]
    assert len(records) == 40 and not records[30]["converged"]
    assert out.stderr == ""


def test_wide_band_recovery_is_deterministic_across_processes():
    # at scale 1.0 stalls refresh the Jacobian, seeds 11, 13 and 16 step to
    # a singular exp(a) and 19 runs out of iterations; two fresh processes
    # must still print the same bytes
    argv = [sys.executable, "-m", "liedeform", "deform", "--kind",
            "bracket-recovery", "--algebra", "sl2", "--seeds", "20",
            "--scale", "1.0"]
    first, second = (subprocess.run(argv, capture_output=True)
                     for _ in range(2))
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.count(b'"converged": false') == 4


@pytest.mark.parametrize("argv", [
    ["verdict", "--hom", "borel-incl", "--json"],
    ["les", "--sub", "borel-in-sl2", "--json"],
    ["kuranishi", "--sub", "center-in-heis3", "--json"],
])
def test_output_does_not_depend_on_the_hash_seed(argv):
    # str keys of sets and dicts are hashed with a per-process seed, so an
    # output that followed their order would differ between these processes
    first, second = (subprocess.run(
        [sys.executable, "-m", "liedeform", *argv], capture_output=True,
        env=dict(os.environ, PYTHONHASHSEED=seed)) for seed in ("0", "1"))
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)


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


def test_ci_tests_the_oldest_supported_python():
    # the exact layer counts insertion signs with int.bit_count, new in
    # Python 3.10, and parses scalars under sys.get_int_max_str_digits, new
    # in 3.10.7: CI's oldest interpreter is requires-python's floor, named
    # by major.minor, which setup-python resolves to its newest patch
    with open(PYPROJECT, "rb") as fh:
        floor = tomllib.load(fh)["project"]["requires-python"]
    floor = tuple(map(int, re.fullmatch(r">=\s*(\d+)\.(\d+)(?:\.(\d+))?",
                                        floor).groups("0")))
    versions = re.search(r"^\s*python-version:\s*\[([^\]]*)\]",
                         WORKFLOW.read_text(), re.M).group(1)
    oldest = min(tuple(map(int, v.split(".")))
                 for v in re.findall(r"[\"']([\d.]+)[\"']", versions))
    assert oldest == floor[:2] and floor >= (3, 10, 7)


def readme_console_examples() -> list:
    """(arguments, expected stdout) of each `$ liedeform` example in the
    README's console blocks, in order."""
    examples = []
    for block in re.findall(r"^```console\n(.*?)^```", README.read_text(),
                            re.M | re.S):
        for example in re.split(r"^\$ liedeform ", block, flags=re.M)[1:]:
            command, _, out = example.partition("\n")
            examples.append((command, out.rstrip("\n") + "\n"))
    return examples


def output_pattern(expected: str):
    """``expected`` as a regular expression: a line that is only ``...``
    stands for any lines, and ``...`` inside a line for any text on it."""
    return re.compile("".join(
        r"(?:.*\n)*" if line.strip() == "..." else
        ".*".join(map(re.escape, line.split("..."))) + r"\n"
        for line in expected.splitlines()))


README_EXAMPLES = readme_console_examples()


def readme_documents() -> list:
    """The documents of the README's ``jsonc`` block, in order: its ``//``
    comments stripped, one document per blank-line-separated group."""
    block = re.search(r"^```jsonc\n(.*?)^```", README.read_text(),
                      re.M | re.S).group(1)
    text = re.sub(r"//.*", "", block).strip()
    return [json.loads(doc) for doc in re.split(r"\n\s*\n", text)]


def test_readme_documents_parse_and_the_experiment_runs():
    algebra, hom, sub, experiment = readme_documents()
    assert parse_algebra_doc(algebra).name == "heis3"
    assert isinstance(parse_hom_doc(hom), Homomorphism)
    assert isinstance(parse_sub_doc(sub), SubalgebraWitness)
    exp = parse_experiment_doc(experiment)
    assert exp["kind"] == "sub-recovery"
    records = run_experiment(exp["kind"], exp["object"], exp["seeds"],
                             exp["scale"], exp["config"])
    assert len(records) == 3


@pytest.mark.parametrize("command, expected", README_EXAMPLES,
                         ids=[command for command, _ in README_EXAMPLES])
def test_readme_console_example(command, expected, capsys, tmp_path,
                                monkeypatch):
    # the direction document the README describes for borel-in-sl2
    (tmp_path / "dir.json").write_text('[["1", "0"]]')
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, *shlex.split(command))
    assert code == 0
    assert output_pattern(expected).fullmatch(out), out
