"""JSON document parsing, serialization round trips, and object resolvers."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import bench_families
from liedeform.algebras import (ValidationError, catalog_algebra,
                                catalog_names, hom_preset, hom_preset_names,
                                sub_preset, sub_preset_names)
from liedeform.documents import (EXPERIMENT_KINDS, MalformedDocumentError,
                                 NewtonConfig, algebra_to_doc, hom_to_doc,
                                 load_json_file, parse_algebra_doc,
                                 parse_experiment_doc, parse_hom_doc,
                                 parse_sub_doc,
                                 resolve_algebra, resolve_hom, resolve_sub,
                                 sub_to_doc)


class TestAlgebraDocs:
    def test_round_trip_catalog(self):
        for name in ("sl2", "heis3", "aff1", "abelian2"):
            g = catalog_algebra(name)
            g2 = parse_algebra_doc(algebra_to_doc(g))
            assert g2.candidate.c == g.candidate.c
            assert g2.basis == g.basis

    def test_rational_coefficients(self):
        doc = {"name": "half", "dim": 2, "basis": ["x", "y"],
               "brackets": [{"i": 0, "j": 1, "coeffs": ["0", "1/2"]}]}
        g = parse_algebra_doc(doc)
        assert g.candidate.c[0][1] == (Fraction(0), Fraction(1, 2))

    def test_missing_dim_is_malformed(self):
        with pytest.raises(MalformedDocumentError):
            parse_algebra_doc({"name": "x", "basis": ["a", "b"]})

    def test_brackets_key_defaults_to_abelian(self):
        g = parse_algebra_doc({"name": "x", "dim": 2, "basis": ["a", "b"]})
        assert g.candidate.c == parse_algebra_doc({"dim": 2}).candidate.c

    def test_float_coefficient_is_malformed(self):
        doc = {"name": "bad", "dim": 2, "basis": ["x", "y"],
               "brackets": [{"i": 0, "j": 1, "coeffs": [0.5, "0"]}]}
        with pytest.raises(MalformedDocumentError):
            parse_algebra_doc(doc)

    def test_bool_coefficient_is_malformed(self):
        doc = {"name": "bad", "dim": 2, "basis": ["x", "y"],
               "brackets": [{"i": 0, "j": 1, "coeffs": [True, "0"]}]}
        with pytest.raises(MalformedDocumentError):
            parse_algebra_doc(doc)

    def test_unparsable_scalar_is_malformed(self):
        doc = {"name": "bad", "dim": 2, "basis": ["x", "y"],
               "brackets": [{"i": 0, "j": 1, "coeffs": ["a/b", "0"]}]}
        with pytest.raises(MalformedDocumentError) as exc:
            parse_algebra_doc(doc)
        assert "coeffs" in exc.value.location

    def test_basis_length_mismatch_is_malformed(self):
        doc = {"name": "bad", "dim": 3, "basis": ["x", "y"], "brackets": []}
        with pytest.raises(MalformedDocumentError):
            parse_algebra_doc(doc)

    def test_index_out_of_range_is_malformed(self):
        doc = {"name": "bad", "dim": 2, "basis": ["x", "y"],
               "brackets": [{"i": 0, "j": 5, "coeffs": ["0", "0"]}]}
        with pytest.raises(MalformedDocumentError):
            parse_algebra_doc(doc)

    def test_non_jacobi_is_validation_not_malformed(self):
        # well-formed document, bad mathematics: the validation layer speaks
        doc = {"name": "bad", "dim": 3, "basis": ["x", "y", "z"],
               "brackets": [{"i": 0, "j": 1, "coeffs": ["1", "0", "0"]},
                            {"i": 0, "j": 2, "coeffs": ["0", "0", "1"]}]}
        with pytest.raises(ValidationError):
            parse_algebra_doc(doc)

    def test_serialization_lists_lower_triangle_only(self):
        doc = algebra_to_doc(catalog_algebra("sl2"))
        assert all(e["i"] < e["j"] for e in doc["brackets"])
        assert json.dumps(doc)  # JSON serializable


class TestHomDocs:
    def test_round_trip(self):
        for name in ("id-sl2", "borel-incl", "zero-to-sl2"):
            rho = hom_preset(name)
            rho2 = parse_hom_doc(hom_to_doc(rho))
            assert rho2.matrix.data == rho.matrix.data
            assert rho2.source.candidate.c == rho.source.candidate.c

    def test_matrix_rows_are_target_coordinates(self):
        doc = hom_to_doc(hom_preset("borel-incl"))
        assert len(doc["matrix"]) == 3  # target dim rows
        assert len(doc["matrix"][0]) == 2  # source dim columns

    def test_non_homomorphism_matrix_is_validation_error(self):
        doc = hom_to_doc(hom_preset("borel-incl"))
        doc["matrix"] = [["1", "0"], ["0", "0"], ["0", "1"]]
        with pytest.raises(ValidationError):
            parse_hom_doc(doc)

    def test_wrong_shape_is_malformed(self):
        doc = hom_to_doc(hom_preset("borel-incl"))
        doc["matrix"] = [["1", "0"], ["0", "1"]]
        with pytest.raises(MalformedDocumentError):
            parse_hom_doc(doc)


class TestSubDocs:
    def test_round_trip(self):
        for name in ("borel-in-sl2", "center-in-heis3"):
            w = sub_preset(name)
            w2 = parse_sub_doc(sub_to_doc(w))
            assert w2.dim == w.dim
            assert w2.ambient.candidate.c == w.ambient.candidate.c

    def test_non_closed_span_is_validation_error(self):
        doc = sub_to_doc(sub_preset("borel-in-sl2"))
        doc["basis_vectors"] = [["0", "1", "0"], ["0", "0", "1"]]
        with pytest.raises(ValidationError):
            parse_sub_doc(doc)

    def test_vector_length_mismatch_is_malformed(self):
        doc = sub_to_doc(sub_preset("borel-in-sl2"))
        doc["basis_vectors"] = [["1", "0"]]
        with pytest.raises(MalformedDocumentError):
            parse_sub_doc(doc)


class TestResolvers:
    def test_instance_passthrough(self):
        g = catalog_algebra("sl2")
        assert resolve_algebra(g) is g
        rho = hom_preset("id-sl2")
        assert resolve_hom(rho) is rho
        w = sub_preset("borel-in-sl2")
        assert resolve_sub(w) is w

    def test_catalog_names_resolve(self):
        assert resolve_algebra("heis3").name == "heis3"
        assert resolve_hom("borel-incl").name == "borel-incl"
        assert resolve_sub("center-in-heis3").dim == 1

    def test_inline_dict_resolves(self):
        doc = algebra_to_doc(catalog_algebra("aff1"))
        assert resolve_algebra(doc).dim == 2

    def test_path_resolves(self, tmp_path):
        p = tmp_path / "alg.json"
        p.write_text(json.dumps(algebra_to_doc(catalog_algebra("so3"))))
        assert resolve_algebra(str(p)).name == "so3"

    def test_unknown_name_is_malformed(self):
        with pytest.raises(MalformedDocumentError):
            resolve_algebra("nonexistent-algebra")
        with pytest.raises(MalformedDocumentError):
            resolve_hom("nonexistent-hom")
        with pytest.raises(MalformedDocumentError):
            resolve_sub("nonexistent-sub")

    def test_missing_file_is_malformed(self):
        with pytest.raises(MalformedDocumentError):
            resolve_algebra("/no/such/file.json")

    def test_invalid_json_file_is_malformed(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(MalformedDocumentError):
            load_json_file(str(p))


class TestExperimentDocs:
    def doc(self, **over):
        base = {"kind": "bracket-recovery", "algebra": "sl2",
                "perturbation": {"scale": 0.05, "seeds": [0, 1, 2]},
                "newton": {"tol": 1e-10, "max_iter": 30}}
        base.update(over)
        return base

    def test_parse_complete(self):
        parsed = parse_experiment_doc(self.doc())
        assert parsed["kind"] == "bracket-recovery"
        assert parsed["object"].name == "sl2"
        assert list(parsed["seeds"]) == [0, 1, 2]
        assert parsed["scale"] == 0.05
        assert parsed["config"].max_iter == 30

    def test_seed_count_form_is_malformed(self):
        # seeds must be an explicit list, never a bare count
        with pytest.raises(MalformedDocumentError):
            parse_experiment_doc(self.doc(perturbation={"scale": 0.1,
                                                        "seeds": 5}))

    def test_hom_kind_uses_hom_key(self):
        doc = {"kind": "hom-continuation", "hom": "borel-incl",
               "perturbation": {"scale": 0.05, "seeds": [0]}}
        parsed = parse_experiment_doc(doc)
        assert parsed["object"].name == "borel-incl"

    def test_sub_kind_uses_sub_key(self):
        doc = {"kind": "sub-recovery", "sub": "borel-in-sl2",
               "perturbation": {"scale": 0.05, "seeds": [0]}}
        parsed = parse_experiment_doc(doc)
        assert parsed["object"].dim == 2

    def test_unknown_kind_is_malformed(self):
        with pytest.raises(MalformedDocumentError):
            parse_experiment_doc(self.doc(kind="bracket"))

    def test_wrong_object_key_is_malformed(self):
        doc = {"kind": "bracket-recovery", "hom": "id-sl2",
               "perturbation": {"scale": 0.05, "seeds": [0]}}
        with pytest.raises(MalformedDocumentError):
            parse_experiment_doc(doc)

    def test_scale_must_be_finite(self):
        # json accepts the literal Infinity; no float holds 10**400
        with pytest.raises(MalformedDocumentError):
            parse_experiment_doc(json.loads(
                '{"kind": "bracket-recovery", "algebra": "sl2", '
                '"perturbation": {"scale": Infinity, "seeds": [0]}}'))
        for scale in (float("nan"), 10 ** 400, 1e308):
            with pytest.raises(MalformedDocumentError):
                parse_experiment_doc(self.doc(perturbation={"scale": scale,
                                                            "seeds": [0]}))

    def test_negative_seed_is_malformed(self):
        with pytest.raises(MalformedDocumentError):
            parse_experiment_doc(self.doc(perturbation={"scale": 0.05,
                                                        "seeds": [0, -1]}))

    def test_a_document_sets_each_newton_field(self):
        values = {"tol": 1e-9, "max_iter": 7}
        assert tuple(values) == NewtonConfig.__match_args__
        for key, value in values.items():
            cfg = parse_experiment_doc(self.doc(newton={key: value}))["config"]
            assert cfg == NewtonConfig(**{key: value})

    def test_bad_newton_settings_are_malformed(self):
        for newton in ({"tol": -1.0}, {"seed": 0}):
            with pytest.raises(MalformedDocumentError):
                parse_experiment_doc(self.doc(newton=newton))

    def test_damping_is_not_a_newton_key(self):
        # every Newton step is the full chord step
        with pytest.raises(MalformedDocumentError,
                           match=r"newton: unknown newton keys \['damping'\]"):
            parse_experiment_doc(self.doc(newton={"damping": 1.0}))

    # Each was accepted and run as the loop could not honour it (sl2
    # bracket recovery, seeds 0-9 at scale 1.0): a max_iter of 2.5 or 1e300
    # never equals a round count and ran as the default cap (up to 33 rounds,
    # all 10 converged); true ran one round; an infinite tol marked all 10
    # seeds converged at iteration 0.  JSON text, as a document file gives it.
    @pytest.mark.parametrize("newton", [
        '{"max_iter": 2.5}', '{"max_iter": 1e300}', '{"max_iter": true}',
        '{"max_iter": 3.0}', '{"max_iter": "3"}', '{"max_iter": null}',
        '{"tol": Infinity}', '{"tol": NaN}', '{"tol": true}', '{"tol": 0}',
        '{"tol": "1e-10"}'])
    def test_newton_values_the_loop_cannot_honour_are_malformed(self, newton):
        doc = json.loads('{"kind": "bracket-recovery", "algebra": "sl2", '
                         f'"perturbation": {{"seeds": [0]}}, "newton": {newton}}}')
        with pytest.raises(MalformedDocumentError, match="^newton: bad newton"):
            parse_experiment_doc(doc)

    def test_an_int_newton_value_is_kept_as_given(self):
        cfg = parse_experiment_doc(json.loads(
            '{"kind": "bracket-recovery", "algebra": "sl2", '
            '"newton": {"tol": 1, "max_iter": 3}}'))["config"]
        assert cfg == NewtonConfig(1, 3)

    def test_defaults_have_one_owner(self):
        # a document that names no perturbation draws the defaults that
        # ``deform`` without --seeds and --scale draws, and run_experiment's
        # scale
        import inspect
        from liedeform import documents
        from liedeform.deformlab import run_experiment
        parsed = parse_experiment_doc({"kind": "bracket-recovery",
                                       "algebra": "sl2"})
        assert parsed["scale"] == documents.DEFAULT_SCALE == 0.05
        assert parsed["seeds"] == list(range(documents.DEFAULT_SEED_COUNT))
        assert documents.DEFAULT_SEED_COUNT == 10
        assert (inspect.signature(run_experiment).parameters["scale"].default
                == documents.DEFAULT_SCALE)

    def test_kind_list_is_frozen(self):
        assert EXPERIMENT_KINDS == ("bracket-recovery", "hom-recovery",
                                    "sub-recovery", "hom-continuation",
                                    "sub-continuation")

    def test_newton_solvers_follow_the_kind_list(self):
        from liedeform import deformlab
        assert tuple(deformlab.EXPERIMENTS) == EXPERIMENT_KINDS


GOLDEN_SUB_DOCS = Path(__file__).with_name("golden_sub_docs.json")


def sub_docs() -> dict:
    """Label -> ``sub_to_doc`` JSON of every subalgebra preset and of every
    subalgebra ``bench/families.py`` builds, standard and sign-flipped."""
    families = bench_families()
    out = {name: sub_preset(name) for name in sub_preset_names()}
    for seed in (None, 0, 1):
        signs = None if seed is None else families.Signs(seed)
        builds = [families.centre_of_heis(m, signs) for m in (1, 2, 3)]
        builds += [families.nilradical_of_borel3(signs),
                   families.borel3_in_sl3(signs)]
        out.update((f"{w.name} signs={seed}", w) for w in builds)
    return {label: json.dumps(sub_to_doc(w), sort_keys=True)
            for label, w in out.items()}


def test_sub_docs_are_pinned_byte_for_byte():
    # pinned when every basis vector read rebuilt the whole dense basis;
    # keeping it must not change a byte
    assert sub_docs() == json.loads(GOLDEN_SUB_DOCS.read_text())


GOLDEN_CATALOG = Path(__file__).with_name("golden_catalog.json")


def catalog_docs() -> dict:
    """Name -> the ``algebra_to_doc`` JSON and ``terms`` repr of every
    catalog algebra, and the ``hom_to_doc`` JSON of every homomorphism
    preset (the subalgebra presets are pinned in golden_sub_docs.json)."""
    out = {}
    for name in catalog_names():
        g = catalog_algebra(name)
        out[name] = {"doc": json.dumps(algebra_to_doc(g), sort_keys=True),
                     "terms": repr(g.candidate.terms)}
    for name in hom_preset_names():
        out[name] = {"doc": json.dumps(hom_to_doc(hom_preset(name)),
                                       sort_keys=True)}
    return out


def test_catalog_and_hom_presets_are_pinned_byte_for_byte():
    # pinned when each catalog algebra had its own builder function; the
    # one table of structure constants must not change a byte, nor an int
    # into a Fraction
    assert catalog_docs() == json.loads(GOLDEN_CATALOG.read_text())
