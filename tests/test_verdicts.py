"""Rigidity/stability verdicts and the local model dimensions."""

import pytest

from liedeform.algebras import (Homomorphism, Matrix, catalog_algebra,
                                catalog_names, hom_preset, sub_preset)
from liedeform.documents import parse_hom_doc
from liedeform.verdicts import (FAILS, HOLDS, INCONCLUSIVE, Verdict,
                                bracket_rigidity, bracket_smoothness,
                                hom_aut_rigidity,
                                hom_infinitesimal_stability_indicator,
                                hom_rigidity, hom_stability,
                                kuranishi_model_dims, sub_rigidity,
                                sub_stability)


class TestBracketVerdicts:
    def test_rigid_algebras(self):
        for name in ("sl2", "so3", "aff1", "borel"):
            v = bracket_rigidity(catalog_algebra(name))
            assert v.conclusion == HOLDS and v.holds

    def test_non_rigid_algebras(self):
        for name, h2 in (("heis3", 5), ("abelian2", 2), ("abelian3", 9)):
            v = bracket_rigidity(catalog_algebra(name))
            assert v.conclusion == FAILS
            assert v.evidence["dim_h2"] == h2

    def test_smoothness(self):
        assert bracket_smoothness(catalog_algebra("sl2")).holds
        assert bracket_smoothness(catalog_algebra("abelian2")).holds
        v = bracket_smoothness(catalog_algebra("heis3"))
        assert v.conclusion == FAILS and v.evidence["dim_h3"] == 2

    def test_smoothness_manifold_dim(self):
        v = bracket_smoothness(catalog_algebra("sl2"))
        assert v.evidence["local_manifold_dim"] == 6  # dim Z^2(sl2,sl2)

    def test_failure_never_claims_non_rigidity(self):
        v = bracket_rigidity(catalog_algebra("heis3"))
        assert v.conclusion == FAILS  # criterion failed; nothing more


class TestHomVerdicts:
    def test_preset_conclusions(self):
        expected = {
            "id-sl2": (HOLDS, HOLDS, HOLDS),
            "borel-incl": (HOLDS, HOLDS, HOLDS),
            "zero-to-sl2": (FAILS, HOLDS, FAILS),
        }
        for name, (rig, stab, aut) in expected.items():
            rho = hom_preset(name)
            assert hom_rigidity(rho).conclusion == rig
            assert hom_stability(rho).conclusion == stab
            assert hom_aut_rigidity(rho).conclusion == aut

    def test_zero_map_rigidity_evidence(self):
        v = hom_rigidity(hom_preset("zero-to-sl2"))
        assert v.evidence["dim_h1"] == 3

    def test_aut_rigidity_reports_derivation_dim(self):
        v = hom_aut_rigidity(hom_preset("id-sl2"))
        assert v.evidence["derivation_algebra_dim"] == 3

    def test_indicator_settled_by_stability(self):
        for name in ("id-sl2", "borel-incl", "zero-to-sl2"):
            v = hom_infinitesimal_stability_indicator(hom_preset(name))
            assert v.conclusion == HOLDS
            assert v.evidence["settled_by"] == "hom-stability"
            assert v.evidence["indicator_is_zero_map"] is True

    def test_indicator_inconclusive_when_nothing_settles(self):
        g = catalog_algebra("heis3")
        rho = Homomorphism(g, g, Matrix.identity(3), name="id-heis3")
        v = hom_infinitesimal_stability_indicator(rho)
        assert v.conclusion == INCONCLUSIVE
        assert v.evidence["settled_by"] is None
        assert v.evidence["indicator_is_zero_map"] is False  # identity map
        assert v.evidence["induced_rank"] == 5

    def test_indicator_settled_by_target_rigidity(self):
        # the zero map abelian2 -> sl2, given as a document: H^2(h, g) is
        # C^2 = 3-dimensional, but H^2(sl2, sl2) = 0 settles it
        rho = parse_hom_doc({"source": "abelian2", "target": "sl2",
                             "matrix": [["0", "0"]] * 3})
        v = hom_infinitesimal_stability_indicator(rho)
        assert v.conclusion == HOLDS
        assert v.evidence["settled_by"] == "bracket-rigidity-of-target"
        assert v.evidence["dim_h2_pullback"] == 3
        assert v.evidence["dim_h2_target_bracket"] == 0


class TestSubVerdicts:
    def test_borel_holds_both(self):
        w = sub_preset("borel-in-sl2")
        assert sub_rigidity(w).holds and sub_stability(w).holds

    def test_center_fails_rigidity_holds_stability(self):
        w = sub_preset("center-in-heis3")
        v = sub_rigidity(w)
        assert v.conclusion == FAILS and v.evidence["dim_h1"] == 2
        assert sub_stability(w).holds  # no 2-cochains on a 1-dim subalgebra


class TestModelDims:
    def test_bracket_models(self):
        assert_md(kuranishi_model_dims(catalog_algebra("sl2")), "bracket", 0, 0)
        assert_md(kuranishi_model_dims(catalog_algebra("heis3")), "bracket", 5, 2)
        assert_md(kuranishi_model_dims(catalog_algebra("abelian3")), "bracket", 9, 3)

    def test_hom_models(self):
        md = kuranishi_model_dims(hom_preset("id-sl2"))
        assert_md(md, "hom", 0, 0)
        assert md.aut_model_dim == 0
        md = kuranishi_model_dims(hom_preset("zero-to-sl2"))
        assert_md(md, "hom", 3, 0)
        assert md.aut_model_dim == 3

    def test_sub_models(self):
        assert_md(kuranishi_model_dims(sub_preset("borel-in-sl2")), "sub", 0, 0)
        assert_md(kuranishi_model_dims(sub_preset("center-in-heis3")), "sub", 2, 0)

    def test_slice_dims_consistent(self):
        md = kuranishi_model_dims(catalog_algebra("heis3"))
        d = md.orbit_slice_dims
        assert d["k"] == 2
        assert d["dim_h"] == d["dim_cocycles"] - d["dim_coboundaries"] == 5

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            kuranishi_model_dims(42)

    def test_json_shape(self):
        doc = kuranishi_model_dims(hom_preset("id-sl2")).to_json_dict()
        assert doc["aut_model_dim"] == 0
        doc2 = kuranishi_model_dims(catalog_algebra("sl2")).to_json_dict()
        assert "aut_model_dim" not in doc2


def assert_md(md, kind, tangent, obstruction):
    assert md.kind == kind
    assert md.tangent_dim == tangent
    assert md.obstruction_dim == obstruction


def test_rigidity_policy_linkage():
    # whenever the pullback system has H^2 = 0 the indicator must come back
    # settled, for every preset homomorphism
    for name in ("id-sl2", "borel-incl", "zero-to-sl2"):
        rho = hom_preset(name)
        if hom_stability(rho).holds:
            v = hom_infinitesimal_stability_indicator(rho)
            assert v.conclusion != INCONCLUSIVE


def test_verdict_json_round_trip():
    v = bracket_rigidity(catalog_algebra("sl2"))
    doc = v.to_json_dict()
    assert doc["criterion"] == "bracket-rigidity"
    assert doc["conclusion"] == "holds"
    assert "citation" in doc and "evidence" in doc


def test_all_catalog_verdicts_complete_quickly():
    for name in catalog_names():
        g = catalog_algebra(name)
        assert bracket_rigidity(g).conclusion in (HOLDS, FAILS)
        assert bracket_smoothness(g).conclusion in (HOLDS, FAILS)
