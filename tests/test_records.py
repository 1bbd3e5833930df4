"""The frozen records of every layer: construction by position and keyword,
defaults, ``__post_init__`` checks, equality and hashing over the compared
fields only (by identity for records holding arrays), repr, and refusal of
assignment."""

import copy
from fractions import Fraction

import numpy as np
import pytest

from liedeform.algebras import (BracketCandidate, Homomorphism, LieAlgebra,
                                Matrix, catalog_algebra, hom_preset,
                                hom_preset_names, sub_preset, sub_preset_names)
from liedeform.cochains import AltMap
from liedeform.deformlab import (ContinuationResult, CurveCheckReport,
                                 FloatBracket, RecoveryResult, sub_frames)
from liedeform.documents import NewtonConfig
from liedeform.verdicts import Verdict

SL2 = catalog_algebra("sl2")


def test_verdict_compares_without_its_evidence():
    v = Verdict("c", "holds", "ref", {"dim_h2": 0})
    w = Verdict(criterion="c", conclusion="holds", citation="ref",
                evidence={"dim_h2": 5})
    assert v == w and hash(v) == hash(w)
    assert v != Verdict("c", "fails-criterion", "ref", {"dim_h2": 0})
    assert v != ("c", "holds", "ref", {"dim_h2": 0})
    assert repr(v) == ("Verdict(criterion='c', conclusion='holds', "
                       "citation='ref', evidence={'dim_h2': 0}, problem=None)")
    with pytest.raises(TypeError, match="evidence"):
        Verdict("c", "holds", "ref")


def test_altmap_checks_its_length_and_hashes_by_value():
    m = AltMap(1, 2, 1, {0: 1, 1: 2})
    k = AltMap(degree=1, domain_dim=2, carrier_dim=1, nonzeros={1: 2, 0: 1})
    assert m == k and m is not k and hash(m) == hash(k)
    assert m == AltMap.from_flat(1, 2, 1, (Fraction(1), Fraction(2)))
    assert len({m, k, AltMap.zero(1, 2, 1)}) == 2
    assert repr(m) == ("AltMap(degree=1, domain_dim=2, carrier_dim=1, "
                       "nonzeros={0: 1, 1: 2})")
    with pytest.raises(ValueError, match="expected 2"):
        AltMap.from_flat(1, 2, 1, (Fraction(1),))


def test_lie_algebra_by_position_and_keyword():
    g = LieAlgebra(SL2.name, SL2.dim, SL2.basis, SL2.candidate)
    h = LieAlgebra(candidate=SL2.candidate, basis=SL2.basis, dim=3,
                   name="sl2")
    assert g == h == SL2 and hash(g) == hash(h) == hash(SL2)
    assert g != LieAlgebra("other", 3, SL2.basis, SL2.candidate)
    assert repr(g).startswith("LieAlgebra(name='sl2', dim=3, "
                              "basis=('h', 'e', 'f'), candidate="
                              "BracketCandidate(dim=3, terms=(((), "
                              "((1, 2),), ((2, -2),)), ")
    assert LieAlgebra.__match_args__ == ("name", "dim", "basis", "candidate")
    with pytest.raises(TypeError):
        LieAlgebra("sl2", 3, SL2.basis, SL2.candidate, None)
    with pytest.raises(TypeError):
        LieAlgebra("sl2", 3, SL2.basis, SL2.candidate, name="again")
    with pytest.raises(TypeError):
        LieAlgebra("sl2", 3, SL2.basis, SL2.candidate, colour="red")


def test_homomorphism_default_name_and_shape_check():
    rho = Homomorphism(SL2, SL2, Matrix.identity(3))
    assert rho.name == "anonymous"
    assert rho == Homomorphism(source=SL2, target=SL2,
                               matrix=Matrix.identity(3), name="anonymous")
    assert rho != Homomorphism(SL2, SL2, Matrix.identity(3), "id")
    assert repr(rho).endswith("matrix=Matrix(3x3), name='anonymous')")
    with pytest.raises(ValueError, match="wrong shape"):
        Homomorphism(SL2, SL2, Matrix.identity(2))


def test_newton_config_defaults_and_refusals():
    cfg = NewtonConfig()
    assert cfg == NewtonConfig(1e-10, 50)
    assert hash(cfg) == hash(NewtonConfig(tol=1e-10))
    assert NewtonConfig(max_iter=7).max_iter == 7
    assert repr(cfg) == "NewtonConfig(tol=1e-10, max_iter=50)"
    for bad, message in (({"tol": 0}, "positive"),
                         ({"max_iter": 0}, "one iteration"),
                         ({"max_iter": 2.5}, "one iteration")):
        with pytest.raises(ValueError, match=message):
            NewtonConfig(**bad)
    with pytest.raises(TypeError, match="takes the fields tol, max_iter"):
        NewtonConfig(1e-10, 50, 1.0)


def test_float_bracket_factory_and_post_init_assignment():
    c = np.zeros((2, 2, 2))
    c[0, 1, 1] = 2.0
    mu = FloatBracket(2, c)
    assert vars(mu).keys() == {"dim", "c"}
    # each record gets its own diagnostics dict from the factory
    r, s = (RecoveryResult("bracket", np.zeros((2, 2)), np.eye(2), 0.0, 0,
                           True, 1.0) for _ in range(2))
    assert r.diagnostics == {} and r.diagnostics is not s.diagnostics
    # __post_init__ antisymmetrizes through object.__setattr__
    assert mu.c[0, 1, 1] == 1.0 and mu.c[1, 0, 1] == -1.0
    assert FloatBracket(dim=2, c=mu.c).dim == 2
    with pytest.raises(TypeError, match="dim, c once each"):
        FloatBracket(2, mu.c, {"source": "x"})
    with pytest.raises(ValueError, match="wrong shape"):
        FloatBracket(3, c)


@pytest.mark.parametrize("make", [
    lambda: Verdict("c", "holds", "ref", {}),
    lambda: AltMap.zero(1, 2, 1),
    lambda: SL2,
    lambda: Homomorphism(SL2, SL2, Matrix.identity(3)),
    lambda: NewtonConfig(),
    lambda: FloatBracket(2, np.zeros((2, 2, 2)))])
def test_records_refuse_assignment_and_keep_a_dict(make):
    obj = make()
    name = type(obj).__match_args__[0]
    with pytest.raises(AttributeError, match="cannot assign"):
        setattr(obj, name, None)
    with pytest.raises(AttributeError, match="cannot assign"):
        obj.extra = 1
    with pytest.raises(AttributeError, match="delete"):
        delattr(obj, name)
    assert name in vars(obj)
    assert copy.copy(obj).__dict__ == obj.__dict__


def test_candidate_keeps_terms_and_builds_c_on_read():
    cand = BracketCandidate.from_tensor(SL2.candidate.c)
    assert vars(cand).keys() == {"dim", "terms"}
    assert cand == SL2.candidate and hash(cand) == hash(SL2.candidate)
    # the dense view is a fresh tensor of Fractions on each read, never kept
    assert cand.c == cand.c and cand.c is not cand.c
    assert cand.c[0][1] == (Fraction(0), Fraction(2), Fraction(0))
    assert all(type(x) is Fraction for plane in cand.c for row in plane
               for x in row)
    assert "c" not in vars(cand)


@pytest.mark.parametrize("make", [
    lambda: FloatBracket(2, np.zeros((2, 2, 2))),
    lambda: RecoveryResult("bracket", np.zeros((2, 2)), np.eye(2), 0.0, 0,
                           True, 1.0),
    lambda: ContinuationResult("hom", np.zeros((3, 2)), 0.0, 0, True, 0.0,
                               0.0),
    lambda: sub_frames(sub_preset("borel-in-sl2")),
    lambda: CurveCheckReport("bracket", (0.1,), np.zeros(9), (0.0,), None,
                             0.0, True)])
def test_records_holding_arrays_compare_by_identity(make):
    # an array comparison has no single truth value, so equal-valued
    # records are distinct, as under dataclass(eq=False)
    a, b = make(), make()
    assert a == a and a != b and not a == b
    assert hash(a) == hash(a) and len({a, b, a}) == 2


def test_presets_hash_as_they_compare():
    for build, names in ((hom_preset, hom_preset_names()),
                         (sub_preset, sub_preset_names())):
        for name in names:
            a, b = build(name), build(name)
            assert a == b and a is not b and hash(a) == hash(b)
            assert len({a, b}) == 1
    m = Matrix.from_rows([[1, Fraction(1, 2)], [0, 3]])
    assert hash(m) == hash(Matrix(2, 2, [[Fraction(1), 0.5], [0, 3]]))
    assert len({m, Matrix.zeros(2, 2), Matrix.zeros(2, 2)}) == 2
