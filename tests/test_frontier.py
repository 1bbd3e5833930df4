"""Verdicts and the long exact sequence at the frontier, checked against
closed forms: the principal sl_2 in sl_n and in gl_n, the corner sl_2 in
sl_n, and the Borel subalgebra of sl_n.  A verdict or the sequence reads
only the degrees it names, so each answers in well under a second where a
whole report of the target's adjoint system would not fit in memory."""

import time
from math import comb

import pytest

from liedeform import cecomplex
from liedeform.algebras import (catalog_algebra, catalog_names, hom_preset,
                                hom_preset_names, sub_preset, sub_preset_names)
from liedeform.cecomplex import (CEComplex, DegreeData, Problem,
                                 induced_map_on_h, les_subalgebra)
from liedeform.cli import run
from liedeform.deformlab import run_experiment
from liedeform.exactlin import Matrix
from liedeform import verdicts as V
from elimination_oracle import bareiss_rank, differential_entries
from helpers import (bench_families, borel_in_sl, corner_sl2,
                     dense_adjoint_rows, dense_pullback_rows,
                     dense_quotient_rows, principal_sl2, principal_sl2_in_gl)

HOM_VERDICTS = (V.hom_rigidity, V.hom_aut_rigidity, V.hom_stability,
                V.hom_infinitesimal_stability_indicator)
SUB_VERDICTS = (V.sub_rigidity, V.sub_stability)


@pytest.fixture
def reads(monkeypatch):
    """Every degree made and every rank form of a d_k built, as (coefficient
    system, k), and every whole report built."""
    made, ranked, reports = [], [], []
    init, rank_form = DegreeData.__init__, CEComplex.rank_form
    report_init = cecomplex.CohomologyReport.__init__

    def made_degree(self, cx, k):
        made.append((cx.rep.variant, k))
        init(self, cx, k)

    def ranked_form(cx, k):
        if k not in cx._ranks:
            ranked.append((cx.rep.variant, k))
        return rank_form(cx, k)

    def built_report(self, *args, **kwargs):
        reports.append(self)
        report_init(self, *args, **kwargs)

    monkeypatch.setattr(DegreeData, "__init__", made_degree)
    monkeypatch.setattr(CEComplex, "rank_form", ranked_form)
    monkeypatch.setattr(cecomplex.CohomologyReport, "__init__", built_report)
    return made, ranked, reports


def assert_within(reads, highest: dict):
    """No whole report, and no degree made or d_k ranked above the highest
    degree of its system, each made and ranked once, something made."""
    made, ranked, reports = reads
    assert reports == []
    for seen in (made, ranked):
        assert seen and len(set(seen)) == len(seen)
        assert all(k <= highest[system] for system, k in seen), seen


@pytest.mark.parametrize("n", range(3, 7))
def test_principal_sl2_is_rigid_and_stable(reads, n):
    rho = principal_sl2(n)
    start = time.perf_counter()
    verdicts = [verdict(rho) for verdict in HOM_VERDICTS]
    dims = V.kuranishi_model_dims(rho)
    assert time.perf_counter() - start <= 2
    # Whitehead: H^1 and H^2 of a semisimple algebra vanish in every
    # finite-dimensional module, here sl_n under sl_2, and Der(sl_n) =
    # ad(sl_n); Kostant gives the whole pullback system (zero in every degree)
    assert all(v.holds for v in verdicts), verdicts
    assert verdicts[1].evidence["derivation_algebra_dim"] == n * n - 1
    assert (dims.tangent_dim, dims.obstruction_dim, dims.aut_model_dim) == (
        0, 0, 0)
    # t = 1 in the pullback system; the target's adjoint system is read
    # for Der(sl_n) = Z^1 and for H^2, no higher
    assert_within(reads, {"pullback": 2, "adjoint": 2})


@pytest.mark.parametrize("n", range(3, 7))
def test_borel_in_sl_is_rigid_and_stable(reads, n):
    w = borel_in_sl(n)
    start = time.perf_counter()
    verdicts = [verdict(w) for verdict in SUB_VERDICTS]
    dims = V.kuranishi_model_dims(w)
    assert time.perf_counter() - start <= 2
    # a parabolic subalgebra has H^k(b, g/b) = 0 for k = 1, 2 (Leger and
    # Luks)
    assert all(v.holds for v in verdicts), verdicts
    assert (dims.tangent_dim, dims.obstruction_dim) == (0, 0)
    assert_within(reads, {"quotient": 2})


# (closed form of the pullback system's H^0 .. H^3, builder) of the sl_2
# homomorphisms: by Whitehead and Hochschild-Serre, H^k(sl_2, M) is M^(sl_2)
# in degrees 0 and 3 and zero elsewhere; sl_n is V_3 + V_5 + .. + V_(2n-1)
# under the principal sl_2 (Kostant, 1959), gl_n adds the centre, and the
# corner sl_2 has the (n-2)^2 invariants gl_(n-2)
SL2_HOMS = {"principal in sl_n": (lambda n: 0, principal_sl2),
            "principal in gl_n": (lambda n: 1, principal_sl2_in_gl),
            "corner in sl_n": (lambda n: (n - 2) ** 2, corner_sl2)}


@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("name", SL2_HOMS)
def test_sl2_homomorphisms_meet_their_closed_forms(name, n):
    invariants, make = SL2_HOMS[name]
    start = time.perf_counter()
    p = Problem.of(make(n))
    dims = [p.degree(k).dim_h for k in range(4)]
    assert time.perf_counter() - start <= 2
    assert dims == [invariants(n), 0, 0, invariants(n)]


@pytest.mark.parametrize("n", range(3, 7))
@pytest.mark.parametrize("name", ["principal in gl_n", "corner in sl_n"])
def test_sl2_homomorphisms_are_rigid_and_stable(reads, name, n):
    # Whitehead: H^1 and H^2 of sl_2 vanish in every finite-dimensional
    # module, so the pullback system's are zero and every question holds;
    # n = 7 took 1.0-1.3 s and n = 8 over 4 s on a shared 2-core Xeon
    rho = SL2_HOMS[name][1](n)
    start = time.perf_counter()
    verdicts = [verdict(rho) for verdict in (
        V.hom_rigidity, V.hom_stability, V.hom_aut_rigidity)]
    assert time.perf_counter() - start <= 2
    assert all(v.holds for v in verdicts), verdicts
    assert_within(reads, {"pullback": 2, "adjoint": 2})


@pytest.mark.parametrize("n", range(3, 7))
def test_borel_identity_through_les(reads, n):
    # H*(b, b) = 0 (Leger and Luks, 1972), so the sequence gives
    # H(b, g) = H(b, g/b), and both are zero here: every node is zero and
    # exact.  Degrees up to max_degree + 1 = 3 are read in the systems of
    # b on b and on g, and up to 2 in the quotient system
    w = borel_in_sl(n)
    start = time.perf_counter()
    les = les_subalgebra(w, 2)
    assert time.perf_counter() - start <= 2
    assert [(node.dim, node.exact) for node in les.nodes] == [(0, True)] * 10
    assert_within(reads, {"adjoint": 3, "pullback": 3, "quotient": 2})


def oracle_dims(c, rows) -> list:
    """dim H^k, k = 0..n, of the action rows[i][b] = {a: value} of an
    n-dimensional algebra with structure constants c, from the oracle's
    differentials and Bareiss ranks alone."""
    n, m = len(rows), len(rows[0])
    action = [[[row.get(a, 0) for a in range(m)] for row in mat]
              for mat in rows]
    ranks = [bareiss_rank(differential_entries(k, n, m, c, action))
             for k in range(n)] + [0]
    return [comb(n, k) * m - ranks[k] - (ranks[k - 1] if k else 0)
            for k in range(n + 1)]


def test_borel_identity_matches_the_oracle():
    # b(sl_3) on b, on sl_3 and on sl_3 / b, every degree: the actions are
    # built by the tests' dense helpers, the dims by the oracle
    p = Problem.of(borel_in_sl(3))
    w, incl = p.obj, p.inclusion
    b = incl.obj.source.candidate
    actions = (dense_adjoint_rows(b),
               dense_pullback_rows(w.ambient.candidate, incl.obj.matrix),
               dense_quotient_rows(w))
    for system, rows in zip((incl.source, incl, p), actions):
        dims = [system.degree(k).dim_h for k in range(w.dim + 1)]
        assert dims == oracle_dims(b.c, rows) == [0] * (w.dim + 1)


def test_each_chain_map_is_built_once_and_no_square_is_rechecked(
        monkeypatch):
    # the Aut(g) question, the indicator and the Kuranishi model read H^1 and
    # H^2 of rho*: its chain maps in degrees 1 and 2, each built once, and no
    # square multiplied, since validating rho proved that rho* commutes with d
    built, products = [], []
    build, mul = cecomplex.pullback_cochain_map, Matrix.mul

    def spied_build(hom, k):
        built.append((k, build(hom, k)))
        return built[-1][1]

    def spied_mul(self, other):
        products.extend(k for k, m in built if m is self or m is other)
        return mul(self, other)

    monkeypatch.setattr(cecomplex, "pullback_cochain_map", spied_build)
    monkeypatch.setattr(Matrix, "mul", spied_mul)
    rho = principal_sl2(5)
    assert all(verdict(rho).holds for verdict in HOM_VERDICTS)
    assert V.kuranishi_model_dims(rho).aut_model_dim == 0
    assert [k for k, _ in built] == [1, 2]
    assert products == []


def _homomorphisms():
    """Every hom preset, the benchmark's homomorphisms in a signed basis, and
    the principal sl_2 in sl_n for n <= 4."""
    fam = bench_families()
    signs = fam.Signs(5)
    return ([hom_preset(n) for n in hom_preset_names()]
            + [fam.heis3_to_heis5(signs), fam.borel2_to_borel3(signs),
               fam.sl2_to_gl2(signs)]
            + [principal_sl2(n) for n in (2, 3, 4)])


@pytest.mark.parametrize("hom", _homomorphisms(), ids=lambda hom: hom.name)
def test_the_unchecked_map_on_h_is_the_checked_one(hom):
    # rho*'s one chain map per degree gives the map that induced_map_on_h
    # gives once it has checked the squares at degrees k - 1 and k
    problem = Problem(hom)
    maps = {j: cecomplex.pullback_cochain_map(hom, j) for j in range(4)}
    for k in range(3):
        assert problem.pullback_map_on_h(k) == induced_map_on_h(
            maps, problem.target, problem, k)


def test_the_report_is_added_for_json_only(reads):
    # the evidence holds no report; JSON adds the problem's whole report
    rho = principal_sl2(3)
    v = V.hom_rigidity(rho)
    assert "report" not in v.evidence and v.problem is Problem.of(rho)
    assert reads[2] == []
    report = v.to_json_dict()["evidence"]["report"]
    assert reads[2] == [Problem.of(rho).report]
    assert [d["dimH"] for d in report["degrees"]] == [0, 0, 0, 0]


# (coefficient system, highest degree read) per problem kind: t + 1 of its
# own system, and for a homomorphism, Z^1 and H^2 of the target's adjoint
# system (the Aut(g) question and the indicator)
HIGHEST = {"bracket": {"adjoint": 3}, "hom": {"pullback": 2, "adjoint": 2},
           "sub": {"quotient": 2}}
OBJECTS = ([("--algebra", n, "bracket") for n in catalog_names()]
           + [("--hom", n, "hom") for n in hom_preset_names()]
           + [("--sub", n, "sub") for n in sub_preset_names()])


@pytest.mark.parametrize("flag, name, kind", OBJECTS)
@pytest.mark.parametrize("question", ["all", "kuranishi-model-dims"])
def test_text_verdicts_read_up_to_the_next_degree(reads, capsys, flag, name,
                                                  kind, question):
    assert run(["verdict", "--question", question, flag, name]) == 0
    capsys.readouterr()
    assert_within(reads, HIGHEST[kind])


@pytest.mark.parametrize("experiment, obj", [
    ("bracket-recovery", catalog_algebra("sl2")),
    ("hom-recovery", hom_preset("id-sl2")),
    ("hom-continuation", hom_preset("borel-incl")),
    ("sub-recovery", sub_preset("borel-in-sl2")),
    ("sub-continuation", sub_preset("borel-in-sl2"))])
def test_preconditions_read_up_to_the_next_degree(reads, experiment, obj):
    run_experiment(experiment, obj, [0])
    assert_within(reads, HIGHEST[Problem.of(obj).kind])
