"""One problem object per kind: each degree of its cohomology is made once
and shared by every verdict, CLI verb and Newton seed that asks for it, and
a verdict makes only the degrees it names."""

import copy
from collections import Counter
import gc
import json
import sys
import weakref

import pytest

from liedeform import algebras, cecomplex, exactlin
from liedeform.algebras import (catalog_algebra, catalog_names, hom_preset,
                                hom_preset_names, sub_preset, sub_preset_names)
from liedeform.cecomplex import Problem
from liedeform.cli import run
from liedeform.cochains import AltMap
import liedeform.deformlab as lab
from liedeform.deformlab import (perturbed_bracket, recover_bracket_orbit,
                                 run_experiment)
from liedeform.exactlin import Matrix
from liedeform import kuranishi as K
from liedeform import verdicts as V
from helpers import flat

VERDICTS = {
    "bracket": (V.bracket_rigidity, V.bracket_smoothness),
    "hom": (V.hom_rigidity, V.hom_aut_rigidity, V.hom_stability,
            V.hom_infinitesimal_stability_indicator),
    "sub": (V.sub_rigidity, V.sub_stability),
}


def all_objects():
    return ([catalog_algebra(n) for n in catalog_names()]
            + [hom_preset(n) for n in hom_preset_names()]
            + [sub_preset(n) for n in sub_preset_names()])


@pytest.fixture
def cohomology_calls(monkeypatch):
    """Counts calls of cecomplex.cohomology under every name it is bound to
    in the package."""
    calls = []
    orig = cecomplex.cohomology

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "liedeform" or name.startswith("liedeform."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


@pytest.mark.parametrize("argv, expected", [
    # the pullback report; the target's adjoint system is read by degree only
    (["verdict", "--hom", "borel-incl"], 1),
    (["verdict", "--algebra", "sl2"], 1),
    (["verdict", "--sub", "borel-in-sl2"], 1),
])
def test_verdict_command_computes_each_report_once(cohomology_calls, capsys,
                                                   argv, expected):
    # a text verdict reads degrees only; --json adds each report it cites
    assert run(argv) == 0
    assert cohomology_calls == []
    assert run([*argv, "--json"]) == 0
    capsys.readouterr()
    assert len(cohomology_calls) == expected


def test_experiment_computes_the_report_once(cohomology_calls, degree_views):
    # the precondition reads H^2 once for all seeds, and no whole report
    records = run_experiment("bracket-recovery", catalog_algebra("sl2"),
                             range(5))
    assert [r["seed"] for r in records] == [0, 1, 2, 3, 4]
    assert cohomology_calls == []
    assert [v.k for v in degree_views] == [2]


def test_empty_seed_list_computes_nothing(cohomology_calls):
    # heis3 is not rigid, so any seed would raise PreconditionError
    assert run_experiment("bracket-recovery", catalog_algebra("heis3"),
                          []) == []
    assert cohomology_calls == []


def test_verdicts_agree_on_raw_object_and_problem():
    for obj in all_objects():
        problem = Problem(obj)
        for verdict in VERDICTS[problem.kind]:
            assert (verdict(obj).to_json_dict()
                    == verdict(problem).to_json_dict()), (obj, verdict)
        assert (V.kuranishi_model_dims(obj).to_json_dict()
                == V.kuranishi_model_dims(problem).to_json_dict())


def test_kind_and_tangent_degree():
    cases = [(catalog_algebra("sl2"), "bracket", 2),
             (hom_preset("borel-incl"), "hom", 1),
             (sub_preset("borel-in-sl2"), "sub", 1)]
    for obj, kind, degree in cases:
        p = Problem(obj)
        assert (p.kind, p.tangent_degree) == (kind, degree)
        assert Problem.of(p) is p
        assert Problem.of(p, kind) is p


def test_h_dim_is_zero_above_the_acting_dimension():
    p = Problem(catalog_algebra("heis3"))
    assert [p.degree(k).dim_h for k in range(5)] == p.report.dims_h() + [0]
    assert p.degree(4).dim_cocycles == 0
    d = p.report.degree(4)
    assert d is p.degree(4)
    assert (d.dim_cochains, d.dim_cocycles, d.dim_coboundaries,
            d.dim_h) == (0, 0, 0, 0)
    assert d.cocycles.basis == ()
    assert d.h_representatives == ()
    with pytest.raises(KeyError):
        p.report.degree(-1)


@pytest.fixture
def degree_views(monkeypatch):
    """Every degree view made of a complex, in order."""
    views = []
    orig = cecomplex.DegreeData.__init__

    def recorded(self, cx, k):
        orig(self, cx, k)
        views.append(self)

    monkeypatch.setattr(cecomplex.DegreeData, "__init__", recorded)
    return views


LAZY = {"free", "cocycle_vectors", "cocycles", "classes", "h_representatives"}


def built(view) -> set:
    """The bases and forms a degree view has built so far."""
    return LAZY & set(vars(view))


@pytest.fixture
def eliminations(monkeypatch):
    """Every ``RankForm`` built, counted per (coefficient system, label, k)
    of the complex whose d_k it eliminates (None outside a complex) and per
    role, the reader that asked for it: ``rank_form``, ``basis_form``,
    ``class_form`` (the columns of d_k, to class in degree k + 1) or
    ``solve`` (an obstruction class's primitive, solved against d_k)."""
    counts, asked = Counter(), []

    class Counted(exactlin.RankForm):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            counts[asked[-1] if asked else (None, None)] += 1

    for mod in (exactlin, cecomplex):
        monkeypatch.setattr(mod, "RankForm", Counted)

    def traced(role, key, method):
        def asked_for(*args, **kwargs):
            asked.append((key(*args), role))
            try:
                return method(*args, **kwargs)
            finally:
                asked.pop()
        return asked_for

    def of_complex(shift):
        return lambda cx, k: (cx.rep.variant, cx.rep.label, k + shift)

    for role, shift in (("rank_form", 0), ("basis_form", 0), ("class_form", -1)):
        monkeypatch.setattr(cecomplex.CEComplex, role, traced(
            role, of_complex(shift), getattr(cecomplex.CEComplex, role)))
    monkeypatch.setattr(K, "_obstruction", traced(
        "solve", lambda p, *_: (p.complex.rep.variant, p.complex.rep.label,
                                p.tangent_degree), K._obstruction))
    return counts


def per_degree(counts, role) -> dict:
    """{(system, label, k): forms built in ``role``} for the complexes."""
    return {key: c for (key, r), c in counts.items()
            if key is not None and r == role}


def assert_dims_only(counts, degree_views):
    """One rank form of d_k and one of d_(k-1) for every degree k made, each
    built once, and no other form."""
    made = {(v.complex.rep.variant, v.complex.rep.label, j)
            for v in degree_views for j in range(max(v.k - 1, 0), v.k + 1)}
    assert per_degree(counts, "rank_form") == dict.fromkeys(made, 1)
    assert {r for key, r in counts if key is not None} <= {"rank_form"}


@pytest.mark.parametrize("argv", [
    ["verdict", "--question", "all", "--algebra", "sl2"],
    ["verdict", "--question", "all", "--sub", "borel-in-sl2"],
    ["cohomology", "--algebra", "heis3"],
    ["cohomology", "--hom", "borel-incl"],
    ["cohomology", "--sub", "center-in-heis3"],
    ["verdict", "--question", "kuranishi-model-dims", "--algebra", "heis3"],
    ["verdict", "--question", "kuranishi-model-dims", "--sub",
     "borel-in-sl2"],
])
def test_dimension_readers_build_no_basis(degree_views, eliminations, capsys,
                                          argv):
    assert run(argv) == 0
    capsys.readouterr()
    assert degree_views
    assert [v.k for v in degree_views if built(v)] == []
    assert_dims_only(eliminations, degree_views)


def test_precondition_builds_no_basis(degree_views, eliminations):
    run_experiment("bracket-recovery", catalog_algebra("sl2"), [0])
    assert degree_views
    assert [v.k for v in degree_views if built(v)] == []
    assert_dims_only(eliminations, degree_views)


@pytest.mark.parametrize("experiment, obj", [
    ("hom-continuation", hom_preset("borel-incl")),
    ("sub-recovery", sub_preset("borel-in-sl2"))])
def test_hom_and_sub_preconditions_build_no_form(degree_views, eliminations,
                                                 experiment, obj):
    run_experiment(experiment, obj, [0])
    assert_dims_only(eliminations, degree_views)


def test_representatives_add_one_rank_form_per_degree(eliminations):
    # the representatives are back-substituted in a second rank form of
    # d_k, built only where H^k != 0; no class or solve form is built
    want = Counter()
    for obj in all_objects():
        report = Problem(obj).report
        for d in report.degrees:
            assert len(d.h_representatives) == d.dim_h
            key = (report.complex.rep.variant, report.complex.rep.label, d.k)
            want[key, "rank_form"] = 1
            if d.dim_h:
                want[key, "basis_form"] = 1
    assert {k: c for k, c in eliminations.items() if k[0] is not None} == want


def test_induced_map_builds_bases_only_in_degree_one(degree_views, capsys):
    assert run(["verdict", "--question", "hom-aut-rigidity", "--hom",
                "borel-incl"]) == 0
    capsys.readouterr()
    # H^1(sl2, sl2) = 0: the target's representatives are read, and there
    # is no image to class in the pullback system
    got = {(v.complex.rep.variant, v.k): built(v) for v in degree_views
           if built(v)}
    assert got == {("adjoint", 1): {"free", "classes", "h_representatives"}}


SUB, INCL, QUOT = ("adjoint", "ad(center-in-heis3-sub)"), (
    "pullback", "center-in-heis3-incl:center-in-heis3-sub->heis3"), (
    "quotient", "center-in-heis3:heis3/sub")


@pytest.mark.parametrize("argv, bases, classed, solved", [
    # H^k(h,h) and H^k(h,g) for k <= 1 and H^0(h,g/h) have representatives,
    # each back-substituted in a second rank form; the class form of the
    # columns of d_0 classes the images in degree 1
    (["les", "--sub", "center-in-heis3"],
     {(*s, k) for s in (SUB, INCL) for k in range(2)} | {(*QUOT, 0)},
     {(*s, 0) for s in (SUB, INCL, QUOT)}, set()),
    # every H^k is zero: no representative and nothing to class
    (["les", "--sub", "borel-in-sl2"], set(), set(), set()),
    # the primitive of the obstruction class is solved against d_1
    (["kuranishi", "--sub", "borel-in-sl2", "--direction", "DIRECTION"],
     set(), set(), {("quotient", "borel-in-sl2:sl2/sub", 1)}),
    # H^1(sl2, sl2) = 0: no representative to map
    (["verdict", "--question", "hom-aut-rigidity", "--hom", "borel-incl"],
     set(), set(), set()),
])
def test_basis_readers_build_each_needed_form_once(eliminations, capsys,
                                                   tmp_path, argv, bases,
                                                   classed, solved):
    doc = tmp_path / "direction.json"
    doc.write_text(json.dumps([["1", "0"]]))  # eta(h) = fbar, eta(e) = 0
    assert run([str(doc) if a == "DIRECTION" else a for a in argv]) == 0
    capsys.readouterr()
    assert set(per_degree(eliminations, "rank_form").values()) <= {1}
    assert per_degree(eliminations, "basis_form") == dict.fromkeys(bases, 1)
    assert per_degree(eliminations, "class_form") == dict.fromkeys(classed, 1)
    assert per_degree(eliminations, "solve") == dict.fromkeys(solved, 1)


def test_wrong_kind_is_refused():
    with pytest.raises(TypeError):
        V.bracket_rigidity(hom_preset("id-sl2"))
    with pytest.raises(TypeError):
        Problem(42)


@pytest.fixture
def differential_builds(monkeypatch):
    """Counts builds of an exact differential matrix: whole ones, and those
    of the rows a form reads, kept apart as {"whole": n, "rows": n}."""
    builds = Counter()
    orig = cecomplex.differential_matrix

    def counted(k, rep, rows=None):
        builds["whole" if rows is None else "rows"] += 1
        return orig(k, rep, rows)

    monkeypatch.setattr(cecomplex, "differential_matrix", counted)
    return builds


@pytest.mark.parametrize("argv, builds, reports", [
    # d_0, d_1 and d_2 of the quotient system and d_1 of the inclusion's:
    # the snake lift is closed in the subalgebra's system by d o d = 0 in
    # the inclusion's, so no d_2 of the subalgebra's is built to check it;
    # the cocycle checked is read from degree 1, with no whole report
    (["kuranishi", "--sub", "borel-in-sl2"], Counter(whole=4), 0),
    # d_0 and d_1 of the quotient system and d_1 of the inclusion's: the
    # splitting check does not re-prove that its representatives are closed,
    # which read d_2 of the quotient system
    (["kuranishi", "--sub", "center-in-heis3"], Counter(whole=3), 0),
    # d_0..d_2 of each of the three systems: every degree of h = b(sl_2) is
    # read, each from its problem, so no whole report is built
    (["les", "--sub", "borel-in-sl2"], Counter(whole=9), 0),
    # d_0..d_2 whole, checked and kept, and the zero weight rows of d_3, of
    # which there are none, for its rank form
    (["cohomology", "--algebra", "sl2"], Counter(whole=3, rows=1), 1),
])
def test_command_builds_each_differential_once(differential_builds,
                                               cohomology_calls, capsys,
                                               argv, builds, reports):
    assert run(argv) == 0
    capsys.readouterr()
    assert differential_builds == builds
    assert len(cohomology_calls) == reports


@pytest.mark.parametrize("flag, name, direction, builds", [
    # the direction's d_t and the primitive's d_t are one build, and the
    # representative's closedness is not re-proved, so no d_(t+1) is built
    # eta(h) = fbar, eta(e) = 0: d_1 of the quotient system and d_1 of the
    # inclusion's (for the snake lift)
    ("--sub", "borel-in-sl2", [["1", "0"]], Counter(whole=2)),
    # eta(z) = pbar: the same two
    ("--sub", "center-in-heis3", [["1"], ["0"]], Counter(whole=2)),
    ("--algebra", "sl2", [{"i": 0, "j": 1, "coeffs": ["0", "0", "0"]}],
     Counter(whole=1)),
    ("--hom", "borel-incl", [["0", "0"]] * 3, Counter(whole=1)),
])
def test_direction_builds_each_differential_once(differential_builds,
                                                 cohomology_calls, capsys,
                                                 tmp_path, flag, name,
                                                 direction, builds):
    doc = tmp_path / "direction.json"
    doc.write_text(json.dumps(direction))
    assert run(["kuranishi", flag, name, "--direction", str(doc)]) == 0
    capsys.readouterr()
    assert differential_builds == builds
    assert cohomology_calls == []


def test_a_sub_problem_proves_each_identity_once(monkeypatch, capsys):
    # sl2's own Jacobi proof is the only one: the subalgebra's bracket is
    # restricted once (the witness's closure proof is the other restriction)
    # and inherits its identities, and neither derived system re-checks its
    # representation identity
    calls = Counter()
    for owner, attr in ((algebras, "validate_bracket"),
                        (algebras, "_basis_brackets"),
                        (algebras.RepSpec, "check_identity")):
        def counted(*args, orig=getattr(owner, attr), attr=attr, **kwargs):
            calls[attr] += 1
            return orig(*args, **kwargs)
        monkeypatch.setattr(owner, attr, counted)
    assert run(["les", "--sub", "borel-in-sl2"]) == 0
    capsys.readouterr()
    assert calls == {"validate_bracket": 1, "_basis_brackets": 2}


def cocycle_sum(problem):
    """The sum of the cocycle basis at the tangent degree."""
    t, report = problem.tangent_degree, problem.report
    basis = report.degree(t).cocycles.basis
    total = [sum(xs) for xs in zip(*basis)] or [0] * report.complex.dim_cochains(t)
    return AltMap.from_flat(t, report.acting_dim, report.carrier_dim, total)


OBSTRUCTIONS = {"bracket": K.kuranishi_bracket, "hom": K.kuranishi_hom,
                "sub": K.kuranishi_sub}


def test_obstructions_agree_on_raw_object_and_problem():
    for obj in all_objects():
        problem = Problem(obj)
        direction = cocycle_sum(problem)
        raw, wrapped = obj, problem
        if problem.kind == "sub":
            raw = K.Splitting(obj, obj.coords.section)
            wrapped = K.standard_splitting(problem)
            assert (flat(K.omega_sigma(raw, direction))
                    == flat(K.omega_sigma(wrapped, direction))), obj
        obstruction = OBSTRUCTIONS[problem.kind]
        assert (obstruction(raw, direction).to_json_dict()
                == obstruction(wrapped, direction).to_json_dict()), obj


def test_splitting_carries_its_problem():
    w = sub_preset("borel-in-sl2")
    raw = K.standard_splitting(w)
    assert raw.witness is w and raw.problem.obj is w
    problem = Problem(w)
    sp = K.standard_splitting(problem)
    shifted = K.shifted_splitting(sp, Matrix.from_rows([[1], [2]]))
    assert sp.problem is problem and shifted.problem is problem
    with pytest.raises(TypeError):
        K.Splitting(Problem(catalog_algebra("sl2")), w.coords.section)


# ---------------------------------------------------------------------------
# one problem and one chart per object, for the object's lifetime

MAKERS = {"bracket": lambda: catalog_algebra("sl2"),
          "hom": lambda: hom_preset("borel-incl"),
          "sub": lambda: sub_preset("borel-in-sl2")}


@pytest.fixture
def charts_made(monkeypatch):
    """Every float chart made, in order."""
    charts = []
    orig = lab._Chart.__init__

    def recorded(self, *args):
        orig(self, *args)
        charts.append(self)

    monkeypatch.setattr(lab._Chart, "__init__", recorded)
    return charts


def test_calls_on_one_object_share_one_report_and_chart(cohomology_calls,
                                                        degree_views,
                                                        charts_made):
    # the rigidity precondition reads H^2 once and no whole report
    g = catalog_algebra("sl2")
    for seed in range(20):
        assert run_experiment("bracket-recovery", g, [seed])[0]["converged"]
    for seed in range(20):
        mu_prime, _ = perturbed_bracket(g, 0.05, seed)
        assert recover_bracket_orbit(g, mu_prime).converged
    assert cohomology_calls == []
    assert [v.k for v in degree_views] == [2]
    assert charts_made == [lab._chart(g, "bracket")]


def test_hom_continuation_acts_by_the_target_algebras_kept_chart(
        cohomology_calls, degree_views, charts_made):
    rho = hom_preset("borel-incl")
    target = Problem.of(rho.target)
    assert V.bracket_rigidity(rho.target).holds
    for seed in range(3):
        assert run_experiment("hom-continuation", rho, [seed])[0]["converged"]
    chart = lab._chart(rho, "hom")
    assert chart.acting is lab._chart(rho.target, "bracket")
    assert chart.acting.p is target is Problem.of(rho).target
    # H^2 of the target (rigidity), Z^1 and H^2 of the hom (stability), once
    # each, and no whole report
    assert cohomology_calls == []
    assert [(v.complex.rep.variant, v.k) for v in degree_views] == [
        ("adjoint", 2), ("pullback", 1), ("pullback", 2)]
    # the source's float bracket is read from the source's own chart
    assert charts_made == [chart, lab._chart(rho.source, "bracket"),
                           chart.acting]


@pytest.mark.parametrize("kind", sorted(MAKERS))
def test_one_problem_per_object_by_identity(kind):
    a, b = MAKERS[kind](), MAKERS[kind]()
    assert a == b and a is not b
    assert Problem.of(a) is Problem.of(a) is Problem.of(a, kind)
    assert Problem.of(a).obj is a
    assert Problem.of(b) is not Problem.of(a)
    # a shallow copy carries its original's __dict__, not its problem
    c = copy.copy(a)
    assert Problem.of(c) is not Problem.of(a) and Problem.of(c).obj is c


@pytest.mark.parametrize("experiment, make", [
    ("bracket-recovery", MAKERS["bracket"]),
    ("hom-recovery", lambda: hom_preset("id-sl2")),
    ("sub-recovery", MAKERS["sub"]),
    ("hom-continuation", MAKERS["hom"]),
    ("sub-continuation", MAKERS["sub"])])
def test_kept_problem_and_chart_die_with_their_object(experiment, make):
    obj = make()
    run_experiment(experiment, obj, [0])
    problem = Problem.of(obj)
    chart = lab._chart(obj, problem.kind)
    assert Problem.of(obj) is problem
    assert lab._chart(obj, problem.kind) is chart
    refs = [weakref.ref(x) for x in (obj, problem, chart, chart.acting)]
    del obj, problem, chart
    gc.collect()
    assert [ref() for ref in refs] == [None] * 4
