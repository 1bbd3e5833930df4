"""The experiment driver runs all seeds of a call in lockstep, in one stacked
Newton iteration: its records, as JSON text, and its refusals must equal
those of one call per seed, and a stacked entry call must equal one call
per value."""

import json
import warnings

import numpy as np
import pytest

import liedeform.deformlab as lab
from liedeform.algebras import catalog_algebra, hom_preset, sub_preset
from liedeform.deformlab import (FloatBracket, continue_hom, continue_sub,
                                 perturbed_bracket, perturbed_hom,
                                 perturbed_plane, recover_bracket_orbit,
                                 recover_hom_orbit, recover_sub_orbit,
                                 run_experiment)
from helpers import (NEWTON_SEEDS_BANDS, counting_refreshes,
                     newton_seeds_objects)

# the newton-seeds objects, by name, and its bands
OBJECTS = newton_seeds_objects()
BANDS = NEWTON_SEEDS_BANDS
# at scale 0.3: sl2 seeds 0, 2, 3, 5, 9-13, 42, 61 and 285 refresh their
# chord once, b(sl_3) every seed but 1, borel-incl recovery 4, 9, 10 and 13,
# id-sl2 continuation 4, 9 and 13; every seed converges, at its own round,
# so the seeds that end otherwise are WILD's.  3 and 285 repeat.
SEEDS = [*range(14), 42, 61, 285, 3, 3, 285]
# divergence, sl2 at 1.0: seeds 30 and 35 iterate until exp(a) overflows,
# 11 steps to a singular exp(a), 52 and 168 meet one in a refresh and 168's
# last iterate has an overflowing determinant, 19 runs out of iterations;
# 0, 4 and 7 converge.  borel-in-sl2 at 8.0: 53 converges after a refresh,
# 11 and 25 refresh most rounds and run out of iterations.  No iterate
# leaves the graph chart: none of seeds 0-299 of borel-in-sl2 at scales 1 to
# 256, nor of b(sl_3) in sl_3 at 0.3 to 4, so the chart exit is tested on
# the synthetic residual of ``test_a_chart_exit_stays_with_its_seed``
WILD = [("bracket-recovery", "sl2", 1.0, [30, 0, 11, 35, 30]),
        ("bracket-recovery", "sl2", 1.0, [168, 0, 19, 52, 4, 7]),
        ("sub-recovery", "borel-in-sl2", 8.0, [53, 11, 25, 0])]


def one_call_per_seed(kind, obj, seeds, scale):
    """The records of one call per seed, up to the first that raises."""
    records = []
    for seed in seeds:
        records += run_experiment(kind, obj, [seed], scale=scale)
    return records


@pytest.mark.parametrize("scale", [0.05, 0.3])
@pytest.mark.parametrize("kind, name", BANDS)
def test_experiment_equals_one_call_per_seed(kind, name, scale, monkeypatch):
    refreshes = counting_refreshes(monkeypatch)
    picks, newton = [], lab._chord_newton

    def spied_newton(residual, *args):
        def seen(u, seeds):
            picks.append((len(u), seeds))
            return residual(u, seeds)
        return newton(seen, *args)

    monkeypatch.setattr(lab, "_chord_newton", spied_newton)
    obj = OBJECTS[name]
    together = json.dumps(run_experiment(kind, obj, SEEDS, scale=scale))
    batched = len(refreshes)
    alone = json.dumps(one_call_per_seed(kind, obj, SEEDS, scale))
    assert together == alone
    # a refresh stays with its seed: the same refreshes, once per stall
    assert 2 * batched == len(refreshes)
    # a residual call names its rows' seeds as an index array, one per row,
    # or, in a refresh, as one int for every row: never as a slice, even
    # where the running seeds are consecutive
    arrays = [(rows, seeds) for rows, seeds in picks
              if isinstance(seeds, np.ndarray)]
    ints = [seeds for _, seeds in picks
            if isinstance(seeds, (int, np.integer))]
    assert arrays and len(arrays) + len(ints) == len(picks)
    assert len(ints) == len(refreshes)
    assert all(seeds.dtype.kind == "i" and seeds.shape == (rows,)
               for rows, seeds in arrays)


@pytest.mark.parametrize("kind, name, scale, seeds", WILD)
def test_divergence_stays_with_its_seed(kind, name, scale, seeds,
                                        monkeypatch):
    refreshes = counting_refreshes(monkeypatch)
    obj = OBJECTS[name]
    together = run_experiment(kind, obj, seeds, scale=scale)
    batched = len(refreshes)
    assert json.dumps(together) == json.dumps(
        one_call_per_seed(kind, obj, seeds, scale))
    assert batched and 2 * batched == len(refreshes)
    assert not all(r["converged"] for r in together)


def test_a_chart_exit_stays_with_its_seed(monkeypatch):
    # a synthetic chart, the half-plane u_0 < 1, outside which the residual
    # u - target is NaN, as a plane outside the graph chart reads; each
    # row's chord diag(0.6, 0.3) cuts the error along u_0 by 0.4 a round
    # and along u_1 by 0.7, a stall.  Rows, by target: (1.5, 0) steps to
    # u_0 = 0.9 and then leaves the chart at round 2; (0.5, 0) converges in
    # 25 rounds; (0, 0.5) stalls, refreshes and converges; (0, 0) is
    # converged at u = 0; the first comes again last
    refreshes = counting_refreshes(monkeypatch)
    targets = np.array([[1.5, 0], [0.5, 0], [0, 0.5], [0, 0], [1.5, 0]])
    chord = np.diag([0.6, 0.3])

    def run(rows):
        def residual(u, seeds):
            inside = u[..., :1] < 1
            return np.where(inside, u - rows[seeds], np.nan)
        chords = np.repeat(chord[None], len(rows), axis=0)
        return lab._chord_newton(residual, np.zeros(rows.shape), chords,
                                 lab.NewtonConfig())

    together = run(targets)
    batched = len(refreshes)
    alone = [run(targets[i:i + 1]) for i in range(len(targets))]
    for j, stacked in enumerate(together):
        np.testing.assert_array_equal(
            stacked, np.concatenate([out[j] for out in alone]))
    u, res, iters, converged = together
    assert batched == 1 and len(refreshes) == 2
    assert iters.tolist() == [2, 25, 2, 0, 2]
    assert converged.tolist() == [False, True, True, True, False]
    # the exit ends its seed at its last iterate inside the chart
    np.testing.assert_allclose(u[0], [0.9, 0])
    np.testing.assert_allclose(res[0], 0.6)


@pytest.mark.parametrize("kind, name", BANDS)
def test_empty_seed_list(kind, name):
    assert run_experiment(kind, OBJECTS[name], []) == []
    assert run_experiment(kind, OBJECTS[name], iter(())) == []


def stacked_inputs():
    """(entry, object, values): each stack holds the unperturbed value,
    whose Newton run takes zero iterations, and perturbed ones."""
    sl2, b3 = OBJECTS["sl2"], OBJECTS["b(sl_3)"]
    rho, w = OBJECTS["borel-incl"], OBJECTS["borel-in-sl2"]
    cases = []
    for g in (sl2, b3):
        base = FloatBracket.from_exact(g).c
        cases.append((recover_bracket_orbit, g, [base] + [
            perturbed_bracket(g, 0.3, s)[0].c for s in (3, 42, 61, 0)]))
    cases.append((recover_hom_orbit, rho, [lab.float_matrix(rho.matrix)] + [
        perturbed_hom(rho, 0.3, s)[0] for s in (4, 1, 2)]))
    cases.append((recover_sub_orbit, w, [lab.sub_frames(w).basis] + [
        perturbed_plane(w, 2.0, s)[0] for s in (8, 2, 0)]))
    for entry, obj, g in ((continue_hom, rho, rho.target),
                          (continue_sub, w, w.ambient)):
        cases.append((entry, obj, [FloatBracket.from_exact(g).c] + [
            perturbed_bracket(g, 0.3, s)[0].c for s in (0, 1, 2)]))
    return cases


@pytest.mark.parametrize("entry, obj, values", stacked_inputs())
def test_stacked_entry_equals_one_call_per_value(entry, obj, values):
    stacked = entry(obj, np.array(values))
    assert isinstance(stacked, list) and len(stacked) == len(values)
    alone = [entry(obj, v) for v in values]
    assert stacked[0].iterations == 0 and stacked[0].converged
    assert (json.dumps([r.to_json_dict() for r in stacked])
            == json.dumps([r.to_json_dict() for r in alone]))
    assert entry(obj, np.zeros((0,) + np.shape(values[0]))) == []


def test_stacked_brackets_are_antisymmetrized_as_one_bracket_is():
    # perturbed tensors plus a part symmetric in the first two slots, which
    # antisymmetrization takes out up to rounding
    noise = np.random.default_rng(5).normal(size=(3, 3, 3, 3))
    raw = np.array([perturbed_bracket(OBJECTS["sl2"], 0.05, s)[0].c
                    for s in range(3)]) + (noise + noise.swapaxes(1, 2))
    stacked = recover_bracket_orbit(OBJECTS["sl2"], raw)
    alone = [recover_bracket_orbit(OBJECTS["sl2"], c) for c in raw]
    assert ([r.to_json_dict() for r in stacked]
            == [r.to_json_dict() for r in alone])


def raised(call):
    try:
        call()
    except Exception as exc:  # the type and text of what a call raises
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("kind, obj, scale, seeds", [
    # the precondition fails for every seed
    ("bracket-recovery", catalog_algebra("heis3"), 0.05, [0, 1, 2]),
    ("sub-recovery", sub_preset("center-in-heis3"), 0.05, [4, 5, 6]),
    # ... and is asked before the perturbation that a later seed refuses,
    # though not when the first seed's perturbation is refused
    ("bracket-recovery", catalog_algebra("heis3"), 0.05, [0, -1]),
    ("bracket-recovery", catalog_algebra("heis3"), 0.05, [-1, 0]),
    # the third seed's perturbation is refused
    ("bracket-recovery", catalog_algebra("sl2"), 0.3, [1, 2, -1, 4]),
    ("hom-continuation", hom_preset("borel-incl"), 0.05, [0, 1, -3]),
    # the third seed's perturbed value fails the input check: far out, its
    # closure defect (6.0e-06) or curvature (3.5e-07) exceeds the tolerance
    ("sub-recovery", sub_preset("borel-in-sl2"), 20.0, [1, 2, 4, 3]),
    ("hom-recovery", hom_preset("id-sl2"), 8.0, [1, 2, 0, 5]),
    # every perturbation overflows
    ("hom-recovery", hom_preset("id-sl2"), 1e300, [0, 1]),
])
def test_batched_run_raises_what_one_call_per_seed_raises(kind, obj, scale,
                                                          seeds):
    want = raised(lambda: one_call_per_seed(kind, obj, seeds, scale))
    assert want is not None
    assert raised(lambda: run_experiment(kind, obj, seeds, scale=scale)) == want


KINDS = [("bracket-recovery", "sl2"), ("bracket-recovery", "b(sl_3)"),
         ("hom-recovery", "borel-incl"), ("sub-recovery", "borel-in-sl2"),
         ("hom-continuation", "id-sl2"), ("sub-continuation", "borel-in-sl2")]
# a middle seed refused, and the refusal's text: its draw raises (-1); sl2
# at scale 40 seed 19 and at 600 seed 2 (trace -436) give a singular
# exp(x0); exp(ad x0) of seed 4 overflows at scale 400 on sl2, and exp(x0)
# at 600 (trace 1106)
SINGULAR, OVERFLOW = "exp(x0) is singular", "exp(x0) has a non-finite entry"
REFUSED_MIDDLE = [
    *[(kind, name, 0.3, [0, 1, -1, 2, 3], "expected non-negative integer")
      for kind, name in KINDS],
    ("bracket-recovery", "sl2", 40.0, [17, 18, 19, 20], SINGULAR),
    ("bracket-recovery", "sl2", 600.0, [5, 6, 2, 4], SINGULAR),
    ("bracket-recovery", "sl2", 600.0, [5, 6, 4, 2], OVERFLOW),
    ("hom-continuation", "borel-incl", 40.0, [17, 18, 19, 20], SINGULAR),
    ("hom-recovery", "id-sl2", 400.0, [2, 3, 4, 5], OVERFLOW),
    ("sub-recovery", "borel-in-sl2", 400.0, [2, 3, 4, 5], OVERFLOW),
]


@pytest.mark.parametrize("kind, name, scale, seeds, refusal", [
    *[(kind, name, 0.3, SEEDS, None) for kind, name in KINDS],
    *REFUSED_MIDDLE])
def test_stacked_perturbations_equal_one_seed_calls(kind, name, scale, seeds,
                                                    refusal):
    # run_experiment's one call on the seed list, against the public
    # one-seed call on the object (the acting algebra for a continuation)
    obj = OBJECTS[name]
    chart = lab._chart(obj, lab.Problem.of(obj).kind)
    perturb = lab.EXPERIMENTS[kind][0]
    values, x0, refused = perturb(chart, scale, seeds)
    target = chart.algebra if perturb is perturbed_bracket else obj
    alone, first_refusal = [], None
    for seed in seeds:
        first_refusal = raised(
            lambda: alone.append(perturb(target, scale, seed)))
        if first_refusal:
            break
    assert len(values) == len(x0) == len(alone)
    for value, x, (one, one_x) in zip(values, x0, alone):
        one = one.c if isinstance(one, FloatBracket) else one
        assert value.tobytes() == one.tobytes()
        assert x.tobytes() == one_x.tobytes()
    assert first_refusal == (refused and (type(refused), str(refused)))
    assert refusal is None or refusal in str(refused)
    assert len(values) == (seeds.index(seeds[len(values)]) if refused
                           else len(seeds))


@pytest.mark.parametrize("kind, name, scale, seeds, refusal", REFUSED_MIDDLE)
def test_middle_refusal_raises_what_one_call_per_seed_raises(kind, name, scale,
                                                             seeds, refusal):
    # no warning either: an overflowing exp(x0) or determinant is refused
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = raised(lambda: one_call_per_seed(kind, OBJECTS[name], seeds,
                                                scale))
        got = raised(lambda: run_experiment(kind, OBJECTS[name], seeds,
                                            scale=scale))
    # the seeds before the refused one may fail the input check first
    assert want is not None and got == want


def test_recovery_groups_per_residual_and_once_after_newton(monkeypatch):
    # one group call exponentiates the perturbation stack, one runs in each
    # residual call (refreshes too), and one stacked call after Newton makes
    # every seed's group element at its last accepted iterate
    events = []
    group, newton = lab._BracketChart.group, lab._chord_newton
    monkeypatch.setattr(lab._BracketChart, "group", lambda self, x: (
        events.append("group") or group(self, x)))

    def spied_newton(residual, *args):
        def counted(u, seeds):
            events.append("residual")
            return residual(u, seeds)
        events.append("newton")
        out = newton(counted, *args)
        events.append("end")
        return out

    monkeypatch.setattr(lab, "_chord_newton", spied_newton)
    refreshes = counting_refreshes(monkeypatch)
    records = run_experiment("bracket-recovery", OBJECTS["sl2"], SEEDS,
                             scale=0.3)
    assert len(records) == len(SEEDS) and refreshes
    calls = events.count("residual")
    assert events == ["group", "newton", *["residual", "group"] * calls,
                      "end", "group"]


@pytest.mark.parametrize("kind, name, scale, seeds", [
    ("bracket-recovery", "b(sl_3)", 0.3, SEEDS),
    ("hom-recovery", "borel-incl", 0.3, SEEDS), *WILD])
def test_recovered_group_elements_are_the_residual_calls_bits(
        kind, name, scale, seeds, monkeypatch):
    # the stacked group call after Newton gives each seed, bit for bit, the
    # element a residual call made at its last accepted iterate, since expm
    # reads each matrix alone; diverged seeds too
    perturb, solve = lab.EXPERIMENTS[kind]
    chart = lab._chart(OBJECTS[name], lab.Problem.of(OBJECTS[name]).kind)
    values = perturb(chart, scale, seeds)[0]
    calls, group = [], type(chart).group
    monkeypatch.setattr(type(chart), "group", lambda self, x: (
        calls.append((np.array(x), group(self, x))) or calls[-1][1]))
    results = solve(chart, values, lab.NewtonConfig())
    made = {x.tobytes(): a.tobytes()
            for xs, gs in calls[:-1] for x, a in zip(xs, gs)}
    assert all(r.converged for r in results) == (scale < 1)
    for r in results:
        x = np.ascontiguousarray(r.log_solution).tobytes()
        assert r.group_matrix.tobytes() == made[x]


@pytest.mark.parametrize("kind, name", [
    ("hom-continuation", "id-sl2"), ("hom-continuation", "borel-incl"),
    ("sub-continuation", "borel-in-sl2")])
def test_continuation_chords_are_one_pinv(kind, name, monkeypatch):
    # one pinv call on the stack of linearizations, before Newton; a refresh
    # inside Newton makes its own, and none follows.  Each stacked chord
    # equals the pinv of its own seed's linearization, bit for bit.
    shapes, seen = [], []
    pinv, newton = np.linalg.pinv, lab._chord_newton
    monkeypatch.setattr(np.linalg, "pinv", lambda m, *args, **kwargs: (
        shapes.append(np.shape(m)) or pinv(m, *args, **kwargs)))

    def spied_newton(residual, u0, chord, cfg):
        seen.append((len(shapes), np.array(chord)))
        out = newton(residual, u0, chord, cfg)
        seen.append(len(shapes))
        return out

    monkeypatch.setattr(lab, "_chord_newton", spied_newton)
    refreshes = counting_refreshes(monkeypatch)
    obj = OBJECTS[name]
    run_experiment(kind, obj, SEEDS, scale=0.3)
    (before, chords), after = seen
    assert before == 1 and len(shapes[0]) == 3
    assert after - before <= len(refreshes) == len(shapes) - 1
    chart = lab._chart(obj, lab.Problem.of(obj).kind)
    mus = perturbed_bracket(chart, 0.3, SEEDS)[0]
    assert len(chords) == len(mus) == len(SEEDS)
    for chord, mu in zip(chords, mus):
        assert chord.tobytes() == pinv(chart.linearization(mu)).tobytes()


@pytest.mark.parametrize("kind, name", [
    ("hom-continuation", "id-sl2"), ("hom-continuation", "borel-incl"),
    ("sub-continuation", "borel-in-sl2")])
@pytest.mark.parametrize("scale", [0.05, 0.3])
def test_stacked_linearizations_are_one_seed_calls(kind, name, scale):
    # a continuation call builds the linearizations of its whole stack of
    # brackets in one call; each equals its one-seed call bit for bit
    obj = OBJECTS[name]
    chart = lab._chart(obj, lab.Problem.of(obj).kind)
    mus = perturbed_bracket(chart, scale, SEEDS)[0]
    stacked = chart.linearization(mus)
    assert stacked.shape[0] == len(mus) == len(SEEDS)
    for lin, mu in zip(stacked, mus):
        one = chart.linearization(mu)
        assert lin.shape == one.shape
        assert lin.tobytes() == one.tobytes()
