"""Floating-point lane: group actions, orbit recovery, continuation,
curve/finite-difference checks, and the seeded experiment driver."""

import json
import warnings

import numpy as np
import pytest

from liedeform.algebras import (Matrix, catalog_algebra, hom_preset,
                                sub_preset, validate_bracket)
from liedeform.cecomplex import Problem, adjoint_cohomology
import liedeform.deformlab as lab
from liedeform.deformlab import (ChartError, FloatBracket, InputDefectError,
                                 NewtonConfig, PreconditionError, SubFrames,
                                 _Chart, _chord_newton, _curvature_flat,
                                 _pairs_flat, act_on_bracket, ad_float,
                                 chart_coords, chart_defect_flat,
                                 continue_hom, continue_sub,
                                 curve_cocycle_check, graph_basis,
                                 jacobiator_flat, numeric_jacobian,
                                 perturbed_bracket, perturbed_hom,
                                 perturbed_plane, recover_bracket_orbit,
                                 recover_hom_orbit, recover_sub_orbit,
                                 run_experiment, sub_frames,
                                 vertical_derivative_fd_check)
from helpers import (act_on_bracket_einsum, act_on_bracket_exact,
                     chart_defect_loop, curvature_loop, jacobiator_loop,
                     pairs_loop, run_single_experiment)

SL2 = catalog_algebra("sl2")
AFF1 = catalog_algebra("aff1")


class TestFloatBracket:
    def test_from_exact_and_antisymmetry(self):
        mu = FloatBracket.from_exact(SL2)
        assert mu.dim == 3
        assert np.allclose(mu.c, -mu.c.transpose(1, 0, 2))

    def test_constructor_antisymmetrizes(self):
        raw = np.zeros((2, 2, 2))
        raw[0, 1, 0] = 1.0  # no mirror entry supplied
        mu = FloatBracket(2, raw)
        assert mu.c[1, 0, 0] == -0.5 and mu.c[0, 1, 0] == 0.5

    def test_jacobiator_flat_zero_on_valid(self):
        for name in ("sl2", "heis3", "so3"):
            mu = FloatBracket.from_exact(catalog_algebra(name))
            assert np.max(np.abs(jacobiator_flat(mu.c))) == 0.0

    def test_ad_float_matches_exact(self):
        mu = FloatBracket.from_exact(SL2)
        m = ad_float(mu.c, np.array([1.0, 0.0, 0.0]))
        assert np.allclose(np.diag(m), [0.0, 2.0, -2.0])


class TestGroupAction:
    def test_identity_fixes_bracket(self):
        mu = FloatBracket.from_exact(SL2)
        moved = act_on_bracket(np.eye(3), mu)
        assert np.allclose(moved.c, mu.c)

    def test_scalar_matrix_rescales(self):
        # under A = s*I the transported structure tensor is c/s
        mu = FloatBracket.from_exact(SL2)
        moved = act_on_bracket(2.0 * np.eye(3), mu)
        assert np.allclose(moved.c, mu.c / 2.0)

    def test_float_matches_exact_action(self):
        a = Matrix.from_rows([[1, 1, 0], [0, 1, 0], [2, 0, 1]])
        exact = act_on_bracket_exact(a, SL2.candidate)
        floats = act_on_bracket(np.array(a.to_float_rows()),
                                FloatBracket.from_exact(SL2))
        expected = np.array([[[float(x) for x in exact.c[i][j]]
                              for j in range(3)] for i in range(3)])
        assert np.allclose(floats.c, expected, atol=1e-12)

    def test_transport_preserves_jacobi_exactly(self):
        a = Matrix.from_rows([[1, 2, 0], [0, 1, 3], [0, 0, 1]])
        moved = act_on_bracket_exact(a, catalog_algebra("heis3").candidate)
        g2 = validate_bracket(moved)
        assert adjoint_cohomology(g2).dims_h() == [1, 4, 5, 2]


class TestBracketRecovery:
    def test_round_trip(self):
        for seed in (0, 1, 2):
            mu_prime, _ = perturbed_bracket(SL2, 0.05, seed)
            res = recover_bracket_orbit(SL2, mu_prime)
            assert res.converged and res.residual <= 1e-9
            assert abs(res.determinant) > 1e-6
            # convention: the group matrix carries the base bracket onto mu'
            moved = act_on_bracket(res.group_matrix, FloatBracket.from_exact(SL2))
            assert np.max(np.abs(moved.c - mu_prime.c)) <= 1e-8

    def test_identity_input_takes_zero_iterations(self):
        res = recover_bracket_orbit(SL2, FloatBracket.from_exact(SL2))
        assert res.iterations == 0 and res.converged

    def test_aff1_round_trip(self):
        mu_prime, _ = perturbed_bracket(AFF1, 0.05, 11)
        res = recover_bracket_orbit(AFF1, mu_prime)
        assert res.converged and res.residual <= 1e-9

    def test_refuses_non_rigid_base(self):
        g = catalog_algebra("heis3")
        mu_prime, _ = perturbed_bracket(g, 0.05, 0)
        with pytest.raises(PreconditionError):
            recover_bracket_orbit(g, mu_prime)

    def test_refuses_far_from_jacobi_input(self):
        bad = np.zeros((3, 3, 3))
        bad[0, 1, 0] = 1.0
        bad[1, 0, 0] = -1.0
        bad[0, 2, 2] = 1.0
        bad[2, 0, 2] = -1.0
        assert np.max(np.abs(jacobiator_flat(bad))) == 1.0
        with pytest.raises(InputDefectError):
            recover_bracket_orbit(SL2, FloatBracket(3, bad))


class TestHomRecovery:
    def test_round_trip(self):
        rho = hom_preset("id-sl2")
        rho_prime, _ = perturbed_hom(rho, 0.05, 3)
        res = recover_hom_orbit(rho, rho_prime)
        assert res.converged and res.residual <= 1e-9
        # conjugating back: A rho'(u) A^{-1} recovers rho as a matrix
        a = res.group_matrix
        back = np.linalg.inv(a) @ rho_prime  # undo the Ad action on values
        assert np.max(np.abs(back - np.eye(3))) <= 1e-8 or res.residual <= 1e-9

    def test_refuses_non_rigid(self):
        rho = hom_preset("zero-to-sl2")
        rho_prime, _ = perturbed_hom(rho, 0.05, 0)
        with pytest.raises(PreconditionError):
            recover_hom_orbit(rho, rho_prime)

    def test_refuses_far_from_hom_input(self):
        rho = hom_preset("borel-incl")
        # h -> h, e -> f is far from a homomorphism: K(h,e) = 4f
        bad = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(InputDefectError):
            recover_hom_orbit(rho, bad)


class TestSubRecovery:
    def test_round_trip(self):
        w = sub_preset("borel-in-sl2")
        plane, _ = perturbed_plane(w, 0.05, 5)
        res = recover_sub_orbit(w, plane)
        assert res.converged and res.residual <= 1e-9
        assert res.diagnostics["principal_angle_sup"] <= 1e-8

    def test_refuses_non_rigid(self):
        w = sub_preset("center-in-heis3")
        plane, _ = perturbed_plane(w, 0.05, 0)
        with pytest.raises(PreconditionError):
            recover_sub_orbit(w, plane)

    def test_refuses_non_subalgebra_plane(self):
        # a plane inside the chart but not closed under the bracket:
        # span{h + f/2, e} has [h + f/2, e] escaping it
        w = sub_preset("borel-in-sl2")
        frames = sub_frames(w)
        plane = graph_basis(frames, np.array([[0.5, 0.0]]))
        with pytest.raises(InputDefectError):
            recover_sub_orbit(w, plane)

    def test_transverse_plane_leaves_chart(self):
        w = sub_preset("borel-in-sl2")
        plane = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])  # span{e,f}
        with pytest.raises(ChartError):
            recover_sub_orbit(w, plane)


class TestContinuation:
    def test_hom_continuation(self):
        rho = hom_preset("borel-incl")
        for seed in (0, 7):
            mu_prime, _ = perturbed_bracket(rho.target, 0.05, seed)
            res = continue_hom(rho, mu_prime)
            assert res.converged and res.residual <= 1e-9
            assert res.distance <= 0.5
            assert res.input_defect <= 1e-9

    def test_sub_continuation(self):
        w = sub_preset("borel-in-sl2")
        mu_prime, _ = perturbed_bracket(w.ambient, 0.05, 3)
        res = continue_sub(w, mu_prime)
        assert res.converged and res.residual <= 1e-9
        assert res.distance <= 0.5
        assert res.diagnostics["plane"]  # deformed plane frame recorded

    def test_unperturbed_bracket_returns_base(self):
        rho = hom_preset("borel-incl")
        res = continue_hom(rho, FloatBracket.from_exact(rho.target))
        assert res.iterations == 0
        assert res.distance <= 1e-12

    def test_refuses_non_jacobi_target(self):
        rho = hom_preset("borel-incl")
        bad = np.zeros((3, 3, 3))
        bad[0, 1, 0] = 1.0
        bad[1, 0, 0] = -1.0
        bad[0, 2, 2] = 1.0
        bad[2, 0, 2] = -1.0
        with pytest.raises(InputDefectError):
            continue_hom(rho, FloatBracket(3, bad))

    def test_refuses_unstable_base(self):
        # heis3 is not 2-rigid: continuation of a hom into it is refused
        g = catalog_algebra("heis3")
        from liedeform.algebras import Homomorphism
        rho = Homomorphism(g, g, Matrix.identity(3), name="id-heis3")
        mu_prime, _ = perturbed_bracket(g, 0.01, 0)
        with pytest.raises(PreconditionError):
            continue_hom(rho, mu_prime)


class TestChart:
    def test_chart_round_trip(self):
        w = sub_preset("borel-in-sl2")
        frames = sub_frames(w)
        eta = np.array([[0.03, -0.02]])
        plane = graph_basis(frames, eta)
        back = chart_coords(frames, plane)
        assert np.allclose(back, eta, atol=1e-12)

    def test_zero_coords_give_zero_defect(self):
        w = sub_preset("borel-in-sl2")
        frames = sub_frames(w)
        mu = FloatBracket.from_exact(w.ambient)
        defect = chart_defect_flat(frames, np.zeros((1, 2)), mu)
        assert np.max(np.abs(defect)) == 0.0

    def test_transverse_plane_rejected(self):
        w = sub_preset("borel-in-sl2")
        frames = sub_frames(w)
        plane = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])  # span{e,f}
        with pytest.raises(ChartError):
            chart_coords(frames, plane)


class TestCurveCheck:
    def orbit_samples(self, h):
        x = np.array([[0.0, 0.3, 0.0], [0.0, 0.0, 0.2], [0.1, 0.0, 0.0]])
        import scipy.linalg
        mu = FloatBracket.from_exact(SL2)
        out = []
        for t in (-2 * h, -h, 0.0, h, 2 * h):
            out.append((t, act_on_bracket(scipy.linalg.expm(t * x), mu)))
        return out

    def test_orbit_curve_has_coboundary_derivative(self):
        rep = curve_cocycle_check("bracket", SL2, self.orbit_samples(1e-3))
        assert rep.ok
        # the derivative of an orbit curve is an exact coboundary: both the
        # cocycle defect and the class residual sit at round-off level
        assert rep.class_residual <= 1e-6
        assert max(rep.delta_defects) <= 1e-10

    def test_requires_bracketing_samples(self):
        mu = FloatBracket.from_exact(SL2)
        with pytest.raises(ValueError):
            curve_cocycle_check("bracket", SL2,
                                [(0.0, mu), (1e-3, mu), (2e-3, mu)])

    def test_hom_curve(self):
        rho = hom_preset("borel-incl")
        base = np.array(rho.matrix.to_float_rows())
        d = np.array([[0.2, 0.0], [0.0, 0.1], [0.3, 0.0]])
        h = 1e-3
        # rho + t*d is a curve of maps; its derivative d must be checked to
        # be a 1-cocycle only when it is one; use an inner direction instead
        x = np.array([0.0, 1.0, 0.0])
        mu = FloatBracket.from_exact(SL2)
        adx = ad_float(mu.c, x)
        samples = [(t, base + t * (adx @ base))
                   for t in (-2 * h, -h, 0.0, h, 2 * h)]
        rep = curve_cocycle_check("hom", rho, samples)
        assert rep.ok and rep.class_residual <= 1e-6

    def test_sub_curve(self):
        w = sub_preset("borel-in-sl2")
        frames = sub_frames(w)
        h = 1e-3
        eta_dir = np.array([[1.0, 0.0]])  # the quotient 1-cocycle direction
        samples = [(t, graph_basis(frames, t * eta_dir))
                   for t in (-2 * h, -h, 0.0, h, 2 * h)]
        rep = curve_cocycle_check("sub", w, samples)
        assert rep.ok

    def test_sub_curve_flags_non_cocycle_direction(self):
        w = sub_preset("borel-in-sl2")
        frames = sub_frames(w)
        h = 1e-3
        eta_dir = np.array([[0.0, 1.0]])  # not a cocycle: d(eta) != 0
        samples = [(t, graph_basis(frames, t * eta_dir))
                   for t in (-2 * h, -h, 0.0, h, 2 * h)]
        rep = curve_cocycle_check("sub", w, samples)
        assert not rep.ok
        assert max(rep.delta_defects) > 1.0


class TestFDCheck:
    def test_bracket_kind(self):
        d = np.zeros((3, 3, 3))
        d[0, 1, 0] = 0.4
        d[1, 0, 0] = -0.4
        d[0, 2, 2] = -0.7
        d[2, 0, 2] = 0.7
        rep = vertical_derivative_fd_check("bracket", SL2, d)
        assert rep.ok
        assert rep.remainder_ratio is None or 3.5 <= rep.remainder_ratio <= 4.5

    def test_hom_kind(self):
        rho = hom_preset("borel-incl")
        d = np.array([[0.5, 0.1], [0.0, 0.2], [0.3, 0.0]])
        rep = vertical_derivative_fd_check("hom", rho, d)
        assert rep.ok

    def test_sub_kind(self):
        w = sub_preset("borel-in-sl2")
        rep = vertical_derivative_fd_check("sub", w, np.array([[0.8, -0.3]]))
        assert rep.ok

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            vertical_derivative_fd_check("nope", SL2, np.zeros((3, 3, 3)))

    def test_problem_matches_raw_object(self):
        d = np.zeros((3, 3, 3))
        d[0, 1, 0] = 0.4
        d[1, 0, 0] = -0.4
        d[0, 2, 2] = -0.7
        d[2, 0, 2] = 0.7
        for kind, obj, direction in (
                ("bracket", SL2, d),
                ("hom", hom_preset("borel-incl"),
                 np.array([[0.5, 0.1], [0.0, 0.2], [0.3, 0.0]])),
                ("sub", sub_preset("borel-in-sl2"), np.array([[0.8, -0.3]]))):
            raw = vertical_derivative_fd_check(kind, obj, direction)
            via = vertical_derivative_fd_check(kind, Problem(obj), direction)
            assert via.to_json_dict() == raw.to_json_dict()


class TestNewtonConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            NewtonConfig(tol=-1.0)
        with pytest.raises(ValueError):
            NewtonConfig(max_iter=0)
        with pytest.raises(ValueError):
            NewtonConfig(damping=0.0)

    def test_defaults(self):
        cfg = NewtonConfig()
        assert cfg.tol == 1e-10 and cfg.max_iter == 50


class TestNewtonDivergence:
    """Divergence is a result, not an exception."""

    def test_overflow_step_keeps_last_finite_iterate(self):
        # a huge chord pseudoinverse (of a tiny jacobian) makes the first
        # step enormous and the residual overflows; the iteration must stop
        # at the finite start
        def residual(u):
            with np.errstate(over="ignore"):
                return np.array([np.exp(u[0]) - 2.0])

        u, res, iters, ok = _chord_newton(residual, np.zeros(1),
                                          np.array([[1e300]]), NewtonConfig())
        assert not ok and iters == 1
        assert np.all(np.isfinite(u)) and np.isfinite(res)

    def test_chart_exit_mid_iteration_is_nonconvergence(self):
        def residual(u):
            if np.any(u != 0.0):
                raise ChartError("left the chart")
            return np.array([1.0])

        u, res, iters, ok = _chord_newton(residual, np.zeros(1),
                                          np.array([[1.0]]), NewtonConfig())
        assert not ok and iters == 1
        assert np.all(u == 0.0) and res == 1.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_wild_sub_perturbation_degrades_cleanly(self):
        # scale far beyond the chart radius: Newton fails, but the result
        # still reports a finite iterate and finite diagnostics
        w = sub_preset("borel-in-sl2")
        plane, _ = perturbed_plane(w, 12.0, 0)
        result = recover_sub_orbit(w, plane)
        assert not result.converged
        assert np.all(np.isfinite(result.log_solution))
        assert np.isfinite(result.diagnostics["principal_angle_sup"])


class TestExperimentDriver:
    def test_single_experiment_record(self):
        rec = run_single_experiment("bracket-recovery", SL2, 0.05, 7,
                                    NewtonConfig())
        assert rec["seed"] == 7
        assert rec["converged"] is True
        assert rec["perturbation_sup"] > 0
        assert rec["residual"] <= 1e-9

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            run_single_experiment("bracket", SL2, 0.05, 0, NewtonConfig())

    def test_singular_group_element_ends_newton_not_the_experiment(self):
        # at scale 0.3 seed 61 diverges until a Jacobian refresh evaluates
        # the bracket action at a singular exp(a)
        records = run_experiment("bracket-recovery", SL2, [61], scale=0.3)
        assert len(records) == 1
        assert records[0]["seed"] == 61
        assert records[0]["converged"] is False

    def test_all_kinds_run(self):
        assert run_single_experiment("hom-recovery", hom_preset("id-sl2"),
                                     0.05, 1, NewtonConfig())["converged"]
        assert run_single_experiment("sub-recovery", sub_preset("borel-in-sl2"),
                                     0.05, 1, NewtonConfig())["converged"]
        assert run_single_experiment("hom-continuation", hom_preset("borel-incl"),
                                     0.05, 1, NewtonConfig())["converged"]
        assert run_single_experiment("sub-continuation", sub_preset("borel-in-sl2"),
                                     0.05, 1, NewtonConfig())["converged"]


def test_numeric_jacobian_quadratic():
    def f(u):
        return np.array([u[0] ** 2, u[0] * u[1], u[1]])

    at = np.array([2.0, 3.0])
    jac = numeric_jacobian(f, at)
    exact = np.array([[4.0, 0.0], [3.0, 2.0], [0.0, 1.0]])
    assert np.allclose(jac, exact, atol=1e-5)


def assert_close(got: np.ndarray, want: np.ndarray):
    assert got.shape == want.shape
    scale = max(1.0, float(np.max(np.abs(want)))) if want.size else 1.0
    assert float(np.max(np.abs(got - want), initial=0.0)) <= 1e-12 * scale


class TestKernelsMatchLoops:
    """Each array kernel equals its loop form on seeded random tensors, down
    to the empty cases of fewer than two or three basis vectors."""

    @pytest.mark.parametrize("n", range(7))
    def test_bracket_action(self, n):
        rng = np.random.default_rng(n)
        mu = FloatBracket(n, rng.normal(size=(n, n, n)))
        a = np.eye(n) + 0.3 * rng.normal(size=(n, n))
        assert_close(act_on_bracket(a, mu).c,
                     FloatBracket(n, act_on_bracket_einsum(a, mu.c)).c)

    @pytest.mark.parametrize("n", range(7))
    def test_jacobiator_and_pairs(self, n):
        c = np.random.default_rng(10 + n).normal(size=(n, n, n))
        assert_close(jacobiator_flat(c), jacobiator_loop(c))
        assert_close(_pairs_flat(c), pairs_loop(c))

    @pytest.mark.parametrize("n", range(7))
    def test_curvature(self, n):
        rng = np.random.default_rng(20 + n)
        c = rng.normal(size=(n, n, n))
        for k in range(n + 1):
            c_source = rng.normal(size=(k, k, k))
            p = rng.normal(size=(n, k))
            assert_close(_curvature_flat(c, c_source, p),
                         curvature_loop(c, c_source, p))

    @pytest.mark.parametrize("n", range(7))
    def test_chart_defect(self, n):
        rng = np.random.default_rng(30 + n)
        mu = FloatBracket(n, rng.normal(size=(n, n, n)))
        for k in range(n + 1):
            q = n - k
            frames = SubFrames(None, rng.normal(size=(n, k)),
                               rng.normal(size=(n, q)), rng.normal(size=(k, n)),
                               rng.normal(size=(q, n)))
            eta = rng.normal(size=(q, k))
            assert_close(chart_defect_flat(frames, eta, mu),
                         chart_defect_loop(frames, eta, mu.c))


class TestSharedChart:
    def test_experiment_equals_single_seed_calls(self, monkeypatch):
        # seeds 34, 37 and 42 stall and refresh the Jacobian; a refresh must
        # stay with its seed and leave the chart's chord to the next seeds
        refreshes = []
        jacobian = lab.numeric_jacobian
        monkeypatch.setattr(lab, "numeric_jacobian",
                            lambda *a: refreshes.append(1) or jacobian(*a))
        seeds = list(range(30, 46))
        together = run_experiment("bracket-recovery", SL2, seeds, scale=0.3)
        assert refreshes
        alone = [run_experiment("bracket-recovery", SL2, [s], scale=0.3)[0]
                 for s in seeds]
        assert json.dumps(together) == json.dumps(alone)

    @pytest.mark.parametrize("kind, obj", [
        ("bracket-recovery", SL2), ("hom-recovery", hom_preset("id-sl2")),
        ("sub-recovery", sub_preset("borel-in-sl2")),
        ("hom-continuation", hom_preset("borel-incl")),
        ("sub-continuation", sub_preset("borel-in-sl2"))])
    def test_one_chart_per_experiment(self, kind, obj, monkeypatch):
        calls = {"from_exact": 0, "orbit_linearization": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(FloatBracket, "from_exact", classmethod(
            counted("from_exact", FloatBracket.from_exact.__func__)))
        for cls in {_Chart, *lab._CHARTS.values()}:
            if "orbit_linearization" in vars(cls):
                monkeypatch.setattr(cls, "orbit_linearization", counted(
                    "orbit_linearization", vars(cls)["orbit_linearization"]))
        counts = []
        for seeds in ([0], list(range(5))):
            calls.update(from_exact=0, orbit_linearization=0)
            assert len(run_experiment(kind, obj, seeds)) == len(seeds)
            counts.append(dict(calls))
        assert counts[0] == counts[1], counts
        assert counts[1]["orbit_linearization"] == kind.endswith("recovery")


class TestNoWarnings:
    def test_non_finite_group_element_is_refused(self):
        mu = FloatBracket.from_exact(SL2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError):
                act_on_bracket(np.full((3, 3), np.nan), mu)

    @pytest.mark.parametrize("scale, seed", [(0.5, 73), (1.0, 15)])
    def test_overflowing_iterate_is_silent_nonconvergence(self, scale, seed):
        # at scale 0.5 seed 73 diverges until exp(a) overflows; at scale 1.0
        # seed 15 ends on an iterate whose determinant overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records = run_experiment("bracket-recovery", SL2, [seed],
                                     scale=scale)
        assert records[0]["converged"] is False
