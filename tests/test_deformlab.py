"""Floating-point lane: group actions, orbit recovery, continuation,
curve/finite-difference checks, and the seeded experiment driver."""

import json
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liedeform.algebras import (Matrix, catalog_algebra, hom_preset,
                                hom_preset_names, sub_preset, sub_preset_names,
                                subalgebra_witness, validate_bracket)
from liedeform.cecomplex import Problem, adjoint_cohomology
import liedeform.deformlab as lab
from liedeform.deformlab import (ChartError, FloatBracket, InputDefectError,
                                 NewtonConfig, PreconditionError,
                                 RecoveryResult, SubFrames,
                                 _Chart, _chord_newton,
                                 _curvature_flat, _frame_brackets,
                                 _pairs_flat, _sup, act_on_bracket, ad_float,
                                 chart_defect_flat,
                                 continue_hom, continue_sub,
                                 curve_cocycle_check, float_matrix,
                                 graph_basis,
                                 jacobiator_flat, numeric_jacobian,
                                 perturbed_bracket, perturbed_hom,
                                 perturbed_plane, recover_bracket_orbit,
                                 recover_hom_orbit, recover_sub_orbit,
                                 run_experiment, sub_frames,
                                 vertical_derivative_fd_check)
from helpers import (act_on_bracket_einsum, act_on_bracket_exact,
                     acted_pairs_tensordot, bench_families, chart_defect_loop,
                     curvature_loop, frame_brackets_tensordot,
                     jacobiator_loop, linearization_loop, pairs_loop,
                     run_single_experiment)

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
        floats = act_on_bracket(float_matrix(a),
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

    def test_refuses_far_out_plane_that_is_not_closed(self):
        # span{h + 50 f, e + 3 f} is far out in the chart, and its bracket
        # escapes it: a genuine subalgebra there has eta = [2t, t^2]
        w = sub_preset("borel-in-sl2")
        plane = graph_basis(sub_frames(w), np.array([[50.0, 3.0]]))
        with pytest.raises(InputDefectError, match="closure defect 9.89"):
            recover_sub_orbit(w, plane)

    def test_far_out_subalgebra_is_measured_on_an_orthonormal_frame(self):
        # seed 1 at scale 2 carries b to a genuine subalgebra far out in the
        # chart, where round-off in its graph coordinates leaves a chart
        # closure defect above the input tolerance; on an orthonormal frame
        # of the plane the defect is round-off, so the plane is accepted
        w = sub_preset("borel-in-sl2")
        plane, _ = perturbed_plane(w, 2.0, 1)
        chart = lab._chart(w, "sub")
        eta, outside = chart.point(plane[None])
        assert not outside.any()
        assert lab._row_sup(chart.structure(eta))[0] > lab.INPUT_DEFECT_TOL
        assert chart.input_defects(plane[None], eta)[0] < 1e-14
        assert isinstance(recover_sub_orbit(w, plane), lab.RecoveryResult)

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
        chart = lab._chart(w, "sub")
        eta = np.array([[0.03, -0.02]])
        back, outside = chart.point(graph_basis(chart.frames, eta))
        assert not outside and np.allclose(back, eta, atol=1e-12)

    def test_zero_coords_give_zero_defect(self):
        w = sub_preset("borel-in-sl2")
        frames = sub_frames(w)
        mu = FloatBracket.from_exact(w.ambient)
        defect = chart_defect_flat(frames, np.zeros((1, 2)), mu.c)
        assert np.max(np.abs(defect)) == 0.0

    def test_transverse_plane_rejected(self):
        w = sub_preset("borel-in-sl2")
        plane = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])  # span{e,f}
        with pytest.raises(ChartError):
            lab._chart(w, "sub").coords(plane)


def frames_match_the_inverse(w):
    """The exact identities behind ``sub_frames``, and its readers against
    the float inverse of [basis | section]: within 1e-14, and bit for bit
    when every basis vector is a unit vector."""
    qc, basis = w.coords, Problem.of(w).inclusion.obj.matrix
    assert qc.sub_coords.mul(basis) == Matrix.identity(w.dim)
    assert qc.sub_coords.mul(qc.section).is_zero()
    assert qc.projection.mul(basis).is_zero()
    assert qc.projection.mul(qc.section) == Matrix.identity(w.quotient_dim)
    f = sub_frames(w)
    assert np.array_equal(f.basis, np.array(qc.sub_basis, dtype=float)
                          .reshape(w.dim, w.ambient.dim).T)
    oracle = np.linalg.inv(np.hstack([f.basis, f.section]))
    readers = np.vstack([f.h_reader, f.q_reader])
    assert np.abs(readers - oracle).max(initial=0.0) <= 1e-14
    if all(r == ((p, 1),) for r, p in zip(qc.sub_rows, qc.pivots)):
        assert readers.tobytes() == oracle.tobytes()


@st.composite
def rational_subspaces(draw):
    """(n, reduced echelon basis, drawn basis) of a subspace of Q^n, n <= 6,
    of any dimension 0..n: the echelon entries at free columns are p/q with
    |p| <= 5 and q <= 7, and the drawn basis mixes the echelon rows by a
    triangular change of basis with rational diagonal."""
    n = draw(st.integers(1, 6))
    pivots = sorted(draw(st.sets(st.integers(0, n - 1))))
    entry = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    echelon = [[Fraction(int(j == p)) if j <= p or j in pivots
                else draw(entry) for j in range(n)] for p in pivots]
    basis = [[c * x for x in row] for c, row in zip(
        draw(st.lists(entry.filter(bool), min_size=len(pivots),
                      max_size=len(pivots))), echelon)]
    for i in range(len(basis)):
        for row in echelon[i + 1:]:
            a = draw(entry)
            basis[i] = [x + a * y for x, y in zip(basis[i], row)]
    return n, echelon, basis


FAMILIES = bench_families()


class TestSubFrames:
    """The frames are the exact quotient coordinates read as floats; the
    float inverse of [basis | section] they replace is the oracle."""

    @pytest.mark.parametrize("w", [
        *map(sub_preset, sub_preset_names()), FAMILIES.centre_of_heis(2),
        FAMILIES.centre_of_heis(3), FAMILIES.nilradical_of_borel3(),
        FAMILIES.borel3_in_sl3()], ids=lambda w: w.name)
    def test_presets_and_bench_subalgebras(self, w):
        frames_match_the_inverse(w)

    @settings(max_examples=200, deadline=None)
    @given(rational_subspaces())
    def test_drawn_rational_subspaces(self, drawn):
        n, echelon, basis = drawn
        w = subalgebra_witness(FAMILIES.abelian(n), basis)
        assert [list(v) for v in w.coords.sub_basis] == echelon
        frames_match_the_inverse(w)


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
        rep = curve_cocycle_check(SL2, self.orbit_samples(1e-3))
        assert rep.ok
        # the derivative of an orbit curve is an exact coboundary: both the
        # cocycle defect and the class residual sit at round-off level
        assert rep.class_residual <= 1e-6
        assert max(rep.delta_defects) <= 1e-10

    def test_one_symmetric_pair_uses_the_absolute_bound(self):
        # samples at -h, 0 and h: no second step to compare the delta-defect
        # with, so no ratio, and the defect is held to the absolute bound
        rep = curve_cocycle_check(SL2, self.orbit_samples(1e-3)[1:4])
        assert rep.steps == (1e-3,) and len(rep.delta_defects) == 1
        assert rep.defect_ratio is None
        assert rep.ok and rep.delta_defects[0] <= 1e-6

    def test_requires_bracketing_samples(self):
        mu = FloatBracket.from_exact(SL2)
        with pytest.raises(ValueError):
            curve_cocycle_check(SL2,
                                [(0.0, mu), (1e-3, mu), (2e-3, mu)])

    def test_hom_curve(self):
        rho = hom_preset("borel-incl")
        base = float_matrix(rho.matrix)
        d = np.array([[0.2, 0.0], [0.0, 0.1], [0.3, 0.0]])
        h = 1e-3
        # rho + t*d is a curve of maps; its derivative d must be checked to
        # be a 1-cocycle only when it is one; use an inner direction instead
        x = np.array([0.0, 1.0, 0.0])
        mu = FloatBracket.from_exact(SL2)
        adx = ad_float(mu.c, x)
        samples = [(t, base + t * (adx @ base))
                   for t in (-2 * h, -h, 0.0, h, 2 * h)]
        rep = curve_cocycle_check(rho, samples)
        assert rep.ok and rep.class_residual <= 1e-6

    def test_sub_curve(self):
        w = sub_preset("borel-in-sl2")
        frames = sub_frames(w)
        h = 1e-3
        eta_dir = np.array([[1.0, 0.0]])  # the quotient 1-cocycle direction
        samples = [(t, graph_basis(frames, t * eta_dir))
                   for t in (-2 * h, -h, 0.0, h, 2 * h)]
        rep = curve_cocycle_check(w, samples)
        assert rep.ok

    def test_sub_curve_flags_non_cocycle_direction(self):
        w = sub_preset("borel-in-sl2")
        frames = sub_frames(w)
        h = 1e-3
        eta_dir = np.array([[0.0, 1.0]])  # not a cocycle: d(eta) != 0
        samples = [(t, graph_basis(frames, t * eta_dir))
                   for t in (-2 * h, -h, 0.0, h, 2 * h)]
        rep = curve_cocycle_check(w, samples)
        assert not rep.ok
        assert max(rep.delta_defects) > 1.0


class TestFDCheck:
    def test_bracket_kind(self):
        d = np.zeros((3, 3, 3))
        d[0, 1, 0] = 0.4
        d[1, 0, 0] = -0.4
        d[0, 2, 2] = -0.7
        d[2, 0, 2] = 0.7
        rep = vertical_derivative_fd_check(SL2, d)
        assert rep.ok and rep.kind == "bracket"
        assert rep.remainder_ratio is None or 3.5 <= rep.remainder_ratio <= 4.5

    def test_hom_kind(self):
        rho = hom_preset("borel-incl")
        d = np.array([[0.5, 0.1], [0.0, 0.2], [0.3, 0.0]])
        rep = vertical_derivative_fd_check(rho, d)
        assert rep.ok and rep.kind == "hom"

    def test_sub_kind(self):
        w = sub_preset("borel-in-sl2")
        rep = vertical_derivative_fd_check(w, np.array([[0.8, -0.3]]))
        assert rep.ok and rep.kind == "sub"

    def test_zero_direction_has_no_remainder_ratio(self):
        # F(x + h 0) - F(x) is exactly zero at both steps: the remainder has
        # no ratio, and the check holds on the absolute bound
        rep = vertical_derivative_fd_check(SL2, np.zeros((3, 3, 3)))
        assert rep.remainder_sups == (0.0, 0.0)
        assert rep.remainder_ratio is None and rep.ok

    def test_non_object_base(self):
        # the chart is read from the base's problem: a base that is no Lie
        # algebra, homomorphism or subalgebra witness has none
        with pytest.raises(TypeError):
            vertical_derivative_fd_check(SL2.candidate, np.zeros((3, 3, 3)))

    def test_problem_matches_raw_object(self):
        d = np.zeros((3, 3, 3))
        d[0, 1, 0] = 0.4
        d[1, 0, 0] = -0.4
        d[0, 2, 2] = -0.7
        d[2, 0, 2] = 0.7
        for obj, direction in (
                (SL2, d),
                (hom_preset("borel-incl"),
                 np.array([[0.5, 0.1], [0.0, 0.2], [0.3, 0.0]])),
                (sub_preset("borel-in-sl2"), np.array([[0.8, -0.3]]))):
            raw = vertical_derivative_fd_check(obj, direction)
            via = vertical_derivative_fd_check(Problem(obj), direction)
            assert via == raw  # a record of floats: field by field


class TestNewtonConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            NewtonConfig(tol=-1.0)
        with pytest.raises(ValueError):
            NewtonConfig(max_iter=0)
        # an int is a number, and a float the largest finite one
        assert NewtonConfig(tol=1).tol == 1
        assert NewtonConfig(tol=1.7976931348623157e308).max_iter == 50

    def test_defaults(self):
        cfg = NewtonConfig()
        assert cfg.tol == 1e-10 and cfg.max_iter == 50
        assert NewtonConfig.__match_args__ == ("tol", "max_iter")

    def test_there_is_no_damping(self):
        # every step is the full chord step x - P r(x)
        with pytest.raises(TypeError, match="takes the fields tol, max_iter"):
            NewtonConfig(damping=1.0)

    # Each was accepted, and run as the loop could not honour it: on sl2
    # bracket recovery, seeds 0-9 at scale 1.0, a float cap (2.5, 1e300) is
    # never equal to a round count, so it ran as the default cap did (up to
    # 33 rounds, all 10 converged; a seed that neither converged nor diverged
    # would never stop); True ran one round; an infinite tolerance marked
    # all 10 seeds converged at iteration 0.
    @pytest.mark.parametrize("bad", [
        {"max_iter": 2.5}, {"max_iter": 1e300}, {"max_iter": True},
        {"max_iter": 3.0}, {"max_iter": "3"}, {"tol": float("inf")},
        {"tol": float("nan")}, {"tol": True}, {"tol": 10 ** 400},
        {"tol": "1e-10"}],
        ids=lambda bad: "{}={!r:.12}".format(*bad, *bad.values()))
    def test_a_value_the_loop_cannot_honour_is_refused(self, bad):
        with pytest.raises(ValueError):
            NewtonConfig(**bad)

    def test_an_int_cap_stops_every_seed_at_it(self):
        # the control of the cases above: the default cap converges all 10
        # seeds, in up to 33 rounds; a cap of 3 stops each of them at 3
        default, capped = (run_experiment("bracket-recovery", SL2, range(10),
                                          1.0, cfg)
                           for cfg in (NewtonConfig(), NewtonConfig(max_iter=3)))
        assert all(r["converged"] for r in default)
        assert max(r["iterations"] for r in default) == 33
        assert [(r["iterations"], r["converged"]) for r in capped] == [
            (3, False)] * 10


class TestNewtonDivergence:
    """Divergence is a result, not an exception."""

    def test_overflow_step_keeps_last_finite_iterate(self):
        # a huge chord pseudoinverse (of a tiny jacobian) makes the first
        # step enormous and the residual overflows; the iteration must stop
        # at the finite start
        def residual(u, seeds):
            with np.errstate(over="ignore"):
                return np.exp(u) - 2.0

        u, res, iters, ok = _chord_newton(
            residual, np.zeros((1, 1)), np.array([[[1e300]]]), NewtonConfig())
        assert not ok[0] and iters[0] == 1
        assert np.all(np.isfinite(u)) and np.isfinite(res[0])

    def test_chart_exit_mid_iteration_is_nonconvergence(self):
        # a row that leaves the chart comes back non-finite
        def residual(u, seeds):
            return np.where(u != 0.0, np.nan, 1.0)

        u, res, iters, ok = _chord_newton(residual, np.zeros((1, 1)),
                                          np.array([[[1.0]]]), NewtonConfig())
        assert not ok[0] and iters[0] == 1
        assert np.all(u == 0.0) and res[0] == 1.0

    @pytest.mark.parametrize("max_iter, refreshes", [(1, 0), (2, 1)])
    def test_no_chord_refresh_in_the_last_round(self, monkeypatch, max_iter,
                                                refreshes):
        # residual u with a chord of 0.05: each step keeps 0.95 of the
        # residual, a stall; a refresh gives the exact chord, and the next
        # step converges.  A stall in the last allowed round ends its seed,
        # so no later step reads a refreshed chord and none is computed.
        calls = []
        jacobian = lab.numeric_jacobian
        monkeypatch.setattr(lab, "numeric_jacobian",
                            lambda *a: calls.append(1) or jacobian(*a))
        cfg = NewtonConfig(max_iter=max_iter)
        u, res, iters, ok = _chord_newton(lambda u, seeds: u, np.ones((1, 1)),
                                          np.array([[[0.05]]]), cfg)
        assert len(calls) == refreshes
        assert iters[0] == max_iter and ok[0] == (max_iter == 2)

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

    def test_singular_group_element_ends_newton_not_the_experiment(
            self, monkeypatch):
        # at scale 1.0 seed 52 diverges until a Jacobian refresh evaluates
        # the bracket action at a singular exp(a), which the spies see
        refreshing, singular = [], []
        regular, jacobian = lab._regular, lab.numeric_jacobian

        def spied_regular(x, tol):
            out = regular(x, tol)
            singular.append(bool(refreshing and out[2].any()))
            return out

        def spied_jacobian(*args):
            refreshing.append(True)
            try:
                return jacobian(*args)
            finally:
                refreshing.pop()

        monkeypatch.setattr(lab, "_regular", spied_regular)
        monkeypatch.setattr(lab, "numeric_jacobian", spied_jacobian)
        records = run_experiment("bracket-recovery", SL2, [52], scale=1.0)
        assert any(singular)
        assert len(records) == 1
        assert records[0]["seed"] == 52
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
    def f(u):  # a stack of points, one per row
        return np.stack([u[:, 0] ** 2, u[:, 0] * u[:, 1], u[:, 1]], axis=1)

    at = np.array([2.0, 3.0])
    jac = numeric_jacobian(f, at)
    exact = np.array([[4.0, 0.0], [3.0, 2.0], [0.0, 1.0]])
    assert np.allclose(jac, exact, atol=1e-5)


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_numeric_jacobian_evaluates_twice_per_coordinate(n):
    calls, points = [], []

    def residual(u):
        return np.concatenate([np.sin(u), [u @ u, u.sum()]])

    def counted(stack):
        calls.append(len(stack))
        points.extend(stack.copy())
        return np.array([residual(u) for u in stack])

    u = np.linspace(0.1, 0.9, n)
    jac = numeric_jacobian(counted, u)
    # one call evaluates the 2n displaced points u + h e_j, u - h e_j
    assert calls == [2 * n] and jac.shape == (n + 2, n)
    for j in range(n):
        step = np.zeros(n)
        step[j] = lab.JACOBIAN_STEP
        assert np.array_equal(points[2 * j], u + step)
        assert np.array_equal(points[2 * j + 1], u - step)
    # column j is the central difference of points 2j and 2j + 1
    for j in range(n):
        want = ((residual(points[2 * j]) - residual(points[2 * j + 1]))
                / (2 * lab.JACOBIAN_STEP))
        assert np.array_equal(jac[:, j], want)


def test_refreshed_chord_inverts_no_difference_noise(monkeypatch):
    # at scale 0.3 sl2 seed 0 stalls once; its refreshed Jacobian has
    # singular values of difference noise (the stabilizer directions), and
    # the new chord inverts none of them: its 2-norm is at most the inverse
    # of the smallest singular value it keeps, REFRESH_CUT * sigma_max
    jacobians, chords = [], []
    jacobian, pinv = lab.numeric_jacobian, np.linalg.pinv
    monkeypatch.setattr(lab, "numeric_jacobian", lambda *a: (
        jacobians.append(jacobian(*a)) or jacobians[-1]))
    monkeypatch.setattr(np.linalg, "pinv", lambda m, *args, **kwargs: (
        chords.append((m, pinv(m, *args, **kwargs))) or chords[-1][1]))
    records = run_experiment("bracket-recovery", SL2, [0], scale=0.3)
    assert records[0]["converged"] and len(jacobians) == 1
    (refreshed,) = jacobians
    (chord,) = [p for m, p in chords if m is refreshed]
    sigma = np.linalg.svd(refreshed, compute_uv=False)
    noise = sigma < lab.REFRESH_CUT * sigma[0]
    assert noise.any() and sigma[~noise].min() > 0.1 * sigma[0]
    assert np.linalg.norm(chord, 2) <= 1 / (lab.REFRESH_CUT * sigma[0])


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
            frames = SubFrames(rng.normal(size=(n, k)),
                               rng.normal(size=(n, q)), rng.normal(size=(k, n)),
                               rng.normal(size=(q, n)))
            eta = rng.normal(size=(q, k))
            assert_close(chart_defect_flat(frames, eta, mu.c),
                         chart_defect_loop(frames, eta, mu.c))

    @pytest.mark.parametrize("n", range(7))
    def test_linearization(self, n):
        # same terms in the same order: equal to the last bit
        rng = np.random.default_rng(40 + n)
        for m in range(4):
            c = rng.normal(size=(n, n, n))
            mats = rng.normal(size=(n, m, m))
            chart = SimpleNamespace(action=lambda mu: (c, mats),
                                    origin=np.zeros((m, n)))
            assert np.array_equal(_Chart.linearization(chart, None),
                                  linearization_loop(c, mats, m))


# one non-abelian algebra of each dimension 2..6, for the bracket chart
ORBIT_ALGEBRAS = {2: AFF1, 3: SL2, 4: FAMILIES.gl(2), 5: FAMILIES.borel(3),
                  6: FAMILIES.filiform(6)}


class TestOrbitKernel:
    """The bracket chart's orbit coordinates and the frame brackets keep
    every float operation of their tensordot forms, so they equal them bit
    for bit."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_acted_pairs_match_the_tensordot_form(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(40):
            c = FloatBracket(n, rng.normal(size=(n, n, n))).c
            a = np.eye(n) + rng.uniform(0.05, 1.0) * rng.normal(size=(n, n))
            want = acted_pairs_tensordot(a, c)
            acted = act_on_bracket(a, FloatBracket(n, c))
            assert np.array_equal(_pairs_flat(acted.c), want)
        # Newton's residual: the chart reads a stack of A acting on its base
        chart = lab._chart(ORBIT_ALGEBRAS[n], "bracket")
        a = np.eye(n) + rng.uniform(0.05, 1.0, size=(40, 1, 1)) * rng.normal(
            size=(40, n, n))
        got = chart.orbit_coords(a)
        for s in range(len(a)):
            assert np.array_equal(got[s],
                                  acted_pairs_tensordot(a[s], chart.origin))

    def test_refused_group_elements_give_nan_rows(self):
        # a singular and a non-finite A make their own rows NaN, and leave
        # every other row as its lone call gives it
        chart = lab._chart(SL2, "bracket")
        rng = np.random.default_rng(5)
        a = np.eye(3) + 0.3 * rng.normal(size=(5, 3, 3))
        a[1], a[3] = np.ones((3, 3)), np.full((3, 3), np.nan)
        got = chart.orbit_coords(a)
        for s in range(len(a)):
            if s in (1, 3):
                assert np.isnan(got[s]).all()
            else:
                lone = chart.orbit_coords(a[s:s + 1])[0]
                assert np.array_equal(got[s], lone)

    @pytest.mark.parametrize("n", range(0, 7))
    def test_frame_brackets_match_the_tensordot_form(self, n):
        rng = np.random.default_rng(200 + n)
        for k in range(n + 1):
            c = rng.normal(size=(n, n, n))
            frame = rng.normal(size=(n, k))
            for f in (frame, np.asfortranarray(frame)):
                assert np.array_equal(_frame_brackets(c, f),
                                      frame_brackets_tensordot(c, f))

    @pytest.mark.parametrize("a, text", [
        (np.full((3, 3), np.nan), "matrix acting on the bracket is not finite"),
        (np.ones((3, 3)), "matrix acting on the bracket is singular")])
    def test_refusals_keep_their_texts(self, a, text):
        mu = FloatBracket.from_exact(SL2)
        with pytest.raises(np.linalg.LinAlgError) as exc:
            act_on_bracket(a, mu)
        assert str(exc.value) == text

    def test_sup(self):
        rng = np.random.default_rng(7)
        arrays = [rng.normal(size=shape) for shape in ((5,), (3, 4), (2, 2, 2))]
        arrays += [np.array([1.0, -np.inf]), np.array([np.nan, 2.0]),
                   np.arange(-4, 3), np.array(-3.5)]
        for a in arrays:
            want = float(np.max(np.abs(a)))
            got = _sup(a)
            assert type(got) is float
            assert got == want or (np.isnan(got) and np.isnan(want))
        assert _sup([[1, -2.5], [0.5, 2]]) == 2.5
        for empty in (np.zeros(0), np.zeros((3, 0)), []):
            assert _sup(empty) == 0.0


@pytest.mark.parametrize("kind, name", [
    *(("hom", n) for n in hom_preset_names()),
    *(("sub", n) for n in sub_preset_names())])
def test_linearization_is_the_jacobian_of_the_structure_map(kind, name):
    # under the base bracket and perturbed ones, the continuation Jacobian is
    # the derivative of the structure map at the origin; under the base
    # bracket it is also the exact degree-1 differential
    chart = lab._chart((hom_preset if kind == "hom" else sub_preset)(name),
                       kind)
    mus = [chart.mu] + [perturbed_bracket(chart.acting, 0.05, seed)[0]
                        for seed in range(5)]
    for mu in mus:
        lin = chart.linearization(mu.c)
        numeric = numeric_jacobian(
            lambda u: chart.structure(chart.unflat(u), mu.c),
            chart.flat(chart.origin))
        assert lin.shape == numeric.shape
        assert np.max(np.abs(lin - numeric), initial=0.0) <= 1e-8
    exact = float_matrix(chart.p.complex.d(1))
    assert np.max(np.abs(chart.linearization(chart.mu.c) - exact),
                  initial=0.0) <= 1e-8


def test_sub_recovery_diagnostics_without_principal_angles():
    # a subalgebra equal to its ambient algebra has no principal angle, and
    # a recovered plane that is not finite is infinitely far off
    whole = lab._chart(subalgebra_witness(
        SL2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]), "sub")
    assert whole.recovery_diagnostics(np.eye(3), np.eye(3)) == {
        "principal_angle_sup": 0.0}
    chart = lab._chart(sub_preset("borel-in-sl2"), "sub")
    assert chart.recovery_diagnostics(np.eye(3), chart.base) == {
        "principal_angle_sup": 0.0}
    diverged = np.eye(3)
    diverged[0, 0] = np.nan
    assert chart.recovery_diagnostics(diverged, chart.base) == {
        "principal_angle_sup": float("inf")}


def test_non_finite_record_values_are_json_null():
    res = RecoveryResult(kind="sub", log_solution=np.zeros(3),
                         group_matrix=np.eye(3), residual=0.5, iterations=50,
                         converged=False, determinant=float("nan"),
                         diagnostics={"log_sup": 0.0,
                                      "principal_angle_sup": float("inf")})
    record = res.to_json_dict()
    assert record["determinant"] is None
    assert record["principal_angle_sup"] is None
    assert record["residual"] == 0.5 and record["log_sup"] == 0.0
    json.dumps(record, allow_nan=False)


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
        # the chart is kept with its object, so of several calls on one
        # object only the first converts a bracket or builds the chord
        # an equal, distinct object with nothing kept, built anew
        fresh = type(obj)(*(getattr(obj, f) for f in obj.__match_args__))
        assert fresh == obj and fresh is not obj
        assert "_problem" not in vars(fresh)
        obj = fresh
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
        for seeds in ([0], [1], list(range(5)), [2]):
            calls.update(from_exact=0, orbit_linearization=0)
            assert len(run_experiment(kind, obj, seeds)) == len(seeds)
            counts.append(dict(calls))
        assert counts[0]["from_exact"] >= 1
        assert counts[0]["orbit_linearization"] == kind.endswith("recovery")
        assert counts[1:] == [{"from_exact": 0, "orbit_linearization": 0}] * 3

    def test_records_grow_with_seeds_not_iterations(self, monkeypatch):
        # Newton's residual reads a kernel, not a FloatBracket: a seed builds
        # one perturbed bracket, and the chart at most one base bracket,
        # however many iterations follow
        built = []
        post_init = FloatBracket.__post_init__
        monkeypatch.setattr(FloatBracket, "__post_init__",
                            lambda self: built.append(self) or post_init(self))
        seeds = list(range(20))
        records = run_experiment("bracket-recovery", SL2, seeds, scale=0.3)
        assert len(built) <= len(seeds) + 1
        assert sum(r["iterations"] for r in records) > 10 * len(seeds)

    @pytest.mark.parametrize("name", ["borel-incl", "id-sl2"])
    def test_one_conversion_per_algebra(self, name, monkeypatch):
        # the hom chart reads the target's bracket from its acting chart and
        # the source's from the source's own chart: id-sl2 converts sl2 once
        converted = []
        from_exact = FloatBracket.from_exact.__func__
        monkeypatch.setattr(FloatBracket, "from_exact", classmethod(
            lambda cls, g, *args: converted.append(getattr(g, "candidate", g))
            or from_exact(cls, g, *args)))
        rho = hom_preset(name)
        assert len(run_experiment("hom-continuation", rho, [0, 1])) == 2
        assert sorted(map(id, converted)) == sorted(
            {id(rho.source.candidate), id(rho.target.candidate)})


class TestNoWarnings:
    def test_non_finite_group_element_is_refused(self):
        mu = FloatBracket.from_exact(SL2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError):
                act_on_bracket(np.full((3, 3), np.nan), mu)

    @pytest.mark.parametrize("scale, seed, overflows", [
        (1.0, 30, "group"), (1.0, 168, "determinant")])
    def test_overflowing_iterate_is_silent_nonconvergence(self, scale, seed,
                                                         overflows,
                                                         monkeypatch):
        # at scale 1.0 seed 30 diverges until exp(a) overflows, and seed 168
        # ends on an iterate whose determinant overflows
        overflowed, group = [], lab._BracketChart.group

        def spied_group(self, x):
            a = group(self, x)
            overflowed.append(not np.isfinite(a).all())
            return a

        monkeypatch.setattr(lab._BracketChart, "group", spied_group)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records = run_experiment("bracket-recovery", SL2, [seed],
                                     scale=scale)
        assert records[0]["converged"] is False
        assert any(overflowed) == (overflows == "group")
        assert (records[0]["determinant"] is None) == (
            overflows == "determinant")
