"""The Newton lab's NumPy kernels against SciPy, which the tests alone use as
an oracle: the stacked Padé exponential ``expm`` and the largest principal
angle between two planes."""

import warnings

import numpy as np
import pytest

import liedeform.deformlab as lab


def random_matrices(rng, n, count):
    """``count`` random n x n matrices, each scaled to a 1-norm drawn
    uniformly from [0, 50 n]: every Padé degree and scalings up to s = 7."""
    out = rng.standard_normal((count, n, n))
    if n:
        norms = np.abs(out).sum(axis=-2).max(axis=-1)
        out *= (rng.uniform(0, 50 * n, count) / norms)[:, None, None]
    return out


class TestExpm:
    @pytest.mark.parametrize("n", range(10))
    def test_agrees_with_scipy(self, n):
        import scipy.linalg
        rng = np.random.default_rng(n)
        for a in random_matrices(rng, n, 40):
            got, want = lab.expm(a), scipy.linalg.expm(a)
            assert got.shape == want.shape == (n, n)
            if n:
                assert (np.abs(got - want).max()
                        <= 1e-10 * np.abs(want).max())

    def test_small_norms_take_every_degree(self):
        import scipy.linalg
        # 1-norms at and just past each Higham threshold
        rng = np.random.default_rng(1)
        base = rng.standard_normal((4, 4))
        base /= np.abs(base).sum(axis=0).max()
        for _, theta in lab._PADE_THETA:
            for norm in (theta, theta * (1 + 1e-9)):
                a = norm * base
                want = scipy.linalg.expm(a)
                assert (np.abs(lab.expm(a) - want).max()
                        <= 1e-13 * np.abs(want).max())

    def test_stack_equals_lone_calls_bit_for_bit(self):
        # mixed norms, so the stack splits into several (m, s) groups, with a
        # zero matrix and a non-finite one among them
        rng = np.random.default_rng(7)
        stack = random_matrices(rng, 4, 30)
        stack[3] = 0.0
        stack[11, 2, 1] = np.nan
        together = lab.expm(stack)
        for i, a in enumerate(stack):
            assert together[i].tobytes() == lab.expm(a).tobytes()
            one = lab.expm(stack[i:i + 1])[0]
            assert together[i].tobytes() == one.tobytes()
        assert together[::3].tobytes() == lab.expm(stack[::3]).tobytes()
        # a transposed view is read as its values, not as its memory
        view = stack.swapaxes(-1, -2)
        assert lab.expm(view).tobytes() == lab.expm(view.copy()).tobytes()

    @pytest.mark.parametrize("shape", [(0, 3, 3), (4, 0, 0), (0, 0),
                                       (2, 0, 1, 1)])
    def test_empty_stacks_and_matrices(self, shape):
        out = lab.expm(np.zeros(shape))
        assert out.shape == shape and out.dtype == float

    def test_zero_matrix_is_the_identity(self):
        assert lab.expm(np.zeros((5, 5))).tobytes() == np.eye(5).tobytes()
        assert lab.expm(np.zeros((2, 1, 1))).tolist() == [[[1.0]], [[1.0]]]

    def test_non_finite_input_and_overflow_are_silent(self):
        nan, inf = np.eye(3), np.eye(3)
        nan[0, 1], inf[2, 2] = np.nan, np.inf
        stack = np.stack([nan, inf, np.eye(3), 1000.0 * np.eye(3)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = lab.expm(stack)
            lone = lab.expm(-np.inf * np.ones((3, 3)))
        assert np.isnan(out[0]).all() and np.isnan(out[1]).all()
        assert np.isnan(lone).all()
        assert out[2].tobytes() == lab.expm(np.eye(3)).tobytes()
        # exp(1000) overflows: the diagonal reads inf, and nothing raises
        assert not np.isfinite(out[3]).all()


class TestLargestPrincipalAngle:
    @pytest.mark.parametrize("n, k", [(2, 1), (3, 1), (3, 2), (5, 2), (6, 3),
                                      (8, 5)])
    def test_agrees_with_scipy(self, n, k):
        import scipy.linalg
        rng = np.random.default_rng(10 * n + k)
        for size in (1e-12, 1e-6, 1e-2, 0.5, 3.0):
            a = rng.standard_normal((n, k))
            b = a + size * rng.standard_normal((n, k))
            want = scipy.linalg.subspace_angles(a, b).max()
            got = lab.largest_principal_angle(a, b)
            assert abs(got - want) <= 1e-12 * want + 1e-15

    def test_reads_both_branches(self):
        e = np.eye(3)
        # the planes span{e0, e1} and span{e0, e2} meet at a right angle:
        # the smallest cosine is 0, read through the arccos
        assert lab.largest_principal_angle(e[:, :2], e[:, [0, 2]]) == (
            pytest.approx(np.pi / 2, abs=1e-15))
        # a small rotation is read through the arcsin of the largest sine
        t = 1e-9
        turned = np.array([[1.0, 0.0], [0.0, np.cos(t)], [0.0, np.sin(t)]])
        assert lab.largest_principal_angle(e[:, :2], turned) == (
            pytest.approx(t, rel=1e-6))
        # the same plane in another frame
        swapped = 3.0 * e[:, 1::-1]
        assert lab.largest_principal_angle(e[:, :2], swapped) <= 1e-15
