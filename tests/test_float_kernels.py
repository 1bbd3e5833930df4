"""The Newton lab's NumPy kernels against SciPy, which the tests alone use as
an oracle: the stacked Padé exponential ``expm`` and the largest principal
angle between two planes.  And its seeded perturbation stream against
``numpy.random``, which the tests alone load, as an oracle, and against a
table of its own."""

import sys
import warnings

import numpy as np
import pytest

import liedeform.deformlab as lab
from liedeform import catalog_algebra


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


def numpy_draws(seeds, scale, shape):
    """The oracle: ``default_rng(seed).uniform(-scale, scale, shape)`` of
    each seed, up to the first that raises, stacked, and the type and text
    of what it raised, or None."""
    rows, refused = [], None
    for seed in seeds:
        try:
            rows.append(np.random.default_rng(seed).uniform(-scale, scale,
                                                            shape))
        except Exception as exc:  # the type and text of NumPy's refusal
            refused = (type(exc), str(exc))
            break
    return np.array(rows).reshape((len(rows),) + shape), refused


def refusal(exc):
    return exc and (type(exc), str(exc))


# seeds of one entropy word, and of two, three, five and seven
BIG_SEEDS = [2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128, 2**128 + 5,
             2**200 + 7]
# (seed, scale, draws as hex floats), from NumPy 2.4.6's default_rng: a
# NumPy release may change its Generator streams (NEP 19), and the records
# stay reproducible by this table
GOLDEN = [
    (0, 0.05, ["0x1.c0cbca647ced0p-7", "-0x1.792e736320f47p-6",
               "-0x1.7808d4489d6d2p-5"]),
    (9, 0.3, ["0x1.c6f6542b9f98ep-3", "-0x1.05f581e82fde6p-3",
              "0x1.fafe68d5654c0p-5", "0x1.5508ac6e6772ep-3"]),
    (2**32, 1.0, ["0x1.8f17af8a16b04p-1", "0x1.d4132d1fc63b0p-4"]),
    (2**200 + 7, 40.0, ["0x1.e6867bb171380p+4", "-0x1.7b20f989c445cp+3",
                        "0x1.7f399c4a144b0p+1"]),
    (2**64 - 1, 1e300, ["0x1.13457cb256138p+995", "0x1.080044857096ap+996"]),
]


NEGATIVE_SEED = (ValueError, "expected non-negative integer")
NEGATIVE_WIDTH = (ValueError, "high - low < 0")
WIDE = (OverflowError, "high - low range exceeds valid bounds")


class TestSeededStream:
    """``deformlab._uniform``, the x0 of every seed of a band in one draw,
    equals ``np.random.default_rng(seed).uniform(-scale, scale, shape)``
    byte for byte, and refuses what it refuses, at the same seed."""

    @pytest.mark.parametrize("shape", [(0,), (1,), (3,), (3, 3), (5, 5),
                                       (100,)])
    @pytest.mark.parametrize("scale", [0.0, 0.05, 0.3, 40.0, 1e300,
                                       sys.float_info.max / 2])
    def test_band_equals_numpy(self, scale, shape):
        seeds = [*range(3000), *BIG_SEEDS]
        got, refused = lab._uniform(seeds, scale, shape)
        want, _ = numpy_draws(seeds, scale, shape)
        assert refused is None and got.shape == (len(seeds),) + shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(0,), (3,), (5, 5)])
    def test_band_equals_its_one_seed_draws(self, shape):
        seeds = [*range(0, 3000, 97), *BIG_SEEDS, 5, 5]
        band, _ = lab._uniform(seeds, 0.3, shape)
        for seed, row in zip(seeds, band):
            one, refused = lab._uniform([seed], 0.3, shape)
            assert refused is None and one.shape == (1,) + shape
            assert one[0].tobytes() == row.tobytes()

    def test_numpy_integer_and_bool_seeds(self):
        seeds = [np.int64(7), np.uint64(2**64 - 1), np.int32(3), True, False]
        got, refused = lab._uniform(seeds, 0.05, (25,))
        assert refused is None
        assert got.tobytes() == numpy_draws(seeds, 0.05, (25,))[0].tobytes()
        assert got[3].tobytes() == lab._uniform([1], 0.05, (25,))[0].tobytes()

    @pytest.mark.parametrize("seed, scale, hexes", GOLDEN)
    def test_golden_draws(self, seed, scale, hexes):
        # independent of NumPy's own stream
        got, refused = lab._uniform([seed], scale, (len(hexes),))
        assert refused is None
        assert [float.fromhex(h) for h in hexes] == got[0].tolist()

    @pytest.mark.parametrize("seeds, scale, want", [
        ([0, 1, -1, 2], 0.3, NEGATIVE_SEED),
        ([4, np.int64(-2)], 0.3, NEGATIVE_SEED),
        ([0], -0.05, NEGATIVE_WIDTH),
        # a negative zero width has its sign bit set
        ([0], -0.0, NEGATIVE_WIDTH),
        ([0, 1], float("inf"), WIDE),
        ([0], float("nan"), WIDE),
        ([0], -float("inf"), WIDE),
        ([0], sys.float_info.max, WIDE),
        # the seed is refused before the width
        ([-1, 0], -1.0, NEGATIVE_SEED),
        ([-1], float("inf"), NEGATIVE_SEED),
        # a refused width refuses the first seed; no seed, no refusal
        ([5, -1], float("inf"), WIDE),
        ([], float("nan"), None),
        # a scale that is no float is read, and refused, as NumPy reads it
        ([0, 1], "0.3", (TypeError, "bad operand type for unary -: 'str'")),
        ([-1], "0.3", NEGATIVE_SEED),
        ([0], 10**400, (OverflowError, "int too large to convert to float")),
        ([], None, None),
    ])
    def test_refusals_equal_numpy(self, seeds, scale, want):
        got, refused = lab._uniform(seeds, scale, (3,))
        oracle, numpy_refused = numpy_draws(seeds, scale, (3,))
        assert refusal(refused) == numpy_refused == want
        assert got.shape == oracle.shape
        assert got.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("seed", [None, 1.0, 2.5, "3", np.float64(4.0),
                                      [1, 2]])
    def test_a_seed_that_is_no_integer_is_a_type_error(self, seed):
        # NumPy read None as fresh entropy from the OS, which no seeded
        # record should use
        got, refused = lab._uniform([0, seed, 1], 0.05, (3,))
        assert len(got) == 1 and isinstance(refused, TypeError)
        with pytest.raises(TypeError):
            lab.run_experiment("bracket-recovery", catalog_algebra("sl2"),
                               [seed])
