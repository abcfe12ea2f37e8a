"""Tests for the small dense linear algebra kernels."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmtlab import matcore as mc


def reference_pivots(B):
    """|pivot| of each step of a partial-pivot LU of one square matrix.

    The single-matrix form of the rule that matcore.solve_flagged runs on a
    stack; exact zero and non-finite pivots come out as 0, inf or NaN.
    """
    A = np.array(B, dtype=np.result_type(B, np.float64))
    n = len(A)
    pivots = np.empty(n)
    for k in range(n):
        p = k + int(np.argmax(np.abs(A[k:, k])))
        A[[k, p]] = A[[p, k]]
        pivots[k] = abs(A[k, k])
        with np.errstate(divide="ignore", invalid="ignore"):
            A[k + 1:, k + 1:] -= np.outer(A[k + 1:, k] / A[k, k], A[k, k + 1:])
    return pivots


def flags_alone(B) -> np.ndarray:
    """solve_flagged's flags of a (k, m, m) stack B, with no right-hand side."""
    B = np.asarray(B)
    return mc.solve_flagged(B, np.empty((*B.shape[:2], 0), B.dtype))[1]


def reference_flag(B) -> bool:
    pivots = reference_pivots(B)
    return not pivots.min() > mc.NEAR_SINGULAR_RATIO * pivots.max()


class TestLuFactor:
    # the reference pivots are checked against LAPACK through prod |pivots|
    # == |det B|; the stacked rule and the LAPACK solve against known cases

    def test_identity(self):
        assert reference_pivots(np.eye(3)).tolist() == [1.0, 1.0, 1.0]
        assert not flags_alone(np.eye(3)[None]).any()

    def test_diagonal(self):
        assert reference_pivots(np.diag([2.0, -3.0])).tolist() == [2.0, 3.0]

    @staticmethod
    def _check_abs_det(B):
        want = np.linalg.slogdet(B)[1]
        assert abs(np.log(reference_pivots(B)).sum() - want) <= 1e-10 * max(1.0, abs(want))

    def test_reconstruction_random(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            self._check_abs_det(rng.standard_normal((n, n)))

    def test_reconstruction_complex(self):
        rng = np.random.default_rng(102)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            self._check_abs_det(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))

    def test_exact_zero_pivot_column_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            mc.solve_multi(np.array([[0.0, 1.0], [0.0, 2.0]]), np.ones(2))
        with pytest.raises(np.linalg.LinAlgError):
            mc.solve_multi(np.zeros((1, 1)), np.ones(1))

    def test_near_singular_flag(self):
        B = np.array([[[1.0, 0.0], [0.0, 1e-14]], [[1.0, 0.0], [0.0, 1e-6]]])
        assert flags_alone(B).tolist() == [True, False]

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            mc.solve_multi(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.ones(2))


class TestSolve:
    def test_identity_passthrough(self):
        X = np.arange(6.0).reshape(3, 2)
        assert np.allclose(mc.solve_multi(np.eye(3), X), X)

    def test_diagonal(self):
        Z = mc.solve_multi(np.diag([2.0, 4.0]), np.array([[2.0], [8.0]]))
        assert np.allclose(Z, [[1.0], [2.0]])

    def test_residual_many_instances(self):
        # the residual bound is its own oracle
        rng = np.random.default_rng(103)
        for _ in range(1000):
            n = int(rng.integers(1, 8))
            B = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
            X = rng.standard_normal((n, int(rng.integers(1, 4))))
            Z = mc.solve_multi(B, X)
            assert np.abs(B @ Z - X).max() <= 1e-8 * np.abs(X).max()

    def test_vector_rhs(self):
        B = np.array([[2.0, 1.0], [1.0, 3.0]])
        x = np.array([3.0, 4.0])
        z = mc.solve_multi(B, x)
        assert z.shape == (2,)
        assert np.allclose(B @ z, x)

    def test_singular_propagates(self):
        with pytest.raises(np.linalg.LinAlgError):
            mc.solve_multi(np.zeros((2, 2)), np.ones((2, 1)))


class TestSpdLogdet:
    def test_identity(self):
        assert mc.spd_logdet(np.eye(5)) == 0.0

    def test_gram_of_zero(self):
        assert mc.spd_logdet(np.eye(3) + np.zeros((3, 3))) == 0.0

    def test_diag(self):
        assert abs(mc.spd_logdet(np.diag([2.0, 5.0])) - math.log(10.0)) < 1e-12

    def test_not_positive_definite(self):
        with pytest.raises(mc.NotPositiveDefinite):
            mc.spd_logdet(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_matches_lapack(self):
        rng = np.random.default_rng(106)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            Z = rng.standard_normal((n, n + 1))
            S = np.eye(n) + Z @ Z.T
            assert abs(mc.spd_logdet(S) - np.linalg.slogdet(S)[1]) <= 1e-10 * max(
                1.0, abs(np.linalg.slogdet(S)[1])
            )

    def test_hermitian_complex(self):
        rng = np.random.default_rng(107)
        Z = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        S = np.eye(3) + Z @ Z.conj().T
        assert abs(mc.spd_logdet(S) - np.linalg.slogdet(S)[1].real) < 1e-10


class TestSingularValueTie:
    def test_gram_logdet_is_function_of_singular_values(self):
        # log det(1 + Z Z^T) must equal sum log(1 + sigma_i^2)
        rng = np.random.default_rng(113)
        for _ in range(50):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(1, 6))
            Z = rng.standard_normal((m, n))
            lhs = mc.spd_logdet(np.eye(m) + Z @ Z.T)
            sv = np.linalg.svd(Z, compute_uv=False)
            rhs = np.sum(np.log1p(sv**2))
            assert abs(lhs - rhs) < 1e-8


def stack_flags(B, rng):
    """solve_flagged's flags of B with no right-hand side, checked equal to those with 1 and 3 random ones."""
    flags = flags_alone(B).tolist()
    for c in (1, 3):
        R = rng.standard_normal((*B.shape[:2], c)).astype(B.dtype)
        assert mc.solve_flagged(B, R)[1].tolist() == flags
    return flags


class TestNearSingularStack:
    def test_matches_single_matrix_rule(self, monkeypatch):
        # the stacked flag is the single-matrix rule applied to each matrix,
        # at the default threshold and at one that flags about half of them
        rng = np.random.default_rng(114)
        for ratio in (mc.NEAR_SINGULAR_RATIO, 0.3):
            monkeypatch.setattr(mc, "NEAR_SINGULAR_RATIO", ratio)
            for m in (1, 2, 3, 6):
                B = rng.standard_normal((200, m, m))
                B[::7, :, 0] *= 1e-14  # a near-zero column in every seventh matrix
                want = [reference_flag(b) for b in B]
                assert stack_flags(B, rng) == want

    def test_complex_stack(self):
        rng = np.random.default_rng(115)
        B = rng.standard_normal((50, 3, 3)) + 1j * rng.standard_normal((50, 3, 3))
        B[3, 2] *= 1e-14  # a near-zero row
        flags = stack_flags(B, rng)
        assert flags[3] and flags == [reference_flag(b) for b in B]

    def test_zero_and_nonfinite_flagged(self):
        B = np.stack([np.eye(2), np.zeros((2, 2)), [[1.0, np.nan], [0.0, 1.0]], [[0.0, 1.0], [0.0, 2.0]]])
        assert stack_flags(B, np.random.default_rng(117)) == [False, True, True, True]
        assert [reference_flag(b) for b in B] == [False, True, True, True]

    def test_one_by_one_stack(self, monkeypatch):
        # at m = 1 the only pivot is the entry: flagged iff it is 0, inf or NaN
        b = [0.0, np.inf, -np.inf, np.nan, 1e-300, 5e-324, -2.5, 1e300, 0.7]
        B = np.array(b).reshape(-1, 1, 1)
        want = [True, True, True, True, False, False, False, False, False]
        rng = np.random.default_rng(118)
        for ratio in (mc.NEAR_SINGULAR_RATIO, 0.3):
            monkeypatch.setattr(mc, "NEAR_SINGULAR_RATIO", ratio)
            assert stack_flags(B, rng) == want
            assert stack_flags(B * (1 - 1j), rng) == want
            assert [reference_flag(x) for x in B] == want

    @pytest.mark.parametrize("is_complex", [False, True])
    @pytest.mark.parametrize("m", range(1, 9))
    def test_solutions_are_backward_stable(self, m, is_complex):
        # an unflagged system is solved to a backward error of a few
        # rounding errors per row: |B Z - R| <= 4 m eps |B| |Z| (Frobenius)
        rng = np.random.default_rng(119 + m)
        B = rng.standard_normal((300, m, m))
        R = rng.standard_normal((300, m, 3))
        if is_complex:
            B = B + 1j * rng.standard_normal(B.shape)
            R = R + 1j * rng.standard_normal(R.shape)
        B[::3] *= np.logspace(-4, 4, m)  # graded columns in every third system
        Z, flagged = mc.solve_flagged(B, R)
        assert Z.shape == R.shape and Z.dtype == R.dtype and not flagged.any()
        norm = lambda a: np.linalg.norm(a, axis=(1, 2))
        assert (norm(B @ Z - R) <= 4 * m * np.finfo(float).eps * norm(B) * norm(Z)).all()


def make_special(kind: str, b: np.ndarray, rng: np.random.Generator) -> None:
    """Turn the square matrix b, in place, into a matrix of the given kind."""
    i, j = rng.integers(len(b), size=2)
    if kind == "zero":
        b[...] = 0.0
    elif kind == "tiny":
        b *= 1e-300
    elif kind == "repeated-row":
        b[(i + 1) % len(b)] = b[i]
    elif kind != "normal":  # a non-finite entry
        b[i, j] = float(kind)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    m=st.integers(1, 8),
    is_complex=st.booleans(),
    kinds=st.lists(st.sampled_from(["normal", "zero", "tiny", "repeated-row", "nan", "inf", "-inf"]),
                   min_size=1, max_size=64),
    ratio=st.sampled_from([1e-12, 0.3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_near_singular_is_the_single_matrix_rule(m, is_complex, kinds, ratio, seed):
    # solve_flagged flags by the same rule, whatever its right-hand sides
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((len(kinds), m, m))
    if is_complex:
        B = B + 1j * rng.standard_normal(B.shape)
    for b, kind in zip(B, kinds):
        make_special(kind, b, rng)
    with mock.patch.object(mc, "NEAR_SINGULAR_RATIO", ratio):
        assert stack_flags(B, rng) == [reference_flag(b) for b in B]


def normal_stack(rng, shape, field=float):
    """A stack of standard normal matrices, complex ones normal in both parts."""
    Z = rng.standard_normal(shape).astype(field)
    if field is complex:
        Z += 1j * rng.standard_normal(shape)
    return Z


class TestGramLogdet:
    # every side is the smaller one somewhere: n > m, n < m, n = 1 and m = 1
    CASES = list(itertools.product([(1, 1), (1, 4), (4, 1), (3, 2), (2, 5), (2, 2), (8, 4), (4, 8)],
                                   [float, complex]))

    @staticmethod
    def stacks(rng, m, n, field):
        """A C-order (40, m, n) stack, and solve_flagged's k-last view of another."""
        B = normal_stack(rng, (40, m, m), field) + 2 * m * np.eye(m)  # well conditioned
        Z, flagged = mc.solve_flagged(B, normal_stack(rng, (40, m, n), field))
        assert not flagged.any() and Z.flags.c_contiguous == (m == 1)  # R / B at m = 1
        return normal_stack(rng, (40, m, n), field), Z

    def test_matches_spd_logdet(self):
        rng = np.random.default_rng(116)
        for (m, n), field in self.CASES:
            for Z in self.stacks(rng, m, n, field):
                got = mc.gram_logdet(Z)
                want = [mc.spd_logdet(np.eye(m) + z @ z.conj().T) for z in Z]
                assert got.shape == (40,) and np.abs(got - want).max() < 1e-12 * max(1.0, np.abs(want).max()), (m, n)

    def test_bits_do_not_depend_on_layout(self):
        # the Gram is summed in a fixed order, so C-order and Fortran-order
        # copies of solve_flagged's view give the view's bits
        rng = np.random.default_rng(117)
        for (m, n), field in self.CASES:
            Z = self.stacks(rng, m, n, field)[1]
            got = mc.gram_logdet(Z).tobytes()
            for copy in (np.ascontiguousarray(Z), np.asfortranarray(Z)):
                assert mc.gram_logdet(copy).tobytes() == got, (m, n)

    def test_matches_mpmath_on_cauchy_tails(self):
        # 40-digit log det(I + Z Z^T) of the 8 x 8 side; the 4 x 4 side's
        # LDL^H is within 64 eps relative, which LAPACK's 8 x 8 Cholesky of
        # I + Z Z^T (off by 7e-14 here) is not
        mpmath = pytest.importorskip("mpmath")
        Z = np.random.default_rng(108).standard_cauchy((128, 8, 4))
        got = mc.gram_logdet(Z)
        with mpmath.workdps(40):
            want = []
            for z in Z:
                A = mpmath.matrix(z.tolist())
                want.append(float(mpmath.log(mpmath.det(mpmath.eye(8) + A * A.T))))
        assert (np.abs(got - want) <= 64 * np.finfo(float).eps * np.abs(want)).all()

    @pytest.mark.parametrize("m, n", [(1, 1), (3, 2), (2, 5)])
    def test_nan_is_not_positive_definite(self, m, n):
        Z = np.ones((4, m, n))
        Z[2, -1, -1] = np.nan
        with pytest.raises(mc.NotPositiveDefinite):
            mc.gram_logdet(Z)
