"""Tests for the small dense linear algebra kernels."""

import math

import numpy as np
import pytest

from rmtlab import matcore as mc


def det3_cofactor(a):
    """Independent 3x3 determinant oracle by cofactor expansion."""
    return (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    )


def unpack(f):
    """The L and U triangles packed in an LuFactors."""
    L = np.tril(f.packed, -1)
    np.fill_diagonal(L, 1.0)
    return L, np.triu(f.packed)


class TestLuFactor:
    def test_identity(self):
        f = mc.lu_factor(np.eye(3))
        assert np.array_equal(f.perm, [0, 1, 2])
        assert f.sign == 1
        L, U = unpack(f)
        assert np.allclose(L, np.eye(3))
        assert np.allclose(U, np.eye(3))

    def test_diagonal(self):
        f = mc.lu_factor(np.diag([2.0, 3.0]))
        assert np.allclose(unpack(f)[1], np.diag([2.0, 3.0]))
        assert f.sign == 1

    def test_row_swap_sign(self):
        f = mc.lu_factor(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert f.sign == -1
        assert sorted(f.perm.tolist()) == [0, 1] and f.perm[0] == 1

    def test_reconstruction_random(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            B = rng.standard_normal((n, n))
            f = mc.lu_factor(B)
            L, U = unpack(f)
            scale = max(1.0, np.abs(B).max())
            assert np.abs(B[f.perm] - L @ U).max() <= 1e-10 * scale

    def test_reconstruction_complex(self):
        rng = np.random.default_rng(102)
        B = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        f = mc.lu_factor(B)
        L, U = unpack(f)
        assert np.abs(B[f.perm] - L @ U).max() <= 1e-10 * np.abs(B).max()

    def test_exact_zero_pivot_column_raises(self):
        with pytest.raises(mc.SingularMatrix):
            mc.lu_factor(np.array([[0.0, 1.0], [0.0, 2.0]]))
        with pytest.raises(mc.SingularMatrix):
            mc.lu_factor(np.zeros((1, 1)))

    def test_near_singular_flag(self):
        assert mc.lu_factor(np.array([[1.0, 0.0], [0.0, 1e-14]])).near_singular
        assert not mc.lu_factor(np.array([[1.0, 0.0], [0.0, 1e-6]])).near_singular

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            mc.lu_factor(np.array([[np.nan, 0.0], [0.0, 1.0]]))


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
        with pytest.raises(mc.SingularMatrix):
            mc.solve_multi(np.zeros((2, 2)), np.ones((2, 1)))


class TestLogAbsDet:
    def test_diag(self):
        la, s = mc.log_abs_det(np.diag([2.0, 3.0]))
        assert abs(la - math.log(6.0)) < 1e-12
        assert s == 1

    def test_identity(self):
        la, s = mc.log_abs_det(np.eye(4))
        assert la == 0.0 and s == 1

    def test_against_cofactor_expansion(self):
        rng = np.random.default_rng(104)
        for _ in range(100):
            B = rng.standard_normal((3, 3))
            la, s = mc.log_abs_det(B)
            ref = det3_cofactor(B)
            assert abs(math.exp(la) - abs(ref)) <= 1e-10 * abs(ref)
            assert s == math.copysign(1.0, ref)

    def test_singular_encoded_not_raised(self):
        la, s = mc.log_abs_det(np.zeros((2, 2)))
        assert la == -math.inf and s == 0

    def test_product_rule(self):
        rng = np.random.default_rng(105)
        for _ in range(100):
            B1 = rng.standard_normal((4, 4))
            B2 = rng.standard_normal((4, 4))
            la1, _ = mc.log_abs_det(B1)
            la2, _ = mc.log_abs_det(B2)
            la12, _ = mc.log_abs_det(B1 @ B2)
            assert abs(la12 - la1 - la2) < 1e-8


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


class TestNearSingularStack:
    def test_matches_single_matrix_rule(self, monkeypatch):
        # the stacked flag is LuFactors.near_singular applied to each matrix,
        # at the default threshold and at one that flags about half of them
        rng = np.random.default_rng(114)
        for ratio in (mc.NEAR_SINGULAR_RATIO, 0.3):
            monkeypatch.setattr(mc, "NEAR_SINGULAR_RATIO", ratio)
            for m in (1, 2, 3, 6):
                B = rng.standard_normal((200, m, m))
                B[::7, :, 0] *= 1e-14  # a near-zero column in every seventh matrix
                want = [mc.lu_factor(b).near_singular for b in B]
                assert mc.near_singular(B).tolist() == want

    def test_complex_stack(self):
        rng = np.random.default_rng(115)
        B = rng.standard_normal((50, 3, 3)) + 1j * rng.standard_normal((50, 3, 3))
        B[3, 2] *= 1e-14  # a near-zero row
        flags = mc.near_singular(B)
        assert flags[3] and flags.tolist() == [mc.lu_factor(b).near_singular for b in B]

    def test_zero_and_nonfinite_flagged(self):
        B = np.stack([np.eye(2), np.zeros((2, 2)), [[1.0, np.nan], [0.0, 1.0]], [[0.0, 1.0], [0.0, 2.0]]])
        assert mc.near_singular(B).tolist() == [False, True, True, True]


class TestGramLogdet:
    def test_matches_spd_logdet(self):
        rng = np.random.default_rng(116)
        for shape, field in (((40, 1, 1), float), ((40, 3, 2), float), ((40, 2, 4), complex)):
            Z = rng.standard_normal(shape).astype(field)
            if field is complex:
                Z += 1j * rng.standard_normal(shape)
            got = mc.gram_logdet(Z)
            want = [mc.spd_logdet(np.eye(shape[1]) + z @ z.conj().T) for z in Z]
            assert np.abs(got - want).max() < 1e-12 * max(1.0, np.abs(want).max())
