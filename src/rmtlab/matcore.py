"""Dense linear algebra kernels for small real and complex matrices.

The samplers' block kernel is written out: solve_flagged runs one
partial-pivot elimination of [B | R] over a stack of small systems, flags
each by the near-singularity rule on its pivot magnitudes and
back-substitutes the pivot rows into Z = B^-1 R.  It runs on a k-last
(m, m + c, k) copy of the stack, so that each pivot search, row swap,
update and substitution step is one numpy call over contiguous k-vectors.
near_singular is its flags alone.  The public solve_multi, log-determinants
and Cholesky factorizations go to numpy's LAPACK.  Determinants are only
ever formed in the log domain.
"""

from __future__ import annotations

import numpy as np

# Relative pivot-ratio threshold below which a factorization is flagged as
# numerically singular.  Exact singularity has probability zero for the
# ensembles sampled here; the flag only guards degenerate draws.
NEAR_SINGULAR_RATIO = 1e-12


class NotPositiveDefinite(ValueError):
    """A Cholesky pivot was not strictly positive."""


def _as_square(a, name: str = "matrix") -> np.ndarray:
    m = np.asarray(a)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    dtype = np.complex128 if np.iscomplexobj(m) else np.float64
    return m.astype(dtype, copy=False)


def solve_flagged(B, R) -> tuple[np.ndarray, np.ndarray]:
    """Solve each system of a (k, m, m) stack B and (k, m, c) stack R, and flag it.

    Runs one partial-pivot LU elimination of the augmented [B | R] on all k
    systems at once, then back-substitutes the pivot rows into Z = B^-1 R,
    of shape (k, m, c).  A system is flagged when min |pivot| <=
    NEAR_SINGULAR_RATIO * max |pivot|, with the threshold read at call time
    so it can be changed for the whole process.  Exact zero pivots, NaN
    pivots and non-finite entries are flagged instead of raising; a flagged
    system's Z is whatever the arithmetic gives, inf and NaN included.
    """
    B, R = np.asarray(B), np.asarray(R)
    k, m, c = R.shape
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if m == 1:  # the one pivot is the entry itself: min = max = |b|
            a = np.abs(B[:, 0, 0])
            return R / B, ~(a > NEAR_SINGULAR_RATIO * a)
        # (m, m + c, k): each step runs over contiguous k-vectors
        T = np.empty((m, m + c, k), dtype=np.result_type(B, R, np.float64))
        T[:, :m] = B.transpose(1, 2, 0)
        T[:, m:] = R.transpose(1, 2, 0)
        pivots = np.empty((m, k))
        system = np.arange(k)
        for j in range(m - 1):
            # columns left of j are never read again, so only j: is swapped:
            # the pivot row is read out, then row j moves to the pivot row's old place
            p = j + np.argmax(np.abs(T[j:, j]), axis=0)
            pivot_row = T[p, j:, system]  # (k, m + c - j)
            T[p, j:, system] = T[j, j:].T
            T[j, j:] = pivot_row.T
            d = T[j, j]
            pivots[j] = np.abs(d)
            mult = T[j + 1:, j] / d
            T[j + 1:, j + 1:] -= mult[:, None] * T[j, None, j + 1:]
        pivots[-1] = np.abs(T[-1, m - 1])  # the last step has one candidate row
        # back-substitution in place: row i of Z replaces row i's right-hand side
        for i in range(m - 1, -1, -1):
            T[i, m:] /= T[i, i]
            T[:i, m:] -= T[:i, i, None] * T[i, None, m:]
    flagged = ~(pivots.min(axis=0) > NEAR_SINGULAR_RATIO * pivots.max(axis=0))
    return T[:, m:].transpose(2, 0, 1).copy(), flagged


def near_singular(B) -> np.ndarray:
    """Flag each matrix of a (k, m, m) stack by solve_flagged's pivot-ratio rule."""
    B = np.asarray(B)
    return solve_flagged(B, np.empty((*B.shape[:2], 0), B.dtype))[1]


def solve_multi(B, X) -> np.ndarray:
    """Solve B @ Z = X for a vector or matrix right-hand side on LAPACK.

    Raises ValueError for a non-square or non-finite B and
    numpy.linalg.LinAlgError for an exactly singular one.
    """
    return np.linalg.solve(_as_square(B, "B"), X)


def _cholesky(S: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from None


def _cholesky_logdet(S: np.ndarray) -> np.ndarray:
    """log det of each Hermitian positive definite matrix in a stack."""
    return 2.0 * np.log(np.diagonal(_cholesky(S), axis1=-2, axis2=-1).real).sum(axis=-1)


def cholesky(S) -> np.ndarray:
    """Lower Cholesky factor L, S = L L^H, of a symmetric (Hermitian) positive definite S.

    Raises NotPositiveDefinite when the factorization fails.
    """
    return _cholesky(_as_square(S, "S"))


def spd_logdet(S) -> float:
    """log det of a symmetric (Hermitian) positive definite matrix.

    Raises NotPositiveDefinite when the Cholesky factorization fails.
    """
    return float(_cholesky_logdet(_as_square(S, "S")))


def gram_logdet(Z) -> np.ndarray:
    """log det(I + Z Z^H) for each matrix of a (k, m, n) stack.

    The per-draw statistic of the samplers: one stacked Cholesky, accurate
    while the singular values of Z stay below ~1e8.  The densities take the
    same quantity from singular values, which holds for any finite Z.
    """
    Z = np.asarray(Z)
    G = Z @ np.swapaxes(Z.conj(), -1, -2)
    diag = np.arange(Z.shape[-2])
    G[..., diag, diag] += 1.0
    return _cholesky_logdet(G)
