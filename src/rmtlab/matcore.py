"""Dense linear algebra kernels for small real and complex matrices.

Solves, log-determinants and Cholesky factorizations go to numpy's LAPACK,
stacked over many small matrices at once where the samplers need them.
Only the near-singularity rejection rule stays written out: a partial-pivot
elimination over a stack of matrices that keeps just the pivot magnitudes.
It runs on a k-last (m, m, k) copy of the stack, so that each pivot search,
row swap and update is one numpy call over contiguous k-vectors.
Determinants are only ever formed in the log domain.
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


def near_singular(B) -> np.ndarray:
    """Flag each matrix of a (k, m, m) stack by the pivot-ratio rule.

    Runs a partial-pivot LU elimination on all k matrices at once.  A
    matrix is flagged when min |pivot| <= NEAR_SINGULAR_RATIO * max |pivot|,
    with the threshold read at call time so it can be changed for the whole
    process.  Exact zero pivots, NaN pivots and non-finite entries are
    flagged instead of raising.
    """
    A = np.asarray(B, dtype=np.result_type(B, np.float64))
    m = A.shape[-1]
    if m == 1:  # the one pivot is the entry itself: min = max = |b|
        a = np.abs(A[:, 0, 0])
        return ~(a > NEAR_SINGULAR_RATIO * a)
    T = A.transpose(1, 2, 0).copy()  # (m, m, k): each step runs over contiguous k-vectors
    pivots = np.empty(T.shape[1:])
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(m - 1):
            # columns left of j are never read again, so only j: is swapped:
            # the pivot row is read out, then row j moves to the pivot row's old place
            p = np.argmax(np.abs(T[j:, j]), axis=0)[None, None]
            pivot_row = np.take_along_axis(T[j:, j:], p, axis=0)[0]
            T[j:, j:] = np.where(np.arange(m - j)[:, None, None] == p, T[j, j:], T[j:, j:])
            T[j, j:] = pivot_row
            d = T[j, j]
            pivots[j] = np.abs(d)
            mult = T[j + 1:, j] / d
            T[j + 1:, j + 1:] -= mult[:, None] * T[j, None, j + 1:]
    pivots[-1] = np.abs(T[-1, -1])  # the last step has one candidate row
    return ~(pivots.min(axis=0) > NEAR_SINGULAR_RATIO * pivots.max(axis=0))


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
