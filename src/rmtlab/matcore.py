"""Dense linear algebra kernels for small real and complex matrices.

The samplers' two block kernels are written out, each on a k-last array,
so that every step is one numpy call over contiguous k-vectors.
solve_flagged runs one partial-pivot elimination of [B | R] over a stack of
small systems on an (m, m + c, k) copy, flags each by the near-singularity
rule on its pivot magnitudes, back-substitutes the pivot rows into
Z = B^-1 R and returns Z as a view of that copy.  gram_logdet reads such a
Z and takes log det(I + Z Z^H) by an LDL^H of the Gram of its smaller side.
With c = 0 right-hand sides, solve_flagged gives the flags alone.  The
public solve_multi, spd_logdet and cholesky go to numpy's LAPACK:
densities.log_matrix_t factors its scale matrices with cholesky, and no
runner or density path calls solve_multi or spd_logdet; perfbench's layer
sweep does.
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


def solve_flagged(B, R) -> tuple[np.ndarray, np.ndarray]:
    """Solve each system of a (k, m, m) stack B and (k, m, c) stack R, and flag it.

    Runs one partial-pivot LU elimination of the augmented [B | R] on all k
    systems at once, then back-substitutes the pivot rows into Z = B^-1 R,
    of shape (k, m, c): a view of the k-last work array, not a copy.  A
    system is flagged when min |pivot| <= NEAR_SINGULAR_RATIO * max |pivot|,
    with the threshold read at call time so it can be changed for the whole
    process.  Exact zero pivots, NaN pivots and non-finite entries are
    flagged instead of raising; a flagged system's Z is whatever the
    arithmetic gives, inf and NaN included.  At m = 1, Z is R / B.
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
        # the row swap moves values by their offsets in the flat T: entry
        # (row, col, system) sits at (row * (m + c) + col) * k + system
        flat = T.reshape(-1)
        system = np.arange(k)
        col_offsets = np.arange(m + c)[:, None] * k
        for j in range(m - 1):
            # columns left of j are never read again, so only j: is swapped:
            # the pivot row is read out, then row j moves to the pivot row's old place
            p = j + np.argmax(np.abs(T[j:, j]), axis=0)
            where = col_offsets[j:] + (p * ((m + c) * k) + system)  # (m + c - j, k)
            pivot_row = flat.take(where)
            flat[where] = T[j, j:]
            T[j, j:] = pivot_row
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
    return T[:, m:].transpose(2, 0, 1), flagged


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


def cholesky(S) -> np.ndarray:
    """Lower Cholesky factor L, S = L L^H, of a symmetric (Hermitian) positive definite S.

    Raises NotPositiveDefinite when the factorization fails.
    """
    return _cholesky(_as_square(S, "S"))


def spd_logdet(S) -> float:
    """log det of a symmetric (Hermitian) positive definite matrix.

    Raises NotPositiveDefinite when the Cholesky factorization fails.
    """
    return float(2.0 * np.log(np.diagonal(_cholesky(_as_square(S, "S"))).real).sum())


def gram_logdet(Z) -> np.ndarray:
    """log det(I + Z Z^H) for each matrix of a (k, m, n) stack.

    The per-draw statistic of the samplers, taken over the smaller side: by
    Sylvester's identity it is also log det(I + Z^H Z), so the s x s Gram
    G of Z's columns (n <= m) or rows (n > m), s = min(m, n), is summed
    over the long side one k-last (s, s, k) term at a time, in a fixed
    order, so that the bits do not depend on Z's memory layout.  A
    written-out LDL^H of I + G, one numpy call per step over contiguous
    k-vectors, carries each pivot as 1 + h and sums log1p(h); at s = 1, h
    is the squared norm of Z.  Each pivot has an absolute error of a few
    eps |Z|^2, so the result is accurate while the singular values of Z stay
    below ~1e8.  The densities take the same quantity from singular values,
    which holds for any finite Z.  Raises NotPositiveDefinite when a pivot
    is not positive, NaN included.
    """
    Z = np.asarray(Z)
    _, m, n = Z.shape
    W = Z.transpose(2, 1, 0) if n <= m else Z.transpose(1, 2, 0)  # (s, long side, k)
    Wc = W.conj()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        G = W[:, None, 0] * Wc[None, :, 0]
        for l in range(1, W.shape[1]):
            G += W[:, None, l] * Wc[None, :, l]
        for j in range(len(G) - 1):
            col = G[j + 1:, j]
            G[j + 1:, j + 1:] -= (col / (1.0 + G[j, j].real))[:, None] * col[None, :].conj()
        h = np.diagonal(G).real  # (k, s): pivot j of I + G is 1 + h[:, j]
        if not (h > -1.0).all():
            raise NotPositiveDefinite("a pivot of I + Z Z^H is not positive")
        return np.log1p(h).sum(axis=1)
