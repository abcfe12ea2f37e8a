"""Dense linear algebra kernels for small real and complex matrices.

Solves, log-determinants and Cholesky factorizations go to numpy's LAPACK,
stacked over many small matrices at once where the samplers need them.
Two pieces stay written out here: the partial-pivot LU whose pivot
magnitudes decide the near-singularity rejection rule, vectorized over a
stack of matrices, and a single-matrix LU with substitution for callers
that reuse one factorization.  Determinants are only ever formed in the
log domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative pivot-ratio threshold below which a factorization is flagged as
# numerically singular.  Exact singularity has probability zero for the
# ensembles sampled here; the flag only guards degenerate draws.
NEAR_SINGULAR_RATIO = 1e-12


class SingularMatrix(ValueError):
    """An exact zero pivot column was met during elimination."""


class NotPositiveDefinite(ValueError):
    """A Cholesky pivot was not strictly positive."""


def _as_square(a, name: str = "matrix") -> np.ndarray:
    m = np.asarray(a)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    dtype = np.complex128 if np.iscomplexobj(m) else np.float64
    return m.astype(dtype, copy=True)


def _pivots_flagged(pivots: np.ndarray) -> np.ndarray:
    """Pivot-ratio rule over the last axis of |pivot| magnitudes.

    A factorization is flagged when min |pivot| <= NEAR_SINGULAR_RATIO *
    max |pivot|; a non-finite pivot is flagged too.  The threshold is read
    at call time so it can be changed for the whole process.
    """
    return ~(pivots.min(axis=-1) > NEAR_SINGULAR_RATIO * pivots.max(axis=-1))


@dataclass(frozen=True)
class LuFactors:
    """Row-pivoted LU factorization: input[perm] == L @ U.

    Both triangles live packed in one matrix; the unit diagonal of L is
    implied.
    """

    perm: np.ndarray    # perm[i] is the input row sitting in row i of L@U
    packed: np.ndarray  # strictly-lower multipliers + upper triangle
    sign: int           # parity of perm, +1 or -1

    @property
    def near_singular(self) -> bool:
        return bool(_pivots_flagged(np.abs(np.diagonal(self.packed))))


def lu_factor(B) -> LuFactors:
    """Factor a square matrix with partial pivoting.

    Raises SingularMatrix when a whole pivot column is exactly zero.
    Near-zero pivots do not raise; they are reported through
    LuFactors.near_singular so samplers can reject and redraw.
    """
    A = _as_square(B, "B")
    n = A.shape[0]
    perm = np.arange(n)
    sign = 1
    for k in range(n):
        col = np.abs(A[k:, k])
        p = k + int(np.argmax(col))
        if A[p, k] == 0.0:
            raise SingularMatrix(f"zero pivot column at elimination step {k}")
        if p != k:
            A[[k, p]] = A[[p, k]]
            perm[[k, p]] = perm[[p, k]]
            sign = -sign
        A[k + 1:, k] /= A[k, k]
        if k + 1 < n:
            A[k + 1:, k + 1:] -= np.outer(A[k + 1:, k], A[k, k + 1:])
    return LuFactors(perm=perm, packed=A, sign=sign)


def near_singular(B) -> np.ndarray:
    """Flag each matrix of a (k, m, m) stack by the LuFactors pivot rule.

    Runs the partial-pivot elimination of lu_factor on all k matrices at
    once and keeps only the pivot magnitudes.  Exact zero pivots and
    non-finite entries are flagged instead of raising.
    """
    A = np.array(B, dtype=np.result_type(B, np.float64))
    k, m, _ = A.shape
    rows = np.arange(k)
    pivots = np.empty((k, m))
    for j in range(m):
        p = j + np.argmax(np.abs(A[:, j:, j]), axis=1)
        top = A[rows, j].copy()
        A[rows, j] = A[rows, p]
        A[rows, p] = top
        d = A[:, j, j]
        pivots[:, j] = np.abs(d)
        if j + 1 < m:
            with np.errstate(divide="ignore", invalid="ignore"):
                mult = A[:, j + 1:, j] / d[:, None]
                A[:, j + 1:, j + 1:] -= mult[:, :, None] * A[:, j, None, j + 1:]
    return _pivots_flagged(pivots)


def lu_solve(factors: LuFactors, X) -> np.ndarray:
    """Solve B @ Z = X given the LU factors of B (single substitution pass)."""
    P = factors.packed
    n = P.shape[0]
    X = np.asarray(X)
    squeeze = X.ndim == 1
    if X.shape[0] != n:
        raise ValueError(f"right-hand side has {X.shape[0]} rows, expected {n}")
    if squeeze:
        X = X[:, None]
    Y = X[factors.perm].astype(np.result_type(P.dtype, X.dtype), copy=False)
    for i in range(1, n):
        Y[i] -= P[i, :i] @ Y[:i]
    for i in range(n - 1, -1, -1):
        if i + 1 < n:
            Y[i] -= P[i, i + 1:] @ Y[i + 1:]
        Y[i] /= P[i, i]
    return Y[:, 0] if squeeze else Y


def solve_multi(B, X, factors: LuFactors | None = None) -> np.ndarray:
    """Solve B @ Z = X for a matrix right-hand side.

    One step of iterative refinement is applied, which at these sizes
    brings the componentwise residual below 1e-8 * ||X|| for any
    well-conditioned B.
    """
    if factors is None:
        B = _as_square(B, "B")
        factors = lu_factor(B)
    else:
        B = np.asarray(B)
    X = np.asarray(X)
    Z = lu_solve(factors, X)
    resid = X - B @ Z
    return Z + lu_solve(factors, resid)


def log_abs_det(B) -> tuple[float, complex]:
    """(log |det B|, sign); the sign has unit modulus, and a singular B
    gives (-inf, 0), never an exception."""
    sign, log_abs = np.linalg.slogdet(_as_square(B, "B"))
    return float(log_abs), sign.item()


def _cholesky_logdet(S: np.ndarray) -> np.ndarray:
    """log det of each Hermitian positive definite matrix in a stack."""
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from None
    return 2.0 * np.log(np.diagonal(L, axis1=-2, axis2=-1).real).sum(axis=-1)


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
