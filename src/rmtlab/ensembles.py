"""Samplers for rotationally invariant matrix ensembles.

A density of the form f(tr A A^T) is realized exactly by the radial-angular
construction: draw a radius r from the law induced by f in the total real
dimension d, draw an independent direction uniformly on the unit sphere
S^{d-1}, and set A = r * direction reshaped to m x (m+n).  Choosing the
radius law is therefore the only degree of freedom, which makes universality
experiments (same statistic under wildly different radial profiles) trivial
to configure.

Four radial laws are provided, deliberately dissimilar: a point mass on a
shell, the uniform ball, the law that reproduces i.i.d. standard normal
entries, and a bimodal two-shell mixture.

A sampler is a function (rng, k) -> (B, R) that draws k linear systems
B Z = R as stacks; draw_block draws, rejects, redraws and solves one block
of them.  draw_rows pools any number of draws as blocks of block_size
systems, block b of stream s drawn from the Philox substream
(seed, s << 32 | b): it is the one place that keys blocks to substreams.
A block is sized by bytes, so that one elimination and one statistic call
share numpy's per-call cost while its work arrays stay cache-sized, and a
row depends on its block alone.  ratio_sampler splits ensemble draws A into
(B, X), each draw scaled by a power of two that changes no Z.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import matcore

_MASK64 = (1 << 64) - 1
# Fewest systems in a substream block of draw_rows: enough to amortise a new
# Philox and the per-call cost of the sampler and the elimination when one
# system alone takes many bytes.
BLOCK = 512
# Bytes of B and R stacks a substream block holds when that makes it longer
# than BLOCK systems: small systems then share numpy's per-call cost, while a
# block's work arrays stay cache-sized and its memory does not grow with the
# number of draws.
BLOCK_BYTES = 256 * 1024
# Times in a row one draw may be flagged near-singular before draw_block gives up
MAX_REJECTS = 100


class InvalidLaw(ValueError):
    """Radial law parameters do not define a probability law."""


class BadPartition(ValueError):
    """Column partition indices are duplicated or out of range."""


class ResampleLimit(RuntimeError):
    """Too many consecutive near-singular draws; the ensemble is degenerate."""


def _is_number(value) -> bool:
    """True for ints and floats, numpy's too; False for bools, strings, None and containers."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def as_integer(value, name: str | None = None) -> int:
    """value as an int: a number without a fractional part.

    Bools, strings, None, inf, nan and numbers with a fraction are refused,
    never cut or parsed.  The ValueError names the field when name is given.
    """
    if _is_number(value) and (isinstance(value, (int, np.integer)) or float(value).is_integer()):
        return int(value)
    raise ValueError(f"{name + ': ' if name else ''}expected an integer, got {value!r}")


def as_reals(values, name: str | None = None) -> np.ndarray:
    """values, a number or nested lists of them, as a float array of their shape.

    Every entry must be a finite number: bools, strings, None, inf and nan
    are refused, as are ragged lists.  The ValueError names the field when
    name is given.
    """
    label = name + ": " if name else ""
    entries = np.asarray(values, dtype=object)  # object keeps bools and strings apart from numbers
    if not all(_is_number(x) for x in entries.flat):
        raise ValueError(f"{label}expected numbers, got {values!r}")
    try:
        reals = entries.astype(float)
    except OverflowError:  # an integer past the largest float
        reals = np.array(math.inf)
    if not np.isfinite(reals).all():
        raise ValueError(f"{label}entries must be finite, got {values!r}")
    return reals


@dataclass(frozen=True)
class GaussianEntries:
    """Radius law making all matrix entries i.i.d. standard normal."""


@dataclass(frozen=True)
class FixedShell:
    """Point mass: the sampled matrix always has Frobenius norm r0."""

    r0: float

    def __post_init__(self):
        if not 0.0 < self.r0 < math.inf:
            raise InvalidLaw(f"shell radius must be finite and positive, got {self.r0}")


@dataclass(frozen=True)
class UniformBall:
    """Matrix uniform in the Frobenius ball of radius R."""

    R: float

    def __post_init__(self):
        if not 0.0 < self.R < math.inf:
            raise InvalidLaw(f"ball radius must be finite and positive, got {self.R}")


@dataclass(frozen=True)
class TwoShellMixture:
    """Radius r1 with probability w, else r2."""

    r1: float
    r2: float
    w: float

    def __post_init__(self):
        if not (0.0 < self.r1 < math.inf and 0.0 < self.r2 < math.inf):
            raise InvalidLaw(f"shell radii must be finite and positive, got {self.r1} and {self.r2}")
        if not 0.0 < self.w < 1.0:
            raise InvalidLaw(f"mixture weight must lie in (0,1), got {self.w}")


RadialLaw = GaussianEntries | FixedShell | UniformBall | TwoShellMixture


@dataclass(frozen=True)
class EnsembleSpec:
    """Dimensions, number field, and radial profile of the parent ensemble."""

    m: int
    n: int
    field: str = "real"
    radial: RadialLaw = GaussianEntries()

    def __post_init__(self):
        object.__setattr__(self, "m", as_integer(self.m, "m"))
        object.__setattr__(self, "n", as_integer(self.n, "n"))
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        if self.field not in ("real", "complex"):
            raise ValueError(f"field must be 'real' or 'complex', got {self.field!r}")

    @property
    def dim(self) -> int:
        """Total real dimension of the flattened matrix."""
        d = self.m * (self.m + self.n)
        return 2 * d if self.field == "complex" else d


@dataclass(frozen=True)
class PartitionSpec:
    """Which columns (1-based) of A form the square block B.

    The remaining columns form X in ascending order.
    """

    b_columns: tuple[int, ...]

    def __init__(self, b_columns):
        try:
            cols = tuple(as_integer(c) for c in b_columns)
        except ValueError as exc:
            raise BadPartition(f"b_columns: {exc}") from None
        object.__setattr__(self, "b_columns", cols)

    @staticmethod
    def leading(m: int) -> "PartitionSpec":
        return PartitionSpec(range(1, m + 1))


@dataclass(frozen=True)
class RngStream:
    """Reproducible, splittable random stream.

    The (seed, stream_id) pair keys a counter-based Philox generator, so
    identical pairs reproduce identical sequences and distinct stream_ids
    give statistically independent streams without any coordination.
    Each is an integer in 0..2**64 - 1; anything else raises a ValueError
    that names the field.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        # Philox keys on 64 bits each, so a wider or negative value would draw as another stream
        for name in ("seed", "stream_id"):
            value = as_integer(getattr(self, name), name)
            if not 0 <= value <= _MASK64:
                raise ValueError(f"{name} must lie in 0..2**64 - 1, got {value}")
            object.__setattr__(self, name, value)

    def generator(self) -> np.random.Generator:
        """A Philox generator at the start of this stream."""
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def sample_radius(law: RadialLaw, d: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw `size` independent Frobenius radii for the given law in total dimension d."""
    if isinstance(law, GaussianEntries):
        return np.sqrt(rng.chisquare(d, size))
    if isinstance(law, FixedShell):
        return np.full(size, law.r0)
    if isinstance(law, UniformBall):
        return law.R * rng.random(size) ** (1.0 / d)
    if isinstance(law, TwoShellMixture):
        return np.where(rng.random(size) < law.w, law.r1, law.r2)
    raise InvalidLaw(f"unknown radial law {law!r}")


def sample_radial_rows(law: RadialLaw, d: int, rng: np.random.Generator, k: int) -> np.ndarray:
    """k independent draws of radius times uniform direction in d dimensions.

    All k radii are drawn first, then one (k, d) normal array whose rows
    are scaled to those radii.  Returns the (k, d) array.  A normal row of
    zeros (probability zero) comes out as NaN, which draw_block rejects.
    """
    return _radial_rows(law, d, rng, k, mantissa=False)


def _radial_rows(law: RadialLaw, d: int, rng: np.random.Generator, k: int, mantissa: bool) -> np.ndarray:
    """sample_radial_rows, each row scaled to its radius's mantissa, np.frexp(r)[0], when mantissa is set.

    Then each row differs from the true draw by an exact power of two, which
    changes no solution B^-1 R, and the rows stay inside the float range at
    any radius: near 1.7e308 the elimination would overflow, and near 1e-320
    the entries would be subnormal with few significant bits.  The generator
    makes the same calls either way.
    """
    r = sample_radius(law, d, rng, size=k)
    if mantissa:
        r = np.frexp(r)[0]
    V = rng.standard_normal((k, d))
    V *= (r / np.sqrt(np.einsum("ij,ij->i", V, V)))[:, None]
    return V


def _matrices(spec: EnsembleSpec, rng: np.random.Generator, k: int, mantissa: bool = False) -> np.ndarray:
    V = _radial_rows(spec.radial, spec.dim, rng, k, mantissa)
    if spec.field == "complex":
        V = V.view(np.complex128)  # consecutive coordinates are (re, im) pairs
    return V.reshape(k, spec.m, spec.m + spec.n)


def sample_matrix(spec: EnsembleSpec, rng: np.random.Generator) -> np.ndarray:
    """Draw A = radius * direction, reshaped to m x (m+n).

    For the complex field the direction lives on the sphere of dimension
    2m(m+n) and consecutive coordinates become real and imaginary parts.
    """
    return _matrices(spec, rng, 1)[0]


@lru_cache(maxsize=None)
def _partition_indices(cols: tuple[int, ...], m: int, total: int) -> tuple[slice | np.ndarray, ...]:
    if len(cols) != m:
        raise BadPartition(f"need {m} B-columns, got {len(cols)}")
    if len(set(cols)) != len(cols):
        raise BadPartition(f"duplicate column index in {cols}")
    if any(c < 1 or c > total for c in cols):
        raise BadPartition(f"column index out of range 1..{total} in {cols}")
    chosen = set(cols)
    b_idx, x_idx = [c - 1 for c in cols], [j for j in range(total) if j + 1 not in chosen]
    # an ascending run indexes as a basic slice, so that A[..., idx] is a view
    return tuple(slice(i[0], i[-1] + 1) if i and i == list(range(i[0], i[-1] + 1)) else np.array(i, dtype=int)
                 for i in (b_idx, x_idx))


def partition(A, p: PartitionSpec) -> tuple[np.ndarray, np.ndarray]:
    """Split the columns of A, or of each matrix in a stack of them, into (B, X) by p.

    B collects p.b_columns in the given order; X collects the remaining
    columns in ascending order; either is a view of A when its columns are an
    ascending run.  Raises BadPartition on duplicate or out-of-range indices,
    or when the count differs from the row count.
    """
    A = np.asarray(A)
    b_idx, x_idx = _partition_indices(p.b_columns, *A.shape[-2:])
    return A[..., b_idx], A[..., x_idx]


def draw_block(sampler: Callable, rng: np.random.Generator, k: int) -> tuple[np.ndarray, int]:
    """Draw k systems B Z = R from rng and solve them all: (Z stack, rejections).

    sampler(rng, k) draws the k systems in one call as the stacks B (k, m, m)
    and R (k, m, c); one matcore.solve_flagged call solves and flags them.
    The numerically singular ones are redrawn from rng, all flagged rows in
    one call, and solved and flagged again, until none is flagged; the
    rejections are counted.  Raises ResampleLimit once a row is flagged
    MAX_REJECTS times in a row.  Z = B^-1 R has shape (k, m, c).
    """
    Z, flagged = matcore.solve_flagged(*sampler(rng, k))
    rows = np.flatnonzero(flagged)
    rejects = streak = 0  # every row still flagged has been flagged in each round so far
    while rows.size:
        streak += 1
        rejects += rows.size
        if streak >= MAX_REJECTS:
            raise ResampleLimit(f"{streak} consecutive near-singular draws")
        Z[rows], again = matcore.solve_flagged(*sampler(rng, rows.size))
        rows = rows[again]
    return Z, rejects


def block_size(sampler: Callable) -> int:
    """Systems in each substream block that draw_rows draws from sampler.

    As many as BLOCK_BYTES holds of one system's B and R stacks, and at
    least BLOCK.  Every system of a sampler takes the same bytes, so they
    are read off one system drawn on a throwaway generator, which touches
    no stream.
    """
    B, R = sampler(np.random.default_rng(0), 1)
    return max(BLOCK, BLOCK_BYTES // (B.nbytes + R.nbytes))


def draw_rows(sampler: Callable, seed: int, stream: int, n: int, row_of: Callable) -> tuple[np.ndarray, int]:
    """Stack row_of(Z) over n systems drawn by sampler and solved: (rows, rejections).

    With k = block_size(sampler), block b holds draws b * k onwards, at
    most k of them, and is one draw_block call on a new generator on the
    substream (seed, stream << 32 | b), so the rows depend on
    (seed, stream) alone.  One row_of call maps a block's (k, m, c)
    solution stack to its k rows, so only the rows, never all solutions,
    are pooled.  Each block's rows are copied, since the solutions are a
    view of the elimination's work array and a row_of that returns a view
    of them would keep it alive.  The rejections of all blocks are summed.
    Raises ValueError for n < 1, a seed outside 0..2**64 - 1 or a stream
    outside 0..2**32 - 1, which would alias another seed's or stream's
    substreams.
    """
    stream, n = as_integer(stream, "stream"), as_integer(n, "n")
    if not 0 <= stream < 1 << 32:
        raise ValueError(f"stream must lie in 0..2**32 - 1, got {stream}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    k = block_size(sampler)
    rows, rejected = [], 0
    for b, first in enumerate(range(0, n, k)):
        Z, rej = draw_block(sampler, RngStream(seed, (stream << 32) | b).generator(), min(k, n - first))
        rows.append(np.array(row_of(Z)))
        rejected += rej
    return np.concatenate(rows), rejected


def ratio_sampler(spec: EnsembleSpec, p: PartitionSpec | None = None) -> Callable:
    """The sampler (rng, k) -> (B, X) of k ensemble draws A split by p, for draw_block.

    Each draw is A scaled to the mantissa of its radius, so it differs from
    the A that sample_matrix draws from the same generator state by an exact
    power of two: Z = B^-1 X is the same, and the elimination neither
    overflows nor loses bits to subnormals at any radius.  p defaults to the
    leading m columns; raises BadPartition for a bad p.
    """
    if p is None:
        p = PartitionSpec.leading(spec.m)
    _partition_indices(p.b_columns, spec.m, spec.m + spec.n)
    return lambda rng, k: partition(_matrices(spec, rng, k, mantissa=True), p)


def sample_z(spec: EnsembleSpec, p: PartitionSpec | None, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Draw Z solving B @ Z = X for one ensemble draw A -> (B, X).

    A one-draw block of ratio_sampler(spec, p): near-singular B draws are
    rejected and redrawn, and the number of rejections is returned
    alongside Z.  Raises ResampleLimit after MAX_REJECTS consecutive
    rejections.
    """
    if spec.n < 1:
        raise ValueError("sample_z needs n >= 1")
    Z, rejects = draw_block(ratio_sampler(spec, p), rng, 1)
    return Z[0], rejects
