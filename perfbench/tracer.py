"""Span tracer that wraps rmtlab's public functions from outside the package.

The runner looks its layer functions up as module attributes at call time
(``ensembles.sample_z``, ``matcore.lu_factor``, ``girko.quad``, ...), so
replacing those attributes for the duration of a run puts a span around
every call without touching ``src/``.  Each span records
(name, start, end, span id, parent span id, run id, count); the count is a
per-call quantity measured at the same boundary (rejected draws, computed
flops, CDF evaluations, bytes written).  Spans live in per-thread
``array('d')`` buffers, 56 bytes each, and are turned into per-layer
metrics and written out only after the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import threading
import time
from array import array

import numpy as np

LAYERS = ("ensembles", "matcore", "girko", "stats", "densities")
CLI_ENTRY_POINTS = ("parse_config", "run", "emit")
SPAN_FIELDS = ("name", "start", "end", "id", "parent", "run", "count")
NO_PARENT = -1.0


# ---------------------------------------------------------------------------
# computed cost of the matcore kernels, from array sizes alone


def _is_complex(*arrays) -> bool:
    return any(np.asarray(a).dtype.kind == "c" for a in arrays)


@functools.lru_cache(maxsize=None)
def lu_factor_cost(m: int, complex_: bool = False) -> tuple[float, float]:
    """(flops, bytes) of a partial-pivot LU of an m x m matrix."""
    flops = sum(j + 2 * j * j for j in range(1, m))  # multipliers + rank-1 update
    return flops * (4 if complex_ else 1), 2 * m * m * (16 if complex_ else 8) + 8 * m


@functools.lru_cache(maxsize=None)
def lu_solve_cost(m: int, k: int, complex_: bool = False) -> tuple[float, float]:
    """(flops, bytes) of one forward and back substitution with k right-hand sides."""
    flops = (2 * m * m - m) * k
    return flops * (4 if complex_ else 1), (m * m + 2 * m * k) * (16 if complex_ else 8)


@functools.lru_cache(maxsize=None)
def refine_cost(m: int, k: int, complex_: bool = False) -> tuple[float, float]:
    """solve_multi's own work: residual X - B Z and the refinement update."""
    flops = 2 * m * m * k + m * k
    return flops * (4 if complex_ else 1), (m * m + 4 * m * k) * (16 if complex_ else 8)


@functools.lru_cache(maxsize=None)
def cholesky_cost(m: int, complex_: bool = False) -> tuple[float, float]:
    """(flops, bytes) of spd_logdet's Cholesky on an m x m matrix."""
    # per column: pivot dot product, square root, then one dot, subtract
    # and divide for each entry below the diagonal
    flops = sum(2 * j + 1 + (m - j - 1) * (2 * j + 2) for j in range(m))
    return flops * (4 if complex_ else 1), 2 * m * m * (16 if complex_ else 8)


def solve_multi_cost(m: int, k: int, complex_: bool = False) -> tuple[float, float]:
    """solve_multi(B, X) without given factors: factor, two solves, refinement."""
    parts = (lu_factor_cost(m, complex_), lu_solve_cost(m, k, complex_),
             lu_solve_cost(m, k, complex_), refine_cost(m, k, complex_))
    return sum(p[0] for p in parts), sum(p[1] for p in parts)


def _columns(X) -> int:
    shape = np.shape(X)
    return 1 if len(shape) == 1 else shape[1]


def _lu_factor_flops(args, kwargs, result):
    P = result.packed
    return lu_factor_cost(P.shape[0], P.dtype.kind == "c")[0]


def _lu_solve_flops(args, kwargs, result):
    P = args[0].packed
    return lu_solve_cost(P.shape[0], _columns(args[1]), result.dtype.kind == "c")[0]


def _solve_multi_flops(args, kwargs, result):
    return refine_cost(len(args[0]), _columns(args[1]), result.dtype.kind == "c")[0]


def _spd_logdet_flops(args, kwargs, result):
    S = args[0]
    return cholesky_cost(len(S), _is_complex(S))[0]


def _rejects(args, kwargs, result):
    return result[1]


def _bytes_written(args, kwargs, result):
    return sum(os.path.getsize(p) for p in result)


METERS = {
    "ensembles.sample_z": _rejects,
    "girko.sample_solution": _rejects,
    "girko.sample_stable_system": _rejects,
    "matcore.lu_factor": _lu_factor_flops,
    "matcore.lu_solve": _lu_solve_flops,
    "matcore.solve_multi": _solve_multi_flops,
    "matcore.spd_logdet": _spd_logdet_flops,
    "cli.emit": _bytes_written,
}


def _counting_cdf(args, kwargs):
    """Wrap ks_one_sample's cdf so each scalar evaluation is counted."""
    calls = [0]
    cdf = kwargs["cdf"] if "cdf" in kwargs else args[1]

    def counted(x):
        calls[0] += 1
        return cdf(x)

    if "cdf" in kwargs:
        kwargs = dict(kwargs, cdf=counted)
    else:
        args = (args[0], counted, *args[2:])
    return args, kwargs, lambda result: calls[0]


PREPARERS = {"stats.ks_one_sample": _counting_cdf}


# ---------------------------------------------------------------------------
# the tracer


class Tracer:
    """Wraps module attributes while installed; collects spans in memory.

    Spans opened on a thread with no open span of its own (the runner's
    shard pool workers) take the innermost open ``cli.run`` span as parent.
    ``run_id`` is set by the caller before each config is parsed, run and
    emitted, so all spans of one config share it.
    """

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.run_id = -1
        self._ids = itertools.count()
        self._root = NO_PARENT
        self._local = threading.local()
        self._buffers: list[array] = []
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    def targets(self):
        """(module, attribute, qualified name) of every function to wrap."""
        def module(name):
            return importlib.import_module(f"{self.package.__name__}.{name}")

        for layer in LAYERS:
            mod = module(layer)
            for attr, obj in sorted(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    yield mod, attr, f"{layer}.{attr}"
        yield module("girko"), "quad", "girko.quad"
        for attr in CLI_ENTRY_POINTS:
            yield module("cli"), attr, f"cli.{attr}"

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, qualname in self.targets():
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(qualname, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            buf = array("d")
            with self._lock:
                self._buffers.append(buf)
            state = self._local.state = ([], buf)
        return state

    def _wrap(self, qualname: str, fn):
        name_id = float(len(self.names))
        self.names.append(qualname)
        meter = METERS.get(qualname)
        prepare = PREPARERS.get(qualname)
        is_root = qualname == "cli.run"
        clock = time.perf_counter
        ids = self._ids
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, buf = tracer._thread_state()
            parent = stack[-1] if stack else tracer._root
            sid = float(next(ids))
            finish = None
            if prepare is not None:
                args, kwargs, finish = prepare(args, kwargs)
            stack.append(sid)
            if is_root:
                outer_root, tracer._root = tracer._root, sid
            count = 0.0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if is_root:
                    tracer._root = outer_root
                buf.extend((name_id, t0, t1, sid, parent, float(tracer.run_id), count))
            if meter is not None:
                buf[-1] = float(meter(args, kwargs, result))
            elif finish is not None:
                buf[-1] = float(finish(result))
            return result

        return traced

    def spans(self) -> np.ndarray:
        """All recorded spans as an (N, 7) array with columns SPAN_FIELDS."""
        with self._lock:
            flat = np.concatenate([np.frombuffer(b, dtype=np.float64) for b in self._buffers] or [np.empty(0)])
        return flat.reshape(-1, len(SPAN_FIELDS))

    def write(self, path: str) -> None:
        np.savez(path, spans=self.spans(), names=np.array(self.names), fields=np.array(SPAN_FIELDS))


# ---------------------------------------------------------------------------
# metrics derived from spans


def _parent_rows(spans: np.ndarray) -> np.ndarray:
    """Row index of each span's parent, or -1 for spans without one."""
    ids = spans[:, 3].astype(np.int64)
    parents = spans[:, 4].astype(np.int64)
    index_of = np.full(int(ids.max()) + 2, -1, dtype=np.int64)
    index_of[ids] = np.arange(len(spans))
    return index_of[parents]  # parent -1 reads the guard slot, which stays -1


def _child_cover(spans: np.ndarray, parent_rows: np.ndarray) -> np.ndarray:
    """Per span, the length of its interval covered by its direct children.

    Children on one thread nest and never overlap, so their durations add.
    Children from several threads (the shard pool under cli.run) can
    overlap; for those parents the covered length is the union of the
    child intervals.
    """
    dur = spans[:, 2] - spans[:, 1]
    cover = np.zeros(len(spans))
    kids = np.flatnonzero(parent_rows >= 0)
    rows = parent_rows[kids]
    np.add.at(cover, rows, dur[kids])
    order = np.lexsort((spans[kids, 1], rows))
    kids, rows = kids[order], rows[order]
    overlaps = (rows[1:] == rows[:-1]) & (spans[kids[1:], 1] < spans[kids[:-1], 2])
    for row in np.unique(rows[1:][overlaps]):
        covered, reach = 0.0, -np.inf
        for start, end in spans[kids[rows == row], 1:3]:
            if end > reach:
                covered += end - max(start, reach)
                reach = end
        cover[row] = covered
    return cover


class SpanTable:
    """Queries over one traced run's spans."""

    def __init__(self, spans: np.ndarray, names: list[str]):
        self.names = names
        self.name_id = spans[:, 0].astype(np.int64)
        self.dur = spans[:, 2] - spans[:, 1]
        self.run = spans[:, 5].astype(np.int64)
        self.count = spans[:, 6]
        self.parent_rows = _parent_rows(spans) if len(spans) else np.empty(0, dtype=np.int64)
        self.self_time = self.dur - _child_cover(spans, self.parent_rows)

    def mask(self, *qualnames: str) -> np.ndarray:
        wanted = [i for i, n in enumerate(self.names) if n in qualnames]
        return np.isin(self.name_id, wanted)

    def layer_mask(self, layer: str) -> np.ndarray:
        return self.mask(*(n for n in self.names if n.split(".", 1)[0] == layer))

    def calls(self, *qualnames: str) -> int:
        return int(self.mask(*qualnames).sum())

    def total_count(self, *qualnames: str) -> float:
        return float(self.count[self.mask(*qualnames)].sum())

    def outer_time(self, selected: np.ndarray) -> float:
        """Summed duration of selected spans that have no selected ancestor."""
        rows = np.flatnonzero(selected)
        outer = np.ones(len(rows), dtype=bool)
        up = self.parent_rows[rows]
        while (up >= 0).any():
            live = up >= 0
            outer &= ~(live & selected[np.maximum(up, 0)])
            up = np.where(live, self.parent_rows[np.maximum(up, 0)], -1)
        return float(self.dur[rows[outer]].sum())

    def self_s(self, selected: np.ndarray) -> float:
        return float(self.self_time[selected].sum())
