"""Latency statistics and the span tracer behind the traced run.

Everything here lives outside ``src/``: layers are timed by class-level
wrappers installed around their public entry points and by a timing
kernel backend installed through :func:`repro.kernels.set_kernels`.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import threading
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Candidate tail percentiles, highest first.  p99 and p95 are left out:
#: on a shared 2-vCPU VM they follow the host's noise and the run's seed
#: (the few slowest probes) more than the program, so they could not hold
#: a 25% bound between two sets of runs of the same code.
TAIL_PERCENTILES = (90.0, 75.0, 50.0)

#: A tail percentile needs at least this many samples beyond it.
SAMPLES_BEYOND = 10


def tail_percentile(num_samples: int) -> Optional[float]:
    """The highest candidate percentile with >= 10 samples beyond it.

    ``None`` when even the median has fewer than ten samples above it.
    """
    for pct in TAIL_PERCENTILES:
        if num_samples * (100.0 - pct) / 100.0 >= SAMPLES_BEYOND:
            return pct
    return None


def percentile(values: Sequence[float], pct: float) -> float:
    """The ``pct`` percentile by the nearest-rank rule (a measured sample)."""
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    if ordered.size == 0:
        raise ValueError("percentile of an empty sample")
    rank = int(np.ceil(pct / 100.0 * ordered.size))
    return float(ordered[max(rank, 1) - 1])


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
#: The host probe's median on a nominal host, in seconds.  Normalized
#: times read as if the run's probes had taken this long.
PROBE_NOMINAL_S = 450e-6

#: run_pass samples the probe before every this many ops.
PROBE_EVERY = 100

#: An op's local speed is taken over its own block of PROBE_EVERY ops
#: and this many blocks on either side.
LOCAL_BLOCKS = 2


class HostProbe:
    """Times a fixed piece of Python and NumPy work that is not the program's.

    The benchmark's 2-vCPU VM shares its cores with other tenants.  Their
    speed moved 2x between periods an hour apart and by 20-30% between
    runs minutes apart, with almost no steal time to show for it, and
    every CPU-bound time of a run moves with it: over a 200 s in-process
    trace, op latencies per 2.5 s window correlated 0.8-0.98 with this
    probe's median, and dividing by it cut their spread about threefold.
    :meth:`speed` is the nominal probe time over the run's median one,
    and :meth:`local_speeds` the same ratio around each op, so a slow
    second of the host scales only the ops that ran in it (over eight
    seeds that took the spread of p90 latencies from 16-25% to 7-14%,
    against one speed per run).  The probe calls nothing of the
    program, so a change to the program moves only what it scales.
    """

    def __init__(self) -> None:
        self._data = np.random.default_rng(0).random(20_000)
        self.samples: List[float] = []

    def sample(self) -> None:
        start = perf_counter()
        total = 0
        for i in range(3000):
            total += i * i % 7
        np.sort(self._data[(self._data > 0.3) & (self._data < 0.6)])
        counts: Dict[int, int] = {}
        for i in range(500):
            counts[i % 50] = counts.get(i % 50, 0) + 1
        self.samples.append(perf_counter() - start)

    def speed(self) -> float:
        """The host's speed relative to nominal (above 1: faster)."""
        return PROBE_NOMINAL_S / float(np.median(self.samples))

    def local_speeds(self, first: int, num_ops: int) -> np.ndarray:
        """The speed around each of a pass's ops; its samples start at ``first``.

        Op ``i`` ran after sample ``first + i // PROBE_EVERY``; its speed
        uses the median of that sample and the LOCAL_BLOCKS on each side
        within the pass.
        """
        samples = np.asarray(self.samples[first:], dtype=np.float64)
        local = np.array([
            np.median(samples[max(0, b - LOCAL_BLOCKS): b + LOCAL_BLOCKS + 1])
            for b in range(samples.size)
        ])
        return PROBE_NOMINAL_S / local[np.arange(num_ops) // PROBE_EVERY]


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class Tracer:
    """An in-memory span recorder: name, start, end, parent, op id, rows.

    ``op`` is the id of the benchmark operation a span belongs to (``-1``
    for set-up and maintenance work).  Parents are tracked per thread, so
    the threaded HTTP server records correct nesting.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.ops: List[int] = []
        self.rows: List[int] = []
        self.current_op = -1
        self._next_op = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def call(self, name: str, fn, args, kwargs, rows: int = 0):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            index = len(self.names)
            self.names.append(name)
            self.parents.append(stack[-1] if stack else -1)
            self.ops.append(self.current_op)
            self.rows.append(rows)
            self.starts.append(0.0)
            self.ends.append(0.0)
        stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.starts[index] = start
            self.ends[index] = end

    def call_new_op(self, name: str, fn, args, kwargs):
        """Like :meth:`call`, but first starts the next op id (server side)."""
        with self._lock:
            self.current_op = self._next_op
            self._next_op += 1
        return self.call(name, fn, args, kwargs)

    def arrays(self) -> Dict[str, np.ndarray]:
        """The spans as columns (``name`` holds strings)."""
        return {
            "name": np.asarray(self.names, dtype=str),
            "start": np.asarray(self.starts, dtype=np.float64),
            "end": np.asarray(self.ends, dtype=np.float64),
            "parent": np.asarray(self.parents, dtype=np.int64),
            "op": np.asarray(self.ops, dtype=np.int64),
            "rows": np.asarray(self.rows, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())


def load_spans(path) -> Dict[str, np.ndarray]:
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to their parent's interval and overlapping
    children are merged, so the result never double-counts.
    """
    durations = end - start
    result = durations.copy()
    children: Dict[int, List[int]] = {}
    for index, par in enumerate(parent.tolist()):
        if par >= 0:
            children.setdefault(par, []).append(index)
    for par, kids in children.items():
        lo, hi = start[par], end[par]
        intervals = sorted(
            (max(lo, start[k]), min(hi, end[k])) for k in kids
        )
        covered = 0.0
        cur_lo, cur_hi = None, None
        for a, b in intervals:
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            elif b > cur_hi:
                cur_hi = b
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        result[par] = durations[par] - covered
    return result


# ----------------------------------------------------------------------
# wrappers around the layers' public entry points
# ----------------------------------------------------------------------
#: (module, class, method, span name).  Layer = span name before the dot,
#: named after the ``src/repro`` module that owns the code.
_METHOD_TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.engine", "SpatialEngine", "execute", "engine.execute"),
    ("repro.engine", "SpatialEngine", "save", "persistence.save"),
    ("repro.engine", "SpatialEngine", "load", "persistence.load"),
    ("repro.core.wazi", "WaZI", "__init__", "core.build"),
    ("repro.zindex.base", "ZIndex", "range_query", "zindex.range_query"),
    ("repro.zindex.base", "ZIndex", "range_count", "zindex.range_count"),
    ("repro.zindex.base", "ZIndex", "batch_range_query", "zindex.batch_range_query"),
    ("repro.zindex.base", "ZIndex", "batch_range_count", "zindex.batch_range_count"),
    ("repro.zindex.base", "ZIndex", "knn", "zindex.knn"),
    ("repro.zindex.base", "ZIndex", "batch_knn", "zindex.batch_knn"),
    ("repro.zindex.base", "ZIndex", "point_query", "zindex.point_query"),
    ("repro.zindex.base", "ZIndex", "insert", "zindex.insert"),
    ("repro.zindex.base", "ZIndex", "delete", "zindex.delete"),
    ("repro.online.index", "OnlineIndex", "range_query", "online.range_query"),
    ("repro.online.index", "OnlineIndex", "range_count", "online.range_count"),
    ("repro.online.index", "OnlineIndex", "batch_range_query", "online.batch_range_query"),
    ("repro.online.index", "OnlineIndex", "batch_range_count", "online.batch_range_count"),
    ("repro.online.index", "OnlineIndex", "knn", "online.knn"),
    ("repro.online.index", "OnlineIndex", "point_query", "online.point_query"),
    ("repro.online.index", "OnlineIndex", "insert", "online.insert"),
    ("repro.online.index", "OnlineIndex", "delete", "online.delete"),
    ("repro.online.index", "OnlineIndex", "compact", "online.compact"),
    ("repro.online.index", "OnlineIndex", "incremental_adapt", "online.incremental_adapt"),
    ("repro.plancache", "PlanCache", "lookup", "plancache.lookup"),
    ("repro.plancache", "PlanCache", "store", "plancache.store"),
    ("repro.workload_log", "WorkloadLog", "record_range", "workload_log.record_range"),
    ("repro.workload_log", "WorkloadLog", "record_ranges", "workload_log.record_ranges"),
    ("repro.workload_log", "WorkloadLog", "record_knn", "workload_log.record_knn"),
    ("repro.workload_log", "WorkloadLog", "record_knns", "workload_log.record_knns"),
    ("repro.workload_log", "WorkloadLog", "record_radius", "workload_log.record_radius"),
    ("repro.workload_log", "WorkloadLog", "record_radii", "workload_log.record_radii"),
    ("repro.obs.instrument", "EngineMetrics", "observe_query", "obs.observe_query"),
    ("repro.service.server", "SpatialService", "handle_query", "service.handle_query"),
)

#: The request root on the server: each POST starts a new op id.
_REQUEST_TARGET = ("repro.service.server", "_Handler", "do_POST", "service.request")

#: Module-level functions, patched in their defining module's namespace.
_FUNCTION_TARGETS = (
    ("repro.service.server", "render_json_bytes", "service.render_json"),
)


def _wrap(tracer: Tracer, name: str, fn, new_op: bool = False):
    call = tracer.call_new_op if new_op else tracer.call

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return call(name, fn, args, kwargs)

    return traced


class TimingKernels:
    """A kernel backend that times every kernel call of ``inner``.

    Each call becomes a ``kernels.<name>`` span whose ``rows`` field is
    the number of flat rows the call masks (``hi - lo``, summed over the
    spans of the batch kernels).
    """

    def __init__(self, tracer: Tracer, inner) -> None:
        from repro.kernels import KERNEL_NAMES

        #: What ``repro.kernels.backend_name()`` reports while installed.
        self.BACKEND = getattr(inner, "BACKEND", "numpy")
        for kernel in KERNEL_NAMES:
            setattr(self, kernel, self._timed(tracer, kernel, getattr(inner, kernel)))

    @staticmethod
    def _timed(tracer: Tracer, kernel: str, fn):
        name = f"kernels.{kernel}"
        batch = kernel.startswith("batch_")

        # Every kernel takes (flat_x, flat_y, lo, hi, ...) positionally; the
        # batch kernels take arrays of spans there.
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            lo, hi = args[2], args[3]
            if batch:
                rows = int((np.asarray(hi) - np.asarray(lo)).sum())
            else:
                rows = int(hi) - int(lo)
            return tracer.call(name, fn, args, kwargs, rows=rows)

        return timed


class Instrumentation:
    """Installs the wrappers and the timing kernels; :meth:`remove` undoes both."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: List[Tuple[object, str, object]] = []
        self._previous_kernels = None

    def install(self) -> "Instrumentation":
        from repro import kernels

        tracer = self.tracer
        targets = [t + (False,) for t in _METHOD_TARGETS] + [_REQUEST_TARGET + (True,)]
        for module_name, class_name, attr, span, new_op in targets:
            cls = getattr(importlib.import_module(module_name), class_name)
            original = cls.__dict__[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(_wrap(tracer, span, original.__func__))
            else:
                replacement = _wrap(tracer, span, original, new_op=new_op)
            self._saved.append((cls, attr, original))
            setattr(cls, attr, replacement)
        for module_name, attr, span in _FUNCTION_TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, span, original))
        self._previous_kernels = kernels.set_kernels(
            TimingKernels(tracer, kernels.get_kernels())
        )
        return self

    def remove(self) -> None:
        from repro import kernels

        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        if self._previous_kernels is not None:
            kernels.set_kernels(self._previous_kernels)
            self._previous_kernels = None
