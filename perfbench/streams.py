"""Seeded input generation for the three workloads.

The dataset and the training workload are fixed: the ``newyork`` region
at 100k points and a 200-query check-in workload at 0.0256%, the
defaults of ``python -m repro build`` (dataset seed 17, training seed
18), so every workload serves the same WaZI layout and set-up time does
not depend on the run's seed.  ``--seed`` drives the timed streams:
which windows of a fixed pool (see :func:`window_pool`) a run draws,
the probes, the hotspot walk and the op order.  No timed stream uses
the training seed.

An op is ``(kind, arg, payload)``: ``kind`` is one of ``range_count``,
``range_rows``, ``knn``, ``point``, ``insert``, ``delete``; ``arg`` is
the Rect or Point the oracle checks against; ``payload`` is what the
program receives (a query plan, a Point, or an HTTP request body).
"""

from __future__ import annotations

import json
from typing import List, Tuple

import numpy as np

from repro.geometry import Point, Rect
from repro.query import KnnQuery, PointQuery, RangeQuery
from repro.workloads import dataset_extent, generate_range_workload, moving_hotspot

REGION = "newyork"
NUM_POINTS = 100_000
DATA_SEED = 17
TRAIN_SEED = DATA_SEED + 1
TRAIN_QUERIES = 200
TRAIN_SELECTIVITY = 0.0256
LEAF_CAPACITY = 64
KNN_K = 10

#: Table 2's selectivities (percent of the extent's area).
TABLE2_SELECTIVITIES = (0.0016, 0.0256, 0.1024)
#: The dashboard's small windows.
DASHBOARD_SELECTIVITIES = (0.0016, 0.0032, 0.0064)
DASHBOARD_LIMIT = 50

Op = Tuple[str, object, object]

_INPROC, _HTTP, _DRIFT = 1, 2, 3


def op_type(kind: str) -> str:
    """The reported op type of an op kind (inserts and deletes are ingest)."""
    return "ingest" if kind in ("insert", "delete") else kind


def stream_seed(seed: int, workload: int, part: int) -> int:
    """An integer seed for the repro generators; never a pool or training seed."""
    rng = np.random.default_rng([seed, workload, part])
    return 1_000_000 + int(rng.integers(1 << 30))


#: Timed check-in windows are drawn from a fixed pool: POOL_SEEDS check-in
#: workloads per selectivity.  A check-in generator's seed decides which
#: clusters are popular, so one generator seed per run would give every
#: run a differently skewed workload (median window sizes differed 8x
#: between seeds); drawing from the pool makes every run sample the same
#: mixture of popularity profiles.
POOL_SEEDS = 32
POOL_WINDOWS_PER_SEED = 100
POOL_FIRST_SEED = 1000


def window_pool(selectivity: float) -> List[Rect]:
    rects: List[Rect] = []
    for k in range(POOL_SEEDS):
        rects += generate_range_workload(
            REGION, POOL_WINDOWS_PER_SEED, selectivity, seed=POOL_FIRST_SEED + k,
        ).queries
    return rects


def sample_windows(rng: np.random.Generator, selectivity: float, num: int) -> List[Rect]:
    """``num`` distinct windows of the selectivity's pool, in random order."""
    pool = window_pool(selectivity)
    return [pool[i] for i in rng.choice(len(pool), size=num, replace=False)]


def _range_op(kind: str, rect: Rect) -> Op:
    return (kind, rect, RangeQuery(rect))


def _shuffled(ops: List[Op], rng: np.random.Generator) -> List[Op]:
    return [ops[i] for i in rng.permutation(len(ops))]


# ----------------------------------------------------------------------
# inproc-scan: one fixed pass, replayed until time is up
# ----------------------------------------------------------------------
INPROC_RANGES_PER_SELECTIVITY = 2400
INPROC_KNN = 1000
INPROC_POINTS = 4000


def inproc_scan_pass(seed: int, data_x: np.ndarray, data_y: np.ndarray) -> List[Op]:
    """Check-in range windows at Table 2's selectivities, kNN and point probes.

    Half of each selectivity's windows run as ``range_count``, half as
    ``range_rows``; kNN centers and point probes are sampled from the data.
    """
    rng = np.random.default_rng([seed, _INPROC, 0])
    ops: List[Op] = []
    half = INPROC_RANGES_PER_SELECTIVITY // 2
    for selectivity in TABLE2_SELECTIVITIES:
        rects = sample_windows(rng, selectivity, INPROC_RANGES_PER_SELECTIVITY)
        ops += [_range_op("range_count", r) for r in rects[:half]]
        ops += [_range_op("range_rows", r) for r in rects[half:]]
    for row in rng.integers(0, data_x.shape[0], size=INPROC_KNN):
        center = Point(float(data_x[row]), float(data_y[row]))
        ops.append(("knn", center, KnnQuery(center, KNN_K)))
    for row in rng.integers(0, data_x.shape[0], size=INPROC_POINTS):
        point = Point(float(data_x[row]), float(data_y[row]))
        ops.append(("point", point, PointQuery(point)))
    return _shuffled(ops, rng)


# ----------------------------------------------------------------------
# http-dashboard: fresh passes of single-plan POST /query bodies
# ----------------------------------------------------------------------
HTTP_HOT_TILES = 8
HTTP_HOT_PER_PASS = 50
HTTP_FRESH_RANGE_COUNT = 35
HTTP_FRESH_RANGE_ROWS = 35
HTTP_POINTS = 20
HTTP_KNN = 20


def _corners(rect: Rect) -> List[float]:
    return [float(rect.xmin), float(rect.ymin), float(rect.xmax), float(rect.ymax)]


def _request(kind: str, arg) -> bytes:
    if kind == "range_count":
        body = {"kind": "range", "rect": _corners(arg), "count_only": True}
    elif kind == "range_rows":
        body = {"kind": "range", "rect": _corners(arg), "limit": DASHBOARD_LIMIT}
    elif kind == "knn":
        body = {"kind": "knn", "center": [arg.x, arg.y], "k": KNN_K}
    elif kind == "point":
        body = {"kind": "point", "point": [arg.x, arg.y]}
    else:
        raise ValueError(kind)
    return json.dumps(body, sort_keys=True).encode("utf-8")


def _dashboard_rects(rng: np.random.Generator, num: int) -> List[Rect]:
    per = -(-num // len(DASHBOARD_SELECTIVITIES))
    rects: List[Rect] = []
    for selectivity in DASHBOARD_SELECTIVITIES:
        rects += sample_windows(rng, selectivity, per)
    return [rects[i] for i in rng.permutation(len(rects))[:num]]


def dashboard_hot_set(seed: int) -> List[Op]:
    """The hot tiles: half re-asked as counts, half as limited rows."""
    rects = _dashboard_rects(np.random.default_rng([seed, _HTTP, 0]), HTTP_HOT_TILES)
    half = HTTP_HOT_TILES // 2
    return (
        [("range_count", r, _request("range_count", r)) for r in rects[:half]]
        + [("range_rows", r, _request("range_rows", r)) for r in rects[half:]]
    )


def http_dashboard_pass(
    seed: int, index: int, hot: List[Op], data_x: np.ndarray, data_y: np.ndarray
) -> List[Op]:
    """One pass: a third re-asks the hot set, the rest are fresh plans."""
    rng = np.random.default_rng([seed, _HTTP, 1000 + index])
    ops: List[Op] = [hot[i] for i in rng.integers(0, len(hot), size=HTTP_HOT_PER_PASS)]
    rects = _dashboard_rects(rng, HTTP_FRESH_RANGE_COUNT + HTTP_FRESH_RANGE_ROWS)
    for rect in rects[:HTTP_FRESH_RANGE_COUNT]:
        ops.append(("range_count", rect, _request("range_count", rect)))
    for rect in rects[HTTP_FRESH_RANGE_COUNT:]:
        ops.append(("range_rows", rect, _request("range_rows", rect)))
    for kind, count in (("point", HTTP_POINTS), ("knn", HTTP_KNN)):
        for row in rng.integers(0, data_x.shape[0], size=count):
            point = Point(float(data_x[row]), float(data_y[row]))
            ops.append((kind, point, _request(kind, point)))
    return _shuffled(ops, rng)


# ----------------------------------------------------------------------
# online-drift: fresh passes following a moving hotspot
# ----------------------------------------------------------------------
DRIFT_STEPS = 6
#: The maintenance tick runs after every this many steps.
DRIFT_STEPS_PER_TICK = 2
DRIFT_WAVE = 1200          # range queries per step, half count / half rows
DRIFT_SELECTIVITY = 0.0064
DRIFT_INSERTS = 36         # per step
DRIFT_DELETES = 4          # per step, of live points
DRIFT_POINTS = 200         # per step, of live points
DRIFT_KNN = 100            # per step, centred in the wave
DRIFT_OPS_PER_STEP = (
    DRIFT_WAVE + DRIFT_INSERTS + DRIFT_DELETES + DRIFT_POINTS + DRIFT_KNN
)
DRIFT_OPS_PER_TICK = DRIFT_STEPS_PER_TICK * DRIFT_OPS_PER_STEP


def online_drift_pass(seed: int, index: int, live) -> List[Op]:
    """One pass of ``DRIFT_STEPS`` steps; the hotspot sweeps the diagonal.

    Even passes sweep from the lower-left to the upper-right corner, odd
    passes sweep back, so the hotspot keeps moving across passes.
    ``live`` (an :class:`~perfbench.oracle.LiveSet`) is the multiset at
    the start of the pass; it is not modified.  Each step's ops are
    shuffled; the maintenance tick runs after every
    ``DRIFT_STEPS_PER_TICK`` steps.
    """
    rng = np.random.default_rng([seed, _DRIFT, index])
    live = live.copy()
    ends = ((0.15, 0.15), (0.85, 0.85))
    start, end = ends if index % 2 == 0 else ends[::-1]
    phases = moving_hotspot(
        REGION, num_steps=DRIFT_STEPS, queries_per_step=DRIFT_WAVE,
        selectivity_percent=DRIFT_SELECTIVITY, start=start, end=end,
        seed=stream_seed(seed, _DRIFT, index),
    )
    extent = dataset_extent(REGION)
    ops: List[Op] = []
    for phase in phases:
        rects = list(phase.workload.queries)
        step: List[Op] = [
            _range_op("range_count" if i % 2 == 0 else "range_rows", rect)
            for i, rect in enumerate(rects)
        ]
        for rect in rects[:DRIFT_KNN]:
            center = Point((rect.xmin + rect.xmax) / 2.0, (rect.ymin + rect.ymax) / 2.0)
            step.append(("knn", center, KnnQuery(center, KNN_K)))
        xs = rng.uniform(extent.xmin, extent.xmax, size=DRIFT_INSERTS)
        ys = rng.uniform(extent.ymin, extent.ymax, size=DRIFT_INSERTS)
        writes: List[Op] = []
        for x, y in zip(xs.tolist(), ys.tolist()):
            writes.append(("insert", Point(x, y), Point(x, y)))
        for _ in range(DRIFT_DELETES):
            x, y = live.sample_live(rng)
            live.delete(x, y)
            writes.append(("delete", Point(x, y), Point(x, y)))
        for _ in range(DRIFT_POINTS):
            x, y = live.sample_live(rng)
            step.append(("point", Point(x, y), PointQuery(Point(x, y))))
        # Reads were sampled before this step's writes, so a point probe
        # may see its point deleted by then; the oracle replays the order.
        for x, y in zip(xs.tolist(), ys.tolist()):
            live.insert(x, y)
        ops += _shuffled(step + writes, rng)
    return ops
