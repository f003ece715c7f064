"""Tests of the benchmark's own machinery (not of the program it measures)."""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import streams  # noqa: E402
from perfbench.measure import (  # noqa: E402
    PROBE_EVERY,
    PROBE_NOMINAL_S,
    HostProbe,
    Instrumentation,
    Tracer,
    percentile,
    self_times,
    tail_percentile,
)
from perfbench.oracle import LiveSet  # noqa: E402
from perfbench.workloads import _check_pass, _inproc_call, Outcome, run_pass  # noqa: E402
from repro import kernels  # noqa: E402
from repro.engine import SpatialEngine  # noqa: E402
from repro.workloads import generate_dataset, generate_range_workload  # noqa: E402


@pytest.mark.parametrize(
    "samples, expected",
    [(5000, 90.0), (1000, 90.0), (100, 90.0), (99, 75.0), (40, 75.0),
     (39, 50.0), (20, 50.0), (19, None), (0, None)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(samples, expected):
    assert tail_percentile(samples) == expected


def test_percentile_is_a_measured_sample():
    values = list(range(1, 101))
    assert percentile(values, 50.0) == 50
    assert percentile(values, 99.0) == 99
    assert percentile(values[::-1], 90.0) == 90


class _SleepyProbe(HostProbe):
    def sample(self):
        time.sleep(0.01)
        self.samples.append(PROBE_NOMINAL_S)


def test_run_pass_samples_the_probe_outside_the_timed_interval():
    probe = _SleepyProbe()
    probe.samples.append(1.0)  # an earlier pass's sample is not this pass's
    ops = [("point", None, None)] * (2 * PROBE_EVERY + 1)
    result = run_pass(ops, lambda op: None, budget_s=60.0, complete=True, probe=probe)
    assert len(probe.samples) == 4
    assert result.wall_s < 0.01 and result.latencies.max() < 0.01
    np.testing.assert_allclose(result.speeds, np.ones(len(ops)))


def test_local_speed_is_the_median_of_neighbouring_blocks():
    probe = HostProbe()
    probe.samples = [9.0] + [PROBE_NOMINAL_S] * 5 + [2 * PROBE_NOMINAL_S] * 5
    speeds = probe.local_speeds(1, 10 * PROBE_EVERY)
    blocks = speeds[::PROBE_EVERY]
    # Block 4 sees samples 2..6 of the pass: three nominal, two slow.
    np.testing.assert_allclose(blocks, [1, 1, 1, 1, 1, 0.5, 0.5, 0.5, 0.5, 0.5])
    assert (speeds[:PROBE_EVERY] == 1).all()


def test_self_time_subtracts_the_union_of_clipped_children():
    # root [0, 10] has children a [1, 4] and b [3, 6] (overlapping) and
    # c [9, 12] (running past its parent); a has a grandchild g [2, 3].
    start = np.array([0.0, 1.0, 3.0, 9.0, 2.0])
    end = np.array([10.0, 4.0, 6.0, 12.0, 3.0])
    parent = np.array([-1, 0, 0, 0, 1])
    own = self_times(start, end, parent)
    # root: 10 - |[1, 6] u [9, 10]| = 10 - 6 = 4
    np.testing.assert_allclose(own, [4.0, 2.0, 3.0, 3.0, 1.0])


def test_tracer_records_nesting_and_op_ids():
    tracer = Tracer()

    def inner():
        return tracer.call("b.inner", lambda: 7, (), {})

    tracer.current_op = 3
    assert tracer.call("a.outer", inner, (), {}) == 7
    spans = tracer.arrays()
    assert spans["name"].tolist() == ["a.outer", "b.inner"]
    assert spans["parent"].tolist() == [-1, 0]
    assert spans["op"].tolist() == [3, 3]
    assert spans["start"][0] <= spans["start"][1] <= spans["end"][1] <= spans["end"][0]


def _small_data(num=3000):
    points = generate_dataset(streams.REGION, num, seed=5)
    xs = np.array([p.x for p in points])
    ys = np.array([p.y for p in points])
    return points, xs, ys


def test_same_seed_gives_the_same_streams():
    _, xs, ys = _small_data(500)

    def plain(ops):
        return [(kind, arg) for kind, arg, _ in ops]

    assert plain(streams.inproc_scan_pass(3, xs, ys)) == plain(streams.inproc_scan_pass(3, xs, ys))
    assert plain(streams.inproc_scan_pass(3, xs, ys)) != plain(streams.inproc_scan_pass(4, xs, ys))
    hot = streams.dashboard_hot_set(3)
    assert plain(hot) == plain(streams.dashboard_hot_set(3))
    first = streams.http_dashboard_pass(3, 1, hot, xs, ys)
    again = streams.http_dashboard_pass(3, 1, hot, xs, ys)
    assert [op[2] for op in first] == [op[2] for op in again]
    live = LiveSet(xs, ys)
    drift = streams.online_drift_pass(3, 0, live)
    assert plain(drift) == plain(streams.online_drift_pass(3, 0, live))
    assert plain(drift) != plain(streams.online_drift_pass(4, 0, live))
    assert len(live) == xs.shape[0]  # generation does not touch the caller's multiset


def test_timed_streams_never_use_the_training_seed():
    seeds = {streams.stream_seed(seed, w, part)
             for seed in range(20) for w in (1, 2, 3) for part in range(5)}
    seeds.update(streams.POOL_FIRST_SEED + k for k in range(streams.POOL_SEEDS))
    assert streams.TRAIN_SEED not in seeds


class _CorruptKernels:
    """The reference kernels, except that every selection drops its last row."""

    def __init__(self, inner):
        self.BACKEND = "corrupt"
        for name in kernels.KERNEL_NAMES:
            setattr(self, name, getattr(inner, name))
        select = inner.range_select

        def range_select(*args, **kwargs):
            sel = select(*args, **kwargs)
            return sel[:-1] if sel.size else sel

        self.range_select = range_select


@pytest.fixture(scope="module")
def small_engine():
    points, xs, ys = _small_data()
    training = generate_range_workload(streams.REGION, 50, 0.0256, seed=6)
    engine = SpatialEngine.build("wazi", points, training, seed=5)
    return engine, xs, ys


def _run_checked(engine, xs, ys) -> Outcome:
    ops = [op for op in streams.inproc_scan_pass(9, xs, ys) if op[0] != "knn"][:600]
    outcome = Outcome("inproc-scan", 9, False)
    result = run_pass(ops, _inproc_call(engine), budget_s=60.0, complete=True)
    _check_pass(outcome, result, LiveSet(xs, ys))
    return outcome


def test_oracle_passes_the_reference_kernels(small_engine):
    outcome = _run_checked(*small_engine)
    assert outcome.attempted == 600 and outcome.failed == 0


def test_oracle_flags_a_corrupt_kernel_backend(small_engine):
    previous = kernels.set_kernels(_CorruptKernels(kernels.get_kernels()))
    try:
        outcome = _run_checked(*small_engine)
    finally:
        kernels.set_kernels(previous)
    assert outcome.failed / outcome.attempted > 0


def test_instrumentation_times_kernels_and_restores_the_layers(small_engine):
    engine, xs, ys = small_engine
    execute = SpatialEngine.execute
    backend = kernels.get_kernels()
    tracer = Tracer()
    op = next(op for op in streams.inproc_scan_pass(9, xs, ys) if op[0] == "range_rows")
    instrumentation = Instrumentation(tracer).install()
    try:
        assert kernels.backend_name() == backend.BACKEND
        engine.execute(op[2]).as_arrays()
    finally:
        instrumentation.remove()
    assert SpatialEngine.execute is execute and kernels.get_kernels() is backend
    spans = tracer.arrays()
    names = spans["name"].tolist()
    assert names[0] == "engine.execute"
    kernel = names.index("kernels.range_select")
    assert names[spans["parent"][kernel]] == "zindex.range_query"
    assert spans["rows"][kernel] > 0
