"""The three workloads: inproc-scan, http-dashboard and online-drift.

Each runs one closed-loop caller over seeded passes of ops.
inproc-scan first runs the head of its pass untimed, as a warm-up.
Pass 0, the first timed pass, always runs to the end, so its op
sequence, and every counter measured over it, is fixed by the seed;
later passes run until ``--seconds`` of timed work have elapsed.  Generating a pass and checking its answers
happen between passes, outside the timed interval.

With ``trace=False`` a workload returns the end-to-end samples.  With
``trace=True`` it runs pass 0 twice from the same starting state, once
untraced and once with the layer wrappers installed, and returns the
per-layer metrics of the traced pass plus the difference of the two
passes' median op latencies (the tracing overhead).
"""

from __future__ import annotations

import http.client
import json
import math
import select
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np

from perfbench import streams
from perfbench.layers import per_layer, span_seconds
from perfbench.measure import PROBE_EVERY, HostProbe, Instrumentation, Tracer, load_spans
from perfbench.oracle import LiveSet, check
from repro import kernels
from repro.engine import SpatialEngine
from repro.online import MaintenancePolicy
from repro.workloads import generate_dataset, generate_range_workload

BENCH_DIR = Path(__file__).resolve().parent
LAUNCHER = BENCH_DIR / "launch.py"
OUT_DIR = BENCH_DIR / "_out"

#: Plan-cache capacity of the dashboard server (the PlanCache default).
PLAN_CACHE_CAPACITY = 1024
#: inproc-scan runs this many of its pass's ops untimed first, so lazy
#: set-up in the program and the interpreter is done before timing.
INPROC_WARMUP_OPS = 500
#: online-drift compacts once the delta holds this many rows, which a
#: tick's worth of writes (80 rows) always exceeds; the age trigger is
#: off so compaction repeats exactly for a seed.
DRIFT_COMPACT_ROWS = 60
#: Nominal timed seconds of one online-drift pass on a 2-vCPU VM.  The
#: workload runs the whole passes that fit in --seconds at this rate (at
#: least one) instead of stopping on the clock, because its state
#: (delta, layout, maintenance cycles) depends on how far the stream got.
DRIFT_PASS_NOMINAL_S = 6.0
#: http-dashboard samples the host probe this many times after each pass
#: (its op times are not CPU work, so the probe runs outside them).
HTTP_PROBE_SAMPLES = 100
#: Seconds a child process gets to start or to stop before it is killed.
CHILD_TIMEOUT_S = 120.0


@dataclass
class Outcome:
    """What one workload run measured."""

    workload: str
    seed: int
    trace: bool
    backend: str = ""
    setup_s: float = 0.0
    #: op type -> latencies in seconds, every timed op of the run, scaled
    #: to the nominal host where a HostProbe ran.
    latencies: Dict[str, List[float]] = field(default_factory=dict)
    #: op type -> ops of that type in pass 0 (fixes the tail percentile).
    pass0_counts: Dict[str, int] = field(default_factory=dict)
    ops: int = 0
    timed_s: float = 0.0
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    bytes_per_point: float = 0.0
    #: HostProbe.speed() over the run; 1.0 where no probe ran.  It scales
    #: setup_s, and ops_per_s where ``cpu_bound``.
    host_speed: float = 1.0
    #: Whether the op times are this process's CPU work (not http-dashboard's).
    cpu_bound: bool = True
    layers: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(reason)


@dataclass
class Pass:
    ops: list
    latencies: np.ndarray
    answers: list
    errors: Dict[int, str]
    wall_s: float
    #: Each op's HostProbe.local_speeds() (ones where no probe ran).
    speeds: np.ndarray


def run_pass(
    ops: list,
    call: Callable,
    *,
    budget_s: float,
    complete: bool,
    tracer: Optional[Tracer] = None,
    tick_every: int = 0,
    tick: Optional[Callable[[], None]] = None,
    probe: Optional[HostProbe] = None,
) -> Pass:
    """Run ``ops`` closed-loop; stop early only when not ``complete``.

    ``tick`` (maintenance) runs after every ``tick_every`` ops; its time
    counts in the pass's wall time but in no op's latency.  ``probe`` is
    sampled before every ``PROBE_EVERY`` ops; its time counts in neither.
    """
    first_sample = len(probe.samples) if probe is not None else 0
    latencies = np.zeros(len(ops))
    answers: list = [None] * len(ops)
    errors: Dict[int, str] = {}
    done = 0
    paused = 0.0
    start = perf_counter()
    for i, op in enumerate(ops):
        if probe is not None and i % PROBE_EVERY == 0:
            began = perf_counter()
            probe.sample()
            paused += perf_counter() - began
        if not complete and perf_counter() - start - paused >= budget_s:
            break
        if tracer is not None:
            tracer.current_op = i
        began = perf_counter()
        try:
            answers[i] = call(op)
        except Exception as exc:  # an op failure is counted, not fatal
            errors[i] = f"{op[0]}: {type(exc).__name__}: {exc}"
        latencies[i] = perf_counter() - began
        done = i + 1
        if tick is not None and done % tick_every == 0:
            if tracer is not None:
                tracer.current_op = -1
            tick()
    wall = perf_counter() - start - paused
    if tracer is not None:
        tracer.current_op = -1
    speeds = probe.local_speeds(first_sample, done) if probe is not None else np.ones(done)
    return Pass(ops[:done], latencies[:done], answers[:done], errors, wall, speeds)


def _record(outcome: Outcome, result: Pass, first: bool) -> None:
    """Adds a pass's latencies, scaled to the nominal host, to ``outcome``."""
    scaled = (result.latencies * result.speeds).tolist()
    for (kind, _, _), latency in zip(result.ops, scaled):
        kind = streams.op_type(kind)
        outcome.latencies.setdefault(kind, []).append(latency)
        if first:
            outcome.pass0_counts[kind] = outcome.pass0_counts.get(kind, 0) + 1
    outcome.ops += len(result.ops)
    outcome.timed_s += result.wall_s
    outcome.passes += 1


def _check_pass(outcome: Outcome, result: Pass, live: LiveSet) -> None:
    """Check a pass's answers in order, replaying its writes onto ``live``."""
    for i, (op, answer) in enumerate(zip(result.ops, result.answers)):
        outcome.attempted += 1
        if i in result.errors:
            outcome.fail(result.errors[i])
            # A failed write is not replayed; later reads are still checked.
            continue
        reason = check(op[:2], answer, live, k=streams.KNN_K)
        if reason is not None:
            outcome.fail(reason)


def _median_us(values) -> float:
    return float(np.median(np.asarray(values))) * 1e6


def _dataset():
    points = generate_dataset(streams.REGION, streams.NUM_POINTS, seed=streams.DATA_SEED)
    xs = np.fromiter((p.x for p in points), dtype=np.float64, count=len(points))
    ys = np.fromiter((p.y for p in points), dtype=np.float64, count=len(points))
    return points, xs, ys


def _build_engine():
    """Dataset + workload-aware WaZI build, as ``python -m repro build`` does it."""
    points, xs, ys = _dataset()
    training = generate_range_workload(
        streams.REGION, streams.TRAIN_QUERIES, streams.TRAIN_SELECTIVITY,
        seed=streams.TRAIN_SEED,
    )
    engine = SpatialEngine.build(
        "wazi", points, training,
        leaf_capacity=streams.LEAF_CAPACITY, seed=streams.DATA_SEED,
    )
    return engine, xs, ys


def _inproc_call(engine: SpatialEngine) -> Callable:
    def call(op):
        kind, _, payload = op
        if kind == "range_count":
            return engine.execute(payload, count_only=True)
        if kind in ("range_rows", "knn"):
            return engine.execute(payload).as_arrays()
        if kind == "point":
            return engine.execute(payload)
        if kind == "insert":
            return engine.insert(payload)
        if kind == "delete":
            return engine.delete(payload)
        raise ValueError(kind)

    return call


def _same_answer(a, b) -> bool:
    if isinstance(a, tuple):
        return all(np.array_equal(x, y) for x, y in zip(a, b))
    return a == b


def _traced(tracer: Tracer, fn: Callable):
    instrumentation = Instrumentation(tracer).install()
    try:
        return fn()
    finally:
        instrumentation.remove()


def _timed_setup(tracer: Optional[Tracer], build: Callable):
    """``(build(), seconds)``; traced when a tracer is given."""
    def timed():
        start = perf_counter()
        built = build()
        return built, perf_counter() - start

    return timed() if tracer is None else _traced(tracer, timed)


# ----------------------------------------------------------------------
# inproc-scan
# ----------------------------------------------------------------------
def inproc_scan(seed: int, seconds: float, trace: bool) -> Outcome:
    """The paper's query path on a bare engine with library defaults."""
    outcome = Outcome("inproc-scan", seed, trace, backend=kernels.backend_name())
    tracer = Tracer() if trace else None
    (engine, xs, ys), outcome.setup_s = _timed_setup(tracer, _build_engine)
    ops = streams.inproc_scan_pass(seed, xs, ys)
    live = LiveSet(xs, ys)
    call = _inproc_call(engine)
    if not trace:
        warmup = run_pass(ops[:INPROC_WARMUP_OPS], call, budget_s=seconds, complete=True)
        _check_pass(outcome, warmup, live)
        probe = HostProbe()
        first = run_pass(ops, call, budget_s=seconds, complete=True, probe=probe)
        _record(outcome, first, True)
        _check_pass(outcome, first, live)
        while outcome.timed_s < seconds:
            # The pass repeats on an unchanged index: answers must repeat too.
            again = run_pass(
                ops, call, budget_s=seconds - outcome.timed_s, complete=False, probe=probe,
            )
            _record(outcome, again, False)
            for i, answer in enumerate(again.answers):
                outcome.attempted += 1
                if i in again.errors:
                    outcome.fail(again.errors[i])
                elif not _same_answer(answer, first.answers[i]):
                    outcome.fail(f"{ops[i][0]}: answer changed between passes")
        outcome.host_speed = probe.speed()
    else:
        untraced = run_pass(ops, call, budget_s=seconds, complete=True)
        _check_pass(outcome, untraced, live)
        before = engine.counters.snapshot()
        traced = _traced(tracer, lambda: run_pass(
            ops, call, budget_s=seconds, complete=True, tracer=tracer))
        counters = Counter(engine.counters.snapshot())
        counters.subtract(before)
        _check_pass(outcome, traced, LiveSet(xs, ys))
        _record(outcome, traced, True)
        outcome.layers = per_layer(
            tracer.arrays(), len(ops), counters=counters,
            num_reads=len(ops), num_ingest=0,
        )
        outcome.layers["trace.overhead_us_per_op"] = (
            _median_us(traced.latencies) - _median_us(untraced.latencies)
        )
        _save_spans(outcome, tracer)
    outcome.bytes_per_point = engine.size_bytes() / len(engine)
    return outcome


# ----------------------------------------------------------------------
# online-drift
# ----------------------------------------------------------------------
def _drift_policy() -> MaintenancePolicy:
    return MaintenancePolicy(
        compact_min_rows=DRIFT_COMPACT_ROWS, compact_max_age_seconds=math.inf,
    )


class _Maintenance:
    """Runs ``loop.run_once()`` and tallies what it did."""

    def __init__(self, engine: SpatialEngine) -> None:
        self.engine = engine
        self.loop = engine.online(_drift_policy(), start=False)
        self.counters = Counter()
        self.compactions = 0
        self.rows_rewritten = 0
        self.scopes: List[float] = []

    def tick(self) -> None:
        before = self.engine.counters.snapshot()
        summary = self.loop.run_once()
        self.counters.update(self.engine.counters.snapshot())
        self.counters.subtract(before)
        if summary["compacted"]:
            self.compactions += 1
            self.rows_rewritten += summary["compaction"]["points"]
        if summary["adapted"]:
            self.scopes.append(summary["scope"])


def online_drift(seed: int, seconds: float, trace: bool) -> Outcome:
    """Merge-on-read, compaction and re-derive under a moving hotspot."""
    outcome = Outcome("online-drift", seed, trace, backend=kernels.backend_name())
    tracer = Tracer() if trace else None
    (engine, xs, ys), outcome.setup_s = _timed_setup(tracer, _build_engine)
    base = engine.index
    live = LiveSet(xs, ys)
    if not trace:
        maintenance = _Maintenance(engine)
        call = _inproc_call(engine)
        probe = HostProbe()
        for index in range(max(1, int(seconds // DRIFT_PASS_NOMINAL_S))):
            ops = streams.online_drift_pass(seed, index, live)
            result = run_pass(
                ops, call, budget_s=seconds, complete=True,
                tick_every=streams.DRIFT_OPS_PER_TICK, tick=maintenance.tick,
                probe=probe,
            )
            _record(outcome, result, index == 0)
            _check_pass(outcome, result, live)
        outcome.host_speed = probe.speed()
        outcome.notes.update(
            compactions=maintenance.compactions,
            incremental_adapts=maintenance.loop.incremental_adapts,
        )
        outcome.bytes_per_point = engine.size_bytes() / len(engine)
        return outcome

    # Both passes start from the freshly built base: the online wrapper
    # never writes to its base (compaction and adapt swap in clones).
    ops = streams.online_drift_pass(seed, 0, live)
    untraced_engine = SpatialEngine(base)
    untraced_maintenance = _Maintenance(untraced_engine)
    untraced = run_pass(
        ops, _inproc_call(untraced_engine), budget_s=seconds, complete=True,
        tick_every=streams.DRIFT_OPS_PER_TICK, tick=untraced_maintenance.tick,
    )
    _check_pass(outcome, untraced, live)
    untraced_engine.offline(compact=False)

    traced_engine = SpatialEngine(base)
    maintenance = _Maintenance(traced_engine)
    call = _inproc_call(traced_engine)
    delta_rows: List[int] = []

    def traced_call(op):
        # The sample is taken inside the op's timed interval, so
        # trace.overhead_us_per_op includes it.
        if op[0] not in ("insert", "delete"):
            delta_rows.append(traced_engine.index.delta_stats()["rows"])
        return call(op)

    before = traced_engine.counters.snapshot()
    traced = _traced(tracer, lambda: run_pass(
        ops, traced_call, budget_s=seconds, complete=True, tracer=tracer,
        tick_every=streams.DRIFT_OPS_PER_TICK, tick=maintenance.tick,
    ))
    counters = Counter(traced_engine.counters.snapshot())
    counters.subtract(before)
    counters.subtract(maintenance.counters)
    _check_pass(outcome, traced, LiveSet(xs, ys))
    _record(outcome, traced, True)
    num_ingest = sum(1 for op in ops if op[0] in ("insert", "delete"))
    outcome.layers = per_layer(
        tracer.arrays(), len(ops), counters=counters,
        num_reads=len(ops) - num_ingest, num_ingest=num_ingest,
        online={
            "delta_rows_mean": float(np.mean(delta_rows)) if delta_rows else 0.0,
            "compactions": maintenance.compactions,
            "incremental_adapts": maintenance.loop.incremental_adapts,
            "adapt_scope_mean": float(np.mean(maintenance.scopes)) if maintenance.scopes else 0.0,
            "rows_rewritten": maintenance.rows_rewritten,
        },
    )
    outcome.layers["trace.overhead_us_per_op"] = (
        _median_us(traced.latencies) - _median_us(untraced.latencies)
    )
    _save_spans(outcome, tracer)
    outcome.bytes_per_point = traced_engine.size_bytes() / len(traced_engine)
    traced_engine.offline(compact=False)
    return outcome


# ----------------------------------------------------------------------
# http-dashboard
# ----------------------------------------------------------------------
def _launch(args: List[str], spans: Optional[Path]) -> List[str]:
    command = [sys.executable, str(LAUNCHER)]
    if spans is not None:
        command += ["--trace", str(spans)]
    return command + ["--"] + args


class DashboardServer:
    """``repro serve`` in a child process, talked to over one keep-alive connection."""

    def __init__(self, snapshot: Path, log: Path, spans: Optional[Path] = None) -> None:
        self._log = open(log, "ab")
        self.proc = subprocess.Popen(
            _launch(
                ["serve", str(snapshot), "--port", "0",
                 "--plan-cache", str(PLAN_CACHE_CAPACITY)],
                spans,
            ),
            stdout=subprocess.PIPE, stderr=self._log,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], CHILD_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else b""
            if not line:
                raise RuntimeError(f"server did not become ready (see {log})")
            url = json.loads(line)["url"]
            host, port = url.split("//", 1)[1].rsplit(":", 1)
            self.conn = http.client.HTTPConnection(host, int(port), timeout=CHILD_TIMEOUT_S)
        except BaseException:
            self.close()
            raise

    def post(self, body: bytes):
        self.conn.request(
            "POST", "/query", body=body, headers={"Content-Type": "application/json"}
        )
        response = self.conn.getresponse()
        return response.status, response.read()

    def stats(self) -> dict:
        self.conn.request("GET", "/stats")
        response = self.conn.getresponse()
        body = response.read()
        if response.status != 200:
            raise RuntimeError(f"/stats answered {response.status}")
        return json.loads(body)

    def close(self) -> None:
        conn = getattr(self, "conn", None)
        if conn is not None:
            conn.close()
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def _http_call(server: DashboardServer, rtt: List[float], sizes: List[int]) -> Callable:
    def call(op):
        began = perf_counter()
        status, body = server.post(op[2])
        rtt.append(perf_counter() - began)
        sizes.append(len(body))
        return status, body

    return call


def _check_http(outcome: Outcome, results: List[Pass], snapshot: Path, live: LiveSet) -> None:
    """Byte-compare every response with the same plan run in-process.

    The reference is a fresh service over the same snapshot without a
    plan cache, replaying the requests in order; its own answers are
    checked against the brute-force oracle.
    """
    from repro.service import SpatialService, render_json_bytes

    engine = SpatialEngine.load(snapshot, record=True, mmap=True)
    service = SpatialService(engine, record=True)
    try:
        for result in results:
            for i, (op, answer) in enumerate(zip(result.ops, result.answers)):
                outcome.attempted += 1
                if i in result.errors:
                    outcome.fail(result.errors[i])
                    continue
                payload = json.loads(op[2])
                reference = service.handle_query(payload)
                status, body = answer
                if status != 200:
                    outcome.fail(f"{op[0]}: HTTP {status}")
                elif body != render_json_bytes(reference):
                    outcome.fail(f"{op[0]}: response differs from in-process bytes")
                else:
                    reason = check(
                        op[:2], _decode(op[0], reference["result"]), live,
                        k=streams.KNN_K, limit=payload.get("limit"),
                    )
                    if reason is not None:
                        outcome.fail(reason)
    finally:
        close = getattr(engine.index, "close", None)
        if callable(close):
            close()


def _decode(kind: str, result: dict):
    if kind == "range_count":
        return result["count"]
    if kind == "point":
        return result["found"]
    return np.asarray(result["xs"], dtype=np.float64), np.asarray(result["ys"], dtype=np.float64)


def http_dashboard(seed: int, seconds: float, trace: bool) -> Outcome:
    """Single-plan POST /query traffic against ``repro serve``."""
    outcome = Outcome("http-dashboard", seed, trace, backend=kernels.backend_name())
    work = OUT_DIR / "http-dashboard"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    snapshot = work / "dashboard.snapshot"
    log = work / "children.log"
    build_spans = work / "build-spans.npz" if trace else None
    server: Optional[DashboardServer] = None
    try:
        start = perf_counter()
        with open(log, "ab") as stderr:
            subprocess.run(
                _launch(["build", str(snapshot), "--seed", str(streams.DATA_SEED)], build_spans),
                check=True, stdout=subprocess.DEVNULL, stderr=stderr, timeout=900,
            )
        server = DashboardServer(snapshot, log)
        outcome.setup_s = perf_counter() - start

        _, xs, ys = _dataset()
        hot = streams.dashboard_hot_set(seed)
        results: List[Pass] = []
        if not trace:
            probe = HostProbe()
            index = 0
            while index == 0 or outcome.timed_s < seconds:
                ops = streams.http_dashboard_pass(seed, index, hot, xs, ys)
                result = run_pass(
                    ops, _http_call(server, [], []),
                    budget_s=seconds - outcome.timed_s, complete=index == 0,
                )
                _record(outcome, result, index == 0)
                results.append(result)
                index += 1
                for _ in range(HTTP_PROBE_SAMPLES):
                    probe.sample()
            outcome.host_speed = probe.speed()
            outcome.cpu_bound = False
            stats = server.stats()
            outcome.bytes_per_point = stats["size_bytes"] / stats["num_points"]
            outcome.notes["plan_cache"] = stats.get("plan_cache")
        else:
            ops = streams.http_dashboard_pass(seed, 0, hot, xs, ys)
            untraced = run_pass(ops, _http_call(server, [], []), budget_s=seconds, complete=True)
            results.append(untraced)
            server.close()
            server = None
            serve_spans = work / "serve-spans.npz"
            server = DashboardServer(snapshot, log, spans=serve_spans)
            before = server.stats()
            rtt: List[float] = []
            sizes: List[int] = []
            traced = run_pass(ops, _http_call(server, rtt, sizes), budget_s=seconds, complete=True)
            after = server.stats()
            outcome.bytes_per_point = after["size_bytes"] / after["num_points"]
            server.close()
            server = None
            results.append(traced)
            _record(outcome, traced, True)
            counters = Counter(after["counters"])
            counters.subtract(before["counters"])
            cache = Counter(after["plan_cache"])
            cache.subtract(before["plan_cache"])
            spans = load_spans(serve_spans)
            built = load_spans(build_spans)
            outcome.layers = per_layer(
                spans, len(ops), counters=counters, num_reads=len(ops), num_ingest=0,
                cache=cache,
                client={"rtt_s": np.asarray(rtt), "bytes": np.asarray(sizes)},
            )
            outcome.layers["core.build_s"] = span_seconds(built, "core.build")
            outcome.layers["persistence.save_s"] = span_seconds(built, "persistence.save")
            outcome.layers["trace.overhead_us_per_op"] = (
                _median_us(traced.latencies) - _median_us(untraced.latencies)
            )
            outcome.notes["spans"] = [str(build_spans), str(serve_spans)]
        if server is not None:
            server.close()
            server = None
        _check_http(outcome, results, snapshot, LiveSet(xs, ys))
    finally:
        if server is not None:
            server.close()
        snapshot.unlink(missing_ok=True)
    return outcome


def _save_spans(outcome: Outcome, tracer: Tracer) -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"{outcome.workload}-spans.npz"
    tracer.save(path)
    outcome.notes["spans"] = [str(path)]


WORKLOADS = {
    "inproc-scan": inproc_scan,
    "http-dashboard": http_dashboard,
    "online-drift": online_drift,
}
