"""The repository benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload inproc-scan --seed 1 --seconds 12 --trace 0

Run from the repository root; the program is imported from ``src/``.
Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  ``BENCHMARK.json`` at the root lists the
metrics and ``perfbench/layout.json`` the workloads' design.
Times are scaled to a nominal host by :class:`perfbench.measure.HostProbe`
(http-dashboard's op times excepted); the first report line gives the
run's host speed.

Exits non-zero without a result line when the program cannot be
imported or the benchmark itself fails.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

#: The op types every workload issues; each gets a p50 and a tail metric.
GATED_OP_TYPES = ("range_count", "range_rows", "knn", "point")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "bytes_per_point": "B",
    **{
        f"{op}_{stat}_us": "us"
        for op in GATED_OP_TYPES
        for stat in ("p50", "tail")
    },
}


def _latency_stats(outcome, op: str):
    """``(p50_us, tail_us, tail_pct, samples)`` of one op type."""
    from perfbench.measure import percentile, tail_percentile

    samples = outcome.latencies.get(op, [])
    pct = tail_percentile(outcome.pass0_counts.get(op, 0))
    if pct is None:
        raise RuntimeError(f"{outcome.workload}: too few {op} ops in pass 0 for a tail")
    return (
        percentile(samples, 50.0) * 1e6,
        percentile(samples, pct) * 1e6,
        pct,
        len(samples),
    )


def end_to_end(outcome) -> dict:
    """The end-to-end metrics, scaled to the nominal host.

    Latencies come scaled op by op; ``setup_s`` and ``ops_per_s`` are
    scaled here by the run's host speed.  http-dashboard's op times are
    set by a network timer and a second process, not by this process's
    CPU, so only its ``setup_s`` is scaled.
    """
    ops_speed = outcome.host_speed if outcome.cpu_bound else 1.0
    metrics = {
        "setup_s": outcome.setup_s * outcome.host_speed,
        "ops_per_s": outcome.ops / outcome.timed_s / ops_speed,
        "bytes_per_point": outcome.bytes_per_point,
    }
    for op in GATED_OP_TYPES:
        p50, tail, _, _ = _latency_stats(outcome, op)
        metrics[f"{op}_p50_us"] = p50
        metrics[f"{op}_tail_us"] = tail
    return metrics


def report(outcome, metrics: dict, units: dict) -> None:
    """The human-readable lines printed before the result."""
    print(f"workload={outcome.workload} seed={outcome.seed} trace={int(outcome.trace)} "
          f"kernels={outcome.backend} passes={outcome.passes} ops={outcome.ops} "
          f"timed_s={outcome.timed_s:.3f} host_speed={outcome.host_speed:.4f}")
    for op in ("range_count", "range_rows", "knn", "point", "ingest"):
        if not outcome.latencies.get(op) or outcome.trace:
            continue
        p50, tail, pct, n = _latency_stats(outcome, op)
        print(f"  {op:<12} n={n:<7} p50={p50:10.1f} us  p{pct:g}={tail:10.1f} us")
    share = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    print(f"  failed_share={share:.6f} ratio ({outcome.failed}/{outcome.attempted})")
    for reason in outcome.failures:
        print(f"  failure: {reason}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for key, value in outcome.notes.items():
        print(f"  note {key}: {value}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exit, so a running server child is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    from perfbench.layers import PER_LAYER_UNITS
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    try:
        outcome = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
        if args.trace:
            units = PER_LAYER_UNITS
            metrics = {name: outcome.layers[name] for name in units}
        else:
            units = END_TO_END_UNITS
            metrics = end_to_end(outcome)
    except Exception:
        traceback.print_exc()
        return 1
    report(outcome, metrics, units)
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
