"""Per-layer metrics of the traced pass, computed from spans and counters.

Layer names follow the ``src/repro`` modules that own the code; see
``perfbench/layout.json`` for which end-to-end metric each one should
move.  ``*_per_op`` divides by the ops of the traced pass (all op
types) unless the name says otherwise; set-up and maintenance spans
carry op id -1 and count only in the metrics that name them.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from perfbench.measure import self_times

#: name -> unit, in reporting order.
PER_LAYER_UNITS: Dict[str, str] = {
    "kernels.self_us_per_op": "us",
    "kernels.calls_per_op": "count",
    "kernels.rows_masked_per_op": "count",
    "zindex.self_us_per_op": "us",
    "zindex.points_filtered_per_op": "count",
    "zindex.pages_scanned_per_op": "count",
    "zindex.bbs_checked_per_op": "count",
    "zindex.leaves_skipped_per_op": "count",
    "zindex.nodes_visited_per_op": "count",
    "zindex.useful_row_share": "ratio",
    "core.build_s": "s",
    "persistence.save_s": "s",
    "persistence.load_s": "s",
    "engine.self_us_per_op": "us",
    "plancache.hit_rate": "ratio",
    "plancache.self_us_per_op": "us",
    "workload_log.self_us_per_op": "us",
    "obs.self_us_per_op": "us",
    "service.self_us_per_op": "us",
    "service.json_us_per_op": "us",
    "service.bytes_per_op": "B",
    "service.transport_us_per_op": "us",
    "online.merge_self_us_per_op": "us",
    "online.delta_rows_mean": "count",
    "online.ingest_self_us_per_op": "us",
    "online.compact_s": "s",
    "online.compactions": "count",
    "online.adapt_s": "s",
    "online.incremental_adapts": "count",
    "online.adapt_scope_mean": "ratio",
    "online.rows_rewritten_per_row_ingested": "ratio",
    "trace.overhead_us_per_op": "us",
}

ZINDEX_COUNTERS = (
    "points_filtered", "pages_scanned", "bbs_checked", "leaves_skipped", "nodes_visited",
)

_ONLINE_READS = (
    "online.range_query", "online.range_count", "online.batch_range_query",
    "online.batch_range_count", "online.knn", "online.point_query",
)
_ONLINE_WRITES = ("online.insert", "online.delete")


def span_seconds(spans: Dict[str, np.ndarray], name: str) -> float:
    """Total duration of the spans called ``name``."""
    mask = spans["name"] == name
    return float((spans["end"][mask] - spans["start"][mask]).sum())


def per_layer(
    spans: Dict[str, np.ndarray],
    num_ops: int,
    *,
    counters: Dict[str, int],
    num_reads: int,
    num_ingest: int,
    cache: Optional[Dict[str, int]] = None,
    client: Optional[Dict[str, np.ndarray]] = None,
    online: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Every metric of :data:`PER_LAYER_UNITS` except the tracing overhead.

    ``spans`` holds the traced process's spans (set-up spans included);
    ``counters`` the index cost-counter deltas over the traced pass with
    maintenance work subtracted; ``cache`` the plan cache's hit/miss
    deltas; ``client`` the HTTP client's per-op round trips and response
    sizes (``rtt_s``, ``bytes``, indexed by op id); ``online`` the
    maintenance loop's tallies.  Layers that did not run report 0.
    """
    names = spans["name"]
    start, end, op = spans["start"], spans["end"], spans["op"]
    durations = end - start
    own = self_times(start, end, spans["parent"])
    in_pass = (op >= 0) & (op < num_ops)
    layer = np.asarray([name.partition(".")[0] for name in names.tolist()], dtype=str)

    def per_op(total: float, denominator: int = num_ops) -> float:
        return total / denominator if denominator else 0.0

    def self_us(mask: np.ndarray, denominator: int = num_ops) -> float:
        return per_op(float(own[mask & in_pass].sum()) * 1e6, denominator)

    def named(*wanted: str) -> np.ndarray:
        return np.isin(names, wanted)

    kernels = (layer == "kernels") & in_pass
    rows_masked = int(spans["rows"][kernels].sum())
    out = {
        "kernels.self_us_per_op": self_us(layer == "kernels"),
        "kernels.calls_per_op": per_op(int(kernels.sum())),
        "kernels.rows_masked_per_op": per_op(rows_masked),
        "zindex.self_us_per_op": self_us(layer == "zindex"),
    }
    for counter in ZINDEX_COUNTERS:
        out[f"zindex.{counter}_per_op"] = per_op(counters.get(counter, 0))
    out["zindex.useful_row_share"] = (
        counters.get("points_returned", 0) / rows_masked if rows_masked else 0.0
    )
    out["core.build_s"] = span_seconds(spans, "core.build")
    out["persistence.save_s"] = span_seconds(spans, "persistence.save")
    out["persistence.load_s"] = span_seconds(spans, "persistence.load")
    out["engine.self_us_per_op"] = self_us(layer == "engine")
    lookups = (cache or {}).get("hits", 0) + (cache or {}).get("misses", 0)
    out["plancache.hit_rate"] = (cache or {}).get("hits", 0) / lookups if lookups else 0.0
    out["plancache.self_us_per_op"] = self_us(layer == "plancache")
    out["workload_log.self_us_per_op"] = self_us(layer == "workload_log")
    out["obs.self_us_per_op"] = self_us(layer == "obs")
    out["service.self_us_per_op"] = self_us(named("service.handle_query"))
    out["service.json_us_per_op"] = per_op(
        float(durations[named("service.render_json") & in_pass].sum()) * 1e6
    )
    out["service.bytes_per_op"] = 0.0
    out["service.transport_us_per_op"] = 0.0
    if client is not None and num_ops:
        requests = named("service.request") & in_pass
        handled = np.zeros(num_ops)
        np.add.at(handled, op[requests], durations[requests])
        rtt = client["rtt_s"][:num_ops]
        out["service.bytes_per_op"] = float(np.mean(client["bytes"][:num_ops]))
        out["service.transport_us_per_op"] = float(np.mean(rtt - handled)) * 1e6
    online = online or {}
    out["online.merge_self_us_per_op"] = self_us(named(*_ONLINE_READS), num_reads)
    out["online.delta_rows_mean"] = float(online.get("delta_rows_mean", 0.0))
    out["online.ingest_self_us_per_op"] = self_us(named(*_ONLINE_WRITES), num_ingest)
    out["online.compact_s"] = span_seconds(spans, "online.compact")
    out["online.compactions"] = float(online.get("compactions", 0))
    out["online.adapt_s"] = span_seconds(spans, "online.incremental_adapt")
    out["online.incremental_adapts"] = float(online.get("incremental_adapts", 0))
    out["online.adapt_scope_mean"] = float(online.get("adapt_scope_mean", 0.0))
    out["online.rows_rewritten_per_row_ingested"] = per_op(
        online.get("rows_rewritten", 0), num_ingest
    )
    return out
