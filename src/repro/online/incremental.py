"""Incremental adapt: per-leaf cost attribution and scoped subtree re-derive.

Full ``adapt()`` rebuilds the entire layout from scratch — correct, but
stop-the-world and wasteful when only one region of the key space drifted.
This module re-derives *only the subtrees whose observed scan cost
regressed*:

1. **Attribute** the sliding workload window's scan cost to individual
   leaves with the same model workload-aware shard planning uses
   (overlapping windows × rows, :func:`leaf_scan_costs`).
2. **Select** candidate subtrees (the tree cut at ``scope_depth``) whose
   cost *density* is both hot relative to the tree average and regressed
   relative to the density recorded when the subtree was last re-derived.
   Selection is capped to a strict subset of the leaves — when everything
   is hot, the right tool is a full rebuild, not N disguised ones.
3. **Re-derive** each selected subtree with a workload-aware greedy split
   strategy scoped to the windows that overlap it and a page size tuned
   to their result sizes, then splice the rebuilt leaves over the old
   span (:meth:`~repro.zindex.base.ZIndex.rederive_subtree`).

The functions here operate on a plain :class:`~repro.zindex.base.ZIndex`;
locking against concurrent readers/writers is the caller's job (the
online index swaps in a re-derived clone, see
:meth:`repro.online.index.OnlineIndex.incremental_adapt`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.construction import GreedySplitStrategy
from repro.geometry import Rect
from repro.zindex.base import ZIndex
from repro.zindex.node import InternalNode, ZNode, iter_leaves_in_curve_order

__all__ = [
    "IncrementalAdaptReport",
    "SubtreeRef",
    "incremental_adapt",
    "leaf_scan_costs",
    "subtree_candidates",
]

#: Re-derived hot subtrees may use finer pages than the global layout:
#: a drifting hotspot usually means small interactive windows, and the
#: whole point of scoping the rebuild is that the finer granularity is
#: paid only where the workload concentrates.
DEFAULT_MIN_LEAF_CAPACITY = 16

#: Cut depth for candidate enumeration: depth 2 yields at most 16
#: candidate subtrees, coarse enough that selection stays a strict
#: subset and fine enough to isolate a localized hotspot.
DEFAULT_SCOPE_DEPTH = 2


@dataclass(frozen=True)
class SubtreeRef:
    """One candidate subtree: a node, its parent slot, and its leaf span."""

    node: ZNode
    parent: Optional[InternalNode]
    quadrant: int
    depth: int
    low: int
    high: int

    @property
    def num_leaves(self) -> int:
        return self.high - self.low + 1

    @property
    def key(self) -> Tuple[float, float, float, float]:
        """Stable identity across re-derives: the subtree's cell.

        Candidate cells at ``scope_depth`` are fixed by the split
        coordinates of their ancestors, which incremental adapt never
        touches — re-deriving a subtree replaces its *interior* but keeps
        its cell, so the key survives as the baseline dictionary index.
        """
        cell = self.node.cell
        return (cell.xmin, cell.ymin, cell.xmax, cell.ymax)


@dataclass
class IncrementalAdaptReport:
    """What one incremental-adapt pass looked at and what it touched."""

    candidates: int
    selected: int
    leaves_total: int
    leaves_rederived: int
    new_leaves: int
    seconds: float
    subtree_keys: List[Tuple[float, float, float, float]] = field(default_factory=list)

    @property
    def scope(self) -> float:
        """Fraction of the leaf layer that was re-derived (< 1.0 by construction)."""
        if self.leaves_total == 0:
            return 0.0
        return self.leaves_rederived / self.leaves_total


def leaf_scan_costs(index: ZIndex, rects: Sequence[Rect]) -> np.ndarray:
    """Per-leaf scan cost of the window workload over the live index.

    The same cost model as
    :func:`repro.serving.sharding.leaf_scan_weights` — (number of windows
    overlapping the leaf's effective box) × (rows the leaf scans for
    each), plus one row per leaf so untouched leaves keep a nonzero
    floor — but attributed over the live leaf list instead of a snapshot.
    """
    packed = index.leaflist.packed()
    boxes = packed.boxes
    nonempty = packed.nonempty
    sizes = np.array([entry.num_points for entry in index.leaflist], dtype=np.float64)
    hits = np.zeros(len(sizes), dtype=np.float64)
    for query in rects:
        overlap = (
            nonempty
            & (boxes[:, 3] >= query.ymin) & (boxes[:, 1] <= query.ymax)
            & (boxes[:, 2] >= query.xmin) & (boxes[:, 0] <= query.xmax)
        )
        hits += overlap
    return hits * sizes + sizes + 1.0


def subtree_candidates(
    index: ZIndex, scope_depth: int = DEFAULT_SCOPE_DEPTH
) -> List[SubtreeRef]:
    """The tree cut at ``scope_depth``: disjoint subtrees covering every leaf.

    Internal nodes shallower than ``scope_depth`` are descended; leaves
    encountered on the way and nodes at exactly ``scope_depth`` become
    candidates.  Each candidate's leaves occupy one contiguous run of the
    curve-ordered leaf list.
    """
    out: List[SubtreeRef] = []

    def visit(
        node: Optional[ZNode], parent: Optional[InternalNode], quadrant: int, depth: int
    ) -> None:
        if node is None:
            return
        if node.is_leaf or depth >= scope_depth:
            leaves = list(iter_leaves_in_curve_order(node))
            if leaves:
                out.append(
                    SubtreeRef(
                        node=node,
                        parent=parent,
                        quadrant=quadrant,
                        depth=depth,
                        low=leaves[0].leaf_index,
                        high=leaves[-1].leaf_index,
                    )
                )
            return
        for child_quadrant in range(4):
            visit(node.children[child_quadrant], node, child_quadrant, depth + 1)

    visit(index.root, None, -1, 0)
    out.sort(key=lambda ref: ref.low)
    return out


def _overlapping(rects: Sequence[Rect], cell: Rect) -> List[Rect]:
    return [
        r for r in rects
        if r.xmax >= cell.xmin and r.xmin <= cell.xmax
        and r.ymax >= cell.ymin and r.ymin <= cell.ymax
    ]


def _subtree_rows(index: ZIndex, ref: SubtreeRef) -> Tuple[np.ndarray, np.ndarray]:
    """Coordinate columns of every point stored under the candidate.

    Walks the node's *current* leaves rather than the ``low``/``high``
    span captured at enumeration time: re-deriving an earlier selected
    subtree renumbers every later leaf index, so the cached span may
    point at other subtrees' pages (or past the end of the list).
    """
    xs_parts, ys_parts = [], []
    for leaf in iter_leaves_in_curve_order(ref.node):
        page = index.leaflist[leaf.leaf_index].page
        if len(page):
            xs_parts.append(np.asarray(page.xs, dtype=np.float64))
            ys_parts.append(np.asarray(page.ys, dtype=np.float64))
    if not xs_parts:
        return np.empty(0), np.empty(0)
    return np.concatenate(xs_parts), np.concatenate(ys_parts)


def _tuned_capacity(
    xs: np.ndarray,
    ys: np.ndarray,
    relevant: Sequence[Rect],
    *,
    minimum: int,
    maximum: int,
) -> int:
    """Page size matched to the windows' mean result size inside the subtree."""
    from repro.analysis.tuning import tuned_leaf_capacity

    if xs.shape[0] == 0 or not relevant:
        return maximum
    counts = [
        int(np.count_nonzero(
            (xs >= r.xmin) & (xs <= r.xmax) & (ys >= r.ymin) & (ys <= r.ymax)
        ))
        for r in relevant
    ]
    mean_result = float(np.mean(counts)) if counts else 0.0
    return tuned_leaf_capacity(mean_result, minimum=minimum, maximum=maximum)


def incremental_adapt(
    index: ZIndex,
    rects: Sequence[Rect],
    *,
    scope_depth: int = DEFAULT_SCOPE_DEPTH,
    hot_factor: float = 1.5,
    regress_factor: float = 1.1,
    baselines: Optional[Dict[Tuple[float, float, float, float], float]] = None,
    num_candidates: int = 16,
    seed: Optional[int] = 0,
    min_leaf_capacity: int = DEFAULT_MIN_LEAF_CAPACITY,
) -> IncrementalAdaptReport:
    """Re-derive the subtrees whose scan cost regressed under ``rects``.

    ``baselines`` maps subtree keys to the cost density recorded the last
    time the subtree was re-derived; pass the same dictionary across
    calls so a subtree that is hot *because the workload lives there and
    the layout already tracks it* is not rebuilt over and over.  The
    dictionary is updated in place with post-re-derive densities.

    Mutates ``index`` (the caller holds whatever locks protect it) and
    returns a report whose :attr:`~IncrementalAdaptReport.scope` is the
    fraction of leaves touched — strictly less than 1.0, enforced by
    dropping the coolest selected subtree when selection would cover the
    whole leaf layer.
    """
    start = time.perf_counter()
    if baselines is None:
        baselines = {}
    candidates = subtree_candidates(index, scope_depth)
    total_leaves = len(index.leaflist)
    if not candidates or total_leaves == 0 or not rects:
        return IncrementalAdaptReport(
            candidates=len(candidates),
            selected=0,
            leaves_total=total_leaves,
            leaves_rederived=0,
            new_leaves=0,
            seconds=time.perf_counter() - start,
        )
    costs = leaf_scan_costs(index, rects)
    total_points = max(1, len(index))
    tree_density = float(costs.sum()) / total_points

    def density(ref: SubtreeRef) -> float:
        span_cost = float(costs[ref.low : ref.high + 1].sum())
        span_points = sum(
            index.leaflist[i].num_points for i in range(ref.low, ref.high + 1)
        )
        return span_cost / max(1, span_points)

    densities = {ref.key: density(ref) for ref in candidates}
    selected = [
        ref for ref in candidates
        if densities[ref.key] > hot_factor * tree_density
        and densities[ref.key] > regress_factor * baselines.get(ref.key, 0.0)
    ]
    # Hottest first, then enforce the strict-subset cap.
    selected.sort(key=lambda ref: densities[ref.key], reverse=True)
    while selected and sum(ref.num_leaves for ref in selected) >= total_leaves:
        selected.pop()

    leaves_rederived = 0
    new_leaves = 0
    for ref in selected:
        relevant = _overlapping(rects, ref.node.cell)
        xs, ys = _subtree_rows(index, ref)
        capacity = _tuned_capacity(
            xs, ys, relevant,
            minimum=min_leaf_capacity, maximum=index.leaf_capacity,
        )
        strategy = GreedySplitStrategy(
            relevant, num_candidates=num_candidates, seed=seed, min_queries=1
        )
        leaves_rederived += ref.num_leaves
        new_leaves += index.rederive_subtree(
            ref.node, ref.parent, ref.quadrant,
            split_strategy=strategy, leaf_capacity=capacity,
        )

    if selected:
        # Record post-re-derive densities as the new baselines, so a
        # subtree the layout now tracks is only revisited if it regresses
        # again (the hotspot moved back, or further inserts degraded it).
        fresh_costs = leaf_scan_costs(index, rects)
        for ref in selected:
            replacement = (
                index.root if ref.parent is None else ref.parent.children[ref.quadrant]
            )
            leaves = list(iter_leaves_in_curve_order(replacement))
            low, high = leaves[0].leaf_index, leaves[-1].leaf_index
            span_cost = float(fresh_costs[low : high + 1].sum())
            span_points = sum(
                index.leaflist[i].num_points for i in range(low, high + 1)
            )
            baselines[ref.key] = span_cost / max(1, span_points)

    return IncrementalAdaptReport(
        candidates=len(candidates),
        selected=len(selected),
        leaves_total=total_leaves,
        leaves_rederived=leaves_rederived,
        new_leaves=new_leaves,
        seconds=time.perf_counter() - start,
        subtree_keys=[ref.key for ref in selected],
    )
