"""The correctness oracle: a NumPy brute-force reference over a live multiset.

Every answer the benchmark collects is checked here after its timed
interval.  Range counts compare exactly, row results compare as
multisets, kNN results compare by their sorted squared distances (ties
make neighbour identities ambiguous, distances are not), and writes are
replayed onto the reference so later reads are checked against the live
multiset.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


class LiveSet:
    """A point multiset with exact range, kNN and membership answers.

    The initial points are kept sorted by ``x`` so a range answer scans
    only the rows of its x-strip; inserted rows live in a small growable
    side array.  Deletes mark one live occurrence dead.
    """

    def __init__(self, xs: np.ndarray, ys: np.ndarray) -> None:
        order = np.lexsort((ys, xs))
        self.bx = np.ascontiguousarray(xs[order], dtype=np.float64)
        self.by = np.ascontiguousarray(ys[order], dtype=np.float64)
        self.balive = np.ones(self.bx.shape[0], dtype=bool)
        self.ix = np.empty(64, dtype=np.float64)
        self.iy = np.empty(64, dtype=np.float64)
        self.ialive = np.zeros(64, dtype=bool)
        self.num_inserted = 0

    def copy(self) -> "LiveSet":
        other = LiveSet.__new__(LiveSet)
        other.bx, other.by = self.bx, self.by  # never written after __init__
        other.balive = self.balive.copy()
        other.ix, other.iy = self.ix.copy(), self.iy.copy()
        other.ialive = self.ialive.copy()
        other.num_inserted = self.num_inserted
        return other

    def __len__(self) -> int:
        return int(self.balive.sum()) + int(self.ialive[: self.num_inserted].sum())

    # -- reads ---------------------------------------------------------
    def rows_in(self, rect) -> Tuple[np.ndarray, np.ndarray]:
        lo = int(np.searchsorted(self.bx, rect.xmin, side="left"))
        hi = int(np.searchsorted(self.bx, rect.xmax, side="right"))
        sx, sy = self.bx[lo:hi], self.by[lo:hi]
        keep = (sy >= rect.ymin) & (sy <= rect.ymax) & self.balive[lo:hi]
        n = self.num_inserted
        ix, iy = self.ix[:n], self.iy[:n]
        ikeep = (
            self.ialive[:n]
            & (ix >= rect.xmin) & (ix <= rect.xmax)
            & (iy >= rect.ymin) & (iy <= rect.ymax)
        )
        return (
            np.concatenate([sx[keep], ix[ikeep]]),
            np.concatenate([sy[keep], iy[ikeep]]),
        )

    def knn_d2(self, cx: float, cy: float, k: int) -> np.ndarray:
        """The ``k`` smallest squared distances to a live point, ascending."""
        n = self.num_inserted
        xs = np.concatenate([self.bx[self.balive], self.ix[:n][self.ialive[:n]]])
        ys = np.concatenate([self.by[self.balive], self.iy[:n][self.ialive[:n]]])
        d2 = squared_distances(xs, ys, cx, cy)
        k = min(k, d2.shape[0])
        return np.sort(np.partition(d2, k - 1)[:k]) if k else d2[:0]

    def contains(self, x: float, y: float) -> bool:
        return self._find(x, y) is not None

    # -- writes --------------------------------------------------------
    def insert(self, x: float, y: float) -> None:
        n = self.num_inserted
        if n == self.ix.shape[0]:
            self.ix = np.concatenate([self.ix, np.empty(n, dtype=np.float64)])
            self.iy = np.concatenate([self.iy, np.empty(n, dtype=np.float64)])
            self.ialive = np.concatenate([self.ialive, np.zeros(n, dtype=bool)])
        self.ix[n], self.iy[n], self.ialive[n] = x, y, True
        self.num_inserted = n + 1

    def delete(self, x: float, y: float) -> bool:
        """Kill one live occurrence of ``(x, y)``; False when none is live."""
        found = self._find(x, y)
        if found is None:
            return False
        side, row = found
        (self.balive if side == "base" else self.ialive)[row] = False
        return True

    def _find(self, x: float, y: float) -> Optional[Tuple[str, int]]:
        lo = int(np.searchsorted(self.bx, x, side="left"))
        hi = int(np.searchsorted(self.bx, x, side="right"))
        hits = np.flatnonzero((self.by[lo:hi] == y) & self.balive[lo:hi])
        if hits.shape[0]:
            return "base", lo + int(hits[0])
        n = self.num_inserted
        hits = np.flatnonzero(
            (self.ix[:n] == x) & (self.iy[:n] == y) & self.ialive[:n]
        )
        if hits.shape[0]:
            return "inserted", int(hits[0])
        return None

    def sample_live(self, rng: np.random.Generator) -> Tuple[float, float]:
        """A live point drawn uniformly from the multiset."""
        n = self.num_inserted
        base_rows = np.flatnonzero(self.balive)
        ins_rows = np.flatnonzero(self.ialive[:n])
        pick = int(rng.integers(base_rows.shape[0] + ins_rows.shape[0]))
        if pick < base_rows.shape[0]:
            row = int(base_rows[pick])
            return float(self.bx[row]), float(self.by[row])
        row = int(ins_rows[pick - base_rows.shape[0]])
        return float(self.ix[row]), float(self.iy[row])


def squared_distances(xs, ys, cx: float, cy: float) -> np.ndarray:
    dx = np.asarray(xs, dtype=np.float64) - cx
    dy = np.asarray(ys, dtype=np.float64) - cy
    return dx * dx + dy * dy


def same_multiset(ax, ay, bx, by) -> bool:
    ax, ay = np.asarray(ax, dtype=np.float64), np.asarray(ay, dtype=np.float64)
    bx, by = np.asarray(bx, dtype=np.float64), np.asarray(by, dtype=np.float64)
    if ax.shape != bx.shape:
        return False
    a = np.lexsort((ay, ax))
    b = np.lexsort((by, bx))
    return bool(np.array_equal(ax[a], bx[b]) and np.array_equal(ay[a], by[b]))


def check(op, answer, live: LiveSet, *, k: int = 10, limit: Optional[int] = None) -> Optional[str]:
    """Check one answer against ``live`` (and apply writes to it).

    ``op`` is ``(kind, arg)`` with ``arg`` a Rect for range kinds and a
    Point otherwise.  Returns ``None`` when the answer is right, else a
    one-line reason.  ``limit`` marks a truncated row result: its rows
    must be ``min(limit, total)`` live rows inside the window.
    """
    kind, arg = op
    if kind == "range_count":
        expect = live.rows_in(arg)[0].shape[0]
        return None if answer == expect else f"range_count {answer} != {expect}"
    if kind == "range_rows":
        xs, ys = answer
        rx, ry = live.rows_in(arg)
        if limit is None:
            if same_multiset(xs, ys, rx, ry):
                return None
            return f"range_rows: {len(xs)} rows, expected {len(rx)}"
        xs, ys = np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64)
        expect = min(limit, rx.shape[0])
        inside = bool(np.all(
            (xs >= arg.xmin) & (xs <= arg.xmax) & (ys >= arg.ymin) & (ys <= arg.ymax)
        ))
        if xs.shape[0] == expect and inside:
            return None
        return f"range_rows limit={limit}: {xs.shape[0]} rows, expected {expect}"
    if kind == "knn":
        xs, ys = answer
        got = np.sort(squared_distances(xs, ys, arg.x, arg.y))
        expect = live.knn_d2(arg.x, arg.y, k)
        if np.array_equal(got, expect):
            return None
        return f"knn at ({arg.x}, {arg.y}): distances differ"
    if kind == "point":
        expect = live.contains(arg.x, arg.y)
        return None if bool(answer) == expect else f"point {answer} != {expect}"
    if kind == "insert":
        live.insert(arg.x, arg.y)
        return None
    if kind == "delete":
        expect = live.delete(arg.x, arg.y)
        return None if bool(answer) == expect else f"delete {answer} != {expect}"
    raise ValueError(f"unknown op kind {kind!r}")
