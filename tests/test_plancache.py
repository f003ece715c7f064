"""Plan-cache correctness: a cached engine must be indistinguishable from
an uncached one under *any* interleaving of queries and state changes.

The cache keys by exact plan parameters and invalidates through the flat
generation counter plus index identity (see :mod:`repro.plancache`), so
the properties to pin down are:

* differential: a cached engine and an uncached twin driven through the
  same random sequence of execute / insert / delete / adapt operations
  always return identical results — a stale hit would split them;
* keying: ``count_only`` and ``limit`` variants never alias;
* accounting: every lookup is exactly one hit or one miss, evictions and
  invalidations are counted when they happen;
* bounding: the LRU never exceeds its capacity.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import SpatialEngine
from repro.geometry import Point, Rect
from repro.plancache import MISS, CacheStats, PlanCache
from repro.query import KnnQuery, PointQuery, RadiusQuery, RangeQuery
from repro.workloads import Workload, generate_dataset


# ---------------------------------------------------------------------------
# PlanCache unit behaviour (with a minimal index stand-in)
# ---------------------------------------------------------------------------


class FakeIndex:
    """The only contract the cache relies on: a generation counter."""

    def __init__(self, generation=0):
        self._flat_generation = generation


class TestPlanCacheUnit:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)
        with pytest.raises(ValueError):
            PlanCache(capacity=-3)

    def test_empty_lookup_is_a_counted_miss(self):
        cache = PlanCache()
        index = FakeIndex()
        assert cache.lookup("k", index) is MISS
        assert cache.stats.snapshot() == {
            "hits": 0, "misses": 1, "evictions": 0, "invalidations": 0,
        }

    def test_store_then_lookup_hits(self):
        cache = PlanCache()
        index = FakeIndex()
        assert cache.store("k", index, 42)
        assert cache.lookup("k", index) == 42
        assert cache.stats.hits == 1

    def test_none_is_a_cacheable_value(self):
        cache = PlanCache()
        index = FakeIndex()
        cache.store("k", index, None)
        assert cache.lookup("k", index) is None  # not MISS

    def test_uncachable_index_never_stores_and_always_misses(self):
        cache = PlanCache()
        plain = object()  # no _flat_generation
        assert not cache.store("k", plain, 42)
        assert cache.lookup("k", plain) is MISS
        assert len(cache) == 0

    def test_generation_bump_invalidates(self):
        cache = PlanCache()
        index = FakeIndex(generation=7)
        cache.store("k", index, "old")
        index._flat_generation = 8
        assert cache.lookup("k", index) is MISS
        assert cache.stats.invalidations == 1
        assert len(cache) == 0  # dropped eagerly, not left to LRU pressure

    def test_identity_change_invalidates_even_at_same_generation(self):
        cache = PlanCache()
        first = FakeIndex(generation=3)
        cache.store("k", first, "first")
        impostor = FakeIndex(generation=3)
        assert cache.lookup("k", impostor) is MISS
        assert cache.stats.invalidations == 1

    def test_dead_index_entry_invalidates(self):
        cache = PlanCache()
        index = FakeIndex()
        cache.store("k", index, 1)
        del index
        assert cache.lookup("k", FakeIndex()) is MISS

    def test_lru_eviction_order_and_count(self):
        cache = PlanCache(capacity=2)
        index = FakeIndex()
        cache.store("a", index, 1)
        cache.store("b", index, 2)
        cache.lookup("a", index)      # refresh "a": now "b" is the LRU
        cache.store("c", index, 3)    # evicts "b"
        assert cache.keys() == ["a", "c"]
        assert cache.stats.evictions == 1
        assert cache.lookup("b", index) is MISS
        assert cache.lookup("a", index) == 1
        assert cache.lookup("c", index) == 3

    def test_len_never_exceeds_capacity(self):
        cache = PlanCache(capacity=4)
        index = FakeIndex()
        for i in range(20):
            cache.store(i, index, i)
            assert len(cache) <= 4

    def test_restore_moves_key_to_fresh_end(self):
        cache = PlanCache(capacity=2)
        index = FakeIndex()
        cache.store("a", index, 1)
        cache.store("b", index, 2)
        cache.store("a", index, 10)   # re-store refreshes recency
        cache.store("c", index, 3)    # so "b" is evicted, not "a"
        assert cache.lookup("a", index) == 10
        assert cache.lookup("b", index) is MISS

    def test_clear_drops_entries_but_keeps_lifetime_stats(self):
        cache = PlanCache()
        index = FakeIndex()
        cache.store("k", index, 1)
        cache.lookup("k", index)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1
        assert cache.lookup("k", index) is MISS

    def test_stats_derived_properties(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.lookups == 4
        assert stats.hit_rate == pytest.approx(0.75)
        assert CacheStats().hit_rate == 0.0


# ---------------------------------------------------------------------------
# Engine integration
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cached_pair_scenario():
    points = generate_dataset("newyork", 400, seed=6)
    rect_pool = [
        Rect(p.x - w, p.y - w, p.x + w, p.y + w)
        for p in points[::40]
        for w in (0.02, 0.3)
    ]
    center_pool = [Point(p.x, p.y) for p in points[::60]]
    return points, rect_pool, center_pool


def build_pair(points):
    """A cached engine and its uncached twin, built identically."""
    cached = SpatialEngine.build(
        "wazi", points, leaf_capacity=16, seed=2, plan_cache=True
    )
    plain = SpatialEngine.build("wazi", points, leaf_capacity=16, seed=2)
    assert cached.plan_cache is not None and plain.plan_cache is None
    return cached, plain


def batch_plans(kind, rect_pool, center_pool):
    """A homogeneous plan list of ``kind``, one plan per pool entry."""
    if kind == "range":
        return [RangeQuery(r) for r in rect_pool]
    if kind == "knn":
        return [KnnQuery(c, 4) for c in center_pool]
    return [RadiusQuery(c, 0.08) for c in center_pool]


def observable(value):
    """A comparable projection of whatever execute() returned."""
    if isinstance(value, (int, bool)):
        return value
    xs, ys = value.as_arrays()
    return (xs.tobytes(), ys.tobytes())


class TestEngineNeverServesStale:
    """The core property: cached and uncached engines are indistinguishable."""

    OPS = st.lists(
        st.one_of(
            st.tuples(st.just("range"), st.integers(0, 19), st.booleans(),
                      st.sampled_from([None, 3])),
            st.tuples(st.just("knn"), st.integers(0, 6), st.integers(1, 8)),
            st.tuples(st.just("radius"), st.integers(0, 6),
                      st.sampled_from([0.02, 0.08])),
            st.tuples(st.just("insert"), st.integers(0, 2**20)),
            st.tuples(st.just("delete"), st.integers(0, 399)),
            st.tuples(st.just("adapt"), st.integers(0, 19)),
        ),
        min_size=1,
        max_size=40,
    )

    @settings(max_examples=12, deadline=None)
    @given(ops=OPS)
    def test_differential_against_uncached_twin(self, cached_pair_scenario, ops):
        points, rect_pool, center_pool = cached_pair_scenario
        cached, plain = build_pair(points)
        live = list(points)
        for op in ops:
            if op[0] == "range":
                _, i, count_only, limit = op
                plan = RangeQuery(rect_pool[i % len(rect_pool)])
                # Issue twice so the second call is a guaranteed exact
                # repeat — the hit path must agree with the miss path.
                for _ in range(2):
                    got = cached.execute(plan, count_only=count_only, limit=limit)
                    want = plain.execute(plan, count_only=count_only, limit=limit)
                    assert observable(got) == observable(want)
            elif op[0] == "knn":
                _, i, k = op
                plan = KnnQuery(center_pool[i % len(center_pool)], k)
                for _ in range(2):
                    assert observable(cached.execute(plan)) == observable(
                        plain.execute(plan)
                    )
            elif op[0] == "radius":
                _, i, radius = op
                plan = RadiusQuery(center_pool[i % len(center_pool)], radius)
                for _ in range(2):
                    assert observable(cached.execute(plan)) == observable(
                        plain.execute(plan)
                    )
            elif op[0] == "insert":
                point = Point((op[1] % 997) / 997.0, (op[1] % 991) / 991.0)
                cached.insert(point)
                plain.insert(point)
                live.append(point)
            elif op[0] == "delete":
                victim = live[op[1] % len(live)]
                assert cached.delete(victim) == plain.delete(victim)
                live = [p for p in live if p is not victim]
            elif op[0] == "adapt":
                workload = Workload(queries=[rect_pool[op[1] % len(rect_pool)]])
                cached.adapt(workload, tune_leaf_capacity=False)
                plain.adapt(workload, tune_leaf_capacity=False)

    @pytest.mark.parametrize("limit", [None, 3])
    @pytest.mark.parametrize("kind", ["range", "knn", "radius"])
    def test_execute_many_hit_miss_merge_preserves_order(self, cached_pair_scenario,
                                                         kind, limit):
        points, rect_pool, center_pool = cached_pair_scenario
        cached, plain = build_pair(points)
        plans = batch_plans(kind, rect_pool, center_pool)[:8]
        # Pre-warm an arbitrary subset so the batch mixes hits and misses.
        for plan in plans[::2]:
            cached.execute(plan, limit=limit)
            cached.execute(plan, count_only=True, limit=limit)
        for count_only in (False, True):
            got = cached.execute_many(plans, count_only=count_only, limit=limit)
            want = plain.execute_many(plans, count_only=count_only, limit=limit)
            assert [observable(v) for v in got] == [observable(v) for v in want]

    def test_mutation_between_batches_invalidates(self, cached_pair_scenario):
        points, rect_pool, _ = cached_pair_scenario
        cached, plain = build_pair(points)
        rect = rect_pool[0]
        plans = [RangeQuery(rect)]
        first = cached.execute_many(plans, count_only=True)
        inside = Point((rect.xmin + rect.xmax) / 2, (rect.ymin + rect.ymax) / 2)
        cached.insert(inside)
        plain.insert(inside)
        second = cached.execute_many(plans, count_only=True)
        assert second[0] == first[0] + 1
        assert second == plain.execute_many(plans, count_only=True)

    def test_adapt_invalidates_without_hooks(self, cached_pair_scenario):
        points, rect_pool, _ = cached_pair_scenario
        cached, _ = build_pair(points)
        plan = RangeQuery(rect_pool[0])
        before = cached.execute(plan, count_only=True)
        cached.adapt(Workload(queries=rect_pool[:4]), tune_leaf_capacity=False)
        invalidations_before = cached.plan_cache.stats.invalidations
        after = cached.execute(plan, count_only=True)
        assert after == before
        assert cached.plan_cache.stats.invalidations == invalidations_before + 1


class TestKeySeparation:
    def test_count_only_and_limit_do_not_alias(self, cached_pair_scenario):
        points, rect_pool, _ = cached_pair_scenario
        cached, plain = build_pair(points)
        rect = max(
            rect_pool, key=lambda r: plain.execute(RangeQuery(r), count_only=True)
        )
        full = plain.execute(RangeQuery(rect), count_only=True)
        assert full >= 2, "scenario needs a rect with at least 2 matches"
        plan = RangeQuery(rect)
        assert cached.execute(plan, count_only=True) == full
        assert cached.execute(plan, count_only=True, limit=1) == 1
        assert len(cached.execute(plan, limit=1)) == 1
        assert len(cached.execute(plan)) == full
        # Repeats of each variant still answer from their own entries.
        assert cached.execute(plan, count_only=True) == full
        assert len(cached.execute(plan, limit=1)) == 1

    def test_capped_count_hits_still_record_true_counts(self, cached_pair_scenario):
        points, rect_pool, _ = cached_pair_scenario
        cached, plain = build_pair(points)
        rect = max(
            rect_pool, key=lambda r: plain.execute(RangeQuery(r), count_only=True)
        )
        full = plain.execute(RangeQuery(rect), count_only=True)
        assert full >= 2
        cached.start_recording()
        plan = RangeQuery(rect)
        for _ in range(2):  # miss then hit: both must log the uncapped count
            assert cached.execute(plan, count_only=True, limit=1) == 1
        log = cached.workload_log
        recorded = log._range_counts[:log.num_ranges]
        assert list(recorded) == [full, full]

    def test_point_queries_are_never_cached(self, cached_pair_scenario):
        points, _, _ = cached_pair_scenario
        cached, _ = build_pair(points)
        plan = PointQuery(points[0])
        assert cached.execute(plan) is True
        assert len(cached.plan_cache) == 0


class TestHitAccounting:
    def test_exact_hit_and_miss_counts_single_plans(self, cached_pair_scenario):
        points, rect_pool, _ = cached_pair_scenario
        cached, _ = build_pair(points)
        stats = cached.plan_cache.stats
        plans = [RangeQuery(r) for r in rect_pool[:5]]
        for plan in plans:
            cached.execute(plan)
        assert (stats.hits, stats.misses) == (0, 5)
        for plan in plans:
            cached.execute(plan)
        assert (stats.hits, stats.misses) == (5, 5)
        assert stats.lookups == 10
        assert stats.hit_rate == pytest.approx(0.5)

    @pytest.mark.parametrize("kind", ["range", "knn"])
    def test_exact_hit_and_miss_counts_batches(self, cached_pair_scenario, kind):
        points, rect_pool, _ = cached_pair_scenario
        cached, _ = build_pair(points)
        stats = cached.plan_cache.stats
        pool = batch_plans(kind, rect_pool, [Point(p.x, p.y) for p in points[::40]])
        plans = pool[:6]
        cached.execute_many(plans, count_only=True)
        assert (stats.hits, stats.misses) == (0, 6)
        cached.execute_many(plans, count_only=True)
        assert (stats.hits, stats.misses) == (6, 6)
        # A half-overlapping batch: 3 hits, 3 misses.
        shifted = plans[3:] + pool[6:9]
        cached.execute_many(shifted, count_only=True)
        assert (stats.hits, stats.misses) == (9, 9)

    @pytest.mark.parametrize("kind", ["range", "knn", "radius"])
    def test_repeated_key_within_one_batch_counts_two_misses(self, cached_pair_scenario,
                                                            kind):
        points, rect_pool, center_pool = cached_pair_scenario
        cached, plain = build_pair(points)
        stats = cached.plan_cache.stats
        plan = batch_plans(kind, rect_pool, center_pool)[0]
        # Every key is looked up before any miss is stored.
        got = cached.execute_many([plan, plan], count_only=True)
        assert (stats.hits, stats.misses) == (0, 2)
        assert got == plain.execute_many([plan, plan], count_only=True)
        cached.execute_many([plan, plan], count_only=True)
        assert (stats.hits, stats.misses) == (2, 2)

    def test_eviction_pressure_counted(self, cached_pair_scenario):
        points, rect_pool, _ = cached_pair_scenario
        points = list(points)
        cached = SpatialEngine.build(
            "wazi", points, leaf_capacity=16, seed=2, plan_cache=4
        )
        assert cached.plan_cache.capacity == 4
        for rect in rect_pool[:10]:
            cached.execute(RangeQuery(rect), count_only=True)
        assert len(cached.plan_cache) == 4
        assert cached.plan_cache.stats.evictions == 6


class TestConstructorArgument:
    def test_accepted_shapes(self, cached_pair_scenario):
        points, _, _ = cached_pair_scenario
        assert SpatialEngine.build("wazi", points, seed=2).plan_cache is None
        assert SpatialEngine.build(
            "wazi", points, seed=2, plan_cache=False
        ).plan_cache is None
        enabled = SpatialEngine.build("wazi", points, seed=2, plan_cache=True)
        assert isinstance(enabled.plan_cache, PlanCache)
        shared = PlanCache(capacity=8)
        adopted = SpatialEngine.build("wazi", points, seed=2, plan_cache=shared)
        assert adopted.plan_cache is shared

    def test_rejected_shapes(self, cached_pair_scenario):
        points, _, _ = cached_pair_scenario
        with pytest.raises(TypeError, match="plan_cache"):
            SpatialEngine.build("wazi", points, seed=2, plan_cache="big")

    def test_uncachable_index_engine_still_correct(self, cached_pair_scenario):
        points, rect_pool, _ = cached_pair_scenario
        # R-tree exposes no flat generation: the cache must pass through.
        cached = SpatialEngine.build(
            "rtree", points, leaf_capacity=16, seed=2, plan_cache=True
        )
        plain = SpatialEngine.build("rtree", points, leaf_capacity=16, seed=2)
        plan = RangeQuery(rect_pool[0])
        for _ in range(2):
            assert observable(cached.execute(plan)) == observable(
                plain.execute(plan)
            )
        assert len(cached.plan_cache) == 0
