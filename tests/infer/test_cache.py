"""The prediction cache: canonical keys, LRU pressure, invalidation."""

import numpy as np

from repro.infer import PredictionCache, canonical_row_bytes
from repro.obs import MetricsRegistry


def rows(*values):
    return np.asarray(values, dtype=float)


class TestCanonicalKey:
    def test_same_point_same_bytes(self):
        a = canonical_row_bytes(np.array([1.0, 2.0]))
        b = canonical_row_bytes(np.array([1, 2], dtype=np.int64))
        assert a == b

    def test_negative_zero_collapses(self):
        assert canonical_row_bytes(
            np.array([-0.0, 1.0])
        ) == canonical_row_bytes(np.array([0.0, 1.0]))

    def test_distinct_points_distinct_bytes(self):
        assert canonical_row_bytes(
            np.array([1.0, 2.0])
        ) != canonical_row_bytes(np.array([2.0, 1.0]))


class TestOnePassKeys:
    """``lookup`` canonicalises the whole batch at once;
    ``canonical_row_bytes`` stays the per-row definition."""

    @staticmethod
    def keys(X):
        return PredictionCache(8).lookup("app", "v1", X)[2]

    def test_equal_the_per_row_oracle(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((8, 2))
        X[3, 0] = -0.0
        X[5] = [0.0, -0.0]
        assert self.keys(X) == [canonical_row_bytes(row) for row in X]
        assert self.keys(X)[5] == canonical_row_bytes(np.zeros(2))

    def test_memory_layout_and_dtype_do_not_matter(self):
        rng = np.random.default_rng(1)
        base = rng.standard_normal((12, 6))
        strided = base[::2, ::3]  # neither C- nor F-contiguous
        fortran = np.asfortranarray(base)
        ints = np.arange(6).reshape(3, 2)
        for X in (strided, fortran, ints, base[:1], base[:, :1]):
            assert self.keys(X) == [canonical_row_bytes(row) for row in X]
        assert self.keys(strided) == self.keys(strided.copy())

    def test_hits_come_back_in_row_order(self):
        cache = PredictionCache(8)
        X = rows([3.0, 0.0], [1.0, 0.0], [2.0, 0.0])
        _, misses, keys = cache.lookup("app", "v1", X)
        cache.store("app", "v1", keys, misses, [30, 10, 20])
        hits, misses, _ = cache.lookup("app", "v1", X[::-1])
        assert misses == []
        assert list(hits.items()) == [(0, 20), (1, 10), (2, 30)]


class TestLookupStore:
    def test_round_trip_splits_hits_and_misses(self):
        cache = PredictionCache(8)
        X = rows([1.0, 2.0], [3.0, 4.0])
        hits, misses, keys = cache.lookup("app", "v1", X)
        assert hits == {} and misses == [0, 1] and len(keys) == 2
        cache.store("app", "v1", keys, misses, [7, 9])
        hits, misses, _ = cache.lookup("app", "v1", X)
        assert hits == {0: 7, 1: 9} and misses == []

    def test_partial_hit(self):
        cache = PredictionCache(8)
        X = rows([1.0, 2.0])
        _, misses, keys = cache.lookup("app", "v1", X)
        cache.store("app", "v1", keys, misses, [5])
        X2 = rows([9.0, 9.0], [1.0, 2.0])
        hits, misses, _ = cache.lookup("app", "v1", X2)
        assert hits == {1: 5} and misses == [0]

    def test_version_isolates_entries(self):
        cache = PredictionCache(8)
        X = rows([1.0, 2.0])
        _, misses, keys = cache.lookup("app", "v1", X)
        cache.store("app", "v1", keys, misses, [5])
        hits, misses, _ = cache.lookup("app", "v2", X)
        assert hits == {} and misses == [0]

    def test_capacity_zero_disables(self):
        cache = PredictionCache(0)
        X = rows([1.0, 2.0])
        hits, misses, keys = cache.lookup("app", "v1", X)
        assert hits == {} and misses == [0] and keys == []
        cache.store("app", "v1", keys, misses, [5])
        assert len(cache) == 0


class TestEviction:
    def test_lru_evicts_oldest(self):
        cache = PredictionCache(2)
        for i in range(3):
            X = rows([float(i), 0.0])
            _, misses, keys = cache.lookup("app", "v1", X)
            cache.store("app", "v1", keys, misses, [i])
        assert len(cache) == 2
        hits, _, _ = cache.lookup("app", "v1", rows([0.0, 0.0]))
        assert hits == {}  # the first row was evicted
        hits, _, _ = cache.lookup("app", "v1", rows([2.0, 0.0]))
        assert hits == {0: 2}

    def test_hit_refreshes_recency(self):
        cache = PredictionCache(2)
        for i in range(2):
            X = rows([float(i), 0.0])
            _, misses, keys = cache.lookup("app", "v1", X)
            cache.store("app", "v1", keys, misses, [i])
        cache.lookup("app", "v1", rows([0.0, 0.0]))  # refresh row 0
        X = rows([9.0, 0.0])
        _, misses, keys = cache.lookup("app", "v1", X)
        cache.store("app", "v1", keys, misses, [9])
        hits, _, _ = cache.lookup("app", "v1", rows([0.0, 0.0]))
        assert hits == {0: 0}  # survived; row 1 was evicted instead


class TestInvalidation:
    def test_invalidate_app_drops_only_that_app(self):
        cache = PredictionCache(8)
        for app in ("a", "b"):
            X = rows([1.0, 2.0])
            _, misses, keys = cache.lookup(app, "v1", X)
            cache.store(app, "v1", keys, misses, [1])
        assert cache.invalidate_app("a") == 1
        assert len(cache) == 1
        hits, _, _ = cache.lookup("b", "v1", rows([1.0, 2.0]))
        assert hits == {0: 1}

    def test_clear(self):
        cache = PredictionCache(8)
        X = rows([1.0, 2.0])
        _, misses, keys = cache.lookup("a", "v1", X)
        cache.store("a", "v1", keys, misses, [1])
        cache.clear()
        assert len(cache) == 0


class TestMetrics:
    def test_counters_and_gauge(self):
        registry = MetricsRegistry()
        cache = PredictionCache(8, metrics=registry)
        X = rows([1.0, 2.0], [3.0, 4.0])
        _, misses, keys = cache.lookup("app", "v1", X)
        cache.store("app", "v1", keys, misses, [1, 2])
        cache.lookup("app", "v1", X)
        hits = registry.get("infer_cache_hits_total")
        assert hits.labels("app").value == 2
        misses_family = registry.get("infer_cache_misses_total")
        assert misses_family.labels("app").value == 2
        assert registry.get("infer_cache_size").value == 2
        cache.invalidate_app("app")
        assert (
            registry.get("infer_cache_invalidations_total").value == 2
        )
        assert registry.get("infer_cache_size").value == 0
