"""Tests for the memory cost model and the reference cache simulator."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.parallel import CacheSim, MemoryCostModel, SYSTEM_A


@pytest.fixture
def model():
    return MemoryCostModel(SYSTEM_A)


class TestClassification:
    def test_same_line_is_l1(self, model):
        assert model.classify(0) == 0
        assert model.classify(63) == 0

    def test_level_boundaries(self, model):
        s = SYSTEM_A
        assert model.latency_for_deltas(s.cache_line) == s.l1_latency
        assert model.latency_for_deltas(s.l1_span) == s.l2_latency
        assert model.latency_for_deltas(s.l2_span) == s.l3_latency
        assert model.latency_for_deltas(s.l3_span) == s.dram_latency

    def test_negative_deltas_symmetric(self, model):
        np.testing.assert_array_equal(
            model.latency_for_deltas([-100, 100]),
            model.latency_for_deltas([100, 100]),
        )

    @given(st.integers(0, 2**36), st.integers(0, 2**36))
    def test_monotone_in_distance(self, a, b):
        model = MemoryCostModel(SYSTEM_A)
        lo, hi = sorted([a, b])
        assert model.latency_for_deltas(lo) <= model.latency_for_deltas(hi)

    def test_total_cycles_empty(self, model):
        assert model.total_access_cycles(np.array([])) == 0.0

    def test_total_matches_sum(self, model):
        deltas = np.array([10, 1000, 10**7, 10**9])
        assert model.total_access_cycles(deltas) == pytest.approx(
            float(np.sum(model.latency_for_deltas(deltas)))
        )


class TestStreamAndCompute:
    def test_stream_scales_linearly(self, model):
        assert model.stream_cycles(128) == pytest.approx(2 * model.stream_cycles(64))

    def test_stream_cheaper_than_random(self, model):
        # Streaming N lines must cost less than N random DRAM accesses.
        n = 1000
        stream = model.stream_cycles(n * 64)
        random_cost = n * SYSTEM_A.dram_latency
        assert stream < random_cost / 3

    def test_compute_uses_issue_width(self, model):
        assert model.compute_cycles(100) == pytest.approx(100 / SYSTEM_A.issue_width)


class TestCacheSim:
    def test_cold_miss_then_hit(self):
        c = CacheSim(size=4096, assoc=4, line=64)
        assert not c.access(0)
        assert c.access(0)
        assert c.access(32)  # same line

    def test_capacity_eviction(self):
        c = CacheSim(size=1024, assoc=16, line=64)  # 16 lines, fully assoc.
        for i in range(17):
            c.access(i * 64)
        assert not c.access(0)  # LRU victim was line 0

    def test_lru_order(self):
        c = CacheSim(size=1024, assoc=16, line=64)
        for i in range(16):
            c.access(i * 64)
        c.access(0)  # refresh line 0
        c.access(16 * 64)  # evicts line 1, not line 0
        assert c.access(0)
        assert not c.access(64)

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            CacheSim(size=1000, assoc=3, line=64)

    def test_miss_rate(self):
        c = CacheSim(size=4096)
        c.access(0)
        c.access(0)
        assert c.miss_rate == pytest.approx(0.5)


class TestFastModelAgreesWithCacheSim:
    """The address-distance model must rank access patterns like real LRU."""

    def _miss_count(self, addrs):
        # Model L1-sized cache.
        c = CacheSim(size=32 * 1024, assoc=8, line=64)
        return c.access_many(addrs)

    def test_local_vs_scattered_ranking(self):
        rng = np.random.default_rng(7)
        model = MemoryCostModel(SYSTEM_A)
        # "Sorted agents": consecutive accesses nearby.
        base = np.arange(4000, dtype=np.int64) * 64
        local = base + rng.integers(-4, 5, size=4000) * 64
        # "Unsorted agents": same number of accesses, scattered over 1 GB.
        scattered = rng.integers(0, 1 << 30, size=4000, dtype=np.int64)

        lru_local = self._miss_count(local)
        lru_scattered = self._miss_count(scattered)
        fast_local = model.total_access_cycles(np.diff(local))
        fast_scattered = model.total_access_cycles(np.diff(scattered))

        assert lru_local < lru_scattered
        assert fast_local < fast_scattered

    def test_stride_sweep_monotone(self):
        # Increasing stride increases both LRU misses and model cost.
        model = MemoryCostModel(SYSTEM_A)
        lru, fast = [], []
        for stride in [64, 4096, 1 << 20, 1 << 26]:
            addrs = np.arange(2000, dtype=np.int64) * stride
            c = CacheSim(size=32 * 1024, assoc=8, line=64)
            lru.append(c.access_many(addrs))
            fast.append(model.total_access_cycles(np.diff(addrs)))
        assert fast == sorted(fast)
        assert lru == sorted(lru)
