"""Tests for the incremental (head-insertion) grid build path."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.env import UniformGridEnvironment
from repro.env.environment import brute_force_csr


def csr_sets(indptr, indices):
    return [frozenset(indices[indptr[i]: indptr[i + 1]].tolist())
            for i in range(len(indptr) - 1)]


class TestIncrementalBuild:
    def test_requires_begin(self):
        env = UniformGridEnvironment()
        with pytest.raises(RuntimeError):
            env.insert_agent([0.0, 0, 0])

    def test_invalid_bounds(self):
        env = UniformGridEnvironment()
        with pytest.raises(ValueError):
            env.begin_incremental([0, 0, 0], [0, 0, 0], 1.0)
        with pytest.raises(ValueError):
            env.begin_incremental([0, 0, 0], [1, 1, 1], 0.0)

    def test_search_matches_batch_build(self):
        rng = np.random.default_rng(0)
        pos = rng.uniform(0, 40, (200, 3))
        radius = 6.0

        inc = UniformGridEnvironment()
        inc.begin_incremental([0.0] * 3, [40.0] * 3, radius)
        for p in pos:
            inc.insert_agent(p)
        # Bitwise: rows are canonical whatever order the chains were built
        # in, so indptr AND indices equal the batch build's and the O(n^2)
        # reference's.
        batch = UniformGridEnvironment()
        batch.update(pos, radius)
        for want in (batch.neighbor_csr(), brute_force_csr(pos, radius)):
            for got_arr, want_arr in zip(inc.neighbor_csr(), want):
                assert np.array_equal(got_arr, want_arr)

    def test_timestamp_reuse_across_rebuilds(self):
        # Rebuilding does not clear box arrays; timestamps invalidate them.
        env = UniformGridEnvironment()
        rng = np.random.default_rng(1)
        for trial in range(3):
            pos = rng.uniform(0, 30, (50, 3))
            env.begin_incremental([0.0] * 3, [30.0] * 3, 5.0)
            for p in pos:
                env.insert_agent(p)
            assert csr_sets(*env.neighbor_csr()) == csr_sets(
                *brute_force_csr(pos, 5.0)
            )

    def test_mixing_batch_and_incremental(self):
        env = UniformGridEnvironment()
        rng = np.random.default_rng(2)
        pos1 = rng.uniform(0, 20, (60, 3))
        env.update(pos1, 4.0)
        assert csr_sets(*env.neighbor_csr()) == csr_sets(*brute_force_csr(pos1, 4.0))
        pos2 = rng.uniform(0, 20, (40, 3))
        env.begin_incremental([0.0] * 3, [20.0] * 3, 4.0)
        for p in pos2:
            env.insert_agent(p)
        assert csr_sets(*env.neighbor_csr()) == csr_sets(*brute_force_csr(pos2, 4.0))

    def test_chain_gone_after_consolidation(self):
        env = UniformGridEnvironment()
        env.begin_incremental([0.0] * 3, [10.0] * 3, 2.0)
        env.insert_agent([1.0, 1, 1])
        env.neighbor_csr()  # consolidates
        with pytest.raises(RuntimeError):
            env.box_chain(0)

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(1, 80), seed=st.integers(0, 500))
    def test_equivalence_property(self, n, seed):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0, 25, (n, 3))
        inc = UniformGridEnvironment()
        inc.begin_incremental([0.0] * 3, [25.0] * 3, 5.0)
        for p in pos:
            inc.insert_agent(p)
        batch = UniformGridEnvironment()
        batch.update(pos, 5.0)
        assert csr_sets(*inc.neighbor_csr()) == csr_sets(*batch.neighbor_csr())
