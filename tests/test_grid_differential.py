"""Differential, property and memory-shape tests for the uniform grid's
``neighbor_csr``: the NumPy half stencil and the ``c`` backend's search.

Every case runs through every kernel backend built here
(:mod:`tests.kernel_backends`): each build must reproduce, ``array_equal``,
the CSR and the per-agent 27-box candidate counts of the full 27-box
expansion kept in :mod:`tests.grid_reference`, and the CSR of
``brute_force_csr`` -- on the inputs where a half stencil, an x-run merge,
a row block, a key sort or the C search's staging could go wrong.  Runs
in CI's ``golden`` job under the pinned numpy, so a numpy upgrade that
changes sort behaviour cannot silently reorder rows.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.env.uniform_grid as uniform_grid
from repro.env import UniformGridEnvironment
from repro.env.environment import brute_force_csr
from repro.sfc.morton import morton_encode_3d
from tests.grid_reference import reference_neighbor_csr
from tests.kernel_backends import kernel_backends


def built(pos, radius, kernels=None, box_length_factor=1.0):
    """A finished ``update()`` whose search runs through ``kernels``."""
    env = UniformGridEnvironment(box_length_factor=box_length_factor)
    env.kernels = kernels
    env.update(pos, radius)
    return env


def assert_matches_references(pos, radius, box_length_factor=1.0):
    """Build ``pos`` through every kernel backend and compare each CSR
    against both references (the O(n^2) one only while its n x n x 3
    temporaries stay small); returns the CSR."""
    envs = [built(pos, radius, kb, box_length_factor)
            for kb in kernel_backends()]
    ref_indptr, ref_indices, ref_candidates = reference_neighbor_csr(envs[0])
    if 0 < len(pos) <= 1000:
        brute_indptr, brute_indices = brute_force_csr(pos, radius)
        assert np.array_equal(ref_indptr, brute_indptr)
        assert np.array_equal(ref_indices, brute_indices)
    for env in envs:
        indptr, indices = env.neighbor_csr()
        assert np.array_equal(indptr, ref_indptr), env.kernels.name
        assert np.array_equal(indices, ref_indices), env.kernels.name
        assert np.array_equal(env.search_candidates_per_agent(),
                              ref_candidates)
        assert indptr.dtype == indices.dtype == np.int64
    return indptr, indices


def cloud(seed, n, span):
    return np.random.default_rng(seed).uniform(0.0, 1.0, (n, 3)) * span


seeds = st.integers(0, 10_000)


class TestDifferential:
    @settings(max_examples=60)
    @given(seed=seeds, n=st.integers(0, 250),
           span=st.sampled_from([1.0, 7.0, 30.0, 120.0]),
           radius=st.floats(0.5, 12.0),
           factor=st.sampled_from([1.0, 1.0, 1.3, 2.5]))
    def test_random_clouds(self, seed, n, span, radius, factor):
        assert_matches_references(cloud(seed, n, span), radius, factor)

    @settings(max_examples=30)
    @given(seed=seeds, n=st.integers(2, 120), copies=st.integers(2, 5))
    def test_coincident_points(self, seed, n, copies):
        pos = np.tile(cloud(seed, n, 20.0), (copies, 1))
        indptr, _ = assert_matches_references(pos, 3.0)
        assert np.all(np.diff(indptr) >= copies - 1)

    @settings(max_examples=30)
    @given(seed=seeds, side=st.integers(2, 6),
           radius=st.sampled_from([1.0, 2.0, 3.0]),
           factor=st.sampled_from([1.0, 1.5]))
    def test_pairs_at_distance_exactly_r(self, seed, side, radius, factor):
        # An integer lattice with spacing r: axis neighbors sit at d2 == r2
        # exactly (no rounding), and are kept by the ``<=``.
        g = np.arange(side, dtype=np.float64) * radius
        pos = np.stack(np.meshgrid(g, g, g, indexing="ij"), -1).reshape(-1, 3)
        pos = pos[np.random.default_rng(seed).permutation(len(pos))]
        indptr, _ = assert_matches_references(pos, radius, factor)
        assert indptr[-1] == 6 * side**3 - 6 * side**2

    @settings(max_examples=40)
    @given(seed=seeds, n=st.integers(1, 200),
           flat=st.sampled_from([(1, 1, 0), (1, 0, 1), (0, 1, 1),
                                 (1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    def test_planar_and_collinear(self, seed, n, flat):
        pos = cloud(seed, n, 40.0) * np.asarray(flat, dtype=np.float64)
        env = UniformGridEnvironment()
        env.update(pos, 4.0)
        assert np.all(env.dims[np.asarray(flat) == 0] == 1)
        assert_matches_references(pos, 4.0)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_populations(self, n):
        assert_matches_references(cloud(0, n, 2.0), 5.0)     # one box
        assert_matches_references(cloud(0, n, 50.0), 1.0)    # far apart

    @settings(max_examples=30)
    @given(seed=seeds, n=st.integers(1, 200), radius=st.floats(1.0, 8.0),
           skin_share=st.floats(0.05, 0.3))
    def test_scheduler_superset_radius(self, seed, n, radius, skin_share):
        # The radius the neighbor cache builds its supersets at.
        padded = (radius + skin_share * radius) * (1.0 + 1e-9)
        assert_matches_references(cloud(seed, n, 30.0), padded)

    @settings(max_examples=25)
    @given(seed=seeds, n=st.integers(2, 250))
    def test_morton_sorted_vs_shuffled_index_order(self, seed, n):
        # The CSR is a function of (positions, radius) only: renumbering
        # the agents renumbers it, whatever order they are stored in.
        radius = 4.0
        pos = cloud(seed, n, 30.0)
        cells = (pos / radius).astype(np.int64)
        by_morton = np.argsort(
            morton_encode_3d(cells[:, 0], cells[:, 1], cells[:, 2]),
            kind="stable")
        shuffled = np.random.default_rng(seed + 1).permutation(n)
        base = assert_matches_references(pos, radius)
        for perm in (by_morton, shuffled):
            indptr, indices = assert_matches_references(pos[perm], radius)
            inverse = np.empty(n, dtype=np.int64)
            inverse[perm] = np.arange(n)
            for new, old in enumerate(perm):
                row = indices[indptr[new]:indptr[new + 1]]
                want = base[1][base[0][old]:base[0][old + 1]]
                assert np.array_equal(np.sort(perm[row]), want)
                assert np.array_equal(row, np.sort(inverse[want]))

    @pytest.mark.parametrize("block", [1, 7, 64, 1000])
    def test_block_boundary_inside_a_box(self, monkeypatch, block):
        # Dense boxes (~12 agents each) and tiny blocks: most block
        # boundaries fall between two agents of the same box.
        monkeypatch.setattr(uniform_grid, "_BLOCK_CANDIDATES", block)
        pos = cloud(5, 600, 18.0)
        env = UniformGridEnvironment()
        env.update(pos, 5.0)
        assert np.diff(env._run_start).max() > 4
        assert_matches_references(pos, 5.0)

    def test_population_spanning_several_default_blocks(self):
        pos = cloud(11, 6000, 60.0)
        env = UniformGridEnvironment()
        env.update(pos, 6.0)
        half_stencil = (env.search_candidates_per_agent().sum() - len(pos)) // 2
        assert half_stencil > 3 * uniform_grid._BLOCK_CANDIDATES
        assert_matches_references(pos, 6.0)

    @settings(max_examples=20)
    @given(seed=seeds, n=st.integers(0, 150))
    def test_incremental_build_is_bitwise_the_batch_build(self, seed, n):
        pos = cloud(seed, n, 25.0)
        want = built(pos, 5.0).neighbor_csr()
        for kb in kernel_backends():
            # Head insertion: within a box, the search sees agents in
            # descending index order.
            inc = UniformGridEnvironment()
            inc.kernels = kb
            inc.begin_incremental([0.0] * 3, [25.0] * 3, 5.0)
            for p in pos:
                inc.insert_agent(p)
            for got, expected in zip(inc.neighbor_csr(), want):
                assert np.array_equal(got, expected), kb.name
            # Box-id order, the layout the search needs.
            state = inc.linked_list_state()
            assert np.all(np.diff(state["box_of_agent"][state["order"]]) >= 0)

    def test_a_dense_cluster_row(self):
        # One row with 6000 kept neighbors, far past any fixed row buffer:
        # 12 clusters of 500 coincident points on an icosahedron of
        # circumradius 0.98 r around one centre point.  The clusters sit
        # 1.03 r apart, so a cluster point keeps its 499 mates and the
        # centre: 3e6 pairs, where 6000 coincident points would be 3.6e7.
        radius, phi = 10.0, (1.0 + 5.0**0.5) / 2.0
        vertices = np.array([v for a in (-1.0, 1.0) for b in (-phi, phi)
                             for v in ((0.0, a, b), (a, b, 0.0), (b, 0.0, a))])
        vertices *= 0.98 * radius / np.linalg.norm(vertices[0])
        group = np.repeat(np.arange(13), [1] + [500] * 12)
        perm = np.random.default_rng(7).permutation(len(group))
        group = group[perm]
        pos = np.vstack((np.zeros((1, 3)), vertices))[group] + 50.0
        centre = int(np.flatnonzero(group == 0)[0])
        for kb in kernel_backends():
            indptr, indices = built(pos, radius, kb).neighbor_csr()
            assert indptr[-1] == 12 * 500 * 499 + 2 * 6000
            for i in (centre, *np.flatnonzero(group == 5)[:3]):
                row = indices[indptr[i]:indptr[i + 1]]
                mates = (np.flatnonzero(group != 0) if i == centre
                         else np.flatnonzero((group == 5) | (group == 0)))
                assert np.array_equal(row, mates[mates != i]), kb.name


def csr_peak_bytes(env, build):
    """Peak bytes of one CSR build on a finished ``update()`` (the C
    search stages its rows in NumPy, so tracemalloc sees them too)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = build(env)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak, result


class TestMemoryShape:
    def density_matched(self, n, kernels=None):
        # ~46 27-box candidates per agent, the oncology benchmark's density.
        span = 10.0 * (n * 27.0 / 46.0) ** (1.0 / 3.0)
        return built(cloud(2, n, span), 10.0, kernels)

    def test_peak_follows_kept_pairs_not_candidates(self):
        peak_reference, _ = csr_peak_bytes(self.density_matched(20_000),
                                           reference_neighbor_csr)
        for kb in kernel_backends():
            small = self.density_matched(20_000, kb)
            peak_small, (_, indices) = csr_peak_bytes(
                small, UniformGridEnvironment.neighbor_csr)
            peak_large, _ = csr_peak_bytes(
                self.density_matched(40_000, kb),
                UniformGridEnvironment.neighbor_csr)
            assert peak_large <= 2.5 * peak_small, kb.name
            assert peak_small < peak_reference / 4, kb.name
            # Kept pairs (int64 keys, their pieces, the CSR; or the C
            # staging and the CSR) + one block + O(n) index arrays; the
            # 9.3e5 candidates alone would be 7.4 MB an array.
            assert peak_small < 48 * indices.nbytes // 8 + (4 << 20), kb.name
            if kb.name == "c":
                # The staging doubles to fit the kept pairs, not the
                # candidates: CSR + staging + O(n) arrays, under 5.6 MB.
                assert peak_small < 4 * indices.nbytes + 64 * 20_000

    def test_sparse_space_allocates_nothing_per_box(self):
        # 2e4 agents over > 1e7 boxes: update() owns three uninitialised
        # box arrays; the search stays O(#agents) -- under what a fourth
        # per-box array of even one byte a box would take.
        n = 20_000
        for kb in kernel_backends():
            env = built(cloud(3, n, 2200.0), 10.0, kb)
            assert env.num_boxes > 10_000_000 >= 500 * n
            peak, (indptr, _) = csr_peak_bytes(
                env, UniformGridEnvironment.neighbor_csr)
            assert peak < 500 * n, kb.name
            assert len(indptr) == n + 1
            peak, _ = csr_peak_bytes(
                env, UniformGridEnvironment.search_candidates_per_agent)
            assert peak < 500 * n
