"""Differential, property and memory-shape tests for the uniform grid's
``update`` and ``neighbor_csr``: the NumPy build and half stencil, and the
``c`` backend's build and half stencil.

Every case runs through every kernel backend built here
(:mod:`tests.kernel_backends`): each build must reproduce, ``array_equal``,
the CSR and the per-agent 27-box candidate counts of the full 27-box
expansion kept in :mod:`tests.grid_reference`, and the CSR of
``brute_force_csr`` -- on the inputs where a half stencil, an x-run merge,
a row block, a key sort or the C search's staging could go wrong.  Every
build's own outputs (order, runs, live boxes, successor list, cell-sorted
coordinates) must equal the NumPy ``update()``'s -- on the inputs where
binning, a radix digit, the upper-face clamp or a stale box stamp could go
wrong.  Runs in CI's ``golden`` job under the pinned numpy, so a numpy
upgrade that changes sort behaviour cannot silently reorder rows.
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


#: What a build leaves behind besides the box arrays.
BUILD_OUTPUTS = ("_order", "_occupied", "_run_start", "_box_of_agent",
                 "_successor", "_xyz", "_mins", "_dims")


def assert_same_build(env, ref):
    """``env``'s build is ``array_equal`` to the NumPy build ``ref`` of the
    same positions at the same timestamp, live box entries included, and
    no box outside ``ref``'s occupied ones is live."""
    assert env._timestamp == ref._timestamp
    for name in BUILD_OUTPUTS:
        got, want = getattr(env, name), getattr(ref, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), (name, env.kernels.name)
    live = ref._occupied
    for name in ("_box_start", "_box_count"):
        assert np.array_equal(getattr(env, name)[live],
                              getattr(ref, name)[live]), name
    stamps = env._box_stamp[:env.num_boxes]
    assert np.array_equal(np.flatnonzero(stamps == env._timestamp), live)


def assert_matches_references(pos, radius, box_length_factor=1.0):
    """Build ``pos`` through every kernel backend, compare each build with
    the NumPy build and each CSR against both references (the O(n^2) one
    only while its n x n x 3 temporaries stay small); returns the CSR."""
    envs = [built(pos, radius, kb, box_length_factor)
            for kb in kernel_backends()]
    ref = built(pos, radius, None, box_length_factor)
    for env in envs:
        assert_same_build(env, ref)
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


def upper_face_radius(span):
    """A radius whose boxes end exactly on the upper face of ``[0, span]``:
    ``(span - mins) / radius`` is an integer, so the point at ``span``
    bins one past the last box and only the ``dims - 1`` clamp keeps it."""
    width = span - (0.0 - 1e-9)
    for k in range(2, 200):
        if width / (width / k) == k:
            return width / k
    raise AssertionError("no radius puts the upper face on a box face")


class TestBuild:
    """The build's own hard inputs.  Every case above compares the builds
    too (``assert_matches_references``), n in {0, 1, 2} and one box -- no
    radix pass -- included."""

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_signed_zero_coordinates(self, zero):
        # +-0.0 minima give the same mins (-1e-9 either way), the same dims
        # and the same bins.
        pos = cloud(3, 60, 20.0)
        pos[::3, 0] = zero
        pos[1::3, 1] = -zero
        pos[5] = zero
        assert_matches_references(pos, 4.0)
        assert np.array_equal(built(pos, 4.0)._mins, np.full(3, -1e-9))

    @pytest.mark.parametrize("side", [2, 5])
    def test_points_on_box_faces(self, side):
        # Lattice spacing = box edge: every point sits on a box face.
        g = np.arange(side, dtype=np.float64) * 3.0
        pos = np.stack(np.meshgrid(g, g, g, indexing="ij"), -1).reshape(-1, 3)
        pos = pos[np.random.default_rng(side).permutation(len(pos))]
        assert_matches_references(pos, 3.0)

    def test_upper_face_clamp(self):
        span = 10.0
        radius = upper_face_radius(span)
        pos = np.vstack((cloud(4, 80, span), [[span, span, span], [span, 0, 0]]))
        assert_matches_references(pos, radius)
        ref = built(pos, radius)
        raw = ((pos - ref._mins) / ref._box_len).astype(np.int64)
        assert np.any(raw == ref._dims)   # clamped, not out of the grid

    @pytest.mark.parametrize("dims", [(8, 8, 8), (40, 20, 11), (64, 64, 64)])
    def test_box_ids_past_one_radix_digit(self, dims):
        # 512 boxes: one 13-bit digit; 8800 and 2**18 boxes: two.  (64, 64,
        # 64) fills max_boxes exactly.
        dims = np.asarray(dims)
        rng = np.random.default_rng(int(dims.sum()))
        pos = rng.uniform(0.0, 1.0, (3000, 3)) * (dims - 0.5)
        pos[:2] = [[0, 0, 0], dims - 0.5]      # pin the grid's extent
        max_boxes = int(np.prod(dims))
        ref = UniformGridEnvironment(max_boxes=max_boxes)
        ref.update(pos, 1.0)
        assert np.array_equal(ref.dims, dims)
        assert ref._occupied[-1] >= (1 << 13) or max_boxes <= 1 << 13
        for kb in kernel_backends():
            env = UniformGridEnvironment(max_boxes=max_boxes)
            env.kernels = kb
            env.update(pos, 1.0)
            assert_same_build(env, ref)
        with pytest.raises(MemoryError):
            UniformGridEnvironment(max_boxes=max_boxes - 1).update(pos, 1.0)

    def test_back_to_back_builds_over_reused_box_arrays(self):
        # Grids shrink and grow over the same box arrays: stale stamps from
        # earlier (larger) builds must never read as live.
        steps = [(400, 60.0, 2.0), (150, 12.0, 3.0), (300, 40.0, 2.5),
                 (0, 1.0, 1.0), (2, 9.0, 2.0), (500, 90.0, 2.0),
                 (500, 90.0, 2.0), (80, 20.0, 7.0)]
        envs = [built(np.empty((0, 3)), 1.0, kb) for kb in kernel_backends()]
        ref = built(np.empty((0, 3)), 1.0)
        for seed, (n, span, radius) in enumerate(steps):
            pos = cloud(seed, n, span)
            ref.update(pos, radius)
            want = reference_neighbor_csr(ref)[:2]
            for env in envs:
                env.update(pos, radius)
                assert_same_build(env, ref)
                for got, expected in zip(env.neighbor_csr(), want):
                    assert np.array_equal(got, expected), env.kernels.name

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises_the_same_error(self, bad):
        pos = cloud(6, 30, 10.0)
        pos[7, 1] = bad
        messages = set()
        for kb in [None, *kernel_backends()]:
            env = UniformGridEnvironment()
            env.kernels = kb
            with pytest.raises(ValueError) as err:
                env.update(pos, 2.0)
            messages.add(str(err.value))
        assert len(messages) == 1


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
                # candidates: CSR + staging + O(n) arrays, under 5.6 MB --
                # for the search alone, and for a fresh grid's box arrays,
                # build and search together.
                assert peak_small < 4 * indices.nbytes + 64 * 20_000
                pos, radius = small._positions, small._radius
                fresh = UniformGridEnvironment()
                fresh.kernels = kb
                peak_both, (_, both) = csr_peak_bytes(fresh, lambda env: (
                    env.update(pos, radius), env.neighbor_csr())[1])
                assert np.array_equal(both, indices)
                assert peak_both < 4 * indices.nbytes + 64 * 20_000

    def test_sparse_space_allocates_nothing_per_box(self):
        # 2e4 agents over > 1e7 boxes: update() owns three uninitialised
        # box arrays; a rebuild over them and the search stay O(#agents)
        # -- under what a fourth per-box array of even one byte a box
        # would take.
        n = 20_000
        pos = cloud(3, n, 2200.0)
        for kb in kernel_backends():
            env = built(pos, 10.0, kb)
            assert env.num_boxes > 10_000_000 >= 500 * n
            peak, _ = csr_peak_bytes(env, lambda env: env.update(pos, 10.0))
            assert peak < 500 * n, kb.name
            peak, (indptr, _) = csr_peak_bytes(
                env, UniformGridEnvironment.neighbor_csr)
            assert peak < 500 * n, kb.name
            assert len(indptr) == n + 1
            peak, _ = csr_peak_bytes(
                env, UniformGridEnvironment.search_candidates_per_agent)
            assert peak < 500 * n


@pytest.mark.skipif(not any(kb.name == "c" for kb in kernel_backends()),
                    reason="the C kernel library cannot be built here")
@settings(max_examples=200, deadline=None)
@given(seed=seeds, n=st.integers(1, 40),
       bad=st.sampled_from([None, np.nan, np.inf, -np.inf]))
def test_c_bounds_pass_copies_and_bounds_like_numpy(seed, n, bad):
    """The C task's first pass: the snapshot is the positions' bytes and
    the bounds are each column's np.min / np.max (NaN where one is)."""
    from repro.kernels.c_backend import _library

    rng = np.random.default_rng(seed)
    pos = rng.normal(size=(n, 3)) * 10.0
    if bad is not None:
        pos[rng.integers(n), rng.integers(3)] = bad
    snap, bounds = np.empty((n, 3)), np.empty(6)
    _library().dll.repro_grid_bounds(pos, n, snap, bounds)
    assert snap.tobytes() == pos.tobytes()
    want = [pos[:, d].min() for d in range(3)] + [
        pos[:, d].max() for d in range(3)]
    assert np.array_equal(bounds, want, equal_nan=True)
