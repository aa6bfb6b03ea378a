"""Differential and memory-shape tests for the pair pipeline that runs
after the neighbor search: the force kernel, the Verlet-cache refilter
and the displacement.

``repro.kernels.numpy_ref`` (per-coordinate, row-blocked) and
``repro.env.environment.refilter_csr`` (index compaction) must reproduce
the array-of-structs kernels frozen in :mod:`tests.pair_reference` byte
for byte -- ``tobytes()`` on the float outputs, so a ``-0.0`` for a
``0.0`` is caught -- on the inputs where a per-coordinate rewrite, a row
block or an index compaction could go wrong.  Runs in CI's ``golden``
job under the pinned numpy, so a numpy upgrade that changes ``bincount``
or the reduction order of ``linalg.norm`` fails here, not in a golden
trace three layers up.
"""

import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.force import InteractionForce
from repro.env import UniformGridEnvironment, csr_row_index, refilter_csr
from repro.env.environment import brute_force_csr
from repro.kernels import numpy_ref
from repro.simulations.cell_sorting import DifferentialAdhesionForce
from tests import pair_reference


def cloud(seed, n, span):
    return np.random.default_rng(seed).uniform(0.0, 1.0, (n, 3)) * span


def sliced_positions(seed, n):
    """A non-contiguous ``(n, 3)`` view, as a column of a wider block is."""
    wide = np.random.default_rng(seed).uniform(0.0, 15.0, (n, 5))
    return wide[:, 1:4]


def mixed_diameters(seed, n, kind):
    rng = np.random.default_rng(seed + 1)
    if kind == "zero":
        return np.zeros(n)
    dia = rng.uniform(0.5, 9.0, n)
    if kind == "mixed":
        dia[rng.random(n) < 0.3] = 0.0
    return dia


def active_mask(seed, n, kind):
    if kind == "none":
        return None
    if kind in ("all", "nobody"):
        return np.full(n, kind == "all")
    return np.random.default_rng(seed + 2).random(n) < 0.5


def blocks(size):
    """Evaluate the force kernel in row blocks of ~``size`` pairs."""
    return mock.patch.object(numpy_ref, "_BLOCK_PAIRS", size)


def reference_force_csr(pos, dia, indptr, indices, active, model):
    """The frozen ``force_csr`` under ``model``'s law.  An overridden
    ``pair_forces`` hook is called with the stock term it builds on
    swapped for the frozen one, so nothing of the result comes from the
    code under test."""
    if model is None or type(model) is InteractionForce:
        model = model or InteractionForce()
        return pair_reference.force_csr(
            pos, dia, indptr, indices, active,
            repulsion=model.repulsion, attraction=model.attraction)
    with mock.patch.object(numpy_ref, "pair_forces",
                           pair_reference.pair_forces):
        return pair_reference.force_csr(pos, dia, indptr, indices, active,
                                        pair_fn=model.pair_forces)


def assert_same_force(got, want):
    net, nonzero, pairs = got
    ref_net, ref_nonzero, ref_pairs = want
    assert net.dtype == ref_net.dtype and net.shape == ref_net.shape
    assert net.tobytes() == ref_net.tobytes()
    assert nonzero.dtype == ref_nonzero.dtype
    assert np.array_equal(nonzero, ref_nonzero)
    assert pairs == ref_pairs


def assert_force_matches(pos, dia, indptr, indices, active=None, model=None):
    want = reference_force_csr(pos, dia, indptr, indices, active, model)
    got = numpy_ref.force_csr(pos, dia, indptr, indices, active, model)
    assert_same_force(got, want)
    return got


class CountingAdhesionForce(DifferentialAdhesionForce):
    """``cell_sorting``'s force law, counting the calls to its hook."""

    calls = 0

    def pair_forces(self, positions, diameters, qi, qj):
        self.calls += 1
        return super().pair_forces(positions, diameters, qi, qj)


def adhesion_model(seed, n):
    types = np.random.default_rng(seed + 3).integers(0, 2, n).astype(np.int8)
    sim = SimpleNamespace(rm=SimpleNamespace(data={"cell_type": types}))
    return CountingAdhesionForce(sim)


seeds = st.integers(0, 10_000)
diameter_kinds = st.sampled_from(["positive", "mixed", "zero"])
active_kinds = st.sampled_from(["none", "some", "all", "nobody"])
block_sizes = st.sampled_from([1, 7, 64, 1000, numpy_ref._BLOCK_PAIRS])


class TestForceDifferential:
    @settings(max_examples=80, deadline=None)
    @given(seed=seeds, n=st.integers(0, 200),
           span=st.sampled_from([1.0, 7.0, 30.0, 120.0]),
           radius=st.floats(0.5, 12.0), diameters=diameter_kinds,
           active=active_kinds, block=block_sizes,
           law=st.sampled_from([(2.0, 0.4), (1.0, 0.0), (3.5, 1.25)]))
    def test_random_clouds(self, seed, n, span, radius, diameters, active,
                           block, law):
        pos = cloud(seed, n, span)
        indptr, indices = brute_force_csr(pos, radius)
        with blocks(block):
            assert_force_matches(pos, mixed_diameters(seed, n, diameters),
                                 indptr, indices,
                                 active_mask(seed, n, active),
                                 InteractionForce(*law))

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, n=st.integers(1, 60), copies=st.integers(2, 4),
           diameters=diameter_kinds, active=active_kinds, block=block_sizes)
    def test_coincident_centres(self, seed, n, copies, diameters, active,
                                block):
        # Every agent has copies - 1 partners at distance 0: the direction
        # is (+-1, 0, 0), its sign decided by ``qi < qj``.
        pos = np.tile(cloud(seed, n, 20.0), (copies, 1))
        dia = mixed_diameters(seed, len(pos), diameters)
        indptr, indices = brute_force_csr(pos, 3.0)
        with blocks(block):
            net, _, _ = assert_force_matches(
                pos, dia, indptr, indices, active_mask(seed, len(pos), active))
        if diameters == "positive" and active in ("none", "all"):
            assert np.any(net[:, 0] != 0.0)

    def test_zero_diameters_hit_the_radius_floor(self):
        # r_sum == 0 everywhere: r_eff divides by the 1e-12 floor, the
        # overlap is never positive and every force is (+0.0, +0.0, +0.0).
        pos = np.tile(cloud(5, 40, 4.0), (2, 1))
        indptr, indices = brute_force_csr(pos, 2.0)
        net, nonzero, pairs = assert_force_matches(
            pos, np.zeros(len(pos)), indptr, indices)
        assert pairs == len(indices) > 0
        assert net.tobytes() == np.zeros_like(net).tobytes()
        assert not nonzero.any()

    def test_non_finite_inputs_keep_the_select_semantics(self):
        # ``where(overlap > 0, m, 0.0)`` sends a NaN overlap to 0.0, and
        # 0.0 * nan is nan again: the NaNs must land in the same slots
        # with the same bits.
        pos = cloud(11, 60, 12.0)
        dia = mixed_diameters(11, 60, "positive")
        pos[7, 1] = np.nan
        dia[13] = np.nan
        dia[21] = np.inf
        indptr, indices = brute_force_csr(np.nan_to_num(pos, nan=6.0), 6.0)
        with np.errstate(invalid="ignore"), blocks(50):
            net, _, _ = assert_force_matches(pos, dia, indptr, indices)
        assert np.isnan(net).any() and np.isfinite(net).any()

    def test_tiny_populations(self):
        for n in (0, 1, 2):
            pos = cloud(n, n, 1.0)
            indptr, indices = brute_force_csr(pos, 5.0) if n else (
                np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64))
            for active in (None, np.ones(n, dtype=bool),
                           np.zeros(n, dtype=bool)):
                assert_force_matches(pos, np.full(n, 2.0), indptr, indices,
                                     active)

    def test_empty_rows_between_dense_rows(self):
        # Two tight clusters and a scatter of isolated agents numbered in
        # between: blocks start, end and consist of empty rows.
        rng = np.random.default_rng(3)
        pos = rng.uniform(0.0, 1000.0, (90, 3))
        pos[10:30] = 500.0 + rng.uniform(0.0, 2.0, (20, 3))
        pos[60:75] = 100.0 + rng.uniform(0.0, 2.0, (15, 3))
        indptr, indices = brute_force_csr(pos, 4.0)
        counts = np.diff(indptr)
        assert (counts == 0).sum() > 40 and counts.max() >= 14
        for block in (1, 19, 100):
            with blocks(block):
                assert_force_matches(pos, np.full(90, 3.0), indptr, indices)

    def test_many_blocks_with_a_cut_between_dense_rows(self):
        pos = cloud(9, 200, 12.0)
        dia = mixed_diameters(9, 200, "positive")
        indptr, indices = brute_force_csr(pos, 6.0)
        counts = np.diff(indptr)
        with blocks(3 * int(counts.max())):
            cuts = numpy_ref._row_blocks(indptr, 0, 200)
            assert len(cuts) > 12
            assert cuts[0] == 0 and cuts[-1] == 200
            assert np.all(np.diff(cuts) > 0)
            # a block ends at the first row boundary past its target
            assert np.all(np.diff(indptr[cuts])
                          < numpy_ref._BLOCK_PAIRS + counts.max())
            inner = np.asarray(cuts[1:-1])
            assert np.any((counts[inner - 1] > 20) & (counts[inner] > 20))
            assert_force_matches(pos, dia, indptr, indices)
            assert_force_matches(pos, dia, indptr, indices,
                                 active_mask(9, 200, "some"))

    def test_a_row_larger_than_the_block_is_one_block(self):
        pos = cloud(4, 120, 3.0)
        indptr, indices = brute_force_csr(pos, 6.0)  # everyone sees everyone
        with blocks(10):
            assert numpy_ref._row_blocks(indptr, 0, 120) == list(range(121))
            assert_force_matches(pos, np.full(120, 1.5), indptr, indices)

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, n=st.integers(1, 150), parts=st.integers(1, 6),
           active=active_kinds, block=block_sizes,
           hooked=st.booleans())
    def test_arbitrary_row_chunks(self, seed, n, parts, active, block,
                                  hooked):
        pos = cloud(seed, n, 25.0)
        dia = mixed_diameters(seed, n, "mixed")
        indptr, indices = brute_force_csr(pos, 7.0)
        mask = active_mask(seed, n, active)
        model = adhesion_model(seed, n) if hooked else InteractionForce()
        want = reference_force_csr(pos, dia, indptr, indices, mask, model)
        rng = np.random.default_rng(seed)
        bounds = np.unique(np.concatenate(
            ([0, n], rng.integers(0, n + 1, parts - 1))))
        net = np.full((n, 3), np.nan)
        nonzero = np.full(n, -7, dtype=np.int64)
        ref_net, ref_nonzero = net.copy(), nonzero.copy()
        pairs = ref_pairs = 0
        pair_fn = None if not hooked else model.pair_forces
        with blocks(block):
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                pairs += numpy_ref.force_rows(pos, dia, indptr, indices,
                                              mask, net, nonzero, lo, hi,
                                              model)
        with mock.patch.object(numpy_ref, "pair_forces",
                               pair_reference.pair_forces):
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                ref_pairs += pair_reference.force_rows(
                    pos, dia, indptr, indices, mask, ref_net, ref_nonzero,
                    lo, hi, pair_fn=pair_fn, repulsion=model.repulsion,
                    attraction=model.attraction)
        assert_same_force((net, nonzero, pairs),
                          (ref_net, ref_nonzero, ref_pairs))
        assert_same_force((net, nonzero, pairs), want)

    def test_rows_outside_the_chunk_are_untouched(self):
        pos = cloud(1, 50, 10.0)
        indptr, indices = brute_force_csr(pos, 5.0)
        net = np.full((50, 3), 99.0)
        nonzero = np.full(50, 99, dtype=np.int64)
        with blocks(16):
            numpy_ref.force_rows(pos, np.full(50, 4.0), indptr, indices,
                                 None, net, nonzero, 20, 30)
        outside = np.r_[0:20, 30:50]
        assert np.all(net[outside] == 99.0) and np.all(nonzero[outside] == 99)
        assert not np.any(net[20:30] == 99.0)

    @settings(max_examples=30, deadline=None)
    @given(seed=seeds, n=st.integers(2, 150), active=active_kinds,
           block=block_sizes)
    def test_overridden_pair_forces_hook_is_honoured(self, seed, n, active,
                                                     block):
        pos = cloud(seed, n, 20.0)
        dia = np.full(n, 6.0)
        indptr, indices = brute_force_csr(pos, 9.0)
        mask = active_mask(seed, n, active)
        model = adhesion_model(seed, n)
        want = reference_force_csr(pos, dia, indptr, indices, mask, model)
        model.calls = 0
        with blocks(block):
            got = numpy_ref.force_csr(pos, dia, indptr, indices, mask, model)
        assert_same_force(got, want)
        assert (model.calls > 0) == (got[2] > 0)

    def test_the_hook_changes_the_forces(self):
        pos = cloud(3, 150, 20.0)
        dia = np.full(150, 6.0)
        indptr, indices = brute_force_csr(pos, 9.0)
        model = adhesion_model(3, 150)
        net, _, _ = assert_force_matches(pos, dia, indptr, indices, None,
                                         model)
        stock, _, _ = assert_force_matches(
            pos, dia, indptr, indices, None,
            InteractionForce(model.repulsion, model.attraction))
        assert net.tobytes() != stock.tobytes()

    def test_strided_positions_view(self):
        pos = sliced_positions(12, 80)
        indptr, indices = brute_force_csr(np.ascontiguousarray(pos), 6.0)
        with blocks(32):
            assert_force_matches(pos, np.full(80, 5.0), indptr, indices)

    def test_stock_hook_is_a_stack_over_the_core(self):
        pos = np.tile(cloud(2, 80, 9.0), (2, 1))
        dia = mixed_diameters(2, 160, "mixed")
        indptr, indices = brute_force_csr(pos, 5.0)
        qi = csr_row_index(indptr, indices)
        f = InteractionForce(1.7, 0.3).pair_forces(pos, dia, qi, indices)
        want = pair_reference.pair_forces(pos, dia, qi, indices, 1.7, 0.3)
        assert f.shape == want.shape == (len(indices), 3)
        assert f.tobytes() == want.tobytes()

    def test_subclass_without_an_override_matches_the_stock_model(self):
        class Stiffer(InteractionForce):
            """Only the coefficients differ; evaluated through the hook."""

        pos = cloud(8, 120, 14.0)
        dia = mixed_diameters(8, 120, "positive")
        indptr, indices = brute_force_csr(pos, 6.0)
        with blocks(64):
            got = numpy_ref.force_csr(pos, dia, indptr, indices, None,
                                      Stiffer(3.0, 0.7))
        assert_same_force(got, reference_force_csr(
            pos, dia, indptr, indices, None, InteractionForce(3.0, 0.7)))


class TestRefilterDifferential:
    def assert_matches(self, indptr, indices, positions, radius):
        qi = csr_row_index(indptr, indices)
        got = refilter_csr(indptr, indices, qi, positions, radius)
        want = pair_reference.refilter_csr(indptr, indices, qi, positions,
                                           radius)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)
        return got

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, n=st.integers(1, 200),
           span=st.sampled_from([1.0, 10.0, 40.0]),
           radius=st.floats(0.5, 8.0), skin=st.floats(0.0, 3.0),
           jitter=st.floats(0.0, 1.5))
    def test_moved_superset(self, seed, n, span, radius, skin, jitter):
        built_at = cloud(seed, n, span)
        indptr, indices = brute_force_csr(
            built_at, (radius + skin) * (1.0 + 1e-9))
        rng = np.random.default_rng(seed + 4)
        now = built_at + rng.uniform(-jitter, jitter, (n, 3))
        new_indptr, new_indices, new_qi = self.assert_matches(
            indptr, indices, now, radius)
        assert np.array_equal(new_qi, csr_row_index(new_indptr, new_indices))

    def test_pairs_at_distance_exactly_r_are_kept(self):
        g = np.arange(4, dtype=np.float64) * 2.0
        pos = np.stack(np.meshgrid(g, g, g, indexing="ij"), -1).reshape(-1, 3)
        indptr, indices = brute_force_csr(pos, 3.0)
        new_indptr, _, _ = self.assert_matches(indptr, indices, pos, 2.0)
        assert new_indptr[-1] == 6 * 4**3 - 6 * 4**2

    def test_nothing_kept_and_nothing_to_filter(self):
        pos = cloud(6, 30, 5.0)
        indptr, indices = brute_force_csr(pos, 4.0)
        far = pos * 100.0
        new_indptr, new_indices, new_qi = self.assert_matches(
            indptr, indices, far, 0.01)
        assert new_indptr[-1] == 0 and len(new_indices) == len(new_qi) == 0
        for n in (0, 1):
            empty = (np.zeros(n + 1, dtype=np.int64),
                     np.empty(0, dtype=np.int64))
            self.assert_matches(*empty, cloud(0, n, 1.0), 1.0)

    def test_strided_positions_view(self):
        # The engine hands the live arena column; any (n, 3) view must do.
        pos = sliced_positions(12, 80)
        indptr, indices = brute_force_csr(np.ascontiguousarray(pos), 6.0)
        self.assert_matches(indptr, indices, pos, 4.0)


class TestDisplaceDifferential:
    def both(self, positions, moved, net, dt, max_displacement):
        ref_pos, ref_moved = positions.copy(), moved.copy()
        want = pair_reference.displace(ref_pos, ref_moved, net.copy(), dt,
                                       max_displacement)
        net_before = net.copy()
        got = numpy_ref.displace(positions, moved, net, dt, max_displacement)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert positions.tobytes() == ref_pos.tobytes()
        assert np.array_equal(moved, ref_moved)
        assert net.tobytes() == net_before.tobytes()
        return got

    def forces(self, seed, n):
        """Forces whose displacements fall below MOVE_EPSILON, between the
        thresholds, above the clamp, at zero and at NaN."""
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.integers(-13, 4, n)
        net = rng.normal(size=(n, 3)) * scale[:, None]
        net[rng.random(n) < 0.15] = 0.0
        net[rng.random(n) < 0.05, 1] = np.nan
        return net

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, n=st.integers(0, 300),
           dt=st.sampled_from([0.01, 0.1, 1.0]),
           max_displacement=st.sampled_from([1e-3, 0.5, 3.0, 1e9]))
    def test_thresholds_clamp_and_flags(self, seed, n, dt, max_displacement):
        rng = np.random.default_rng(seed + 5)
        self.both(cloud(seed, n, 50.0), rng.random(n) < 0.3,
                  self.forces(seed, n), dt, max_displacement)

    def test_all_moved_none_moved_all_clamped(self):
        pos = cloud(0, 64, 10.0)
        everyone = self.both(pos.copy(), np.zeros(64, dtype=bool),
                             np.full((64, 3), 0.25), 0.1, 3.0)
        assert everyone.all()
        nobody = self.both(pos.copy(), np.zeros(64, dtype=bool),
                           np.full((64, 3), 1e-12), 0.1, 3.0)
        assert not nobody.any()
        clamped = self.both(pos.copy(), np.zeros(64, dtype=bool),
                            np.full((64, 3), 1e6), 0.1, 3.0)
        assert clamped.all()

    @settings(max_examples=30, deadline=None)
    @given(seed=seeds, n=st.integers(1, 200), parts=st.integers(1, 5))
    def test_row_slices_equal_the_full_call(self, seed, n, parts):
        net = self.forces(seed, n)
        pos, moved = cloud(seed, n, 50.0), np.zeros(n, dtype=bool)
        ref_pos, ref_moved = pos.copy(), moved.copy()
        pair_reference.displace(ref_pos, ref_moved, net.copy(), 0.1, 2.0)
        backend = numpy_ref.NumpyKernelBackend()
        bounds = np.unique(np.concatenate(
            ([0, n], np.random.default_rng(seed).integers(0, n + 1,
                                                          parts - 1))))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            backend.displace_rows(pos, moved, net, 0.1, 2.0, lo, hi)
        assert pos.tobytes() == ref_pos.tobytes()
        assert np.array_equal(moved, ref_moved)


def peak_bytes(fn):
    """tracemalloc peak of one call, over what was live before it."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak, result


class TestMemoryShape:
    N = 20_000

    def grid_csr(self, radius):
        # About the oncology benchmark's density: ~6.8 neighbors within 10.0.
        span = 10.0 * (self.N * 27.0 / 46.0) ** (1.0 / 3.0)
        pos = cloud(2, self.N, span)
        env = UniformGridEnvironment()
        env.update(pos, radius)
        return (pos, *env.neighbor_csr())

    def test_force_peak_is_a_block_not_the_pair_list(self):
        dia = np.full(self.N, 10.0)
        pos, indptr, indices = self.grid_csr(10.5)
        _, dense_indptr, dense_indices = self.grid_csr(13.3)
        pairs, dense_pairs = len(indices), len(dense_indices)
        assert pairs >= 150_000 and dense_pairs >= 1.9 * pairs
        peak, (_, _, evaluated) = peak_bytes(
            lambda: numpy_ref.force_csr(pos, dia, indptr, indices))
        assert evaluated == pairs
        assert peak <= 40 * pairs
        reference, _ = peak_bytes(
            lambda: pair_reference.force_csr(pos, dia, indptr, indices))
        assert peak < reference / 4
        # Twice the pairs at the same block size: the O(n) outputs and
        # columns and one block are all there is, plus the few extra pairs
        # a block of longer rows overshoots its budget by.
        dense_peak, _ = peak_bytes(
            lambda: numpy_ref.force_csr(pos, dia, dense_indptr,
                                        dense_indices))
        assert dense_peak <= 1.1 * peak
        outputs_and_columns = self.N * (3 * 8 + 8 + 3 * 8)
        assert peak <= outputs_and_columns + 120 * numpy_ref._BLOCK_PAIRS

    def test_refilter_peak_has_no_coordinate_triples(self):
        radius, skin = 10.0, 3.0
        pos, indptr, indices = self.grid_csr(radius + skin)
        qi = csr_row_index(indptr, indices)
        superset = len(indices)
        peak, (_, kept, _) = peak_bytes(
            lambda: refilter_csr(indptr, indices, qi, pos, radius))
        assert 0.3 * superset < len(kept) < 0.6 * superset
        # Three float64 arrays of superset length at a time (d2, one
        # square, one gathered column -- not dx, dy, dz and d2 together),
        # one bool mask, one int64 index of the kept pairs, and the two
        # kept outputs.
        assert peak <= 25 * superset + 24 * len(kept) + 60 * self.N
        reference, _ = peak_bytes(
            lambda: pair_reference.refilter_csr(indptr, indices, qi, pos,
                                                radius))
        assert peak < 0.8 * reference
