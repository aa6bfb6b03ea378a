"""The superset relabel through every kernel backend, against a fresh build.

After agent sorting permutes the agents, the scheduler carries its
Verlet superset through the permutation (:meth:`KernelBackend
.relabel_csr`) instead of rebuilding it.  For the grid CSR of positions
``P0`` and a permutation ``order``, every backend that answers must return,
``array_equal``, the grid CSR of ``P0[order]`` -- rows ascending, on the
inputs where the gather, the transposing fill or the row layout could go
wrong; ``numpy`` answers None (the scheduler then rebuilds).  Runs in
CI's ``golden`` job.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.env import UniformGridEnvironment
from tests.kernel_backends import kernel_backends
from tests.test_grid_differential import cloud
from tests.test_sort_differential import reference_order


def grid_csr(pos, radius):
    env = UniformGridEnvironment()
    env.update(pos, radius)
    return env.neighbor_csr()


def assert_relabel_matches(pos, radius, order):
    """Relabel the CSR of ``pos`` by ``order`` through every backend and
    compare it with the CSR of ``pos[order]``."""
    indptr, indices = grid_csr(pos, radius)
    want_indptr, want_indices = grid_csr(pos[order], radius)
    for kb in kernel_backends():
        got = kb.relabel_csr(indptr, indices, order)
        if got is None:
            assert not kb.compiled, kb.name
            continue
        got_indptr, got_indices = got
        assert got_indptr.dtype == got_indices.dtype == np.int64
        assert np.array_equal(got_indptr, want_indptr), kb.name
        assert np.array_equal(got_indices, want_indices), kb.name


seeds = st.integers(0, 10_000)


class TestRelabel:
    @settings(max_examples=40)
    @given(seed=seeds, n=st.integers(1, 300),
           span=st.sampled_from([5.0, 30.0, 120.0]),
           radius=st.floats(1.0, 10.0))
    def test_random_permutations(self, seed, n, span, radius):
        pos = cloud(seed, n, span)
        order = np.random.default_rng(seed + 1).permutation(n)
        assert_relabel_matches(pos, radius, order)

    @settings(max_examples=20)
    @given(seed=seeds, n=st.integers(2, 300))
    def test_the_sorts_morton_order(self, seed, n):
        pos = cloud(seed, n, 40.0)
        assert_relabel_matches(pos, 4.0, reference_order(pos, 4.0)[0])

    @pytest.mark.parametrize("n", [0, 1, 2, 500])
    def test_identity_permutation(self, n):
        assert_relabel_matches(cloud(3, n, 30.0), 4.0,
                               np.arange(n, dtype=np.int64))

    def test_empty_rows(self):
        # Isolated agents among clustered ones: many empty rows, some at the
        # ends of the permuted order.
        rng = np.random.default_rng(4)
        lonely = np.arange(40)[:, None] * np.array([[100.0, 0.0, 0.0]])
        pos = np.vstack((lonely, rng.uniform(0.0, 6.0, (60, 3))))
        for order in (rng.permutation(100), np.arange(100)[::-1]):
            assert_relabel_matches(pos, 4.0, order)

    def test_no_pairs_at_all(self):
        pos = np.arange(20)[:, None] * np.array([[50.0, 0.0, 0.0]])
        assert_relabel_matches(pos, 4.0, np.random.default_rng(0).permutation(20))

    def test_a_6000_neighbor_row(self):
        # A centre agent with 6000 neighbours: 12 clusters of 500 coincident
        # points on an icosahedron of circumradius 0.98 r around it, 1.03 r
        # apart, so the other rows hold 500 columns each (3e6 pairs).
        radius, phi = 10.0, (1.0 + 5.0**0.5) / 2.0
        vertices = np.array([v for a in (-1.0, 1.0) for b in (-phi, phi)
                             for v in ((0.0, a, b), (a, b, 0.0), (b, 0.0, a))])
        vertices *= 0.98 * radius / np.linalg.norm(vertices[0])
        group = np.repeat(np.arange(13), [1] + [500] * 12)
        pos = np.vstack((np.zeros((1, 3)), vertices))[group] + 50.0
        indptr, _ = grid_csr(pos, radius)
        assert indptr[1] - indptr[0] == 6000
        assert_relabel_matches(pos, radius,
                               np.random.default_rng(5).permutation(len(pos)))

    @pytest.mark.parametrize("bad", ["repeat", "range", "length", "indptr"])
    def test_not_a_permutation_or_a_csr_raises(self, bad):
        pos = cloud(1, 50, 20.0)
        indptr, indices = grid_csr(pos, 5.0)
        order = np.random.default_rng(1).permutation(50)
        if bad == "repeat":
            order[3] = order[4]
        elif bad == "range":
            order[3] = 50
        elif bad == "length":
            order = order[:-1]
        else:
            indptr = indptr.copy()
            indptr[10] = indptr[12] + 1
        for kb in kernel_backends():
            if kb.compiled:
                with pytest.raises(ValueError):
                    kb.relabel_csr(indptr, indices, order)

    def test_an_asymmetric_csr_raises_before_writing_past_a_row(self):
        # Every row points at agent 0 only: row 0 would get n - 1 columns.
        n = 6
        indptr = np.arange(n + 1, dtype=np.int64)
        indices = np.zeros(n, dtype=np.int64)
        for kb in kernel_backends():
            if kb.compiled:
                with pytest.raises(ValueError, match="symmetric"):
                    kb.relabel_csr(indptr, indices, np.arange(n))
