"""Agent sorting's order through every kernel backend, against the NumPy keys.

:func:`repro.core.sorting.sort_and_balance` asks the kernel backend for
its Morton order (:meth:`KernelBackend.morton_order`); ``numpy`` answers
None and the NumPy key pipeline (:func:`repro.core.sorting.sort_keys`:
bin, Morton encode, ``ranks_for_codes``, stable argsort) runs -- the
reference.  ``c`` bins with the grid's operations and radix-sorts the
Morton codes; every case here must give, ``array_equal``, the stable
argsort of the NumPy keys -- on the inputs where binning, the upper-face
clamp, a radix digit or a tiny population could go wrong -- and the sort's
work report must not depend on which path ran.  Runs in CI's ``golden``
job under the pinned numpy.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Machine, Param, Simulation, SYSTEM_C
from repro.core.sorting import sort_and_balance, sort_keys
from repro.env import UniformGridEnvironment
from tests.kernel_backends import kernel_backends
from tests.test_grid_differential import cloud, upper_face_radius


def reference_order(pos, radius, box_length_factor=1.0):
    """The stable argsort of the NumPy Morton keys, and the geometry."""
    env = UniformGridEnvironment(box_length_factor=box_length_factor)
    mins, dims, box_len = env.grid_geometry(pos, radius)
    keys = sort_keys(env.box_ids(pos, mins, dims, box_len), dims)
    return np.argsort(keys, kind="stable"), (mins, dims, box_len)


def assert_orders_match(pos, radius, box_length_factor=1.0):
    """Every backend's order over ``pos`` is the reference order (or None,
    from the backends that leave it to the reference)."""
    want, geometry = reference_order(pos, radius, box_length_factor)
    for kb in kernel_backends():
        got = kb.morton_order(pos, *geometry)
        if got is None:
            assert not kb.compiled, kb.name
            continue
        assert got.dtype == np.int64, kb.name
        assert np.array_equal(got, want), kb.name


def code_bits(pos, radius):
    """Bits of the largest Morton code of ``pos`` binned at ``radius``."""
    env = UniformGridEnvironment()
    mins, dims, box_len = env.grid_geometry(pos, radius)
    coords = np.minimum(((pos - mins) / box_len).astype(np.int64), dims - 1)
    top = max(int(c).bit_length() for c in coords.max(axis=0))
    return 3 * top


seeds = st.integers(0, 10_000)


class TestMortonOrder:
    @settings(max_examples=60)
    @given(seed=seeds, n=st.integers(1, 400),
           span=st.sampled_from([1.0, 7.0, 30.0, 120.0]),
           radius=st.floats(0.5, 12.0),
           factor=st.sampled_from([1.0, 1.3, 2.5]))
    def test_random_clouds(self, seed, n, span, radius, factor):
        assert_orders_match(cloud(seed, n, span), radius, factor)

    @settings(max_examples=20)
    @given(seed=seeds, n=st.integers(2, 100), copies=st.integers(2, 4))
    def test_coincident_points_keep_their_order(self, seed, n, copies):
        # Equal codes must come out in index order: the sort is stable.
        assert_orders_match(np.tile(cloud(seed, n, 20.0), (copies, 1)), 3.0)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_signed_zero_coordinates(self, zero):
        pos = cloud(3, 60, 20.0)
        pos[::3, 0] = zero
        pos[1::3, 1] = -zero
        pos[5] = zero
        assert_orders_match(pos, 4.0)

    @pytest.mark.parametrize("side", [2, 5, 9])
    def test_points_on_box_faces(self, side):
        g = np.arange(side, dtype=np.float64) * 3.0
        pos = np.stack(np.meshgrid(g, g, g, indexing="ij"), -1).reshape(-1, 3)
        pos = pos[np.random.default_rng(side).permutation(len(pos))]
        assert_orders_match(pos, 3.0)

    def test_upper_face_clamp(self):
        span = 10.0
        radius = upper_face_radius(span)
        pos = np.vstack((cloud(4, 80, span),
                         [[span, span, span], [span, 0, 0], [0, span, 0]]))
        assert_orders_match(pos, radius)

    @pytest.mark.parametrize("digits,pos,radius", [
        (1, cloud(1, 500, 150.0), 10.0),                   # 15 boxes a side
        (2, cloud(2, 3000, 2500.0), 10.0),                 # 250 a side
        (3, np.array([[0.0, 0.0, 0.0], [5.0, 9.0, 2990.0],
                      [3.0, 1.0, 2560.0], [1.0, 4.0, 7.0]]), 10.0),
    ])
    def test_codes_needing_one_two_and_three_radix_digits(self, digits, pos,
                                                          radius):
        assert -(-code_bits(pos, radius) // 13) == digits
        assert_orders_match(pos, radius)

    @pytest.mark.parametrize("n", [1, 2])
    def test_tiny_populations(self, n):
        assert_orders_match(cloud(0, n, 2.0), 5.0)     # one box
        assert_orders_match(cloud(0, n, 50.0), 1.0)    # far apart

    def test_no_agents(self):
        geometry = (np.zeros(3), np.ones(3, dtype=np.int64), 1.0)
        for kb in kernel_backends():
            got = kb.morton_order(np.empty((0, 3)), *geometry)
            assert got is None or (got.dtype == np.int64 and len(got) == 0)


def sorting_sim(kernel_backend, curve="morton", machine=None, n=400, span=60.0):
    p = Param(agent_sort_frequency=0, kernel_backend=kernel_backend,
              space_filling_curve=curve)
    sim = Simulation("sort-diff", p, machine=machine, seed=0)
    sim.add_cells(cloud(9, n, span), diameters=8.0)
    return sim


class TestSortAndBalance:
    """The whole sort on each backend: same permutation, same bytes, same
    work report; the compiled order runs for the Morton curve, with or
    without a virtual machine, and never for the Hilbert curve."""

    def backends(self):
        return [kb.name for kb in kernel_backends()]

    def assert_same_sort(self, curve, machine=None):
        results = {}
        for name in self.backends():
            sim = sorting_sim(name, curve, machine=machine)
            res = sort_and_balance(sim)
            compiled = sim.kernels.compiled and curve == "morton"
            assert sim.kernels.sort_calls == int(compiled), name
            results[name] = (res, sim.rm.data["addr"].copy())
        want, want_addr = results["numpy"]
        for res, addr in results.values():
            assert np.array_equal(res.new_order, want.new_order)
            assert np.array_equal(addr, want_addr)
            assert res.boxes_touched == want.boxes_touched
            assert res.serial_cycles == want.serial_cycles
            assert res.rank_ops_per_agent == want.rank_ops_per_agent

    @pytest.mark.parametrize("curve", ["morton", "hilbert"])
    def test_same_order_and_work_report(self, curve):
        self.assert_same_sort(curve)

    def test_compiled_under_a_virtual_machine_too(self):
        self.assert_same_sort("morton", Machine(SYSTEM_C, num_threads=4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_positions_raise_the_same_error(self, bad):
        messages = set()
        for name in self.backends():
            sim = sorting_sim(name, n=30)
            sim.rm.positions[7, 1] = bad
            with pytest.raises(ValueError) as err:
                sort_and_balance(sim)
            messages.add(str(err.value))
        assert len(messages) == 1
