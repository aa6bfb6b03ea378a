"""Differential and memory-shape tests for the substance-grid pipeline:
the stencil kernel, the grid's point operations, ``Chemotaxis`` and the
deferred environment build they ride with.

``repro.kernels.numpy_ref.diffuse`` (slab-blocked, flat z-shifts), the
C stencil of ``repro.kernels.c_backend`` (float64 grids; every stencil
case runs through every kernel backend built here),
:class:`repro.core.diffusion.DiffusionGrid` (double-buffered, flat-index
access) and :class:`repro.core.behaviors_lib.Chemotaxis` must reproduce
the textbook forms frozen in :mod:`tests.diffusion_reference` byte for
byte -- ``tobytes()`` on the float outputs, so a ``-0.0`` for a ``0.0``
is caught -- on the inputs where a slab cut, a clamped face, a flat
shift or an index flattening could go wrong.  Runs in CI's ``golden``
job under the pinned numpy, so a numpy upgrade that changes the
accumulation order of ``ufunc.at`` fails here, not in a golden trace
three layers up.

One carve-out, and it is numpy's, not the kernel's: when *both* operands
of an add are NaN with different sign bits (``np.nan`` meeting the NaN
that ``inf - inf`` produces), which one survives depends on the ufunc
loop that runs -- SIMD body or scalar tail, contiguous or strided -- so
it is not even stable between two layouts of the reference.  Grids that
mix NaN and +-inf cells are therefore compared with every NaN
canonicalised; NaN-only, inf-only and finite grids stay strict.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Chemotaxis, DiffusionGrid, Param, Secretion, Simulation
from repro.kernels import numpy_ref
from repro.verify.snapshot import state_checksum
from tests import diffusion_reference as ref
from tests.kernel_backends import kernel_backends
from tests.test_scheduler_details import eager_builds

MIB = 1 << 20

#: Cell values per family; ``mixed`` is the only one compared modulo NaN
#: sign (see the module docstring).
SPECIALS = {
    "finite": [0.0, -0.0, 5e-324, -5e-324, 1e-310, 3.5, -2.25],
    "nan": [np.nan, 0.0, -0.0, 5e-324],
    "inf": [np.inf, -np.inf, 0.0, -0.0, 5e-324],
    "mixed": [np.nan, np.inf, -np.inf, -0.0, 1e308, -1e308],
}

seeds = st.integers(0, 10_000)
families = st.sampled_from(sorted(SPECIALS))
dtypes = st.sampled_from([np.float64, np.float32])
layouts = st.sampled_from(["c", "fortran", "sliced", "reversed"])
#: 1 byte -> one plane per slab; the default; the whole grid in one slab.
slab_bytes = st.sampled_from([1, 1 << 10, numpy_ref._SLAB_BYTES, 1 << 40])
shapes = st.one_of(
    st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 7)),
    st.sampled_from([(1, 1, 1), (1, 5, 7), (2, 3, 1), (5, 1, 4), (2, 2, 2),
                     (7, 6, 5), (33, 17, 9), (3, 40, 40)]),
)
pde = st.tuples(
    st.sampled_from([1.0, 0.37, 7.8125]),      # voxel size
    st.sampled_from([0.0, 0.5, 1.3]),          # D
    st.sampled_from([0.0, 0.01, 0.5]),         # decay
    st.sampled_from([0.1, 0.9]),               # dt
)


def field(seed, shape, dtype, family, layout="c"):
    """A random grid with ~30 % special cells, in the requested layout."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=shape).astype(dtype)
    special = rng.random(shape) < 0.3
    with np.errstate(over="ignore"):     # 1e308 -> inf in float32
        values = np.array(SPECIALS[family]).astype(dtype)
    c[special] = rng.choice(values, size=int(special.sum()))
    if layout == "fortran":
        return np.asfortranarray(c)
    if layout == "sliced":               # every other cell of a wider block
        wide = np.zeros(tuple(2 * n for n in shape), dtype=dtype)
        wide[::2, ::2, ::2] = c
        return wide[::2, ::2, ::2]
    if layout == "reversed":             # negative strides
        return np.ascontiguousarray(c[::-1, ::-1, ::-1])[::-1, ::-1, ::-1]
    return c


def canonical(a):
    """``a`` with every NaN replaced by the one ``np.nan`` bit pattern."""
    return np.where(np.isnan(a), np.asarray(np.nan, dtype=a.dtype), a)


def assert_same_bytes(got, expected, strict=True):
    assert got.shape == expected.shape and got.dtype == expected.dtype
    if not strict:
        got, expected = canonical(got), canonical(expected)
    assert got.tobytes() == expected.tobytes()


def with_slab(nbytes, fn):
    """``fn()`` under ``_SLAB_BYTES = nbytes`` (hypothesis re-runs a test
    body many times per fixture, so ``monkeypatch`` does not fit)."""
    saved = numpy_ref._SLAB_BYTES
    numpy_ref._SLAB_BYTES = nbytes
    try:
        return fn()
    finally:
        numpy_ref._SLAB_BYTES = saved


# --------------------------------------------------------------------- #
# The stencil kernel
# --------------------------------------------------------------------- #

class TestKernelDifferential:
    @settings(max_examples=300, deadline=None)
    @given(seed=seeds, shape=shapes, dtype=dtypes, family=families,
           layout=layouts, slab=slab_bytes, args=pde)
    def test_generated_grids(self, seed, shape, dtype, family, layout, slab,
                             args):
        c = field(seed, shape, dtype, family, layout)
        before = c.copy()
        with np.errstate(all="ignore"):
            expected = ref.diffuse(c, *args)
            for kb in kernel_backends():
                got = with_slab(slab, lambda: kb.diffuse(c, *args))
                assert_same_bytes(got, expected, strict=family != "mixed")
                assert c.tobytes() == before.tobytes()   # input untouched

    @pytest.mark.parametrize("shape", [(1, 1, 1), (1, 5, 7), (2, 3, 1),
                                       (5, 1, 4), (7, 6, 5), (33, 17, 9),
                                       (3, 300, 300), (64, 64, 64)])
    def test_fixed_shapes_at_every_slab_height(self, shape):
        c = field(7, shape, np.float64, "finite")
        expected = ref.diffuse(c, 7.8125, 0.5, 0.01, 0.9)
        plane = shape[1] * shape[2] * 8
        for planes in sorted({1, 2, 3, shape[0] - 1, shape[0], shape[0] + 5}
                             - {0}):
            got = with_slab(planes * plane, lambda: numpy_ref.diffuse(
                c, 7.8125, 0.5, 0.01, 0.9))
            assert_same_bytes(got, expected)
        for kb in kernel_backends():
            assert_same_bytes(kb.diffuse(c, 7.8125, 0.5, 0.01, 0.9), expected)

    def test_default_slab_is_two_planes_at_128_squared(self):
        assert numpy_ref._SLAB_BYTES // (128 * 128 * 8) == 2

    def test_empty_axes(self):
        for shape in [(0, 3, 3), (3, 0, 3), (3, 3, 0)]:
            for kb in kernel_backends():
                out = kb.diffuse(np.zeros(shape), 1.0, 0.5, 0.0, 0.1)
                assert out.shape == shape

    def test_many_steps_stay_equal(self):
        """Differences would compound: 40 steps of a point source."""
        for kb in kernel_backends():
            a = np.zeros((12, 9, 10))
            a[5, 4, 4] = 100.0
            b = a.copy()
            spare = np.empty_like(b)
            for _ in range(40):
                a = ref.diffuse(a, 2.0, 0.5, 0.02, 1.2)
                new = kb.diffuse(b, 2.0, 0.5, 0.02, 1.2, out=spare)
                b, spare = new, b
                assert_same_bytes(b, a)


class TestOutContract:
    ARGS = (1.5, 0.4, 0.02, 0.3)

    def test_out_is_written_and_returned(self):
        c = field(1, (6, 5, 4), np.float64, "finite")
        for kb in kernel_backends():
            out = np.full_like(c, 123.0)
            got = kb.diffuse(c, *self.ARGS, out=out)
            assert got is out
            assert_same_bytes(out, ref.diffuse(c, *self.ARGS))

    def test_non_contiguous_out_is_honoured(self):
        c = field(2, (6, 5, 4), np.float64, "finite")
        for kb in kernel_backends():
            out = np.asfortranarray(np.empty_like(c))
            assert kb.diffuse(c, *self.ARGS, out=out) is out
            assert_same_bytes(np.ascontiguousarray(out),
                              ref.diffuse(c, *self.ARGS))

    def test_aliasing_is_refused_before_anything_is_written(self):
        c = field(3, (6, 5, 4), np.float64, "finite")
        before = c.copy()
        wide = np.zeros((7, 5, 4))
        for kb in kernel_backends():
            for bad in (c, c[::-1], c.reshape(-1).reshape(c.shape)):
                with pytest.raises(ValueError, match="share no memory"):
                    kb.diffuse(c, *self.ARGS, out=bad)
            with pytest.raises(ValueError):
                kb.diffuse(wide[1:], *self.ARGS, out=wide[:-1])
            assert c.tobytes() == before.tobytes()

    def test_wrong_shape_or_dtype_is_refused(self):
        c = np.zeros((4, 4, 4))
        for kb in kernel_backends():
            with pytest.raises(ValueError):
                kb.diffuse(c, *self.ARGS, out=np.zeros((4, 4, 5)))
            with pytest.raises(ValueError):
                kb.diffuse(c, *self.ARGS,
                           out=np.zeros((4, 4, 4), dtype=np.float32))

    def test_backend_returns_the_array_it_wrote(self):
        """``perf/trace.py`` reads ``result.size`` off the return value."""
        c = np.ones((5, 4, 3))
        for kb in kernel_backends():
            out = np.empty_like(c)
            assert kb.diffuse(c, *self.ARGS, out=out) is out
            fresh = kb.diffuse(c, *self.ARGS)
            assert fresh is not c and fresh.size == c.size


# --------------------------------------------------------------------- #
# Grid point operations
# --------------------------------------------------------------------- #

def grid_pair(seed, resolution, dtype=np.float64, layout="c"):
    """Two identical grids with a random field (one per implementation)."""
    grids = []
    for _ in range(2):
        g = DiffusionGrid("s", resolution, -3.0, 9.0,
                          diffusion_coefficient=0.5, decay=0.01)
        g.concentration = field(seed, (resolution,) * 3, dtype, "finite",
                                layout)
        grids.append(g)
    return grids


def probe_points(seed, n, resolution, kind):
    """Points inside the box, outside it, on voxel faces, or all in one
    voxel (heavy duplicates)."""
    rng = np.random.default_rng(seed + 17)
    lower, upper = -3.0, 9.0
    if kind == "inside":
        return rng.uniform(lower, upper, (n, 3))
    if kind == "outside":
        return rng.uniform(lower - 20.0, upper + 20.0, (n, 3))
    if kind == "faces":
        h = (upper - lower) / resolution
        return lower + h * rng.integers(-1, resolution + 2, (n, 3))
    return np.full((n, 3), 2.5) + rng.uniform(0.0, 1e-3, (n, 3))


point_kinds = st.sampled_from(["inside", "outside", "faces", "one_voxel"])


class TestGridOpsDifferential:
    @settings(max_examples=80, deadline=None)
    @given(seed=seeds, r=st.integers(1, 9), n=st.integers(0, 120),
           kind=point_kinds, dtype=dtypes, layout=layouts)
    def test_reads(self, seed, r, n, kind, dtype, layout):
        new, old = grid_pair(seed, r, dtype, layout)
        pts = probe_points(seed, n, r, kind)
        for got, expected in zip(new.voxel_of(pts), ref.voxel_of(old, pts)):
            assert np.array_equal(got, expected) and got.dtype == np.int64
        assert_same_bytes(new.concentration_at(pts),
                          ref.concentration_at(old, pts))
        assert_same_bytes(new.gradient_at(pts), ref.gradient_at(old, pts))

    @settings(max_examples=80, deadline=None)
    @given(seed=seeds, r=st.integers(1, 9), n=st.integers(0, 200),
           kind=point_kinds, dtype=dtypes, layout=layouts,
           amounts=st.sampled_from(["scalar", "array", "cancelling"]))
    def test_add_substance(self, seed, r, n, kind, dtype, layout, amounts):
        """Duplicates accumulate one by one in input order: with amounts
        like 1e16, 1, -1e16 any other order changes the sum."""
        new, old = grid_pair(seed, r, dtype, layout)
        pts = probe_points(seed, n, r, kind)
        rng = np.random.default_rng(seed + 5)
        if amounts == "scalar":
            amount = 0.1
        elif amounts == "array":
            amount = rng.normal(size=n)
        else:
            amount = rng.choice([1e16, 1.0, -1e16, 3.0, 1e-8], size=n)
        new.add_substance(pts, amount)
        ref.add_substance(old, pts, amount)
        assert_same_bytes(np.ascontiguousarray(new.concentration),
                          np.ascontiguousarray(old.concentration))

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, r=st.integers(1, 9), n=st.integers(0, 200),
           kind=point_kinds, dtype=dtypes, layout=layouts,
           fraction=st.sampled_from([0.0, 0.3, 1.0]))
    def test_consume(self, seed, r, n, kind, dtype, layout, fraction):
        new, old = grid_pair(seed, r, dtype, layout)
        pts = probe_points(seed, n, r, kind)
        assert_same_bytes(new.consume(pts, fraction),
                          ref.consume(old, pts, fraction))
        assert_same_bytes(np.ascontiguousarray(new.concentration),
                          np.ascontiguousarray(old.concentration))

    def test_single_point_and_fraction_check(self):
        new, old = grid_pair(4, 5)
        pt = np.array([1.0, 2.0, 3.0])                # 1-D: one point
        assert_same_bytes(new.gradient_at(pt), ref.gradient_at(old, pt))
        assert_same_bytes(new.concentration_at(pt),
                          ref.concentration_at(old, pt))
        with pytest.raises(ValueError):
            new.consume(pt, 1.5)

    def test_writes_land_in_a_user_assigned_fortran_array(self):
        grid = DiffusionGrid("s", 4, 0.0, 4.0)
        grid.concentration = np.asfortranarray(np.zeros((4, 4, 4)))
        grid.add_substance(np.array([[0.5, 1.5, 2.5]]), 2.0)
        assert grid.concentration[0, 1, 2] == 2.0
        assert grid.total_substance() == 2.0


class TestStepDoubleBuffer:
    def test_steps_equal_the_reference_and_recycle_two_arrays(self):
        new, old = grid_pair(11, 8)
        seen = set()
        for _ in range(6):
            new.step(0.5)
            ref.step(old, 0.5)
            assert_same_bytes(new.concentration, old.concentration)
            seen.add(id(new.concentration))
        assert len(seen) == 2

    def test_assigning_concentration_is_always_safe(self):
        """Checkpoint restore and users assign ``concentration``: a spare
        of the wrong shape / dtype, or one that *is* the live array, must
        not be written into."""
        new, old = grid_pair(12, 6)
        new.step(0.5), ref.step(old, 0.5)
        kept = new.concentration
        new.step(0.5), ref.step(old, 0.5)
        # The user puts an earlier array back: it is the spare now.
        new.concentration = kept
        old.concentration = kept.copy()
        new.step(0.5), ref.step(old, 0.5)
        assert_same_bytes(new.concentration, old.concentration)
        # A view of the spare, another dtype, another shape.
        for replacement in (new._spare[::-1], np.ones((6, 6, 6), np.float32),
                            np.ones((5, 5, 5))):
            new.concentration = replacement
            old.concentration = np.array(replacement)
            new.step(0.5), ref.step(old, 0.5)
            assert_same_bytes(new.concentration, old.concentration)

    def test_last_step_was_identity_compares_bytes(self):
        grid = DiffusionGrid("s", 6, 0.0, 6.0, diffusion_coefficient=0.5)
        assert not grid.last_step_was_identity()      # no step yet
        grid.concentration[2, 2, 2] = 1.0
        grid.step(0.3)
        assert not grid.last_step_was_identity()
        grid.concentration = np.full((6, 6, 6), 4.0)  # uniform: f(c) == c
        grid.step(0.3)
        assert grid.last_step_was_identity()
        # NaN == NaN bytewise: an all-NaN grid is a fixed point ...
        grid.concentration = np.full((6, 6, 6), np.nan)
        with np.errstate(all="ignore"):
            grid.step(0.3)
        assert grid.last_step_was_identity()
        # ... and -0.0 -> +0.0 is a change although -0.0 == +0.0.
        grid.concentration = np.full((6, 6, 6), -0.0)
        grid.step(0.3)
        assert np.array_equal(grid.concentration, grid._spare)
        assert not grid.last_step_was_identity()

    def test_custom_backend_that_ignores_out(self):
        class Allocating(numpy_ref.NumpyKernelBackend):
            def diffuse(self, c, h, d, decay, dt, out=None):
                return ref.diffuse(c, h, d, decay, dt)

        new, old = grid_pair(13, 5)
        for _ in range(3):
            new.step(0.5, kernels=Allocating())
            ref.step(old, 0.5)
            assert_same_bytes(new.concentration, old.concentration)
        assert not new.last_step_was_identity()


# --------------------------------------------------------------------- #
# Chemotaxis and whole trajectories
# --------------------------------------------------------------------- #

def field_model(seed, event_scheduling, agents=400, resolution=16):
    """``perf/workloads.py``'s ``diffusion_field`` at test size: cells that
    only secrete into / climb two substance fields, no mechanics."""
    box = 1000.0
    rng = np.random.default_rng(seed)
    param = Param.optimized().with_(event_scheduling=event_scheduling)
    sim = Simulation("diffusion_field", param, seed=seed)
    sim.mechanics_enabled = False
    idx = sim.add_cells(rng.uniform(0.0, box, (agents, 3)), diameters=10.0)
    for k, substance in enumerate(("attractant_a", "attractant_b")):
        sim.add_diffusion_grid(DiffusionGrid(
            substance, resolution, 0.0, box,
            diffusion_coefficient=0.5, decay=0.01))
        half = idx[k::2]
        sim.attach_behavior(half, Secretion(substance, 1.0))
        sim.attach_behavior(half, Chemotaxis(substance, 2.0))
    return sim


def install_reference(monkeypatch):
    """Every frozen function back in place, and an eager build."""
    for name in ("step", "voxel_of", "concentration_at", "add_substance",
                 "consume", "gradient_at"):
        monkeypatch.setattr(DiffusionGrid, name, getattr(ref, name))
    monkeypatch.setattr(Chemotaxis, "run", ref.chemotaxis_run)
    eager_builds(monkeypatch)


class TestChemotaxisDifferential:
    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, n=st.integers(1, 150), r=st.integers(1, 8),
           flat=st.booleans())
    def test_run_moves_agents_identically(self, seed, n, r, flat):
        sims = []
        for _ in range(2):
            sim = Simulation("c", Param(simulation_time_step=0.7), seed=1)
            rng = np.random.default_rng(seed)
            sim.add_cells(rng.uniform(-5.0, 45.0, (n, 3)), diameters=4.0)
            grid = sim.add_diffusion_grid(DiffusionGrid("s", r, 0.0, 40.0))
            if not flat:     # a flat field has zero gradient: nobody moves
                grid.concentration[:] = rng.random((r, r, r))
                grid.concentration[rng.random((r, r, r)) < 0.4] = 0.25
            sims.append(sim)
        new, old = sims
        behavior = Chemotaxis("s", speed=1.75)
        idx = np.arange(n)[::-1].copy()
        behavior.run(new, idx)
        ref.chemotaxis_run(behavior, old, idx)
        assert new.rm.positions.tobytes() == old.rm.positions.tobytes()
        assert np.array_equal(new.rm.data["moved"], old.rm.data["moved"])


class TestTrajectoryDifferential:
    @pytest.mark.parametrize("event_scheduling", [False, True])
    def test_engine_equals_reference_functions_at_every_tick(
            self, event_scheduling, monkeypatch):
        ticks = 24                                   # sort ticks: 10, 20
        engine = field_model(5, event_scheduling)
        got = []
        for _ in range(ticks):
            engine.simulate(1)
            got.append(state_checksum(engine))
        reg = engine.obs.registry
        assert reg.counter("scheduler:env_builds_deferred").value == ticks
        assert reg.counter("scheduler:env_rebuilds").value == 0

        install_reference(monkeypatch)
        reference = field_model(5, event_scheduling)
        expected = []
        for _ in range(ticks):
            reference.simulate(1)
            expected.append(state_checksum(reference))
        reg = reference.obs.registry
        assert reg.counter("scheduler:env_rebuilds").value == ticks
        assert got == expected
        assert len(set(got)) == ticks                # the model does move


# --------------------------------------------------------------------- #
# Memory shape
# --------------------------------------------------------------------- #

def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryShape:
    """One 64^3 float64 grid array is 2 MiB."""

    def warmed_grid(self, decay=0.01):
        grid = DiffusionGrid("s", 64, 0.0, 64.0, diffusion_coefficient=0.5,
                             decay=decay)
        grid.concentration[:] = np.random.default_rng(0).random((64,) * 3)
        grid.step(0.3)
        grid.step(0.3)
        return grid

    def test_steady_state_step_allocates_no_grid_sized_array(self):
        grid = self.warmed_grid()
        peak = traced_peak(lambda: [grid.step(0.3) for _ in range(5)])
        assert peak < 1 * MIB
        # The textbook form: ~5 grid-sized temporaries live at once.
        old = self.warmed_grid()
        assert traced_peak(lambda: ref.step(old, 0.3)) > 8 * MIB

    def test_fixed_point_probe_allocates_no_grid_sized_array(self):
        grid = self.warmed_grid(decay=0.0)
        assert traced_peak(grid.last_step_was_identity) < MIB // 4
        grid.concentration = np.full((64,) * 3, 2.0)
        grid.step(0.3)                 # a fixed point: every plane is read
        assert grid.last_step_was_identity()
        assert traced_peak(grid.last_step_was_identity) < MIB // 4

    def test_event_probe_allocates_no_grid_sized_array(self):
        sim = Simulation("probe", Param.optimized())
        sim.mechanics_enabled = False
        grid = sim.add_diffusion_grid(DiffusionGrid(
            "s", 64, 0.0, 64.0, diffusion_coefficient=0.5))
        grid.concentration[:] = 3.0
        sim.simulate(2)                # warm both buffers
        events = sim.scheduler.events
        events.note_state_change()
        peak = traced_peak(lambda: events._jump_diffusion([grid]))
        assert peak < 1 * MIB
        assert events._grids_fixed == (events._epoch, True)
