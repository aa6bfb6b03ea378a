"""Property tests: kernel backends agree within declared tolerances.

The contract under test (docs/kernels.md):

- the NumPy reference backend is **bitwise deterministic** — repeated
  calls on identical inputs return byte-identical outputs, and it is
  byte-identical to the mainline code paths it was extracted from
  (``InteractionForce.compute``, ``apply_displacement``,
  ``DiffusionGrid.step``);
- every compiled backend (Numba, CuPy) matches the NumPy reference
  within the per-kernel tolerances of ``KERNEL_TOLERANCES`` — on random
  CSR topologies, random diameters, and random grid shapes, including
  the degenerate coincident-centers case.

Compiled-backend tests skip (never fail) when the backend is not
importable here; the CI numba leg runs them compiled.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.diffusion import DiffusionGrid
from repro.core.force import InteractionForce
from repro.env.environment import brute_force_csr
from repro.kernels import numpy_ref
from repro.kernels.api import KERNEL_TOLERANCES, tolerance_for
from repro.kernels.dispatch import _probe
from repro.parallel.backend import apply_displacement

RADIUS = 12.0

needs_numba = pytest.mark.skipif(
    not _probe("numba"), reason="numba not importable here (see CI numba leg)"
)
needs_cupy = pytest.mark.skipif(
    not _probe("cupy"), reason="cupy/CUDA not usable here"
)


def _random_system(seed: int, n: int, span: float):
    """Random positions + diameters + brute-force CSR at RADIUS."""
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0.0, span, size=(n, 3))
    diameters = rng.uniform(6.0, 14.0, size=n)
    indptr, indices = brute_force_csr(positions, RADIUS)
    return positions, diameters, indptr, indices


def _degenerate_system(n: int = 8):
    """Coincident centers: the dist<eps degenerate force branch."""
    positions = np.zeros((n, 3))
    positions[n // 2:] += 0.5  # two coincident clusters in range
    diameters = np.full(n, 10.0)
    indptr, indices = brute_force_csr(positions, RADIUS)
    return positions, diameters, indptr, indices


systems = st.tuples(
    st.integers(0, 2**31 - 1),          # seed
    st.integers(2, 60),                 # agents
    st.floats(10.0, 120.0),            # box span (dense .. sparse CSR)
)


class TestNumpyReference:
    """The NumPy backend is the bitwise source of truth."""

    @settings(max_examples=30, deadline=None)
    @given(systems)
    def test_force_bitwise_self_consistent_and_matches_mainline(self, sys_):
        seed, n, span = sys_
        pos, dia, indptr, indices = _random_system(seed, n, span)
        force = InteractionForce()
        net1, nz1, p1 = numpy_ref.force_csr(pos, dia, indptr, indices,
                                            force_model=force)
        net2, nz2, p2 = numpy_ref.force_csr(pos, dia, indptr, indices,
                                            force_model=force)
        assert net1.tobytes() == net2.tobytes()      # bitwise repeatable
        assert np.array_equal(nz1, nz2) and p1 == p2
        result = force.compute(pos, dia, indptr, indices)
        assert result.net_force.tobytes() == net1.tobytes()
        assert np.array_equal(result.nonzero_neighbor_forces, nz1)
        assert result.pairs_evaluated == p1

    @settings(max_examples=20, deadline=None)
    @given(systems, st.floats(0.001, 0.1), st.floats(0.5, 5.0))
    def test_displace_bitwise_matches_mainline(self, sys_, dt, max_disp):
        seed, n, span = sys_
        pos, dia, indptr, indices = _random_system(seed, n, span)
        force = InteractionForce()
        net, _, _ = numpy_ref.force_csr(pos, dia, indptr, indices,
                                        force_model=force)
        pos_a, moved_a = pos.copy(), np.zeros(n, dtype=bool)
        pos_b, moved_b = pos.copy(), np.zeros(n, dtype=bool)
        numpy_ref.displace(pos_a, moved_a, net, dt, max_disp)
        apply_displacement(pos_b, moved_b, net, dt, max_disp)
        assert pos_a.tobytes() == pos_b.tobytes()
        assert np.array_equal(moved_a, moved_b)
        # Clamp property: no one moved farther than max_disp (+ulp).
        step = np.linalg.norm(pos_a - pos, axis=1)
        assert np.all(step <= max_disp * (1 + 1e-12))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(3, 12))
    def test_diffuse_bitwise_matches_diffusion_grid(self, seed, res):
        rng = np.random.default_rng(seed)
        conc = rng.uniform(0.0, 5.0, size=(res, res, res))
        grid = DiffusionGrid("s", resolution=res, lower=0.0, upper=float(res),
                             diffusion_coefficient=0.4, decay=0.02)
        grid.concentration[...] = conc
        sub_dt = 0.5 * grid.stable_time_step()
        expected = numpy_ref.diffuse(conc, grid.voxel_size, 0.4, 0.02, sub_dt)
        grid.step(sub_dt)
        assert grid.concentration.tobytes() == expected.tobytes()

    def test_degenerate_coincident_centers_deterministic(self):
        pos, dia, indptr, indices = _degenerate_system()
        force = InteractionForce()
        net1, _, _ = numpy_ref.force_csr(pos, dia, indptr, indices,
                                         force_model=force)
        net2, _, _ = numpy_ref.force_csr(pos, dia, indptr, indices,
                                         force_model=force)
        assert np.all(np.isfinite(net1))
        assert net1.tobytes() == net2.tobytes()


class TestToleranceTable:
    """The central tolerance table itself."""

    def test_numpy_tolerance_is_exact(self):
        for kernel in ("force", "displacement", "diffusion"):
            tol = tolerance_for(kernel, "numpy")
            assert tol.exact
            assert tol.rtol == 0.0 and tol.atol == 0.0

    def test_compiled_tolerances_declared_for_all_kernels(self):
        for kernel in ("force", "displacement", "diffusion",
                       "replay_state"):
            assert kernel in KERNEL_TOLERANCES
            tol = KERNEL_TOLERANCES[kernel]
            assert 0.0 < tol.rtol <= 1e-6 and 0.0 < tol.atol <= 1e-6

    def test_max_exceedance_semantics(self):
        tol = KERNEL_TOLERANCES["force"]
        ref = np.array([1.0, 2.0])
        assert tol.max_exceedance(ref, ref) == 0.0
        off = ref + np.array([0.0, 1e-3])
        assert tol.max_exceedance(off, ref) > 1.0
        assert tol.allclose(ref, ref)
        assert not tol.allclose(off, ref)


def _compiled_backend(name):
    from repro.kernels.dispatch import make_kernels

    kb = make_kernels(name, registry=None, warn=False)
    assert kb.name == name, f"requested {name}, resolved {kb.name}"
    return kb


class TestCompiledBackends:
    """Numba / CuPy vs the NumPy reference, within tolerance."""

    @pytest.mark.parametrize("backend", [
        pytest.param("numba", marks=needs_numba),
        pytest.param("cupy", marks=needs_cupy),
    ])
    @pytest.mark.parametrize("seed,n,span", [
        (11, 40, 30.0), (12, 60, 90.0), (13, 2, 5.0), (14, 25, 15.0),
    ])
    def test_force_within_tolerance(self, backend, seed, n, span):
        pos, dia, indptr, indices = _random_system(seed, n, span)
        force = InteractionForce()
        ref_net, ref_nz, ref_pairs = numpy_ref.force_csr(
            pos, dia, indptr, indices, force_model=force)
        kb = _compiled_backend(backend)
        net, nz, pairs = kb.force(force, pos, dia, indptr, indices)
        tol = tolerance_for("force", backend)
        assert tol.max_exceedance(net, ref_net) <= 1.0
        assert pairs == ref_pairs
        assert np.array_equal(nz, ref_nz)

    @pytest.mark.parametrize("backend", [
        pytest.param("numba", marks=needs_numba),
        pytest.param("cupy", marks=needs_cupy),
    ])
    def test_force_degenerate_within_tolerance(self, backend):
        pos, dia, indptr, indices = _degenerate_system()
        force = InteractionForce()
        ref_net, _, _ = numpy_ref.force_csr(pos, dia, indptr, indices,
                                            force_model=force)
        kb = _compiled_backend(backend)
        net, _, _ = kb.force(force, pos, dia, indptr, indices)
        assert np.all(np.isfinite(net))
        tol = tolerance_for("force", backend)
        assert tol.max_exceedance(net, ref_net) <= 1.0

    @pytest.mark.parametrize("backend", [
        pytest.param("numba", marks=needs_numba),
        pytest.param("cupy", marks=needs_cupy),
    ])
    def test_displace_within_tolerance(self, backend):
        pos, dia, indptr, indices = _random_system(21, 50, 40.0)
        force = InteractionForce()
        net, _, _ = numpy_ref.force_csr(pos, dia, indptr, indices,
                                        force_model=force)
        ref_pos, ref_moved = pos.copy(), np.zeros(len(pos), dtype=bool)
        numpy_ref.displace(ref_pos, ref_moved, net, 0.01, 2.0)
        kb = _compiled_backend(backend)
        got_pos, got_moved = pos.copy(), np.zeros(len(pos), dtype=bool)
        kb.displace(got_pos, got_moved, net, 0.01, 2.0)
        tol = tolerance_for("displacement", backend)
        assert tol.max_exceedance(got_pos, ref_pos) <= 1.0
        assert np.array_equal(got_moved, ref_moved)

    @pytest.mark.parametrize("backend", [
        pytest.param("numba", marks=needs_numba),
        pytest.param("cupy", marks=needs_cupy),
    ])
    @pytest.mark.parametrize("res", [4, 9, 16])
    def test_diffuse_within_tolerance(self, backend, res):
        rng = np.random.default_rng(res)
        conc = rng.uniform(0.0, 5.0, size=(res, res, res))
        sub_dt = 0.5 * 1.0 / (6.0 * 0.4)
        ref = numpy_ref.diffuse(conc, 1.0, 0.4, 0.02, sub_dt)
        kb = _compiled_backend(backend)
        got = kb.diffuse(conc, 1.0, 0.4, 0.02, sub_dt)
        tol = tolerance_for("diffusion", backend)
        assert tol.max_exceedance(got, ref) <= 1.0

    @needs_numba
    def test_numba_warm_up_records_compile_time(self):
        kb = _compiled_backend("numba")
        kb.warm_up()
        assert kb.compiled
        assert kb.compile_seconds > 0.0
        before = kb.compile_seconds
        kb.warm_up()  # idempotent — no recompilation
        assert kb.compile_seconds == before
