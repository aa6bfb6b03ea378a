"""Numba JIT kernels: compiled CPU backend for the three hot loops.

Re-expresses the :mod:`repro.kernels.numpy_ref` math as explicit loops
under ``@numba.njit(parallel=True, fastmath=False)``.  ``fastmath`` stays
off so LLVM may not reassociate floating point — the per-row inner loop
accumulates pairs in ascending CSR order, exactly like the reference
``np.bincount``, which keeps the deviation from the reference down to
instruction-scheduling noise (see ``KERNEL_TOLERANCES`` in
:mod:`repro.kernels.api`).

This module imports cleanly without numba installed: the ``@njit``
decorators degrade to identity and :class:`NumbaKernelBackend` raises
``ImportError`` from its constructor, which
:func:`repro.kernels.dispatch.make_kernels` converts into a warning plus
a NumPy fallback.  Compilation is lazy — the first kernel call (or an
explicit :meth:`~NumbaKernelBackend.warm_up`) pays the JIT cost, which is
accumulated into ``compile_seconds``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.kernels import numpy_ref
from repro.kernels.api import (
    FORCE_EPSILON,
    MOVE_EPSILON,
    KernelBackend,
    _is_plain_cortex3d,
)

__all__ = ["NUMBA_AVAILABLE", "NumbaKernelBackend"]

try:
    from numba import njit, prange

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - exercised via dispatch tests
    NUMBA_AVAILABLE = False

    def njit(*args, **kwargs):
        """Identity stand-in so this module imports without numba."""
        if args and callable(args[0]):
            return args[0]

        def wrap(fn):
            return fn

        return wrap

    prange = range


@njit(parallel=True, fastmath=False, cache=False)
def _force_rows_jit(positions, diameters, indptr, indices, active,
                    use_active, repulsion, attraction, net, nz, lo, hi):
    """Cortex3D CSR force over rows [lo, hi); returns pairs evaluated.

    Rows run in parallel; each row's pairs accumulate sequentially in
    ascending CSR order (the reference bincount order).
    """
    pairs = 0
    for i in prange(lo, hi):
        fx = 0.0
        fy = 0.0
        fz = 0.0
        count = 0
        row_pairs = 0
        if not use_active or active[i]:
            for k in range(indptr[i], indptr[i + 1]):
                j = indices[k]
                dx = positions[i, 0] - positions[j, 0]
                dy = positions[i, 1] - positions[j, 1]
                dz = positions[i, 2] - positions[j, 2]
                dist = np.sqrt(dx * dx + dy * dy + dz * dz)
                r_sum = (diameters[i] + diameters[j]) / 2.0
                overlap = r_sum - dist
                row_pairs += 1
                if overlap > 0.0:
                    if dist < 1e-12:
                        # Coincident centers: push apart along x, oriented
                        # by index order (antisymmetric).
                        ux = 1.0 if i < j else -1.0
                        uy = 0.0
                        uz = 0.0
                    else:
                        ux = dx / dist
                        uy = dy / dist
                        uz = dz / dist
                    r_eff = (diameters[i] * diameters[j]) / (
                        2.0 * max(r_sum, 1e-12)
                    )
                    magnitude = (
                        repulsion * overlap
                        - attraction * np.sqrt(r_eff * overlap)
                    )
                    gx = magnitude * ux
                    gy = magnitude * uy
                    gz = magnitude * uz
                    fx += gx
                    fy += gy
                    fz += gz
                    if abs(gx) + abs(gy) + abs(gz) > FORCE_EPSILON:
                        count += 1
        net[i, 0] = fx
        net[i, 1] = fy
        net[i, 2] = fz
        nz[i] = count
        pairs += row_pairs
    return pairs


@njit(parallel=True, fastmath=False, cache=False)
def _displace_rows_jit(positions, moved, net, dt, max_displacement, lo, hi):
    """Clamped forward-Euler displacement for rows [lo, hi), in place."""
    for i in prange(lo, hi):
        dx = net[i, 0] * dt
        dy = net[i, 1] * dt
        dz = net[i, 2] * dt
        norm = np.sqrt(dx * dx + dy * dy + dz * dz)
        if norm > max_displacement:
            scale = max_displacement / norm
            dx *= scale
            dy *= scale
            dz *= scale
        if norm > MOVE_EPSILON:
            positions[i, 0] += dx
            positions[i, 1] += dy
            positions[i, 2] += dz
            moved[i] = True


@njit(parallel=True, fastmath=False, cache=False)
def _diffuse_jit(c, out, voxel_size, diffusion_coefficient, decay, dt):
    """7-point diffusion-decay stencil with clamped (Neumann) neighbors."""
    nx, ny, nz_ = c.shape
    h2 = voxel_size * voxel_size
    for i in prange(nx):
        ip = i + 1 if i + 1 < nx else i
        im = i - 1 if i > 0 else i
        for j in range(ny):
            jp = j + 1 if j + 1 < ny else j
            jm = j - 1 if j > 0 else j
            for k in range(nz_):
                kp = k + 1 if k + 1 < nz_ else k
                km = k - 1 if k > 0 else k
                lap = (
                    c[ip, j, k] + c[im, j, k]
                    + c[i, jp, k] + c[i, jm, k]
                    + c[i, j, kp] + c[i, j, km]
                    - 6.0 * c[i, j, k]
                ) / h2
                out[i, j, k] = c[i, j, k] + dt * (
                    diffusion_coefficient * lap - decay * c[i, j, k]
                )


class NumbaKernelBackend(KernelBackend):
    """CPU-compiled backend (``@njit(parallel=True, fastmath=False)``).

    Hard-codes the stock Cortex3D force law; simulations running an
    :class:`~repro.core.force.InteractionForce` *subclass* transparently
    fall back to the NumPy reference path for the force kernel (counted
    in :attr:`~repro.kernels.api.KernelBackend.fallbacks`).
    """

    name = "numba"
    compiled = True

    def __init__(self):
        if not NUMBA_AVAILABLE:
            raise ImportError("numba is not installed")
        super().__init__()
        self._warm = False

    def warm_up(self) -> None:
        """Compile all three kernels on tiny inputs; time goes to
        ``compile_seconds``.  Idempotent."""
        if self._warm:
            return
        t0 = time.perf_counter()
        pos = np.zeros((2, 3))
        pos[1, 0] = 1.0
        dia = np.full(2, 4.0)
        indptr = np.array([0, 1, 2], dtype=np.int64)
        indices = np.array([1, 0], dtype=np.int64)
        active = np.ones(2, dtype=np.bool_)
        net = np.zeros((2, 3))
        nz = np.zeros(2, dtype=np.int64)
        _force_rows_jit(pos, dia, indptr, indices, active, True,
                        2.0, 0.4, net, nz, 0, 2)
        moved = np.zeros(2, dtype=np.bool_)
        _displace_rows_jit(pos, moved, net, 0.01, 3.0, 0, 2)
        c = np.zeros((2, 2, 2))
        _diffuse_jit(c, np.empty_like(c), 1.0, 0.5, 0.0, 0.1)
        self.compile_seconds += time.perf_counter() - t0
        self._warm = True

    # -- mechanics ------------------------------------------------------- #

    def _force_into(self, force_model, positions, diameters, indptr,
                    indices, active, net, nz, lo, hi) -> int:
        if not _is_plain_cortex3d(force_model):
            # Subclassed force law: the compiled kernel cannot express it.
            self.fallbacks += 1
            return numpy_ref.force_rows(
                positions, diameters, indptr, indices, active,
                net, nz, lo, hi, force_model=force_model,
            )
        self.warm_up()
        use_active = active is not None
        if not use_active:
            active = np.empty(0, dtype=np.bool_)
        return int(_force_rows_jit(
            np.ascontiguousarray(positions), diameters, indptr, indices,
            active, use_active, force_model.repulsion,
            force_model.attraction, net, nz, lo, hi,
        ))

    def force(self, force_model, positions, diameters, indptr, indices,
              active=None):
        """Full-array CSR force through the compiled row kernel."""
        self._count()
        n = len(positions)
        net = np.zeros((n, 3))
        nz = np.zeros(n, dtype=np.int64)
        if n == 0 or len(indices) == 0:
            return net, nz, 0
        pairs = self._force_into(force_model, positions, diameters, indptr,
                                 indices, active, net, nz, 0, n)
        return net, nz, pairs

    def force_rows(self, force_model, positions, diameters, indptr, indices,
                   active, net_out, nz_out, lo, hi) -> int:
        """Chunked CSR force writing into shared-memory views."""
        self._count()
        return self._force_into(force_model, positions, diameters, indptr,
                                indices, active, net_out, nz_out, lo, hi)

    def displace(self, positions, moved_flags, net_force, dt,
                 max_displacement):
        """Full-array compiled displacement."""
        self.displace_rows(positions, moved_flags, net_force, dt,
                           max_displacement, 0, len(positions))

    def displace_rows(self, positions, moved_flags, net_force, dt,
                      max_displacement, lo, hi) -> None:
        """Row-range compiled displacement, in place."""
        self._count()
        self.warm_up()
        _displace_rows_jit(positions, moved_flags, net_force, float(dt),
                           float(max_displacement), lo, hi)

    # -- diffusion ------------------------------------------------------- #

    def diffuse(self, concentration, voxel_size, diffusion_coefficient,
                decay, dt, out=None):
        """Compiled stencil update; returns the new concentration."""
        self._count()
        self.warm_up()
        if out is None:
            out = np.empty_like(concentration)
        _diffuse_jit(concentration, out, float(voxel_size),
                     float(diffusion_coefficient), float(decay), float(dt))
        return out
