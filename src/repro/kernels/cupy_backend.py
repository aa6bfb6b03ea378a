"""CuPy GPU kernels: device-side backend for the three hot loops.

Implements the executable counterpart of the :mod:`repro.gpu.device`
roofline model, following *GPU Acceleration of 3D Agent-Based Biological
Simulations* (PAPERS.md): the CSR force kernel is a one-thread-per-agent
``cupy.RawKernel`` (each thread walks its row's neighbor list, so the
per-row accumulation order matches the NumPy reference bincount), and
displacement / diffusion are expressed with CuPy array ops.

Host arrays in, host arrays out: the engine's columns live in host (or
POSIX shared) memory, so calls pay H2D/D2H transfers.  That is the
paper's hybrid-offload trade-off — worthwhile for large dense
populations, counterproductive for small ones (see
``docs/performance_model.md``).  Device *allocations*, however, are
persistent: :class:`DeviceBufferCache` keeps every device buffer alive
across calls keyed on the ResourceManager's ``structure_version``
(refreshed by the execution backend before each call), so steady-state
steps re-fill existing device memory instead of allocating, and arrays
that are stable between environment rebuilds (the CSR neighbor lists)
skip the upload entirely.  When the device runs out of memory the cache
evicts everything and retries once; if that also fails the call falls
back to the NumPy reference and ``oom_fallbacks`` counts it.

Under the *process* backend's chunked row kernels, the GPU would be
re-launched per chunk; chunking is a CPU work-distribution concept, so
``force_rows``/``displace_rows`` here simply fall back to the NumPy
reference (documented in ``docs/kernels.md``).

This module imports cleanly without cupy (or without a visible device):
:class:`CupyKernelBackend` raises ``ImportError`` from its constructor
and :func:`repro.kernels.dispatch.make_kernels` falls back to NumPy with
a warning.
"""

from __future__ import annotations

import time

import numpy as np

from repro.kernels import numpy_ref
from repro.kernels.api import KernelBackend, _is_plain_cortex3d

__all__ = ["CUPY_AVAILABLE", "cuda_usable", "DeviceBufferCache",
           "CupyKernelBackend"]

try:
    import cupy

    CUPY_AVAILABLE = True
except ImportError:  # pragma: no cover - exercised via dispatch tests
    cupy = None
    CUPY_AVAILABLE = False


def cuda_usable() -> bool:
    """Whether cupy is importable *and* a CUDA device is reachable."""
    if not CUPY_AVAILABLE:
        return False
    try:  # pragma: no cover - requires a GPU
        return int(cupy.cuda.runtime.getDeviceCount()) > 0
    except Exception:  # pragma: no cover - driver/runtime missing
        return False


def _default_oom_errors() -> tuple:
    """The exception types a device allocation raises when memory runs
    out (empty without cupy — the cache is then only usable with an
    explicit ``oom_errors`` argument, which the tests inject)."""
    if not CUPY_AVAILABLE:
        return ()
    errors = [cupy.cuda.memory.OutOfMemoryError]  # pragma: no cover - GPU
    return tuple(errors)  # pragma: no cover - GPU


class DeviceBufferCache:
    """Persistent device buffers keyed on the host ``structure_version``.

    The naive hybrid-offload loop allocates fresh device arrays on every
    kernel call (the ROADMAP open item this closes: "today it
    round-trips host<->device on every call").  This cache makes device
    state persistent along three tiers:

    - :meth:`upload` — a named buffer whose *allocation* survives across
      calls; the data is re-copied each call (host columns mutate every
      step) but steady-state steps never touch the device allocator;
    - :meth:`upload_block` — one upload of a contiguous SoA-arena span
      covering several columns at once (one H2D per domain instead of
      one per column), returning zero-copy device views per column;
    - :meth:`upload_stable` — additionally skips the H2D copy while the
      host array is the *same object* as last time (the CSR neighbor
      lists, which the scheduler reuses between environment rebuilds);
    - :meth:`scratch` — a device-only output buffer (net forces,
      nonzero counts), optionally zero-filled.

    :meth:`sync` must be called with the ResourceManager's
    ``structure_version`` before each kernel call: a version change
    (agents added/removed/re-sorted) invalidates every buffer.

    Out-of-memory handling: an allocation that raises one of
    ``oom_errors`` evicts the whole cache and retries once
    (``oom_evictions`` counts it); a second failure propagates so the
    caller can fall back to the host kernel.  ``xp`` is injectable
    (defaults to cupy) so the cache logic is testable with numpy and a
    fake OOM error on machines without a GPU.
    """

    def __init__(self, xp=None, oom_errors=None):
        if xp is None:  # pragma: no cover - requires a GPU
            xp = cupy
        self.xp = xp
        self.oom_errors = tuple(
            oom_errors if oom_errors is not None else _default_oom_errors()
        )
        #: The ``structure_version`` the cached buffers belong to.
        self.version: int | None = None
        self._buffers: dict[str, object] = {}
        #: name -> (host array, device buffer); holding the host reference
        #: keeps the identity check safe against id() reuse after gc.
        self._stable: dict[str, tuple] = {}
        # --- instrumentation ------------------------------------------- #
        self.allocations = 0
        self.reuses = 0
        #: H2D copies skipped because the stable host array was unchanged.
        self.stable_hits = 0
        #: Whole-cache evictions triggered by device OOM.
        self.oom_evictions = 0

    @property
    def nbytes(self) -> int:
        """Bytes held in persistent device buffers."""
        held = list(self._buffers.values())
        held += [buf for _host, buf in self._stable.values()]
        return int(sum(int(b.nbytes) for b in held))

    def sync(self, structure_version: int) -> None:
        """Invalidate every buffer when the host structure changed."""
        if structure_version != self.version:
            self.clear()
            self.version = structure_version

    def clear(self) -> None:
        """Drop every cached device buffer."""
        self._buffers.clear()
        self._stable.clear()

    def _alloc(self, shape, dtype):
        """Allocate a device array; on OOM evict everything and retry
        once (a second failure propagates to the caller)."""
        try:
            out = self.xp.empty(shape, dtype=dtype)
        except self.oom_errors:
            self.clear()
            self.oom_evictions += 1
            out = self.xp.empty(shape, dtype=dtype)
        self.allocations += 1
        return out

    @staticmethod
    def _copy_in(buf, host) -> None:
        # cupy device arrays take host data via .set(); plain ndarrays
        # (the numpy-injected test configuration) via assignment.
        setter = getattr(buf, "set", None)
        if setter is not None:  # pragma: no cover - requires a GPU
            setter(host)
        else:
            buf[...] = host

    def upload(self, name: str, host) -> object:
        """Device copy of ``host``, reusing the persistent allocation."""
        host = np.ascontiguousarray(host)
        buf = self._buffers.get(name)
        if (buf is None or buf.shape != host.shape
                or buf.dtype != host.dtype):
            buf = self._alloc(host.shape, host.dtype)
            self._buffers[name] = buf
        else:
            self.reuses += 1
        self._copy_in(buf, host)
        return buf

    def upload_block(self, name: str, block, columns: dict) -> dict:
        """Single upload of one contiguous block span covering every
        requested column; returns ``{column: device view}``.

        ``block`` is a host SoA arena's 1-D ``uint8`` backing buffer
        (:attr:`repro.core.arena.SoAArena.block`) and ``columns`` maps
        each column name to ``(byte_offset, dtype, shape)`` — the live
        prefix of that column inside the block.  The minimal span
        containing every column travels with **one** allocation and
        **one** copy, and each returned view reinterprets the device
        bytes in place, so a whole domain reaches the device as a
        single transfer instead of a per-column loop.  (Arena columns
        are 64-byte aligned, so the per-column view offsets stay
        itemsize-aligned for any dtype.)
        """
        if not columns:
            return {}
        spans = {}
        lo, hi = None, 0
        for col, (off, dtype, shape) in columns.items():
            nbytes = int(np.dtype(dtype).itemsize
                         * np.prod(shape, dtype=np.int64))
            spans[col] = (int(off), nbytes)
            lo = int(off) if lo is None else min(lo, int(off))
            hi = max(hi, int(off) + nbytes)
        buf = self.upload(name, block[lo:hi])
        views = {}
        for col, (off, dtype, shape) in columns.items():
            start = spans[col][0] - lo
            flat = buf[start:start + spans[col][1]].view(np.dtype(dtype))
            views[col] = flat.reshape(tuple(int(s) for s in shape))
        return views

    def upload_stable(self, name: str, host) -> object:
        """Like :meth:`upload`, but skip the copy entirely while ``host``
        is the same array object as the previous call (CSR lists)."""
        cached = self._stable.get(name)
        if cached is not None and cached[0] is host:
            self.stable_hits += 1
            return cached[1]
        contiguous = np.ascontiguousarray(host)
        buf = self._alloc(contiguous.shape, contiguous.dtype)
        self._copy_in(buf, contiguous)
        self._stable[name] = (host, buf)
        return buf

    def scratch(self, name: str, shape, dtype, zero: bool = True) -> object:
        """Persistent device-only output buffer of ``shape``/``dtype``."""
        shape = tuple(int(s) for s in shape)
        dtype = np.dtype(dtype)
        buf = self._buffers.get(name)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = self._alloc(shape, dtype)
            self._buffers[name] = buf
        else:
            self.reuses += 1
        if zero:
            buf[...] = 0
        return buf


#: One thread per agent row: walk the CSR neighbor list sequentially (the
#: reference accumulation order), Cortex3D pair math in double precision.
_FORCE_KERNEL_SRC = r"""
extern "C" __global__
void csr_force(const double* pos, const double* dia,
               const long long* indptr, const long long* indices,
               const bool* active, const int use_active,
               const double repulsion, const double attraction,
               const int n, double* net, long long* nz,
               unsigned long long* pairs) {
    int i = blockDim.x * blockIdx.x + threadIdx.x;
    if (i >= n) return;
    double fx = 0.0, fy = 0.0, fz = 0.0;
    long long count = 0;
    unsigned long long row_pairs = 0;
    if (!use_active || active[i]) {
        for (long long k = indptr[i]; k < indptr[i + 1]; ++k) {
            long long j = indices[k];
            double dx = pos[3 * i] - pos[3 * j];
            double dy = pos[3 * i + 1] - pos[3 * j + 1];
            double dz = pos[3 * i + 2] - pos[3 * j + 2];
            double dist = sqrt(dx * dx + dy * dy + dz * dz);
            double r_sum = (dia[i] + dia[j]) / 2.0;
            double overlap = r_sum - dist;
            row_pairs += 1;
            if (overlap > 0.0) {
                double ux, uy, uz;
                if (dist < 1e-12) {
                    ux = (i < j) ? 1.0 : -1.0; uy = 0.0; uz = 0.0;
                } else {
                    ux = dx / dist; uy = dy / dist; uz = dz / dist;
                }
                double r_eff = (dia[i] * dia[j]) / (2.0 * max(r_sum, 1e-12));
                double mag = repulsion * overlap
                           - attraction * sqrt(r_eff * overlap);
                double gx = mag * ux, gy = mag * uy, gz = mag * uz;
                fx += gx; fy += gy; fz += gz;
                if (fabs(gx) + fabs(gy) + fabs(gz) > 1e-12) count += 1;
            }
        }
    }
    net[3 * i] = fx; net[3 * i + 1] = fy; net[3 * i + 2] = fz;
    nz[i] = count;
    if (row_pairs) atomicAdd(pairs, row_pairs);
}
"""


class CupyKernelBackend(KernelBackend):
    """GPU backend (CuPy raw kernel + array ops), host arrays in/out.

    Like the Numba backend it hard-codes the stock Cortex3D force law and
    falls back to the NumPy reference for force-model subclasses.  Device
    buffers persist across calls in :attr:`buffers` (see
    :class:`DeviceBufferCache`); device OOM falls back to the NumPy
    reference and is counted in ``oom_fallbacks``.
    """

    name = "cupy"
    compiled = True

    def __init__(self):
        if not cuda_usable():
            raise ImportError("cupy is not installed or no CUDA device is "
                              "reachable")
        super().__init__()
        self._kernel = None
        self.buffers = DeviceBufferCache()
        self._soa = None
        self._live_rows = 0

    def bind_arena(self, soa, live_rows) -> None:
        """Remember the engine's SoA arena so :meth:`force` can ship the
        mechanics columns as one whole-domain block upload
        (:meth:`DeviceBufferCache.upload_block`) instead of a per-column
        transfer loop."""
        self._soa = soa
        self._live_rows = int(live_rows)

    def warm_up(self) -> None:  # pragma: no cover - requires a GPU
        """Compile the raw CSR force kernel; time goes to
        ``compile_seconds``.  Idempotent."""
        if self._kernel is not None:
            return
        t0 = time.perf_counter()
        self._kernel = cupy.RawKernel(_FORCE_KERNEL_SRC, "csr_force")
        self._kernel.compile()
        self.compile_seconds += time.perf_counter() - t0

    # -- mechanics ------------------------------------------------------- #

    def force(self, force_model, positions, diameters, indptr, indices,
              active=None):  # pragma: no cover - requires a GPU
        """Full-array CSR force on the device; returns host arrays."""
        self._count()
        n = len(positions)
        if n == 0 or len(indices) == 0:
            return np.zeros((n, 3)), np.zeros(n, dtype=np.int64), 0
        if not _is_plain_cortex3d(force_model):
            self.fallbacks += 1
            return numpy_ref.force_csr(
                positions, diameters, indptr, indices, active,
                force_model=force_model,
            )
        self.warm_up()
        use_active = active is not None
        try:
            cache = self.buffers
            cache.sync(self.structure_version)
            arena = self._soa  # None until the engine binds one
            if (arena is not None and arena.owns("position", positions)
                    and arena.owns("diameter", diameters)):
                # Whole-domain path: both mechanics columns live in the
                # SoA arena block, so one contiguous span covers them —
                # a single H2D transfer instead of one per column.
                d_cols = cache.upload_block("arena:block", arena.block, {
                    "position": (arena.offsets["position"],
                                 positions.dtype, positions.shape),
                    "diameter": (arena.offsets["diameter"],
                                 diameters.dtype, diameters.shape),
                })
                d_pos, d_dia = d_cols["position"], d_cols["diameter"]
            else:
                d_pos = cache.upload("position", positions)
                d_dia = cache.upload("diameter", diameters)
            d_ip = cache.upload_stable("csr:indptr", indptr)
            d_ix = cache.upload_stable("csr:indices", indices)
            d_act = cache.upload(
                "active", active if use_active
                else np.zeros(1, dtype=np.bool_))
            d_net = cache.scratch("net", (n, 3), np.float64)
            d_nz = cache.scratch("nz", (n,), np.int64)
            d_pairs = cache.scratch("pairs", (1,), np.uint64)
            block = 128
            grid = (n + block - 1) // block
            self._kernel(
                (grid,), (block,),
                (d_pos, d_dia, d_ip, d_ix, d_act, np.int32(use_active),
                 np.float64(force_model.repulsion),
                 np.float64(force_model.attraction),
                 np.int32(n), d_net, d_nz, d_pairs),
            )
            return (cupy.asnumpy(d_net), cupy.asnumpy(d_nz),
                    int(cupy.asnumpy(d_pairs)[0]))
        except self.buffers.oom_errors:
            self.oom_fallbacks += 1
            self.buffers.clear()
            return numpy_ref.force_csr(
                positions, diameters, indptr, indices, active,
                force_model=force_model,
            )

    def force_rows(self, force_model, positions, diameters, indptr, indices,
                   active, net_out, nz_out, lo, hi) -> int:
        """Chunk path: delegates to the NumPy reference (see module doc —
        per-chunk GPU launches would be pure overhead)."""
        self._count()
        return numpy_ref.force_rows(positions, diameters, indptr, indices,
                                    active, net_out, nz_out, lo, hi,
                                    force_model=force_model)

    def displace(self, positions, moved_flags, net_force, dt,
                 max_displacement):  # pragma: no cover - requires a GPU
        """Clamped Euler displacement with CuPy array ops, in place on the
        host arrays."""
        self._count()
        try:
            cache = self.buffers
            cache.sync(self.structure_version)
            d_net = cache.upload("net_force", net_force)
            disp = d_net * dt
            norm = cupy.linalg.norm(disp, axis=1)
            too_far = norm > max_displacement
            disp[too_far] *= (max_displacement / norm[too_far])[:, None]
            moved_now = cupy.asnumpy(norm > numpy_ref.MOVE_EPSILON)
            positions[moved_now] += cupy.asnumpy(disp)[moved_now]
            moved_flags |= moved_now
        except self.buffers.oom_errors:
            self.oom_fallbacks += 1
            self.buffers.clear()
            numpy_ref.displace(positions, moved_flags, net_force, dt,
                               max_displacement)

    def displace_rows(self, positions, moved_flags, net_force, dt,
                      max_displacement, lo, hi) -> None:
        """Chunk path: NumPy reference (see module doc)."""
        self._count()
        numpy_ref.displace(positions[lo:hi], moved_flags[lo:hi],
                           net_force[lo:hi], dt, max_displacement)

    # -- diffusion ------------------------------------------------------- #

    def diffuse(self, concentration, voxel_size, diffusion_coefficient,
                decay, dt, out=None):  # pragma: no cover - requires a GPU
        """Stencil update on the device; returns a host array (``out``
        when given).

        Grid shape is independent of the agent structure, so the
        concentration buffer is *not* keyed on ``structure_version`` —
        no :meth:`DeviceBufferCache.sync` here, just the persistent
        allocation."""
        self._count()
        try:
            c = self.buffers.upload("diffusion:concentration", concentration)
            p = cupy.pad(c, 1, mode="edge")
            lap = (
                p[2:, 1:-1, 1:-1] + p[:-2, 1:-1, 1:-1]
                + p[1:-1, 2:, 1:-1] + p[1:-1, :-2, 1:-1]
                + p[1:-1, 1:-1, 2:] + p[1:-1, 1:-1, :-2]
                - 6.0 * c
            ) / voxel_size**2
            return cupy.asnumpy(
                c + dt * (diffusion_coefficient * lap - decay * c), out=out
            )
        except self.buffers.oom_errors:
            self.oom_fallbacks += 1
            self.buffers.clear()
            return numpy_ref.diffuse(concentration, voxel_size,
                                     diffusion_coefficient, decay, dt, out)
