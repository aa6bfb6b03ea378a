"""Kernel backend interface: the three hot array kernels behind one API.

With commits staged and dispatch cached, the agent-ops profile is
dominated by behaviors + mechanics — exactly the loops that *GPU
Acceleration of 3D Agent-Based Biological Simulations* (PAPERS.md)
pushes onto compiled, vectorized kernels.  This module defines the
narrow waist those loops go through:

- **force** — the Cortex3D pairwise interaction force accumulated over
  the CSR neighbor lists (paper §5, the most expensive operation);
- **displacement** — the clamped forward-Euler integration step;
- **diffusion** — the 7-point diffusion-decay stencil (Table 1).

:class:`KernelBackend` is the strategy interface; the implementations
live in sibling modules (:mod:`repro.kernels.numpy_ref` — the bitwise
reference, :mod:`repro.kernels.numba_jit`,
:mod:`repro.kernels.cupy_backend`) and are selected by
``Param.kernel_backend`` through :mod:`repro.kernels.dispatch`.

Tolerance policy
----------------
The NumPy implementation is the *reference*: it is the bitwise branch of
``repro.verify`` (replay checksums are computed against it) and its
tolerance against itself is exact.  Compiled backends reorder floating
point work (LLVM autovectorization, GPU warp scheduling), so each kernel
declares the deviation it is allowed against the reference in
:data:`KERNEL_TOLERANCES` — one table, imported by the equivalence
tests, the differential oracle helpers, ``verify.replay
.kernel_equivalence`` and ``bench kernels`` alike, so a tolerance is
never re-declared (and silently widened) at a use site.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FORCE_EPSILON",
    "MOVE_EPSILON",
    "KernelTolerance",
    "KERNEL_TOLERANCES",
    "tolerance_for",
    "KernelBackend",
]

#: Relative force magnitudes below this are treated as zero (condition iv
#: of the §5 static-detection mechanism counts non-zero neighbor forces).
#: Canonical definition; re-exported by :mod:`repro.core.force`.
FORCE_EPSILON = 1e-12

#: Movement below this threshold does not count as "moved" (condition i
#: of the §5 static-detection mechanism).  Canonical definition;
#: re-exported by :mod:`repro.parallel.backend`.
MOVE_EPSILON = 1e-9


@dataclass(frozen=True)
class KernelTolerance:
    """Allowed deviation of a compiled kernel from the NumPy reference.

    Compared ``np.allclose``-style: ``|a - b| <= atol + rtol * |b|``
    where ``b`` is the reference output.  ``rtol == atol == 0`` means
    bitwise-exact (the NumPy reference against itself).
    """

    rtol: float
    atol: float

    @property
    def exact(self) -> bool:
        """Whether this tolerance demands bitwise equality."""
        return self.rtol == 0.0 and self.atol == 0.0

    def allclose(self, got, ref) -> bool:
        """Whether ``got`` matches ``ref`` within this tolerance."""
        got = np.asarray(got)
        ref = np.asarray(ref)
        if self.exact:
            return bool(np.array_equal(got, ref))
        return bool(np.allclose(got, ref, rtol=self.rtol, atol=self.atol))

    def max_exceedance(self, got, ref) -> float:
        """Largest ``|got - ref| / (atol + rtol * |ref|)`` ratio.

        Values ``<= 1.0`` are within tolerance; for the exact tolerance
        this returns 0.0 on equality and ``inf`` otherwise.
        """
        got = np.asarray(got, dtype=np.float64)
        ref = np.asarray(ref, dtype=np.float64)
        diff = np.abs(got - ref)
        if self.exact:
            return 0.0 if not np.any(diff) else float("inf")
        allowed = self.atol + self.rtol * np.abs(ref)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(diff == 0.0, 0.0, diff / allowed)
        return float(ratio.max()) if ratio.size else 0.0


#: The single declaration point for per-kernel tolerances (see the module
#: docstring).  ``replay_state`` is the looser whole-state budget used by
#: ``verify.replay.kernel_equivalence`` when comparing *positions after
#: several integrated steps* — per-kernel deviations compound through the
#: trajectory, so the replay comparison cannot reuse the single-call
#: bounds directly.
KERNEL_TOLERANCES: dict[str, KernelTolerance] = {
    # One force evaluation: identical pair math, row accumulation in CSR
    # order on every backend; only instruction scheduling may differ.
    "force": KernelTolerance(rtol=1e-12, atol=1e-12),
    # Row-elementwise: a handful of flops per row, no reductions.
    "displacement": KernelTolerance(rtol=1e-12, atol=1e-14),
    # 7-point stencil: one fused expression per voxel.
    "diffusion": KernelTolerance(rtol=1e-12, atol=1e-13),
    # Whole-state positions after a short replayed trajectory.
    "replay_state": KernelTolerance(rtol=1e-9, atol=1e-9),
}

#: Exact tolerance: the reference backend against itself.
_EXACT = KernelTolerance(rtol=0.0, atol=0.0)


def tolerance_for(kernel: str, backend: str) -> KernelTolerance:
    """The declared tolerance of ``backend`` for ``kernel``.

    The NumPy reference is held to bitwise equality against itself; all
    compiled backends share the per-kernel bounds in
    :data:`KERNEL_TOLERANCES`.
    """
    if backend == "numpy":
        return _EXACT
    try:
        return KERNEL_TOLERANCES[kernel]
    except KeyError:
        raise KeyError(
            f"no declared tolerance for kernel {kernel!r}; known kernels: "
            f"{sorted(KERNEL_TOLERANCES)}"
        ) from None


def _is_plain_cortex3d(force_model) -> bool:
    """Whether ``force_model`` is exactly the stock Cortex3D force.

    Every backend hard-codes that force law (the NumPy reference as its
    per-coordinate core); a subclass overriding ``pair_forces`` must take
    the NumPy reference's hook path, which dispatches through the
    (possibly overridden) method.
    """
    from repro.core.force import InteractionForce

    return force_model.__class__ is InteractionForce


class KernelBackend:
    """One implementation of the three hot kernels.

    Subclasses set :attr:`name` and :attr:`compiled` and implement the
    ``*_rows`` / full-array entry points.  Call accounting is built in:
    :attr:`calls` counts kernel invocations and :attr:`compile_seconds`
    accumulates JIT time, both surfaced as ``kernel:*`` metrics by
    :func:`repro.kernels.dispatch.make_kernels`.
    """

    #: Backend identifier ("numpy" | "numba" | "cupy").
    name = "base"
    #: Whether this backend runs compiled (non-reference) kernels.  The
    #: execution backends use it to decide when the stock force model can
    #: be replaced by the backend's hard-coded Cortex3D kernel.
    compiled = False

    def __init__(self):
        #: Kernel invocations through this backend instance.
        self.calls = 0
        #: Seconds spent JIT-compiling (0 for interpreter backends).
        self.compile_seconds = 0.0
        #: Invocations that fell back to the NumPy reference because the
        #: force model is a subclass the compiled kernel cannot express.
        self.fallbacks = 0
        #: Invocations that fell back to the NumPy reference because the
        #: device ran out of memory (GPU backends; see
        #: :class:`repro.kernels.cupy_backend.DeviceBufferCache`).
        self.oom_fallbacks = 0
        #: The ResourceManager ``structure_version`` the last kernel call
        #: ran against.  The execution backends refresh it before every
        #: call; backends holding persistent device state key their
        #: buffer invalidation on it.
        self.structure_version = -1

    # -- mechanics ------------------------------------------------------- #

    def force(self, force_model, positions, diameters, indptr, indices,
              active=None):
        """Net force on every agent from its CSR neighbors.

        Returns ``(net_force (n,3), nonzero_counts (n,), pairs_evaluated)``
        with the exact semantics of
        :meth:`repro.core.force.InteractionForce.compute` (``active``
        masks the rows whose forces are computed).
        """
        raise NotImplementedError

    def force_rows(self, force_model, positions, diameters, indptr, indices,
                   active, net_out, nz_out, lo, hi) -> int:
        """Compute rows ``[lo, hi)`` into preallocated outputs.

        Writes ``net_out[lo:hi]`` and ``nz_out[lo:hi]`` (other rows are
        untouched) and returns the number of pairs evaluated — the chunk
        kernel of the process backend.
        """
        raise NotImplementedError

    def displace(self, positions, moved_flags, net_force, dt,
                 max_displacement):
        """Clamped forward-Euler displacement, in place.

        Updates ``positions`` and ``moved_flags`` exactly like
        :func:`repro.parallel.backend.apply_displacement`.
        """
        raise NotImplementedError

    def displace_rows(self, positions, moved_flags, net_force, dt,
                      max_displacement, lo, hi) -> None:
        """Row-range displacement (the process backend's chunk kernel)."""
        raise NotImplementedError

    # -- diffusion ------------------------------------------------------- #

    def diffuse(self, concentration, voxel_size, diffusion_coefficient,
                decay, dt, out=None):
        """One explicit diffusion-decay stencil update.

        Returns the array holding the *new* concentration (the input is
        not modified), matching :meth:`repro.core.diffusion.DiffusionGrid
        .step` with Neumann boundaries.  ``out`` offers a host array of
        the grid's shape and dtype, sharing no memory with it: a backend
        writes into it and returns it, or ignores it and returns a fresh
        array — callers keep what is returned.
        """
        raise NotImplementedError

    # -- lifecycle ------------------------------------------------------- #

    def bind_arena(self, soa, live_rows: int) -> None:
        """Offer the consolidated SoA arena block before a kernel call.

        The execution backends call this next to refreshing
        :attr:`structure_version`, handing device-resident backends the
        single-arena block (:class:`repro.core.arena.SoAArena`) the live
        columns are views of — which lets the CuPy backend upload one
        host-to-device copy per *domain* instead of one per column.
        No-op for host backends; ``soa`` may be ``None`` (per-column
        layout)."""

    def warm_up(self) -> None:
        """Pre-compile every kernel on tiny inputs (no-op when nothing
        needs compiling).  JIT time lands in :attr:`compile_seconds`."""

    def _count(self) -> None:
        self.calls += 1
