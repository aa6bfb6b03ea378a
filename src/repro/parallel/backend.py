"""Pluggable execution backends for the scheduler's mechanics stage.

``Param.execution_backend`` selects how the most expensive part of
Algorithm 1 — mechanical forces + displacement, and vectorizable
:class:`~repro.core.operation.AgentOperation` kernels — is executed:

- ``"serial"`` (:class:`SerialBackend`, the default): the original
  single-process NumPy path, unchanged.
- ``"process"`` (:class:`~repro.parallel.process_backend.ProcessBackend`):
  a pool of persistent worker processes operating on shared-memory
  columns (:mod:`repro.parallel.shm`) with the paper's two-level work
  stealing — real multicore parallelism, outside the GIL.

All backends are *bitwise equivalent*: chunked reductions accumulate in
the same per-row order as the serial ``np.bincount``, so per-step
:func:`repro.verify.snapshot.state_checksum` values match exactly.
"""

from __future__ import annotations

import numpy as np

from repro.core.force import ForceResult
from repro.kernels import numpy_ref

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "apply_displacement",
    "make_backend",
]


def apply_displacement(positions, moved_flags, net_force, dt,
                       max_displacement) -> np.ndarray:
    """Forward-Euler displacement with clamping; returns the moved mask.

    Delegates to :func:`repro.kernels.numpy_ref.displace`, the bitwise
    reference implementation shared with the kernel-backend dispatch.
    Shared by the serial backend (full arrays) and the process backend's
    chunk kernel (row slices): every operation is row-elementwise, so
    chunked execution is bitwise identical to the full-array call.
    """
    return numpy_ref.displace(positions, moved_flags, net_force, dt,
                              max_displacement)


class ExecutionBackend:
    """Strategy interface the scheduler dispatches stage execution to."""

    name = "base"

    def force_and_displace(self, sim, indptr, indices,
                           detect: bool) -> ForceResult:
        """Compute net forces over the CSR neighbor lists and apply the
        clamped Euler displacement (updating ``position`` and ``moved``
        in place).  Returns the :class:`ForceResult` for static-detection
        and cost accounting."""
        raise NotImplementedError

    def run_agent_operation(self, sim, op) -> None:
        """Execute one :class:`AgentOperation` (chunked when the backend
        and the operation support it; serial fallback otherwise)."""
        op.run(sim)

    def shutdown(self) -> None:
        """Release pools/queues; idempotent."""

    def stats(self) -> dict:
        """Backend-specific counters (steals, phases) for reporting."""
        return {}


class SerialBackend(ExecutionBackend):
    """The original in-process path, now routed through the kernel
    backend selected by ``Param.kernel_backend`` (NumPy by default —
    bitwise identical to the historical inline implementation)."""

    name = "serial"

    def force_and_displace(self, sim, indptr, indices, detect):
        rm = sim.rm
        p = sim.param
        active = ~rm.data["static"] if detect else None
        kb = getattr(sim, "kernels", None)
        if kb is None:
            # Bare scheduler harnesses without a full Simulation.
            from repro.kernels.numpy_ref import NumpyKernelBackend

            kb = sim.kernels = NumpyKernelBackend()
        net, nonzero, pairs = kb.force(
            sim.force, rm.positions, rm.data["diameter"], indptr, indices,
            active,
        )
        kb.displace(
            rm.positions, rm.data["moved"], net,
            p.simulation_time_step, p.simulation_max_displacement,
        )
        return ForceResult(net, nonzero, pairs)


def make_backend(sim) -> ExecutionBackend:
    """Instantiate the backend selected by ``sim.param.execution_backend``."""
    if sim.param.execution_backend == "process":
        from repro.parallel.process_backend import ProcessBackend

        return ProcessBackend(sim)
    return SerialBackend()
