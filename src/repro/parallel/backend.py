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
- ``"distributed"``
  (:class:`~repro.distributed.shard_backend.DistributedBackend`): spatial
  decomposition across OS-process shards with halo exchange and
  delta-encoded migration — the TeraAgent-style scale-out path.
- ``"auto"`` (:class:`AutoBackend`): measures and picks.  Starts serial,
  feeds every mechanics timing to a
  :class:`~repro.parallel.costmodel.BackendCostModel`, and re-decides at
  every environment-rebuild boundary (the scheduler calls
  :meth:`ExecutionBackend.on_environment_rebuild`), so small populations
  never pay the pool's orchestration tax and large ones get the cores.
  With ``backend_shards > 0`` the distributed backend joins the
  candidate set as a third option.

All backends are *bitwise equivalent*: chunked reductions accumulate in
the same per-row order as the serial ``np.bincount``, so per-step
:func:`repro.verify.snapshot.state_checksum` values match exactly —
which is also why auto may switch mid-run without perturbing results.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.core.force import ForceResult
from repro.kernels import numpy_ref
from repro.kernels.api import MOVE_EPSILON  # noqa: F401  (canonical home)

__all__ = [
    "MOVE_EPSILON",
    "ExecutionBackend",
    "SerialBackend",
    "AutoBackend",
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

    def stash_csr_positions(self, rm) -> None:
        """Hook called by the scheduler right after the neighbor CSR is
        materialized, before behaviors may move agents.  Backends that
        rebuild neighbor lists from positions (the distributed shards)
        snapshot ``rm.positions`` here; everyone else ignores it."""

    def shutdown(self) -> None:
        """Release pools/queues; idempotent."""

    def on_environment_rebuild(self, sim) -> None:
        """Hook called by the scheduler after every environment rebuild —
        the natural boundary for adaptive re-decisions (population and
        structure just changed).  No-op for fixed backends."""

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
        # Device-resident backends (CuPy) key persistent buffers on this:
        # a changed structure version invalidates cached device columns.
        kb.structure_version = rm.structure_version
        kb.bind_arena(rm.soa, rm.n)
        net, nonzero, pairs = kb.force(
            sim.force, rm.positions, rm.data["diameter"], indptr, indices,
            active,
        )
        kb.displace(
            rm.positions, rm.data["moved"], net,
            p.simulation_time_step, p.simulation_max_displacement,
        )
        return ForceResult(net, nonzero, pairs)


class AutoBackend(ExecutionBackend):
    """Adaptive backend: measured serial-vs-process decision per run.

    Starts on the serial path (correct and cheap at any size), times
    every mechanics call into a
    :class:`~repro.parallel.costmodel.BackendCostModel`, and re-decides
    at environment-rebuild boundaries.  The process pool is constructed
    lazily on the first switch — a run the model keeps serial never forks
    a worker.  Because serial and process execution are bitwise
    identical, switching mid-run does not perturb per-step checksums.

    Surfaced metrics: ``backend:auto_decisions`` / ``backend:auto_switches``
    counters, and ``backend:auto_process`` / ``backend:process_overhead_ratio``
    gauges (the latter is the measured per-step process/serial wall-cost
    ratio the bench-scaling artifact reports).
    """

    name = "auto"

    def __init__(self, sim):
        from repro.parallel.costmodel import BackendCostModel

        self.sim = sim
        self._serial = SerialBackend()
        self._process = None  # built lazily on first switch
        self._distributed = None  # built lazily on first switch
        workers = int(sim.param.backend_workers) or (os.cpu_count() or 1)
        self.model = BackendCostModel(
            workers, min_agents=int(sim.param.backend_chunk_size),
            shards=int(sim.param.backend_shards))
        self.active: ExecutionBackend = self._serial
        self.last_decision = None
        self._last_n = 0
        reg = sim.obs.registry
        self._decisions = reg.counter("backend:auto_decisions")
        self._switches = reg.counter("backend:auto_switches")
        reg.register_callback(
            "backend:auto_process",
            lambda: 0.0 if self.active is self._serial else 1.0)
        reg.register_callback(
            "backend:process_overhead_ratio",
            lambda: self.model.process_overhead_ratio(self._last_n))

    # -- delegation ------------------------------------------------------ #

    def force_and_displace(self, sim, indptr, indices, detect):
        t0 = time.perf_counter()
        result = self.active.force_and_displace(sim, indptr, indices, detect)
        seconds = time.perf_counter() - t0
        if self.active is self._serial:
            self.model.observe_serial(sim.rm.n, seconds)
        elif self.active is self._distributed:
            self.model.observe_distributed(sim.rm.n, seconds)
        else:
            self.model.observe_process(sim.rm.n, seconds)
        return result

    def run_agent_operation(self, sim, op) -> None:
        self.active.run_agent_operation(sim, op)

    def stash_csr_positions(self, rm) -> None:
        self.active.stash_csr_positions(rm)

    def on_environment_rebuild(self, sim) -> None:
        n = sim.rm.n
        churn = abs(n - self._last_n) / max(1, n)
        self._last_n = n
        decision = self.model.decide(n, self.active.name, churn_rate=churn)
        self.last_decision = decision
        self._decisions.inc()
        if decision.backend != self.active.name:
            self._activate(decision.backend)

    def _activate(self, backend_name: str) -> None:
        if backend_name == "process" and self._process is None:
            from repro.parallel.process_backend import ProcessBackend

            self._process = ProcessBackend(self.sim)
        if backend_name == "distributed" and self._distributed is None:
            from repro.distributed.shard_backend import DistributedBackend

            self._distributed = DistributedBackend(self.sim)
        self.active = {
            "serial": self._serial,
            "process": self._process,
            "distributed": self._distributed,
        }[backend_name]
        self._switches.inc()

    def shutdown(self) -> None:
        if self._process is not None:
            self._process.shutdown()
        if self._distributed is not None:
            self._distributed.shutdown()

    def stats(self) -> dict:
        out = {
            "auto_decisions": int(self._decisions.value),
            "auto_switches": int(self._switches.value),
            "active": self.active.name,
        }
        if self.last_decision is not None:
            out["last_decision"] = self.last_decision.as_dict()
        if self._process is not None:
            out["process"] = self._process.stats()
        if self._distributed is not None:
            out["distributed"] = self._distributed.stats()
        return out


def make_backend(sim) -> ExecutionBackend:
    """Instantiate the backend selected by ``sim.param.execution_backend``."""
    choice = sim.param.execution_backend
    if choice == "process":
        from repro.parallel.process_backend import ProcessBackend

        return ProcessBackend(sim)
    if choice == "distributed":
        if sim.machine is not None:
            # Virtual-machine cost-model runs stay serial (see "auto").
            return SerialBackend()
        from repro.distributed.shard_backend import DistributedBackend

        return DistributedBackend(sim)
    if choice == "auto":
        if sim.machine is not None:
            # Virtual-machine cost-model runs are always serial: wall
            # time is meaningless there, so there is nothing to adapt.
            return SerialBackend()
        return AutoBackend(sim)
    return SerialBackend()
