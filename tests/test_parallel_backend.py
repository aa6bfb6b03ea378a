"""Tests for the shared-memory process-pool execution backend (§4.1).

Covers the shm arena lifecycle, the two-level steal queues, the
shared-memory ResourceManager, and — the acceptance criterion — bitwise
serial/process equivalence across seeds and models, including steps that
add and remove agents (which force shm block replacement and remapping
in the workers).
"""

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro import Param, Simulation
from repro.core.operation import AgentOperation
from repro.parallel.shm import (
    HostArena,
    SharedMemoryResourceManager,
    WorkerArena,
)
from repro.parallel.steal import StealQueues
from repro.verify.replay import equivalence
from repro.verify.snapshot import state_checksum


class TestHostArena:
    def test_ensure_returns_writable_view(self):
        arena = HostArena()
        try:
            a = arena.ensure("x", (4, 3), np.float64)
            a[...] = 7.0
            b = arena.ensure("x", (4, 3), np.float64)
            assert np.array_equal(b, np.full((4, 3), 7.0))
        finally:
            arena.close()

    def test_growth_replaces_block_and_bumps_layout(self):
        arena = HostArena()
        try:
            arena.ensure("x", (8,), np.int64)
            name0 = arena.layout()["x"]
            v0 = arena.layout_version
            arena.ensure("x", (10_000,), np.int64)
            assert arena.layout()["x"] != name0
            assert arena.layout_version > v0
        finally:
            arena.close()

    def test_shrink_keeps_block(self):
        arena = HostArena()
        try:
            arena.ensure("x", (1000,), np.float64)
            name0 = arena.layout()["x"]
            arena.ensure("x", (10,), np.float64)
            assert arena.layout()["x"] == name0
        finally:
            arena.close()

    def test_closed_arena_rejects_ensure(self):
        arena = HostArena()
        arena.close()
        with pytest.raises(RuntimeError):
            arena.ensure("x", (1,), np.float64)


class TestWorkerArena:
    def test_sync_and_view_sees_host_writes(self):
        host = HostArena()
        worker = WorkerArena()
        try:
            a = host.ensure("col", (5,), np.float64)
            a[...] = np.arange(5)
            worker.sync(host.layout())
            v = worker.view("col", (5,), np.float64)
            assert np.array_equal(v, np.arange(5.0))
            a[2] = 99.0  # no re-sync needed: same mapping
            assert v[2] == 99.0
        finally:
            worker.close()
            host.close()

    def test_sync_remaps_after_growth(self):
        host = HostArena()
        worker = WorkerArena()
        try:
            host.ensure("col", (4,), np.int64)
            worker.sync(host.layout())
            big = host.ensure("col", (5000,), np.int64)
            big[...] = 3
            worker.sync(host.layout())
            assert worker.view("col", (5000,), np.int64)[4999] == 3
        finally:
            worker.close()
            host.close()


class TestStealQueues:
    def _queues(self, worker_domains, capacity=64):
        ctx = multiprocessing.get_context()
        return StealQueues(ctx, worker_domains, capacity=capacity)

    def test_own_queue_fifo(self):
        q = self._queues([0, 0])
        try:
            q.fill([[10, 11, 12], []])
            assert q.take(0) == (10, 0)
            assert q.take(0) == (11, 0)
            assert q.take(0) == (12, 0)
        finally:
            q.destroy()

    def test_same_domain_steal_from_back_of_most_loaded(self):
        q = self._queues([0, 0, 0])
        try:
            q.fill([[], [1], [2, 3, 4]])
            # Worker 0 is empty; steals from worker 2 (most loaded), back end.
            assert q.take(0) == (4, 1)
        finally:
            q.destroy()

    def test_cross_domain_steal_is_last_resort(self):
        q = self._queues([0, 0, 1])
        try:
            q.fill([[], [7], [8, 9]])
            # Same-domain victim (worker 1) wins despite worker 2 holding more.
            assert q.take(0) == (7, 1)
            # Now only the other domain has work.
            assert q.take(0) == (9, 2)
        finally:
            q.destroy()

    def test_exhausted_returns_none(self):
        q = self._queues([0, 1])
        try:
            q.fill([[1], []])
            assert q.take(0) == (1, 0)
            assert q.take(0) is None
            assert q.take(1) is None
        finally:
            q.destroy()


class TestSharedMemoryResourceManager:
    def _sim(self, n=30, seed=2):
        sim = Simulation("shm", Param(execution_backend="process",
                                      backend_workers=2), seed=seed)
        rng = np.random.default_rng(seed)
        sim.add_cells(rng.uniform(0, 40, (n, 3)), diameters=8.0)
        return sim

    def test_columns_live_in_single_soa_block(self):
        # Every column is a region of one shared block.
        from repro.parallel.shm import SOA_BLOCK

        with self._sim() as sim:
            assert isinstance(sim.rm, SharedMemoryResourceManager)
            layout = sim.rm.arena.layout()
            assert SOA_BLOCK in layout
            for name, arr in sim.rm.data.items():
                assert sim.rm.soa.owns(name, arr)

    def test_columns_are_arena_views(self):
        # The columns alias the named segment a worker would map — not a
        # private copy of it.
        from repro.parallel.shm import SOA_BLOCK, attach_block

        with self._sim() as sim:
            block = attach_block(sim.rm.arena.layout()[SOA_BLOCK])
            try:
                mapped = np.ndarray(
                    sim.rm.positions.shape, sim.rm.positions.dtype,
                    buffer=block.buf,
                    offset=sim.rm.soa.offsets["position"])
                sim.rm.positions[0] = 123.0
                assert np.array_equal(mapped, sim.rm.positions)
                del mapped
            finally:
                block.close()

    def test_columns_survive_insert(self):
        with self._sim(n=10) as sim:
            rm = sim.rm
            pos0 = rm.positions.copy()
            sim.add_cells(np.array([[99.0, 99.0, 99.0]]), diameters=8.0)
            assert rm.n == 11
            assert any(np.allclose(row, 99.0) for row in rm.positions)
            # The original ten cells are still present (order may differ
            # after domain-major re-sorting); the new cell sorts last on x.
            assert np.allclose(np.sort(rm.positions[:, 0])[:-1],
                               np.sort(pos0[:, 0]))
            assert rm.soa.owns("position", rm.positions)


class _ShrinkDiameter(AgentOperation):
    """Vectorizable test operation: multiplies diameters by 0.99."""

    name = "shrink"
    vectorizable = True

    def run_on(self, sim, idx):
        sim.rm.data["diameter"][idx] *= 0.99

    def kernel(self, columns, lo, hi):
        columns["diameter"][lo:hi] *= 0.99


def _run_with_op(backend, workers=2, steps=4, seed=5):
    sim = Simulation("op", Param(execution_backend=backend,
                                 backend_workers=workers), seed=seed)
    rng = np.random.default_rng(seed)
    sim.add_cells(rng.uniform(0, 50, (60, 3)), diameters=8.0)
    sim.add_operation(_ShrinkDiameter())
    try:
        sim.simulate(steps)
        return state_checksum(sim)
    finally:
        sim.close()


class TestProcessBackend:
    def test_vectorizable_agent_op_matches_serial(self):
        assert _run_with_op("serial") == _run_with_op("process")

    def test_requires_shared_memory_rm(self):
        from repro.parallel.process_backend import ProcessBackend

        sim = Simulation("plain", Param())  # serial param -> plain RM
        with pytest.raises(TypeError):
            ProcessBackend(sim)

    def test_agent_count_changes_under_process_backend(self):
        # oncology removes agents; the shm columns must remap cleanly.
        from repro.simulations import get_simulation

        bench = get_simulation("oncology")
        with bench.build(200, param=Param(execution_backend="process",
                                          backend_workers=2), seed=3) as sim:
            n0 = sim.num_agents
            sim.simulate(6)
            assert sim.num_agents != n0


class _Sabotage(AgentOperation):
    """Vectorizable test operation whose kernel, inside a pool worker,
    does ``mode``: nothing, SIGKILL its own process (on the first chunk)
    or hang.  The op is pickled into every phase message, so setting
    ``mode`` between steps reaches the workers."""

    name = "sabotage"
    vectorizable = True

    def __init__(self):
        super().__init__()
        self.mode = ""
        self.host = os.getpid()

    def run_on(self, sim, idx):
        pass

    def kernel(self, columns, lo, hi):
        if os.getpid() == self.host:
            return
        if self.mode == "kill" and lo == 0:
            os.kill(os.getpid(), signal.SIGKILL)
        if self.mode == "hang":
            time.sleep(60)


def _shm_segments():
    return set(os.listdir("/dev/shm"))


class TestWorkerDeath:
    """A dead or hung pool worker is a ``BackendError`` naming it, at
    once (or after the hang guard), and ``close()`` reaps the pool."""

    def _sim(self):
        sim = Simulation("death", Param(execution_backend="process",
                                        backend_workers=2,
                                        backend_chunk_size=16), seed=4)
        rng = np.random.default_rng(4)
        sim.add_cells(rng.uniform(0, 50, (120, 3)), diameters=8.0)
        op = _Sabotage()
        sim.add_operation(op)
        sim.simulate(1)
        return sim, op

    def _fails_fast(self, sim, match, limit=2.0):
        from repro.parallel.process_backend import BackendError

        procs = list(sim.backend._team.procs)
        start = time.monotonic()
        with pytest.raises(BackendError, match=match):
            sim.simulate(1)
        assert time.monotonic() - start < limit
        with pytest.raises(BackendError, match="rebuild the simulation"):
            sim.simulate(1)
        start = time.monotonic()
        sim.close()
        assert time.monotonic() - start < 2.0
        assert all(p.exitcode is not None for p in procs)

    def test_worker_killed_between_steps(self):
        before = _shm_segments()
        sim, _op = self._sim()
        victim = sim.backend._team.procs[1]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(5)
        self._fails_fast(sim, r"worker 1 died \(exit code -9\)")
        assert _shm_segments() <= before

    def test_worker_killed_mid_phase(self):
        before = _shm_segments()
        sim, op = self._sim()
        op.mode = "kill"
        self._fails_fast(sim, r"worker \d died \(exit code -9\)")
        assert _shm_segments() <= before

    def test_hung_worker_hits_the_guard(self, monkeypatch):
        from repro.parallel import workers

        sim, op = self._sim()
        monkeypatch.setattr(workers, "HANG_TIMEOUT_S", 0.5)
        op.mode = "hang"
        self._fails_fast(sim, r"worker \d did not reply in 0.5 s",
                         limit=0.5 + 2.0)


@pytest.mark.parametrize("model", ["cell_proliferation", "oncology"])
def test_backend_equivalence_bitwise(model):
    """Acceptance: serial and process traces byte-identical, >=3 seeds,
    models that add (cell_proliferation) and remove (oncology) agents."""
    report = equivalence("process", (model,), (1, 2, 3), num_agents=200,
                         steps=5)
    assert report.ok, report.render()


class TestParamValidation:
    def test_defaults(self):
        p = Param()
        assert p.execution_backend == "serial"
        assert p.backend_workers == 0

    @pytest.mark.parametrize(
        "field,value",
        [
            ("execution_backend", "threads"),
            ("backend_workers", -1),
            ("backend_chunk_size", 0),
        ],
    )
    def test_rejects_invalid(self, field, value):
        with pytest.raises(ValueError):
            Simulation("bad", Param(**{field: value}))
