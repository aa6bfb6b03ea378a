"""The exact grid search overlapped with the behaviors (docs/kernels.md,
"The search overlapped with the behaviors").

- **Same bytes**: the CSR every tick's mechanics reads and the final
  ``state_checksum`` are identical with the search on a helper thread,
  under one kernel thread (no overlap) and under the NumPy kernels.
- **The overflow fallback**: a stage the helper cannot fill is finished
  on the joining thread, with the synchronous search's bytes.
- **Buffers**: searches in flight at once on one backend share none.
- **Errors**: an exception in the helper surfaces at the reader with its
  type.
- **Lifecycle**: no helper thread outlives its tick -- after a normal
  tick, an aborted one, ``close()`` -- and every mutator joins first.
- **The gate**: no helper starts under a virtual machine, under NumPy,
  on one thread, in a forked child, or beside a declared neighbor reader.
- **Fork safety**: a process pool forked after an overlapped run finds
  no extra thread and lands on its serial twin's bytes.
"""

from __future__ import annotations

import hashlib
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from repro.env import UniformGridEnvironment
from repro.kernels import c_backend, make_kernels
from repro.kernels.dispatch import _probe
from repro.kernels.numpy_ref import NumpyKernelBackend
from repro.parallel import SYSTEM_A, Machine
from repro.parallel.process_backend import ProcessBackend
from repro.simulations import get_simulation
from repro.verify.snapshot import state_checksum

pytestmark = pytest.mark.skipif(
    not _probe("c"), reason="the C kernel library cannot be built here")

OVERLAPPED = "neighbor_cache:overlapped_searches"


@pytest.fixture
def threads():
    """``threads(n)`` pins the parent's team size for this test."""
    yield c_backend._set_threads
    c_backend._set_threads(None)


def helpers_alive():
    return [t for t in threading.enumerate()
            if t.name == c_backend.SEARCH_THREAD]


def build(model, agents, seed=1, **delta):
    bench = get_simulation(model)
    return bench.build(agents, param=bench.default_param().with_(**delta),
                       seed=seed)


def run_recording(model, agents, ticks, **delta):
    """``(per-tick digests of the CSR mechanics read, final checksum,
    overlapped searches)``."""
    digests = []
    with build(model, agents, **delta) as sim:
        backend = sim.backend
        force_and_displace = backend.force_and_displace

        def recording(sim_, indptr, indices, detect):
            digests.append(hashlib.sha256(
                indptr.tobytes() + indices.tobytes()).hexdigest())
            return force_and_displace(sim_, indptr, indices, detect)

        backend.force_and_displace = recording
        sim.simulate(ticks)
        assert not helpers_alive()
        return (digests, state_checksum(sim),
                int(sim.obs.registry.counter(OVERLAPPED).value))


# --------------------------------------------------------------------- #
# Same bytes
# --------------------------------------------------------------------- #

#: ``oncology`` as the registry builds it (an exact build every tick);
#: ``cell_proliferation`` without the Verlet cache, so every build --
#: the division ticks' too -- is an exact one the helper can take.
CASES = {
    "oncology": ("oncology", 1500, 12, {}),
    "cell_proliferation": ("cell_proliferation", 600, 16,
                           {"neighbor_cache": False}),
}


@pytest.mark.parametrize("case", CASES)
def test_overlap_one_thread_and_numpy_give_the_same_bytes(case, threads):
    model, agents, ticks, delta = CASES[case]
    threads(2)
    overlapped = run_recording(model, agents, ticks, kernel_backend="c",
                               **delta)
    threads(1)
    serial = run_recording(model, agents, ticks, kernel_backend="c", **delta)
    numpy = run_recording(model, agents, ticks, kernel_backend="numpy",
                          **delta)
    assert overlapped[2] >= ticks - 2  # every exact build but the first
    assert serial[2] == numpy[2] == 0
    assert len(overlapped[0]) == ticks
    assert overlapped[:2] == serial[:2] == numpy[:2]


def dense_cluster(n=400, seed=3):
    """Every agent within reach of every other: ~n / 2 forward pairs an
    agent, far beyond the stage's 4 slots."""
    return np.random.default_rng(seed).uniform(0.0, 3.0, (n, 3))


def test_stage_overflow_finishes_on_the_joining_thread(monkeypatch):
    pos = dense_cluster()
    reference = UniformGridEnvironment()
    reference.update(pos, 10.0)
    want = reference.neighbor_csr()
    resumed = []
    search_into = c_backend._search_into

    def spy(*args, **kwargs):
        resumed.append(threading.current_thread().name)
        return search_into(*args, **kwargs)

    monkeypatch.setattr(c_backend, "_search_into", spy)
    env = UniformGridEnvironment()
    env.kernels = make_kernels("c")
    env.update(pos, 10.0)
    assert env.start_search() is not None
    got = env.neighbor_csr()
    assert resumed == [threading.main_thread().name]
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_prefix_of_the_helper_buffers_is_the_csr():
    """No overflow: ``indices`` is the helper's buffer's ``2 * total``
    prefix, and the bytes are the synchronous search's."""
    pos = np.random.default_rng(8).uniform(0.0, 120.0, (2000, 3))
    kb = make_kernels("c")
    env = UniformGridEnvironment()
    env.kernels = kb
    env.update(pos, 10.0)
    want = [a.copy() for a in env.neighbor_csr()]
    env.update(pos, 10.0)
    calls = kb.search_calls
    assert env.start_search() is not None
    assert env.start_search() is None  # one per build
    got = env.neighbor_csr()
    assert kb.search_calls == calls + 1
    assert got[1].base is not None and len(got[1]) == got[0][-1]
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


def test_faulting_in_the_csr_pages_changes_no_byte():
    """The main thread faults in ``indices`` while the helper may already
    write there: the call must not write (a no-op where unsupported)."""
    a = np.random.default_rng(4).integers(-9, 9, 300_000)
    want = a.copy()
    c_backend._populate(a[7:])
    c_backend._populate(a[:0])
    assert a.tobytes() == want.tobytes()


@pytest.fixture
def slow_helper(monkeypatch):
    """Helpers that sleep 0.2 s before their call: still searching long
    after the behaviors end, and all in flight at once."""
    dll = c_backend._library().dll
    search = dll.repro_grid_csr

    def slow(*args):
        time.sleep(0.2)
        return search(*args)

    monkeypatch.setattr(dll, "repro_grid_csr", slow)


def test_searches_in_flight_at_once_share_no_buffer(slow_helper):
    """One backend, more searches in flight than cores (each helper sleeps
    before its call, so all run at once), a short switch interval, joined
    out of order: each owns its buffers (a start while another search
    holds the kept scratch allocates its own), so every CSR is its
    build's."""
    kb = make_kernels("c")
    rng = np.random.default_rng(11)
    clouds = [rng.uniform(0.0, 60.0 + 5 * k, (2000, 3)) for k in range(6)]
    want = []
    for pos in clouds:
        env = UniformGridEnvironment()
        env.update(pos, 6.0)
        want.append(env.neighbor_csr())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            envs = []
            for pos in clouds:
                env = UniformGridEnvironment()
                env.kernels = kb
                env.update(pos, 6.0)
                assert env.start_search() is not None
                envs.append(env)
            got = [env.neighbor_csr() for env in reversed(envs)][::-1]
            for (ip, ix), (wip, wix) in zip(got, want):
                assert ip.tobytes() == wip.tobytes()
                assert ix.tobytes() == wix.tobytes()
    finally:
        sys.setswitchinterval(interval)
    assert not helpers_alive()


# --------------------------------------------------------------------- #
# Errors
# --------------------------------------------------------------------- #

class HelperFailure(RuntimeError):
    pass


def test_an_exception_in_the_helper_reaches_the_reader(monkeypatch,
                                                        threads):
    threads(2)
    dll = c_backend._library().dll

    def broken(*args):
        raise HelperFailure("injected")

    with build("oncology", 800) as sim:
        sim.simulate(2)
        monkeypatch.setattr(dll, "repro_grid_csr", broken)
        started = sim.obs.registry.counter(OVERLAPPED).value
        with pytest.raises(HelperFailure):
            sim.simulate(1)
        assert sim.obs.registry.counter(OVERLAPPED).value == started + 1
        assert not helpers_alive()
        monkeypatch.undo()
        sim.simulate(2)  # the next tick rebuilds and searches again


# --------------------------------------------------------------------- #
# Lifecycle
# --------------------------------------------------------------------- #

class TestLifecycle:
    def test_no_helper_after_simulate(self, threads, slow_helper):
        threads(2)
        with build("oncology", 800) as sim:
            sim.simulate(3)
            assert sim.obs.registry.counter(OVERLAPPED).value >= 2
            assert not helpers_alive()
            snap = sim.obs.registry.snapshot()
            assert snap["neighbor_cache:search_helper_s"] > 0.0
            assert snap["neighbor_cache:search_wait_s"] >= 0.0

    def test_no_helper_after_a_behavior_raises(self, threads, slow_helper):
        threads(2)

        class Abort(Exception):
            pass

        with build("oncology", 800) as sim:
            sim.simulate(2)
            behavior = sim.behaviors[0][0]

            def raising(sim_, idx):
                raise Abort

            behavior.run = raising
            started = sim.obs.registry.counter(OVERLAPPED).value
            with pytest.raises(Abort):
                sim.simulate(1)
            assert sim.obs.registry.counter(OVERLAPPED).value == started + 1
            assert not helpers_alive()
            del behavior.run
            sim.simulate(1)
            assert not helpers_alive()

    def test_no_helper_after_close(self, threads, slow_helper):
        threads(2)
        sim = build("oncology", 800)
        sim.simulate(2)
        sim.scheduler.neighbor_cache.build()  # a fresh exact build
        assert sim.scheduler.neighbor_cache.start_search()
        sim.close()
        assert not helpers_alive()

    def test_the_tracer_gets_the_helper_span_on_its_own_tid(self, threads):
        from repro.obs.core import SEARCH_TID
        from repro.obs.export import chrome_trace

        threads(2)
        with build("oncology", 800, tracing=True) as sim:
            sim.simulate(3)
            events = sim.obs.tracer.events
            spans = [e for e in events if e.tid == SEARCH_TID]
            assert len(spans) == sim.obs.registry.counter(OVERLAPPED).value
            assert all(e.name == "grid_search" and e.dur_ns > 0
                       for e in spans)
            names = {e["tid"]: e["args"]["name"]
                     for e in chrome_trace(sim.obs.tracer)["traceEvents"]
                     if e["name"] == "thread_name"}
            assert names[SEARCH_TID] == "grid-search"


class _Pending:
    """A stand-in pending search that notes the build it was joined in."""

    def __init__(self, env, n):
        self.env, self.n, self.joined_at = env, n, None

    def wait(self):
        pass

    def result(self):
        self.joined_at = self.env._timestamp
        return np.zeros(self.n + 1, dtype=np.int64), np.empty(0, np.int64)


class _Starting(NumpyKernelBackend):
    def __init__(self, env):
        super().__init__()
        self.env, self.pending = env, []

    def start_grid_search(self, xyz, *args):
        self.pending.append(_Pending(self.env, len(xyz)))
        return self.pending[-1]


class TestMutatorsJoinFirst:
    def started(self):
        env = UniformGridEnvironment()
        env.kernels = _Starting(env)
        env.update(np.random.default_rng(2).uniform(0, 50, (100, 3)), 5.0)
        pending = env.start_search()
        assert pending is env.kernels.pending[-1]
        return env, pending, env._timestamp

    def test_update(self):
        env, pending, stamp = self.started()
        env.update(np.zeros((3, 3)), 5.0)
        assert pending.joined_at == stamp and env._pending is None

    def test_begin_incremental(self):
        env, pending, stamp = self.started()
        env.begin_incremental(np.zeros(3), np.full(3, 10.0), 5.0)
        assert pending.joined_at == stamp and env._pending is None

    def test_neighbor_csr_adopts(self):
        env, pending, stamp = self.started()
        indptr, _ = env.neighbor_csr()
        assert pending.joined_at == stamp and len(indptr) == 101
        assert env.neighbor_csr()[0] is indptr


# --------------------------------------------------------------------- #
# The gate
# --------------------------------------------------------------------- #

class TestNoHelper:
    @pytest.fixture
    def starts(self, monkeypatch):
        """Every ``start_grid_search`` call, on any backend."""
        calls = []
        original = c_backend.CKernelBackend.start_grid_search

        def counting(self, *args):
            calls.append(threading.current_thread().name)
            return original(self, *args)

        monkeypatch.setattr(c_backend.CKernelBackend, "start_grid_search",
                            counting)
        return calls

    def assert_none(self, sim, starts, ticks=3):
        sim.simulate(ticks)
        assert sim.obs.registry.counter(OVERLAPPED).value == 0
        assert starts == []

    def test_under_a_virtual_machine(self, starts, threads):
        threads(2)
        bench = get_simulation("oncology")
        machine = Machine(SYSTEM_A, num_threads=4, num_domains=2)
        with bench.build(400, param=bench.default_param().with_(
                kernel_backend="c"), machine=machine, seed=1) as sim:
            self.assert_none(sim, starts)

    def test_under_numpy(self, starts, threads):
        threads(2)
        with build("oncology", 400, kernel_backend="numpy") as sim:
            self.assert_none(sim, starts)

    def test_on_one_thread(self, starts, threads):
        threads(1)
        with build("oncology", 400, kernel_backend="c") as sim:
            self.assert_none(sim, starts)

    def test_beside_a_declared_neighbor_reader(self, starts, threads):
        threads(2)
        with build("oncology", 400, kernel_backend="c") as sim:
            sim.behaviors[0][0].uses_neighbors = True
            self.assert_none(sim, starts)

    def test_in_a_forked_child(self, threads):
        threads(2)
        with build("oncology", 400, kernel_backend="c") as sim:
            sim.simulate(2)
            assert sim.obs.registry.counter(OVERLAPPED).value > 0
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:  # child: report, then leave at once
                code = 1
                try:
                    before = sim.obs.registry.counter(OVERLAPPED).value
                    sim.simulate(2)
                    after = sim.obs.registry.counter(OVERLAPPED).value
                    os.write(write_end, f"{after - before}".encode())
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_end)
            deadline = time.monotonic() + 30.0
            while not os.waitpid(pid, os.WNOHANG)[0]:
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    pytest.fail("the forked child hung")
                time.sleep(0.01)
            with os.fdopen(read_end) as pipe:
                assert pipe.read() == "0"


# --------------------------------------------------------------------- #
# Fork safety
# --------------------------------------------------------------------- #

def test_a_pool_forked_after_an_overlapped_run_matches_its_twin(
        monkeypatch, threads):
    """``oncology_process2`` against ``oncology`` in miniature: the pool
    forks in a process whose overlapped serial run is over, with no thread
    left beyond the baseline, and lands on the serial run's bytes."""
    threads(2)
    baseline = threading.active_count()
    with build("oncology", 600, kernel_backend="c") as serial:
        serial.simulate(6)
        assert serial.obs.registry.counter(OVERLAPPED).value > 0
        want = state_checksum(serial)
    at_fork = []
    start = ProcessBackend._start

    def noting(self):
        at_fork.append((threading.active_count(), helpers_alive()))
        return start(self)

    monkeypatch.setattr(ProcessBackend, "_start", noting)
    with build("oncology", 600, kernel_backend="c",
               execution_backend="process", backend_workers=2) as pooled:
        pooled.simulate(6)
        assert pooled.obs.registry.counter(OVERLAPPED).value > 0
        assert state_checksum(pooled) == want
    assert at_fork == [(baseline, [])]
