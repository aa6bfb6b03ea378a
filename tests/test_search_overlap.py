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
- **The grid task on both threads**: the same bytes tick by tick with
  the reader arriving before the helper's build, mid-search and after
  the merge, and without the overlap on two threads; one stage overflow
  per density doubling; build outputs read before the search.
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


# --------------------------------------------------------------------- #
# The grid task: build and search on both threads
# --------------------------------------------------------------------- #

JOINED = "neighbor_cache:search_chunks_joined"


def run_joined(model, agents, ticks, **delta):
    """:func:`run_recording` plus the chunks the reader ran at the joins."""
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
        reg = sim.obs.registry
        return (digests, state_checksum(sim),
                int(reg.counter(OVERLAPPED).value),
                int(reg.counter(JOINED).value))


@pytest.mark.parametrize("case", CASES)
def test_one_two_and_overlapped_threads_give_the_same_bytes(
        case, threads, monkeypatch):
    """Tick by tick: NumPy, C on one thread, C on two threads without the
    overlap, and the overlap with the reader arriving before the helper's
    grid build, mid-search and after the fill."""
    from repro.core.scheduler import NeighborCache

    model, agents, ticks, delta = CASES[case]
    want = run_joined(model, agents, ticks, kernel_backend="numpy", **delta)
    threads(1)
    assert run_joined(model, agents, ticks, kernel_backend="c",
                      **delta)[:3] == want[:3]
    threads(2)
    with monkeypatch.context() as m:
        m.setattr(NeighborCache, "start_search", lambda self: False)
        assert run_joined(model, agents, ticks, kernel_backend="c",
                          **delta)[:3] == want[:3]
    dll = c_backend._library().dll
    helper, chunks = dll.repro_grid_csr, c_backend._CHUNKS

    def late(ctl):  # the reader claims the build and every chunk
        time.sleep(0.05)
        return helper(ctl)

    def partial(ctl):  # the build and at most three chunks
        return dll.repro_grid_work(ctl, 0, 3)

    result = c_backend.GridTask.result

    def after_the_fill(self):  # the helper ran every chunk and merged
        self._thread.join()
        return result(self)

    # (what the helper runs, the chunks the reader must have joined)
    arrivals = ((dll, "repro_grid_csr", late, lambda n: ran == chunks * n),
                (dll, "repro_grid_csr", partial,
                 lambda n: ran >= (chunks - 3) * n),
                (c_backend.GridTask, "result", after_the_fill,
                 lambda n: ran == 0))
    for owner, name, patch, joined in arrivals:
        with monkeypatch.context() as m:
            m.setattr(owner, name, patch)
            digests, checksum, overlapped, ran = run_joined(
                model, agents, ticks, kernel_backend="c", **delta)
        assert overlapped >= ticks - 2
        assert (digests, checksum) == want[:2]
        assert joined(overlapped), (patch.__name__, ran, overlapped)


def denser(n, seed, span):
    """``n`` agents uniform in a cube of side ``span``: at radius 4, ~1.1
    forward pairs an agent at 12 000 agents and span 120, and ``1 /
    shrink ** 3`` times that at span ``120 * shrink``."""
    return np.random.default_rng(seed).uniform(0.0, span, (n, 3))


@pytest.mark.parametrize("nthreads", [1, 2])
@pytest.mark.parametrize("overlap", [False, True])
def test_a_densifying_state_overflows_once_per_doubling(nthreads, overlap,
                                                        threads):
    """Forward pairs an agent double at every step (from ~1 to ~30), and
    each density is searched twice: the stage is sized from the last
    search, so only the first search of a density may overflow, and every
    CSR is the NumPy search's bytes."""
    threads(nthreads)
    kb = make_kernels("c")
    for k in range(6):
        for again in (False, True):
            before = kb.search_overflows
            pos = denser(12_000, 2 * k + again, 120.0 * 2.0 ** (-k / 3.0))
            ref = UniformGridEnvironment()
            ref.update(pos, 4.0)
            env = UniformGridEnvironment()
            env.kernels = kb
            env.update(pos, 4.0)
            if overlap:
                assert env.start_search() is not None
            for a, b in zip(env.neighbor_csr(), ref.neighbor_csr()):
                assert a.tobytes() == b.tobytes()
            assert kb.search_overflows <= before + (not again)
    assert kb.search_overflows >= 3
    assert not helpers_alive()


def test_an_overflow_in_every_chunk_on_both_threads(threads):
    """A fresh backend sizes at 4 slots an agent, so each of a dense
    cloud's chunks overflows, on whichever thread ran it; the joining
    thread finishes them all in one pass, and the next search of that
    density needs none."""
    threads(2)
    pos = denser(4000, 5, 21.0)
    ref = UniformGridEnvironment()
    ref.update(pos, 4.0)
    want = ref.neighbor_csr()
    kb = make_kernels("c")
    for overflows in (1, 1):
        env = UniformGridEnvironment()
        env.kernels = kb
        env.update(pos, 4.0)
        assert env.start_search() is not None
        for a, b in zip(env.neighbor_csr(), want):
            assert a.tobytes() == b.tobytes()
        assert kb.search_overflows == overflows


def test_build_outputs_are_read_through_the_task(threads):
    """Reading a build output before the search runs the build on this
    thread; the search then starts from it, and the outputs are the NumPy
    build's."""
    threads(2)
    pos = np.random.default_rng(9).uniform(0.0, 80.0, (1500, 3))
    ref = UniformGridEnvironment()
    ref.update(pos, 6.0)
    env = UniformGridEnvironment()
    env.kernels = make_kernels("c")
    env.update(pos, 6.0)
    assert env._task is not None and not env._adopted
    assert np.array_equal(env.box_of_agent, ref.box_of_agent)
    assert env._adopted
    assert env.start_search() is not None
    for a, b in zip(env.neighbor_csr(), ref.neighbor_csr()):
        assert a.tobytes() == b.tobytes()
    assert np.array_equal(env.linked_list_state()["order"], ref._order)


class TestMutatorsJoinTheTask:
    """Every mutator joins a started grid task before it writes -- its
    helper sleeps 0.2 s first, so it is still running -- and adopts the
    task's CSR and build, the NumPy build's bytes.  (``_consolidate``
    needs an incremental build, which ``begin_incremental`` enters by
    joining.)"""

    BUILD = ("_box_of_agent", "_order", "_occupied", "_run_start",
             "_successor", "_xyz")

    @pytest.fixture
    def started(self, slow_helper, monkeypatch):
        pos = np.random.default_rng(2).uniform(0.0, 50.0, (400, 3))
        ref = UniformGridEnvironment()
        ref.update(pos, 5.0)
        want_build = [getattr(ref, name) for name in self.BUILD]
        want_csr = ref.neighbor_csr()
        env = UniformGridEnvironment()
        env.kernels = make_kernels("c")
        joined = []
        result, adopt = c_backend.GridTask.result, env._adopt

        def noting_result(task):
            joined.append(("csr", env._timestamp, result(task)))
            return joined[-1][2]

        def noting_adopt(outputs):
            joined.append(("build", env._timestamp, outputs))
            adopt(outputs)

        monkeypatch.setattr(c_backend.GridTask, "result", noting_result)
        env._adopt = noting_adopt
        env.update(pos, 5.0)
        assert env.start_search() is not None and helpers_alive()
        stamp = env._timestamp

        def check():
            assert not helpers_alive()
            assert [what[:2] for what in joined] == [("csr", stamp),
                                                     ("build", stamp)]
            for a, b in zip(joined[0][2], want_csr, strict=True):
                assert a.tobytes() == b.tobytes()
            for a, b in zip(joined[1][2], want_build, strict=True):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

        return env, check

    def test_update(self, started):
        env, check = started
        env.update(np.zeros((3, 3)), 5.0)
        check()

    def test_begin_incremental(self, started):
        env, check = started
        env.begin_incremental(np.zeros(3), np.full(3, 10.0), 5.0)
        check()

    def test_insert_agent(self, started):
        env, check = started
        with pytest.raises(RuntimeError, match="begin_incremental"):
            env.insert_agent(np.zeros(3))
        check()

    def test_a_build_output_read(self, started):
        env, check = started
        env.linked_list_state()
        check()

    def test_neighbor_csr(self, started):
        env, check = started
        indptr, _ = env.neighbor_csr()
        check()
        assert env.neighbor_csr()[0] is indptr


class TestNoTaskStarts(TestNoHelper):
    """:class:`TestNoHelper`'s cases, spied on where the ``c`` kernels now
    start a helper for the overlap: no ``start_search`` hands back a
    started task."""

    @pytest.fixture
    def starts(self, monkeypatch):
        """Every task ``UniformGridEnvironment.start_search`` started."""
        calls = []
        original = UniformGridEnvironment.start_search

        def counting(self):
            started = original(self)
            if started is not None:
                calls.append(started)
            return started

        monkeypatch.setattr(UniformGridEnvironment, "start_search", counting)
        return calls

    def test_the_spy_sees_every_overlapped_search(self, starts, threads):
        threads(2)
        with build("oncology", 400, kernel_backend="c") as sim:
            sim.simulate(3)
            overlapped = sim.obs.registry.counter(OVERLAPPED).value
            assert len(starts) == overlapped >= 2
