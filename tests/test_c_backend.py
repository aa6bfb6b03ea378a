"""The C kernel backend's own contract (docs/kernels.md).

- **Thread invariance**: every output slot is written by one thread in
  CSR order, so 1 and 2 threads give the same bytes.
- **Fork safety**: a process forked after a threaded call runs its calls
  on one thread, entering no OpenMP construct (libgomp's team does not
  survive ``fork``), and finishes.
- **Fallback**: no compiler or an unwritable cache leaves NumPy running
  with one :class:`KernelBackendWarning`, never an exception.
- **Observability**: ``kernel:threads`` / ``kernel:build`` /
  ``kernel:search_calls`` / ``kernel:grid_builds`` and the ``repro
  trace`` line.

The byte-equality of each kernel to the frozen references lives in the
differential suites, which run every case through this backend too.
"""

from __future__ import annotations

import os
import re
import signal
import time

import numpy as np
import pytest

from repro import Param, Simulation
from repro.core.force import InteractionForce
from repro.env import UniformGridEnvironment, csr_row_index
from repro.kernels import KernelBackendWarning, c_backend, make_kernels
from repro.kernels.dispatch import _probe

pytestmark = pytest.mark.skipif(
    not _probe("c"), reason="the C kernel library cannot be built here")


@pytest.fixture
def threads():
    """``threads(n)`` pins the parent's team size for this test."""
    yield c_backend._set_threads
    c_backend._set_threads(None)


def tissue(n=3000, seed=4):
    """A dense suspension with a superset CSR, as the Verlet cache keeps."""
    rng = np.random.default_rng(seed)
    span = 10.0 * (n * 27.0 / 46.0) ** (1.0 / 3.0)
    pos = rng.uniform(0.0, span, (n, 3))
    dia = rng.uniform(6.0, 12.0, n)
    env = UniformGridEnvironment()
    env.update(pos, 13.0)
    indptr, indices = env.neighbor_csr()
    return pos, dia, indptr, indices


def every_output(kb):
    """Grid search, force (with and without an active mask), refilter and
    stencil."""
    pos, dia, indptr, indices = tissue()
    active = np.random.default_rng(5).random(len(pos)) < 0.6
    force = InteractionForce()
    moved = pos + np.random.default_rng(6).uniform(-1.0, 1.0, pos.shape)
    grid = np.random.default_rng(7).uniform(0.0, 3.0, (23, 19, 17))
    env = UniformGridEnvironment()
    env.kernels = kb
    env.update(moved, 13.0)
    return [
        *env.neighbor_csr(),
        *kb.force(force, pos, dia, indptr, indices)[:2],
        *kb.force(force, pos, dia, indptr, indices, active)[:2],
        *kb.refilter(indptr, indices, csr_row_index(indptr, indices), moved,
                     10.0),
        kb.diffuse(grid, 1.5, 0.5, 0.01, 0.3),
    ]


class TestThreads:
    def test_one_and_two_threads_give_the_same_bytes(self, threads):
        kb = make_kernels("c")
        threads(1)
        assert kb.threads == 1
        one = every_output(kb)
        threads(2)
        assert kb.threads == 2
        two = every_output(kb)
        for a, b in zip(one, two):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_forked_child_runs_one_thread_and_finishes(self, threads):
        kb = make_kernels("c")
        threads(2)
        want = every_output(kb)      # the parent's team exists now
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:                 # child: report, then leave at once
            code = 1
            try:
                same = all(a.tobytes() == b.tobytes()
                           for a, b in zip(every_output(kb), want))
                os.write(write_end, f"{kb.threads} {same}".encode())
                code = 0
            finally:
                os._exit(code)
        os.close(write_end)
        deadline = time.monotonic() + 10.0
        while not os.waitpid(pid, os.WNOHANG)[0]:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child hung in a kernel call")
            time.sleep(0.01)
        with os.fdopen(read_end) as pipe:
            assert pipe.read() == "1 True"


class TestFallback:
    """A machine where the library cannot be built runs NumPy."""

    @pytest.fixture
    def unbuilt(self, monkeypatch, tmp_path):
        """A process that has not loaded the library, and an empty cache;
        the next test loads it again from the real cache."""
        c_backend._library.cache_clear()
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        yield monkeypatch, tmp_path
        c_backend._library.cache_clear()

    def assert_numpy_with_one_warning(self, backend):
        with pytest.warns(KernelBackendWarning) as record:
            sim = Simulation("fallback", Param(kernel_backend=backend))
        with sim:
            assert len(record) == 1
            assert sim.kernels.name == "numpy"
            snap = sim.obs.registry.snapshot()
            assert snap["kernel:build"] == "unavailable"
            assert snap["kernel:threads"] == 1
            rng = np.random.default_rng(1)
            sim.add_cells(rng.uniform(0.0, 30.0, (80, 3)), diameters=10.0)
            sim.simulate(2)
            assert sim.kernels.calls > 0

    @pytest.mark.parametrize("backend", ["c", "auto"])
    def test_no_compiler(self, unbuilt, backend):
        monkeypatch, _ = unbuilt
        monkeypatch.setattr(c_backend, "COMPILER", "no-such-compiler-here")
        self.assert_numpy_with_one_warning(backend)

    @pytest.mark.parametrize("backend", ["c", "auto"])
    def test_unwritable_cache(self, unbuilt, backend):
        monkeypatch, tmp_path = unbuilt
        blocker = tmp_path / "a-file"
        blocker.write_text("the cache directory cannot be created here")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        self.assert_numpy_with_one_warning(backend)

    def test_a_build_lands_in_the_cache_and_is_reused(self, unbuilt):
        _, tmp_path = unbuilt
        assert make_kernels("c").build == "built"
        assert len(list((tmp_path / "cache" / "repro" / "kernels")
                        .glob("*.so"))) == 1
        c_backend._library.cache_clear()
        assert make_kernels("c").build == "cached"


class TestObservability:
    def test_gauges_and_trace_line(self, capsys, tmp_path):
        from repro.__main__ import main

        with Simulation("gauges", Param(kernel_backend="c",
                                        agent_sort_frequency=2)) as sim:
            snap = sim.obs.registry.snapshot()
            assert snap["kernel:backend"] == "c"
            assert snap["kernel:build"] in ("cached", "built")
            assert snap["kernel:threads"] == sim.kernels.threads >= 1
            assert sim.env.kernels is sim.kernels
            sim.add_cells(np.random.default_rng(2).uniform(0.0, 30.0, (80, 3)),
                          diameters=10.0)
            sim.simulate(2)
            snap = sim.obs.registry.snapshot()
            assert snap["kernel:search_calls"] >= 1
            assert snap["kernel:grid_builds"] >= 1
            assert snap["kernel:sort_calls"] == 1
        assert main(["trace", "cell_proliferation", "--agents", "100",
                     "--iterations", "11", "--out",
                     str(tmp_path / "t.json")]) == 0
        kb = make_kernels("c")
        plural = "" if kb.threads == 1 else "s"
        out = capsys.readouterr().out
        assert re.search(rf"kernels: c, {kb.threads} thread{plural} "
                         rf"\({kb.build}\), [1-9][0-9]* grid searches, "
                         rf"[1-9][0-9]* grid builds, 1 sorts", out)
        assert re.search(r"neighbor cache: .*, [0-9]+ relabels", out)

    def test_a_subclassed_force_model_counts_a_fallback(self):
        class Softer(InteractionForce):
            """Only the coefficients differ; evaluated through the hook."""

        pos, dia, indptr, indices = tissue(400)
        kb = make_kernels("c")
        got = kb.force(Softer(1.0, 0.2), pos, dia, indptr, indices)
        want = kb.force(InteractionForce(1.0, 0.2), pos, dia, indptr, indices)
        assert kb.fallbacks == 1
        assert got[0].tobytes() == want[0].tobytes()
