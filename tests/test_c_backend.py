"""The C kernel backend's own contract (docs/kernels.md).

- **Thread invariance**: every output slot is written by one thread in
  CSR order, so 1 and 2 threads give the same bytes.
- **Fork safety**: a process forked after a threaded call runs its calls
  on one thread, entering no OpenMP construct (libgomp's team does not
  survive ``fork``), and finishes.
- **Fallback**: no compiler or an unwritable cache leaves NumPy running
  with one :class:`KernelBackendWarning`, never an exception.
- **Observability**: ``kernel:threads`` / ``kernel:build`` /
  ``kernel:search_calls`` / ``kernel:grid_builds`` /
  ``kernel:field_calls`` and the ``repro trace`` line.
- **Stencil clones**: the AVX2 clone of ``repro_diffuse`` the loader
  picks writes the bytes of a build without clones.

The byte-equality of each kernel to the frozen references lives in the
differential suites, which run every case through this backend too.
"""

from __future__ import annotations

import ctypes
import os
import platform
import re
import shutil
import signal
import subprocess
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
            assert snap["kernel:field_calls"] == 0     # no substance grid
        assert main(["trace", "cell_proliferation", "--agents", "100",
                     "--iterations", "11", "--out",
                     str(tmp_path / "t.json")]) == 0
        kb = make_kernels("c")
        plural = "" if kb.threads == 1 else "s"
        out = capsys.readouterr().out
        assert re.search(rf"kernels: c, {kb.threads} thread{plural} "
                         rf"\({kb.build}\), [1-9][0-9]* grid searches, "
                         rf"[1-9][0-9]* grid builds, 1 sorts, 0 field calls, "
                         rf"{kb.stencil_isa} stencil", out)
        assert kb.stencil_isa in ("avx2", "baseline")
        assert re.search(r"neighbor cache: .*, [0-9]+ relabels", out)

    def test_field_calls_on_the_trace_line(self, capsys, tmp_path):
        """``cell_clustering`` secretes and climbs two fields: 2 x 2
        field-kernel calls a tick, all of them in C."""
        from repro.__main__ import main

        assert main(["trace", "cell_clustering", "--agents", "200",
                     "--iterations", "3", "--out",
                     str(tmp_path / "t.json")]) == 0
        assert re.search(r"kernels: c, .*, 12 field calls, "
                         r"(avx2|baseline) stencil",
                         capsys.readouterr().out)

    def test_a_subclassed_force_model_counts_a_fallback(self):
        class Softer(InteractionForce):
            """Only the coefficients differ; evaluated through the hook."""

        pos, dia, indptr, indices = tissue(400)
        kb = make_kernels("c")
        got = kb.force(Softer(1.0, 0.2), pos, dia, indptr, indices)
        want = kb.force(InteractionForce(1.0, 0.2), pos, dia, indptr, indices)
        assert kb.fallbacks == 1
        assert got[0].tobytes() == want[0].tobytes()


def field_inputs(case=None):
    """``(grid, positions, idx, amount)`` of a field-kernel call the ``c``
    backend keeps (``case`` None) or hands to NumPy (``case``)."""
    from repro import DiffusionGrid

    grid = DiffusionGrid("s", 4, 0.0, 8.0)
    grid.concentration = np.arange(64.0).reshape(4, 4, 4)
    pos = np.random.default_rng(3).uniform(0.0, 8.0, (10, 3))
    idx, amount = np.arange(10), 1.0
    if case == "descending":
        idx = idx[::-1].copy()
    elif case == "duplicates":
        idx = np.array([0, 1, 1, 4])
    elif case in ("nan", "inf", "beyond_int64"):
        pos[5, 1] = {"nan": np.nan, "inf": -np.inf,
                     "beyond_int64": 2.0 * 2.0**63}[case]
    elif case == "float32_grid":
        grid.concentration = grid.concentration.astype(np.float32)
    elif case == "fortran_grid":
        grid.concentration = np.asfortranarray(grid.concentration)
    elif case == "fortran_positions":
        pos = np.asfortranarray(pos)
    elif case == "array_amount":
        amount = np.linspace(0.5, 5.0, 10)
    elif case == "numpy_scalar_amount":
        amount = np.float32(0.25)
    return grid, pos, idx, amount


def secrete_then_climb(kb, grid, positions, idx, amount):
    """One secretion, then one chemotaxis step: the arrays they wrote."""
    moved = np.zeros(len(positions), dtype=bool)
    kb.secrete(grid, positions, idx, amount)
    kb.chemotaxis(grid, positions, moved, idx, 1.5, 0.5)
    return np.ascontiguousarray(grid.concentration), positions, moved


class TestFieldKernels:
    """Secretion and chemotaxis: what stays in C and what goes to NumPy
    (the byte-equality lives in ``tests/test_diffusion_differential.py``)."""

    def test_c_runs_both_and_counts_them(self):
        kb = make_kernels("c")
        moved = secrete_then_climb(kb, *field_inputs())[2]
        assert (kb.field_calls, kb.fallbacks, kb.calls) == (2, 0, 2)
        assert moved.all()

    @pytest.mark.parametrize("case", [
        "descending", "duplicates", "nan", "inf", "beyond_int64",
        "float32_grid", "fortran_grid", "fortran_positions", "array_amount",
        "numpy_scalar_amount"])
    def test_fallback_cases_count_and_match_numpy(self, case):
        got, want = make_kernels("c"), make_kernels("numpy")
        with np.errstate(invalid="ignore"):
            outputs = [secrete_then_climb(kb, *field_inputs(case))
                       for kb in (got, want)]
        for a, b in zip(*outputs):
            assert a.tobytes() == b.tobytes()
        # The amount only decides the secretion's path, and the NumPy
        # secretion leaves a Fortran grid C-ordered (``_locate``).
        c_chemotaxis = case in ("array_amount", "numpy_scalar_amount",
                                "fortran_grid")
        assert got.fallbacks == (1 if c_chemotaxis else 2)
        assert got.field_calls == (1 if c_chemotaxis else 0)


def _baseline_stencil(tmp_path):
    """``_kernels.c`` built with ``STENCIL_CLONES`` defined empty: the
    library of a host without clones, loaded beside the real one."""
    out = tmp_path / "baseline.so"
    subprocess.run([shutil.which(c_backend.COMPILER), *c_backend.FLAGS,
                    "-DSTENCIL_CLONES=", "-o", str(out),
                    str(c_backend.SOURCE), "-lm"],
                   check=True, capture_output=True, timeout=300)
    dll = ctypes.CDLL(str(out))
    for name in ("repro_diffuse", "repro_stencil_isa"):
        fn = getattr(dll, name)
        fn.argtypes, fn.restype = c_backend._SIGNATURES[name]
    return dll


class TestStencilClones:
    """The AVX2 clone the loader picks writes the baseline build's bytes:
    no FMA (``-ffp-contract=off``) and correctly rounded ``+ - * /`` at
    every vector width, checked here on grids where a wrong operand order,
    a contraction or a flush-to-zero would show.

    One carve-out, the one ``tests/test_diffusion_differential.py`` makes
    for numpy itself: when both operands of an add are NaN with different
    sign bits (``np.nan`` meeting the NaN that ``inf - inf`` makes), the
    operand the instruction keeps decides the sign, and the two builds
    order the operands of a commutative add differently.  Grids that mix
    NaN and +-inf cells are compared with every NaN canonicalised; the
    NaN-only, inf-only, denormal and random grids stay strict.
    """

    @pytest.fixture(scope="class")
    def builds(self, tmp_path_factory):
        if platform.machine().lower() not in ("x86_64", "amd64"):
            pytest.skip("the stencil is only cloned on x86-64")
        kb = make_kernels("c")
        if kb.stencil_isa != "avx2":
            pytest.skip("the loader did not pick an AVX2 stencil here (no "
                        "AVX2 on this CPU, or no ifunc support)")
        dll = _baseline_stencil(tmp_path_factory.mktemp("clones"))
        assert dll.repro_stencil_isa() == b"baseline"
        return kb._lib.dll, dll

    GRIDS = {
        "random": lambda rng, shape: rng.normal(size=shape),
        "denormal": lambda rng, shape: rng.choice(
            [5e-324, -5e-324, 1e-310, -2.5e-309, 0.0, -0.0, 2.2e-308],
            size=shape),
        "nan": lambda rng, shape: np.where(
            rng.random(shape) < 0.3, np.nan, rng.normal(size=shape)),
        "inf": lambda rng, shape: np.where(
            rng.random(shape) < 0.3,
            rng.choice([np.inf, -np.inf, 1e308, -1e308], size=shape),
            rng.normal(size=shape)),
        "mixed": lambda rng, shape: np.where(
            rng.random(shape) < 0.3,
            rng.choice([np.nan, np.inf, -np.inf, 1e308, -1e308], size=shape),
            rng.normal(size=shape)),
    }
    SHAPES = [(1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 1, 5), (1, 1, 37),
              (1, 1, 1000), (7, 6, 5), (33, 17, 9), (64, 64, 64)]

    @pytest.mark.parametrize("family", sorted(GRIDS))
    def test_clone_and_baseline_write_the_same_bytes(self, builds, family):
        cloned, baseline = builds
        rng = np.random.default_rng(11)
        for shape in self.SHAPES:
            c = self.GRIDS[family](rng, shape)
            for args in ((1.5, 0.5, 0.01, 0.3), (7.8125, 1.3, 0.5, 0.9),
                         (1e-154, 1e-10, 0.0, 1e-300)):
                h, d, decay, dt = args
                for threads in (1, 2):
                    a, b = np.empty_like(c), np.empty_like(c)
                    cloned.repro_diffuse(c, a, *shape, h**2, d, decay, dt,
                                         threads)
                    baseline.repro_diffuse(c, b, *shape, h**2, d, decay,
                                           dt, threads)
                    if family == "mixed":
                        a[np.isnan(a)] = b[np.isnan(b)] = np.nan
                    assert a.tobytes() == b.tobytes(), (shape, args, threads)
