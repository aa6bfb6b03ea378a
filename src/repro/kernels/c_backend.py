"""The ``c`` kernel backend: force, refilter, stencil, agent-field
coupling, grid build and search, agent sorting's order and the superset
relabel.

:class:`CKernelBackend` runs the stock Cortex3D force, the Verlet-cache
refilter, the float64 stencil (an AVX2 clone where the CPU has it),
secretion and chemotaxis, the uniform grid's build and neighbor search,
the Morton order of agent sorting and the renumbering of a cached
superset CSR through ``_kernels.c`` (OpenMP) via :mod:`ctypes`
(which releases the GIL per call); the rest is the inherited NumPy code,
whose bytes the C kernels reproduce.  A grid search may also run as one
call on a helper thread (:class:`PendingSearch`), beside the interpreter.
``docs/kernels.md`` has the bitwise, build and thread rules.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import mmap
import multiprocessing
import os
import shutil
import subprocess
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from repro.kernels import numpy_ref
from repro.kernels.api import _is_plain_cortex3d

__all__ = ["CKernelBackend", "PendingSearch", "SEARCH_THREAD", "available"]

SOURCE = Path(__file__).with_name("_kernels.c")
COMPILER = "cc"
#: No contraction, no fast-math, no ``-march``; ``-fno-math-errno
#: -fno-trapping-math`` change no value (no errno, no FP flags) and let
#: the per-pair loop vectorize.
FLAGS = ("-O3", "-fno-fast-math", "-ffp-contract=off", "-fno-math-errno",
         "-fno-trapping-math", "-fPIC", "-shared", "-fopenmp")

_P, _I, _F, _N = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double, ctypes.c_int
_D, _L, _U = (np.ctypeslib.ndpointer(t, flags="C")  # checks dtype, layout
              for t in (np.float64, np.int64, np.uint8))
_SIGNATURES = {  # name: (argtypes, restype); the last _N is the team size
    "repro_max_threads": ([], _N),
    "repro_force_rows": ([_D, _D, _L, _L, _P, _F, _F, _D, _L, _I, _I, _N],
                         _I),
    "repro_refilter_count": ([_D, _L, _L, _I, _F, _U, _L, _N], _I),
    "repro_refilter_fill": ([_L, _L, _U, _I, _L, _L, _L, _N], None),
    "repro_diffuse": ([_D, _D, _I, _I, _I, _F, _F, _F, _F, _N], None),
    "repro_stencil_isa": ([], ctypes.c_char_p),
    "repro_secrete": ([_D, _I, _F, _F, _D, _I, _L, _I, _F], _I),
    "repro_chemotaxis": ([_D, _I, _F, _F, _D, _U, _I, _L, _I, _F, _F, _N],
                         _I),
    "repro_grid_build": ([_D, _I, _D, _F, _L, _L, _L, _L, _I, _L, _L, _L,
                          _L, _L, _D, _L], _I),
    "repro_grid_search": ([_D, _L, _L, _L, _I, _L, _L, _L, _I, _L, _F, _L,
                           _I, _L, _L, _L], _I),
    "repro_grid_scatter": ([_L, _L, _L, _L, _I, _L, _L], None),
    "repro_grid_fill": ([_L, _L, _L, _I, _L, _L], None),
    # Raw addresses: converting them takes the helper no Python code.
    "repro_grid_csr": ([_P, _P, _P, _P, _I, _P, _P, _P, _I, _P, _F, _P, _I,
                        _P, _P, _P, _P, _P, _P, _P], None),
    "repro_morton_order": ([_D, _I, _D, _F, _L, _L, _L, _L, _L], None),
    "repro_csr_relabel": ([_L, _L, _L, _I, _L, _L, _L, _L], _I),
}
#: Slots of the radix sort's digit histogram (``RADIX`` in ``_kernels.c``).
_RADIX = 1 << 13
#: Name of the thread an overlapped grid search runs on.
SEARCH_THREAD = "repro-grid-search"
#: Boxes per axis a Morton code spreads (``sfc.morton._part1by2`` keeps 21
#: bits); a longer grid's order is left to NumPy.
_MORTON_AXIS = 1 << 21


@functools.cache
def _library() -> SimpleNamespace | None:
    """This process's library (``dll``, ``build``: "cached" | "built", the
    loading ``pid`` and its ``team``), None if it cannot be built.  The
    cache is ``${XDG_CACHE_HOME:-~/.cache}/repro/kernels/``, never
    :mod:`tempfile`, whose directory ``perf/run.py`` deletes per run."""
    compiler = shutil.which(COMPILER)
    if compiler is None:
        return None
    compiler = os.path.realpath(compiler)
    key = hashlib.sha256(b"\0".join([
        SOURCE.read_bytes(), " ".join(FLAGS).encode(), compiler.encode(),
        str(os.stat(compiler).st_mtime_ns).encode()])).hexdigest()
    cache = Path(os.environ.get("XDG_CACHE_HOME")
                 or Path.home() / ".cache") / "repro" / "kernels"
    path, build = cache / f"{key}.so", "cached"
    if not path.exists():  # private name, then rename: never half a file
        build, tmp = "built", cache / f"{key}.{os.getpid()}.tmp"
        try:
            cache.mkdir(parents=True, exist_ok=True)
            subprocess.run([compiler, *FLAGS, "-o", str(tmp), str(SOURCE),
                            "-lm"], check=True, capture_output=True,
                           timeout=300)
            os.replace(tmp, path)
        except (OSError, subprocess.SubprocessError):
            return None
        finally:
            with contextlib.suppress(OSError):
                tmp.unlink()
    # libgomp reads its wait policy once, when it loads.  Its default
    # spins an idle team thread after every region, and where the vCPUs
    # share physical cores that spinner takes the core from the thread
    # still running Python: 8 ms per region, measured on a 2-vCPU VM.
    os.environ.setdefault("OMP_WAIT_POLICY", "passive")
    try:
        dll = ctypes.CDLL(str(path))
        for name, (argtypes, restype) in _SIGNATURES.items():
            fn = getattr(dll, name)
            fn.argtypes, fn.restype = argtypes, restype
    except (OSError, AttributeError):
        return None
    return SimpleNamespace(dll=dll, build=build, pid=os.getpid(),
                           team=max(1, dll.repro_max_threads()), override=None,
                           isa=dll.repro_stencil_isa().decode())


def _csr(n, positions, indptr, indices):
    """C-ready ``positions, indptr, indices`` of one CSR over ``n`` agents
    (the C side reads every stored pair; a short array would be overrun)."""
    pos = np.ascontiguousarray(positions, dtype=np.float64)
    ip, ix = (np.ascontiguousarray(a, dtype=np.int64)
              for a in (indptr, indices))
    if pos.shape != (n, 3) or ip.shape != (n + 1,) or ip[n] > len(ix):
        raise ValueError(f"the arrays do not describe one CSR over {n} agents")
    return pos, ip, ix


def _field_args(grid, positions, idx, *scalars):
    """C-ready ``(cells, idx, *scalars)`` of a field kernel call, or None if
    the call belongs to NumPy: the grid is not a C-ordered float64 r^3
    array, the positions no C-ordered float64 ``(n, 3)``, ``idx`` no 1-D
    integer array, or a scalar no Python int / float that a double holds
    (an array, a numpy scalar other than float64, an int beyond 2^1024)."""
    c, r = grid.concentration, grid.resolution
    if (c.dtype != np.float64 or not c.flags.c_contiguous
            or c.shape != (r, r, r) or positions.dtype != np.float64
            or not positions.flags.c_contiguous or positions.ndim != 2
            or positions.shape[1] != 3 or not isinstance(idx, np.ndarray)
            or idx.ndim != 1 or idx.dtype.kind not in "iu"
            or not all(isinstance(x, (int, float)) for x in scalars)):
        return None
    try:
        doubles = [float(x) for x in scalars]
    except OverflowError:
        return None
    return (c, np.ascontiguousarray(idx, dtype=np.int64), *doubles)


def _search_into(dll, grid, indptr, at, resume, stage=None):
    """Run or go on with a search over ``grid`` (the first 11 arguments of
    ``repro_grid_search``) into ``stage`` (4 slots an agent if None: an
    exact build at the benchmark density keeps ~3.5 forward pairs an
    agent, and each growth costs a copy and one more call), doubled while
    a row's candidates do not fit; then scatter and fill: the CSR."""
    n = len(indptr) - 1
    if stage is None:
        stage = np.empty(4 * n, dtype=np.int64)
    while (total := dll.repro_grid_search(*grid, stage, len(stage), resume,
                                          indptr, at)) < 0:
        grown = np.empty(max(-total, 2 * len(stage)), dtype=np.int64)
        grown[:resume[2]] = stage[:resume[2]]
        stage = grown
    cursor = np.empty(n, dtype=np.int64)
    rows = np.empty(2 * total, dtype=np.int64)  # full rows, unsorted
    dll.repro_grid_scatter(stage, at, grid[1], indptr, n, cursor, rows)
    del stage  # before indices: the peak is max(stage, indices) + rows
    indices = np.empty(2 * total, dtype=np.int64)
    dll.repro_grid_fill(rows, indptr, indptr, n, cursor, indices)
    return indptr, indices


#: ``madvise`` advice that faults pages in writable without writing them
#: (Linux >= 5.14); elsewhere the call fails and changes nothing.
_MADV_POPULATE_WRITE = 23


@functools.cache
def _madvise():
    """libc's ``madvise``, or None where this process has no libc."""
    try:
        fn = ctypes.CDLL(None, use_errno=True).madvise
    except (OSError, AttributeError, TypeError):  # TypeError: no CDLL(None)
        return None
    fn.argtypes, fn.restype = [_P, ctypes.c_size_t, _N], _N
    return fn


def _populate(a) -> None:
    """Fault in the whole pages of ``a``'s buffer without touching a byte,
    so a thread may do it while another writes there."""
    madvise, page = _madvise(), mmap.PAGESIZE
    lo = -(-a.ctypes.data // page) * page
    hi = (a.ctypes.data + a.nbytes) // page * page
    if madvise is not None and hi > lo:
        madvise(lo, hi - lo, _MADV_POPULATE_WRITE)


class _SearchThread(threading.Thread):
    """A thread whose target is one ctypes call: :meth:`run` only reads the
    clock around it and keeps its exception for the joining thread."""

    error = None
    began = ended = 0

    def run(self):
        self.began = time.perf_counter_ns()
        try:
            super().run()
        except BaseException as exc:  # re-raised by PendingSearch.result
            self.error = exc
        self.ended = time.perf_counter_ns()


class PendingSearch:
    """One grid search running as a single GIL-free ``repro_grid_csr``
    call on a helper thread (:meth:`CKernelBackend.start_grid_search`).

    Every buffer was allocated by the thread that started it; the helper
    allocates nothing and touches no Python object but its own.
    :meth:`wait` joins the helper, :meth:`result` also hands over the CSR
    (finishing an overflowed stage on the calling thread) or re-raises
    the helper's exception.  ``waited`` is the joining thread's wait in
    seconds; ``began`` / ``ended`` the helper's ``perf_counter_ns``.
    """

    def __init__(self, backend, grid, n):
        self._backend, self._grid = backend, grid
        self._resume = np.zeros(3, dtype=np.int64)
        self._total = np.zeros(1, dtype=np.int64)
        self._scratch = at, stage, cursor, rows = backend._take_scratch(n)
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        # Room for every pair the stage holds; the CSR's is its prefix.
        self._indices = np.empty(len(rows), dtype=np.int64)
        self.waited = 0.0
        address = [a.ctypes.data if isinstance(a, np.ndarray) else a
                   for a in grid]
        address += [stage.ctypes.data, len(stage)]
        address += [a.ctypes.data for a in (
            self._resume, self.indptr, at, cursor, rows, self._indices,
            self._total)]
        self._thread = _SearchThread(target=backend._lib.dll.repro_grid_csr,
                                     name=SEARCH_THREAD, args=address)
        self._thread.start()
        # The fill, the helper's last step, writes indices: fault its fresh
        # pages in from this thread, which reaches the join with time to
        # spare, as far as the last search's pairs reached.
        _populate(self._indices[:backend._pairs])

    @property
    def began(self) -> int:
        """``perf_counter_ns`` as the helper's call started (0 before)."""
        return self._thread.began

    @property
    def ended(self) -> int:
        """``perf_counter_ns`` as the helper's call returned (0 before)."""
        return self._thread.ended

    def wait(self) -> None:
        """Join the helper; ``waited`` adds the time this took."""
        t0 = time.perf_counter()
        self._thread.join()
        self.waited += time.perf_counter() - t0

    def result(self):
        """The CSR ``(indptr, indices)``, after :meth:`wait`; the helper's
        exception, with its type, if it raised.  A stage that overflowed
        goes on here through the synchronous search's growth loop, from
        where the helper stopped.  Call it once."""
        self.wait()
        scratch, self._scratch = self._scratch, None
        indices, self._indices = self._indices, None
        try:
            if self._thread.error is not None:
                raise self._thread.error
            total = int(self._total[0])
            if total < 0:
                del indices
                csr = _search_into(self._backend._lib.dll, self._grid,
                                   self.indptr, scratch[0], self._resume,
                                   scratch[1])
            else:
                csr = self.indptr, indices[:2 * total]
            self._backend._pairs = len(csr[1])
            return csr
        finally:
            self._backend._scratch = scratch  # for the next search


def available() -> bool:
    """Whether the library is built (building it on first call)."""
    return _library() is not None


def _set_threads(n: int | None) -> None:
    """Test hook: run the parent's calls on ``n`` threads (None: default)."""
    _library().override = n


class CKernelBackend(numpy_ref.NumpyKernelBackend):
    """Force, refilter, float64 stencil, secretion and chemotaxis, grid
    build and search, Morton order and CSR relabel in C; else NumPy."""

    name = "c"
    compiled = True

    def __init__(self):
        super().__init__()
        self._lib = _library()
        if self._lib is None:
            raise ImportError("the C kernel library could not be built")
        self.build = self._lib.build
        self.stencil_isa = self._lib.isa
        #: The overlapped search's reusable buffers (:meth:`_take_scratch`),
        #: None while a pending search holds them.
        self._scratch = None
        #: Directed pairs the last overlapped search found.
        self._pairs = 0

    @property
    def threads(self) -> int:
        """1 in any child process (pool or serve worker, or anything
        forked after loading), whose calls then enter no OpenMP construct;
        else the loading process's team."""
        lib = self._lib
        if os.getpid() != lib.pid or multiprocessing.parent_process():
            return 1
        return lib.override or lib.team

    def force_rows(self, force_model, positions, diameters, indptr, indices,
                   active, net_out, nz_out, lo, hi) -> int:
        """Rows ``[lo, hi)`` into C-contiguous ``net_out`` / ``nz_out``
        (:meth:`force` runs every row through here).  A force-model
        subclass runs its ``pair_forces`` in NumPy and counts a fallback."""
        if force_model is not None and not _is_plain_cortex3d(force_model):
            self.fallbacks += 1
            return super().force_rows(force_model, positions, diameters,
                                      indptr, indices, active, net_out,
                                      nz_out, lo, hi)
        self._count()
        n = len(positions)
        pos, ip, ix = _csr(n, positions, indptr, indices)
        dia = np.ascontiguousarray(diameters, dtype=np.float64)
        if active is not None:
            active = np.ascontiguousarray(active, dtype=np.bool_)
        if (dia.shape != (n,) or not 0 <= lo <= hi <= n
                or net_out.shape != (n, 3) or nz_out.shape != (n,)
                or (active is not None and active.shape != (n,))):
            raise ValueError(f"force arrays do not fit {n} agents")
        return int(self._lib.dll.repro_force_rows(
            pos, dia, ip, ix, None if active is None else active.ctypes.data,
            getattr(force_model, "repulsion", 2.0),
            getattr(force_model, "attraction", 0.4), net_out, nz_out, lo, hi,
            self.threads))

    def refilter(self, indptr, indices, qi, positions, radius):
        """Count, prefix sum, fill: one thread per row (``qi`` is not
        read, and may be None)."""
        self._count()
        n = len(indptr) - 1
        if len(indices) == 0:
            return indptr, indices, np.empty(0, dtype=np.int64)
        pos, ip, ix = _csr(n, positions, indptr, indices)
        threads, dll = self.threads, self._lib.dll
        keep = np.empty(len(ix), dtype=np.uint8)
        new_indptr = np.empty(n + 1, dtype=np.int64)
        kept = dll.repro_refilter_count(pos, ip, ix, n, radius * radius, keep,
                                        new_indptr, threads)
        new_indices, new_qi = np.empty((2, kept), dtype=np.int64)
        dll.repro_refilter_fill(ip, ix, keep, n, new_indptr, new_indices,
                                new_qi, threads)
        return new_indptr, new_indices, new_qi

    def grid_build(self, positions, mins, dims, box_len, box_start,
                   box_count, box_stamp, timestamp):
        """Box ids, a radix sort and one pass over the sorted agents."""
        self._count()
        self.grid_builds += 1
        pos = np.ascontiguousarray(positions, dtype=np.float64)
        n = len(pos)
        if (min(map(len, (box_start, box_count, box_stamp))) < np.prod(dims)
                or pos.shape != (n, 3) or len(mins) != 3 or len(dims) != 3):
            raise ValueError("the arrays do not describe one grid")
        box, order, successor = np.empty((3, n), dtype=np.int64)
        occupied, run_start = (np.empty(k, dtype=np.int64) for k in (n, n + 1))
        xyz = np.empty((n, 3))
        m = self._lib.dll.repro_grid_build(
            pos, n, np.ascontiguousarray(mins, dtype=np.float64), box_len,
            dims, box_start, box_count, box_stamp, timestamp, box, order,
            successor, occupied, run_start, xyz,
            np.empty(_RADIX, dtype=np.int64))
        # Copied to their length: the grid keeps no n-sized buffer for them.
        return (box, order, occupied[:m].copy(), run_start[:m + 1].copy(),
                successor, xyz)

    def _grid(self, xyz, radius, order, run_start, occupied, dims,
              box_start, box_count, box_stamp, timestamp):
        """The first 11 arguments of ``repro_grid_search`` over one finished
        build (int64 arrays in C order), counting one search."""
        self._count()
        self.search_calls += 1
        n = len(order)
        if (min(map(len, (box_start, box_count, box_stamp))) < np.prod(dims)
                or len(run_start) != len(occupied) + 1
                or run_start[-1] != n or xyz.shape != (n, 3)
                or xyz.dtype != np.float64 or not xyz.flags.c_contiguous):
            raise ValueError("the arrays do not describe one grid build")
        order, occupied, run_start, box_start, box_count, box_stamp, dims = (
            np.ascontiguousarray(a, dtype=np.int64) for a in (
                order, occupied, run_start, box_start, box_count, box_stamp,
                dims))
        return (xyz, order, occupied, run_start, len(occupied), box_start,
                box_count, box_stamp, timestamp, dims, radius * radius)

    def grid_search(self, xyz, radius, order, run_start, occupied, dims,
                    box_start, box_count, box_stamp, timestamp):
        """On one thread: forward pairs go into a NumPy stage, doubled
        while a row's candidates do not fit, then into both of their rows,
        then a transposing fill."""
        grid = self._grid(xyz, radius, order, run_start, occupied, dims,
                          box_start, box_count, box_stamp, timestamp)
        n = len(order)
        return _search_into(self._lib.dll, grid,
                            np.zeros(n + 1, dtype=np.int64),
                            np.empty(n + 1, dtype=np.int64),
                            np.zeros(3, dtype=np.int64))  # box, row, slots

    def start_grid_search(self, xyz, radius, order, run_start, occupied,
                          dims, box_start, box_count, box_stamp, timestamp):
        """:meth:`grid_search` as one ``repro_grid_csr`` call on a helper
        thread: the same kernels on the same arrays, so the same bytes."""
        grid = self._grid(xyz, radius, order, run_start, occupied, dims,
                          box_start, box_count, box_stamp, timestamp)
        return PendingSearch(self, grid, len(order))

    def _take_scratch(self, n):
        """``(at, stage, cursor, rows)`` for an overlapped search over ``n``
        agents: the last search's if they fit (and are not twice too big),
        else new ones with an eighth to spare.  Kept between searches so
        that their pages are resident: a fresh page costs the helper a
        fault.  The stage has the synchronous search's 4 slots an agent,
        rows room for every pair it can hold."""
        scratch, self._scratch = self._scratch, None
        if scratch is None or not n <= len(scratch[2]) <= 2 * n + 64:
            m = n + n // 8
            stage = np.empty(4 * m, dtype=np.int64)
            scratch = (np.empty(m + 1, dtype=np.int64), stage,
                       np.empty(m, dtype=np.int64),
                       np.empty(2 * len(stage), dtype=np.int64))
        return scratch

    def morton_order(self, positions, mins, dims, box_len):
        """Box coordinates, Morton codes and a radix sort by code."""
        if len(dims) != 3 or max(dims) > _MORTON_AXIS:
            return None
        self._count()
        self.sort_calls += 1
        pos = np.ascontiguousarray(positions, dtype=np.float64)
        n = len(pos)
        if pos.shape != (n, 3) or len(mins) != 3:
            raise ValueError("the arrays do not describe one grid")
        order = np.empty(n, dtype=np.int64)
        code, buf = np.empty((2, n), dtype=np.int64)
        self._lib.dll.repro_morton_order(
            pos, n, np.ascontiguousarray(mins, dtype=np.float64), box_len,
            np.ascontiguousarray(dims, dtype=np.int64), code, order, buf,
            np.empty(_RADIX, dtype=np.int64))
        return order

    def relabel_csr(self, indptr, indices, order):
        """The grid search's transposing fill, reading the old rows in the
        new order through the inverse permutation: one pass."""
        self._count()
        ip, ix, order = (np.ascontiguousarray(a, dtype=np.int64)
                         for a in (indptr, indices, order))
        n = len(ip) - 1
        if (n < 0 or order.shape != (n,) or ip[0] != 0 or ip[n] > len(ix)
                or np.any(ip[1:] < ip[:-1])):
            raise ValueError(f"the arrays do not describe one CSR over "
                             f"{len(order)} agents")
        inv, cursor = np.empty((2, n), dtype=np.int64)
        new_indptr = np.empty(n + 1, dtype=np.int64)
        new_indices = np.empty(ip[n], dtype=np.int64)
        if self._lib.dll.repro_csr_relabel(ip, ix, order, n, inv, cursor,
                                           new_indptr, new_indices) < 0:
            raise ValueError("order is not a permutation of the rows, a "
                             "column is out of range, or the CSR is not "
                             "symmetric")
        return new_indptr, new_indices

    def diffuse(self, concentration, voxel_size, diffusion_coefficient,
                decay, dt, out=None):
        """The float64 stencil in C; other dtypes and an ``out`` the C loop
        cannot fill (NumPy raises for the wrong ones) go to NumPy."""
        c = concentration
        if c.dtype != np.float64 or out is not None and not (
                out.flags.c_contiguous and out.shape == c.shape
                and out.dtype == c.dtype and not np.may_share_memory(out, c)):
            return super().diffuse(c, voxel_size, diffusion_coefficient,
                                   decay, dt, out)
        self._count()
        c = np.ascontiguousarray(c)
        out = np.empty_like(c) if out is None else out
        if c.size:
            self._lib.dll.repro_diffuse(c, out, *c.shape, voxel_size**2,
                                        diffusion_coefficient, decay, dt,
                                        self.threads)
        return out

    def secrete(self, grid, positions, idx, amount):
        """On one thread, in ``idx`` order.  A call :func:`_field_args`
        refuses, or whose agents C cannot locate exactly (``locatable`` in
        ``_kernels.c``), runs in NumPy and counts a fallback."""
        args = _field_args(grid, positions, idx, amount)
        if args is None or self._lib.dll.repro_secrete(
                args[0], grid.resolution, grid.lower, grid.voxel_size,
                positions, len(positions), args[1], len(args[1]),
                args[2]) < 0:
            self.fallbacks += 1
            return numpy_ref.secrete(grid, positions, idx, amount)
        self._count()
        self.field_calls += 1

    def chemotaxis(self, grid, positions, moved, idx, speed, dt):
        """One agent per iteration on the team; what :meth:`secrete` hands
        to NumPy, and a ``moved`` that is no C-ordered bool column, goes
        there too."""
        args = _field_args(grid, positions, idx, speed, dt)
        if (args is None or moved.dtype != np.bool_
                or not moved.flags.c_contiguous
                or moved.shape != (len(positions),)
                or self._lib.dll.repro_chemotaxis(
                    args[0], grid.resolution, grid.lower, grid.voxel_size,
                    positions, moved.view(np.uint8), len(positions), args[1],
                    len(args[1]), *args[2:], self.threads) < 0):
            self.fallbacks += 1
            return numpy_ref.chemotaxis(grid, positions, moved, idx, speed,
                                        dt)
        self._count()
        self.field_calls += 1
