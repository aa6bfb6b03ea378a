"""The ``c`` kernel backend: force, refilter, stencil, agent-field
coupling, grid build and search, agent sorting's order and the superset
relabel.

:class:`CKernelBackend` runs the stock Cortex3D force, the displacement,
the Verlet-cache refilter, the float64 stencil (an AVX2 clone where the
CPU has it), secretion and chemotaxis, the uniform grid's build and
neighbor search, the Morton order of agent sorting and the renumbering of
a cached superset CSR through ``_kernels.c`` (OpenMP) via :mod:`ctypes`
(which releases the GIL per call); the rest is the inherited NumPy code,
whose bytes the C kernels reproduce.  A grid build and its search run as
one chunked job on two threads (:class:`GridTask`): a helper beside the
interpreter, and the CSR's first reader.  ``docs/kernels.md`` has the
bitwise, build and thread rules.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import math
import mmap
import os
import shutil
import subprocess
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from repro.kernels import numpy_ref
from repro.kernels.api import MOVE_EPSILON, _is_plain_cortex3d

__all__ = ["CKernelBackend", "GridTask", "SEARCH_THREAD", "available"]

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
    "repro_team_used": ([], _N),
    "repro_force_rows": ([_D, _D, _L, _L, _P, _F, _F, _D, _L, _I, _I, _N],
                         _I),
    "repro_refilter_count": ([_D, _L, _L, _I, _F, _U, _L, _N], _I),
    "repro_refilter_fill": ([_L, _L, _U, _I, _L, _L, _N], None),
    "repro_diffuse": ([_D, _D, _I, _I, _I, _F, _F, _F, _F, _N], None),
    "repro_stencil_isa": ([], ctypes.c_char_p),
    "repro_secrete": ([_D, _I, _F, _F, _D, _I, _L, _I, _F], _I),
    "repro_chemotaxis": ([_D, _I, _F, _F, _D, _U, _I, _L, _I, _F, _F, _N],
                         _I),
    "repro_grid_bounds": ([_D, _I, _D, _D], None),
    # Raw addresses from here on: converting them takes a thread no
    # Python code, and a NULL is a None.
    "repro_grid_task_size": ([], _I),
    "repro_grid_task": ([_P, _P, _I, _P, _F, _P, _P, _P, _P, _I, _P, _P, _P,
                         _P, _P, _P, _P, _F, _P, _I, _P, _P, _P, _P, _P, _P,
                         _P, _I, _P, _P, _P], None),
    "repro_grid_work": ([_P, _N, _I], _I),
    "repro_grid_csr": ([_P], None),
    "repro_grid_resume": ([_P], _I),
    "repro_grid_finish": ([_P, _P, _P], _I),
    "repro_displace": ([_P, _P, _P, _F, _F, _F, _P, _I, _I], None),
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
    ``pid`` that loaded it or last looked at it, and its ``team``), None
    if it cannot be built.  The cache is
    ``${XDG_CACHE_HOME:-~/.cache}/repro/kernels/``, never :mod:`tempfile`,
    whose directory ``perf/run.py`` deletes per run."""
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


#: Search chunks of a grid task: box ranges of ~n / _CHUNKS agents, short
#: enough that the thread finishing last waits for little.
_CHUNKS = 32
#: int64 slots of a chunk-table row (``CHUNK`` in ``_kernels.c``): resume
#: (box, row, staged slots), end box, region slots, region address, state
#: (1 done, -(slots it needs) overflowed), first row.
_ROW = 8
_END, _SLOTS, _REGION, _STATE, _FIRST = 3, 4, 5, 6, 7


def _search_into(dll, ctl, table):
    """Finish, on the joining thread, the chunks of a grid task whose stage
    region overflowed, with the growth loop: each gets a region twice its
    size (or what it asked for) in one new stage, holding what it had
    staged, and goes on from where it stopped (``repro_grid_resume``),
    again while any overflows.  Regions are sized from the last search,
    so this runs about once per density step.  The table is pointed at
    the new regions, which are returned: the caller keeps them until the
    merge."""
    grown = []
    while (over := np.flatnonzero(table[:, _STATE] < 0)).size:
        rows = table[over]
        slots = np.maximum(-rows[:, _STATE], 2 * rows[:, _SLOTS])
        stage = np.empty(int(slots.sum()), dtype=np.int64)
        at = stage.ctypes.data + 8 * (np.cumsum(slots) - slots)
        for old, new, used in zip(rows[:, _REGION].tolist(), at.tolist(),
                                  rows[:, 2].tolist()):
            ctypes.memmove(new, old, 8 * used)
        table[over, _SLOTS], table[over, _REGION], table[over, _STATE] = (
            slots, at, 0)
        grown.append(stage)
        dll.repro_grid_resume(ctl)
    return grown


#: ``madvise`` advice that faults pages in writable without writing them
#: (Linux >= 5.14); elsewhere the call fails and changes nothing.
_MADV_POPULATE_WRITE = 23

#: The grid-task buffers of the last backend closed in this process, for
#: the next backend's first task (one set at most;
#: :meth:`CKernelBackend.close`).
_spare_scratch: list = []


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
    clock around it and keeps its exception for the joining thread.
    ``keep`` holds the owner of the call's buffers until the call returns
    (the call gets raw addresses)."""

    error = None
    began = ended = 0
    keep = None

    def run(self):
        self.began = time.perf_counter_ns()
        try:
            super().run()
        except BaseException as exc:  # re-raised by GridTask.result
            self.error = exc
        self.ended = time.perf_counter_ns()
        self.keep = None


class GridTask:
    """A uniform-grid build and its search as one job for two threads
    (``repro_grid_work`` in ``_kernels.c``): a helper and the CSR's first
    reader claim the build, then the search's box-range chunks, and the
    thread completing the last chunk merges them into the CSR, whose bytes
    do not depend on which thread ran what.

    The thread that makes the task allocates every buffer
    (:meth:`CKernelBackend.grid_task` and :meth:`plan`); a helper makes one
    ctypes call and allocates nothing.  :meth:`build` runs the build on the
    calling thread, :meth:`start` starts the helper (:attr:`started`),
    :meth:`result` joins the job -- running the chunks nobody claimed yet
    -- and hands over the CSR, :meth:`run` does both at once (no helper on
    a one-thread backend).  ``waited`` is the seconds the reader spent in
    :meth:`result` or :meth:`wait`, ``joined`` the chunks it ran.
    """

    waited = 0.0
    joined = 0
    _thread = None

    def __init__(self, backend, n, radius):
        backend._count()
        self._backend, self._radius, self.n = backend, radius, n
        self._r3 = radius ** 3
        self._dll = backend._lib.dll
        # Each chunk's pairs an agent in the last search, kept per cubed
        # radius (a superset build's larger radius scales them up).  The
        # stage holds every chunk's region (plan_chunks), whatever its
        # agents.
        density = backend._density * self._r3
        self._cap = cap = math.ceil(
            n * max(4.0, 1.25 * float(density.max()))) + 2 * _CHUNKS
        self._scratch = sc = backend._take_scratch(n, cap)
        sc.density[:] = density
        self.bounds = np.empty(6)
        self.indptr = np.empty(n + 1, dtype=np.int64)
        # Room for every pair the stage holds; the CSR's is its prefix.
        self._indices = np.empty(2 * cap, dtype=np.int64)
        self._info = np.zeros(4, dtype=np.int64)

    def plan(self, mins, dims, box_len, box_start, box_count, box_stamp,
             timestamp):
        """Allocate the build's outputs and hand the job its geometry:
        ``mins`` / ``dims`` / ``box_len`` from :attr:`bounds`, box arrays of
        at least ``prod(dims)`` entries."""
        n = self.n
        if (min(map(len, (box_start, box_count, box_stamp))) < np.prod(dims)
                or len(mins) != 3 or len(dims) != 3):
            raise ValueError("the arrays do not describe one grid")
        self._backend.grid_builds += 1
        kept = self._scratch.addresses
        box, order, successor = np.empty((3, n), dtype=np.int64)
        occupied, run_start = (np.empty(k, dtype=np.int64) for k in (n, n + 1))
        self._built = (box, order, successor, np.empty((n, 3)))
        self._runs = occupied, run_start
        self._mins = np.ascontiguousarray(mins, dtype=np.float64)
        self._dims = np.ascontiguousarray(dims, dtype=np.int64)
        # The box arrays the build writes, held while a helper may.
        self._held = box_start, box_count, box_stamp
        self._ctl = kept["ctl"]
        self._dll.repro_grid_task(
            self._ctl, kept["snapshot"], n, self._mins.ctypes.data, box_len,
            self._dims.ctypes.data,
            *(a.ctypes.data for a in (box_start, box_count, box_stamp)),
            timestamp, *(a.ctypes.data for a in (
                box, order, successor, occupied, run_start, self._built[3])),
            kept["hist"], self._radius * self._radius, kept["stage"],
            self._cap, kept["counts0"], kept["counts1"], kept["at"],
            self.indptr.ctypes.data, kept["cursor"], kept["rows"],
            self._indices.ctypes.data, _CHUNKS, kept["table"],
            kept["density"], self._info.ctypes.data)

    def outputs(self):
        """``(box_of_agent, order, occupied, run_start, successor, xyz)`` of
        the build, after it ran."""
        box, order, successor, xyz = self._built
        (occupied, run_start), m = self._runs, int(self._info[0])
        return box, order, occupied[:m], run_start[:m + 1], successor, xyz

    def build(self):
        """Run the build on this thread (unless it ran): :meth:`outputs`."""
        self._dll.repro_grid_work(self._ctl, 1, 0)
        return self.outputs()

    @property
    def started(self) -> bool:
        """Whether :meth:`start` gave the job a helper."""
        return self._thread is not None

    @property
    def began(self) -> int:
        """``perf_counter_ns`` as the helper's call started (0 before)."""
        return 0 if self._thread is None else self._thread.began

    @property
    def ended(self) -> int:
        """``perf_counter_ns`` as the helper's call returned (0 before)."""
        return 0 if self._thread is None else self._thread.ended

    def start(self):
        """Start the job on a helper thread; returns the task."""
        self._backend.search_calls += 1
        self._thread = _SearchThread(target=self._dll.repro_grid_csr,
                                     name=SEARCH_THREAD, args=(self._ctl,))
        self._thread.keep = self
        self._thread.start()
        # The fill, the job's last step, writes indices: fault its fresh
        # pages in from this thread, which reaches the join with time to
        # spare, as far as the last search's pairs reached.
        pairs = self._backend._pairs * self._r3 * self.n
        _populate(self._indices[:int(min(pairs, len(self._indices)))])
        return self

    def wait(self) -> None:
        """Join the helper, which then has run every chunk nobody claimed;
        ``waited`` adds the time this took."""
        if self._thread is not None:
            t0 = time.perf_counter()
            self._thread.join()
            self.waited += time.perf_counter() - t0

    def run(self):
        """:meth:`result` of the job run at once: with a helper beside
        this thread on a backend with more than one, else on this one."""
        if self._backend.threads > 1:
            self.start()
        return self.result()

    def result(self):
        """The CSR ``(indptr, indices)``: this thread runs the build if
        nobody has, and the chunks nobody claimed, then joins the helper;
        the helper's exception, with its type, if it raised.  Chunks whose
        region overflowed are finished here (:func:`_search_into`).  Call
        it once."""
        if self._thread is None:
            self._backend.search_calls += 1
        t0 = time.perf_counter()
        try:
            self.joined = self._dll.repro_grid_work(self._ctl, 1, -1)
            if self._thread is not None:
                self._thread.join()
                if self._thread.error is not None:
                    raise self._thread.error
            return self._csr()
        finally:
            self.waited += time.perf_counter() - t0
            self.release()

    def _csr(self):
        sc, backend, total = self._scratch, self._backend, int(self._info[1])
        table = sc.table
        if total < 0:
            backend.search_overflows += 1
            regions = _search_into(self._dll, self._ctl, table)
            total = int(table[:, 2].sum())
            rows, indices = (np.empty(2 * total, dtype=np.int64)
                             for _ in range(2))
            self._dll.repro_grid_finish(self._ctl, rows.ctypes.data,
                                        indices.ctypes.data)
            del regions, rows
        else:
            indices = self._indices[:2 * total]
        self._indices = None
        # The next search sizes its regions from these.
        agents = self._runs[1][table[:, _END]] - table[:, _FIRST]
        backend._density = table[:, 2] / np.maximum(agents, 1) / self._r3
        backend._pairs = 2 * total / self.n / self._r3
        return self.indptr, indices

    def release(self) -> None:
        """Hand the kept buffers back for the next task: after
        :meth:`result`, or for a task never started -- never while a
        helper may still write them (a join interrupted)."""
        if self._thread is not None and self._thread.is_alive():
            return
        if self._scratch is not None:
            self._backend._scratch, self._scratch = self._scratch, None


def available() -> bool:
    """Whether the library is built (building it on first call)."""
    return _library() is not None


def _set_threads(n: int | None) -> None:
    """Test hook: run the parent's calls on ``n`` threads (None: default)."""
    _library().override = n


class CKernelBackend(numpy_ref.NumpyKernelBackend):
    """Force, displacement, refilter, float64 stencil, secretion and
    chemotaxis, grid build and search, Morton order and CSR relabel in C;
    else NumPy."""

    name = "c"
    compiled = True
    refilter_reads_qi = False

    def __init__(self):
        super().__init__()
        self._lib = _library()
        if self._lib is None:
            raise ImportError("the C kernel library could not be built")
        self.build = self._lib.build
        self.stencil_isa = self._lib.isa
        self._pinned = False
        #: A grid task's kept buffers (:meth:`_take_scratch`), None while a
        #: task holds them.
        self._scratch = None
        #: The last search's forward pairs an agent in each chunk, and its
        #: directed pairs an agent, per cubed radius: a grid task sizes its
        #: buffers from them.
        self._density = np.zeros(_CHUNKS)
        self._pairs = 0.0

    def sizing_hints(self) -> dict:
        """The last search's per-chunk density and pairs an agent."""
        return {"density": self._density.tolist(), "pairs": self._pairs}

    def load_sizing_hints(self, hints: dict) -> None:
        if len(hints.get("density", ())) == _CHUNKS:
            self._density = np.array(hints["density"], dtype=np.float64)
            self._pairs = float(hints["pairs"])

    @property
    def threads(self) -> int:
        """The loading process's team, and a forked child's if the
        library it inherited never opened a parallel region (a serve
        worker); else 1, whose calls enter no OpenMP construct.  1 too
        once :meth:`pin_one_thread` ran.  The flag sees only this
        library's regions: a child of a process where another library
        opened one first takes the team and hangs in its first region
        (``docs/kernels.md``, "Threads")."""
        lib = self._lib
        if self._pinned:
            return 1
        if os.getpid() != lib.pid:
            # The first look since a fork, before any call of this
            # process could open a region: libgomp's team survives fork
            # only if it never started.
            lib.pid = os.getpid()
            if lib.dll.repro_team_used():
                lib.team, lib.override = 1, None
        return lib.override or lib.team

    def pin_one_thread(self) -> None:
        """Run every call of this instance on one thread: a process-pool
        worker's, where the pool is the parallelism."""
        self._pinned = True

    def close(self) -> None:
        """Leave the kept grid-task buffers to the next backend of this
        process.  A serve worker closes a session on every eviction and
        builds one on every resume: the resumed session's first search
        then writes resident pages instead of faulting fresh ones in."""
        if self._scratch is not None:
            _spare_scratch[:] = [self._scratch]
            self._scratch = None

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

    def displace(self, positions, moved_flags, net_force, dt,
                 max_displacement):
        """One pass over the rows; the moved mask is returned."""
        now = np.empty(len(positions), dtype=np.bool_)
        if not self._displace(positions, moved_flags, net_force, dt,
                              max_displacement, now, 0, len(positions)):
            return super().displace(positions, moved_flags, net_force, dt,
                                    max_displacement)
        return now

    def displace_rows(self, positions, moved_flags, net_force, dt,
                      max_displacement, lo, hi) -> None:
        """Rows ``[lo, hi)`` of :meth:`displace`."""
        if not self._displace(positions, moved_flags, net_force, dt,
                              max_displacement, None, lo, hi):
            super().displace_rows(positions, moved_flags, net_force, dt,
                                  max_displacement, lo, hi)

    def _displace(self, positions, moved, net, dt, max_displacement, now,
                  lo, hi) -> bool:
        """``repro_displace`` over rows ``[lo, hi)``, on one thread; False
        (a fallback counted, nothing written) unless the positions and
        forces are C-ordered float64 ``(n, 3)``, ``moved`` a C-ordered bool
        ``(n,)`` and the scalars Python ints or floats."""
        n = len(positions)
        if (not all(isinstance(a, np.ndarray) and a.dtype == np.float64
                    and a.shape == (n, 3) and a.flags.c_contiguous
                    for a in (positions, net))
                or not isinstance(moved, np.ndarray)
                or moved.dtype != np.bool_ or moved.shape != (n,)
                or not moved.flags.c_contiguous or not 0 <= lo <= hi <= n
                or not all(isinstance(x, (int, float))
                           for x in (dt, max_displacement))):
            self.fallbacks += 1
            return False
        self._count()
        self._lib.dll.repro_displace(
            positions.ctypes.data, moved.ctypes.data, net.ctypes.data,
            float(dt), float(max_displacement), MOVE_EPSILON,
            None if now is None else now.ctypes.data, lo, hi)
        return True

    def refilter(self, indptr, indices, qi, positions, radius):
        """Count, prefix sum, fill: one thread per row (``qi`` is not
        read, and may be None)."""
        self._count()
        n = len(indptr) - 1
        if len(indices) == 0:
            return indptr, indices
        pos, ip, ix = _csr(n, positions, indptr, indices)
        threads, dll = self.threads, self._lib.dll
        keep = np.empty(len(ix), dtype=np.uint8)
        new_indptr = np.empty(n + 1, dtype=np.int64)
        kept = dll.repro_refilter_count(pos, ip, ix, n, radius * radius, keep,
                                        new_indptr, threads)
        new_indices = np.empty(kept, dtype=np.int64)
        dll.repro_refilter_fill(ip, ix, keep, n, new_indptr, new_indices,
                                threads)
        return new_indptr, new_indices

    def grid_task(self, positions, radius):
        """A :class:`GridTask` (build and search at ``radius``) over
        ``positions``, after its first pass: the positions copied into the
        kept snapshot the build reads, whatever moves them meanwhile, and
        their per-column min and max into ``task.bounds``."""
        pos = np.ascontiguousarray(positions, dtype=np.float64)
        n = len(pos)
        if pos.shape != (n, 3) or n == 0:
            raise ValueError("a grid task needs positions of shape (n, 3)")
        task = GridTask(self, n, radius)
        self._lib.dll.repro_grid_bounds(pos, n, task._scratch.snapshot[:n],
                                        task.bounds)
        return task

    def _take_scratch(self, n, cap):
        """A grid task's kept buffers for ``n`` agents and a ``cap``-slot
        stage: the last task's where they fit (and are not four times too
        big), else new ones with an eighth to spare.  Kept between tasks so
        that their pages are resident: a fresh page costs the helper a
        fault.  A backend's first task takes a closed one's
        (:meth:`close`)."""
        sc, self._scratch = self._scratch, None
        if sc is None and _spare_scratch:
            try:
                sc = _spare_scratch.pop()
            except IndexError:  # another thread's backend took it
                pass
        fits = sc is not None
        if sc is None:
            size = -(-self._lib.dll.repro_grid_task_size() // 8)
            sc = SimpleNamespace(
                hist=np.empty(_RADIX, dtype=np.int64),
                ctl=np.zeros(size, dtype=np.int64),
                table=np.zeros((_CHUNKS, _ROW), dtype=np.int64),
                density=np.zeros(_CHUNKS), cursor=np.empty(0, np.int64),
                stage=np.empty(0, dtype=np.int64))
        if not n <= len(sc.cursor) <= 4 * n + 64:
            m, fits = n + n // 8, False
            sc.snapshot, sc.cursor = np.empty((m, 3)), np.empty(m, np.int64)
            sc.at = np.empty(m + 1, dtype=np.int64)
            sc.counts = np.empty((2, m + 1), dtype=np.int64)
        if not cap <= len(sc.stage) <= 4 * cap + 64:
            fits = False
            sc.stage = np.empty(cap + cap // 8, dtype=np.int64)
            sc.rows = np.empty(2 * len(sc.stage), dtype=np.int64)
        if not fits:  # looked up once: .ctypes.data costs microseconds
            sc.addresses = {name: getattr(sc, name).ctypes.data for name in (
                "hist", "ctl", "table", "density", "cursor", "stage",
                "snapshot", "at", "rows")}
            sc.addresses["counts0"], sc.addresses["counts1"] = (
                c.ctypes.data for c in sc.counts)
        return sc

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
