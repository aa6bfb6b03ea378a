"""The ``c`` kernel backend: force, refilter, stencil, agent-field
coupling, grid build and search, agent sorting's order and the superset
relabel.

:class:`CKernelBackend` runs the stock Cortex3D force, the Verlet-cache
refilter, the float64 stencil (an AVX2 clone where the CPU has it),
secretion and chemotaxis, the uniform grid's build and neighbor search,
the Morton order of agent sorting and the renumbering of a cached
superset CSR through ``_kernels.c`` (OpenMP) via :mod:`ctypes`
(which releases the GIL per call); the rest is the inherited NumPy code,
whose bytes the C kernels reproduce.  ``docs/kernels.md`` has the
bitwise, build and thread rules.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import multiprocessing
import os
import shutil
import subprocess
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from repro.kernels import numpy_ref
from repro.kernels.api import _is_plain_cortex3d

__all__ = ["CKernelBackend", "available"]

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
    "repro_morton_order": ([_D, _I, _D, _F, _L, _L, _L, _L, _L], None),
    "repro_csr_relabel": ([_L, _L, _L, _I, _L, _L, _L, _L], _I),
}
#: Slots of the radix sort's digit histogram (``RADIX`` in ``_kernels.c``).
_RADIX = 1 << 13
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

    def grid_search(self, xyz, radius, order, run_start, occupied, dims,
                    box_start, box_count, box_stamp, timestamp):
        """On one thread: forward pairs go into a NumPy stage, doubled
        while a row's candidates do not fit, then into both of their rows,
        then a transposing fill."""
        self._count()
        self.search_calls += 1
        n = len(order)
        if (min(map(len, (box_start, box_count, box_stamp))) < np.prod(dims)
                or len(run_start) != len(occupied) + 1
                or run_start[-1] != n or xyz.shape != (n, 3)
                or not xyz.flags.c_contiguous):
            raise ValueError("the arrays do not describe one grid build")
        dll = self._lib.dll
        indptr = np.zeros(n + 1, dtype=np.int64)
        at = np.empty(n + 1, dtype=np.int64)
        # 4 slots an agent (an exact build at the benchmark density keeps
        # ~3.5 forward pairs): each growth costs a copy and one more call.
        stage = np.empty(4 * n, dtype=np.int64)
        resume = np.zeros(3, dtype=np.int64)  # box, row, staged slots
        while (total := dll.repro_grid_search(
                xyz, order, occupied, run_start, len(occupied), box_start,
                box_count, box_stamp, timestamp, dims, radius * radius,
                stage, len(stage), resume, indptr, at)) < 0:
            grown = np.empty(max(-total, 2 * len(stage)), dtype=np.int64)
            grown[:resume[2]] = stage[:resume[2]]
            stage = grown
        cursor = np.empty(n, dtype=np.int64)
        rows = np.empty(2 * total, dtype=np.int64)  # full rows, unsorted
        dll.repro_grid_scatter(stage, at, order, indptr, n, cursor, rows)
        del stage  # before indices: the peak is max(stage, indices) + rows
        indices = np.empty(2 * total, dtype=np.int64)
        dll.repro_grid_fill(rows, indptr, indptr, n, cursor, indices)
        return indptr, indices

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
