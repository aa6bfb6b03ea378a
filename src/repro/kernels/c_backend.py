"""The ``c`` kernel backend: force, refilter and stencil in C with OpenMP.

:class:`CKernelBackend` runs the stock Cortex3D force, the Verlet-cache
refilter and the float64 stencil through ``_kernels.c`` via :mod:`ctypes`
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
}


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
                           team=max(1, dll.repro_max_threads()), override=None)


def _csr(n, positions, indptr, indices):
    """C-ready ``positions, indptr, indices`` of one CSR over ``n`` agents
    (the C side reads every stored pair; a short array would be overrun)."""
    pos = np.ascontiguousarray(positions, dtype=np.float64)
    ip, ix = (np.ascontiguousarray(a, dtype=np.int64)
              for a in (indptr, indices))
    if pos.shape != (n, 3) or ip.shape != (n + 1,) or ip[n] > len(ix):
        raise ValueError(f"the arrays do not describe one CSR over {n} agents")
    return pos, ip, ix


def available() -> bool:
    """Whether the library is built (building it on first call)."""
    return _library() is not None


def _set_threads(n: int | None) -> None:
    """Test hook: run the parent's calls on ``n`` threads (None: default)."""
    _library().override = n


class CKernelBackend(numpy_ref.NumpyKernelBackend):
    """Force, refilter and float64 stencil in C; the rest is NumPy."""

    name = "c"
    compiled = True

    def __init__(self):
        super().__init__()
        self._lib = _library()
        if self._lib is None:
            raise ImportError("the C kernel library could not be built")
        self.build = self._lib.build

    @property
    def threads(self) -> int:
        """1 in any child process (pool, serve or shard worker, or anything
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
        """Count, prefix sum, fill: one thread per row."""
        self._count()
        n = len(indptr) - 1
        if len(indices) == 0:
            return indptr, indices, qi
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
