"""Backend selection: probe availability, resolve, fall back with warnings.

``Param.kernel_backend`` names a backend ("numpy" | "c") or
asks for the best available one ("auto").  Resolution happens once, at
:class:`~repro.core.simulation.Simulation` construction, through
:func:`make_kernels`:

- an explicitly requested backend that is unavailable **never raises an
  ImportError** — it warns (:class:`KernelBackendWarning`) and falls
  back to the NumPy reference, so a model parameterized for a machine
  with a C compiler still runs anywhere;
- ``"auto"`` is ``"c"`` when its library builds, else NumPy — with a
  warning, so silent slow runs are visible.

Workers of the process backend call :func:`worker_kernels` with the
parent's *resolved* backend name and cache the instance at module level,
so each worker owns one dispatch table for the
life of the pool.
"""

from __future__ import annotations

import warnings

from repro.kernels.api import KernelBackend

__all__ = [
    "KNOWN_BACKENDS",
    "KernelBackendWarning",
    "available_backends",
    "make_kernels",
    "worker_kernels",
]

#: Backend names accepted by ``Param.kernel_backend`` (plus "auto").
KNOWN_BACKENDS = ("numpy", "c")


class KernelBackendWarning(UserWarning):
    """A requested compiled kernel backend is unavailable; NumPy runs."""


def _probe(name: str) -> bool:
    """Whether backend ``name`` can actually be constructed here.

    Monkeypatch point for the dispatch tests (simulating an absent C
    library); results are not cached so a patched probe takes effect
    immediately.
    """
    if name == "numpy":
        return True
    if name == "c":
        from repro.kernels import c_backend

        return c_backend.available()
    return False


def available_backends() -> dict[str, bool]:
    """Availability of every known backend on this machine."""
    return {name: _probe(name) for name in KNOWN_BACKENDS}


def _construct(name: str) -> KernelBackend:
    if name == "c":
        from repro.kernels.c_backend import CKernelBackend

        return CKernelBackend()
    from repro.kernels.numpy_ref import NumpyKernelBackend

    return NumpyKernelBackend()


def _resolve(requested: str) -> tuple[str, str | None]:
    """Map a requested backend to an available one.

    Returns ``(name, warning)`` where ``warning`` is a message to emit
    (None when the request was satisfied silently).
    """
    if requested == "auto":
        if _probe("c"):
            return "c", None
        return "numpy", (
            "kernel_backend='auto': no compiled backend is available "
            "(the C kernels cannot be built here); using the NumPy "
            "reference kernels"
        )
    if requested in KNOWN_BACKENDS and not _probe(requested):
        return "numpy", (
            f"kernel_backend='{requested}' is not available on this "
            "machine; falling back to the NumPy reference kernels"
        )
    return requested, None


def make_kernels(requested: str, registry=None, warn: bool = True
                 ) -> KernelBackend:
    """Resolve + construct the kernel backend for a simulation.

    ``registry`` (a :class:`repro.obs.core.MetricsRegistry`) gets the
    ``kernel:backend`` gauge, the ``kernel:build`` gauge when the C
    library was asked for, and ``kernel:{calls,fallbacks,threads,
    search_calls,grid_builds,sort_calls,field_calls}`` callbacks bound to
    the returned instance.  ``warn=False`` silences the fallback warning
    (used by workers, which inherit the parent's already-warned
    resolution).
    """
    name, message = _resolve(requested)
    if message and warn:
        warnings.warn(message, KernelBackendWarning, stacklevel=2)
    try:
        backend = _construct(name)
    except ImportError:
        # The probe raced reality (the library failed to load);
        # honor the no-ImportError contract.
        if warn:
            warnings.warn(
                f"kernel backend '{name}' failed to construct; falling "
                "back to the NumPy reference kernels",
                KernelBackendWarning, stacklevel=2,
            )
        backend = _construct("numpy")
    if registry is not None:
        registry.gauge("kernel:backend").set(backend.name)
        if requested in ("c", "auto"):
            registry.gauge("kernel:build").set(backend.build or "unavailable")
        registry.register_callback("kernel:calls", lambda: backend.calls)
        registry.register_callback("kernel:fallbacks",
                                   lambda: backend.fallbacks)
        registry.register_callback("kernel:threads", lambda: backend.threads)
        registry.register_callback("kernel:search_calls",
                                   lambda: backend.search_calls)
        registry.register_callback("kernel:grid_builds",
                                   lambda: backend.grid_builds)
        registry.register_callback("kernel:sort_calls",
                                   lambda: backend.sort_calls)
        registry.register_callback("kernel:field_calls",
                                   lambda: backend.field_calls)
    return backend


#: Per-process cache for worker-side dispatch tables (one instance per
#: worker process, keyed by resolved name).
_WORKER_CACHE: dict[str, KernelBackend] = {}


def worker_kernels(name: str) -> KernelBackend:
    """The worker-side kernel backend for the parent's resolved ``name``.

    Cached at module level so persistent pool workers construct once;
    resolution re-runs quietly, so a worker missing the parent's backend
    degrades to NumPy instead of crashing the pool.
    """
    backend = _WORKER_CACHE.get(name)
    if backend is None:
        backend = make_kernels(name, registry=None, warn=False)
        _WORKER_CACHE[name] = backend
    return backend
