"""Pluggable kernel backends for the hot array kernels.

The package behind ``Param.kernel_backend``: one narrow interface
(:mod:`repro.kernels.api`) over the pairwise CSR force, the clamped
displacement integration, the Verlet refilter and the 7-point diffusion
stencil, with a bitwise NumPy reference (:mod:`repro.kernels.numpy_ref`),
a C/OpenMP backend with the same bytes (:mod:`repro.kernels.c_backend`),
and availability-probing selection
(:mod:`repro.kernels.dispatch`).  See ``docs/kernels.md``.
"""

from repro.kernels.api import (
    FORCE_EPSILON,
    MOVE_EPSILON,
    KernelBackend,
    KernelTolerance,
    tolerance_for,
)
from repro.kernels.dispatch import (
    KNOWN_BACKENDS,
    KernelBackendWarning,
    available_backends,
    make_kernels,
    worker_kernels,
)

__all__ = [
    "FORCE_EPSILON",
    "MOVE_EPSILON",
    "KernelTolerance",
    "tolerance_for",
    "KernelBackend",
    "KNOWN_BACKENDS",
    "KernelBackendWarning",
    "available_backends",
    "make_kernels",
    "worker_kernels",
]
