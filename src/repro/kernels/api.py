"""Kernel backend interface: the three hot array kernels behind one API.

With commits staged and dispatch cached, the agent-ops profile is
dominated by behaviors + mechanics — exactly the loops that *GPU
Acceleration of 3D Agent-Based Biological Simulations* (PAPERS.md)
pushes onto compiled, vectorized kernels.  This module defines the
narrow waist those loops go through:

- **force** — the Cortex3D pairwise interaction force accumulated over
  the CSR neighbor lists (paper §5, the most expensive operation);
- **displacement** — the clamped forward-Euler integration step;
- **refilter** — the Verlet cache's distance pass over a superset CSR;
- **diffusion** — the 7-point diffusion-decay stencil (Table 1);
- **agent-field coupling** — ``Secretion`` into and ``Chemotaxis`` up
  the gradient of a substance grid, per agent;
- **grid build and search** — the uniform grid's binning and neighbor
  CSR (§3.1); the NumPy backend leaves both to the grid's own body, the
  reference;
- **sorting** — agent sorting's Morton order (§4.2) and the renumbering
  of the Verlet cache's superset through that permutation; the NumPy
  backend leaves the order to ``core/sorting.py``'s key pipeline, the
  reference, and the superset to be dropped and rebuilt.

:class:`KernelBackend` is the strategy interface; the implementations
live in sibling modules (:mod:`repro.kernels.numpy_ref` — the bitwise
reference, :mod:`repro.kernels.c_backend` — the same bytes from C) and
are selected by ``Param.kernel_backend`` through
:mod:`repro.kernels.dispatch`.  No backend is toleranced:
:func:`tolerance_for` is exact for every kernel on every backend.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "FORCE_EPSILON",
    "MOVE_EPSILON",
    "KernelTolerance",
    "tolerance_for",
    "KernelBackend",
]

#: Relative force magnitudes below this are treated as zero (condition iv
#: of the §5 static-detection mechanism counts non-zero neighbor forces).
#: Canonical definition; re-exported by :mod:`repro.core.force`.
FORCE_EPSILON = 1e-12

#: Movement below this threshold does not count as "moved" (condition i
#: of the §5 static-detection mechanism).  Canonical definition;
#: re-exported by :mod:`repro.parallel.backend`.
MOVE_EPSILON = 1e-9


@dataclass(frozen=True)
class KernelTolerance:
    """Allowed deviation of a compiled kernel from the NumPy reference.

    Compared ``np.allclose``-style: ``|a - b| <= atol + rtol * |b|``
    where ``b`` is the reference output.  ``rtol == atol == 0`` means
    bitwise-exact (the NumPy reference against itself).
    """

    rtol: float
    atol: float

    @property
    def exact(self) -> bool:
        """Whether this tolerance demands bitwise equality."""
        return self.rtol == 0.0 and self.atol == 0.0


def tolerance_for(kernel: str, backend: str) -> KernelTolerance:
    """The tolerance of ``backend`` for ``kernel``: exact, always."""
    return KernelTolerance(rtol=0.0, atol=0.0)


def _is_plain_cortex3d(force_model) -> bool:
    """Whether ``force_model`` is exactly the stock Cortex3D force.

    Every backend hard-codes that force law (the NumPy reference as its
    per-coordinate core); a subclass overriding ``pair_forces`` must take
    the NumPy reference's hook path, which dispatches through the
    (possibly overridden) method.
    """
    from repro.core.force import InteractionForce

    return force_model.__class__ is InteractionForce


class KernelBackend:
    """One implementation of the hot kernels.

    Subclasses set :attr:`name` and :attr:`compiled` and implement the
    ``*_rows`` / full-array entry points.  Call accounting is built in:
    :attr:`calls` counts kernel invocations and :attr:`fallbacks` the
    ones handed to the NumPy reference, both surfaced as ``kernel:*``
    metrics by :func:`repro.kernels.dispatch.make_kernels`.
    """

    #: Backend identifier ("numpy" | "c").
    name = "base"
    #: Whether this backend runs compiled (non-reference) kernels.
    compiled = False
    #: How a compiled backend's library got into this process ("cached"
    #: or "built"); empty for backends that build nothing.
    build = ""
    #: Threads the next kernel call runs on in this process.
    threads = 1
    #: The stencil build the loader chose ("avx2" or "baseline"); empty
    #: for backends that build nothing.
    stencil_isa = ""

    def __init__(self):
        #: Kernel invocations through this backend instance.
        self.calls = 0
        #: Invocations that fell back to the NumPy reference because the
        #: force model is a subclass the compiled kernel cannot express.
        self.fallbacks = 0
        #: Uniform-grid searches this backend ran (:meth:`grid_task`).
        self.search_calls = 0
        #: Searches that outgrew their stage and were finished by the
        #: joining thread.
        self.search_overflows = 0
        #: Uniform-grid builds this backend ran (:meth:`grid_task`).
        self.grid_builds = 0
        #: Agent-sorting orders this backend computed (:meth:`morton_order`).
        self.sort_calls = 0
        #: Agent-field kernels this backend ran (:meth:`secrete`,
        #: :meth:`chemotaxis`); fallbacks are not counted here.
        self.field_calls = 0

    def pin_one_thread(self) -> None:
        """Run every later call on one thread (a process-pool worker's
        backend: the pool is the parallelism).  One already here."""

    def close(self) -> None:
        """The simulation closed: release what this backend keeps between
        calls.  Nothing here."""

    # -- mechanics ------------------------------------------------------- #

    def force(self, force_model, positions, diameters, indptr, indices,
              active=None):
        """Net force on every agent from its CSR neighbors.

        Returns ``(net_force (n,3), nonzero_counts (n,), pairs_evaluated)``
        with the exact semantics of
        :meth:`repro.core.force.InteractionForce.compute` (``active``
        masks the rows whose forces are computed).
        """
        raise NotImplementedError

    def force_rows(self, force_model, positions, diameters, indptr, indices,
                   active, net_out, nz_out, lo, hi) -> int:
        """Compute rows ``[lo, hi)`` into preallocated outputs.

        Writes ``net_out[lo:hi]`` and ``nz_out[lo:hi]`` (other rows are
        untouched) and returns the number of pairs evaluated — the chunk
        kernel of the process backend.
        """
        raise NotImplementedError

    def displace(self, positions, moved_flags, net_force, dt,
                 max_displacement):
        """Clamped forward-Euler displacement, in place.

        Updates ``positions`` and ``moved_flags`` exactly like
        :func:`repro.parallel.backend.apply_displacement`.
        """
        raise NotImplementedError

    def displace_rows(self, positions, moved_flags, net_force, dt,
                      max_displacement, lo, hi) -> None:
        """Row-range displacement (the process backend's chunk kernel)."""
        raise NotImplementedError

    #: Whether :meth:`refilter` reads its ``qi`` argument (else it may be
    #: None, and nobody need build it).
    refilter_reads_qi = True

    def refilter(self, indptr, indices, qi, positions, radius):
        """:func:`repro.env.environment.refilter_csr`'s distance pass."""
        raise NotImplementedError

    def grid_task(self, positions, radius):
        """A uniform-grid build at ``radius`` and its search as one task
        (:class:`repro.kernels.c_backend.GridTask`: ``bounds``, ``plan``,
        ``build``, ``start``, ``run``, ``result``, ``release``) over a
        snapshot of ``positions`` taken now, or None: the grid runs its own
        NumPy build and half-stencil search, the reference."""
        return None

    def sizing_hints(self) -> dict:
        """What this backend learnt from past searches to size the next
        one's buffers, as JSON scalars (a checkpoint's warm hint); the
        result never depends on it."""
        return {}

    def load_sizing_hints(self, hints: dict) -> None:
        """Take over the :meth:`sizing_hints` of a backend of any kind
        (a kind's own hints only; others are ignored)."""

    # -- agent sorting --------------------------------------------------- #

    def morton_order(self, positions, mins, dims, box_len):
        """Agent sorting's order (:func:`repro.core.sorting
        .sort_and_balance`): the stable argsort of each agent's box's Morton
        rank, the boxes those of the grid geometry ``(mins, dims, box_len)``
        -- or None: the sort then runs its NumPy key pipeline, the
        reference."""
        return None

    def relabel_csr(self, indptr, indices, order):
        """The CSR ``(indptr, indices)`` of a *symmetric* neighbor relation
        with its agents renumbered by the permutation ``order`` (agent
        ``order[b]`` becomes ``b``), rows ascending: exactly the CSR a
        fresh build over ``positions[order]`` would return -- or None: the
        scheduler then drops its superset and rebuilds it."""
        return None

    # -- diffusion ------------------------------------------------------- #

    def diffuse(self, concentration, voxel_size, diffusion_coefficient,
                decay, dt, out=None):
        """One explicit diffusion-decay stencil update.

        Returns the array holding the *new* concentration (the input is
        not modified), matching :meth:`repro.core.diffusion.DiffusionGrid
        .step` with Neumann boundaries.  ``out`` offers a host array of
        the grid's shape and dtype, sharing no memory with it: a backend
        writes into it and returns it, or ignores it and returns a fresh
        array — callers keep what is returned.
        """
        raise NotImplementedError

    # -- agent-field coupling ------------------------------------------- #

    def secrete(self, grid, positions, idx, amount):
        """``Secretion.run``: add ``amount`` (a scalar or one value per
        agent) into the voxel of ``grid`` holding each agent ``idx`` of
        ``positions``, duplicates accumulating in ``idx`` order (exactly
        :meth:`repro.core.diffusion.DiffusionGrid.add_substance`)."""
        raise NotImplementedError

    def chemotaxis(self, grid, positions, moved, idx, speed, dt):
        """``Chemotaxis.run``: move each agent ``idx`` of ``positions``
        ``speed * dt`` along the unit gradient of ``grid`` at its voxel
        (not at all where the gradient's norm is ``<= 1e-12``), in place,
        and OR into ``moved`` whether it did."""
        raise NotImplementedError

    def _count(self) -> None:
        self.calls += 1
