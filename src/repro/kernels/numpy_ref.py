"""NumPy reference kernels — the bitwise source of truth.

These functions hold the *actual array math* that used to live inline in
:meth:`repro.core.force.InteractionForce.pair_forces` /
:meth:`~repro.core.force.InteractionForce.compute`,
:func:`repro.parallel.backend.apply_displacement`, the process backend's
``k_force`` chunk kernel, and :meth:`repro.core.diffusion.DiffusionGrid
.step`.  Those call sites now delegate here, so "the NumPy kernel
backend is bitwise identical to mainline" holds *by construction*: there
is exactly one NumPy implementation of each kernel, and the replay
checksums of ``repro.verify`` are computed over its outputs.

The pair kernels are written per coordinate (contiguous ``x / y / z``
columns, 1-D gathers, in-place arithmetic) and the force is evaluated in
row-aligned blocks of ~``_BLOCK_PAIRS`` pairs, so nothing of shape
``(npairs, 3)`` and nothing of pair-list length is ever materialized.
The textbook array-of-structs form they replaced is frozen in
``tests/pair_reference.py``; ``tests/test_pair_pipeline_differential.py``
holds these kernels byte-equal to it (``docs/kernels.md`` lists the
rules that keep them so).  The stencil is held the same way to the
``np.pad`` form in ``tests/diffusion_reference.py``.

The C backend (:mod:`repro.kernels.c_backend`) re-expresses this math
and must reproduce these functions byte for byte; the differential
suites run it against the same frozen references.
"""

from __future__ import annotations

import numpy as np

from repro.core.behavior import select_rows
from repro.kernels.api import (
    FORCE_EPSILON,
    MOVE_EPSILON,
    KernelBackend,
    _is_plain_cortex3d,
)

__all__ = [
    "pair_forces",
    "force_csr",
    "force_rows",
    "displace",
    "refilter",
    "diffuse",
    "secrete",
    "chemotaxis",
    "NumpyKernelBackend",
]


#: Pairs evaluated per block of the force kernel, approximately: a block
#: ends at the first CSR row boundary past its budget (a row's pairs must
#: reach one ``np.bincount`` together), so a row longer than this is a
#: block of its own.  At 2^14 the seven live block-sized float64
#: temporaries (~0.9 MiB) and the gathered columns stay inside a 2 MiB
#: L2; 2^13 .. 2^15 measured within 10 % of each other, one unblocked
#: pass 1.5-2x slower.
_BLOCK_PAIRS = 1 << 14


def _columns(positions):
    """Contiguous float64 ``x, y, z`` copies of an ``(n, 3)`` array.

    Gathering pairs from three contiguous columns touches a third of the
    cache lines a row gather from the ``(n, 3)`` layout does.
    """
    return tuple(np.ascontiguousarray(positions[:, c], dtype=np.float64)
                 for c in range(3))


def _cortex3d(x, y, z, diameters, qi, qj, repulsion, attraction):
    """Per-coordinate Cortex3D force of ``qj`` on ``qi``: ``(fx, fy, fz)``.

    Overlapping spheres repel with a linear elastic term (``repulsion``)
    and adhere with a sqrt-overlap term (``attraction``); coincident
    centers are pushed apart along the x axis, oriented by the pair's
    index order so the force stays antisymmetric.

    Bitwise contract (``tests/pair_reference.py`` is the textbook form):
    every floating-point operation of the ``(npairs, 3)`` expression is
    performed here on the same operands in the same operand order; only
    where a result is stored differs.  ``dist`` is reduced as
    ``(dx*dx + dy*dy) + dz*dz``, the order ``np.linalg.norm(axis=1)``
    uses for three components, and ``where(overlap > 0, m, 0.0)`` stays a
    select — a multiplication by the mask would turn ``nan`` and ``-m``
    into ``nan`` and ``-0.0``.
    """
    dx = x[qi]
    dx -= x[qj]
    dy = y[qi]
    dy -= y[qj]
    dz = z[qi]
    dz -= z[qj]
    dist = dx * dx
    tmp = dy * dy
    dist += tmp
    np.multiply(dz, dz, out=tmp)
    dist += tmp
    np.sqrt(dist, out=dist)

    di = diameters[qi]
    dj = diameters[qj]
    r_sum = np.add(di, dj, out=tmp)
    r_sum /= 2.0
    r_eff = np.multiply(di, dj, out=di)
    overlap = np.subtract(r_sum, dist, out=dj)
    np.maximum(r_sum, 1e-12, out=r_sum)
    np.multiply(2.0, r_sum, out=r_sum)
    r_eff /= r_sum
    magnitude = np.maximum(overlap, 0.0, out=r_sum)  # the positive overlap
    r_eff *= magnitude
    np.sqrt(r_eff, out=r_eff)
    np.multiply(attraction, r_eff, out=r_eff)
    np.multiply(repulsion, magnitude, out=magnitude)
    magnitude -= r_eff
    magnitude[~(overlap > 0)] = 0.0

    degenerate = np.flatnonzero(dist < 1e-12)
    if len(degenerate):
        dist[degenerate] = 1.0
    dx /= dist
    dy /= dist
    dz /= dist
    if len(degenerate):
        dx[degenerate] = np.where(qi[degenerate] < qj[degenerate], 1.0, -1.0)
        dy[degenerate] = 0.0
        dz[degenerate] = 0.0
    np.multiply(magnitude, dx, out=dx)
    np.multiply(magnitude, dy, out=dy)
    np.multiply(magnitude, dz, out=dz)
    return dx, dy, dz


def pair_forces(positions, diameters, qi, qj, repulsion, attraction):
    """Cortex3D force exerted by agent ``qj`` on agent ``qi`` per pair.

    Returns an ``(npairs, 3)`` array: the public shape of the
    :meth:`~repro.core.force.InteractionForce.pair_forces` override
    hook, stacked from the per-coordinate :func:`_cortex3d` core.
    """
    x, y, z = _columns(positions)
    return np.stack(
        _cortex3d(x, y, z, np.asarray(diameters, dtype=np.float64),
                  qi, qj, repulsion, attraction),
        axis=1,
    )


def _row_blocks(indptr, lo, hi):
    """Row cuts ``lo = c0 < c1 < ... = hi`` of ~``_BLOCK_PAIRS`` pairs each."""
    start, stop = int(indptr[lo]), int(indptr[hi])
    if stop - start <= _BLOCK_PAIRS:
        return [lo, hi]
    targets = np.arange(start + _BLOCK_PAIRS, stop, _BLOCK_PAIRS)
    cuts = lo + np.searchsorted(indptr[lo : hi + 1], targets)
    return np.unique(np.concatenate(([lo], cuts, [hi]))).tolist()


def force_csr(positions, diameters, indptr, indices, active=None,
              force_model=None):
    """Net force on every agent from its CSR neighbors (full-array path).

    ``active`` masks the agents whose forces are computed (static agents
    are excluded by the caller when §5 detection is enabled; inactive
    agents receive zero net force).  ``force_model`` supplies the
    pairwise law, see :func:`force_rows`, which does the work.

    Returns ``(net_force (n,3), nonzero_counts (n,), pairs_evaluated)``.
    """
    n = len(positions)
    net = np.zeros((n, 3))
    nonzero = np.zeros(n, dtype=np.int64)
    if n == 0 or len(indices) == 0:
        return net, nonzero, 0
    pairs = force_rows(positions, diameters, indptr, indices, active,
                       net, nonzero, 0, n, force_model)
    return net, nonzero, pairs


def force_rows(positions, diameters, indptr, indices, active,
               net_out, nz_out, lo, hi, force_model=None) -> int:
    """Net force + nonzero counts for rows ``[lo, hi)``.

    Writes into preallocated ``net_out[lo:hi]`` / ``nz_out[lo:hi]``
    (shared-memory views under the process backend) and returns the
    number of pairs evaluated.

    ``force_model`` supplies the pairwise law: the stock
    :class:`~repro.core.force.InteractionForce` (or ``None``, its
    defaults) runs the per-coordinate :func:`_cortex3d` core with the
    model's ``repulsion`` / ``attraction``; a subclass is evaluated
    through its (possibly overridden) ``pair_forces`` hook.

    The range is evaluated in blocks of ~``_BLOCK_PAIRS`` pairs so the
    temporaries are O(block), not O(pairs).  Blocks are cut at row
    boundaries: each row's pairs are summed by one ``np.bincount`` in
    canonical CSR order, and rows are written to disjoint slices — so
    the result does not depend on where the cuts fall, which is also why
    chunked execution (any ``[lo, hi)`` partition) is bitwise identical
    to the full-array call.
    """
    if force_model is None or _is_plain_cortex3d(force_model):
        pair_fn = None
        repulsion = getattr(force_model, "repulsion", 2.0)
        attraction = getattr(force_model, "attraction", 0.4)
        x, y, z = _columns(positions)
        diameters = np.asarray(diameters, dtype=np.float64)
    else:
        pair_fn = force_model.pair_forces
    cuts = _row_blocks(indptr, lo, hi)
    pairs = 0
    for a, b in zip(cuts[:-1], cuts[1:]):
        counts = np.diff(indptr[a : b + 1])
        qj = indices[int(indptr[a]) : int(indptr[b])]
        if active is not None:
            on = active[a:b]
            qj = qj[np.flatnonzero(np.repeat(on, counts))]
            counts *= on
        if len(qj) == 0:
            net_out[a:b] = 0.0
            nz_out[a:b] = 0
            continue
        qi = np.repeat(np.arange(a, b, dtype=np.int64), counts)
        if pair_fn is None:
            fx, fy, fz = _cortex3d(x, y, z, diameters, qi, qj,
                                   repulsion, attraction)
        else:
            f = pair_fn(positions, diameters, qi, qj)
            fx, fy, fz = (np.ascontiguousarray(f[:, c]) for c in range(3))
        qi -= a
        rows = b - a
        # Accumulate with bincount per component (much faster than the
        # unbuffered np.add.at).
        net_out[a:b, 0] = np.bincount(qi, weights=fx, minlength=rows)
        net_out[a:b, 1] = np.bincount(qi, weights=fy, minlength=rows)
        net_out[a:b, 2] = np.bincount(qi, weights=fz, minlength=rows)
        np.abs(fx, out=fx)
        np.abs(fy, out=fy)
        np.abs(fz, out=fz)
        fx += fy
        fx += fz
        nz_out[a:b] = np.bincount(qi, weights=fx > FORCE_EPSILON,
                                  minlength=rows)
        pairs += len(qj)
    return pairs


def displace(positions, moved_flags, net_force, dt,
             max_displacement) -> np.ndarray:
    """Forward-Euler displacement with clamping; returns the moved mask.

    Shared by the serial backend (full arrays) and the process backend's
    chunk kernel (row slices): every operation here is row-elementwise,
    so chunked execution is bitwise identical to the full-array call.
    The norm is reduced per column as ``(x*x + y*y) + z*z``, the order of
    ``np.linalg.norm(axis=1)``.
    """
    disp = net_force * dt
    norm = disp[:, 0] * disp[:, 0]
    norm += disp[:, 1] * disp[:, 1]
    norm += disp[:, 2] * disp[:, 2]
    np.sqrt(norm, out=norm)
    too_far = np.flatnonzero(norm > max_displacement)
    if len(too_far):
        disp[too_far] *= (max_displacement / norm[too_far])[:, None]
    moved_now = norm > MOVE_EPSILON
    np.add(positions, disp, out=positions, where=moved_now[:, None])
    moved_flags |= moved_now
    return moved_now


def refilter(indptr, indices, qi, positions, radius):
    """The superset pairs within ``radius`` now, in order (the body of
    :func:`repro.env.environment.refilter_csr`, which explains it)."""
    n = len(indptr) - 1
    if len(indices) == 0:
        return indptr, indices
    x, y, z = (np.ascontiguousarray(positions[:, c]) for c in range(3))
    d2 = x[qi]
    d2 -= x[indices]
    d2 *= d2
    for col in (y, z):
        sq = col[qi]
        sq -= col[indices]
        sq *= sq
        d2 += sq
    # Index compaction: one flatnonzero, then a take per kept array (a
    # boolean mask would be re-scanned for each of them).
    kept = np.flatnonzero(d2 <= radius * radius)
    counts = np.bincount(qi[kept], minlength=n)
    new_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=new_indptr[1:])
    return new_indptr, indices[kept]


#: Bytes per slab buffer of the stencil kernel: axis 0 is walked in slabs
#: of ``_SLAB_BYTES // plane_bytes`` planes (2 at 128^2 float64), so both
#: buffers and the planes of ``c`` / ``out`` they touch stay inside a
#: 2 MiB L2 for all thirteen passes (128^3: 2 planes ~10 ms, 8 and more
#: 16-25 ms; ``docs/kernels.md``).  The output does not depend on it.
_SLAB_BYTES = 1 << 18


def diffuse(concentration, voxel_size, diffusion_coefficient, decay, dt,
            out=None):
    """One explicit diffusion-decay stencil update (Neumann boundaries).

    Returns the array it wrote — ``out`` when given (the grid's shape and
    dtype, no memory shared with it), else a fresh one; the input is not
    modified.  Zero-flux boundaries clamp the 7-point stencil's neighbor
    indices at the faces (edge replication).

    Bitwise contract (``tests/diffusion_reference.py`` is the textbook
    ``np.pad`` form): every voxel receives the reference's operands in
    the reference's order — ``((((x+ + x-) + y+) + y-) + z+) + z-``,
    ``- 6.0 * c``, ``/ h**2``, ``* D``, ``- decay * c``, ``* dt``,
    ``c +`` — only slab by slab and in place.  A z-shift over the strided
    ``s[:, :, :-1]`` view costs 5x a contiguous add, so it is issued as
    one shifted add over the slab's flat views; that puts a wrong
    neighbor into the edge column, whose correct sum is computed first
    and stored back after.
    """
    c = np.ascontiguousarray(concentration)
    if out is None:
        out = np.empty_like(c)
    elif (out.shape != c.shape or out.dtype != c.dtype
          or np.may_share_memory(out, concentration)):
        raise ValueError(
            "out must match the grid's shape and dtype and share no "
            "memory with it")
    nx, ny, nz = c.shape
    if c.size == 0:
        return out
    h2 = voxel_size**2
    planes = min(nx, max(1, _SLAB_BYTES // (ny * nz * c.itemsize)))
    s_buf = np.empty((planes, ny, nz), dtype=c.dtype)
    t_buf = np.empty((planes, ny, nz), dtype=c.dtype)
    e_buf = np.empty((planes, ny), dtype=c.dtype)
    add, subtract, multiply = np.add, np.subtract, np.multiply
    for lo in range(0, nx, planes):
        hi = min(lo + planes, nx)
        m = hi - lo
        x, s, t, e = c[lo:hi], s_buf[:m], t_buf[:m], e_buf[:m]
        # x+ + x-: planes whose two x neighbors both exist, then the
        # clamped first / last plane of the grid.
        a, b = int(lo == 0), int(hi == nx)
        if m - a - b > 0:
            add(c[lo + a + 1:hi - b + 1], c[lo + a - 1:hi - b - 1],
                out=s[a:m - b])
        if a:
            add(c[min(1, nx - 1)], c[0], out=s[0])
        if b:
            add(c[nx - 1], c[max(nx - 2, 0)], out=s[m - 1])
        # + y+, + y-: the interior rows shifted, the face row clamped.
        add(s[:, :-1], x[:, 1:], out=s[:, :-1])
        add(s[:, -1], x[:, -1], out=s[:, -1])
        add(s[:, 1:], x[:, :-1], out=s[:, 1:])
        add(s[:, 0], x[:, 0], out=s[:, 0])
        # + z+, + z-: flat shifted adds (see the docstring).
        sf, xf = s.reshape(-1), x.reshape(-1)
        add(s[:, :, -1], x[:, :, -1], out=e)
        add(sf[:-1], xf[1:], out=sf[:-1])
        s[:, :, -1] = e
        add(s[:, :, 0], x[:, :, 0], out=e)
        add(sf[1:], xf[:-1], out=sf[1:])
        s[:, :, 0] = e
        multiply(x, 6.0, out=t)
        subtract(s, t, out=s)
        np.divide(s, h2, out=s)
        multiply(s, diffusion_coefficient, out=s)
        multiply(x, decay, out=t)
        subtract(s, t, out=s)
        multiply(s, dt, out=s)
        add(x, s, out=out[lo:hi])
    return out


def _field_rows(idx, n):
    """:func:`~repro.core.behavior.select_rows` for a field kernel's
    ``idx``.  The kernel API also takes descending and repeated indices,
    so ``idx`` only becomes a slice once it is shown to be ``0 .. n-1``:
    ``n`` long, from 0 to ``n - 1`` and strictly ascending."""
    every = len(idx) == n and (n == 0 or (
        idx[0] == 0 and idx[-1] == n - 1 and bool(np.all(idx[1:] > idx[:-1]))))
    return select_rows(idx, n) if every else idx


def secrete(grid, positions, idx, amount):
    """``amount`` into each agent's voxel (the body of ``Secretion.run``)."""
    grid.add_substance(positions[_field_rows(idx, len(positions))], amount)


def chemotaxis(grid, positions, moved, idx, speed, dt):
    """Each agent ``speed * dt`` up the unit gradient at its voxel (the
    body of ``Chemotaxis.run``): the norm reduces ``(x*x + y*y) + z*z``,
    rows at or below ``1e-12`` take a ``+0.0`` step, and ``positions[idx]
    += step`` is a fancy ``+=`` (a duplicate agent moves once)."""
    sel = _field_rows(idx, len(positions))
    grad = grid.gradient_at(positions[sel])
    norm = np.linalg.norm(grad, axis=1)
    ok = norm > 1e-12
    step = np.zeros_like(grad)
    np.divide(grad, norm[:, None], out=step, where=ok[:, None])
    step *= speed
    step *= dt
    positions[sel] += step
    moved[sel] |= ok


class NumpyKernelBackend(KernelBackend):
    """The reference backend: dispatches straight to this module.

    Always available, never compiles, and — because the core call sites
    delegate to the very same functions — bitwise identical to running
    without any kernel dispatch at all.
    """

    name = "numpy"
    compiled = False

    def force(self, force_model, positions, diameters, indptr, indices,
              active=None):
        """Full-array CSR force: :func:`force_csr`'s body, over
        :meth:`force_rows` (honors overridden ``pair_forces``)."""
        n = len(positions)
        net, nonzero = np.zeros((n, 3)), np.zeros(n, dtype=np.int64)
        if n == 0 or len(indices) == 0:
            self._count()
            return net, nonzero, 0
        return net, nonzero, self.force_rows(
            force_model, positions, diameters, indptr, indices, active, net,
            nonzero, 0, n)

    def force_rows(self, force_model, positions, diameters, indptr, indices,
                   active, net_out, nz_out, lo, hi) -> int:
        """Chunked CSR force via :func:`force_rows`."""
        self._count()
        return force_rows(positions, diameters, indptr, indices, active,
                          net_out, nz_out, lo, hi, force_model)

    def displace(self, positions, moved_flags, net_force, dt,
                 max_displacement):
        """Full-array displacement via :func:`displace`."""
        self._count()
        return displace(positions, moved_flags, net_force, dt,
                        max_displacement)

    def displace_rows(self, positions, moved_flags, net_force, dt,
                      max_displacement, lo, hi) -> None:
        """Row-range displacement (row-elementwise, so slicing is exact)."""
        self._count()
        displace(positions[lo:hi], moved_flags[lo:hi], net_force[lo:hi],
                 dt, max_displacement)

    def refilter(self, indptr, indices, qi, positions, radius):
        """Superset refilter via :func:`refilter`."""
        self._count()
        return refilter(indptr, indices, qi, positions, radius)

    def diffuse(self, concentration, voxel_size, diffusion_coefficient,
                decay, dt, out=None):
        """Stencil update via :func:`diffuse`."""
        self._count()
        return diffuse(concentration, voxel_size, diffusion_coefficient,
                       decay, dt, out)

    def secrete(self, grid, positions, idx, amount):
        """Secretion via :func:`secrete`."""
        self._count()
        self.field_calls += 1
        secrete(grid, positions, idx, amount)

    def chemotaxis(self, grid, positions, moved, idx, speed, dt):
        """Chemotaxis via :func:`chemotaxis`."""
        self._count()
        self.field_calls += 1
        chemotaxis(grid, positions, moved, idx, speed, dt)
