"""Test-only reference for the pair pipeline that runs after the search.

The array-of-structs kernels the engine shipped before the per-coordinate,
row-blocked pipeline replaced them, copied verbatim: ``pair_forces``
gathers three ``(npairs, 3)`` arrays by row, ``force_csr`` / ``force_rows``
evaluate the whole pair list in one piece, ``refilter_csr`` compacts with
a boolean mask and ``displace`` norms an ``(n, 3)`` array.  Slow and
O(pairs) in memory, but each line is the textbook expression, which is
what makes it the differential baseline: ``repro.kernels.numpy_ref`` and
``repro.env.environment.refilter_csr`` must reproduce every output byte
for byte (``tests/test_pair_pipeline_differential.py``).
"""

import numpy as np

FORCE_EPSILON = 1e-12
MOVE_EPSILON = 1e-9


def pair_forces(positions, diameters, qi, qj, repulsion, attraction):
    """Cortex3D force exerted by agent ``qj`` on agent ``qi`` per pair."""
    delta = positions[qi] - positions[qj]
    dist = np.linalg.norm(delta, axis=1)
    r_sum = (diameters[qi] + diameters[qj]) / 2.0
    overlap = r_sum - dist
    # Coincident centers: push apart along the x axis, oriented by the
    # pair's index order so the force stays antisymmetric.
    degenerate = dist < 1e-12
    safe_dist = np.where(degenerate, 1.0, dist)
    direction = delta / safe_dist[:, None]
    if np.any(degenerate):
        sign = np.where(qi < qj, 1.0, -1.0)[degenerate]
        direction[degenerate] = 0.0
        direction[degenerate, 0] = sign

    r_eff = (diameters[qi] * diameters[qj]) / (2.0 * np.maximum(r_sum, 1e-12))
    pos_overlap = np.maximum(overlap, 0.0)
    magnitude = (
        repulsion * pos_overlap
        - attraction * np.sqrt(r_eff * pos_overlap)
    )
    magnitude = np.where(overlap > 0, magnitude, 0.0)
    return magnitude[:, None] * direction


def force_csr(positions, diameters, indptr, indices, active=None,
              pair_fn=None, repulsion=2.0, attraction=0.4):
    """``(net_force (n,3), nonzero_counts (n,), pairs_evaluated)``."""
    n = len(positions)
    net = np.zeros((n, 3))
    nonzero = np.zeros(n, dtype=np.int64)
    if n == 0 or len(indices) == 0:
        return net, nonzero, 0

    counts = np.diff(indptr)
    qi_all = np.repeat(np.arange(n, dtype=np.int64), counts)
    if active is not None:
        keep = active[qi_all]
        qi, qj = qi_all[keep], indices[keep]
    else:
        qi, qj = qi_all, indices
    if len(qi) == 0:
        return net, nonzero, 0

    if pair_fn is not None:
        f = pair_fn(positions, diameters, qi, qj)
    else:
        f = pair_forces(positions, diameters, qi, qj, repulsion, attraction)
    for c in range(3):
        net[:, c] = np.bincount(qi, weights=f[:, c], minlength=n)
    mag_nonzero = (
        np.abs(f[:, 0]) + np.abs(f[:, 1]) + np.abs(f[:, 2])
    ) > FORCE_EPSILON
    nonzero = np.bincount(qi, weights=mag_nonzero, minlength=n).astype(np.int64)
    return net, nonzero, len(qi)


def _chunk_pairs(indptr, indices, lo, hi):
    """CSR pair lists restricted to rows [lo, hi)."""
    start, stop = int(indptr[lo]), int(indptr[hi])
    counts = np.diff(indptr[lo : hi + 1])
    qi = np.repeat(np.arange(lo, hi, dtype=np.int64), counts)
    return qi, indices[start:stop]


def force_rows(positions, diameters, indptr, indices, active,
               net_out, nz_out, lo, hi, pair_fn=None,
               repulsion=2.0, attraction=0.4) -> int:
    """Rows ``[lo, hi)`` into ``net_out`` / ``nz_out``; returns the pairs."""
    qi, qj = _chunk_pairs(indptr, indices, lo, hi)
    if active is not None:
        keep = active[qi]
        qi, qj = qi[keep], qj[keep]
    rows = hi - lo
    if len(qi) == 0:
        net_out[lo:hi] = 0.0
        nz_out[lo:hi] = 0
        return 0
    if pair_fn is not None:
        f = pair_fn(positions, diameters, qi, qj)
    else:
        f = pair_forces(positions, diameters, qi, qj, repulsion, attraction)
    local = qi - lo
    for c in range(3):
        net_out[lo:hi, c] = np.bincount(local, weights=f[:, c],
                                        minlength=rows)
    mag_nonzero = (
        np.abs(f[:, 0]) + np.abs(f[:, 1]) + np.abs(f[:, 2])
    ) > FORCE_EPSILON
    nz_out[lo:hi] = np.bincount(local, weights=mag_nonzero,
                                minlength=rows).astype(np.int64)
    return len(qi)


def displace(positions, moved_flags, net_force, dt,
             max_displacement) -> np.ndarray:
    """Forward-Euler displacement with clamping; returns the moved mask."""
    disp = net_force * dt
    norm = np.linalg.norm(disp, axis=1)
    too_far = norm > max_displacement
    if np.any(too_far):
        disp[too_far] *= (max_displacement / norm[too_far])[:, None]
    moved_now = norm > MOVE_EPSILON
    positions[moved_now] += disp[moved_now]
    moved_flags |= moved_now
    return moved_now


def refilter_csr(indptr, indices, qi, positions, radius):
    """``(indptr, indices, qi)`` of the superset's pairs within ``radius``."""
    n = len(indptr) - 1
    if len(indices) == 0:
        return indptr, indices, qi
    px, py, pz = positions[:, 0], positions[:, 1], positions[:, 2]
    dx = px[qi] - px[indices]
    dy = py[qi] - py[indices]
    dz = pz[qi] - pz[indices]
    d2 = dx * dx
    d2 += dy * dy
    d2 += dz * dz
    keep = d2 <= radius * radius
    qi_kept = qi[keep]
    counts = np.bincount(qi_kept, minlength=n)
    new_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=new_indptr[1:])
    return new_indptr, indices[keep], qi_kept
