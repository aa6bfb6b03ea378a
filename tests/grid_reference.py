"""Test-only reference for ``UniformGridEnvironment.neighbor_csr``.

The full 27-box expansion the engine shipped before the cell-sorted
half-stencil build replaced it: every agent's 27 neighbor boxes are
expanded into whole-population candidate arrays, every directed pair is
distance-checked, and one global ``argsort`` restores ascending rows.
Slow and O(candidates) in memory, but each step is self-evident, which
is what makes it the differential baseline: the production build must
reproduce its ``(indptr, indices)`` and its per-agent 27-box candidate
counts ``array_equal``.  It reads a finished build through
``linked_list_state()`` and never touches the environment.
"""

import numpy as np


def reference_neighbor_csr(env):
    """``(indptr, indices, candidates)`` of ``env``'s current build."""
    state = env.linked_list_state()
    pos = state["positions"]
    n = len(pos)
    if n == 0:
        return (np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64))
    dims = state["dims"]
    box = state["box_of_agent"]
    box_start, box_count = state["box_start"], state["box_count"]
    cz, rem = np.divmod(box, dims[0] * dims[1])
    cy, cx = np.divmod(rem, dims[0])
    r2 = state["radius"] * state["radius"]

    # All 27 neighbor boxes of every agent in one vectorized pass.
    d = np.array([-1, 0, 1], dtype=np.int64)
    off = np.stack(np.meshgrid(d, d, d, indexing="ij"), axis=-1).reshape(27, 3)
    nbx = cx[:, None] + off[None, :, 0]
    nby = cy[:, None] + off[None, :, 1]
    nbz = cz[:, None] + off[None, :, 2]
    valid = (
        (nbx >= 0) & (nbx < dims[0])
        & (nby >= 0) & (nby < dims[1])
        & (nbz >= 0) & (nbz < dims[2])
    )
    nbid = (nbz * dims[1] + nby) * dims[0] + nbx
    nbid[~valid] = 0  # clamped; masked out via reps below
    fresh = state["box_stamp"][nbid] == state["timestamp"]
    reps = np.where(valid & fresh, box_count[nbid], 0)

    candidates = reps.sum(axis=1)
    reps_f = reps.ravel()
    total = int(candidates.sum())
    qi = np.repeat(np.arange(n, dtype=np.int64), candidates)
    # Gather the ranges [start, start+count) of each (agent, box) pair.
    csum = np.cumsum(reps_f) - reps_f
    within = np.arange(total, dtype=np.int64) - np.repeat(csum, reps_f)
    cand = state["order"][np.repeat(box_start[nbid].ravel(), reps_f) + within]

    px, py, pz = pos[:, 0], pos[:, 1], pos[:, 2]
    dx = px[qi] - px[cand]
    dy = py[qi] - py[cand]
    dz = pz[qi] - pz[cand]
    d2 = dx * dx
    d2 += dy * dy
    d2 += dz * dz
    keep = (d2 <= r2) & (qi != cand)
    qi, cand = qi[keep], cand[keep]

    # Canonical row order: ascending neighbor index within each row.
    if len(cand):
        order = np.argsort(qi * np.int64(n) + cand)
        qi, cand = qi[order], cand[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(qi, minlength=n), out=indptr[1:])
    return indptr, cand, candidates
