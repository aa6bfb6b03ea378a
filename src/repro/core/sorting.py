"""Agent sorting and NUMA balancing (paper §4.2, Fig. 3).

Reorders agents in the ResourceManager so that agents close in 3D space
become close in memory, and balances them across NUMA domains in
proportion to each domain's thread count.  The algorithm exploits the
uniform grid (it is only implemented for that environment, as in
BioDynaMo):

1. Determine the sequence of grid boxes in Morton order with the
   linear-time gap traversal (:mod:`repro.sfc.gap_traversal`) —
   no O(B log B) sort, no iteration over the enclosing power-of-two cube.
2. Count agents per box, prefix-sum the counts (work-efficient block
   scan), and cut the running total into per-domain, then per-thread
   shares.
3. Copy agents to their new positions.  With
   ``agent_sort_extra_memory=True`` the copies go into *freshly allocated*
   memory and the old payloads are freed afterwards — temporarily using
   more memory but yielding a perfectly sequential layout; otherwise old
   payloads are freed first and the allocator recycles them (LIFO), which
   scrambles the address order somewhat.  This trade-off is the paper's
   "extra memory usage during agent sorting" ablation.

The optional Hilbert-curve mode exists to reproduce the paper's finding
that Hilbert ordering gains ~0.5% locality but pays more for decoding.

Steps 1-2 are the NumPy key pipeline below -- bin, Morton encode,
``ranks_for_codes``, count, scan, ``argsort(kind="stable")`` -- and it is
the reference.  A Morton sort asks the kernel backend for the order
instead, with or without a virtual machine (:meth:`KernelBackend.morton_order
<repro.kernels.api.KernelBackend.morton_order>`): ``c`` bins with the
grid's operations and radix-sorts the Morton *codes*, which gives the same
permutation because a box's compact rank is strictly increasing in its
code (``docs/kernels.md``, "Sorting in C").  The work report a virtual
machine charges (``boxes_touched``, ``serial_cycles``) is exact on both
paths, and computed only when read.  The scheduler then carries its
cached Verlet superset through the permutation instead of rebuilding it
(``docs/neighbor_cache.md``).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from repro.env.uniform_grid import UniformGridEnvironment
from repro.sfc.gap_traversal import morton_runs_3d
from repro.sfc.hilbert import hilbert_encode_nd
from repro.sfc.morton import morton_encode_3d
from repro.sfc.prefix_sum import block_prefix_sum

__all__ = ["SortResult", "sort_and_balance", "sort_keys"]

# Cost-model constants (cycles).
RANK_OPS_PER_AGENT = 14.0       # Morton encode + offset lookup
HILBERT_OPS_PER_AGENT = 95.0    # the costlier Hilbert decode the paper cites
COUNT_OPS_PER_AGENT = 4.0
COPY_BYTES_FACTOR = 2.0         # payload read + write


@dataclass
class SortResult:
    """Description of one sorting pass (consumed by the scheduler)."""

    new_order: np.ndarray
    new_domain_starts: np.ndarray
    new_addrs: np.ndarray | None
    rank_ops_per_agent: float
    copied_bytes: float
    #: ``() -> (boxes_touched, serial_cycles)``, run on the first read of
    #: either (only a virtual machine and tests read them).
    work: Callable[[], tuple[int, float]] = field(repr=False, compare=False)

    @cached_property
    def _work(self) -> tuple[int, float]:
        return self.work()

    @property
    def boxes_touched(self) -> int:
        """In-grid boxes counted/scanned in step F (parallel,
        work-efficient): the largest sort key + 1."""
        return self._work[0]

    @property
    def serial_cycles(self) -> float:
        """Serial work: the gap traversal visits only the O(#runs * log B)
        partial nodes of the implicit tree (Morton), or a comparison sort
        of the codes (Hilbert, which has no gap traversal)."""
        return self._work[1]


def _domain_shares(n: int, machine, num_domains: int) -> np.ndarray:
    """Agents per domain, proportional to each domain's thread count."""
    if machine is not None:
        weights = np.bincount(machine.thread_domains, minlength=num_domains).astype(float)
    else:
        weights = np.ones(num_domains)
    weights = weights / weights.sum()
    cuts = np.floor(np.cumsum(weights) * n + 0.5).astype(np.int64)
    starts = np.concatenate(([0], cuts))
    starts[-1] = n
    return starts


def _box_coords(box, dims):
    """``(cx, cy, cz)`` of x-fastest box ids."""
    cz, rem = np.divmod(box, int(dims[0]) * int(dims[1]))
    cy, cx = np.divmod(rem, int(dims[0]))
    return cx, cy, cz


def _morton_work(dims, last_box):
    """``(boxes_touched, serial_cycles)`` of a Morton sort whose last agent
    sits in box ``last_box``: its box has the largest rank.  The DFS only
    visits partial nodes; complete/empty subtrees are skipped, so the
    serial cost charges the nodes it actually walked."""
    runs = morton_runs_3d(int(dims[0]), int(dims[1]), int(dims[2]))
    code = morton_encode_3d(*_box_coords(last_box, dims)).astype(np.int64)
    return int(runs.ranks_for_codes(code)) + 1, runs.nodes_visited * 8.0


def sort_keys(box, dims, curve="morton") -> np.ndarray:
    """The NumPy key pipeline (the reference): each box id's compact rank
    along ``curve``; the sort order is their stable argsort."""
    cx, cy, cz = _box_coords(box, dims)
    if curve == "hilbert":
        order_bits = max(int(np.max(dims) - 1).bit_length(), 1)
        return hilbert_encode_nd(np.stack([cx, cy, cz], axis=1),
                                 order_bits).astype(np.int64)
    runs = morton_runs_3d(int(dims[0]), int(dims[1]), int(dims[2]))
    return runs.ranks_for_codes(morton_encode_3d(cx, cy, cz).astype(np.int64))


def sort_and_balance(sim) -> SortResult | None:
    """Sort and balance all agents of ``sim``; returns the work done.

    Requires the uniform-grid environment with a current build; returns
    ``None`` (no-op) otherwise, mirroring BioDynaMo, where the operation
    "is currently only implemented for the uniform grid" (§6.9).
    """
    rm = sim.rm
    env = sim.env
    n = rm.n
    if n == 0 or not isinstance(env, UniformGridEnvironment):
        return None

    # Bin the *current* positions at the *exact* interaction radius.  The
    # environment's own build may be stale (skipped rebuilds) or use a
    # skin-inflated radius (the scheduler's displacement-bounded neighbor
    # cache); the sort keys must not depend on either, or runs with the
    # cache on and off would reorder agents differently and diverge.
    positions = rm.positions
    mins, dims, box_len = env.grid_geometry(positions,
                                            sim.interaction_radius())
    curve = sim.param.space_filling_curve
    kernels = getattr(sim, "kernels", None)
    new_order = None
    if curve == "morton" and kernels is not None:
        new_order = kernels.morton_order(positions, mins, dims, box_len)
    if new_order is None:
        keys = sort_keys(env.box_ids(positions, mins, dims, box_len), dims,
                         curve)
        # Step 2 (Fig. 3 F): per-box counts + work-efficient prefix sum,
        # then stable counting sort of agents by box rank.
        # np.argsort(stable) is the vectorized equivalent of scattering
        # agents via the prefix sums.
        num_keys = int(keys.max()) + 1
        counts = np.bincount(keys, minlength=num_keys)
        block_prefix_sum(counts, num_blocks=8)  # the scan the paper parallelizes
        new_order = np.argsort(keys, kind="stable")
    if curve == "hilbert":
        # No gap traversal exists for the Hilbert curve: compacting the
        # sparse codes needs a comparison sort.
        serial = n * max(1.0, np.log2(max(n, 2))) * 3.0

        def work():
            return num_keys, float(serial)
    else:
        last = positions[new_order[-1:]]
        work = partial(_morton_work, dims,
                       env.box_ids(last, mins, dims, box_len)[0])
    rank_ops = (HILBERT_OPS_PER_AGENT if curve == "hilbert"
                else RANK_OPS_PER_AGENT)

    # NUMA balancing: equal thread-shares per domain.
    new_starts = _domain_shares(n, sim.machine, rm.num_domains)

    # Step 3 (Fig. 3 G): copy agents; allocate new payload memory.
    allocator = rm.allocator
    new_addrs = None
    if allocator is not None:
        old_addrs = rm.data["addr"]
        new_addrs = np.empty(n, dtype=np.int64)

        def allocate():
            for d in range(rm.num_domains):
                seg = slice(new_starts[d], new_starts[d + 1])
                new_addrs[seg] = allocator.allocate_many(
                    rm.agent_size_bytes, new_starts[d + 1] - new_starts[d], domain=d
                )

        def free_old():
            for d in range(rm.num_domains):
                sel = old_addrs[rm.domain_slice(d)]
                if len(sel):
                    allocator.free_many(sel, rm.agent_size_bytes, domain=d)

        if sim.param.agent_sort_extra_memory:
            # Allocate first (fresh, sequential), free the old copies after.
            allocate()
            free_old()
        else:
            # Free first; allocations then recycle the freed elements.
            free_old()
            allocate()

    rm.reorder(new_order, new_starts, new_addrs)
    return SortResult(
        new_order=new_order,
        new_domain_starts=new_starts,
        new_addrs=new_addrs,
        rank_ops_per_agent=rank_ops + COUNT_OPS_PER_AGENT,
        copied_bytes=n * rm.agent_size_bytes * COPY_BYTES_FACTOR,
        work=work,
    )
