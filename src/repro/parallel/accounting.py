"""Virtual-cost accounting: what each stage of Algorithm 1 costs on the
simulated machine.

A :class:`CostAccountant` exists only when the simulation carries a
virtual :class:`~repro.parallel.machine.Machine`; the scheduler calls it
at stage boundaries and never branches on the machine itself.  Parallel
regions submit per-agent cycle estimates (compute from the operations' op
counts, memory from the cost model priced at the agents' *actual
simulated addresses*), serial regions charge one thread.  Region names
match the paper's Fig. 5 breakdown: ``agent_ops``, ``build_environment``,
``agent_sorting``, ``diffusion``, ``setup_teardown``, ``visualization``.

Within ``agent_ops`` each agent's cycles add up in execution order —
behaviors, user agent operations, mechanics, static detection — and the
region is charged once, at the end of the loop.
"""

from __future__ import annotations

import numpy as np

from repro.core.diffusion import OPS_PER_VOXEL
from repro.core.force import InteractionForce
from repro.core.static_detection import DETECTION_OPS_PER_AGENT
from repro.parallel.machine import SchedulePolicy, make_blocks

__all__ = ["CostAccountant", "DISPLACEMENT_OPS"]


#: Arithmetic ops for one agent's displacement integration.
DISPLACEMENT_OPS = 30.0

#: Transient per-iteration buffers are charged to the "other objects"
#: allocator in chunks of this many bytes.
TRANSIENT_CHUNK = 64 * 1024


class CostAccountant:
    """Charges every stage of one simulation's ticks to ``sim.machine``."""

    def __init__(self, sim):
        self.sim = sim
        self.machine = sim.machine
        self.cm = sim.machine.cost_model
        # Per-agent ledgers of the agent loop in progress (begin → end).
        self._cycles = self._mem = self._dom_counts = None
        self._own_stream = 0.0
        self._counts = self._nbr_mem = self._nbr_dom = None

    # ------------------------------------------------------------------ #
    # Region helpers
    # ------------------------------------------------------------------ #

    @property
    def _policy(self) -> SchedulePolicy:
        """NUMA-aware placement with two-level stealing when O3 is on;
        plain dynamic scheduling otherwise (OpenMP balances load either
        way — what it lacks is the domain matching, §4.1)."""
        if self.sim.param.numa_aware_iteration:
            return SchedulePolicy.NUMA_AWARE
        return SchedulePolicy.DYNAMIC

    def _charge_agent_region(
        self, name, cycles, mem_cycles=None, domain_counts=None
    ) -> None:
        """Charge a parallel-over-agents region split by domain segments."""
        m = self.machine
        if len(cycles) == 0:
            return
        rm = self.sim.rm
        blocks = []
        for d in range(rm.num_domains):
            sl = rm.domain_slice(d)
            seg_len = sl.stop - sl.start
            if seg_len == 0:
                continue
            # Blocks must outnumber the domain's threads or the machine
            # cannot be utilized at small scales (BioDynaMo sizes its
            # blocks relative to the thread count, Fig. 2 step 2).
            threads_here = max(1, len(m.threads_of_domain(d)))
            # ~8 blocks per thread: fine enough that a straggler block on a
            # slow SMT slot cannot dominate the makespan, coarse enough to
            # keep scheduling overhead negligible.
            block_size = max(8, min(self.sim.param.block_size,
                                    -(-seg_len // (threads_here * 8))))
            blocks.extend(make_blocks(
                cycles[sl],
                None if mem_cycles is None else mem_cycles[sl],
                domain=d,
                access_domain_counts=(None if domain_counts is None
                                      else domain_counts[sl]),
                block_size=block_size,
            ))
        m.run_parallel(name, blocks, self._policy)

    def _charge_items_region(self, name, total_cycles, total_mem, items) -> None:
        """Charge a parallel region over non-agent items (voxels, swaps)."""
        m = self.machine
        if items == 0:
            return
        per = total_cycles / items
        per_mem = total_mem / items
        n_blocks = max(min(items, m.num_threads * 2),
                       items // self.sim.param.block_size)
        blocks = make_blocks(np.full(n_blocks, per * items / n_blocks),
                             np.full(n_blocks, per_mem * items / n_blocks),
                             domain=0, block_size=1)
        for i, b in enumerate(blocks):  # spread across domains
            b.preferred_domain = i % (m.num_domains)
        m.run_parallel(name, blocks, self._policy)

    def _charge_transient_buffers(self, nbytes: int) -> None:
        """Model per-iteration scratch allocations via the 'other' allocator."""
        al = self.sim.other_allocator
        if al is None or nbytes <= 0:
            return
        addrs = []
        remaining = int(nbytes)
        while remaining > 0:
            chunk = min(remaining, TRANSIENT_CHUNK)
            addrs.append((al.allocate(chunk), chunk))
            remaining -= chunk
        for a, c in addrs:
            al.free(a, c)

    def _drain_allocator_cycles(self, name: str) -> None:
        sim = self.sim
        eff = float(np.sum(self.machine.thread_speeds))
        total = 0.0
        for al in {id(sim.agent_allocator): sim.agent_allocator,
                   id(sim.other_allocator): sim.other_allocator}.values():
            if al is None:
                continue
            cycles = al.drain_cycles()
            if not cycles:
                continue
            # Allocations happen inside parallel loops, but only scale as
            # far as the allocator's synchronization allows (arena locks
            # vs thread-private free lists).
            parallelism = 1.0 + (eff - 1.0) * al.parallel_scalability
            total += cycles / parallelism
        if total:
            self.machine.run_serial(name, total, memory_cycles=total * 0.5)

    def neighbor_memory_profile(self, qi, qj, n):
        """Per-agent memory cycles + per-domain access counts for CSR pairs.

        A neighbor access costs the *minimum* of two locality proxies:

        - **spatial**: the address distance between the reader's and the
          target's payloads (streaming/prefetch locality — what agent
          sorting §4.2 shortens), and
        - **temporal reuse**: the distance, in iteration order, to the
          previous reader of the same payload (once agent k's line is
          fetched, its other readers hit cache *if* they run soon after —
          which is again what sorting arranges, since a payload's readers
          are its spatial neighbors).

        Only accesses that miss to memory (effective latency at DRAM
        level) count toward the remote-domain premium.
        """
        rm = self.sim.rm
        cm = self.cm
        addr = rm.data["addr"]
        spatial = cm.latency_for_deltas(addr[qi] - addr[qj])

        # Temporal reuse: group accesses by target, readers in iteration
        # order; the gap to the previous reader (scaled by the per-agent
        # iteration footprint) is the reuse distance.
        order = np.lexsort((qi, qj))
        qis = qi[order]
        qjs = qj[order]
        footprint = rm.agent_size_bytes * 1.5
        gap_bytes = np.full(len(qis), np.inf)
        if len(qis) > 1:
            same = qjs[1:] == qjs[:-1]
            gap_bytes[1:] = np.where(
                same, np.abs(qis[1:] - qis[:-1]) * footprint, np.inf
            )
        reuse = cm.latency_for_deltas(np.where(np.isfinite(gap_bytes), gap_bytes, 1e18))
        lat = np.minimum(spatial[order], reuse)

        mem = np.bincount(qis, weights=lat, minlength=n)
        misses = lat >= cm.spec.dram_latency
        # 2-D bincount: one pass over the missing accesses keyed by
        # ``reader * num_domains + target_domain`` replaces the per-domain
        # loop (identical counts; see the cost-model regression test).
        num_dom = rm.num_domains
        dom_j = rm.domain_of_index(qjs[misses])
        counts = np.bincount(
            qis[misses] * num_dom + dom_j, minlength=n * num_dom
        ).reshape(n, num_dom).astype(np.float64)
        return mem, counts

    # ------------------------------------------------------------------ #
    # Stage boundaries
    # ------------------------------------------------------------------ #

    def build_environment(self, work) -> None:
        """Charge an environment build (its ``BuildWork``)."""
        if work.parallelizable and work.per_item_cycles is not None:
            cycles = work.per_item_cycles
            if work.random_access_spread_bytes:
                cycles = cycles + float(self.cm.latency_for_deltas(
                    work.random_access_spread_bytes / 27.0))
            self._charge_agent_region("build_environment", cycles, cycles * 0.6)
        else:
            self.machine.run_serial("build_environment", work.serial_cycles,
                                    memory_cycles=work.serial_cycles * 0.6)

    def begin_agent_ops(self, csr) -> None:
        """Open the agent loop's per-agent ledgers.

        ``csr`` is the loop's neighbor CSR, or None when nothing in the
        loop reads neighbors.  The transient pair buffers are allocated
        here, before any behavior runs.
        """
        sim = self.sim
        rm = sim.rm
        n = rm.n
        self._cycles = np.zeros(n)
        self._mem = np.zeros(n)
        self._dom_counts = np.zeros((n, rm.num_domains))
        self._own_stream = self.cm.stream_cycles(rm.agent_size_bytes)
        # An agent's own payload lives in its segment's domain; those
        # cache lines also go remote when a foreign thread runs the
        # block (the main cost NUMA-aware iteration avoids, §4.1).
        own_lines = rm.agent_size_bytes / 64.0
        own_domain = rm.domain_of_index(np.arange(n))
        self._dom_counts[np.arange(n), own_domain] += own_lines * 2.0
        self._counts = self._nbr_mem = self._nbr_dom = None
        if csr is not None:
            indptr, indices = csr
            self._counts, qi = sim.scheduler.neighbor_cache.expand(
                indptr, indices)
            self._nbr_mem, self._nbr_dom = self.neighbor_memory_profile(
                qi, indices, n)
            self._charge_transient_buffers(len(indices) * 16)

    def behavior(self, behavior, idx) -> None:
        """Add one behavior's cost for the agents it ran on."""
        cm = self.cm
        cycles, mem = self._cycles, self._mem
        cycles[idx] += cm.compute_cycles(behavior.compute_ops_per_agent) + self._own_stream
        mem[idx] += self._own_stream
        if behavior.uses_neighbors and self._nbr_mem is not None:
            nbr_mem = self._nbr_mem
            cycles[idx] += nbr_mem[idx] + cm.compute_cycles(
                8.0 * self._counts[idx])
            mem[idx] += nbr_mem[idx]
            self._dom_counts[idx] += self._nbr_dom[idx]

    def user_op(self, op) -> None:
        """Add one user agent operation's cost for every agent."""
        cm = self.cm
        own = self._own_stream
        self._cycles += cm.compute_cycles(op.compute_ops_per_agent) + own
        self._mem += own
        if op.uses_neighbors and self._nbr_mem is not None:
            self._cycles += self._nbr_mem + cm.compute_cycles(4.0 * self._counts)
            self._mem += self._nbr_mem

    def mechanics(self, res, detect: bool) -> None:
        """Add the force + displacement cost, then static detection's.
        Reads the ``static`` flags the kernels skipped, so it runs before
        detection rewrites them."""
        sim = self.sim
        m = self.machine
        cm = self.cm
        if sim.gpu_device is not None:
            # Transparent GPU offload (§2): the device does the grid
            # build and force kernels; the host blocks on transfers +
            # kernels (charged serially, like a synchronous offload).
            bd = sim.gpu_device.mechanics_offload(sim.rm.n, res.pairs_evaluated)
            m.run_serial("gpu_offload", m.spec.seconds_to_cycles(bd.total_s),
                         memory_cycles=m.spec.seconds_to_cycles(
                             bd.upload_s + bd.download_s))
        else:
            n = sim.rm.n
            act = ~sim.rm.data["static"] if detect else np.ones(n, dtype=bool)
            search = sim.env.search_cycles_per_agent()
            pair_comp = cm.compute_cycles(
                self._counts * InteractionForce.OPS_PER_PAIR
            ) + cm.compute_cycles(DISPLACEMENT_OPS)
            nbr_mem, own_stream = self._nbr_mem, self._own_stream
            self._cycles[act] += (
                pair_comp[act] + nbr_mem[act] + search[act] + own_stream)
            self._mem[act] += nbr_mem[act] + search[act] + own_stream
            self._dom_counts[act] += self._nbr_dom[act]
        if detect:
            self._cycles += cm.compute_cycles(DETECTION_OPS_PER_AGENT)

    def end_agent_ops(self) -> None:
        """Charge the agent loop as one parallel region."""
        self._charge_agent_region(
            "agent_ops", self._cycles, self._mem, self._dom_counts)
        self._drain_allocator_cycles("agent_ops")

    def diffusion(self, total_voxels: int) -> None:
        """Charge ``total_voxels`` stencil updates."""
        cm = self.cm
        comp = cm.compute_cycles(OPS_PER_VOXEL) * total_voxels
        memc = cm.stream_cycles(total_voxels * 8 * 2)
        self._charge_items_region("diffusion", comp + memc, memc, total_voxels)

    def standalone(self, op) -> None:
        """Charge one standalone operation run."""
        total = self.cm.compute_cycles(op.compute_ops)
        if op.parallelizable:
            items = op.num_items(self.sim)
            self._charge_items_region(op.name, total, total * 0.3, items)
        else:
            self.machine.run_serial(op.name, total)

    def sorting(self, result) -> None:
        """Charge a sort tick (``result`` of ``sort_and_balance``, None
        when no sort ran) and the stage's allocator traffic."""
        if result is not None:
            rm = self.sim.rm
            cm = self.cm
            cycles = np.full(rm.n, cm.compute_cycles(result.rank_ops_per_agent))
            copy_mem = cm.stream_cycles(result.copied_bytes) / max(rm.n, 1)
            self._charge_agent_region(
                "agent_sorting", cycles + copy_mem, np.full(rm.n, copy_mem))
            # Step F: per-box counting + work-efficient scan (parallel).
            boxes = result.boxes_touched
            self._charge_items_region(
                "agent_sorting", boxes * 4.0, boxes * 2.0, boxes)
            # Step D: serial gap traversal (tiny — O(#runs * depth)).
            self.machine.run_serial("agent_sorting", result.serial_cycles)
        self._drain_allocator_cycles("agent_sorting")

    def commit(self, stats) -> None:
        """Charge the commit of queued additions/removals (``stats``)."""
        sim = self.sim
        rm = sim.rm
        m = self.machine
        cm = self.cm
        # Fixed per-iteration teardown cost (queue scans, barriers).
        m.run_serial("setup_teardown", 300.0)
        items = stats.added + stats.removed
        if sim.param.parallel_agent_modifications:
            if items:
                comp = items * cm.compute_cycles(40.0)
                memc = cm.stream_cycles(items * rm.agent_size_bytes)
                self._charge_items_region(
                    "setup_teardown", comp + memc, memc, items)
        else:
            # Serial path: scans the whole vector to compact it.
            scan = stats.serial_scan_items if stats.removed else 0
            cycles = items * cm.compute_cycles(40.0) + scan * 4.0
            if cycles:
                m.run_serial("setup_teardown", cycles, memory_cycles=cycles * 0.5)
        self._drain_allocator_cycles("setup_teardown")

    def visualization(self) -> None:
        """Charge one visualization callback."""
        self.machine.run_serial("visualization", self.sim.rm.n * 1.0)
