"""The simulation scheduler (paper Algorithm 1).

Executes, per iteration:

1. *pre* standalone operations — interaction-radius update and environment
   rebuild (L3–5);
2. the parallel loop over agents running every agent operation (L7–11):
   behaviors, mechanical forces + displacement, static-region detection;
3. *standalone* operations (L12–14): diffusion, agent sorting & balancing
   (at its configured frequency);
4. *post* standalone operations (L16–18): committing queued agent
   additions/removals, visualization hook.

When the simulation carries a virtual :class:`~repro.parallel.machine.Machine`,
every region charges its cost: parallel regions submit per-agent cycle
estimates (compute from the operations' op counts, memory from the cost
model priced at the agents' *actual simulated addresses*), serial regions
charge one thread.  Region names match the paper's Fig. 5 breakdown:
``agent_ops``, ``build_environment``, ``agent_sorting``, ``diffusion``,
``setup_teardown``, ``visualization``.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.core.force import InteractionForce
from repro.env.environment import csr_row_index, refilter_csr
from repro.core.sorting import sort_and_balance
from repro.core.static_detection import (
    DETECTION_OPS_PER_AGENT,
    update_static_flags,
)
from repro.core.diffusion import OPS_PER_VOXEL
from repro.core.operation import AgentOperation, OpKind
from repro.parallel.machine import SchedulePolicy, make_blocks

__all__ = ["Scheduler"]


#: Arithmetic ops for one agent's displacement integration.
DISPLACEMENT_OPS = 30.0

#: Transient per-iteration buffers are charged to the "other objects"
#: allocator in chunks of this many bytes.
TRANSIENT_CHUNK = 64 * 1024


class Scheduler:
    """Runs Algorithm 1 and performs all virtual-cost accounting."""

    def __init__(self, sim):
        self.sim = sim
        self.iteration = 0
        self.peak_memory_bytes = 0
        #: Observability bundle (``sim.obs``): stage timings and every
        #: scheduler counter live in its registry.
        self._obs = sim.obs
        self._env_rebuilds = self._obs.registry.counter("scheduler:env_rebuilds")
        self._env_rebuild_skips = self._obs.registry.counter(
            "scheduler:env_rebuild_skips"
        )
        self._iterations_done = self._obs.registry.counter("scheduler:iterations")
        self._diffusion_steps = self._obs.registry.counter("diffusion:steps")
        self._diffusion_voxels = self._obs.registry.counter("diffusion:voxels")
        #: (radius, structure_version, n) the current exact neighbor CSR
        #: answers for — set by full rebuilds *and* cache re-filters, so a
        #: static scene full-skips either way.
        self._env_key = None
        #: Whether any agent moved or grew since the last build.
        self._moved_since_build = True
        #: Whether the last build stage deferred its build (no reader):
        #: the first ``sim.neighbors()`` runs it on demand.
        self._env_deferred = False
        self._env_builds_deferred = self._obs.registry.counter(
            "scheduler:env_builds_deferred")
        # --- Displacement-bounded neighbor cache (Verlet-skin CSR reuse).
        self._cache_hits = self._obs.registry.counter("neighbor_cache:hits")
        self._cache_misses = self._obs.registry.counter("neighbor_cache:misses")
        self._cache_refilters = self._obs.registry.counter(
            "neighbor_cache:refilters"
        )
        #: Superset CSR built at ``interaction_radius + skin``:
        #: ``(indptr, indices, qi)`` or None.
        self._cache_csr = None
        #: Build radius including the skin — the displacement budget B.
        self._cache_budget = 0.0
        #: ``rm.structure_version`` at build time; any structural change
        #: (commit, sort/reorder, checkpoint restore) bumps it and thereby
        #: invalidates the cache.
        self._cache_struct = None
        #: Positions snapshot at build time (displacement reference).
        self._pos_at_build = None
        #: Interaction radius at build time (radius growth eats budget).
        self._build_radius = 0.0
        #: Iteration of the last superset build (rebuild-interval stat).
        self._build_iteration = 0
        #: Estimated skin consumption per step (displacement + radius
        #: growth), updated on every cache miss; None until first measured.
        self._consumption = None
        #: EMA of "the last miss was structural and came quickly" — under
        #: sustained churn (e.g. a division wave) the skin drops to 0.
        self._churn = 0.0
        #: ``(indices, counts, qi)`` of the CSR last expanded for the agent
        #: loop, keyed by the identity of ``indices`` (strong ref kept, so
        #: the id cannot be reused while cached).
        self._qi_cache = None
        # --- Agent-ops pipeline (staged commits + cached dispatch).
        self._commit_fast_appends = self._obs.registry.counter(
            "commit:fast_appends"
        )
        self._commit_staged_rows = self._obs.registry.counter(
            "commit:staged_rows"
        )
        self._mask_cache_hits = self._obs.registry.counter(
            "agent_ops:mask_cache_hits"
        )
        self._dispatch_seconds = self._obs.registry.counter(
            "agent_ops:dispatch_seconds"
        )
        #: Behavior-dispatch cache: ``{bit: flatnonzero(mask & bit)}``
        #: valid for ``_mask_cache_key`` — any structural change or
        #: out-of-commit mask write (``rm.mask_version``) starts a fresh
        #: dict, so a behavior that re-masks agents mid-iteration is still
        #: dispatched exactly like a fresh per-behavior scan.
        self._mask_cache: dict[int, np.ndarray] = {}
        self._mask_cache_key = None
        # --- Event-driven quiescence scheduling (repro.core.events).
        #: Wake-time bookkeeping + jump executor, or None when disabled.
        #: Never engages under a virtual machine (every tick must be
        #: charged) or the distributed backend (shards assume every epoch
        #: passes through them).
        self.events = None
        if (
            sim.param.event_scheduling
            and sim.machine is None
            and sim.param.execution_backend in ("serial", "process")
        ):
            from repro.core.events import EventScheduler

            self.events = EventScheduler(self)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def simulate(self, iterations: int) -> None:
        """Run Algorithm 1 for ``iterations`` time steps."""
        remaining = int(iterations)
        while remaining > 0:
            remaining -= self.advance(remaining)

    def advance(self, max_ticks: int = 1) -> int:
        """Advance by one scheduling quantum; return ticks consumed.

        With event scheduling enabled, a provably-inert stretch is
        consumed as one horizon jump (up to ``max_ticks`` ticks);
        otherwise exactly one normal tick runs.  The event horizon is
        cached per quiet stretch, so consecutive calls inside one stretch
        cost O(1) each — independent of the agent count and of
        ``max_ticks`` but for the clock adds and the due samplers.  This
        is the primitive the serve layer's background advance loops on,
        so idle sessions cost one jump per lock hold instead of one tick.
        """
        if max_ticks <= 0:
            return 0
        if self.events is not None:
            jumped = self.events.try_jump(max_ticks)
            if jumped:
                return jumped
        self._iterate()
        return 1

    # ------------------------------------------------------------------ #
    # Cost-charging helpers
    # ------------------------------------------------------------------ #

    @property
    def _policy(self) -> SchedulePolicy:
        """NUMA-aware placement with two-level stealing when O3 is on;
        plain dynamic scheduling otherwise (OpenMP balances load either
        way — what it lacks is the domain matching, §4.1)."""
        if self.sim.param.numa_aware_iteration:
            return SchedulePolicy.NUMA_AWARE
        return SchedulePolicy.DYNAMIC

    def _effective_threads(self) -> float:
        m = self.sim.machine
        return float(np.sum(m.thread_speeds)) if m is not None else 1.0

    def _charge_agent_region(
        self, name, cycles, mem_cycles=None, domain_counts=None
    ) -> None:
        """Charge a parallel-over-agents region split by domain segments."""
        m = self.sim.machine
        if m is None or len(cycles) == 0:
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
            block_size = max(
                8,
                min(self.sim.param.block_size, -(-seg_len // (threads_here * 8))),
            )
            blocks.extend(
                make_blocks(
                    cycles[sl],
                    None if mem_cycles is None else mem_cycles[sl],
                    domain=d,
                    access_domain_counts=None
                    if domain_counts is None
                    else domain_counts[sl],
                    block_size=block_size,
                )
            )
        m.run_parallel(name, blocks, self._policy)

    def _charge_items_region(self, name, total_cycles, total_mem, items) -> None:
        """Charge a parallel region over non-agent items (voxels, swaps)."""
        m = self.sim.machine
        if m is None or items == 0:
            return
        per = total_cycles / items
        per_mem = total_mem / items
        n_blocks = max(
            min(items, m.num_threads * 2), items // self.sim.param.block_size
        )
        blocks = make_blocks(
            np.full(n_blocks, per * items / n_blocks),
            np.full(n_blocks, per_mem * items / n_blocks),
            domain=0,
            block_size=1,
        )
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
        m = self.sim.machine
        if m is None:
            return
        eff = self._effective_threads()
        total = 0.0
        for al in {id(self.sim.agent_allocator): self.sim.agent_allocator,
                   id(self.sim.other_allocator): self.sim.other_allocator}.values():
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
            m.run_serial(name, total, memory_cycles=total * 0.5)

    # ------------------------------------------------------------------ #
    # One iteration
    # ------------------------------------------------------------------ #

    def _iterate(self) -> None:
        sim = self.sim
        obs = self._obs
        with obs.tracer.span("iterate", cat="scheduler", iteration=self.iteration):
            self._iterate_stages()
        self._iterations_done.inc()
        self.iteration += 1
        self.peak_memory_bytes = max(self.peak_memory_bytes, sim.memory_bytes())
        if self.events is not None:
            # Anything may have mutated this tick: drop wake-time and
            # diffusion fixed-point caches (recomputed lazily).
            self.events.note_state_change()

    def _iterate_stages(self) -> None:
        sim = self.sim
        rm = sim.rm
        p = sim.param
        m = sim.machine
        obs = self._obs

        # ---- Pre standalone: rebuild the environment (Algorithm 1, L3-5).
        self._run_standalone_ops(OpKind.PRE)
        with obs.stage("build_environment"):
            work = self._build_environment()
            if self._needs_neighbors():
                # Materialize the CSR here, not lazily inside agent_ops, so
                # the search is booked to the stage that owns it.
                sim.neighbors()
            if m is not None and work is not None:
                if work.parallelizable and work.per_item_cycles is not None:
                    cycles = work.per_item_cycles
                    if work.random_access_spread_bytes:
                        scatter = float(
                            m.cost_model.latency_for_deltas(
                                work.random_access_spread_bytes / 27.0
                            )
                        )
                        cycles = cycles + scatter
                    self._charge_agent_region(
                        "build_environment",
                        cycles,
                        cycles * 0.6,
                    )
                else:
                    m.run_serial(
                        "build_environment",
                        work.serial_cycles,
                        memory_cycles=work.serial_cycles * 0.6,
                    )

        # ---- Agent operations (Algorithm 1, L7-11).
        with obs.stage("agent_ops"):
            self._run_agent_ops()

        # ---- Standalone operations (L12-14).
        with obs.stage("diffusion"):
            self._run_diffusion()
        self._run_standalone_ops(OpKind.STANDALONE)

        with obs.stage("agent_sorting"):
            freq = p.agent_sort_frequency
            if freq > 0 and (self.iteration + 1) % freq == 0:
                result = sort_and_balance(sim)
                if result is not None and m is not None:
                    cm = m.cost_model
                    cycles = np.full(
                        rm.n, cm.compute_cycles(result.rank_ops_per_agent)
                    )
                    copy_mem = cm.stream_cycles(result.copied_bytes) / max(rm.n, 1)
                    self._charge_agent_region(
                        "agent_sorting", cycles + copy_mem, np.full(rm.n, copy_mem)
                    )
                    # Step F: per-box counting + work-efficient scan (parallel).
                    self._charge_items_region(
                        "agent_sorting",
                        result.boxes_touched * 4.0,
                        result.boxes_touched * 2.0,
                        result.boxes_touched,
                    )
                    # Step D: serial gap traversal (tiny — O(#runs * depth)).
                    m.run_serial("agent_sorting", result.serial_cycles)
                if result is not None:
                    sim.invalidate_neighbor_cache()
            self._drain_allocator_cycles("agent_sorting")

        # ---- Post standalone: commit agent modifications, visualization.
        with obs.stage("setup_teardown"):
            self._commit()

        with obs.stage("visualization"):
            if sim.visualize_callback is not None:
                sim.visualize_callback(sim)
                if m is not None:
                    m.run_serial("visualization", rm.n * 1.0)
        # Simulated time advances before the end-of-iteration operations,
        # so post-op samplers (e.g. TimeSeries) see the completed step.
        sim.time += p.simulation_time_step
        self._run_standalone_ops(OpKind.POST)

        # ---- Self-verification: engine invariants (repro.verify).
        freq = p.check_invariants_frequency
        if freq > 0 and (self.iteration + 1) % freq == 0:
            from repro.verify.invariants import check_simulation_invariants

            with obs.stage("invariant_checks"):
                check_simulation_invariants(sim, raise_on_violation=True)

    # ------------------------------------------------------------------ #
    # Environment build: skip, defer, or build
    # ------------------------------------------------------------------ #

    def _env_key_now(self):
        """The ``_env_key`` an exact CSR built now would answer for."""
        sim = self.sim
        return (sim.interaction_radius(), sim.rm.structure_version, sim.rm.n)

    def _build_environment(self, on_demand: bool = False):
        """The ``build_environment`` stage's body (also run out of stage
        by :meth:`ensure_environment`): skip, defer, or build.

        Skips when nothing could have changed the answer: no agent moved
        or grew since the last build, the population was not restructured,
        the radius is the same, and the CSR cache was not dropped by code
        outside the scheduler's view.  Defers when nobody will read the
        result (no virtual machine to charge, no neighbor consumer in the
        agent loop — §5's "omit the work nobody needs"), leaving
        ``_moved_since_build`` / ``_env_key`` alone: the build stays owed
        to the first reader.  Returns the ``BuildWork`` of a plain
        ``env.update`` (what the virtual machine charges), else ``None``.
        """
        sim = self.sim
        env_key = self._env_key_now()
        if (not self._moved_since_build and self._env_key == env_key
                and sim._csr_cache is not None):
            self._env_rebuild_skips.inc()
            return None
        self._env_deferred = (not on_demand and sim.machine is None
                              and not self._needs_neighbors())
        if self._env_deferred:
            self._drop_neighbor_cache()
            sim.invalidate_neighbor_cache()
            self._env_builds_deferred.inc()
            return None
        if self._cache_enabled():
            self._build_or_refilter(env_key[0], env_key)
            return None
        self._drop_neighbor_cache()
        work = sim.env.update(sim.rm.positions, env_key[0])
        sim.invalidate_neighbor_cache()
        self._env_rebuilds.inc()
        self._env_key = env_key
        self._moved_since_build = False
        self._notify_rebuild(sim)
        return work

    def ensure_environment(self) -> None:
        """Run the build a ``sim.neighbors()`` caller is owed, if any.

        Inside a tick only a *deferred* build is owed: declared readers
        got theirs in the build stage and keep the tick-start lists.
        Between ticks it is owed whenever the build is not current, and
        running it is the path the next tick would take — that tick
        skips, the trajectory is unchanged.  Never under a virtual
        machine (every build there is a charged one) or on a closed
        simulation (its columns may be unmapped).
        """
        from repro.core.simulation import SimulationState

        sim = self.sim
        if sim.machine is not None or sim.state is SimulationState.CLOSED:
            return
        owed = self._env_deferred
        if not owed and sim.state is not SimulationState.RUNNING:
            owed = (self._moved_since_build
                    or self._env_key != self._env_key_now())
        if owed:
            self._build_environment(on_demand=True)

    # ------------------------------------------------------------------ #
    # Displacement-bounded neighbor cache (Verlet-skin CSR reuse)
    # ------------------------------------------------------------------ #

    def _needs_neighbors(self) -> bool:
        """Whether this iteration's agent loop consumes neighbor lists."""
        sim = self.sim
        return (
            sim.mechanics_enabled
            or any(b.uses_neighbors for b, _ in sim.behaviors)
            or any(
                isinstance(op, AgentOperation) and op.uses_neighbors
                for op in sim.operations
            )
        )

    def _cache_enabled(self) -> bool:
        """Whether the displacement-bounded cache may manage this build.

        Off under a virtual machine (cost-model figures must keep the
        paper's rebuild-every-step accounting), for environments that do
        not guarantee canonically ordered CSR rows (kd-tree, octree), and
        for models that never read neighbor lists (no CSR worth caching).
        """
        sim = self.sim
        return (
            sim.param.neighbor_cache
            and sim.machine is None
            and sim.env.supports_neighbor_cache
            and self._needs_neighbors()
        )

    def _drop_neighbor_cache(self) -> None:
        """Forget the superset CSR and its displacement bookkeeping."""
        self._cache_csr = None
        self._cache_struct = None
        self._pos_at_build = None
        self._cache_budget = 0.0

    def _notify_rebuild(self, sim) -> None:
        """Tell adaptive backends the environment was just rebuilt (the
        boundary where ``execution_backend="auto"`` re-decides)."""
        backend = getattr(sim, "backend", None)
        if backend is not None:
            backend.on_environment_rebuild(sim)

    def _max_displacement(self) -> float:
        """Max Euclidean distance any agent moved since the last build."""
        rm = self.sim.rm
        if rm.n == 0 or self._pos_at_build is None:
            return 0.0
        delta = rm.positions - self._pos_at_build
        d2 = np.einsum("ij,ij->i", delta, delta)
        return math.sqrt(float(d2.max()))

    def _choose_skin(self, radius: float) -> float:
        """Skin width for the next superset build.

        ``Param.neighbor_skin > 0`` fixes it.  Otherwise auto-tune: size
        the skin so the measured per-step consumption (displacement +
        radius growth) lasts ~10 steps, clamped to ``[0.05, 0.3] *
        radius``; fall back to 0 (plain exact builds, no re-filter cost)
        when the scene moves too fast for even the largest skin to buy two
        cached steps, or while structural churn keeps killing the cache.
        """
        p = self.sim.param
        if p.neighbor_skin > 0:
            return float(p.neighbor_skin)
        if self._churn > 0.7:
            return 0.0
        c = self._consumption
        if c is None or c <= 0.0:
            return 0.1 * radius
        skin = min(max(10.0 * c, 0.05 * radius), 0.3 * radius)
        if skin < 10.0 * c and skin / c < 2.0:
            return 0.0
        return skin

    def _build_or_refilter(self, radius: float, env_key) -> None:
        """The cache-managed build stage: re-filter if the budget holds,
        else measure, retune the skin, and rebuild the superset.

        A cached superset built at positions ``P0`` with radius ``B``
        contains every pair within ``B`` of ``P0``; for a current pair
        ``|xi - xj| <= r`` the triangle inequality gives ``|x0i - x0j| <=
        r + 2*Dmax``, so while ``r + 2*Dmax <= B`` the superset covers the
        exact CSR and one order-preserving distance pass reproduces it
        bit for bit.  Any structural change (commit, reorder, restore)
        bumps ``rm.structure_version`` and forces the rebuild path.
        """
        sim = self.sim
        rm = sim.rm
        obs = self._obs
        struct = rm.structure_version
        same_struct = (
            self._cache_struct is not None
            and struct == self._cache_struct
            and self._pos_at_build is not None
            and len(self._pos_at_build) == rm.n
        )
        dmax = self._max_displacement() if same_struct else 0.0
        if self._cache_csr is not None and same_struct:
            slack = self._cache_budget - radius
            if slack > 0.0 and 2.0 * dmax <= slack:
                sup_ip, sup_ix, sup_qi = self._cache_csr
                with obs.tracer.span(
                    "neighbor_refilter", cat="cache", iteration=self.iteration
                ):
                    ip, ix, qi = refilter_csr(
                        sup_ip, sup_ix, sup_qi, rm.positions, radius,
                        kernels=getattr(sim, "kernels", None),
                    )
                sim._csr_cache = (ip, ix)
                self._qi_cache = (ix, np.diff(ip), qi)
                self._cache_hits.inc()
                self._cache_refilters.inc()
                self._env_key = env_key
                self._moved_since_build = False
                return
        # Miss: measure how fast the budget was consumed, update the churn
        # estimate, pick a skin, and rebuild.
        self._cache_misses.inc()
        interval = max(self.iteration - self._build_iteration, 1)
        struct_changed = (
            self._cache_struct is not None and struct != self._cache_struct
        )
        if same_struct:
            c = (2.0 * dmax + max(radius - self._build_radius, 0.0)) / interval
            old = self._consumption
            self._consumption = c if old is None else max(c, 0.7 * old)
        self._churn = 0.5 * self._churn + (
            0.5 if struct_changed and interval <= 2 else 0.0
        )
        skin = self._choose_skin(radius)
        if skin > 0.0:
            # Tiny relative pad so float rounding in ``radius + skin``
            # cannot shave a boundary pair off the superset; extra pairs
            # are harmless (the re-filter removes them).
            sim.env.update(rm.positions, (radius + skin) * (1.0 + 1e-9))
            # Materialize eagerly: ``env._positions`` aliases the live
            # position columns, so a lazily built CSR after agents move
            # would no longer describe the build-time snapshot.
            sup_ip, sup_ix = sim.env.neighbor_csr()
            sup_qi = csr_row_index(sup_ip, sup_ix)
            self._cache_csr = (sup_ip, sup_ix, sup_qi)
            self._cache_budget = radius + skin
            ip, ix, qi = refilter_csr(sup_ip, sup_ix, sup_qi,
                                      rm.positions, radius,
                                      kernels=getattr(sim, "kernels", None))
            sim._csr_cache = (ip, ix)
            self._qi_cache = (ix, np.diff(ip), qi)
        else:
            self._drop_neighbor_cache()
            sim.env.update(rm.positions, radius)
            sim.invalidate_neighbor_cache()
        self._cache_struct = struct
        self._pos_at_build = rm.positions.copy()
        self._build_radius = radius
        self._build_iteration = self.iteration
        self._env_rebuilds.inc()
        self._env_key = env_key
        self._moved_since_build = False
        self._notify_rebuild(sim)

    def _expand_csr(self, indptr, indices):
        """``(counts, row-ids)`` of a CSR, cached by ``indices`` identity.

        The ``np.repeat(arange(n), counts)`` expansion is O(#pairs) and a
        pure function of the CSR, so recomputing it while the CSR object
        is unchanged (skipped rebuilds, multi-consumer iterations) is
        waste.  The cache keeps a strong reference to ``indices``, so its
        id cannot be recycled while the entry lives; cache re-filters
        pre-populate it with the row ids the filter already produced.
        """
        cached = self._qi_cache
        if (
            cached is not None
            and cached[0] is indices
            and len(cached[1]) == len(indptr) - 1
        ):
            return cached[1], cached[2]
        counts = np.diff(indptr)
        qi = np.repeat(np.arange(len(indptr) - 1, dtype=np.int64), counts)
        self._qi_cache = (indices, counts, qi)
        return counts, qi

    # ------------------------------------------------------------------ #

    def _neighbor_memory_profile(self, qi, qj, n):
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
        m = self.sim.machine
        rm = self.sim.rm
        cm = m.cost_model
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

    def _behavior_indices(self, rm, bit) -> np.ndarray:
        """Storage indices of agents carrying behavior ``bit``.

        The ``flatnonzero`` scan runs once per structural/mask change
        instead of once per behavior per step: the index lists are cached
        keyed on ``(structure_version, mask_version, n)``, and any commit,
        reorder, restore, or out-of-commit mask write starts a fresh cache
        — so a behavior that attaches or detaches bits mid-iteration still
        sees exactly what a fresh scan would.
        """
        mask = rm.data["behavior_mask"]
        key = (rm.structure_version, rm.mask_version, rm.n)
        if self._mask_cache_key != key:
            self._mask_cache_key = key
            self._mask_cache = {}
        idx = self._mask_cache.get(bit)
        if idx is None:
            t0 = time.perf_counter()
            idx = np.flatnonzero(mask & np.uint64(bit))
            self._dispatch_seconds.inc(time.perf_counter() - t0)
            self._mask_cache[bit] = idx
        else:
            self._mask_cache_hits.inc()
        return idx

    def _run_agent_ops(self) -> None:
        sim = self.sim
        rm = sim.rm
        p = sim.param
        m = sim.machine
        n = rm.n
        if n == 0:
            return
        charge = m is not None
        cm = m.cost_model if charge else None

        if charge:
            cycles = np.zeros(n)
            mem = np.zeros(n)
            dom_counts = np.zeros((n, rm.num_domains))
            own_stream = cm.stream_cycles(rm.agent_size_bytes)
            # An agent's own payload lives in its segment's domain; those
            # cache lines also go remote when a foreign thread runs the
            # block (the main cost NUMA-aware iteration avoids, §4.1).
            own_lines = rm.agent_size_bytes / 64.0
            own_domain = rm.domain_of_index(np.arange(n))
            dom_counts[np.arange(n), own_domain] += own_lines * 2.0

        # Neighbor relations are needed by forces and neighbor-using
        # behaviors; fetch once (cached).
        need_neighbors = self._needs_neighbors()
        if need_neighbors:
            indptr, indices = sim.neighbors()
            counts_arr, qi_all = self._expand_csr(indptr, indices)
            # Backends that re-derive neighbor lists elsewhere (the
            # distributed shards) need the positions this CSR was
            # materialized from: behaviors below may move agents, and
            # mechanics pairs are defined by *these* coordinates.
            sim.backend.stash_csr_positions(rm)
            if charge:
                nbr_mem, nbr_dom = self._neighbor_memory_profile(qi_all, indices, n)
                self._charge_transient_buffers(len(indices) * 16)

        # --- Behaviors.
        with self._obs.stage("behaviors"):
            for behavior, bit in sim.behaviors:
                idx = self._behavior_indices(rm, bit)
                if len(idx) == 0:
                    continue
                if self.events is not None:
                    # Event-driven dispatch: only agents whose wake time
                    # is due (bitwise identical by the next_fire
                    # contract).  Evaluated here — not at tick start — so
                    # mutations by earlier behaviors this tick are seen.
                    idx = self.events.filter_due(behavior, bit, idx)
                    if len(idx) == 0:
                        continue
                behavior.run(sim, idx)
                if self.events is not None:
                    self.events.note_state_change()
                if charge:
                    cycles[idx] += cm.compute_cycles(behavior.compute_ops_per_agent) + own_stream
                    mem[idx] += own_stream
                    if behavior.uses_neighbors and need_neighbors:
                        cycles[idx] += nbr_mem[idx] + cm.compute_cycles(
                            8.0 * counts_arr[idx]
                        )
                        mem[idx] += nbr_mem[idx]
                        dom_counts[idx] += nbr_dom[idx]

        # --- User-defined agent operations.
        if any(isinstance(op, AgentOperation) for op in sim.operations):
            self._run_user_agent_ops(
                cycles if charge else None,
                mem if charge else None,
                nbr_mem if charge and need_neighbors else None,
                counts_arr if need_neighbors else None,
                need_neighbors,
            )

        # --- Mechanical forces + displacement (via the execution backend).
        if sim.mechanics_enabled:
            # §5: the detection conditions are tied to the force
            # implementation; refuse to skip agents under a force that
            # does not support them.
            detect = p.detect_static_agents and sim.force.supports_static_detection
            with self._obs.stage("mechanics"):
                res = sim.backend.force_and_displace(sim, indptr, indices, detect)

            if charge and sim.gpu_device is not None:
                # Transparent GPU offload (§2): the device does the grid
                # build and force kernels; the host blocks on transfers +
                # kernels (charged serially, like a synchronous offload).
                bd = sim.gpu_device.mechanics_offload(n, res.pairs_evaluated)
                m.run_serial(
                    "gpu_offload",
                    m.spec.seconds_to_cycles(bd.total_s),
                    memory_cycles=m.spec.seconds_to_cycles(
                        bd.upload_s + bd.download_s
                    ),
                )
            elif charge:
                act = ~rm.data["static"] if detect else np.ones(n, dtype=bool)
                search = sim.env.search_cycles_per_agent()
                pair_comp = cm.compute_cycles(
                    counts_arr * InteractionForce.OPS_PER_PAIR
                ) + cm.compute_cycles(DISPLACEMENT_OPS)
                cycles[act] += (
                    pair_comp[act] + nbr_mem[act] + search[act] + own_stream
                )
                mem[act] += nbr_mem[act] + search[act] + own_stream
                dom_counts[act] += nbr_dom[act]

            if detect:
                # In place: the column must keep its (possibly shared-
                # memory) backing buffer.
                rm.data["static"][:] = update_static_flags(
                    rm.data["moved"],
                    rm.data["grew"],
                    res.nonzero_neighbor_forces,
                    indptr,
                    indices,
                )
                if charge:
                    det = cm.compute_cycles(DETECTION_OPS_PER_AGENT)
                    cycles += det
        if charge:
            self._charge_agent_region("agent_ops", cycles, mem, dom_counts)
        self._drain_allocator_cycles("agent_ops")
        self._finish_agent_ops(rm, p)

    def _finish_agent_ops(self, rm, p) -> None:
        """Fused end-of-loop pass: bound_space clamp + flag capture/reset.

        Clamps movements into the closed simulation space, remembers
        whether anything moved or grew (so the next iteration knows the
        environment must be rebuilt), and resets the per-iteration flags —
        skipping the column writes entirely when a flag array is already
        all-False (static scenes).  Agents committed later this iteration
        are inserted with moved=True, preserving condition (iii) of §5.
        """
        if p.bound_space is not None:
            lo, hi = p.bound_space
            np.clip(rm.positions, lo, hi, out=rm.positions)
        moved = rm.data["moved"]
        grew = rm.data["grew"]
        moved_any = bool(moved.any())
        grew_any = bool(grew.any())
        if moved_any or grew_any:
            self._moved_since_build = True
            if moved_any:
                moved[:] = False
            if grew_any:
                grew[:] = False

    def _run_standalone_ops(self, kind: OpKind) -> None:
        """Execute user operations of the given kind that are due."""
        sim = self.sim
        m = sim.machine
        for op in sim.operations:
            if op.kind is not kind or isinstance(op, AgentOperation):
                continue
            if not op.due(self.iteration):
                continue
            with self._obs.stage(op.name):
                op.run(sim)
            # getattr: operations are duck-typed (read_only is optional).
            if self.events is not None and not getattr(op, "read_only", False):
                self.events.note_state_change()
            if m is None:
                continue
            cm = m.cost_model
            if op.parallelizable:
                items = op.num_items(sim)
                total = cm.compute_cycles(op.compute_ops)
                self._charge_items_region(op.name, total, total * 0.3, items)
            else:
                m.run_serial(op.name, cm.compute_cycles(op.compute_ops))

    def _run_user_agent_ops(self, cycles, mem, nbr_mem, counts_arr,
                            need_neighbors) -> None:
        """Execute user-defined agent operations inside the agent loop."""
        sim = self.sim
        m = sim.machine
        cm = m.cost_model if m is not None else None
        n = sim.rm.n
        for op in sim.operations:
            if not isinstance(op, AgentOperation) or not op.due(self.iteration):
                continue
            sim.backend.run_agent_operation(sim, op)
            if self.events is not None:
                self.events.note_state_change()
            if cm is not None and cycles is not None:
                own = cm.stream_cycles(sim.rm.agent_size_bytes)
                cycles += cm.compute_cycles(op.compute_ops_per_agent) + own
                mem += own
                if op.uses_neighbors and nbr_mem is not None:
                    cycles += nbr_mem + cm.compute_cycles(4.0 * counts_arr)
                    mem += nbr_mem

    def _run_diffusion(self) -> None:
        sim = self.sim
        m = sim.machine
        dt = sim.param.simulation_time_step
        kernels = getattr(sim, "kernels", None)
        total_voxels = 0
        for grid in sim.diffusion_grids.values():
            stable = grid.stable_time_step()
            steps = max(1, int(np.ceil(dt / stable)))
            sub_dt = dt / steps
            for _ in range(steps):
                grid.step(sub_dt, kernels=kernels)
            self._diffusion_steps.inc(steps)
            self._diffusion_voxels.inc(grid.num_volumes * steps)
            total_voxels += grid.num_volumes * steps
        if m is not None and total_voxels:
            cm = m.cost_model
            comp = cm.compute_cycles(OPS_PER_VOXEL) * total_voxels
            memc = cm.stream_cycles(total_voxels * 8 * 2)
            self._charge_items_region("diffusion", comp + memc, memc, total_voxels)

    def _commit(self) -> None:
        sim = self.sim
        rm = sim.rm
        p = sim.param
        m = sim.machine
        num_threads = m.num_threads if m is not None else 4
        stats = rm.commit(
            parallel=p.parallel_agent_modifications, num_threads=num_threads
        )
        if stats.fast_append:
            self._commit_fast_appends.inc()
        if stats.staged_rows:
            self._commit_staged_rows.inc(stats.staged_rows)
        if m is not None:
            # Fixed per-iteration teardown cost (queue scans, barriers).
            m.run_serial("setup_teardown", 300.0)
        if m is not None:
            cm = m.cost_model
            if p.parallel_agent_modifications:
                items = stats.added + stats.removed
                if items:
                    comp = items * cm.compute_cycles(40.0)
                    memc = cm.stream_cycles(items * rm.agent_size_bytes)
                    self._charge_items_region(
                        "setup_teardown", comp + memc, memc, items
                    )
            else:
                # Serial path: scans the whole vector to compact it.
                scan = stats.serial_scan_items if stats.removed else 0
                items = stats.added + stats.removed
                cycles = items * cm.compute_cycles(40.0) + scan * 4.0
                if cycles:
                    m.run_serial("setup_teardown", cycles, memory_cycles=cycles * 0.5)
        self._drain_allocator_cycles("setup_teardown")
        if stats.added or stats.removed:
            sim.invalidate_neighbor_cache()
