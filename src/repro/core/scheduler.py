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

Two jobs ride along, each behind one owner: the :class:`NeighborCache`
holds every piece of neighbor-list state (the exact CSR, the Verlet
superset and its skin tuner, the build/moved/deferred decisions), and a
:class:`~repro.parallel.accounting.CostAccountant` — built only when the
simulation carries a virtual machine — charges each stage's cost at its
boundary.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.env.environment import csr_row_index, refilter_csr
from repro.core.sorting import sort_and_balance
from repro.core.static_detection import update_static_flags
from repro.core.operation import AgentOperation, OpKind
from repro.obs.core import SEARCH_TID

__all__ = ["Scheduler", "NeighborCache"]


class NeighborCache:
    """The one owner of a simulation's neighbor-list state.

    Decides, per build stage, whether to skip (nothing could have changed
    the answer), defer (nobody reads it), re-filter the cached Verlet
    superset, or build; holds the exact CSR ``sim.neighbors()`` answers
    with and its row-id expansion.  The superset is built at
    ``interaction_radius + skin`` and reused, one order-preserving
    distance pass per tick, while no agent has used up the skin; the skin
    is auto-tuned from the measured displacement and radius growth.  See
    docs/neighbor_cache.md.
    """

    def __init__(self, sim):
        self.sim = sim
        reg = sim.obs.registry
        self._rebuilds = reg.counter("scheduler:env_rebuilds")
        self._skips = reg.counter("scheduler:env_rebuild_skips")
        self._deferrals = reg.counter("scheduler:env_builds_deferred")
        self._hits = reg.counter("neighbor_cache:hits")
        self._misses = reg.counter("neighbor_cache:misses")
        self._refilters = reg.counter("neighbor_cache:refilters")
        self._relabels = reg.counter("neighbor_cache:relabels")
        self._overlapped = reg.counter("neighbor_cache:overlapped_searches")
        self._search_wait = reg.counter("neighbor_cache:search_wait_s")
        self._search_helper = reg.counter("neighbor_cache:search_helper_s")
        self._search_joined = reg.counter(
            "neighbor_cache:search_chunks_joined")
        #: The exact search :meth:`start_search` started, until its counters
        #: and trace event are recorded.
        self._pending = None
        #: Exact CSR ``(indptr, indices)`` of the current build, or None.
        self._csr = None
        #: ``(indices, counts, qi)`` of the CSR last expanded, keyed by the
        #: identity of ``indices`` (strong ref kept, so the id cannot be
        #: reused while cached).
        self._expanded = None
        #: (radius, structure_version, n) the exact CSR answers for — set
        #: by full rebuilds *and* re-filters, so a static scene full-skips
        #: either way.
        self._key = None
        #: Whether any agent moved or grew since the last build.
        self.moved_since_build = True
        #: Whether the last build stage deferred its build (no reader):
        #: the first ``sim.neighbors()`` runs it on demand.
        self._deferred = False
        # --- Verlet superset.
        #: ``(indptr, indices, qi)`` built at ``budget``, or None; ``qi``
        #: is None after a relabel (the kernels that relabel do not read
        #: it).
        self._superset = None
        #: Build radius including the skin — the displacement budget B.
        self.budget = 0.0
        #: ``rm.structure_version`` the superset's rows answer for; any
        #: structural change (commit, checkpoint restore, a sort the
        #: kernels cannot relabel it through) bumps it and thereby
        #: invalidates the superset.
        self._version = None
        #: Positions at build time (displacement reference).
        self._snapshot = None
        #: Interaction radius at build time (radius growth eats budget).
        self._build_radius = 0.0
        #: Iteration of the last build (rebuild-interval stat).
        self._build_iteration = 0
        #: Estimated skin consumption per step (displacement + radius
        #: growth), updated on every miss; None until first measured.
        self._consumption = None
        #: EMA of "the last miss was structural and came quickly" — under
        #: sustained churn (e.g. a division wave) the skin drops to 0.  A
        #: relabelled sort is no miss, so on such backends only commits
        #: and restores feed it.
        self._churn = 0.0

    # ------------------------------------------------------------------ #
    # Readers
    # ------------------------------------------------------------------ #

    def needed(self) -> bool:
        """Whether this iteration's agent loop consumes neighbor lists."""
        return self.sim.mechanics_enabled or self._declared_readers()

    def _declared_readers(self) -> bool:
        """Whether a behavior or agent operation reads neighbors."""
        sim = self.sim
        return any(b.uses_neighbors for b, _ in sim.behaviors) or any(
            isinstance(op, AgentOperation) and op.uses_neighbors
            for op in sim.operations
        )

    def neighbors(self, running: bool) -> tuple[np.ndarray, np.ndarray]:
        """The exact CSR (``Simulation.neighbors``); ``running`` says
        whether a tick is in progress."""
        if self._csr is None or not running:
            self.ensure()
        if self._csr is None:
            self._csr = self.sim.env.neighbor_csr()
            self._note_search()
        return self._csr

    # ------------------------------------------------------------------ #
    # The exact search overlapped with the behaviors
    # ------------------------------------------------------------------ #

    def start_search(self) -> bool:
        """Start the exact build this stage planned and its search on a
        helper thread, so that they run while the behaviors do; True if it
        did.

        Only when mechanics, which comes after the behaviors, is the one
        neighbor reader; under no virtual machine (its accountant reads the
        CSR first); with the ``c`` kernels on more than one thread (never in
        a process-pool worker); and for an exact uniform-grid batch
        build (the environment declines anything else).  The first reader
        joins it (``sim.neighbors()``), running the search chunks the helper
        has not claimed; :meth:`finish_search` joins it at the latest.
        """
        sim = self.sim
        if (self._csr is not None or sim.machine is not None
                or sim.kernels.threads < 2 or not sim.mechanics_enabled
                or self._declared_readers()):
            return False
        self._pending = sim.env.start_search()
        if self._pending is None:
            return False
        self._overlapped.inc()
        return True

    def finish_search(self) -> None:
        """Join a started search's helper thread, whether or not anyone
        read its CSR (an aborted tick): no helper outlives its tick.  The
        CSR, or the helper's exception, stays with the environment for its
        next reader."""
        if self._pending is not None:
            self._pending.wait()
            self._note_search()

    def _note_search(self) -> None:
        """Record a joined search: the counters (the reader's time at the
        join and the chunks it ran there), and when tracing its helper's
        span on its own thread id -- from this thread, after the join, so
        the tracer is never touched from the helper."""
        pending, self._pending = self._pending, None
        if pending is None:
            return
        self._search_wait.inc(pending.waited)
        self._search_joined.inc(pending.joined)
        self._search_helper.inc((pending.ended - pending.began) * 1e-9)
        self.sim.obs.tracer.record_complete(
            "grid_search", pending.began, pending.ended - pending.began,
            cat="kernel", tid=SEARCH_TID)

    def invalidate(self) -> None:
        """Drop the exact CSR (after moves, commits, or sorting)."""
        self._csr = None

    def expand(self, indptr, indices):
        """``(counts, row-ids)`` of a CSR, cached by ``indices`` identity.

        The ``np.repeat(arange(n), counts)`` expansion is O(#pairs) and a
        pure function of the CSR, so recomputing it while the CSR object
        is unchanged (skipped rebuilds) is waste.  The cache keeps a
        strong reference to ``indices``, so its id cannot be recycled
        while the entry lives.
        """
        cached = self._expanded
        if (
            cached is not None
            and cached[0] is indices
            and len(cached[1]) == len(indptr) - 1
        ):
            return cached[1], cached[2]
        counts = np.diff(indptr)
        qi = np.repeat(np.arange(len(indptr) - 1, dtype=np.int64), counts)
        self._expanded = (indices, counts, qi)
        return counts, qi

    # ------------------------------------------------------------------ #
    # Build: skip, defer, re-filter or build
    # ------------------------------------------------------------------ #

    def _key_now(self):
        """The key an exact CSR built now would answer for."""
        sim = self.sim
        return (sim.interaction_radius(), sim.rm.structure_version, sim.rm.n)

    def _managed(self) -> bool:
        """Whether the Verlet superset may manage this build.

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
            and self.needed()
        )

    def build(self, on_demand: bool = False):
        """The ``build_environment`` stage's body (also run out of stage
        by :meth:`ensure`): skip, defer, re-filter, or build.

        Skips when nothing could have changed the answer: no agent moved
        or grew since the last build, the population was not restructured,
        the radius is the same, and the exact CSR was not dropped by code
        outside the scheduler's view.  Defers when nobody will read the
        result (no virtual machine to charge, no neighbor consumer in the
        agent loop — §5's "omit the work nobody needs"), leaving
        ``moved_since_build`` and the key alone: the build stays owed to
        the first reader.  Returns the ``BuildWork`` of the environment
        build (what the virtual machine charges), else ``None``.
        """
        sim = self.sim
        key = self._key_now()
        if (not self.moved_since_build and self._key == key
                and self._csr is not None):
            self._skips.inc()
            return None
        self._deferred = (not on_demand and sim.machine is None
                         and not self.needed())
        if self._deferred:
            self._drop_superset()
            self._csr = None
            self._deferrals.inc()
            return None
        radius = key[0]
        work = None
        if not self._managed():
            work = self._rebuild(radius, 0.0)
        else:
            # A superset built at positions ``P0`` with radius ``B`` holds
            # every pair within ``B`` of ``P0``; a current pair ``|xi - xj|
            # <= r`` has ``|x0i - x0j| <= r + 2*Dmax``, so while ``r +
            # 2*Dmax <= B`` one order-preserving distance pass over the
            # superset reproduces the exact CSR bit for bit.  Any
            # structural change (commit, restore, a sort not carried
            # through by :meth:`relabel`) bumps ``structure_version`` and
            # misses.
            rm = sim.rm
            same = (self._version == rm.structure_version
                    and self._snapshot is not None
                    and len(self._snapshot) == rm.n)
            dmax = self._max_displacement() if same else 0.0
            slack = self.budget - radius
            if (self._superset is not None and same and slack > 0.0
                    and 2.0 * dmax <= slack):
                sup_ip, sup_ix, sup_qi = self._superset
                with sim.obs.tracer.span("neighbor_refilter", cat="cache",
                                         iteration=sim.scheduler.iteration):
                    ip, ix = refilter_csr(sup_ip, sup_ix, sup_qi,
                                          rm.positions, radius,
                                          kernels=sim.kernels)
                self._csr = (ip, ix)
                self._hits.inc()
                self._refilters.inc()
            else:
                work = self._rebuild(radius, self._retune(radius, same, dmax))
                self._version = rm.structure_version
                self._snapshot = rm.positions.copy()
                self._build_radius = radius
                self._build_iteration = sim.scheduler.iteration
        self._key = key
        self.moved_since_build = False
        return work

    def ensure(self) -> None:
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
        owed = self._deferred
        if not owed and sim.state is not SimulationState.RUNNING:
            owed = self.moved_since_build or self._key != self._key_now()
        if owed:
            self.build(on_demand=True)

    def tuner_state(self) -> dict:
        """The skin tuner's inputs, as JSON scalars: what a restored
        simulation needs to choose the skin the saving one would have
        (checkpoints carry it as a warm hint)."""
        return {"churn": self._churn, "consumption": self._consumption,
                "build_radius": self._build_radius,
                "build_iteration": self._build_iteration}

    def load_tuner_state(self, state: dict, struct: int) -> None:
        """Continue from a :meth:`tuner_state` after a restore that
        replaced the population of ``rm.structure_version`` ``struct``:
        the next build counts the restore as the structural change it is,
        exactly as a commit since the last build."""
        self._drop_superset()
        self._churn = float(state["churn"])
        self._consumption = state["consumption"]
        self._build_radius = float(state["build_radius"])
        self._build_iteration = int(state["build_iteration"])
        self._version = struct

    def _retune(self, radius: float, same: bool, dmax: float) -> float:
        """A miss: measure how fast the budget was consumed, update the
        churn estimate, and return the skin for the rebuild."""
        self._misses.inc()
        interval = max(self.sim.scheduler.iteration - self._build_iteration, 1)
        struct_changed = (self._version is not None
                          and self.sim.rm.structure_version != self._version)
        if same:
            c = (2.0 * dmax + max(radius - self._build_radius, 0.0)) / interval
            old = self._consumption
            self._consumption = c if old is None else max(c, 0.7 * old)
        self._churn = 0.5 * self._churn + (
            0.5 if struct_changed and interval <= 2 else 0.0
        )
        return self._choose_skin(radius)

    def _choose_skin(self, radius: float) -> float:
        """Skin width for the next superset build.

        Sizes the skin so the measured per-step consumption (displacement
        + radius growth) lasts ~10 steps, clamped to ``[0.05, 0.3] *
        radius``; falls back to 0 (plain exact builds, no re-filter cost)
        when the scene moves too fast for even the largest skin to buy two
        cached steps, or while structural churn keeps killing the cache.
        """
        if self._churn > 0.7:
            return 0.0
        c = self._consumption
        if c is None or c <= 0.0:
            return 0.1 * radius
        skin = min(max(10.0 * c, 0.05 * radius), 0.3 * radius)
        if skin < 10.0 * c and skin / c < 2.0:
            return 0.0
        return skin

    def _rebuild(self, radius: float, skin: float):
        """Build the environment at ``radius`` — padded by ``skin`` into a
        superset when ``skin > 0`` — and return its ``BuildWork``."""
        sim = self.sim
        rm = sim.rm
        # Tiny relative pad so float rounding in ``radius + skin`` cannot
        # shave a boundary pair off the superset; extra pairs are harmless
        # (the re-filter removes them).
        work = sim.env.update(
            rm.positions, (radius + skin) * (1.0 + 1e-9) if skin > 0.0 else radius)
        self._rebuilds.inc()
        if skin <= 0.0:
            self._drop_superset()
            self._csr = None
            return work
        # Materialize eagerly: ``env._positions`` aliases the live position
        # columns, so a lazily built CSR after agents move would no longer
        # describe the build-time snapshot.
        sup_ip, sup_ix = sim.env.neighbor_csr()
        # The row index only for a refilter that reads it (NumPy's).
        sup_qi = (csr_row_index(sup_ip, sup_ix)
                  if getattr(sim.kernels, "refilter_reads_qi", True) else None)
        self._superset = (sup_ip, sup_ix, sup_qi)
        self.budget = radius + skin
        ip, ix = refilter_csr(sup_ip, sup_ix, sup_qi, rm.positions, radius,
                              kernels=sim.kernels)
        self._csr = (ip, ix)
        return work

    def _max_displacement(self) -> float:
        """Max Euclidean distance any agent moved since the last build."""
        rm = self.sim.rm
        if rm.n == 0 or self._snapshot is None:
            return 0.0
        delta = rm.positions - self._snapshot
        d2 = np.einsum("ij,ij->i", delta, delta)
        return math.sqrt(float(d2.max()))

    def _drop_superset(self) -> None:
        """Forget the superset and its displacement bookkeeping."""
        self._superset = None
        self._version = None
        self._snapshot = None
        self.budget = 0.0

    def relabel(self, new_order, struct) -> None:
        """Follow a sort: drop the exact CSR and carry the superset
        through the permutation instead of dropping it.

        ``struct`` is ``rm.structure_version`` before the sort.  If the
        superset answered for it, the kernels renumber it by the
        permutation (new row ``b`` is old row ``new_order[b]``, columns
        through the inverse, rows ascending) and the snapshot is gathered
        the same way: the pair set and every displacement are unchanged,
        so the next re-filter reproduces the exact CSR of the sorted
        agents bit for bit.  Kernels that answer None leave the superset
        behind the new ``structure_version``: the next build misses and
        rebuilds it.
        """
        self._csr = None
        if self._superset is None or self._version != struct:
            return
        sup_ip, sup_ix, _ = self._superset
        relabelled = self.sim.kernels.relabel_csr(sup_ip, sup_ix, new_order)
        if relabelled is None:
            return
        self._superset = (*relabelled, None)
        self._snapshot = self._snapshot[new_order]
        self._version = self.sim.rm.structure_version
        self._relabels.inc()


class Scheduler:
    """Runs Algorithm 1."""

    def __init__(self, sim):
        self.sim = sim
        self.iteration = 0
        self.peak_memory_bytes = 0
        #: Observability bundle (``sim.obs``): stage timings and every
        #: scheduler counter live in its registry.
        self._obs = sim.obs
        reg = self._obs.registry
        self._iterations_done = reg.counter("scheduler:iterations")
        self._diffusion_steps = reg.counter("diffusion:steps")
        self._diffusion_voxels = reg.counter("diffusion:voxels")
        #: Environment builds and every neighbor list.
        self.neighbor_cache = NeighborCache(sim)
        #: Virtual-cost charging; None without a virtual machine, so the
        #: wall-clock path never prices anything.
        self.accountant = None
        if sim.machine is not None:
            from repro.parallel.accounting import CostAccountant

            self.accountant = CostAccountant(sim)
        # --- Agent-ops pipeline (staged commits + cached dispatch).
        self._commit_fast_appends = reg.counter("commit:fast_appends")
        self._commit_staged_rows = reg.counter("commit:staged_rows")
        self._mask_cache_hits = reg.counter("agent_ops:mask_cache_hits")
        self._dispatch_seconds = reg.counter("agent_ops:dispatch_seconds")
        self._whole_population = reg.counter(
            "agent_ops:whole_population_dispatches")
        #: Behavior-dispatch cache: ``{bit: flatnonzero(mask & bit)}``
        #: valid for ``_mask_cache_key`` — any structural change or
        #: out-of-commit mask write (``rm.mask_version``) starts a fresh
        #: dict, so a behavior that re-masks agents mid-iteration is still
        #: dispatched exactly like a fresh per-behavior scan.
        self._mask_cache: dict[int, np.ndarray] = {}
        self._mask_cache_key = None
        #: Under ``_mask_cache_key``: the bits every agent carries (one
        #: AND-reduce of the mask column) and the one read-only
        #: ``arange(n)`` each of their cohorts is.
        self._common_bits = 0
        self._everyone = None
        # --- Event-driven quiescence scheduling (repro.core.events).
        #: Wake-time bookkeeping + jump executor, or None when disabled.
        #: Never engages under a virtual machine (every tick must be
        #: charged).
        self.events = None
        if sim.param.event_scheduling and sim.machine is None:
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
        p = sim.param
        obs = self._obs
        acc = self.accountant
        cache = self.neighbor_cache

        # ---- Pre standalone: rebuild the environment (Algorithm 1, L3-5).
        self._run_standalone_ops(OpKind.PRE)
        with obs.stage("build_environment"):
            work = cache.build()
            if cache.needed() and not cache.start_search():
                # Materialize the CSR here, not lazily inside agent_ops, so
                # the search is booked to the stage that owns it.
                sim.neighbors()
            if acc is not None and work is not None:
                acc.build_environment(work)

        # ---- Agent operations (Algorithm 1, L7-11).
        try:
            with obs.stage("agent_ops"):
                self._run_agent_ops()
        finally:
            cache.finish_search()

        # ---- Standalone operations (L12-14).
        with obs.stage("diffusion"):
            self._run_diffusion()
        self._run_standalone_ops(OpKind.STANDALONE)

        with obs.stage("agent_sorting"):
            result = None
            freq = p.agent_sort_frequency
            if freq > 0 and (self.iteration + 1) % freq == 0:
                struct = sim.rm.structure_version
                result = sort_and_balance(sim)
                if result is not None:
                    cache.relabel(result.new_order, struct)
            if acc is not None:
                acc.sorting(result)

        # ---- Post standalone: commit agent modifications, visualization.
        with obs.stage("setup_teardown"):
            self._commit()

        with obs.stage("visualization"):
            if sim.visualize_callback is not None:
                sim.visualize_callback(sim)
                if acc is not None:
                    acc.visualization()
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
    # Agent operations
    # ------------------------------------------------------------------ #

    def _behavior_indices(self, rm, bit) -> np.ndarray:
        """Storage indices of agents carrying behavior ``bit``.

        The cohorts are cached keyed on ``(structure_version,
        mask_version, n)``, and any commit, reorder, restore, or
        out-of-commit mask write starts a fresh cache — so a behavior that
        attaches or detaches bits mid-iteration still sees exactly what a
        fresh scan would.  A fresh key costs one AND-reduce of the mask
        column: a bit every agent carries has ``arange(n)`` for its cohort
        (the values and dtype ``flatnonzero`` returns), shared and
        read-only; only the other bits pay a ``flatnonzero`` scan.
        """
        mask = rm.data["behavior_mask"]
        key = (rm.structure_version, rm.mask_version, rm.n)
        if self._mask_cache_key != key:
            t0 = time.perf_counter()
            self._mask_cache_key = key
            self._mask_cache = {}
            self._common_bits = int(np.bitwise_and.reduce(mask))
            self._everyone = None
            if self._common_bits:
                self._everyone = np.arange(rm.n, dtype=np.intp)
                self._everyone.flags.writeable = False
            self._dispatch_seconds.inc(time.perf_counter() - t0)
        idx = self._mask_cache.get(bit)
        if idx is not None:
            self._mask_cache_hits.inc()
            return idx
        if self._common_bits & bit:
            idx = self._everyone
        else:
            t0 = time.perf_counter()
            idx = np.flatnonzero(mask & np.uint64(bit))
            self._dispatch_seconds.inc(time.perf_counter() - t0)
        self._mask_cache[bit] = idx
        return idx

    def _run_agent_ops(self) -> None:
        sim = self.sim
        rm = sim.rm
        p = sim.param
        if rm.n == 0:
            return
        acc = self.accountant
        if acc is not None:
            acc.begin_agent_ops(
                sim.neighbors() if self.neighbor_cache.needed() else None)

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
                if len(idx) == rm.n:
                    self._whole_population.inc()
                behavior.run(sim, idx)
                if self.events is not None:
                    self.events.note_state_change()
                if acc is not None:
                    acc.behavior(behavior, idx)

        # --- User-defined agent operations.
        if any(isinstance(op, AgentOperation) for op in sim.operations):
            self._run_user_agent_ops()

        # --- Mechanical forces + displacement (via the execution backend).
        if sim.mechanics_enabled:
            # Fetched here, by its first reader: a search the build stage
            # started ran beside the behaviors and is joined now.
            indptr, indices = sim.neighbors()
            # §5: the detection conditions are tied to the force
            # implementation; refuse to skip agents under a force that
            # does not support them.
            detect = p.detect_static_agents and sim.force.supports_static_detection
            with self._obs.stage("mechanics"):
                res = sim.backend.force_and_displace(sim, indptr, indices, detect)
            if acc is not None:
                acc.mechanics(res, detect)
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
        if acc is not None:
            acc.end_agent_ops()
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
            self.neighbor_cache.moved_since_build = True
            if moved_any:
                moved[:] = False
            if grew_any:
                grew[:] = False

    def _run_standalone_ops(self, kind: OpKind) -> None:
        """Execute user operations of the given kind that are due."""
        sim = self.sim
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
            if self.accountant is not None:
                self.accountant.standalone(op)

    def _run_user_agent_ops(self) -> None:
        """Execute user-defined agent operations inside the agent loop."""
        sim = self.sim
        for op in sim.operations:
            if not isinstance(op, AgentOperation) or not op.due(self.iteration):
                continue
            sim.backend.run_agent_operation(sim, op)
            if self.events is not None:
                self.events.note_state_change()
            if self.accountant is not None:
                self.accountant.user_op(op)

    def _run_diffusion(self) -> None:
        sim = self.sim
        dt = sim.param.simulation_time_step
        total_voxels = 0
        for grid in sim.diffusion_grids.values():
            stable = grid.stable_time_step()
            steps = max(1, int(np.ceil(dt / stable)))
            sub_dt = dt / steps
            for _ in range(steps):
                grid.step(sub_dt, kernels=sim.kernels)
            self._diffusion_steps.inc(steps)
            self._diffusion_voxels.inc(grid.num_volumes * steps)
            total_voxels += grid.num_volumes * steps
        if self.accountant is not None and total_voxels:
            self.accountant.diffusion(total_voxels)

    def _commit(self) -> None:
        sim = self.sim
        m = sim.machine
        stats = sim.rm.commit(
            parallel=sim.param.parallel_agent_modifications,
            num_threads=m.num_threads if m is not None else 4,
        )
        if stats.fast_append:
            self._commit_fast_appends.inc()
        if stats.staged_rows:
            self._commit_staged_rows.inc(stats.staged_rows)
        if self.accountant is not None:
            self.accountant.commit(stats)
        if stats.added or stats.removed:
            self.neighbor_cache.invalidate()
