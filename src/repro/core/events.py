"""Event-driven quiescence scheduling (discrete events over the stepper).

BioDynaMo's §5 optimizations — static-agent detection and per-operation
frequencies — both exploit the observation that on most steps, most
agents do nothing that changes state.  This module generalizes that into
operation *scheduling*: instead of visiting every agent every tick and
discovering there is nothing to do, the scheduler asks each behavior
when it next needs to run (:meth:`repro.core.behavior.Behavior.next_fire`)
and keeps one wake answer per behavior (a scalar, or a column aligned
with the cached dispatch index list).  Two mechanisms fall out:

1. **Deferred dispatch** — on a normal tick, a behavior is dispatched
   only to agents whose wake time is ≤ the current iteration.  By the
   ``next_fire`` contract (non-due runs are pure no-ops, supersets are
   masked internally) this is bitwise identical to full dispatch, it
   just skips the no-op work.  Deferrals surface as
   ``events:deferred_dispatches``.

2. **Quiescent-stretch jumps** — when the *global* next-event horizon
   (earliest behavior wake, earliest due non-read-only operation, next
   sort/invariant tick) lies beyond the current step and the scene is
   mechanically inert (mechanics disabled, or every agent static under
   §5 detection, with no stale neighbor state), the stepper advances
   simulated time to the horizon in one jump.  The horizon is computed
   once per *quiet epoch* and cached (:meth:`EventScheduler._plan`), so
   a jump is O(1) in agents and in ticks skipped: it visits only the
   **stops** — due ticks of read-only samplers (``Operation.read_only``,
   replayed via ``Operation.replay`` once they ran in this epoch), every
   tick while a diffusion grid still evolves — and in between only the
   float time accumulator moves, tick by tick (``time += dt`` k times is
   *not* ``time += k*dt`` in IEEE arithmetic).  Surfaces as
   ``events:jumps`` / ``skipped_steps`` / ``max_jump`` / ``jump_stops`` /
   ``horizon_recomputes`` / ``sampler_replays`` / ``blocked:<reason>``.

Correctness is anchored on facts the test-suite and ``verify --events``
pin down:

- zero-size numpy ``Generator`` draws do not advance bit-generator
  state, so vectorized early-outs satisfy the no-op contract;
- an all-static scene is a fixed point of ``update_static_flags`` and
  the force/displace kernels write nothing, so skipping the mechanics
  stage is bitwise exact;
- the state checksum covers columns, grids, time, iteration, and RNG
  state — derived caches (environment, CSR) are rebuilt on demand and
  legally ignored by jumps;
- state changes only inside ticks or through public mutators, which end
  the quiet epoch (``Simulation.note_state_change``; raw ``rm.data[...]``
  writes between ticks must call it themselves).

The layer is **off by default** (``Param.event_scheduling``) and
enabled by ``Param.optimized()``; it never engages under a virtual
machine (cost accounting must see every tick).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.operation import AgentOperation, OpKind

__all__ = ["EventScheduler", "next_due_tick", "DIFFUSION_SUBSTEP_CAP"]

#: Upper bound on diffusion sub-steps replayed inside one jump when the
#: grids are *not* at a fixed point ("capped sub-stepping"); longer
#: stretches are covered by chaining jumps.
DIFFUSION_SUBSTEP_CAP = 1024


def next_due_tick(frequency: int, iteration: int) -> int:
    """Smallest ``t >= iteration`` with ``(t + 1) % frequency == 0``.

    The inverse of :meth:`repro.core.operation.Operation.due` — where an
    operation on this frequency next fires, counting from ``iteration``.
    """
    return -(-(iteration + 1) // frequency) * frequency - 1


def _is_sampler(op) -> bool:
    """Read-only standalone operation: sampled inside jumps, never a
    blocker (getattr: operations are duck-typed, read_only is optional)."""
    return getattr(op, "read_only", False) \
        and not isinstance(op, AgentOperation)


class EventScheduler:
    """Wake-time bookkeeping + jump execution for one :class:`Scheduler`.

    Owned by the scheduler when ``Param.event_scheduling`` is on.  All
    state is derived (caches keyed on ResourceManager versions plus a
    local *quiet epoch*): checkpoints need not know this object exists.
    """

    def __init__(self, scheduler):
        self._sched = scheduler
        reg = self._registry = scheduler.sim.obs.registry
        reg.gauge("events:enabled").set(1)
        self._jumps = reg.counter("events:jumps")
        self._skipped = reg.counter("events:skipped_steps")
        self._deferred = reg.counter("events:deferred_dispatches")
        self._max_jump = reg.gauge("events:max_jump")
        self._recomputes = reg.counter("events:horizon_recomputes")
        self._replays = reg.counter("events:sampler_replays")
        self._stops = reg.counter("events:jump_stops")
        #: Bumps whenever simulation state may have changed: after every
        #: tick, after every mutating behavior/operation *within* a tick
        #: (a wake answer computed before an earlier behavior ran is never
        #: reused after it), and on every out-of-tick mutation.
        self._epoch = 0
        #: ``{behavior_bit: (key, None | float | wake_array)}`` — wake
        #: answers, aligned with the cached dispatch index lists and
        #: invalidated by the same version counters (plus the epoch).
        self._wake_cache: dict[int, tuple] = {}
        #: ``(epoch, bool)`` — whether the last sub-step of the tick probed
        #: in ``epoch`` left every diffusion grid bitwise unchanged.
        self._grids_fixed: tuple | None = None
        #: ``[key, horizon, schedule]`` — see :meth:`_plan`.
        self._cached_plan: list | None = None

    def note_state_change(self) -> None:
        """State may have mutated: end the quiet epoch (drops all caches)."""
        self._epoch += 1

    # -- per-dispatch filtering ------------------------------------------ #

    def _wake_values(self, behavior, bit, idx):
        """Cached wake answer of ``behavior`` for the cohort ``idx``.

        ``None``: due every tick; a ``float``: one wake time for the whole
        cohort (kept scalar — O(1) to test and to minimize); an array:
        per-agent wake times aligned with ``idx``.
        """
        rm = self._sched.sim.rm
        key = (rm.structure_version, rm.mask_version, rm.n, self._epoch)
        hit = self._wake_cache.get(bit)
        if hit is not None and hit[0] == key:
            return hit[1]
        wake = behavior.next_fire(self._sched.sim, idx)
        if wake is not None:
            wake = np.asarray(wake, dtype=np.float64)
            if wake.ndim == 0:
                wake = float(wake)
            elif wake.shape != idx.shape:
                raise ValueError(
                    f"{behavior!r}.next_fire returned shape {wake.shape}, "
                    f"expected a scalar or shape {idx.shape}")
        self._wake_cache[bit] = (key, wake)
        return wake

    def filter_due(self, behavior, bit, idx):
        """Subset of ``idx`` whose wake time is ≤ the current iteration."""
        wake = self._wake_values(behavior, bit, idx)
        now = self._sched.iteration
        if wake is None:
            return idx
        if isinstance(wake, float):  # one answer for the cohort: no mask
            due = idx if wake <= now else idx[:0]
        else:
            mask = wake <= now
            n_due = int(np.count_nonzero(mask))
            due = idx if n_due == len(idx) else idx[mask] if n_due else idx[:0]
        self._deferred.inc(len(idx) - len(due))
        return due

    # -- horizon --------------------------------------------------------- #

    def _mechanics_quiescent(self) -> bool:
        """Whether skipping the mechanics stage is bitwise exact.

        True when mechanics is off or §5 detection proves every agent
        static: zero forces → the displace kernel writes nothing and
        ``update_static_flags`` returns all-static again (a fixed point),
        so nothing the checksum covers can change.
        """
        sim = self._sched.sim
        if not sim.mechanics_enabled or sim.rm.n == 0:
            return True
        detect = sim.param.detect_static_agents \
            and sim.force.supports_static_detection
        return bool(detect and sim.rm.data["static"].all())

    def _horizon(self):
        """``(h, blocker)``: the first iteration ≥ now at which a normal
        tick must run (``inf``: never) and, when that is now, why.

        Every per-tick stage is provably inert on ``[now, h)``.  The
        per-agent scans in here run once per quiet epoch (:meth:`_plan`).
        """
        sched = self._sched
        sim = sched.sim
        rm = sim.rm
        p = sim.param
        now = sched.iteration
        if sim.visualize_callback is not None:
            return now, "visualize"
        if rm.pending_additions or rm.pending_removals:
            return now, "pending_commit"
        # Unconsumed moved/grew flags (fresh agents, handle writes): only
        # a tick clears them.  Stale derived neighbor state: a normal tick
        # would rebuild the environment before anything reads it; a jump
        # would not, so a sampler calling sim.neighbors() mid-jump could
        # see pre-move pairs.  Cheap and conservative: no jump until then.
        if rm.data["moved"].any() or rm.data["grew"].any() or (
                sched.neighbor_cache.moved_since_build
                and sched.neighbor_cache.needed()):
            return now, "stale_neighbors"
        if not self._mechanics_quiescent():
            return now, "mechanics_active"
        h = math.inf
        for behavior, bit in sim.behaviors:
            idx = sched._behavior_indices(rm, bit)
            if len(idx) == 0:
                continue
            wake = self._wake_values(behavior, bit, idx)
            if wake is not None and not isinstance(wake, float):
                wake = float(wake.min())
            if wake is None or wake <= now:
                return now, "behavior_due"
            h = min(h, wake)
        # Samplers never block: jumps visit them at their due ticks.
        periodic = [("operation_due", op.frequency)
                    for op in sim.operations if not _is_sampler(op)]
        periodic += [("sort_due", p.agent_sort_frequency),
                     ("invariants_due", p.check_invariants_frequency)]
        for blocker, freq in periodic:
            if freq > 0:
                due = next_due_tick(freq, now)
                if due <= now:
                    return now, blocker
                h = min(h, due)
        return h, None

    def _plan(self) -> list:
        """The cached ``[key, horizon, schedule]``, recomputed on a miss;
        the stop schedule (:meth:`_schedule`) is filled in by the first
        jump taken under the plan, so a blocked recompute never builds it.

        The key is everything that can move the horizon or the schedule
        without a tick running: the epoch (ticks and public mutators bump
        it) plus the scheduler inputs a caller may assign directly between
        two ``advance`` calls.  A jump never crosses the horizon, so chained
        jumps reuse the plan: O(#behaviors + #operations), not O(agents).
        """
        sched = self._sched
        sim = sched.sim
        rm = sim.rm
        p = sim.param
        key = (
            self._epoch, rm.structure_version, rm.mask_version, rm.n,
            rm.pending_additions, rm.pending_removals,
            sched.neighbor_cache.moved_since_build, sim.visualize_callback,
            sim.mechanics_enabled, p.agent_sort_frequency,
            p.check_invariants_frequency, tuple(sim.behaviors),
            tuple([(op, op.frequency, op.kind) for op in sim.operations]),
        )
        plan = self._cached_plan
        if plan is None or plan[0] != key:
            h, blocker = self._horizon()
            self._recomputes.inc()
            if blocker is not None:
                self._registry.counter("events:blocked:" + blocker).inc()
            elif h >= sched.iteration + 1:
                # Nothing allocates inside a jump: one footprint sample
                # covers every jump taken under this horizon.
                sched.peak_memory_bytes = max(
                    sched.peak_memory_bytes, sim.memory_bytes())
            plan = self._cached_plan = [key, h, None]
        return plan

    def _schedule(self) -> tuple:
        """``(frequencies, pre, standalone, post)``: the samplers' distinct
        frequencies, then per stage its samplers as ``[frequency, op,
        replay]`` in registration order.  ``replay``, the replay-or-run
        decision, is ``None`` (run) until the sampler really ran under this
        plan — hence in this quiet epoch — then its ``replay`` method."""
        ops = self._sched.sim.operations
        stages = [[[op.frequency, op, None] for op in ops
                   if op.kind is kind and _is_sampler(op)]
                  for kind in (OpKind.PRE, OpKind.STANDALONE, OpKind.POST)]
        return tuple({e[0] for st in stages for e in st}), *stages

    # -- jump execution --------------------------------------------------- #

    def _sample(self, entries, stop: int, stepping: bool) -> int:
        """Visit the samplers of one stage due at ``stop``; returns the
        replays.  ``replay`` stands in for ``run`` only while no grid
        evolves: state is then provably what the sampler last saw."""
        sim = self._sched.sim
        replays = 0
        for entry in entries:
            if (stop + 1) % entry[0]:
                continue
            if entry[2] is not None and not stepping:
                entry[2](sim)
                replays += 1
                continue
            op = entry[1]
            with sim.obs.stage(op.name):
                op.run(sim)
            entry[2] = getattr(op, "replay", None)
        return replays

    def _jump_diffusion(self, grids) -> bool:
        """One skipped tick's diffusion; True while grids keep evolving.

        The first stepped tick of an epoch doubles as the fixed-point
        probe: each grid's spare buffer holds the state before its last
        sub-step, so "that sub-step changed no byte" is a comparison, not
        a copy.  It proves ``f(c) == c`` for the state the tick left —
        all later skipped ticks need no grid work at all.
        """
        cached = self._grids_fixed
        probe = cached is None or cached[0] != self._epoch
        self._sched._run_diffusion()
        if probe:
            self._grids_fixed = (self._epoch, all(
                g.last_step_was_identity() for g in grids))
        return not self._grids_fixed[1]

    def try_jump(self, max_ticks: int) -> int:
        """Jump over a provably-inert stretch; return ticks consumed (0 =
        not quiescent, run a normal tick instead)."""
        sched = self._sched
        sim = sched.sim
        now = sched.iteration
        plan = self._plan()
        k = int(min(plan[1], now + int(max_ticks))) - now
        if k < 1:
            return 0
        if plan[2] is None:
            plan[2] = self._schedule()
        frequencies, pre, standalone, post = plan[2]
        dt = sim.param.simulation_time_step
        grids = list(sim.diffusion_grids.values())
        stepping = bool(grids) and self._grids_fixed != (self._epoch, True)
        if stepping:
            # Capped sub-stepping: bound the grid work bought by one
            # jump; chained jumps cover longer stretches.
            per_tick = sum(
                max(1, int(np.ceil(dt / g.stable_time_step()))) for g in grids)
            k = max(1, min(k, DIFFUSION_SUBSTEP_CAP // max(per_tick, 1)))
        end = now + k
        stops = replays = 0
        with sim.obs.tracer.span("events_jump", cat="scheduler",
                                 iteration=now, ticks=k):
            # One pass over the *stops* (the samplers' next due tick; every
            # tick while grids evolve), each mirroring what _iterate_stages
            # still does on a quiescent tick, in stage order.  Between
            # stops only the clock moves — tick by tick (IEEE identity).
            # One sampler frequency, the usual case, skips min() over a
            # list (~0.4 us a stop on a 2-vCPU x86-64 VM).
            it, t = now, sim.time
            while it < end:
                stop = it if stepping else it + (
                    (-1 - it) % frequencies[0] if len(frequencies) == 1
                    else min([(-1 - it) % f for f in frequencies], default=k))
                for _ in range(min(stop, end) - it):
                    t += dt
                if stop >= end:
                    break
                stops += 1
                sched.iteration, sim.time = stop, t
                replays += self._sample(pre, stop, stepping)
                if stepping:
                    stepping = self._jump_diffusion(grids)
                replays += self._sample(standalone, stop, stepping)
                sim.time = t = t + dt
                replays += self._sample(post, stop, stepping)
                it = stop + 1
            sched.iteration, sim.time = end, t
        sched._iterations_done.inc(k)
        self._jumps.inc()
        self._skipped.inc(k)
        self._stops.inc(stops)
        self._replays.inc(replays)
        if k > self._max_jump.value:
            self._max_jump.set(k)
        return k
