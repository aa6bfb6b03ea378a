"""Simulation facade: the public entry point of the engine.

A :class:`Simulation` binds together a parameter set (:class:`Param`), the
agent storage (:class:`ResourceManager`), a neighbor-search environment, an
optional virtual NUMA machine for cost accounting, diffusion grids,
registered behaviors, and the scheduler that executes Algorithm 1.

Typical use::

    from repro import Simulation, Param

    sim = Simulation("demo", Param.optimized())
    sim.add_cells(positions, diameters=10.0)
    sim.attach_behavior(indices, GrowDivide(...))
    sim.simulate(100)
"""

from __future__ import annotations

import enum
import weakref

import numpy as np

from repro.core.behavior import Behavior
from repro.core.force import InteractionForce
from repro.core.param import Param
from repro.core.random import SimulationRandom
from repro.core.resource_manager import ResourceManager
from repro.core.scheduler import Scheduler
from repro.core.diffusion import DiffusionGrid
from repro.env import make_environment
from repro.mem import AddressSpace, make_allocator

__all__ = ["Simulation", "SimulationState", "LifecycleError"]

#: Number of per-agent behavior payload addresses tracked exactly; further
#: attachments still count allocator traffic but are freed in bulk.
MAX_TRACKED_BEHAVIORS = 2


class SimulationState(enum.Enum):
    """Explicit lifecycle of a :class:`Simulation`.

    ::

        CREATED --simulate()--> RUNNING --(returns)--> PAUSED
        PAUSED  --simulate()--> RUNNING
        any     --close()-----> CLOSED          (idempotent)

    The state machine exists so external drivers (the session server in
    :mod:`repro.serve`, checkpointing) can reason about what is legal
    *right now*: a simulation that is mid-step cannot be stepped again
    (no re-entrant ``simulate``) and cannot be checkpointed, and a closed
    simulation — whose shared-memory segments may already be unlinked —
    can never be stepped or saved again.
    """

    CREATED = "created"
    RUNNING = "running"
    PAUSED = "paused"
    CLOSED = "closed"


class LifecycleError(RuntimeError):
    """An operation was attempted in a :class:`SimulationState` that
    forbids it (stepping a closed simulation, re-entrant ``simulate``,
    checkpointing mid-step)."""


class Simulation:
    """An agent-based simulation (paper §2)."""

    def __init__(
        self,
        name: str = "simulation",
        param: Param | None = None,
        machine=None,
        seed: int = 4357,
    ):
        self.name = name
        self.param = param or Param()
        self.param.validate()
        self.machine = machine
        num_domains = machine.num_domains if machine is not None else 1

        from repro.obs import Observability

        #: Unified observability surface (repro.obs): the always-on
        #: metrics registry every engine counter lives in, and the tracer
        #: (a shared no-op unless ``param.tracing``).
        self.obs = Observability(tracing=self.param.tracing)

        space = AddressSpace(num_domains)
        alloc_kwargs = {}
        if self.param.agent_allocator == "bdm":
            alloc_kwargs = dict(
                growth_rate=self.param.mem_mgr_growth_rate,
                aligned_pages_shift=self.param.mem_mgr_aligned_pages_shift,
            )
        self.agent_allocator = make_allocator(
            self.param.agent_allocator, num_domains, address_space=space, **alloc_kwargs
        )
        if self.param.other_allocator == self.param.agent_allocator:
            self.other_allocator = self.agent_allocator
        else:
            self.other_allocator = make_allocator(
                self.param.other_allocator, num_domains, address_space=space
            )
        self.obs.register_allocator("agent", self.agent_allocator)
        if self.other_allocator is not self.agent_allocator:
            self.obs.register_allocator("other", self.other_allocator)

        # ``shared_storage`` forces shm even for serial execution (session
        # server: the host process attaches each session's arena block
        # zero-copy).
        wants_shm = (
            self.param.shared_storage
            or self.param.execution_backend == "process"
        )
        if wants_shm:
            from repro.parallel.shm import SharedMemoryResourceManager

            rm_class = SharedMemoryResourceManager
        else:
            rm_class = ResourceManager
        self.rm = rm_class(
            num_domains, self.agent_allocator, self.param.agent_size_bytes,
            columns=[(f"behavior_addr{i}", np.int64, (), 0)
                     for i in range(MAX_TRACKED_BEHAVIORS)])
        soa = self.rm.soa
        reg = self.obs.registry
        reg.register_callback("arena:bytes", lambda s=soa: s.nbytes)
        reg.register_callback(
            "arena:reallocations", lambda s=soa: s.reallocations)
        reg.register_callback("arena:adopts", lambda s=soa: s.adopts)
        reg.register_callback(
            "arena:attach_seconds", lambda s=soa: s.attach_seconds)

        self.env = make_environment(
            self.param.environment, **self.param.environment_kwargs
        )
        self.random = SimulationRandom(seed)
        self.force = InteractionForce()
        from repro.kernels import make_kernels

        #: Array-kernel backend for the hot loops (grid build and search,
        #: CSR force, displacement, stencil, sort order), resolved from
        #: ``Param.kernel_backend`` at construction ("auto" is the C backend
        #: where it builds, else NumPy with a warning).  Surfaces
        #: ``kernel:{backend,build,calls,fallbacks,threads,search_calls,
        #: grid_builds,sort_calls,field_calls}`` metrics in ``self.obs``.
        self.kernels = make_kernels(self.param.kernel_backend,
                                    registry=self.obs.registry)
        self.env.kernels = self.kernels
        self.scheduler = Scheduler(self)
        from repro.parallel.backend import make_backend

        #: Execution backend for mechanics + vectorizable agent operations
        #: (``Param.execution_backend``); the process pool starts lazily on
        #: first use.
        self.backend = make_backend(self)
        self.diffusion_grids: dict[str, DiffusionGrid] = {}
        self.behaviors: list[tuple[Behavior, int]] = []
        self._behavior_bits: dict[int, int] = {}
        self.operations: list = []
        self.mechanics_enabled = True
        #: Optional simulated GPU; when set, the mechanics operation's
        #: cost is charged to the device instead of the CPU cost model
        #: (BioDynaMo's transparent offload, paper §2).
        self.gpu_device = None
        self.fixed_interaction_radius: float | None = None
        self.visualize_callback = None
        self.time = 0.0
        self._state = SimulationState.CREATED

    # ------------------------------------------------------------------ #
    # Model construction
    # ------------------------------------------------------------------ #

    def add_cells(
        self,
        positions: np.ndarray,
        diameters=10.0,
        behaviors: list[Behavior] | None = None,
        domain=None,
        **extra_columns,
    ) -> np.ndarray:
        """Add spherical cells immediately (model initialization).

        Returns the storage indices of the new agents (valid until the
        next commit or sort).
        """
        positions = np.atleast_2d(np.asarray(positions, dtype=np.float64))
        count = len(positions)
        attributes = {
            "position": positions,
            "diameter": np.broadcast_to(
                np.asarray(diameters, dtype=np.float64), (count,)
            ).copy(),
        }
        for k, v in extra_columns.items():
            attributes[k] = np.asarray(v)
        uids = self.rm.add_agents_now(attributes, domain=domain)
        idx = np.flatnonzero(np.isin(self.rm.data["uid"], uids))
        if behaviors:
            for b in behaviors:
                self.attach_behavior(idx, b)
        self.invalidate_neighbor_cache()
        self.note_state_change()
        return idx

    def register_behavior(self, behavior: Behavior) -> int:
        """Register a behavior instance; returns its bit in the mask."""
        key = id(behavior)
        if key in self._behavior_bits:
            return self._behavior_bits[key]
        if len(self.behaviors) >= 64:
            raise RuntimeError("at most 64 distinct behaviors per simulation")
        bit = 1 << len(self.behaviors)
        self.behaviors.append((behavior, bit))
        self._behavior_bits[key] = bit
        return bit

    def attach_behavior(self, idx, behavior: Behavior, thread: int = 0) -> None:
        """Attach ``behavior`` to agents ``idx`` (allocates their payloads)."""
        idx = np.atleast_1d(np.asarray(idx, dtype=np.int64))
        bit = self.register_behavior(behavior)
        mask = self.rm.data["behavior_mask"]
        fresh = idx[(mask[idx] & np.uint64(bit)) == 0]
        mask[fresh] |= np.uint64(bit)
        self.note_state_change()
        if len(fresh):
            self.rm.note_behavior_mask_changed()
        if len(fresh) and self.agent_allocator is not None:
            doms = self.rm.domain_of_index(fresh)
            size = self.param.behavior_size_bytes
            addrs = np.zeros(len(fresh), dtype=np.int64)
            for d in range(self.rm.num_domains):
                sel = doms == d
                c = int(sel.sum())
                if c:
                    addrs[sel] = self.agent_allocator.allocate_many(size, c, domain=d)
            # Record in the first free tracked slot per agent.
            for col in range(MAX_TRACKED_BEHAVIORS):
                column = self.rm.data[f"behavior_addr{col}"]
                free = column[fresh] == 0
                column[fresh[free]] = addrs[free]
                fresh = fresh[~free]
                addrs = addrs[~free]
                if len(fresh) == 0:
                    break

    def detach_behavior(self, idx, behavior: Behavior) -> None:
        """Clear the behavior bit for agents ``idx``."""
        idx = np.atleast_1d(np.asarray(idx, dtype=np.int64))
        bit = self._behavior_bits.get(id(behavior))
        if bit is None:
            return
        self.rm.data["behavior_mask"][idx] &= ~np.uint64(bit)
        self.rm.note_behavior_mask_changed()
        self.note_state_change()

    def add_diffusion_grid(self, grid: DiffusionGrid) -> DiffusionGrid:
        """Register a substance grid (stepped once per iteration)."""
        self.diffusion_grids[grid.name] = grid
        self.note_state_change()
        return grid

    def add_operation(self, operation) -> None:
        """Register a user-defined operation (paper §2: agent operations
        and standalone operations with an execution frequency)."""
        self.operations.append(operation)
        self.note_state_change()

    def remove_operation(self, operation) -> None:
        """Unregister a previously added operation."""
        self.operations.remove(operation)
        self.note_state_change()

    def note_state_change(self) -> None:
        """Tell the event scheduler that state changed outside a tick.

        With ``Param.event_scheduling`` the wake answers, the event
        horizon and the diffusion fixed-point proof are cached per *quiet
        epoch*; ticks end the epoch themselves, and so does every public
        mutator (agent handles, ``add_cells``, behavior / operation /
        grid registration, checkpoint restore).  Code that writes
        ``rm.data[...]`` columns, grid concentrations or the RNG directly
        between two ``simulate`` / ``advance`` calls must call this, or a
        stretch may be jumped on the strength of the old state.  No-op
        when event scheduling is off.
        """
        events = self.scheduler.events
        if events is not None:
            events.note_state_change()

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def get_agent(self, uid: int):
        """BioDynaMo-style handle to one agent by uid (stays valid across
        sorting and removals of other agents)."""
        from repro.core.agent import Agent

        handle = Agent(self, uid)
        handle.index  # raises KeyError for dead/unknown uids
        return handle

    def agents(self):
        """Iterate handles over all live agents (snapshot of uids)."""
        from repro.core.agent import Agent

        for uid in self.rm.data["uid"].tolist():
            yield Agent(self, uid)

    def interaction_radius(self) -> float:
        """Neighbor radius: fixed override or max diameter times factor."""
        if self.fixed_interaction_radius is not None:
            return self.fixed_interaction_radius
        if self.rm.n == 0:
            return 1.0
        return float(self.rm.data["diameter"].max()) * self.param.interaction_radius_factor

    def neighbors(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR neighbor lists, cached until the next build.

        Inside a tick: the tick-start lists (a model without a declared
        neighbor reader has no tick-start build; the first call builds
        from the positions it sees).  Between ticks: the lists of the
        *current* positions — a stale build is redone first
        (:meth:`NeighborCache.ensure`).
        """
        return self.scheduler.neighbor_cache.neighbors(
            self._state is SimulationState.RUNNING)

    def invalidate_neighbor_cache(self) -> None:
        """Drop the cached CSR (after moves, commits, or sorting)."""
        self.scheduler.neighbor_cache.invalidate()

    @property
    def num_agents(self) -> int:
        return self.rm.n

    def memory_bytes(self) -> int:
        """Total simulated memory footprint (Fig. 6/9/13 memory metric)."""
        total = self.rm.memory_bytes()
        total += self.env.memory_bytes
        if self.other_allocator is not self.agent_allocator and self.other_allocator:
            total += self.other_allocator.reserved_bytes
        for grid in self.diffusion_grids.values():
            total += grid.concentration.nbytes
        return total

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    @property
    def state(self) -> SimulationState:
        """Current lifecycle state (see :class:`SimulationState`)."""
        return self._state

    def simulate(self, iterations: int) -> None:
        """Run the model for ``iterations`` time steps (Algorithm 1).

        Legal only in ``CREATED`` or ``PAUSED``; the simulation is
        ``RUNNING`` for the duration of the call and ``PAUSED`` after it
        returns (even on error).  Re-entrant stepping and stepping a
        closed simulation raise :class:`LifecycleError`.
        """
        if iterations < 0:
            raise ValueError("iterations must be non-negative")
        if self._state is SimulationState.CLOSED:
            raise LifecycleError(
                f"cannot step simulation {self.name!r}: it is closed"
            )
        if self._state is SimulationState.RUNNING:
            raise LifecycleError(
                f"cannot step simulation {self.name!r}: a simulate() call "
                "is already in progress (re-entrant stepping is forbidden)"
            )
        self._state = SimulationState.RUNNING
        try:
            self.scheduler.simulate(iterations)
        finally:
            self._state = SimulationState.PAUSED

    def advance(self, max_ticks: int) -> int:
        """Advance by one scheduling quantum (≤ ``max_ticks`` ticks).

        With ``Param.event_scheduling`` a quiescent stretch is consumed
        as a single horizon jump; otherwise exactly one tick runs.
        Returns the number of ticks consumed (0 if ``max_ticks <= 0``).
        Same lifecycle rules as :meth:`simulate`.
        """
        if max_ticks <= 0:
            return 0
        if self._state is SimulationState.CLOSED:
            raise LifecycleError(
                f"cannot step simulation {self.name!r}: it is closed"
            )
        if self._state is SimulationState.RUNNING:
            raise LifecycleError(
                f"cannot step simulation {self.name!r}: a simulate() call "
                "is already in progress (re-entrant stepping is forbidden)"
            )
        self._state = SimulationState.RUNNING
        try:
            return self.scheduler.advance(int(max_ticks))
        finally:
            self._state = SimulationState.PAUSED

    def close(self) -> None:
        """Release execution-backend resources (worker processes, shared
        memory) and transition to ``CLOSED``.  Idempotent — closing twice
        is a no-op; a closed simulation can no longer be stepped or
        checkpointed.  Simulations using the process backend should be
        closed (or used as a context manager) — a finalizer and an atexit
        hook reclaim leaked segments otherwise."""
        if self._state is SimulationState.CLOSED:
            return
        self.scheduler.neighbor_cache.finish_search()
        self.kernels.close()
        self.backend.shutdown()
        arena = getattr(self.rm, "arena", None)
        if arena is not None:
            arena.close()
        # Back-references close the cycles that would keep a closed
        # simulation (neighbor build, caches, columns) alive until the
        # collector's next full pass -- a serve worker closes one per
        # eviction.  A closed simulation jumps nothing, and its scheduler
        # (with its neighbor cache and accountant) reaches it weakly: it
        # goes with its last user.
        sched = self.scheduler
        sched.events = None
        proxy = weakref.proxy(self)
        for part in (sched, sched.neighbor_cache, sched.accountant):
            if part is not None:
                part.sim = proxy
        self._state = SimulationState.CLOSED

    def __enter__(self) -> "Simulation":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # Reporting ---------------------------------------------------------- #

    def virtual_seconds(self) -> float:
        """Virtual elapsed time on the attached machine (0 without one)."""
        return self.machine.elapsed_seconds if self.machine is not None else 0.0

    def runtime_breakdown(self) -> dict[str, float]:
        """Per-operation virtual seconds (paper Fig. 5 left).

        Without a virtual machine, returns the measured wall seconds per
        stage from the observability registry (``sim.obs``).
        """
        if self.machine is None:
            return self.obs.stage_seconds()
        return {
            name: self.machine.spec.cycles_to_seconds(st.cycles)
            for name, st in self.machine.stats.items()
        }
