"""User-defined operations (paper §2).

Besides behaviors, BioDynaMo models interact with the engine through
*operations*:

- **agent operations** run for every agent each iteration (the built-in
  mechanical-forces and behavior execution are agent operations; users
  can add their own, e.g. custom physics);
- **standalone operations** run once per iteration — either *pre* (before
  the agent loop, after the environment update), *standalone* (after the
  agent loop), or *post* (end of iteration) — e.g. visualization, data
  export, or global statistics.

Every operation has an execution ``frequency``: a frequency of ``f`` runs
it every ``f``-th iteration (BioDynaMo's ``Operation::frequency_``).

Users register operations on a :class:`~repro.core.simulation.Simulation`
via :meth:`~repro.core.simulation.Simulation.add_operation`; the scheduler
invokes them at the right points of Algorithm 1 and charges their declared
cost to the virtual machine.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

__all__ = ["OpKind", "Operation", "AgentOperation", "StandaloneOperation"]


class OpKind(Enum):
    """Where in Algorithm 1 an operation executes."""

    AGENT = "agent"                # inside the parallel loop (L7-11)
    PRE = "pre_standalone"         # L3-5, before the agent loop
    STANDALONE = "standalone"      # L12-14, after the agent loop
    POST = "post_standalone"       # L16-18, end of iteration


class Operation:
    """Base class for standalone operations.

    Subclasses implement :meth:`run`.  ``compute_ops`` estimates the
    arithmetic work of one invocation for the cost model; standalone
    operations are charged serially unless ``parallelizable`` is set (then
    the work is spread over the machine's threads as an item region with
    ``num_items`` items).
    """

    name: str = "operation"
    kind: OpKind = OpKind.STANDALONE
    frequency: int = 1
    compute_ops: float = 1000.0
    parallelizable: bool = False
    #: Declares that :meth:`run` only *observes* the simulation (samplers,
    #: exporters): no column writes, no RNG draws, no structural changes.
    #: Read-only operations are visited at their due ticks inside an
    #: event-scheduling horizon jump (:mod:`repro.core.events`); any
    #: operation without this flag caps the jump at its next due tick.
    read_only: bool = False
    #: Optional ``replay(sim)`` method of a read-only operation whose
    #: output is a function of simulation *state* only: "state is bitwise
    #: what it was at your last :meth:`run`; only the clock moved — emit
    #: that result again".  Inside a jump the event scheduler calls it
    #: instead of :meth:`run` when it can prove exactly that (the last
    #: real run happened in the current quiet epoch and no diffusion grid
    #: is evolving).  ``sim.time`` / ``sim.scheduler.iteration`` are
    #: current when it is called; ``None`` (the default) means every
    #: sample is a real :meth:`run`.
    replay = None

    def __init__(self, frequency: int | None = None):
        if frequency is not None:
            if frequency < 1:
                raise ValueError("frequency must be >= 1")
            self.frequency = frequency

    def due(self, iteration: int) -> bool:
        """Whether the operation runs in the given (0-based) iteration."""
        return (iteration + 1) % self.frequency == 0

    def num_items(self, sim) -> int:
        """Parallel work items of one invocation (agents by default)."""
        return max(sim.rm.n, 1)

    def run(self, sim) -> None:  # pragma: no cover - abstract
        """Execute the operation once (kind decides where in Algorithm 1)."""
        raise NotImplementedError


class AgentOperation(Operation):
    """An operation executed for every agent, vectorized.

    :meth:`run_on` receives the indices of all agents (like a behavior
    that is attached to everyone).  ``compute_ops_per_agent`` feeds the
    cost model; if ``uses_neighbors`` is set, neighbor memory traffic is
    charged as well — and the environment is built at tick start, so
    ``sim.neighbors()`` answers with the tick-start lists.  An operation
    (of any kind) that reads ``sim.neighbors()`` *undeclared*, in a model
    where nothing else declares a reader, gets an on-demand build of the
    positions it sees at that moment instead.
    """

    kind = OpKind.AGENT
    compute_ops_per_agent: float = 20.0
    uses_neighbors: bool = False
    #: Opt-in for the process execution backend: the operation can run as
    #: independent :meth:`kernel` calls over disjoint row chunks of the
    #: shared columns.  Requires the instance to be picklable and the
    #: kernel to touch only rows [lo, hi) of the passed column arrays.
    vectorizable: bool = False

    def run(self, sim) -> None:
        """Apply :meth:`run_on` to every agent."""
        self.run_on(sim, np.arange(sim.rm.n, dtype=np.int64))

    def run_on(self, sim, idx: np.ndarray) -> np.ndarray | None:  # pragma: no cover
        """Execute the operation for the agents at storage indices ``idx``."""
        raise NotImplementedError

    def kernel(self, columns: dict[str, np.ndarray], lo: int, hi: int) -> None:
        """Chunked execution over ``columns`` rows [lo, hi).

        ``columns`` maps every ResourceManager column name to its full
        array; implementations must read and write only the given row
        range so chunks can execute concurrently in worker processes.
        Only consulted when ``vectorizable`` is True.
        """
        raise NotImplementedError


class StandaloneOperation(Operation):
    """Convenience base: wraps a callable as a standalone operation."""

    def __init__(self, fn, name: str = "custom", kind: OpKind = OpKind.STANDALONE,
                 frequency: int = 1, compute_ops: float = 1000.0,
                 parallelizable: bool = False):
        super().__init__(frequency)
        self._fn = fn
        self.name = name
        self.kind = kind
        self.compute_ops = compute_ops
        self.parallelizable = parallelizable

    def run(self, sim) -> None:
        """Invoke the wrapped callable."""
        self._fn(sim)
