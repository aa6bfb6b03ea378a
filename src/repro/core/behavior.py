"""Behaviors: per-agent actions (paper §2).

A behavior can be attached to and removed from individual agents and gives
fine-grained control over an agent's actions.  The engine stores attachment
as one bit per registered behavior in the ResourceManager's
``behavior_mask`` column and executes each behavior *vectorized* over all
agents carrying it — semantically equivalent to BioDynaMo's per-agent
``RunBehaviors`` loop, but expressed as array operations (the idiomatic
Python counterpart of the C++ hot loop).

``compute_ops_per_agent`` feeds the virtual machine's cost model: it is the
approximate arithmetic work one agent's update performs, which determines
how memory-bound the simulation is (paper Fig. 5 right).
"""

from __future__ import annotations

import numpy as np

__all__ = ["Behavior", "select_rows"]


def select_rows(idx: np.ndarray, n: int):
    """What a behavior indexes its columns with: ``slice(0, n)`` when
    ``idx`` is every agent, else ``idx`` itself.

    Sound under the dispatch contract (:meth:`Behavior.run`): ``idx``
    holds ascending, unique storage indices below ``n``, so a cohort of
    ``n`` of them is exactly ``0 .. n-1``, and ``col[:n]`` names the same
    rows, in the same order, as ``col[idx]``.  Reading through the slice
    gives a view instead of a gathered copy, and ``col[:n] += step``
    updates in place instead of gathering and scattering; the values are
    the same bytes either way.  Keep ``idx`` for everything that is not a
    column access (``idx[mask]`` still names the selected agents).
    """
    return slice(0, n) if len(idx) == n else idx


class Behavior:
    """Base class for agent behaviors.

    Subclasses implement :meth:`run`, which receives the simulation and the
    indices of all agents that carry this behavior.  Set the class
    attributes to describe the behavior for the cost model and the
    static-agent detection mechanism:

    - ``compute_ops_per_agent`` — arithmetic ops per agent per iteration.
    - ``uses_neighbors`` — whether :meth:`run` reads neighbor data (adds
      neighbor memory traffic to the cost model).  Declaring it is what
      gets the environment built at tick start and ``sim.neighbors()``
      answering with the *tick-start* lists; a model in which nothing
      declares a reader defers the build, and an undeclared
      ``sim.neighbors()`` call inside a tick then gets an on-demand
      build of the positions it sees at that moment.
    - ``moves_agents`` / ``grows_agents`` / ``creates_agents`` /
      ``removes_agents`` — effects relevant to static detection (§5) and
      to iteration setup/teardown.

    Behaviors may additionally override :meth:`next_fire` to participate
    in event-driven scheduling (``Param.event_scheduling``); the default
    keeps today's every-tick semantics bit for bit.
    """

    name: str = "behavior"
    compute_ops_per_agent: float = 25.0
    uses_neighbors: bool = False
    moves_agents: bool = False
    grows_agents: bool = False
    creates_agents: bool = False
    removes_agents: bool = False

    def run(self, sim, idx: np.ndarray) -> None:  # pragma: no cover - abstract
        """Execute the behavior for the agents at storage indices ``idx``.

        The dispatch contract: ``idx`` holds ascending, unique storage
        indices, and ``len(idx) == sim.rm.n`` means every agent.  The
        array may be shared with other behaviors' dispatches (a cohort of
        every agent is one cached, read-only ``arange``), so never write
        into it.  Index columns through
        ``sel = select_rows(idx, sim.rm.n)`` — ``col[sel]`` is then a view
        whenever the cohort is every agent — and keep ``idx`` to name
        agents (``idx[col[sel] == value]``).
        """
        raise NotImplementedError

    def next_fire(self, sim, idx: np.ndarray):
        """Earliest iteration at which the agents in ``idx`` need to run.

        The wake-time contract of :mod:`repro.core.events`.  ``idx``
        follows :meth:`run`'s dispatch contract, so scan columns through
        :func:`select_rows` here too.  Return:

        - ``None`` — due every tick (the default: today's semantics);
        - a scalar — one absolute iteration index for the whole cohort
          (``np.inf`` = asleep).  Prefer it whenever the answer does not
          vary per agent: the scheduler keeps it a scalar, so testing and
          minimizing it costs O(1) instead of a pass over the cohort;
        - an array aligned with ``idx`` — per-agent absolute iteration
          indices (``np.inf`` = asleep until the state that produced this
          answer changes).

        The answer is cached until anything mutates state (a tick, or an
        out-of-tick write announced via ``Simulation.note_state_change``)
        and re-evaluated then — at most once per behavior per quiet
        stretch, however many jumps cover it.

        A behavior that declares wake times promises two things, which
        together make event-driven dispatch bitwise identical to running
        every tick: (1) for any agent before its wake iteration,
        :meth:`run` is a pure no-op — no column writes, no RNG draws
        (zero-size generator draws do not advance numpy bit-generator
        state, so vectorized early-outs qualify); (2) :meth:`run` produces
        identical results when called with any superset of the currently
        due agents (non-due rows are ignored by its own masking).
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
