"""Epidemiology with timed interventions — the event-scheduling showcase.

A variant of the SIR benchmark built for discrete-event dynamics: agents
are **stationary** (contact networks are fixed — households/workplaces
rather than random mixing), there are **no initially infected agents**,
and all epidemic activity is driven by *scheduled interventions*:

- :class:`~repro.core.behaviors_lib.ImportCases` seeds outbreak waves at
  fixed iterations (travel-imported cases);
- :class:`~repro.core.behaviors_lib.Lockdown` quarantines a fraction of
  susceptibles for a scheduled window;
- :class:`~repro.core.behaviors_lib.Vaccination` immunizes a fraction of
  susceptibles at a scheduled tick.

Between an epidemic burning out (no infected agents left) and the next
scheduled event, *nothing* in the model can change state — the exact
quiescent stretch ``Param.event_scheduling`` jumps over.  With events
off every tick still dispatches Infection/Recovery to every agent just
to discover there is nothing to do; with events on those stretches cost
O(1).  Results are bitwise identical either way (the behaviors honor the
``next_fire`` no-op contract), which ``verify --events`` enforces and
``perf/run.py --workload epidemic_quiescent --trace 1`` quantifies.

An attached read-only :class:`~repro.core.timeseries.TimeSeriesOperation`
samples the S/I/R/Q counts on a frequency — inside a jump it is sampled
at exactly its due ticks (run once per quiet epoch, then replayed: the
counts cannot change), so the recorded series is identical too.
"""

from __future__ import annotations

import numpy as np

from repro.core.behaviors_lib import (
    ImportCases,
    Infection,
    Lockdown,
    Recovery,
    Vaccination,
)
from repro.core.simulation import Simulation
from repro.core.timeseries import TimeSeriesOperation
from repro.simulations.base import BenchmarkSimulation, Characteristics
from repro.simulations.epidemiology import Epidemiology

__all__ = ["EpidemiologyInterventions"]


class EpidemiologyInterventions(BenchmarkSimulation):
    name = "epidemiology_interventions"
    characteristics = Characteristics(
        load_imbalance=True,
        paper_iterations=500,
        paper_agents_millions=10.0,
    )

    #: Scheduled iterations of imported outbreak waves.
    IMPORT_AT = (6, 60, 160)
    #: Lockdown window (start, end) around the first wave.
    LOCKDOWN = (10, 26)
    #: Vaccination campaign tick.
    VACCINATE_AT = (40,)

    def default_param(self):
        # Stationary agents: sorting can never improve locality here, and
        # disabling it removes a periodic must-run tick that would cap
        # quiescent jumps.
        return super().default_param().with_(agent_sort_frequency=0)

    def shell(self, num_agents, param=None, machine=None, seed=0) -> Simulation:
        sim = Simulation(self.name, param or self.default_param(),
                         machine=machine, seed=seed)
        sim.mechanics_enabled = False
        sim.fixed_interaction_radius = Epidemiology.INFECTION_RADIUS
        sim.rm.register_column("state", np.int8, (), Infection.SUSCEPTIBLE)
        # Interventions are ordered before Infection/Recovery so that
        # cases imported at tick t already transmit at tick t, matching
        # the every-tick dispatch order bit for bit.
        for behavior in (
            ImportCases(self.IMPORT_AT, cases=max(3, num_agents // 200)),
            Lockdown(*self.LOCKDOWN, fraction=0.5),
            Vaccination(self.VACCINATE_AT, fraction=0.4),
            Infection(probability=0.3),
            Recovery(probability=0.2),
        ):
            sim.register_behavior(behavior)
        ts = TimeSeriesOperation(frequency=5)
        # count_nonzero: ~4x cheaper than a bool .sum() at 5e4 agents, and
        # these still run on every active tick's sample.
        for column, code in (("susceptible", Infection.SUSCEPTIBLE),
                             ("infected", Infection.INFECTED),
                             ("recovered", Infection.RECOVERED),
                             ("quarantined", Lockdown.QUARANTINED)):
            ts.add_collector(
                column,
                lambda s, code=code: np.count_nonzero(
                    s.rm.data["state"] == code),
            )
        sim.add_operation(ts)
        sim.timeseries = ts
        return sim

    def populate(self, sim, num_agents, seed=0) -> None:
        # Same uneven city + countryside layout as the base benchmark
        # (dense cluster → load imbalance), but nobody moves.
        pos = Epidemiology.layout(num_agents, np.random.default_rng(seed))
        sim.add_cells(pos, diameters=2.0,
                      behaviors=[b for b, _bit in sim.behaviors])
