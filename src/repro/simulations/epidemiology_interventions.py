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

    def build(self, num_agents, param=None, machine=None, seed=0) -> Simulation:
        param = param or self.default_param()
        sim = Simulation(self.name, param, machine=machine, seed=seed)
        sim.mechanics_enabled = False
        rng = np.random.default_rng(seed)

        infection_radius = 6.0
        sim.fixed_interaction_radius = infection_radius
        # Same uneven city + countryside layout as the base benchmark
        # (dense cluster → load imbalance), but nobody moves.
        span = infection_radius * max(4.0, (num_agents ** (1 / 3)) * 1.8)
        n_city = int(num_agents * Epidemiology.CITY_FRACTION)
        city_center = np.full(3, span / 4.0)
        city = city_center + rng.normal(scale=span / 10.0, size=(n_city, 3))
        country = rng.uniform(0, span, (num_agents - n_city, 3))
        pos = np.clip(np.concatenate([city, country]), 0.0, span)

        sim.rm.register_column("state", np.int8, (), Infection.SUSCEPTIBLE)
        infection = Infection(probability=0.3)
        # Interventions are ordered before Infection/Recovery so that
        # cases imported at tick t already transmit at tick t, matching
        # the every-tick dispatch order bit for bit.
        sim.add_cells(
            pos,
            diameters=2.0,
            behaviors=[
                ImportCases(self.IMPORT_AT,
                            cases=max(3, num_agents // 200)),
                Lockdown(*self.LOCKDOWN, fraction=0.5),
                Vaccination(self.VACCINATE_AT, fraction=0.4),
                infection,
                Recovery(probability=0.2),
            ],
        )
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
