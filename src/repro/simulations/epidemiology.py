"""Epidemiology benchmark (Table 1, column 3).

An SIR model: agents move randomly with large steps through a wide
simulation space ("the epidemiology use case considers a wider environment
that manifests itself in an increased [grid] update time", §6.3), infected
agents infect susceptible neighbors, infected agents recover.  Population
density is deliberately uneven (a dense "city" plus sparse countryside),
producing the load imbalance flagged in Table 1.  No mechanical forces.
"""

from __future__ import annotations

import numpy as np

from repro.core.behaviors_lib import Infection, RandomWalk, Recovery
from repro.core.simulation import Simulation
from repro.simulations.base import BenchmarkSimulation, Characteristics

__all__ = ["Epidemiology"]


class Epidemiology(BenchmarkSimulation):
    name = "epidemiology"
    characteristics = Characteristics(
        load_imbalance=True,
        random_movement=True,
        paper_iterations=1000,
        paper_agents_millions=10.0,
    )

    #: Fraction of agents packed into the dense city cluster.
    CITY_FRACTION = 0.6

    #: Infection radius (the fixed neighbor radius), in µm.
    INFECTION_RADIUS = 6.0

    @classmethod
    def layout(cls, num_agents, rng) -> np.ndarray:
        """The uneven city + countryside layout of ``num_agents`` agents."""
        # Wide, sparse world: several empty grid boxes per agent (the other
        # benchmarks are densely packed), giving the increased environment
        # update share the paper notes in §6.3.
        span = cls.INFECTION_RADIUS * max(4.0, (num_agents ** (1 / 3)) * 1.8)
        n_city = int(num_agents * cls.CITY_FRACTION)
        city_center = np.full(3, span / 4.0)
        city = city_center + rng.normal(scale=span / 10.0, size=(n_city, 3))
        country = rng.uniform(0, span, (num_agents - n_city, 3))
        return np.clip(np.concatenate([city, country]), 0.0, span)

    def shell(self, num_agents, param=None, machine=None, seed=0) -> Simulation:
        sim = Simulation(self.name, param or self.default_param(),
                         machine=machine, seed=seed)
        sim.mechanics_enabled = False
        sim.fixed_interaction_radius = self.INFECTION_RADIUS
        sim.rm.register_column("state", np.int8, (), Infection.SUSCEPTIBLE)
        for behavior in (
            RandomWalk(speed=self.INFECTION_RADIUS * 40.0),
            Infection(probability=0.25),
            Recovery(probability=0.03),
        ):
            sim.register_behavior(behavior)
        return sim

    def populate(self, sim, num_agents, seed=0) -> None:
        pos = self.layout(num_agents, np.random.default_rng(seed))
        idx = sim.add_cells(pos, diameters=2.0,
                            behaviors=[b for b, _bit in sim.behaviors])
        # Patient zero cohort in the city.
        seeds = max(1, num_agents // 500)
        sim.rm.data["state"][idx[:seeds]] = Infection.INFECTED

    @staticmethod
    def sir_counts(sim) -> tuple[int, int, int]:
        state = sim.rm.data["state"]
        return (
            int((state == Infection.SUSCEPTIBLE).sum()),
            int((state == Infection.INFECTED).sum()),
            int((state == Infection.RECOVERED).sum()),
        )
