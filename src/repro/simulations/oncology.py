"""Oncology benchmark (Table 1, column 5).

A tumor-spheroid model: a ball of cancer cells that grow and divide,
wander slightly (random movement), and die stochastically — the only
benchmark that *deletes* agents during the simulation, which is what the
parallel-removal optimization (§3.2) targets (31.7% runtime reduction,
§6.7).  Random initialization makes it one of the biggest winners of agent
sorting (peak 5.77x, §6.11).
"""

from __future__ import annotations

import numpy as np

from repro.core.behaviors_lib import GrowDivide, RandomWalk, StochasticDeath
from repro.core.simulation import Simulation
from repro.simulations.base import BenchmarkSimulation, Characteristics

__all__ = ["Oncology"]


class Oncology(BenchmarkSimulation):
    name = "oncology"
    characteristics = Characteristics(
        creates_agents=True,
        deletes_agents=True,
        random_movement=True,
        paper_iterations=288,
        paper_agents_millions=10.0,
    )

    def shell(self, num_agents, param=None, machine=None, seed=0) -> Simulation:
        sim = Simulation(self.name, param or self.default_param(),
                         machine=machine, seed=seed)
        for behavior in (
            GrowDivide(growth_rate=80.0, division_diameter=14.0,
                       max_agents=num_agents),
            StochasticDeath(probability=0.002),
            RandomWalk(speed=20.0),
        ):
            sim.register_behavior(behavior)
        return sim

    def populate(self, sim, num_agents, seed=0) -> None:
        rng = np.random.default_rng(seed)
        diameter = 10.0
        initial = max(1, int(num_agents * 0.7))
        # Random points inside a ball (rejection-free: direction * r^(1/3)).
        radius = diameter * max(1.0, (initial ** (1 / 3)) * 0.8)
        direction = rng.normal(size=(initial, 3))
        direction /= np.linalg.norm(direction, axis=1)[:, None]
        r = radius * rng.random(initial) ** (1 / 3)
        pos = 1.5 * radius + direction * r[:, None]

        sim.add_cells(pos, diameters=diameter,
                      behaviors=[b for b, _bit in sim.behaviors])
