"""Cell proliferation benchmark (Table 1, column 1).

A regular 3D grid of cells that grow and divide: agents are *created*
during the simulation, nothing else is special — the paper's simplest
workload.  Initialized as a lattice (the paper notes this initialization
already gives decent memory alignment, which is why agent sorting helps it
less than randomly initialized models, §6.11).
"""

from __future__ import annotations

import numpy as np

from repro.core.behaviors_lib import GrowDivide
from repro.core.simulation import Simulation
from repro.simulations.base import BenchmarkSimulation, Characteristics

__all__ = ["CellProliferation"]


class CellProliferation(BenchmarkSimulation):
    name = "cell_proliferation"
    characteristics = Characteristics(
        creates_agents=True,
        paper_iterations=500,
        paper_agents_millions=12.6,
    )

    #: Lattice spacing relative to the cell diameter (slight compression so
    #: mechanical forces act).
    SPACING_FACTOR = 1.2

    def __init__(self, random_init: bool = False):
        # §6.11 ablation: random initialization raises the sorting speedup
        # of this model from 1.82x to 4.68x.
        self.random_init = random_init

    def shell(self, num_agents, param=None, machine=None, seed=0) -> Simulation:
        sim = Simulation(self.name, param or self.default_param(),
                         machine=machine, seed=seed)
        sim.register_behavior(GrowDivide(
            growth_rate=120.0,
            division_diameter=14.0,
            max_agents=num_agents,
        ))
        return sim

    def populate(self, sim, num_agents, seed=0) -> None:
        rng = np.random.default_rng(seed)
        diameter = 10.0
        initial = max(1, num_agents // 2)
        spacing = diameter * self.SPACING_FACTOR
        if self.random_init:
            side_len = spacing * int(np.ceil(initial ** (1 / 3)))
            pos = rng.uniform(0, side_len, (initial, 3))
        else:
            side = int(np.ceil(initial ** (1 / 3)))
            g = np.arange(side) * spacing
            x, y, z = np.meshgrid(g, g, g, indexing="ij")
            pos = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)[:initial]

        sim.add_cells(pos, diameters=diameter,
                      behaviors=[b for b, _bit in sim.behaviors])
