"""Cell clustering benchmark (Table 1, column 2).

Two cell types, each secreting its own substance and moving up its own
substance gradient (autocrine chemotaxis), cluster into homotypic islands.
The only Table-1 characteristic is heavy diffusion: the paper runs 2M
agents against 54 million diffusion volumes.  We keep the paper's ~27:1
volume:agent ratio, capped so grids stay laptop-sized.
"""

from __future__ import annotations

import numpy as np

from repro.core.behaviors_lib import Chemotaxis, Secretion
from repro.core.diffusion import DiffusionGrid
from repro.core.simulation import Simulation
from repro.simulations.base import BenchmarkSimulation, Characteristics

__all__ = ["CellClustering"]


class CellClustering(BenchmarkSimulation):
    name = "cell_clustering"
    characteristics = Characteristics(
        uses_diffusion=True,
        paper_iterations=1000,
        paper_agents_millions=2.0,
        paper_diffusion_volumes=54_000_000,
    )

    MAX_RESOLUTION = 40

    @staticmethod
    def _span(num_agents) -> float:
        # Dense random packing: cells are in contact, as in the paper's
        # clustering model (mechanics dominate; sorting helps strongly).
        return 10.0 * max(2.0, (num_agents ** (1 / 3)) * 1.1)

    def shell(self, num_agents, param=None, machine=None, seed=0) -> Simulation:
        sim = Simulation(self.name, param or self.default_param(),
                         machine=machine, seed=seed)
        span = self._span(num_agents)
        resolution = int(round((num_agents * 27) ** (1 / 3)))
        resolution = int(np.clip(resolution, 8, self.MAX_RESOLUTION))
        for t in (0, 1):
            sim.add_diffusion_grid(
                DiffusionGrid(
                    f"substance_{t}", resolution, 0.0, span,
                    diffusion_coefficient=span / 100.0, decay=0.01,
                )
            )

        sim.rm.register_column("cell_type", np.int8, (), 0)
        for t in (0, 1):
            sim.register_behavior(Secretion(f"substance_{t}", amount=1.0))
            sim.register_behavior(Chemotaxis(f"substance_{t}", speed=60.0))
        return sim

    def populate(self, sim, num_agents, seed=0) -> None:
        rng = np.random.default_rng(seed)
        span = self._span(num_agents)
        pos = rng.uniform(0, span, (num_agents, 3))
        types = rng.integers(0, 2, num_agents)
        behaviors = [b for b, _bit in sim.behaviors]
        for t in (0, 1):
            sel = types == t
            sim.add_cells(
                pos[sel],
                diameters=10.0,
                behaviors=behaviors[2 * t:2 * t + 2],
                cell_type=np.full(int(sel.sum()), t, dtype=np.int8),
            )

    @staticmethod
    def clustering_metric(sim) -> float:
        """Fraction of neighbor pairs that are homotypic (rises as the
        two populations segregate)."""
        indptr, indices = sim.neighbors()
        if len(indices) == 0:
            return 0.0
        counts = np.diff(indptr)
        qi = np.repeat(np.arange(sim.rm.n), counts)
        t = sim.rm.data["cell_type"]
        return float(np.mean(t[qi] == t[indices]))
