"""Biocellion cell-sorting model (paper §6.5, Fig. 7a).

Kang et al.'s Biocellion paper demonstrates differential-adhesion cell
sorting: two randomly mixed cell types whose homotypic adhesion exceeds
their heterotypic adhesion segregate into single-type domains (Steinberg's
differential adhesion hypothesis).  The paper re-implements this model in
BioDynaMo with identical parameters for the performance comparison; we do
the same here with a type-aware :class:`InteractionForce`.

``homotypic_fraction`` quantifies sorting progress (rises from ~0.5
toward 1), the check behind the "good agreement" claim for Fig. 7a.
"""

from __future__ import annotations

import numpy as np

from repro.core.behaviors_lib import Confinement, RandomWalk
from repro.core.force import InteractionForce
from repro.core.simulation import Simulation
from repro.simulations.base import BenchmarkSimulation, Characteristics

__all__ = ["CellSorting", "DifferentialAdhesionForce"]


class DifferentialAdhesionForce(InteractionForce):
    """Cortex3D-style force with type-dependent adhesion.

    Homotypic pairs adhere strongly; heterotypic pairs adhere weakly, so
    interfaces between the types are energetically unfavorable and shrink.
    """

    OPS_PER_PAIR = 60.0

    #: Adhesion acts on *separated* pairs in the contact shell, which the
    #: §5 conditions (built around overlap forces) do not track.
    supports_static_detection = False

    def __init__(self, sim: Simulation, repulsion: float = 2.0,
                 adhesion_homo: float = 1.5, adhesion_hetero: float = 0.05):
        super().__init__(repulsion=repulsion, attraction=0.0)
        self._sim = sim
        self.adhesion_homo = adhesion_homo
        self.adhesion_hetero = adhesion_hetero

    def pair_forces(self, positions, diameters, qi, qj):
        base = super().pair_forces(positions, diameters, qi, qj)
        types = self._sim.rm.data["cell_type"]
        same = types[qi] == types[qj]
        adhesion = np.where(same, self.adhesion_homo, self.adhesion_hetero)

        delta = positions[qi] - positions[qj]
        dist = np.linalg.norm(delta, axis=1)
        r_sum = (diameters[qi] + diameters[qj]) / 2.0
        overlap = r_sum - dist
        safe = np.maximum(dist, 1e-12)
        direction = delta / safe[:, None]
        # Adhesive pull active in the contact shell (slightly separated or
        # mildly overlapping pairs).
        contact = (overlap > -0.3 * r_sum) & (dist > 1e-12)
        pull = np.where(contact, adhesion * np.sqrt(np.abs(overlap) + 0.1), 0.0)
        return base - pull[:, None] * direction


class CellSorting(BenchmarkSimulation):
    name = "cell_sorting"
    characteristics = Characteristics(
        paper_iterations=500,
        paper_agents_millions=26.8,
    )

    def build(self, num_agents, param=None, machine=None, seed=0) -> Simulation:
        param = param or self.default_param()
        sim = Simulation(self.name, param, machine=machine, seed=seed)
        rng = np.random.default_rng(seed)

        diameter = 10.0
        radius = diameter * max(1.0, (num_agents ** (1 / 3)) * 0.7)
        direction = rng.normal(size=(num_agents, 3))
        direction /= np.linalg.norm(direction, axis=1)[:, None]
        r = radius * rng.random(num_agents) ** (1 / 3)
        pos = 1.5 * radius + direction * r[:, None]
        types = rng.integers(0, 2, num_agents).astype(np.int8)

        sim.rm.register_column("cell_type", np.int8, (), 0)
        # Small random motility lets cells escape local adhesion minima —
        # without it differential-adhesion sorting freezes (as in the
        # Biocellion model, which includes stochastic cell motion).
        sim.add_cells(pos, diameters=diameter, cell_type=types,
                      behaviors=[RandomWalk(speed=15.0),
                                 Confinement(np.full(3, 1.5 * radius), radius)])
        sim.force = DifferentialAdhesionForce(sim)
        return sim

    @staticmethod
    def homotypic_fraction(sim) -> float:
        """Fraction of neighbor pairs with equal type (sorting progress)."""
        indptr, indices = sim.neighbors()
        if len(indices) == 0:
            return 0.0
        counts = np.diff(indptr)
        qi = np.repeat(np.arange(sim.rm.n), counts)
        t = sim.rm.data["cell_type"]
        return float(np.mean(t[qi] == t[indices]))
