"""Neuroscience benchmark (Table 1, column 4).

A plate of neurons grows apical arbors guided by a diffusing chemical cue:
agents are created (discretization/bifurcation), neighbors are modified
(radial thickening of parents), diffusion is used (65k volumes in the
paper), the growth front causes load imbalance, and everything behind the
growth front is static — the workload the static-agent detection (§5) was
designed for (9.22x in Fig. 8).
"""

from __future__ import annotations

import numpy as np

from repro.core.diffusion import DiffusionGrid
from repro.core.simulation import Simulation
from repro.neuro import NeuriteExtension, add_neuron, register_neuro_columns
from repro.simulations.base import BenchmarkSimulation, Characteristics

__all__ = ["Neuroscience"]


class Neuroscience(BenchmarkSimulation):
    name = "neuroscience"
    characteristics = Characteristics(
        creates_agents=True,
        modifies_neighbors=True,
        load_imbalance=True,
        uses_diffusion=True,
        has_static_regions=True,
        paper_iterations=500,
        paper_agents_millions=9.0,
        paper_diffusion_volumes=65_000,
    )

    #: Final elements per neuron, used to derive the neuron count.
    ELEMENTS_PER_NEURON = 40

    @classmethod
    def _plate(cls, num_agents) -> tuple[int, int, float, float]:
        """``(neurons, side, spacing, span)`` of the neuron plate."""
        num_neurons = max(1, num_agents // cls.ELEMENTS_PER_NEURON)
        side = int(np.ceil(np.sqrt(num_neurons)))
        spacing = 30.0
        return num_neurons, side, spacing, max(spacing * side, 120.0)

    def shell(self, num_agents, param=None, machine=None, seed=0) -> Simulation:
        sim = Simulation(self.name, param or self.default_param(),
                         machine=machine, seed=seed)
        sim.fixed_interaction_radius = 5.0
        register_neuro_columns(sim)
        span = self._plate(num_agents)[3]
        sim.add_diffusion_grid(
            DiffusionGrid("guidance_cue", 16, 0.0, span,
                          diffusion_coefficient=span / 200.0, decay=0.0)
        )
        sim.register_behavior(NeuriteExtension(
            speed=80.0,
            max_segment_length=6.0,
            bifurcation_probability=0.03,
            max_branch_order=5,
            guidance_substance="guidance_cue",
            max_agents=num_agents,
        ))
        return sim

    def populate(self, sim, num_agents, seed=0) -> None:
        rng = np.random.default_rng(seed)
        num_neurons, side, spacing, _span = self._plate(num_agents)
        cue = sim.diffusion_grids["guidance_cue"]
        # Attractive cue plane above the neuron plate.
        top = np.linspace(0, 1, cue.resolution)
        cue.concentration[:] = top[None, None, :]  # increases with z

        ext = sim.behaviors[0][0]
        for k in range(num_neurons):
            gx, gy = divmod(k, side)
            center = np.array(
                [gx * spacing + spacing / 2, gy * spacing + spacing / 2, 20.0]
            )
            center[:2] += rng.normal(scale=2.0, size=2)
            _, tips = add_neuron(sim, center, num_neurites=2, rng=rng)
            sim.attach_behavior(tips, ext)
