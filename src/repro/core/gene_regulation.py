"""Intracellular gene-regulation dynamics (BioDynaMo's ``GeneRegulation``).

BioDynaMo ships a behavior that integrates user-defined ODEs per agent —
protein/mRNA concentrations evolving inside every cell, optionally coupled
to the extracellular substances.  The Python counterpart stores each
species as a ResourceManager column and integrates all agents' equations
vectorized with explicit Euler or classic RK4 (the two methods BioDynaMo
offers).

Example::

    genes = GeneRegulation(method="rk4")
    genes.add_species("p53", initial=1.0,
                      dfdt=lambda sim, idx, y: 0.3 - 0.1 * y["p53"])
    sim.attach_behavior(idx, genes)
"""

from __future__ import annotations

import numpy as np

from repro.core.behavior import Behavior, select_rows

__all__ = ["GeneRegulation"]


class GeneRegulation(Behavior):
    """Per-agent ODE system integrated every iteration.

    Each species has a name, an initial concentration, and a right-hand
    side ``dfdt(sim, idx, y) -> np.ndarray`` where ``y`` maps species
    names to the current per-agent concentration arrays (for the agents
    in ``idx``).  Coupled systems simply read other species from ``y``.
    """

    name = "gene_regulation"
    compute_ops_per_agent = 60.0

    #: Column prefix in the ResourceManager.
    PREFIX = "gene_"

    def __init__(self, method: str = "euler", substeps: int = 1):
        if method not in ("euler", "rk4"):
            raise ValueError("method must be 'euler' or 'rk4'")
        if substeps < 1:
            raise ValueError("substeps must be >= 1")
        self.method = method
        self.substeps = substeps
        self._species: dict[str, tuple[float, callable]] = {}

    # ------------------------------------------------------------------ #

    def add_species(self, name: str, initial: float, dfdt) -> None:
        """Register a species with its initial value and RHS."""
        if name in self._species:
            raise ValueError(f"species {name!r} already registered")
        self._species[name] = (float(initial), dfdt)
        self.compute_ops_per_agent = 60.0 * len(self._species) * (
            4 if self.method == "rk4" else 1
        )

    def column(self, name: str) -> str:
        """ResourceManager column name storing species ``name``."""
        return f"{self.PREFIX}{name}"

    def ensure_columns(self, sim) -> None:
        """Register any missing species columns with initial values."""
        for name, (initial, _) in self._species.items():
            col = self.column(name)
            if col not in sim.rm.data:
                sim.rm.register_column(col, np.float64, (), initial)

    def concentrations(self, sim, idx) -> dict[str, np.ndarray]:
        """Current per-agent concentration arrays (copies) for agents
        ``idx``: storage indices, or the slice :func:`select_rows` gives."""
        return {
            name: sim.rm.data[self.column(name)][idx].copy()
            for name in self._species
        }

    # ------------------------------------------------------------------ #

    def _rhs(self, sim, idx, y) -> dict[str, np.ndarray]:
        out = {}
        for name, (_, dfdt) in self._species.items():
            out[name] = np.asarray(dfdt(sim, idx, y), dtype=np.float64)
        return out

    def run(self, sim, idx: np.ndarray) -> None:
        """Integrate every species one time step for agents ``idx``."""
        if not self._species:
            return
        self.ensure_columns(sim)
        rm = sim.rm
        sel = select_rows(idx, rm.n)
        dt = sim.param.simulation_time_step / self.substeps
        y = self.concentrations(sim, sel)
        for _ in range(self.substeps):
            if self.method == "euler":
                k1 = self._rhs(sim, idx, y)
                for n in y:
                    y[n] = y[n] + dt * k1[n]
            else:  # classic RK4
                k1 = self._rhs(sim, idx, y)
                y2 = {n: y[n] + 0.5 * dt * k1[n] for n in y}
                k2 = self._rhs(sim, idx, y2)
                y3 = {n: y[n] + 0.5 * dt * k2[n] for n in y}
                k3 = self._rhs(sim, idx, y3)
                y4 = {n: y[n] + dt * k3[n] for n in y}
                k4 = self._rhs(sim, idx, y4)
                for n in y:
                    y[n] = y[n] + dt / 6.0 * (
                        k1[n] + 2 * k2[n] + 2 * k3[n] + k4[n]
                    )
        for n, vals in y.items():
            rm.data[self.column(n)][sel] = vals
