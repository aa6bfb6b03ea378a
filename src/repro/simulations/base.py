"""Common scaffolding for the benchmark simulations."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.core.param import Param
from repro.core.simulation import Simulation

__all__ = ["Characteristics", "BenchmarkSimulation"]


@dataclass(frozen=True)
class Characteristics:
    """Performance-relevant simulation characteristics (paper Table 1)."""

    creates_agents: bool = False
    deletes_agents: bool = False
    modifies_neighbors: bool = False
    load_imbalance: bool = False
    random_movement: bool = False
    uses_diffusion: bool = False
    has_static_regions: bool = False
    #: Iteration count the paper runs (Table 1, row "Number of iterations").
    paper_iterations: int = 500
    #: Agent count the paper runs, in millions.
    paper_agents_millions: float = 10.0
    #: Diffusion volumes the paper uses (0 = no diffusion).
    paper_diffusion_volumes: int = 0


class BenchmarkSimulation(ABC):
    """A named, buildable benchmark workload."""

    name: str = "benchmark"
    characteristics: Characteristics = Characteristics()

    def build(
        self,
        num_agents: int,
        param: Param | None = None,
        machine=None,
        seed: int = 0,
    ) -> Simulation:
        """Create the initialized simulation: :meth:`shell`, then
        :meth:`populate`.

        ``num_agents`` is the workload scale: the initial population for
        fixed-population models, or the population cap for growing ones.
        """
        sim = self.shell(num_agents, param=param, machine=machine, seed=seed)
        self.populate(sim, num_agents, seed=seed)
        return sim

    @abstractmethod
    def shell(
        self,
        num_agents: int,
        param: Param | None = None,
        machine=None,
        seed: int = 0,
    ) -> Simulation:
        """The model without its agents: the ``Param``, the columns, the
        diffusion grids, the operations and the behaviors (registered in
        the order that fixes their mask bits).

        A checkpoint restore fills a shell: it never runs the population
        code (``serve.session.HostedSession.restore``).
        """

    @abstractmethod
    def populate(self, sim: Simulation, num_agents: int, seed: int = 0) -> None:
        """Add the initial agents (and initial field values) to a
        :meth:`shell`, attaching its registered behaviors."""

    def default_param(self) -> Param:
        """Fully optimized parameters, with the static-detection flag set
        the way the paper's modeler would (only when static regions are
        expected, §6.6)."""
        return Param.optimized(
            detect_static_agents=self.characteristics.has_static_regions
        )
