"""Tests for the five benchmark simulations and the cell-sorting model."""

import numpy as np
import pytest

from repro import Machine, Param, SYSTEM_A
from repro.core.behaviors_lib import Infection
from repro.simulations import (
    TABLE1_ORDER,
    all_simulations,
    get_simulation,
    table1_rows,
)
from repro.simulations.cell_clustering import CellClustering
from repro.simulations.cell_sorting import CellSorting
from repro.simulations.epidemiology import Epidemiology


class TestRegistry:
    def test_all_five_registered(self):
        assert len(all_simulations()) == 5
        assert [s.name for s in all_simulations()] == list(TABLE1_ORDER)

    def test_cell_sorting_optional(self):
        assert len(all_simulations(include_cell_sorting=True)) == 6

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            get_simulation("economics")

    def test_table1_matches_paper(self):
        rows = {r["simulation"]: r for r in table1_rows()}
        # Spot checks against the paper's Table 1.
        assert rows["cell_proliferation"]["creates_agents"]
        assert not rows["cell_proliferation"]["uses_diffusion"]
        assert rows["oncology"]["deletes_agents"]
        assert rows["neuroscience"]["modifies_neighbors"]
        assert rows["neuroscience"]["has_static_regions"]
        assert rows["epidemiology"]["load_imbalance"]
        assert rows["cell_clustering"]["uses_diffusion"]
        assert rows["oncology"]["iterations"] == 288
        assert rows["cell_clustering"]["diffusion_volumes"] == 54_000_000

    def test_default_param_sets_static_detection(self):
        assert get_simulation("neuroscience").default_param().detect_static_agents
        assert not get_simulation("oncology").default_param().detect_static_agents


@pytest.mark.parametrize("name", TABLE1_ORDER)
class TestAllBenchmarksRun:
    def test_builds_and_runs(self, name):
        sim = get_simulation(name).build(300, seed=1)
        n0 = sim.num_agents
        assert n0 > 0
        sim.simulate(5)
        assert sim.num_agents > 0

    def test_runs_with_machine(self, name):
        m = Machine(SYSTEM_A, num_threads=8)
        sim = get_simulation(name).build(200, machine=m, seed=1)
        sim.simulate(3)
        assert sim.virtual_seconds() > 0

    def test_runs_with_standard_param(self, name):
        sim = get_simulation(name).build(150, param=Param.standard(), seed=1)
        sim.simulate(3)
        assert sim.num_agents > 0

    def test_deterministic(self, name):
        finals = []
        for _ in range(2):
            sim = get_simulation(name).build(150, seed=9)
            sim.simulate(4)
            finals.append(
                (sim.num_agents, np.round(sim.rm.positions.sum(), 6))
            )
        assert finals[0] == finals[1]


class TestWorkloadCharacteristics:
    def test_proliferation_grows(self):
        sim = get_simulation("cell_proliferation").build(400, seed=0)
        n0 = sim.num_agents
        sim.simulate(10)
        assert sim.num_agents > n0

    def test_proliferation_respects_cap(self):
        sim = get_simulation("cell_proliferation").build(100, seed=0)
        sim.simulate(30)
        assert sim.num_agents <= 100

    def test_oncology_deletes(self):
        sim = get_simulation("oncology").build(500, seed=0)
        # Track that at least one removal happens over a longer run.
        survivors0 = set(sim.rm.data["uid"].tolist())
        sim.simulate(15)
        survivors1 = set(sim.rm.data["uid"].tolist())
        assert len(survivors0 - survivors1) > 0

    def test_epidemic_dynamics(self):
        sim = get_simulation("epidemiology").build(800, seed=0)
        s0, i0, r0 = Epidemiology.sir_counts(sim)
        assert i0 > 0 and r0 == 0
        sim.simulate(20)
        s1, i1, r1 = Epidemiology.sir_counts(sim)
        assert s1 + i1 + r1 == sim.num_agents
        assert s1 < s0  # infections happened

    def test_neuroscience_creates_static_regions(self):
        sim = get_simulation("neuroscience").build(600, seed=0)
        sim.simulate(25)
        assert sim.rm.data["static"].mean() > 0.1

    def test_clustering_increases_homotypic_fraction(self):
        bench = get_simulation("cell_clustering")
        sim = bench.build(400, seed=3)
        before = CellClustering.clustering_metric(sim)
        sim.simulate(40)
        after = CellClustering.clustering_metric(sim)
        assert after > before


class TestCellSorting:
    def test_sorting_progresses(self):
        # Fig. 7a reproduction check: homotypic neighbor fraction rises.
        bench = get_simulation("cell_sorting")
        sim = bench.build(400, seed=2)
        before = CellSorting.homotypic_fraction(sim)
        assert 0.3 < before < 0.7  # random mixture
        sim.simulate(100)
        after = CellSorting.homotypic_fraction(sim)
        assert after > before + 0.04

    def test_population_preserved(self):
        sim = get_simulation("cell_sorting").build(200, seed=2)
        sim.simulate(10)
        assert sim.num_agents == 200
