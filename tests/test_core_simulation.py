"""Integration tests for the Simulation facade and scheduler (Algorithm 1)."""

import numpy as np
import pytest

from repro import Machine, Param, Simulation, SYSTEM_A, SYSTEM_C
from repro.core.behaviors_lib import GrowDivide, RandomWalk


def lattice(n_side, spacing=20.0):
    g = np.arange(n_side) * spacing
    x, y, z = np.meshgrid(g, g, g, indexing="ij")
    return np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)


class TestParam:
    def test_standard_turns_everything_off(self):
        p = Param.standard()
        assert p.environment == "kd_tree"
        assert not p.numa_aware_iteration
        assert p.agent_sort_frequency == 0
        assert p.agent_allocator != "bdm"
        assert not p.parallel_agent_modifications

    def test_with_override(self):
        p = Param.standard().with_(environment="uniform_grid")
        assert p.environment == "uniform_grid"
        assert not p.numa_aware_iteration  # others untouched

    @pytest.mark.parametrize(
        "field,value",
        [
            ("environment", "voronoi"),
            ("agent_allocator", "tcmalloc"),
            ("space_filling_curve", "peano"),
            ("agent_sort_frequency", -1),
            ("block_size", 0),
            ("simulation_time_step", 0.0),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            Simulation("bad", Param.optimized(**{field: value}))


class TestLifecycle:
    def test_zero_iterations(self):
        sim = Simulation("s", Param.optimized())
        sim.add_cells(np.zeros((1, 3)))
        sim.simulate(0)
        assert sim.scheduler.iteration == 0

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError):
            Simulation("s").simulate(-1)

    def test_time_advances(self):
        sim = Simulation("s", Param.optimized(simulation_time_step=0.5))
        sim.add_cells(np.zeros((1, 3)))
        sim.simulate(4)
        assert sim.time == pytest.approx(2.0)

    def test_empty_simulation_runs(self):
        sim = Simulation("s", Param.optimized())
        sim.simulate(3)
        assert sim.num_agents == 0


class TestPhysicsIntegration:
    def test_overlapping_cells_separate(self):
        sim = Simulation("sep", Param.optimized(agent_sort_frequency=0))
        sim.add_cells(np.array([[0.0, 0, 0], [5.0, 0, 0]]), diameters=10.0)
        d0 = 5.0
        sim.simulate(50)
        d1 = np.linalg.norm(sim.rm.positions[0] - sim.rm.positions[1])
        assert d1 > d0
        assert d1 <= 12.0  # adhesion keeps them from flying apart

    def test_max_displacement_clamped(self):
        p = Param.optimized(simulation_max_displacement=0.1, agent_sort_frequency=0)
        sim = Simulation("clamp", p)
        sim.add_cells(np.array([[0.0, 0, 0], [1.0, 0, 0]]), diameters=10.0)
        pos0 = sim.rm.positions.copy()
        sim.simulate(1)
        step = np.linalg.norm(sim.rm.positions - pos0, axis=1)
        assert np.all(step <= 0.1 + 1e-12)

    def test_lattice_is_stable(self):
        sim = Simulation("lat", Param.optimized(agent_sort_frequency=0))
        pos = lattice(3, spacing=15.0)
        sim.add_cells(pos, diameters=10.0)
        sim.simulate(5)
        np.testing.assert_allclose(sim.rm.positions, pos)


class TestEquivalenceAcrossConfigurations:
    """The optimizations must not change simulation results."""

    def _run(self, param, seed=7):
        sim = Simulation("eq", param, seed=seed)
        rng = np.random.default_rng(seed)
        sim.add_cells(rng.uniform(0, 40, (100, 3)), diameters=8.0)
        sim.simulate(5)
        # Compare uid->position maps (storage order differs when sorting).
        return {
            int(u): tuple(np.round(p, 9))
            for u, p in zip(sim.rm.data["uid"], sim.rm.positions)
        }

    def test_environments_agree(self):
        base = self._run(Param.optimized(agent_sort_frequency=0))
        for env in ("kd_tree", "octree"):
            other = self._run(Param.optimized(environment=env, agent_sort_frequency=0))
            assert other == base

    def test_sorting_does_not_change_results(self):
        base = self._run(Param.optimized(agent_sort_frequency=0))
        sorted_ = self._run(Param.optimized(agent_sort_frequency=1))
        assert sorted_ == base

    def test_standard_vs_optimized_agree(self):
        base = self._run(Param.optimized(agent_sort_frequency=0))
        std = self._run(Param.standard())
        assert std == base

    def test_allocators_do_not_change_results(self):
        base = self._run(Param.optimized(agent_sort_frequency=0))
        for alloc in ("ptmalloc2", "jemalloc"):
            other = self._run(
                Param.optimized(agent_allocator=alloc, agent_sort_frequency=0)
            )
            assert other == base


class TestMachineAccounting:
    def _machine_sim(self, machine, seed=3, n=200):
        sim = Simulation("acct", Param.optimized(agent_sort_frequency=5),
                         machine=machine, seed=seed)
        rng = np.random.default_rng(seed)
        sim.add_cells(rng.uniform(0, 60, (n, 3)), diameters=8.0,
                      behaviors=[RandomWalk(1.0)])
        return sim

    def test_virtual_time_accumulates(self):
        m = Machine(SYSTEM_A, num_threads=8)
        sim = self._machine_sim(m)
        sim.simulate(5)
        assert sim.virtual_seconds() > 0

    def test_breakdown_has_paper_categories(self):
        m = Machine(SYSTEM_A, num_threads=8)
        sim = self._machine_sim(m)
        sim.simulate(5)
        bd = sim.runtime_breakdown()
        for key in ("agent_ops", "build_environment", "agent_sorting", "setup_teardown"):
            assert key in bd

    def test_agent_ops_dominate(self):
        # Paper Fig. 5: agent operations are the majority of the runtime.
        m = Machine(SYSTEM_A, num_threads=8)
        sim = self._machine_sim(m, n=500)
        sim.simulate(5)
        bd = sim.runtime_breakdown()
        assert bd["agent_ops"] > bd["build_environment"]

    def test_memory_bound(self):
        # The workload must be memory-bound (paper Fig. 5 right).
        m = Machine(SYSTEM_A, num_threads=8)
        sim = self._machine_sim(m, n=500)
        sim.simulate(5)
        assert m.memory_bound_fraction > 0.3

    def test_more_threads_less_virtual_time(self):
        times = []
        for t in (1, 18, 72):
            m = Machine(SYSTEM_A, num_threads=t)
            sim = self._machine_sim(m, n=2000)
            sim.simulate(2)
            times.append(sim.virtual_seconds())
        assert times[0] > times[1] > times[2]

    def test_system_c_machine(self):
        m = Machine(SYSTEM_C, num_threads=16)
        sim = self._machine_sim(m)
        sim.simulate(2)
        assert sim.virtual_seconds() > 0

    def test_peak_memory_tracked(self):
        sim = self._machine_sim(Machine(SYSTEM_A, num_threads=4))
        sim.simulate(3)
        assert sim.scheduler.peak_memory_bytes >= sim.memory_bytes() * 0.5


class TestWallTimers:
    def test_wall_times_recorded(self):
        sim = Simulation("wall", Param.optimized())
        sim.add_cells(np.zeros((10, 3)))
        sim.simulate(2)
        seconds = sim.obs.stage_seconds()
        assert seconds["agent_ops"] > 0
        assert seconds["build_environment"] > 0

    def test_visualization_hook_called(self):
        sim = Simulation("viz", Param.optimized())
        sim.add_cells(np.zeros((1, 3)))
        calls = []
        sim.visualize_callback = lambda s: calls.append(s.scheduler.iteration)
        sim.simulate(3)
        assert len(calls) == 3
