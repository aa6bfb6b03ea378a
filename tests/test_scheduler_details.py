"""Tests for scheduler details: diffusion substepping, region accounting,
transient buffers, and iteration ordering."""

import numpy as np
import pytest

from repro import DiffusionGrid, Machine, Param, Simulation, SYSTEM_A
from repro.core.behaviors_lib import RandomWalk, Secretion


def machine_sim(n=100, seed=0, **param_overrides):
    defaults = dict(agent_sort_frequency=0)
    defaults.update(param_overrides)
    m = Machine(SYSTEM_A, num_threads=8)
    sim = Simulation("sched", Param.optimized(**defaults), machine=m, seed=seed)
    rng = np.random.default_rng(seed)
    sim.add_cells(rng.uniform(0, 40, (n, 3)), diameters=8.0)
    return sim


class TestDiffusionSubstepping:
    def test_unstable_dt_is_substepped(self):
        # dt far above the CFL limit: the scheduler must split the update.
        p = Param.optimized(simulation_time_step=5.0, agent_sort_frequency=0)
        sim = Simulation("diff", p, seed=0)
        sim.mechanics_enabled = False
        grid = sim.add_diffusion_grid(
            DiffusionGrid("s", 8, 0.0, 16.0, diffusion_coefficient=2.0)
        )
        grid.add_substance(np.array([[8.0, 8, 8]]), 50.0)
        before = grid.total_substance()
        sim.simulate(2)  # would raise inside DiffusionGrid.step if unsplit
        assert grid.total_substance() == pytest.approx(before, rel=1e-9)

    def test_diffusion_cost_charged(self):
        sim = machine_sim()
        sim.add_diffusion_grid(DiffusionGrid("s", 8, 0.0, 50.0))
        sim.simulate(2)
        assert "diffusion" in sim.machine.stats
        assert sim.machine.stats["diffusion"].cycles > 0

    def test_no_diffusion_no_charge(self):
        sim = machine_sim()
        sim.simulate(2)
        assert "diffusion" not in sim.machine.stats


class TestRegionAccounting:
    def test_invocation_counts(self):
        sim = machine_sim()
        sim.simulate(4)
        st = sim.machine.stats
        assert st["build_environment"].invocations == 4
        assert st["agent_ops"].invocations >= 4

    def test_region_cycles_nonnegative_and_consistent(self):
        sim = machine_sim()
        sim.simulate(3)
        for name, st in sim.machine.stats.items():
            assert st.cycles >= 0, name
            assert st.compute_cycles >= 0, name
            assert st.memory_cycles >= 0, name

    def test_total_is_sum_of_regions(self):
        sim = machine_sim()
        sim.simulate(3)
        m = sim.machine
        assert m.cycles == pytest.approx(
            sum(st.cycles for st in m.stats.values())
        )

    def test_machine_reset(self):
        sim = machine_sim()
        sim.simulate(2)
        sim.machine.reset()
        assert sim.machine.cycles == 0
        assert sim.machine.stats == {}
        sim.simulate(1)
        assert sim.machine.cycles > 0

    def test_op_seconds_helper(self):
        sim = machine_sim()
        sim.simulate(2)
        assert sim.machine.op_seconds("agent_ops") > 0
        assert sim.machine.op_seconds("nonexistent") == 0


class TestTransientBuffers:
    def test_other_allocator_sees_traffic(self):
        sim = machine_sim(n=300)
        sim.simulate(2)
        # CSR scratch buffers are allocated and freed per iteration.
        assert sim.other_allocator.stats.allocations > 0
        assert sim.other_allocator.stats.frees == sim.other_allocator.stats.allocations
        assert sim.other_allocator.live_bytes == 0

    def test_shared_allocator_configuration(self):
        p = Param.optimized(agent_allocator="ptmalloc2",
                            other_allocator="ptmalloc2",
                            agent_sort_frequency=0)
        sim = Simulation("shared", p, seed=0)
        assert sim.other_allocator is sim.agent_allocator


class TestIterationOrdering:
    def test_behaviors_see_fresh_csr_after_commit_growth(self):
        # Neighbor cache must be invalidated when the population changes.
        from repro.core.behaviors_lib import GrowDivide

        sim = Simulation("order", Param.optimized(agent_sort_frequency=0), seed=0)
        sim.add_cells(np.random.default_rng(0).uniform(0, 30, (50, 3)),
                      diameters=13.9,
                      behaviors=[GrowDivide(growth_rate=50.0,
                                            division_diameter=14.0,
                                            max_agents=100)])
        sim.simulate(2)
        indptr, _ = sim.neighbors()
        assert len(indptr) == sim.num_agents + 1

    def test_moved_flags_reset_each_iteration(self):
        sim = Simulation("flags", Param.optimized(agent_sort_frequency=0), seed=0)
        sim.mechanics_enabled = False
        idx = sim.add_cells(np.random.default_rng(0).uniform(0, 30, (10, 3)))
        sim.attach_behavior(idx[:3], RandomWalk(speed=10.0))
        sim.simulate(1)
        # After the iteration, flags were consumed and reset.
        assert not sim.rm.data["moved"].any()
        assert not sim.rm.data["grew"].any()

    def test_secretion_before_diffusion(self):
        # Secretion (agent op) feeds the same iteration's diffusion step.
        sim = Simulation("order2", Param.optimized(agent_sort_frequency=0), seed=0)
        sim.mechanics_enabled = False
        grid = sim.add_diffusion_grid(
            DiffusionGrid("m", 8, 0.0, 32.0, diffusion_coefficient=1.0)
        )
        sim.add_cells(np.array([[16.0, 16, 16]]), behaviors=[Secretion("m", 5.0)])
        sim.simulate(1)
        # Substance was secreted and already diffused to neighbor voxels.
        i, j, k = grid.voxel_of(np.array([[16.0, 16, 16]]))
        assert grid.concentration[i[0], j[0], k[0]] < 5.0
        assert grid.total_substance() == pytest.approx(5.0 * grid.voxel_size**3)


class TestGridBoxScatterCost:
    def test_wider_environment_costlier_build(self):
        # The §6.3 effect: sparser worlds -> more boxes -> costlier build.
        def build_cost(span):
            m = Machine(SYSTEM_A, num_threads=8)
            sim = Simulation("scatter", Param.optimized(agent_sort_frequency=0),
                             machine=m, seed=0)
            sim.mechanics_enabled = False
            sim.fixed_interaction_radius = 2.0
            rng = np.random.default_rng(0)
            sim.add_cells(rng.uniform(0, span, (500, 3)), diameters=2.0)
            sim.simulate(2)
            return m.stats["build_environment"].cycles

        assert build_cost(span=300.0) > build_cost(span=30.0)


class TestNeighborStageAttribution:
    """The CSR is materialized inside ``build_environment``, so
    ``stage_seconds()`` books the search to the stage that owns it."""

    @pytest.mark.parametrize("neighbor_cache", [True, False])
    def test_oncology_books_csr_to_build_environment(self, neighbor_cache):
        import time

        from repro.simulations.registry import get_simulation

        bench = get_simulation("oncology")
        param = bench.default_param().with_(neighbor_cache=neighbor_cache)
        sim = bench.build(1500, param=param, seed=0)
        env, scheduler = sim.env, sim.scheduler
        seen = {"in_agent_ops": False, "builds": 0, "builds_in_agent_ops": 0,
                "csr_seconds": 0.0}
        real_csr, real_ops = env.neighbor_csr, scheduler._run_agent_ops

        def timed_csr():
            fresh = env._csr is None
            t0 = time.perf_counter()
            result = real_csr()
            if fresh:
                seen["csr_seconds"] += time.perf_counter() - t0
                seen["builds"] += 1
                seen["builds_in_agent_ops"] += seen["in_agent_ops"]
            return result

        def flagged_ops():
            seen["in_agent_ops"] = True
            try:
                real_ops()
            finally:
                seen["in_agent_ops"] = False

        env.neighbor_csr = timed_csr
        scheduler._run_agent_ops = flagged_ops
        sim.simulate(6)
        assert seen["builds"] == 6          # moving agents: a build a tick
        assert seen["builds_in_agent_ops"] == 0
        assert (sim.obs.stage_seconds()["build_environment"]
                >= seen["csr_seconds"] > 0.0)
