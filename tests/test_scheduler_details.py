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

    def test_wall_clock_path_prices_nothing(self, monkeypatch):
        """Without a virtual machine no accountant exists: every stage,
        hook included, runs with the accountant unconstructible."""
        from repro.core.operation import OpKind, StandaloneOperation
        from repro.parallel.accounting import CostAccountant

        def refuse(self, sim):
            raise AssertionError("a wall-clock tick built a CostAccountant")

        monkeypatch.setattr(CostAccountant, "__init__", refuse)
        p = Param.optimized(agent_sort_frequency=2, event_scheduling=False)
        sim = Simulation("wall", p, seed=0)
        rng = np.random.default_rng(0)
        sim.add_cells(rng.uniform(0, 40, (150, 3)), diameters=8.0,
                      behaviors=[RandomWalk(0.5)])
        sim.add_diffusion_grid(DiffusionGrid("s", 8, 0.0, 50.0))
        sim.add_operation(StandaloneOperation(
            lambda s: None, name="post", kind=OpKind.POST,
            parallelizable=True))
        sim.visualize_callback = lambda s: None
        assert sim.scheduler.accountant is None
        sim.simulate(5)
        assert sim.scheduler.iteration == 5
        with pytest.raises(AssertionError, match="CostAccountant"):
            Simulation("priced", p, machine=Machine(SYSTEM_A, num_threads=8))


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
    """A search the build stage does not overlap with the behaviors is
    materialized inside ``build_environment``, so ``stage_seconds()``
    books it to the stage that owns it; an overlapped one is started
    there and joined by mechanics, its first reader."""

    @pytest.mark.parametrize("neighbor_cache", [True, False])
    def test_oncology_books_csr_to_build_environment(self, neighbor_cache):
        import time

        from repro.simulations.registry import get_simulation

        bench = get_simulation("oncology")
        param = bench.default_param().with_(neighbor_cache=neighbor_cache)
        sim = bench.build(1500, param=param, seed=0)
        env, scheduler = sim.env, sim.scheduler
        # The synchronous search (one kernel thread, NumPy, a declared
        # reader); the overlapped one is the next test's.
        scheduler.neighbor_cache.start_search = lambda: False
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

    def test_oncology_overlapped_search_is_joined_before_mechanics(self):
        from repro.kernels import c_backend
        from repro.kernels.dispatch import _probe
        from repro.simulations.registry import get_simulation

        if not _probe("c"):
            pytest.skip("the C kernel library cannot be built here")
        bench = get_simulation("oncology")
        c_backend._set_threads(2)
        try:
            sim = bench.build(1500, param=bench.default_param(), seed=0)
            env, backend = sim.env, sim.backend
            events = []
            real_start, real_csr = env.start_search, env.neighbor_csr
            real_force = backend.force_and_displace

            def start():
                events.append("start")
                return real_start()

            def csr():
                events.append("join" if env._pending is not None else "csr")
                return real_csr()

            def force(*args):
                events.append("mechanics")
                return real_force(*args)

            env.start_search, env.neighbor_csr = start, csr
            backend.force_and_displace = force
            sim.simulate(6)
        finally:
            c_backend._set_threads(None)
        overlapped = sim.obs.registry.counter(
            "neighbor_cache:overlapped_searches").value
        assert overlapped >= 4  # every exact build but the first ones
        assert events.count("start") == events.count("join") == overlapped
        for i, event in enumerate(events):
            if event == "start":  # nothing reads the CSR before mechanics
                assert events[i + 1:i + 3] == ["join", "mechanics"]


# --------------------------------------------------------------------- #
# Build only when read
# --------------------------------------------------------------------- #

def no_reader_model(seed=0, machine=None, n=150, **param_overrides):
    """Cells that only secrete into / climb a substance field: agents move
    every tick and nothing in the loop reads a neighbor list."""
    from repro.core.behaviors_lib import Chemotaxis

    sim = Simulation("no-reader", Param.optimized(**param_overrides),
                     machine=machine, seed=seed)
    sim.mechanics_enabled = False
    rng = np.random.default_rng(seed)
    idx = sim.add_cells(rng.uniform(0.0, 40.0, (n, 3)), diameters=6.0)
    sim.add_diffusion_grid(DiffusionGrid(
        "s", 8, 0.0, 40.0, diffusion_coefficient=0.5, decay=0.01))
    sim.attach_behavior(idx, Secretion("s", 1.0))
    sim.attach_behavior(idx[::2], Chemotaxis("s", 1.5))
    return sim


def count_env_updates(sim):
    """Shadow ``sim.env.update`` with a counting wrapper."""
    calls = []
    real = sim.env.update

    def update(positions, radius):
        calls.append(radius)
        return real(positions, radius)

    sim.env.update = update
    return calls


def fresh_csr(sim):
    """Exact CSR of the current positions from a brand-new grid."""
    from repro.env import UniformGridEnvironment

    env = UniformGridEnvironment()
    env.update(sim.rm.positions.copy(), sim.interaction_radius())
    return env.neighbor_csr()


def assert_csr_equal(got, expected):
    assert np.array_equal(got[0], expected[0])
    assert np.array_equal(got[1], expected[1])


def eager_builds(monkeypatch):
    """The scheduler before deferred builds: build whether or not read."""
    from repro.core.scheduler import NeighborCache

    build = NeighborCache.build
    monkeypatch.setattr(
        NeighborCache, "build",
        lambda self, on_demand=False: build(self, on_demand=True))


def per_tick_checksums(sim, ticks, at_tick=None, then=None):
    from repro.verify.snapshot import state_checksum

    out = []
    for tick in range(ticks):
        if tick == at_tick:
            then(sim)
        sim.simulate(1)
        out.append(state_checksum(sim))
    return out


class TestDeferredEnvironmentBuild:
    def test_no_reader_model_never_builds(self):
        sim = no_reader_model()
        calls = count_env_updates(sim)
        sim.simulate(12)                       # incl. the sort tick
        reg = sim.obs.registry
        assert calls == []
        assert reg.counter("scheduler:env_builds_deferred").value == 12
        assert reg.counter("scheduler:env_rebuilds").value == 0
        assert reg.counter("scheduler:env_rebuild_skips").value == 0

    def test_neighbors_afterwards_builds_once_exact_and_cached(self):
        sim = no_reader_model()
        calls = count_env_updates(sim)
        sim.simulate(7)
        csr = sim.neighbors()
        assert len(calls) == 1
        assert len(csr[1]) > 0
        assert_csr_equal(csr, fresh_csr(sim))
        assert sim.neighbors() is csr and len(calls) == 1
        # The next tick finds a current build (skip), the one after moves
        # on from it and defers again.
        sim.simulate(2)
        reg = sim.obs.registry
        assert len(calls) == 1
        assert reg.counter("scheduler:env_rebuild_skips").value == 1
        assert reg.counter("scheduler:env_builds_deferred").value == 8

    @pytest.mark.parametrize("reader", ["mechanics", "behavior", "operation"])
    def test_a_reader_enabled_mid_run_sees_what_eager_builds_give(
            self, reader, monkeypatch):
        from repro.core.behavior import Behavior
        from repro.core.operation import AgentOperation

        def swell(sim, idx):
            """State that depends on the neighbor lists."""
            indptr, _ = sim.neighbors()
            sim.rm.data["diameter"][idx] += 1e-3 * np.diff(indptr)[idx]
            sim.rm.data["grew"][idx] = True

        class Crowding(Behavior):
            uses_neighbors = True
            run = staticmethod(swell)

        class CrowdingOp(AgentOperation):
            uses_neighbors = True
            run_on = staticmethod(swell)

        def enable(sim):
            if reader == "mechanics":
                sim.mechanics_enabled = True
            elif reader == "behavior":
                sim.attach_behavior(np.arange(sim.num_agents), Crowding())
            else:
                sim.add_operation(CrowdingOp())

        deferred = no_reader_model(seed=3)
        calls = count_env_updates(deferred)
        got = per_tick_checksums(deferred, 10, at_tick=5, then=enable)
        assert deferred.obs.registry.counter(
            "scheduler:env_builds_deferred").value == 5
        assert len(calls) >= 1

        eager_builds(monkeypatch)
        eager = no_reader_model(seed=3)
        expected = per_tick_checksums(eager, 10, at_tick=5, then=enable)
        assert eager.obs.registry.counter(
            "scheduler:env_builds_deferred").value == 0
        assert got == expected
        assert len(set(got)) == 10

    def test_under_a_machine_every_tick_builds_and_is_charged(self):
        sim = no_reader_model(machine=Machine(SYSTEM_A, num_threads=8))
        calls = count_env_updates(sim)
        sim.simulate(6)
        assert len(calls) == 6
        assert sim.machine.stats["build_environment"].invocations == 6
        assert sim.obs.registry.counter(
            "scheduler:env_builds_deferred").value == 0

    def test_checkpoint_restore_in_the_deferred_state(self, tmp_path):
        from repro import restore_checkpoint, save_checkpoint

        sim = no_reader_model(seed=4)
        sim.simulate(5)
        path = save_checkpoint(sim, tmp_path / "deferred.npz")
        expected = per_tick_checksums(sim, 6)

        resumed = no_reader_model(seed=4)
        calls = count_env_updates(resumed)
        restore_checkpoint(resumed, path)
        assert per_tick_checksums(resumed, 6) == expected
        assert calls == []

    def test_invariant_checks_every_tick_stay_green(self):
        sim = no_reader_model(check_invariants_frequency=1)
        sim.simulate(6)
        assert sim.obs.registry.counter(
            "scheduler:env_builds_deferred").value == 6

    def test_undeclared_in_tick_reader_gets_the_positions_it_sees(self):
        from repro.core.behavior import Behavior

        seen = []

        class Undeclared(Behavior):
            def run(self, sim, idx):
                seen.append((sim.neighbors(), fresh_csr(sim)))

        sim = no_reader_model()
        calls = count_env_updates(sim)
        sim.attach_behavior(np.arange(sim.num_agents), Undeclared())
        sim.simulate(4)
        assert len(seen) == 4 and len(calls) == 4
        for got, expected in seen:
            assert_csr_equal(got, expected)


class TestOutOfTickNeighbors:
    """``sim.neighbors()`` between ticks answers for the positions the
    caller sees, not for the last tick's start."""

    @pytest.mark.parametrize("model", ["oncology", "cell_clustering"])
    @pytest.mark.parametrize("invalidate", [True, False])
    def test_equals_a_fresh_build_of_the_current_positions(
            self, model, invalidate):
        from repro.simulations.registry import get_simulation

        sim = get_simulation(model).build(2000, param=Param.optimized(),
                                          seed=1)
        sim.simulate(5)
        if invalidate:
            sim.invalidate_neighbor_cache()
        csr = sim.neighbors()
        assert_csr_equal(csr, fresh_csr(sim))
        assert sim.neighbors() is csr          # current now: no rebuild

    @pytest.mark.parametrize("neighbor_cache", [True, False])
    def test_reading_between_ticks_leaves_the_trajectory_alone(
            self, neighbor_cache):
        from repro.simulations.registry import get_simulation

        def run(read_at):
            param = Param.optimized(neighbor_cache=neighbor_cache)
            sim = get_simulation("oncology").build(600, param=param, seed=2)
            return per_tick_checksums(
                sim, 10, at_tick=read_at, then=lambda s: s.neighbors())

        assert run(read_at=5) == run(read_at=None)

    def test_in_tick_calls_keep_the_tick_start_lists(self):
        from repro import OpKind, StandaloneOperation
        from repro.simulations.registry import get_simulation

        sim = get_simulation("oncology").build(400, param=Param.optimized(),
                                               seed=0)
        seen = []
        sim.add_operation(StandaloneOperation(
            lambda s: seen.append(s.neighbors()), kind=OpKind.STANDALONE))
        calls = count_env_updates(sim)
        at_start = []
        real = sim.scheduler._run_agent_ops

        def agent_ops():
            at_start.append(sim.neighbors())
            real()

        sim.scheduler._run_agent_ops = agent_ops
        sim.simulate(3)
        assert len(calls) == 3
        # Agents moved in between, yet the standalone op got the very
        # lists the agent loop started with.
        assert all(a is b for a, b in zip(at_start, seen))
