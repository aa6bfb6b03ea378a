"""Regression tests for the scheduler's environment rebuild skip.

When no agent moved or grew since the last build and the geometry
(radius, agent count, structure version) is unchanged, the scheduler must
reuse the existing grid and neighbor CSR instead of rebuilding — and must
NOT skip as soon as anything invalidates that.

With the displacement-bounded neighbor cache (the default), small
movements no longer force a rebuild either: the cached superset CSR is
re-filtered until an agent consumes the skin budget.  Each test pins the
counters for both configurations, so these also serve as regression tests
for the cache's rebuild policy.
"""

import numpy as np

from repro import Param, Simulation
from repro.core.behaviors_lib import RandomWalk
from repro.verify.snapshot import state_checksum


def lattice(n_side, spacing=25.0):
    g = np.arange(n_side) * spacing
    x, y, z = np.meshgrid(g, g, g, indexing="ij")
    return np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)


def _static_sim(**overrides):
    # Cells far apart (no contact forces), no behaviors: nothing ever
    # moves, so after the first build every further build is redundant.
    sim = Simulation("static", Param(**overrides))
    sim.add_cells(lattice(3), diameters=8.0)
    return sim


def _rebuilds(sim):
    return int(sim.obs.registry.counter("scheduler:env_rebuilds").value)


def _step_invalidating(sim, steps):
    """The documented opt-out of the skip: code that mutates state behind
    the scheduler's back calls ``invalidate_neighbor_cache()``."""
    for _ in range(steps):
        sim.invalidate_neighbor_cache()
        sim.simulate(1)


def _cache_counters(sim):
    reg = sim.obs.registry
    return (int(reg.counter("neighbor_cache:hits").value),
            int(reg.counter("neighbor_cache:misses").value))


class TestRebuildSkip:
    def test_static_scene_stops_rebuilding(self):
        sim = _static_sim()
        sim.simulate(10)
        # Step 0 always builds; freshly inserted agents carry moved/grew
        # flags, so step 1 conservatively re-checks — with the neighbor
        # cache on, nothing actually moved, so that check is a cache hit
        # (re-filter), not a rebuild; steps 2-9 all skip outright.
        assert _rebuilds(sim) == 1
        assert _cache_counters(sim) == (1, 1)

    def test_static_scene_without_cache(self):
        sim = _static_sim(neighbor_cache=False)
        sim.simulate(10)
        # Pre-cache behavior: the step-1 re-check is a full rebuild.
        assert _rebuilds(sim) == 2

    def test_opt_out_rebuilds_every_step(self):
        sim = _static_sim(neighbor_cache=False)
        _step_invalidating(sim, 10)
        assert _rebuilds(sim) == 10

    def test_opt_out_of_skip_still_caches(self):
        # Opting out of the full skip leaves the cache managing builds:
        # a static scene re-filters every step instead of rebuilding.
        sim = _static_sim()
        _step_invalidating(sim, 10)
        assert _rebuilds(sim) == 1
        assert _cache_counters(sim) == (9, 1)

    def test_movement_forces_rebuild_without_cache(self):
        sim = Simulation("walk", Param(neighbor_cache=False))
        sim.add_cells(lattice(3), diameters=8.0, behaviors=[RandomWalk(2.0)])
        sim.simulate(5)
        # Every step moves agents, so no step may reuse a stale grid.
        assert _rebuilds(sim) == 5

    def test_small_movement_reuses_cache(self):
        sim = Simulation("walk", Param())
        sim.add_cells(lattice(3), diameters=8.0, behaviors=[RandomWalk(2.0)])
        sim.simulate(5)
        # Per-step displacement (~speed * dt = 0.02) is far below the
        # skin budget, so the initial superset serves every later step.
        assert _rebuilds(sim) == 1
        assert _cache_counters(sim) == (4, 1)

    def test_adding_agents_forces_rebuild(self):
        sim = _static_sim()
        sim.simulate(3)
        assert _rebuilds(sim) == 1
        sim.add_cells(np.array([[200.0, 200.0, 200.0]]), diameters=8.0)
        sim.simulate(3)
        # The structural change invalidates the cached superset (a cache
        # miss -> rebuild); the new agent's fresh moved flag re-checks once
        # more (a hit), then skipping resumes.
        assert _rebuilds(sim) == 2
        assert _cache_counters(sim) == (2, 2)

    def test_adding_agents_without_cache(self):
        sim = _static_sim(neighbor_cache=False)
        sim.simulate(3)
        assert _rebuilds(sim) == 2
        sim.add_cells(np.array([[200.0, 200.0, 200.0]]), diameters=8.0)
        sim.simulate(3)
        # The structural change rebuilds, the new agent's fresh moved flag
        # rebuilds once more, then skipping resumes.
        assert _rebuilds(sim) == 4

    def test_skip_does_not_change_results(self):
        def run(skip, cache):
            sim = Simulation("eq", Param(neighbor_cache=cache), seed=11)
            rng = np.random.default_rng(4)
            sim.add_cells(rng.uniform(0, 60, (40, 3)), diameters=8.0,
                          behaviors=[RandomWalk(1.0)])
            if skip:
                sim.simulate(6)
            else:
                _step_invalidating(sim, 6)
            return state_checksum(sim)

        reference = run(True, True)
        assert reference == run(False, True)
        assert reference == run(True, False)
        assert reference == run(False, False)
