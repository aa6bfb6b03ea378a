"""Displacement-bounded neighbor cache (Verlet-skin CSR reuse).

The cache's contract is *bitwise* equivalence: a run that reuses and
re-filters superset CSRs must be indistinguishable — per-step state
checksums, byte for byte — from a run that rebuilds the environment
every step.  These tests pin that contract across the invalidation
surface (agent sorting's Morton reorder, mid-run add/remove commits,
radius growth, fast motion), the re-filter's element-for-element CSR
identity, and the opt-outs (kd-tree, ``neighbor_cache=False``).
"""

import numpy as np
import pytest

from repro import Param, ParamError, Simulation
from repro.core.behaviors_lib import RandomWalk
from repro.env import UniformGridEnvironment, csr_row_index, refilter_csr
from repro.verify.snapshot import state_checksum
from tests.kernel_backends import kernel_backends


def _counters(sim):
    reg = sim.obs.registry
    return {
        "hits": int(reg.counter("neighbor_cache:hits").value),
        "misses": int(reg.counter("neighbor_cache:misses").value),
        "refilters": int(reg.counter("neighbor_cache:refilters").value),
        "relabels": int(reg.counter("neighbor_cache:relabels").value),
        "rebuilds": int(reg.counter("scheduler:env_rebuilds").value),
    }


def _lattice_sim(param, seed=1, side=5, spacing=11.0, speed=None):
    sim = Simulation("lat", param, seed=seed)
    rng = np.random.default_rng(40 + seed)
    g = np.arange(side) * spacing
    pos = np.stack(np.meshgrid(g, g, g, indexing="ij"), -1).reshape(-1, 3)
    pos = pos + rng.normal(0.0, 0.3, pos.shape)
    idx = sim.add_cells(positions=pos, diameters=np.full(len(pos), 10.0))
    if speed is not None:
        sim.attach_behavior(idx, RandomWalk(speed))
    return sim


class TestRefilterIdentity:
    """The re-filtered superset CSR equals a fresh exact build, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_refilter_matches_fresh_build_exactly(self, seed):
        rng = np.random.default_rng(seed)
        positions = rng.uniform(0.0, 60.0, size=(400, 3))
        radius, skin = 8.0, 2.5

        superset = UniformGridEnvironment()
        superset.update(positions, (radius + skin) * (1.0 + 1e-9))
        sup_ip, sup_ix = superset.neighbor_csr()
        sup_qi = csr_row_index(sup_ip, sup_ix)

        # Jitter within the budget: every agent moves < skin / 2.
        moved = positions + rng.uniform(-1.0, 1.0, positions.shape) * (
            skin / (2 * np.sqrt(3)) * 0.99
        )
        ip, ix, qi = refilter_csr(sup_ip, sup_ix, sup_qi, moved, radius)

        fresh = UniformGridEnvironment()
        fresh.update(moved, radius)
        f_ip, f_ix = fresh.neighbor_csr()

        # Element-for-element, not set-wise: order is the contract.
        np.testing.assert_array_equal(ip, f_ip)
        np.testing.assert_array_equal(ix, f_ix)
        np.testing.assert_array_equal(qi, csr_row_index(f_ip, f_ix))

    def test_refilter_empty_csr(self):
        positions = np.array([[0.0, 0.0, 0.0], [100.0, 0.0, 0.0]])
        env = UniformGridEnvironment()
        env.update(positions, 5.0)
        ip, ix = env.neighbor_csr()
        qi = csr_row_index(ip, ix)
        rip, rix, rqi = refilter_csr(ip, ix, qi, positions, 4.0)
        assert len(rix) == 0 and len(rqi) == 0
        assert len(rip) == 3 and rip[-1] == 0


class TestInvalidation:
    """Sorting reorders, commits, and fast motion must all defeat the cache."""

    @pytest.mark.parametrize("model", ["cell_proliferation", "oncology"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_checksums_match_cache_disabled(self, model, seed):
        from repro.simulations import get_simulation

        bench = get_simulation(model)

        def run(cache):
            # Sort every 2 steps so the run crosses several Morton
            # reorders *and* division/death commits while cached supersets
            # are live.
            p = bench.default_param().with_(
                neighbor_cache=cache, agent_sort_frequency=2
            )
            sim = bench.build(150, param=p, seed=seed)
            out = []
            for _ in range(12):
                sim.simulate(1)
                out.append(state_checksum(sim))
            return out

        assert run(True) == run(False)

    def test_sorting_invalidates_cache(self):
        # A static-but-flagged scene on the default numpy backend: the
        # reorder bumps the structure version, so the build after each
        # sort must be a miss even though no agent moved an inch.
        sim = _lattice_sim(Param(agent_sort_frequency=3), speed=0.5)
        sim.simulate(9)
        c = _counters(sim)
        # Builds at steps 0 (cold), 3, 6 (after sorts at steps 2 and 5).
        assert c["rebuilds"] == 3
        assert c["misses"] == 3
        assert c["hits"] == 6
        assert c["relabels"] == 0

    @pytest.mark.parametrize("backend",[kb.name for kb in kernel_backends()])
    def test_sorting_relabels_or_invalidates_cache(self, backend):
        # A slowly moving lattice sorted after steps 2, 5 and 8.  numpy
        # cannot relabel the superset: the reorder bumps the structure
        # version, so the build after each sort is a miss.  c carries the
        # superset through each permutation: one build, then refilters.
        param = Param(agent_sort_frequency=3, kernel_backend=backend)
        sim = _lattice_sim(param, speed=0.5)
        sim.simulate(9)
        c = _counters(sim)
        if backend == "numpy":
            # Builds at steps 0 (cold), 3, 6 (after sorts at steps 2 and 5).
            assert (c["rebuilds"], c["misses"], c["hits"]) == (3, 3, 6)
            assert c["relabels"] == 0
        else:
            assert (c["rebuilds"], c["misses"], c["hits"]) == (1, 1, 8)
            assert c["relabels"] == 3
        # Every CSR after a sort -- the one the next tick's agents read --
        # is the exact build over the sorted agents.
        sim = _lattice_sim(param, speed=0.5)
        for step in range(9):
            sim.simulate(1)
            indptr, indices = sim.neighbors()
            fresh = UniformGridEnvironment()
            fresh.update(sim.rm.positions.copy(), sim.interaction_radius())
            want_indptr, want_indices = fresh.neighbor_csr()
            assert np.array_equal(indptr, want_indptr), step
            assert np.array_equal(indices, want_indices), step
        c = _counters(sim)
        assert c["relabels"] == (0 if backend == "numpy" else 3)
        assert c["rebuilds"] == (4 if backend == "numpy" else 1)

    def test_commit_invalidates_cache(self):
        sim = _lattice_sim(Param(agent_sort_frequency=0), speed=0.5)
        sim.simulate(4)
        before = _counters(sim)
        assert before["rebuilds"] == 1
        sim.add_cells(np.array([[200.0, 200.0, 200.0]]),
                      diameters=np.array([10.0]))
        sim.simulate(4)
        after = _counters(sim)
        assert after["rebuilds"] == before["rebuilds"] + 1
        assert after["misses"] == before["misses"] + 1

    def test_fast_motion_always_rebuilds(self):
        # Steps of ~4 length units against a ~1-unit max skin: every
        # build's budget is gone by the next step, so the auto-tuner must
        # fall back to plain exact builds (no wasted superset work).
        sim = _lattice_sim(Param(agent_sort_frequency=0), speed=400.0)
        sim.simulate(8)
        c = _counters(sim)
        assert c["rebuilds"] == 8
        assert c["hits"] == 0

    def test_radius_growth_consumes_budget(self):
        # Growing diameters raise the interaction radius; the slack
        # shrinks even with zero displacement and must eventually force
        # a rebuild at the larger radius.
        sim = _lattice_sim(Param(agent_sort_frequency=0,
                                 neighbor_skin=1.0))
        sim.rm.data["diameter"][:] = 10.0
        sim.simulate(2)
        assert _counters(sim)["rebuilds"] == 1
        # Radius grows by more than the 1.0 skin: slack goes negative.
        sim.rm.data["diameter"][0] = 12.0
        sim.rm.data["grew"][0] = True
        sim.simulate(1)
        assert _counters(sim)["rebuilds"] == 2
        assert sim.env.build_radius >= 13.0


class TestConfiguration:
    def test_negative_skin_rejected(self):
        with pytest.raises(ParamError):
            Param(neighbor_skin=-0.5)

    def test_fixed_skin_used_verbatim(self):
        sim = _lattice_sim(Param(neighbor_skin=3.0), speed=0.5)
        sim.simulate(2)
        assert sim.scheduler._cache_budget == pytest.approx(
            sim.interaction_radius() + 3.0
        )
        # Build radius carries the float-safety pad on top.
        assert sim.env.build_radius >= sim.interaction_radius() + 3.0

    def test_kdtree_opts_out(self):
        # Environments without ordered CSR rows never engage the cache.
        sim = _lattice_sim(Param(environment="kd_tree",
                                 agent_sort_frequency=0), speed=0.5)
        sim.simulate(5)
        c = _counters(sim)
        assert c["hits"] == 0 and c["misses"] == 0
        assert c["rebuilds"] == 5

    def test_disabled_cache_restores_rebuild_per_step(self):
        sim = _lattice_sim(Param(neighbor_cache=False,
                                 agent_sort_frequency=0), speed=0.5)
        sim.simulate(5)
        c = _counters(sim)
        assert c["hits"] == 0 and c["misses"] == 0
        assert c["rebuilds"] == 5

    def test_qi_expansion_cached_across_skipped_builds(self):
        sim = _lattice_sim(Param(agent_sort_frequency=0), speed=None)
        sim.simulate(5)  # static: builds once, then full-skips
        sched = sim.scheduler
        indptr, indices = sim.neighbors()
        counts, qi = sched._expand_csr(indptr, indices)
        counts2, qi2 = sched._expand_csr(indptr, indices)
        assert counts is counts2 and qi is qi2
        np.testing.assert_array_equal(
            qi, np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
        )


class TestProcessBackend:
    def test_process_backend_equivalence(self):
        from repro.simulations import get_simulation

        bench = get_simulation("cell_clustering")

        def run(cache):
            p = bench.default_param().with_(
                execution_backend="process", backend_workers=2,
                neighbor_cache=cache,
            )
            with bench.build(120, param=p, seed=5) as sim:
                out = []
                for _ in range(5):
                    sim.simulate(1)
                    out.append(state_checksum(sim))
                hits = _counters(sim)["hits"]
            return out, hits

        on, hits = run(True)
        off, _ = run(False)
        assert on == off
        assert hits > 0  # the comparison must not be vacuous
