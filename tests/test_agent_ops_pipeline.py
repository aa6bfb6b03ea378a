"""Agent-ops pipeline: commit fast paths, staging buffers, dispatch
cache, shm remap, and the 2-D bincount memory profile.

The commit contract is positional: queued rows are drained per thread in
thread-key insertion order, then call order; uids are contiguous in that
order; each row lands at the tail of its domain segment.  The tests here
check that contract against directly computed expectations (a naive
per-domain list model for the multi-domain case); identity with the
queue-merge implementation this pipeline replaced is pinned by
``tests/golden/traces.json``.
"""

import numpy as np

from repro import Param, Simulation
from repro.core.behaviors_lib import GrowDivide, RandomWalk
from repro.core.resource_manager import ResourceManager
from repro.verify.snapshot import state_checksum


def lattice(n_side, spacing=12.0):
    g = np.arange(n_side) * spacing
    x, y, z = np.meshgrid(g, g, g, indexing="ij")
    return np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)


def make_rm(num_domains=1):
    """A ResourceManager seeded with 40 agents."""
    rm = ResourceManager(num_domains=num_domains)
    rng = np.random.default_rng(42)
    rm.add_agents_now({
        "position": rng.uniform(0, 50, (40, 3)),
        "diameter": rng.uniform(8, 12, 40),
    })
    return rm


def rows_by_uid(rm):
    """``{uid: (position bytes, diameter)}`` — layout-independent content."""
    return {
        int(u): (rm.data["position"][i].tobytes(),
                 float(rm.data["diameter"][i]))
        for i, u in enumerate(rm.data["uid"])
    }


class TestCommitFastPaths:
    def test_additions_only_bitwise_identical(self):
        rm = make_rm()
        expect_pos = rm.data["position"].copy()
        expect_dia = rm.data["diameter"].copy()
        rng = np.random.default_rng(0)
        for _ in range(5):
            add = {"position": rng.uniform(0, 50, (7, 3)),
                   "diameter": rng.uniform(8, 12, 7)}
            before = rm.n
            rm.queue_new_agents(dict(add))
            stats = rm.commit()
            expect_pos = np.concatenate([expect_pos, add["position"]])
            expect_dia = np.concatenate([expect_dia, add["diameter"]])
            assert np.array_equal(rm.data["position"], expect_pos)
            assert np.array_equal(rm.data["diameter"], expect_dia)
            assert np.array_equal(rm.data["uid"], np.arange(rm.n))
            assert np.array_equal(rm.domain_starts, [0, rm.n])
            assert np.array_equal(stats.new_agent_indices,
                                  np.arange(before, before + 7))
            assert stats.added == 7
            assert stats.fast_append and stats.staged_rows == 7

    def test_additions_only_skips_uid_rescan(self, monkeypatch):
        """The acceptance criterion: no np.unique/np.isin on the
        additions-only commit path."""
        rm = make_rm()

        def boom(*a, **kw):
            raise AssertionError("UID rescan on the fast-append path")

        rm.queue_new_agents({"position": np.zeros((3, 3)),
                             "diameter": np.full(3, 9.0)})
        monkeypatch.setattr(np, "isin", boom)
        monkeypatch.setattr(np, "unique", boom)
        stats = rm.commit()  # must not touch np.isin / np.unique
        assert stats.fast_append

    def test_removals_only_bitwise_identical(self):
        rm = make_rm()
        before = rows_by_uid(rm)
        old_pos = rm.data["position"].copy()
        gone = [3, 17, 0, 39, 21]
        rm.queue_removals(gone)
        stats = rm.commit()
        assert stats.removed == 5 and not stats.fast_append
        assert rm.n == 35
        # §3.2: survivors below the new size stay put, tail survivors
        # fill the holes; nothing else is touched.
        stay = np.setdiff1d(np.arange(35), gone)
        assert np.array_equal(rm.data["position"][stay], old_pos[stay])
        assert rows_by_uid(rm) == {
            u: row for u, row in before.items() if u not in gone}

    def test_mixed_add_remove_one_commit(self):
        rm = make_rm()
        rng = np.random.default_rng(1)
        for _ in range(4):
            add = {"position": rng.uniform(0, 50, (6, 3)),
                   "diameter": rng.uniform(8, 12, 6)}
            gone = rng.choice(rm.n, 4, replace=False)
            survivors = rows_by_uid(rm)
            for u in rm.data["uid"][gone]:
                del survivors[int(u)]
            next_uid = rm._next_uid
            rm.queue_new_agents(dict(add))
            rm.queue_removals(gone)
            stats = rm.commit()
            assert (stats.added, stats.removed) == (6, 4)
            # Removals apply first; the additions are the new tail.
            assert np.array_equal(stats.new_agent_indices,
                                  np.arange(rm.n - 6, rm.n))
            assert np.array_equal(rm.data["position"][-6:], add["position"])
            assert np.array_equal(rm.data["uid"][-6:],
                                  np.arange(next_uid, next_uid + 6))
            got = rows_by_uid(rm)
            assert {u: got[u] for u in survivors} == survivors
            assert len(got) == len(survivors) + 6

    def test_multi_domain_multi_thread_commit_order(self):
        rm = make_rm(num_domains=3)
        # Naive model: one list of uids per domain, appended in commit
        # order (threads in first-use order, then call order).
        model = [list(rm.data["uid"][rm.domain_slice(d)]) for d in range(3)]
        positions = dict(zip(rm.data["uid"].tolist(), rm.data["position"]))
        rng = np.random.default_rng(2)
        thread_order = []
        for step in range(3):
            calls = {}
            for thread in (2, 0, 1):
                add = {"position": rng.uniform(0, 50, (5, 3)),
                       "diameter": rng.uniform(8, 12, 5)}
                domain = (None, 1, np.array([0, 2, 2, 1, 0]))[thread]
                rm.queue_new_agents(dict(add), thread=thread, domain=domain)
                calls[thread] = (add["position"], domain)
                if thread not in thread_order:
                    thread_order.append(thread)
            uid = rm._next_uid
            new_uids = []
            round_robin = 0
            for thread in thread_order:
                pos, domain = calls[thread]
                for k in range(5):
                    if domain is None:
                        d = round_robin % 3
                        round_robin += 1
                    else:
                        d = int(np.broadcast_to(domain, 5)[k])
                    model[d].append(uid)
                    positions[uid] = pos[k]
                    new_uids.append(uid)
                    uid += 1
            stats = rm.commit()
            expect_uids = np.array([u for dom in model for u in dom])
            assert np.array_equal(rm.data["uid"], expect_uids)
            assert np.array_equal(
                rm.domain_starts, np.cumsum([0] + [len(d) for d in model]))
            assert np.array_equal(
                rm.data["position"],
                np.array([positions[u] for u in expect_uids]))
            assert np.array_equal(
                stats.new_agent_indices,
                np.flatnonzero(np.isin(expect_uids, new_uids)))


class TestStagingArena:
    def test_growth_across_reallocation(self):
        """Staged rows survive the amortized-doubling reallocation."""
        rm = make_rm()
        expect = [rm.data["position"].copy()]
        rng = np.random.default_rng(3)
        # Many small queue calls force repeated staging-buffer growth
        # (initial capacity is _MIN_CAPACITY rows).
        for _ in range(60):
            add = {"position": rng.uniform(0, 50, (3, 3)),
                   "diameter": rng.uniform(8, 12, 3)}
            rm.queue_new_agents(dict(add))
            expect.append(add["position"])
        assert rm.pending_additions == 180
        assert len(rm._staging["position"]) >= 180
        stats = rm.commit()
        assert stats.staged_rows == 180
        assert np.array_equal(rm.data["position"], np.concatenate(expect))
        assert rm._staged == 0 and not rm._staged_entries

    def test_late_column_backfilled_with_fill(self):
        """A column first staged mid-round backfills earlier rows."""
        rm = make_rm()
        rm.queue_new_agents({"position": np.ones((4, 3))})
        rm.queue_new_agents({"position": 2 * np.ones((4, 3)),
                             "diameter": np.full(4, 11.5)})
        rm.commit()
        # Rows from the first call carry the column's fill value.
        assert np.all(rm.data["diameter"][-8:-4] == 10.0)
        assert np.all(rm.data["diameter"][-4:] == 11.5)
        assert np.all(rm.data["position"][-8:-4] == 1.0)
        assert np.all(rm.data["position"][-4:] == 2.0)

    def test_unregistered_keys_are_ignored(self):
        rm = make_rm()
        rm.queue_new_agents({"position": np.zeros((2, 3)),
                             "no_such_column": np.arange(2)})
        rm.commit()
        assert rm.n == 42
        assert np.all(rm.data["position"][-2:] == 0.0)
        assert "no_such_column" not in rm.data

    def test_column_capacity_reused_between_commits(self):
        """Consecutive fast appends reuse the arena capacity in place."""
        rm = ResourceManager()
        rm.add_agents_now({"position": np.zeros((10, 3))})
        rm.queue_new_agents({"position": np.ones((7, 3))})
        rm.commit()
        # 10 + 7 outgrew the 16-row block and doubled it to 32: the next
        # commit must not reallocate.
        block, reallocations = rm.soa.block, rm.soa.reallocations
        assert rm.soa.capacity == 32
        rm.queue_new_agents({"position": 2 * np.ones((2, 3))})
        assert rm.commit().fast_append
        assert rm.soa.block is block
        assert rm.soa.reallocations == reallocations
        assert rm.soa.owns("position", rm.data["position"])


class TestShmRemap:
    def test_fast_append_stays_arena_backed(self):
        from repro.parallel.shm import (
            SOA_BLOCK,
            SharedMemoryResourceManager,
            WorkerArena,
        )

        rm = SharedMemoryResourceManager()
        try:
            rng = np.random.default_rng(5)
            expect = rng.uniform(0, 50, (20, 3))
            rm.add_agents_now({"position": expect.copy(),
                               "diameter": rng.uniform(8, 12, 20)})
            for _ in range(4):
                add = rng.uniform(0, 50, (30, 3))
                rm.queue_new_agents({"position": add.copy()})
                stats = rm.commit()
                expect = np.concatenate([expect, add])
                assert stats.fast_append
                assert np.array_equal(rm.data["position"], expect)
                segment = rm.arena.ensure(
                    SOA_BLOCK, (rm.soa.nbytes,), np.uint8)
                for name, arr in rm.data.items():
                    assert rm.soa.owns(name, arr), name
                    assert np.shares_memory(arr, segment), name
            # A worker attaching the final layout sees the same bytes,
            # including rows written after block replacements.
            worker = WorkerArena()
            try:
                worker.sync(rm.arena.layout())
                for name, arr in rm.data.items():
                    mirror = worker.view(SOA_BLOCK, arr.shape, arr.dtype,
                                         offset=rm.soa.offsets[name])
                    assert np.array_equal(mirror, arr), name
            finally:
                worker.close()
        finally:
            rm.arena.close()

    def test_grow_column_copies_after_external_rebind(self):
        """Checkpoint-restore style rebinding must not lose rows."""
        from repro.parallel.shm import SharedMemoryResourceManager

        rm = SharedMemoryResourceManager()
        try:
            rm.add_agents_now({"position": np.zeros((8, 3))})
            # Simulate checkpoint restore: rebind to private memory.
            private = rm.data["position"].copy()
            private[:] = 7.0
            rm.data["position"] = private
            rm.queue_new_agents({"position": np.ones((2, 3))})
            rm.commit()
            assert np.all(rm.data["position"][:8] == 7.0)
            assert np.all(rm.data["position"][8:] == 1.0)
        finally:
            rm.arena.close()


class TestDispatchMaskCache:
    def _sim(self, n_side=4):
        p = Param(agent_sort_frequency=0)
        sim = Simulation("mask-cache", p, seed=11)
        idx = sim.add_cells(lattice(n_side, spacing=25.0), diameters=9.0)
        sim.attach_behavior(idx, RandomWalk(0.5))
        return sim

    def test_cache_hits_on_static_structure(self):
        sim = self._sim()
        sim.simulate(5)
        hits = sim.obs.registry.counter("agent_ops:mask_cache_hits").value
        assert hits >= 4  # first step scans, the rest hit

    def test_attach_detach_invalidate_cache(self):
        """Mid-run mask edits must be visible next step, exactly as when
        every step rescans the masks (the cache defeated by bumping
        ``mask_version`` before each step)."""
        walk2 = RandomWalk(2.0)

        def run(defeat_cache):
            sim = self._sim()

            def step(n):
                for _ in range(n):
                    if defeat_cache:
                        sim.rm.note_behavior_mask_changed()
                    sim.simulate(1)

            step(2)
            sim.attach_behavior(np.arange(10), walk2)
            step(2)
            sim.detach_behavior(np.arange(5), walk2)
            step(2)
            hits = sim.obs.registry.counter("agent_ops:mask_cache_hits").value
            return state_checksum(sim), hits

        cached, hits = run(defeat_cache=False)
        rescanned, no_hits = run(defeat_cache=True)
        assert hits > 0 and no_hits == 0
        assert cached == rescanned

    def test_agent_set_mask_bumps_version(self):
        sim = self._sim()
        before = sim.rm.mask_version
        sim.get_agent(int(sim.rm.data["uid"][0])).set(
            "behavior_mask", np.uint64(0))
        assert sim.rm.mask_version == before + 1
        # Unrelated columns do not invalidate.
        sim.get_agent(int(sim.rm.data["uid"][1])).set("diameter", 9.5)
        assert sim.rm.mask_version == before + 1


class TestSchedulerCounters:
    def test_commit_counters_reach_registry(self):
        p = Param(agent_sort_frequency=0)
        sim = Simulation("counters", p, seed=13)
        idx = sim.add_cells(lattice(3), diameters=13.5)
        sim.attach_behavior(idx, GrowDivide(growth_rate=120.0,
                                            division_diameter=14.0))
        reg = sim.obs.registry
        assert reg.counter("commit:fast_appends").value == 0
        assert reg.counter("commit:staged_rows").value == 0
        sim.simulate(3)
        assert reg.counter("commit:fast_appends").value >= 1
        assert reg.counter("commit:staged_rows").value == 27


class TestNeighborMemoryProfileRegression:
    def test_2d_bincount_matches_reference_loop(self):
        """The vectorized per-domain miss counts are bit-identical to the
        per-domain bincount loop they replaced."""
        from repro import Machine, SYSTEM_A

        m = Machine(SYSTEM_A, num_threads=4)
        p = Param(agent_sort_frequency=0)
        sim = Simulation("profile", p, machine=m, seed=17)
        rng = np.random.default_rng(17)
        sim.add_cells(rng.uniform(0, 40, (120, 3)), diameters=10.0,
                      behaviors=[RandomWalk(0.5)])
        sim.simulate(1)
        indptr, indices = sim.neighbors()
        sched = sim.scheduler
        counts_arr, qi = sched.neighbor_cache.expand(indptr, indices)
        assert len(indices) > 0, "workload produced no neighbor pairs"
        mem, counts = sched.accountant.neighbor_memory_profile(
            qi, indices, sim.rm.n)

        # Reference: the pre-vectorization per-domain loop, verbatim.
        rm = sim.rm
        cm = m.cost_model
        n = rm.n
        addr = rm.data["addr"]
        spatial = cm.latency_for_deltas(addr[qi] - addr[indices])
        order = np.lexsort((qi, indices))
        qis = qi[order]
        qjs = indices[order]
        footprint = rm.agent_size_bytes * 1.5
        gap_bytes = np.full(len(qis), np.inf)
        if len(qis) > 1:
            same = qjs[1:] == qjs[:-1]
            gap_bytes[1:] = np.where(
                same, np.abs(qis[1:] - qis[:-1]) * footprint, np.inf
            )
        reuse = cm.latency_for_deltas(
            np.where(np.isfinite(gap_bytes), gap_bytes, 1e18))
        lat = np.minimum(spatial[order], reuse)
        ref_mem = np.bincount(qis, weights=lat, minlength=n)
        misses = lat >= cm.spec.dram_latency
        dom_j = rm.domain_of_index(qjs)
        ref_counts = np.zeros((n, rm.num_domains))
        for d in range(rm.num_domains):
            sel = misses & (dom_j == d)
            ref_counts[:, d] = np.bincount(qis[sel], minlength=n)

        assert rm.num_domains > 1, "regression needs multiple domains"
        assert np.array_equal(mem, ref_mem)
        assert np.array_equal(counts, ref_counts)


class TestEndToEndEquivalence:
    def test_churn_model_checksums_match(self):
        """Division-wave churn: the trajectory replays byte for byte, the
        staged path carries every division, and the engine invariants
        hold after every commit (``check_invariants_frequency=1``)."""
        def run():
            p = Param(agent_sort_frequency=0, check_invariants_frequency=1)
            sim = Simulation("churn", p, seed=23)
            rng = np.random.default_rng(23)
            idx = sim.add_cells(lattice(4), diameters=rng.uniform(10, 13.9, 64))
            sim.attach_behavior(idx, GrowDivide(growth_rate=120.0,
                                                division_diameter=14.0,
                                                max_agents=512))
            out = []
            for _ in range(6):
                sim.simulate(1)
                out.append(state_checksum(sim))
            staged = sim.obs.registry.counter("commit:staged_rows").value
            assert sim.rm.n > 64 and staged == sim.rm.n - 64
            return out

        assert run() == run()
