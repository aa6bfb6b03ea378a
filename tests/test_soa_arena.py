"""Tests for the single-arena SoA memory layout.

Covers the :class:`repro.core.arena.SoAArena` block itself (packing,
growth, adopt fast path), its integration into the ResourceManager, the
bitwise equivalence of a private and a shared-memory block, and — via
monkeypatching — the proof that checkpoint restore into an arena is one
block-sized copy with zero per-column stores.  Identity with the
per-column layout the arena replaced is pinned by
``tests/golden/traces.json``.
"""

import numpy as np
import pytest

from repro import Param, Simulation
from repro.core.arena import ArenaLayoutError, SoAArena
from repro.verify.snapshot import state_checksum


class TestSoAArena:
    def test_views_are_zero_copy(self):
        a = SoAArena()
        a.add_column("x", np.float64, (3,))
        v = a.view("x", 4)
        v[...] = 1.5
        assert a.owns("x", v)
        assert np.array_equal(a.view("x", 4), np.full((4, 3), 1.5))

    def test_columns_are_cache_line_aligned(self):
        a = SoAArena()
        a.add_column("x", np.float64, (3,))
        a.add_column("y", np.int32)
        a.add_column("z", np.bool_)
        assert all(off % 64 == 0 for off in a.offsets.values())

    def test_reserve_below_capacity_is_noop(self):
        a = SoAArena()
        a.add_column("x", np.float64)
        v0 = a.version
        assert not a.reserve(a.capacity, 0)
        assert a.version == v0

    def test_reserve_doubles_and_preserves_live_rows(self):
        a = SoAArena()
        a.add_column("x", np.float64)
        a.add_column("y", np.int64, (2,))
        cap0 = a.capacity
        a.view("x", cap0)[...] = np.arange(cap0)
        a.view("y", cap0)[...] = 7
        assert a.reserve(cap0 + 1, cap0)
        assert a.capacity >= 2 * cap0
        assert np.array_equal(a.view("x", cap0), np.arange(float(cap0)))
        assert np.array_equal(a.view("y", cap0), np.full((cap0, 2), 7))

    def test_version_bumps_on_growth_and_new_columns(self):
        a = SoAArena()
        a.add_column("x", np.float64)
        v = a.version
        a.add_column("y", np.float32)
        assert a.version > v
        v = a.version
        a.reserve(a.capacity * 2, 0)
        assert a.version > v

    def test_duplicate_column_rejected(self):
        a = SoAArena()
        a.add_column("x", np.float64)
        with pytest.raises(ValueError, match="already registered"):
            a.add_column("x", np.float64)

    def test_adopt_round_trip_is_single_copy(self):
        src = SoAArena()
        src.add_column("pos", np.float64, (3,))
        src.add_column("flag", np.bool_)
        src.view("pos", 5)[...] = np.arange(15.0).reshape(5, 3)
        src.view("flag", 5)[...] = True
        meta = src.layout_meta()
        raw = src.block[: src.nbytes].copy()

        dst = SoAArena()
        dst.add_column("pos", np.float64, (3,))
        dst.add_column("flag", np.bool_)
        assert dst.matches(meta)
        dst.adopt(meta, raw)
        assert dst.adopts == 1
        assert np.array_equal(dst.view("pos", 5),
                              np.arange(15.0).reshape(5, 3))
        assert np.all(dst.view("flag", 5))

    def test_adopt_rejects_mismatched_columns(self):
        src = SoAArena()
        src.add_column("pos", np.float64, (3,))
        meta = src.layout_meta()
        raw = src.block[: src.nbytes].copy()

        dst = SoAArena()
        dst.add_column("pos", np.float32, (3,))  # wrong dtype
        assert not dst.matches(meta)
        with pytest.raises(ArenaLayoutError):
            dst.adopt(meta, raw)

    def test_adopt_rejects_wrong_block_size(self):
        src = SoAArena()
        src.add_column("pos", np.float64, (3,))
        meta = src.layout_meta()
        dst = SoAArena()
        dst.add_column("pos", np.float64, (3,))
        with pytest.raises(ArenaLayoutError, match="bytes"):
            dst.adopt(meta, src.block[: src.nbytes - 8].copy())

    def test_allocator_contract_enforced(self):
        a = SoAArena(allocate=lambda nbytes: np.empty(4, dtype=np.float64))
        with pytest.raises(ValueError, match="uint8"):
            a.add_column("x", np.float64)


class TestResourceManagerIntegration:
    def _sim(self, n=40, seed=2):
        sim = Simulation("arena", Param(), seed=seed)
        rng = np.random.default_rng(seed)
        sim.add_cells(rng.uniform(0, 40, (n, 3)), diameters=8.0)
        return sim

    def test_engine_columns_live_in_arena_by_default(self):
        with self._sim() as sim:
            for name, arr in sim.rm.data.items():
                assert sim.rm.soa.owns(name, arr), name

    def test_growth_keeps_columns_in_arena(self):
        with self._sim(n=10) as sim:
            rng = np.random.default_rng(9)
            sim.add_cells(rng.uniform(0, 40, (500, 3)), diameters=8.0)
            assert sim.rm.n == 510
            for name, arr in sim.rm.data.items():
                assert sim.rm.soa.owns(name, arr), name
            assert sim.rm.soa.reallocations > 0

    def test_ab_bitwise_identical_per_step(self):
        # Same model, same seed, block in private vs shared memory: every
        # per-step checksum must be byte-identical (where the block lives
        # changes nothing numerically).
        from repro.simulations import get_simulation

        bench = get_simulation("cell_proliferation")
        traces = {}
        for shared in (False, True):
            param = bench.default_param().with_(shared_storage=shared)
            with bench.build(100, param=param, seed=11) as sim:
                trace = []
                for _ in range(4):
                    sim.simulate(1)
                    trace.append(state_checksum(sim))
                traces[shared] = trace
        assert traces[False] == traces[True]

    def test_arena_equivalence_harness_smoke(self):
        # The process leg with arena evidence: workers map the block the
        # host grew, and the report fails if it never held bytes or grew.
        from dataclasses import replace

        from repro.verify.replay import LEGS, equivalence

        leg = replace(LEGS["process"],
                      require={"arena:bytes": 1, "arena:reallocations": 1})
        report = equivalence(leg, ("cell_proliferation",), (1,),
                             num_agents=80, steps=3)
        assert report.ok, report.render()


class TestRegistration:
    @pytest.mark.parametrize("shared", [False, True])
    def test_a_fresh_simulation_repacks_once(self, shared):
        """A new simulation registers the core and ``behavior_addr*``
        columns with one repack -- one shared-memory segment -- in the
        layout of adding them one at a time, so a block saved by either
        adopts into the other with one copy."""
        from repro.core.resource_manager import ResourceManager
        from repro.core.simulation import MAX_TRACKED_BEHAVIORS

        with Simulation("fresh", Param(shared_storage=shared)) as sim:
            metrics = sim.obs.registry.snapshot()
            assert metrics["arena:reallocations"] == 1
            one_at_a_time = SoAArena()
            for name, dtype, shape, _fill in ResourceManager.CORE_COLUMNS:
                one_at_a_time.add_column(name, dtype, shape)
            for i in range(MAX_TRACKED_BEHAVIORS):
                one_at_a_time.add_column(f"behavior_addr{i}", np.int64)
            assert sim.rm.soa.layout_meta() == one_at_a_time.layout_meta()
            assert one_at_a_time.reallocations == len(sim.rm.data)
            if shared:
                assert sim.rm.arena.layout_version == 1

    def test_register_columns_fills_live_rows(self):
        with Simulation("cols", Param()) as sim:
            sim.add_cells(np.random.default_rng(1).uniform(0, 40, (30, 3)))
            before = sim.rm.soa.reallocations
            sim.rm.register_columns([("age", np.int64, (), 7),
                                     ("tag", np.float32, (2,), 0.5)])
            assert sim.rm.soa.reallocations == before + 1
            assert (sim.rm.data["age"] == 7).all()
            assert sim.rm.data["tag"].shape == (30, 2)
            assert (sim.rm.data["tag"] == 0.5).all()
            with pytest.raises(ValueError, match="already registered"):
                sim.rm.register_columns([("x", np.int8, (), 0),
                                         ("age", np.int8, (), 0)])
            assert "x" not in sim.rm.data


class TestSingleCopyRestore:
    def test_restore_is_one_adopt_and_zero_column_stores(self, tmp_path,
                                                         monkeypatch):
        """The tentpole claim: restoring into an arena-backed sim is a
        single block-sized copy per domain — no per-column copies."""
        from repro.core import checkpoint
        from repro.core.resource_manager import ResourceManager
        from repro.simulations import get_simulation

        bench = get_simulation("cell_proliferation")
        path = tmp_path / "mid.npz"
        with bench.build(150, seed=3) as sim:
            sim.simulate(3)
            checkpoint.save_checkpoint(sim, path)
            ref = state_checksum(sim)

        with bench.build(150, seed=4) as target:
            adopt_nbytes = []
            orig_adopt = SoAArena.adopt

            def counting_adopt(self, meta, raw):
                if callable(raw):  # v5: the file is read into the block
                    read = raw

                    def raw(block):
                        adopt_nbytes.append(int(block.nbytes))
                        read(block)
                else:
                    adopt_nbytes.append(int(np.asarray(raw).nbytes))
                return orig_adopt(self, meta, raw)

            store_calls = []
            orig_store = ResourceManager._store

            def counting_store(self, name, arr):
                store_calls.append(name)
                return orig_store(self, name, arr)

            monkeypatch.setattr(SoAArena, "adopt", counting_adopt)
            monkeypatch.setattr(ResourceManager, "_store", counting_store)
            checkpoint.restore_checkpoint(target, path)
            assert adopt_nbytes == [target.rm.soa.nbytes]
            assert store_calls == []
            assert state_checksum(target) == ref
