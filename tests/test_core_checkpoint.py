"""Tests for checkpoint/restore."""

import os

import numpy as np
import pytest

from repro import DiffusionGrid, Param, Simulation
from repro.core.behaviors_lib import GrowDivide, RandomWalk
from repro.core.checkpoint import (
    read_checkpoint_meta,
    restore_checkpoint,
    save_checkpoint,
)
from repro.verify.snapshot import state_checksum
from tests.checkpoint_legacy import save_v1, save_v2, save_v3, save_v4


def build_sim(seed=0, with_grid=True, extra_column=False):
    sim = Simulation("ckpt-test", Param.optimized(agent_sort_frequency=0),
                     seed=seed)
    if with_grid:
        g = sim.add_diffusion_grid(DiffusionGrid("oxygen", 8, 0.0, 64.0))
        g.add_substance(np.array([[32.0, 32, 32]]), 10.0)
    if extra_column:
        sim.rm.register_column("age", np.int64, (), 0)
    rng = np.random.default_rng(seed)
    sim.add_cells(rng.uniform(0, 60, (50, 3)), diameters=9.0,
                  behaviors=[GrowDivide(growth_rate=30.0, division_diameter=12.0,
                                        max_agents=200)])
    return sim


class TestRoundtrip:
    def test_state_restored_exactly(self, tmp_path):
        sim = build_sim()
        sim.simulate(10)
        path = save_checkpoint(sim, tmp_path / "state.npz")

        fresh = build_sim()
        restore_checkpoint(fresh, path)
        assert fresh.num_agents == sim.num_agents
        np.testing.assert_array_equal(fresh.rm.positions, sim.rm.positions)
        np.testing.assert_array_equal(fresh.rm.data["uid"], sim.rm.data["uid"])
        np.testing.assert_array_equal(
            fresh.diffusion_grids["oxygen"].concentration,
            sim.diffusion_grids["oxygen"].concentration,
        )
        assert fresh.scheduler.iteration == sim.scheduler.iteration
        assert fresh.time == pytest.approx(sim.time)

    def test_continuation_preserves_uid_uniqueness(self, tmp_path):
        sim = build_sim()
        sim.simulate(10)
        path = save_checkpoint(sim, tmp_path / "state.npz")
        fresh = build_sim()
        restore_checkpoint(fresh, path)
        fresh.simulate(10)  # more divisions happen
        uids = fresh.rm.data["uid"]
        assert len(np.unique(uids)) == len(uids)

    def test_restored_simulation_continues(self, tmp_path):
        sim = build_sim()
        sim.simulate(5)
        n_mid = sim.num_agents
        path = save_checkpoint(sim, tmp_path / "state.npz")
        fresh = build_sim()
        restore_checkpoint(fresh, path)
        fresh.simulate(10)
        assert fresh.num_agents >= n_mid

    def test_custom_columns_roundtrip(self, tmp_path):
        sim = build_sim(extra_column=True)
        sim.rm.data["age"][:] = np.arange(sim.rm.n)
        path = save_checkpoint(sim, tmp_path / "s.npz")
        fresh = build_sim(extra_column=True)
        restore_checkpoint(fresh, path)
        np.testing.assert_array_equal(fresh.rm.data["age"], np.arange(sim.rm.n))


class TestFormatV3:
    def test_round_trip_continues_bitwise(self, tmp_path):
        """A file from the retired v3 writer still continues bitwise."""
        ref = build_sim()
        ref.simulate(6)
        expected = []
        for _ in range(4):
            ref.simulate(1)
            expected.append(state_checksum(ref))

        sim = build_sim()
        sim.simulate(6)
        path = tmp_path / "state.npz"
        save_v3(sim, path)
        assert read_checkpoint_meta(path)["format"] == 3
        fresh = build_sim(seed=1)
        restore_checkpoint(fresh, path)
        got = []
        for _ in range(4):
            fresh.simulate(1)
            got.append(state_checksum(fresh))
        assert got == expected

    def test_members(self, tmp_path):
        """Three kinds of member: the version, one JSON document, and the
        arrays (the arena block and one per diffusion grid).  v4 adds one
        array, the allocators' free lists."""
        sim = build_sim()
        save_v3(sim, tmp_path / "v3.npz")
        path = tmp_path / "v4.npz"
        save_v4(sim, path)
        with np.load(tmp_path / "v3.npz") as data:
            assert sorted(data.files) == [
                "__format__", "__meta__", "arena__block", "grid__oxygen"]
        with np.load(path) as data:
            assert sorted(data.files) == [
                "__format__", "__meta__", "allocator__lists", "arena__block",
                "grid__oxygen"]

    def test_npz_suffix_appended(self, tmp_path):
        path = save_checkpoint(build_sim(), tmp_path / "state")
        assert path == tmp_path / "state.npz" and path.exists()
        # A second save to the same stem lands on the same file.
        assert save_checkpoint(build_sim(), tmp_path / "state") == path

    def test_compressed_members_still_restore(self, tmp_path):
        """The single-read path covers stored members; a recompressed
        file restores through the zip reader instead."""
        sim = build_sim()
        sim.simulate(3)
        path = tmp_path / "state.npz"
        save_v4(sim, path)
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files}
        np.savez_compressed(path, **payload)
        fresh = build_sim()
        restore_checkpoint(fresh, path)
        assert state_checksum(fresh) == state_checksum(sim)
        assert read_checkpoint_meta(path)["iteration"] == 3

    def test_overwrite_writes_a_fresh_inode(self, tmp_path):
        """Saving over an existing checkpoint replaces the name, never the
        bytes behind it: a hard link to the first file keeps state A."""
        sim = build_sim()
        sim.simulate(3)
        path = save_checkpoint(sim, tmp_path / "state.npz")
        state_a = (sim.scheduler.iteration, sim.rm.positions.copy())
        link = tmp_path / "kept.npz"
        os.link(path, link)

        sim.simulate(4)
        assert save_checkpoint(sim, path) == path
        assert read_checkpoint_meta(path)["iteration"] == 7

        fresh = build_sim()
        restore_checkpoint(fresh, link)
        assert fresh.scheduler.iteration == state_a[0]
        np.testing.assert_array_equal(fresh.rm.positions, state_a[1])


class TestFormatV4:
    def test_restore_into_an_empty_simulation_continues_bitwise(self, tmp_path):
        """The allocators travel with the state: a simulation with the
        model's grid and behavior but no agent continues exactly like
        the saving one, ``addr`` included, through many divisions."""
        ref = build_sim()
        ref.simulate(6)
        path = save_checkpoint(ref, tmp_path / "state.npz")
        shell = Simulation("ckpt-test",
                           Param.optimized(agent_sort_frequency=0), seed=5)
        shell.add_diffusion_grid(DiffusionGrid("oxygen", 8, 0.0, 64.0))
        shell.register_behavior(GrowDivide(
            growth_rate=30.0, division_diameter=12.0, max_agents=200))
        restore_checkpoint(shell, path)
        n = ref.num_agents
        ref.simulate(8)
        shell.simulate(8)
        assert ref.num_agents > n
        assert state_checksum(shell) == state_checksum(ref)
        assert (shell.agent_allocator.reserved_bytes
                == ref.agent_allocator.reserved_bytes)

    def test_allocator_kinds_must_match(self, tmp_path):
        path = save_checkpoint(build_sim(), tmp_path / "state.npz")
        target = Simulation("other", Param(agent_allocator="jemalloc"))
        with pytest.raises(ValueError, match="allocators"):
            restore_checkpoint(target, path)
        assert target.num_agents == 0


class TestFormatV5:
    def test_layout(self, tmp_path):
        """The fixed header, the ``__meta__`` document, then the arena
        block, the free lists and the grids, raw and back to back."""
        import json
        import struct

        sim = build_sim()
        sim.simulate(3)
        path = save_checkpoint(sim, tmp_path / "state.npz")
        raw = path.read_bytes()
        magic, fmt, meta_n, block_n, lists_n, grids_n = struct.unpack_from(
            "<8s5Q", raw)
        assert (magic, fmt) == (b"REPROCKP", 5)
        assert len(raw) == 48 + meta_n + block_n + lists_n + grids_n
        meta = json.loads(raw[48:48 + meta_n])
        assert meta["format"] == 5 and meta["n"] == sim.rm.n
        assert meta["grids"] == [["oxygen", "<f8", [8, 8, 8]]]
        at = 48 + meta_n
        soa = sim.rm.soa
        assert raw[at:at + block_n] == soa.block[: soa.nbytes].tobytes()
        grid = sim.diffusion_grids["oxygen"].concentration
        assert raw[len(raw) - grids_n:] == grid.tobytes()

    def test_round_trip_with_a_grid_continues_bitwise(self, tmp_path):
        ref = build_sim()
        ref.simulate(6)
        path = save_checkpoint(ref, tmp_path / "state.npz")
        fresh = build_sim(seed=1)
        restore_checkpoint(fresh, path)
        assert fresh.rm.soa.adopts == 1
        for _ in range(4):
            ref.simulate(1)
            fresh.simulate(1)
            assert state_checksum(fresh) == state_checksum(ref)

    def test_layout_mismatch_takes_the_per_column_path(self, tmp_path):
        """A column of another dtype cannot adopt the block: every column
        is placed on its own, the values carried over."""
        sim = build_sim(extra_column=True)
        sim.rm.data["age"][:] = np.arange(sim.rm.n)
        path = save_checkpoint(sim, tmp_path / "s.npz")
        target = build_sim()
        target.rm.register_column("age", np.int32, (), 0)
        restore_checkpoint(target, path)
        assert target.rm.soa.adopts == 0
        assert target.rm.data["age"].dtype == np.int32
        np.testing.assert_array_equal(target.rm.data["age"],
                                      np.arange(sim.rm.n))
        for name in ("position", "uid", "addr", "diameter"):
            np.testing.assert_array_equal(target.rm.data[name],
                                          sim.rm.data[name])

    @pytest.mark.parametrize("keep", ["header", "meta", "block", "last"])
    def test_truncated_file_raises_and_adopts_nothing(self, tmp_path, keep):
        import struct

        sim = build_sim()
        sim.simulate(3)
        path = save_checkpoint(sim, tmp_path / "s.npz")
        raw = path.read_bytes()
        meta_n, block_n = struct.unpack_from("<8s5Q", raw)[2:4]
        cut = {"header": 20, "meta": 48 + meta_n // 2,
               "block": 48 + meta_n + block_n // 2,
               "last": len(raw) - 1}[keep]
        path.write_bytes(raw[:cut])
        target = build_sim(seed=1)
        target.simulate(2)
        before = state_checksum(target)
        with pytest.raises(ValueError, match="truncated"):
            restore_checkpoint(target, path)
        assert target.rm.soa.adopts == 0
        assert state_checksum(target) == before
        target.simulate(1)

    def test_meta_peek_reads_no_block(self, tmp_path, monkeypatch):
        """``read_checkpoint_meta`` reads the header and the document: no
        byte of the block, the free lists or the grids."""
        from repro.core import checkpoint

        sim = build_sim()
        sim.simulate(2)
        path = save_checkpoint(sim, tmp_path / "s.npz", extra_meta={"k": 1})
        read = []
        pread = os.pread
        monkeypatch.setattr(os, "pread", lambda fd, n, at: (
            read.append((at, n)), pread(fd, n, at))[1])
        monkeypatch.setattr(checkpoint, "_read_all", None)  # never called
        meta = read_checkpoint_meta(path)
        assert meta["format"] == 5 and meta["extra"] == {"k": 1}
        header, document = read
        assert header == (0, 48)
        assert document[0] == 48 and 48 + document[1] < path.stat().st_size


_WRITERS = {5: save_checkpoint, 4: save_v4, 3: save_v3, 2: save_v2,
            1: save_v1}


@pytest.mark.parametrize("extra", [None, {"model": "m", "seed": 3}])
@pytest.mark.parametrize("fmt", sorted(_WRITERS))
def test_read_checkpoint_meta_every_format(tmp_path, fmt, extra):
    sim = build_sim()
    sim.simulate(4)
    path = tmp_path / "state.npz"
    _WRITERS[fmt](sim, path, extra_meta=extra)
    assert read_checkpoint_meta(path) == {
        "format": fmt,
        "n": sim.rm.n,
        "iteration": 4,
        "time": sim.time,
        "extra": extra or {},
    }


class TestValidation:
    def test_missing_column_rejected(self, tmp_path):
        sim = build_sim()
        path = save_checkpoint(sim, tmp_path / "s.npz")
        target = build_sim(extra_column=True)  # has a column the file lacks
        with pytest.raises(ValueError, match="lacks columns"):
            restore_checkpoint(target, path)

    def test_extra_column_rejected(self, tmp_path):
        sim = build_sim(extra_column=True)
        path = save_checkpoint(sim, tmp_path / "s.npz")
        target = build_sim()
        with pytest.raises(ValueError, match="register them"):
            restore_checkpoint(target, path)

    def test_newer_format_rejected(self, tmp_path):
        path = save_checkpoint(build_sim(), tmp_path / "s.npz")
        raw = bytearray(path.read_bytes())
        raw[8:16] = (6).to_bytes(8, "little")  # the header's format field
        path.write_bytes(bytes(raw))
        target = build_sim()
        before = state_checksum(target)
        newer = "unsupported checkpoint format 6"
        with pytest.raises(ValueError, match=newer):
            restore_checkpoint(target, path)
        with pytest.raises(ValueError, match=newer):
            read_checkpoint_meta(path)
        assert state_checksum(target) == before

    def test_unknown_grid_rejected(self, tmp_path):
        sim = build_sim(with_grid=True)
        path = save_checkpoint(sim, tmp_path / "s.npz")
        target = build_sim(with_grid=False)
        with pytest.raises(ValueError, match="diffusion grid"):
            restore_checkpoint(target, path)
