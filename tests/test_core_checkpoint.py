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
from tests.checkpoint_legacy import save_v1, save_v2


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
        ref = build_sim()
        ref.simulate(6)
        expected = []
        for _ in range(4):
            ref.simulate(1)
            expected.append(state_checksum(ref))

        sim = build_sim()
        sim.simulate(6)
        path = save_checkpoint(sim, tmp_path / "state.npz")
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
        arrays (the arena block and one per diffusion grid)."""
        path = save_checkpoint(build_sim(), tmp_path / "state.npz")
        with np.load(path) as data:
            assert sorted(data.files) == [
                "__format__", "__meta__", "arena__block", "grid__oxygen"]

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
        path = save_checkpoint(sim, tmp_path / "state.npz")
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


_WRITERS = {3: save_checkpoint, 2: save_v2, 1: save_v1}


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
        import json

        path = save_checkpoint(build_sim(), tmp_path / "s.npz")
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files}
        meta = json.loads(payload["__meta__"].tobytes())
        meta["format"] = 4
        payload["__meta__"] = np.frombuffer(json.dumps(meta).encode(),
                                            dtype=np.uint8)
        np.savez(path, **payload)
        with pytest.raises(ValueError, match="unsupported checkpoint format 4"):
            restore_checkpoint(build_sim(), path)

    def test_unknown_grid_rejected(self, tmp_path):
        sim = build_sim(with_grid=True)
        path = save_checkpoint(sim, tmp_path / "s.npz")
        target = build_sim(with_grid=False)
        with pytest.raises(ValueError, match="diffusion grid"):
            restore_checkpoint(target, path)
