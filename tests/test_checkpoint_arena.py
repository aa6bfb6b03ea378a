"""Checkpoint round-trips across restore paths and backends.

A run saved mid-flight and restored — through the single-copy arena
adopt or the per-column placement funnel, and under the shared-memory
process backend — must continue producing bitwise-identical per-step
state checksums to the uninterrupted run, whatever format (v5, or the
retired v4 / v3 / v2 / v1 layouts) the file was written in.  (The files
written by the retired writers themselves are covered by
``tests/test_golden_traces.py``.)
"""

import numpy as np
import pytest

from repro.core.checkpoint import (
    read_checkpoint_meta,
    restore_checkpoint,
    save_checkpoint,
)
from repro.simulations import get_simulation
from repro.simulations.registry import available_simulations
from repro.verify.snapshot import state_checksum
from tests.checkpoint_legacy import save_v1, save_v2, save_v3, save_v4

MODEL = "cell_proliferation"
AGENTS = 120
PRE_STEPS = 3
POST_STEPS = 3


def _param(bench, **overrides):
    return bench.default_param().with_(**overrides)


def _continuous_trace(bench, param, seed):
    """Per-step checksums of an uninterrupted PRE+POST run."""
    with bench.build(AGENTS, param=param, seed=seed) as sim:
        sim.simulate(PRE_STEPS)
        trace = []
        for _ in range(POST_STEPS):
            sim.simulate(1)
            trace.append(state_checksum(sim))
    return trace


_WRITERS = {5: save_checkpoint, 4: save_v4, 3: save_v3, 2: save_v2,
            1: save_v1}


def _round_trip(tmp_path, save_shared, fmt):
    """Save mid-run in format ``fmt``, restore into a differently seeded
    build, and return ``(continuation checksums, reference checksums,
    adopts taken by the restore)``."""
    bench = get_simulation(MODEL)
    param = _param(bench, shared_storage=save_shared)
    ref = _continuous_trace(bench, param, seed=7)

    path = tmp_path / "mid.npz"
    with bench.build(AGENTS, param=param, seed=7) as sim:
        sim.simulate(PRE_STEPS)
        _WRITERS[fmt](sim, path)
    assert read_checkpoint_meta(path)["format"] == fmt

    with bench.build(AGENTS, param=_param(bench), seed=99) as sim2:
        restore_checkpoint(sim2, path)
        adopts = sim2.rm.soa.adopts
        got = []
        for _ in range(POST_STEPS):
            sim2.simulate(1)
            got.append(state_checksum(sim2))
    return got, ref, adopts


@pytest.mark.parametrize("save_shared", [False, True])
@pytest.mark.parametrize("per_column_file", [False, True])
def test_round_trip_continues_bitwise(tmp_path, save_shared, per_column_file):
    """Save mid-run from a private or shared-memory block, restore through
    the single-copy adopt or — for a file in the retired per-column (v1)
    layout — the placement funnel: the continuation is bitwise identical
    either way."""
    got, ref, adopts = _round_trip(tmp_path, save_shared,
                                   1 if per_column_file else 5)
    assert got == ref
    # The single-copy fast path engages exactly when the file holds an
    # arena block; per-column files take the placement funnel.
    assert adopts == (0 if per_column_file else 1)


@pytest.mark.parametrize("save_shared", [False, True])
def test_v2_file_round_trip_continues_bitwise(tmp_path, save_shared):
    """A file from the retired v2 writer (separate scalar members, the
    block plus ``arena__meta``) restores through one adopt too."""
    got, ref, adopts = _round_trip(tmp_path, save_shared, 2)
    assert got == ref
    assert adopts == 1


@pytest.mark.parametrize("save_shared", [False, True])
def test_v4_file_round_trip_continues_bitwise(tmp_path, save_shared):
    """A file from the retired v4 writer (an ``.npz``) restores through
    one adopt too."""
    got, ref, adopts = _round_trip(tmp_path, save_shared, 4)
    assert got == ref
    assert adopts == 1


def test_v3_restore_reads_meta_and_block_once(tmp_path, monkeypatch):
    """A v3 restore reads the ``__meta__`` document and the arena block
    once each, straight from the file (nothing else on a grid-less
    model); the metadata peek reads ``__meta__`` alone."""
    from numpy.lib.npyio import NpzFile

    from repro.core import checkpoint

    bench = get_simulation(MODEL)
    path = tmp_path / "v3.npz"
    with bench.build(AGENTS, param=_param(bench), seed=7) as sim:
        sim.simulate(PRE_STEPS)
        save_v3(sim, path)
        ref = state_checksum(sim)

    reads = []
    direct = checkpoint._read_member
    via_zip = NpzFile.__getitem__
    monkeypatch.setattr(checkpoint, "_read_member", lambda data, name: (
        reads.append(name), direct(data, name))[1])
    monkeypatch.setattr(NpzFile, "__getitem__", lambda self, key: (
        reads.append(f"zip:{key}"), via_zip(self, key))[1])
    with bench.build(AGENTS, param=_param(bench), seed=99) as sim2:
        restore_checkpoint(sim2, path)
        assert state_checksum(sim2) == ref
    assert sorted(reads) == ["__meta__", "arena__block"]
    reads.clear()
    read_checkpoint_meta(path)
    assert reads == ["__meta__"]


def test_v4_restore_reads_each_member_once(tmp_path, monkeypatch):
    """A v4 restore adds one read to v3's: the allocators' free lists."""
    from repro.core import checkpoint

    bench = get_simulation(MODEL)
    path = tmp_path / "v4.npz"
    with bench.build(AGENTS, param=_param(bench), seed=7) as sim:
        sim.simulate(PRE_STEPS)
        save_v4(sim, path)
        ref = state_checksum(sim)

    reads = []
    direct = checkpoint._read_member
    monkeypatch.setattr(checkpoint, "_read_member", lambda data, name: (
        reads.append(name), direct(data, name))[1])
    with bench.shell(AGENTS, param=_param(bench), seed=99) as sim2:
        restore_checkpoint(sim2, path)
        assert state_checksum(sim2) == ref
    assert sorted(reads) == ["__meta__", "allocator__lists", "arena__block"]


def test_round_trip_under_process_backend(tmp_path):
    """Mid-run save/restore with the shm process backend on both sides
    continues bitwise-identically (shm arena block attach included)."""
    bench = get_simulation(MODEL)
    param = _param(bench, execution_backend="process", backend_workers=2)
    ref = _continuous_trace(bench, param, seed=5)

    path = tmp_path / "mid_shm.npz"
    with bench.build(AGENTS, param=param, seed=5) as sim:
        sim.simulate(PRE_STEPS)
        save_checkpoint(sim, path)

    with bench.build(AGENTS, param=param, seed=31) as sim2:
        restore_checkpoint(sim2, path)
        got = []
        for _ in range(POST_STEPS):
            sim2.simulate(1)
            got.append(state_checksum(sim2))

    assert got == ref


def test_serial_checkpoint_restores_into_process_backend(tmp_path):
    """Cross-backend restore: a serial save continues identically under
    the process backend (and its shm-backed arena)."""
    bench = get_simulation(MODEL)
    serial = _param(bench)
    process = _param(bench, execution_backend="process", backend_workers=2)
    ref = _continuous_trace(bench, serial, seed=13)

    path = tmp_path / "serial.npz"
    with bench.build(AGENTS, param=serial, seed=13) as sim:
        sim.simulate(PRE_STEPS)
        save_checkpoint(sim, path)

    with bench.build(AGENTS, param=process, seed=77) as sim2:
        restore_checkpoint(sim2, path)
        got = []
        for _ in range(POST_STEPS):
            sim2.simulate(1)
            got.append(state_checksum(sim2))

    assert got == ref


def test_rng_state_survives_round_trip(tmp_path):
    """The checkpoint carries the RNG state: a restored sim draws the
    same random stream the saved sim would have."""
    bench = get_simulation(MODEL)
    path = tmp_path / "rng.npz"
    with bench.build(AGENTS, param=_param(bench), seed=21) as sim:
        sim.simulate(PRE_STEPS)
        save_checkpoint(sim, path)
        expected = sim.random.rng.uniform(size=4)

    with bench.build(AGENTS, param=_param(bench), seed=22) as sim2:
        restore_checkpoint(sim2, path)
        assert np.array_equal(sim2.random.rng.uniform(size=4), expected)


@pytest.mark.parametrize("model", available_simulations())
def test_v5_round_trip_into_a_shell_on_every_model(tmp_path, model):
    """Saved mid-run in format v5 and restored into the model's shell,
    every registry model continues bitwise, ``addr`` included, with the
    block read straight into the shell's arena (one adopt)."""
    bench = get_simulation(model)
    param = _param(bench, shared_storage=True)
    ref = _continuous_trace(bench, param, seed=7)
    path = tmp_path / "mid.npz"
    with bench.build(AGENTS, param=param, seed=7) as sim:
        sim.simulate(PRE_STEPS)
        save_checkpoint(sim, path)
    assert read_checkpoint_meta(path)["format"] == 5
    with bench.shell(AGENTS, param=param, seed=99) as shell:
        restore_checkpoint(shell, path)
        assert shell.rm.soa.adopts == 1
        got = []
        for _ in range(POST_STEPS):
            shell.simulate(1)
            got.append(state_checksum(shell))
    assert got == ref
