"""Tests for the spatially-sharded distributed execution backend.

Covers the :class:`~repro.distributed.partition.SpatialPartition`
ownership/halo properties, the acceptance criterion — bitwise
serial/distributed equivalence across transports — the ``dist:*``
instrumentation, and the halo-ownership invariant check (both that a
healthy backend passes it and that a broken halo is caught).

The legacy analytical engine (paper §8's virtual cluster model) is
covered separately in ``tests/test_distributed.py``.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import Param, Simulation
from repro.core.param import ParamError
from repro.distributed.partition import SpatialPartition
from repro.distributed.shard_backend import (
    HALO_SKIN_FRACTION,
    SYNC_COLUMNS,
    DistributedBackend,
)
from repro.env.environment import brute_force_csr
from repro.simulations import get_simulation
from repro.verify.invariants import (
    check_halo_ownership,
    check_simulation_invariants,
)
from repro.verify.replay import LEGS, equivalence
from repro.verify.snapshot import state_checksum


def random_ball(n, seed=0, span=40.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, span, (n, 3))


class TestSpatialPartition:
    def test_ownership_is_a_partition(self):
        pos = random_ball(500)
        part = SpatialPartition(pos, radius=6.0, num_shards=4)
        owner = part.owner_of(pos)
        assert owner.min() >= 0 and owner.max() < 4
        owned, ghost = part.members(pos, halo_width=7.0)
        counts = np.zeros(len(pos), dtype=np.int64)
        for s in range(4):
            counts += owned[s]
            assert not np.any(owned[s] & ghost[s])
        assert np.all(counts == 1)

    def test_owner_is_pure_function_of_position(self):
        pos = random_ball(300, seed=3)
        part = SpatialPartition(pos, radius=5.0, num_shards=3)
        a = part.owner_of(pos)
        b = part.owner_of(pos.copy())
        assert np.array_equal(a, b)
        # Queries against positions the snapshot never saw still resolve.
        probe = random_ball(50, seed=99, span=60.0)
        out = part.owner_of(probe)
        assert out.min() >= 0 and out.max() < 3

    def test_roughly_balanced_loads(self):
        pos = random_ball(1000, seed=1)
        part = SpatialPartition(pos, radius=5.0, num_shards=4)
        owner = part.owner_of(pos)
        loads = np.bincount(owner, minlength=4)
        # SFC cuts are cell-granular, so allow generous slack.
        assert loads.min() > 0
        assert loads.max() <= 2 * (1000 // 4)

    def test_halo_covers_every_cross_shard_pair(self):
        pos = random_ball(400, seed=2)
        radius = 6.0
        part = SpatialPartition(pos, radius=radius, num_shards=4)
        halo_width = radius * (1 + HALO_SKIN_FRACTION)
        owner = part.owner_of(pos)
        owned, ghost = part.members(pos, halo_width=halo_width)
        indptr, indices = brute_force_csr(pos, radius)
        qi = np.repeat(np.arange(len(pos)), np.diff(indptr))
        cross = owner[qi] != owner[indices]
        assert np.any(cross), "test geometry produced no boundary pairs"
        ghost_stack = np.stack(ghost)
        # Every cross-shard interacting pair: each endpoint must be
        # ghosted on the other endpoint's owner shard.
        assert np.all(ghost_stack[owner[indices[cross]], qi[cross]])
        assert np.all(ghost_stack[owner[qi[cross]], indices[cross]])

    def test_single_shard_has_no_ghosts(self):
        pos = random_ball(100)
        part = SpatialPartition(pos, radius=5.0, num_shards=1)
        owned, ghost = part.members(pos, halo_width=6.0)
        assert np.all(owned[0])
        assert not np.any(ghost[0])

    def test_invalid_args_rejected(self):
        pos = random_ball(10)
        with pytest.raises(ValueError):
            SpatialPartition(pos, radius=5.0, num_shards=0)
        with pytest.raises(ValueError):
            SpatialPartition(pos, radius=0.0, num_shards=2)


def _dist_sim(model="cell_proliferation", agents=200, shards=2,
              transport="pipe", seed=1):
    bench = get_simulation(model)
    p = Param(kernel_backend="numpy", execution_backend="distributed",
              backend_shards=shards, distributed_transport=transport)
    return bench.build(agents, param=p, seed=seed)


def _serial_trace(model, agents, seed, steps):
    bench = get_simulation(model)
    sim = bench.build(agents,
                      param=Param(kernel_backend="numpy",
                                  execution_backend="serial"),
                      seed=seed)
    trace = [state_checksum(sim)]
    for _ in range(steps):
        sim.simulate(1)
        trace.append(state_checksum(sim))
    return trace


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("transport", ["pipe", "shm", "socket"])
    def test_transports_bitwise_identical_to_serial(self, transport):
        steps = 4
        serial = _serial_trace("cell_proliferation", 150, 7, steps)
        with _dist_sim(agents=150, seed=7, transport=transport) as sim:
            trace = [state_checksum(sim)]
            for _ in range(steps):
                sim.simulate(1)
                trace.append(state_checksum(sim))
            stats = sim.backend.stats()
        assert trace == serial
        assert stats["transport"] == transport
        assert stats["halo_agents"] >= 1

    def test_oncology_four_shards(self):
        # Oncology's random-walk behavior moves positions between the
        # CSR build and mechanics — the CSR-position snapshot protocol
        # must keep the shards bitwise faithful anyway.
        steps = 4
        serial = _serial_trace("oncology", 150, 3, steps)
        with _dist_sim(model="oncology", agents=150, shards=4,
                       seed=3) as sim:
            trace = [state_checksum(sim)]
            for _ in range(steps):
                sim.simulate(1)
                trace.append(state_checksum(sim))
        assert trace == serial

    def test_replay_harness_smoke(self):
        # The default population/step count: small enough for CI, large
        # enough that ownership migrations actually happen (the report
        # is anti-vacuous and fails on a migration-free run).
        leg = LEGS["distributed"]
        leg = replace(leg, variants={"shards=2": leg.variants["shards=2"]})
        report = equivalence(leg, ("cell_proliferation",), (1,))
        assert report.ok, report.render()
        key = ("cell_proliferation", "shards=2", 1)
        assert report.divergences[key] is None
        assert report.evidence[key]["dist:migrations"] >= 1
        assert report.evidence[key]["dist:halo_agents"] >= 1
        assert report.digests[key]


class TestInstrumentation:
    def test_stats_and_obs_counters(self):
        steps = 5
        with _dist_sim(agents=200, seed=2) as sim:
            sim.simulate(steps)
            stats = sim.backend.stats()
            snap = sim.obs.registry.snapshot()
        expected = {"shards", "transport", "steps", "halo_agents",
                    "halo_bytes", "migrations", "sync_full", "sync_delta",
                    "exchange_seconds", "compute_seconds", "digest_checks",
                    "last_global_digest"}
        assert expected <= set(stats)
        assert stats["shards"] == 2
        assert stats["steps"] == steps
        # The replica-consistency gate runs per shard per step.
        assert stats["digest_checks"] == steps * 2
        assert stats["last_global_digest"]
        assert stats["halo_agents"] >= 1 and stats["halo_bytes"] > 0
        # Every counter is mirrored under the dist: prefix in obs.
        assert snap["dist:shards"] == 2
        assert snap["dist:halo_agents"] == stats["halo_agents"]
        assert snap["dist:halo_bytes"] == stats["halo_bytes"]
        assert snap["dist:migrations"] == stats["migrations"]
        assert snap["dist:exchange_seconds"] == stats["exchange_seconds"]

    def test_digest_is_deterministic(self):
        with _dist_sim(agents=150, seed=5) as sim:
            sim.simulate(3)
            d1 = sim.backend.stats()["last_global_digest"]
        with _dist_sim(agents=150, seed=5) as sim:
            sim.simulate(3)
            d2 = sim.backend.stats()["last_global_digest"]
        assert d1 == d2

    def test_shutdown_is_idempotent(self):
        sim = _dist_sim(agents=120, seed=1)
        sim.simulate(1)
        backend = sim.backend
        sim.close()
        backend.shutdown()  # second call must be a no-op
        assert all(not p.is_alive() for p in backend._procs)


class TestHaloOwnershipInvariant:
    def test_live_backend_passes(self):
        with _dist_sim(agents=200, seed=4) as sim:
            sim.simulate(3)
            assert check_halo_ownership(sim.backend) == []
            assert check_simulation_invariants(sim) == []

    def test_unbuilt_partition_is_noop(self):
        with _dist_sim(agents=120, seed=1) as sim:
            assert check_halo_ownership(sim.backend) == []

    def test_detects_underreaching_halo(self, monkeypatch):
        with _dist_sim(agents=200, seed=4) as sim:
            sim.simulate(3)
            part = sim.backend._partition
            real_members = part.members

            def no_ghosts(positions, halo_width):
                owned, ghost = real_members(positions, halo_width)
                return owned, [np.zeros_like(g) for g in ghost]

            monkeypatch.setattr(part, "members", no_ghosts)
            violations = check_halo_ownership(sim.backend)
        assert violations
        assert any("cross-shard" in v.message for v in violations)


class TestBackendConfig:
    def test_sync_columns_cover_mechanics_inputs(self):
        assert "position" in SYNC_COLUMNS
        assert "diameter" in SYNC_COLUMNS

    def test_param_validation(self):
        with pytest.raises(ParamError):
            Param(backend_shards=-1).validate()
        with pytest.raises(ParamError):
            Param(distributed_transport="carrier-pigeon").validate()
        Param(execution_backend="distributed", backend_shards=2).validate()

    def test_backend_name_resolved_from_param(self):
        with _dist_sim(agents=120, seed=1) as sim:
            assert isinstance(sim.backend, DistributedBackend)
            assert sim.backend.name == "distributed"
            assert sim.backend.num_shards == 2
