"""Tests for the distributed recorder (paper §8 future work)."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.param import Param
from repro.core.simulation import Simulation
from repro.distributed import (ClusterSpec, DistributedEngine,
                               GridDecomposition, record)
from repro.parallel import SYSTEM_C
from repro.simulations import get_simulation
from repro.verify.snapshot import state_checksum

REPORTS_FILE = Path(__file__).parent / "data" / "distributed_reports.json"


def random_ball(n, seed=0, span=60.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, span, (n, 3))


def recorded(positions, diameter, radius, ticks):
    """Snapshots of a mechanics-only run of the engine."""
    with Simulation(param=Param()) as sim:
        sim.fixed_interaction_radius = radius
        sim.add_cells(positions, diameter)
        return record(sim, ticks)


def priced(snapshots, nodes, decomposition=None, threads=4):
    eng = DistributedEngine(
        ClusterSpec(nodes, node_spec=SYSTEM_C, threads_per_node=threads),
        decomposition)
    eng.price(snapshots)
    return eng


def model(name, n=300, seed=1, **param):
    sim_model = get_simulation(name)
    return sim_model.build(n, param=sim_model.default_param().with_(**param),
                           seed=seed)


class TestClusterSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec(0)
        with pytest.raises(ValueError):
            ClusterSpec(2, network_bandwidth_bytes_per_s=0)


class TestDecomposition:
    """``GridDecomposition(k, 1)``: slabs along x."""

    def test_balanced_cuts(self):
        pos = random_ball(1000)
        loads = GridDecomposition(4, 1, pos).node_loads(pos)
        assert loads.sum() == 1000
        assert loads.max() - loads.min() <= 10

    def test_single_node(self):
        pos = random_ball(50)
        d = GridDecomposition(1, 1, pos)
        assert np.all(d.owner_of(pos) == 0)
        assert len(d.halo_indices(pos, d.owner_of(pos), 0, 5.0)) == 0

    def test_owners_partition(self):
        pos = random_ball(300)
        owners = GridDecomposition(3, 1, pos).owner_of(pos)
        assert set(owners.tolist()) <= {0, 1, 2}

    def test_halo_is_remote_and_near_boundary(self):
        pos = random_ball(500)
        d = GridDecomposition(2, 1, pos)
        radius = 5.0
        owners = d.owner_of(pos)
        halo0 = d.halo_indices(pos, owners, 0, radius)
        assert np.all(owners[halo0] != 0)
        assert np.all(pos[halo0, 0] <= d.x_cuts[0] + radius)

    def test_rebalance_restores_balance(self):
        pos = random_ball(400)
        d = GridDecomposition(4, 1, pos)
        pos[:, 0] += np.linspace(0, 50, 400)  # drift
        d.rebalance(pos)
        loads = d.node_loads(pos)
        assert loads.max() - loads.min() <= 10

    def test_invalid_nodes(self):
        with pytest.raises(ValueError):
            GridDecomposition(0, 1, random_ball(10))


class TestCorrectness:
    """The recorder prices the engine's ticks as the retired stepper
    priced its own, and leaves the run untouched."""

    FROZEN = json.loads(REPORTS_FILE.read_text())["reports"]

    @pytest.mark.parametrize("layout", sorted(FROZEN))
    def test_matches_frozen_stepper_reports(self, layout):
        pos = random_ball(200, seed=3)
        nx, ny = map(int, layout.split("x"))
        eng = priced(recorded(pos, 10.0, 10.0, 5), nx * ny,
                     GridDecomposition(nx, ny, pos))
        got = [dict(compute_seconds=r.compute_seconds_per_node.tolist(),
                    comm_seconds=r.comm_seconds_per_node.tolist(),
                    ghosts=r.ghosts_per_node.tolist(),
                    migrations=r.migrations) for r in eng.reports]
        assert got == self.FROZEN[layout]

    def test_migration_counted(self):
        # An overlapping pair just left of the cut plane: repulsion pushes
        # the right agent across into node 1's slab.
        pos = np.array([[19.0, 0, 0], [19.45, 0, 0], [40.0, 0, 0]])
        decomp = GridDecomposition(2, 1, pos)
        decomp.x_cuts = np.array([19.5])
        eng = priced(recorded(pos, 8.0, 8.0, 10), 2, decomp, threads=2)
        assert sum(r.migrations for r in eng.reports) >= 1

    @pytest.mark.parametrize("layout", [(4, 1), (2, 2), (3, 2)])
    def test_halo_holds_every_neighbor_of_a_local_agent(self, layout):
        with model("oncology", n=400) as sim:
            sim.simulate(3)
            pos = sim.rm.data["position"].copy()
            indptr, indices = (a.copy() for a in sim.neighbors())
            radius = sim.interaction_radius()
        decomp = GridDecomposition(*layout, pos)
        owners = decomp.owner_of(pos)
        rows = np.repeat(np.arange(len(pos)), np.diff(indptr))
        for node in range(decomp.num_nodes):
            seen = owners == node
            seen[decomp.halo_indices(pos, owners, node, radius)] = True
            assert np.all(seen[indices[owners[rows] == node]])

    def test_migrations_are_keyed_by_uid(self):
        with model("oncology", n=600, agent_sort_frequency=1) as sim:
            snaps = record(sim, 6)
            assert np.any(np.diff(sim.rm.data["uid"]) < 0)  # sorted storage
        first, last = set(snaps[0].uids.tolist()), set(snaps[-1].uids.tolist())
        assert first - last and last - first  # deaths and births
        eng = priced(snaps, 4)
        decomp = GridDecomposition(4, 1, snaps[0].positions)
        for report, before, after in zip(eng.reports, snaps, snaps[1:]):
            owner_before = dict(zip(before.uids.tolist(),
                                    decomp.owner_of(before.positions).tolist()))
            owner_after = dict(zip(after.uids.tolist(),
                                   decomp.owner_of(after.positions).tolist()))
            assert report.migrations == sum(
                owner_before[u] != owner_after[u]
                for u in owner_before.keys() & owner_after.keys())
        assert sum(r.migrations for r in eng.reports) > 0

    @pytest.mark.parametrize("name", ["oncology", "cell_proliferation"])
    def test_recording_does_not_perturb_the_run(self, name):
        with model(name) as plain, model(name) as watched:
            plain.simulate(8)
            record(watched, 8)
            assert state_checksum(watched) == state_checksum(plain)


@pytest.fixture(scope="module")
def ball_ticks():
    return recorded(random_ball(2000, seed=1, span=80.0), 10.0, 10.0, 3)


class TestPerformanceModel:
    def test_more_nodes_less_compute_time(self, ball_ticks):
        t = {k: priced(ball_ticks, k).total_compute_seconds for k in (1, 4)}
        assert t[4] < t[1]

    def test_communication_only_with_multiple_nodes(self, ball_ticks):
        single = priced(ball_ticks[:2], 1)
        multi = priced(ball_ticks[:2], 4)
        assert single.total_comm_seconds == pytest.approx(0.0, abs=1e-12)
        assert multi.total_comm_seconds > 0

    def test_comm_grows_with_node_count(self, ball_ticks):
        c2 = priced(ball_ticks[:2], 2)
        c8 = priced(ball_ticks[:2], 8)
        # More cut planes -> more halo traffic in the max-node metric.
        assert c8.reports[0].ghosts_per_node.sum() > c2.reports[0].ghosts_per_node.sum()

    def test_step_report_consistency(self, ball_ticks):
        eng = priced(ball_ticks[:2], 3)
        rep = eng.reports[0]
        assert rep.step_seconds >= float(np.max(rep.compute_seconds_per_node))
        assert eng.total_virtual_seconds == pytest.approx(rep.step_seconds)


class TestGridDecomposition:
    """2-D rectilinear decomposition."""

    def test_loads_balanced(self):
        pos = random_ball(1200, seed=4)
        loads = GridDecomposition(3, 2, pos).node_loads(pos)
        assert loads.sum() == 1200
        assert loads.max() - loads.min() <= 20

    def test_fewer_ghosts_than_slabs_at_high_node_count(self):
        pos = random_ball(8000, seed=13, span=120.0)
        snaps = recorded(pos, 8.0, 8.0, 1)
        slab = priced(snaps, 16)
        grid = priced(snaps, 16, GridDecomposition(4, 4, pos))
        assert (grid.reports[0].ghosts_per_node.sum()
                < slab.reports[0].ghosts_per_node.sum())

    def test_node_count_mismatch(self):
        pos = random_ball(50)
        with pytest.raises(ValueError):
            DistributedEngine(ClusterSpec(4), GridDecomposition(3, 2, pos))

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            GridDecomposition(0, 2, random_ball(10))


class TestEngineMetricsRegistry:
    """Tick timings land in the engine's own ``dist:*`` MetricsRegistry."""

    def _engine(self, ticks):
        snaps = recorded(random_ball(80, seed=4), 10.0, 12.0, ticks)
        return priced(snaps, 2)

    def test_counters_accumulate_in_registry(self):
        eng = self._engine(3)
        snap = eng.registry.snapshot()
        assert snap["dist:shards"] == 2
        assert snap["dist:virtual_seconds"] > 0
        for name in ("virtual", "comm", "compute"):
            assert snap[f"dist:{name}_seconds"] == pytest.approx(
                getattr(eng, f"total_{name}_seconds"))
        assert snap["dist:halo_agents"] >= 0
        assert "dist:migrations" in snap

    def test_default_registry_is_private(self):
        a, b = self._engine(1), self._engine(1)
        assert a.registry is not b.registry
        assert a.registry.snapshot()["dist:virtual_seconds"] \
            == pytest.approx(a.total_virtual_seconds)
