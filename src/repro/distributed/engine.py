"""The distributed recorder: a virtual cluster prices the engine's ticks.

The recorder never steps agents.  A caller runs any ``Simulation``
through its public API; :func:`record` snapshots it before the first tick
and after each one, and :meth:`DistributedEngine.price` prices every tick
as the hybrid MPI/OpenMP pattern of the paper's conclusion would run it:

1. **Halo exchange** — each node receives the remote agents within one
   interaction radius of its subdomain (two messages per neighbor node).
2. **Node-local iteration** — each node builds a uniform grid over its
   local and ghost agents and computes forces for its local agents.  The
   halo is one radius wide, so a local agent's neighbors are exactly its
   row of the single-host CSR: the node's pair work is its local rows.
3. **Migration** — agents whose owner changed over the tick, matched by
   uid (sorting, births and deaths are not moves).  Cut planes re-balance
   every :data:`REBALANCE_FREQUENCY` ticks.

Node-local compute is charged to a per-node virtual machine (OpenMP
inside the node); a tick's virtual time is the slowest node's compute
plus its communication.  Engines for several node counts can price the
same snapshots, so one run prices a whole sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.distributed.cluster import ClusterSpec
from repro.distributed.decomposition import GridDecomposition
from repro.env.uniform_grid import _ASSIGN_CYCLES
from repro.obs.core import MetricsRegistry
from repro.parallel.accounting import DISPLACEMENT_OPS
from repro.parallel.machine import Machine, SchedulePolicy, make_blocks

__all__ = ["DistributedEngine", "StepReport", "TickSnapshot", "record"]

#: Bytes sent per ghost agent (position + diameter + uid + flags).
GHOST_BYTES = 48

#: Ticks between two re-balances of the cut planes.
REBALANCE_FREQUENCY = 20


@dataclass(frozen=True)
class TickSnapshot:
    """What the recorder reads from a simulation between two ticks, in
    uid order: the uids, positions and CSR row lengths, plus the
    interaction radius and the force's operations per pair."""

    uids: np.ndarray
    positions: np.ndarray
    row_lengths: np.ndarray
    radius: float
    ops_per_pair: float

    @classmethod
    def of(cls, sim) -> "TickSnapshot":
        """Snapshot ``sim`` (between ticks; reads, never writes)."""
        indptr, _ = sim.neighbors()
        uids = sim.rm.data["uid"]
        order = np.argsort(uids, kind="stable")
        return cls(uids[order], sim.rm.data["position"][order],
                   np.diff(indptr)[order], sim.interaction_radius(),
                   sim.force.OPS_PER_PAIR)


def record(sim, iterations: int) -> list[TickSnapshot]:
    """Run ``sim`` for ``iterations`` ticks; snapshot it before the first
    tick and after each one (``iterations + 1`` snapshots)."""
    snapshots = [TickSnapshot.of(sim)]
    for _ in range(iterations):
        sim.simulate(1)
        snapshots.append(TickSnapshot.of(sim))
    return snapshots


@dataclass
class StepReport:
    """Per-tick timing on the virtual cluster."""

    compute_seconds_per_node: np.ndarray
    comm_seconds_per_node: np.ndarray
    ghosts_per_node: np.ndarray
    migrations: int

    @property
    def step_seconds(self) -> float:
        """Slowest node determines the step (synchronous stepping)."""
        return float(np.max(self.compute_seconds_per_node + self.comm_seconds_per_node))


class DistributedEngine:
    """Prices recorded ticks on a cluster; the default decomposition is
    ``GridDecomposition(num_nodes, 1)`` (slabs along x), cut at the first
    snapshot's positions."""

    def __init__(self, cluster: ClusterSpec, decomposition=None):
        if decomposition is not None and decomposition.num_nodes != cluster.num_nodes:
            raise ValueError("decomposition nodes != cluster nodes")
        self.cluster = cluster
        self.decomposition = decomposition
        #: Tick timings in the ``dist:*`` namespace, readable by any obs
        #: consumer; the ``total_*`` properties read the same counters.
        self.registry = MetricsRegistry()
        self.registry.gauge("dist:shards").set(cluster.num_nodes)
        self.reports: list[StepReport] = []
        self._machines = [
            Machine(cluster.node_spec, num_threads=cluster.threads_per_node)
            for _ in range(cluster.num_nodes)
        ]

    def _total(self, name: str) -> float:
        return float(self.registry.counter(f"dist:{name}").value)

    @property
    def total_virtual_seconds(self) -> float:
        """Accumulated slowest-node step seconds."""
        return self._total("virtual_seconds")

    @property
    def total_comm_seconds(self) -> float:
        """Accumulated slowest-node comm seconds."""
        return self._total("comm_seconds")

    @property
    def total_compute_seconds(self) -> float:
        """Accumulated slowest-node compute seconds."""
        return self._total("compute_seconds")

    def price(self, snapshots) -> list[StepReport]:
        """Price the tick between each pair of consecutive snapshots;
        returns their reports (also appended to :attr:`reports`)."""
        return [self._price_tick(before, after)
                for before, after in zip(snapshots, snapshots[1:])]

    def _price_tick(self, before: TickSnapshot, after: TickSnapshot) -> StepReport:
        nn = self.cluster.num_nodes
        latency = self.cluster.network_latency_s
        bandwidth = self.cluster.network_bandwidth_bytes_per_s
        if self.decomposition is None:
            self.decomposition = GridDecomposition(nn, 1, before.positions)
        decomp = self.decomposition
        owners_before = decomp.owner_of(before.positions)

        compute_s = np.zeros(nn)
        comm_s = np.zeros(nn)
        ghosts = np.zeros(nn, dtype=np.int64)
        for node in range(nn):
            local = np.flatnonzero(owners_before == node)
            halo = decomp.halo_indices(before.positions, owners_before, node,
                                       before.radius)
            ghosts[node] = len(halo)
            # Halo exchange: one message per neighboring node in each
            # direction; receive ghosts, send own boundary layer (equal
            # size by symmetry of the window).
            messages = len(np.unique(owners_before[halo])) if len(halo) else int(nn > 1)
            comm_s[node] = (2 * messages * latency
                            + 2 * len(halo) * GHOST_BYTES / bandwidth)
            if len(local) == 0:
                continue

            # Node-local cost: pair work on the local rows, then the grid
            # build over local + ghost agents, on the node machine.
            m = self._machines[node]
            start = m.cycles
            cm = m.cost_model
            counts = before.row_lengths[local]
            per_agent = (
                cm.compute_cycles(counts * before.ops_per_pair + DISPLACEMENT_OPS)
                + counts * cm.spec.l2_latency
                + cm.stream_cycles(GHOST_BYTES)
            )
            m.run_parallel("mechanics", make_blocks(
                per_agent, counts * cm.spec.l2_latency, domain=0,
                block_size=max(8, len(local) // (m.num_threads * 8) or 8),
            ), SchedulePolicy.NUMA_AWARE)
            m.run_parallel("build", make_blocks(
                np.full(len(local) + len(halo), _ASSIGN_CYCLES), block_size=256,
            ), SchedulePolicy.NUMA_AWARE)
            compute_s[node] = cm.spec.cycles_to_seconds(m.cycles - start)

        # Migrations: agents alive at both ends of the tick whose owner
        # changed.  Their traffic piggybacks on the next halo exchange;
        # charge its bandwidth to the sending nodes.
        _, b, a = np.intersect1d(before.uids, after.uids, assume_unique=True,
                                 return_indices=True)
        moved = owners_before[b] != decomp.owner_of(after.positions[a])
        migrations = int(np.sum(moved))
        if migrations:
            sent = np.bincount(owners_before[b[moved]], minlength=nn)
            comm_s += sent * GHOST_BYTES / bandwidth

        report = StepReport(compute_s, comm_s, ghosts, migrations)
        self.reports.append(report)
        if len(self.reports) % REBALANCE_FREQUENCY == 0:
            decomp.rebalance(after.positions)
        halo_agents = int(ghosts.sum())
        for name, amount in (("virtual_seconds", report.step_seconds),
                             ("comm_seconds", float(np.max(comm_s))),
                             ("compute_seconds", float(np.max(compute_s))),
                             ("halo_agents", halo_agents),
                             ("halo_bytes", halo_agents * GHOST_BYTES),
                             ("migrations", migrations)):
            self.registry.counter(f"dist:{name}").inc(amount)
        return report
