"""The distributed stepper: halo exchange + node-local mechanics.

Each step executes the hybrid MPI/OpenMP pattern the paper's conclusion
sketches:

1. **Halo exchange** — every node receives copies of remote agents within
   one interaction radius of its slab (communication time from the
   cluster's network model; two messages per internal cut plane).
2. **Node-local iteration** — each node rebuilds its own uniform grid over
   local + ghost agents and computes collision forces and displacements
   for its *local* agents.  Because the halo width equals the interaction
   radius, every local agent sees exactly the neighborhood it would see
   in a shared-memory run: the distributed result is bit-identical to the
   single-node engine's.
3. **Migration** — agents whose displacement crossed a cut plane simply
   change owners (ownership is positional); cut planes are periodically
   re-balanced to population percentiles.

Node-local compute cost is charged to a per-node virtual machine (OpenMP
inside the node); the step's virtual time is the slowest node's compute
plus its communication — the quantity the scaling study plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.force import InteractionForce
from repro.parallel.accounting import DISPLACEMENT_OPS
from repro.distributed.cluster import ClusterSpec
from repro.distributed.decomposition import SlabDecomposition
from repro.env.uniform_grid import UniformGridEnvironment
from repro.kernels.api import MOVE_EPSILON
from repro.parallel.machine import Machine, SchedulePolicy, make_blocks

__all__ = ["DistributedEngine", "StepReport"]

#: Bytes sent per ghost agent (position + diameter + uid + flags).
GHOST_BYTES = 48


@dataclass
class StepReport:
    """Per-step timing of the distributed engine."""

    compute_seconds_per_node: np.ndarray
    comm_seconds_per_node: np.ndarray
    ghosts_per_node: np.ndarray
    migrations: int

    @property
    def step_seconds(self) -> float:
        """Slowest node determines the step (synchronous stepping)."""
        return float(np.max(self.compute_seconds_per_node + self.comm_seconds_per_node))


class DistributedEngine:
    """Synchronous distributed mechanics over a slab decomposition."""

    def __init__(
        self,
        positions: np.ndarray,
        diameters,
        cluster: ClusterSpec,
        interaction_radius: float | None = None,
        time_step: float = 0.01,
        max_displacement: float = 3.0,
        rebalance_frequency: int = 20,
        force: InteractionForce | None = None,
        motility=None,
        decomposition=None,
        registry=None,
    ):
        self.positions = np.array(positions, dtype=np.float64)
        n = len(self.positions)
        self.diameters = np.broadcast_to(
            np.asarray(diameters, dtype=np.float64), (n,)
        ).copy()
        self.cluster = cluster
        self.time_step = time_step
        self.max_displacement = max_displacement
        self.rebalance_frequency = rebalance_frequency
        self.force = force or InteractionForce()
        #: Optional partition-invariant random motion (BrownianMotion).
        self.motility = motility
        #: Stable agent identities (counter-based randomness keys).
        self.uids = np.arange(n, dtype=np.int64)
        self._radius = interaction_radius
        if decomposition is not None:
            if decomposition.num_nodes != cluster.num_nodes:
                raise ValueError("decomposition nodes != cluster nodes")
            self.decomposition = decomposition
        else:
            self.decomposition = SlabDecomposition(cluster.num_nodes, self.positions)
        self.iteration = 0
        # Step timings live in a MetricsRegistry (the ``dist:*``
        # namespace) rather than ad-hoc engine attributes, so any obs
        # consumer can read them; the ``total_*`` properties below keep
        # the historical attribute API.
        if registry is None:
            from repro.obs.core import MetricsRegistry

            registry = MetricsRegistry()
        self.registry = registry
        self._virtual_s = registry.counter("dist:virtual_seconds")
        self._comm_s = registry.counter("dist:comm_seconds")
        self._compute_s = registry.counter("dist:compute_seconds")
        self._ghosts = registry.counter("dist:halo_agents")
        self._halo_bytes = registry.counter("dist:halo_bytes")
        self._migrations = registry.counter("dist:migrations")
        registry.gauge("dist:shards").set(cluster.num_nodes)
        self.reports: list[StepReport] = []
        self._machines = [
            Machine(cluster.node_spec, num_threads=cluster.threads_per_node)
            for _ in range(cluster.num_nodes)
        ]
        self._envs = [UniformGridEnvironment() for _ in range(cluster.num_nodes)]

    # ------------------------------------------------------------------ #

    @property
    def num_agents(self) -> int:
        return len(self.positions)

    @property
    def total_virtual_seconds(self) -> float:
        """Accumulated slowest-node step seconds (``dist:virtual_seconds``)."""
        return float(self._virtual_s.value)

    @property
    def total_comm_seconds(self) -> float:
        """Accumulated slowest-node comm seconds (``dist:comm_seconds``)."""
        return float(self._comm_s.value)

    @property
    def total_compute_seconds(self) -> float:
        """Accumulated slowest-node compute seconds
        (``dist:compute_seconds``)."""
        return float(self._compute_s.value)

    def interaction_radius(self) -> float:
        """Fixed radius override or the largest agent diameter."""
        if self._radius is not None:
            return self._radius
        return float(self.diameters.max()) if len(self.diameters) else 1.0

    # ------------------------------------------------------------------ #

    def step(self, iterations: int = 1) -> StepReport:
        """Advance the simulation; returns the last step's report."""
        report = None
        for _ in range(iterations):
            report = self._step_once()
        return report

    def _step_once(self) -> StepReport:
        cluster = self.cluster
        nn = cluster.num_nodes
        radius = self.interaction_radius()
        decomp = self.decomposition
        owners_before = decomp.owner_of(self.positions)

        disp = np.zeros_like(self.positions)
        compute_s = np.zeros(nn)
        comm_s = np.zeros(nn)
        ghosts = np.zeros(nn, dtype=np.int64)

        for node in range(nn):
            local = np.flatnonzero(owners_before == node)
            halo = decomp.halo_indices(self.positions, node, radius)
            ghosts[node] = len(halo)
            # Halo exchange: one message per neighboring node in each
            # direction; receive ghosts, send own boundary layer (equal
            # size by symmetry of the window).
            messages = int(len(np.unique(owners_before[halo]))) if len(halo) else (
                1 if nn > 1 else 0
            )
            comm_s[node] = 2 * messages * cluster.network_latency_s + (
                2 * len(halo) * GHOST_BYTES
                / cluster.network_bandwidth_bytes_per_s
            )

            if len(local) == 0:
                continue
            combined = np.concatenate([local, halo])
            pos_c = self.positions[combined]
            dia_c = self.diameters[combined]
            env = self._envs[node]
            build = env.update(pos_c, radius)
            indptr, indices = env.neighbor_csr()
            # Forces for the local agents only (the first len(local) rows).
            active = np.zeros(len(combined), dtype=bool)
            active[: len(local)] = True
            res = self.force.compute(pos_c, dia_c, indptr, indices, active)
            d = res.net_force[: len(local)] * self.time_step
            norm = np.linalg.norm(d, axis=1)
            too_far = norm > self.max_displacement
            if np.any(too_far):
                d[too_far] *= (self.max_displacement / norm[too_far])[:, None]
            disp[local] = d

            # Node-local cost: grid build + pair work on the node machine.
            m = self._machines[node]
            before = m.cycles
            cm = m.cost_model
            counts = np.diff(indptr)[: len(local)]
            per_agent = (
                cm.compute_cycles(
                    counts * InteractionForce.OPS_PER_PAIR + DISPLACEMENT_OPS
                )
                + counts * cm.spec.l2_latency
                + cm.stream_cycles(GHOST_BYTES)
            )
            blocks = make_blocks(
                per_agent, counts * cm.spec.l2_latency, domain=0,
                block_size=max(8, len(local) // (m.num_threads * 8) or 8),
            )
            m.run_parallel("mechanics", blocks, SchedulePolicy.NUMA_AWARE)
            if build.per_item_cycles is not None:
                m.run_parallel(
                    "build",
                    make_blocks(build.per_item_cycles, block_size=256),
                    SchedulePolicy.NUMA_AWARE,
                )
            compute_s[node] = cm.spec.cycles_to_seconds(m.cycles - before)

        if self.motility is not None:
            # Counter-based per-agent randomness: identical regardless of
            # which node computes the agent (see repro.distributed.motility).
            disp += self.motility.displacements(
                self.uids, self.iteration, self.time_step
            )
        moved = np.linalg.norm(disp, axis=1) > MOVE_EPSILON
        self.positions[moved] += disp[moved]

        owners_after = decomp.owner_of(self.positions)
        migrations = int(np.sum(owners_after != owners_before))
        # Migration traffic piggybacks on the halo exchange of the next
        # step; charge its bandwidth to the sending nodes.
        if migrations:
            migrating = np.flatnonzero(owners_after != owners_before)
            per_node = np.bincount(owners_before[migrating], minlength=nn)
            comm_s += per_node * GHOST_BYTES / cluster.network_bandwidth_bytes_per_s

        self.iteration += 1
        if self.rebalance_frequency and self.iteration % self.rebalance_frequency == 0:
            decomp.rebalance(self.positions)

        report = StepReport(compute_s, comm_s, ghosts, migrations)
        self.reports.append(report)
        self._virtual_s.inc(report.step_seconds)
        self._comm_s.inc(float(np.max(comm_s)))
        self._compute_s.inc(float(np.max(compute_s)))
        self._ghosts.inc(int(ghosts.sum()))
        self._halo_bytes.inc(int(ghosts.sum()) * GHOST_BYTES)
        self._migrations.inc(migrations)
        return report
