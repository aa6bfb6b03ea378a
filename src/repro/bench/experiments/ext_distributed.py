"""Extension: distributed-engine scaling (the paper's §8 future work).

Strong scaling of the cell-collision workload over 1-16 nodes: node-local
compute shrinks with the node count while halo-exchange communication
grows with the number of cut planes — the classic distributed-ABM
trade-off the planned hybrid MPI/OpenMP BioDynaMo targets.  The model
runs once on the real engine; every node count prices the same ticks.
"""

from __future__ import annotations

import numpy as np

from repro.bench.tables import ExperimentReport
from repro.core.param import Param
from repro.core.simulation import Simulation
from repro.distributed import ClusterSpec, DistributedEngine, GridDecomposition, record
from repro.parallel import SYSTEM_C

__all__ = ["run", "main"]

SCALES = {
    "small": dict(num_agents=12_000, iterations=4, nodes=(1, 2, 4, 8)),
    "medium": dict(num_agents=40_000, iterations=6, nodes=(1, 2, 4, 8, 16)),
}


def run(scale: str = "small") -> ExperimentReport:
    """Execute the experiment at the given scale; returns its report."""
    cfg = SCALES[scale]
    rng = np.random.default_rng(0)
    n = cfg["num_agents"]
    iterations = cfg["iterations"]
    span = 10.0 * (n ** (1 / 3)) * 1.1
    positions = rng.uniform(0, span, (n, 3))
    with Simulation(param=Param()) as sim:
        sim.fixed_interaction_radius = 10.0
        sim.add_cells(positions, 10.0)
        snapshots = record(sim, iterations)

    def priced(nodes, decomposition=None):
        cluster = ClusterSpec(nodes, node_spec=SYSTEM_C, threads_per_node=8)
        eng = DistributedEngine(cluster, decomposition)
        eng.price(snapshots)
        return eng

    engines = [priced(nodes) for nodes in cfg["nodes"]]
    base = engines[0].total_virtual_seconds
    rows = [
        [eng.cluster.num_nodes,
         eng.total_virtual_seconds / iterations * 1e3,
         round(base / eng.total_virtual_seconds, 2),
         eng.total_compute_seconds / iterations * 1e3,
         eng.total_comm_seconds / iterations * 1e3,
         int(np.sum([r.ghosts_per_node.sum() for r in eng.reports])) // iterations]
        for eng in engines
    ]
    # Decomposition ablation at the largest square node count: a 2-D
    # rectilinear partition has less halo surface than 1-D slabs.
    side = max((int(k**0.5) for k in cfg["nodes"]
                if k > 1 and int(k**0.5) ** 2 == k), default=0)
    nodes = side * side
    notes = [
        "future-work reproduction: the paper's conclusion announces a "
        "hybrid MPI/OpenMP distributed engine; the virtual cluster prices "
        "the real engine's ticks (one run prices every node count)",
    ]
    if side > 1:
        eng = priced(nodes, GridDecomposition(side, side, positions))
        slab_ghosts = next(r[5] for r in rows if r[0] == nodes)
        grid_ghosts = int(np.mean([r.ghosts_per_node.sum() for r in eng.reports]))
        notes.append(
            f"decomposition ablation at {nodes} nodes: {side}x{side} "
            f"rectilinear grid exchanges {grid_ghosts} ghosts/iteration vs "
            f"{slab_ghosts} for 1-D slabs"
        )
    return ExperimentReport(
        experiment="Extension: distributed engine",
        title="Strong scaling across cluster nodes (slab decomposition + halo exchange)",
        headers=["nodes", "ms_per_iteration", "speedup_vs_1node",
                 "compute_ms", "comm_ms", "ghost_agents"],
        rows=rows,
        notes=notes,
    )


def main() -> None:
    """Print the rendered report to stdout."""
    print(run().render())


if __name__ == "__main__":
    main()
