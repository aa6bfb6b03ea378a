"""Distributed engine: the paper's §8 future work in action.

Runs a tissue-mechanics workload once on the engine, prices its ticks on
simulated clusters of 1-16 nodes, and prints a strong-scaling table with
the compute/communication split per node count.

Run:  python examples/distributed_scaling.py
"""

import numpy as np

from repro import Param, Simulation
from repro.distributed import ClusterSpec, DistributedEngine, record
from repro.parallel import SYSTEM_C


def main():
    rng = np.random.default_rng(42)
    n = 10_000
    span = 10.0 * (n ** (1 / 3)) * 1.1
    positions = rng.uniform(0, span, (n, 3))
    iterations = 5

    print(f"workload: {n} overlapping cells, {iterations} mechanics steps")
    print("cluster:  System C nodes (8 threads each), "
          "1.5 us / 12 GB/s interconnect\n")

    with Simulation(param=Param()) as sim:
        sim.fixed_interaction_radius = 10.0
        sim.add_cells(positions, 10.0)
        snapshots = record(sim, iterations)

    print(f"{'nodes':>5} {'ms/iter':>9} {'speedup':>8} {'compute_ms':>11} "
          f"{'comm_ms':>8} {'ghosts':>7} {'migrations':>11}")
    base = None
    for nodes in (1, 2, 4, 8, 16):
        eng = DistributedEngine(
            ClusterSpec(nodes, node_spec=SYSTEM_C, threads_per_node=8))
        eng.price(snapshots)
        t = eng.total_virtual_seconds / iterations
        if base is None:
            base = t
        ghosts = int(np.mean([r.ghosts_per_node.sum() for r in eng.reports]))
        migrations = sum(r.migrations for r in eng.reports)
        print(f"{nodes:5d} {t * 1e3:9.4f} {base / t:8.2f} "
              f"{eng.total_compute_seconds / iterations * 1e3:11.4f} "
              f"{eng.total_comm_seconds / iterations * 1e3:8.4f} "
              f"{ghosts:7d} {migrations:11d}")

    print("\nevery node count priced the same recorded ticks "
          "(halo width = interaction radius).")


if __name__ == "__main__":
    main()
