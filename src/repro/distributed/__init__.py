"""Distributed-engine study (the paper's §8 future work).

The paper closes with: *"Our performance optimizations ... are an
important stepping stone towards a distributed simulation engine with a
hybrid MPI/OpenMP design. Ongoing work focuses on realizing this
distributed simulation engine capable of dividing the computation among
multiple nodes."*  This subpackage prices that engine from the ticks of
the one engine this repository has:

- :mod:`repro.distributed.cluster` — cluster description: N nodes, each a
  :class:`~repro.parallel.topology.MachineSpec`, joined by a network with
  latency and bandwidth (the MPI fabric).
- :mod:`repro.distributed.decomposition` — rectilinear spatial domain
  decomposition (``nx x 1`` is 1-D slabs) with ghost (halo) regions one
  interaction radius wide, plus load-rebalancing of the cut planes.
- :mod:`repro.distributed.engine` — the recorder: snapshots of a running
  ``Simulation`` priced per node (halo exchange, mechanics on the local
  CSR rows, uid-keyed migrations) on per-node virtual machines and the
  network model, so one run prices every node count of a study.

The cluster is virtual: it runs on one host and prices the nodes and the
network.  A real multi-host launcher is future work.
"""

from repro.distributed.cluster import ClusterSpec
from repro.distributed.decomposition import GridDecomposition
from repro.distributed.engine import DistributedEngine, TickSnapshot, record

__all__ = ["ClusterSpec", "GridDecomposition", "DistributedEngine",
           "TickSnapshot", "record"]
