"""Distributed simulation engine (the paper's §8 future work).

The paper closes with: *"Our performance optimizations ... are an
important stepping stone towards a distributed simulation engine with a
hybrid MPI/OpenMP design. Ongoing work focuses on realizing this
distributed simulation engine capable of dividing the computation among
multiple nodes."*  This subpackage builds that engine on the same
simulated substrate used for the single-node reproduction:

- :mod:`repro.distributed.cluster` — cluster description: N nodes, each a
  :class:`~repro.parallel.topology.MachineSpec`, joined by a network with
  latency and bandwidth (the MPI fabric).
- :mod:`repro.distributed.decomposition` — 1-D spatial domain
  decomposition with ghost (halo) regions one interaction radius wide,
  plus load-rebalancing of the cut planes.
- :mod:`repro.distributed.engine` — the distributed stepper: halo
  exchange, node-local mechanics on local+ghost agents, migration of
  agents that crossed a cut plane.  Computation is *real* (the global
  result equals the shared-memory engine's); node-local compute time
  comes from per-node virtual machines and communication time from the
  network model, so scaling studies across node counts are possible.

The engine is virtual: it runs on one host and prices the nodes and the
network.  A real multi-host launcher is future work.
"""

from repro.distributed.cluster import ClusterSpec
from repro.distributed.decomposition import GridDecomposition, SlabDecomposition
from repro.distributed.engine import DistributedEngine
from repro.distributed.motility import BrownianMotion

__all__ = [
    "ClusterSpec",
    "SlabDecomposition",
    "GridDecomposition",
    "DistributedEngine",
    "BrownianMotion",
]
