"""Cluster description for the distributed engine."""

from __future__ import annotations

from dataclasses import dataclass

from repro.parallel.topology import MachineSpec, SYSTEM_A

__all__ = ["ClusterSpec"]


@dataclass(frozen=True)
class ClusterSpec:
    """N identical nodes joined by an interconnect.

    The defaults approximate a commodity HPC fabric (EDR InfiniBand-ish):
    1.5 us one-way latency, 12 GB/s effective point-to-point bandwidth.
    """

    num_nodes: int
    node_spec: MachineSpec = SYSTEM_A
    threads_per_node: int | None = None
    network_latency_s: float = 1.5e-6
    network_bandwidth_bytes_per_s: float = 12e9

    def __post_init__(self):
        if self.num_nodes < 1:
            raise ValueError("need at least one node")
        if self.network_latency_s < 0 or self.network_bandwidth_bytes_per_s <= 0:
            raise ValueError("invalid network parameters")
