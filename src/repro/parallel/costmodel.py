"""Memory cost model for the simulated machine.

ABM workloads are memory-bound (paper §1, Challenge 2; Fig. 5 right): agents
access their own payload and the payloads of spatial neighbors, and the cost
of those accesses is governed by *where the payloads sit in memory*.  The
optimizations under study (agent sorting §4.2, the pool allocator §4.3,
NUMA-aware iteration §4.1) all work by changing that placement.  The model
must therefore respond to addresses, not to opaque constants.

Two models are provided:

- :class:`CacheSim` — an exact set-associative LRU cache simulator.  Too
  slow for whole-simulation accounting, it serves as the reference that the
  fast model is validated against in the test suite.
- :class:`MemoryCostModel` — the fast, vectorized *address-distance* model.
  An access from a working location to address ``a`` is classified by the
  distance between ``a`` and the previously touched address of the same
  stream: within a cache line → L1 latency, within the L1 span → L1, within
  the L2 span → L2, within the L3 span → L3, otherwise DRAM.  Accesses whose
  target lives in a different NUMA domain than the executing thread pay the
  remote-DRAM premium on top (charged at schedule time, because the
  executing thread is only known then; see :class:`repro.parallel.machine.WorkBlock`).

The distance model is a standard locality proxy: after agents are sorted
along a space-filling curve, spatial neighbors sit at small address
distances, which is exactly the effect the paper's Fig. 12 measures.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.parallel.topology import MachineSpec

__all__ = ["MemoryCostModel", "CacheSim"]


class MemoryCostModel:
    """Vectorized address-distance memory cost model."""

    #: Cycles charged per cache line of a hardware-prefetched sequential
    #: stream (prefetching hides most of the DRAM latency).
    STREAM_LINE_CYCLES = 8.0

    def __init__(self, spec: MachineSpec):
        self.spec = spec
        self._bounds = np.array(
            [spec.cache_line, spec.l1_span, spec.l2_span, spec.l3_span],
            dtype=np.float64,
        )
        self._latencies = np.array(
            [
                spec.l1_latency,
                spec.l1_latency,
                spec.l2_latency,
                spec.l3_latency,
                spec.dram_latency,
            ],
            dtype=np.float64,
        )

    def classify(self, deltas) -> np.ndarray:
        """Map absolute address distances to level indices 0..4 (L1..DRAM)."""
        deltas = np.abs(np.asarray(deltas, dtype=np.float64))
        return np.searchsorted(self._bounds, deltas, side="right")

    def latency_for_deltas(self, deltas) -> np.ndarray:
        """Per-access latency in cycles, assuming domain-local memory."""
        return self._latencies[self.classify(deltas)]

    def total_access_cycles(self, deltas) -> float:
        """Sum of local-domain latencies for a batch of accesses."""
        d = np.asarray(deltas)
        if d.size == 0:
            return 0.0
        return float(np.sum(self.latency_for_deltas(d)))

    @property
    def remote_premium(self) -> float:
        """Extra cycles for an access that crosses NUMA domains."""
        return self.spec.remote_dram_latency - self.spec.dram_latency

    def stream_cycles(self, nbytes: float) -> float:
        """Cost of streaming ``nbytes`` sequentially (prefetch-friendly)."""
        return (float(nbytes) / self.spec.cache_line) * self.STREAM_LINE_CYCLES

    def compute_cycles(self, nops):
        """Cost of ``nops`` arithmetic operations on one core.

        Accepts scalars or arrays (per-item op counts).
        """
        return nops / self.spec.issue_width


class CacheSim:
    """Exact set-associative LRU cache (reference model for tests).

    Parameters
    ----------
    size:
        Capacity in bytes.
    assoc:
        Associativity (ways per set).
    line:
        Cache line size in bytes.
    """

    def __init__(self, size: int, assoc: int = 8, line: int = 64):
        if size % (assoc * line) != 0:
            raise ValueError("size must be a multiple of assoc * line")
        self.line = line
        self.assoc = assoc
        self.num_sets = size // (assoc * line)
        self._sets: list[OrderedDict] = [OrderedDict() for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0

    def access(self, addr: int) -> bool:
        """Touch ``addr``; return ``True`` on hit, ``False`` on miss."""
        tag = addr // self.line
        s = self._sets[tag % self.num_sets]
        if tag in s:
            s.move_to_end(tag)
            self.hits += 1
            return True
        self.misses += 1
        s[tag] = True
        if len(s) > self.assoc:
            s.popitem(last=False)
        return False

    def access_many(self, addrs) -> int:
        """Touch a sequence of addresses; return the number of misses."""
        before = self.misses
        for a in np.asarray(addrs, dtype=np.int64):
            self.access(int(a))
        return self.misses - before

    @property
    def miss_rate(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total else 0.0

    def reset_counters(self) -> None:
        """Zero the hit/miss counters (cache contents are kept)."""
        self.hits = 0
        self.misses = 0
