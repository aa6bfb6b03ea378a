"""Simulated NUMA-partitioned address space.

Each NUMA domain owns a disjoint 2**40-byte address range; the domain of an
address is recovered with a shift, mirroring how ``libnuma`` placement plus
the OS page tables determine the home node of real memory.  Allocators
reserve large chunks from a domain's range with a bump pointer
(the analogue of ``numa_alloc_onnode``/``mmap``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["AddressSpace", "DOMAIN_SHIFT", "PAGE_SIZE"]

#: log2 of the per-domain address range size.
DOMAIN_SHIFT = 40

#: Simulated OS page size in bytes.
PAGE_SIZE = 4096


class AddressSpace:
    """Bump-pointer reservation of per-domain address ranges."""

    def __init__(self, num_domains: int = 1):
        if num_domains < 1:
            raise ValueError("need at least one domain")
        self.num_domains = num_domains
        # Start each domain's range one page in, so address 0 is never valid.
        self._next = [(d << DOMAIN_SHIFT) + PAGE_SIZE for d in range(num_domains)]
        self.reserved_bytes = 0

    def reserve(self, nbytes: int, domain: int = 0) -> int:
        """Reserve ``nbytes`` in ``domain``; returns the base address.

        Like ``numa_alloc_onnode``, the returned pointer is *not* aligned
        beyond the page size (the paper points this out as a source of waste
        for the N-page-aligned segments of the pool allocator).
        """
        if not 0 <= domain < self.num_domains:
            raise ValueError(f"domain {domain} out of range")
        nbytes = int(nbytes)
        if nbytes <= 0:
            raise ValueError("reservation must be positive")
        base = self._next[domain]
        limit = ((domain + 1) << DOMAIN_SHIFT)
        if base + nbytes > limit:
            raise MemoryError(f"simulated domain {domain} exhausted")
        self._next[domain] = base + nbytes
        self.reserved_bytes += nbytes
        return base

    def state(self) -> dict:
        """The bump pointers and the reservation total, as JSON scalars
        (:meth:`load_state` takes it back; checkpoints carry it)."""
        return {"next": list(self._next), "reserved_bytes": self.reserved_bytes}

    def load_state(self, state: dict) -> None:
        """Continue from a :meth:`state` of a space with as many domains."""
        if len(state["next"]) != self.num_domains:
            raise ValueError(
                f"address space state has {len(state['next'])} domains, "
                f"this space {self.num_domains}")
        self._next = [int(x) for x in state["next"]]
        self.reserved_bytes = int(state["reserved_bytes"])

    def domain_of(self, addr) -> np.ndarray:
        """NUMA domain(s) owning the given address(es)."""
        return np.asarray(addr, dtype=np.int64) >> DOMAIN_SHIFT
