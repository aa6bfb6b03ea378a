"""Allocator interface shared by the pool allocator and the baselines."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

__all__ = ["Allocator", "AllocatorStats"]


@dataclass
class AllocatorStats:
    """Cumulative allocator accounting.

    ``reserved_bytes`` is memory obtained from the (simulated) OS — the
    quantity the paper's memory-consumption plots report.  ``live_bytes`` is
    the sum of currently-allocated object sizes; the difference is overhead
    (alignment waste, headers, size-class rounding, free-list slack).
    """

    reserved_bytes: int = 0
    peak_reserved_bytes: int = 0
    live_bytes: int = 0
    peak_live_bytes: int = 0
    allocations: int = 0
    frees: int = 0
    #: Bulk moves between a thread-private free list and the central list
    #: (§4.3 — only the pool allocator performs them).
    central_migrations: int = 0
    cycles: float = 0.0

    def note_reserved(self, nbytes: int) -> None:
        """Account ``nbytes`` of new OS reservation (tracks the peak)."""
        self.reserved_bytes += nbytes
        self.peak_reserved_bytes = max(self.peak_reserved_bytes, self.reserved_bytes)

    def note_live(self, delta: int) -> None:
        """Adjust live bytes by ``delta`` (tracks the peak)."""
        self.live_bytes += delta
        self.peak_live_bytes = max(self.peak_live_bytes, self.live_bytes)


class Allocator(ABC):
    """A dynamic memory allocator over the simulated address space.

    Allocation cost in cycles accumulates in ``stats.cycles``; the engine
    drains it into the virtual machine's clock with :meth:`drain_cycles`.

    ``parallel_scalability`` captures how well concurrent allocations
    scale: 1.0 means thread-private fast paths (BioDynaMo's pool with its
    thread-local free lists), small values mean a shared lock serializes
    most operations (glibc's arena locks) — the reason thread-caching
    allocators exist, and a large part of Fig. 13's runtime differences.
    """

    name: str = "allocator"
    parallel_scalability: float = 1.0

    def __init__(self):
        self.stats = AllocatorStats()

    @abstractmethod
    def allocate(self, size: int, domain: int = 0, thread: int = 0) -> int:
        """Allocate ``size`` bytes; returns the simulated address."""

    @abstractmethod
    def free(self, addr: int, size: int, domain: int = 0, thread: int = 0) -> None:
        """Release an allocation previously returned by :meth:`allocate`."""

    def allocate_many(
        self, size: int, count: int, domain: int = 0, thread: int = 0
    ) -> np.ndarray:
        """Allocate ``count`` objects of ``size`` bytes (vector convenience)."""
        out = np.empty(count, dtype=np.int64)
        for i in range(count):
            out[i] = self.allocate(size, domain, thread)
        return out

    def free_many(self, addrs, size: int, domain: int = 0, thread: int = 0) -> None:
        """Release many same-size allocations."""
        for a in np.asarray(addrs, dtype=np.int64):
            self.free(int(a), size, domain, thread)

    def state(self) -> dict:
        """Everything that decides the addresses this allocator hands out
        next, plus its accounting: JSON scalars, with each free list an
        int64 array.  :meth:`load_state` continues from it exactly; the
        shared :class:`~repro.mem.AddressSpace` is saved on its own."""
        return {"kind": self.name, "stats": dict(vars(self.stats))}

    def load_state(self, state: dict) -> None:
        """Take over a :meth:`state` of an allocator of the same kind."""
        if state["kind"] != self.name:
            raise ValueError(
                f"allocator state is {state['kind']!r}, this allocator "
                f"{self.name!r}")
        self.stats = AllocatorStats(**state["stats"])

    def drain_cycles(self) -> float:
        """Return and reset the accumulated allocation cost in cycles."""
        c = self.stats.cycles
        self.stats.cycles = 0.0
        return c

    @property
    def allocations(self) -> int:
        return self.stats.allocations

    @property
    def frees(self) -> int:
        return self.stats.frees

    @property
    def reserved_bytes(self) -> int:
        return self.stats.reserved_bytes

    @property
    def peak_reserved_bytes(self) -> int:
        return self.stats.peak_reserved_bytes

    @property
    def live_bytes(self) -> int:
        return self.stats.live_bytes

    @property
    def peak_live_bytes(self) -> int:
        return self.stats.peak_live_bytes
