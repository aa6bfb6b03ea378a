"""Simulated ptmalloc2-like and jemalloc-like allocators (paper §6.12).

The paper compares BioDynaMo's pool allocator against glibc ptmalloc2 and
jemalloc (Fig. 13); both are native libraries, so we model their *policies*
on the simulated address space:

``PtmallocLike``
    One arena per NUMA domain (our proxy for first-touch placement), a bump
    "top" pointer, per-chunk 16-byte headers, 16-byte size-class rounding,
    and LIFO bins per size class guarded by an arena lock (a constant extra
    cost per operation).  All object sizes share the arena, so consecutive
    allocations of different types interleave in memory — the locality
    property the pool allocator's columnar layout avoids.

``JemallocLike``
    Per-thread arenas with slab ("run") allocation: each (thread, size
    class) carves objects from slabs, so same-type objects are locally
    contiguous and lock traffic is low, at the price of size-class internal
    fragmentation and per-slab metadata.
"""

from __future__ import annotations

import numpy as np

from repro.mem.address_space import AddressSpace
from repro.mem.base import Allocator

__all__ = ["PtmallocLike", "JemallocLike"]

_PT_HEADER = 16
_PT_COST_ALLOC = 95.0   # lock + bin lookup
_PT_COST_FREE = 85.0
_PT_ARENA_CHUNK = 1 << 17  # per-arena growth granularity (touched pages)

_JE_COST_ALLOC = 70.0   # mostly lock-free fast path
_JE_COST_FREE = 62.0
_JE_SLAB_MIN = 1 << 14
_JE_SLAB_META_FRACTION = 0.02
_JE_LARGE_THRESHOLD = 1 << 14


def _pt_size_class(size: int) -> int:
    """ptmalloc2 rounds requests to 16-byte multiples (incl. header)."""
    return -(-(size + _PT_HEADER) // 16) * 16


def _je_size_class(size: int) -> int:
    """jemalloc size classes: 16-byte spacing to 128, then 1.25x spacing."""
    if size <= 16:
        return 16
    if size <= 128:
        return -(-size // 16) * 16
    # Four classes per power-of-two group.
    group = 1 << (int(size - 1).bit_length() - 1)
    step = group // 4
    return -(-size // step) * step


class PtmallocLike(Allocator):
    """glibc ptmalloc2 model: shared arena, binned free lists, chunk headers."""

    name = "ptmalloc2"
    #: Arena mutexes serialize most concurrent malloc/free traffic.
    parallel_scalability = 0.08

    def __init__(self, address_space: AddressSpace):
        super().__init__()
        self.space = address_space
        # Arena bump cursors: (domain, arena index) -> [top, room].
        self._arenas: dict[tuple[int, int], list[int]] = {}
        # Per-domain bins: size class -> LIFO list of user addresses.
        self._bins: list[dict[int, list[int]]] = [
            {} for _ in range(address_space.num_domains)
        ]

    def state(self) -> dict:
        return {
            **super().state(),
            "arenas": [[d, a, *cur] for (d, a), cur in self._arenas.items()],
            "bins": [{str(cls): np.array(b, dtype=np.int64)
                      for cls, b in bins.items()} for bins in self._bins],
        }

    def load_state(self, state: dict) -> None:
        super().load_state(state)
        self._arenas = {(int(d), int(a)): [int(top), int(room)]
                        for d, a, top, room in state["arenas"]}
        self._bins = [{int(cls): b.tolist() for cls, b in bins.items()}
                      for bins in state["bins"]]

    def _bump(self, domain: int, arena: int, cls: int) -> int:
        state = self._arenas.setdefault((domain, arena), [0, 0])
        if state[1] < cls:
            chunk = max(_PT_ARENA_CHUNK, cls)
            state[0] = self.space.reserve(chunk, domain)
            state[1] = chunk
            self.stats.note_reserved(chunk)
        addr = state[0] + _PT_HEADER
        state[0] += cls
        state[1] -= cls
        return addr

    def allocate(self, size: int, domain: int = 0, thread: int = 0) -> int:
        cls = _pt_size_class(size)
        self.stats.cycles += _PT_COST_ALLOC
        self.stats.allocations += 1
        self.stats.note_live(size)
        bin_ = self._bins[domain].get(cls)
        if bin_:
            return bin_.pop()
        return self._bump(domain, thread % self.PARALLEL_ARENAS, cls)

    def free(self, addr: int, size: int, domain: int = 0, thread: int = 0) -> None:
        cls = _pt_size_class(size)
        self._bins[domain].setdefault(cls, []).append(addr)
        self.stats.cycles += _PT_COST_FREE
        self.stats.frees += 1
        self.stats.note_live(-size)

    #: Concurrent threads allocate from distinct arenas; a parallel bulk
    #: allocation therefore interleaves this many contiguous streams, so
    #: logically-consecutive objects land megabytes apart — the layout
    #: cost the pool allocator's per-domain segments avoid (§4.3).
    PARALLEL_ARENAS = 8

    def allocate_many(self, size: int, count: int, domain: int = 0, thread: int = 0):
        import numpy as np

        if count <= 0:
            return np.empty(0, dtype=np.int64)
        ways = min(self.PARALLEL_ARENAS, count)
        cls = _pt_size_class(size)
        out = np.empty(count, dtype=np.int64)
        bin_ = self._bins[domain].setdefault(cls, [])
        for w in range(ways):
            # Stream w serves the storage positions w, w+ways, w+2*ways, ...
            positions = np.arange(w, count, ways, dtype=np.int64)
            take = len(positions)
            from_bin = min(len(bin_), take)
            for k in range(from_bin):
                out[positions[k]] = bin_.pop()
            for k in range(from_bin, take):
                out[positions[k]] = self._bump(domain, w, cls)
        self.stats.cycles += _PT_COST_ALLOC * count
        self.stats.allocations += count
        self.stats.note_live(size * count)
        return out


class JemallocLike(Allocator):
    """jemalloc model: per-thread arenas with slab runs per size class."""

    name = "jemalloc"
    #: Thread caches make the fast path scale well; bin flushes contend.
    parallel_scalability = 0.55

    def __init__(self, address_space: AddressSpace):
        super().__init__()
        self.space = address_space
        # (thread, size class) -> [cursor, end]
        self._runs: dict[tuple[int, int], list[int]] = {}
        # (domain, size class) -> free list (thread caches flush here).
        self._bins: dict[tuple[int, int], list[int]] = {}

    def state(self) -> dict:
        return {
            **super().state(),
            "runs": [[t, cls, *run] for (t, cls), run in self._runs.items()],
            "bins": [[d, cls, np.array(b, dtype=np.int64)]
                     for (d, cls), b in self._bins.items()],
        }

    def load_state(self, state: dict) -> None:
        super().load_state(state)
        self._runs = {(int(t), int(cls)): [int(cur), int(end)]
                      for t, cls, cur, end in state["runs"]}
        self._bins = {(int(d), int(cls)): b.tolist()
                      for d, cls, b in state["bins"]}

    def allocate(self, size: int, domain: int = 0, thread: int = 0) -> int:
        cls = _je_size_class(size)
        self.stats.cycles += _JE_COST_ALLOC
        self.stats.allocations += 1
        self.stats.note_live(size)
        bin_ = self._bins.get((domain, cls))
        if bin_:
            return bin_.pop()
        if cls >= _JE_LARGE_THRESHOLD:
            # Large allocations bypass slabs (jemalloc's "large" class).
            base = self.space.reserve(cls, domain)
            self.stats.note_reserved(cls)
            return base
        key = (thread, cls)
        run = self._runs.get(key)
        if run is None or run[0] + cls > run[1]:
            slab = max(_JE_SLAB_MIN, cls * 8)
            base = self.space.reserve(slab, domain)
            self.stats.note_reserved(slab)
            meta = int(slab * _JE_SLAB_META_FRACTION)
            run = [base + meta, base + slab]
            self._runs[key] = run
        addr = run[0]
        run[0] += cls
        return addr

    def free(self, addr: int, size: int, domain: int = 0, thread: int = 0) -> None:
        cls = _je_size_class(size)
        self._bins.setdefault((domain, cls), []).append(addr)
        self.stats.cycles += _JE_COST_FREE
        self.stats.frees += 1
        self.stats.note_live(-size)

    #: Parallel bulk allocations interleave this many per-thread arenas —
    #: fewer and with smaller (slab-sized) gaps than ptmalloc2, so the
    #: resulting layout sits between ptmalloc2 and the pool allocator.
    PARALLEL_ARENAS = 4

    def allocate_many(self, size: int, count: int, domain: int = 0, thread: int = 0):
        import numpy as np

        if count <= 0:
            return np.empty(0, dtype=np.int64)
        ways = min(self.PARALLEL_ARENAS, count)
        out = np.empty(count, dtype=np.int64)
        for w in range(ways):
            positions = np.arange(w, count, ways, dtype=np.int64)
            for k in range(len(positions)):
                out[positions[k]] = self.allocate(size, domain, thread=thread + w)
        return out
