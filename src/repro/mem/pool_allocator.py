"""BioDynaMo's NUMA-aware pool memory allocator (paper §4.3, Fig. 4).

One :class:`NumaPoolAllocator` exists per element size, so agents and
behaviors of distinct sizes are segregated and stored in a columnar way.
Each allocator keeps per-NUMA-domain state:

- memory **blocks** reserved from the domain's address range with
  exponentially increasing sizes (``mem_mgr_growth_rate``);
- blocks are divided into **N-page aligned segments**
  (``N = 2**mem_mgr_aligned_pages_shift``); the first 8 bytes of every
  segment hold a pointer back to the owning allocator, so deallocation is
  constant-time from the address alone.  Elements never cross segment
  borders.  Alignment of the (unaligned) OS reservation plus the tail
  element plus the metadata bound the waste by
  ``N*page_size + element_size + 8`` per block, as derived in the paper;
- a **central free list** and **thread-private free lists**; when a private
  list exceeds a threshold, a bulk of nodes migrates to the central list
  (the paper's skip lists make this O(1); we charge a constant cost).
  Each list is a :class:`_Stack` -- one growable int64 array and a length
  -- so a bulk free or allocation is one array copy, not one Python int
  per node; ``tests/pool_allocator_reference.py`` keeps the list-backed
  version whose address sequences it reproduces.

Initialization of fresh memory is on demand ("carving"), in segment-sized
chunks, to bound worst-case allocation latency.
"""

from __future__ import annotations

import numpy as np

from repro.mem.address_space import AddressSpace, PAGE_SIZE
from repro.mem.base import Allocator

__all__ = ["NumaPoolAllocator", "PoolAllocatorSet"]

# Operation costs in cycles (constant-time paths of the paper's design).
_COST_PRIVATE_OP = 22.0      # pop/push on a thread-private list
_COST_CARVE = 28.0           # initialize one fresh element
_COST_CENTRAL_MIGRATION = 240.0  # bulk move between central and private lists
_COST_BLOCK_RESERVE = 9_000.0    # numa_alloc_onnode for a new block

#: Number of nodes moved per central<->private migration.
_MIGRATION_BATCH = 64

#: A private list longer than this many nodes triggers migration to central.
_PRIVATE_LIST_LIMIT = 256


class _Stack:
    """A LIFO free list: one growable int64 array plus a length.

    Keeps the order of the Python list it replaced: :meth:`push` and
    :meth:`extend` append, :meth:`pop` and :meth:`take` remove from the
    end, and :meth:`take` returns the removed entries in stored order.
    """

    __slots__ = ("_buf", "_n")

    def __init__(self):
        self._buf = np.empty(0, dtype=np.int64)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def _reserve(self, extra: int) -> None:
        need = self._n + extra
        if need > len(self._buf):
            grown = np.empty(max(need, 2 * len(self._buf), 64), dtype=np.int64)
            grown[: self._n] = self._buf[: self._n]
            self._buf = grown

    def push(self, addr) -> None:
        self._reserve(1)
        self._buf[self._n] = addr
        self._n += 1

    def extend(self, addrs: np.ndarray) -> None:
        k = len(addrs)
        self._reserve(k)
        self._buf[self._n : self._n + k] = addrs
        self._n += k

    def pop(self) -> int:
        self._n -= 1
        return int(self._buf[self._n])

    def array(self) -> np.ndarray:
        """The entries in stored order (a view, like :meth:`take`'s)."""
        return self._buf[: self._n]

    @classmethod
    def of(cls, addrs) -> "_Stack":
        """A stack holding ``addrs`` in stored order."""
        stack = cls()
        stack.extend(np.asarray(addrs, dtype=np.int64))
        return stack

    def take(self, k: int) -> np.ndarray:
        """Remove the last ``k`` entries and return them in stored order
        (a view: copy it before the next push onto this list)."""
        k = min(k, self._n)
        self._n -= k
        return self._buf[self._n : self._n + k]


class _DomainPool:
    """Per-NUMA-domain state of a :class:`NumaPoolAllocator`."""

    def __init__(self, element_size: int, aligned_pages_shift: int, initial_block_bytes: int):
        self.element_size = element_size
        self.segment_bytes = (1 << aligned_pages_shift) * PAGE_SIZE
        self.metadata_bytes = 8
        per_seg = (self.segment_bytes - self.metadata_bytes) // element_size
        if per_seg < 1:
            raise ValueError(
                f"element size {element_size} exceeds segment capacity "
                f"{self.segment_bytes - self.metadata_bytes}"
            )
        self.elements_per_segment = per_seg
        self.next_block_bytes = max(initial_block_bytes, self.segment_bytes * 2)
        self.central = _Stack()
        self.private: dict[int, _Stack] = {}
        # Carving cursor within the current segment, and remaining aligned
        # segment range of the current block.
        self._carve_addr = 0
        self._carve_seg_end = 0
        self._block_end = 0

    def aligned_remaining(self) -> int:
        return self._block_end - self._carve_seg_end

    def state(self) -> dict:
        """Block size, carving cursors and free lists (thread-keyed)."""
        return {
            "next_block_bytes": self.next_block_bytes,
            "carve": [self._carve_addr, self._carve_seg_end, self._block_end],
            "central": self.central.array(),
            "private": {str(t): p.array() for t, p in self.private.items()},
        }

    def load_state(self, state: dict) -> None:
        self.next_block_bytes = int(state["next_block_bytes"])
        self._carve_addr, self._carve_seg_end, self._block_end = (
            int(x) for x in state["carve"])
        self.central = _Stack.of(state["central"])
        self.private = {int(t): _Stack.of(a)
                        for t, a in state["private"].items()}

    def private_list(self, thread: int) -> _Stack:
        """Thread ``thread``'s private free list (created empty)."""
        priv = self.private.get(thread)
        if priv is None:
            priv = self.private[thread] = _Stack()
        return priv


class NumaPoolAllocator(Allocator):
    """Pool allocator for a single element size across NUMA domains."""

    name = "bdm"

    def __init__(
        self,
        address_space: AddressSpace,
        element_size: int,
        growth_rate: float = 2.0,
        aligned_pages_shift: int = 5,
        initial_block_bytes: int = 1 << 18,
    ):
        super().__init__()
        if growth_rate < 1.0:
            raise ValueError("mem_mgr_growth_rate must be >= 1.0")
        self.space = address_space
        self.element_size = int(element_size)
        self.growth_rate = growth_rate
        self.aligned_pages_shift = aligned_pages_shift
        self._domains = [
            _DomainPool(self.element_size, aligned_pages_shift, initial_block_bytes)
            for _ in range(address_space.num_domains)
        ]

    @property
    def max_allocation(self) -> int:
        """Allocation size limit imposed by the segment design."""
        seg = (1 << self.aligned_pages_shift) * PAGE_SIZE
        return seg - 8

    @property
    def central_free_nodes(self) -> int:
        """Nodes currently on the central free lists (all domains)."""
        return sum(len(p.central) for p in self._domains)

    @property
    def central_migrations(self) -> int:
        """Bulk moves between private and central free lists so far."""
        return self.stats.central_migrations

    def state(self) -> dict:
        return {**super().state(),
                "domains": [pool.state() for pool in self._domains]}

    def load_state(self, state: dict) -> None:
        super().load_state(state)
        if len(state["domains"]) != len(self._domains):
            raise ValueError("allocator state has another domain count")
        for pool, saved in zip(self._domains, state["domains"]):
            pool.load_state(saved)

    # ------------------------------------------------------------------ #

    def _reserve_block(self, pool: _DomainPool, domain: int) -> None:
        raw = self.space.reserve(pool.next_block_bytes, domain)
        self.stats.note_reserved(pool.next_block_bytes)
        self.stats.cycles += _COST_BLOCK_RESERVE
        seg = pool.segment_bytes
        # numa_alloc_onnode is not N-page aligned: usable aligned range
        # starts at the first segment boundary inside the reservation.
        aligned_start = -(-raw // seg) * seg
        aligned_end = ((raw + pool.next_block_bytes) // seg) * seg
        pool._carve_seg_end = aligned_start  # nothing carved yet
        pool._carve_addr = aligned_start
        pool._block_end = aligned_end
        pool.next_block_bytes = int(pool.next_block_bytes * self.growth_rate)

    def _carve_one(self, pool: _DomainPool, domain: int) -> int:
        """Take one fresh element from the current segment, on demand."""
        if pool._carve_addr + self.element_size > pool._carve_seg_end:
            # Advance to the next aligned segment (or reserve a new block).
            if pool._carve_seg_end + pool.segment_bytes > pool._block_end:
                self._reserve_block(pool, domain)
            next_seg = pool._carve_seg_end
            pool._carve_seg_end = next_seg + pool.segment_bytes
            pool._carve_addr = next_seg + pool.metadata_bytes
        addr = pool._carve_addr
        pool._carve_addr += self.element_size
        self.stats.cycles += _COST_CARVE
        return addr

    def allocate(self, size: int, domain: int = 0, thread: int = 0) -> int:
        if size > self.max_allocation:
            raise ValueError("allocation exceeds N*page_size - metadata_size")
        pool = self._domains[domain]
        priv = pool.private_list(thread)
        self.stats.cycles += _COST_PRIVATE_OP
        if not priv:
            if pool.central:
                # Refill a batch from the central list (skip-list bulk move).
                priv.extend(pool.central.take(_MIGRATION_BATCH))
                self.stats.cycles += _COST_CENTRAL_MIGRATION
                self.stats.central_migrations += 1
            else:
                self.stats.allocations += 1
                self.stats.note_live(self.element_size)
                return self._carve_one(pool, domain)
        self.stats.allocations += 1
        self.stats.note_live(self.element_size)
        return priv.pop()

    def free(self, addr: int, size: int = 0, domain: int = 0, thread: int = 0) -> None:
        pool = self._domains[domain]
        priv = pool.private_list(thread)
        priv.push(addr)
        self.stats.cycles += _COST_PRIVATE_OP
        self.stats.frees += 1
        self.stats.note_live(-self.element_size)
        if len(priv) > _PRIVATE_LIST_LIMIT:
            # Migrate a bulk back to the central list to avoid memory leaks
            # across threads (paper: skip lists make this constant-time).
            pool.central.extend(priv.take(_MIGRATION_BATCH))
            self.stats.cycles += _COST_CENTRAL_MIGRATION
            self.stats.central_migrations += 1

    # ------------------------------------------------------------------ #

    def allocate_many(self, size: int, count: int, domain: int = 0, thread: int = 0) -> np.ndarray:
        """Vectorized allocation; carves contiguous runs where possible."""
        pool = self._domains[domain]
        out = np.empty(count, dtype=np.int64)
        filled = 0
        priv = pool.private_list(thread)
        # Reuse freed elements first (LIFO), then central, then carve runs.
        take = min(len(priv), count)
        if take:
            out[:take] = priv.take(take)
            self.stats.cycles += _COST_PRIVATE_OP * take
            filled = take
        if filled < count and pool.central:
            take = min(len(pool.central), count - filled)
            out[filled : filled + take] = pool.central.take(take)
            self.stats.cycles += _COST_CENTRAL_MIGRATION * (1 + take // _MIGRATION_BATCH)
            self.stats.central_migrations += 1 + take // _MIGRATION_BATCH
            filled += take
        while filled < count:
            # Carve the rest of the current segment in one vector op.
            if pool._carve_addr + self.element_size > pool._carve_seg_end:
                self._carve_one(pool, domain)  # advances segment; returns one elem
                out[filled] = pool._carve_addr - self.element_size
                filled += 1
                continue
            room = (pool._carve_seg_end - pool._carve_addr) // self.element_size
            take = min(room, count - filled)
            out[filled : filled + take] = (
                pool._carve_addr + np.arange(take, dtype=np.int64) * self.element_size
            )
            pool._carve_addr += take * self.element_size
            self.stats.cycles += _COST_CARVE * take
            filled += take
        self.stats.allocations += count
        self.stats.note_live(count * self.element_size)
        return out

    def free_many(self, addrs, size: int = 0, domain: int = 0, thread: int = 0) -> None:
        """Bulk free straight to the central list (skip-list bulk move)."""
        addrs = np.asarray(addrs, dtype=np.int64)
        pool = self._domains[domain]
        pool.central.extend(addrs)
        self.stats.cycles += _COST_CENTRAL_MIGRATION * (1 + len(addrs) // _MIGRATION_BATCH)
        self.stats.central_migrations += 1 + len(addrs) // _MIGRATION_BATCH
        self.stats.frees += len(addrs)
        self.stats.note_live(-len(addrs) * self.element_size)


class PoolAllocatorSet(Allocator):
    """Routes allocations to one :class:`NumaPoolAllocator` per size.

    This mirrors BioDynaMo creating "multiple instances of these allocators
    because they can only return memory elements of one size".
    """

    name = "bdm"

    def __init__(self, address_space: AddressSpace, growth_rate: float = 2.0,
                 aligned_pages_shift: int = 5):
        super().__init__()
        self.space = address_space
        self.growth_rate = growth_rate
        self.aligned_pages_shift = aligned_pages_shift
        self._pools: dict[int, NumaPoolAllocator] = {}

    def _pool(self, size: int) -> NumaPoolAllocator:
        size = int(size)
        if size not in self._pools:
            self._pools[size] = NumaPoolAllocator(
                self.space,
                size,
                growth_rate=self.growth_rate,
                aligned_pages_shift=self.aligned_pages_shift,
            )
        return self._pools[size]

    def state(self) -> dict:
        return {**super().state(),
                "pools": {str(size): p.state() for size, p in self._pools.items()}}

    def load_state(self, state: dict) -> None:
        super().load_state(state)
        self._pools = {}
        for size, saved in state["pools"].items():
            self._pool(int(size)).load_state(saved)

    def allocate(self, size: int, domain: int = 0, thread: int = 0) -> int:
        return self._pool(size).allocate(size, domain, thread)

    def free(self, addr: int, size: int, domain: int = 0, thread: int = 0) -> None:
        self._pool(size).free(addr, size, domain, thread)

    def allocate_many(self, size: int, count: int, domain: int = 0, thread: int = 0):
        return self._pool(size).allocate_many(size, count, domain, thread)

    def free_many(self, addrs, size: int, domain: int = 0, thread: int = 0) -> None:
        """Bulk free via the pool of this size class."""
        self._pool(size).free_many(addrs, size, domain, thread)

    def drain_cycles(self) -> float:
        c = self.stats.cycles + sum(p.stats.cycles for p in self._pools.values())
        self.stats.cycles = 0.0
        for p in self._pools.values():
            p.stats.cycles = 0.0
        return c

    @property
    def allocations(self) -> int:
        return sum(p.stats.allocations for p in self._pools.values())

    @property
    def frees(self) -> int:
        return sum(p.stats.frees for p in self._pools.values())

    @property
    def central_free_nodes(self) -> int:
        """Nodes on the central free lists, across all size classes."""
        return sum(p.central_free_nodes for p in self._pools.values())

    @property
    def central_migrations(self) -> int:
        """Private<->central bulk moves, across all size classes."""
        return sum(p.stats.central_migrations for p in self._pools.values())

    @property
    def reserved_bytes(self) -> int:
        return sum(p.stats.reserved_bytes for p in self._pools.values())

    @property
    def peak_reserved_bytes(self) -> int:
        return sum(p.stats.peak_reserved_bytes for p in self._pools.values())

    @property
    def live_bytes(self) -> int:
        return sum(p.stats.live_bytes for p in self._pools.values())

    @property
    def peak_live_bytes(self) -> int:
        return sum(p.stats.peak_live_bytes for p in self._pools.values())
