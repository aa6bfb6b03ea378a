"""Frozen copy of the pool allocator with Python-list free lists.

:class:`repro.mem.pool_allocator.NumaPoolAllocator` keeps its central and
thread-private free lists as growable int64 arrays.  This module keeps the
list implementation it replaced, operation for operation, so that
``tests/test_pool_allocator_differential.py`` can hold the array-backed
allocator to the same address sequences, ``stats`` and free-list lengths.
Do not edit it to follow the engine: it is the reference.
"""

from __future__ import annotations

import numpy as np

from repro.mem.address_space import PAGE_SIZE
from repro.mem.base import Allocator

_COST_PRIVATE_OP = 22.0
_COST_CARVE = 28.0
_COST_CENTRAL_MIGRATION = 240.0
_COST_BLOCK_RESERVE = 9_000.0
_MIGRATION_BATCH = 64
_PRIVATE_LIST_LIMIT = 256


class _DomainPool:
    def __init__(self, element_size, aligned_pages_shift, initial_block_bytes):
        self.element_size = element_size
        self.segment_bytes = (1 << aligned_pages_shift) * PAGE_SIZE
        self.metadata_bytes = 8
        per_seg = (self.segment_bytes - self.metadata_bytes) // element_size
        if per_seg < 1:
            raise ValueError("element size exceeds segment capacity")
        self.elements_per_segment = per_seg
        self.next_block_bytes = max(initial_block_bytes, self.segment_bytes * 2)
        self.central: list[int] = []
        self.private: dict[int, list[int]] = {}
        self._carve_addr = 0
        self._carve_seg_end = 0
        self._block_end = 0


class ListPoolAllocator(Allocator):
    """The list-backed ``NumaPoolAllocator``, verbatim but for its name."""

    name = "bdm-list"

    def __init__(self, address_space, element_size, growth_rate=2.0,
                 aligned_pages_shift=5, initial_block_bytes=1 << 18):
        super().__init__()
        self.space = address_space
        self.element_size = int(element_size)
        self.growth_rate = growth_rate
        self.aligned_pages_shift = aligned_pages_shift
        self._domains = [
            _DomainPool(self.element_size, aligned_pages_shift,
                        initial_block_bytes)
            for _ in range(address_space.num_domains)
        ]

    @property
    def max_allocation(self):
        return (1 << self.aligned_pages_shift) * PAGE_SIZE - 8

    @property
    def central_free_nodes(self):
        return sum(len(p.central) for p in self._domains)

    def _reserve_block(self, pool, domain):
        raw = self.space.reserve(pool.next_block_bytes, domain)
        self.stats.note_reserved(pool.next_block_bytes)
        self.stats.cycles += _COST_BLOCK_RESERVE
        seg = pool.segment_bytes
        aligned_start = -(-raw // seg) * seg
        aligned_end = ((raw + pool.next_block_bytes) // seg) * seg
        pool._carve_seg_end = aligned_start
        pool._carve_addr = aligned_start
        pool._block_end = aligned_end
        pool.next_block_bytes = int(pool.next_block_bytes * self.growth_rate)

    def _carve_one(self, pool, domain):
        if pool._carve_addr + self.element_size > pool._carve_seg_end:
            if pool._carve_seg_end + pool.segment_bytes > pool._block_end:
                self._reserve_block(pool, domain)
            next_seg = pool._carve_seg_end
            pool._carve_seg_end = next_seg + pool.segment_bytes
            pool._carve_addr = next_seg + pool.metadata_bytes
        addr = pool._carve_addr
        pool._carve_addr += self.element_size
        self.stats.cycles += _COST_CARVE
        return addr

    def allocate(self, size, domain=0, thread=0):
        if size > self.max_allocation:
            raise ValueError("allocation exceeds N*page_size - metadata_size")
        pool = self._domains[domain]
        priv = pool.private.setdefault(thread, [])
        self.stats.cycles += _COST_PRIVATE_OP
        if not priv:
            if pool.central:
                batch = pool.central[-_MIGRATION_BATCH:]
                del pool.central[-_MIGRATION_BATCH:]
                priv.extend(batch)
                self.stats.cycles += _COST_CENTRAL_MIGRATION
                self.stats.central_migrations += 1
            else:
                self.stats.allocations += 1
                self.stats.note_live(self.element_size)
                return self._carve_one(pool, domain)
        self.stats.allocations += 1
        self.stats.note_live(self.element_size)
        return priv.pop()

    def free(self, addr, size=0, domain=0, thread=0):
        pool = self._domains[domain]
        priv = pool.private.setdefault(thread, [])
        priv.append(addr)
        self.stats.cycles += _COST_PRIVATE_OP
        self.stats.frees += 1
        self.stats.note_live(-self.element_size)
        if len(priv) > _PRIVATE_LIST_LIMIT:
            batch = priv[-_MIGRATION_BATCH:]
            del priv[-_MIGRATION_BATCH:]
            pool.central.extend(batch)
            self.stats.cycles += _COST_CENTRAL_MIGRATION
            self.stats.central_migrations += 1

    def allocate_many(self, size, count, domain=0, thread=0):
        pool = self._domains[domain]
        out = np.empty(count, dtype=np.int64)
        filled = 0
        priv = pool.private.setdefault(thread, [])
        take = min(len(priv), count)
        if take:
            out[:take] = priv[-take:]
            del priv[-take:]
            self.stats.cycles += _COST_PRIVATE_OP * take
            filled = take
        if filled < count and pool.central:
            take = min(len(pool.central), count - filled)
            out[filled : filled + take] = pool.central[-take:]
            del pool.central[-take:]
            self.stats.cycles += _COST_CENTRAL_MIGRATION * (1 + take // _MIGRATION_BATCH)
            self.stats.central_migrations += 1 + take // _MIGRATION_BATCH
            filled += take
        while filled < count:
            if pool._carve_addr + self.element_size > pool._carve_seg_end:
                self._carve_one(pool, domain)
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

    def free_many(self, addrs, size=0, domain=0, thread=0):
        addrs = np.asarray(addrs, dtype=np.int64)
        pool = self._domains[domain]
        pool.central.extend(int(a) for a in addrs)
        self.stats.cycles += _COST_CENTRAL_MIGRATION * (1 + len(addrs) // _MIGRATION_BATCH)
        self.stats.central_migrations += 1 + len(addrs) // _MIGRATION_BATCH
        self.stats.frees += len(addrs)
        self.stats.note_live(-len(addrs) * self.element_size)
