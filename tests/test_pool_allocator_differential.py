"""The array-backed pool allocator against its frozen list-backed copy.

:class:`repro.mem.pool_allocator.NumaPoolAllocator` keeps its free lists
as int64 arrays; ``tests/pool_allocator_reference.py`` keeps the Python
lists they replaced.  Driven by the same seeded mix of single and bulk
allocations and frees -- over several threads and NUMA domains, with
private lists overflowing into the central one and refilling from it --
both must return the same addresses in the same order and end every
operation with the same ``stats`` and the same free-list lengths.
"""

import numpy as np
import pytest

from repro.mem import AddressSpace
from repro.mem.pool_allocator import (
    _MIGRATION_BATCH,
    _PRIVATE_LIST_LIMIT,
    NumaPoolAllocator,
    _Stack,
)
from tests.pool_allocator_reference import ListPoolAllocator


def pair(domains=2, element_size=136, **kwargs):
    """The allocator under test and the reference, over twin spaces."""
    return (NumaPoolAllocator(AddressSpace(domains), element_size, **kwargs),
            ListPoolAllocator(AddressSpace(domains), element_size, **kwargs))


def assert_same_state(new, ref):
    assert new.stats == ref.stats
    assert new.central_free_nodes == ref.central_free_nodes
    for got, want in zip(new._domains, ref._domains):
        assert len(got.central) == len(want.central)
        assert sorted(got.private) == sorted(want.private)
        for thread, priv in got.private.items():
            assert len(priv) == len(want.private[thread])


def drive(seed, ops, domains=2, threads=3, **kwargs):
    """Run one seeded op mix through both allocators, comparing as it goes;
    returns the allocator under test."""
    rng = np.random.default_rng(seed)
    new, ref = pair(domains, **kwargs)
    live = [[] for _ in range(domains)]
    for _ in range(ops):
        d = int(rng.integers(domains))
        t = int(rng.integers(threads))
        kind = rng.choice(["allocate", "free", "allocate_many", "free_many"],
                          p=[0.3, 0.3, 0.2, 0.2])
        if kind == "allocate":
            got, want = new.allocate(64, d, t), ref.allocate(64, d, t)
            assert got == want
            live[d].append(got)
        elif kind == "allocate_many":
            count = int(rng.choice([0, 1, 63, 64, 65, 300, 2000]))
            got = new.allocate_many(64, count, d, t)
            want = ref.allocate_many(64, count, d, t)
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want)
            live[d].extend(got.tolist())
        elif live[d]:
            rng.shuffle(live[d])
            if kind == "free":
                addr = live[d].pop()
                new.free(addr, 64, d, t)
                ref.free(addr, 64, d, t)
            else:
                k = int(rng.integers(1, len(live[d]) + 1))
                addrs = np.array(live[d][-k:], dtype=np.int64)
                del live[d][-k:]
                new.free_many(addrs, 64, d, t)
                ref.free_many(addrs, 64, d, t)
        assert_same_state(new, ref)
    return new


class TestAgainstListReference:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_op_mix(self, seed):
        new = drive(seed, ops=600)
        assert new.central_migrations > 0

    def test_private_overflow_and_refill(self):
        # Frees on one thread overflow its private list into central; a
        # second thread's single allocations then refill from central.
        new, ref = pair(domains=1)
        addrs = ref.allocate_many(64, 3 * _PRIVATE_LIST_LIMIT)
        assert np.array_equal(new.allocate_many(64, len(addrs)), addrs)
        for a in addrs.tolist():
            new.free(a, thread=0)
            ref.free(a, thread=0)
            assert_same_state(new, ref)
        assert new.central_free_nodes >= _MIGRATION_BATCH
        for _ in range(2 * _MIGRATION_BATCH + 5):
            assert new.allocate(64, thread=1) == ref.allocate(64, thread=1)
            assert_same_state(new, ref)

    def test_sort_cycle(self):
        # Agent sorting's pattern: allocate everyone fresh, free the old
        # copies in bulk, repeat -- the central list is the whole population.
        new, ref = pair(domains=1)
        old = ref.allocate_many(64, 5000)
        new.allocate_many(64, 5000)
        for _ in range(4):
            fresh = new.allocate_many(64, 5000)
            assert np.array_equal(fresh, ref.allocate_many(64, 5000))
            new.free_many(old, 64)
            ref.free_many(old, 64)
            assert_same_state(new, ref)
            old = fresh

    def test_large_elements_cross_segments(self):
        # Large elements: few per segment, so carving crosses segments and
        # blocks within one allocate_many.
        drive(11, ops=300, element_size=2000, domains=1)


class TestStack:
    def test_list_semantics(self):
        stack, ref = _Stack(), []
        rng = np.random.default_rng(0)
        for step in range(2000):
            if rng.random() < 0.6:
                vals = rng.integers(0, 1 << 50, int(rng.integers(0, 100)))
                stack.extend(vals)
                ref.extend(vals.tolist())
                stack.push(step)
                ref.append(step)
            elif ref:
                k = int(rng.integers(1, 150))
                assert np.array_equal(stack.take(k), ref[-k:])
                del ref[-k:]
                if ref:
                    assert stack.pop() == ref.pop()
            assert len(stack) == len(ref)
