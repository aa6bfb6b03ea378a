"""Tests for the simulated address space and allocators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mem import (
    AddressSpace,
    JemallocLike,
    NumaPoolAllocator,
    PoolAllocatorSet,
    PtmallocLike,
    make_allocator,
)
from repro.mem.address_space import PAGE_SIZE
from repro.mem.malloc_baselines import _je_size_class, _pt_size_class


class TestAddressSpace:
    def test_disjoint_domains(self):
        sp = AddressSpace(4)
        addrs = [sp.reserve(1024, d) for d in range(4)]
        np.testing.assert_array_equal(sp.domain_of(addrs), [0, 1, 2, 3])

    def test_reservations_do_not_overlap(self):
        sp = AddressSpace(1)
        a = sp.reserve(1000)
        b = sp.reserve(1000)
        assert b >= a + 1000

    def test_never_returns_null(self):
        sp = AddressSpace(1)
        assert sp.reserve(10) > 0

    def test_bad_domain(self):
        sp = AddressSpace(2)
        with pytest.raises(ValueError):
            sp.reserve(10, 2)

    def test_bad_size(self):
        sp = AddressSpace(1)
        with pytest.raises(ValueError):
            sp.reserve(0)

    def test_tracks_reserved(self):
        sp = AddressSpace(1)
        sp.reserve(100)
        sp.reserve(200)
        assert sp.reserved_bytes == 300


class TestPoolAllocator:
    def make(self, size=64, domains=1, **kw):
        return NumaPoolAllocator(AddressSpace(domains), size, **kw)

    def test_unique_addresses(self):
        al = self.make()
        addrs = {al.allocate(64) for _ in range(1000)}
        assert len(addrs) == 1000

    def test_reuse_after_free(self):
        al = self.make()
        a = al.allocate(64)
        al.free(a, 64)
        assert al.allocate(64) == a  # LIFO thread-private reuse

    def test_columnar_contiguity(self):
        # Fresh pool allocations are tightly packed (the locality property).
        al = self.make(size=64)
        addrs = al.allocate_many(64, 500)
        gaps = np.diff(np.sort(addrs))
        assert np.median(gaps) == 64

    def test_elements_do_not_cross_segment_borders(self):
        al = self.make(size=48, aligned_pages_shift=1)  # 8 KiB segments
        seg = 2 * PAGE_SIZE
        addrs = al.allocate_many(48, 2000)
        start_seg = addrs // seg
        end_seg = (addrs + 48 - 1) // seg
        np.testing.assert_array_equal(start_seg, end_seg)

    def test_metadata_pointer_space_reserved(self):
        # No element may occupy the first 8 bytes of an aligned segment.
        al = self.make(size=64, aligned_pages_shift=1)
        addrs = al.allocate_many(64, 2000)
        seg = 2 * PAGE_SIZE
        assert np.all((addrs % seg) >= 8)

    def test_domain_placement(self):
        sp = AddressSpace(4)
        al = NumaPoolAllocator(sp, 64)
        for d in range(4):
            a = al.allocate(64, domain=d)
            assert sp.domain_of(a) == d

    def test_exponential_block_growth(self):
        al = self.make(size=64, initial_block_bytes=1 << 18, growth_rate=2.0)
        al.allocate_many(64, 100_000)  # forces several blocks
        assert al.stats.reserved_bytes > (1 << 18)

    def test_allocation_size_limit(self):
        # 32 pages per segment minus metadata: 64-page elements can't fit,
        # so the allocator for that size cannot even be constructed.
        with pytest.raises(ValueError):
            self.make(size=PAGE_SIZE * 64, aligned_pages_shift=5)

    def test_max_allocation_formula(self):
        al = self.make(size=64, aligned_pages_shift=3)
        assert al.max_allocation == 8 * PAGE_SIZE - 8

    def test_growth_rate_validation(self):
        with pytest.raises(ValueError):
            self.make(growth_rate=0.5)

    def test_waste_bounded(self):
        # Reserved-but-unusable memory stays a small fraction for many allocs.
        al = self.make(size=64)
        al.allocate_many(64, 50_000)
        live = al.stats.live_bytes
        assert live == 50_000 * 64
        # Exponential growth means reserved can be ~2x live, not more.
        assert al.stats.reserved_bytes <= 4 * live + (1 << 21)

    def test_free_many_recycles_to_central(self):
        al = self.make()
        addrs = al.allocate_many(64, 300)
        al.free_many(addrs, 64)
        again = al.allocate_many(64, 300)
        assert set(again.tolist()) <= set(addrs.tolist())

    def test_cycles_accumulate_and_drain(self):
        al = self.make()
        al.allocate(64)
        assert al.stats.cycles > 0
        c = al.drain_cycles()
        assert c > 0
        assert al.stats.cycles == 0

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.sampled_from(["alloc", "free"]), min_size=1, max_size=200))
    def test_no_double_handout_property(self, ops):
        al = self.make()
        live = []
        handed = set()
        for op in ops:
            if op == "alloc" or not live:
                a = al.allocate(64)
                assert a not in handed
                handed.add(a)
                live.append(a)
            else:
                a = live.pop()
                al.free(a, 64)
                handed.discard(a)


class TestPoolAllocatorSet:
    def test_sizes_segregated(self):
        s = PoolAllocatorSet(AddressSpace(1))
        a64 = s.allocate_many(64, 100)
        a128 = s.allocate_many(128, 100)
        # Different-size objects live in different pools (columnar layout):
        # address ranges don't interleave within a segment.
        assert abs(int(np.median(a64)) - int(np.median(a128))) > 4096

    def test_reserved_bytes_aggregates(self):
        s = PoolAllocatorSet(AddressSpace(1))
        s.allocate(64)
        s.allocate(128)
        assert s.reserved_bytes > 0
        assert s.live_bytes == 64 + 128

    def test_free_roundtrip(self):
        s = PoolAllocatorSet(AddressSpace(1))
        a = s.allocate(96)
        s.free(a, 96)
        assert s.live_bytes == 0


class TestSizeClasses:
    def test_ptmalloc_rounds_to_16(self):
        assert _pt_size_class(1) == 32  # 1 + 16 header -> 32
        assert _pt_size_class(48) == 64

    def test_jemalloc_small_classes(self):
        assert _je_size_class(1) == 16
        assert _je_size_class(100) == 112

    def test_jemalloc_large_spacing(self):
        assert _je_size_class(129) <= 192
        assert _je_size_class(1000) >= 1000

    @given(st.integers(1, 1 << 20))
    def test_classes_cover_request(self, size):
        assert _je_size_class(size) >= size
        assert _pt_size_class(size) >= size + 16


class TestBaselines:
    @pytest.mark.parametrize("cls", [PtmallocLike, JemallocLike])
    def test_unique_addresses(self, cls):
        al = cls(AddressSpace(2))
        addrs = {al.allocate(64, domain=1) for _ in range(500)}
        assert len(addrs) == 500

    @pytest.mark.parametrize("cls", [PtmallocLike, JemallocLike])
    def test_reuse_after_free(self, cls):
        al = cls(AddressSpace(1))
        a = al.allocate(64)
        al.free(a, 64)
        assert al.allocate(64) == a

    def test_ptmalloc_interleaves_mixed_sizes(self):
        # Two object types allocated alternately share the arena, so
        # same-type neighbors are farther apart than under the pool.
        pt = PtmallocLike(AddressSpace(1))
        pool = PoolAllocatorSet(AddressSpace(1))
        pt_a, pool_a = [], []
        for _ in range(200):
            pt_a.append(pt.allocate(64))
            pt.allocate(256)  # interloper
            pool_a.append(pool.allocate(64))
            pool.allocate(256)
        pt_gap = np.median(np.diff(pt_a))
        pool_gap = np.median(np.diff(np.sort(np.asarray(pool_a))))
        assert pool_gap < pt_gap

    def test_jemalloc_per_thread_runs(self):
        je = JemallocLike(AddressSpace(1))
        t0 = [je.allocate(64, thread=0) for _ in range(50)]
        t1 = [je.allocate(64, thread=1) for _ in range(50)]
        # Each thread's run is contiguous.
        assert np.all(np.diff(t0) == 64)
        assert np.all(np.diff(t1) == 64)

    def test_pool_allocation_cheaper_than_ptmalloc(self):
        pool = PoolAllocatorSet(AddressSpace(1))
        pt = PtmallocLike(AddressSpace(1))
        for _ in range(1000):
            pool.allocate(64)
            pt.allocate(64)
        assert pool.drain_cycles() < pt.drain_cycles()

    def test_factory(self):
        assert make_allocator("bdm").name == "bdm"
        assert make_allocator("ptmalloc2").name == "ptmalloc2"
        assert make_allocator("jemalloc").name == "jemalloc"
        with pytest.raises(ValueError):
            make_allocator("tcmalloc")  # deadlocked in the paper, not modeled


def _churn(allocator, rng, rounds, live):
    """``rounds`` random bulk and single allocations and frees over two
    sizes, every domain and two threads; ``live`` maps ``(size, domain)``
    to the addresses held.  Returns every address handed out, in order."""
    out = []
    domains = allocator.space.num_domains
    for _ in range(rounds):
        size = int(rng.choice([56, 136]))
        d, t = int(rng.integers(domains)), int(rng.integers(2))
        held = live.setdefault((size, d), [])
        if held and rng.random() < 0.4:
            k = int(rng.integers(1, len(held) + 1))
            freed, held[:] = held[-k:], held[:-k]
            if rng.random() < 0.5:
                allocator.free_many(freed, size, domain=d, thread=t)
            else:
                for a in freed:
                    allocator.free(a, size, domain=d, thread=t)
        else:
            got = [int(a) for a in allocator.allocate_many(
                size, int(rng.integers(1, 40)), domain=d, thread=t)]
            got.append(allocator.allocate(size, domain=d, thread=t))
            held.extend(got)
            out.extend(got)
    return out


class TestAllocatorState:
    """``state`` / ``load_state``: what a checkpoint carries so that a
    restored simulation's ``addr`` column continues exactly."""

    @pytest.mark.parametrize("kind", ["bdm", "ptmalloc2", "jemalloc"])
    def test_loaded_state_continues_the_address_sequence(self, kind):
        import copy
        import json

        from repro.core.checkpoint import _LIST, _encoder

        space = AddressSpace(2)
        saved = make_allocator(kind, 2, address_space=space)
        live = {}
        _churn(saved, np.random.default_rng(0), 300, live)
        # JSON scalars plus int64 arrays, nothing else: the checkpoint's
        # encoding of it.
        lists = []
        document = json.dumps(saved.state(), default=_encoder(lists))
        assert lists and all(a.dtype == np.int64 for a in lists)
        flat = np.concatenate(lists)
        state = json.loads(document, object_hook=lambda obj: (
            flat[slice(*obj[_LIST])] if _LIST in obj else obj))

        space2 = AddressSpace(2)
        space2.load_state(json.loads(json.dumps(space.state())))
        loaded = make_allocator(kind, 2, address_space=space2)
        loaded.load_state(state)
        assert loaded.reserved_bytes == saved.reserved_bytes
        assert loaded.allocations == saved.allocations

        live2 = copy.deepcopy(live)
        want = _churn(saved, np.random.default_rng(1), 300, live)
        got = _churn(loaded, np.random.default_rng(1), 300, live2)
        assert got == want
        assert space2.state() == space.state()
        assert (loaded.live_bytes, loaded.frees) == (saved.live_bytes,
                                                     saved.frees)

    def test_kind_and_domains_must_match(self):
        bdm = make_allocator("bdm", 1)
        with pytest.raises(ValueError, match="ptmalloc2"):
            bdm.load_state(make_allocator("ptmalloc2", 1).state())
        two = make_allocator("bdm", 2)
        two.allocate(64, domain=1)
        with pytest.raises(ValueError, match="domain"):
            bdm.load_state(two.state())
        with pytest.raises(ValueError, match="domains"):
            AddressSpace(1).load_state(AddressSpace(2).state())
