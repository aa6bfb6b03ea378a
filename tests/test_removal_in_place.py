"""The one-domain removal applies the §3.2 swap plan in place.

``ResourceManager._remove_indices`` moves each survivor past the new end
into a hole (``col[dst] = col[src]``) and shortens every column's view;
with more domains it gathers every column.  Both must leave the same
state: here against the gather path frozen as it was before the in-place
one (:func:`gather_remove_indices`), over hypothesis-drawn removal sets
and over 40 ``oncology`` ticks.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.removal import plan_removal
from repro.core.resource_manager import CommitStats, ResourceManager
from repro.mem import AddressSpace, PoolAllocatorSet
from repro.simulations import get_simulation
from repro.verify.snapshot import state_checksum


def gather_remove_indices(self, removed, parallel, num_threads, stats):
    """``ResourceManager._remove_indices`` before the in-place path: every
    domain's plan fused into one gather of every column."""
    doms = self.domain_of_index(removed)
    new_starts = np.zeros(self.num_domains + 1, dtype=np.int64)
    keep = np.empty(self.n - len(removed), dtype=np.int64)
    threads = num_threads if parallel else 1
    for d in range(self.num_domains):
        lo, hi = int(self.domain_starts[d]), int(self.domain_starts[d + 1])
        local = removed[doms == d] - lo
        seg_len = hi - lo
        plan = plan_removal(seg_len, local, num_threads=threads)
        if not parallel:
            stats.serial_scan_items += seg_len
        src, dst = plan.moves
        out = int(new_starts[d])
        g = keep[out : out + plan.new_size]
        g[:] = np.arange(lo, lo + plan.new_size, dtype=np.int64)
        g[dst] = src + lo
        new_starts[d + 1] = out + plan.new_size
    for name in self._columns:
        self._store(name, self.data[name][keep])
    self.n = int(new_starts[-1])
    self.structure_version += 1
    self.domain_starts = new_starts


def populated(n, seed):
    rm = ResourceManager(1, PoolAllocatorSet(AddressSpace(1)),
                         agent_size_bytes=128)
    rm.register_column("tag", np.int32, fill=-1)
    rng = np.random.default_rng(seed)
    if n:
        rm.add_agents_now({"position": rng.uniform(0, 100, (n, 3)),
                           "diameter": rng.uniform(5, 15, n),
                           "tag": rng.integers(0, 1 << 30, n,
                                               dtype=np.int32)})
    return rm


def state(rm):
    return ({name: rm.data[name].tobytes() for name in rm.data}, rm.n,
            rm.domain_starts.tolist(), rm.structure_version)


@st.composite
def removals(draw):
    n = draw(st.integers(0, 300))
    removed = draw(st.lists(st.integers(0, max(n - 1, 0)), unique=True,
                            max_size=n)) if n else []
    return n, removed, draw(st.booleans()), draw(st.integers(1, 8))


@settings(max_examples=80, deadline=None)
@given(case=removals(), seed=st.integers(0, 1000))
def test_in_place_equals_the_gather(case, seed):
    n, removed, parallel, threads = case
    removed = np.asarray(sorted(removed), dtype=np.int64)
    in_place, gathered = populated(n, seed), populated(n, seed)
    stats = [CommitStats(), CommitStats()]
    in_place._remove_indices(removed, parallel, threads, stats[0])
    gather_remove_indices(gathered, removed, parallel, threads, stats[1])
    assert state(in_place) == state(gathered)
    assert stats[0].serial_scan_items == stats[1].serial_scan_items
    # The columns stay views of the arena, and appends still work.
    for name in in_place.data:
        assert in_place.soa.owns(name, in_place.data[name])
    for rm in (in_place, gathered):
        rm.add_agents_now({"position": np.ones((3, 3)),
                           "diameter": np.full(3, 2.0)})
    assert state(in_place) == state(gathered)


def test_oncology_state_matches_the_gather_after_40_ticks(monkeypatch):
    bench = get_simulation("oncology")

    def run(remove):
        removed = []

        def counting(self, idx, *args):
            removed.append(len(idx))
            return remove(self, idx, *args)

        with monkeypatch.context() as m:
            m.setattr(ResourceManager, "_remove_indices", counting)
            with bench.build(1500, param=bench.default_param(),
                             seed=4) as sim:
                sim.simulate(40)
                assert sum(removed) > 40
                return state_checksum(sim), sim.rm.n

    in_place = run(ResourceManager._remove_indices)
    assert run(gather_remove_indices) == in_place


@pytest.mark.parametrize("domains", [2, 3])
def test_more_domains_keep_the_gather(domains):
    rm = ResourceManager(domains, PoolAllocatorSet(AddressSpace(domains)),
                         agent_size_bytes=128)
    ref = ResourceManager(domains, PoolAllocatorSet(AddressSpace(domains)),
                          agent_size_bytes=128)
    for r in (rm, ref):
        r.add_agents_now({"position": np.arange(90.0).reshape(30, 3),
                          "diameter": np.arange(30.0)})
    removed = np.array([0, 4, 11, 12, 29])
    rm._remove_indices(removed, True, 4, CommitStats())
    gather_remove_indices(ref, removed, True, 4, CommitStats())
    assert state(rm) == state(ref)
