"""ResourceManager: per-NUMA-domain agent storage (paper §3.1, §3.2).

BioDynaMo's ResourceManager stores raw agent pointers in one vector per
NUMA domain and offers add/remove/get/iterate.  The Python counterpart is
a structure-of-arrays: every agent attribute is a NumPy column, agents are
kept *sorted by NUMA domain* (``domain_starts`` marks the per-domain
segments, the moral equivalent of the per-domain pointer vectors), and a
simulated allocator assigns each agent payload an address whose locality
and NUMA placement the cost model prices.

Every column lives in one contiguous :class:`~repro.core.arena.SoAArena`
block (shared capacity, amortized-doubling growth); ``data[name]`` is a
zero-copy prefix view of the column's region, so worker attach,
checkpoint save and restore move the whole agent state as one block.

Additions and removals requested during an iteration are buffered and
committed at the end of the iteration.  Additions are written directly
into preallocated columnar *staging buffers* (amortized doubling growth,
one contiguous row-range per :meth:`queue_new_agents` call).  ``commit``
then has fast paths: an additions-only commit on a single domain
*appends* the staged rows to the arena-backed columns in place (no full
reallocation, no ``np.unique``/``np.isin`` uid rescan — the new agents'
indices are known positionally), and removals are applied with one
fancy-indexed gather per column built from the §3.2 swap plans.

Commit ordering: queued entries are drained per thread in thread-key
insertion order, then call order, and uids are assigned contiguously in
that merged order.  ``tests/golden/traces.json`` pins the resulting
uid/layout byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.removal import plan_removal

__all__ = ["ResourceManager", "CommitStats"]


@dataclass
class CommitStats:
    """What a commit did, for cost accounting by the scheduler."""

    added: int = 0
    removed: int = 0
    #: Sizes of the per-domain segments scanned when the *serial* removal
    #: path is used (the parallel path only touches O(removed) entries).
    serial_scan_items: int = 0
    new_agent_indices: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    #: Whether the additions took the in-place segment-append fast path
    #: (no column reallocation, no uid rescan).
    fast_append: bool = False
    #: Rows that went through the columnar staging buffers this commit.
    staged_rows: int = 0


class ResourceManager:
    """Structure-of-arrays agent storage with per-domain segments."""

    #: Columns every simulation has.  (name, dtype, row-shape, fill)
    CORE_COLUMNS = (
        ("position", np.float64, (3,), 0.0),
        ("diameter", np.float64, (), 10.0),
        ("uid", np.int64, (), -1),
        ("addr", np.int64, (), 0),
        ("behavior_mask", np.uint64, (), 0),
        ("static", np.bool_, (), False),
        ("moved", np.bool_, (), True),
        ("grew", np.bool_, (), True),
    )

    #: Smallest staging/column capacity ever allocated.
    _MIN_CAPACITY = 8

    def __init__(
        self,
        num_domains: int = 1,
        agent_allocator=None,
        agent_size_bytes: int = 136,
        columns=(),
    ):
        self.num_domains = num_domains
        self.allocator = agent_allocator
        self.agent_size_bytes = agent_size_bytes
        #: Single-arena SoA block (:mod:`repro.core.arena`) holding every
        #: column.
        self.soa = self._make_soa_arena()
        self._columns: dict[str, tuple[np.dtype, tuple, object]] = {}
        self.data: dict[str, np.ndarray] = {}
        self.n = 0
        #: Incremented on every structural change (insert/remove/reorder);
        #: consumers such as the uid index invalidate their caches on it.
        self.structure_version = 0
        #: Incremented whenever ``behavior_mask`` is written outside a
        #: commit (attach/detach, generic Agent.set); the scheduler's
        #: behavior-dispatch cache keys on it together with
        #: ``structure_version``.
        self.mask_version = 0
        self.domain_starts = np.zeros(num_domains + 1, dtype=np.int64)
        self._next_uid = 0
        self._remove_queues: dict[int, list[np.ndarray]] = {}
        # Columnar staging buffers: one capacity buffer per column touched
        # this round, plus per-thread call records (start row, count,
        # domain spec) that fix the commit order.
        self._staging: dict[str, np.ndarray] = {}
        self._staged = 0
        self._stage_capacity = 0
        self._staged_entries: dict[int, list[tuple[int, int, object]]] = {}
        self.register_columns(self.CORE_COLUMNS + tuple(columns))
        from repro.core.agent import UidIndex

        #: uid -> storage index lookup (lazily rebuilt; see Agent handles).
        self.uid_index = UidIndex(self)

    # ------------------------------------------------------------------ #
    # Columns
    # ------------------------------------------------------------------ #

    def _make_soa_arena(self):
        """Construct the SoA arena backing store (subclass hook: the
        shared-memory ResourceManager allocates the block from its
        :class:`~repro.parallel.shm.HostArena` instead of private memory)."""
        from repro.core.arena import SoAArena

        return SoAArena()

    def register_column(self, name, dtype, row_shape=(), fill=0) -> None:
        """Add a named per-agent attribute column (extensibility hook used
        by the neuroscience specialization)."""
        self.register_columns([(name, dtype, row_shape, fill)])

    def register_columns(self, columns) -> None:
        """Add ``(name, dtype, row_shape, fill)`` columns with one arena
        repack (one shared-memory segment), in the layout of adding them
        one at a time."""
        columns = [(name, np.dtype(dtype), tuple(row_shape), fill)
                   for name, dtype, row_shape, fill in columns]
        for name, *_rest in columns:
            if name in self._columns:
                raise ValueError(f"column {name!r} already registered")
        self.soa.add_columns([spec[:3] for spec in columns],
                             live_rows=self.n)
        # Offsets moved: re-fetch every live column's prefix view.
        for other in self.data:
            self.data[other] = self.soa.view(other, self.n)
        for name, dtype, row_shape, fill in columns:
            self._columns[name] = (dtype, row_shape, fill)
            view = self.soa.view(name, self.n)
            view[...] = fill
            self.data[name] = view

    def _store(self, name: str, arr: np.ndarray) -> None:
        """Publish a column's (re)allocated backing array under ``name``.

        Every structural operation funnels its final per-column array
        through this hook: the array is copied into the column's region
        of the single SoA block and ``data`` gets the zero-copy prefix
        view.
        """
        arr = np.asarray(arr)
        replaced = self.soa.reserve(len(arr), self.n)
        view = self.soa.view(name, len(arr))
        if view.size:
            view[...] = arr
        if replaced:
            # The block moved: every other column's view is stale too.
            for other in self.data:
                if other != name:
                    self.data[other] = self.soa.view(
                        other, len(self.data[other]))
        self.data[name] = view

    def _grow_column(self, name: str, new_n: int) -> np.ndarray:
        """Extend column ``name`` to ``new_n`` rows, reusing capacity.

        The returned array is the live ``data[name]`` view; rows
        ``[0, self.n)`` hold the current values, rows ``[self.n, new_n)``
        are uninitialized and must be filled by the caller.  One arena
        reservation grows *all* columns at once by amortized doubling (the
        first per-column call of a commit pays it; the rest are free).
        """
        cur = self.data[name]
        external = self.n > 0 and not self.soa.owns(name, cur)
        replaced = self.soa.reserve(new_n, self.n)
        view = self.soa.view(name, new_n)
        if external:
            # ``data[name]`` was re-bound to private memory behind the
            # arena's back; carry those rows, not the stale arena ones.
            view[: self.n] = cur[: self.n]
        if replaced:
            for other in self.data:
                if other != name:
                    self.data[other] = self.soa.view(
                        other, len(self.data[other]))
        self.data[name] = view
        return view

    def __getitem__(self, name: str) -> np.ndarray:
        return self.data[name]

    @property
    def positions(self) -> np.ndarray:
        return self.data["position"]

    def note_behavior_mask_changed(self) -> None:
        """Record an out-of-commit ``behavior_mask`` write (attach/detach);
        invalidates the scheduler's cached behavior index lists."""
        self.mask_version += 1

    def domain_slice(self, d: int) -> slice:
        """Storage slice of NUMA domain ``d``."""
        return slice(int(self.domain_starts[d]), int(self.domain_starts[d + 1]))

    def domain_of_index(self, idx) -> np.ndarray:
        """NUMA domain of agent(s) by storage index."""
        return (
            np.searchsorted(self.domain_starts, np.asarray(idx), side="right") - 1
        ).astype(np.int64)

    def domain_sizes(self) -> np.ndarray:
        """Number of agents per NUMA domain."""
        return np.diff(self.domain_starts)

    # ------------------------------------------------------------------ #
    # Immediate (initialization-time) addition
    # ------------------------------------------------------------------ #

    def add_agents_now(self, attributes: dict[str, np.ndarray], domain=None) -> np.ndarray:
        """Bulk-add agents immediately (model initialization).

        ``attributes`` maps column names to arrays; missing columns get
        their fill value.  Agents are balanced round-robin across domains
        unless ``domain`` pins them.  Returns the new agents' uids.
        """
        count = len(next(iter(attributes.values())))
        if domain is None:
            dom = np.arange(count, dtype=np.int64) % self.num_domains
        else:
            dom = np.full(count, domain, dtype=np.int64)
        uids = np.arange(self._next_uid, self._next_uid + count, dtype=np.int64)
        self._next_uid += count
        attributes = dict(attributes)
        attributes["uid"] = uids
        self._insert(attributes, dom)
        return uids

    def _alloc_addrs(self, dom: np.ndarray) -> np.ndarray:
        addrs = np.zeros(len(dom), dtype=np.int64)
        if self.allocator is not None:
            for d in range(self.num_domains):
                mask = dom == d
                c = int(mask.sum())
                if c:
                    addrs[mask] = self.allocator.allocate_many(
                        self.agent_size_bytes, c, domain=d
                    )
        return addrs

    def _insert(self, attributes: dict[str, np.ndarray], dom: np.ndarray) -> np.ndarray:
        """Insert rows keeping the sorted-by-domain invariant.

        One reallocation and at most two fancy-indexed copies per column
        (old rows to their shifted positions, inserted rows to the tail of
        their domain segment) — no per-domain inner loop.  Returns the
        inserted rows' indices in the new layout (ascending), computed
        positionally so callers never need a uid rescan.
        """
        count = len(dom)
        if "addr" not in attributes:
            attributes["addr"] = self._alloc_addrs(dom)
        insert_per_domain = np.bincount(dom, minlength=self.num_domains)
        new_n = self.n + count
        new_starts = self.domain_starts + np.concatenate(
            ([0], np.cumsum(insert_per_domain))
        )
        if self.num_domains == 1:
            # Single domain: stable sort is the identity, old rows stay put.
            order = None
            old_dst = None
            new_dst = np.arange(self.n, new_n, dtype=np.int64)
        else:
            order = np.argsort(dom, kind="stable")
            shift = new_starts[:-1] - self.domain_starts[:-1]
            old_dom = np.repeat(
                np.arange(self.num_domains), np.diff(self.domain_starts)
            )
            old_dst = np.arange(self.n, dtype=np.int64) + shift[old_dom]
            dom_sorted = dom[order]
            seg_old = (
                self.domain_starts[dom_sorted + 1]
                - self.domain_starts[dom_sorted]
            )
            before_dom = np.cumsum(insert_per_domain) - insert_per_domain
            within = np.arange(count, dtype=np.int64) - before_dom[dom_sorted]
            new_dst = new_starts[dom_sorted] + seg_old + within
        for name, (dtype, shape, fill) in self._columns.items():
            old = self.data[name]
            new = np.empty((new_n, *shape), dtype=dtype)
            src = attributes.get(name)
            if old_dst is None:
                new[: self.n] = old
                if src is not None:
                    new[self.n :] = np.asarray(src)
                else:
                    new[self.n :] = fill
            else:
                new[old_dst] = old
                if src is not None:
                    new[new_dst] = np.asarray(src)[order]
                else:
                    new[new_dst] = fill
            self._store(name, new)
        self.n = new_n
        self.structure_version += 1
        self.domain_starts = new_starts
        return new_dst

    # ------------------------------------------------------------------ #
    # Thread-local queues (during-iteration modifications)
    # ------------------------------------------------------------------ #

    def queue_new_agents(self, attributes: dict[str, np.ndarray], thread: int = 0,
                         domain=None) -> None:
        """Buffer new agents for the end-of-iteration commit.

        ``domain`` may be ``None`` (round-robin placement at commit), an
        int (pin all rows), or an int array with one domain per row
        (batched behaviors queue all their divisions in one call).

        The attribute arrays are copied into the columnar staging buffers
        immediately (one contiguous row-range per call).
        """
        count = len(next(iter(attributes.values())))
        start = self._staged
        new_total = start + count
        if new_total > self._stage_capacity:
            self._grow_staging(new_total)
        for name, value in attributes.items():
            spec = self._columns.get(name)
            if spec is None:
                continue  # unregistered attributes ride along silently
            buf = self._staging.get(name)
            if buf is None:
                buf = self._new_staging_buffer(name, backfill=start)
            buf[start:new_total] = np.asarray(value)
        # Columns staged by earlier calls but absent from this one get
        # their fill value for this range.
        for name, buf in self._staging.items():
            if name not in attributes:
                buf[start:new_total] = self._columns[name][2]
        self._staged = new_total
        self._staged_entries.setdefault(thread, []).append(
            (start, count, domain)
        )

    def _new_staging_buffer(self, name: str, backfill: int) -> np.ndarray:
        dtype, shape, fill = self._columns[name]
        buf = np.empty((self._stage_capacity, *shape), dtype=dtype)
        if backfill:
            buf[:backfill] = fill
        self._staging[name] = buf
        return buf

    def _grow_staging(self, needed: int) -> None:
        """Amortized-doubling growth of every staging buffer."""
        cap = max(needed, 2 * self._stage_capacity, self._MIN_CAPACITY)
        self._stage_capacity = cap
        for name, old in self._staging.items():
            dtype, shape, _fill = self._columns[name]
            fresh = np.empty((cap, *shape), dtype=dtype)
            fresh[: self._staged] = old[: self._staged]
            self._staging[name] = fresh

    def queue_removals(self, indices, thread: int = 0) -> None:
        """Buffer removals (storage indices) in a thread-local list."""
        self._remove_queues.setdefault(thread, []).append(
            np.asarray(indices, dtype=np.int64)
        )

    @property
    def pending_additions(self) -> int:
        return self._staged

    @property
    def pending_removals(self) -> int:
        return sum(len(a) for q in self._remove_queues.values() for a in q)

    # ------------------------------------------------------------------ #
    # Commit
    # ------------------------------------------------------------------ #

    def commit(self, parallel: bool = True, num_threads: int = 4) -> CommitStats:
        """Apply all queued additions and removals (end of iteration).

        ``parallel=True`` uses the paper's O(removed) five-step algorithm
        per domain segment; ``parallel=False`` models the serial baseline
        (a full compaction scan), which the stats report via
        ``serial_scan_items``.
        """
        stats = CommitStats()

        # --- Removals first (their indices refer to the current layout).
        removal_lists = [a for q in self._remove_queues.values() for a in q]
        self._remove_queues.clear()
        if removal_lists:
            removed = np.unique(np.concatenate(removal_lists))
            stats.removed = len(removed)
            if self.allocator is not None:
                doms = self.domain_of_index(removed)
                for d in range(self.num_domains):
                    sel = removed[doms == d]
                    if len(sel):
                        self.allocator.free_many(
                            self.data["addr"][sel], self.agent_size_bytes, domain=d
                        )
            self._remove_indices(removed, parallel, num_threads, stats)

        # --- Additions.
        if self._staged:
            self._commit_staged(stats)
        return stats

    def _commit_order(self) -> tuple[list[tuple[int, int, object]], np.ndarray | None]:
        """Staged calls in commit order (per thread, then call order), plus
        the storage->commit gather (``None`` when storage order already is
        commit order)."""
        ranges = [e for q in self._staged_entries.values() for e in q]
        if len(self._staged_entries) <= 1:
            return ranges, None  # single thread: call order == storage order
        order = np.concatenate(
            [np.arange(s, s + c, dtype=np.int64) for s, c, _ in ranges]
        ) if ranges else np.empty(0, dtype=np.int64)
        return ranges, order

    def _staged_domains(self, ranges, total: int) -> np.ndarray:
        """Per-row target domain in commit order (the round-robin cursor
        advances only over ``domain=None`` calls)."""
        dom = np.empty(total, dtype=np.int64)
        pos = 0
        rr = 0
        for _start, c, d in ranges:
            if d is None:
                dom[pos : pos + c] = (np.arange(c) + rr) % self.num_domains
                rr += c
            else:
                dom[pos : pos + c] = d
            pos += c
        return dom

    def _commit_staged(self, stats: CommitStats) -> None:
        """Drain the staging buffers into the columns.

        Single-domain storage takes the append fast path: every column is
        extended in place over the arena's capacity and the staged rows are
        copied once — no full-column reallocation, and the new agents'
        indices are ``arange(n_before, n_after)`` by construction (no
        ``np.isin`` uid scan).  Multi-domain storage falls back to the
        vectorized :meth:`_insert`, whose return value is positional too.
        """
        total = self._staged
        ranges, order = self._commit_order()
        dom = self._staged_domains(ranges, total)
        uids = np.arange(self._next_uid, self._next_uid + total, dtype=np.int64)
        self._next_uid += total
        stats.added += total
        stats.staged_rows += total
        if self.num_domains == 1:
            addr = self._alloc_addrs(dom)
            old_n = self.n
            new_n = old_n + total
            for name, (dtype, shape, fill) in self._columns.items():
                col = self._grow_column(name, new_n)
                if name == "uid":
                    col[old_n:] = uids
                elif name == "addr":
                    col[old_n:] = addr
                else:
                    buf = self._staging.get(name)
                    if buf is None:
                        col[old_n:] = fill
                    elif order is None:
                        col[old_n:] = buf[:total]
                    else:
                        col[old_n:] = buf[order]
            self.n = new_n
            new_starts = self.domain_starts.copy()
            new_starts[-1] = new_n
            self.domain_starts = new_starts
            self.structure_version += 1
            stats.new_agent_indices = np.arange(old_n, new_n, dtype=np.int64)
            stats.fast_append = True
        else:
            attributes = {
                name: (buf[:total] if order is None else buf[order])
                for name, buf in self._staging.items()
            }
            attributes["uid"] = uids
            stats.new_agent_indices = self._insert(attributes, dom)
        self._staged = 0
        self._staged_entries.clear()

    def _remove_indices(self, removed, parallel, num_threads, stats) -> None:
        """Apply the §3.2 swap plans.

        On one domain the plan's moves run in place, as §3.2 writes them:
        each survivor past the new end fills a hole (``col[dst] =
        col[src]``, holes and sources disjoint) and every column becomes a
        shorter view of itself (of its arena region, unless a column was
        re-bound behind the arena's back, which the next growth carries
        over), so O(removed) rows move.  With more domains the later
        segments must shift: the per-domain plans are fused into one index
        vector and every column is rebuilt by one fancy-indexed copy.
        """
        threads = num_threads if parallel else 1
        if self.num_domains == 1:
            plan = plan_removal(self.n, removed, num_threads=threads)
            if not parallel:
                stats.serial_scan_items += self.n
            src, dst = plan.moves
            for name in self._columns:
                col = self.data[name]
                col[dst] = col[src]
                self.data[name] = col[:plan.new_size]
            self.n = plan.new_size
            self.structure_version += 1
            self.domain_starts = np.array([0, self.n], dtype=np.int64)
            return
        doms = self.domain_of_index(removed)
        new_starts = np.zeros(self.num_domains + 1, dtype=np.int64)
        keep = np.empty(self.n - len(removed), dtype=np.int64)
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

    # ------------------------------------------------------------------ #
    # Reordering (used by agent sorting §4.2)
    # ------------------------------------------------------------------ #

    def reorder(self, new_order: np.ndarray, new_domain_starts: np.ndarray,
                new_addrs: np.ndarray | None = None) -> None:
        """Store agents in a new order with new domain segments.

        ``new_order[k]`` is the old index of the agent that moves to
        position ``k``.  ``new_addrs`` (aligned with the new order) replaces
        payload addresses when the sorting operation copied agents into
        freshly allocated memory.
        """
        if len(new_order) != self.n:
            raise ValueError("new_order must be a permutation of all agents")
        for name in self._columns:
            self._store(name, self.data[name][new_order])
        if new_addrs is not None:
            self._store("addr", np.asarray(new_addrs, dtype=np.int64))
        self.structure_version += 1
        self.domain_starts = np.asarray(new_domain_starts, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Bulk state restore (checkpoint / attach)
    # ------------------------------------------------------------------ #

    def restore_columns(self, columns: dict[str, np.ndarray], n: int) -> None:
        """Rebind every column to restored data through the ``_store``
        placement funnel (per-column path).

        This is the generic restore: it takes per-column checkpoints and
        arena checkpoints whose column set or layout differs from this
        manager's, and places every column in the arena block (shared
        memory included).  Callers set ``domain_starts``/``_next_uid``
        themselves.
        """
        # Stale rows must not be carried over by arena growth during the
        # per-column stores: the restored arrays are the only truth.
        self.n = 0
        for name, arr in columns.items():
            self._store(name, arr)
        self.n = int(n)
        self.structure_version += 1

    def adopt_arena(self, raw, meta: dict, n: int) -> bool:
        """Single-copy state restore: adopt a saved arena block verbatim.

        ``raw``/``meta`` come from :meth:`SoAArena.layout_meta
        <repro.core.arena.SoAArena.layout_meta>` + the block bytes of the
        saving ResourceManager, or a callable that writes those bytes into
        the fresh block (:meth:`SoAArena.adopt
        <repro.core.arena.SoAArena.adopt>`).  Returns ``False`` (caller
        falls back to :meth:`restore_columns`) when this manager's column
        set differs from the snapshot's; on success the whole agent state
        lands with one contiguous copy per block.
        """
        if not self.soa.matches(meta):
            return False
        self.soa.adopt(meta, raw)
        n = int(n)
        for name in self._columns:
            self.data[name] = self.soa.view(name, n)
        self.n = n
        self.structure_version += 1
        return True

    # ------------------------------------------------------------------ #

    def memory_bytes(self) -> int:
        """Engine-side memory: columns plus allocator reservations."""
        cols = sum(a.nbytes for a in self.data.values())
        alloc = self.allocator.reserved_bytes if self.allocator is not None else 0
        return cols + alloc
