"""Single-arena SoA block: all agent columns in one contiguous buffer.

Allocating every attribute array independently would turn every bulk
state movement — shared-memory attach, checkpoint save/restore, GPU
upload — into a per-column loop.  :class:`SoAArena` is the
:class:`~repro.core.resource_manager.ResourceManager`'s backing store and
holds the columns in **one** dtype-packed ``uint8`` block:

- every column occupies a contiguous region ``[offset, offset +
  capacity * row_nbytes)`` inside the block, 64-byte aligned;
- all columns share a single row *capacity* grown by amortized doubling
  (one reallocation re-homes every column at once);
- live columns are exposed as zero-copy ``np.ndarray`` prefix views over
  the block, so all elementwise engine code is unchanged;
- ``version`` is bumped on every reallocation/repack — holders of views
  must re-fetch them after any call that returns ``True`` from
  :meth:`reserve` (the ResourceManager's ``_store``/``_grow_column``
  funnel does this automatically).

Bulk movement then becomes O(blocks) instead of O(columns):
:meth:`layout_meta` describes the block (column order, dtypes, row
shapes, byte offsets, capacity) and :meth:`adopt` restores a snapshot
with a **single contiguous copy**, which checkpoint restore and the
shared-memory attach path use directly.

The block allocator is injectable: the plain arena allocates private
``np.empty`` bytes; :class:`repro.parallel.shm.SharedMemoryResourceManager`
passes an allocator backed by one named shared-memory segment so worker
processes attach the whole agent state with one ``mmap``.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["SoAArena", "ArenaLayoutError"]

#: Byte alignment of every column region inside the block (cache line).
_ALIGN = 64

#: Smallest row capacity ever allocated (matches the ResourceManager's
#: ``_MIN_CAPACITY`` staging growth floor).
_MIN_ROWS = 8


class ArenaLayoutError(ValueError):
    """A snapshot's layout descriptor does not match the arena's columns."""


def _align(nbytes: int) -> int:
    return (nbytes + _ALIGN - 1) // _ALIGN * _ALIGN


class SoAArena:
    """One contiguous SoA block holding every registered column.

    ``allocate(nbytes) -> np.ndarray[uint8]`` provides the backing
    buffer; the default allocates private memory.  The returned buffer
    may alias the previous one (a shared-memory allocator reusing a
    block with spare capacity) — growth/repack snapshots live rows
    before allocating, so overlapping reallocation is safe.
    """

    def __init__(self, allocate=None):
        self._allocate = allocate if allocate is not None else (
            lambda nbytes: np.empty(nbytes, dtype=np.uint8)
        )
        #: ``name -> (dtype, row_shape, row_nbytes)`` in registration order
        #: (the packing order of :meth:`_compute_offsets`).
        self._specs: dict[str, tuple[np.dtype, tuple[int, ...], int]] = {}
        #: Byte offset of each column region inside the current block.
        self.offsets: dict[str, int] = {}
        #: Shared row capacity of every column.
        self.capacity = 0
        #: The backing ``uint8`` buffer (None until the first column).
        self.block: np.ndarray | None = None
        #: Bumped whenever the block or the offsets change; any previously
        #: handed-out view is invalid once this moves.
        self.version = 0
        # --- instrumentation (surfaced as arena:* metrics) -------------- #
        self.reallocations = 0
        #: Single-copy snapshot restores (checkpoint/attach fast path).
        self.adopts = 0
        #: Seconds spent copying rows during growth/repack/adopt — the
        #: "attach cost" the adaptive backend's cost model reads.
        self.attach_seconds = 0.0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def nbytes(self) -> int:
        """Bytes in the backing block (0 before the first allocation)."""
        return 0 if self.block is None else int(self.block.nbytes)

    def owns(self, name: str, arr: np.ndarray) -> bool:
        """Whether ``arr``'s data starts at column ``name``'s region —
        i.e. the array is (a prefix view of) the live arena column, not a
        private array bound behind the arena's back."""
        if self.block is None or name not in self.offsets:
            return False
        base = self.block.__array_interface__["data"][0]
        return (
            arr.__array_interface__["data"][0]
            == base + self.offsets[name]
        )

    def column_names(self):
        """Registered column names in packing order."""
        return list(self._specs)

    # ------------------------------------------------------------------ #
    # Layout
    # ------------------------------------------------------------------ #

    def _compute_offsets(self, capacity: int) -> tuple[dict[str, int], int]:
        offsets = {}
        off = 0
        for name, (_dtype, _shape, row_nbytes) in self._specs.items():
            offsets[name] = off
            off = _align(off + row_nbytes * capacity)
        return offsets, max(off, 1)

    def view(self, name: str, rows: int) -> np.ndarray:
        """Zero-copy ``(rows, *row_shape)`` view of column ``name``."""
        dtype, shape, _row_nbytes = self._specs[name]
        return np.ndarray((rows, *shape), dtype=dtype, buffer=self.block,
                          offset=self.offsets[name])

    def add_column(self, name, dtype, row_shape=(), live_rows: int = 0) -> None:
        """Register a column and repack the block to make room for it.

        ``live_rows`` rows of every already-registered column are
        preserved across the repack.
        """
        if name in self._specs:
            raise ValueError(f"arena column {name!r} already registered")
        dtype = np.dtype(dtype)
        row_nbytes = dtype.itemsize * int(
            np.prod(row_shape, dtype=np.int64)) if row_shape else dtype.itemsize
        spec = (dtype, tuple(int(s) for s in row_shape), int(row_nbytes))
        saved = self._snapshot(live_rows)
        self._specs[name] = spec
        self._repack(max(self.capacity, _MIN_ROWS), saved, live_rows)

    def reserve(self, rows: int, live_rows: int) -> bool:
        """Grow the shared row capacity to at least ``rows``.

        Returns ``True`` when the block was reallocated (every existing
        view is stale and must be re-fetched); ``live_rows`` rows of each
        column are carried over.  No-op (``False``) when capacity
        suffices.
        """
        if rows <= self.capacity:
            return False
        cap = max(int(rows), 2 * self.capacity, _MIN_ROWS)
        self._repack(cap, self._snapshot(live_rows), live_rows)
        return True

    def _snapshot(self, live_rows: int) -> dict[str, np.ndarray]:
        """Private copies of the first ``live_rows`` rows of every column
        (the new block may alias the old one, so copy-out first)."""
        if not live_rows or self.block is None:
            return {}
        return {
            name: self.view(name, live_rows).copy() for name in self._specs
        }

    def _repack(self, capacity: int, saved: dict[str, np.ndarray],
                live_rows: int) -> None:
        t0 = time.perf_counter()
        offsets, total = self._compute_offsets(capacity)
        block = np.asarray(self._allocate(total))
        if block.dtype != np.uint8 or block.ndim != 1 or len(block) < total:
            raise ValueError(
                "arena allocator must return a 1-D uint8 buffer of at "
                f"least {total} bytes"
            )
        self.block = block
        self.offsets = offsets
        self.capacity = capacity
        for name, arr in saved.items():
            self.view(name, live_rows)[...] = arr
        self.version += 1
        self.reallocations += 1
        self.attach_seconds += time.perf_counter() - t0

    # ------------------------------------------------------------------ #
    # Row packing (whole-domain device upload)
    # ------------------------------------------------------------------ #

    def packed_nbytes(self, names, num_rows: int) -> int:
        """Bytes :meth:`pack_rows` produces for ``num_rows`` rows of the
        named columns."""
        return sum(self._specs[name][2] for name in names) * int(num_rows)

    def pack_rows(self, names, rows, live_rows: int) -> np.ndarray:
        """Gather ``rows`` of the named columns into **one** contiguous
        ``uint8`` buffer (column-major segments, registration order of
        ``names``).

        This is the migration payload primitive: instead of sending one
        message (or device upload) per column, a whole row set leaves the
        domain as a single slice.  ``rows`` are indices into the live
        prefix (``live_rows``); :meth:`unpack_rows` is the inverse.
        """
        rows = np.asarray(rows, dtype=np.int64)
        out = np.empty(self.packed_nbytes(names, len(rows)), dtype=np.uint8)
        off = 0
        for name in names:
            row_nbytes = self._specs[name][2]
            seg = np.ascontiguousarray(self.view(name, live_rows)[rows])
            nbytes = row_nbytes * len(rows)
            out[off:off + nbytes] = seg.reshape(-1).view(np.uint8)
            off += nbytes
        return out

    def unpack_rows(self, names, rows, blob, live_rows: int) -> None:
        """Scatter a :meth:`pack_rows` buffer back into ``rows`` of the
        named columns (which must be the same ``names`` sequence the
        buffer was packed with)."""
        rows = np.asarray(rows, dtype=np.int64)
        if isinstance(blob, (bytes, bytearray, memoryview)):
            blob = np.frombuffer(blob, dtype=np.uint8)
        else:
            blob = np.ascontiguousarray(blob, dtype=np.uint8).reshape(-1)
        expected = self.packed_nbytes(names, len(rows))
        if len(blob) != expected:
            raise ArenaLayoutError(
                f"packed row buffer is {len(blob)} bytes, layout says "
                f"{expected}"
            )
        off = 0
        for name in names:
            dtype, shape, row_nbytes = self._specs[name]
            nbytes = row_nbytes * len(rows)
            arr = np.frombuffer(
                blob[off:off + nbytes].tobytes(), dtype=dtype
            ).reshape(len(rows), *shape)
            self.view(name, live_rows)[rows] = arr
            off += nbytes

    # ------------------------------------------------------------------ #
    # Bulk snapshot / restore (the single-copy fast path)
    # ------------------------------------------------------------------ #

    def layout_meta(self) -> dict:
        """JSON-serializable layout descriptor of the current block."""
        return {
            "columns": [
                [name, dtype.str, list(shape)]
                for name, (dtype, shape, _row) in self._specs.items()
            ],
            "offsets": {name: int(off) for name, off in self.offsets.items()},
            "capacity": int(self.capacity),
            "nbytes": self.nbytes,
        }

    def matches(self, meta: dict) -> bool:
        """Whether ``meta`` describes exactly this arena's column set
        (names, dtypes, row shapes) — the precondition for :meth:`adopt`."""
        described = {
            name: (np.dtype(dt), tuple(shape))
            for name, dt, shape in meta.get("columns", ())
        }
        registered = {
            name: (dtype, shape)
            for name, (dtype, shape, _row) in self._specs.items()
        }
        return described == registered

    def adopt(self, meta: dict, raw: np.ndarray) -> None:
        """Restore a snapshot block with one contiguous copy.

        ``raw`` is the byte image a previous :attr:`block` was saved as;
        ``meta`` is its :meth:`layout_meta`.  The arena takes over the
        snapshot's exact layout (offsets + capacity), so no per-column
        copies happen — this *is* the single ``memcpy`` per domain block
        that checkpoint restore and shm attach rely on.
        """
        if not self.matches(meta):
            raise ArenaLayoutError(
                "snapshot layout does not match the registered columns"
            )
        t0 = time.perf_counter()
        raw = np.ascontiguousarray(raw, dtype=np.uint8).reshape(-1)
        nbytes = int(meta["nbytes"])
        if len(raw) != nbytes:
            raise ArenaLayoutError(
                f"snapshot block is {len(raw)} bytes, layout says {nbytes}"
            )
        block = np.asarray(self._allocate(nbytes))
        block[:nbytes] = raw
        self.block = block
        self.offsets = {k: int(v) for k, v in meta["offsets"].items()}
        self.capacity = int(meta["capacity"])
        self.version += 1
        self.adopts += 1
        self.attach_seconds += time.perf_counter() - t0
