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

import math
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
        """Register one column (:meth:`add_columns`)."""
        self.add_columns([(name, dtype, row_shape)], live_rows)

    def add_columns(self, columns, live_rows: int = 0) -> None:
        """Register ``(name, dtype, row_shape)`` columns and repack the
        block once to make room for them: the layout of adding them one
        at a time.

        ``live_rows`` rows of every already-registered column are
        preserved across the repack.
        """
        specs = {}
        for name, dtype, row_shape in columns:
            if name in self._specs or name in specs:
                raise ValueError(f"arena column {name!r} already registered")
            dtype = np.dtype(dtype)
            shape = tuple(int(s) for s in row_shape)
            specs[name] = (dtype, shape, dtype.itemsize * math.prod(shape))
        saved = self._snapshot(live_rows)
        self._specs.update(specs)
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

    def adopt(self, meta: dict, raw) -> None:
        """Restore a snapshot block with one contiguous copy.

        ``raw`` is the byte image a previous :attr:`block` was saved as,
        or a callable ``raw(block)`` that writes that image into the
        arena's freshly allocated block (a checkpoint reads its file
        straight in); ``meta`` is its :meth:`layout_meta`.  The arena
        takes over the snapshot's exact layout (offsets + capacity), so no
        per-column copies happen — this *is* the single ``memcpy`` per
        domain block that checkpoint restore and shm attach rely on.
        """
        if not self.matches(meta):
            raise ArenaLayoutError(
                "snapshot layout does not match the registered columns"
            )
        t0 = time.perf_counter()
        nbytes = int(meta["nbytes"])
        fill = raw
        if not callable(raw):
            image = np.ascontiguousarray(raw, dtype=np.uint8).reshape(-1)
            if len(image) != nbytes:
                raise ArenaLayoutError(
                    f"snapshot block is {len(image)} bytes, layout says "
                    f"{nbytes}"
                )

            def fill(block):
                block[...] = image
        block = np.asarray(self._allocate(nbytes))
        fill(block[:nbytes])
        self.block = block
        self.offsets = {k: int(v) for k, v in meta["offsets"].items()}
        self.capacity = int(meta["capacity"])
        self.version += 1
        self.adopts += 1
        self.attach_seconds += time.perf_counter() - t0
