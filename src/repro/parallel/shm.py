"""Shared-memory column storage for the process-pool backend (§4.1).

The GIL forbids real thread parallelism over NumPy orchestration code, so
the process backend maps every :class:`~repro.core.resource_manager.
ResourceManager` column into ``multiprocessing.shared_memory`` blocks
that persistent worker processes attach once and then *view* — kernels
read and write agent state with zero pickling and zero copies.

Three pieces live here:

- :class:`HostArena` — the owner side.  A named, growable set of blocks;
  ``ensure(name, shape, dtype)`` returns a NumPy view over a block with
  enough capacity, replacing (never resizing in place) the block when a
  column outgrows it.  Replaced blocks are unlinked immediately but kept
  mapped until shutdown: POSIX keeps the memory alive while any process
  maps it, and closing a mapping that still has exported NumPy views
  would raise ``BufferError``.
- :class:`WorkerArena` — the worker side.  ``sync(layout)`` diffs the
  host's ``{name: shm_name}`` layout against the currently attached
  blocks and (re)attaches only what changed, so steady-state steps remap
  nothing.
- :class:`SharedMemoryResourceManager` — a ``ResourceManager`` whose SoA
  block is allocated from the arena as one named segment.  All
  structural engine code (insert, the §3.2 removal algorithm, reorder)
  is inherited unchanged; only where the block lives differs.
"""

from __future__ import annotations

import atexit
import sys
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.core.resource_manager import ResourceManager

__all__ = [
    "attach_block",
    "HostArena",
    "WorkerArena",
    "SharedMemoryResourceManager",
]

#: Smallest block ever allocated; avoids churning tiny blocks while a
#: simulation is still growing from a handful of agents.
_MIN_BLOCK_BYTES = 256


def attach_block(name: str) -> shared_memory.SharedMemory:
    """Attach an existing block without resource-tracker ownership.

    Python < 3.13 auto-registers *attached* segments with the resource
    tracker, which then unlinks them when the attaching process exits —
    yanking memory out from under the owner.  3.13 grew ``track=False``
    for exactly this; on older versions, registration is suppressed for
    the duration of the attach (unregistering *after* would not do:
    forked workers share the parent's tracker process, so an unregister
    would erase the creator's own registration).
    """
    if sys.version_info >= (3, 13):
        return shared_memory.SharedMemory(name=name, track=False)
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *a, **kw: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def own_resource_tracker() -> None:
    """Give this worker process a resource tracker of its own.

    A forked or spawned worker shares its parent's tracker, which unlinks
    a dead client's segments only once the parent exits too.  Its own
    tracker, started with its first segment, unlinks them as soon as the
    worker dies.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._fd = None
    resource_tracker._resource_tracker._pid = None


@dataclass
class _Block:
    shm: shared_memory.SharedMemory
    capacity: int


#: Arenas still holding OS resources; closed at interpreter exit so
#: abandoned simulations cannot leak named segments.
_LIVE_ARENAS: list["HostArena"] = []


class HostArena:
    """Owner of a set of named, growable shared-memory arrays."""

    def __init__(self):
        self._blocks: dict[str, _Block] = {}
        #: Unlinked-but-still-mapped blocks (NumPy views may be alive).
        self._graveyard: list[shared_memory.SharedMemory] = []
        #: Bumped whenever any block is replaced; lets callers detect that
        #: previously written scratch contents are gone.
        self.layout_version = 0
        self.closed = False
        _LIVE_ARENAS.append(self)

    def ensure(self, name: str, shape, dtype) -> np.ndarray:
        """View of block ``name`` with shape/dtype, (re)allocating on growth.

        Growth replaces the block (geometric capacity doubling) — the old
        contents are *not* carried over; callers re-fill after a replace,
        which ``layout_version`` makes detectable.
        """
        if self.closed:
            raise RuntimeError("arena is closed")
        dtype = np.dtype(dtype)
        shape = tuple(int(s) for s in shape)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        block = self._blocks.get(name)
        if block is None or block.capacity < nbytes:
            capacity = max(_MIN_BLOCK_BYTES, nbytes,
                           2 * (block.capacity if block else 0))
            fresh = shared_memory.SharedMemory(create=True, size=capacity)
            if block is not None:
                self._retire(block.shm)
            block = _Block(fresh, capacity)
            self._blocks[name] = block
            self.layout_version += 1
        return np.ndarray(shape, dtype=dtype, buffer=block.shm.buf)

    def layout(self) -> dict[str, str]:
        """``{logical name: OS segment name}`` for workers to attach."""
        return {name: blk.shm.name for name, blk in self._blocks.items()}

    def _retire(self, block: shared_memory.SharedMemory) -> None:
        # Unlink now (no new attachments; the OS frees the memory once the
        # last mapping goes), close the mapping only at shutdown because
        # live NumPy views pin the buffer.
        try:
            block.unlink()
        except FileNotFoundError:
            pass
        self._graveyard.append(block)

    def close(self) -> None:
        """Unlink every block and drop mappings (best effort)."""
        if self.closed:
            return
        self.closed = True
        for block in self._blocks.values():
            self._retire(block.shm)
        self._blocks = {}
        for block in self._graveyard:
            try:
                block.close()
            except BufferError:
                # NumPy views still alive somewhere; the segment is already
                # unlinked, so the OS reclaims it when the process exits.
                pass
        self._graveyard = []
        if self in _LIVE_ARENAS:
            _LIVE_ARENAS.remove(self)


@atexit.register
def _close_live_arenas() -> None:
    for arena in list(_LIVE_ARENAS):
        arena.close()


class WorkerArena:
    """Worker-side mirror: attach blocks by layout, view them as arrays."""

    def __init__(self):
        self._blocks: dict[str, shared_memory.SharedMemory] = {}
        self._graveyard: list[shared_memory.SharedMemory] = []

    def sync(self, layout: dict[str, str]) -> None:
        """(Re)attach so the local mapping matches the host's layout."""
        for name, shm_name in layout.items():
            current = self._blocks.get(name)
            if current is not None and current.name == shm_name:
                continue
            if current is not None:
                self._drop(current)
            self._blocks[name] = attach_block(shm_name)
        for name in [n for n in self._blocks if n not in layout]:
            self._drop(self._blocks.pop(name))
        # Retry mappings whose close was blocked by then-live views.
        still_pinned = []
        for block in self._graveyard:
            try:
                block.close()
            except BufferError:
                still_pinned.append(block)
        self._graveyard = still_pinned

    def _drop(self, block: shared_memory.SharedMemory) -> None:
        try:
            block.close()
        except BufferError:
            self._graveyard.append(block)

    def view(self, name: str, shape, dtype, offset: int = 0) -> np.ndarray:
        """NumPy view over the attached block ``name``.

        ``offset`` addresses a column region inside a consolidated SoA
        block (:mod:`repro.core.arena`); 0 views the whole block.
        """
        return np.ndarray(tuple(shape), dtype=np.dtype(dtype),
                          buffer=self._blocks[name].buf, offset=int(offset))

    def close(self) -> None:
        """Drop all mappings (best effort; pinned buffers are skipped)."""
        for block in list(self._blocks.values()) + self._graveyard:
            try:
                block.close()
            except BufferError:
                pass
        self._blocks = {}
        self._graveyard = []


#: Key prefix under which workers see agent columns ("col:position",
#: "col:diameter", ...).  The process backend adds scratch blocks under
#: other prefixes ("csr:", "mech:") in the same arena.
COLUMN_PREFIX = "col:"

#: Block name of the consolidated SoA arena: every agent column is a
#: region inside this one segment, so workers attach the whole agent
#: state with a single ``mmap``.
SOA_BLOCK = "soa:block"


class SharedMemoryResourceManager(ResourceManager):
    """ResourceManager whose SoA block lives in shared memory.

    The only difference from the base class is where the arena block is
    allocated (:meth:`_make_soa_arena`): one named segment that worker
    processes map.  ``self.data`` values are therefore always views over
    that segment — in-place mutation (``col[:] = ...``, ``col[idx] +=
    ...``) is visible to workers, while wholesale re-binding must go
    through ``_store`` (the engine's only re-binding sites already do).
    """

    def __init__(self, *args, arena: HostArena | None = None, **kwargs):
        owns_arena = arena is None
        self.arena = arena if arena is not None else HostArena()
        if owns_arena:
            # A session that dies mid-step (worker crash, exception during
            # ``simulate``) may never reach ``Simulation.close()``; without
            # this, the named segments survive in /dev/shm until interpreter
            # exit (``_LIVE_ARENAS``) — or forever, if the process is
            # SIGKILLed after fork.  Finalize on *this* manager being
            # collected, not on the arena: an externally-owned arena may be
            # shared across managers and must outlive any one of them.
            # ``HostArena.close`` is idempotent, so an orderly
            # ``Simulation.close()`` first is harmless.
            self._arena_finalizer = weakref.finalize(
                self, HostArena.close, self.arena
            )
        else:
            self._arena_finalizer = None
        super().__init__(*args, **kwargs)

    def _make_soa_arena(self):
        # The SoA arena's backing buffer is one named shared-memory
        # segment, so workers attach the entire agent state with a single
        # mmap and the base class's arena paths (one contiguous region per
        # column, shared capacity) apply unchanged.  ``HostArena.ensure``
        # may hand back the same segment when its capacity suffices — the
        # arena snapshots live rows before repacking, so aliasing
        # reallocation is safe.
        from repro.core.arena import SoAArena

        return SoAArena(
            allocate=lambda nbytes: self.arena.ensure(
                SOA_BLOCK, (int(nbytes),), np.uint8)
        )
