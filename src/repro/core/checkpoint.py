"""Checkpoint / restore (BioDynaMo's backup-and-restore feature).

BioDynaMo can persist a running simulation and resume it later (its
``backup_file`` parameter).  A checkpoint carries everything a
continuation needs, so a restore into a model *shell*
(:meth:`~repro.simulations.base.BenchmarkSimulation.shell`: the columns,
grids, operations and behaviors, no agents) continues bitwise like the
uninterrupted run, every column included:

- all ResourceManager columns (including user-registered ones),
- domain segmentation and uid counter,
- diffusion grid concentrations,
- iteration counter, simulated time and the RNG state,
- the simulated allocators and their shared address space, which hand
  out the ``addr`` column's payload addresses.

Format v5 (written) is no zip, but five sections back to back:

- a fixed 48-byte header (:data:`_HEADER`): the magic ``REPROCKP``, the
  format (``5``) and the byte lengths of the four sections that follow;
- one ``__meta__`` JSON document (UTF-8) holding ``n``, ``next_uid``,
  ``iteration``, ``time``, ``domain_starts``, the column list, the RNG
  state, the arena's :meth:`~repro.core.arena.SoAArena.layout_meta`,
  each diffusion grid's name, dtype and shape, the allocators' state
  (:meth:`repro.mem.Allocator.state`) with each free list replaced by
  its ``{"@list": [start, stop]}`` slice of the lists section, the warm
  hints and the caller's ``extra`` dict;
- the SoA arena's **whole backing block** (:mod:`repro.core.arena`),
  verbatim;
- every free list, concatenated (int64);
- every diffusion grid's concentration, in the document's order.

A save hands the five to one ``os.writev``, the block straight from its
(shared-memory) segment.  The file keeps the ``.npz`` name rule, so
spool paths do not change.

The *warm hints* (``__meta__["warm"]``) are what the first tick after a
restore would otherwise have to relearn: the neighbor cache's skin tuner
and the kernel backend's per-chunk search density.  They size buffers
and pick a skin; no byte of the trajectory depends on them.  A restore
counts as a structural change for the tuner, so the first tick makes the
choice the uninterrupted run makes on one.

Restore checks the file's length against the header first (a truncated
file raises ``ValueError`` and changes nothing), reads the document and
the free lists, validates the columns, allocators and grids, then reads
the block with ``os.preadv`` **straight into the block** an arena with
the same column set allocates for it (:meth:`SoAArena.adopt`) — one
contiguous read, O(domains) instead of O(columns), no private copy;
:func:`read_checkpoint_meta` reads the header and the document alone.

Formats v1–v4 are ``.npz`` zips and read-only: nothing writes them any
more.  v4 holds v5's content as members (``__format__``, ``__meta__``,
``arena__block``, ``allocator__lists``, ``grid__<name>``), each read
once straight from the file and the block adopted with one copy.  v3 is
v4 without the allocators and the warm hints: it restores the agent state,
and the target's allocators stay as they are, so its ``addr`` column
departs from the uninterrupted run's at the first allocation after the
restore.  v2 stored each scalar as its own member plus the block and a
separate ``arena__meta``; v1 stored one ``col__<name>`` array per column.
v1 files, and v2–v5 files whose column dtypes or row shapes differ from
the target's, restore through the per-column placement funnel
(:meth:`ResourceManager.restore_columns`).

Not persisted (documented limitations, as in BioDynaMo's ROOT backup):
behavior *instances* are code — the caller registers the same behavior
objects on the target simulation in registration order (a model shell
does); virtual-machine accounting restarts at zero.
"""

from __future__ import annotations

import json
import os
import struct
import zipfile
from pathlib import Path

import numpy as np

__all__ = ["save_checkpoint", "restore_checkpoint", "read_checkpoint_meta"]

_FORMAT_VERSION = 5

#: The first bytes of a v5 file (an ``.npz`` starts ``PK``).
_MAGIC = b"REPROCKP"
#: Magic, format, then the byte lengths of the ``__meta__`` document, the
#: arena block, the free lists and the grids, which follow in that order.
_HEADER = struct.Struct("<8s5Q")

#: Oldest format this module still restores.
_MIN_FORMAT_VERSION = 1


def _require_checkpointable(sim, verb: str) -> None:
    """Checkpointing is only legal on a quiescent, open simulation: a
    RUNNING sim is mid-step (columns half-written), and a CLOSED sim may
    already have unlinked its shared-memory segments."""
    from repro.core.simulation import LifecycleError, SimulationState

    state = getattr(sim, "state", None)
    if state is SimulationState.RUNNING:
        raise LifecycleError(
            f"cannot {verb} simulation {sim.name!r} mid-step "
            "(state is RUNNING)"
        )
    if state is SimulationState.CLOSED:
        raise LifecycleError(
            f"cannot {verb} simulation {sim.name!r}: it is closed"
        )


def _npz_path(path) -> Path:
    """The file ``np.savez`` writes for ``path``: ``.npz`` is appended
    when missing."""
    path = Path(path)
    return path if path.suffix == ".npz" else path.with_suffix(
        path.suffix + ".npz")


#: Key of the JSON object that stands for an int64 array in ``__meta__``:
#: ``{"@list": [start, stop]}``, a slice of ``allocator__lists``.
_LIST = "@list"


def _encoder(lists: list):
    """``json.dumps``' fallback for ``__meta__``: a NumPy scalar as the
    Python one (the allocators' counters may be either); an array (a free
    list) appended to ``lists`` and written as its slice of their
    concatenation."""
    def default(value):
        if isinstance(value, np.generic):
            return value.item()
        if isinstance(value, np.ndarray):
            start = sum(map(len, lists))
            lists.append(value)
            return {_LIST: [start, start + len(value)]}
        raise TypeError(f"{type(value).__name__} is not JSON serializable")
    return default


def _allocators(sim) -> dict:
    """The simulation's allocators by role; ``other`` is None when it is
    the agent allocator itself."""
    agent, other = sim.agent_allocator, sim.other_allocator
    return {"agent": agent, "other": None if other is agent else other}


def save_checkpoint(sim, path, extra_meta: dict | None = None) -> Path:
    """Write the simulation state to a format-v5 checkpoint and return the
    path written (``path``, with ``.npz`` appended when missing).

    The file is the fixed header, the ``__meta__`` JSON document (every
    scalar, the RNG state, the block's layout, the rest of the allocator
    state, the grids' shapes and the warm hints), then the consolidated
    arena block verbatim, the allocators' free lists and the grids — all
    handed to the kernel in one gathered write, the block straight from
    its (shared-memory) segment.

    ``extra_meta`` is an optional JSON-serializable dict stored verbatim
    alongside the state (``read_checkpoint_meta`` returns it without
    loading any arrays).  The session server uses it to record an evicted
    session's spec (model, population, seed, parameter overrides) so any
    worker can resume it.
    """
    _require_checkpointable(sim, "checkpoint")
    rm = sim.rm
    soa = rm.soa
    grids = [(name, np.ascontiguousarray(grid.concentration))
             for name, grid in sim.diffusion_grids.items()]
    meta = {
        "format": _FORMAT_VERSION,
        "n": int(rm.n),
        "next_uid": int(rm._next_uid),
        "iteration": int(sim.scheduler.iteration),
        "time": float(sim.time),
        "domain_starts": rm.domain_starts.tolist(),
        "columns": list(rm.data),
        "rng": sim.random.get_state(),
        "arena": soa.layout_meta(),
        "grids": [[name, a.dtype.str, list(a.shape)] for name, a in grids],
        "warm": {
            "neighbor_cache": sim.scheduler.neighbor_cache.tuner_state(),
            "kernels": sim.kernels.sizing_hints(),
        },
        "extra": {} if extra_meta is None else extra_meta,
    }
    meta["allocators"] = {role: None if a is None else a.state()
                          for role, a in _allocators(sim).items()}
    meta["allocators"]["space"] = sim.agent_allocator.space.state()
    lists: list = []
    document = json.dumps(meta, default=_encoder(lists)).encode()
    lists = (np.concatenate(lists).astype(np.int64, copy=False) if lists
             else np.empty(0, dtype=np.int64))
    block = soa.block[: soa.nbytes]
    header = _HEADER.pack(_MAGIC, _FORMAT_VERSION, len(document),
                          block.nbytes, lists.nbytes,
                          sum(a.nbytes for _name, a in grids))
    out = _npz_path(path)
    # Write to a fresh inode.  Truncating an existing file and rewriting
    # it trips ext4's ``auto_da_alloc`` heuristic, which flushes the new
    # data to disk on close — tens of milliseconds per save for a session
    # evicted again and again to the same spool path.  Renaming a temp
    # file over the old one trips the same heuristic, so write-then-
    # ``os.replace`` is no cure; unlinking first is.  A crash mid-write
    # can lose only this file, whose state the live simulation still
    # holds.
    out.unlink(missing_ok=True)
    fd = os.open(out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        _write_all(fd, [header + document, block, lists,
                        *(a for _name, a in grids)])
    finally:
        os.close(fd)
    return out


def _bytes(array: np.ndarray) -> memoryview:
    """A C-contiguous array's bytes, without a copy."""
    return memoryview(array.reshape(-1).view(np.uint8))


def _write_all(fd: int, parts: list) -> None:
    """Write ``parts`` (bytes or C-contiguous arrays) back to back with
    ``os.writev``, resuming after a short write."""
    views = [memoryview(p) if isinstance(p, bytes) else _bytes(p)
             for p in parts]
    views = [v for v in views if len(v)]
    while views:
        done = os.writev(fd, views)
        while views and done >= len(views[0]):
            done -= len(views.pop(0))
        if views:
            views[0] = views[0][done:]


def _read_all(fd: int, arrays: list, offset: int) -> None:
    """Fill ``arrays`` from the file's bytes at ``offset`` on, in one
    ``os.preadv`` (more on a short read); a file that ends first raises
    ``ValueError``."""
    views = [_bytes(a) for a in arrays if a.nbytes]
    while views:
        got = os.preadv(fd, views, offset)
        if got <= 0:
            raise ValueError("checkpoint is truncated")
        offset += got
        while views and got >= len(views[0]):
            got -= len(views.pop(0))
        if views:
            views[0] = views[0][got:]


def _arena_columns(block: np.ndarray, arena: dict) -> dict:
    """``{name: array}`` zero-copy views over a saved arena block."""
    rows = int(arena["capacity"])
    return {
        name: np.ndarray(
            (rows, *[int(s) for s in shape]), dtype=np.dtype(dt),
            buffer=block, offset=int(arena["offsets"][name]),
        )
        for name, dt, shape in arena["columns"]
    }


def _read_legacy(data) -> tuple[dict, np.ndarray | None, dict | None]:
    """A v1/v2 file's members as ``(meta, block, columns)``: ``meta`` in
    the v3 ``__meta__`` shape, plus the arena block (v2) or the
    per-column arrays (v1).  The only reader of those formats."""
    files = data.files
    meta = {
        "format": int(data["__format__"][0]),
        "n": int(data["__meta_n__"][0]),
        "next_uid": int(data["__meta_next_uid__"][0]),
        "iteration": int(data["__meta_iteration__"][0]),
        "time": float(data["__meta_time__"][0]),
        "domain_starts": data["__domain_starts__"],
        # v1 checkpoints predate RNG persistence.
        "rng": (json.loads(str(data["__rng__"]))
                if "__rng__" in files else None),
        "arena": (json.loads(str(data["arena__meta"]))
                  if "arena__meta" in files else None),
    }
    if meta["arena"] is not None:
        return meta, _read_member(data, "arena__block"), None
    return meta, None, {k[5:]: data[k] for k in files if k.startswith("col__")}


def _read_member(data, name: str) -> np.ndarray:
    """Array ``name`` of an open ``.npz`` in one read from the file.

    ``np.savez`` stores members uncompressed, so a member is a ``.npy``
    image at a fixed offset: seek past its local zip header and the
    ``.npy`` header and read the data straight into the result, instead
    of through :class:`zipfile.ZipExtFile`'s chunked, CRC-checking reads
    (a short read still fails).  Anything else (a compressed member, an
    ``.npy`` format version this reader does not parse) goes through
    ``data[name]``.
    """
    info = data.zip.getinfo(name + ".npy")
    if info.compress_type != zipfile.ZIP_STORED:
        return data[name]
    fp = data.zip.fp
    fp.seek(info.header_offset)
    header = struct.unpack(zipfile.structFileHeader,
                           fp.read(zipfile.sizeFileHeader))
    if header[0] != zipfile.stringFileHeader:
        raise ValueError(f"checkpoint member {name!r}: bad zip header")
    # Local file header fields 10 and 11: file name and extra-field length.
    fp.seek(header[10] + header[11], 1)
    read_header = {
        (1, 0): np.lib.format.read_array_header_1_0,
        (2, 0): np.lib.format.read_array_header_2_0,
    }.get(np.lib.format.read_magic(fp))
    if read_header is None:
        return data[name]
    shape, fortran, dtype = read_header(fp)
    out = np.empty(shape, dtype=dtype, order="F" if fortran else "C")
    got = fp.readinto(memoryview(out.reshape(-1, order="A")).cast("B"))
    if got != out.nbytes:
        raise ValueError(f"checkpoint member {name!r} is truncated")
    return out


def _read_meta(data, lists: np.ndarray | None = None) -> dict:
    """The ``__meta__`` document of a v3/v4 file, with each free list
    sliced out of ``lists`` (``allocator__lists``) when given."""
    hook = None if lists is None else (
        lambda obj: lists[slice(*obj[_LIST])] if _LIST in obj else obj)
    return json.loads(_read_member(data, "__meta__").tobytes(),
                      object_hook=hook)


def _v5_sizes(fd: int) -> list | None:
    """A v5 file's byte lengths ``[meta, block, lists, grids]`` from its
    header; None for an ``.npz`` (v1–v4).  ``ValueError`` for a format
    this module does not read and for a file whose length is not the
    header's sum (truncated), before anything else is read."""
    head = os.pread(fd, _HEADER.size, 0)
    if not head.startswith(_MAGIC):
        return None
    if len(head) < _HEADER.size:
        raise ValueError("checkpoint is truncated inside its header")
    _magic, version, *sizes = _HEADER.unpack(head)
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format {version}")
    length, want = os.fstat(fd).st_size, _HEADER.size + sum(sizes)
    if length != want:
        raise ValueError(f"checkpoint is {length} bytes, its header gives "
                         f"{want}: truncated or overwritten")
    return sizes


def _v5_meta(fd: int, sizes: list, lists: bool = True) -> dict:
    """The ``__meta__`` document of a v5 file, with each free list
    sliced out of the file's lists when ``lists``."""
    meta_n, block_n, lists_n, _grids_n = sizes
    document = os.pread(fd, meta_n, _HEADER.size)
    if not lists:
        return json.loads(document)
    array = np.empty(lists_n // 8, dtype=np.int64)
    _read_all(fd, [array], _HEADER.size + meta_n + block_n)
    return json.loads(document, object_hook=lambda obj: (
        array[slice(*obj[_LIST])] if _LIST in obj else obj))


def read_checkpoint_meta(path) -> dict:
    """Cheap metadata peek: format version, agent count, iteration, and
    the ``extra_meta`` dict passed to :func:`save_checkpoint` (empty dict
    when none was stored).  No column arrays are materialized: a v5 file
    answers from its header and ``__meta__`` document, a v3/v4 file from
    its ``__meta__`` member."""
    with open(path, "rb") as f:
        sizes = _v5_sizes(f.fileno())
        if sizes is not None:
            return _peek(_v5_meta(f.fileno(), sizes, lists=False))
    with np.load(Path(path)) as data:
        if "__meta__" in data.files:
            return _peek(_read_meta(data))
        return {
            "format": int(data["__format__"][0]),
            "n": int(data["__meta_n__"][0]),
            "iteration": int(data["__meta_iteration__"][0]),
            "time": float(data["__meta_time__"][0]),
            "extra": (json.loads(str(data["__extra__"]))
                      if "__extra__" in data.files else {}),
        }


def _peek(meta: dict) -> dict:
    """:func:`read_checkpoint_meta`'s answer from a v3–v5 document."""
    return {
        "format": int(meta["format"]),
        "n": int(meta["n"]),
        "iteration": int(meta["iteration"]),
        "time": float(meta["time"]),
        "extra": meta["extra"] or {},
    }


def restore_checkpoint(sim, path) -> None:
    """Load a checkpoint into ``sim`` (which must have the same columns
    registered, the same diffusion grids added and, for a v4/v5 file,
    allocators of the same kinds).

    When the checkpoint holds an arena block with ``sim``'s column set,
    the whole agent state lands with one contiguous read (v5: from the
    file straight into the arena's fresh block) or copy (v2–v4); v1
    per-column files and layout mismatches go through per-column
    placement (:meth:`ResourceManager.restore_columns`).  A v4/v5 file
    also replaces the allocators' state and loads the warm hints; ``sim``
    may then be a model shell.  Every check — the file's length, the
    columns, the allocators, the grids — runs before ``sim`` changes.
    """
    _require_checkpointable(sim, "restore into")
    with open(path, "rb") as f:
        fd = f.fileno()
        sizes = _v5_sizes(fd)
        if sizes is not None:
            meta_n, block_n, lists_n, _grids_n = sizes
            meta = _v5_meta(fd, sizes)
            if int(meta["arena"]["nbytes"]) != block_n:
                raise ValueError(f"checkpoint block is {block_n} bytes, its "
                                 f"layout gives {meta['arena']['nbytes']}")
            at = _HEADER.size + meta_n
            grids = {name: (np.dtype(dt), tuple(shape))
                     for name, dt, shape in meta["grids"]}

            def read_grids():
                arrays = [np.empty(shape, dtype)
                          for dtype, shape in grids.values()]
                _read_all(fd, arrays, at + block_n + lists_n)
                return dict(zip(grids, arrays))

            _restore(sim, meta, lambda out: _read_all(fd, [out], at), None,
                     grids, read_grids)
            return
    with np.load(Path(path)) as data:
        if "__meta__" in data.files:
            meta = _read_meta(data, _read_member(data, "allocator__lists")
                              if "allocator__lists" in data.files else None)
            block, cols = _read_member(data, "arena__block"), None
        else:
            meta, block, cols = _read_legacy(data)
        grids = [k[6:] for k in data.files if k.startswith("grid__")]
        _restore(sim, meta, block, cols, grids, lambda: {
            name: _read_member(data, "grid__" + name) for name in grids})


def _restore(sim, meta, block, cols, grids, read_grids) -> None:
    """:func:`restore_checkpoint` once the file is open: ``block`` is the
    arena block's bytes, or ``block(out)`` reads them into ``out``;
    ``cols`` a v1 file's columns; ``grids`` the grid names;
    ``read_grids()`` the grids by name."""
    version = int(meta["format"])
    if not _MIN_FORMAT_VERSION <= version <= _FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format {version}")
    rm = sim.rm
    n = int(meta["n"])
    arena = meta["arena"]
    saved = (set(cols) if cols is not None
             else {name for name, _dt, _shape in arena["columns"]})
    missing = set(rm.data) - saved
    if missing:
        raise ValueError(f"checkpoint lacks columns {sorted(missing)}")
    extra = saved - set(rm.data)
    if extra:
        raise ValueError(
            f"checkpoint has columns {sorted(extra)}; register them "
            "on the target simulation before restoring"
        )
    allocators = meta.get("allocators")
    if allocators is not None:
        kinds = {role: None if a is None else a.name
                 for role, a in _allocators(sim).items()}
        saved_kinds = {role: None if allocators[role] is None
                       else allocators[role]["kind"] for role in kinds}
        if saved_kinds != kinds:
            raise ValueError(f"checkpoint allocators are {saved_kinds}; "
                             f"the target's are {kinds}")
    unknown = [name for name in grids if name not in sim.diffusion_grids]
    if unknown:
        raise ValueError(
            f"checkpoint has unknown diffusion grid {unknown[0]!r}")
    structure = rm.structure_version
    if cols is None and not rm.adopt_arena(block, arena, n):
        if callable(block):
            read, block = block, np.empty(int(arena["nbytes"]), np.uint8)
            read(block)
        cols = _arena_columns(block, arena)
    if cols is not None:
        rm.restore_columns({name: arr[:n] for name, arr in cols.items()}, n)
    rm.domain_starts = np.array(meta["domain_starts"], dtype=np.int64)
    rm._next_uid = int(meta["next_uid"])
    sim.scheduler.iteration = int(meta["iteration"])
    sim.time = float(meta["time"])
    if meta["rng"] is not None:
        # Restoring the RNG makes the continuation draw the exact
        # sequence the saving run would have (bitwise-identical
        # per-step checksums).
        sim.random.set_state(meta["rng"])
    if allocators is not None:
        for role, allocator in _allocators(sim).items():
            if allocator is not None:
                allocator.load_state(allocators[role])
        sim.agent_allocator.space.load_state(allocators["space"])
    for gname, concentration in read_grids().items():
        sim.diffusion_grids[gname].concentration = concentration
    warm = meta.get("warm")
    if warm is not None:
        sim.scheduler.neighbor_cache.load_tuner_state(
            warm["neighbor_cache"], structure)
        sim.kernels.load_sizing_hints(warm["kernels"])
    sim.invalidate_neighbor_cache()
    sim.note_state_change()
