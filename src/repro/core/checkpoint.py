"""Checkpoint / restore (BioDynaMo's backup-and-restore feature).

BioDynaMo can persist a running simulation and resume it later (its
``backup_file`` parameter).  We persist everything needed to continue a
run deterministically-enough for analysis workflows:

- all ResourceManager columns (including user-registered ones),
- domain segmentation and uid counter,
- diffusion grid concentrations,
- iteration counter and simulated time.

Format v3 (written): an ``.npz`` with three kinds of member —

- ``__format__`` (the version, ``3``);
- one ``__meta__`` JSON document (UTF-8 bytes) holding ``n``,
  ``next_uid``, ``iteration``, ``time``, ``domain_starts``, the column
  list, the RNG state, the arena's :meth:`~repro.core.arena.SoAArena.layout_meta`
  and the caller's ``extra`` dict;
- ``arena__block`` — the SoA arena's **whole backing block**
  (:mod:`repro.core.arena`) — and one ``grid__<name>`` per diffusion grid.

Restore reads ``__meta__`` once and the block once, and adopts the block
into an arena with the same column set with a **single contiguous copy**
(:meth:`SoAArena.adopt`) — O(domains) instead of O(columns);
:func:`read_checkpoint_meta` reads ``__meta__`` alone.

Formats v1 and v2 are read-only: nothing writes them any more, and they
restore through their own reader.  v2 stored each scalar as its own
member plus the block and a separate ``arena__meta``; v1 stored one
``col__<name>`` array per column.  v1 files, and v2/v3 files whose
column set differs from the target's, restore through the per-column
placement funnel (:meth:`ResourceManager.restore_columns`).

Not persisted (documented limitations, as in BioDynaMo's ROOT backup):
behavior *instances* are code — the caller re-attaches the same behavior
objects to the restored simulation in registration order; virtual-machine
accounting restarts at zero; the pool allocator's free lists are not
saved, so the ``addr`` column restarts with the allocator and differs
from an uninterrupted run's from the first post-restore division on.
"""

from __future__ import annotations

import json
import struct
import zipfile
from pathlib import Path

import numpy as np

__all__ = ["save_checkpoint", "restore_checkpoint", "read_checkpoint_meta"]

_FORMAT_VERSION = 3

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


def save_checkpoint(sim, path, extra_meta: dict | None = None) -> Path:
    """Write the simulation state to a format-v3 ``.npz`` checkpoint and
    return the path written (``path``, with ``.npz`` appended when
    missing).

    The consolidated arena block is saved verbatim (one contiguous
    array); every scalar, the RNG state and the block's layout go into
    one JSON ``__meta__`` member.

    ``extra_meta`` is an optional JSON-serializable dict stored verbatim
    alongside the state (``read_checkpoint_meta`` returns it without
    loading any arrays).  The session server uses it to record how to
    rebuild an evicted session (model, population, seed, parameter
    overrides) so any worker can resume it.
    """
    _require_checkpointable(sim, "checkpoint")
    rm = sim.rm
    soa = rm.soa
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
        "extra": {} if extra_meta is None else extra_meta,
    }
    payload = {
        "__format__": np.array([_FORMAT_VERSION]),
        "__meta__": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        "arena__block": np.asarray(soa.block[: soa.nbytes]),
    }
    for gname, grid in sim.diffusion_grids.items():
        payload[f"grid__{gname}"] = grid.concentration
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
    np.savez(out, **payload)
    return out


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


def _read_meta(data) -> dict:
    """The ``__meta__`` document of a v3 file."""
    return json.loads(_read_member(data, "__meta__").tobytes())


def read_checkpoint_meta(path) -> dict:
    """Cheap metadata peek: format version, agent count, iteration, and
    the ``extra_meta`` dict passed to :func:`save_checkpoint` (empty dict
    when none was stored).  No column arrays are materialized; a v3 file
    answers from its ``__meta__`` member alone."""
    with np.load(Path(path)) as data:
        if "__meta__" in data.files:
            meta = _read_meta(data)
            return {
                "format": int(meta["format"]),
                "n": int(meta["n"]),
                "iteration": int(meta["iteration"]),
                "time": float(meta["time"]),
                "extra": meta["extra"] or {},
            }
        return {
            "format": int(data["__format__"][0]),
            "n": int(data["__meta_n__"][0]),
            "iteration": int(data["__meta_iteration__"][0]),
            "time": float(data["__meta_time__"][0]),
            "extra": (json.loads(str(data["__extra__"]))
                      if "__extra__" in data.files else {}),
        }


def restore_checkpoint(sim, path) -> None:
    """Load a checkpoint into ``sim`` (which must have the same columns
    registered and the same diffusion grids added).

    When the checkpoint holds an arena block with ``sim``'s column set,
    the whole agent state lands with one contiguous block copy; v1
    per-column files and layout mismatches go through per-column
    placement (:meth:`ResourceManager.restore_columns`).
    """
    _require_checkpointable(sim, "restore into")
    with np.load(Path(path)) as data:
        if "__meta__" in data.files:
            meta = _read_meta(data)
            block, cols = _read_member(data, "arena__block"), None
        else:
            meta, block, cols = _read_legacy(data)
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
        if cols is None and not rm.adopt_arena(block, arena, n):
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
        for k in data.files:
            if not k.startswith("grid__"):
                continue
            gname = k[6:]
            if gname not in sim.diffusion_grids:
                raise ValueError(f"checkpoint has unknown diffusion grid {gname!r}")
            sim.diffusion_grids[gname].concentration = _read_member(data, k)
        sim.invalidate_neighbor_cache()
        sim.note_state_change()
