"""Checkpoint / restore (BioDynaMo's backup-and-restore feature).

BioDynaMo can persist a running simulation and resume it later (its
``backup_file`` parameter).  We persist everything needed to continue a
run deterministically-enough for analysis workflows:

- all ResourceManager columns (including user-registered ones),
- domain segmentation and uid counter,
- diffusion grid concentrations,
- iteration counter and simulated time.

Format v2: the checkpoint stores the SoA arena's **whole backing block**
(:mod:`repro.core.arena`) plus its layout descriptor, and restore into an
arena with the same column set is a **single contiguous copy**
(:meth:`SoAArena.adopt`) — O(domains) instead of O(columns).  Per-column
files (format v1, one ``col__<name>`` array per column) are no longer
written but remain readable: they, and v2 files whose column set differs
from the target's, restore through the per-column placement funnel
(:meth:`ResourceManager.restore_columns`).

Not persisted (documented limitations, as in BioDynaMo's ROOT backup):
behavior *instances* are code — the caller re-attaches the same behavior
objects to the restored simulation in registration order; virtual-machine
accounting restarts at zero.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

__all__ = ["save_checkpoint", "restore_checkpoint", "read_checkpoint_meta"]

_FORMAT_VERSION = 2

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


def save_checkpoint(sim, path, extra_meta: dict | None = None) -> Path:
    """Write the simulation state to an ``.npz`` checkpoint.

    The consolidated arena block is saved verbatim (one contiguous
    array) plus a JSON layout descriptor.

    ``extra_meta`` is an optional JSON-serializable dict stored verbatim
    alongside the state (``read_checkpoint_meta`` returns it without
    loading any arrays).  The session server uses it to record how to
    rebuild an evicted session (model, population, seed, parameter
    overrides) so any worker can resume it.
    """
    _require_checkpointable(sim, "checkpoint")
    path = Path(path)
    rm = sim.rm
    payload = {
        "__format__": np.array([_FORMAT_VERSION]),
        "__meta_n__": np.array([rm.n]),
        "__meta_next_uid__": np.array([rm._next_uid]),
        "__meta_iteration__": np.array([sim.scheduler.iteration]),
        "__meta_time__": np.array([sim.time]),
        "__domain_starts__": rm.domain_starts,
        "__columns__": np.array(json.dumps(list(rm.data))),
        "__rng__": np.array(json.dumps(sim.random.get_state())),
    }
    if extra_meta is not None:
        payload["__extra__"] = np.array(json.dumps(extra_meta))
    soa = rm.soa
    payload["arena__block"] = np.asarray(soa.block[: soa.nbytes])
    payload["arena__meta"] = np.array(json.dumps(soa.layout_meta()))
    for gname, grid in sim.diffusion_grids.items():
        payload[f"grid__{gname}"] = grid.concentration
    np.savez(path, **payload)
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def _checkpoint_columns(data) -> tuple[dict, dict | None]:
    """``({name: array}, arena_meta_or_None)`` from an open ``.npz``.

    For arena checkpoints the column arrays are zero-copy views over the
    loaded block (materialized only if the per-column fallback needs
    them).
    """
    if "arena__meta" in data.files:
        meta = json.loads(str(data["arena__meta"]))
        block = np.ascontiguousarray(data["arena__block"], dtype=np.uint8)
        cols = {}
        for name, dt, shape in meta["columns"]:
            rows = int(meta["capacity"])
            cols[name] = np.ndarray(
                (rows, *[int(s) for s in shape]), dtype=np.dtype(dt),
                buffer=block, offset=int(meta["offsets"][name]),
            )
        return cols, meta
    return ({k[5:]: data[k] for k in data.files if k.startswith("col__")},
            None)


def read_checkpoint_meta(path) -> dict:
    """Cheap metadata peek: format version, agent count, iteration, and
    the ``extra_meta`` dict passed to :func:`save_checkpoint` (empty dict
    when none was stored).  No column arrays are materialized."""
    with np.load(Path(path)) as data:
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
        version = int(data["__format__"][0])
        if not _MIN_FORMAT_VERSION <= version <= _FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint format {version}")
        rm = sim.rm
        n = int(data["__meta_n__"][0])
        cols, meta = _checkpoint_columns(data)
        missing = set(rm.data) - set(cols)
        if missing:
            raise ValueError(f"checkpoint lacks columns {sorted(missing)}")
        extra = set(cols) - set(rm.data)
        if extra:
            raise ValueError(
                f"checkpoint has columns {sorted(extra)}; register them "
                "on the target simulation before restoring"
            )
        adopted = (
            meta is not None
            and rm.adopt_arena(data["arena__block"], meta, n)
        )
        if not adopted:
            rm.restore_columns(
                {name: arr[:n] for name, arr in cols.items()}, n)
        rm.domain_starts = data["__domain_starts__"].copy()
        rm._next_uid = int(data["__meta_next_uid__"][0])
        sim.scheduler.iteration = int(data["__meta_iteration__"][0])
        sim.time = float(data["__meta_time__"][0])
        if "__rng__" in data.files:
            # v1 checkpoints predate RNG persistence; restoring it makes
            # the continuation draw the exact sequence the saving run
            # would have (bitwise-identical per-step checksums).
            sim.random.set_state(json.loads(str(data["__rng__"])))
        for k in data.files:
            if not k.startswith("grid__"):
                continue
            gname = k[6:]
            if gname not in sim.diffusion_grids:
                raise ValueError(f"checkpoint has unknown diffusion grid {gname!r}")
            sim.diffusion_grids[gname].concentration = data[k].copy()
        sim.invalidate_neighbor_cache()
        sim.note_state_change()
