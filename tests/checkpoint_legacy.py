"""Frozen writers of the retired checkpoint layouts (v1 to v4).

``repro.core.checkpoint`` only reads these formats now; the tests use
these copies of the old writers to produce v1–v4 files from a live
simulation.  (``tests/data`` holds one v1 and one v2 file, written by the
real retired writers, for the golden-trace restores.)
"""

import json

import numpy as np


def _scalars(sim, version, extra_meta):
    rm = sim.rm
    payload = {
        "__format__": np.array([version]),
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
    for gname, grid in sim.diffusion_grids.items():
        payload[f"grid__{gname}"] = grid.concentration
    return payload


def save_v4(sim, path, extra_meta=None):
    """The format-v4 writer: v3 plus the allocators' state (each free
    list an ``{"@list": [start, stop]}`` slice of the int64 member
    ``allocator__lists``) and the warm hints."""
    rm = sim.rm
    soa = rm.soa
    meta = {
        "format": 4,
        "n": int(rm.n),
        "next_uid": int(rm._next_uid),
        "iteration": int(sim.scheduler.iteration),
        "time": float(sim.time),
        "domain_starts": rm.domain_starts.tolist(),
        "columns": list(rm.data),
        "rng": sim.random.get_state(),
        "arena": soa.layout_meta(),
        "warm": {
            "neighbor_cache": sim.scheduler.neighbor_cache.tuner_state(),
            "kernels": sim.kernels.sizing_hints(),
        },
        "extra": {} if extra_meta is None else extra_meta,
    }
    agent, other = sim.agent_allocator, sim.other_allocator
    meta["allocators"] = {
        "agent": agent.state(),
        "other": None if other is agent else other.state(),
        "space": agent.space.state(),
    }
    lists = []

    def default(value):
        if isinstance(value, np.generic):
            return value.item()
        if isinstance(value, np.ndarray):
            start = sum(map(len, lists))
            lists.append(value)
            return {"@list": [start, start + len(value)]}
        raise TypeError(f"{type(value).__name__} is not JSON serializable")

    document = json.dumps(meta, default=default).encode()
    payload = {
        "__format__": np.array([4]),
        "__meta__": np.frombuffer(document, dtype=np.uint8),
        "arena__block": np.asarray(soa.block[: soa.nbytes]),
        "allocator__lists": (np.concatenate(lists) if lists
                             else np.empty(0, dtype=np.int64)),
    }
    for gname, grid in sim.diffusion_grids.items():
        payload[f"grid__{gname}"] = grid.concentration
    np.savez(path, **payload)


def save_v3(sim, path, extra_meta=None):
    """The format-v3 writer: one JSON ``__meta__`` member, the arena
    block and the grids -- no allocator state, no warm hints."""
    rm = sim.rm
    soa = rm.soa
    meta = {
        "format": 3,
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
        "__format__": np.array([3]),
        "__meta__": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        "arena__block": np.asarray(soa.block[: soa.nbytes]),
    }
    for gname, grid in sim.diffusion_grids.items():
        payload[f"grid__{gname}"] = grid.concentration
    np.savez(path, **payload)


def save_v2(sim, path, extra_meta=None):
    """The format-v2 writer: scalars as separate members, the arena block
    plus its ``arena__meta`` layout."""
    payload = _scalars(sim, 2, extra_meta)
    soa = sim.rm.soa
    payload["arena__block"] = np.asarray(soa.block[: soa.nbytes])
    payload["arena__meta"] = np.array(json.dumps(soa.layout_meta()))
    np.savez(path, **payload)


def save_v1(sim, path, extra_meta=None):
    """The format-v1 writer: one ``col__<name>`` array per column."""
    payload = _scalars(sim, 1, extra_meta)
    payload.update({f"col__{name}": arr.copy()
                     for name, arr in sim.rm.data.items()})
    np.savez(path, **payload)
