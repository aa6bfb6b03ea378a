"""Frozen writers of the retired checkpoint layouts (v1 and v2).

``repro.core.checkpoint`` only reads these formats now; the tests use
these copies of the old writers to produce v1/v2 files from a live
simulation.  (``tests/data`` holds one file of each, written by the real
retired writers, for the golden-trace restores.)
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
