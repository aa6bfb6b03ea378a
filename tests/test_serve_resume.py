"""Resuming a served session into a model shell.

A serve worker resumes an evicted session by filling the spec's model
shell (``BenchmarkSimulation.shell``: no agents, the population code
never runs) from the spooled checkpoint, which carries every column, the
allocators and the warm hints.  These tests hold the resumed session to
the uninterrupted run: the engine's invariants, the full state checksum
(``addr`` included), and the first tick's neighbor-search choices.  They
drive ``HostedSession`` -- the worker's own create / evict / restore code
-- in-process.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels import c_backend
from repro.kernels.dispatch import _probe
from repro.serve.session import HostedSession, build_session_sim
from repro.simulations import get_simulation
from repro.simulations.registry import available_simulations
from repro.verify.invariants import check_simulation_invariants
from repro.verify.replay import LEGS
from repro.verify.snapshot import state_checksum


def _spec(model, agents, seed=0):
    return {"model": model, "agents": agents, "seed": seed, "params": {}}


def _evict_and_resume(session, path):
    """The worker's ``evict`` then ``restore``: checkpoint, close, fill a
    shell.  Returns the resumed session."""
    session.checkpoint(str(path), session.spec)
    session.close()
    resumed, _phases = HostedSession.restore(session.sid, session.spec,
                                             str(path))
    return resumed


def test_resumed_oncology_session_keeps_its_invariants(tmp_path):
    """A session evicted at tick 8 and stepped 3 more ticks holds every
    engine invariant: its allocator resumes where it stopped, so no
    payload address is handed out twice (a rebuilt allocator knew only
    the initial population: 6 collisions here)."""
    session = HostedSession.create("a", _spec("oncology", 5000))
    session.sim.simulate(8)
    session = _evict_and_resume(session, tmp_path / "a.npz")
    try:
        session.sim.simulate(3)
        assert check_simulation_invariants(session.sim) == []
    finally:
        session.close()


@pytest.mark.parametrize("model", (*LEGS["serve"].models, "oncology"))
def test_evicted_before_every_tick_matches_uninterrupted(tmp_path, model):
    """Evicted and resumed before each of 20 ticks, a session ends at the
    uninterrupted run's full state checksum, ``addr`` included: on the
    models ``verify --serve`` runs, and on one that allocates and frees
    payloads every tick."""
    spec = _spec(model, LEGS["serve"].num_agents, seed=3)
    with build_session_sim(spec) as ref:
        ref.simulate(20)
        want = state_checksum(ref)
    session = HostedSession.create("a", spec)
    for _ in range(20):
        session = _evict_and_resume(session, tmp_path / "a.npz")
        session.sim.simulate(1)
    try:
        assert session.sim.rm.data["addr"].any()
        assert state_checksum(session.sim) == want
    finally:
        session.close()


# --------------------------------------------------------------------- #
# A warm first tick
# --------------------------------------------------------------------- #

#: Counters of one tick's neighbor-search decisions.
_DECISIONS = ("scheduler:env_rebuilds", "neighbor_cache:misses",
              "neighbor_cache:hits", "neighbor_cache:refilters",
              "kernel:search_overflows")


def _tick_decisions(sim, monkeypatch):
    """Step ``sim`` one tick; return the skins its builds used and its
    decision counters' increments."""
    from repro.core.scheduler import NeighborCache

    skins = []
    real = NeighborCache._rebuild

    def recording(self, radius, skin):
        skins.append(skin / radius)
        return real(self, radius, skin)

    monkeypatch.setattr(NeighborCache, "_rebuild", recording)
    before = sim.obs.registry.snapshot()
    sim.simulate(1)
    after = sim.obs.registry.snapshot()
    monkeypatch.undo()
    return skins, {c: after[c] - before.get(c, 0) for c in _DECISIONS}


@pytest.mark.skipif(not _probe("c"),
                    reason="the C kernel library cannot be built here")
def test_first_resumed_tick_is_warm(tmp_path, monkeypatch):
    """On one C thread, as in a serve worker: the first tick after a
    resume sizes its search stage from the last search (no overflow) and
    takes the rebuild path and skin the uninterrupted run takes on the
    same tick -- under every-tick churn, exact builds (skin 0)."""
    c_backend._set_threads(1)
    try:
        spec = _spec("oncology", 5000)
        with build_session_sim(spec) as ref:
            ref.simulate(8)
            want = _tick_decisions(ref, monkeypatch)
        session = HostedSession.create("a", spec)
        session.sim.simulate(8)
        session = _evict_and_resume(session, tmp_path / "a.npz")
        try:
            got = _tick_decisions(session.sim, monkeypatch)
        finally:
            session.close()
    finally:
        c_backend._set_threads(None)
    assert want == ([0.0], {"scheduler:env_rebuilds": 1,
                            "neighbor_cache:misses": 1,
                            "neighbor_cache:hits": 0,
                            "neighbor_cache:refilters": 0,
                            "kernel:search_overflows": 0})
    assert got == want


# --------------------------------------------------------------------- #
# The shell contract
# --------------------------------------------------------------------- #

def _same(a, b) -> bool:
    """Equality that descends into dicts and compares arrays by value."""
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(_same(a[k], b[k]) for k in a))
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    return type(a) is type(b) and a == b


def _model(sim):
    """Everything of a simulation a restore does not overwrite."""
    grids = {name: (g.resolution, g.lower, g.upper, g.diffusion_coefficient,
                    g.decay)
             for name, g in sim.diffusion_grids.items()}
    return {
        "param": sim.param,
        "behaviors": [(type(b), bit) for b, bit in sim.behaviors],
        "columns": [(name, arr.dtype, arr.shape[1:])
                    for name, arr in sim.rm.data.items()],
        "grids": grids,
        "operations": [type(op) for op in sim.operations],
        "force": type(sim.force),
        "mechanics": sim.mechanics_enabled,
        "radius": sim.fixed_interaction_radius,
    }


@pytest.mark.parametrize("model", available_simulations())
def test_shell_registers_what_build_does(model):
    """A shell and a build of the same model agree on the ``Param``, the
    behaviors (type, ``vars()`` and mask bit, in order), the columns
    (name, dtype, row shape), the diffusion grids (name, resolution,
    bounds, coefficients) and the operation types -- everything a
    checkpoint restore relies on being there."""
    bench = get_simulation(model)
    with bench.shell(300, seed=2) as shell, bench.build(300, seed=2) as built:
        assert shell.rm.n == 0
        assert _model(shell) == _model(built)
        for (b, _), (c, _) in zip(shell.behaviors, built.behaviors):
            assert _same(vars(b), vars(c)), type(b).__name__
