"""Simulation lifecycle state machine.

CREATED → RUNNING (inside simulate) → PAUSED (between calls) → CLOSED.
Stepping a closed simulation, re-entering simulate, and checkpointing a
RUNNING or CLOSED simulation must all raise :class:`LifecycleError`;
``close()`` is idempotent.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro import (
    LifecycleError,
    SimulationState,
    restore_checkpoint,
    save_checkpoint,
)
from repro.core import StandaloneOperation
from repro.simulations import get_simulation


def _build(agents=30, seed=1):
    bench = get_simulation("cell_proliferation")
    return bench.build(agents, seed=seed)


def test_states_progress_created_paused_closed():
    sim = _build()
    assert sim.state is SimulationState.CREATED
    sim.simulate(2)
    assert sim.state is SimulationState.PAUSED
    sim.simulate(1)  # PAUSED → RUNNING → PAUSED again
    assert sim.state is SimulationState.PAUSED
    sim.close()
    assert sim.state is SimulationState.CLOSED


def test_state_is_running_inside_the_loop():
    sim = _build()
    seen = []
    sim.add_operation(StandaloneOperation(
        lambda s: seen.append(s.state), name="probe"))
    sim.simulate(2)
    assert seen and all(s is SimulationState.RUNNING for s in seen)


def test_simulate_after_close_raises():
    sim = _build()
    sim.simulate(1)
    sim.close()
    with pytest.raises(LifecycleError, match="closed"):
        sim.simulate(1)


def test_reentrant_simulate_raises():
    sim = _build()

    def reenter(s):
        with pytest.raises(LifecycleError):
            s.simulate(1)

    sim.add_operation(StandaloneOperation(reenter, name="reenter"))
    sim.simulate(1)
    assert sim.state is SimulationState.PAUSED


def test_close_is_idempotent():
    sim = _build()
    sim.simulate(1)
    sim.close()
    sim.close()
    sim.close()
    assert sim.state is SimulationState.CLOSED


@pytest.mark.parametrize("event_scheduling", [False, True])
def test_a_closed_simulation_goes_with_its_last_reference(event_scheduling):
    """No reference cycle outlives close(): the simulation, its scheduler
    and its neighbor build are freed without the cyclic collector (a serve
    worker closes one per eviction)."""
    sim = get_simulation("oncology").build(
        200, param=get_simulation("oncology").default_param().with_(
            event_scheduling=event_scheduling), seed=3)
    sim.simulate(2)
    alive = [weakref.ref(obj) for obj in (sim, sim.scheduler, sim.env)]
    sim.close()
    sim.neighbors()  # the scheduler still reaches its simulation
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        del sim
        assert [ref() for ref in alive] == [None, None, None]
    finally:
        if was_enabled:
            gc.enable()


def test_failed_step_leaves_simulation_pausable(tmp_path):
    """An exception mid-step must not wedge the state machine in
    RUNNING: the sim lands in PAUSED and stays checkpointable."""
    sim = _build()
    boom = StandaloneOperation(
        lambda s: (_ for _ in ()).throw(RuntimeError("boom")), name="boom")
    sim.add_operation(boom)
    with pytest.raises(RuntimeError, match="boom"):
        sim.simulate(3)
    assert sim.state is SimulationState.PAUSED
    save_checkpoint(sim, tmp_path / "after-failure.npz")


def test_checkpoint_guards(tmp_path):
    sim = _build()
    sim.simulate(1)
    path = tmp_path / "ck.npz"
    save_checkpoint(sim, path)

    # RUNNING: columns are half-written mid-step.
    def try_ckpt(s):
        with pytest.raises(LifecycleError, match="RUNNING"):
            save_checkpoint(s, tmp_path / "never.npz")
        with pytest.raises(LifecycleError, match="RUNNING"):
            restore_checkpoint(s, path)

    sim3 = _build()
    sim3.add_operation(StandaloneOperation(try_ckpt, name="ckpt-in-step"))
    sim3.simulate(1)

    # CLOSED: shm segments may already be unlinked.
    sim.close()
    with pytest.raises(LifecycleError, match="closed"):
        save_checkpoint(sim, tmp_path / "never2.npz")
    with pytest.raises(LifecycleError, match="closed"):
        restore_checkpoint(sim, path)


def test_restore_into_fresh_sim_still_works(tmp_path):
    sim = _build(seed=7)
    sim.simulate(3)
    path = tmp_path / "ck.npz"
    save_checkpoint(sim, path)

    fresh = _build(seed=7)
    restore_checkpoint(fresh, path)
    assert fresh.scheduler.iteration == 3
    # Restoring does not corrupt the lifecycle: it can still run.
    fresh.simulate(1)
    assert fresh.state is SimulationState.PAUSED
