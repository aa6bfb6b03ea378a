"""Engine invariants: green on real models, loud on corrupted state.

Acceptance: the scheduler-integrated checks
(``Param.check_invariants_frequency``) run clean on at least two example
simulations.  Each checker is then pointed at deliberately corrupted
state — holes, duplicated uids, cyclic linked lists, non-permutation
orders, tampered Morton runs — and must name the damage.
"""

import numpy as np
import pytest

from repro import Param, Simulation
from repro.env.uniform_grid import UniformGridEnvironment
from repro.sfc.gap_traversal import morton_runs_3d
from repro.simulations import get_simulation
from repro.verify import (
    InvariantCheckOperation,
    InvariantViolation,
    check_morton_runs,
    check_permutation,
    check_resource_manager,
    check_simulation_invariants,
    check_uniform_grid,
)


@pytest.mark.parametrize("model", ["cell_clustering", "oncology",
                                   "neuroscience"])
def test_scheduler_integrated_checks_run_green(model):
    # The Param flag wires check_simulation_invariants into the scheduler;
    # every model (one grows+moves, one also deletes, one runs static-agent
    # detection and with it the static-flag invariant) must pass every step.
    bench = get_simulation(model)
    param = bench.default_param().with_(check_invariants_frequency=1)
    sim = bench.build(250, param=param, seed=11)
    sim.simulate(6)  # raises InvariantViolation on any failure
    assert sim.obs.stage_seconds()["invariant_checks"] > 0.0


def test_frequency_zero_disables_checks():
    bench = get_simulation("cell_clustering")
    sim = bench.build(100, param=bench.default_param(), seed=1)
    sim.simulate(2)
    assert sim.obs.stage_seconds().get("invariant_checks", 0.0) == 0.0


def test_param_flag_validation():
    assert Param(check_invariants_frequency=5).check_invariants_frequency == 5
    with pytest.raises(ValueError):
        Param(check_invariants_frequency=-1).validate()


def test_invariant_operation_composable():
    sim = Simulation("op", Param.optimized(), seed=2)
    sim.add_cells(np.random.default_rng(2).uniform(0, 60.0, size=(80, 3)))
    sim.add_operation(InvariantCheckOperation(frequency=2))
    sim.simulate(4)
    with pytest.raises(ValueError):
        InvariantCheckOperation(frequency=0)


def _clean_sim(n=60, seed=4):
    sim = Simulation("inv", Param.optimized(), seed=seed)
    sim.add_cells(np.random.default_rng(seed).uniform(0, 50.0, size=(n, 3)))
    sim.simulate(2)
    return sim


def test_clean_simulation_has_no_violations():
    assert check_simulation_invariants(_clean_sim()) == []


def test_hole_in_uid_column_detected():
    sim = _clean_sim()
    sim.rm.data["uid"][3] = -1  # the removal fill value: a hole
    violations = check_resource_manager(sim.rm)
    assert any("hole" in v.message for v in violations)
    with pytest.raises(InvariantViolation) as exc_info:
        check_simulation_invariants(sim, raise_on_violation=True)
    assert "resource_manager" in str(exc_info.value)


def test_duplicate_uid_detected():
    sim = _clean_sim()
    sim.rm.data["uid"][5] = sim.rm.data["uid"][6]
    violations = check_resource_manager(sim.rm)
    assert any("not unique" in v.message for v in violations)


def test_uid_beyond_counter_detected():
    sim = _clean_sim()
    sim.rm.data["uid"][0] = sim.rm._next_uid + 100
    violations = check_resource_manager(sim.rm)
    assert any("next_uid" in v.message for v in violations)


def test_grid_linked_list_cycle_detected():
    env = UniformGridEnvironment()
    pos = np.random.default_rng(0).uniform(0, 30.0, size=(40, 3))
    env.update(pos, 5.0)
    assert check_uniform_grid(env) == []
    state = env.linked_list_state()
    # Tie the first occupied box's list head to itself: a cycle.
    b = int(state["box_of_agent"][0])
    head = int(state["order"][int(state["box_start"][b])])
    state["successor"][head] = head
    violations = check_uniform_grid(env)
    assert any("cyclic" in v.message or "visits" in v.message
               for v in violations)


def test_grid_foreign_agent_detected():
    env = UniformGridEnvironment()
    pos = np.random.default_rng(1).uniform(0, 30.0, size=(40, 3))
    env.update(pos, 5.0)
    state = env.linked_list_state()
    # Claim agent 0 lives in a different box than its coordinates map to.
    state["box_of_agent"][0] += 1
    violations = check_uniform_grid(env)
    assert violations, "a mis-binned agent must be reported"


def test_permutation_check():
    assert check_permutation(4, np.array([2, 0, 3, 1])) == []
    assert check_permutation(4, np.array([0, 0, 3, 1]))  # duplicate
    assert check_permutation(4, np.array([0, 1, 2]))     # short


def test_morton_runs_validate_and_tamper():
    import dataclasses

    runs = morton_runs_3d(4, 3, 2)
    assert runs.validate() is runs
    # Claim a box the grid does not have.
    bad = dataclasses.replace(runs, num_boxes=runs.num_boxes + 1)
    with pytest.raises(ValueError):
        bad.validate()


def test_check_morton_runs_on_live_grid():
    env = UniformGridEnvironment()
    env.update(np.random.default_rng(2).uniform(0, 80.0, size=(60, 3)), 4.0)
    assert check_morton_runs(env) == []


def test_violation_message_is_actionable():
    sim = _clean_sim()
    sim.rm.data["uid"][2] = -1
    sim.rm.data["uid"][9] = sim.rm.data["uid"][8]
    violations = check_simulation_invariants(sim)
    # All failures are collected (not just the first) and name the checker.
    assert len(violations) >= 2
    assert all(v.name == "resource_manager" for v in violations)
