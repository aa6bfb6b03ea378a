"""Determinism replay: a seeded simulation is a pure function of its seed.

The golden test replays the *actual example model*
(``examples/tumor_spheroid.py``) for 10 steps: same seed twice must give
byte-identical per-step state checksums, and a different seed must give a
different trajectory.  Plus unit tests of the checksum and harness
machinery, including that the harness really does catch nondeterminism.
"""

import importlib.util
import pathlib

import numpy as np
import pytest

from repro import Param, Simulation
from repro.core.random import SimulationRandom
from repro.verify import replay, replay_model, seed_sensitivity, state_checksum

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def _load_tumor_spheroid():
    spec = importlib.util.spec_from_file_location(
        "tumor_spheroid_example", EXAMPLES / "tumor_spheroid.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_golden_tumor_spheroid_determinism():
    # The acceptance test: the example model, 10 steps, replayed twice.
    mod = _load_tumor_spheroid()
    report = replay(
        lambda seed: mod.build_simulation(seed=seed),
        steps=10,
        seed=7,
        label="tumor_spheroid",
    )
    assert report.first_divergence is None, report.render()
    assert report.checksums_a == report.checksums_b
    assert len(report.checksums_a) == 11  # initial state + 10 steps
    # A different seed must actually change the trajectory.
    assert report.seed_sensitive is True
    assert report.ok


def test_golden_checksums_differ_across_seeds():
    mod = _load_tumor_spheroid()

    def final_checksum(seed):
        sim = mod.build_simulation(seed=seed)
        sim.simulate(10)
        return state_checksum(sim, include_rng=False)

    assert final_checksum(7) != final_checksum(8)


def test_replay_model_registry_models():
    for name in ("cell_clustering", "oncology"):
        report = replay_model(name, num_agents=150, steps=4)
        assert report.ok, report.render()
        assert "byte-identical" in report.render()


def test_replay_catches_nondeterminism():
    # A factory with hidden mutable state across calls — the exact bug the
    # harness exists to catch.
    calls = []

    def leaky_factory(seed):
        calls.append(seed)
        sim = Simulation("leaky", Param(), seed=seed)
        # Position depends on how many times the factory ran: run two
        # differs from run one from step 0.
        sim.add_cells(np.array([[10.0 + len(calls), 10.0, 10.0]]))
        return sim

    report = replay(leaky_factory, steps=2, seed=1,
                    check_seed_sensitivity=False)
    assert report.first_divergence == 0
    assert not report.ok
    assert "NOT deterministic" in report.render()


def test_seed_sensitivity_flags_unplumbed_seed():
    # A factory that ignores its seed entirely.
    def deaf_factory(seed):
        sim = Simulation("deaf", Param(), seed=0)
        sim.add_cells(np.array([[10.0, 10.0, 10.0]]))
        return sim

    assert seed_sensitivity(deaf_factory, steps=2, seed_a=1, seed_b=2) is False
    report = replay(deaf_factory, steps=2, seed=1)
    assert report.seed_sensitive is False
    assert not report.ok
    assert "seed not plumbed" in report.render()


def test_state_checksum_detects_single_element_change():
    sim = Simulation("chk", Param(), seed=3)
    sim.add_cells(np.random.default_rng(3).uniform(0, 50, size=(20, 3)))
    before = state_checksum(sim)
    sim.rm.positions[7, 1] += 1e-12  # one ULP-scale nudge, one element
    assert state_checksum(sim) != before


def test_state_checksum_includes_rng_stream():
    sim = Simulation("chk-rng", Param(), seed=3)
    sim.add_cells(np.array([[10.0, 10.0, 10.0]]))
    before = state_checksum(sim)
    sim.random.rng.random()  # advance the stream; agent state untouched
    assert state_checksum(sim) != before
    assert state_checksum(sim, include_rng=False) == state_checksum(
        sim, include_rng=False
    )


def test_simulation_random_state_checksum():
    a = SimulationRandom(seed=11)
    b = SimulationRandom(seed=11)
    assert a.state_checksum() == b.state_checksum()
    assert a.state_checksum() != SimulationRandom(seed=12).state_checksum()
    before = a.state_checksum()
    a.rng.normal(size=4)
    assert a.state_checksum() != before, "draws must advance the checksum"


@pytest.mark.parametrize("seed", [0, 4357])
def test_checksum_trace_is_reproducible(seed):
    def factory(s):
        sim = Simulation("trace", Param.optimized(), seed=s)
        rng = np.random.default_rng(s)
        sim.add_cells(rng.uniform(0, 60.0, size=(50, 3)))
        return sim

    report = replay(factory, steps=3, seed=seed,
                    check_seed_sensitivity=False)
    assert report.ok, report.render()


def test_model_bound_variant_requirement_reads_only_that_models_cells():
    """A ``(model, label)`` key of ``require_variant`` binds that model's
    cells of the variant: another model's zero does not make it unmet, the
    model's own zero does."""
    from repro.verify.replay import EquivalenceReport, Leg

    leg = Leg("t", variants={"c": {}},
              require_variant={("b", "c"): {"kernel:field_calls": 1}})
    report = EquivalenceReport(leg=leg, models=("a", "b"), steps=1)
    report.divergences = {("a", "c", 1): None, ("b", "c", 1): None}
    report.evidence = {("a", "c", 1): {"kernel:field_calls": 0},
                       ("b", "c", 1): {"kernel:field_calls": 4}}
    assert report.unmet() == [] and report.ok
    report.evidence[("b", "c", 1)]["kernel:field_calls"] = 0
    assert report.unmet() == [
        "kernel:field_calls >= 1 not reached in every b c cell"]
    assert not report.ok
