"""Whole-population dispatch: column views are byte-for-byte the gathers.

A behavior handed every agent indexes its columns through
``select_rows(idx, n)`` — ``slice(0, n)`` — and so reads views and updates
in place instead of gathering and scattering through ``idx``.  These tests
run the engine tick by tick against a run with the selector replaced by
one that always returns ``idx`` (the fancy-index path every behavior took
before), over every library behavior, the NumPy field kernels and four
kinds of cohort: every agent, every agent but one, nobody, and a cohort
that ``attach_behavior`` / ``detach_behavior`` / ``Agent.set`` change
mid-run.  Every column, the RNG state and the ``sim.neighbors()`` CSR
must be bitwise equal after every tick.  The scheduler's cohorts are held
to ``np.flatnonzero(mask & bit)`` in values and dtype.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro import (
    Chemotaxis,
    DiffusionGrid,
    GrowDivide,
    Param,
    RandomWalk,
    Secretion,
    Simulation,
)
from repro.core.behavior import select_rows
from repro.core.behaviors_lib import (
    Confinement,
    ImportCases,
    Infection,
    Lockdown,
    Recovery,
    StochasticDeath,
    Vaccination,
)
from repro.core.gene_regulation import GeneRegulation
from repro.kernels.numpy_ref import _field_rows
from repro.neuro import NeuriteExtension, SynapseFormation, add_neuron

COHORTS = ["everyone", "all_but_one", "empty", "attach_detach"]
TICKS = 12

#: Every module whose column accesses go through the selector.
SELECTOR_MODULES = {
    "repro.core.behavior", "repro.core.behaviors_lib",
    "repro.core.gene_regulation", "repro.kernels.numpy_ref",
    "repro.neuro.behaviors", "repro.neuro.synapse",
}


def install_selector(monkeypatch, fn) -> None:
    """``fn`` in place of ``select_rows`` wherever a repro module bound it."""
    patched = set()
    for name, module in list(sys.modules.items()):
        if (name.startswith("repro.")
                and getattr(module, "select_rows", None) is select_rows):
            monkeypatch.setattr(module, "select_rows", fn)
            patched.add(name)
    assert SELECTOR_MODULES <= patched


def gene_regulation() -> GeneRegulation:
    genes = GeneRegulation(method="rk4", substeps=2)
    genes.add_species("p", 1.0, lambda sim, idx, y: 0.3 - 0.1 * y["p"] * y["q"])
    genes.add_species("q", 0.5, lambda sim, idx, y: 0.05 * y["p"])
    return genes


def cells_model(event_scheduling):
    """Every library cell behavior on one population, NumPy kernels."""
    param = Param(agent_sort_frequency=5, event_scheduling=event_scheduling,
                  bound_space=(0.0, 100.0))
    sim = Simulation("views", param, seed=7)
    sim.rm.register_column("state", np.int8, (), Infection.SUSCEPTIBLE)
    grid = sim.add_diffusion_grid(DiffusionGrid(
        "s", 8, 0.0, 100.0, diffusion_coefficient=0.4, decay=0.01))
    rng = np.random.default_rng(7)
    grid.concentration[:] = rng.random(grid.concentration.shape)
    sim.add_cells(rng.uniform(20.0, 80.0, (60, 3)), diameters=8.0)
    sim.rm.data["state"][:4] = Infection.INFECTED
    behaviors = [
        GrowDivide(growth_rate=60.0, division_diameter=10.0, max_agents=110),
        RandomWalk(1.5),
        Confinement([50.0, 50.0, 50.0], radius=25.0, strength=2.0),
        StochasticDeath(0.02),
        Secretion("s", 0.5),
        Chemotaxis("s", 2.0),
        gene_regulation(),
        Infection(0.4),
        Recovery(0.2),
        ImportCases([2, 7], cases=2),
        Vaccination([4], fraction=0.3),
        Lockdown(5, 9, fraction=0.5),
    ]
    return sim, behaviors


def neuro_model(event_scheduling):
    """Neurite growth and synapse formation on every element."""
    param = Param(agent_sort_frequency=4, event_scheduling=event_scheduling)
    sim = Simulation("views-neuro", param, seed=3)
    sim.mechanics_enabled = False
    sim.fixed_interaction_radius = 5.0
    rng = np.random.default_rng(3)
    for k, x in enumerate((40.0, 46.0, 52.0)):
        add_neuron(sim, [x, 50.0, 50.0], num_neurites=3, neuron_id=k, rng=rng)
    behaviors = [
        NeuriteExtension(speed=40.0, max_segment_length=4.0,
                         bifurcation_probability=0.2, wiggle=0.4,
                         max_agents=200),
        SynapseFormation(contact_distance=5.0, probability=1.0),
    ]
    return sim, behaviors


MODELS = {"cells": cells_model, "neuro": neuro_model}


def attach(sim, behaviors, kind):
    n = sim.rm.n
    for b in behaviors:
        if kind == "empty" and not isinstance(b, RandomWalk):
            sim.register_behavior(b)                 # a cohort of nobody
        elif kind == "all_but_one":
            sim.attach_behavior(np.arange(1, n), b)    # not agent 0
        else:
            sim.attach_behavior(np.arange(n), b)


def edit_cohorts(sim, behaviors, kind, tick):
    """The mid-run mask edits of the ``attach_detach`` kind."""
    if kind != "attach_detach":
        return
    if tick == 3:
        for b in behaviors[::2]:
            sim.detach_behavior(np.arange(3), b)
    elif tick == 6:
        for b in behaviors:
            sim.attach_behavior(np.arange(sim.rm.n), b)
    elif tick == 9:
        agent = sim.get_agent(int(sim.rm.data["uid"][1]))
        agent.set("behavior_mask", np.uint64(0))


def snapshot(sim, behaviors):
    rm = sim.rm
    indptr, indices = sim.neighbors()
    return {
        "n": rm.n,
        "columns": {k: (v.dtype.str, v.shape, v.tobytes())
                    for k, v in rm.data.items()},
        "rng": sim.random.get_state(),
        "csr": (indptr.dtype.str, indptr.tobytes(),
                indices.dtype.str, indices.tobytes()),
        "grids": {k: g.concentration.tobytes()
                  for k, g in sim.diffusion_grids.items()},
        "synapses": [list(getattr(b, "synapses", ())) for b in behaviors],
    }


def trajectory(model, kind, event_scheduling, selector):
    """Per-tick snapshots, the selector in place, and the final registry."""
    with pytest.MonkeyPatch.context() as mp:
        install_selector(mp, selector)
        sim, behaviors = MODELS[model](event_scheduling)
        attach(sim, behaviors, kind)
        out = []
        for tick in range(TICKS):
            edit_cohorts(sim, behaviors, kind, tick)
            sim.simulate(1)
            out.append(snapshot(sim, behaviors))
            # An empty cohort handed straight to every behavior: a no-op
            # on either path.
            for b in behaviors:
                b.next_fire(sim, np.arange(0))
        return out, sim.obs.registry


@pytest.mark.parametrize("event_scheduling", [False, True])
@pytest.mark.parametrize("kind", COHORTS)
@pytest.mark.parametrize("model", sorted(MODELS))
def test_views_equal_gathers_at_every_tick(model, kind, event_scheduling):
    views = []

    def counting(idx, n):
        rows = select_rows(idx, n)
        views.append(isinstance(rows, slice))
        return rows

    got, reg = trajectory(model, kind, event_scheduling, counting)
    want, _ = trajectory(model, kind, event_scheduling, lambda idx, n: idx)
    for tick, (g, w) in enumerate(zip(got, want)):
        for key in w:
            assert g[key] == w[key], f"{model}/{kind}: {key} differs at tick {tick}"
    assert len(got) == len(want) == TICKS
    whole = reg.counter("agent_ops:whole_population_dispatches").value
    if kind in ("everyone", "attach_detach"):
        # Not vacuous: the view path really ran.
        assert whole > 0 and any(views)
    if kind == "empty":                 # RandomWalk alone, in ``cells``
        assert whole == (TICKS if model == "cells" else 0)


class TestBehaviorIndices:
    def _sim(self):
        sim = Simulation("cohorts", Param(agent_sort_frequency=0), seed=5)
        rng = np.random.default_rng(5)
        idx = sim.add_cells(rng.uniform(0.0, 60.0, (40, 3)), diameters=6.0)
        sim.attach_behavior(idx, RandomWalk(0.5))
        sim.attach_behavior(idx, StochasticDeath(0.0))
        sim.attach_behavior(idx[::2], RandomWalk(0.2))      # half
        return sim

    def _check(self, sim):
        rm = sim.rm
        mask = rm.data["behavior_mask"]
        for _, bit in sim.behaviors:
            got = sim.scheduler._behavior_indices(rm, bit)
            want = np.flatnonzero(mask & np.uint64(bit))
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert got.flags.writeable == (len(got) != rm.n)

    def test_cohorts_equal_flatnonzero(self):
        sim = self._sim()
        self._check(sim)
        sim.simulate(2)
        self._check(sim)
        late = RandomWalk(0.1)
        sim.register_behavior(late)                # after the cache filled
        self._check(sim)
        sim.attach_behavior(np.arange(sim.rm.n), late)
        self._check(sim)
        sim.get_agent(int(sim.rm.data["uid"][0])).set(
            "behavior_mask", np.uint64(1))         # through Agent.set
        self._check(sim)
        sim.simulate(1)
        self._check(sim)

    def test_whole_cohorts_share_one_read_only_arange(self):
        sim = self._sim()
        rm = sim.rm
        (_, a), (_, b), (_, half) = sim.behaviors
        sched = sim.scheduler
        everyone = sched._behavior_indices(rm, a)
        assert sched._behavior_indices(rm, b) is everyone
        assert sched._behavior_indices(rm, half) is not everyone
        with pytest.raises(ValueError):
            everyone[0] = 1

    def test_single_pass_is_not_counted_as_cache_hits(self):
        sim = self._sim()
        sim.simulate(1)
        hits = sim.obs.registry.counter("agent_ops:mask_cache_hits")
        assert hits.value == 0          # three cohorts, each looked up once
        sim.simulate(1)
        assert hits.value == 3


def test_select_rows():
    idx = np.arange(5)
    assert select_rows(idx, 5) == slice(0, 5)
    sub = idx[[0, 2, 4]]
    assert select_rows(sub, 5) is sub
    empty = idx[:0]
    assert select_rows(empty, 5) is empty
    assert select_rows(empty, 0) == slice(0, 0)


def test_field_kernels_keep_the_gather_for_any_other_order():
    """The field-kernel API also takes descending and repeated indices:
    only an ``idx`` that is ``0 .. n-1`` becomes a slice."""
    assert _field_rows(np.arange(4), 4) == slice(0, 4)
    for idx in ([3, 2, 1, 0], [0, 0, 2, 3], [0, 1, 1, 3], [1, 2, 3, 4],
                [0, 1, 2]):
        idx = np.array(idx)
        assert _field_rows(idx, 4) is idx
