"""Frozen virtual-machine output: the per-region cycle ledger, exactly.

``tests/data/virtual_cycles.json`` holds, for every registry model under
``Param.optimized()`` and ``Param.standard()`` plus a few extra cases,
each region's ``RegionStats`` after a short run on a virtual machine
(400 agents, seed 1, 8 threads over 2 NUMA domains, 12 iterations so the
optimized runs charge a sort tick).  The extra cases cover the charges
no registry model reaches: a GPU offload, a visualization callback with a
user agent operation and standalone operations, and static-agent
detection.

The ledger is the output every virtual figure is computed from, so a
refactor of the charging code must leave it bit for bit unchanged: the
comparison is exact equality of the floats, in region order.  Cycle sums
depend on numpy's reduction order, so they are only comparable under the
numpy build that produced them: a different numpy skips with a reason (CI
pins one job to the stamp).  After an *intended* change to the cost
model, regenerate with::

    PYTHONPATH=src python tests/test_virtual_cycles.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.operation import AgentOperation, OpKind, StandaloneOperation
from repro.core.param import Param
from repro.gpu import A100, GpuDevice
from repro.parallel import SYSTEM_A, Machine
from repro.simulations import get_simulation
from repro.simulations.registry import available_simulations

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "data" / "virtual_cycles.json"

AGENTS = 400
SEED = 1
THREADS = 8
DOMAINS = 2
ITERATIONS = 12
STAT_FIELDS = ("cycles", "compute_cycles", "memory_cycles", "invocations",
               "steals_same_domain", "steals_cross_domain")
PARAMS = {"optimized": Param.optimized, "standard": Param.standard}


class _NeighborCount(AgentOperation):
    """A user agent operation that reads neighbor lists."""

    name = "neighbor_count"
    uses_neighbors = True

    def run_on(self, sim, idx):
        indptr, _ = sim.neighbors()
        self.last = int(np.diff(indptr)[idx].sum())


def _with_gpu(sim):
    sim.gpu_device = GpuDevice(A100)


def _with_hooks(sim):
    sim.visualize_callback = lambda s: None
    sim.add_operation(_NeighborCount())
    sim.add_operation(StandaloneOperation(
        lambda s: None, name="serial_op", compute_ops=5000.0))
    sim.add_operation(StandaloneOperation(
        lambda s: None, name="parallel_op", kind=OpKind.POST,
        frequency=3, compute_ops=8000.0, parallelizable=True))


#: ``name: (model, param, setup)`` beyond the registry x PARAMS matrix.
EXTRA_CASES = {
    "gpu_offload": ("cell_sorting", Param.optimized(), _with_gpu),
    "hooks": ("cell_clustering", Param.optimized(), _with_hooks),
    "static_detection": ("neuroscience",
                         Param.optimized(detect_static_agents=True), None),
}


def cases():
    """``{case: (model, param, setup)}`` for the whole golden matrix."""
    out = {f"{model}/{pname}": (model, make(), None)
           for model in available_simulations()
           for pname, make in PARAMS.items()}
    out.update(EXTRA_CASES)
    return out


def region_ledger(model, param, setup=None):
    """``{region: [STAT_FIELDS...]}`` of one run, in charge order."""
    machine = Machine(SYSTEM_A, num_threads=THREADS, num_domains=DOMAINS)
    with get_simulation(model).build(AGENTS, param=param, machine=machine,
                                     seed=SEED) as sim:
        if setup is not None:
            setup(sim)
        sim.simulate(ITERATIONS)
    return {name: [getattr(st, f) for f in STAT_FIELDS]
            for name, st in machine.stats.items()}


def all_ledgers():
    return {case: region_ledger(*spec) for case, spec in cases().items()}


def write_golden(ledgers):
    doc = {"numpy": np.__version__, "agents": AGENTS, "seed": SEED,
           "threads": THREADS, "domains": DOMAINS, "iterations": ITERATIONS,
           "fields": list(STAT_FIELDS), "ledgers": ledgers}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")


@pytest.fixture(scope="module")
def golden():
    doc = json.loads(GOLDEN.read_text())
    if doc["numpy"] != np.__version__:
        pytest.skip(
            f"virtual cycles were frozen under numpy {doc['numpy']}; this "
            f"is numpy {np.__version__} (cycle sums are not comparable)")
    assert (doc["agents"], doc["seed"], doc["threads"], doc["domains"],
            doc["iterations"]) == (AGENTS, SEED, THREADS, DOMAINS, ITERATIONS)
    assert doc["fields"] == list(STAT_FIELDS)
    return doc["ledgers"]


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(cases())


@pytest.mark.parametrize("case", sorted(cases()))
def test_ledger_matches_golden(golden, case):
    got = region_ledger(*cases()[case])
    want = golden[case]
    # Region order is charge order: a moved charge shows here too.
    assert list(got) == list(want)
    assert got == want


def test_sort_tick_is_charged(golden):
    for model in available_simulations():
        assert "agent_sorting" in golden[f"{model}/optimized"], model


if __name__ == "__main__":
    write_golden(all_ledgers())
    print(f"wrote {GOLDEN}")
