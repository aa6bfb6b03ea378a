"""Frozen per-step checksum traces: bitwise identity without legacy code.

``tests/golden/traces.json`` holds the per-step
:func:`~repro.verify.snapshot.state_checksum` trace of three flagship
models x three seeds.  It was generated from the per-column /
queue-merge / rebuild-every-step engine (the ``certified`` stanza names
the commit and the flags) and asserted equal to that commit's default
engine before those paths were deleted, so a pass here means "still
bitwise what the replaced implementation computed" — on the serial and
the process backend alike, with the NumPy kernels and with the C ones.

``tests/data/oncology_seed1_step3_percolumn.npz`` is a per-column
checkpoint written by that same commit (nothing can write the layout any
more); it must restore into the arena layout and continue onto the
golden trace.

Checksums cover float state, so they are only comparable under the numpy
build that produced them: a different numpy skips with a reason (CI pins
one job to the stamp).  After an *intended* trajectory change, regenerate
with::

    PYTHONPATH=src python tests/test_golden_traces.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.checkpoint import restore_checkpoint
from repro.kernels.dispatch import _probe
from repro.simulations import get_simulation
from repro.verify.snapshot import state_checksum

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "traces.json"
PER_COLUMN_CHECKPOINT = HERE / "data" / "oncology_seed1_step3_percolumn.npz"
#: (model, seed, step) the checkpoint fixture was saved at.
CHECKPOINT_CELL = ("oncology", 1, 3)

MODELS = ("cell_proliferation", "oncology", "epidemiology_interventions")
SEEDS = (1, 2, 3)
STEPS = 8
AGENTS = 200
BACKENDS = {
    "serial": {"kernel_backend": "numpy"},
    "process": {"kernel_backend": "numpy", "execution_backend": "process",
                "backend_workers": 2},
    # The C kernels must land on the same frozen bytes: threaded in the
    # parent, one thread in each pool worker.
    "c-serial": {"kernel_backend": "c"},
    "c-process": {"kernel_backend": "c", "execution_backend": "process",
                  "backend_workers": 2},
}


def requires(delta):
    if delta.get("kernel_backend") == "c" and not _probe("c"):
        pytest.skip("the C kernel library cannot be built here")


def checksum_trace(model, seed, steps=STEPS, restore_from=None, **delta):
    """``[checksum after 0..steps iterations]`` of ``model`` under the
    model's default ``Param`` plus ``delta``; with ``restore_from`` the
    run starts from that checkpoint instead of the seeded initial state."""
    bench = get_simulation(model)
    param = bench.default_param().with_(**delta)
    with bench.build(AGENTS, param=param, seed=seed) as sim:
        if restore_from is not None:
            restore_checkpoint(sim, restore_from)
            assert sim.rm.soa.owns("position", sim.rm.positions)
        trace = [state_checksum(sim)]
        for _ in range(steps):
            sim.simulate(1)
            trace.append(state_checksum(sim))
    return trace


def all_traces(**delta):
    """``{model: {str(seed): trace}}`` for the whole golden matrix."""
    return {
        model: {str(seed): checksum_trace(model, seed, **delta)
                for seed in SEEDS}
        for model in MODELS
    }


def write_golden(traces):
    """Write ``traces`` (+ the numpy stamp) to :data:`GOLDEN`.  A
    regenerated file certifies the engine against itself: the
    ``certified`` stanza of the original (generated from the retired
    paths) is dropped."""
    doc = {"numpy": np.__version__, "agents": AGENTS, "steps": STEPS,
           "certified": None, "traces": traces}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")


@pytest.fixture(scope="module")
def golden():
    doc = json.loads(GOLDEN.read_text())
    if doc["numpy"] != np.__version__:
        pytest.skip(
            f"golden traces were frozen under numpy {doc['numpy']}; this is "
            f"numpy {np.__version__} (float checksums are not comparable)")
    assert (doc["agents"], doc["steps"]) == (AGENTS, STEPS)
    return doc["traces"]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("model", MODELS)
def test_trace_matches_golden(golden, model, seed, backend):
    requires(BACKENDS[backend])
    got = checksum_trace(model, seed, **BACKENDS[backend])
    assert got == golden[model][str(seed)]


@pytest.mark.parametrize("backend", BACKENDS)
def test_per_column_checkpoint_restores_onto_golden_trace(golden, backend):
    model, seed, step = CHECKPOINT_CELL
    requires(BACKENDS[backend])
    got = checksum_trace(model, seed + 98, steps=STEPS - step,
                         restore_from=PER_COLUMN_CHECKPOINT,
                         **BACKENDS[backend])
    assert got == golden[model][str(seed)][step:]


if __name__ == "__main__":
    write_golden(all_traces())
    print(f"wrote {GOLDEN}")
