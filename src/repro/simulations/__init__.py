"""The paper's benchmark simulations (§6.1, Table 1).

Five workloads spanning the performance-relevant characteristics of
agent-based simulation — cell proliferation, cell clustering,
epidemiology, neuroscience, oncology — plus the Biocellion cell-sorting
model used for the §6.5 comparison.  Each module exposes a
:class:`BenchmarkSimulation` with Table-1 characteristics and a
``build(num_agents, ...)`` factory — its ``shell`` (the model without
agents, what a checkpoint restore fills) plus ``populate``;
:mod:`repro.simulations.registry` collects them.
"""

from repro.simulations.base import BenchmarkSimulation, Characteristics
from repro.simulations.registry import (
    TABLE1_ORDER,
    all_simulations,
    get_simulation,
    table1_rows,
)

__all__ = [
    "BenchmarkSimulation",
    "Characteristics",
    "get_simulation",
    "all_simulations",
    "table1_rows",
    "TABLE1_ORDER",
]
