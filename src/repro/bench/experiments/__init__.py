"""Experiment modules, one per paper table/figure.

Every module exposes ``run(scale="small"|"medium") -> ExperimentReport``.
Scales shrink the paper's agent counts to laptop size; EXPERIMENTS.md
records how measured shapes compare with the paper's (absolute numbers are
not expected to match — the substrate is a simulated machine).
"""

from repro.bench.experiments import (
    ext_ablations,
    ext_distributed,
    ext_gpu,
    fig05_breakdown,
    fig06_complexity,
    fig07_biocellion,
    fig08_comparison,
    fig09_progressive,
    fig10_scaling,
    fig11_neighbor,
    fig12_sorting,
    fig13_allocator,
    sec610_numa,
    table1_characteristics,
)

ALL_EXPERIMENTS = {
    "table1": table1_characteristics,
    "fig05": fig05_breakdown,
    "fig06": fig06_complexity,
    "fig07": fig07_biocellion,
    "fig08": fig08_comparison,
    "fig09": fig09_progressive,
    "fig10": fig10_scaling,
    "fig11": fig11_neighbor,
    "fig12": fig12_sorting,
    "fig13": fig13_allocator,
    "sec610": sec610_numa,
    "ext_distributed": ext_distributed,
    "ext_ablations": ext_ablations,
    "ext_gpu": ext_gpu,
}

__all__ = ["ALL_EXPERIMENTS"]
