"""Displacement-bounded neighbor cache: wall-clock win and safety margin.

Measures **wall-clock** execution (like the ``scaling`` experiment, not
the virtual cost model) of the same workload with
``Param.neighbor_cache`` off and on, across three motion regimes:

- ``static_suspension`` — a jittered near-equilibrium lattice with a tiny
  Brownian walk: every step moves every agent a little, so the pre-cache
  engine rebuilds grid + CSR every step, while the cache re-filters one
  superset for many steps.  This is the mostly-static regime the cache is
  for, and carries the headline speedup criterion (>= 1.5x).
- ``oncology_late`` — the registry tumor model measured after a burn-in,
  agent count capped: fast Brownian motion plus stochastic death.  The
  auto-tuner is expected to keep the skin at ~0 here; recorded to show
  the cache does not hurt a workload it cannot help (informational).
- ``cell_proliferation`` — fully dynamic growth + division waves; the
  acceptance criterion is that the cache costs <= 5% here.

Every workload runs both configurations from the same seed and diffs the
final state checksum — a speedup from a diverged run is meaningless.  The
cache-on run also steps one iteration at a time and diffs the rebuild
counter to produce a **rebuild-interval histogram** (how many steps each
superset actually served).

``python -m repro bench neighbor_cache`` writes
``BENCH_neighbor_cache.json``; ``--agents/--iterations/--out`` override.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.bench.tables import ExperimentReport
from repro.verify.snapshot import state_checksum

__all__ = ["run", "main", "run_neighbor_cache"]

SCALES = {
    "small": dict(side=8, agents=600, iterations=15, burn_in=8, repeats=2),
    "medium": dict(side=14, agents=3000, iterations=40, burn_in=15,
                   repeats=3),
    # The scale the repo benchmark (perf/) runs at: 27^3 = 19683 lattice
    # cells, 2e4-agent registry models.
    "large": dict(side=27, agents=20000, iterations=30, burn_in=10,
                  repeats=3),
}


def _build_static_suspension(seed: int, side: int, param):
    """Jittered lattice at near-contact spacing with a tiny Brownian walk.

    Spacing is slightly below the interaction radius, so the CSR is
    non-empty and contact forces act (the re-filter is not measured
    against an empty pair list), yet the per-step displacement is a few
    thousandths of the radius — the regime where one superset serves
    many steps.
    """
    from repro.core.behaviors_lib import RandomWalk
    from repro.core.simulation import Simulation

    sim = Simulation("static_suspension", param, seed=seed)
    rng = np.random.default_rng(9000 + seed)
    g = np.arange(side) * 9.4
    pos = np.stack(np.meshgrid(g, g, g, indexing="ij"), -1).reshape(-1, 3)
    pos = pos + rng.normal(0.0, 0.05, pos.shape)
    idx = sim.add_cells(positions=pos, diameters=np.full(len(pos), 10.0))
    sim.attach_behavior(idx, RandomWalk(0.5))
    return sim


def _measure(factory, iterations: int, burn_in: int, repeats: int,
             cache: bool) -> dict:
    """Best-of-``repeats`` timed run; returns the workload's JSON record."""
    best = None
    for rep in range(max(repeats, 1)):
        sim = factory(cache)
        try:
            sim.simulate(burn_in)
            reg = sim.obs.registry
            rebuilds = reg.counter("scheduler:env_rebuilds")
            intervals: dict[int, int] = {}
            since_build = 0
            t0 = time.perf_counter()
            for _ in range(iterations):
                before = rebuilds.value
                sim.simulate(1)
                if rebuilds.value > before:
                    if since_build:
                        intervals[since_build] = (
                            intervals.get(since_build, 0) + 1
                        )
                    since_build = 1
                else:
                    since_build += 1
            wall = time.perf_counter() - t0
            if since_build:
                intervals[since_build] = intervals.get(since_build, 0) + 1
            record = {
                "wall_seconds": wall,
                "rebuilds": int(rebuilds.value),
                "hits": int(reg.counter("neighbor_cache:hits").value),
                "misses": int(reg.counter("neighbor_cache:misses").value),
                "refilters": int(
                    reg.counter("neighbor_cache:refilters").value
                ),
                "rebuild_intervals": {
                    str(k): v for k, v in sorted(intervals.items())
                },
                "stage_seconds": {k: round(v, 4) for k, v in
                                  sim.obs.stage_seconds().items() if v > 0},
                "final_agents": sim.num_agents,
                "final_pairs": int(len(sim.neighbors()[1])),
                "final_checksum": state_checksum(sim),
            }
        finally:
            sim.close()
        if best is None or record["wall_seconds"] < best["wall_seconds"]:
            # Keep the least-noisy (fastest) repeat; checksums and
            # counters are identical across repeats by determinism.
            best = record
    return best


def _workloads(scale: str, agents: int | None, iterations: int | None):
    """The three motion regimes as (name, factory, iterations, burn_in)."""
    from repro.core.param import Param
    from repro.simulations import get_simulation

    cfg = SCALES[scale]
    its = iterations if iterations is not None else cfg["iterations"]
    n = agents if agents is not None else cfg["agents"]

    def static_factory(cache):
        return _build_static_suspension(
            3, cfg["side"], Param(neighbor_cache=cache,
                                  agent_sort_frequency=0))

    def oncology_factory(cache):
        bench = get_simulation("oncology")
        p = bench.default_param().with_(neighbor_cache=cache)
        return bench.build(n, param=p, seed=3)

    def proliferation_factory(cache):
        bench = get_simulation("cell_proliferation")
        p = bench.default_param().with_(neighbor_cache=cache)
        return bench.build(n, param=p, seed=3)

    return [
        ("static_suspension", static_factory, its, cfg["burn_in"]),
        ("oncology_late", oncology_factory, its, cfg["burn_in"]),
        ("cell_proliferation", proliferation_factory, its, 0),
    ]


def run_neighbor_cache(scale: str = "small", agents: int | None = None,
                       iterations: int | None = None,
                       out: str | os.PathLike | None =
                       "BENCH_neighbor_cache.json") -> dict:
    """Run all three workloads cache-off vs cache-on; return the artifact."""
    cfg = SCALES[scale]
    workloads = []
    for name, factory, its, burn_in in _workloads(scale, agents, iterations):
        off = _measure(factory, its, burn_in, cfg["repeats"], cache=False)
        on = _measure(factory, its, burn_in, cfg["repeats"], cache=True)
        workloads.append({
            "name": name,
            "iterations": its,
            "burn_in": burn_in,
            "cache_off": off,
            "cache_on": on,
            "speedup": off["wall_seconds"] / on["wall_seconds"],
            "checksums_match":
                off["final_checksum"] == on["final_checksum"],
        })
    by_name = {w["name"]: w for w in workloads}
    artifact = {
        "experiment": "neighbor_cache",
        "scale": scale,
        "cpu_count": os.cpu_count() or 1,
        "workloads": workloads,
        # Acceptance-criteria fields (ISSUE 4): the mostly-static speedup
        # and the fully-dynamic overhead (negative = the cache helped).
        "speedup_static": by_name["static_suspension"]["speedup"],
        "dynamic_overhead":
            1.0 / by_name["cell_proliferation"]["speedup"] - 1.0,
        "checksums_match": all(w["checksums_match"] for w in workloads),
    }
    if out is not None:
        Path(out).write_text(json.dumps(artifact, indent=2) + "\n")
        artifact["path"] = str(out)
    return artifact


def run(scale: str = "small", **overrides) -> ExperimentReport:
    """Execute the experiment at the given scale; returns its report."""
    artifact = run_neighbor_cache(scale=scale, **overrides)
    rows = []
    for w in artifact["workloads"]:
        on = w["cache_on"]
        rows.append([
            w["name"],
            on["final_agents"],
            w["iterations"],
            round(w["cache_off"]["wall_seconds"], 3),
            round(on["wall_seconds"], 3),
            round(w["speedup"], 2),
            f"{on['hits']}/{on['hits'] + on['misses']}",
            "ok" if w["checksums_match"] else "DIVERGED",
        ])
    notes = [
        f"speedup on mostly-static workload: "
        f"{artifact['speedup_static']:.2f}x (criterion >= 1.5x)",
        f"overhead on fully-dynamic cell_proliferation: "
        f"{artifact['dynamic_overhead'] * 100:+.1f}% (criterion <= +5%)",
        "checksums " + ("bitwise-identical cache on vs off"
                        if artifact["checksums_match"]
                        else "DIVERGE — cache bug"),
    ]
    if "path" in artifact:
        notes.append(f"artifact written to {artifact['path']}")
    return ExperimentReport(
        experiment="NeighborCache",
        title="Displacement-bounded neighbor caching (wall clock)",
        headers=["workload", "agents", "iters", "off_wall_s", "on_wall_s",
                 "speedup", "cache_hits", "checksums"],
        rows=rows,
        notes=notes,
    )


def main() -> None:
    """Print the rendered report to stdout."""
    print(run().render())


if __name__ == "__main__":
    main()
