"""Event-driven quiescence scheduling: wall-clock win on idle stretches.

Measures **wall-clock** execution (like ``neighbor_cache``, not the
virtual cost model) of the same workload with ``Param.event_scheduling``
off and on, across three quiescence regimes:

- ``epidemiology_interventions`` — the timed-interventions scenario:
  case imports, a lockdown window, and a vaccination drive fire at
  scheduled iterations; between them the epidemic burns out and every
  behavior's ``next_fire`` horizon moves past the next scheduled event,
  so the stepper jumps whole stretches.  This is the burst-quiescent
  regime the layer is for and carries the headline speedup criterion
  (>= 2x).
- ``static_suspension`` — a contact-free lattice under §5 static-agent
  detection with no behaviors: after the settle tick proves every agent
  static, the horizon is unbounded and one jump covers the rest of the
  run (the "idle tenant" regime the serve layer exploits).
- ``oncology`` — fully dynamic growth + stochastic death every tick; the
  acceptance criterion is that event scheduling costs <= 5% when there
  is never anything to skip.

Every workload runs both configurations from the same seed and diffs the
final state checksum — a speedup from a diverged run is meaningless.
The events-on records carry the engine's own counters
(``events:jumps``, ``events:skipped_steps``, ``events:deferred_dispatches``,
``events:max_jump``, ``events:horizon_recomputes``,
``events:sampler_replays``) so a green artifact cannot be vacuous.

The artifact also carries a ``serve`` section: an idle
``epidemiology_interventions`` session advanced in the background by a
:class:`~repro.serve.pool.SessionPool`, recording the pool's
``serve:advance_chunks`` vs ``serve:steps_total`` — horizon jumps turn
per-tick RPCs into per-stretch RPCs, the PR 8 "idle tenants cost zero
steps" trajectory.

``python -m repro bench event_scheduling`` writes ``BENCH_events.json``;
``--agents/--iterations/--out`` override.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.bench.tables import ExperimentReport
from repro.verify.snapshot import state_checksum

__all__ = ["run", "main", "run_event_scheduling"]

SCALES = {
    "small": dict(agents=400, iterations=500, side=8, repeats=3,
                  serve_steps=120),
    "medium": dict(agents=3000, iterations=1000, side=12, repeats=3,
                   serve_steps=400),
}


def _build_static_suspension(seed: int, side: int, param):
    """Contact-free lattice: spacing above the interaction diameter, no
    behaviors — forces are identically zero, so §5 detection flags every
    agent static after the settle tick and the event horizon is open."""
    from repro.core.simulation import Simulation

    sim = Simulation("static_suspension", param, seed=seed)
    g = np.arange(side) * 10.5
    pos = np.stack(np.meshgrid(g, g, g, indexing="ij"), -1).reshape(-1, 3)
    sim.add_cells(positions=pos, diameters=np.full(len(pos), 10.0))
    return sim


def _measure(factory, iterations: int, repeats: int, events: bool) -> dict:
    """Best-of-``repeats`` timed chunked run; returns the JSON record.

    The run is a single ``simulate(iterations)`` call — per-step stepping
    would cap every jump at one tick and measure only deferred dispatch.
    """
    best = None
    for _ in range(max(repeats, 1)):
        sim = factory(events)
        try:
            t0 = time.perf_counter()
            sim.simulate(iterations)
            wall = time.perf_counter() - t0
            snap = sim.obs.registry.snapshot()
            record = {
                "wall_seconds": wall,
                "events_jumps": int(snap.get("events:jumps", 0)),
                "events_skipped_steps":
                    int(snap.get("events:skipped_steps", 0)),
                "events_deferred_dispatches":
                    int(snap.get("events:deferred_dispatches", 0)),
                "events_max_jump": int(snap.get("events:max_jump", 0)),
                "events_horizon_recomputes":
                    int(snap.get("events:horizon_recomputes", 0)),
                "events_sampler_replays":
                    int(snap.get("events:sampler_replays", 0)),
                "kernel_calls": int(snap.get("kernel:calls", 0)),
                "stage_seconds": {k: round(v, 4) for k, v in
                                  sim.obs.stage_seconds().items() if v > 0},
                "final_agents": sim.num_agents,
                "final_iteration": int(sim.scheduler.iteration),
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
    """The three quiescence regimes as (name, factory, iterations)."""
    from repro.core.param import Param
    from repro.simulations import get_simulation

    cfg = SCALES[scale]
    its = iterations if iterations is not None else cfg["iterations"]
    n = agents if agents is not None else cfg["agents"]

    def interventions_factory(events):
        bench = get_simulation("epidemiology_interventions")
        p = bench.default_param().with_(event_scheduling=events)
        return bench.build(n, param=p, seed=3)

    def static_factory(events):
        return _build_static_suspension(
            3, cfg["side"], Param(event_scheduling=events,
                                  detect_static_agents=True,
                                  agent_sort_frequency=0))

    def oncology_factory(events):
        bench = get_simulation("oncology")
        p = bench.default_param().with_(event_scheduling=events)
        return bench.build(n, param=p, seed=3)

    return [
        ("epidemiology_interventions", interventions_factory, its),
        ("static_suspension", static_factory, its),
        ("oncology", oncology_factory, max(10, its // 20)),
    ]


def _measure_serve_idle(scale: str, agents: int | None) -> dict:
    """Advance one idle interventions session in the background and read
    the pool's chunk accounting: RPCs per tick vs RPCs per jump."""
    from repro.serve import protocol as P
    from repro.serve.pool import SessionPool

    cfg = SCALES[scale]
    steps = cfg["serve_steps"]
    n = agents if agents is not None else cfg["agents"]
    pool = SessionPool(workers=1)
    try:
        created = pool.handle(P.CreateSession(
            model="epidemiology_interventions", agents=n, seed=3,
            params={"event_scheduling": True}, name="bench-idle",
        ))
        sid = created.session
        pool.handle(P.AdvanceRequest(session=sid, steps=steps))
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            snap = pool.handle(P.SnapshotRequest(session=sid))
            if not snap.advancing:
                break
            time.sleep(0.02)
        metrics = pool.obs.registry.snapshot()
        return {
            "session_steps": steps,
            "final_iteration": int(snap.iteration),
            "advance_chunks": int(metrics.get("serve:advance_chunks", 0)),
            "advance_jumped_steps":
                int(metrics.get("serve:advance_jumped_steps", 0)),
            "steps_total": int(metrics.get("serve:steps_total", 0)),
        }
    finally:
        pool.shutdown()


def run_event_scheduling(scale: str = "small", agents: int | None = None,
                         iterations: int | None = None,
                         out: str | os.PathLike | None =
                         "BENCH_events.json") -> dict:
    """Run all workloads events-off vs events-on; return the artifact."""
    cfg = SCALES[scale]
    workloads = []
    for name, factory, its in _workloads(scale, agents, iterations):
        off = _measure(factory, its, cfg["repeats"], events=False)
        on = _measure(factory, its, cfg["repeats"], events=True)
        workloads.append({
            "name": name,
            "iterations": its,
            "events_off": off,
            "events_on": on,
            "speedup": off["wall_seconds"] / on["wall_seconds"],
            "checksums_match":
                off["final_checksum"] == on["final_checksum"],
        })
    by_name = {w["name"]: w for w in workloads}
    serve = _measure_serve_idle(scale, agents)
    artifact = {
        "experiment": "event_scheduling",
        "scale": scale,
        "cpu_count": os.cpu_count() or 1,
        "workloads": workloads,
        "serve_idle_session": serve,
        # Acceptance-criteria fields (ISSUE 10): quiescence-heavy speedup
        # and the fully-dynamic overhead (negative = events helped).
        "speedup_quiescent":
            by_name["epidemiology_interventions"]["speedup"],
        "speedup_static": by_name["static_suspension"]["speedup"],
        "dynamic_overhead": 1.0 / by_name["oncology"]["speedup"] - 1.0,
        "total_jumps": sum(
            w["events_on"]["events_jumps"] for w in workloads),
        "total_deferred_dispatches": sum(
            w["events_on"]["events_deferred_dispatches"] for w in workloads),
        "checksums_match": all(w["checksums_match"] for w in workloads),
    }
    if out is not None:
        Path(out).write_text(json.dumps(artifact, indent=2) + "\n")
        artifact["path"] = str(out)
    return artifact


def run(scale: str = "small", **overrides) -> ExperimentReport:
    """Execute the experiment at the given scale; returns its report."""
    artifact = run_event_scheduling(scale=scale, **overrides)
    rows = []
    for w in artifact["workloads"]:
        on = w["events_on"]
        rows.append([
            w["name"],
            on["final_agents"],
            w["iterations"],
            round(w["events_off"]["wall_seconds"], 3),
            round(on["wall_seconds"], 3),
            round(w["speedup"], 2),
            on["events_jumps"],
            on["events_max_jump"],
            on["events_deferred_dispatches"],
            "ok" if w["checksums_match"] else "DIVERGED",
        ])
    serve = artifact["serve_idle_session"]
    notes = [
        f"speedup on burst-quiescent interventions workload: "
        f"{artifact['speedup_quiescent']:.2f}x (criterion >= 2x)",
        f"speedup on all-static suspension: "
        f"{artifact['speedup_static']:.2f}x",
        f"overhead on fully-dynamic oncology: "
        f"{artifact['dynamic_overhead'] * 100:+.1f}% (criterion <= +5%)",
        f"idle served session: {serve['steps_total']} ticks in "
        f"{serve['advance_chunks']} RPCs "
        f"({serve['advance_jumped_steps']} ticks came from horizon jumps)",
        "checksums " + ("bitwise-identical events on vs off"
                        if artifact["checksums_match"]
                        else "DIVERGE — events bug"),
    ]
    if "path" in artifact:
        notes.append(f"artifact written to {artifact['path']}")
    return ExperimentReport(
        experiment="EventScheduling",
        title="Event-driven quiescence scheduling (wall clock)",
        headers=["workload", "agents", "iters", "off_wall_s", "on_wall_s",
                 "speedup", "jumps", "max_jump", "deferred", "checksums"],
        rows=rows,
        notes=notes,
    )


def main() -> None:
    """Print the rendered report to stdout."""
    print(run().render())


if __name__ == "__main__":
    main()
