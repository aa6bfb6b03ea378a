"""The six benchmark workloads and the episode runners that measure them.

A run is a fixed number of **episodes**.  One episode builds the workload's
model from the seed, runs the first op (together: the set-up — cold grid
build, kernel warm-up, worker fork/attach), then issues a fixed number of
ops in a closed loop — the next op is issued when the previous one
returned — and times each one.  Every episode of a run does the same work
from the same seed, so repetitions can be compared like for like: the
median repetition is what gets reported, and the episodes' final state
checksums must agree bit for bit.

Only the public engine API is used; the seed reaches the engine solely as
the generated inputs (initial positions, the per-simulation RNG seed).
"""

from __future__ import annotations

import gc
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

from perf import trace as span_trace

__all__ = ["WORKLOADS", "SCALES", "Episode", "Run", "SimWorkload",
           "ServeWorkload", "run_untraced", "shm_entries"]

#: Per-request socket timeout of the serve clients; a request that takes
#: longer counts as failed.
REQUEST_TIMEOUT_S = 60.0

#: Repetitions of save/restore timed on a serve twin in the traced run.
CHECKPOINT_REPEATS = 20

#: Per-layer metrics only some workloads produce; 0 everywhere else.
_WORKLOAD_SPECIFIC = (
    "parallel.vs_serial", "checkpoint.save_ms", "checkpoint.restore_ms",
    "checkpoint.bytes", "serve.evictions", "serve.resumes",
    "serve.resume_share", "serve.rpc_overhead_ms",
)

#: Columns a checkpoint restore does not reproduce: ``addr`` holds the
#: *simulated* memory address the virtual-machine cost model prices, and
#: the allocator that hands them out restarts empty after a restore, so
#: agents added after an evict/resume get different addresses than in an
#: uninterrupted run.  Everything else is bitwise continuous.
NOT_RESTORED_COLUMNS = frozenset({"addr"})


@dataclass
class Episode:
    """What one episode measured."""

    setup_s: float = 0.0
    #: Wall of the measured region (first measured op start → last end).
    wall_s: float = 0.0
    latencies_ms: list = field(default_factory=list)
    #: Σ over ops of agents alive at op end × ticks the op consumed.
    agent_ticks: float = 0.0
    ticks: int = 0
    attempted: int = 0
    failed: int = 0
    #: Final state checksum(s): one per simulation / session.
    checksums: list = field(default_factory=list)
    #: Failed ops and failed correctness checks, human readable.
    errors: list = field(default_factory=list)
    #: Registry counters, as deltas over the measured region.
    registry: dict = field(default_factory=dict)
    kernel_backend: str = ""
    #: Replies that reported a transparent resume (serve only).
    resumed: int = 0
    #: The span recorder of a traced episode.
    recorder: object = None

    @property
    def agent_steps_per_s(self) -> float:
        return self.agent_ticks / self.wall_s


@dataclass
class Run:
    """Every episode of one benchmark invocation, plus (traced runs) the
    per-layer metrics and the failures of the cross-checks against twins."""

    episodes: list = field(default_factory=list)
    per_layer: dict | None = None
    errors: list = field(default_factory=list)
    trace_missing: list = field(default_factory=list)
    spans: list = field(default_factory=list)


def _registry_delta(before: dict, after: dict) -> dict:
    out = {}
    for key, value in after.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            base = before.get(key, 0)
            if isinstance(base, (int, float)):
                out[key] = value - base
    return out


def _restorable_checksum(columns, iteration: int, sim_time: float) -> str:
    """Digest of the agent state an evict/resume cycle must preserve."""
    from repro.verify import checksum_arrays

    return checksum_arrays(
        {name: array for name, array in columns.items()
         if name not in NOT_RESTORED_COLUMNS},
        extra=f"iteration={int(iteration)};time={float(sim_time)!r}".encode())


def _per_layer(rec, registry: dict, ticks: int, wall_s: float) -> dict:
    """The traced region's layer metrics, workload-specific ones at 0."""
    metrics = dict.fromkeys(_WORKLOAD_SPECIFIC, 0.0)
    metrics.update(span_trace.layer_metrics(rec, registry, ticks, wall_s))
    return metrics


def _typical(episodes: list) -> Episode:
    """The episode with the median wall (the faster middle one of an even
    count): whole-episode numbers such as layer self times come from it."""
    return sorted(episodes, key=lambda e: e.wall_s)[(len(episodes) - 1) // 2]


def run_untraced(workload, seed: int, size: dict, episodes: int,
                 workdir: Path) -> Run:
    """``episodes`` identical episodes (fewer if one of them fails)."""
    run = Run()
    for _ in range(episodes):
        run.episodes.append(
            workload.episode(seed, size, workdir, check=not run.episodes))
        if run.episodes[-1].failed:
            break
    return run


# --------------------------------------------------------------------- #
# Model builders
# --------------------------------------------------------------------- #

def _registry_model(model: str, **param_overrides):
    def build(seed: int, size: dict):
        from repro.simulations.registry import get_simulation

        bench = get_simulation(model)
        param = bench.default_param()
        if param_overrides:
            param = param.with_(**param_overrides)
        return bench.build(size["agents"], param=param, seed=seed)

    return build


def _diffusion_field(seed: int, size: dict):
    """Cells in a box that only secrete into / climb two substance fields:
    no mechanics, so no neighbor list is ever requested."""
    from repro import Chemotaxis, DiffusionGrid, Param, Secretion, Simulation

    box = 1000.0
    rng = np.random.default_rng(seed)
    sim = Simulation("diffusion_field", Param.optimized(), seed=seed)
    sim.mechanics_enabled = False
    idx = sim.add_cells(rng.uniform(0.0, box, (size["agents"], 3)),
                        diameters=10.0)
    for k, substance in enumerate(("attractant_a", "attractant_b")):
        sim.add_diffusion_grid(DiffusionGrid(
            substance, size["resolution"], 0.0, box,
            diffusion_coefficient=0.5, decay=0.01))
        half = idx[k::2]
        sim.attach_behavior(half, Secretion(substance, 1.0))
        sim.attach_behavior(half, Chemotaxis(substance, 2.0))
    return sim


def _simulate_one(sim) -> int:
    sim.simulate(1)
    return 1


def _advance_ten(sim) -> int:
    return sim.advance(10)


# --------------------------------------------------------------------- #
# In-process simulation workloads
# --------------------------------------------------------------------- #

def _measure_ops(sim, step, ops: int, rec, episode: Episode) -> None:
    """The closed loop: issue ``ops`` ops, time each, fill ``episode``."""
    latencies = episode.latencies_ms
    loop_start = time.perf_counter()
    for i in range(ops):
        frame = rec.begin_op(i) if rec is not None else None
        episode.attempted += 1
        start = time.perf_counter()
        try:
            ticks = step(sim)
        except Exception as exc:  # an op that raises is a failed op
            traceback.print_exc(file=sys.stderr)
            episode.failed += 1
            episode.errors.append(f"op {i}: {type(exc).__name__}: {exc}")
            break
        finally:
            end = time.perf_counter()
            if frame is not None:
                rec.exit(frame)
        latencies.append((end - start) * 1e3)
        episode.agent_ticks += sim.num_agents * ticks
        episode.ticks += ticks
    episode.wall_s = time.perf_counter() - loop_start


def _step_measured(sim, step, ops: int, rec, episode: Episode) -> None:
    """Measured region of one simulation: registry delta, wrappers on for
    its duration only (set-up is never traced)."""
    before = sim.obs.registry.snapshot()
    episode.kernel_backend = str(before.get("kernel:backend", ""))
    if rec is not None:
        span_trace.install(sim, rec)
    try:
        _measure_ops(sim, step, ops, rec, episode)
    finally:
        if rec is not None:
            rec.uninstall()
    episode.registry = _registry_delta(before, sim.obs.registry.snapshot())


@dataclass
class SimWorkload:
    """A workload that drives one in-process ``Simulation``."""

    name: str
    why: str
    build: object
    step: object = _simulate_one
    #: Serial workload whose final checksum this one must reproduce for
    #: the same seed (checked in the traced run), or None.
    twin: "SimWorkload | None" = None

    def episode(self, seed: int, size: dict, workdir: Path, check: bool,
                traced: bool = False) -> Episode:
        from repro.verify import check_simulation_invariants, state_checksum

        episode = Episode()
        if traced:
            episode.recorder = span_trace.SpanRecorder()
        start = time.perf_counter()
        sim = self.build(seed, size)
        try:
            self.step(sim)
            episode.setup_s = time.perf_counter() - start
            _step_measured(sim, self.step, size["ops"], episode.recorder,
                           episode)
            if not episode.failed:
                episode.checksums.append(state_checksum(sim))
                if check:
                    episode.errors += [
                        f"invariant: {violation}"
                        for violation in check_simulation_invariants(sim)]
        finally:
            sim.close()
        del sim
        gc.collect()  # this episode's garbage is not the next one's cost
        return episode

    def traced(self, seed: int, size: dict, episodes: int,
               workdir: Path) -> Run:
        """The traced run: the serial twin once (if any), then traced and
        untraced episodes alternating, so the tracing overhead is a
        same-process, same-work ratio."""
        run = Run()
        twin = None
        if self.twin is not None:
            twin = self.twin.episode(seed, size, workdir, check=False)
            run.errors += twin.errors
            episodes -= 1
        traced, plain = [], []
        for k in range(max(episodes, 2)):
            with_spans = k % 2 == 0
            episode = self.episode(seed, size, workdir,
                                   check=not run.episodes, traced=with_spans)
            run.episodes.append(episode)
            (traced if with_spans else plain).append(episode)
            if episode.failed:
                break
        chosen = _typical(traced)
        metrics = _per_layer(chosen.recorder, chosen.registry, chosen.ticks,
                             chosen.wall_s)
        metrics["trace.overhead_ratio"] = (
            median(e.wall_s for e in traced) / median(e.wall_s for e in plain)
            if plain else None)
        if twin is not None and not twin.failed:
            if twin.checksums != run.episodes[0].checksums:
                run.errors.append(
                    f"{self.name} ended at {run.episodes[0].checksums}, its "
                    f"serial twin {self.twin.name} at {twin.checksums} "
                    f"(seed {seed})")
            if plain:
                metrics["parallel.vs_serial"] = (
                    median(e.agent_steps_per_s for e in plain)
                    / twin.agent_steps_per_s)
        run.per_layer = metrics
        run.trace_missing = sorted(set(chosen.recorder.missing))
        run.spans = chosen.recorder.spans
        return run


# --------------------------------------------------------------------- #
# The serve workload
# --------------------------------------------------------------------- #

@dataclass
class ServeWorkload:
    """Two socket clients, driven by one thread, over a two-worker pool
    with two resident slots."""

    name: str
    why: str
    model: str = "oncology"
    clients: int = 2
    sessions_per_client: int = 2

    def _session_specs(self, seed: int, size: dict) -> list:
        count = self.clients * self.sessions_per_client
        return [{"model": self.model, "agents": size["agents"],
                 "seed": seed * count + k, "params": {}}
                for k in range(count)]

    def episode(self, seed: int, size: dict, workdir: Path,
                check: bool) -> Episode:
        from repro.serve import ServerThread, SessionClient, SessionPool

        episode = Episode()
        start = time.perf_counter()
        pool = SessionPool(workers=2, max_resident=2,
                           spool_dir=workdir / "spool")
        clients = []
        try:
            with ServerThread(pool) as server:
                try:
                    for _ in range(self.clients):
                        clients.append(SessionClient.connect(
                            port=server.port, timeout=REQUEST_TIMEOUT_S))
                    specs = self._session_specs(seed, size)
                    per = self.sessions_per_client
                    handles = [
                        [client.create_session(
                            spec["model"], agents=spec["agents"],
                            seed=spec["seed"])
                         for spec in specs[c * per:(c + 1) * per]]
                        for c, client in enumerate(clients)
                    ]
                    for group in handles:
                        for handle in group:
                            handle.step(1)
                    episode.setup_s = time.perf_counter() - start
                    before = pool.obs.registry.snapshot()
                    self._measure(handles, size["requests"], episode)
                    episode.registry = _registry_delta(
                        before, pool.obs.registry.snapshot())
                    if not episode.failed:
                        for group in handles:
                            for handle in group:
                                episode.checksums.append(
                                    self._session_checksum(pool, handle))
                finally:
                    for client in clients:
                        client.close()
        finally:
            pool.shutdown()
        return episode

    @staticmethod
    def _session_checksum(pool, handle) -> str:
        """One more step, then the digest of the session's columns as the
        host sees them through the pool's zero-copy state view."""
        reply = handle.step(1)
        view = pool.attach_state(handle.session)
        try:
            return _restorable_checksum(view.columns, reply.iteration,
                                        reply.time)
        finally:
            view.close()

    def _measure(self, handles, requests: int, episode: Episode) -> None:
        """The closed loop of the single driver thread: ``requests`` rounds,
        each sending one ``step(1)`` per client, every client alternating
        its sessions; the next request goes out when the reply is in."""
        from repro.serve import ServeError

        loop_start = time.perf_counter()
        for i in range(requests):
            for group in handles:
                handle = group[i % len(group)]
                episode.attempted += 1
                start = time.perf_counter()
                try:
                    reply = handle.step(1)
                except (ServeError, OSError) as exc:  # error reply / timeout
                    episode.failed += 1
                    episode.errors.append(
                        f"request {i} on {handle.session}: "
                        f"{type(exc).__name__}: {exc}")
                    continue
                episode.latencies_ms.append(
                    (time.perf_counter() - start) * 1e3)
                episode.agent_ticks += reply.n_agents * reply.steps_done
                episode.ticks += reply.steps_done
                episode.resumed += bool(reply.resumed)
        episode.wall_s = time.perf_counter() - loop_start

    # -- traced run: in-process twins ------------------------------------ #

    def _twin(self, spec: dict, ticks: int, rec) -> Episode:
        """The in-process simulation a session hosts, stepped like it:
        the set-up step, ``ticks`` measured steps, the checksum step."""
        from repro.serve.session import build_session_sim

        episode = Episode()
        sim = build_session_sim(spec)
        try:
            sim.simulate(1)
            _step_measured(sim, _simulate_one, ticks, rec, episode)
            if not episode.failed:
                sim.simulate(1)
                episode.checksums.append(_restorable_checksum(
                    sim.rm.data, sim.scheduler.iteration, sim.time))
        finally:
            sim.close()
        return episode

    def _time_checkpoint(self, spec: dict, workdir: Path) -> dict:
        from repro import restore_checkpoint, save_checkpoint
        from repro.serve.session import build_session_sim

        path = workdir / "twin-checkpoint.npz"
        sim = build_session_sim(spec)
        save_ms, restore_ms = [], []
        try:
            sim.simulate(1)
            for _ in range(CHECKPOINT_REPEATS):
                start = time.perf_counter()
                save_checkpoint(sim, path)
                mid = time.perf_counter()
                restore_checkpoint(sim, path)
                end = time.perf_counter()
                save_ms.append((mid - start) * 1e3)
                restore_ms.append((end - mid) * 1e3)
            nbytes = path.stat().st_size
        finally:
            sim.close()
            path.unlink(missing_ok=True)
        return {"checkpoint.save_ms": float(np.median(save_ms)),
                "checkpoint.restore_ms": float(np.median(restore_ms)),
                "checkpoint.bytes": float(nbytes)}

    def traced(self, seed: int, size: dict, episodes: int,
               workdir: Path) -> Run:
        """The traced run.  The served simulations live in worker
        processes, out of the wrappers' reach, so the layer numbers come
        from in-process twins: every session's simulation is rebuilt here
        and stepped under the tracer for the same tick count (and must
        end at the session's checksum); the last twin is stepped once
        more without the tracer for the overhead ratio; checkpoint save /
        restore are timed on a twin directly.  The twins take the place of
        two served episodes."""
        run = run_untraced(self, seed, size, max(episodes - 2, 1), workdir)
        served = run.episodes
        ticks = size["requests"] // self.sessions_per_client
        specs = self._session_specs(seed, size)
        rec = span_trace.SpanRecorder()
        twins = [self._twin(spec, ticks, rec) for spec in specs]
        # Overhead pair: the last twin again without the tracer — by then
        # the process is as warm for one as for the other.
        plain = self._twin(specs[-1], ticks, None)
        for twin in twins + [plain]:
            run.errors += twin.errors
        if not served[0].failed:
            got = [c for twin in twins for c in twin.checksums]
            if got != served[0].checksums:
                run.errors.append(
                    f"served sessions ended at {served[0].checksums}, their "
                    f"in-process twins at {got} (seed {seed})")

        registry: dict = {}
        for twin in twins:
            for key, value in twin.registry.items():
                registry[key] = registry.get(key, 0) + value
        metrics = _per_layer(rec, registry, sum(t.ticks for t in twins),
                             sum(t.wall_s for t in twins))
        metrics["trace.overhead_ratio"] = (
            twins[-1].wall_s / plain.wall_s if plain.wall_s else None)
        metrics.update(self._time_checkpoint(specs[0], workdir))
        chosen = _typical(served)
        tick_ms = [ms for twin in twins for ms in twin.latencies_ms]
        metrics["serve.evictions"] = chosen.registry.get("serve:evictions", 0)
        metrics["serve.resumes"] = chosen.registry.get("serve:resume_count", 0)
        if chosen.latencies_ms and tick_ms:
            metrics["serve.resume_share"] = (
                chosen.resumed / len(chosen.latencies_ms))
            metrics["serve.rpc_overhead_ms"] = float(
                np.median(chosen.latencies_ms) - np.median(tick_ms))
        run.per_layer = metrics
        run.trace_missing = sorted(set(rec.missing))
        run.spans = rec.spans
        return run


# --------------------------------------------------------------------- #
# The table
# --------------------------------------------------------------------- #

_ONCOLOGY = SimWorkload(
    "oncology",
    "random walk + division + death: the neighbor cache never hits, an "
    "exact CSR is built every tick and commit adds and removes every tick",
    _registry_model("oncology"),
)

WORKLOADS = {w.name: w for w in (
    SimWorkload(
        "proliferation",
        "lattice cells divide once then relax as packed tissue: Verlet-cache "
        "refilter + force on most ticks, a superset rebuild on sort ticks",
        _registry_model("cell_proliferation"),
    ),
    _ONCOLOGY,
    SimWorkload(
        "oncology_process2",
        "the oncology trajectory on the 2-worker shared-memory pool: its "
        "ratio to oncology is the repo's scaling number",
        _registry_model("oncology", execution_backend="process",
                        backend_workers=2),
        twin=_ONCOLOGY,
    ),
    SimWorkload(
        "diffusion_field",
        "no mechanics, two 128^3 substance grids: the stencil kernel "
        "dominates; env and the force kernel must stay flat here",
        _diffusion_field,
    ),
    SimWorkload(
        "epidemic_quiescent",
        "stationary agents, three scheduled waves, then silence: one env "
        "build ever, the rest is wake-column dispatch and horizon jumps",
        _registry_model("epidemiology_interventions"),
        step=_advance_ten,
    ),
    ServeWorkload(
        "serve_sessions",
        "4 sessions over 2 resident slots behind the socket server: nearly "
        "every request pays protocol + IPC + checkpoint evict/resume + tick",
    ),
)}

#: Sizes per scale.  ``full`` is what BENCHMARK.json's numbers are taken at
#: (sized for a 2-vCPU box: one episode measures ~2.4 s there, see
#: ``run.NOMINAL_EPISODE_S``); ``smoke`` only proves the plumbing and its
#: numbers are never recorded.
SCALES = {
    "full": {
        "proliferation": {"agents": 20000, "ops": 35},
        "oncology": {"agents": 20000, "ops": 30},
        "oncology_process2": {"agents": 20000, "ops": 30},
        "diffusion_field": {"agents": 20000, "resolution": 128, "ops": 32},
        "epidemic_quiescent": {"agents": 50000, "ops": 7000},
        "serve_sessions": {"agents": 5000, "requests": 40},
    },
    "smoke": {
        "proliferation": {"agents": 400, "ops": 12},
        "oncology": {"agents": 400, "ops": 12},
        "oncology_process2": {"agents": 400, "ops": 24},
        "diffusion_field": {"agents": 400, "resolution": 16, "ops": 12},
        "epidemic_quiescent": {"agents": 6000, "ops": 60},
        "serve_sessions": {"agents": 200, "requests": 6},
    },
}


def shm_entries() -> set:
    """Names under /dev/shm (empty where the platform has none)."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()
