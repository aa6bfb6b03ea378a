"""Determinism, replay and equivalence harness.

A seeded simulation must be a pure function of its seed: running the same
model twice from the same seed must produce *byte-identical* state at
every step, and a different seed must actually change the trajectory
(otherwise the seed is silently not plumbed through).  :func:`replay`
drives a simulation factory twice and diffs the per-step
:func:`~repro.verify.snapshot.state_checksum`; :func:`seed_sensitivity`
guards the negative direction; :func:`replay_model` runs both against a
registry model by name (``python -m repro verify --replay MODEL``).

Every optimization, backend and hosting layer then promises the same
thing — *invisible in the per-step checksums* — so one driver checks
them all.  :func:`equivalence` takes a :class:`Leg` (a row of
:data:`LEGS`): a reference ``Param`` delta, the variant deltas under
test, and the registry counters that prove the variant's machinery
actually engaged (a comparison where the cache never hit, no agent ever
migrated or no jump was ever taken would pass vacuously).  It runs
reference and variants over models x seeds and returns one
:class:`EquivalenceReport`.  docs/verification.md has the legs table.

Identity with the implementations the staged commit, the single-arena
layout and the rebuild skip *replaced* is not a leg: it is pinned by the
frozen traces in ``tests/golden/traces.json``.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.verify.snapshot import state_checksum

__all__ = [
    "ReplayReport",
    "replay",
    "seed_sensitivity",
    "replay_model",
    "Leg",
    "LEGS",
    "EquivalenceReport",
    "equivalence",
]


@dataclass
class ReplayReport:
    """Step-by-step checksum comparison of two runs."""

    label: str
    steps: int
    seed: int
    checksums_a: list[str]
    checksums_b: list[str]
    #: First step (0 = initial state, k = after iteration k) at which the
    #: runs diverge; ``None`` when byte-identical throughout.
    first_divergence: int | None
    #: Whether a control run with a different seed produced a different
    #: final checksum (``None`` when the control was not requested).
    seed_sensitive: bool | None = None

    @property
    def ok(self) -> bool:
        return self.first_divergence is None and self.seed_sensitive is not False

    def render(self) -> str:
        """Human-readable verdict, including the first diverging step."""
        if self.first_divergence is not None:
            return (
                f"replay {self.label}: NOT deterministic — runs diverge at "
                f"step {self.first_divergence} of {self.steps} "
                f"(seed {self.seed})\n"
                f"  a: {self.checksums_a[self.first_divergence][:16]}...\n"
                f"  b: {self.checksums_b[self.first_divergence][:16]}..."
            )
        msg = (
            f"replay {self.label}: {self.steps} steps byte-identical "
            f"(seed {self.seed})"
        )
        if self.seed_sensitive is False:
            msg += " — but a DIFFERENT seed gave the same trajectory " \
                   "(seed not plumbed through!)"
        elif self.seed_sensitive:
            msg += "; different seed diverges (seed plumbing OK)"
        return msg


def _first_divergence(a: list, b: list) -> int | None:
    """First step at which two checksum traces differ, else ``None``."""
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), None)


def _checksum_trace(factory, steps: int, seed: int,
                    include_rng: bool) -> list[str]:
    sim = factory(seed)
    trace = [state_checksum(sim, include_rng=include_rng)]
    for _ in range(steps):
        sim.simulate(1)
        trace.append(state_checksum(sim, include_rng=include_rng))
    return trace


def replay(factory, steps: int = 10, seed: int = 4357,
           label: str = "simulation", include_rng: bool = True,
           check_seed_sensitivity: bool = True) -> ReplayReport:
    """Run ``factory(seed)`` twice for ``steps`` iterations and diff state.

    ``factory`` builds a *fresh* simulation from a seed — it must not
    share mutable state between calls.  With ``check_seed_sensitivity`` a
    third run from ``seed + 1`` asserts the trajectory actually depends
    on the seed.
    """
    a = _checksum_trace(factory, steps, seed, include_rng)
    b = _checksum_trace(factory, steps, seed, include_rng)
    first_divergence = _first_divergence(a, b)
    sensitive = None
    if check_seed_sensitivity and first_divergence is None:
        sensitive = seed_sensitivity(factory, steps, seed, seed + 1)
    return ReplayReport(
        label=label, steps=steps, seed=seed,
        checksums_a=a, checksums_b=b,
        first_divergence=first_divergence,
        seed_sensitive=sensitive,
    )


def seed_sensitivity(factory, steps: int, seed_a: int, seed_b: int) -> bool:
    """True when two different seeds produce different trajectories.

    Compares *agent state only* (RNG state excluded): the RNG trivially
    differs between seeds, so including it would mask a model whose agent
    placement or behaviors silently ignore the seed.
    """
    a = _checksum_trace(factory, steps, seed_a, include_rng=False)
    b = _checksum_trace(factory, steps, seed_b, include_rng=False)
    return a != b


def replay_model(name: str, num_agents: int = 300, steps: int = 10,
                 seed: int = 4357, param=None) -> ReplayReport:
    """Replay a registry model (``python -m repro list``) by name."""
    from repro.simulations import get_simulation

    bench = get_simulation(name)

    def factory(s):
        return bench.build(num_agents, param=param, seed=s)

    return replay(factory, steps=steps, seed=seed, label=name)


# --------------------------------------------------------------------- #
# Equivalence legs
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class Leg:
    """One row of the equivalence table: what differs, and the proof it ran."""

    title: str
    #: ``{label: Param delta}`` of the runs under test, each applied on
    #: top of ``base`` and compared with the reference run.
    variants: dict
    #: ``Param`` delta shared by the reference run and every variant.
    base: dict = field(default_factory=dict)
    #: Anti-vacuity evidence ``{registry counter: minimum}`` read from the
    #: variant runs; an unmet minimum fails the report.
    require: dict = field(default_factory=dict)
    #: Whether every (model, variant, seed) cell must meet ``require`` on
    #: its own; otherwise one cell reaching the minimum is enough.
    every_cell: bool = False
    #: ``{variant label: {counter: minimum}}`` that every cell of that
    #: variant must meet on its own, on top of ``require``; a
    #: ``(model, variant label)`` key binds only that model's cells.
    require_variant: dict = field(default_factory=dict)
    #: Also replay each variant as ONE ``simulate(steps)`` call and
    #: compare the final state (multi-step horizon jumps only engage
    #: when several ticks are requested at once).
    chunked: bool = False
    #: Run the variants as sessions behind the socket server, evicted to
    #: a checkpoint and resumed mid-run, instead of in-process.
    served: bool = False
    #: Start from each model's ``default_param()`` instead of ``Param()``.
    model_defaults: bool = False
    # Smoke sizes at which ``require`` is known to be met.
    models: tuple = ("cell_proliferation", "oncology")
    num_agents: int = 250
    steps: int = 8


_PROCESS = {"execution_backend": "process"}

LEGS = {
    # Shared-memory worker pool (§4.1).  The churn models make commits
    # append into, and grow, the shm-backed arena the workers map.
    "process": Leg(
        "serial vs process backend",
        variants={"process": _PROCESS},
        require={"backend:phases": 1, "commit:fast_appends": 1,
                 "commit:staged_rows": 1},
    ),
    # Verlet-skin CSR reuse vs a fresh build every step.  The c cells
    # carry the superset through the sorts after ticks 10 and 20 (the
    # default agent_sort_frequency) and must refilter it afterwards.
    "neighbor_cache": Leg(
        "neighbor cache off vs on",
        base={"neighbor_cache": False},
        variants={"serial": {"neighbor_cache": True},
                  "process": {"neighbor_cache": True, **_PROCESS},
                  "c": {"neighbor_cache": True, "kernel_backend": "c"}},
        require={"neighbor_cache:hits": 1},
        require_variant={"c": {"neighbor_cache:relabels": 2}},
        models=("cell_clustering",), num_agents=300, steps=22,
    ),
    # Deferred dispatch + horizon jumps vs tick-by-tick: one
    # burst-quiescent scenario and one always-dynamic control.
    "events": Leg(
        "event scheduling off vs on",
        base={"event_scheduling": False},
        variants={"serial": {"event_scheduling": True},
                  "process": {"event_scheduling": True, **_PROCESS}},
        require={"events:jumps": 1, "events:max_jump": 2,
                 "events:deferred_dispatches": 1},
        chunked=True, model_defaults=True,
        models=("epidemiology_interventions", "oncology"),
        num_agents=200, steps=60,
    ),
    # The tracer observes timestamps, never simulation state.
    "tracing": Leg(
        "tracer off vs on",
        base={"tracing": False},
        variants={"traced": {"tracing": True}},
        require={"trace:events": 1},
        models=("cell_clustering",), num_agents=300,
    ),
    # Kernel dispatch adds no reordering, and the C kernels reproduce
    # numpy's bytes, in the parent (threaded) and in pool workers.  The
    # force alone meets kernel:calls, so each c cell must also show that
    # its grid build and search, and the sort after tick 10, ran in C,
    # and each cell_clustering one that its secretion and chemotaxis did.
    "kernels": Leg(
        "numpy kernels vs process / auto / c",
        base={"kernel_backend": "numpy"},
        variants={"process": _PROCESS, "auto": {"kernel_backend": "auto"},
                  "c serial": {"kernel_backend": "c"},
                  "c process": {"kernel_backend": "c", **_PROCESS}},
        require={"kernel:calls": 1, "kernel:worker_calls": 1},
        require_variant={
            **{label: {"kernel:search_calls": 1, "kernel:grid_builds": 1,
                       "kernel:sort_calls": 1}
               for label in ("c serial", "c process")},
            **{("cell_clustering", label): {"kernel:field_calls": 1}
               for label in ("c serial", "c process")}},
        models=("cell_proliferation", "oncology", "cell_clustering"),
        steps=10,
    ),
    # Wire protocol, forked workers, shm arenas and a checkpoint
    # evict/resume round trip must all be invisible to the physics.  On
    # two workers the eviction and the admission it makes room for run
    # side by side.
    "serve": Leg(
        "direct run vs served session",
        variants={"served": {}},
        require={"serve:evictions": 1, "serve:resume_count": 1,
                 "serve:overlapped_admissions": 1, "session:resumed": 1},
        every_cell=True, served=True, model_defaults=True,
        models=("cell_proliferation", "cell_clustering"),
        num_agents=120, steps=6,
    ),
}


@dataclass
class EquivalenceReport:
    """Outcome of one :func:`equivalence` call.

    Cells are ``(model, variant label, seed)``; step 0 is the initial
    state, step k the state after iteration k.
    """

    leg: Leg
    models: tuple
    steps: int
    #: ``{cell: first diverging step or None}``.
    divergences: dict = field(default_factory=dict)
    #: ``{cell: {counter: value}}`` for the counters in ``leg.require``.
    evidence: dict = field(default_factory=dict)
    #: ``{variant label: reason}`` for variants that cannot run here.
    skipped: dict = field(default_factory=dict)
    #: Runs whose resolved kernel backend differed from the requested one.
    mismatches: list = field(default_factory=list)

    def unmet(self) -> list[str]:
        """Requirements of the leg no cell (or, with ``every_cell``, not
        every cell) satisfied, and per-variant ones some cell of their
        variant missed — each one makes a green diff vacuous."""
        if not self.evidence:
            return []
        reached = all if self.leg.every_cell else any
        scope = "every cell" if self.leg.every_cell else "some cell"
        missed = [
            f"{counter} >= {minimum} not reached in {scope}"
            for counter, minimum in self.leg.require.items()
            if not reached(cell[counter] >= minimum
                           for cell in self.evidence.values())
        ]
        for key, need in self.leg.require_variant.items():
            model, label = key if isinstance(key, tuple) else (None, key)
            cells = [v for k, v in self.evidence.items()
                     if k[1] == label and model in (None, k[0])]
            which = label if model is None else f"{model} {label}"
            missed += [
                f"{counter} >= {minimum} not reached in every {which} cell"
                for counter, minimum in need.items()
                if not all(cell[counter] >= minimum for cell in cells)
            ]
        return missed

    @property
    def ok(self) -> bool:
        return (
            bool(self.divergences or self.skipped)
            and all(d is None for d in self.divergences.values())
            and not self.mismatches
            and not self.unmet()
        )

    def render(self) -> str:
        """Header, problems, then one line per cell with its evidence."""
        lines = [f"equivalence — {self.leg.title}: models "
                 f"{', '.join(self.models)}, {self.steps} steps"]
        for label, reason in self.skipped.items():
            lines.append(f"  skipped {label}: {reason}")
        lines += [f"  BACKEND MISMATCH: {m}" for m in self.mismatches]
        lines += [f"  VACUOUS: {need}" for need in self.unmet()]
        for cell in sorted(self.divergences):
            model, label, seed = cell
            if self.divergences[cell] is None:
                verdict = "byte-identical"
            else:
                verdict = f"DIVERGES at step {self.divergences[cell]}"
            proof = ", ".join(
                f"{k} {v}" for k, v in self.evidence.get(cell, {}).items())
            line = f"  {model} {label} seed {seed}: {verdict}"
            if proof:
                line += f" [{proof}]"
            lines.append(line)
        return "\n".join(lines)


class _Run(NamedTuple):
    trace: list             # per-step state checksums
    metrics: dict           # registry snapshot (+ pseudo-counters)
    mismatch: str | None = None


def _run(bench, num_agents, param, seed, steps, chunked=False) -> _Run:
    """One in-process run: per-step (or, ``chunked``, start + end)
    checksums and the run's metrics."""
    with bench.build(num_agents, param=param, seed=seed) as sim:
        trace = [state_checksum(sim)]
        for _ in range(1 if chunked else steps):
            sim.simulate(steps if chunked else 1)
            trace.append(state_checksum(sim))
        metrics = dict(sim.obs.registry.snapshot())
        metrics["trace:events"] = len(sim.obs.tracer.events)
        resolved = {sim.kernels.name, *getattr(
            sim.backend, "worker_kernel_backends", {}).values()}
    mismatch = None
    if param.kernel_backend != "auto" and resolved != {param.kernel_backend}:
        mismatch = (f"requested {param.kernel_backend}, host/workers "
                    f"resolved {sorted(resolved)}")
    return _Run(trace, metrics, mismatch)


@contextlib.contextmanager
def _served(workers):
    """A one-resident-slot session pool behind a real socket server."""
    from repro.serve import ServerThread, SessionClient
    from repro.serve.pool import SessionPool

    pool = SessionPool(workers=workers, max_resident=1)
    try:
        with ServerThread(pool) as server, \
                SessionClient.connect(port=server.port) as client:
            yield pool, client
    finally:
        pool.shutdown()


def _served_run(pool, client, model, num_agents, seed, steps) -> _Run:
    """Step a served session one request at a time.  Before step 3 a
    decoy session is created: with a one-slot pool that *forces* the
    session under test out through checkpoint eviction, and its next step
    must transparently resume it (on a worker the decoy's eviction does
    not occupy, when the pool has two)."""
    counters = ("serve:evictions", "serve:resume_count",
                "serve:overlapped_admissions")
    before = pool.obs.registry.snapshot()
    handle = client.create_session(model, agents=num_agents, seed=seed)
    trace = [handle.step(0, checksum=True).checksum]
    resumed = False
    for k in range(steps):
        if k == min(3, steps - 1):
            decoy = client.create_session(model, agents=32, seed=9999)
        reply = handle.step(1, checksum=True)
        resumed |= reply.resumed
        trace.append(reply.checksum)
    decoy.delete()
    handle.delete()
    after = pool.obs.registry.snapshot()
    metrics = {c: after.get(c, 0) - before.get(c, 0) for c in counters}
    metrics["session:resumed"] = int(resumed)
    return _Run(trace, metrics)


def equivalence(leg, models=None, seeds=(1, 2, 3), *, num_agents=None,
                steps=None, workers: int = 2, param=None
                ) -> EquivalenceReport:
    """Run one equivalence leg over models x seeds.

    ``leg`` is a :data:`LEGS` key or a :class:`Leg`; ``models``,
    ``num_agents`` and ``steps`` default to the leg's smoke sizes.  For
    every (model, seed) the reference run (``param`` or the leg's
    starting point, plus ``leg.base``) records the full per-step
    :func:`~repro.verify.snapshot.state_checksum` trace — all agent
    columns, domain layout, grids and RNG state — and every variant must
    reproduce it exactly.  Process pools get ``workers`` workers; a
    variant asking for a kernel backend that is not available here is
    skipped, with the reason in the report.
    """
    from repro.core.param import Param
    from repro.kernels.dispatch import available_backends
    from repro.simulations import get_simulation

    if isinstance(leg, str):
        leg = LEGS[leg]
    models = tuple(models or leg.models)
    num_agents = num_agents or leg.num_agents
    steps = steps or leg.steps
    report = EquivalenceReport(leg=leg, models=models, steps=steps)
    usable = available_backends()
    variants = {}
    for label, delta in leg.variants.items():
        kernel = {**leg.base, **delta}.get("kernel_backend", "numpy")
        if usable.get(kernel, True):
            variants[label] = delta
        else:
            report.skipped[label] = f"{kernel} is not available here"

    with contextlib.ExitStack() as stack:
        served = stack.enter_context(_served(workers)) if leg.served else None
        for model in models if variants else ():
            bench = get_simulation(model)
            start = param or (
                bench.default_param() if leg.model_defaults else Param())
            base_param = start.with_(backend_workers=workers, **leg.base)
            for seed in seeds:

                def run(delta, chunked=False):
                    if served:
                        return _served_run(*served, model, num_agents, seed,
                                           steps)
                    return _run(bench, num_agents, base_param.with_(**delta),
                                seed, steps, chunked)

                ref = _run(bench, num_agents, base_param, seed, steps)
                for label, delta in variants.items():
                    cell = (model, label, seed)
                    got = run(delta)
                    report.divergences[cell] = _first_divergence(
                        ref.trace, got.trace)
                    proof = {c: got.metrics.get(c, 0) for c in
                             {**leg.require,
                              **leg.require_variant.get(label, {}),
                              **leg.require_variant.get((model, label), {})}}
                    if leg.chunked and report.divergences[cell] is None:
                        chunk = run(delta, chunked=True)
                        if chunk.trace[-1] != ref.trace[-1]:
                            report.divergences[cell] = steps
                        proof = {c: max(v, chunk.metrics.get(c, 0))
                                 for c, v in proof.items()}
                    report.evidence[cell] = proof
                    if got.mismatch:
                        report.mismatches.append(
                            f"{model} {label} seed {seed}: {got.mismatch}")
    return report
