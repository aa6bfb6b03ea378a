"""Outside-in span tracing for the traced benchmark run (``--trace 1``).

Nothing under ``src/`` knows this file exists.  :func:`install` shadows the
public callables the engine calls into — on the *instances* one simulation
owns, plus the two functions ``repro.core.scheduler`` binds at module
level — with wrappers that record a span (name, start, end, parent span,
op id) in memory.  A span's **self time** is its duration minus the part
its child spans cover, so the self times of one op sum to the op's root
span by construction; :func:`layer_metrics` turns the aggregate into the
per-layer numbers of ``BENCHMARK.json``.

Refactor tolerance: a wrap target that no longer exists is listed in
``SpanRecorder.missing`` and every metric that needs its span reads
``None`` — the benchmark itself never fails because a layer was renamed.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

__all__ = ["SpanRecorder", "install", "layer_metrics", "ROOT_SPAN"]

#: Name of the per-op root span (the ``simulate``/``advance`` call).
ROOT_SPAN = "op"

_ABSENT = object()


class SpanRecorder:
    """In-memory span log with exclusive (self-time) accounting."""

    def __init__(self):
        #: Closed spans: ``(name, start, end, parent_index, op_id)``.  A
        #: span's index is its position in *open* order, so a parent
        #: always has a smaller index than its children.
        self.spans: list = []
        self.self_s: dict = defaultdict(float)
        self.incl_s: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        #: Work counts taken at the same boundaries as the spans.
        self.counts: dict = defaultdict(float)
        #: Wrap targets that could not be found on this simulation.
        self.missing: list = []
        self.op_id = -1
        self._stack: list = []
        self._undo: list = []

    # -- span stack ----------------------------------------------------- #

    def enter(self, name: str) -> list:
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1][0] if self._stack else -1
        frame = [index, name, parent, 0.0, time.perf_counter()]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        index, name, parent, child_s, start = frame
        self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - child_s
        self.incl_s[name] += duration
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][3] += duration
        self.spans[index] = (name, start, end, parent, self.op_id)

    def begin_op(self, op_id: int) -> list:
        self.op_id = op_id
        return self.enter(ROOT_SPAN)

    # -- wrapping -------------------------------------------------------- #

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Shadow ``owner.attr`` with a span-recording wrapper.

        ``count(counts, args, result)`` runs after the span closed, so
        bookkeeping is charged to the parent's self time, never to the
        layer being measured.
        """
        fn = getattr(owner, attr, None) if owner is not None else None
        if not callable(fn):
            self.missing.append(name)
            return
        enter, exit_, counts = self.enter, self.exit, self.counts

        def traced(*args, **kwargs):
            frame = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame)
            if count is not None:
                count(counts, args, result)
            return result

        previous = vars(owner).get(attr, _ABSENT)
        try:
            setattr(owner, attr, traced)
        except (AttributeError, TypeError):
            self.missing.append(name)
            return
        self._undo.append((owner, attr, previous))

    def uninstall(self) -> None:
        """Remove every wrapper (instance shadows and module rebinds)."""
        while self._undo:
            owner, attr, previous = self._undo.pop()
            if previous is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)


# --------------------------------------------------------------------- #
# Counts taken at the span boundaries
# --------------------------------------------------------------------- #

def _count_csr(counts, args, result):
    counts["env.csr_pairs"] += len(result[1])


def _count_refilter(counts, args, result):
    counts["refilter.pairs_in"] += len(args[1])
    counts["refilter.pairs_kept"] += len(result[1])


def _count_force(counts, args, result):
    counts["kernels.force_pairs"] += result[2]


def _count_diffuse(counts, args, result):
    counts["kernels.diffuse_voxels"] += result.size


def _count_behavior(counts, args, result):
    counts["behaviors.agents_dispatched"] += len(args[1])


def _count_commit(counts, args, result):
    counts["commit.added"] += result.added
    counts["commit.removed"] += result.removed


def _scheduler_module(sim):
    """The module whose globals ``Scheduler`` resolves ``refilter_csr`` and
    ``sort_and_balance`` through."""
    return sys.modules.get(type(sim.scheduler).__module__)


#: ``(span name, owner getter, attribute, count hook)``.  Owners are
#: resolved per simulation; a getter that raises AttributeError or an
#: attribute that is gone marks the span as missing.
SIM_TARGETS = [
    ("env.update", lambda sim: sim.env, "update", None),
    ("env.neighbor_csr", lambda sim: sim.env, "neighbor_csr", _count_csr),
    ("env.refilter", _scheduler_module, "refilter_csr", _count_refilter),
    ("sorting", _scheduler_module, "sort_and_balance", None),
    ("parallel.force_and_displace", lambda sim: sim.backend,
     "force_and_displace", None),
    ("kernels.force", lambda sim: sim.kernels, "force", _count_force),
    ("kernels.displace", lambda sim: sim.kernels, "displace", None),
    ("kernels.diffuse", lambda sim: sim.kernels, "diffuse", _count_diffuse),
    ("commit", lambda sim: sim.rm, "commit", _count_commit),
]

#: Wrapped only when event scheduling is enabled (``scheduler.events`` is
#: ``None`` otherwise — a configuration, not a missing target).
EVENT_TARGETS = [
    ("events.filter_due", "filter_due"),
    ("events.try_jump", "try_jump"),
]


def install(sim, rec: SpanRecorder) -> None:
    """Wrap every layer boundary of ``sim`` with spans recorded in ``rec``.

    One recorder may be installed on several simulations in turn (the
    serve twins) to aggregate them.  Call ``rec.uninstall()`` in a
    ``finally``: two of the targets are module attributes shared by every
    simulation in the process.
    """
    for name, owner_of, attr, count in SIM_TARGETS:
        try:
            owner = owner_of(sim)
        except AttributeError:
            owner = None
        rec.wrap(owner, attr, name, count)
    try:
        events = sim.scheduler.events
    except AttributeError:
        rec.missing.extend(name for name, _ in EVENT_TARGETS)
    else:
        if events is not None:
            for name, attr in EVENT_TARGETS:
                rec.wrap(events, attr, name)
    grids = getattr(sim, "diffusion_grids", None)
    if grids is None:
        rec.missing.append("diffusion.step")
    else:
        for grid in grids.values():
            rec.wrap(grid, "step", "diffusion.step")
    behaviors = getattr(sim, "behaviors", None)
    if behaviors is None:
        rec.missing.append("behaviors.run")
    else:
        for behavior, _bit in behaviors:
            rec.wrap(behavior, "run", "behaviors.run", _count_behavior)


# --------------------------------------------------------------------- #
# Per-layer metrics
# --------------------------------------------------------------------- #

#: Registry counters read as deltas over the measured region.
_REGISTRY_COUNTS = {
    "env.rebuild_skips": "scheduler:env_rebuild_skips",
    "commit.fast_appends": "commit:fast_appends",
    "arena.reallocations": "arena:reallocations",
    "events.jumps": "events:jumps",
    "events.skipped_ticks": "events:skipped_steps",
    "events.deferred_dispatches": "events:deferred_dispatches",
    "parallel.phases": "backend:phases",
    "parallel.chunks": "backend:chunks",
    "parallel.csr_copies": "backend:csr_copies",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(rec: SpanRecorder, registry_delta: dict, ticks: int,
                  loop_wall_s: float) -> dict:
    """Per-layer metrics of the traced measured region recorded in ``rec``.

    ``*_s`` is the layer's summed self time, counts are totals over the
    region, rates divide one by the other.  A metric whose span target is
    missing is ``None``.
    """
    gone = set(rec.missing)
    self_s, calls, counts = rec.self_s, rec.calls, rec.counts

    def total(name, table, key=None):
        return None if name in gone else table[key or name]

    def rate(count_key, name):
        if name in gone:
            return None
        return _ratio(counts[count_key], self_s[name])

    def delta(key):
        return float(registry_delta.get(key, 0))

    hits = delta("neighbor_cache:hits")
    out = {
        "env.neighbor_csr_s": total("env.neighbor_csr", self_s),
        "env.neighbor_csr_calls": total("env.neighbor_csr", calls),
        "env.csr_pairs": total("env.neighbor_csr", counts, "env.csr_pairs"),
        "env.csr_pairs_per_s": rate("env.csr_pairs", "env.neighbor_csr"),
        "env.update_s": total("env.update", self_s),
        "env.update_calls": total("env.update", calls),
        "env.refilter_s": total("env.refilter", self_s),
        "env.refilter_calls": total("env.refilter", calls),
        "env.cache_hit_ratio": _ratio(
            hits, hits + delta("neighbor_cache:misses")),
        "env.superset_pairs_ratio": None if "env.refilter" in gone else
        _ratio(counts["refilter.pairs_in"], counts["refilter.pairs_kept"]),
        "kernels.force_s": total("kernels.force", self_s),
        "kernels.force_calls": total("kernels.force", calls),
        "kernels.force_pairs_per_s": rate(
            "kernels.force_pairs", "kernels.force"),
        "kernels.displace_s": total("kernels.displace", self_s),
        "kernels.diffuse_s": total("kernels.diffuse", self_s),
        "kernels.diffuse_calls": total("kernels.diffuse", calls),
        "kernels.diffuse_voxels_per_s": rate(
            "kernels.diffuse_voxels", "kernels.diffuse"),
        "diffusion.step_self_s": total("diffusion.step", self_s),
        "behaviors.run_s": total("behaviors.run", self_s),
        "behaviors.calls": total("behaviors.run", calls),
        "behaviors.agents_dispatched": total(
            "behaviors.run", counts, "behaviors.agents_dispatched"),
        "commit.s": total("commit", self_s),
        "commit.added": total("commit", counts, "commit.added"),
        "commit.removed": total("commit", counts, "commit.removed"),
        "sorting.s": total("sorting", self_s),
        "sorting.calls": total("sorting", calls),
        "events.skipped_share": _ratio(delta("events:skipped_steps"), ticks),
        "events.self_s": None
        if gone & {"events.filter_due", "events.try_jump"} else
        self_s["events.filter_due"] + self_s["events.try_jump"],
        "scheduler.self_s": self_s[ROOT_SPAN],
        "parallel.force_and_displace_s": total(
            "parallel.force_and_displace", rec.incl_s),
        "parallel.backend_self_s": total(
            "parallel.force_and_displace", self_s),
        "trace.self_sum_ratio": _ratio(sum(self_s.values()), loop_wall_s),
    }
    for name, key in _REGISTRY_COUNTS.items():
        out[name] = delta(key)
    return out
