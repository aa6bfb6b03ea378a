"""Exporters: Chrome trace-event JSON and a flat metrics dump.

The trace format is the Trace Event Format consumed by Perfetto
(https://ui.perfetto.dev) and Chrome's ``about://tracing``: a JSON
object with a ``traceEvents`` array of complete (``ph="X"``) and
instant (``ph="i"``) events, timestamps and durations in microseconds.
Thread id 0 is the host scheduler; the process backend's workers show
up as threads 1..W (named via ``thread_name`` metadata events), so a
trace of a process-pool run shows the per-worker phase spans and steal
markers of paper Fig. 2 under the scheduler's stage spans.  An
overlapped grid search shows up on thread ``SEARCH_TID`` (-1), beside
the behaviors it ran with.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.core import SEARCH_TID

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "metrics_snapshot",
    "write_metrics",
]

#: pid used for every event — the engine is one logical process.
TRACE_PID = 1

#: ``thread_name`` of the host's thread ids; the others are workers.
_THREAD_NAMES = {0: "scheduler", SEARCH_TID: "grid-search"}


def _json_default(obj):
    # Counters fed from engine internals hold NumPy scalars (bincounts,
    # array sums); unwrap them instead of failing the dump.
    item = getattr(obj, "item", None)
    if callable(item):
        return item()
    raise TypeError(
        f"Object of type {type(obj).__name__} is not JSON serializable")


def chrome_trace(tracer, process_name: str = "repro") -> dict:
    """Convert a :class:`~repro.obs.core.Tracer`'s events to the Chrome
    trace-event JSON object (``{"traceEvents": [...], ...}``)."""
    t0 = getattr(tracer, "t0_ns", 0)
    events = [{
        "name": "process_name",
        "ph": "M",
        "pid": TRACE_PID,
        "tid": 0,
        "args": {"name": process_name},
    }]
    named_tids = set()
    body = []
    for ev in tracer.events:
        record = {
            "name": ev.name,
            "cat": ev.cat,
            "ph": ev.ph,
            "ts": (ev.ts_ns - t0) / 1000.0,
            "pid": TRACE_PID,
            "tid": ev.tid,
        }
        if ev.ph == "X":
            record["dur"] = ev.dur_ns / 1000.0
        if ev.ph == "i":
            record["s"] = "t"  # thread-scoped instant
        if ev.args:
            record["args"] = dict(ev.args)
        body.append(record)
        named_tids.add(ev.tid)
    for tid in sorted(named_tids):
        events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": TRACE_PID,
            "tid": tid,
            "args": {"name": _THREAD_NAMES.get(tid, f"worker-{tid - 1}")},
        })
    events.extend(body)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path, tracer, process_name: str = "repro") -> Path:
    """Write the Chrome trace JSON to ``path``; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(chrome_trace(tracer, process_name),
                               default=_json_default) + "\n")
    return path


def metrics_snapshot(sim) -> dict:
    """Flat metrics dump of a simulation's registry, with identity keys."""
    out = {
        "simulation": sim.name,
        "iterations": sim.scheduler.iteration,
        "num_agents": sim.num_agents,
        "metrics": sim.obs.registry.snapshot(),
    }
    return out


def write_metrics(path, sim) -> Path:
    """Write :func:`metrics_snapshot` as indented JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(metrics_snapshot(sim), indent=2,
                               sort_keys=True, default=_json_default) + "\n")
    return path
