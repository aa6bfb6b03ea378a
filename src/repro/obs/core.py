"""Tracer and metrics registry: the engine's single instrumentation surface.

Two complementary primitives:

- :class:`MetricsRegistry` — named monotonic :class:`Counter`\\ s and
  :class:`Gauge`\\ s, plus callback gauges evaluated lazily at snapshot
  time.  The registry is **always on**: every bespoke tally the engine
  used to keep (environment rebuild counts, steal counters, allocator
  statistics, per-stage wall times) lives here now, and the old
  attributes survive as thin property shims reading the registry.
- :class:`Tracer` — a span/instant event recorder with wall-clock
  nanosecond timestamps, exportable as Chrome trace-event JSON
  (:mod:`repro.obs.export`).  Tracing is **off by default**: the
  :data:`NULL_TRACER` singleton's :meth:`~NullTracer.span` returns one
  preallocated no-op context manager, so an instrumented hot path costs
  a method call and nothing else.

Both are bundled per simulation in :class:`Observability`
(``sim.obs``); ``Param(tracing=True)`` installs a recording tracer.

Tracing is required to be *inert*: it observes timestamps, never
simulation state, so per-step state checksums
(:func:`repro.verify.snapshot.state_checksum`) are bitwise identical
with the tracer on and off (enforced by
:func:`repro.verify.replay.tracing_equivalence`).
"""

from __future__ import annotations

import contextlib
import time

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "SpanEvent",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Observability",
    "STAGE_PREFIX",
    "SEARCH_TID",
]

#: Registry-key prefix for per-stage wall-time counters (seconds).
STAGE_PREFIX = "stage:"

#: Trace thread id of the helper thread an overlapped grid search runs on
#: (the host is 0, process-pool workers 1..W).
SEARCH_TID = -1


class Counter:
    """A monotonic accumulator (int or float)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount=1) -> None:
        """Add ``amount`` (default 1) to the accumulated value."""
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A last-value-wins measurement."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def set(self, value) -> None:
        """Overwrite the measurement with ``value``."""
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}={self.value})"


class MetricsRegistry:
    """Named counters, gauges, and lazy callback gauges.

    Handles are memoized: ``registry.counter(name)`` always returns the
    same :class:`Counter` object, so hot paths fetch it once and call
    ``inc`` on the cached handle.
    """

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._callbacks: dict[str, object] = {}

    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on first use)."""
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created on first use)."""
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def register_callback(self, name: str, fn) -> None:
        """Register a zero-argument callable evaluated at snapshot time."""
        self._callbacks[name] = fn

    def counters_with_prefix(self, prefix: str) -> dict[str, float]:
        """``{name without prefix: value}`` of all matching counters."""
        n = len(prefix)
        return {
            name[n:]: c.value
            for name, c in self._counters.items()
            if name.startswith(prefix)
        }

    def snapshot(self) -> dict:
        """Flat ``{name: value}`` dump of every metric, sorted by name."""
        out = {}
        for name, c in self._counters.items():
            out[name] = c.value
        for name, g in self._gauges.items():
            out[name] = g.value
        for name, fn in self._callbacks.items():
            out[name] = fn()
        return dict(sorted(out.items()))


# --------------------------------------------------------------------- #
# Tracing
# --------------------------------------------------------------------- #

class SpanEvent:
    """One recorded event: a completed span (``ph="X"``) or an instant
    (``ph="i"``).  Timestamps are ``time.perf_counter_ns`` values."""

    __slots__ = ("ph", "name", "cat", "ts_ns", "dur_ns", "tid", "args")

    def __init__(self, ph, name, cat, ts_ns, dur_ns, tid, args):
        self.ph = ph
        self.name = name
        self.cat = cat
        self.ts_ns = ts_ns
        self.dur_ns = dur_ns
        self.tid = tid
        self.args = args

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SpanEvent({self.ph!r}, {self.name!r}, tid={self.tid}, "
                f"dur={self.dur_ns}ns)")


class _Span:
    """Context manager recording one complete event on exit."""

    __slots__ = ("_tracer", "_name", "_cat", "_tid", "_args", "_start")

    def __init__(self, tracer, name, cat, tid, args):
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._tid = tid
        self._args = args
        self._start = 0

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter_ns()
        self._tracer.events.append(SpanEvent(
            "X", self._name, self._cat, self._start, end - self._start,
            self._tid, self._args,
        ))


class Tracer:
    """Records spans and instant events with nanosecond timestamps.

    The host records on thread id 0; worker processes record locally and
    the backend funnels their events through :meth:`ingest` with their
    worker's thread id; the host records an overlapped grid search's
    helper span on :data:`SEARCH_TID` after joining it.  ``t0_ns``
    anchors the export's time origin (``perf_counter_ns`` is
    CLOCK_MONOTONIC on Linux — one timebase across processes, so worker
    timestamps line up with host spans).
    """

    enabled = True

    def __init__(self):
        self.t0_ns = time.perf_counter_ns()
        self.events: list[SpanEvent] = []

    def span(self, name: str, cat: str = "sim", tid: int = 0, **args):
        """Context manager timing a region; records on exit."""
        return _Span(self, name, cat, tid, args)

    def instant(self, name: str, cat: str = "sim", tid: int = 0,
                ts_ns: int | None = None, **args) -> None:
        """Record a zero-duration marker event."""
        if ts_ns is None:
            ts_ns = time.perf_counter_ns()
        self.events.append(SpanEvent("i", name, cat, ts_ns, 0, tid, args))

    def record_complete(self, name: str, ts_ns: int, dur_ns: int,
                        cat: str = "sim", tid: int = 0, args=None) -> None:
        """Record an already-measured span (used by the stage timer)."""
        self.events.append(SpanEvent(
            "X", name, cat, ts_ns, dur_ns, tid, args or {},
        ))

    def ingest(self, events, tid: int) -> None:
        """Adopt worker-recorded events ``(ph, name, cat, ts_ns, dur_ns,
        args)`` onto thread id ``tid``."""
        append = self.events.append
        for ph, name, cat, ts_ns, dur_ns, args in events:
            append(SpanEvent(ph, name, cat, ts_ns, dur_ns, tid, args))

    def clear(self) -> None:
        """Drop all recorded events (keeps the time origin)."""
        self.events = []


class _NullSpan:
    """Shared do-nothing context manager (see :class:`NullTracer`)."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Zero-overhead tracer installed by default.

    ``span`` hands back one preallocated context manager whose
    ``__enter__``/``__exit__`` are empty — no clock reads, no
    allocation, no branches.  The overhead guard in the test suite
    enforces a per-span nanosecond budget on this path.
    """

    enabled = False
    events = ()

    def span(self, name: str, cat: str = "sim", tid: int = 0, **args):
        """The shared no-op context manager; records nothing."""
        return _NULL_SPAN

    def instant(self, name: str, cat: str = "sim", tid: int = 0,
                ts_ns: int | None = None, **args) -> None:
        """No-op."""

    def record_complete(self, name: str, ts_ns: int, dur_ns: int,
                        cat: str = "sim", tid: int = 0, args=None) -> None:
        """No-op."""

    def ingest(self, events, tid: int) -> None:
        """No-op."""

    def clear(self) -> None:
        """No-op."""


#: Module-level singleton; every untraced simulation shares it.
NULL_TRACER = NullTracer()


class _StageTimer:
    """Times one scheduler stage: always accumulates seconds into the
    stage counter, and records a trace span when tracing is enabled.
    One clock read per edge serves both consumers."""

    __slots__ = ("_counter", "_tracer", "_name", "_args", "_start")

    def __init__(self, counter, tracer, name, args):
        self._counter = counter
        self._tracer = tracer
        self._name = name
        self._args = args
        self._start = 0

    def __enter__(self) -> "_StageTimer":
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        dur = time.perf_counter_ns() - self._start
        self._counter.value += dur * 1e-9
        if self._tracer.enabled:
            self._tracer.record_complete(
                self._name, self._start, dur, cat="stage",
                args=self._args,
            )


class Observability:
    """Per-simulation observability bundle: ``sim.obs``.

    Holds the always-on :class:`MetricsRegistry` and the (default no-op)
    :class:`Tracer`.  The scheduler times its stages through
    :meth:`stage`, which feeds both: the ``stage:<name>`` counter in
    the registry (the single source of truth the benchmark harness
    reads) and, when tracing, a span in the trace.
    """

    def __init__(self, tracing: bool = False):
        self.registry = MetricsRegistry()
        self.tracer: Tracer | NullTracer = Tracer() if tracing else NULL_TRACER
        self._stage_counters: dict[str, Counter] = {}
        #: Attributes injected into every span/instant/stage recorded
        #: through this bundle while a :meth:`scope` is active.
        self._scope_attrs: dict = {}

    @contextlib.contextmanager
    def scope(self, **attrs):
        """Attribute scope: while the context is active, every event
        recorded through :meth:`span`, :meth:`instant`, or :meth:`stage`
        carries ``attrs`` (explicit per-event args win on key clashes).
        Scopes nest — inner scopes merge over outer ones and restore the
        previous attribute set on exit.  The session server wraps each
        request in ``obs.scope(session=sid)`` so one shared trace can be
        filtered per tenant.
        """
        prev = self._scope_attrs
        self._scope_attrs = {**prev, **attrs}
        try:
            yield self
        finally:
            self._scope_attrs = prev

    def span(self, name: str, cat: str = "sim", tid: int = 0, **args):
        """Context manager timing a region on the bundle's tracer, with
        any active :meth:`scope` attributes merged into ``args``."""
        if self._scope_attrs:
            args = {**self._scope_attrs, **args}
        return self.tracer.span(name, cat=cat, tid=tid, **args)

    def instant(self, name: str, cat: str = "sim", tid: int = 0, **args):
        """Record an instant event with scope attributes merged in."""
        if self._scope_attrs:
            args = {**self._scope_attrs, **args}
        self.tracer.instant(name, cat=cat, tid=tid, **args)

    @property
    def tracing(self) -> bool:
        return self.tracer.enabled

    def enable_tracing(self) -> None:
        """Install a recording tracer (idempotent)."""
        if not self.tracer.enabled:
            self.tracer = Tracer()

    def disable_tracing(self) -> None:
        """Revert to the shared no-op tracer, dropping recorded events."""
        self.tracer = NULL_TRACER

    def stage(self, name: str, **args) -> _StageTimer:
        """Context manager timing one named scheduler stage."""
        counter = self._stage_counters.get(name)
        if counter is None:
            counter = self.registry.counter(STAGE_PREFIX + name)
            self._stage_counters[name] = counter
        if self._scope_attrs:
            args = {**self._scope_attrs, **args}
        return _StageTimer(counter, self.tracer, name, args)

    def stage_seconds(self) -> dict[str, float]:
        """Accumulated wall seconds per stage (``{stage: seconds}``)."""
        return self.registry.counters_with_prefix(STAGE_PREFIX)

    # -- standard instrument hookups ------------------------------------ #

    def register_allocator(self, label: str, allocator) -> None:
        """Expose an allocator's statistics as callback gauges.

        Publishes ``mem:<label>:{allocations,frees,central_migrations,
        central_free_nodes,live_bytes,reserved_bytes}``; the central-list
        metrics appear only for allocators that track them (the §4.3
        pool allocator).
        """
        if allocator is None:
            return
        prefix = f"mem:{label}:"
        reg = self.registry
        reg.register_callback(prefix + "allocations",
                              lambda a=allocator: a.allocations)
        reg.register_callback(prefix + "frees",
                              lambda a=allocator: a.frees)
        reg.register_callback(prefix + "live_bytes",
                              lambda a=allocator: a.live_bytes)
        reg.register_callback(prefix + "reserved_bytes",
                              lambda a=allocator: a.reserved_bytes)
        if hasattr(allocator, "central_free_nodes"):
            reg.register_callback(prefix + "central_free_nodes",
                                  lambda a=allocator: a.central_free_nodes)
        if hasattr(allocator, "central_migrations"):
            reg.register_callback(prefix + "central_migrations",
                                  lambda a=allocator: a.central_migrations)
