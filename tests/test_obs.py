"""Tests for repro.obs: metrics registry, tracer, Chrome-trace export,
shims over the old bespoke counters, and inertness of tracing."""

import json
import re
import time

import numpy as np
import pytest

from repro import Param, Simulation, write_chrome_trace, write_metrics
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    NullTracer,
    Observability,
    Tracer,
    chrome_trace,
    metrics_snapshot,
)
from repro.obs.export import TRACE_PID

#: Every stage the scheduler times each iteration (mechanics is nested
#: inside agent_ops; op-named stages are model-dependent).
SCHEDULER_STAGES = {
    "build_environment", "agent_ops", "mechanics", "diffusion",
    "agent_sorting", "setup_teardown", "visualization",
}


def small_sim(name="obs-test", n=120, **param_overrides):
    sim = Simulation(name, Param(**param_overrides))
    rng = np.random.default_rng(0)
    sim.add_cells(rng.uniform(0, 30, (n, 3)), diameters=8.0)
    return sim


class TestMetricsRegistry:
    def test_counter_handles_are_memoized(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        c.inc()
        c.inc(2.5)
        assert reg.counter("x") is c
        assert reg.counter("x").value == 3.5

    def test_gauge_last_value_wins(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(1)
        reg.gauge("g").set(7)
        assert reg.gauge("g").value == 7

    def test_callback_evaluated_at_snapshot_time(self):
        reg = MetricsRegistry()
        box = {"v": 1}
        reg.register_callback("lazy", lambda: box["v"])
        assert reg.snapshot()["lazy"] == 1
        box["v"] = 42
        assert reg.snapshot()["lazy"] == 42

    def test_snapshot_sorted_and_complete(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.gauge("a").set(2)
        reg.register_callback("c", lambda: 3)
        snap = reg.snapshot()
        assert list(snap) == sorted(snap)
        assert snap == {"a": 2, "b": 1, "c": 3}

    def test_counters_with_prefix_strips_prefix(self):
        reg = MetricsRegistry()
        reg.counter("stage:mechanics").inc(0.5)
        reg.counter("other").inc()
        assert reg.counters_with_prefix("stage:") == {"mechanics": 0.5}


class TestNullTracer:
    def test_default_tracer_is_the_shared_noop(self):
        sim = small_sim()
        assert sim.obs.tracer is NULL_TRACER
        assert not sim.obs.tracing

    def test_span_returns_one_preallocated_object(self):
        a = NULL_TRACER.span("x", cat="y", foo=1)
        b = NULL_TRACER.span("other")
        assert a is b

    def test_noop_span_overhead_budget(self):
        # The no-op path must stay allocation- and clock-free: a generous
        # 5 µs/span ceiling (real cost is ~100 ns) guards against someone
        # reintroducing work on the default path.
        n = 50_000
        span = NULL_TRACER.span
        t0 = time.perf_counter_ns()
        for _ in range(n):
            with span("stage"):
                pass
        per_span = (time.perf_counter_ns() - t0) / n
        assert per_span < 5_000, f"no-op span costs {per_span:.0f} ns"

    def test_records_nothing(self):
        t = NullTracer()
        t.instant("i")
        t.record_complete("x", 0, 1)
        t.ingest([("X", "a", "c", 0, 1, {})], tid=1)
        assert t.events == ()


class TestTracer:
    def test_span_records_complete_event(self):
        t = Tracer()
        with t.span("work", cat="test", detail=3):
            pass
        (ev,) = t.events
        assert (ev.ph, ev.name, ev.cat, ev.tid) == ("X", "work", "test", 0)
        assert ev.dur_ns >= 0 and ev.args == {"detail": 3}

    def test_ingest_assigns_tid(self):
        t = Tracer()
        t.ingest([("X", "phase", "worker", 10, 5, {"chunks": 2}),
                  ("i", "steal_same_domain", "steal", 12, 0, {})], tid=3)
        assert [e.tid for e in t.events] == [3, 3]
        assert t.events[1].ph == "i"

    def test_clear_keeps_time_origin(self):
        t = Tracer()
        t.instant("m")
        origin = t.t0_ns
        t.clear()
        assert t.events == [] and t.t0_ns == origin

    def test_enable_disable_roundtrip(self):
        obs = Observability()
        assert obs.tracer is NULL_TRACER
        obs.enable_tracing()
        tracer = obs.tracer
        assert tracer.enabled
        obs.enable_tracing()          # idempotent
        assert obs.tracer is tracer
        obs.disable_tracing()
        assert obs.tracer is NULL_TRACER


class TestChromeTraceExport:
    def make_trace(self):
        t = Tracer()
        with t.span("iterate", cat="scheduler"):
            with t.span("mechanics", cat="stage"):
                pass
        t.instant("marker", cat="steal")
        t.ingest([("X", "phase:mechanics", "worker", t.t0_ns, 100, {})],
                 tid=2)
        return chrome_trace(t)

    def test_top_level_schema(self):
        doc = self.make_trace()
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        assert doc["displayTimeUnit"] == "ms"

    def test_event_schema(self):
        for ev in self.make_trace()["traceEvents"]:
            assert ev["pid"] == TRACE_PID
            assert ev["ph"] in ("X", "i", "M")
            assert {"name", "ph", "pid", "tid"} <= set(ev)
            if ev["ph"] == "X":
                assert "dur" in ev and ev["ts"] >= 0
            if ev["ph"] == "i":
                assert ev["s"] == "t"

    def test_metadata_names_threads(self):
        meta = [e for e in self.make_trace()["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta}
        assert {"repro", "scheduler", "worker-1"} <= names

    def test_write_is_valid_json(self, tmp_path):
        t = Tracer()
        with t.span("x"):
            pass
        path = write_chrome_trace(tmp_path / "t.json", t)
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]


class TestSchedulerInstrumentation:
    def test_stage_seconds_covers_all_stages(self):
        sim = small_sim()
        sim.simulate(3)
        stages = {k for k, v in sim.obs.stage_seconds().items() if v > 0}
        assert SCHEDULER_STAGES <= stages

    def test_trace_spans_cover_all_stages(self):
        sim = small_sim(tracing=True)
        sim.simulate(3)
        events = sim.obs.tracer.events
        assert {e.name for e in events if e.cat == "stage"} >= SCHEDULER_STAGES
        iterate = [e for e in events if e.cat == "scheduler"]
        assert len(iterate) == 3
        assert [e.args["iteration"] for e in iterate] == [0, 1, 2]

    def test_untraced_run_records_no_events(self):
        sim = small_sim()
        sim.simulate(2)
        assert len(sim.obs.tracer.events) == 0

    def test_env_rebuild_counters(self):
        sim = small_sim()
        sim.simulate(3)
        snap = sim.obs.registry.snapshot()
        assert snap["scheduler:env_rebuilds"] >= 1
        assert snap["scheduler:iterations"] == 3

    def test_metrics_snapshot_identity_keys(self):
        sim = small_sim(name="snap-test")
        sim.simulate(2)
        doc = metrics_snapshot(sim)
        assert doc["simulation"] == "snap-test"
        assert doc["iterations"] == 2
        assert doc["num_agents"] == sim.num_agents
        assert any(k.startswith("mem:agent:") for k in doc["metrics"])

    def test_write_metrics_roundtrip(self, tmp_path):
        sim = small_sim()
        sim.simulate(1)
        path = write_metrics(tmp_path / "m.json", sim)
        doc = json.loads(path.read_text())
        assert doc["metrics"]["scheduler:iterations"] == 1

    def test_export_serializes_numpy_scalars(self, tmp_path):
        # Engine internals feed counters from bincounts/array sums, so
        # registry values (and span args) can be NumPy scalars.
        sim = small_sim()
        sim.simulate(1)
        sim.obs.registry.counter("np:count").inc(np.int64(3))
        sim.obs.registry.gauge("np:gauge").set(np.float64(1.5))
        doc = json.loads(write_metrics(tmp_path / "m.json", sim).read_text())
        assert doc["metrics"]["np:count"] == 3
        t = Tracer()
        t.instant("chunk", cat="steal", chunk=np.int64(7))
        doc = json.loads(write_chrome_trace(tmp_path / "t.json", t).read_text())
        (ev,) = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert ev["args"]["chunk"] == 7


class TestProcessBackendTracing:
    def test_per_worker_spans_and_counters(self):
        sim = small_sim(n=200, tracing=True, execution_backend="process",
                        backend_workers=2, backend_chunk_size=32)
        try:
            sim.simulate(2)
            events = sim.obs.tracer.events
            worker_tids = {e.tid for e in events if e.cat == "worker"}
            assert worker_tids  # at least one worker phase span landed
            assert worker_tids <= {1, 2}
            host = [e for e in events if e.cat == "backend"]
            assert host and all(e.name.startswith("phase:") for e in host)
            stats = sim.backend.stats()
            assert stats["phases"] >= 2 and stats["chunks"] >= 2
            counters = sim.obs.registry.counters_with_prefix("backend:")
            assert all(counters[k] == v for k, v in stats.items())
        finally:
            sim.close()

    def test_tracing_equivalence_model(self):
        from repro.verify import equivalence

        report = equivalence("tracing", ("cell_clustering",), (4357,),
                             num_agents=120, steps=3)
        assert report.ok, report.render()


class TestTraceCli:
    def test_trace_subcommand_writes_artifacts(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        rc = main(["trace", "cell_clustering", "--agents", "150",
                   "--iterations", "2", "--out", str(out),
                   "--metrics", str(metrics)])
        assert rc == 0
        doc = json.loads(out.read_text())
        stage_names = {e["name"] for e in doc["traceEvents"]
                       if e.get("cat") == "stage"}
        assert SCHEDULER_STAGES <= stage_names
        assert json.loads(metrics.read_text())["metrics"]
        printed = capsys.readouterr().out
        assert "trace:" in printed
        # The build stage's decisions and the stencil volume: two ticks
        # of a mechanics model with two substance grids.
        assert ("environment: 2 builds, 0 skipped (unchanged), "
                "0 deferred (no reader)") in printed
        assert re.search(
            r"diffusion: 2 grids, 4 stencil steps, [1-9]\d* voxels", printed)
