"""Event-driven quiescence scheduling (``repro.core.events``).

Covers the ISSUE 10 contract: all-static scenes fully skip the force
kernels (flat ``kernel:calls``), horizon jumps are bitwise identical to
tick-stepping, mid-run behavior attachment invalidates the wake-time
columns, the timed-interventions scenario is golden-deterministic, and
served sessions advance idle stretches in O(1) RPCs.

And the ISSUE 17 one (O(1) jumps): writes between ticks end the quiet
epoch, everything that can move the cached horizon without a tick
invalidates it, a quiet stretch costs one horizon computation / one
``next_fire`` per behavior / one real sample per sampler however it is
chunked and however many agents there are, sampler replay and scalar
wake answers are indistinguishable from the slow paths.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    DiffusionGrid,
    Param,
    Simulation,
    restore_checkpoint,
    save_checkpoint,
)
from repro.core.behavior import Behavior
from repro.core.behaviors_lib import Infection, Lockdown, ScheduledIntervention
from repro.core.events import next_due_tick
from repro.core.operation import Operation, OpKind
from repro.core.timeseries import TimeSeriesOperation
from repro.simulations import get_simulation
from repro.verify.snapshot import state_checksum


def _lattice_sim(events: bool, side: int = 4) -> Simulation:
    """Contact-free lattice: zero forces, so §5 detection goes all-static
    after the settle tick and the event horizon is open-ended."""
    param = Param(event_scheduling=events, detect_static_agents=True,
                  agent_sort_frequency=0)
    sim = Simulation("lattice", param, seed=7)
    g = np.arange(side) * 10.5
    pos = np.stack(np.meshgrid(g, g, g, indexing="ij"), -1).reshape(-1, 3)
    sim.add_cells(positions=pos, diameters=np.full(len(pos), 10.0))
    return sim


class AlwaysDue(Behavior):
    """Default ``next_fire`` (every tick); counts its dispatches."""

    name = "always_due"

    def __init__(self):
        self.calls = 0
        self.agents_seen = 0

    def run(self, sim, idx):
        self.calls += 1
        self.agents_seen += len(idx)


class NeverDue(Behavior):
    """Wakes at +inf — must never be dispatched under event scheduling."""

    name = "never_due"

    def __init__(self):
        self.calls = 0

    def run(self, sim, idx):
        self.calls += 1

    def next_fire(self, sim, idx):
        return np.inf


class TestNextDueTick:
    def test_frequency_one_is_every_tick(self):
        assert [next_due_tick(1, t) for t in range(4)] == [0, 1, 2, 3]

    def test_matches_operation_due(self):
        from repro.core.operation import Operation

        op = Operation(frequency=7)
        for now in range(30):
            t = next_due_tick(7, now)
            assert t >= now
            assert op.due(t)
            assert not any(op.due(u) for u in range(now, t))


class TestAllStaticFullSkip:
    def test_flat_kernel_calls_and_checksum(self):
        with _lattice_sim(events=True) as sim:
            kernel_calls = sim.obs.registry.snapshot
            sim.simulate(3)  # settle: detection proves every agent static
            before = kernel_calls()["kernel:calls"]
            sim.simulate(25)
            after = kernel_calls()
            # The skipped stretch executed zero force-kernel calls and
            # was covered by at least one multi-step jump.
            assert after["kernel:calls"] == before
            assert after["events:jumps"] >= 1
            assert after["events:max_jump"] >= 2
            on = state_checksum(sim)
        with _lattice_sim(events=False) as sim:
            sim.simulate(28)
            assert state_checksum(sim) == on

    def test_never_due_behavior_keeps_horizon_open(self):
        with _lattice_sim(events=True) as sim:
            never = NeverDue()
            sim.attach_behavior(np.arange(sim.num_agents), never)
            sim.simulate(20)
            snap = sim.obs.registry.snapshot()
            assert never.calls == 0
            assert snap["events:jumps"] >= 1
            assert snap["events:deferred_dispatches"] > 0


class TestWakeColumnInvalidation:
    def test_attach_mid_run_invalidates_wake_columns(self):
        with _lattice_sim(events=True) as sim:
            sim.attach_behavior(np.arange(sim.num_agents), NeverDue())
            sim.simulate(10)
            assert sim.obs.registry.snapshot()["events:jumps"] >= 1
            # Attaching an every-tick behavior must invalidate the cached
            # wake columns: it runs on the very next tick, and jumps stop.
            counter = AlwaysDue()
            sim.attach_behavior(np.arange(sim.num_agents), counter)
            jumps_before = sim.obs.registry.snapshot()["events:jumps"]
            sim.simulate(5)
            assert counter.calls == 5
            assert counter.agents_seen == 5 * sim.num_agents
            assert (sim.obs.registry.snapshot()["events:jumps"]
                    == jumps_before)
            # Detaching it reopens the horizon: jumps resume.
            sim.detach_behavior(np.arange(sim.num_agents), counter)
            sim.simulate(10)
            assert counter.calls == 5
            assert (sim.obs.registry.snapshot()["events:jumps"]
                    > jumps_before)

    def test_advance_returns_ticks_consumed(self):
        with _lattice_sim(events=True) as sim:
            sim.simulate(3)
            done = sim.advance(20)
            assert done == 20  # one jump covers the whole budget
            assert sim.scheduler.iteration == 23
            assert sim.advance(0) == 0
        with _lattice_sim(events=False) as sim:
            assert sim.advance(20) == 1  # tick-stepping consumes one


class TestInterventionsGolden:
    STEPS = 220
    AGENTS = 240

    def _run(self, events: bool, seed: int = 5):
        bench = get_simulation("epidemiology_interventions")
        p = bench.default_param().with_(event_scheduling=events)
        with bench.build(self.AGENTS, param=p, seed=seed) as sim:
            sim.simulate(self.STEPS)
            series = {k: list(v) for k, v in sim.timeseries.as_dict().items()}
            return state_checksum(sim), series, sim.obs.registry.snapshot()

    def test_golden_determinism_and_events_equivalence(self):
        a, series_a, _ = self._run(events=False)
        b, series_b, _ = self._run(events=False)
        assert a == b  # same seed → bitwise-identical rerun
        c, series_c, snap = self._run(events=True)
        assert c == a  # events layer is invisible to the state
        assert series_c == series_a  # ...and to the sampled time series
        assert snap["events:jumps"] >= 1
        assert snap["events:deferred_dispatches"] > 0

    def test_timeline_follows_the_schedule(self):
        bench = get_simulation("epidemiology_interventions")
        first_import = bench.IMPORT_AT[0]
        lock_start, lock_end = bench.LOCKDOWN
        p = bench.default_param().with_(event_scheduling=True)
        with bench.build(self.AGENTS, param=p, seed=5) as sim:
            state = sim.rm.data["state"]
            sim.simulate(first_import)
            assert not np.any(state[:sim.num_agents] == Infection.INFECTED)
            sim.simulate(1)  # the scheduled import fires on this tick
            assert np.any(state[:sim.num_agents] == Infection.INFECTED)
            sim.simulate(lock_start + 1 - sim.scheduler.iteration)
            assert np.any(
                state[:sim.num_agents] == Lockdown.QUARANTINED
            )
            sim.simulate(lock_end + 1 - sim.scheduler.iteration)
            assert not np.any(
                state[:sim.num_agents] == Lockdown.QUARANTINED
            )

    def test_registered_in_registry(self):
        from repro.simulations.registry import available_simulations

        assert "epidemiology_interventions" in available_simulations()


class TestServeIdleSessions:
    def test_background_advance_jumps_idle_stretches(self):
        import time

        from repro.serve import protocol as P
        from repro.serve.pool import SessionPool

        pool = SessionPool(workers=1)
        try:
            created = pool.handle(P.CreateSession(
                model="epidemiology_interventions", agents=120, seed=3,
                params={"event_scheduling": True}, name="idle",
            ))
            pool.handle(P.AdvanceRequest(session=created.session, steps=80))
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                snap = pool.handle(P.SnapshotRequest(session=created.session))
                if not snap.advancing:
                    break
                time.sleep(0.02)
            assert snap.iteration == 80
            metrics = pool.obs.registry.snapshot()
            assert metrics["serve:steps_total"] == 80
            # Horizon jumps let the advance loop consume multi-tick
            # chunks: strictly fewer RPCs than ticks, and the surplus is
            # accounted as jumped steps.
            chunks = metrics["serve:advance_chunks"]
            jumped = metrics["serve:advance_jumped_steps"]
            assert chunks < 80
            assert jumped == 80 - chunks
        finally:
            pool.shutdown()


# --------------------------------------------------------------------- #
# ISSUE 17: cached horizon, scalar wake answers, sampler replay
# --------------------------------------------------------------------- #

def _series_bytes(ts) -> dict:
    """Every column of a time series, bitwise (``time`` included)."""
    return {k: v.tobytes() for k, v in ts.as_dict().items()}


class TestWritesBetweenTicks:
    """A write through the public API between two ``simulate`` calls ends
    the quiet epoch (at the parent commit the stretch was jumped on the
    strength of the pre-write ``next_fire`` answers)."""

    def _run(self, events: bool):
        bench = get_simulation("epidemiology_interventions")
        p = bench.default_param().with_(event_scheduling=events)
        with bench.build(2000, param=p, seed=5) as sim:
            sim.simulate(400)
            n = sim.num_agents
            state = sim.rm.data["state"][:n]
            assert not np.any(state == Infection.INFECTED)  # burned out
            picked = np.flatnonzero(state == Infection.SUSCEPTIBLE)[:50]
            for uid in sim.rm.data["uid"][picked].tolist():
                sim.get_agent(uid).set("state", Infection.INFECTED)
            sim.simulate(40)
            state = sim.rm.data["state"][:n]
            return (state_checksum(sim), _series_bytes(sim.timeseries),
                    int(np.count_nonzero(state == Infection.RECOVERED)))

    def test_agent_set_wakes_the_epidemic(self):
        off = self._run(events=False)
        on = self._run(events=True)
        assert on[2] == off[2] and off[2] > 0
        assert on == off


class Bump(Operation):
    """Mutating (non-read-only) operation: caps jumps at its due ticks."""

    name = "bump"

    def run(self, sim):
        sim.rm.data["diameter"][:sim.rm.n] += 0.125


def _quiet_sim(events: bool, bump_frequency: int = 0) -> Simulation:
    """Inert lattice (no mechanics, one never-due behavior) sampled every
    5 ticks: quiescent from tick 0, horizon open unless ``Bump`` caps it."""
    param = Param(event_scheduling=events, detect_static_agents=True,
                  agent_sort_frequency=0)
    sim = Simulation("quiet", param, seed=11)
    sim.mechanics_enabled = False
    g = np.arange(4) * 10.5
    pos = np.stack(np.meshgrid(g, g, g, indexing="ij"), -1).reshape(-1, 3)
    sim.add_cells(positions=pos, diameters=np.full(len(pos), 10.0),
                  behaviors=[NeverDue()])
    ts = TimeSeriesOperation(frequency=5)
    ts.add_collector("population", lambda s: s.num_agents)
    ts.add_collector("diameter",
                     lambda s: float(s.rm.data["diameter"][:s.rm.n].sum()))
    sim.add_operation(ts)
    sim.timeseries = ts
    if bump_frequency:
        sim.bump = Bump(bump_frequency)
        sim.add_operation(sim.bump)
    return sim


def _add_bump_due_soon(sim):
    sim.add_operation(Bump(frequency=24))  # next due at tick 23


def _remove_bump(sim):
    sim.remove_operation(sim.bump)


def _refrequency_bump(sim):
    sim.bump.frequency = 4  # plain attribute write: only the key sees it


def _reassign_sampler_kind(sim):
    sim.timeseries.kind = OpKind.PRE  # plain attribute write, like frequency


def _attach_always_due(sim):
    sim.attach_behavior(np.arange(sim.num_agents), AlwaysDue())


def _set_visualize_callback(sim):
    sim.visualize_callback = lambda s: None


def _queue_new_agents(sim):
    sim.rm.queue_new_agents({"position": np.full((2, 3), 100.0),
                             "diameter": np.full(2, 10.0)})


def _enable_mechanics(sim):
    sim.mechanics_enabled = True


class TestHorizonCacheInvalidation:
    """Inside a quiet stretch, between two ``advance(10)`` calls, each of
    these must move the cached horizon exactly as a fresh scan would."""

    MUTATE_AT = 21
    END = 71
    CASES = {
        "add_operation": (_add_bump_due_soon, 0),
        "remove_operation": (_remove_bump, 7),
        "frequency_reassigned": (_refrequency_bump, 50),
        "kind_reassigned": (_reassign_sampler_kind, 0),
        "attach_behavior": (_attach_always_due, 0),
        "visualize_callback": (_set_visualize_callback, 0),
        "queue_new_agents": (_queue_new_agents, 0),
        "mechanics_enabled": (_enable_mechanics, 0),
    }

    def _drive(self, sim, mutations: dict, cold: bool = False):
        """One settle tick, then ``advance(10)`` up to END, applying
        ``mutations[iteration]`` once each on the way; with ``cold``
        every call recomputes the horizon from scratch."""
        mutations = dict(mutations)
        sim.simulate(1)  # consumes the construction-time moved/grew flags
        returns = []
        while sim.scheduler.iteration < self.END:
            mutate = mutations.pop(sim.scheduler.iteration, None)
            if mutate is not None:
                mutate(sim)
            if cold:
                sim.note_state_change()
            returns.append(
                sim.advance(min(10, self.END - sim.scheduler.iteration)))
        assert not mutations
        return (returns, state_checksum(sim), _series_bytes(sim.timeseries),
                sim.obs.registry.snapshot())

    def _check(self, mutations: dict, bump_frequency: int = 0):
        with _quiet_sim(False, bump_frequency) as sim:
            _, checksum_off, series_off, _ = self._drive(sim, mutations)
        with _quiet_sim(True, bump_frequency) as sim:
            fresh, checksum_cold, series_cold, _ = self._drive(
                sim, mutations, cold=True)
        with _quiet_sim(True, bump_frequency) as sim:
            returns, checksum_on, series_on, snap = self._drive(
                sim, mutations)
        assert checksum_on == checksum_cold == checksum_off
        assert series_on == series_cold == series_off
        # Same quanta as per-call rescans: never a tick jumped that had
        # to run, never a jump refused that was legal.
        assert returns == fresh
        assert max(returns) > 1  # the stretch *was* being jumped
        return returns, snap

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_mutation_between_advances(self, case):
        mutate, bump_frequency = self.CASES[case]
        returns, snap = self._check({self.MUTATE_AT: mutate}, bump_frequency)
        if not bump_frequency:
            assert returns[:2] == [10, 10]
        if case in ("attach_behavior", "visualize_callback"):
            assert set(returns[2:]) == {1}  # every later tick must run
            assert snap["events:blocked:" + {
                "attach_behavior": "behavior_due",
                "visualize_callback": "visualize"}[case]] >= 1
        if case == "add_operation":
            assert returns[2] == 2  # ticks 21, 22 jumped; 23 must run
        if case == "remove_operation":
            # One horizon from the removal to END, not one per call.
            assert returns[-5:] == [10] * 5
            assert snap["events:horizon_recomputes"] < len(returns)

    def test_restore_between_advances(self, tmp_path):
        # Bump runs at tick 24; by tick 35 the cached horizon is its next
        # due tick, 49.  Going back to tick 11 must not keep that horizon
        # (it would jump over the bump at 24).
        path = tmp_path / "quiet.npz"
        mutations = {
            11: lambda sim: save_checkpoint(sim, path),
            35: lambda sim: restore_checkpoint(sim, path),
        }
        returns, _ = self._check(mutations, bump_frequency=25)
        assert sum(returns) == (self.END - 1) + (35 - 11)


class TestQuietStretchIsO1:
    """Count-based guard: 500 x ``advance(10)`` over one quiet stretch
    cost one horizon, one ``next_fire`` per behavior and one real sample
    per sampler — whatever the population."""

    @pytest.mark.parametrize("num_agents", [200, 2000])
    def test_counts_do_not_scale(self, num_agents):
        bench = get_simulation("epidemiology_interventions")
        p = bench.default_param().with_(event_scheduling=True)
        calls = {}

        def counted(key, fn):
            def wrapper(*args):
                calls[key] = calls.get(key, 0) + 1
                return fn(*args)
            return wrapper

        with bench.build(num_agents, param=p, seed=5) as sim:
            sim.simulate(1000)
            state = sim.rm.data["state"][:sim.num_agents]
            assert not np.any(state == Infection.INFECTED)  # quiet for good
            for behavior, _bit in sim.behaviors:
                behavior.next_fire = counted(
                    ("next_fire", behavior.name), behavior.next_fire)
            collectors = sim.timeseries._collectors
            for name in list(collectors):
                collectors[name] = counted(("collector", name),
                                           collectors[name])
            before = sim.obs.registry.snapshot()
            assert [sim.advance(10) for _ in range(500)] == [10] * 500
            after = sim.obs.registry.snapshot()

        def delta(key):
            return after[key] - before.get(key, 0)

        assert delta("events:horizon_recomputes") <= 1
        assert delta("events:jumps") == 500
        assert delta("events:sampler_replays") >= 999  # of 1000 samples
        assert delta("events:jump_stops") == 1000  # 2 frequency-5 stops a jump
        assert len(sim.behaviors) == 5 and len(collectors) == 4
        assert all(count <= 1 for count in calls.values()), calls

    #: Python-level calls of one quiet ``advance(10)`` (two sampler stops).
    MAX_JUMP_CALLS = 23

    #: Comprehension frames CPython 3.12 inlines (PEP 709); left out of
    #: the count so that it means the same on every supported version.
    INLINED = frozenset({"<listcomp>", "<setcomp>", "<dictcomp>"})

    def test_jump_call_count(self):
        """One warm ``advance(10)`` over a quiet stretch makes as many
        Python calls at 2 000 agents as at 200, and no more than
        MAX_JUMP_CALLS.  Measured on CPython 3.11 only: the plan's stop
        schedule makes it 22 calls, where per-stop rescans (a
        ``next_due_tick`` per sampler and an ``op.due`` test in each stop)
        made it 28; any one of them coming back costs two more, one a
        stop.  The bound keeps one call to spare for interpreter drift;
        the equality across sizes holds on every version."""
        bench = get_simulation("epidemiology_interventions")
        p = bench.default_param().with_(event_scheduling=True)
        counts = []
        for num_agents in (200, 2000):
            with bench.build(num_agents, param=p, seed=5) as sim:
                sim.simulate(1000)
                state = sim.rm.data["state"][:sim.num_agents]
                assert not np.any(state == Infection.INFECTED)
                assert sim.advance(10) == 10  # warm: the plan is cached
                calls = [0]

                def profile(frame, event, arg):
                    if event == "call" and (
                            frame.f_code.co_name not in self.INLINED):
                        calls[0] += 1

                sys.setprofile(profile)
                try:
                    ticks = sim.advance(10)
                finally:
                    sys.setprofile(None)
                assert ticks == 10
                counts.append(calls[0])
        assert counts[0] == counts[1], counts
        assert counts[0] <= self.MAX_JUMP_CALLS, counts


class Pulse(ScheduledIntervention):
    """Grows every agent at its scheduled ticks (state really changes, so
    each pulse ends one quiet epoch and starts the next)."""

    name = "pulse"

    def apply(self, sim, idx):
        sim.rm.data["diameter"][idx] += 0.25


def _sampled_sim(events, samplers, pulses, grid):
    """Inert cells + ``Pulse``; one TimeSeriesOperation per ``(frequency,
    kind)``, each reading the agent state and (if any) the grid."""
    param = Param(event_scheduling=events, agent_sort_frequency=0)
    sim = Simulation("sampled", param, seed=3)
    sim.mechanics_enabled = False
    pos = np.random.default_rng(0).uniform(0.0, 60.0, (12, 3))
    sim.add_cells(pos, diameters=5.0, behaviors=[Pulse(pulses)])
    if grid:
        field = sim.add_diffusion_grid(DiffusionGrid(
            "field", 6, 0.0, 60.0, diffusion_coefficient=4.0, decay=0.01))
        field.concentration[2, 3, 1] = 1000.0  # evolves for ~1e4 ticks
    sim.series = []
    for frequency, kind in samplers:
        ts = TimeSeriesOperation(frequency)
        ts.kind = kind
        ts.add_collector(
            "diameter", lambda s: float(s.rm.data["diameter"][:s.rm.n].sum()))
        if grid:
            ts.add_collector(
                "field",
                lambda s: float(s.diffusion_grids["field"].concentration.sum()))
        sim.add_operation(ts)
        sim.series.append(ts)
    return sim


class TestSamplerReplayProperties:
    KINDS = (OpKind.PRE, OpKind.STANDALONE, OpKind.POST)

    @settings(max_examples=40)
    @given(
        samplers=st.lists(
            st.tuples(st.integers(1, 9), st.sampled_from(KINDS)),
            min_size=1, max_size=3),
        pulses=st.lists(st.integers(0, 70), max_size=3),
        chunks=st.lists(st.integers(1, 25), min_size=2, max_size=8),
        grid=st.booleans(),
    )
    def test_series_equal_tick_by_tick(self, samplers, pulses, chunks, grid):
        """Random sampler frequencies x kinds x ``advance(m)`` chunkings,
        without a grid and with one that evolves and is then forced onto
        its fixed point: every column equals the tick-by-tick run's,
        element for element (times bitwise)."""
        half = len(chunks) // 2

        def settle(sim):
            # An out-of-tick write, announced as the contract demands.
            if grid:
                sim.diffusion_grids["field"].concentration[:] = 0.0
                sim.note_state_change()

        with _sampled_sim(True, samplers, pulses, grid) as sim:
            replays = sim.obs.registry.counter("events:sampler_replays")
            for m in chunks[:half]:
                left = m
                while left:
                    left -= sim.advance(left)
            # A collector reads the grid sum: never replayed while the
            # grid still evolves.
            assert not grid or replays.value == 0
            settle(sim)
            for m in chunks[half:]:
                left = m
                while left:
                    left -= sim.advance(left)
            on = [_series_bytes(ts) for ts in sim.series]
            checksum_on = state_checksum(sim)
        with _sampled_sim(False, samplers, pulses, grid) as sim:
            for _ in range(sum(chunks[:half])):
                sim.simulate(1)
            settle(sim)
            for _ in range(sum(chunks[half:])):
                sim.simulate(1)
            off = [_series_bytes(ts) for ts in sim.series]
            assert state_checksum(sim) == checksum_on
        assert on == off

    def test_replay_engages_at_the_grid_fixed_point(self):
        with _sampled_sim(True, [(3, OpKind.POST)], [], grid=True) as sim:
            sim.diffusion_grids["field"].concentration[:] = 0.0
            sim.note_state_change()
            sim.simulate(60)
            snap = sim.obs.registry.snapshot()
            assert snap["events:sampler_replays"] == 19  # 20 samples, 1 run
            assert len(sim.series[0]) == 20


class Periodic(Behavior):
    """Acts on ticks divisible by ``period`` and announces the next one —
    as one scalar or as the same value broadcast to a full column."""

    name = "periodic"

    def __init__(self, period: int, as_array: bool):
        self.period = period
        self.as_array = as_array
        self.dispatches = []

    def run(self, sim, idx):
        self.dispatches.append((sim.scheduler.iteration, idx.tolist()))
        if sim.scheduler.iteration % self.period == 0:
            sim.rm.data["diameter"][idx] += 0.5

    def next_fire(self, sim, idx):
        now = sim.scheduler.iteration
        wake = float(-(-now // self.period) * self.period)
        return np.full(len(idx), wake) if self.as_array else wake


class TestScalarWakeEqualsArrayWake:
    @settings(max_examples=30)
    @given(period=st.integers(1, 12),
           chunks=st.lists(st.integers(1, 15), min_size=1, max_size=6))
    def test_identical_dispatch_and_deferrals(self, period, chunks):
        runs = []
        for as_array in (False, True):
            behavior = Periodic(period, as_array)
            param = Param(event_scheduling=True, agent_sort_frequency=0)
            with Simulation("wake", param, seed=1) as sim:
                sim.mechanics_enabled = False
                pos = np.random.default_rng(2).uniform(0.0, 50.0, (9, 3))
                idx = sim.add_cells(pos, diameters=4.0)
                sim.attach_behavior(idx[::2], behavior)
                returns = []
                for m in chunks:
                    left = m
                    while left:
                        returns.append(sim.advance(left))
                        left -= returns[-1]
                snap = sim.obs.registry.snapshot()
                runs.append((behavior.dispatches, returns,
                             snap["events:deferred_dispatches"],
                             snap["events:jumps"], state_checksum(sim)))
        assert runs[0] == runs[1]
