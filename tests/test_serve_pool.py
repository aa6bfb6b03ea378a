"""SessionPool behavior: lifecycle, eviction/resume, errors, state views.

One module-scoped pool (forked workers are the expensive part) hosts the
happy-path tests; eviction tests fork their own tiny pool with
``max_resident=1`` so the LRU math is deterministic.
"""

from __future__ import annotations

import pytest

from repro.serve import protocol as P
from repro.serve.pool import SessionPool

MODEL = "cell_proliferation"
AGENTS = 64


@pytest.fixture(scope="module")
def pool():
    with SessionPool(workers=2, max_resident=8) as p:
        yield p


def _create(pool, name="", agents=AGENTS, seed=3, **params):
    reply = pool.handle(P.CreateSession(
        model=MODEL, agents=agents, seed=seed, params=params, name=name))
    assert isinstance(reply, P.SessionCreated), reply
    return reply.session


def test_create_step_snapshot_delete(pool):
    sid = _create(pool)
    reply = pool.handle(P.StepRequest(session=sid, steps=3, checksum=True))
    assert isinstance(reply, P.StepReply)
    assert reply.steps_done == 3 and reply.iteration == 3
    assert reply.checksum and not reply.resumed

    snap = pool.handle(P.SnapshotRequest(session=sid))
    assert isinstance(snap, P.StateSnapshot)
    assert snap.iteration == 3 and snap.resident and not snap.advancing
    assert snap.metrics.get("serve:steps_total", 0) >= 3
    assert "serve:sessions_active" in snap.metrics

    assert isinstance(pool.handle(P.DeleteRequest(session=sid)), P.Ack)
    err = pool.handle(P.StepRequest(session=sid))
    assert isinstance(err, P.SessionError) and err.code == "unknown_session"


def test_same_seed_same_checksum(pool):
    a = _create(pool, seed=11)
    b = _create(pool, seed=11)
    ra = pool.handle(P.StepRequest(session=a, steps=4, checksum=True))
    rb = pool.handle(P.StepRequest(session=b, steps=4, checksum=True))
    assert ra.checksum == rb.checksum
    for sid in (a, b):
        pool.handle(P.DeleteRequest(session=sid))


def test_run_to_is_idempotent(pool):
    sid = _create(pool)
    r1 = pool.handle(P.RunToRequest(session=sid, tick=5))
    assert r1.iteration == 5 and r1.steps_done == 5
    r2 = pool.handle(P.RunToRequest(session=sid, tick=5))
    assert r2.iteration == 5 and r2.steps_done == 0
    r3 = pool.handle(P.RunToRequest(session=sid, tick=2))  # never backwards
    assert r3.iteration == 5 and r3.steps_done == 0
    pool.handle(P.DeleteRequest(session=sid))


def test_named_sessions(pool):
    sid = _create(pool, name="my-exp.1")
    assert sid == "my-exp.1"
    dup = pool.handle(P.CreateSession(model=MODEL, agents=8, name="my-exp.1"))
    assert isinstance(dup, P.SessionError) and dup.code == "invalid_request"
    bad = pool.handle(P.CreateSession(model=MODEL, agents=8, name="no spaces"))
    assert isinstance(bad, P.SessionError) and bad.code == "invalid_request"
    pool.handle(P.DeleteRequest(session=sid))


def test_unknown_model_and_bad_params(pool):
    err = pool.handle(P.CreateSession(model="no_such_model", agents=8))
    assert isinstance(err, P.SessionError) and err.code == "unknown_model"

    err = pool.handle(P.CreateSession(
        model=MODEL, agents=8, params={"no_such_param": 1}))
    assert isinstance(err, P.SessionError) and err.code == "unsupported_param"

    # A removed on/off field says so instead of suggesting a lookalike.
    err = pool.handle(P.CreateSession(
        model=MODEL, agents=8, params={"soa_arena": False}))
    assert isinstance(err, P.SessionError) and err.code == "unsupported_param"
    assert "removed" in err.message and "did you mean" not in err.message

    # Daemonic pool workers cannot fork: process backend is rejected at
    # create time, not discovered as a crash mid-step.
    err = pool.handle(P.CreateSession(
        model=MODEL, agents=8, params={"execution_backend": "process"}))
    assert isinstance(err, P.SessionError) and err.code == "unsupported_param"

    err = pool.handle(P.CreateSession(model=MODEL, agents=0))
    assert isinstance(err, P.SessionError) and err.code == "invalid_request"


def test_list_sessions_and_models(pool):
    sid = _create(pool)
    listing = pool.handle(P.ListSessionsRequest())
    assert isinstance(listing, P.SessionList)
    row = next(r for r in listing.sessions if r["id"] == sid)
    assert row["model"] == MODEL and row["resident"]

    models = pool.handle(P.ListModelsRequest())
    assert isinstance(models, P.ModelList)
    assert MODEL in models.models
    pool.handle(P.DeleteRequest(session=sid))


def test_busy_session_rejects_stepping(pool):
    sid = _create(pool)
    rec = pool._sessions[sid]
    rec.advancing = True  # pin: as if a background advance held the session
    try:
        err = pool.handle(P.StepRequest(session=sid))
        assert isinstance(err, P.SessionError) and err.code == "busy"
        err = pool.handle(P.AdvanceRequest(session=sid, steps=5))
        assert isinstance(err, P.SessionError) and err.code == "busy"
        err = pool.handle(P.CheckpointRequest(session=sid))
        assert isinstance(err, P.SessionError) and err.code == "busy"
        # Snapshots still answer, from the cached status.
        snap = pool.handle(P.SnapshotRequest(session=sid))
        assert isinstance(snap, P.StateSnapshot) and snap.advancing
    finally:
        rec.advancing = False
    pool.handle(P.DeleteRequest(session=sid))


def test_advance_completes_in_background(pool):
    import time

    sid = _create(pool)
    ack = pool.handle(P.AdvanceRequest(session=sid, steps=4))
    assert isinstance(ack, P.Ack)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        snap = pool.handle(P.SnapshotRequest(session=sid))
        if not snap.advancing and snap.iteration >= 4:
            break
        time.sleep(0.02)
    assert snap.iteration == 4 and not snap.advancing
    pool.handle(P.DeleteRequest(session=sid))


def test_detach_and_explicit_resume(pool):
    sid = _create(pool)
    pool.handle(P.StepRequest(session=sid, steps=2))
    ck = pool.handle(P.DetachRequest(session=sid))
    assert isinstance(ck, P.CheckpointReply) and ck.iteration == 2

    snap = pool.handle(P.SnapshotRequest(session=sid))
    assert not snap.resident and snap.iteration == 2

    res = pool.handle(P.ResumeRequest(session=sid))
    assert isinstance(res, P.StepReply)
    assert res.resumed and res.steps_done == 0 and res.iteration == 2
    # Second resume is a no-op.
    res2 = pool.handle(P.ResumeRequest(session=sid))
    assert not res2.resumed
    pool.handle(P.DeleteRequest(session=sid))


def test_attach_state_zero_copy_view(pool):
    import numpy as np

    reply = pool.handle(P.CreateSession(model=MODEL, agents=40, seed=3))
    sid = reply.session
    view = pool.attach_state(sid)
    try:
        assert view.n == reply.n_agents > 0
        assert "position" in view.columns
        assert view["position"].shape == (reply.n_agents, 3)
        assert np.isfinite(view["position"]).all()
    finally:
        view.close()
    pool.handle(P.DeleteRequest(session=sid))


def test_lru_eviction_and_transparent_resume():
    with SessionPool(workers=1, max_resident=1) as p:
        a = _create(p, name="a", agents=24)
        p.handle(P.StepRequest(session=a, steps=1))
        b = _create(p, name="b", agents=24)  # evicts a (LRU, cap 1)

        reg = p.obs.registry.snapshot()
        assert reg["serve:evictions"] == 1
        assert not p._sessions[a].resident
        assert p._sessions[b].resident

        # Touching a resumes it transparently — and evicts b.
        r = p.handle(P.StepRequest(session=a, steps=1))
        assert isinstance(r, P.StepReply) and r.resumed and r.iteration == 2
        reg = p.obs.registry.snapshot()
        assert reg["serve:evictions"] == 2
        assert reg["serve:resume_count"] == 1
        assert not p._sessions[b].resident

        # Deleting an evicted session removes its spooled checkpoint.
        ckpt = p._sessions[b].ckpt_path
        assert ckpt
        p.handle(P.DeleteRequest(session=b))
        from pathlib import Path

        assert not Path(ckpt).exists()


def test_a_stale_state_view_never_sees_another_session():
    """A view kept open across its session's eviction still maps that
    session's old segment: the next session built on the same worker
    gets a segment of its own, so the view neither shows nor writes it."""
    with SessionPool(workers=1, max_resident=1) as p:
        a = _create(p, name="a", agents=24, seed=3)
        view = p.attach_state(a)
        try:
            before = {k: v.copy() for k, v in view.columns.items()}
            b = _create(p, name="b", agents=24, seed=4)  # evicts a
            p.handle(P.StepRequest(session=b, steps=2))
            for name, col in view.columns.items():
                assert col.tobytes() == before[name].tobytes(), name
        finally:
            view.close()


def _record_exchanges(pool, monkeypatch):
    """Every ``_exchange`` the pool makes, as its list of
    ``(worker, message)`` legs."""
    sent = []
    real = pool._exchange

    def recording(legs):
        sent.append(list(legs))
        return real(legs)

    monkeypatch.setattr(pool, "_exchange", recording)
    return sent


def _direct_checksum(spec, steps):
    """The checksum a never-served simulation of ``spec`` reaches."""
    from repro.serve.session import build_session_sim
    from repro.verify.snapshot import state_checksum

    with build_session_sim(spec) as sim:
        sim.simulate(steps)
        return state_checksum(sim)


def _evicted_continuation(workers, monkeypatch):
    """The headline guarantee: evict → restore → step produces the same
    checksum as never having been evicted (one seed; the full matrix
    lives in verify.replay.serve_equivalence).  The resume is one
    admission: the decoy's ``evict`` and the victim's ``restore`` are
    sent together — queued in order in the one pipe of a one-worker
    pool, and on two different workers otherwise."""
    with SessionPool(workers=1, max_resident=8) as p:
        ref = _create(p, agents=32, seed=5)
        direct = p.handle(P.StepRequest(session=ref, steps=6, checksum=True))

    with SessionPool(workers=workers, max_resident=1) as p:
        sent = _record_exchanges(p, monkeypatch)
        sid = _create(p, name="victim", agents=32, seed=5)
        p.handle(P.StepRequest(session=sid, steps=3))
        _create(p, name="decoy", agents=8, seed=0)  # evicts victim
        assert not p._sessions[sid].resident
        resumed = p.handle(P.StepRequest(session=sid, steps=3, checksum=True))
        assert resumed.resumed
        assert resumed.checksum == direct.checksum

        (admission,) = [legs for legs in sent
                        if any(msg[0] == "restore" for _w, msg in legs)]
        (evict_worker, evict), (restore_worker, restore) = admission
        assert evict[:2] == ("evict", "decoy")
        assert restore[:2] == ("restore", "victim")
        reg = p.obs.registry.snapshot()
        if workers == 1:
            assert evict_worker == restore_worker == 0
            assert reg["serve:overlapped_admissions"] == 0
        else:
            assert evict_worker != restore_worker
            assert p._sessions[sid].worker == restore_worker
            # The decoy's creation overlapped the victim's eviction too.
            assert reg["serve:overlapped_admissions"] == 2
        assert reg["serve:evictions"] == 2
        assert reg["serve:evict_seconds"] > 0
        assert reg["serve:resume_build_seconds"] > 0
        assert reg["serve:resume_load_seconds"] > 0


def test_evicted_continuation_matches_uninterrupted_run(monkeypatch):
    _evicted_continuation(1, monkeypatch)


def test_evicted_continuation_on_two_workers_overlaps(monkeypatch):
    _evicted_continuation(2, monkeypatch)


def test_detach_is_one_round_trip(monkeypatch):
    with SessionPool(workers=1, max_resident=2) as p:
        sid = _create(p, agents=16)
        p.handle(P.StepRequest(session=sid, steps=2))
        sent = _record_exchanges(p, monkeypatch)
        ck = p.handle(P.DetachRequest(session=sid))
        assert isinstance(ck, P.CheckpointReply) and ck.iteration == 2
        assert [[(w, msg[0]) for w, msg in legs] for legs in sent] == [
            [(0, "evict")]]
        assert not p._sessions[sid].resident
        assert p._workers[0].sessions == set()
        assert p.obs.registry.snapshot()["serve:evict_seconds"] > 0


def test_failed_eviction_keeps_the_victim_resident(monkeypatch):
    """A victim whose checkpoint fails stays resident on its worker, the
    request that needed the room gets the typed error, and nothing is
    lost: later requests succeed and every session still resumes onto
    its uninterrupted trajectory."""
    from repro.serve.session import HostedSession

    real = HostedSession.checkpoint
    failed = []  # per process: the worker's copy records its one failure

    def flaky(self, path, extra_meta):
        if self.sid == "a" and not failed:
            failed.append(self.sid)
            raise RuntimeError("spool disk full")
        return real(self, path, extra_meta)

    # Patched before the pool forks, so the worker inherits it.
    monkeypatch.setattr(HostedSession, "checkpoint", flaky)
    spec = {"model": MODEL, "agents": 24, "seed": 5, "params": {}}
    with SessionPool(workers=1, max_resident=1) as p:
        _create(p, name="a", agents=24, seed=5)
        p.handle(P.StepRequest(session="a", steps=1))
        err = p.handle(P.CreateSession(
            model=MODEL, agents=24, seed=6, name="b"))
        assert isinstance(err, P.SessionError) and err.code == "internal"
        assert "spool disk full" in err.message
        assert p._sessions["a"].resident and p._sessions["b"].resident
        assert p._workers[0].sessions == {"a", "b"}
        assert p.obs.registry.snapshot()["serve:evictions"] == 0

        r = p.handle(P.StepRequest(session="a", steps=1))
        assert isinstance(r, P.StepReply) and not r.resumed
        assert r.iteration == 2
        r = p.handle(P.StepRequest(session="b", steps=1))
        assert isinstance(r, P.StepReply) and r.iteration == 1

        _create(p, name="c", agents=8)  # evicts both a and b
        assert not p._sessions["a"].resident
        assert not p._sessions["b"].resident
        r = p.handle(P.StepRequest(session="a", steps=1, checksum=True))
        assert r.resumed and r.iteration == 3
        assert r.checksum == _direct_checksum(spec, 3)
        r = p.handle(P.StepRequest(session="b", steps=1))
        assert r.resumed and r.iteration == 2


def test_concurrent_admissions_keep_the_table_consistent():
    """More workers than cores, more tenants than slots, a short switch
    interval: every tenant's steps all land, and the table ends naming
    exactly the sessions each worker hosts (a lost update or a session
    the table misplaced fails a step with ``unknown_session``)."""
    import sys
    import threading

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with SessionPool(workers=3, max_resident=2) as p:
            sids = [_create(p, name=f"t{k}", agents=16, seed=k)
                    for k in range(5)]
            bad = []

            def drive(sid):
                for _ in range(6):
                    r = p.handle(P.StepRequest(session=sid, steps=1))
                    if not isinstance(r, P.StepReply):
                        bad.append(r)

            threads = [threading.Thread(target=drive, args=(sid,))
                       for sid in sids]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert bad == []
            assert all(p._sessions[sid].status["iteration"] == 6
                       for sid in sids)
            resident = {sid for sid in sids if p._sessions[sid].resident}
            for w, worker in enumerate(p._workers):
                assert worker.sessions == {
                    sid for sid in resident if p._sessions[sid].worker == w}
            reg = p.obs.registry.snapshot()
            assert reg["serve:evictions"] >= 1 and reg["serve:resume_count"] >= 1
            for sid in sids:  # every session still answers, resuming if needed
                r = p.handle(P.StepRequest(session=sid, steps=1))
                assert isinstance(r, P.StepReply) and r.iteration == 7
    finally:
        sys.setswitchinterval(interval)


def test_pool_shutdown_is_idempotent_and_final():
    p = SessionPool(workers=1, max_resident=2)
    sid = _create(p, agents=8)
    spool = p.spool_dir
    p.shutdown()
    p.shutdown()  # no-op
    assert not spool.exists()
    err = p.handle(P.StepRequest(session=sid))
    assert isinstance(err, P.SessionError) and err.code == "internal"


def test_workers_fork_with_the_registry_imported_and_no_networkx():
    """A fresh worker's first create builds a model, not the imports: the
    pool imports the model registry before it forks, and that import
    leaves networkx (~0.15 s) to the graph helpers that use it."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys\n"
            "from repro.serve.pool import SessionPool\n"
            "assert 'repro.simulations.registry' not in sys.modules\n"
            "pool = SessionPool(workers=1, max_resident=1)\n"
            "try:\n"
            "    assert 'repro.simulations.registry' in sys.modules\n"
            "    assert 'networkx' not in sys.modules\n"
            "finally:\n"
            "    pool.shutdown()\n")
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=120)
