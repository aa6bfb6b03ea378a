"""A serve worker that dies or hangs: its sessions answer ``internal`` at
once, naming the worker, and the pool keeps serving on the survivors.

A session on a lost worker never silently resumes an older spool (that
would roll its state back); ``delete`` still works on it, and new
sessions are placed on live workers only.  Nothing respawns the worker.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.parallel import workers
from repro.serve import protocol as P
from repro.serve.pool import SessionPool
from repro.serve.session import HostedSession

MODEL = "cell_proliferation"


def _shm_segments():
    return set(os.listdir("/dev/shm"))


def _create(pool, name):
    reply = pool.handle(P.CreateSession(model=MODEL, agents=40, seed=2,
                                        name=name))
    assert isinstance(reply, P.SessionCreated), reply
    return pool._sessions[name].worker


def _answers_internal(pool, sid, worker, what):
    """Every request on ``sid`` answers ``internal`` naming ``worker``."""
    requests = [
        P.StepRequest(session=sid, steps=1),
        P.RunToRequest(session=sid, tick=9),
        P.AdvanceRequest(session=sid, steps=3),
        P.SnapshotRequest(session=sid),
        P.CheckpointRequest(session=sid),
        P.DetachRequest(session=sid),
        P.ResumeRequest(session=sid),
    ]
    for request in requests:
        start = time.monotonic()
        reply = pool.handle(request)
        assert time.monotonic() - start < 2.0, request
        assert isinstance(reply, P.SessionError), (request, reply)
        assert reply.code == "internal"
        assert f"worker {worker} {what}" in reply.message


def _no_segment_left(before, within=5.0):
    deadline = time.monotonic() + within
    while _shm_segments() - before and time.monotonic() < deadline:
        time.sleep(0.05)
    return _shm_segments() <= before


def test_killed_worker_fails_its_sessions_and_spares_the_rest():
    before = _shm_segments()
    pool = SessionPool(workers=2, max_resident=4)
    try:
        victim = _create(pool, "a")
        ok = pool.handle(P.StepRequest(session="a", steps=2))
        assert isinstance(ok, P.StepReply)
        os.kill(pool._team.procs[victim].pid, signal.SIGKILL)

        _answers_internal(pool, "a", victim, "died (exit code -9)")

        # New sessions land on the survivor and step.
        assert _create(pool, "b") != victim
        assert _create(pool, "c") != victim
        step = pool.handle(P.StepRequest(session="b", steps=3))
        assert isinstance(step, P.StepReply) and step.iteration == 3
        # The lost session can still be deleted.
        assert isinstance(pool.handle(P.DeleteRequest(session="a")), P.Ack)
        listed = pool.handle(P.ListSessionsRequest())
        assert sorted(s["id"] for s in listed.sessions) == ["b", "c"]
    finally:
        start = time.monotonic()
        pool.shutdown()
        assert time.monotonic() - start < 2.0
    # The dead worker's own resource tracker unlinks what it left.
    assert _no_segment_left(before)


@pytest.mark.skipif(workers.CONTEXT.get_start_method() != "fork",
                    reason="the patched step reaches the worker by fork")
def test_worker_killed_mid_command(monkeypatch):
    monkeypatch.setattr(HostedSession, "step", lambda self, steps, want:
                        os.kill(os.getpid(), signal.SIGKILL))
    pool = SessionPool(workers=2, max_resident=4)
    try:
        victim = _create(pool, "a")
        start = time.monotonic()
        reply = pool.handle(P.StepRequest(session="a", steps=1))
        assert time.monotonic() - start < 2.0
        assert reply.code == "internal"
        assert f"worker {victim} died (exit code -9)" in reply.message
        assert _create(pool, "b") != victim
    finally:
        start = time.monotonic()
        pool.shutdown()
        assert time.monotonic() - start < 2.0


@pytest.mark.skipif(workers.CONTEXT.get_start_method() != "fork",
                    reason="the slow step reaches the worker by fork")
def test_hung_worker_hits_the_guard(monkeypatch):
    monkeypatch.setattr(workers, "HANG_TIMEOUT_S", 0.5)
    monkeypatch.setattr(HostedSession, "step",
                        lambda self, steps, want: time.sleep(60))
    pool = SessionPool(workers=1, max_resident=2)
    try:
        _create(pool, "a")
        procs = list(pool._team.procs)
        start = time.monotonic()
        reply = pool.handle(P.StepRequest(session="a", steps=1))
        assert time.monotonic() - start < 0.5 + 2.0
        assert reply.code == "internal"
        assert "worker 0 did not reply in 0.5 s" in reply.message
        _answers_internal(pool, "a", 0, "did not reply")
    finally:
        start = time.monotonic()
        pool.shutdown()
        assert time.monotonic() - start < 2.0
    assert all(p.exitcode is not None for p in procs)
