"""A serve worker boots warm.

The pool host preloads the worker's whole import closure before it forks
(:func:`repro.serve.session.preload_worker`), so a worker's first create,
tick, eviction and resume import nothing; the closure is checked in a
fresh interpreter, where the test host's own imports cannot hide a
missing module.  Each worker forks its own resource tracker at boot
instead of exec-ing a new interpreter for it, and the tracker still ends
with its worker.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.serve import protocol as P
from repro.serve.pool import SessionPool
from tests.test_c_backend import run_fresh

#: A worker's boot after the host's preload, then create -> step -> evict
#: (checkpoint + close) -> restore -> step -> delete in a forked child;
#: prints the modules the child imported on the way.
SCRIPT = """
import json, os, sys, tempfile
import repro.serve
from repro.parallel.shm import own_resource_tracker
from repro.serve.session import HostedSession, preload_worker

preload_worker()
spec = {"model": "oncology", "agents": 2000, "seed": 3, "params": {}}
r, w = os.pipe()
pid = os.fork()
if pid == 0:
    os.close(r)
    try:
        preload_worker()
        own_resource_tracker()
        with tempfile.TemporaryDirectory() as spool:
            path = os.path.join(spool, "s.npz")
            before = set(sys.modules)
            session = HostedSession.create("s", spec)
            session.step(3, False)
            session.checkpoint(path, spec)
            session.close()
            session, _ = HostedSession.restore("s", spec, path)
            session.step(3, False)
            session.close()
            out = {"gained": sorted(set(sys.modules) - before),
                   "iteration": int(session.sim.scheduler.iteration)}
    except BaseException as exc:
        out = {"error": repr(exc)}
    os.write(w, json.dumps(out).encode())
    os._exit(0)
os.close(w)
with os.fdopen(r) as child:
    got = child.read()
os.waitpid(pid, 0)
print(got)
"""


def test_preloaded_worker_imports_nothing_on_its_first_commands():
    got = run_fresh(SCRIPT)
    assert "error" not in got, got["error"]
    assert got["iteration"] == 6
    assert got["gained"] == []


linux_only = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                reason="reads the process table in /proc")


def _stat(pid) -> tuple | None:
    """``(state, parent pid)`` of ``pid``; None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            state, ppid = f.read().rsplit(")", 1)[1].split()[:2]
    except OSError:
        return None
    return state, int(ppid)


def _alive(pid) -> bool:
    stat = _stat(pid)
    return stat is not None and stat[0] != "Z"


def _live_children(pid: int) -> list:
    stats = {int(e): _stat(e) for e in os.listdir("/proc") if e.isdigit()}
    return [child for child, stat in stats.items()
            if stat is not None and stat[0] != "Z" and stat[1] == pid]


@linux_only
def test_each_worker_forks_its_own_tracker_and_it_ends_with_the_pool():
    pool = SessionPool(workers=2, max_resident=4)
    try:
        for name in ("a", "b"):
            reply = pool.handle(P.CreateSession(
                model="cell_proliferation", agents=40, seed=2, name=name))
            assert isinstance(reply, P.SessionCreated), reply
        assert {rec.worker for rec in pool._sessions.values()} == {0, 1}
        trackers = []
        for proc in pool._team.procs:
            (tracker,) = _live_children(proc.pid)
            with open(f"/proc/{tracker}/cmdline", "rb") as f:
                assert b"resource_tracker" not in f.read()
            trackers.append(tracker)
    finally:
        pool.shutdown()
    deadline = time.monotonic() + 2.0
    while any(map(_alive, trackers)) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not any(map(_alive, trackers))
