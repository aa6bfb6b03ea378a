"""Serve workers tick on the kernel team.

A serve worker forked from a host whose kernel library never opened a
parallel region runs its sessions on the loading process's OpenMP team
(libgomp's team survives ``fork`` only if it never started), and a
served session still ends where a one-thread run ends, across an
eviction and a resume.  The pool's preload loads the library in the host
without opening a region, so the rule holds after it.  The pool runs in
a fresh interpreter: in the test host, earlier tests have started the
team, so its workers would run one thread.
"""

from __future__ import annotations

import pytest

from repro.kernels import c_backend
from repro.kernels.dispatch import _probe
from repro.serve.session import build_session_sim
from repro.verify.snapshot import state_checksum
from tests.test_c_backend import run_fresh

pytestmark = pytest.mark.skipif(
    not _probe("c"), reason="the C kernel library cannot be built here")

SPEC = {"model": "oncology", "agents": 2000, "seed": 5, "params": {}}

#: Session ``a`` is evicted at tick 4 (``b`` takes the one slot) and
#: resumed for ticks 5-12 on the other worker; prints whether the pool
#: loaded the library in the host, the team, what each worker reports as
#: ``kernel:threads``, ``a``'s tick-12 checksum, and whether the host
#: ever opened a parallel region.
SCRIPT = """
import json
from repro.kernels import c_backend
from repro.serve import SessionClient

with SessionClient.in_process(workers=2, max_resident=1) as client:
    preloaded = c_backend._library.cache_info().currsize == 1
    lib = c_backend._library()
    a = client.create_session("oncology", agents=2000, seed=5)
    a.step(4)
    b = client.create_session("oncology", agents=2000, seed=6)
    b.step(1)
    sessions = client.pool._sessions
    threads = [b.snapshot().metrics["kernel:threads"]]
    workers = [sessions[b.session].worker]
    reply = a.step(8, checksum=True)
    threads.append(a.snapshot().metrics["kernel:threads"])
    workers.append(sessions[a.session].worker)
print(json.dumps({"preloaded": preloaded, "team": lib.team,
                  "threads": threads, "workers": workers,
                  "resumed": reply.resumed, "iteration": reply.iteration,
                  "checksum": reply.checksum,
                  "host_team_used": lib.dll.repro_team_used()}))
"""


def test_served_session_ticks_on_the_team_and_matches_one_thread():
    got = run_fresh(SCRIPT)
    assert got["preloaded"]
    if got["team"] < 2:
        pytest.skip("one CPU: there is no team to inherit")
    assert got["host_team_used"] == 0
    assert got["threads"] == [got["team"]] * 2
    assert sorted(got["workers"]) == [0, 1]  # both workers reported
    assert got["resumed"] and got["iteration"] == 12

    c_backend._set_threads(1)
    try:
        with build_session_sim(SPEC) as sim:
            sim.simulate(12)
            want = state_checksum(sim)
    finally:
        c_backend._set_threads(None)
    assert got["checksum"] == want
