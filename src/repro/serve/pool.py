"""Host-side session pool: warm workers, LRU eviction, one dispatcher.

:class:`SessionPool` is the single request dispatcher both transports
share — the in-process :class:`~repro.serve.client.SessionClient` calls
:meth:`SessionPool.handle` directly, and the asyncio socket server calls
the *same* method from a thread.  Every request in, one protocol reply
out, never an exception (errors become :class:`SessionError` frames).

Execution model
---------------
A warm pool of persistent daemon workers
(:func:`repro.serve.session.serve_worker_main`, started and reached
through :class:`repro.parallel.workers.WorkerTeam`) hosts the simulations;
each session has **worker affinity** — its Simulation object lives in
exactly one worker — so a session's commands are serialized by that
worker's command lock while different tenants proceed in parallel on
different workers.

Eviction
--------
At most ``max_resident`` sessions keep live simulation state.  Creating
or resuming past the cap checkpoints the least-recently-used idle
resident session to the spool directory (checkpoint format v4, with the
session's spec as ``extra_meta``) and frees its worker memory, in one
``evict`` round trip.  Touching an evicted session transparently resumes
it — the spec's model shell, filled from the checkpoint, with no
population code run — and the persisted RNG state and allocators make
the continuation bitwise-identical to never having been evicted, every
column included.
Sessions running a background advance are never eviction victims; if
every resident session is busy the cap is soft (the new session is
admitted anyway).

Admission (:meth:`SessionPool._admit`) overlaps the evictions with the
create or restore they make room for: the incoming session goes to a
worker hosting no victim when there is one, and every command is sent
before any reply is awaited.

A worker that dies (or hangs) is lost for good: its sessions answer
``internal``, naming it and its exit code, and never resume an older
spool, which would roll them back.  New sessions go to live workers.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.obs.core import Observability
from repro.parallel.workers import WorkerLost, WorkerTeam
from repro.serve import protocol as P
from repro.serve.session import serve_worker_main

__all__ = ["SessionPool", "StateView"]

#: The reply fields a session's cached status keeps.
_STATUS_KEYS = ("iteration", "time", "n_agents")

_SID_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-"
)


class _WorkerError(RuntimeError):
    """A worker command failed; carries the protocol code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass
class _Worker:
    #: Serializes commands on this worker (one outstanding at a time).
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: Session ids currently resident here.
    sessions: set = field(default_factory=set)


@dataclass
class _Session:
    sid: str
    spec: dict
    worker: int | None = None
    resident: bool = False
    deleted: bool = False
    advancing: bool = False
    last_used: float = 0.0
    ckpt_path: str = ""
    #: Last known ``{iteration, time, n_agents}`` (kept fresh on every
    #: worker reply so detached sessions can answer snapshots cheaply).
    status: dict = field(default_factory=dict)
    lock: threading.RLock = field(default_factory=threading.RLock)


class StateView:
    """Zero-copy, read-oriented view of a resident session's agent state.

    Attaches the session's consolidated shm block by name and exposes
    each column as a NumPy view truncated to the live row count.  Only
    meaningful in-process (the attaching process must share the kernel's
    shm namespace).  Call :meth:`close` when done; safe only while the
    session is idle (the pool serializes commands, not host-side peeks).
    """

    def __init__(self, segment: str, layout: dict, n: int):
        from repro.parallel.shm import attach_block

        self._shm = attach_block(segment)
        self.n = int(n)
        self.columns: dict[str, np.ndarray] = {}
        rows = int(layout["capacity"])
        for name, dt, shape in layout["columns"]:
            full = np.ndarray(
                (rows, *[int(s) for s in shape]),
                dtype=np.dtype(dt),
                buffer=self._shm.buf,
                offset=int(layout["offsets"][name]),
            )
            self.columns[name] = full[: self.n]

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]

    def close(self) -> None:
        """Drop the column views and detach the shm segment."""
        self.columns = {}
        try:
            self._shm.close()
        except BufferError:
            # A caller still holds a view; the segment is owned (and
            # eventually unlinked) by the worker, so nothing leaks.
            pass


class SessionPool:
    """Multi-tenant session host; see the module docstring."""

    def __init__(
        self,
        workers: int = 2,
        max_resident: int = 8,
        spool_dir=None,
        obs: Observability | None = None,
    ):
        if workers < 1:
            raise ValueError("need at least one worker")
        if max_resident < 1:
            raise ValueError("max_resident must be >= 1")
        self.max_resident = int(max_resident)
        self.obs = obs if obs is not None else Observability()
        reg = self.obs.registry
        self._active = reg.gauge("serve:sessions_active")
        self._created = reg.counter("serve:sessions_created")
        self._steps = reg.counter("serve:steps_total")
        #: Ticks consumed by background advance beyond one per RPC — the
        #: idle-session steps that event-scheduling horizon jumps made
        #: O(1) (see HostedSession.step_chunk).
        self._jumped_steps = reg.counter("serve:advance_jumped_steps")
        self._advance_chunks = reg.counter("serve:advance_chunks")
        self._evictions = reg.counter("serve:evictions")
        self._resumes = reg.counter("serve:resume_count")
        #: Worker seconds in ``evict`` (checkpoint + close) and in the
        #: two phases of a resume: the model shell and the restore.
        self._evict_s = reg.counter("serve:evict_seconds")
        self._resume_build_s = reg.counter("serve:resume_build_seconds")
        self._resume_load_s = reg.counter("serve:resume_load_seconds")
        #: Admissions whose create/restore ran on another worker than
        #: (and concurrently with) an eviction it made room for.
        self._overlapped = reg.counter("serve:overlapped_admissions")
        self._owns_spool = spool_dir is None
        self.spool_dir = Path(
            tempfile.mkdtemp(prefix="repro-serve-")
            if spool_dir is None else spool_dir
        )
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self._sessions: dict[str, _Session] = {}
        self._table_lock = threading.Lock()
        self._seq = 0
        self._closed = False
        # Workers forked after the model registry is imported start warm:
        # their first create builds a model, not the imports.
        import repro.simulations.registry  # noqa: F401

        self._team = WorkerTeam(serve_worker_main, int(workers),
                                "repro-serve-worker")
        self._workers = [_Worker() for _ in range(int(workers))]

    # -- worker RPC ----------------------------------------------------- #

    def _exchange(self, legs: list) -> list:
        """Send every ``(worker_id, msg)`` leg, then collect one reply per
        leg, in order: its payload dict, or a :class:`_WorkerError`
        (``internal`` for a lost worker).

        Nothing is awaited before everything is sent, so legs on
        different workers run concurrently; legs on one worker queue in
        its pipe in order.  Worker locks are taken in ascending worker
        id and held from send to reply — and a one-leg exchange holds one
        — so two exchanges cannot deadlock.
        """
        ids = sorted({w for w, _msg in legs})
        for w in ids:
            self._workers[w].lock.acquire()
        try:
            out = [None] * len(legs)
            for i, reply in self._team.exchange(legs):
                if isinstance(reply, WorkerLost):
                    reply = ("internal", str(reply))
                out[i] = (reply if isinstance(reply, dict)
                          else _WorkerError(*reply))
            return out
        finally:
            for w in reversed(ids):
                self._workers[w].lock.release()

    def _call(self, worker_id: int, msg: tuple) -> dict:
        (result,) = self._exchange([(worker_id, msg)])
        if isinstance(result, _WorkerError):
            raise result
        return result

    # -- session table -------------------------------------------------- #

    def _new_sid(self, name: str) -> str:
        with self._table_lock:
            if name:
                if not set(name) <= _SID_OK:
                    raise _WorkerError(
                        "invalid_request",
                        "session names may only contain [A-Za-z0-9_.-]",
                    )
                if name in self._sessions:
                    raise _WorkerError(
                        "invalid_request", f"session name {name!r} in use"
                    )
                return name
            self._seq += 1
            return f"s-{self._seq:06d}"

    def _get(self, sid: str) -> _Session:
        rec = self._sessions.get(sid)
        if rec is None or rec.deleted:
            raise _WorkerError("unknown_session", f"no session {sid!r}")
        return rec

    def _resident_count(self) -> int:
        return sum(
            1 for s in self._sessions.values()
            if s.resident and not s.deleted
        )

    def _pick_victims(self, incoming: str) -> list:
        """LRU idle residents, enough to leave room for one more, each
        returned with its ``lock`` held.  Busy (advancing or
        locked-by-another-request) sessions are skipped; the cap is soft
        when everyone is busy."""
        with self._table_lock:
            excess = self._resident_count() - self.max_resident + 1
            if excess <= 0:
                return []
            candidates = sorted(
                (
                    s for s in self._sessions.values()
                    if s.resident and not s.deleted
                    and not s.advancing and s.sid != incoming
                    and s.worker not in self._team.lost
                ),
                key=lambda s: s.last_used,
            )
        victims = []
        for rec in candidates:
            if len(victims) == excess:
                break
            if not rec.lock.acquire(blocking=False):
                continue
            if rec.resident and not rec.deleted and not rec.advancing:
                victims.append(rec)
            else:
                rec.lock.release()
        return victims

    def _place(self, victims: list) -> int:
        """The least-loaded live worker once ``victims`` are gone,
        preferring one that hosts no victim, so the evictions and the
        incoming command run side by side."""
        hosts = {v.worker for v in victims}
        gone = {v.sid for v in victims}
        return min(
            range(len(self._workers)),
            key=lambda w: (w in self._team.lost, w in hosts,
                           len(self._workers[w].sessions - gone)),
        )

    def _spool_path(self, rec: _Session) -> str:
        return str(self.spool_dir / f"{rec.sid}.npz")

    def _evicted(self, rec: _Session, path: str, payload: dict) -> None:
        """Record a successful ``evict`` reply: ``rec`` is detached."""
        rec.status = {k: payload[k] for k in _STATUS_KEYS}
        self._workers[rec.worker].sessions.discard(rec.sid)
        rec.ckpt_path = path
        rec.resident = False
        rec.worker = None
        self._evict_s.inc(payload["evict_s"])

    def _admit(self, rec: _Session, command: tuple) -> tuple:
        """Run ``rec``'s ``create`` / ``restore`` ``command`` with room
        made for it.  Caller holds ``rec.lock``.

        Pick the victims, place the incoming session, then send every
        victim's ``evict`` and the command before collecting any reply.
        The table ends as the workers left it: a victim whose ``evict``
        failed stays resident, and ``rec`` is resident iff its command
        succeeded.  Returns ``(payload, error)``: the command's reply
        (``None`` if it failed) and the typed error to answer with — the
        command's own if it failed, else the first failed victim's, else
        ``None``.
        """
        victims = self._pick_victims(rec.sid)
        try:
            worker = self._place(victims)
            paths = [self._spool_path(v) for v in victims]
            legs = [(v.worker, ("evict", v.sid, path, v.spec))
                    for v, path in zip(victims, paths)]
            replies = self._exchange(legs + [(worker, command)])
            failed = [r for r in replies if isinstance(r, _WorkerError)]
            overlapped = False
            for v, path, reply in zip(victims, paths, replies):
                if isinstance(reply, _WorkerError):
                    continue
                overlapped |= v.worker != worker
                self._evicted(v, path, reply)
                self._evictions.inc()
                self.obs.instant("serve:evict", session=v.sid)
        finally:
            for v in victims:
                v.lock.release()
        payload = replies[-1]
        if isinstance(payload, _WorkerError):
            return None, payload
        rec.status = {k: payload[k] for k in _STATUS_KEYS}
        rec.worker = worker
        rec.resident = True
        self._workers[worker].sessions.add(rec.sid)
        self._overlapped.inc(int(overlapped))
        return payload, (failed[0] if failed else None)

    def _ensure_resident(self, rec: _Session) -> bool:
        """Resume ``rec`` if evicted/detached; returns True on resume.
        Caller holds ``rec.lock``."""
        if rec.resident:
            lost = self._team.lost.get(rec.worker)
            if lost is not None:
                raise _WorkerError("internal", str(lost))
            return False
        if not rec.ckpt_path:
            raise _WorkerError(
                "internal", f"session {rec.sid!r} has no state to resume"
            )
        payload, error = self._admit(
            rec, ("restore", rec.sid, rec.spec, rec.ckpt_path))
        if payload is not None:
            self._resumes.inc()
            self._resume_build_s.inc(payload["build_s"])
            self._resume_load_s.inc(payload["load_s"])
            self.obs.instant("serve:resume", session=rec.sid)
        if error is not None:
            raise error
        return True

    def _touch(self, rec: _Session) -> None:
        rec.last_used = time.monotonic()

    # -- request handling ------------------------------------------------ #

    def handle(self, request):
        """One protocol request → one protocol reply (never raises)."""
        if self._closed:
            return P.SessionError("internal", "pool is shut down")
        sid = getattr(request, "session", "")
        handler = self._HANDLERS.get(type(request))
        if handler is None:
            return P.SessionError(
                "invalid_request",
                f"unhandled request {type(request).__name__}",
                session=sid,
            )
        with self.obs.scope(session=sid):
            with self.obs.span("serve:" + type(request).__name__):
                try:
                    return handler(self, request)
                except _WorkerError as exc:
                    return P.SessionError(exc.code, str(exc), session=sid)
                except Exception as exc:  # noqa: BLE001 - reply, don't die
                    return P.SessionError(
                        "internal",
                        f"{type(exc).__name__}: {exc}",
                        session=sid,
                    )

    def _handle_create(self, req: P.CreateSession):
        if req.agents < 1:
            return P.SessionError(
                "invalid_request", "agents must be >= 1", session=req.name
            )
        sid = self._new_sid(req.name)
        spec = {
            "model": req.model,
            "agents": int(req.agents),
            "seed": int(req.seed),
            "params": dict(req.params),
        }
        rec = _Session(sid=sid, spec=spec)
        with rec.lock:
            with self._table_lock:
                self._sessions[sid] = rec
            payload, error = self._admit(rec, ("create", sid, spec))
            if payload is None:
                with self._table_lock:
                    self._sessions.pop(sid, None)
                raise error
            self._touch(rec)
        self._created.inc()
        self._active.set(self._live_count())
        if error is not None:
            # The session exists (a victim failed to make room for it).
            raise error
        return P.SessionCreated(
            session=sid,
            model=req.model,
            agents=int(req.agents),
            seed=int(req.seed),
            iteration=int(payload["iteration"]),
            n_agents=int(payload["n_agents"]),
        )

    def _step_common(self, sid: str, op: tuple):
        rec = self._get(sid)
        with rec.lock:
            if rec.advancing:
                return P.SessionError(
                    "busy", f"session {sid!r} is advancing in the "
                    "background", session=sid,
                )
            resumed = self._ensure_resident(rec)
            payload = self._call(rec.worker, op)
            rec.status = {k: payload[k] for k in _STATUS_KEYS}
            self._touch(rec)
        self._steps.inc(int(payload["steps_done"]))
        return P.StepReply(
            session=sid,
            steps_done=int(payload["steps_done"]),
            iteration=int(payload["iteration"]),
            time=float(payload["time"]),
            n_agents=int(payload["n_agents"]),
            checksum=payload["checksum"],
            resumed=resumed,
        )

    def _handle_step(self, req: P.StepRequest):
        if req.steps < 0:
            return P.SessionError(
                "invalid_request", "steps must be >= 0", session=req.session
            )
        return self._step_common(
            req.session,
            ("step", req.session, int(req.steps), bool(req.checksum)),
        )

    def _handle_run_to(self, req: P.RunToRequest):
        return self._step_common(
            req.session,
            ("run_to", req.session, int(req.tick), bool(req.checksum)),
        )

    def _handle_advance(self, req: P.AdvanceRequest):
        if req.steps < 1:
            return P.SessionError(
                "invalid_request", "steps must be >= 1", session=req.session
            )
        rec = self._get(req.session)
        with rec.lock:
            if rec.advancing:
                return P.SessionError(
                    "busy", f"session {req.session!r} is already advancing",
                    session=req.session,
                )
            self._ensure_resident(rec)
            rec.advancing = True
            self._touch(rec)
        thread = threading.Thread(
            target=self._advance_loop,
            args=(rec, int(req.steps)),
            name=f"repro-serve-advance-{rec.sid}",
            daemon=True,
        )
        thread.start()
        return P.Ack(session=req.session,
                     detail=f"advancing {int(req.steps)} steps")

    def _advance_loop(self, rec: _Session, steps: int) -> None:
        # One scheduling quantum per lock acquisition: snapshots (and the
        # delete/detach paths, which clear ``advancing``) interleave
        # freely.  A quantum is a single tick — or one event-scheduling
        # horizon jump covering many ticks when the session is quiescent,
        # so idle tenants cost one RPC per jump instead of per tick.
        remaining = int(steps)
        try:
            while remaining > 0:
                with rec.lock:
                    if rec.deleted or not rec.advancing or not rec.resident:
                        break
                    payload = self._call(
                        rec.worker, ("step_chunk", rec.sid, remaining)
                    )
                    rec.status = {k: payload[k] for k in _STATUS_KEYS}
                    self._touch(rec)
                done = max(1, int(payload["steps_done"]))
                remaining -= done
                self._steps.inc(done)
                self._advance_chunks.inc()
                if done > 1:
                    self._jumped_steps.inc(done - 1)
        except _WorkerError:
            pass
        finally:
            rec.advancing = False

    def _handle_snapshot(self, req: P.SnapshotRequest):
        rec = self._get(req.session)
        with rec.lock:
            if rec.resident and not rec.advancing:
                payload = self._call(
                    rec.worker,
                    ("snapshot", rec.sid, bool(req.include_timeseries)),
                )
                rec.status = {k: payload[k] for k in _STATUS_KEYS}
                metrics = dict(payload["metrics"])
                series = payload["timeseries"]
            else:
                # Detached or mid-advance: answer from the cached status
                # without touching (or resuming) the simulation.
                metrics = {}
                series = {}
            metrics.update(
                {k: v for k, v in self.obs.registry.snapshot().items()
                 if k.startswith("serve:")}
            )
            return P.StateSnapshot(
                session=rec.sid,
                iteration=int(rec.status.get("iteration", 0)),
                time=float(rec.status.get("time", 0.0)),
                n_agents=int(rec.status.get("n_agents", 0)),
                resident=rec.resident,
                advancing=rec.advancing,
                metrics=metrics,
                timeseries=series,
            )

    def _checkpoint_common(self, sid: str, detach: bool):
        rec = self._get(sid)
        with rec.lock:
            if rec.advancing:
                return P.SessionError(
                    "busy", f"session {sid!r} is advancing; cannot "
                    "checkpoint mid-advance", session=sid,
                )
            self._ensure_resident(rec)
            path = self._spool_path(rec)
            if detach:
                payload = self._call(
                    rec.worker, ("evict", rec.sid, path, rec.spec))
                self._evicted(rec, path, payload)
            else:
                payload = self._call(
                    rec.worker, ("checkpoint", rec.sid, path, rec.spec))
                rec.status = {k: payload[k] for k in _STATUS_KEYS}
                rec.ckpt_path = path
            self._touch(rec)
        return P.CheckpointReply(
            session=sid, path=path, iteration=int(payload["iteration"])
        )

    def _handle_checkpoint(self, req: P.CheckpointRequest):
        return self._checkpoint_common(req.session, detach=False)

    def _handle_detach(self, req: P.DetachRequest):
        return self._checkpoint_common(req.session, detach=True)

    def _handle_resume(self, req: P.ResumeRequest):
        rec = self._get(req.session)
        with rec.lock:
            resumed = self._ensure_resident(rec)
            self._touch(rec)
            status = dict(rec.status)
        return P.StepReply(
            session=rec.sid,
            steps_done=0,
            iteration=int(status["iteration"]),
            time=float(status["time"]),
            n_agents=int(status["n_agents"]),
            resumed=resumed,
        )

    def _handle_delete(self, req: P.DeleteRequest):
        rec = self._get(req.session)
        with rec.lock:
            rec.advancing = False
            rec.deleted = True
            if rec.resident:
                if rec.worker not in self._team.lost:
                    self._call(rec.worker, ("delete", rec.sid))
                self._workers[rec.worker].sessions.discard(rec.sid)
                rec.resident = False
            if rec.ckpt_path:
                Path(rec.ckpt_path).unlink(missing_ok=True)
        with self._table_lock:
            self._sessions.pop(rec.sid, None)
        self._active.set(self._live_count())
        return P.Ack(session=rec.sid, detail="deleted")

    def _handle_list_sessions(self, req: P.ListSessionsRequest):
        with self._table_lock:
            rows = [
                {
                    "id": s.sid,
                    "model": s.spec["model"],
                    "agents": s.spec["agents"],
                    "iteration": int(s.status.get("iteration", 0)),
                    "resident": s.resident,
                    "advancing": s.advancing,
                }
                for s in self._sessions.values()
                if not s.deleted
            ]
        return P.SessionList(sessions=rows)

    def _handle_list_models(self, req: P.ListModelsRequest):
        from repro.simulations.registry import available_simulations

        return P.ModelList(models=available_simulations())

    def _handle_shutdown(self, req: P.ShutdownRequest):
        # The transport owning this pool performs the actual shutdown
        # after delivering the acknowledgment.
        return P.Ack(detail="shutting down")

    _HANDLERS = {
        P.CreateSession: _handle_create,
        P.StepRequest: _handle_step,
        P.RunToRequest: _handle_run_to,
        P.AdvanceRequest: _handle_advance,
        P.SnapshotRequest: _handle_snapshot,
        P.CheckpointRequest: _handle_checkpoint,
        P.DetachRequest: _handle_detach,
        P.ResumeRequest: _handle_resume,
        P.DeleteRequest: _handle_delete,
        P.ListSessionsRequest: _handle_list_sessions,
        P.ListModelsRequest: _handle_list_models,
        P.ShutdownRequest: _handle_shutdown,
    }

    def _live_count(self) -> int:
        return sum(1 for s in self._sessions.values() if not s.deleted)

    # -- host-side zero-copy peek ---------------------------------------- #

    def attach_state(self, sid: str) -> StateView:
        """Attach a resident session's consolidated shm block and return
        zero-copy column views (in-process pools only)."""
        rec = self._get(sid)
        with rec.lock:
            self._ensure_resident(rec)
            payload = self._call(rec.worker, ("layout", rec.sid))
        if not payload["segment"]:
            raise RuntimeError(f"session {sid!r} has no shm block")
        return StateView(payload["segment"], payload["layout"], payload["n"])

    # -- lifecycle ------------------------------------------------------- #

    def shutdown(self) -> None:
        """Stop advances, workers, and (if owned) remove the spool."""
        if self._closed:
            return
        self._closed = True
        with self._table_lock:
            for rec in self._sessions.values():
                rec.advancing = False
        self._team.close()
        self._workers = []
        if self._owns_spool:
            shutil.rmtree(self.spool_dir, ignore_errors=True)

    def __enter__(self) -> "SessionPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
