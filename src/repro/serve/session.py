"""Worker-side session hosting.

A serve-pool worker is one persistent forked process (the same warm-pool
shape as :mod:`repro.parallel.process_backend`, but hosting whole
*simulations* instead of kernel chunks).  Each worker owns the
:class:`~repro.core.simulation.Simulation` objects of the sessions
assigned to it; the host talks to it over an inbox/reply queue pair with
plain-tuple commands, one outstanding command per worker at a time.

Sessions are always built ``execution_backend="serial"`` — a worker is
daemonic and may not fork grandchildren — with
``shared_storage=True``, so each session's whole agent state is **one named shared-memory block** the host (or a
diagnostic tool) can attach zero-copy by segment name
(:func:`repro.parallel.shm.attach_block`).  PR 2's equivalence guarantee
(shm-serial is bitwise-identical to private-serial) is what makes served
sessions reproduce direct runs exactly.

Worker command set (host → inbox)::

    ("create",     sid, spec)                 build from the registry
    ("restore",    sid, spec, ckpt_path)      rebuild + restore_checkpoint
    ("step",       sid, steps, want_checksum)
    ("step_chunk", sid, max_steps)            one scheduling quantum
    ("run_to",     sid, tick, want_checksum)
    ("snapshot",   sid, include_timeseries)
    ("checkpoint", sid, path, extra_meta)
    ("evict",      sid, path, extra_meta)     checkpoint, then close
    ("layout",     sid)                       shm segment name + offsets
    ("delete",     sid)
    ("stop",)

``restore`` replies carry the seconds spent rebuilding the model
(``build_s``) and loading the checkpoint (``load_s``); ``evict`` replies
carry ``evict_s``.  A failed ``evict`` leaves the session hosted.

Replies (worker → its reply queue)::

    ("ok",  sid, payload_dict)
    ("err", sid, code, message)

``spec`` is the session's rebuild recipe ``{"model", "agents", "seed",
"params"}``; it is also stored as checkpoint ``extra_meta`` so *any*
worker — or a restarted server — can resume an evicted session.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.timeseries import TimeSeriesOperation

__all__ = [
    "SessionSetupError",
    "build_session_sim",
    "HostedSession",
    "serve_worker_main",
]

#: Param fields a session spec may not override (the hosting model
#: forces them; ``execution_backend`` must stay serial inside a
#: daemonic worker).
_FORCED_PARAMS = ("shared_storage",)


class SessionSetupError(ValueError):
    """A session spec cannot be built (unknown model, bad param)."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def build_session_sim(spec: dict):
    """Build a hostable Simulation from a session spec.

    Applies client param overrides on top of the model's
    ``default_param()``, then forces the hosting invariants: serial
    execution (workers are daemonic) and the consolidated shm arena (one
    attachable block per session).
    """
    from repro.core.param import ParamError
    from repro.simulations.registry import get_simulation

    try:
        bench = get_simulation(str(spec["model"]))
    except ValueError as exc:
        raise SessionSetupError("unknown_model", str(exc)) from None
    overrides = dict(spec.get("params") or {})
    backend = overrides.pop("execution_backend", "serial")
    if backend != "serial":
        raise SessionSetupError(
            "unsupported_param",
            f"execution_backend={backend!r} is not hostable: sessions run "
            "inside daemonic pool workers, which cannot fork; only "
            "'serial' is supported",
        )
    for name in _FORCED_PARAMS:
        overrides.pop(name, None)
    try:
        param = bench.default_param().with_(
            **overrides,
            execution_backend="serial",
            shared_storage=True,
        )
        sim = bench.build(
            int(spec["agents"]), param=param, seed=int(spec["seed"])
        )
    except (ParamError, TypeError, ValueError) as exc:
        raise SessionSetupError("unsupported_param", str(exc)) from None
    return sim


def _jsonable(value):
    """Metric/timeseries values → JSON-ready (arrays become lists)."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    return value


class HostedSession:
    """One session living inside a worker: the Simulation plus its
    rebuild spec."""

    def __init__(self, sid: str, spec: dict, sim):
        self.sid = sid
        self.spec = spec
        self.sim = sim

    @classmethod
    def create(cls, sid: str, spec: dict) -> "HostedSession":
        return cls(sid, spec, build_session_sim(spec))

    @classmethod
    def restore(cls, sid: str, spec: dict, ckpt_path: str
                ) -> tuple["HostedSession", dict]:
        """Rebuild from the spec, then overwrite state from the
        checkpoint; returns the session and ``{build_s, load_s}``.
        Building with the *same seed* re-attaches behaviors in the same
        registration order, and the checkpoint's RNG state rewinds the
        generator — the continuation is bitwise-identical to never having
        been evicted (up to ``addr``, which restarts with the allocator)."""
        from repro.core.checkpoint import restore_checkpoint

        start = time.perf_counter()
        session = cls.create(sid, spec)
        built = time.perf_counter()
        restore_checkpoint(session.sim, ckpt_path)
        return session, {"build_s": built - start,
                         "load_s": time.perf_counter() - built}

    # -- operations ----------------------------------------------------- #

    def status(self) -> dict:
        """Current ``{iteration, time, n_agents}``."""
        sim = self.sim
        return {
            "iteration": int(sim.scheduler.iteration),
            "time": float(sim.time),
            "n_agents": int(sim.rm.n),
        }

    def step(self, steps: int, want_checksum: bool) -> dict:
        """Advance and return status (+ state checksum on request)."""
        self.sim.simulate(int(steps))
        out = self.status()
        out["steps_done"] = int(steps)
        out["checksum"] = self.checksum() if want_checksum else ""
        return out

    def step_chunk(self, max_steps: int) -> dict:
        """Advance by one scheduling quantum (≤ ``max_steps`` ticks).

        One normal tick — or, when the session's parameters enable
        ``event_scheduling`` and the scene is quiescent, one horizon jump
        covering up to ``max_steps`` ticks at O(1) cost.  The pool's
        background advance loops on this so idle sessions cost one RPC
        per jump instead of one per tick.
        """
        done = self.sim.advance(int(max_steps))
        out = self.status()
        out["steps_done"] = int(done)
        out["checksum"] = ""
        return out

    def run_to(self, tick: int, want_checksum: bool) -> dict:
        """Step forward until ``tick`` (never backwards)."""
        steps = max(0, int(tick) - int(self.sim.scheduler.iteration))
        return self.step(steps, want_checksum)

    def checksum(self) -> str:
        """Full observable-state digest (verify.snapshot)."""
        from repro.verify.snapshot import state_checksum

        return state_checksum(self.sim)

    def snapshot(self, include_timeseries: bool) -> dict:
        """Status + engine metrics (+ collected time series)."""
        out = self.status()
        out["metrics"] = {
            k: _jsonable(v)
            for k, v in self.sim.obs.registry.snapshot().items()
        }
        series: dict = {}
        if include_timeseries:
            for op in self.sim.operations:
                if isinstance(op, TimeSeriesOperation):
                    for name, col in op.as_dict().items():
                        series[name] = _jsonable(col)
        out["timeseries"] = series
        return out

    def checkpoint(self, path: str, extra_meta: dict | None) -> dict:
        """Save a format-v3 checkpoint to ``path``; returns status."""
        from repro.core.checkpoint import save_checkpoint

        save_checkpoint(self.sim, path, extra_meta=extra_meta)
        out = self.status()
        out["path"] = str(path)
        return out

    def layout(self) -> dict:
        """Shm coordinates of the session's consolidated state block."""
        from repro.parallel.shm import SOA_BLOCK

        rm = self.sim.rm
        block = rm.arena._blocks.get(SOA_BLOCK)
        return {
            "segment": block.shm.name if block is not None else "",
            "layout": rm.soa.layout_meta(),
            "n": int(rm.n),
        }

    def close(self) -> None:
        """Close the hosted simulation (frees its shm segments)."""
        self.sim.close()


def serve_worker_main(worker_id: int, inbox, replies) -> None:
    """Worker loop: execute commands until ``("stop",)``.

    Every command gets exactly one reply.  Exceptions never kill the
    loop: setup failures map to their protocol error code, anything else
    to ``internal`` — the host turns both into ``SessionError`` frames.
    """
    sessions: dict[str, HostedSession] = {}
    while True:
        msg = inbox.get()
        op = msg[0]
        if op == "stop":
            for session in sessions.values():
                try:
                    session.close()
                except Exception:
                    pass
            sessions.clear()
            replies.put(("ok", "", {"worker": worker_id}))
            return
        sid = msg[1]
        try:
            if op == "create":
                sessions[sid] = HostedSession.create(sid, msg[2])
                replies.put(("ok", sid, sessions[sid].status()))
            elif op == "restore":
                sessions[sid], phases = HostedSession.restore(
                    sid, msg[2], msg[3])
                replies.put(("ok", sid, {**sessions[sid].status(), **phases}))
            elif op == "step":
                replies.put(("ok", sid, sessions[sid].step(msg[2], msg[3])))
            elif op == "step_chunk":
                replies.put(("ok", sid, sessions[sid].step_chunk(msg[2])))
            elif op == "run_to":
                replies.put(("ok", sid, sessions[sid].run_to(msg[2], msg[3])))
            elif op == "snapshot":
                replies.put(("ok", sid, sessions[sid].snapshot(msg[2])))
            elif op == "checkpoint":
                replies.put(
                    ("ok", sid, sessions[sid].checkpoint(msg[2], msg[3]))
                )
            elif op == "evict":
                start = time.perf_counter()
                out = sessions[sid].checkpoint(msg[2], msg[3])
                sessions.pop(sid).close()
                out["evict_s"] = time.perf_counter() - start
                replies.put(("ok", sid, out))
            elif op == "layout":
                replies.put(("ok", sid, sessions[sid].layout()))
            elif op == "delete":
                session = sessions.pop(sid, None)
                if session is not None:
                    session.close()
                replies.put(("ok", sid, {}))
            else:
                replies.put(("err", sid, "invalid_request",
                             f"unknown worker op {op!r}"))
        except SessionSetupError as exc:
            replies.put(("err", sid, exc.code, str(exc)))
        except KeyError:
            replies.put(("err", sid, "unknown_session",
                         f"worker {worker_id} does not host {sid!r}"))
        except Exception as exc:  # noqa: BLE001 - worker must survive
            replies.put(("err", sid, "internal",
                         f"{type(exc).__name__}: {exc}"))
