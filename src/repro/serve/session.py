"""Worker-side session hosting.

A serve-pool worker is one persistent forked process (the same warm-pool
shape as :mod:`repro.parallel.process_backend`, but hosting whole
*simulations* instead of kernel chunks).  Each worker owns the
:class:`~repro.core.simulation.Simulation` objects of the sessions
assigned to it; the host talks to it over one duplex pipe
(:class:`repro.parallel.workers.WorkerTeam`) with plain-tuple commands,
one outstanding command per worker at a time.

Sessions are always built ``execution_backend="serial"`` — a worker is
daemonic and may not fork grandchildren — with
``shared_storage=True``, so each session's whole agent state is **one named shared-memory block** the host (or a
diagnostic tool) can attach zero-copy by segment name
(:func:`repro.parallel.shm.attach_block`).  PR 2's equivalence guarantee
(shm-serial is bitwise-identical to private-serial) is what makes served
sessions reproduce direct runs exactly.

Worker command set (host → worker)::

    ("create",     sid, spec)                 build from the registry
    ("restore",    sid, spec, ckpt_path)      model shell + restore_checkpoint
    ("step",       sid, steps, want_checksum)
    ("step_chunk", sid, max_steps)            one scheduling quantum
    ("run_to",     sid, tick, want_checksum)
    ("snapshot",   sid, include_timeseries)
    ("checkpoint", sid, path, extra_meta)
    ("evict",      sid, path, extra_meta)     checkpoint, then close
    ("layout",     sid)                       shm segment name + offsets
    ("delete",     sid)
    ("stop",)

``restore`` replies carry the seconds spent building the model shell
(``build_s``) and loading the checkpoint into it (``load_s``); ``evict``
replies carry ``evict_s``.  A failed ``evict`` leaves the session hosted.

Replies (worker → host), one per command but ``stop``: the payload
dict, or ``(code, message)`` for a failed command.

``spec`` is the session's recipe ``{"model", "agents", "seed",
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
    """A session spec cannot be built (unknown model, bad param), or a
    worker command is not one the worker knows."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def build_session_sim(spec: dict, shell: bool = False):
    """Build a hostable Simulation from a session spec: the populated
    model, or with ``shell`` only its shell (no agents; what a restore
    fills).

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
        make = bench.shell if shell else bench.build
        sim = make(int(spec["agents"]), param=param, seed=int(spec["seed"]))
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
    spec."""

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
        """Fill the spec's model shell from a checkpoint this server wrote;
        returns the session and ``{build_s, load_s}``.

        The shell registers the spec's behaviors in the same order, and
        the checkpoint carries every column, the allocators and the RNG
        state: the continuation is bitwise-identical to never having been
        evicted, and the population code never runs."""
        from repro.core.checkpoint import restore_checkpoint

        start = time.perf_counter()
        sim = build_session_sim(spec, shell=True)
        built = time.perf_counter()
        try:
            restore_checkpoint(sim, ckpt_path)
        except BaseException:
            sim.close()
            raise
        return cls(sid, spec, sim), {"build_s": built - start,
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
        """Save a checkpoint to ``path``; returns status."""
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


#: Commands that call the :class:`HostedSession` method of the same name.
_SESSION_OPS = frozenset(
    ("step", "step_chunk", "run_to", "snapshot", "checkpoint", "layout"))


def serve_worker_main(worker_id: int, conn) -> None:
    """Worker loop: answer each command on ``conn`` until ``("stop",)``.

    Every command but ``stop`` gets exactly one reply.  Exceptions never
    kill the loop: setup failures map to their protocol error code,
    anything else to ``internal`` — the host turns both into
    ``SessionError`` frames.
    """
    from repro.parallel.shm import own_resource_tracker

    # A killed worker's sessions must not outlive it in /dev/shm.
    own_resource_tracker()
    sessions: dict[str, HostedSession] = {}
    while True:
        msg = conn.recv()
        op = msg[0]
        if op == "stop":
            for session in sessions.values():
                try:
                    session.close()
                except Exception:
                    pass
            return
        sid, args = msg[1], msg[2:]
        try:
            if op == "create":
                sessions[sid] = HostedSession.create(sid, *args)
                payload = sessions[sid].status()
            elif op == "restore":
                sessions[sid], phases = HostedSession.restore(sid, *args)
                payload = {**sessions[sid].status(), **phases}
            elif op == "evict":
                start = time.perf_counter()
                payload = sessions[sid].checkpoint(*args)
                sessions.pop(sid).close()
                payload["evict_s"] = time.perf_counter() - start
            elif op == "delete":
                if sid in sessions:
                    sessions.pop(sid).close()
                payload = {}
            elif op in _SESSION_OPS:
                payload = getattr(sessions[sid], op)(*args)
            else:
                raise SessionSetupError("invalid_request",
                                        f"unknown worker op {op!r}")
            reply = payload
        except SessionSetupError as exc:
            reply = (exc.code, str(exc))
        except KeyError:
            reply = ("unknown_session",
                     f"worker {worker_id} does not host {sid!r}")
        except Exception as exc:  # noqa: BLE001 - worker must survive
            reply = ("internal", f"{type(exc).__name__}: {exc}")
        conn.send(reply)

