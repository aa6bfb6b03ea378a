"""The worker link both process pools use (§4.1): each worker runs
``target(worker_id, conn, *args)`` on one duplex pipe and answers every
message but ``("stop",)`` with one reply.  Replies are awaited over the
pipes *and* the workers' sentinels, so a death is a :class:`WorkerLost`
at once, naming the worker and its exit code.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from multiprocessing.connection import wait

__all__ = ["CONTEXT", "HANG_TIMEOUT_S", "WorkerLost", "WorkerTeam"]

#: Seconds without a reply from any pending worker before they are
#: declared hung and terminated: the guard for a live, silent worker.
HANG_TIMEOUT_S = 300.0

#: Seconds :meth:`WorkerTeam.close` gives the workers to stop by themselves.
STOP_GRACE_S = 5.0

#: fork shares the parent's imported modules; spawn is the fallback.
CONTEXT = mp.get_context(
    "fork" if "fork" in mp.get_all_start_methods() else "spawn")


class WorkerLost(RuntimeError):
    """A worker died or hung; it answers every later message with this."""


class WorkerTeam:
    """``count`` started workers, their pipes, and which of them are lost."""

    def __init__(self, target, count: int, name: str, args: tuple = ()):
        if mp.current_process().daemon:
            # Process.start() would fail with an opaque AssertionError.
            raise RuntimeError(
                f"cannot start {name} workers inside a daemonic process; a "
                "serve-pool worker must run execution_backend='serial'")
        self.procs = []
        self._conns = []
        #: ``{worker_id: WorkerLost}`` of the dead and the hung.
        self.lost: dict[int, WorkerLost] = {}
        for w in range(count):
            conn, child = CONTEXT.Pipe()
            proc = CONTEXT.Process(target=target, args=(w, child, *args),
                                   daemon=True, name=f"{name}-{w}")
            proc.start()
            child.close()
            self.procs.append(proc)
            self._conns.append(conn)

    def _lose(self, w: int, what: str = "") -> None:
        if not what:
            self.procs[w].join(STOP_GRACE_S)  # its pipe closes as it exits
            what = f"died (exit code {self.procs[w].exitcode})"
        self.lost.setdefault(w, WorkerLost(f"worker {w} {what}"))

    def exchange(self, legs):
        """Send every ``(worker_id, msg)`` leg, then yield ``(i, reply)``
        for ``legs[i]`` as the replies arrive (in order on one worker); a
        lost worker's reply is its :class:`WorkerLost`.  One exchange at a
        time per worker: its caller serializes them."""
        pending: dict[int, list] = {}
        for i, (w, msg) in enumerate(legs):
            pending.setdefault(w, []).append(i)
            if w not in self.lost:
                try:
                    self._conns[w].send(msg)
                except OSError:
                    self._lose(w)
        while pending:
            for w in [w for w in pending if w in self.lost]:
                for i in pending.pop(w):
                    yield i, self.lost[w]
            ready = pending and wait(
                [self._conns[w] for w in pending]
                + [self.procs[w].sentinel for w in pending], HANG_TIMEOUT_S)
            for w, slots in list(pending.items()):
                if not ready:
                    self.procs[w].terminate()
                    self._lose(w, f"did not reply in {HANG_TIMEOUT_S:g} s")
                elif self._conns[w] in ready:  # a reply, or the pipe's EOF
                    try:
                        reply = self._conns[w].recv()
                    except (EOFError, OSError):
                        self._lose(w)
                        continue
                    yield slots.pop(0), reply
                    if not slots:
                        del pending[w]
                elif self.procs[w].sentinel in ready:
                    self._lose(w)

    def close(self) -> None:
        """Stop and reap every worker, then close the pipes (idempotent).

        Workers get ``("stop",)`` and :data:`STOP_GRACE_S` to exit; once
        one is lost the rest are killed at once, since a survivor may wait
        for good on a lock the lost one held (a ``StealQueues`` queue)."""
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except OSError:
                pass
        deadline = time.monotonic() + STOP_GRACE_S
        for proc in self.procs:
            if not self.lost:
                proc.join(max(0.0, deadline - time.monotonic()))
            proc.kill()  # a no-op once it has exited
            proc.join()
        for conn in self._conns:
            conn.close()
        self.procs, self._conns = [], []
