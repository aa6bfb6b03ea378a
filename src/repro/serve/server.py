"""Asyncio ndjson socket transport over a :class:`SessionPool`.

The server owns no session logic: each decoded frame goes to
``pool.handle`` on a worker thread (``asyncio.to_thread``), so slow
simulation steps of one tenant never block another tenant's frames —
concurrency across sessions comes from the pool's per-worker locks, the
event loop only shuttles bytes.

Error policy (fuzz-tested): a malformed frame — bad JSON, unknown type,
wrong fields, a *reply* type sent as a request — yields one
``session_error`` frame with code ``"protocol"`` on the same
connection, which stays open.  Only EOF or transport errors end a
connection; nothing a client sends can bring the server down.
"""

from __future__ import annotations

import asyncio
import threading

from repro.serve import protocol as P
from repro.serve.pool import SessionPool

__all__ = ["SessionServer", "ServerThread", "serve_forever"]

#: Longest accepted frame; protects the server from unbounded lines.
MAX_FRAME_BYTES = 4 * 1024 * 1024

#: Most bytes of an over-long frame read and dropped before the
#: connection closes.  Closing with the rest of the line unread makes the
#: kernel reset the connection, and the client's send fails before it
#: can read the ``frame too long`` reply.
DISCARD_BUDGET_BYTES = 4 * MAX_FRAME_BYTES


class SessionServer:
    """Bind/serve lifecycle around one pool (owned by the caller)."""

    def __init__(self, pool: SessionPool, host: str = "127.0.0.1",
                 port: int = 0):
        self.pool = pool
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._stop = asyncio.Event()
        self._conn_tasks: set = set()

    async def start(self) -> None:
        """Bind and start accepting; resolves the ephemeral port."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=MAX_FRAME_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_until_shutdown(self) -> None:
        """Run until a ``shutdown`` frame arrives (or :meth:`stop`)."""
        if self._server is None:
            await self.start()
        async with self._server:
            await self._stop.wait()
        # Connections blocked on readline would outlive the loop and be
        # destroyed mid-coroutine; cancel them while the loop still runs.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)

    def stop(self) -> None:
        """Signal :meth:`serve_until_shutdown` to wind down."""
        self._stop.set()

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as exc:
                    line = exc.partial  # EOF ends an unterminated last line
                except asyncio.LimitOverrunError:
                    # The line stays buffered: drop it, then close.
                    writer.write(P.encode(P.SessionError(
                        "protocol", "frame too long")))
                    await writer.drain()
                    await _discard_line(reader)
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                reply, is_shutdown = await self._dispatch(line)
                writer.write(P.encode(reply))
                await writer.drain()
                if is_shutdown:
                    self.stop()
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            pass
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _dispatch(self, line: bytes):
        try:
            request = P.decode(line)
        except P.ProtocolError as exc:
            return P.SessionError("protocol", str(exc)), False
        if type(request) not in P.REQUEST_TYPES.values():
            return (
                P.SessionError(
                    "protocol",
                    f"{type(request).__name__} is a reply type, not a "
                    "request",
                ),
                False,
            )
        reply = await asyncio.to_thread(self.pool.handle, request)
        return reply, isinstance(request, P.ShutdownRequest)


async def _discard_line(reader) -> None:
    """Read and drop the rest of the current line (through its newline or
    EOF), at most :data:`DISCARD_BUDGET_BYTES`."""
    left = DISCARD_BUDGET_BYTES
    while left > 0:
        chunk = await reader.read(min(left, 64 * 1024))
        if not chunk or b"\n" in chunk:
            return
        left -= len(chunk)


class ServerThread:
    """A SessionServer running on a background event-loop thread.

    Gives synchronous code (tests, the bench harness) a real socket
    endpoint: ``with ServerThread(pool) as srv: connect(srv.port)``.
    """

    def __init__(self, pool: SessionPool, host: str = "127.0.0.1",
                 port: int = 0):
        self.server = SessionServer(pool, host, port)
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def host(self) -> str:
        return self.server.host

    def start(self) -> "ServerThread":
        """Spawn the event-loop thread and wait until the port is bound."""
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("session server failed to start")
        return self

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)

        async def main():
            await self.server.start()
            self._ready.set()
            await self.server.serve_until_shutdown()

        try:
            self._loop.run_until_complete(main())
        finally:
            self._loop.close()

    def stop(self) -> None:
        """Stop the server and join the loop thread (pool untouched)."""
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self.server.stop)
        if self._thread is not None:
            self._thread.join(timeout=10)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def serve_forever(
    host: str = "127.0.0.1",
    port: int = 7464,
    workers: int = 2,
    max_resident: int = 8,
    spool_dir=None,
) -> None:
    """Blocking entry point of ``python -m repro serve``.

    Runs until a client sends ``shutdown`` or the process receives
    SIGINT; the pool (workers, shm segments, spool) is torn down on the
    way out either way.
    """
    pool = SessionPool(
        workers=workers, max_resident=max_resident, spool_dir=spool_dir
    )
    server = SessionServer(pool, host, port)

    async def main():
        await server.start()
        print(f"repro serve: listening on {server.host}:{server.port} "
              f"({workers} workers, max_resident={max_resident})",
              flush=True)
        await server.serve_until_shutdown()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    finally:
        pool.shutdown()
