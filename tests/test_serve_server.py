"""Socket transport end-to-end: real frames over TCP, plus fuzzing.

The server must answer every malformed frame with a ``session_error``
(code ``"protocol"``) on the *same* connection — never crash, never
disconnect — and well-formed traffic after garbage must still work.
"""

from __future__ import annotations

import json
import random
import socket

import pytest

from repro.serve import protocol as P
from repro.serve.client import ServeError, SessionClient
from repro.serve.pool import SessionPool
from repro.serve.server import ServerThread

MODEL = "cell_proliferation"


@pytest.fixture(scope="module")
def server():
    with SessionPool(workers=2, max_resident=4) as pool:
        with ServerThread(pool) as srv:
            yield srv


@pytest.fixture()
def client(server):
    c = SessionClient.connect(port=server.port, timeout=60.0)
    yield c
    c.close()


def test_socket_end_to_end(client):
    assert MODEL in client.models()

    handle = client.create_session(MODEL, agents=32, seed=4)
    r = handle.step(3, checksum=True)
    assert r.steps_done == 3 and r.checksum

    snap = handle.snapshot()
    assert snap.iteration == 3
    assert snap.metrics.get("serve:steps_total", 0) >= 3

    assert any(s["id"] == handle.session for s in client.sessions())

    ck = handle.detach()
    assert ck.iteration == 3
    r = handle.step(1, checksum=True)  # transparent resume over the wire
    assert r.resumed and r.iteration == 4

    handle.delete()
    with pytest.raises(ServeError) as exc:
        handle.step()
    assert exc.value.code == "unknown_session"


def test_server_errors_carry_codes(client):
    with pytest.raises(ServeError) as exc:
        client.create_session("definitely_not_a_model", agents=8)
    assert exc.value.code == "unknown_model"


def _raw_exchange(port, frames):
    """Send pre-encoded frames on one connection; return reply dicts."""
    replies = []
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        reader = sock.makefile("rb")
        for frame in frames:
            sock.sendall(frame)
            replies.append(json.loads(reader.readline()))
    return replies


def test_malformed_frames_get_protocol_errors(server):
    frames = [
        b"this is not json\n",
        b"[1, 2, 3]\n",
        b'{"type": "frobnicate", "proto_version": 1}\n',
        b'{"type": "step", "proto_version": 99, "session": "s"}\n',
        b'{"type": "step", "session": "s"}\n',                    # no version
        b'{"type": "step", "proto_version": 1}\n',                # no session
        b'{"type": "step", "proto_version": 1, "session": 5}\n',  # bad type
        b'{"type": "step", "proto_version": 1, "session": "s", "x": 1}\n',
        # A *reply* tag arriving as a request is a protocol violation.
        b'{"type": "ack", "proto_version": 1}\n',
    ]
    replies = _raw_exchange(server.port, frames)
    assert len(replies) == len(frames)
    for reply in replies:
        assert reply["type"] == "session_error"
        assert reply["code"] == "protocol"


def test_connection_survives_garbage_then_serves(server):
    """Garbage must not poison the connection: a valid request after N
    junk frames still gets its real reply."""
    frames = [b"}{\n", b"null\n",
              P.encode(P.ListModelsRequest())]
    replies = _raw_exchange(server.port, frames)
    assert replies[0]["code"] == replies[1]["code"] == "protocol"
    assert replies[2]["type"] == "model_list"
    assert MODEL in replies[2]["models"]


def test_fuzz_random_frames_never_crash(server):
    """Seeded fuzz: random mutations of valid frames plus pure noise.
    Every frame gets exactly one reply; the server stays up."""
    rng = random.Random(0xC0FFEE)
    seeds = [P.to_wire(m) for m in (
        P.CreateSession(model=MODEL, agents=8),
        P.StepRequest(session="nope"),
        P.SnapshotRequest(session="nope"),
        P.ListSessionsRequest(),
    )]

    def mutate(obj):
        obj = dict(obj)
        roll = rng.random()
        if roll < 0.25:
            obj[rng.choice(list("abcxyz"))] = rng.randint(-5, 5)
        elif roll < 0.5 and obj:
            obj.pop(rng.choice(sorted(obj)), None)
        elif roll < 0.75:
            key = rng.choice(sorted(obj)) if obj else "type"
            obj[key] = rng.choice([None, 3.14, [], {}, True, "zzz"])
        else:
            obj["proto_version"] = rng.randint(-1, 3)
        return (json.dumps(obj) + "\n").encode()

    frames = []
    for _ in range(60):
        if rng.random() < 0.2:
            junk = bytes(rng.randrange(32, 127) for _ in range(rng.randrange(1, 40)))
            frames.append(junk + b"\n")
        else:
            frames.append(mutate(rng.choice(seeds)))

    replies = _raw_exchange(server.port, frames)
    assert len(replies) == len(frames)
    for reply in replies:
        assert reply["type"] in P.REPLY_TYPES
    # ... and the server still answers a clean client afterwards.
    with SessionClient.connect(port=server.port, timeout=60.0) as c:
        assert MODEL in c.models()


def test_oversized_frame_is_rejected(server):
    big = b'{"pad": "' + b"x" * (5 * 1024 * 1024) + b'"}\n'
    with socket.create_connection(("127.0.0.1", server.port), timeout=60) as sock:
        reader = sock.makefile("rb")
        sock.sendall(big)
        reply = json.loads(reader.readline())
    assert reply["type"] == "session_error"
    assert reply["code"] == "protocol"


def test_client_reset_mid_frame_leaves_the_server_serving(server, client):
    """A client that sends half a frame and then resets the connection
    (``SO_LINGER`` 0) costs nothing: the next client is answered at once
    and the pool's sessions and workers are as they were."""
    import struct
    import time

    pool = server.server.pool
    sessions = client.sessions()
    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=10) as sock:
        sock.sendall(b'{"type": "list_models", "proto_ver')
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0))
    start = time.monotonic()
    with SessionClient.connect(port=server.port, timeout=2.0) as other:
        assert MODEL in other.models()
    assert time.monotonic() - start < 2.0
    assert client.sessions() == sessions
    assert not pool._team.lost
    assert all(p.is_alive() for p in pool._team.procs)


def test_in_process_and_socket_speak_the_same_protocol():
    """Same request sequence through both transports → same replies
    (modulo session ids), because both funnel into SessionPool.handle."""
    def run(client):
        h = client.create_session(MODEL, agents=24, seed=9)
        r = h.step(2, checksum=True)
        h.delete()
        return r.iteration, r.n_agents, r.checksum

    with SessionClient.in_process(workers=1, max_resident=2) as c:
        in_proc = run(c)
    with SessionPool(workers=1, max_resident=2) as pool:
        with ServerThread(pool) as srv:
            with SessionClient.connect(port=srv.port, timeout=60.0) as c:
                over_socket = run(c)
    assert in_proc == over_socket
