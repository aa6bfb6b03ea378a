"""Round-trip and rejection tests for the serve wire schema.

Every message type in :mod:`repro.serve.protocol` must survive
``encode → decode`` bitwise (same dataclass back out), both fully
populated and with defaults omitted; every malformed-frame class must
raise :class:`ProtocolError`.  Exhaustiveness is enforced: a message
type added to the registry without a round-trip case here fails the
coverage test.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.serve import protocol as P

# One fully-populated representative per wire tag.  The coverage test
# below asserts this dict stays in lockstep with MESSAGE_TYPES.
FULL_MESSAGES = {
    "create_session": P.CreateSession(
        model="cell_proliferation", agents=200, seed=7,
        params={"growth_rate": 1.5, "neighbor_cache": True},
        name="exp-a",
    ),
    "step": P.StepRequest(session="s-000001", steps=5, checksum=True),
    "run_to": P.RunToRequest(session="s-000001", tick=42, checksum=True),
    "advance": P.AdvanceRequest(session="s-000001", steps=100),
    "snapshot": P.SnapshotRequest(session="s-000001", include_timeseries=True),
    "checkpoint": P.CheckpointRequest(session="s-000001"),
    "detach": P.DetachRequest(session="s-000001"),
    "resume": P.ResumeRequest(session="s-000001"),
    "delete": P.DeleteRequest(session="s-000001"),
    "list_sessions": P.ListSessionsRequest(),
    "list_models": P.ListModelsRequest(),
    "shutdown": P.ShutdownRequest(),
    "session_created": P.SessionCreated(
        session="s-000001", model="oncology", agents=300, seed=1,
        iteration=0, n_agents=300,
    ),
    "step_reply": P.StepReply(
        session="s-000001", steps_done=5, iteration=5, time=0.05,
        n_agents=321, checksum="deadbeef", resumed=True,
    ),
    "state_snapshot": P.StateSnapshot(
        session="s-000001", iteration=9, time=0.09, n_agents=512,
        resident=True, advancing=False,
        metrics={"serve:steps_total": 9},
        timeseries={"population": [300, 321]},
    ),
    "checkpoint_reply": P.CheckpointReply(
        session="s-000001", path="/tmp/spool/s-000001.npz", iteration=9,
    ),
    "ack": P.Ack(session="s-000001", detail="deleted"),
    "session_list": P.SessionList(
        sessions=[{"id": "s-000001", "model": "oncology", "agents": 300,
                   "iteration": 9, "resident": True, "advancing": False}],
    ),
    "model_list": P.ModelList(models=["cell_clustering", "oncology"]),
    "session_error": P.SessionError(
        code="unknown_session", message="no session 'x'", session="x",
    ),
}

# Minimal construction per tag (required fields only) — exercises the
# defaulted-field path of from_wire.
MINIMAL_MESSAGES = {
    "create_session": P.CreateSession(model="oncology", agents=10),
    "step": P.StepRequest(session="s"),
    "run_to": P.RunToRequest(session="s", tick=3),
    "advance": P.AdvanceRequest(session="s", steps=1),
    "snapshot": P.SnapshotRequest(session="s"),
    "checkpoint": P.CheckpointRequest(session="s"),
    "detach": P.DetachRequest(session="s"),
    "resume": P.ResumeRequest(session="s"),
    "delete": P.DeleteRequest(session="s"),
    "list_sessions": P.ListSessionsRequest(),
    "list_models": P.ListModelsRequest(),
    "shutdown": P.ShutdownRequest(),
    "session_created": P.SessionCreated(
        session="s", model="m", agents=1, seed=0, iteration=0, n_agents=1),
    "step_reply": P.StepReply(
        session="s", steps_done=0, iteration=0, time=0.0, n_agents=1),
    "state_snapshot": P.StateSnapshot(
        session="s", iteration=0, time=0.0, n_agents=1,
        resident=False, advancing=False),
    "checkpoint_reply": P.CheckpointReply(session="s", path="p", iteration=0),
    "ack": P.Ack(),
    "session_list": P.SessionList(),
    "model_list": P.ModelList(),
    "session_error": P.SessionError(code="busy", message="m"),
}


def test_every_message_type_has_a_round_trip_case():
    assert set(FULL_MESSAGES) == set(P.MESSAGE_TYPES)
    assert set(MINIMAL_MESSAGES) == set(P.MESSAGE_TYPES)


@pytest.mark.parametrize("tag", sorted(P.MESSAGE_TYPES))
def test_full_round_trip(tag):
    msg = FULL_MESSAGES[tag]
    frame = P.encode(msg)
    assert frame.endswith(b"\n") and frame.count(b"\n") == 1
    back = P.decode(frame)
    assert back == msg
    assert type(back) is type(msg)


@pytest.mark.parametrize("tag", sorted(P.MESSAGE_TYPES))
def test_minimal_round_trip(tag):
    msg = MINIMAL_MESSAGES[tag]
    assert P.decode(P.encode(msg)) == msg


@pytest.mark.parametrize("tag", sorted(P.MESSAGE_TYPES))
def test_defaults_may_be_omitted_on_the_wire(tag):
    """A frame carrying only the required fields must parse: senders on
    older minor revisions may omit later-added defaulted fields."""
    msg = MINIMAL_MESSAGES[tag]
    wire = P.to_wire(msg)
    cls = type(msg)
    for f in dataclasses.fields(cls):
        has_default = (f.default is not dataclasses.MISSING
                       or f.default_factory is not dataclasses.MISSING)
        if has_default:
            wire.pop(f.name, None)
    assert P.from_wire(wire) == msg


def test_envelope_fields():
    wire = P.to_wire(P.StepRequest(session="s"))
    assert wire["type"] == "step"
    assert wire["proto_version"] == P.PROTO_VERSION


def test_request_and_reply_registries_are_disjoint():
    assert not set(P.REQUEST_TYPES) & set(P.REPLY_TYPES)
    assert P.MESSAGE_TYPES == {**P.REQUEST_TYPES, **P.REPLY_TYPES}


# --------------------------------------------------------------------- #
# Rejections
# --------------------------------------------------------------------- #

def _wire(tag="step", **overrides):
    base = {"type": tag, "proto_version": P.PROTO_VERSION, "session": "s"}
    base.update(overrides)
    return base


@pytest.mark.parametrize("frame", [
    b"not json at all\n",
    b"{truncated\n",
    b"\xff\xfe garbage bytes\n",
])
def test_bad_json_frames(frame):
    with pytest.raises(P.ProtocolError, match="bad JSON"):
        P.decode(frame)


@pytest.mark.parametrize("obj", [[1, 2], "string", 42, None, True])
def test_non_object_frames(obj):
    with pytest.raises(P.ProtocolError, match="JSON object"):
        P.from_wire(obj)


def test_unknown_type_tag():
    with pytest.raises(P.ProtocolError, match="unknown message type"):
        P.from_wire(_wire(tag="frobnicate"))


@pytest.mark.parametrize("tag", [[], {}, 1, None, True])
def test_non_string_type_tag(tag):
    # Regression: an unhashable tag (e.g. a list) must not TypeError out
    # of the registry lookup — it is just another unknown type.
    with pytest.raises(P.ProtocolError, match="unknown message type"):
        P.from_wire(_wire(tag=tag))


@pytest.mark.parametrize("version", [None, 0, 2, "1"])
def test_version_mismatch(version):
    obj = _wire()
    if version is None:
        del obj["proto_version"]
    else:
        obj["proto_version"] = version
    with pytest.raises(P.ProtocolError, match="proto_version"):
        P.from_wire(obj)


def test_missing_required_field():
    obj = _wire(tag="create_session")
    del obj["session"]
    obj["model"] = "oncology"  # 'agents' still missing
    with pytest.raises(P.ProtocolError, match="missing required field"):
        P.from_wire(obj)


def test_unexpected_field():
    with pytest.raises(P.ProtocolError, match="unexpected fields"):
        P.from_wire(_wire(surprise=1))


@pytest.mark.parametrize("field_name,value", [
    ("session", 42),          # int where str expected
    ("steps", "five"),        # str where int expected
    ("steps", 1.5),           # float where int expected
    ("steps", True),          # JSON bool is not a JSON int
    ("checksum", "yes"),      # str where bool expected
])
def test_type_mismatches(field_name, value):
    with pytest.raises(P.ProtocolError, match="expected"):
        P.from_wire(_wire(**{field_name: value}))


def test_float_fields_accept_ints():
    obj = {"type": "step_reply", "proto_version": P.PROTO_VERSION,
           "session": "s", "steps_done": 1, "iteration": 1, "time": 0,
           "n_agents": 5}
    msg = P.from_wire(obj)
    assert msg.time == 0


def test_to_wire_rejects_foreign_objects():
    with pytest.raises(P.ProtocolError, match="not a protocol message"):
        P.to_wire(object())


def test_messages_are_frozen():
    msg = P.StepRequest(session="s")
    with pytest.raises(dataclasses.FrozenInstanceError):
        msg.steps = 3


def test_decode_accepts_str_and_bytes():
    msg = P.Ack(detail="hi")
    line = P.encode(msg)
    assert P.decode(line) == P.decode(line.decode()) == msg


def test_wire_dicts_are_pure_json():
    for msg in FULL_MESSAGES.values():
        json.dumps(P.to_wire(msg))  # must not need custom encoders
