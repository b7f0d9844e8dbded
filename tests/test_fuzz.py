"""Fuzz tests at every trust boundary: wire and batch frames, the control
JSON, aggregate blobs, ``--config`` files and ``submit`` report files.

Each input is random bytes, or a golden input with one to three bytes set,
inserted or deleted.  A boundary must return, or raise its typed error: a
TransportError subclass from the wire, ValueError from a blob, and
SystemExit(2) from the command line.  Anything else fails the test.
"""

import contextlib
import io
import json
import os
import socket
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ldphist import cli
from ldphist.freq_oracle import AggregateState
from ldphist.transport import (
    MAX_REQUEST_PAYLOAD,
    MSG_ACK,
    MSG_BATCH,
    MSG_CONTROL,
    MSG_FO_REPORT,
    MSG_ONE_BIT,
    MSG_PP_REPORT,
    MSG_RESULT,
    AggregationServer,
    OneBitPayload,
    ReportPayload,
    SessionConfig,
    TransportError,
    TruncatedFrameError,
    _REPORT_BITS,
    _Connection,
    _close_reply,
    _decode_batch,
    _dispatch,
    _SessionState,
    decode_frame,
    encode_frame,
)

SESSIONS = {
    "fo": SessionConfig(protocol="fo", d=8, n=10, eps=1.0, beta=0.2, seed=3),
    "hist": SessionConfig(protocol="hist", d=16, n=200, eps=2.0, beta=0.5, seed=42, k_override=8),
    "one-bit": SessionConfig(protocol="hist", d=16, n=400, eps=0.69, beta=0.5, seed=3,
                             k_override=8, one_bit=True),
}
STATUS_CODES = {"bounds", "duplicate", "session-closed"}


def _report(msg_type, user, t=0, k=0, position=0, sign=1) -> bytes:
    return encode_frame(msg_type, ReportPayload(user, t, k, position, sign).pack())


def _bit(user, bit) -> bytes:
    return encode_frame(MSG_ONE_BIT, OneBitPayload(user, bit).pack())


def _control(action) -> bytes:
    return encode_frame(MSG_CONTROL, json.dumps({"action": action}).encode("utf-8"))


GOLDEN_FRAMES = [
    _report(MSG_FO_REPORT, 7, position=3),  # the golden frames of test_transport
    _bit(7, 1),
    _report(MSG_PP_REPORT, 5, t=1, k=6, position=9, sign=-1),
    encode_frame(MSG_BATCH, b"".join(_report(MSG_PP_REPORT, u, t=u % 3, k=u, position=u) for u in range(3))),
    encode_frame(MSG_BATCH, b"".join(_bit(u, u % 2) for u in range(4))),
    _control("stats"),
]


@st.composite
def _mutated(draw, golden):
    """golden with one to three bytes set, inserted or deleted."""
    data = bytearray(golden)
    for _ in range(draw(st.integers(1, 3))):
        i, byte = draw(st.integers(0, len(data))), draw(st.integers(0, 255))
        op = draw(st.sampled_from(["set", "insert", "delete"]))
        if op == "insert" or not data:
            data.insert(i, byte)
        elif op == "set":
            data[min(i, len(data) - 1)] = byte
        else:
            del data[min(i, len(data) - 1)]
    return bytes(data)


def _fuzzed(goldens):
    return st.one_of(st.binary(max_size=256), st.sampled_from(goldens).flatmap(_mutated))


def _serve(state, msg_type, payload):
    """The body of the ack the service sends for one frame, None for the
    bad-frame ack of a TransportError, or the CSV of a close (whose reply
    _close_reply makes, as the service's close worker does)."""
    try:
        reply = _dispatch(state, msg_type, payload) or _close_reply(state)
    except TransportError:
        return None
    reply_type, body, used = decode_frame(reply)
    assert used == len(reply)
    if reply_type == MSG_RESULT:
        return body.decode("utf-8")
    assert reply_type == MSG_ACK
    ack = json.loads(body)
    assert ack.get("code", "bounds") in STATUS_CODES | {"empty-session", "bad-frame"}
    assert all(code in STATUS_CODES for _, code, _ in ack.get("errors", ()))
    return ack


def _check_session(state, records: int):
    """Stats count every record once, and a close returns a CSV or None."""
    stats = state.stats()
    assert stats["absorbed"] + sum(stats["rejected"][code] for code in STATUS_CODES) == records
    result = state.close()
    assert result is None or result.startswith("item,estimated_frequency\n")


@given(buf=_fuzzed(GOLDEN_FRAMES))
@settings(max_examples=200, deadline=None)
def test_wire_frames(buf):
    # decode_frame, then what the service does with the frame's payload.
    try:
        msg_type, payload, used = decode_frame(buf)
    except TransportError:
        return
    assert used <= len(buf)
    if msg_type == MSG_CONTROL:
        return  # test_control_json
    for cfg in SESSIONS.values():
        state = _SessionState(cfg)
        ack = _serve(state, msg_type, payload)
        _check_session(state, 0 if ack is None else len(_decode_batch(payload)) if msg_type == MSG_BATCH else 1)


@given(payload=_fuzzed([frame[10:] for frame in GOLDEN_FRAMES]))
@settings(max_examples=200, deadline=None)
def test_report_and_batch_payloads(payload):
    for parse in (ReportPayload.unpack, _decode_batch):
        try:
            parse(payload)
        except TransportError:
            pass


def _field(bits):
    top = (1 << bits) - 1
    return st.one_of(st.integers(0, 3), st.sampled_from([top, top - 1, 1 << (bits - 1)]),
                     st.integers(0, top))


REPORT_FIELDS = st.tuples(*(_field(bits) for bits in _REPORT_BITS.values()),
                          st.sampled_from([-1, 1]), st.sampled_from([MSG_FO_REPORT, MSG_PP_REPORT]))


@given(name=st.sampled_from(sorted(SESSIONS)), one_bit=st.booleans(),
       reports=st.lists(REPORT_FIELDS, min_size=1, max_size=12))
@settings(max_examples=80, deadline=None)
def test_extreme_field_batches(name, one_bit, reports):
    # Well-formed batches whose fields reach their wire widths: every record
    # gets a status, and the session still answers stats and close.
    if one_bit:
        frames = [_bit(user, sign == 1) for user, _, _, _, sign, _ in reports]
    else:
        frames = [_report(kind, user, t, k, position, sign) for user, t, k, position, sign, kind in reports]
    state = _SessionState(SESSIONS[name])
    ack = _serve(state, MSG_BATCH, b"".join(frames))
    assert ack is not None and len(ack["errors"]) <= len(frames)
    _check_session(state, len(frames))


GOLDEN_CONTROL = [b'{"action": "stats"}', b'{"action": "close"}',
                  b'{"action": "stats", "x": [1, 2.5e300, null, true, "\\u00e9"]}']


@given(payload=_fuzzed(GOLDEN_CONTROL))
@example(payload=b"[" * 30_000 + b"]" * 30_000)
@example(payload=b'{"a":' * 900 + b"1" + b"}" * 900)
@settings(max_examples=200, deadline=None)
def test_control_json(payload):
    # An oracle session with no reports: a close is an "empty-session" ack.
    assert len(payload) <= MAX_REQUEST_PAYLOAD
    _serve(_SessionState(SESSIONS["fo"]), MSG_CONTROL, payload)


def _blob(m, eps, positions, signs) -> bytes:
    agg = AggregateState(m=m, eps=eps)
    agg.absorb_batch(np.array(positions, dtype=np.int64), np.array(signs, dtype=np.int64))
    return agg.to_bytes()


GOLDEN_BLOBS = [_blob(4, 0.5, [0, 3, 3], [1, -1, 1]), _blob(1, 2.0, [], []), _blob(2, 1e-3, [1], [-1])]


@given(blob=_fuzzed(GOLDEN_BLOBS))
@settings(max_examples=200, deadline=None)
def test_aggregate_blobs(blob):
    try:
        agg = AggregateState.from_bytes(blob)
    except ValueError:
        return
    assert agg.to_bytes() == blob  # an accepted blob is one to_bytes writes


def _cli(argv, **stubs) -> int:
    """main(argv)'s return value, with the named cli functions stubbed; a
    SystemExit must carry status 2."""
    with mock.patch.multiple(cli, **stubs):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            assert exc.code == 2
            return 2


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


GOLDEN_CONFIG = (b"d = 16\nn = 400\neps = 1.5  # nats\nbeta = 0.2\ntrials = 2\n"
                 b"dataset = planted\nplanted = 1:0.3,2:0.2\none-bit = 0\n")


@given(text=_fuzzed([GOLDEN_CONFIG]))
@example(text=b"d = 16.5\n")  # a value its option refuses
@example(text=b"n = 400\n\xff\n")  # not UTF-8
@settings(max_examples=100, deadline=None)
def test_config_files(workdir, text):
    # Only the parse: the experiment itself is stubbed out, so every
    # refusal comes from the file and must name it.
    path = workdir / "params.cfg"
    path.write_bytes(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = _cli(["fo", "--config", str(path)], cmd_fo=lambda args: 0)
    assert status == 0 or str(path) in err.getvalue()


GOLDEN_AUDIT_CONFIG = b"m-list = 2 4\neps-list = 0.25 1.0  # nats\n"


@given(text=_fuzzed([GOLDEN_AUDIT_CONFIG]))
@example(text=b"m-list = 2 --help\n")
@example(text=b"m-list = 2 --config audit.cfg\n")  # the file names itself
@example(text=b"m-list = 2\n\xff\n")  # not UTF-8
@settings(max_examples=100, deadline=None)
def test_audit_config_files(workdir, text):
    # List options: every word must parse as the option's own value.  The
    # path is relative to workdir, so that a file can name itself.
    (workdir / "audit.cfg").write_bytes(text)
    cwd, err = os.getcwd(), io.StringIO()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stderr(err):
            status = _cli(["audit", "--config", "audit.cfg"], cmd_audit=lambda args: 0)
    finally:
        os.chdir(cwd)
    assert status == 0 or "audit.cfg" in err.getvalue()


GOLDEN_REPORTS = b"kind,user,t,k,position,sign\nfo,0,0,0,1,-1\npp,3,1,2,5,1\nbit,7,0,0,0,1\n"


@given(text=_fuzzed([GOLDEN_REPORTS]))
@settings(max_examples=100, deadline=None)
def test_submit_report_files(workdir, text):
    # Every frame that would be sent is a well-formed report frame.
    path, sent = workdir / "reports.csv", []
    path.write_bytes(text)

    def submit(address, frames):
        sent.extend(frames)
        return [{"ok": True}] * len(frames)

    _cli(["submit", "--port", "1", "--reports", str(path)], client_submit=submit)
    for frame in sent:
        _decode_batch(frame)


# The stream of the live-server case: reports, a batch, a stats request and
# a repeated user.
STREAM = b"".join([
    _report(MSG_FO_REPORT, 0, position=1),
    _report(MSG_PP_REPORT, 1, position=1),
    encode_frame(MSG_BATCH, b"".join(_report(MSG_FO_REPORT, u, position=u % 5, sign=1 - 2 * (u % 2))
                                     for u in range(1, 6))),
    _control("stats"),
    _report(MSG_FO_REPORT, 0, position=2),
    _report(MSG_FO_REPORT, 6, position=3, sign=-1),
])


def _frames_read(stream) -> tuple:
    """The (type, payload) frames the service reads from a stream that then
    ends, and whether it stops on a header it refuses with a bad-frame ack
    (a bad magic, version or type, or a payload above MAX_REQUEST_PAYLOAD)."""
    frames, pos = [], 0
    while True:
        try:
            msg_type, payload, used = decode_frame(stream[pos:])
        except TruncatedFrameError:
            declared = int.from_bytes(stream[pos + 6 : pos + 10], "little") if len(stream) >= pos + 10 else 0
            return frames, declared > MAX_REQUEST_PAYLOAD
        except TransportError:
            return frames, True
        if len(payload) > MAX_REQUEST_PAYLOAD:
            return frames, True
        frames.append((msg_type, payload))
        pos += used


@pytest.fixture(scope="module")
def server():
    server = AggregationServer(SESSIONS["fo"])
    server.start()
    yield server
    server.shutdown()


@given(stream=_mutated(STREAM))
@settings(max_examples=40, deadline=None)
def test_live_server_mutated_stream(server, stream):
    # Every frame read gets an ack and a refused header gets a bad-frame ack
    # before the connection closes; the close then equals an in-process
    # replay of the records acked ok.
    server.state = _SessionState(SESSIONS["fo"])
    with socket.create_connection(server.server_address, timeout=10.0) as sock:
        sock.sendall(stream)
        sock.shutdown(socket.SHUT_WR)  # a short payload ends in TruncatedFrameError, not a timeout
        replies = b""
        while chunk := sock.recv(65536):
            replies += chunk
    frames, refused = _frames_read(stream)
    acks, pos = [], 0
    while pos < len(replies):
        reply_type, body, used = decode_frame(replies[pos:])
        assert reply_type == MSG_ACK
        acks.append(json.loads(body))
        pos += used
    assert len(acks) == len(frames) + refused
    if refused:
        assert acks[-1]["code"] == "bad-frame"
    accepted = []
    for (msg_type, payload), ack in zip(frames, acks):
        if msg_type == MSG_BATCH and "errors" in ack:
            size = len(payload) // len(_decode_batch(payload))
            rejected = {i for i, _, _ in ack["errors"]}
            accepted += [payload[i * size : (i + 1) * size] for i in range(len(payload) // size)
                         if i not in rejected]
        elif msg_type in (MSG_FO_REPORT, MSG_PP_REPORT, MSG_ONE_BIT) and ack["ok"]:
            accepted.append(encode_frame(msg_type, payload))
    replay = _SessionState(SESSIONS["fo"])
    for record in accepted:
        assert not replay.absorb(_decode_batch(record)).any()
    expected = replay.finalize()
    conn = _Connection(server.server_address)
    try:
        reply_type, body = conn.roundtrip(_control("close"))
    finally:
        conn.close()
    if expected is None:
        assert reply_type == MSG_ACK and json.loads(body)["code"] == "empty-session"
    else:
        assert reply_type == MSG_RESULT and body.decode("utf-8") == expected
