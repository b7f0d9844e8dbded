"""Bit-exact wire format and a minimal TCP aggregation service.

Frame layout (all integers little-endian):

    magic   4 bytes  "LDPH"
    version u8       1
    type    u8       0 oracle report, 1 channel report, 2 one-bit,
                     3 control, 4 histogram result, 5 ack or error,
                     6 batch of reports
    length  u32      payload byte count
    payload

Report payload: user_id u64, repetition u16, channel u32, position u32,
sign u8 (0 minus, 1 plus); one-bit payload: user_id u64, bit u8.  Control
and ack payloads are UTF-8 JSON; the histogram result is the UTF-8 CSV
produced by the histogram pipeline.  A batch payload is whole frames laid
end to end, all of one size: 29-byte frames of types 0 and 1, or 19-byte
frames of type 2.  Its ack carries a status per record, as
{"ok": every record accepted, "errors": [[index, code, message], ...]}.
``client_submit`` packs its frames into batches of at most
MAX_REQUEST_PAYLOAD bytes, one round trip each, and expands every batch
ack back into one ack per frame, in order.

The service (``AggregationServer``) handles a lone report frame as a
batch of one.  It checks every record (header, sign byte) and refuses a
malformed batch whole, with a "bad-frame" ack, before any state changes.
A record outside the session (user_id >= n, t >= T, k >= K, position >= m,
or the wrong report kind) gets "bounds", and a repeat of a (user, channel)
report gets "duplicate" and changes nothing (the first copy wins, within a
batch too), making client retries idempotent.  Accepted reports are
absorbed, with one np.add.at per batch, into one interleaved array of
integer counts (the (K*T, m, 2) channel table, then the oracle's (m_fo, 2)),
so the final state is independent of arrival order, and a close reads its
aggregates as views of that array.  A session is refused when built if ``harness.protocol_setup``
refuses its parameters, or if it is a "hist" session with K*T above
FAITHFUL_CHANNEL_CAP, which bounds its (K*T + 1) x n dedup bitmap.  A
frame header declaring more than MAX_REQUEST_PAYLOAD bytes is refused
before its payload is read, and a connection silent for READ_TIMEOUT_S is
dropped.  One selector loop thread answers each connection a frame per
turn, and one close worker thread decodes close requests.
{"action": "stats"} is answered with the reports absorbed, the rejections
by code, the request bytes read, the oracle's n_total, and the number of
occupied hash channels with their least and greatest n_total.  A close
request runs the same decode/prune pipeline as an in-process run and
answers with the histogram result, or with an "empty-session" error,
leaving the session open, when no oracle report arrived.  A close
freezes the session under its lock and decodes outside it, so stats are
answered meanwhile and a second close gets the first one's result.  The
service never sees items, only reports.
A request that fails in the service is logged through "ldphist.service".
"""

from __future__ import annotations

import contextlib
import json
import queue
import selectors
import socket
import struct
import threading
import time
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .core import PublicRandomness
from .freq_oracle import channel_aggregates, fo_estimate_many
from .harness import protocol_setup
from .heavy_hitter import check_channel_cap, hh_finalize
from .onebit import collect_aggregates

__all__ = [
    "MAGIC",
    "VERSION",
    "MSG_FO_REPORT",
    "MSG_PP_REPORT",
    "MSG_ONE_BIT",
    "MSG_CONTROL",
    "MSG_RESULT",
    "MSG_ACK",
    "MSG_BATCH",
    "MAX_REQUEST_PAYLOAD",
    "READ_TIMEOUT_S",
    "TransportError",
    "TruncatedFrameError",
    "BadMagicError",
    "BadVersionError",
    "BadTypeError",
    "PayloadBoundsError",
    "ReportPayload",
    "OneBitPayload",
    "SessionConfig",
    "encode_frame",
    "decode_frame",
    "AggregationServer",
    "client_submit",
    "client_close",
]

MAGIC = b"LDPH"
VERSION = 1

MSG_FO_REPORT = 0
MSG_PP_REPORT = 1
MSG_ONE_BIT = 2
MSG_CONTROL = 3
MSG_RESULT = 4
MSG_ACK = 5
MSG_BATCH = 6

# Largest payload the service reads from a client frame; a batch of 2,259
# report frames fits.
MAX_REQUEST_PAYLOAD = 64 * 1024

# Seconds the service waits for the next bytes of a client before it drops
# the connection.
READ_TIMEOUT_S = 30.0

_HEADER = struct.Struct("<4sBBI")
_REPORT = struct.Struct("<QHIIB")
_ONEBIT = struct.Struct("<QB")
_REPORT_BITS = {"user_id": 64, "t": 16, "k": 32, "position": 32}  # field wire widths
_ONEBIT_BITS = {"user_id": 64}

# Batch records by whole-frame size: the record layout, and the frame
# types a record of that size may carry.  A one-bit record's bit is read
# as its "sign" field, so both kinds share the sign-byte check.
_HEAD_FIELDS = [("magic", "S4"), ("version", "u1"), ("type", "u1"), ("length", "<u4"),
                ("user", "<u8")]
_RECORDS = {
    _HEADER.size + _REPORT.size: (
        np.dtype(_HEAD_FIELDS + [("t", "<u2"), ("k", "<u4"), ("position", "<u4"), ("sign", "u1")]),
        (MSG_FO_REPORT, MSG_PP_REPORT),
    ),
    _HEADER.size + _ONEBIT.size: (np.dtype(_HEAD_FIELDS + [("sign", "u1")]), (MSG_ONE_BIT,)),
}

# Per-record statuses of the batch path, indexed by the ack code they carry.
_OK, _BOUNDS, _DUPLICATE, _CLOSED = range(4)
_STATUS_CODES = ("ok", "bounds", "duplicate", "session-closed")
_REASONS = ("", "is out of range for this session", "was already reported",
            "arrived after the session closed")

# Seconds between the service loop's looks for connections silent for
# READ_TIMEOUT_S.
_POLL_S = 0.05

# Seconds shutdown gives the replies in flight before it closes their
# connections.
_GRACE_S = 1.0

# Mask of dedup flag i within its byte of the packed bitmap, indexed by i % 8.
_BIT = (1 << np.arange(8)).astype(np.uint8)

# A one-bit session's vote of a user who has sent none; wire bits are 0 or 1.
_NO_VOTE = 2


class TransportError(Exception):
    pass


class TruncatedFrameError(TransportError):
    pass


class BadMagicError(TransportError):
    pass


class BadVersionError(TransportError):
    pass


class BadTypeError(TransportError):
    pass


class PayloadBoundsError(TransportError):
    pass


def _pack(fmt: struct.Struct, payload, widths: dict, *values) -> bytes:
    """fmt.pack(*values), where a field of payload outside its unsigned wire
    width (bits) raises ValueError naming it; checked when struct refuses."""
    try:
        return fmt.pack(*values)
    except struct.error:
        for name, width in widths.items():
            value = getattr(payload, name)
            if not 0 <= value < 1 << width:
                raise ValueError(f"{name} {value!r} outside the wire's [0, 2^{width})") from None
        raise


@dataclass(frozen=True)
class ReportPayload:
    user_id: int
    t: int
    k: int
    position: int
    sign: int  # -1 or +1

    def pack(self) -> bytes:
        if self.sign not in (-1, 1):
            raise ValueError(f"report sign must be -1 or +1, got {self.sign!r}")
        return _pack(_REPORT, self, _REPORT_BITS,
                     self.user_id, self.t, self.k, self.position, int(self.sign == 1))

    @classmethod
    def unpack(cls, payload: bytes) -> "ReportPayload":
        if len(payload) != _REPORT.size:
            raise PayloadBoundsError(
                f"report payload must be {_REPORT.size} bytes, got {len(payload)}"
            )
        user_id, t, k, j, sign_bit = _REPORT.unpack(payload)
        if sign_bit not in (0, 1):
            raise PayloadBoundsError(f"sign byte must be 0 or 1, got {sign_bit}")
        return cls(user_id=user_id, t=t, k=k, position=j, sign=1 if sign_bit else -1)


@dataclass(frozen=True)
class OneBitPayload:
    user_id: int
    bit: int

    def pack(self) -> bytes:
        if self.bit not in (0, 1):
            raise ValueError(f"one-bit report bit must be 0 or 1, got {self.bit!r}")
        return _pack(_ONEBIT, self, _ONEBIT_BITS, self.user_id, self.bit)


def encode_frame(msg_type: int, payload: bytes) -> bytes:
    if not (0 <= msg_type <= MSG_BATCH):
        raise BadTypeError(f"unknown message type {msg_type}")
    return _HEADER.pack(MAGIC, VERSION, msg_type, len(payload)) + payload


def _parse_header(buf: bytes) -> tuple:
    """(msg_type, payload length) of the header at the start of buf."""
    if len(buf) < _HEADER.size:
        raise TruncatedFrameError(f"need {_HEADER.size} header bytes, have {len(buf)}")
    magic, version, msg_type, length = _HEADER.unpack_from(buf, 0)
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    if version != VERSION:
        raise BadVersionError(f"unsupported version {version}")
    if msg_type > MSG_BATCH:
        raise BadTypeError(f"unknown message type {msg_type}")
    return msg_type, length


def decode_frame(buf: bytes) -> tuple:
    """(msg_type, payload, bytes consumed) for the first frame in buf."""
    msg_type, length = _parse_header(buf)
    end = _HEADER.size + length
    if len(buf) < end:
        raise TruncatedFrameError(f"payload truncated: need {end} bytes, have {len(buf)}")
    return msg_type, buf[_HEADER.size : end], end


def _decode_batch(payload: bytes) -> np.ndarray:
    """The records of a batch payload, each a well-formed report frame;
    one malformed record refuses the whole batch."""
    size = _HEADER.size + (_ONEBIT.size if payload[5:6] == bytes([MSG_ONE_BIT]) else _REPORT.size)
    dtype, types = _RECORDS[size]
    if not payload or len(payload) % size:
        raise PayloadBoundsError(f"batch of {len(payload)} bytes is not whole {size}-byte frames")
    rec = np.frombuffer(payload, dtype=dtype)
    bad = ((rec["magic"] != MAGIC) | (rec["version"] != VERSION) | (rec["type"] < types[0])
           | (rec["type"] > types[-1]) | (rec["length"] != size - _HEADER.size) | (rec["sign"] > 1))
    if bad.any():
        raise PayloadBoundsError(
            f"batch record {int(np.argmax(bad))} is not a well-formed frame of type {types}"
        )
    return rec


@dataclass
class SessionConfig:
    """Everything the service needs to rebuild the protocol deterministically."""

    protocol: str  # "hist" or "fo"
    d: int
    n: int
    eps: float
    beta: float
    seed: int
    k_override: Optional[int] = None
    code_kind: str = "reference"
    one_bit: bool = False

    def __post_init__(self):
        if self.protocol not in ("hist", "fo"):
            raise ValueError(f"unknown protocol {self.protocol!r}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def _ack(body: dict) -> bytes:
    return encode_frame(MSG_ACK, json.dumps(body).encode("utf-8"))


class _SessionState:
    """Shared aggregation state; every mutation holds the lock.

    The dedup bitmap has one bit per (row, user), little-endian within each
    byte: row t*K + k for channel reports and row K*T for oracle reports
    (or one-bit bits).  The counts are one interleaved int64 array: the
    (K*T, m, 2) table of the channels, row t*K + k, then the oracle's
    (m_fo, 2), each cell's plus count before its minus count.  A report
    at count cell c (row*m + position) adds one at 2c + (sign == minus).
    Both are allocated whole when the session is built; np.zeros pages are
    touched only as reports arrive."""

    def __init__(self, config: SessionConfig):
        self.config = config
        self.lock, self.closing = threading.Lock(), threading.Lock()
        self.frozen = False  # set while a close runs and after it succeeds
        self.result_csv: Optional[str] = None  # set once, by a successful close
        self.pub = PublicRandomness.from_any(config.seed)
        self.setup = protocol_setup(config.protocol, config.d, config.n, config.eps,
                                    config.beta, config.k_override, config.code_kind)
        hh = self.setup.hh
        self.K, self.T, self.m = (hh.K, hh.T, self.setup.code.m) if hh else (0, 0, 0)
        check_channel_cap(self.K, self.T, "a hist session")
        self.structure = self.setup.one_bit(self.pub) if config.one_bit else None
        self.oracle_row = self.K * self.T
        self.seen = np.zeros(((self.oracle_row + 1) * config.n + 7) // 8, dtype=np.uint8)
        self.counts = np.zeros(2 * (self.oracle_row * self.m + self.setup.fo.m_fo), dtype=np.int64)
        self.bits = np.full(config.n, _NO_VOTE, dtype=np.uint8)
        self.tally = dict.fromkeys(_STATUS_CODES + ("bad-frame", "bytes_read"), 0)

    def _place(self, rec: np.ndarray) -> tuple:
        """(fits, user, dedup key, count cell) of each record; user, key and
        cell are meaningful only where the record fits the session."""
        n = self.config.n
        fits = rec["user"] < n
        user = rec["user"].astype(np.int64)
        if "position" in rec.dtype.names:
            fits &= self.structure is None
            t, k, pos = (rec[name].astype(np.int64) for name in ("t", "k", "position"))
            pp = rec["type"] == MSG_PP_REPORT
            fits &= np.where(pp, (t < self.T) & (k < self.K) & (pos < self.m),
                             pos < self.setup.fo.m_fo)
            row = np.where(pp, t * self.K + k, self.oracle_row)
            cell = row * self.m + pos
        else:
            fits &= self.structure is not None
            row, cell = self.oracle_row, np.zeros_like(user)
        return fits, user, row * n + user, cell

    def absorb(self, rec: np.ndarray) -> np.ndarray:
        """Status of each record of a decoded batch; accepted ones are counted."""
        fits, user, key, cell = self._place(rec)
        status = np.where(fits, _OK, _BOUNDS).astype(np.int8)
        with self.lock:
            if self.frozen:
                status[:] = _CLOSED
            else:
                ok = np.flatnonzero(fits)
                ok_key = key[ok]
                # A stable sort puts the first copy of a key before its repeats.
                order = np.argsort(ok_key, kind="stable")
                fresh = (self.seen[ok_key >> 3] & _BIT[ok_key & 7]) == 0
                fresh[order[1:]] &= ok_key[order[1:]] != ok_key[order[:-1]]
                status[ok[~fresh]] = _DUPLICATE
                take = ok[fresh]
                np.bitwise_or.at(self.seen, key[take] >> 3, _BIT[key[take] & 7])
                sign = rec["sign"][take]
                if self.structure is not None:
                    self.bits[user[take]] = sign
                else:
                    np.add.at(self.counts, 2 * cell[take] + (sign == 0), 1)
            for code, count in zip(_STATUS_CODES, np.bincount(status, minlength=4).tolist()):
                self.tally[code] += count
        return status

    def count(self, key: str, amount: int) -> None:
        with self.lock:
            self.tally[key] += amount

    def stats(self) -> dict:
        with self.lock:
            rejected = dict(self.tally)
            if self.structure is not None:  # every accepted bit feeds every channel
                fo_total = int(np.count_nonzero(self.bits == 1))
                busy = [fo_total] * self.oracle_row if fo_total else []
            else:  # row sums of the counts; an fo session's channel table is (0, 0)
                table = self.counts[: 2 * self.oracle_row * self.m].reshape(self.oracle_row, 2 * self.m)
                fo_total, busy = int(self.counts[table.size :].sum()), [n for n in table.sum(axis=1).tolist() if n]
        return {"ok": True, "absorbed": rejected.pop("ok"),
                "bytes_read": rejected.pop("bytes_read"), "rejected": rejected,
                "oracle_n_total": fo_total, "channels_occupied": len(busy),
                "channel_n_total_min": min(busy, default=None),
                "channel_n_total_max": max(busy, default=None)}

    def _aggregates(self) -> tuple:
        """(oracle aggregate, {(t, k): channel aggregate}) of the channels
        that hold a report, as views of the session counts."""
        rows, eps = self.oracle_row, self.setup.fo.eps
        cut = 2 * rows * self.m
        keys = [divmod(row, self.K) for row in range(rows)]
        pp_aggs = channel_aggregates(keys, self.counts[:cut].reshape(rows, self.m, 2), eps)
        fo_agg = channel_aggregates(["fo"], self.counts[cut:].reshape(1, -1, 2), eps)["fo"]
        return fo_agg, {key: agg for key, agg in pp_aggs.items() if agg.n_total}

    def close(self) -> Optional[str]:
        """finalize's result, made once, on a session frozen meanwhile."""
        with self.closing:  # a second close waits here for the first one's result
            if self.result_csv is None:
                with self.lock:
                    self.frozen = True  # no count, dedup bit or bit changes from here on
                try:
                    self.result_csv = self.finalize()  # off the lock: stats go on
                finally:
                    with self.lock:  # an empty or failed close opens the session again
                        self.frozen = self.result_csv is not None
            return self.result_csv

    def finalize(self) -> Optional[str]:
        """Result CSV, or None when no oracle report (or accepted bit)
        arrived, which leaves nothing to estimate."""
        if self.structure is not None:
            users = np.flatnonzero(self.bits != _NO_VOTE)
            fo_agg, pp_aggs = collect_aggregates(
                zip(users.tolist(), self.bits[users].tolist()), self.structure
            )
        else:
            fo_agg, pp_aggs = self._aggregates()
        if fo_agg.n_total == 0:
            return None
        if self.config.protocol == "hist":
            hist, _, _ = hh_finalize(pp_aggs, fo_agg, self.setup.code, self.setup.hh, self.pub)
            return hist.to_csv()
        ests = fo_estimate_many(fo_agg, self.pub, np.arange(self.config.d))
        return "item,estimated_frequency\n" + "".join(f"{v},{e:.17g}\n" for v, e in enumerate(ests))


def read_frame(rfile) -> tuple:
    """(msg_type, payload) of the next frame."""
    msg_type, length = _parse_header(rfile.read(_HEADER.size))
    payload = rfile.read(length)
    if len(payload) < length:
        raise TruncatedFrameError(f"connection closed mid-payload ({len(payload)}/{length})")
    return msg_type, payload


def _take_frame(inbox: bytearray) -> Optional[tuple]:
    """(msg_type, payload) of the whole frame at the start of inbox, taken
    out of it, or None while it is incomplete; a declared payload above
    MAX_REQUEST_PAYLOAD is refused before it arrives."""
    if len(inbox) < _HEADER.size:
        return None
    msg_type, length = _parse_header(inbox)
    if length > MAX_REQUEST_PAYLOAD:
        raise PayloadBoundsError(f"declared payload of {length} bytes exceeds {MAX_REQUEST_PAYLOAD}")
    end = _HEADER.size + length
    if len(inbox) < end:
        return None
    payload = bytes(inbox[_HEADER.size : end])
    del inbox[:end]
    return msg_type, payload


def _dispatch(state: _SessionState, msg_type: int, payload: bytes) -> Optional[bytes]:
    """The reply to one frame; None for a close request, whose reply
    _close_reply makes."""
    if msg_type == MSG_CONTROL:
        return _control(state, payload)
    if msg_type == MSG_BATCH:
        rec = _decode_batch(payload)
    elif msg_type in (MSG_FO_REPORT, MSG_PP_REPORT, MSG_ONE_BIT):
        rec = _decode_batch(encode_frame(msg_type, payload))
    else:
        raise BadTypeError(f"unexpected message type {msg_type}")
    status = state.absorb(rec)
    errors = [[i, _STATUS_CODES[status[i]], f"report of user {rec['user'][i]} {_REASONS[status[i]]}"]
              for i in np.flatnonzero(status).tolist()]
    if msg_type == MSG_BATCH:
        return _ack({"ok": not errors, "errors": errors})
    if errors:
        return _ack({"ok": False, "code": errors[0][1], "error": errors[0][2]})
    return _ack({"ok": True})


def _control(state: _SessionState, payload: bytes) -> Optional[bytes]:
    try:
        body = json.loads(payload.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad or too deep JSON
        raise PayloadBoundsError(f"control payload is not UTF-8 JSON: {exc}") from None
    action = body.get("action") if isinstance(body, dict) else None
    if action == "stats":
        return _ack(state.stats())
    if action != "close":
        raise PayloadBoundsError(f"unknown control action {repr(body)[:80]}")  # a small ack
    return None  # a close: the service's close worker answers it


def _close_reply(state: _SessionState) -> bytes:
    result = state.close()
    if result is None:
        return _ack({"ok": False, "code": "empty-session", "error": "no reports to estimate from"})
    return encode_frame(MSG_RESULT, result.encode("utf-8"))


def _log_failure(address) -> None:
    import logging  # on a failure only: it adds ~4 ms to every start-up
    logging.getLogger("ldphist.service").exception("request from %s failed", address)


class _Peer:
    """A connection of the service loop: the bytes it sent that are not yet
    framed, the reply bytes not yet sent to it, and when it is dropped."""

    def __init__(self, sock: socket.socket, address):
        self.sock, self.address, self.inbox, self.outbox = sock, address, bytearray(), bytearray()
        self.deadline = time.monotonic() + READ_TIMEOUT_S
        self.events = selectors.EVENT_READ  # 0 while it waits for its close reply
        self.ended = False  # it sends no more: close it once its frames are answered


class AggregationServer:
    """Aggregation service for one session, bound to (host, port).

    ``start`` serves every connection from one selector loop thread, and
    decodes close requests in one close worker thread, until ``shutdown``.
    The loop answers each connection's frames in order and reads no more
    from it while a reply waits to be sent or its close is decoded.  A
    close request does not stop the service, and later close requests get
    the same result."""

    def __init__(self, config: SessionConfig, host: str = "127.0.0.1", port: int = 0):
        self.state = _SessionState(config)
        self.socket = socket.create_server((host, port))
        self.server_address = self.socket.getsockname()
        self._selector, self._peers = selectors.DefaultSelector(), set()
        self._wake, self._waker = socket.socketpair()  # a close reply is ready, or shutdown
        # Peers with a close request for the workers, and peers they hand back.
        self._closes, self._replies = queue.SimpleQueue(), queue.SimpleQueue()
        self._thread, self._stopping = None, False

    def start(self) -> tuple:
        """Serve in the background; returns the bound (host, port)."""
        self.socket.setblocking(False)
        self._selector.register(self.socket, selectors.EVENT_READ)
        self._selector.register(self._wake, selectors.EVENT_READ)
        threading.Thread(target=self._close_worker, daemon=True).start()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()
        return self.server_address

    def _serve(self):
        sweep, end = time.monotonic() + _POLL_S, None
        try:
            while end is None or (self._peers and time.monotonic() < end):
                for key, events in self._selector.select(_POLL_S):
                    if key.fileobj is self.socket:
                        self._accept()
                    elif key.fileobj is self._wake:
                        self._wake.recv(4096)
                        while not self._replies.empty():
                            self._serve_peer(self._replies.get(), 0)
                    else:
                        self._serve_peer(key.data, events & selectors.EVENT_READ)
                now = time.monotonic()
                if self._stopping and end is None:  # finish only the replies in flight
                    end = now + _GRACE_S
                    self._selector.unregister(self.socket)
                    for peer in [p for p in self._peers if p.events == selectors.EVENT_READ]:
                        self._drop(peer)
                if now >= sweep:  # drop the silent, but not those awaiting a close
                    sweep = now + _POLL_S
                    for peer in [p for p in self._peers if p.events and p.deadline < now]:
                        self._drop(peer)
        finally:
            for peer in list(self._peers):
                self._drop(peer)

    def _accept(self):
        """Accept every connection waiting, so that none is left to be
        reset when shutdown closes the listener."""
        while True:
            try:
                sock, address = self.socket.accept()
            except OSError:
                return  # none waits, the client gave up first, or no descriptor is free
            sock.setblocking(False)
            peer = _Peer(sock, address)
            self._peers.add(peer)
            self._selector.register(sock, peer.events, peer)

    def _serve_peer(self, peer: _Peer, read: int):
        """Read from peer if read is set; once its replies are sent, answer
        its next whole frame, leaving any further one to the loop's next
        turn.  Each call (bytes sent or taken, a close reply) puts off its
        deadline.  A failure other than a TransportError closes it."""
        peer.deadline = time.monotonic() + READ_TIMEOUT_S
        try:
            if read:
                data = peer.sock.recv(MAX_REQUEST_PAYLOAD)
                peer.inbox += data
                peer.ended = not data
            answered = False  # one frame per call: the other ready connections go first
            while True:
                if peer.outbox:
                    with contextlib.suppress(BlockingIOError):
                        del peer.outbox[: peer.sock.send(peer.outbox)]
                    if peer.outbox or (answered and peer.inbox):  # the rest waits a turn
                        return self._watch(peer, selectors.EVENT_WRITE)
                if self._stopping:  # its replies are sent, and it gets no more
                    return self._drop(peer)
                frame = None
                try:
                    frame = _take_frame(peer.inbox)
                    if frame is None:
                        break
                    self.state.count("bytes_read", _HEADER.size + len(frame[1]))
                    reply = _dispatch(self.state, *frame)
                except TransportError as exc:
                    self.state.count("bad-frame", 1)
                    reply = _ack({"ok": False, "code": "bad-frame", "error": str(exc)})
                    if frame is None:  # a bad header: close once it is acked
                        peer.inbox, peer.ended = bytearray(), True
                if reply is None:  # a close request, for the close worker
                    self._watch(peer, 0)
                    return self._closes.put(peer)
                peer.outbox += reply
                answered = True
            if peer.ended:  # a frame cut short by the client's end gets no reply
                self._drop(peer)
            else:
                self._watch(peer, selectors.EVENT_READ)
        except BlockingIOError:
            pass  # nothing to read after all
        except OSError:
            self._drop(peer)  # the client went away
        except Exception:
            _log_failure(peer.address)
            self._drop(peer)

    def _watch(self, peer: _Peer, events: int):
        if events != peer.events:
            if peer.events:
                self._selector.unregister(peer.sock)
            if events:
                self._selector.register(peer.sock, events, peer)
            peer.events = events

    def _drop(self, peer: _Peer):
        self._peers.discard(peer)
        self._watch(peer, 0)
        peer.sock.close()

    def _close_worker(self):
        """Decode close requests until shutdown, handing each peer back to
        the loop with its reply queued, or ended if its close failed."""
        for peer in iter(self._closes.get, None):
            try:
                peer.outbox += _close_reply(self.state)
            except Exception:
                _log_failure(peer.address)
                peer.inbox, peer.ended = bytearray(), True
            self._replies.put(peer)
            with contextlib.suppress(OSError):  # shutdown closed the wake-up meanwhile
                self._waker.send(b"\0")

    def shutdown(self):
        """Stop serving and close every connection, once the replies in
        flight are sent or _GRACE_S has passed; returns at once when
        ``start`` never ran."""
        if self._thread is not None:
            self._stopping = True
            self._waker.send(b"\0")
            self._thread.join()
            self._thread = None
            self._closes.put(None)
        for sock in (self._selector, self.socket, self._wake, self._waker):
            sock.close()


class _Connection:
    def __init__(self, address: tuple):
        self.sock = socket.create_connection(address)
        self.rfile = self.sock.makefile("rb")

    def roundtrip(self, frame: bytes) -> tuple:
        self.sock.sendall(frame)
        return read_frame(self.rfile)

    def close(self):
        self.rfile.close()
        self.sock.close()


def _batches(frames: list):
    """(frame to send, number of frames it carries): runs of report frames
    of one size go as batch frames of at most MAX_REQUEST_PAYLOAD bytes,
    any other frame alone."""
    run = []
    for frame in frames:
        size = len(frame)
        batchable = size in _RECORDS and frame[5] in _RECORDS[size][1]
        if run and (not batchable or size != len(run[0])
                    or (len(run) + 1) * size > MAX_REQUEST_PAYLOAD):
            yield encode_frame(MSG_BATCH, b"".join(run)), len(run)
            run = []
        if batchable:
            run.append(frame)
        else:
            yield frame, 1
    if run:
        yield encode_frame(MSG_BATCH, b"".join(run)), len(run)


def client_submit(address: tuple, frames: list) -> list:
    """Submit frames over one connection; returns the parsed ack per frame.

    Report frames travel in batch frames, one round trip each.  Duplicate
    rejections come back as acks with code "duplicate", so a blind retry
    of the same frames is idempotent."""
    conn = _Connection(address)
    acks = []
    try:
        for frame, count in _batches(frames):
            msg_type, payload = conn.roundtrip(frame)
            if msg_type != MSG_ACK:
                raise BadTypeError(f"expected ack, got type {msg_type}")
            body = json.loads(payload.decode("utf-8"))
            # A batch ack lists its rejected records; any other ack answers
            # every frame sent.
            batch = [{"ok": True} if "errors" in body else dict(body) for _ in range(count)]
            for i, code, error in body.get("errors", ()):
                batch[i] = {"ok": False, "code": code, "error": error}
            acks += batch
    finally:
        conn.close()
    return acks


def client_close(address: tuple) -> str:
    """Request session close; returns the histogram result CSV."""
    conn = _Connection(address)
    try:
        msg_type, payload = conn.roundtrip(
            encode_frame(MSG_CONTROL, json.dumps({"action": "close"}).encode("utf-8"))
        )
        if msg_type != MSG_RESULT:
            raise BadTypeError(f"expected result frame, got type {msg_type}: {payload!r}")
        return payload.decode("utf-8")
    finally:
        conn.close()
