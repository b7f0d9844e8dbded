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
dropped.
{"action": "stats"} is answered with the reports absorbed, the rejections
by code, the request bytes read, the oracle's n_total, and the number of
occupied hash channels with their least and greatest n_total.  A close
request runs the same decode/prune pipeline as an in-process run and
answers with the histogram result, or with an "empty-session" error,
leaving the session open, when no oracle report arrived.  The service
never sees items, only reports.
A request that fails in the service is logged through "ldphist.service".
"""

from __future__ import annotations

import json
import socket
import socketserver
import struct
import threading
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .core import PublicRandomness
from .freq_oracle import channel_aggregates, fo_estimate_many
from .harness import protocol_setup
from .heavy_hitter import FAITHFUL_CHANNEL_CAP, hh_finalize
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

# Seconds a handler waits for the next bytes of a client before it drops
# the connection, so that a stalled client cannot hold a thread forever.
READ_TIMEOUT_S = 30.0

_HEADER = struct.Struct("<4sBBI")
_REPORT = struct.Struct("<QHIIB")
_ONEBIT = struct.Struct("<QB")

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

# Seconds between serve_forever's shutdown checks, so that shutdown()
# returns within this long (the socketserver default is 0.5 s).
_POLL_S = 0.05

# Mask of dedup flag i within its byte of the packed bitmap, indexed by i % 8.
_BIT = (1 << np.arange(8)).astype(np.uint8)


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
        return _REPORT.pack(self.user_id, self.t, self.k, self.position, int(self.sign == 1))

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
        return _ONEBIT.pack(self.user_id, self.bit)


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
        self.lock = threading.Lock()
        self.result_csv: Optional[str] = None  # set once, by a successful close
        self.pub = PublicRandomness.from_any(config.seed)
        self.setup = protocol_setup(config.protocol, config.d, config.n, config.eps,
                                    config.beta, config.k_override, config.code_kind)
        hh = self.setup.hh
        self.K, self.T, self.m = (hh.K, hh.T, self.setup.code.m) if hh else (0, 0, 0)
        if self.K * self.T > FAITHFUL_CHANNEL_CAP:
            raise ValueError(
                f"a hist session keeps K*T = {self.K * self.T} channels; "
                f"cap is {FAITHFUL_CHANNEL_CAP}, use a smaller K override"
            )
        self.structure = self.setup.one_bit(self.pub) if config.one_bit else None
        self.oracle_row = self.K * self.T
        self.seen = np.zeros(((self.oracle_row + 1) * config.n + 7) // 8, dtype=np.uint8)
        self.counts = np.zeros(2 * (self.oracle_row * self.m + self.setup.fo.m_fo), dtype=np.int64)
        self.bits = np.zeros(config.n, dtype=np.uint8)
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
            if self.result_csv is not None:
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
                fo_total = int(self.bits.sum())
                busy = [fo_total] * self.oracle_row if fo_total else []
            else:
                fo_agg, pp_aggs = self._aggregates()
                fo_total, busy = fo_agg.n_total, [agg.n_total for agg in pp_aggs.values()]
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

    def finalize(self) -> Optional[str]:
        """Result CSV, or None when no oracle report (or accepted bit)
        arrived, which leaves nothing to estimate."""
        if self.structure is not None:
            seen = np.unpackbits(self.seen, bitorder="little")
            users = np.flatnonzero(seen[self.oracle_row * self.config.n :][: self.config.n])
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


def _read_exact(rfile, count: int) -> bytes:
    data = rfile.read(count)
    if data is None or len(data) < count:
        raise TruncatedFrameError(f"connection closed mid-frame ({len(data or b'')}/{count})")
    return data


def read_frame(rfile, max_payload: Optional[int] = None) -> tuple:
    """(msg_type, payload) of the next frame; a declared payload longer
    than max_payload is refused before it is read."""
    msg_type, length = _parse_header(_read_exact(rfile, _HEADER.size))
    if max_payload is not None and length > max_payload:
        raise PayloadBoundsError(f"declared payload of {length} bytes exceeds {max_payload}")
    return msg_type, _read_exact(rfile, length)


class _Handler(socketserver.StreamRequestHandler):
    def setup(self):
        self.request.settimeout(READ_TIMEOUT_S)
        super().setup()

    def handle(self):
        state: _SessionState = self.server.state
        try:
            while True:
                try:
                    msg_type, payload = read_frame(self.rfile, MAX_REQUEST_PAYLOAD)
                except TruncatedFrameError:
                    return  # client went away
                except TransportError as exc:
                    state.count("bad-frame", 1)
                    self.wfile.write(_ack({"ok": False, "code": "bad-frame", "error": str(exc)}))
                    return
                state.count("bytes_read", _HEADER.size + len(payload))
                try:
                    reply = self._dispatch(state, msg_type, payload)
                except TransportError as exc:
                    state.count("bad-frame", 1)
                    reply = _ack({"ok": False, "code": "bad-frame", "error": str(exc)})
                self.wfile.write(reply)
                self.wfile.flush()
        except OSError:
            return  # client went away, or sent nothing for READ_TIMEOUT_S

    def _dispatch(self, state: _SessionState, msg_type: int, payload: bytes) -> bytes:
        if msg_type == MSG_CONTROL:
            return self._control(state, payload)
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

    def _control(self, state: _SessionState, payload: bytes) -> bytes:
        try:
            body = json.loads(payload.decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # bad UTF-8, bad or too deep JSON
            raise PayloadBoundsError(f"control payload is not UTF-8 JSON: {exc}") from None
        action = body.get("action") if isinstance(body, dict) else None
        if action == "stats":
            return _ack(state.stats())
        if action != "close":
            raise PayloadBoundsError(f"unknown control action {body!r}")
        with state.lock:
            if state.result_csv is None:
                state.result_csv = state.finalize()
            result = state.result_csv
        if result is None:
            return _ack({"ok": False, "code": "empty-session", "error": "no reports to estimate from"})
        return encode_frame(MSG_RESULT, result.encode("utf-8"))


class AggregationServer(socketserver.ThreadingTCPServer):
    """Threaded aggregation service for one session, bound to (host, port).

    ``start`` serves in a daemon thread until ``shutdown``; a close request
    does not stop it, and later close requests get the same result."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, config: SessionConfig, host: str = "127.0.0.1", port: int = 0):
        self.state = _SessionState(config)
        self._started = False
        super().__init__((host, port), _Handler)

    def start(self) -> tuple:
        """Serve in the background; returns the bound (host, port)."""
        threading.Thread(target=self.serve_forever, args=(_POLL_S,), daemon=True).start()
        self._started = True
        return self.server_address

    def handle_error(self, request, client_address):
        import logging  # on a failure only: it adds ~4 ms to every start-up
        logging.getLogger("ldphist.service").exception("request from %s failed", client_address)

    def shutdown(self):
        # The base shutdown waits for serve_forever to return, which never
        # happens when it was never called.
        if self._started:
            super().shutdown()
        self.server_close()


class _Connection:
    def __init__(self, address: tuple):
        self.sock = socket.create_connection(address)
        self.rfile = self.sock.makefile("rb")
        self.wfile = self.sock.makefile("wb")

    def roundtrip(self, frame: bytes) -> tuple:
        self.wfile.write(frame)
        self.wfile.flush()
        return read_frame(self.rfile)

    def close(self):
        self.rfile.close()
        self.wfile.close()
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
