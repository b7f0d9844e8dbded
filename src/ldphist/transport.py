"""Bit-exact wire format and a minimal TCP aggregation service.

Frame layout (all integers little-endian):

    magic   4 bytes  "LDPH"
    version u8       1
    type    u8       0 oracle report, 1 channel report, 2 one-bit,
                     3 control, 4 histogram result, 5 ack or error
    length  u32      payload byte count
    payload

Report payload: user_id u64, repetition u16, channel u32, position u32,
sign u8 (0 minus, 1 plus); one-bit payload: user_id u64, bit u8.  Control
and ack payloads are UTF-8 JSON; the histogram result is the UTF-8 CSV
produced by the histogram pipeline.

The service (``AggregationServer``) accepts concurrent connections,
validates and deduplicates reports (one per user and channel; duplicate
submissions get an error frame and change nothing, making client retries
idempotent), and absorbs them into integer count aggregates, so the final
state is independent of arrival order.  It refuses a frame whose header
declares more than MAX_REQUEST_PAYLOAD bytes before reading the payload.
A close request runs the same decode/prune pipeline as an in-process run
and answers with the histogram result, or with an "empty-session" error,
leaving the session open, when no oracle report arrived.  The service
never sees items, only reports.
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

from .codec import build_code
from .core import PublicRandomness, derive_fo_params, derive_hh_params
from .freq_oracle import AggregateState, fo_estimate_many
from .heavy_hitter import hh_finalize
from .onebit import OneBitStructure, collect_aggregates

__all__ = [
    "MAGIC",
    "VERSION",
    "MSG_FO_REPORT",
    "MSG_PP_REPORT",
    "MSG_ONE_BIT",
    "MSG_CONTROL",
    "MSG_RESULT",
    "MSG_ACK",
    "MAX_REQUEST_PAYLOAD",
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

# Largest payload the service reads from a client frame; the largest
# legitimate one is a small control JSON.
MAX_REQUEST_PAYLOAD = 64 * 1024

_HEADER = struct.Struct("<4sBBI")
_REPORT = struct.Struct("<QHIIB")
_ONEBIT = struct.Struct("<QB")


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
        return _REPORT.pack(
            self.user_id, self.t, self.k, self.position, 1 if self.sign > 0 else 0
        )

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

    @classmethod
    def unpack(cls, payload: bytes) -> "OneBitPayload":
        if len(payload) != _ONEBIT.size:
            raise PayloadBoundsError(
                f"one-bit payload must be {_ONEBIT.size} bytes, got {len(payload)}"
            )
        user_id, bit = _ONEBIT.unpack(payload)
        if bit not in (0, 1):
            raise PayloadBoundsError(f"bit must be 0 or 1, got {bit}")
        return cls(user_id=user_id, bit=bit)


def encode_frame(msg_type: int, payload: bytes) -> bytes:
    if not (0 <= msg_type <= 5):
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
    if msg_type > 5:
        raise BadTypeError(f"unknown message type {msg_type}")
    return msg_type, length


def decode_frame(buf: bytes) -> tuple:
    """(msg_type, payload, bytes consumed) for the first frame in buf."""
    msg_type, length = _parse_header(buf)
    end = _HEADER.size + length
    if len(buf) < end:
        raise TruncatedFrameError(f"payload truncated: need {end} bytes, have {len(buf)}")
    return msg_type, buf[_HEADER.size : end], end


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


def _ack(ok: bool, code: str = "", error: str = "") -> bytes:
    body = {"ok": ok}
    if not ok:
        body["code"] = code
        body["error"] = error
    return encode_frame(MSG_ACK, json.dumps(body).encode("utf-8"))


class _SessionState:
    """Shared aggregation state; every mutation holds the lock."""

    def __init__(self, config: SessionConfig):
        self.config = config
        self.lock = threading.Lock()
        self.result_csv: Optional[str] = None  # set once, by a successful close
        self.pub = PublicRandomness.from_any(config.seed)
        if config.protocol == "hist":
            self.code = build_code(config.d, config.code_kind)
            self.hh_params = derive_hh_params(
                config.d, config.n, config.eps, config.beta, config.k_override
            )
            self.fo_params = derive_fo_params(
                config.d, config.n, self.hh_params.eps_channel, config.beta / 3
            )
        else:
            self.code = self.hh_params = None
            self.fo_params = derive_fo_params(config.d, config.n, config.eps, config.beta)
        self.structure: Optional[OneBitStructure] = None
        if config.one_bit and config.protocol == "hist":
            self.structure = OneBitStructure.from_params(
                self.code, self.hh_params, self.fo_params, self.pub
            )
        elif config.one_bit:
            self.structure = OneBitStructure.fo_only(self.fo_params.m_fo, config.eps, self.pub)
        self.fo_agg = AggregateState(m=self.fo_params.m_fo, eps=self.fo_params.eps)
        self.pp_aggs: dict = {}
        self.seen: set = set()
        self.bits: dict = {}

    def absorb_fo(self, rep: ReportPayload) -> Optional[tuple]:
        if not rep.position < self.fo_params.m_fo:
            return ("bounds", f"position {rep.position} >= m {self.fo_params.m_fo}")
        key = ("fo", rep.user_id)
        if key in self.seen:
            return ("duplicate", f"user {rep.user_id} already reported to the oracle")
        self.seen.add(key)
        self.fo_agg.absorb_batch(np.array([rep.position]), np.array([rep.sign]))
        return None

    def absorb_pp(self, rep: ReportPayload) -> Optional[tuple]:
        hh = self.hh_params
        if hh is None:
            return ("bounds", "channel reports are invalid in an oracle-only session")
        if not (rep.t < hh.T and rep.k < hh.K and rep.position < self.code.m):
            return ("bounds", f"(t={rep.t}, k={rep.k}, j={rep.position}) out of range")
        key = ("pp", rep.user_id, rep.t, rep.k)
        if key in self.seen:
            return ("duplicate", f"user {rep.user_id} already reported in (t={rep.t}, k={rep.k})")
        self.seen.add(key)
        agg = self.pp_aggs.get((rep.t, rep.k))
        if agg is None:
            agg = self.pp_aggs[(rep.t, rep.k)] = AggregateState(
                m=self.code.m, eps=hh.eps_channel
            )
        agg.absorb_batch(np.array([rep.position]), np.array([rep.sign]))
        return None

    def absorb_bit(self, payload: OneBitPayload) -> Optional[tuple]:
        key = ("bit", payload.user_id)
        if key in self.seen:
            return ("duplicate", f"user {payload.user_id} already sent a bit")
        self.seen.add(key)
        self.bits[payload.user_id] = payload.bit
        return None

    def finalize(self) -> Optional[str]:
        """Result CSV, or None when no oracle report (or accepted bit)
        arrived, which leaves nothing to estimate."""
        if self.structure is not None:
            fo_agg, pp_aggs = collect_aggregates(sorted(self.bits.items()), self.structure)
        else:
            fo_agg, pp_aggs = self.fo_agg, self.pp_aggs
        if fo_agg.n_total == 0:
            return None
        if self.config.protocol == "hist":
            hist, _, _ = hh_finalize(pp_aggs, fo_agg, self.code, self.hh_params, self.pub)
            return hist.to_csv()
        return self._fo_csv(fo_agg)

    def _fo_csv(self, agg: AggregateState) -> str:
        lines = ["item,estimated_frequency"]
        ests = fo_estimate_many(agg, self.pub, np.arange(self.config.d))
        for v in range(self.config.d):
            lines.append(f"{v},{ests[v]:.17g}")
        return "\n".join(lines) + "\n"


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
    def handle(self):
        state: _SessionState = self.server.state
        while True:
            try:
                msg_type, payload = read_frame(self.rfile, MAX_REQUEST_PAYLOAD)
            except TruncatedFrameError:
                return  # client went away
            except TransportError as exc:
                self.wfile.write(_ack(False, "bad-frame", str(exc)))
                return
            try:
                reply = self._dispatch(state, msg_type, payload)
            except TransportError as exc:
                reply = _ack(False, "bad-frame", str(exc))
            self.wfile.write(reply)
            self.wfile.flush()

    def _dispatch(self, state: _SessionState, msg_type: int, payload: bytes) -> bytes:
        if msg_type == MSG_CONTROL:
            try:
                body = json.loads(payload.decode("utf-8"))
            except (ValueError, RecursionError) as exc:  # bad UTF-8, bad or too deep JSON
                return _ack(False, "bad-frame", f"control payload is not UTF-8 JSON: {exc}")
            if isinstance(body, dict) and body.get("action") == "close":
                with state.lock:
                    if state.result_csv is None:
                        state.result_csv = state.finalize()
                    result = state.result_csv
                if result is None:
                    return _ack(False, "empty-session", "no reports to estimate from")
                return encode_frame(MSG_RESULT, result.encode("utf-8"))
            return _ack(False, "bad-frame", f"unknown control action {body!r}")
        with state.lock:
            if state.result_csv is not None:
                return _ack(False, "session-closed", "session already closed")
            if msg_type == MSG_FO_REPORT:
                err = state.absorb_fo(ReportPayload.unpack(payload))
            elif msg_type == MSG_PP_REPORT:
                err = state.absorb_pp(ReportPayload.unpack(payload))
            elif msg_type == MSG_ONE_BIT:
                err = state.absorb_bit(OneBitPayload.unpack(payload))
            else:
                return _ack(False, "bad-frame", f"unexpected message type {msg_type}")
        if err is not None:
            return _ack(False, err[0], err[1])
        return _ack(True)


class AggregationServer(socketserver.ThreadingTCPServer):
    """Threaded aggregation service for one session, bound to (host, port).

    ``start`` serves in a daemon thread until ``shutdown``; a close request
    does not stop it, and later close requests get the same result."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, config: SessionConfig, host: str = "127.0.0.1", port: int = 0):
        self.state = _SessionState(config)
        super().__init__((host, port), _Handler)

    def start(self) -> tuple:
        """Serve in the background; returns the bound (host, port)."""
        threading.Thread(target=self.serve_forever, daemon=True).start()
        return self.server_address

    def shutdown(self):
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


def client_submit(address: tuple, frames: list) -> list:
    """Submit frames over one connection; returns the parsed ack per frame.

    Duplicate rejections come back as acks with code "duplicate", so a
    blind retry of the same frames is idempotent."""
    conn = _Connection(address)
    acks = []
    try:
        for frame in frames:
            msg_type, payload = conn.roundtrip(frame)
            if msg_type != MSG_ACK:
                raise BadTypeError(f"expected ack, got type {msg_type}")
            acks.append(json.loads(payload.decode("utf-8")))
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
