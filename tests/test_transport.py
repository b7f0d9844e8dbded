import contextlib
import functools
import json
import logging
import math
import socket
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldphist import transport
from ldphist.codec import build_code
from ldphist.core import PublicRandomness, derive_fo_params, derive_hh_params
from ldphist.freq_oracle import AggregateState, fo_client_report, fo_estimate_many
from ldphist.heavy_hitter import BOT, channel_of, draw_hash_seeds, hh_finalize, pp_client_report
from ldphist.onebit import (
    OneBitStructure,
    PublicString,
    acceptance_prob,
    collect_aggregates,
    collect_fo_aggregate,
    onebit_server_collect,
)
from ldphist.transport import (
    MSG_ACK,
    MSG_BATCH,
    MSG_CONTROL,
    MSG_FO_REPORT,
    MSG_ONE_BIT,
    MSG_PP_REPORT,
    MSG_RESULT,
    MAX_REQUEST_PAYLOAD,
    AggregationServer,
    BadMagicError,
    BadTypeError,
    BadVersionError,
    OneBitPayload,
    PayloadBoundsError,
    ReportPayload,
    SessionConfig,
    TransportError,
    TruncatedFrameError,
    _Connection,
    _SessionState,
    _decode_batch,
    client_close,
    client_submit,
    decode_frame,
    encode_frame,
    read_frame,
)


class TestFrameLayout:
    def test_golden_fo_report(self):
        payload = ReportPayload(user_id=7, t=0, k=0, position=3, sign=1).pack()
        frame = encode_frame(MSG_FO_REPORT, payload)
        expected = bytes.fromhex(
            "4c4450480100" "13000000"
            "0700000000000000" "0000" "00000000" "03000000" "01"
        )
        assert frame == expected

    def test_golden_one_bit(self):
        frame = encode_frame(MSG_ONE_BIT, OneBitPayload(user_id=7, bit=1).pack())
        assert frame == bytes.fromhex("4c4450480102" "09000000" "0700000000000000" "01")

    @given(
        user=st.integers(0, 2**64 - 1),
        t=st.integers(0, 2**16 - 1),
        k=st.integers(0, 2**32 - 1),
        j=st.integers(0, 2**32 - 1),
        sign=st.sampled_from([-1, 1]),
        msg_type=st.sampled_from([MSG_FO_REPORT, MSG_PP_REPORT]),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, user, t, k, j, sign, msg_type):
        rep = ReportPayload(user_id=user, t=t, k=k, position=j, sign=sign)
        frame = encode_frame(msg_type, rep.pack())
        got_type, payload, consumed = decode_frame(frame + b"trailing")
        assert got_type == msg_type
        assert consumed == len(frame)
        assert ReportPayload.unpack(payload) == rep

    def test_truncated(self):
        frame = encode_frame(MSG_ACK, b"{}")
        with pytest.raises(TruncatedFrameError):
            decode_frame(frame[:5])
        with pytest.raises(TruncatedFrameError):
            decode_frame(frame[:-1])

    def test_bad_magic(self):
        frame = bytearray(encode_frame(MSG_ACK, b"{}"))
        frame[0] = 0x58
        with pytest.raises(BadMagicError):
            decode_frame(bytes(frame))

    def test_bad_version(self):
        frame = bytearray(encode_frame(MSG_ACK, b"{}"))
        frame[4] = 9
        with pytest.raises(BadVersionError):
            decode_frame(bytes(frame))

    def test_bad_type(self):
        frame = bytearray(encode_frame(MSG_ACK, b"{}"))
        frame[5] = 17
        with pytest.raises(BadTypeError):
            decode_frame(bytes(frame))

    def test_payload_bounds(self):
        with pytest.raises(PayloadBoundsError):
            ReportPayload.unpack(b"\x00" * 5)

    @pytest.mark.parametrize("sign", [0, 2, 7, -2])
    def test_pack_refuses_sign_other_than_plus_minus_one(self, sign):
        with pytest.raises(ValueError, match="sign"):
            ReportPayload(user_id=1, t=0, k=0, position=0, sign=sign).pack()

    @pytest.mark.parametrize("bit", [2, 3, 255, -1])
    def test_one_bit_pack_refuses_bit_other_than_zero_or_one(self, bit):
        with pytest.raises(ValueError, match="bit"):
            OneBitPayload(user_id=3, bit=bit).pack()

    @pytest.mark.parametrize("payload, field", [
        (OneBitPayload(2**64, 1), "user_id"),
        (OneBitPayload(-1, 1), "user_id"),
        (ReportPayload(2**64, 0, 0, 0, 1), "user_id"),
        (ReportPayload(1, 2**16, 0, 0, 1), "t"),
        (ReportPayload(1, 0, 2**32, 0, 1), "k"),
        (ReportPayload(1, 0, 0, 2**32, 1), "position"),
        (ReportPayload(1, 0, 0, -1, -1), "position"),
    ])
    def test_pack_refuses_field_outside_wire_width(self, payload, field):
        with pytest.raises(ValueError, match=f"^{field} "):
            payload.pack()

    def test_pack_takes_fields_at_wire_width_edges(self):
        rep = ReportPayload(2**64 - 1, 2**16 - 1, 2**32 - 1, 2**32 - 1, -1)
        assert ReportPayload.unpack(rep.pack()) == rep
        assert len(OneBitPayload(2**64 - 1, 1).pack()) == 9

    def test_sign_byte_validation(self):
        raw = bytearray(ReportPayload(user_id=1, t=0, k=0, position=0, sign=1).pack())
        raw[-1] = 7
        with pytest.raises(PayloadBoundsError):
            ReportPayload.unpack(bytes(raw))


class TestSessionConfig:
    def test_unknown_protocol(self):
        with pytest.raises(ValueError):
            SessionConfig(protocol="nope", d=4, n=1, eps=1.0, beta=0.5, seed=0)


def _hist_config(seed=42, n=200):
    return SessionConfig(protocol="hist", d=16, n=n, eps=2.0, beta=0.5,
                         seed=seed, k_override=8, code_kind="reference")


def _generate_hist_reports(cfg, rng):
    """Faithful client-side report stream: every user reports in every
    channel of every repetition, plus one oracle report."""
    pub = PublicRandomness.from_any(cfg.seed)
    hh = derive_hh_params(cfg.d, cfg.n, cfg.eps, cfg.beta, cfg.k_override)
    fo = derive_fo_params(cfg.d, cfg.n, hh.eps_channel, cfg.beta / 3)
    code = build_code(cfg.d, cfg.code_kind)
    seeds = draw_hash_seeds(pub, hh.T, hh.ell)
    items = rng.integers(0, cfg.d, cfg.n)
    items[: int(0.7 * cfg.n)] = 5
    pp_frames, fo_frames = [], []
    for user in range(cfg.n):
        v = int(items[user])
        for t in range(hh.T):
            k_active = channel_of(seeds[t], v, hh.K)
            for k in range(hh.K):
                rep = pp_client_report(v if k == k_active else BOT, code, hh.eps_channel, rng)
                pp_frames.append(encode_frame(
                    MSG_PP_REPORT,
                    ReportPayload(user, t, k, rep.position, rep.sign).pack()))
        rep = fo_client_report(v, fo, pub, hh.eps_channel, rng)
        fo_frames.append(encode_frame(
            MSG_FO_REPORT, ReportPayload(user, 0, 0, rep.position, rep.sign).pack()))
    return pub, hh, fo, code, pp_frames, fo_frames


def _finalize_in_process(pub, hh, fo, code, pp_frames, fo_frames):
    pp_aggs = {}
    fo_agg = AggregateState(m=fo.m_fo, eps=hh.eps_channel)
    for frame in pp_frames:
        _, payload, _ = decode_frame(frame)
        rep = ReportPayload.unpack(payload)
        agg = pp_aggs.setdefault((rep.t, rep.k), AggregateState(m=code.m, eps=hh.eps_channel))
        agg.absorb_batch(np.array([rep.position]), np.array([rep.sign]))
    for frame in fo_frames:
        _, payload, _ = decode_frame(frame)
        rep = ReportPayload.unpack(payload)
        fo_agg.absorb_batch(np.array([rep.position]), np.array([rep.sign]))
    hist, _, _ = hh_finalize(pp_aggs, fo_agg, code, hh, pub)
    return hist.to_csv()


@functools.lru_cache(maxsize=None)
def _hist_session(seed: int, rng_seed: int):
    """(config, every frame, in-process result) of a seeded hist session."""
    cfg = _hist_config(seed=seed)
    pub, hh, fo, code, pp_frames, fo_frames = _generate_hist_reports(
        cfg, np.random.default_rng(rng_seed))
    expected = _finalize_in_process(pub, hh, fo, code, pp_frames, fo_frames)
    return cfg, pp_frames + fo_frames, expected


class TestLoopback:
    @given(cuts=st.lists(st.floats(0.0, 1.0), max_size=6))
    @settings(max_examples=8, deadline=None)
    def test_single_client_matches_in_process(self, cuts):
        # The frames go in consecutive client_submit calls split at the
        # drawn fractions of the stream, so batches start and end anywhere.
        cfg, frames, expected = _hist_session(42, 0)
        bounds = [0] + sorted(int(c * len(frames)) for c in cuts) + [len(frames)]
        server = AggregationServer(cfg)
        addr = server.start()
        try:
            for lo, hi in zip(bounds, bounds[1:]):
                acks = client_submit(addr, frames[lo:hi])
                assert len(acks) == hi - lo and all(a["ok"] for a in acks)
            result = client_close(addr)
        finally:
            server.shutdown()
        assert result == expected

    def test_sixteen_clients_interleaved(self):
        cfg = _hist_config(seed=43)
        rng = np.random.default_rng(1)
        pub, hh, fo, code, pp_frames, fo_frames = _generate_hist_reports(cfg, rng)
        frames = pp_frames + fo_frames
        expected = _finalize_in_process(pub, hh, fo, code, pp_frames, fo_frames)

        server = AggregationServer(cfg)
        addr = server.start()
        try:
            shards = [frames[i::16] for i in range(16)]
            errors = []

            def run(shard):
                try:
                    acks = client_submit(addr, shard)
                    assert all(a["ok"] for a in acks)
                except Exception as exc:  # surfaced below
                    errors.append(exc)

            threads = [threading.Thread(target=run, args=(s,)) for s in shards]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
            assert not errors
            result = client_close(addr)
        finally:
            server.shutdown()
        assert result == expected

    def test_duplicate_rejected_and_state_unchanged(self):
        cfg = _hist_config(seed=44)
        rng = np.random.default_rng(2)
        pub, hh, fo, code, pp_frames, fo_frames = _generate_hist_reports(cfg, rng)
        expected = _finalize_in_process(pub, hh, fo, code, pp_frames, fo_frames)

        server = AggregationServer(cfg)
        addr = server.start()
        try:
            client_submit(addr, pp_frames + fo_frames)
            # blind retry of a slice: every ack is a duplicate rejection
            acks = client_submit(addr, pp_frames[:40])
            assert all(not a["ok"] and a["code"] == "duplicate" for a in acks)
            result = client_close(addr)
        finally:
            server.shutdown()
        assert result == expected

    def test_submit_after_close(self):
        cfg = _hist_config(seed=45)
        rng = np.random.default_rng(3)
        _, _, _, _, pp_frames, fo_frames = _generate_hist_reports(cfg, rng)
        server = AggregationServer(cfg)
        addr = server.start()
        try:
            client_submit(addr, pp_frames + fo_frames)
            client_close(addr)
            acks = client_submit(addr, pp_frames[:1])
            assert acks[0]["code"] == "session-closed"
        finally:
            server.shutdown()

    def test_out_of_bounds_rejected_per_frame(self):
        cfg = _hist_config(seed=46)
        server = AggregationServer(cfg)
        addr = server.start()
        try:
            bad = encode_frame(
                MSG_PP_REPORT, ReportPayload(1, 99, 0, 0, 1).pack())  # t >= T
            good_rng = np.random.default_rng(4)
            _, hh, fo, code, pp_frames, _ = _generate_hist_reports(cfg, good_rng)
            acks = client_submit(addr, [bad, pp_frames[0]])
            assert not acks[0]["ok"] and acks[0]["code"] == "bounds"
            assert acks[1]["ok"]
        finally:
            server.shutdown()


class TestFoSession:
    def test_oracle_session_matches_in_process(self):
        cfg = SessionConfig(protocol="fo", d=16, n=300, eps=1.0, beta=0.2, seed=99)
        pub = PublicRandomness.from_any(cfg.seed)
        fo = derive_fo_params(cfg.d, cfg.n, cfg.eps, cfg.beta)
        rng = np.random.default_rng(5)
        items = rng.integers(0, cfg.d, cfg.n)
        frames = []
        agg = AggregateState(m=fo.m_fo, eps=cfg.eps)
        for user in range(cfg.n):
            rep = fo_client_report(int(items[user]), fo, pub, cfg.eps, rng)
            agg.absorb_batch(np.array([rep.position]), np.array([rep.sign]))
            frames.append(encode_frame(
                MSG_FO_REPORT, ReportPayload(user, 0, 0, rep.position, rep.sign).pack()))
        ests = fo_estimate_many(agg, pub, np.arange(cfg.d))
        expected = "item,estimated_frequency\n" + "\n".join(
            f"{v},{ests[v]:.17g}" for v in range(cfg.d)) + "\n"

        server = AggregationServer(cfg)
        addr = server.start()
        try:
            client_submit(addr, frames)
            result = client_close(addr)
        finally:
            server.shutdown()
        assert result == expected


class TestOneBitSession:
    def test_one_bit_oracle_session(self):
        cfg = SessionConfig(protocol="fo", d=8, n=400, eps=0.5, beta=0.2,
                            seed=7, one_bit=True)
        pub = PublicRandomness.from_any(cfg.seed)
        fo = derive_fo_params(cfg.d, cfg.n, cfg.eps, cfg.beta)
        structure = OneBitStructure(pub=pub, run_id=0, K=1, T=0, eps_channel=cfg.eps, m_fo=fo.m_fo)
        rng = np.random.default_rng(6)
        items = np.random.default_rng(7).integers(0, cfg.d, cfg.n)
        bits = {}
        frames = []
        for user in range(cfg.n):
            y = PublicString(structure=structure, user_id=user)
            bit = int(rng.random() < acceptance_prob(int(items[user]), y, structure))
            bits[user] = bit
            frames.append(encode_frame(MSG_ONE_BIT, OneBitPayload(user, bit).pack()))
        accepted = onebit_server_collect(sorted(bits.items()), structure)
        agg = collect_fo_aggregate(accepted, structure)
        ests = fo_estimate_many(agg, pub, np.arange(cfg.d))
        expected = "item,estimated_frequency\n" + "\n".join(
            f"{v},{ests[v]:.17g}" for v in range(cfg.d)) + "\n"

        server = AggregationServer(cfg)
        addr = server.start()
        try:
            client_submit(addr, frames)
            result = client_close(addr)
        finally:
            server.shutdown()
        assert result == expected

    def test_one_bit_session_refuses_too_many_channels(self):
        # The close would regenerate accepted x K*T components under the
        # session lock, so the config is refused when the session is built.
        cfg = SessionConfig(protocol="hist", d=16, n=2000, eps=0.69, beta=0.5,
                            seed=1, k_override=100_000, one_bit=True)
        with pytest.raises(ValueError, match="K\\*T"):
            _SessionState(cfg)

    def test_close_unpacks_only_the_oracle_row(self):
        # A hist close reads the accepted users from the dedup bitmap's last
        # row, which starts mid-byte here (K*T*n is odd); unpacking all
        # (K*T + 1) * n bits of the bitmap would take about 114 MiB.
        cfg = SessionConfig(protocol="hist", d=16, n=20_001, eps=math.log(2), beta=0.5,
                            seed=5, k_override=1_999, one_bit=True)
        state = _SessionState(cfg)
        bits = {0: 1, 7: 0, 1_999: 1, 10_000: 1, 20_000: 1}
        state.absorb(_decode_batch(b"".join(encode_frame(MSG_ONE_BIT, OneBitPayload(u, b).pack())
                                            for u, b in bits.items())))
        tracemalloc.start()
        try:
            csv = state.finalize()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.oracle_row * cfg.n % 8 != 0
        assert peak < (state.oracle_row + 1) * cfg.n / 8
        fo_agg, pp_aggs = collect_aggregates(sorted(bits.items()), state.structure)
        hist, _, _ = hh_finalize(pp_aggs, fo_agg, state.setup.code, state.setup.hh, state.pub)
        assert csv == hist.to_csv()


CLOSE = encode_frame(MSG_CONTROL, json.dumps({"action": "close"}).encode("utf-8"))
STATS = encode_frame(MSG_CONTROL, json.dumps({"action": "stats"}).encode("utf-8"))


def _ack_body(reply) -> dict:
    msg_type, payload = reply
    assert msg_type == MSG_ACK
    return json.loads(payload.decode("utf-8"))


class TestRobustness:
    """A bad control frame or an empty close gets an error ack, and the
    same connection keeps serving."""

    @pytest.mark.parametrize("payload", [b"{", b"\xff\xfe", b"[1]"])
    def test_bad_control_payload_acked(self, payload):
        cfg = SessionConfig(protocol="fo", d=8, n=10, eps=1.0, beta=0.2, seed=3)
        report = encode_frame(MSG_FO_REPORT, ReportPayload(0, 0, 0, 0, 1).pack())
        server = AggregationServer(cfg)
        conn = _Connection(server.start())
        try:
            body = _ack_body(conn.roundtrip(encode_frame(MSG_CONTROL, payload)))
            assert not body["ok"] and body["code"] == "bad-frame"
            assert _ack_body(conn.roundtrip(report)) == {"ok": True}
        finally:
            conn.close()
            server.shutdown()

    def test_unknown_control_action_echo_bounded(self):
        # A 60,001-byte [1, 1, ...] body has a repr of about 90,000
        # characters; the bad-frame ack echoes only an excerpt of it.
        cfg = SessionConfig(protocol="fo", d=8, n=10, eps=1.0, beta=0.2, seed=3)
        payload = b"[" + b"1," * 29_999 + b"1]"
        server = AggregationServer(cfg)
        conn = _Connection(server.start())
        try:
            msg_type, body = conn.roundtrip(encode_frame(MSG_CONTROL, payload))
            assert msg_type == MSG_ACK and len(body) < 1024
            ack = json.loads(body)
            assert not ack["ok"] and ack["code"] == "bad-frame"
            assert ack["error"].startswith("unknown control action [1, 1, 1")
        finally:
            conn.close()
            server.shutdown()

    def test_declared_length_bounded(self):
        # A frame of exactly MAX_REQUEST_PAYLOAD bytes is read and served; a
        # header declaring more is refused before its payload is awaited,
        # and the connection is closed.
        cfg = SessionConfig(protocol="fo", d=8, n=10, eps=1.0, beta=0.2, seed=3)
        largest = encode_frame(MSG_CONTROL, b'{"action": "close"}'.ljust(MAX_REQUEST_PAYLOAD))
        huge = encode_frame(MSG_FO_REPORT, b"")[:-4] + (0xFFFFFFF0).to_bytes(4, "little")
        server = AggregationServer(cfg)
        addr = server.start()
        conns = [_Connection(addr) for _ in range(2)]
        try:
            for conn in conns:
                conn.sock.settimeout(5.0)
            assert _ack_body(conns[0].roundtrip(largest))["code"] == "empty-session"
            body = _ack_body(conns[1].roundtrip(huge))
            assert not body["ok"] and body["code"] == "bad-frame"
            assert conns[1].rfile.read(1) == b""
        finally:
            for conn in conns:
                conn.close()
            server.shutdown()

    @pytest.mark.parametrize("cfg, before, after", [
        (SessionConfig(protocol="fo", d=8, n=10, eps=1.0, beta=0.2, seed=3),
         [],
         [encode_frame(MSG_FO_REPORT, ReportPayload(0, 0, 0, 0, 1).pack())]),
        (SessionConfig(protocol="hist", d=16, n=400, eps=0.69, beta=0.5, seed=3,
                       k_override=8, one_bit=True),
         [encode_frame(MSG_ONE_BIT, OneBitPayload(0, 0).pack())],
         [encode_frame(MSG_ONE_BIT, OneBitPayload(1, 1).pack())]),
    ], ids=["fo", "hist-one-bit"])
    def test_empty_close_keeps_session_open(self, cfg, before, after):
        server = AggregationServer(cfg)
        conn = _Connection(server.start())
        try:
            for frame in before:
                assert _ack_body(conn.roundtrip(frame))["ok"]
            body = _ack_body(conn.roundtrip(CLOSE))
            assert not body["ok"] and body["code"] == "empty-session"
            assert server.state.result_csv is None
            for frame in after:
                assert _ack_body(conn.roundtrip(frame)) == {"ok": True}
            first = conn.roundtrip(CLOSE)
            assert first[0] == MSG_RESULT
            assert first[1].decode("utf-8").startswith("item,estimated_frequency\n")
            assert conn.roundtrip(CLOSE) == first
        finally:
            conn.close()
            server.shutdown()


def _batch(frames) -> bytes:
    return encode_frame(MSG_BATCH, b"".join(frames))


def _report(user, t=0, k=0, position=0, sign=1, msg_type=MSG_PP_REPORT) -> bytes:
    return encode_frame(msg_type, ReportPayload(user, t, k, position, sign).pack())


FO_CONFIG = SessionConfig(protocol="fo", d=8, n=10, eps=1.0, beta=0.2, seed=3)


class TestBatch:
    """Type-6 frames: every record gets its own status, and a malformed
    batch is refused whole before any state changes."""

    def _roundtrip(self, cfg, *frames) -> list:
        server = AggregationServer(cfg)
        conn = _Connection(server.start())
        try:
            return [_ack_body(conn.roundtrip(frame)) for frame in frames]
        finally:
            conn.close()
            server.shutdown()

    def test_duplicate_inside_one_batch(self):
        frames = [_report(3, 1, 2, 5), _report(4), _report(3, 1, 2, 6, sign=-1)]
        (body,) = self._roundtrip(_hist_config(), _batch(frames))
        assert not body["ok"]
        assert [(i, code) for i, code, _ in body["errors"]] == [(2, "duplicate")]

    def test_mixed_bounds_and_ok_records(self):
        cfg = _hist_config()
        hh = derive_hh_params(cfg.d, cfg.n, cfg.eps, cfg.beta, cfg.k_override)
        m_fo = derive_fo_params(cfg.d, cfg.n, hh.eps_channel, cfg.beta / 3).m_fo
        frames = [
            _report(0),
            _report(1, t=hh.T),  # t >= T
            _report(2, k=hh.K),  # k >= K
            _report(3, position=build_code(cfg.d, cfg.code_kind).m),  # position >= m
            _report(4, position=m_fo - 1, msg_type=MSG_FO_REPORT),
            _report(5, position=m_fo, msg_type=MSG_FO_REPORT),  # position >= m_fo
            _report(cfg.n),  # user_id >= n
            _report(cfg.n - 1, t=hh.T - 1, k=hh.K - 1),
        ]
        (body,) = self._roundtrip(cfg, _batch(frames))
        assert [(i, code) for i, code, _ in body["errors"]] == [
            (1, "bounds"), (2, "bounds"), (3, "bounds"), (5, "bounds"), (6, "bounds")]
        assert body["errors"][4][2] == f"report of user {cfg.n} is out of range for this session"

    def test_user_id_at_n_refused_as_bounds(self):
        # One-frame submissions take the same record path as batches.
        bodies = self._roundtrip(
            FO_CONFIG,
            _report(FO_CONFIG.n, msg_type=MSG_FO_REPORT),
            _report(2**64 - 1, msg_type=MSG_FO_REPORT),
            _report(FO_CONFIG.n - 1, msg_type=MSG_FO_REPORT),
        )
        assert [b.get("code") for b in bodies] == ["bounds", "bounds", None]
        assert bodies[2] == {"ok": True}

    @pytest.mark.parametrize("one_bit, frame", [
        (False, encode_frame(MSG_ONE_BIT, OneBitPayload(0, 1).pack())),
        (True, _report(0, msg_type=MSG_FO_REPORT)),
    ], ids=["bit-to-report-session", "report-to-one-bit-session"])
    def test_wrong_report_kind_refused_as_bounds(self, one_bit, frame):
        cfg = SessionConfig(protocol="fo", d=8, n=10, eps=0.5, beta=0.2, seed=3, one_bit=one_bit)
        (body,) = self._roundtrip(cfg, _batch([frame]))
        assert [code for _, code, _ in body["errors"]] == ["bounds"]

    def test_batch_after_close(self):
        frames = [_report(user, msg_type=MSG_FO_REPORT) for user in range(3)]
        server = AggregationServer(FO_CONFIG)
        addr = server.start()
        try:
            client_submit(addr, frames[:1])
            client_close(addr)
            conn = _Connection(addr)
            body = _ack_body(conn.roundtrip(_batch(frames)))
            conn.close()
        finally:
            server.shutdown()
        assert [(i, code) for i, code, _ in body["errors"]] == [
            (0, "session-closed"), (1, "session-closed"), (2, "session-closed")]

    @pytest.mark.parametrize("offset, value", [(0, 0x58), (4, 9), (5, MSG_ACK), (5, MSG_ONE_BIT),
                                               (6, 18), (28, 7)],
                             ids=["magic", "version", "type", "bit-type", "length", "sign"])
    def test_one_garbled_record_refuses_the_batch(self, offset, value):
        cfg, frames, expected = _hist_session(44, 2)
        garbled = bytearray(frames[7])
        garbled[offset] = value
        server = AggregationServer(cfg)
        addr = server.start()
        conn = _Connection(addr)
        try:
            body = _ack_body(conn.roundtrip(_batch(frames[:7] + [bytes(garbled)] + frames[8:20])))
            assert not body["ok"] and body["code"] == "bad-frame"
            assert "record 7" in body["error"]
            acks = client_submit(addr, frames)  # nothing was absorbed, so nothing is a duplicate
            assert all(a["ok"] for a in acks)
            result = client_close(addr)
        finally:
            conn.close()
            server.shutdown()
        assert result == expected

    def test_client_submit_expands_acks_in_order(self):
        # A malformed batch's one ack stands for every frame it carried.
        garbled = bytearray(_report(1, msg_type=MSG_FO_REPORT))
        garbled[-1] = 7
        good = [_report(user, msg_type=MSG_FO_REPORT) for user in range(3)]
        server = AggregationServer(FO_CONFIG)
        addr = server.start()
        try:
            first = client_submit(addr, good[:1] + [bytes(garbled)] + good[1:])
            second = client_submit(addr, good + [CLOSE[:-1] + b"x"] + good)
        finally:
            server.shutdown()
        assert [a["code"] for a in first] == ["bad-frame"] * 4
        assert [a.get("code") for a in second] == [None] * 3 + ["bad-frame"] + ["duplicate"] * 3

    def test_batch_size_limit(self):
        # client_submit splits 2,300 report frames into batches that fit
        # MAX_REQUEST_PAYLOAD; a batch header declaring more is refused
        # before its payload is read, and the connection is closed.
        cfg = SessionConfig(protocol="fo", d=8, n=3000, eps=1.0, beta=0.2, seed=3)
        frames = [_report(user, msg_type=MSG_FO_REPORT) for user in range(2300)]
        over = encode_frame(MSG_BATCH, b"")[:-4] + (MAX_REQUEST_PAYLOAD + 1).to_bytes(4, "little")
        server = AggregationServer(cfg)
        addr = server.start()
        conn = _Connection(addr)
        try:
            assert client_submit(addr, frames) == [{"ok": True}] * len(frames)
            conn.sock.settimeout(5.0)
            body = _ack_body(conn.roundtrip(over))
            assert not body["ok"] and body["code"] == "bad-frame"
            assert conn.rfile.read(1) == b""
        finally:
            conn.close()
            server.shutdown()

    def test_hist_session_with_too_many_channels_refused(self):
        for k_override in (100_000, None):  # None: K = floor(n^1.5)
            cfg = SessionConfig(protocol="hist", d=16, n=2000, eps=2.0, beta=0.5,
                                seed=1, k_override=k_override)
            with pytest.raises(ValueError, match="K\\*T"):
                AggregationServer(cfg)

    def test_hist_universe_above_hash_prime_refused(self):
        # The concatenated code reaches 2^64, but channel_of raises for
        # any item >= 2^61 - 1.
        cfg = SessionConfig(protocol="hist", d=2**62, n=1000, eps=2.0, beta=0.5,
                            seed=1, k_override=8, code_kind="concatenated")
        with pytest.raises(ValueError, match="2\\^61 - 1"):
            _SessionState(cfg)

    def test_fo_universe_above_cap_refused(self):
        # A close would estimate every one of the d items under the lock.
        cfg = SessionConfig(protocol="fo", d=2**16 + 1, n=1000, eps=1.0, beta=0.2, seed=1)
        with pytest.raises(ValueError, match="cap is 65536"):
            _SessionState(cfg)

    def test_stats_after_mixed_upload(self):
        frames = [_report(0, msg_type=MSG_FO_REPORT), _report(0, msg_type=MSG_FO_REPORT),
                  _report(FO_CONFIG.n, msg_type=MSG_FO_REPORT), _report(1)]
        stats = encode_frame(MSG_CONTROL, json.dumps({"action": "stats"}).encode("utf-8"))
        batch, body = self._roundtrip(FO_CONFIG, _batch(frames), stats)
        assert [(i, code) for i, code, _ in batch["errors"]] == [
            (1, "duplicate"), (2, "bounds"), (3, "bounds")]
        assert body == {
            "ok": True,
            "absorbed": 1,
            "bytes_read": len(_batch(frames)) + len(stats),
            "rejected": {"bounds": 2, "duplicate": 1, "session-closed": 0, "bad-frame": 0},
            "oracle_n_total": 1,
            "channels_occupied": 0,
            "channel_n_total_min": None,
            "channel_n_total_max": None,
        }

    def test_stats_count_oracle_and_channel_reports(self):
        # Channel (0, 1) gets two reports, (2, 7) one, the oracle two; the
        # repeat of user 0's (0, 1) report and the out-of-bounds one count
        # nowhere.
        frames = [_report(0, 0, 1), _report(1, 0, 1, sign=-1), _report(0, 2, 7),
                  _report(0, 0, 1), _report(0, 3, 0), _report(0, msg_type=MSG_FO_REPORT),
                  _report(5, position=9, msg_type=MSG_FO_REPORT)]
        stats = encode_frame(MSG_CONTROL, json.dumps({"action": "stats"}).encode("utf-8"))
        _, body = self._roundtrip(_hist_config(), _batch(frames), stats)
        assert body["absorbed"] == 5
        assert (body["oracle_n_total"], body["channels_occupied"]) == (2, 2)
        assert (body["channel_n_total_min"], body["channel_n_total_max"]) == (1, 2)

    def test_close_aggregates_are_views_of_the_session_counts(self):
        state = _SessionState(_hist_config())
        frames = [_report(0, 0, 1, position=3), _report(1, 0, 1, position=3, sign=-1),
                  _report(2, 2, 7), _report(0, msg_type=MSG_FO_REPORT),
                  _report(1, position=5, sign=-1, msg_type=MSG_FO_REPORT)]
        assert not state.absorb(_decode_batch(b"".join(frames))).any()
        fo_agg, pp_aggs = state._aggregates()
        assert sorted(pp_aggs) == [(0, 1), (2, 7)]
        for agg in [fo_agg, *pp_aggs.values()]:
            assert np.shares_memory(agg.plus, state.counts)
            assert np.shares_memory(agg.minus, state.counts)
        assert (pp_aggs[(0, 1)].plus[3], pp_aggs[(0, 1)].minus[3]) == (1, 1)
        assert (fo_agg.plus[0], fo_agg.minus[5], fo_agg.n_total) == (1, 1, 2)
        totals = [agg.n_total for agg in pp_aggs.values()]
        stats = state.stats()
        assert (stats["oracle_n_total"], stats["channels_occupied"]) == (fo_agg.n_total, 2)
        assert (stats["channel_n_total_min"], stats["channel_n_total_max"]) == (
            min(totals), max(totals))

    def test_stats_read_the_last_channel_row(self):
        # Channel (T - 1, K - 1) is row K*T - 1, the last before the oracle's
        # counts; of the other channels only (0, 0) holds a report.
        state = _SessionState(_hist_config())
        T, K, m = state.T, state.K, state.m
        frames = [_report(0, T - 1, K - 1, position=m - 1, sign=-1), _report(1, T - 1, K - 1),
                  _report(2, T - 1, K - 1, position=m - 1), _report(0, 0, 0, position=m - 1),
                  _report(0, msg_type=MSG_FO_REPORT)]
        assert not state.absorb(_decode_batch(b"".join(frames))).any()
        fo_agg, pp_aggs = state._aggregates()
        assert sorted(pp_aggs) == [(0, 0), (T - 1, K - 1)] and fo_agg.n_total == 1
        stats = state.stats()
        assert (stats["oracle_n_total"], stats["channels_occupied"]) == (1, 2)
        assert (stats["channel_n_total_min"], stats["channel_n_total_max"]) == (1, 3)

    def test_stats_count_accepted_one_bit_users(self):
        # Every accepted bit stands for one report in the oracle and in
        # each of the K*T = 24 channels.
        cfg = SessionConfig(protocol="hist", d=16, n=2000, eps=0.69, beta=0.5,
                            seed=1, k_override=8, one_bit=True)
        frames = [encode_frame(MSG_ONE_BIT, OneBitPayload(user, bit).pack())
                  for user, bit in enumerate([1, 0, 1, 1, 0])]
        stats = encode_frame(MSG_CONTROL, json.dumps({"action": "stats"}).encode("utf-8"))
        _, body = self._roundtrip(cfg, _batch(frames), stats)
        assert body["absorbed"] == 5
        assert (body["oracle_n_total"], body["channels_occupied"]) == (3, 24)
        assert (body["channel_n_total_min"], body["channel_n_total_max"]) == (3, 3)


class TestServerLifetime:
    def test_shutdown_without_start_returns(self):
        server = AggregationServer(FO_CONFIG)
        th = threading.Thread(target=server.shutdown, daemon=True)
        th.start()
        th.join(5.0)
        assert not th.is_alive()

    def test_stalled_client_is_dropped(self, monkeypatch):
        monkeypatch.setattr(transport, "READ_TIMEOUT_S", 0.2)
        server = AggregationServer(FO_CONFIG)
        addr = server.start()
        stalled = _Connection(addr)
        try:
            stalled.sock.settimeout(5.0)
            stalled.sock.sendall(CLOSE[:5])  # half a header, then silence
            assert stalled.rfile.read(1) == b""  # the server closed the connection
            acks = client_submit(addr, [_report(0, msg_type=MSG_FO_REPORT)])
            assert acks == [{"ok": True}]
        finally:
            stalled.close()
            server.shutdown()

    def test_failed_request_logged_and_server_keeps_serving(self, monkeypatch, caplog):
        def broken_finalize(state):
            raise RuntimeError("finalize broke")

        monkeypatch.setattr(_SessionState, "finalize", broken_finalize)
        server = AggregationServer(FO_CONFIG)
        addr = server.start()
        # Nine failed requests, each on its own connection, then one more.
        conns = [_Connection(addr) for _ in range(10)]
        try:
            with caplog.at_level(logging.ERROR, logger="ldphist.service"):
                for conn in conns[:-1]:
                    conn.sock.settimeout(5.0)
                    conn.sock.sendall(CLOSE)
                    # The error is logged before its connection closes.
                    assert conn.rfile.read(1) == b""
            records = [r for r in caplog.records if r.name == "ldphist.service"]
            assert len(records) == 9
            assert all(r.levelno == logging.ERROR and r.exc_info[0] is RuntimeError
                       for r in records)
            conns[-1].sock.settimeout(5.0)
            stats = encode_frame(MSG_CONTROL, json.dumps({"action": "stats"}).encode("utf-8"))
            body = _ack_body(conns[-1].roundtrip(stats))
            assert body["ok"] and body["absorbed"] == 0
            # A failed close leaves the session open.
            assert client_submit(addr, [_report(0, msg_type=MSG_FO_REPORT)]) == [{"ok": True}]
        finally:
            for conn in conns:
                conn.close()
            server.shutdown()


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


class TestServiceLoop:
    """One loop thread serves every connection: none holds it by being
    silent, slow or by never reading its replies."""

    def test_concurrent_uploads_are_all_acked(self):
        cfg = SessionConfig(protocol="fo", d=8, n=16, eps=1.0, beta=0.2, seed=3)
        server = AggregationServer(cfg)
        addr = server.start()
        acks = [None] * cfg.n

        def upload(user):
            acks[user] = client_submit(addr, [_report(user, msg_type=MSG_FO_REPORT)])

        threads = [threading.Thread(target=upload, args=(u,), daemon=True) for u in range(cfg.n)]
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(10.0)
            assert not any(th.is_alive() for th in threads)
            assert acks == [[{"ok": True}]] * cfg.n
            assert server.state.stats()["absorbed"] == cfg.n
        finally:
            server.shutdown()

    def test_shutdown_closes_every_connection(self):
        before = set(threading.enumerate())
        server = AggregationServer(FO_CONFIG)
        addr = server.start()
        conns = [_Connection(addr) for _ in range(16)]
        try:
            conns[0].sock.sendall(CLOSE[:5])  # half a header
            assert _ack_body(conns[1].roundtrip(_report(0, msg_type=MSG_FO_REPORT)))["ok"]
            assert len(set(threading.enumerate()) - before) <= 2
            th = threading.Thread(target=server.shutdown, daemon=True)
            th.start()
            th.join(1.0)
            assert not th.is_alive()
            for conn in conns:
                conn.sock.settimeout(5.0)
                assert conn.rfile.read(1) == b""
        finally:
            for conn in conns:
                conn.close()
            server.shutdown()

    def test_shutdown_sends_the_reply_of_a_close_in_flight(self, monkeypatch):
        # `ldphist serve` shuts down once the result is set, which happens
        # before the close's reply reaches the loop.
        real, closed = _SessionState.close, threading.Event()

        def close(state):
            result = real(state)
            closed.set()
            time.sleep(0.2)
            return result

        monkeypatch.setattr(_SessionState, "close", close)
        server = AggregationServer(FO_CONFIG)
        addr = server.start()
        conn = _Connection(addr)
        try:
            assert client_submit(addr, [_report(0, msg_type=MSG_FO_REPORT)]) == [{"ok": True}]
            conn.sock.settimeout(5.0)
            conn.sock.sendall(CLOSE)
            assert closed.wait(5.0)
            server.shutdown()
            msg_type, payload = read_frame(conn.rfile)
            assert msg_type == MSG_RESULT and payload.decode("utf-8") == server.state.result_csv
        finally:
            conn.close()
            server.shutdown()

    def test_closes_beyond_the_workers_wait_with_threads_bounded(self, monkeypatch):
        entered, release = threading.Event(), threading.Event()
        real = _SessionState.finalize

        def slow_finalize(state):
            entered.set()
            release.wait(10.0)
            return real(state)

        monkeypatch.setattr(_SessionState, "finalize", slow_finalize)
        before = set(threading.enumerate())
        server = AggregationServer(FO_CONFIG)
        addr = server.start()
        conns = [_Connection(addr) for _ in range(4)]
        try:
            assert client_submit(addr, [_report(0, msg_type=MSG_FO_REPORT)]) == [{"ok": True}]
            read = server.state.stats()["bytes_read"]
            for conn in conns:
                conn.sock.settimeout(5.0)
                conn.sock.sendall(CLOSE)
            assert entered.wait(5.0)
            _wait_for(lambda: server.state.stats()["bytes_read"] == read + len(conns) * len(CLOSE))
            assert len(set(threading.enumerate()) - before) <= 2
            release.set()
            for conn in conns:
                msg_type, payload = read_frame(conn.rfile)
                assert msg_type == MSG_RESULT and payload.decode("utf-8") == server.state.result_csv
        finally:
            release.set()
            for conn in conns:
                conn.close()
            server.shutdown()

    def test_shutdown_returns_while_a_close_reply_is_unread(self, monkeypatch):
        closed = threading.Event()

        def close(state):
            closed.set()
            return "0" * (8 << 20)  # more than the socket buffers hold

        monkeypatch.setattr(_SessionState, "close", close)
        server = AggregationServer(FO_CONFIG)
        conn = _Connection(server.start())
        try:
            conn.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            conn.sock.sendall(CLOSE)  # and never read the reply
            assert closed.wait(5.0)
            time.sleep(0.1)
            th = threading.Thread(target=server.shutdown, daemon=True)
            start = time.monotonic()
            th.start()
            th.join(10.0)
            assert not th.is_alive() and time.monotonic() - start < transport._GRACE_S + 0.5
        finally:
            conn.close()
            server.shutdown()

    def test_slow_reader_of_a_long_reply_is_not_dropped(self, monkeypatch):
        # The reply takes several READ_TIMEOUT_S to read, but each read
        # takes some of it.
        monkeypatch.setattr(transport, "READ_TIMEOUT_S", 0.2)
        reply = "0" * (2 << 20)
        monkeypatch.setattr(_SessionState, "close", lambda state: reply)
        server = AggregationServer(FO_CONFIG)
        # Accepted sockets inherit it: most of the reply waits in the service.
        server.socket.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        conn = _Connection(server.start())
        try:
            conn.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 65536)
            conn.sock.settimeout(5.0)
            conn.sock.sendall(CLOSE)
            data = bytearray()
            while len(data) < len(reply) + 10:
                time.sleep(0.01)
                chunk = conn.sock.recv(16384)
                assert chunk, f"dropped after {len(data)} bytes"
                data += chunk
            assert decode_frame(bytes(data)) == (MSG_RESULT, reply.encode("utf-8"), len(data))
        finally:
            conn.close()
            server.shutdown()

    def test_silent_connections_do_not_delay_stats(self):
        server = AggregationServer(FO_CONFIG)
        addr = server.start()
        silent = [_Connection(addr) for _ in range(17)]
        conn = _Connection(addr)
        try:
            silent[-1].sock.sendall(CLOSE[:5])  # half a header, then silence
            conn.sock.settimeout(5.0)
            start = time.monotonic()
            assert _ack_body(conn.roundtrip(STATS))["ok"]
            assert time.monotonic() - start < 2.0
        finally:
            for c in silent + [conn]:
                c.close()
            server.shutdown()

    def test_frame_sent_one_byte_per_send_is_acked(self):
        server = AggregationServer(FO_CONFIG)
        conn = _Connection(server.start())
        try:
            conn.sock.settimeout(5.0)
            conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            frame = _batch([_report(user, msg_type=MSG_FO_REPORT) for user in range(3)])
            for i in range(len(frame)):
                conn.sock.send(frame[i : i + 1])
            assert _ack_body(read_frame(conn.rfile)) == {"ok": True, "errors": []}
        finally:
            conn.close()
            server.shutdown()

    def test_two_frames_in_one_send_get_two_replies_in_order(self):
        server = AggregationServer(FO_CONFIG)
        conn = _Connection(server.start())
        try:
            conn.sock.settimeout(5.0)
            report = _report(0, msg_type=MSG_FO_REPORT)
            conn.sock.sendall(report + report)
            assert _ack_body(read_frame(conn.rfile)) == {"ok": True}
            assert _ack_body(read_frame(conn.rfile))["code"] == "duplicate"
        finally:
            conn.close()
            server.shutdown()

    def test_client_that_never_reads_does_not_block_others(self):
        # The writer pipelines stats requests until its send times out,
        # which happens once the service stops reading from it.
        server = AggregationServer(FO_CONFIG)
        addr = server.start()
        writer, stalled = _Connection(addr), threading.Event()

        def pipeline():
            writer.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)  # fills sooner
            writer.sock.settimeout(0.5)
            try:
                while True:
                    writer.sock.sendall(STATS * 64)
            except socket.timeout:
                stalled.set()

        th = threading.Thread(target=pipeline, daemon=True)
        try:
            th.start()
            assert stalled.wait(30.0)
            socket.setdefaulttimeout(5.0)  # the upload's own socket: fail, not hang
            acks = client_submit(addr, [_report(0, msg_type=MSG_FO_REPORT)])
            assert acks == [{"ok": True}]
        finally:
            socket.setdefaulttimeout(None)
            writer.close()
            server.shutdown()
            th.join(5.0)
        assert not th.is_alive()

    def test_pipelined_stats_do_not_hold_another_upload(self):
        # 8,190 channels make each stats answer cost about 0.5 ms, so the
        # whole pipeline takes about a second to answer.
        cfg = SessionConfig(protocol="hist", d=16, n=200, eps=2.0, beta=0.5, seed=42,
                            k_override=2730)
        server = AggregationServer(cfg)
        addr = server.start()
        pipe, replies = _Connection(addr), []

        def read_replies():
            with contextlib.suppress(TransportError, OSError):
                while True:
                    replies.append(read_frame(pipe.rfile))

        reader = threading.Thread(target=read_replies, daemon=True)
        try:
            assert server.state.K * server.state.T == 8190
            reader.start()
            pipe.sock.sendall(STATS * 2000)
            _wait_for(lambda: replies)
            socket.setdefaulttimeout(5.0)  # the upload's own socket: fail, not hang
            start = time.monotonic()
            acks = client_submit(addr, [_report(0, msg_type=MSG_FO_REPORT)])
            answered = len(replies)
            assert acks == [{"ok": True}]
            assert time.monotonic() - start < 0.3 and answered < 2000
        finally:
            socket.setdefaulttimeout(None)
            server.shutdown()  # with most of the pipeline unanswered: the reader ends
            reader.join(5.0)
            pipe.close()
        assert not reader.is_alive()


class TestCloseOffTheLock:
    def test_stats_and_uploads_answered_during_a_slow_close(self, monkeypatch):
        entered, release = threading.Event(), threading.Event()
        real, calls = _SessionState.finalize, []

        def slow_finalize(state):
            calls.append(state)
            entered.set()
            release.wait(10.0)
            return real(state)

        monkeypatch.setattr(_SessionState, "finalize", slow_finalize)
        server = AggregationServer(FO_CONFIG)
        addr = server.start()
        results = []
        closes = [threading.Thread(target=lambda: results.append(client_close(addr)))
                  for _ in range(2)]
        conn = _Connection(addr)
        try:
            conn.sock.settimeout(5.0)
            assert client_submit(addr, [_report(0, msg_type=MSG_FO_REPORT)]) == [{"ok": True}]
            read = server.state.stats()["bytes_read"]
            for th in closes:
                th.start()
            # One close is being decoded and the other has been read.
            assert entered.wait(5.0)
            _wait_for(lambda: server.state.stats()["bytes_read"] == read + 2 * len(CLOSE))
            stats = encode_frame(MSG_CONTROL, json.dumps({"action": "stats"}).encode("utf-8"))
            assert _ack_body(conn.roundtrip(stats))["absorbed"] == 1
            body = _ack_body(conn.roundtrip(_report(1, msg_type=MSG_FO_REPORT)))
            assert not body["ok"] and body["code"] == "session-closed"
            release.set()
            for th in closes:
                th.join(10.0)
            assert not any(th.is_alive() for th in closes)
            assert len(calls) == 1 and len(results) == 2 and results[0] == results[1]
            assert results[0] == server.state.result_csv
            assert _ack_body(conn.roundtrip(stats))["rejected"]["session-closed"] == 1
        finally:
            release.set()
            conn.close()
            server.shutdown()

    def test_uploads_racing_a_close_are_counted_or_refused(self):
        # Every upload is acked "ok" and counted in the close, or refused
        # with "session-closed" and left out of it.
        cfg = SessionConfig(protocol="fo", d=8, n=400, eps=1.0, beta=0.2, seed=3)
        frames = [_report(user, position=user % 7, sign=1 - 2 * (user % 2), msg_type=MSG_FO_REPORT)
                  for user in range(cfg.n)]
        server = AggregationServer(cfg)
        addr = server.start()
        acks = {}

        def upload(users):
            conn = _Connection(addr)
            try:
                for user in users:
                    acks[user] = _ack_body(conn.roundtrip(frames[user]))
            finally:
                conn.close()

        threads = [threading.Thread(target=upload, args=(range(i, cfg.n, 4),)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for th in threads:
                th.start()
            _wait_for(lambda: len(acks) > cfg.n // 4)
            result = client_close(addr)
            for th in threads:
                th.join(10.0)
            assert not any(th.is_alive() for th in threads)
        finally:
            sys.setswitchinterval(interval)
            server.shutdown()
        accepted = [user for user in range(cfg.n) if acks[user]["ok"]]
        assert all(acks[user]["code"] == "session-closed"
                   for user in range(cfg.n) if not acks[user]["ok"])
        replay = _SessionState(cfg)
        replay.absorb(_decode_batch(b"".join(frames[user] for user in accepted)))
        assert result == replay.finalize()
