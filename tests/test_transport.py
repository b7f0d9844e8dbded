import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldphist.codec import build_code
from ldphist.core import PublicRandomness, derive_fo_params, derive_hh_params
from ldphist.freq_oracle import AggregateState, fo_client_report, fo_estimate_many
from ldphist.heavy_hitter import BOT, channel_of, draw_hash_seeds, hh_finalize, pp_client_report
from ldphist.onebit import OneBitStructure, PublicString, acceptance_prob, collect_fo_aggregate, onebit_server_collect
from ldphist.transport import (
    MSG_ACK,
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
    TruncatedFrameError,
    _Connection,
    _SessionState,
    client_close,
    client_submit,
    decode_frame,
    encode_frame,
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
        with pytest.raises(PayloadBoundsError):
            OneBitPayload.unpack(b"\x00" * 9_0)

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


class TestLoopback:
    def test_single_client_matches_in_process(self):
        cfg = _hist_config()
        rng = np.random.default_rng(0)
        pub, hh, fo, code, pp_frames, fo_frames = _generate_hist_reports(cfg, rng)
        expected = _finalize_in_process(pub, hh, fo, code, pp_frames, fo_frames)

        server = AggregationServer(cfg)
        addr = server.start()
        try:
            acks = client_submit(addr, pp_frames + fo_frames)
            assert all(a["ok"] for a in acks)
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
        structure = OneBitStructure.fo_only(fo.m_fo, cfg.eps, pub)
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


CLOSE = encode_frame(MSG_CONTROL, json.dumps({"action": "close"}).encode("utf-8"))


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
