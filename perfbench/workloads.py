"""The four benchmark workloads and the checks on their outputs.

Every input is made from the workload seed: trial ``i`` of a workload uses
the dataset, public coins and private randomness derived from
``(seed, i)``, and the program sees only those inputs.  The program is
called through module attributes (``freq_oracle.fo_estimate_many``, not
a name imported from it), so that a traced run sees every call.

Checks come in two kinds.  Per-operation checks are deterministic
invariants, and a breach marks that operation failed.  Accuracy is
checked once per run against generous limits, and a breach fails the run.
"""

from __future__ import annotations

import math
import threading
import time

import numpy as np

from ldphist import codec, core, freq_oracle, harness, heavy_hitter, onebit, transport

from .server import ServerProcess

# The pinned configurations (see README.md for where each comes from).
CONFIGS = {
    "oracle": dict(d=1024, n=100_000, eps=1.0, beta=0.1),
    "histogram": dict(d=1024, n=100_000, eps=2.0, beta=0.5, k_per_user=10, code="reference"),
    "onebit": dict(d=1024, n=20_000, eps=math.log(2), beta=0.5, K=8, code="reference",
                   planted=0.3),
    "service": dict(d=1024, n=2_000, eps=6.0, beta=0.5, K=8, code="reference", planted=0.5,
                    clients=2, sessions=6),
}


def _rng(seed: int, workload: str, i: int, stream: int) -> np.random.Generator:
    tag = int.from_bytes(workload.encode("ascii"), "little")
    return np.random.default_rng([seed, tag, i, stream])


def _dataset(kind: str, d: int, n: int, seed: int, i: int, planted=()) -> np.ndarray:
    spec = harness.DatasetSpec(kind=kind, d=d, n=n, seed=(seed << 24) | i, planted=planted)
    return harness.gen_dataset(spec)


def _histogram_problems(entries, threshold: float) -> list:
    problems = []
    for item, f in entries:
        if not (0.0 <= f <= 1.0):
            problems.append(f"estimate {f} of item {item} outside [0, 1]")
        if f < threshold:
            problems.append(f"estimate {f} of item {item} below the threshold {threshold}")
    return problems


def _finite_problems(candidates) -> list:
    bad = [(v, f) for v, f in candidates if not math.isfinite(f)]
    return [f"non-finite candidate estimates {bad}"] if bad else []


class OracleWorkload:
    """Criterion 5's largest point: simulate every user's report, then
    estimate every item of the universe."""

    name = "oracle"

    def __init__(self, cfg: dict, seed: int):
        self.cfg, self.seed = cfg, seed
        self.params = core.derive_fo_params(cfg["d"], cfg["n"], cfg["eps"], cfg["beta"])
        self.universe = np.arange(cfg["d"])

    def derived(self) -> dict:
        return {"m_fo": self.params.m_fo}

    def inputs(self, i: int):
        items = _dataset("uniform", self.cfg["d"], self.cfg["n"], self.seed, i)
        pub = core.PublicRandomness.from_any(f"bench:oracle:{self.seed}:{i}")
        return items, pub, _rng(self.seed, self.name, i, 0)

    def trial(self, inputs):
        items, pub, rng = inputs
        agg = freq_oracle.fo_simulate_reports(items, self.params.m_fo, self.cfg["eps"], pub, rng)
        return agg, freq_oracle.fo_estimate_many(agg, pub, self.universe)

    def check(self, inputs, out):
        agg, est = out
        problems = []
        if agg.n_total != self.cfg["n"]:
            problems.append(f"aggregate holds {agg.n_total} reports, fed {self.cfg['n']}")
        if not np.all(np.isfinite(est)):
            problems.append("non-finite oracle estimates")
        truth = harness.truth_frequencies(inputs[0], self.cfg["d"])
        return problems, float(np.max(np.abs(est - truth)))

    def accuracy_limit(self) -> float:
        """Criterion 5's bound on the median worst-case error."""
        c = self.cfg
        return 3 * math.sqrt(math.log(2 * c["d"] / c["beta"]) / (c["eps"] ** 2 * c["n"]))

    def check_run(self, linfs) -> list:
        median, limit = float(np.median(linfs)), self.accuracy_limit()
        if median > limit:
            return [f"median linf {median:.4f} exceeds the criterion-5 bound {limit:.4f}"]
        return []


class HistogramWorkload:
    """Criterion 7's point in fast mode: two planted heavy items, the rest
    uniform; one trial is one ``hh_execute``."""

    name = "histogram"

    def __init__(self, cfg: dict, seed: int):
        self.cfg, self.seed = cfg, seed
        d, n = cfg["d"], cfg["n"]
        self.hh = core.derive_hh_params(d, n, cfg["eps"], cfg["beta"], cfg["k_per_user"] * n)
        self.fo = core.derive_fo_params(d, n, self.hh.eps_channel, cfg["beta"] / 3)
        self.code = codec.build_code(d, cfg["code"])
        self.planted = ((d - 2, 0.3), (d - 1, 0.2))

    def derived(self) -> dict:
        return {"m_fo": self.fo.m_fo, "K": self.hh.K, "T": self.hh.T, "code_m": self.code.m,
                "eps_channel": self.hh.eps_channel, "threshold": self.hh.threshold}

    def inputs(self, i: int):
        items = _dataset("planted", self.cfg["d"], self.cfg["n"], self.seed, i, self.planted)
        pub = core.PublicRandomness.from_any(f"bench:histogram:{self.seed}:{i}")
        return items, pub, _rng(self.seed, self.name, i, 0)

    def trial(self, inputs):
        items, pub, rng = inputs
        return heavy_hitter.hh_execute(items, self.code, self.hh, self.fo, pub, rng, mode="fast")

    def check(self, inputs, res):
        n = self.cfg["n"]
        problems = [
            f"channel {key} holds {agg.n_total} reports, fed {n}"
            for key, agg in sorted(res.pp_aggs.items()) if agg.n_total != n
        ]
        if res.fo_agg.n_total != n:
            problems.append(f"oracle aggregate holds {res.fo_agg.n_total} reports, fed {n}")
        problems += _finite_problems(res.candidates)
        problems += _histogram_problems(res.histogram.entries, self.hh.threshold)
        found = set(res.histogram.items())
        return problems, sum(v in found for v, _ in self.planted) / len(self.planted)

    def check_run(self, recalls) -> list:
        mean = float(np.mean(recalls))
        return [] if mean >= 0.5 else [f"planted-item recall {mean:.2f} below 0.5"]


class OneBitWorkload:
    """The ``hist --one-bit`` path: every user sends one accept bit and the
    server regenerates the accepted users' public strings."""

    name = "onebit"

    def __init__(self, cfg: dict, seed: int):
        self.cfg, self.seed = cfg, seed
        d, n = cfg["d"], cfg["n"]
        self.hh = core.derive_hh_params(d, n, cfg["eps"], cfg["beta"], cfg["K"])
        self.fo = core.derive_fo_params(d, n, self.hh.eps_channel, cfg["beta"] / 3)
        self.code = codec.build_code(d, cfg["code"])
        item = int(_rng(seed, self.name, 0, 1).integers(d))
        self.planted = ((item, cfg["planted"]),)

    def derived(self) -> dict:
        return {"m_fo": self.fo.m_fo, "K": self.hh.K, "T": self.hh.T, "code_m": self.code.m,
                "eps_channel": self.hh.eps_channel, "threshold": self.hh.threshold,
                "planted_item": self.planted[0][0]}

    def inputs(self, i: int):
        items = _dataset("planted", self.cfg["d"], self.cfg["n"], self.seed, i, self.planted)
        pub = core.PublicRandomness.from_any(f"bench:onebit:{self.seed}:{i}")
        return items.tolist(), pub, _rng(self.seed, self.name, i, 0), i

    def trial(self, inputs):
        items, pub, rng, run_id = inputs
        structure = onebit.OneBitStructure.from_params(self.code, self.hh, self.fo, pub, run_id)
        public_string, accept = onebit.PublicString, onebit.acceptance_prob
        bits = []
        for user, v in enumerate(items):
            y = public_string(structure=structure, user_id=user)
            bits.append((user, int(rng.random() < accept(v, y, structure))))
        accepted = onebit.onebit_server_collect(bits, structure)
        pp_aggs = onebit.collect_pp_aggregates(accepted, structure)
        fo_agg = onebit.collect_fo_aggregate(accepted, structure)
        hist, candidates, _ = heavy_hitter.hh_finalize(pp_aggs, fo_agg, self.code, self.hh, pub)
        return accepted, pp_aggs, fo_agg, hist, candidates

    def check(self, inputs, out):
        accepted, pp_aggs, fo_agg, hist, candidates = out
        a = len(accepted)
        problems = [
            f"channel {key} holds {agg.n_total} reports, {a} users accepted"
            for key, agg in sorted(pp_aggs.items()) if agg.n_total != a
        ]
        if len(pp_aggs) != self.hh.K * self.hh.T:
            problems.append(f"{len(pp_aggs)} channel aggregates, expected K*T")
        if fo_agg.n_total != a:
            problems.append(f"oracle aggregate holds {fo_agg.n_total} reports, {a} accepted")
        problems += _finite_problems(candidates)
        problems += _histogram_problems(hist.entries, self.hh.threshold)
        return problems, a

    def check_run(self, accepted_counts) -> list:
        users = self.cfg["n"] * len(accepted_counts)
        rate = sum(accepted_counts) / users
        sigma = math.sqrt(0.25 / users)
        if abs(rate - 0.5) > 5 * sigma:
            return [f"acceptance rate {rate:.4f} is more than 5 sigma ({sigma:.4f}) from 1/2"]
        return []


TRIAL_WORKLOADS = {w.name: w for w in (OracleWorkload, HistogramWorkload, OneBitWorkload)}


# ---------------------------------------------------------------------------
# service
# ---------------------------------------------------------------------------

UPLOAD_ID_BITS = 20  # trace id of a user upload: session << 20 | user


def close_problems(close_csv: str, replay_csv: str) -> list:
    """The service's result must be byte-identical to the in-process replay."""
    if close_csv.encode("utf-8") != replay_csv.encode("utf-8"):
        return ["close result differs from the in-process replay of the same frames"]
    return []


def _parse_histogram_csv(text: str) -> list:
    lines = text.splitlines()
    if not lines or lines[0] != "item,estimated_frequency":
        raise ValueError(f"unexpected result header {lines[:1]!r}")
    return [(int(v), float(f)) for v, f in (line.split(",") for line in lines[1:])]


class ServiceWorkload:
    """``hist`` sessions against ``ldphist serve`` over loopback.  Each user
    uploads all its frames through ``client_submit`` on its own connection,
    from ``clients`` threads in a closed loop; each session ends with one
    ``client_close``.  Frames are made in set-up, and every session gets
    its own server process, started in set-up too."""

    name = "service"

    def __init__(self, cfg: dict, seed: int, root: str, sessions: int):
        self.cfg, self.seed = cfg, seed
        d, n = cfg["d"], cfg["n"]
        self.session_config = dict(d=d, n=n, eps=cfg["eps"], beta=cfg["beta"], seed=seed,
                                   K=cfg["K"], code=cfg["code"])
        self.servers = []
        try:
            # Start the servers first so that they boot while frames are made.
            for _ in range(sessions):
                self.servers.append(ServerProcess(root, self.session_config))
            self.pub = core.PublicRandomness.from_any(seed)
            self.hh = core.derive_hh_params(d, n, cfg["eps"], cfg["beta"], cfg["K"])
            self.fo = core.derive_fo_params(d, n, self.hh.eps_channel, cfg["beta"] / 3)
            self.code = codec.build_code(d, cfg["code"])
            item = int(_rng(seed, self.name, 0, 1).integers(d))
            self.planted = ((item, cfg["planted"]),)
            self.frames = self._make_frames()
            for server in self.servers:
                server.wait_ready()
        except BaseException:
            self.stop()
            raise

    def derived(self) -> dict:
        return {"m_fo": self.fo.m_fo, "K": self.hh.K, "T": self.hh.T, "code_m": self.code.m,
                "eps_channel": self.hh.eps_channel, "threshold": self.hh.threshold,
                "planted_item": self.planted[0][0],
                "frames_per_user": len(self.frames[0]), "sessions": len(self.servers)}

    def _make_frames(self) -> list:
        """Each user's frames: one report per (repetition, channel), then
        one oracle report, as a client device would send them."""
        cfg, hh = self.cfg, self.hh
        items = _dataset("planted", cfg["d"], cfg["n"], self.seed, 0, self.planted)
        rng = _rng(self.seed, self.name, 0, 0)
        seeds = heavy_hitter.draw_hash_seeds(self.pub, hh.T, hh.ell)
        encode, Report = transport.encode_frame, transport.ReportPayload
        pp_report, fo_report = heavy_hitter.pp_client_report, freq_oracle.fo_client_report
        frames = []
        for user, v in enumerate(items.tolist()):
            mine = []
            for t in range(hh.T):
                k_active = heavy_hitter.channel_of(seeds[t], v, hh.K)
                for k in range(hh.K):
                    rep = pp_report(v if k == k_active else heavy_hitter.BOT, self.code,
                                    hh.eps_channel, rng)
                    mine.append(encode(transport.MSG_PP_REPORT,
                                       Report(user, t, k, rep.position, rep.sign).pack()))
            rep = fo_report(v, self.fo, self.pub, hh.eps_channel, rng)
            mine.append(encode(transport.MSG_FO_REPORT,
                               Report(user, 0, 0, rep.position, rep.sign).pack()))
            frames.append(mine)
        return frames

    def run_session(self, s: int, seconds: float, tracer=None) -> dict:
        """Upload users to server ``s`` until ``seconds`` pass or every user
        is in, then close the session."""
        server = self.servers[s]
        lock = threading.Lock()
        order = iter(range(len(self.frames)))
        done, latencies, failures = [], [], []
        deadline = time.perf_counter() + seconds

        def client():
            while True:
                with lock:
                    user = next(order, None) if time.perf_counter() < deadline else None
                if user is None:
                    return
                if tracer is not None:
                    tracer.set_trace_id(s << UPLOAD_ID_BITS | user)
                started = time.perf_counter()
                try:
                    acks = transport.client_submit(server.address, self.frames[user])
                except Exception as exc:  # recorded as a failed upload
                    with lock:
                        failures.append(f"user {user}: {type(exc).__name__}: {exc}")
                    continue
                took = time.perf_counter() - started
                bad = [a for a in acks if not a.get("ok")]
                with lock:
                    if bad or len(acks) != len(self.frames[user]):
                        failures.append(f"user {user}: {len(bad)} rejected acks {bad[:1]}")
                    else:
                        done.append(user)
                        latencies.append(took)

        threads = [threading.Thread(target=client, daemon=True) for _ in range(self.cfg["clients"])]
        began = time.perf_counter()
        for th in threads:
            th.start()
        for th in threads:
            th.join(seconds + 120)
        wall = time.perf_counter() - began
        if any(th.is_alive() for th in threads):
            raise RuntimeError(f"session {s}: client threads did not finish")
        rss_kb = server.peak_rss_kb()
        close_s, close_csv = None, None
        if tracer is not None:
            tracer.set_trace_id(s << UPLOAD_ID_BITS | ((1 << UPLOAD_ID_BITS) - 1))
        started = time.perf_counter()
        try:
            close_csv = transport.client_close(server.address)
            close_s = time.perf_counter() - started
        except Exception as exc:  # recorded as a failed close
            failures.append(f"close: {type(exc).__name__}: {exc}")
        server.stop(grace=10.0 if close_csv is not None else 0.5)
        return dict(session=s, users=sorted(done), latencies=latencies, failures=failures,
                    wall=wall, close_s=close_s, close_csv=close_csv, server_rss_kb=rss_kb)

    def replay(self, users) -> tuple:
        """The same frames fed in process through the wire decoder and the
        aggregate, then through ``hh_finalize`` as the service does."""
        hh = self.hh
        fo_agg = freq_oracle.AggregateState(m=self.fo.m_fo, eps=hh.eps_channel)
        pp_aggs = {}
        for user in users:
            for frame in self.frames[user]:
                msg_type, payload, _ = transport.decode_frame(frame)
                rep = transport.ReportPayload.unpack(payload)
                if msg_type == transport.MSG_PP_REPORT:
                    agg = pp_aggs.get((rep.t, rep.k))
                    if agg is None:
                        agg = pp_aggs[(rep.t, rep.k)] = freq_oracle.AggregateState(
                            m=self.code.m, eps=hh.eps_channel)
                else:
                    agg = fo_agg
                agg.absorb_batch(np.array([rep.position]), np.array([rep.sign]))
        hist, _, _ = heavy_hitter.hh_finalize(pp_aggs, fo_agg, self.code, hh, self.pub)
        return hist.to_csv(), pp_aggs, fo_agg

    def check_session(self, sess: dict) -> list:
        """Problems with a closed session, from an in-process replay."""
        if sess["close_csv"] is None:
            return ["session was not closed"]
        users = sess["users"]
        replay_csv, pp_aggs, fo_agg = self.replay(users)
        problems = close_problems(sess["close_csv"], replay_csv)
        if len(pp_aggs) != self.hh.K * self.hh.T:
            problems.append(f"{len(pp_aggs)} channel aggregates, expected K*T")
        problems += [
            f"channel {key} holds {agg.n_total} reports, {len(users)} users uploaded"
            for key, agg in sorted(pp_aggs.items()) if agg.n_total != len(users)
        ]
        if fo_agg.n_total != len(users):
            problems.append(f"oracle aggregate holds {fo_agg.n_total}, {len(users)} uploaded")
        try:
            entries = _parse_histogram_csv(sess["close_csv"])
        except ValueError as exc:
            return problems + [f"unreadable close result: {exc}"]
        return problems + _histogram_problems(entries, self.hh.threshold)

    def stop(self) -> None:
        """Stop every server that is still up; sessions that were closed
        have stopped theirs already."""
        for server in self.servers:
            server.stop(grace=0.0)
