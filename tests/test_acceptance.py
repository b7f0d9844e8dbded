"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here.  Criterion 7's per-trial estimate clause is
asserted exactly as stated.  The frequency oracle alone, running at
eps / (2T + 1), has noise floor c_{eps/(2T+1)} / sqrt(n) ~= 0.0223 at the
pinned parameters, so with oracle-only estimates a +-0.02 band would be a
0.9-sigma event per item (~40% for both planted items jointly).  The
published estimates also average each candidate's own channel in every
repetition; those channels run at the same eps / (2T + 1) and are already
charged to the budget, so the average is post-processing and shrinks the
noise by up to sqrt(T + 1).  The same +-0.02 band in criterion 6 sits at 7
sigma because the promise protocol runs at the full eps.  All other
clauses of criterion 7 are asserted first so a failure is attributable.
"""

import math
import threading
import time

import numpy as np
import pytest
from scipy import stats

from ldphist.codec import build_code, round_to_hypercube
from ldphist.core import PublicRandomness, c_eps, derive_fo_params, derive_hh_params
from ldphist.freq_oracle import (
    AggregateState,
    fo_client_report,
    fo_estimate_many,
    fo_simulate_reports,
)
from ldphist.heavy_hitter import (
    BOT,
    channel_of,
    draw_hash_seeds,
    hh_execute,
    hh_finalize,
    pp_client_report,
    pp_run,
)
from ldphist.onebit import (
    OneBitStructure,
    PublicString,
    acceptance_prob,
    collect_fo_aggregate,
    onebit_server_collect,
)
from ldphist.randomizer import (
    ChannelMatrix,
    amplified_epsilon,
    audit_ldp,
    compose,
    degrading_matrix,
    mutual_information,
    position_slice,
    randomizer_channel,
    report_distribution,
)
from ldphist.transport import (
    MSG_FO_REPORT,
    MSG_ONE_BIT,
    MSG_PP_REPORT,
    AggregationServer,
    OneBitPayload,
    ReportPayload,
    SessionConfig,
    client_close,
    client_submit,
    decode_frame,
    encode_frame,
)

pytestmark = pytest.mark.acceptance


def report(criterion: int, ok: bool, detail: str):
    print(f"[ACCEPTANCE] criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


def sign_vectors(m, values):
    return [np.array([1 - 2 * ((v >> i) & 1) for i in range(m)], dtype=np.int8) for v in values]


def all_sign_vectors(m):
    return sign_vectors(m, range(2**m))


class TestCriterion01Privacy:
    def test_exact_audit(self):
        started = time.time()
        worst = 0.0
        for m in (2, 8, 64):
            if m <= 8:
                inputs = all_sign_vectors(m)
            else:
                # all 2^64 vertices are not enumerable; a fixed sample plus
                # the two constant vertices realizes the extreme ratios
                rng = np.random.default_rng(640)
                picks = list(rng.integers(0, 2**63, 126)) + [0, 2**63 - 1]
                inputs = sign_vectors(m, picks)
                inputs.append(np.ones(m, dtype=np.int8))
                inputs.append(-np.ones(m, dtype=np.int8))
            for eps in (0.25, 1.0, math.log(2)):
                ch = randomizer_channel(inputs, m, eps)
                res = audit_ldp(ch)
                worst = max(worst, abs(res.eps_observed - eps))
                assert abs(res.eps_observed - eps) < 1e-9
                for j in range(m):
                    sliced = audit_ldp(position_slice(ch, j))
                    worst = max(worst, abs(sliced.eps_observed - eps))
                    assert abs(sliced.eps_observed - eps) < 1e-9
        elapsed = time.time() - started
        assert elapsed < 1.0
        report(1, True, f"randomizer audits exact to eps (worst gap {worst:.2e}), {elapsed:.2f}s")


class TestWholeUserPrivacy:
    """Directional audit of one faithful user's whole report set: the
    oracle report plus, in each of T repetitions, one report per channel:
    the codeword in the item's own channel, the zero input in every other.

    Given the public coins the reports are independent, so for an ordered
    pair (v, w) the sup of the whole set's log-likelihood ratio is the sum,
    over the reports, of each report's directional sup max_z log P_v(z) /
    P_w(z).  The budget charges (2T + 1) * eps_channel = eps, two channels
    per repetition; the exact maximum is (T + 1) * eps_channel.  Where v and
    w hash to different channels a and b, a's directional sup
    ln(2 e^e / (1 + e^e)) and b's ln((1 + e^e) / 2), at e = eps_channel,
    sum to eps_channel, and where they share a channel that channel alone
    gives eps_channel.  So the accounting has slack T * eps_channel.  (A
    per-report sum of audit_ldp, which maximizes over both orders of a
    pair, would overstate the total: it is not directional.)"""

    @pytest.mark.parametrize("eps, T, K", [(1.0, 2, 4), (2.0, 3, 4), (math.log(2), 1, 2)])
    def test_directional_audit_of_a_faithful_users_reports(self, eps, T, K):
        started = time.time()
        d, m_fo, eps_ch = 16, 8, eps / (2 * T + 1)
        code = build_code(d, "reference")
        pub = PublicRandomness.from_any(f"whole-user:{eps}:{T}:{K}")
        seeds = draw_hash_seeds(pub, T, 2 * code.t)
        # One pmf per item for each report: the oracle column, then channel (t, k).
        reports = [[report_distribution(pub.sign_array(("phi", v), m_fo), m_fo, eps_ch)
                    for v in range(d)]]
        for seed in seeds:
            own = [channel_of(seed, v, K) for v in range(d)]
            reports += [[report_distribution(code.encode(v) if own[v] == k else None, code.m, eps_ch)
                         for v in range(d)] for k in range(K)]
        total = np.zeros((d, d))  # [v, w]: the sum of directional sups
        for pmfs in reports:
            logp = np.log(np.array(pmfs))
            total += (logp[:, None, :] - logp[None, :, :]).max(axis=2)
        worst = float(total.max())
        assert worst <= eps + 1e-12
        assert abs(worst - (T + 1) * eps_ch) < 1e-9
        assert time.time() - started < 1.0


class TestCriterion02Unbiasedness:
    def test_closed_form_expectation(self):
        started = time.time()
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(100):
            m = int(rng.integers(1, 65))
            eps = float(rng.uniform(0.1, 4.0))
            x = rng.choice(np.array([-1, 1], dtype=np.int8), size=m)
            probs = report_distribution(x, m, eps)
            scale = c_eps(eps) * math.sqrt(m)
            expectation = scale * (probs[0::2] - probs[1::2])
            gap = float(np.max(np.abs(expectation - x / math.sqrt(m))))
            worst = max(worst, gap)
            assert gap < 1e-12
        elapsed = time.time() - started
        assert elapsed < 1.0
        report(2, True, f"E[report] = input exactly (worst gap {worst:.2e}), {elapsed:.2f}s")


class TestCriterion03RoundingLemma:
    def test_adversarial_constructions(self):
        started = time.time()
        rng = np.random.default_rng(3)
        eps0 = 1e-9
        checked = 0
        for code, trials in ((build_code(2**10, "reference"), 500),
                             (build_code(2**16, "concatenated"), 500)):
            m, zeta = code.m, code.zeta_eff
            k_cap = int(m * (1 - (1 - zeta / 4) ** 2)) + 1
            while trials > 0:
                v = int(rng.integers(0, code.d))
                s = code.encode(v).astype(np.float64)
                x = s / math.sqrt(m)
                k = int(rng.integers(0, k_cap + 1))
                flip = rng.choice(m, size=k, replace=False)
                z = np.zeros(m)
                keep = np.setdiff1d(np.arange(m), flip)
                z[keep] = s[keep] * math.sqrt((1 - k * eps0**2) / (m - k))
                z[flip] = -s[flip] * eps0
                if z @ x <= 1 - zeta / 4:
                    continue  # not a lemma instance
                flips = np.count_nonzero(round_to_hypercube(z) != code.encode(v))
                assert flips < m * zeta / 2, f"lemma violated: {flips} flips at m={m}"
                trials -= 1
                checked += 1
        elapsed = time.time() - started
        assert elapsed < 5.0
        assert checked == 1000
        report(3, True, f"1000 adversarial roundings all within m*zeta/2, {elapsed:.2f}s")


class TestCriterion04Codec:
    def test_roundtrip_noise_and_oracle(self):
        started = time.time()
        # exhaustive roundtrips
        concat = build_code(2**16, "concatenated")
        every = np.arange(2**16)
        encoded = np.empty((2**16, concat.m), dtype=np.int8)
        for v in every:
            encoded[v] = concat.encode(int(v))
        decoded = concat.decode_many(encoded)
        assert decoded == list(range(2**16))
        ref = build_code(2**10, "reference")
        ref_decoded = ref.decode_many(ref.encode_many(np.arange(2**10)))
        assert ref_decoded == list(range(2**10))
        # error injection below the correction radius, zero failures
        rng = np.random.default_rng(4)
        for code, trials in ((concat, 500), (ref, 500)):
            k = math.ceil(code.correctable_flips()) - 1
            for _ in range(trials):
                v = int(rng.integers(0, code.d))
                y = code.encode(v).copy()
                pos = rng.choice(code.m, size=k, replace=False)
                y[pos] = -y[pos]
                assert code.decode(y) == v
        # nearest-codeword oracle comparison
        codebook = ref.encode_many(np.arange(2**10))
        for _ in range(500):
            y = rng.choice(np.array([-1, 1], dtype=np.int8), size=ref.m)
            dists = np.count_nonzero(codebook != y[None, :], axis=1)
            assert ref.decode(y) == int(np.argmin(dists))
        elapsed = time.time() - started
        assert elapsed < 60.0
        report(4, True, f"roundtrips, 1000 error injections, 500 oracle matches, {elapsed:.1f}s")


class TestCriterion05FoScaling:
    def test_error_scaling_and_absolute_bound(self):
        started = time.time()
        d, eps, beta = 2**10, 1.0, 0.1
        medians = {}
        for n in (10_000, 40_000, 100_000):
            params = derive_fo_params(d, n, eps, beta)
            errs = []
            for trial in range(20):
                rng = np.random.default_rng([5, n, trial])
                items = rng.integers(0, d, n)
                truth = np.bincount(items, minlength=d) / n
                pub = PublicRandomness.from_any(f"c5:{n}:{trial}")
                agg = fo_simulate_reports(items, params.m_fo, eps, pub, rng)
                est = fo_estimate_many(agg, pub, np.arange(d))
                errs.append(float(np.max(np.abs(est - truth))))
            medians[n] = float(np.median(errs))
        ratio = medians[10_000] / medians[40_000]
        bound = 3 * math.sqrt(math.log(2 * d / beta) / (eps * eps * 100_000))
        elapsed = time.time() - started
        ok = 1.7 <= ratio <= 2.3 and medians[100_000] <= bound
        report(5, ok, f"ratio {ratio:.3f} in [1.7, 2.3]; median {medians[100_000]:.4f} "
                      f"<= {bound:.4f} at n=1e5, {elapsed:.0f}s")
        assert 1.7 <= ratio <= 2.3
        assert medians[100_000] <= bound
        assert elapsed < 600


class TestCriterion06Promise:
    def test_unique_heavy_hitter(self):
        started = time.time()
        d, n, eps = 2**16, 100_000, 2.0
        code = build_code(d, "concatenated")
        recovered = 0
        close = 0
        trials = 40
        for trial in range(trials):
            v_star = int(np.random.default_rng([6, trial]).integers(0, d))
            rng = np.random.default_rng([6, trial, 1])
            res = pp_run(np.full(n, v_star), code, eps, rng)
            recovered += res.item == v_star
            close += res.item == v_star and abs(res.estimate - 1.0) <= 0.02
        elapsed = time.time() - started
        ok = recovered >= 0.95 * trials and close >= 0.90 * trials
        report(6, ok, f"recovered {recovered}/40, estimate within 0.02 in {close}/40, {elapsed:.1f}s")
        assert recovered >= 0.95 * trials
        assert close >= 0.90 * trials
        assert elapsed < 600


class TestCriterion07FullProtocol:
    def test_planted_histogram(self):
        """The +-0.02 clause holds through the fused estimates; see module docstring."""
        started = time.time()
        d, n, eps, beta = 2**10, 100_000, 2.0, 0.5
        hh = derive_hh_params(d, n, eps, beta, k_override=10 * n)
        assert hh.iso_failure_bound <= beta / 3
        fo = derive_fo_params(d, n, hh.eps_channel, beta / 3)
        code = build_code(d, "reference")
        heavy_a, heavy_b = d - 2, d - 1
        both_cnt = junk_free_cnt = within_cnt = joint_cnt = 0
        trials = 10
        for trial in range(trials):
            rng = np.random.default_rng([7, trial])
            items = rng.integers(0, d - 2, n)
            items[: int(0.3 * n)] = heavy_a
            items[int(0.3 * n) : int(0.5 * n)] = heavy_b
            truth = np.bincount(items, minlength=d) / n
            pub = PublicRandomness.from_any(f"c7:{trial}")
            res = hh_execute(items, code, hh, fo, pub, rng, mode="fast")
            got = dict(res.histogram.entries)
            both = heavy_a in got and heavy_b in got
            within = both and abs(got[heavy_a] - 0.3) <= 0.02 and abs(got[heavy_b] - 0.2) <= 0.02
            junk_free = all(truth[v] >= hh.threshold / 2 for v in got)
            both_cnt += both
            within_cnt += within
            junk_free_cnt += junk_free
            joint_cnt += both and within and junk_free
        ks_p = self._fast_faithful_ks()
        elapsed = time.time() - started
        ok = joint_cnt >= 8 and ks_p > 0.001
        report(
            7,
            ok,
            f"recovery {both_cnt}/10, junk-free {junk_free_cnt}/10, "
            f"estimates within 0.02 {within_cnt}/10, joint {joint_cnt}/10 (need 8); "
            f"fast/faithful KS p={ks_p:.3f}, {elapsed:.0f}s",
        )
        assert both_cnt >= 8, "planted items must be recovered in >= 80% of trials"
        assert junk_free_cnt >= 8, "outputs must exclude items below threshold/2 in >= 80%"
        assert ks_p > 0.001
        assert elapsed < 1800
        assert joint_cnt >= 8, (
            "published estimates must lie within 0.02 of both planted "
            "frequencies in >= 80% of trials; the oracle alone has "
            "sigma = c_eps_channel/sqrt(n) = 0.0223, so the fusion with each "
            "candidate's own hash channels must be in effect"
        )

    @staticmethod
    def _fast_faithful_ks() -> float:
        # Only n is pinned here; eps and K are chosen so the planted item is
        # recovered in nearly every trial, giving both modes full samples.
        d, n, eps, beta = 16, 10_000, 4.0, 0.5
        hh = derive_hh_params(d, n, eps, beta, k_override=128)
        fo = derive_fo_params(d, n, hh.eps_channel, beta / 3)
        code = build_code(d, "reference")
        heavy = d - 1
        samples = {"fast": [], "faithful": []}
        for mode, offset in (("fast", 0), ("faithful", 200)):
            for trial in range(200):
                rng = np.random.default_rng([71, offset + trial])
                items = rng.integers(0, d - 1, n)
                items[: int(0.3 * n)] = heavy
                pub = PublicRandomness.from_any(f"ks:{offset + trial}")
                res = hh_execute(items, code, hh, fo, pub, rng, mode=mode)
                est = res.histogram.estimate(heavy)
                if est > 0:
                    samples[mode].append(est)
        assert len(samples["fast"]) >= 150 and len(samples["faithful"]) >= 150
        return float(stats.ks_2samp(samples["fast"], samples["faithful"]).pvalue)


class TestCriterion08OneBit:
    def test_acceptance_rate_tv_audit_and_error(self):
        started = time.time()
        # (a) empirical acceptance rate over 1e5 users on a composite toy
        code = build_code(4, "reference")
        pub = PublicRandomness.from_any(81)
        seeds = tuple(draw_hash_seeds(pub, 1, 16))
        composite = OneBitStructure(
            pub=pub, run_id=0, K=2, T=1, eps_channel=math.log(2) / 3,
            m_fo=4, code=code, seeds=seeds,
        )
        rng = np.random.default_rng(8)
        users = 100_000
        items = rng.integers(0, 4, users)
        accepted = 0
        for u in range(users):
            y = PublicString(structure=composite, user_id=u)
            accepted += rng.random() < acceptance_prob(int(items[u]), y, composite)
        rate = accepted / users
        assert abs(rate - 0.5) <= 0.01

        # (b) TV between accepted strings and the true report distribution
        m_fo, eps_fo = 16, math.log(2)
        fo_only = OneBitStructure(pub=pub, run_id=1, K=1, T=0, eps_channel=eps_fo, m_fo=m_fo)
        v = 3
        counts = np.zeros(2 * m_fo)
        kept = 0
        for u in range(100_000):
            y = PublicString(structure=fo_only, user_id=u)
            if rng.random() < acceptance_prob(v, y, fo_only):
                j, sign = y.fo_component()
                counts[2 * j + (0 if sign > 0 else 1)] += 1
                kept += 1
        exact = report_distribution(pub.sign_array(("phi", v), m_fo), m_fo, eps_fo)
        tv = 0.5 * float(np.abs(counts / kept - exact).sum())
        assert tv <= 0.02

        # (c) bit-channel audit over the full toy string space
        import itertools

        total_eps = composite.total_eps()
        worst = 0.0

        class _Y:
            def __init__(self, pp, fo):
                self._pp, self._fo = pp, fo

            def pp_component(self, t, k):
                return self._pp[(t, k)]

            def fo_component(self):
                return self._fo

        pp_space = list(itertools.product(range(code.m), (1, -1)))
        fo_space = list(itertools.product(range(4), (1, -1)))
        for c0 in pp_space:
            for c1 in pp_space:
                for fo_c in fo_space:
                    y = _Y({(0, 0): c0, (0, 1): c1}, fo_c)
                    p = np.array([acceptance_prob(w, y, composite) for w in range(4)])
                    ch = ChannelMatrix(
                        inputs=list(range(4)), outputs=[1, 0],
                        probs=np.column_stack([p, 1 - p]),
                    )
                    worst = max(worst, audit_ldp(ch).eps_observed)
        assert worst <= total_eps + 1e-9

        # (d) oracle error with 1-bit reports vs full reports at the same n
        d, n, eps = 256, 20_000, math.log(2)
        params = derive_fo_params(d, n, eps, 0.1)
        ratios = []
        full_errs, bit_errs = [], []
        for trial in range(20):
            trial_pub = PublicRandomness.from_any(f"c8:{trial}")
            rng_t = np.random.default_rng([82, trial])
            items_t = rng_t.integers(0, d, n)
            truth = np.bincount(items_t, minlength=d) / n
            agg_full = fo_simulate_reports(items_t, params.m_fo, eps, trial_pub, rng_t)
            est_full = fo_estimate_many(agg_full, trial_pub, np.arange(d))
            full_errs.append(float(np.max(np.abs(est_full - truth))))
            structure = OneBitStructure(pub=trial_pub, run_id=trial, K=1, T=0,
                                         eps_channel=eps, m_fo=params.m_fo)
            bits = {}
            for u in range(n):
                y = PublicString(structure=structure, user_id=u)
                bits[u] = int(rng_t.random() < acceptance_prob(int(items_t[u]), y, structure))
            acc = onebit_server_collect(sorted(bits.items()), structure)
            agg_bits = collect_fo_aggregate(acc, structure)
            est_bits = fo_estimate_many(agg_bits, trial_pub, np.arange(d))
            bit_errs.append(float(np.max(np.abs(est_bits - truth))))
        ratio = float(np.median(bit_errs) / np.median(full_errs))
        elapsed = time.time() - started
        ok = ratio <= 1.5 * math.sqrt(2)
        report(8, ok and abs(rate - 0.5) <= 0.01 and tv <= 0.02 and worst <= total_eps + 1e-9,
               f"acceptance {rate:.4f}, TV {tv:.4f}, audit {worst:.4f} <= {total_eps:.4f}, "
               f"1-bit/full error ratio {ratio:.3f} <= {1.5 * math.sqrt(2):.3f}, {elapsed:.0f}s")
        assert ratio <= 1.5 * math.sqrt(2)
        assert elapsed < 600


class TestCriterion09DegradingChannel:
    def test_amplification_and_information(self):
        started = time.time()
        m, d = 4, 16
        etas = (0.0, 0.25, 0.5, 1.0)
        for eps in (0.5, 1.0):
            base = randomizer_channel(all_sign_vectors(m), m, eps)
            infos = []
            for eta in etas:
                composed = compose(degrading_matrix(eta, d), base)
                observed = audit_ldp(composed).eps_observed
                assert observed <= amplified_epsilon(eps, eta) + 1e-9
                infos.append(mutual_information(np.full(d, 1 / d), composed))
            assert all(b >= a - 1e-12 for a, b in zip(infos, infos[1:]))
            assert all(i <= math.log(d) + 1e-12 for i in infos)
        elapsed = time.time() - started
        assert elapsed < 30.0
        report(9, True, f"amplified-budget audits and monotone information, {elapsed:.1f}s")


class TestCriterion10Transport:
    GOLDEN = bytes.fromhex(
        "4c4450480100" "13000000" "0700000000000000" "0000" "00000000" "03000000" "01"
    )

    def _reports(self, cfg, rng):
        pub = PublicRandomness.from_any(cfg.seed)
        hh = derive_hh_params(cfg.d, cfg.n, cfg.eps, cfg.beta, cfg.k_override)
        fo = derive_fo_params(cfg.d, cfg.n, hh.eps_channel, cfg.beta / 3)
        code = build_code(cfg.d, cfg.code_kind)
        seeds = draw_hash_seeds(pub, hh.T, hh.ell)
        items = rng.integers(0, cfg.d, cfg.n)
        items[: int(0.7 * cfg.n)] = 3
        frames = []
        for user in range(cfg.n):
            v = int(items[user])
            for t in range(hh.T):
                k_active = channel_of(seeds[t], v, hh.K)
                for k in range(hh.K):
                    rep = pp_client_report(v if k == k_active else BOT, code,
                                           hh.eps_channel, rng)
                    frames.append(encode_frame(
                        MSG_PP_REPORT,
                        ReportPayload(user, t, k, rep.position, rep.sign).pack()))
            rep = fo_client_report(v, fo, pub, hh.eps_channel, rng)
            frames.append(encode_frame(
                MSG_FO_REPORT, ReportPayload(user, 0, 0, rep.position, rep.sign).pack()))
        return pub, hh, fo, code, frames

    def _finalize_local(self, pub, hh, fo, code, frames):
        pp_aggs, fo_agg = {}, AggregateState(m=fo.m_fo, eps=hh.eps_channel)
        for frame in frames:
            msg_type, payload, _ = decode_frame(frame)
            rep = ReportPayload.unpack(payload)
            if msg_type == MSG_PP_REPORT:
                agg = pp_aggs.setdefault(
                    (rep.t, rep.k), AggregateState(m=code.m, eps=hh.eps_channel))
            else:
                agg = fo_agg
            agg.absorb_batch(np.array([rep.position]), np.array([rep.sign]))
        hist, _, _ = hh_finalize(pp_aggs, fo_agg, code, hh, pub)
        return hist.to_csv()

    def test_golden_loopback_and_interleaving(self):
        started = time.time()
        assert encode_frame(
            MSG_FO_REPORT, ReportPayload(7, 0, 0, 3, 1).pack()) == self.GOLDEN
        assert encode_frame(MSG_ONE_BIT, OneBitPayload(7, 1).pack()) == bytes.fromhex(
            "4c4450480102" "09000000" "0700000000000000" "01")

        cfg = SessionConfig(protocol="hist", d=16, n=150, eps=2.0, beta=0.5,
                            seed=1010, k_override=8)
        rng = np.random.default_rng(10)
        pub, hh, fo, code, frames = self._reports(cfg, rng)
        expected = self._finalize_local(pub, hh, fo, code, frames)

        # single client
        server = AggregationServer(cfg)
        addr = server.start()
        try:
            acks = client_submit(addr, frames)
            assert all(a["ok"] for a in acks)
            single = client_close(addr)
        finally:
            server.shutdown()
        assert single == expected

        # sixteen interleaved clients over the same multiset
        server = AggregationServer(cfg)
        addr = server.start()
        try:
            errors = []

            def run(shard):
                try:
                    client_submit(addr, shard)
                except Exception as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=run, args=(frames[i::16],))
                       for i in range(16)]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
            assert not errors
            multi = client_close(addr)
        finally:
            server.shutdown()
        assert multi == expected
        elapsed = time.time() - started
        assert elapsed < 60.0
        report(10, True, f"golden frames exact; loopback and 16-client runs "
                         f"bit-identical, {elapsed:.1f}s")
