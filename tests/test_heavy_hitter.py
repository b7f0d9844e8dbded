import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

from ldphist import codec
from ldphist.codec import build_code, round_to_hypercube
from ldphist.core import PublicRandomness, c_eps, derive_fo_params, derive_hh_params
from ldphist.freq_oracle import (
    AggregateState,
    channel_aggregates,
    fo_estimate_many,
)
from ldphist.heavy_hitter import (
    BOT,
    FAITHFUL_CHANNEL_CAP,
    HashSeed,
    channel_of,
    decode_channels,
    draw_hash_seeds,
    hh_execute,
    hh_finalize,
    pp_aggregate,
    pp_client_report,
    pp_run,
    prune,
    simulate_idle_noise,
)
from ldphist.onebit import OneBitStructure
from ldphist.randomizer import (
    ChannelMatrix,
    audit_ldp,
    outcome_labels,
    randomize_many,
    report_distribution,
)
from ldphist.transport import SessionConfig, _SessionState

PUB = PublicRandomness.from_any(77)


class TestChannelHash:
    def test_deterministic(self):
        seed = draw_hash_seeds(PUB, 1, 40)[0]
        assert channel_of(seed, 123, 64) == channel_of(seed, 123, 64)

    def test_seed_length_masked(self):
        seeds = draw_hash_seeds(PUB, 3, 21)
        assert len({s.bits for s in seeds}) == 3
        for s in seeds:
            assert len(s.bits) == 3
            assert int.from_bytes(s.bits, "little") < 1 << 21

    def test_numpy_items_hash_as_python_ints(self):
        # a * v overflows 64 bits for these items: it must not wrap.
        seeds = draw_hash_seeds(PUB, 4, 61)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for v in (3, 2**40 + 7, 2**61 - 2):
                for seed in seeds:
                    want = channel_of(seed, v, 1000)
                    assert channel_of(seed, np.int64(v), 1000) == want
                    assert channel_of(seed, np.uint64(v), 1000) == want
        with pytest.raises(TypeError):
            channel_of(seeds[0], 3.0, 1000)

    def test_collision_rate_pairwise(self):
        # Pr[h(v) == h(v')] for fixed v != v' over random seeds is 1/K up
        # to the (tiny) non-uniformity of the modular construction.
        rng = np.random.default_rng(0)
        K, draws = 64, 100_000
        v, w = 17, 900
        hits = 0
        for i in range(draws):
            seed = HashSeed(bytes(rng.integers(0, 256, 8, dtype=np.uint8)))
            hits += channel_of(seed, v, K) == channel_of(seed, w, K)
        rate = hits / draws
        se = math.sqrt((1 / K) * (1 - 1 / K) / draws)
        assert abs(rate - 1 / K) < 3 * se

    def test_expected_collisions_bounded(self):
        # E[#collisions of v* with users holding other items] <= n/K.
        rng = np.random.default_rng(1)
        K, n, d = 256, 500, 1000
        v_star = int(d - 1)
        items = rng.choice(d - 1, size=n, replace=False)  # all differ from v*
        total = 0
        draws = 400
        for i in range(draws):
            seed = HashSeed(bytes(rng.integers(0, 256, 8, dtype=np.uint8)))
            cv = channel_of(seed, v_star, K)
            total += sum(channel_of(seed, int(u), K) == cv for u in items)
        se = math.sqrt((n / K) / draws)
        assert total / draws <= n / K + 4 * se


class TestPpClientReport:
    def test_bot_is_uniform(self):
        code = build_code(16, "reference")
        rng = np.random.default_rng(2)
        counts = np.zeros(2 * code.m)
        trials = 40_000
        for _ in range(trials):
            r = pp_client_report(BOT, code, 1.0, rng)
            counts[2 * r.position + (0 if r.sign > 0 else 1)] += 1
        expected = trials / (2 * code.m)
        chi2 = ((counts - expected) ** 2 / expected).sum()
        assert stats.chi2.sf(chi2, 2 * code.m - 1) > 0.001

    def test_channel_audit_toy_code(self):
        code = build_code(16, "reference")
        eps = 0.8
        probs = np.stack(
            [report_distribution(code.encode(v), code.m, eps) for v in range(16)]
        )
        ch = ChannelMatrix(inputs=list(range(16)), outputs=outcome_labels(code.m), probs=probs)
        assert audit_ldp(ch).eps_observed <= eps + 1e-9

    def test_unbiased_for_item(self):
        code = build_code(4, "reference")
        rng = np.random.default_rng(3)
        eps, trials = 1.0, 50_000
        acc = np.zeros(code.m)
        scale = c_eps(eps) * math.sqrt(code.m)
        for _ in range(trials):
            r = pp_client_report(2, code, eps, rng)
            acc[r.position] += r.sign * scale
        mean = acc / trials
        target = code.encode(2).astype(np.float64) / math.sqrt(code.m)
        tol = 5 * scale / math.sqrt(trials)
        assert np.max(np.abs(mean - target)) < tol


class TestIdleNoise:
    def test_zero_count(self):
        plus, minus = simulate_idle_noise(0, 8, np.random.default_rng(4))
        assert plus.sum() == 0 and minus.sum() == 0

    def test_total_preserved(self):
        rng = np.random.default_rng(5)
        for k in (1, 17, 1000):
            plus, minus = simulate_idle_noise(k, 4, rng)
            assert plus.sum() + minus.sum() == k

    def test_distribution_matches_per_user_oracle(self):
        # Same cell distribution as the naive per-user loop (chi-square).
        rng = np.random.default_rng(6)
        m, k = 4, 10_000
        plus, minus = simulate_idle_noise(k, m, rng)
        fast_cells = np.empty(2 * m, dtype=np.int64)
        fast_cells[0::2] = plus
        fast_cells[1::2] = minus
        slow_cells = np.zeros(2 * m, dtype=np.int64)
        j = rng.integers(0, m, size=k)
        s = rng.choice([-1, 1], size=k)
        np.add.at(slow_cells, 2 * j + (s < 0), 1)
        chi2, p = stats.chisquare(fast_cells, slow_cells.sum() / (2 * m) * np.ones(2 * m))
        chi2_slow, p_slow = stats.chisquare(slow_cells, k / (2 * m) * np.ones(2 * m))
        assert p > 0.001 and p_slow > 0.001


class TestPpDecode:
    def test_promise_recovery_full_support(self):
        code = build_code(256, "reference")
        rng = np.random.default_rng(7)
        items = np.full(20_000, 99)
        res = pp_run(items, code, 2.0, rng)
        assert res.item == 99
        assert abs(res.estimate - 1.0) < 0.05

    def test_promise_recovery_partial_support(self):
        code = build_code(2**16, "concatenated")
        rng = np.random.default_rng(8)
        n = 50_000
        items = np.full(n, 12345)
        items[: n // 2] = BOT
        res = pp_run(items, code, 2.0, rng)
        assert res.item == 12345
        assert abs(res.estimate - 0.5) < 0.05

    def test_all_idle_noise_estimate_small(self):
        code = build_code(2**16, "concatenated")
        eps, n = 1.0, 20_000
        bound = 5 * c_eps(eps) / math.sqrt(n)
        hits = 0
        trials = 30
        rng = np.random.default_rng(9)
        for _ in range(trials):
            res = pp_run(np.full(n, BOT), code, eps, rng)
            hits += abs(res.estimate) <= bound
        assert hits >= 29  # >= 99% nominal; zero margin failures allowed once

    def test_requires_reports(self):
        code = build_code(16, "reference")
        with pytest.raises(ValueError):
            decode_channels([AggregateState(m=code.m, eps=1.0)], code, verify=False)

    def test_verify_rejects_noise(self):
        code = build_code(1024, "reference")
        rng = np.random.default_rng(10)
        rejected = 0
        for _ in range(50):
            agg = pp_aggregate(np.full(3000, BOT), code, 1.0, rng)
            res = decode_channels([agg], code, verify=True)[0]
            rejected += res.item is None
        assert rejected >= 48


def _decode_loop(aggs, code, verify):
    """decode_channels as a loop over channels: flip count, encode and
    the exact Python-int product for each decoded row, as (item, estimate,
    flips)."""
    if not aggs:
        return []
    Y = round_to_hypercube(np.stack([agg.count_diff() for agg in aggs]))
    out = []
    for agg, y, v in zip(aggs, Y, code.decode_many(Y)):
        if v is None:
            out.append((None, 0.0, None))
            continue
        cw = code.encode(v)
        flips = np.count_nonzero(y != cw)
        if verify and not flips < code.correctable_flips():
            out.append((None, 0.0, flips))
            continue
        dot = sum(int(c) * int(w) for c, w in zip(cw, agg.count_diff()))
        out.append((v, c_eps(agg.eps) / agg.n_total * float(dot), flips))
    return out


def _count_table(code, flip_counts, rng, scale=40):
    """One (m, 2) count row per flip count: the signs of a random codeword
    with that many coordinates flipped, carried by random magnitudes
    (zeros included, which round to +1) over a random common base."""
    table = np.empty((len(flip_counts), code.m, 2), dtype=np.int64)
    for row, f in zip(table, flip_counts):
        y = code.encode(int(rng.integers(code.d))).astype(np.int64)
        y[rng.choice(code.m, size=f, replace=False)] *= -1
        mag, base = rng.integers(0, scale, code.m), rng.integers(0, scale // 2 + 1, code.m)
        row[:, 0] = base + np.where(y > 0, mag, 0)
        row[:, 1] = base + np.where(y < 0, mag, 0)
    return table


class TestDecodeChannelsEquivalence:
    """decode_channels computes flips and estimates over the decoded rows
    of each row chunk at once; every result equals the per-channel loop's,
    floats to the bit, whether the rows fit one chunk or span several."""

    FLIPS = {
        "reference": [0, 1, 2, 3, 5, 8, 12, 16] * 4,
        "concatenated": [0, 10, 40, 63, 64, 90, 120, 300, 512] * 3,
    }

    @pytest.mark.parametrize("kind, d", [("reference", 256), ("concatenated", 2**16)])
    @pytest.mark.parametrize("verify", [False, True])
    def test_matches_per_channel_loop(self, kind, d, verify, monkeypatch):
        self._check(kind, d, verify, monkeypatch, small_chunks=False)

    @pytest.mark.parametrize("kind, d", [("reference", 256), ("concatenated", 2**16)])
    @pytest.mark.parametrize("verify", [False, True])
    def test_matches_per_channel_loop_in_small_chunks(self, kind, d, verify, monkeypatch):
        self._check(kind, d, verify, monkeypatch, small_chunks=True)

    def _check(self, kind, d, verify, monkeypatch, small_chunks):
        code = build_code(d, kind)
        rng = np.random.default_rng(19)
        table = _count_table(code, self.FLIPS[kind], rng)
        # Counts past 2^24 in sum(|diff|), where the loop's kernel leaves float32.
        table = np.concatenate([table, _count_table(code, [0, 3], rng, scale=1 << 22)])
        aggs = list(channel_aggregates(range(len(table)), table, 0.7).values())
        want = [(v, est.hex(), f) for v, est, f in _decode_loop(aggs, code, verify)]
        sizes, decode_many = [], code.decode_many
        monkeypatch.setattr(code, "decode_many", lambda Y: sizes.append(len(Y)) or decode_many(Y))
        if small_chunks:  # eight rows of int64 count differences a chunk
            monkeypatch.setattr(codec, "_DECODE_BYTES", 8 * 8 * code.m)
        got = [(r.item, r.estimate.hex(), r.flips) for r in decode_channels(aggs, code, verify)]
        assert got == want
        if small_chunks:
            assert len(sizes) >= 3 and sizes[:-1] == [8] * (len(sizes) - 1) and 0 < sizes[-1] < 8
        else:
            assert sizes == [len(aggs)]
        failed = [v is None and f is None for v, _, f in want]
        rejected = [v is None and f is not None for v, _, f in want]
        assert any(v is not None for v, _, _ in want)
        assert any(rejected) == verify
        assert any(failed) == (kind == "concatenated")
        assert all(type(f) is int for _, _, f in got if f is not None)

    @pytest.mark.parametrize("kind, d", [("reference", 256), ("concatenated", 2**16)])
    def test_empty_list_and_no_decoded_row(self, kind, d):
        code = build_code(d, kind)
        assert decode_channels([], code, verify=True) == []
        if kind == "concatenated":  # pure noise: Reed-Solomon signals failure
            rng = np.random.default_rng(20)
            table = rng.integers(0, 30, (4, code.m, 2))
            aggs = list(channel_aggregates(range(4), table, 1.0).values())
            got = decode_channels(aggs, code, verify=False)
            assert [(r.item, r.estimate, r.flips) for r in got] == [(None, 0.0, None)] * 4


def test_decode_channels_memory_is_bounded():
    """decode_channels' transients, above the count table it reads, stay
    within a few times codec's byte budget however many rows it decodes:
    stacking the whole (rows, m) count difference alone would take 32 MiB
    here, and each stacked input as much again."""
    code = build_code(2**32, "concatenated")
    rng = np.random.default_rng(21)
    table = rng.integers(0, 30, (2048, code.m, 2))
    items = rng.integers(0, code.d, 16)
    words = code.encode_many(items.tolist())
    table[:16, :, 0] += 60 * (words > 0)  # rows that decode
    table[:16, :, 1] += 60 * (words < 0)
    aggs = list(channel_aggregates(range(len(table)), table, 1.0).values())
    tracemalloc.start()
    try:
        results = decode_channels(aggs, code, verify=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r.item for r in results[:16]] == items.tolist()
    assert peak < 4 * codec._DECODE_BYTES


def _per_group_fill(items, code, hh, fo, pub, rng, mode):
    """hh_execute's channel and oracle aggregates filled group by group
    through absorb_batch, one AggregateState per channel."""
    seeds = draw_hash_seeds(pub, hh.T, hh.ell)
    values, counts = np.unique(items[items != BOT], return_counts=True)
    by_channel = {}
    for t, seed in enumerate(seeds):
        for v, cnt in zip(values.tolist(), counts.tolist()):
            by_channel.setdefault((t, channel_of(seed, v, hh.K)), []).append((v, cnt))
    keys = sorted(by_channel) if mode == "fast" else [(t, k) for t in range(hh.T) for k in range(hh.K)]
    pp = {}
    for key in keys:
        agg = pp[key] = AggregateState(m=code.m, eps=hh.eps_channel)
        groups = by_channel.get(key, [])
        idle = len(items) - sum(cnt for _, cnt in groups)
        for v, cnt in groups + ([(BOT, idle)] if mode == "faithful" else []):
            x = None if v == BOT else (lambda j, v=v: code.encode(v)[j])
            agg.absorb_batch(*randomize_many(x, cnt, hh.eps_channel, code.m, rng))
        if mode == "fast":
            plus, minus = simulate_idle_noise(idle, code.m, rng)
            agg.plus += plus
            agg.minus += minus
            agg.n_total += idle
    fo_agg = AggregateState(m=fo.m_fo, eps=hh.eps_channel)
    values, counts = np.unique(items, return_counts=True)
    for v, cnt in zip(values.tolist(), counts.tolist()):
        x = None if v == BOT else (lambda j, v=v: pub.signs_at(("phi", v), j))
        fo_agg.absorb_batch(*randomize_many(x, cnt, hh.eps_channel, fo.m_fo, rng))
    return pp, fo_agg


@pytest.mark.parametrize("mode, K", [("fast", 16), ("faithful", 8)])
def test_hh_execute_table_matches_per_group_fill(mode, K):
    # The table rows hh_execute fills in place hold exactly the counts of a
    # per-group absorb_batch fill from the same seed, idle noise included.
    n, d = 3000, 64
    hh = derive_hh_params(d, n, 2.0, 0.5, k_override=K)
    fo = derive_fo_params(d, n, hh.eps_channel, 0.5 / 3)
    code = build_code(d, "reference")
    items = np.random.default_rng(21).integers(0, 6, n)
    items[: n // 4] = BOT
    items[n // 4 : n // 2] = 9
    res = hh_execute(items, code, hh, fo, PUB, np.random.default_rng(22), mode=mode)
    pp, fo_agg = _per_group_fill(items, code, hh, fo, PUB, np.random.default_rng(22), mode)
    assert list(res.pp_aggs) == list(pp)
    assert all(res.pp_aggs[key].to_bytes() == pp[key].to_bytes() for key in pp)
    assert res.fo_agg.to_bytes() == fo_agg.to_bytes()
    if mode == "faithful":
        assert len(pp) == hh.K * hh.T


class TestPrune:
    def test_all_below(self):
        assert prune([(1, 0.01), (2, 0.02)], 0.5).entries == []

    def test_boundary_kept(self):
        h = prune([(1, 0.5)], 0.5)
        assert h.entries == [(1, 0.5)]

    def test_clipping(self):
        h = prune([(3, 1.37)], 0.5)
        assert h.entries == [(3, 1.0)]

    @pytest.mark.parametrize("f", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_estimate_refused(self, f):
        with pytest.raises(ValueError, match="candidate 1 has a non-finite estimate"):
            prune([(2, 0.7), (1, f)], 0.5)

    def test_estimate_lookup(self):
        h = prune([(5, 0.7)], 0.1)
        assert h.estimate(5) == 0.7
        assert h.estimate(6) == 0.0

    def test_csv_with_truth(self):
        # The truth maps held items only: a published item nobody holds reads 0.
        h = prune([(5, 0.7), (2, 0.9), (9, 0.3)], 0.1)
        csv = h.to_csv(truth={5: 0.71, 2: 0.88})
        lines = csv.strip().split("\n")
        assert lines[0] == "item,estimated_frequency,true_frequency"
        assert lines[1].startswith("2,")
        assert lines[3] == "9,0.29999999999999999,0"


def _small_run(seed, mode="fast", n=10_000, plant=0.6):
    d, eps, beta = 64, 2.0, 0.5
    hh = derive_hh_params(d, n, eps, beta, k_override=10 * n if mode == "fast" else 64)
    fo = derive_fo_params(d, n, hh.eps_channel, beta / 3)
    code = build_code(d, "reference")
    rng = np.random.default_rng(seed)
    items = rng.integers(0, d - 1, n)
    items[: int(plant * n)] = d - 1
    pub = PublicRandomness.from_any(seed)
    return d, items, hh_execute(items, code, hh, fo, pub, rng, mode=mode), hh

class TestFullProtocol:
    def test_planted_item_recovered(self):
        d, items, res, hh = _small_run(11)
        assert d - 1 in res.histogram.items()
        est = res.histogram.estimate(d - 1)
        # oracle noise floor is c_{eps/7}/sqrt(n) ~= 0.07 here; 4 sigma band
        assert abs(est - 0.6) < 0.28

    def test_degenerate_single_item(self):
        n, d = 5000, 64
        hh = derive_hh_params(d, n, 2.0, 0.5, k_override=512)
        fo = derive_fo_params(d, n, hh.eps_channel, 0.5 / 3)
        code = build_code(d, "reference")
        items = np.full(n, 7)
        res = hh_execute(items, code, hh, fo, PUB, np.random.default_rng(12))
        assert res.histogram.items() == [7]
        assert res.histogram.estimate(7) > 0.8

    def test_uniform_data_prunes_to_empty(self):
        n, d = 10_000, 1024
        hh = derive_hh_params(d, n, 2.0, 0.5, k_override=10 * n)
        fo = derive_fo_params(d, n, hh.eps_channel, 0.5 / 3)
        code = build_code(d, "reference")
        empties = 0
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            items = rng.integers(0, d, n)
            res = hh_execute(items, code, hh, fo, PublicRandomness.from_any(seed), rng)
            empties += len(res.histogram.entries) == 0
        assert empties >= 4

    def test_isolation_planted_always_listed(self):
        hits = 0
        for seed in range(8):
            d, items, res, hh = _small_run(200 + seed)
            hits += (d - 1) in res.histogram.items()
        assert hits >= 7  # 1 - beta with beta = 0.5 is the floor; expect ~all

    def test_candidate_count_bounded(self):
        d, items, res, hh = _small_run(13)
        assert len(res.decodes) <= hh.K * hh.T
        assert len(res.histogram.entries) <= math.ceil(1 / hh.threshold) + 5

    def test_finalize_is_deterministic(self):
        d, items, res, hh = _small_run(14)
        assert res.fo_agg.m == derive_fo_params(d, len(items), hh.eps_channel, hh.beta / 3).m_fo
        pub = PublicRandomness.from_any(14)
        h1, c1, _ = hh_finalize(res.pp_aggs, res.fo_agg, build_code(d, "reference"), hh, pub)
        h2, c2, _ = hh_finalize(res.pp_aggs, res.fo_agg, build_code(d, "reference"), hh, pub)
        assert h1.to_csv() == h2.to_csv() == res.histogram.to_csv()
        assert c1 == c2

    def test_finalize_lists_an_item_decoded_twice_once(self):
        d, items, res, hh = _small_run(11)
        h, candidates, decodes = hh_finalize(res.pp_aggs, res.fo_agg, build_code(d, "reference"),
                                             hh, PublicRandomness.from_any(11))
        assert [v for _, _, v, _ in decodes].count(d - 1) >= 2
        assert [v for v, _ in candidates].count(d - 1) == 1
        assert h.items().count(d - 1) == 1

    def test_estimates_fuse_own_channels(self):
        d, items, res, hh = _small_run(16)
        assert hh.iso_failure_bound <= hh.beta / 3
        code = build_code(d, "reference")
        pub = PublicRandomness.from_any(16)
        cand = [v for v, _ in res.candidates]
        oracle = fo_estimate_many(res.fo_agg, pub, cand)
        scale = c_eps(hh.eps_channel)
        fused_any = False
        for (v, got), fo_est in zip(res.candidates, oracle):
            parts = [float(fo_est)]
            for t, seed in enumerate(res.seeds):
                agg = res.pp_aggs.get((t, channel_of(seed, v, hh.K)))
                if agg is not None:
                    cw = code.encode(v).astype(np.float64)
                    parts.append(scale / agg.n_total * float(cw @ agg.count_diff()))
            fused_any |= len(parts) > 1
            assert got == pytest.approx(sum(parts) / len(parts), rel=1e-12, abs=1e-15)
        assert fused_any
        # the planted item sits alone in its channel in every repetition
        assert dict(res.candidates)[d - 1] == pytest.approx(0.6, abs=0.1)

    def test_small_k_publishes_oracle_estimates(self):
        n, d = 10_000, 64
        hh = derive_hh_params(d, n, 2.0, 0.5, k_override=8)
        assert hh.iso_failure_bound > hh.beta / 3
        fo = derive_fo_params(d, n, hh.eps_channel, 0.5 / 3)
        code = build_code(d, "reference")
        rng = np.random.default_rng(17)
        items = rng.integers(0, d - 1, n)
        items[: int(0.6 * n)] = d - 1
        pub = PublicRandomness.from_any(17)
        res = hh_execute(items, code, hh, fo, pub, rng)
        cand = [v for v, _ in res.candidates]
        assert cand
        oracle = [float(e) for e in fo_estimate_many(res.fo_agg, pub, cand)]
        assert [f for _, f in res.candidates] == oracle

    def test_faithful_mode_small(self):
        d, items, res, hh = _small_run(15, mode="faithful", n=20_000)
        assert (d - 1) in res.histogram.items()
        # every channel materialized and carrying all n reports
        assert len(res.pp_aggs) == hh.K * hh.T
        assert all(a.n_total == 20_000 for a in res.pp_aggs.values())

    def test_fast_mode_keeps_occupied_channels_with_all_reports(self):
        # Fast mode materializes exactly the channels some item hashes to,
        # in sorted (t, k) order; each holds all n reports, idle ones
        # included, and n_total is the sum of its counts.
        n, d = 3000, 64
        hh = derive_hh_params(d, n, 2.0, 0.5, k_override=16)
        fo = derive_fo_params(d, n, hh.eps_channel, 0.5 / 3)
        rng = np.random.default_rng(18)
        items = rng.integers(0, 5, n)
        items[: n // 3] = BOT
        res = hh_execute(items, build_code(d, "reference"), hh, fo, PUB, rng)
        occupied = {(t, channel_of(seed, v, hh.K)) for t, seed in enumerate(res.seeds)
                    for v in range(5)}
        assert list(res.pp_aggs) == sorted(occupied)
        assert len(occupied) < hh.K * hh.T
        for agg in res.pp_aggs.values():
            assert agg.n_total == n == int(agg.plus.sum() + agg.minus.sum())

    def test_faithful_channel_cap(self):
        n, d = 10_000, 64
        hh = derive_hh_params(d, n, 2.0, 0.5, k_override=10 * n)
        fo = derive_fo_params(d, n, hh.eps_channel, 0.5 / 3)
        code = build_code(d, "reference")
        with pytest.raises(ValueError, match="faithful"):
            hh_execute(np.zeros(n, dtype=int), code, hh, fo, PUB,
                       np.random.default_rng(0), mode="faithful")

    def test_item_validation(self):
        n, d = 100, 16
        hh = derive_hh_params(d, n, 2.0, 0.5, k_override=8)
        fo = derive_fo_params(d, n, hh.eps_channel, 0.5 / 3)
        code = build_code(d, "reference")
        with pytest.raises(ValueError):
            hh_execute(np.full(n, 16), code, hh, fo, PUB, np.random.default_rng(0))
        with pytest.raises(ValueError):
            hh_execute(np.zeros(50, dtype=int), code, hh, fo, PUB, np.random.default_rng(0))
        with pytest.raises(ValueError):
            pp_aggregate(np.array([-2, 3]), code, 2.0, np.random.default_rng(0))


class TestBudgetIdentity:
    def test_composition_bounded_by_total(self):
        # For every item pair, the composite report distribution differs in
        # at most 2T hash channels plus the oracle channel, and the summed
        # per-channel worst log ratios stay within the total budget.
        d, n, eps, beta = 8, 10_000, 0.7, 0.375
        hh = derive_hh_params(d, n, eps, beta, k_override=4)
        fo = derive_fo_params(d, n, hh.eps_channel, beta / 3)
        code = build_code(d, "reference")
        seeds = draw_hash_seeds(PUB, hh.T, hh.ell)
        assert hh.eps_channel * (2 * hh.T + 1) == pytest.approx(eps, abs=1e-12)

        def pp_row(signs_or_none):
            return report_distribution(signs_or_none, code.m, hh.eps_channel)

        def fo_row(v):
            return report_distribution(PUB.sign_array(("phi", v), fo.m_fo), fo.m_fo, hh.eps_channel)

        def worst_ratio(p, q):
            mask = (p > 0) | (q > 0)
            with np.errstate(divide="ignore"):
                return float(np.max(np.abs(np.log(p[mask]) - np.log(q[mask]))))

        for v in range(d):
            for w in range(v + 1, d):
                total = 0.0
                differing = 0
                for t in range(hh.T):
                    cv, cw = channel_of(seeds[t], v, hh.K), channel_of(seeds[t], w, hh.K)
                    if cv == cw:
                        total += worst_ratio(pp_row(code.encode(v)), pp_row(code.encode(w)))
                        differing += 1
                    else:
                        total += worst_ratio(pp_row(code.encode(v)), pp_row(None))
                        total += worst_ratio(pp_row(None), pp_row(code.encode(w)))
                        differing += 2
                total += worst_ratio(fo_row(v), fo_row(w))
                differing += 1
                assert differing <= 2 * hh.T + 1
                assert total <= eps + 1e-9


def _build_at_channels(caller, K):
    """Build what the caller materializes with K channels in each of T = 4
    repetitions (beta = 0.25 gives T = 4, so K = cap / 4 meets the cap)."""
    d, n, eps, beta = 16, 200, 2.0, 0.25
    if caller == "one-bit collection":
        OneBitStructure(pub=PUB, run_id=0, K=K, T=4, eps_channel=math.log(2) / 9, m_fo=4,
                        code=build_code(d, "reference"), seeds=tuple(draw_hash_seeds(PUB, 4, 16)))
    elif caller == "a hist session":
        _SessionState(SessionConfig(protocol="hist", d=d, n=n, eps=eps, beta=beta, seed=1, k_override=K))
    else:
        hh = derive_hh_params(d, n, eps, beta, k_override=K)
        fo = derive_fo_params(d, n, hh.eps_channel, beta / 3)
        hh_execute(np.zeros(n, dtype=int), build_code(d, "reference"), hh, fo, PUB,
                   np.random.default_rng(0), mode="faithful")


@pytest.mark.parametrize("caller", ["faithful mode", "one-bit collection", "a hist session"])
def test_channel_cap_callers(caller):
    # K*T equal to the cap is built; one channel per repetition more is
    # refused by the one check, naming the caller, K*T and the cap.
    assert FAITHFUL_CHANNEL_CAP % 4 == 0
    _build_at_channels(caller, FAITHFUL_CHANNEL_CAP // 4)
    refused = re.escape(f"{caller} materializes K*T = {FAITHFUL_CHANNEL_CAP + 4} channels; "
                        f"cap is {FAITHFUL_CHANNEL_CAP}")
    with pytest.raises(ValueError, match=refused):
        _build_at_channels(caller, FAITHFUL_CHANNEL_CAP // 4 + 1)
