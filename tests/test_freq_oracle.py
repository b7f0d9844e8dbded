import math
import tracemalloc

import numpy as np
import pytest

from ldphist import freq_oracle
from ldphist.core import BOT, FoParams, PublicRandomness, c_eps, derive_fo_params
from ldphist.freq_oracle import (
    AggregateState,
    absorb_groups,
    channel_aggregates,
    fo_client_report,
    fo_estimate,
    fo_estimate_many,
    fo_simulate_reports,
)
from ldphist.randomizer import (
    ChannelMatrix, SparseReport, audit_ldp, outcome_labels, randomize, randomize_many,
    report_distribution,
)


PUB = PublicRandomness.from_any(2024)


def absorb_one(agg: AggregateState, report: SparseReport) -> None:
    agg.absorb_batch(np.array([report.position]), np.array([report.sign]))


class TestPhiColumn:
    def test_deterministic(self):
        a = PUB.sign_array(("phi", 7), 1000)
        b = PUB.sign_array(("phi", 7), 1000)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, PUB.sign_array(("phi", 8), 1000))

    def test_self_inner_product_is_one(self):
        col = PUB.sign_array(("phi", 3), 4096).astype(np.float64) / math.sqrt(4096)
        assert col @ col == pytest.approx(1.0, abs=1e-12)

    def test_entries_balanced(self):
        m = 100_000
        col = PUB.sign_array(("phi", 11), m)
        assert abs(col.astype(np.float64).mean()) < 5 / math.sqrt(m)

    def test_sign_at_matches_column(self):
        col = PUB.sign_array(("phi", 5), 700)
        for j in (0, 1, 255, 256, 511, 512, 699):
            assert PUB.sign_at(("phi", 5), j) == col[j]


class TestAggregateState:
    def test_single_report_mean_vector(self):
        eps, m = 1.0, 8
        agg = AggregateState(m=m, eps=eps)
        absorb_one(agg, SparseReport(position=3, sign=1))
        z = agg.zbar()
        assert z[3] == pytest.approx(c_eps(eps) * math.sqrt(m), abs=1e-12)
        assert np.all(z[np.arange(m) != 3] == 0)

    def test_order_free(self):
        rng = np.random.default_rng(0)
        reports = [
            SparseReport(int(j), int(s))
            for j, s in zip(rng.integers(0, 16, 500), rng.choice([-1, 1], 500))
        ]
        a = AggregateState(m=16, eps=0.5)
        b = AggregateState(m=16, eps=0.5)
        for r in reports:
            absorb_one(a, r)
        for r in reversed(reports):
            absorb_one(b, r)
        assert np.array_equal(a.plus, b.plus) and np.array_equal(a.minus, b.minus)

    def test_merge_equals_sequential(self):
        rng = np.random.default_rng(1)
        reports = [
            SparseReport(int(j), int(s))
            for j, s in zip(rng.integers(0, 8, 600), rng.choice([-1, 1], 600))
        ]
        seq = AggregateState(m=8, eps=1.0)
        for r in reports:
            absorb_one(seq, r)
        shards = [AggregateState(m=8, eps=1.0) for _ in range(4)]
        for i, r in enumerate(reports):
            absorb_one(shards[i % 4], r)
        merged = shards[0]
        for s in shards[1:]:
            merged.merge(s)
        assert merged.n_total == seq.n_total
        assert np.array_equal(merged.plus, seq.plus)
        assert np.array_equal(merged.minus, seq.minus)

    def test_position_bound(self):
        agg = AggregateState(m=4, eps=1.0)
        with pytest.raises(ValueError):
            absorb_one(agg, SparseReport(position=4, sign=1))

    def test_rejects_bad_signs_and_lengths(self):
        # A sign-0 report would count in n_total but in neither count
        # array, biasing every estimate toward 0.
        agg = AggregateState(m=4, eps=1.0)
        for positions, signs in (([1], [0]), ([1, 2], [1, 2]), ([1, 2], [1]), ([1], [1, -1])):
            with pytest.raises(ValueError):
                agg.absorb_batch(np.array(positions), np.array(signs))
        assert agg.n_total == 0 and not agg.plus.any() and not agg.minus.any()

    def test_serialization_roundtrip(self):
        rng = np.random.default_rng(2)
        agg = AggregateState(m=32, eps=0.7)
        agg.absorb_batch(rng.integers(0, 32, 1000), rng.choice([-1, 1], 1000))
        back = AggregateState.from_bytes(agg.to_bytes())
        assert back.m == agg.m and back.n_total == agg.n_total and back.eps == agg.eps
        assert np.array_equal(back.plus, agg.plus)
        assert np.array_equal(back.minus, agg.minus)
        assert back.to_bytes() == agg.to_bytes()

    def test_truncated_blob_rejected(self):
        agg = AggregateState(m=8, eps=1.0)
        with pytest.raises(ValueError):
            AggregateState.from_bytes(agg.to_bytes()[:-1])

    @staticmethod
    def _blob(m=2, n_total=3, eps=1.0, counts=(1, 0, 2, 0)) -> bytes:
        head = AggregateState._HEADER.pack(m, n_total, eps)
        return head + np.array(counts, dtype="<u8").tobytes()

    def test_blob_builder_matches_to_bytes(self):
        agg = AggregateState(m=2, eps=1.0, n_total=3, plus=np.array([1, 0]), minus=np.array([2, 0]))
        assert self._blob() == agg.to_bytes()
        assert AggregateState.from_bytes(self._blob()).to_bytes() == self._blob()

    def test_blob_shorter_than_header_rejected(self):
        for blob in (b"", self._blob()[:23]):
            with pytest.raises(ValueError, match="header"):
                AggregateState.from_bytes(blob)

    def test_blob_m_below_one_rejected(self):
        with pytest.raises(ValueError, match="m = 0"):
            AggregateState.from_bytes(self._blob(m=0, n_total=0, counts=()))

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_blob_bad_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="eps"):
            AggregateState.from_bytes(self._blob(eps=eps))

    @pytest.mark.parametrize("index", range(4))
    def test_blob_count_beyond_int64_rejected(self, index):
        counts = [0, 0, 0, 0]
        counts[index] = 2**63
        with pytest.raises(ValueError, match="2\\^63"):
            AggregateState.from_bytes(self._blob(n_total=2**63, counts=counts))

    @pytest.mark.parametrize("n_total", [0, 2, 5, 2**64 - 1])
    def test_blob_n_total_off_count_sum_rejected(self, n_total):
        with pytest.raises(ValueError, match="n_total"):
            AggregateState.from_bytes(self._blob(n_total=n_total, counts=(1, 0, 0, 0)))

    def test_blob_counts_wrapping_int64_sum_rejected(self):
        # Four counts of 2^62 sum to 2^64, which a 64-bit sum wraps to 0:
        # only an exact sum sees that they do not match n_total = 0.
        big = 2**62
        with pytest.raises(ValueError, match="n_total"):
            AggregateState.from_bytes(self._blob(n_total=0, counts=(big, big, big, big)))


class TestChannelAggregates:
    @staticmethod
    def _table(rows=3, m=5, seed=6):
        return np.random.default_rng(seed).integers(0, 9, size=(rows, m, 2))

    def test_counts_are_views_of_the_table(self):
        table = self._table()
        aggs = channel_aggregates(["a", "b", "c"], table, 0.5)
        for i, agg in enumerate(aggs.values()):
            assert np.shares_memory(agg.plus, table) and np.shares_memory(agg.minus, table)
            np.testing.assert_array_equal(agg.plus, table[i, :, 0])
            np.testing.assert_array_equal(agg.minus, table[i, :, 1])
        aggs["b"].absorb_batch(np.array([4, 4, 0]), np.array([1, -1, -1]))
        want = self._table()[1]
        want[4] += 1
        want[0, 1] += 1
        np.testing.assert_array_equal(table[1], want)
        np.testing.assert_array_equal(table[[0, 2]], self._table()[[0, 2]])

    def test_n_total_is_the_row_sum_and_keys_keep_order(self):
        table = self._table(rows=4)
        keys = [(1, 3), (0, 2), (1, 0), (0, 0)]
        aggs = channel_aggregates(keys, table, 0.5)
        assert list(aggs) == keys
        assert [agg.n_total for agg in aggs.values()] == table.sum(axis=(1, 2)).tolist()
        assert all(agg.m == 5 and agg.eps == 0.5 for agg in aggs.values())

    def test_zero_rows(self):
        assert channel_aggregates([], np.zeros((0, 7, 2), dtype=np.int64), 1.0) == {}

    def test_one_key_per_row(self):
        with pytest.raises(ValueError):
            channel_aggregates(["a", "b"], self._table(rows=3), 1.0)

    def test_bytes_match_report_by_report_absorb(self):
        rng = np.random.default_rng(8)
        table = np.zeros((2, 6, 2), dtype=np.int64)
        wants = [AggregateState(m=6, eps=0.9) for _ in range(2)]
        for i, want in enumerate(wants):
            for _ in range(40 + 7 * i):
                j, sign = int(rng.integers(6)), int(rng.choice([-1, 1]))
                absorb_one(want, SparseReport(position=j, sign=sign))
                table[i, j, int(sign == -1)] += 1
        got = channel_aggregates(["x", "y"], table, 0.9)
        assert [agg.to_bytes() for agg in got.values()] == [w.to_bytes() for w in wants]


class TestClientReport:
    def test_position_in_range(self):
        params = derive_fo_params(16, 100, 1.0, 0.2)
        rng = np.random.default_rng(3)
        for _ in range(50):
            r = fo_client_report(5, params, PUB, 1.0, rng)
            assert 0 <= r.position < params.m_fo

    @pytest.mark.parametrize("v", [None, BOT])
    def test_no_item_randomizes_the_zero_input(self, v):
        # BOT and None are the same user: the zero input's report, draw for
        # draw from the same generator.
        params = derive_fo_params(16, 100, 1.0, 0.2)
        rng, ref = np.random.default_rng(6), np.random.default_rng(6)
        for _ in range(50):
            assert fo_client_report(v, params, PUB, 1.0, rng) == randomize(None, params.m_fo, 1.0, ref)

    # m = 1,203 ends in a partial block and a partial byte; each seed's
    # first draw is the given position: a block edge or the last one.
    @pytest.mark.parametrize("position, seed", [(0, 5945), (511, 199), (512, 2392), (1_202, 757)])
    def test_reads_the_drawn_coordinate(self, position, seed):
        m = 1_203
        params = FoParams(gamma=1.0, m_fo=m, beta=0.1, d=64, n=100, eps=0.5)
        for v in (0, 9, 63):
            report = fo_client_report(v, params, PUB, 0.5, np.random.default_rng(seed))
            assert report.position == position
            assert report == randomize(PUB.sign_array(("phi", v), m), m, 0.5, np.random.default_rng(seed))

    @pytest.mark.parametrize("v", [16, -2])
    def test_item_outside_the_universe_draws_nothing(self, v):
        params = derive_fo_params(16, 100, 1.0, 0.2)
        rng = np.random.default_rng(7)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"item {v} outside universe"):
            fo_client_report(v, params, PUB, 1.0, rng)
        assert rng.bit_generator.state == before

    def test_toy_channel_audits_to_eps(self):
        # Exact channel over 4 items with an 8-coordinate projection.
        m, eps, d = 8, 1.0, 4
        probs = np.stack(
            [report_distribution(PUB.sign_array(("phi", v), m), m, eps) for v in range(d)]
        )
        ch = ChannelMatrix(inputs=list(range(d)), outputs=outcome_labels(m), probs=probs)
        res = audit_ldp(ch)
        assert res.eps_observed <= eps + 1e-9
        assert res.eps_observed == pytest.approx(eps, abs=1e-9)

    def test_expected_report_is_column(self):
        # Empirical unbiasedness of the fast path against the column.
        m, eps, n = 16, 1.0, 60_000
        rng = np.random.default_rng(4)
        agg = fo_simulate_reports(np.full(n, 9), m, eps, PUB, rng)
        zbar = agg.zbar()
        target = PUB.sign_array(("phi", 9), m).astype(np.float64) / math.sqrt(m)
        assert np.max(np.abs(zbar - target)) < 5 * c_eps(eps) / math.sqrt(n) * math.sqrt(m)

    def test_simulate_refuses_items_below_bot(self):
        # -1 is the only "no item" value; the refusal comes before any draw.
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="item -7"):
            fo_simulate_reports(np.array([-5, -7, 3, 3]), 16, 1.0, PUB, rng)
        assert rng.bit_generator.state == before


class TestEstimate:
    def test_estimator_formula_exact(self):
        # Counts aligned exactly with item w's column: the inner product
        # collapses to c_eps, with no floating slack beyond 1e-12.
        m, eps = 64, 0.9
        col = PUB.sign_array(("phi", 2), m)
        agg = AggregateState(m=m, eps=eps)
        agg.plus = (col > 0).astype(np.int64)
        agg.minus = (col < 0).astype(np.int64)
        agg.n_total = m
        assert fo_estimate(agg, PUB, 2) == pytest.approx(c_eps(eps), abs=1e-12)

    def test_point_mass_estimates_near_one(self):
        d, n, eps = 16, 100_000, 8.0
        params = derive_fo_params(d, n, eps, 0.1)
        rng = np.random.default_rng(5)
        agg = fo_simulate_reports(np.full(n, 3), params.m_fo, eps, PUB, rng)
        est = fo_estimate(agg, PUB, 3)
        assert abs(est - 1.0) < 5 / math.sqrt(n)

    def test_estimate_many_matches_single(self):
        rng = np.random.default_rng(6)
        agg = fo_simulate_reports(rng.integers(0, 8, 5000), 256, 1.0, PUB, rng)
        singles = [fo_estimate(agg, PUB, v) for v in range(8)]
        assert np.array_equal(fo_estimate_many(agg, PUB, list(range(8))), singles)

    def test_partition_invariance_bit_exact(self):
        # The estimate is a pure function of the integer counts, so any
        # shard-and-merge split gives bit-identical floats.
        rng = np.random.default_rng(7)
        items = rng.integers(0, 32, 4000)
        m, eps = 128, 0.8
        whole = fo_simulate_reports(items, m, eps, PUB, np.random.default_rng(8))
        rng2 = np.random.default_rng(8)
        parts = [fo_simulate_reports(chunk, m, eps, PUB, rng2) for chunk in np.array_split(items, 5)]
        merged = parts[0]
        for p in parts[1:]:
            merged.merge(p)
        # identical multiset of reports is not guaranteed across the two
        # rng consumption patterns, so compare estimates from equal counts
        merged2 = AggregateState(m=m, eps=eps, n_total=whole.n_total,
                                 plus=whole.plus.copy(), minus=whole.minus.copy())
        assert fo_estimate(merged2, PUB, 3) == fo_estimate(whole, PUB, 3)

    def test_unbiased_toward_projected_frequencies(self):
        # Conditioned on the columns, E[estimate(v)] is the inner product
        # of v's column with the column-weighted frequency vector; the
        # randomizer adds no bias of its own.
        d, n, m, eps = 8, 4000, 512, 1.0
        rng = np.random.default_rng(11)
        items = rng.integers(0, d, n)
        freqs = np.bincount(items, minlength=d) / n
        cols = np.stack([PUB.sign_array(("phi", v), m) for v in range(d)]).astype(np.float64)
        target = cols @ (cols.T @ freqs) / m  # <col_v, sum_w f(w) col_w> / m
        trials = 60
        acc = np.zeros(d)
        for t in range(trials):
            agg = fo_simulate_reports(items, m, eps, PUB, np.random.default_rng(200 + t))
            acc += fo_estimate_many(agg, PUB, np.arange(d))
        mean_est = acc / trials
        tol = 5 * c_eps(eps) / math.sqrt(n * trials)
        assert np.max(np.abs(mean_est - target)) < tol

    def test_end_to_end_linf_error(self):
        d, n, eps, beta = 64, 20_000, 1.0, 0.1
        params = derive_fo_params(d, n, eps, beta)
        rng = np.random.default_rng(9)
        items = rng.integers(0, d, n)
        truth = np.bincount(items, minlength=d) / n
        agg = fo_simulate_reports(items, params.m_fo, eps, PUB, rng)
        est = fo_estimate_many(agg, PUB, np.arange(d))
        linf = np.max(np.abs(est - truth))
        bound = 3 * math.sqrt(math.log(2 * d / beta) / (eps * eps * n))
        assert linf <= bound

    def test_requires_reports(self):
        agg = AggregateState(m=8, eps=1.0)
        with pytest.raises(ValueError):
            fo_estimate(agg, PUB, 0)

    @pytest.mark.parametrize("plus0, minus1", [(2**24 - 1, 1), (2**24 + 1, 0), (2**24, 1)])
    def test_inner_estimates_exact_past_float32(self, plus0, minus1):
        # sum(|plus - minus|) is 2^24, 2^24 + 1 and 2^24 + 1, where a float32
        # product would round.  The columns of items 0..7 start with all four
        # sign pairs, and item 7's starts (+1, -1), so its product is the
        # whole sum: 2^24 + 1 in the last two cases.  The popcount kernel's
        # integers are exact at any size.
        m, eps = 40, 1.0
        plus, minus = np.zeros(m, dtype=np.int64), np.zeros(m, dtype=np.int64)
        plus[0], minus[1] = plus0, minus1
        agg = AggregateState(m=m, eps=eps, n_total=plus0 + minus1, plus=plus, minus=minus)
        cols = [PUB.sign_array(("phi", v), m) for v in range(8)]
        assert {tuple(col[:2].tolist()) for col in cols} == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
        assert cols[7][:2].tolist() == [1, -1]
        assert fo_estimate_many(agg, PUB, range(8)).tolist() == [_python_estimate(agg, col) for col in cols]
        assert fo_estimate_many(agg, PUB, [7]).tolist() == [c_eps(eps) / agg.n_total * float(plus0 + minus1)]

    @pytest.mark.parametrize("m", [1, 63, 64, 65, 511, 513, 4099])
    def test_estimates_match_python_ints(self, m):
        # Every m around a word or block edge: the column's padding bits
        # past m must not count.
        rng = np.random.default_rng(m)
        plus, minus = rng.integers(0, 50, m), rng.integers(0, 9, m)
        agg = AggregateState(m=m, eps=0.7, n_total=int(plus.sum() + minus.sum()), plus=plus, minus=minus)
        items = [0, 1, 2, 1000, 2**40]
        assert fo_estimate_many(agg, PUB, items).tolist() == \
            [_python_estimate(agg, PUB.sign_array(("phi", v), m)) for v in items]

    @pytest.mark.parametrize("minus_top", [0, 2**40 + 5])
    def test_estimates_with_many_planes_or_no_minus(self, minus_top):
        # A count near 2^40 makes 40 planes; an all-zero minus makes none.
        m = 700
        rng = np.random.default_rng(3)
        plus, minus = rng.integers(0, 9, m), np.zeros(m, dtype=np.int64)
        plus[17], minus[300] = 2**40 - 3, minus_top
        agg = AggregateState(m=m, eps=1.0, n_total=int(plus.sum() + minus.sum()), plus=plus, minus=minus)
        assert fo_estimate_many(agg, PUB, range(8)).tolist() == \
            [_python_estimate(agg, PUB.sign_array(("phi", v), m)) for v in range(8)]

    def test_estimates_of_strided_table_rows(self):
        m = 600
        table = np.random.default_rng(5).integers(0, 30, (3, m, 2))
        for agg in channel_aggregates("abc", table, 0.9).values():
            assert not agg.plus.flags.contiguous
            assert fo_estimate_many(agg, PUB, range(4)).tolist() == \
                [_python_estimate(agg, PUB.sign_array(("phi", v), m)) for v in range(4)]

    @pytest.mark.parametrize("m", [1, 512, 513, 209_201])
    def test_estimates_hash_only_the_column_blocks(self, m, monkeypatch):
        import ldphist.core as core

        read = []
        blocks = core._prf_blocks
        monkeypatch.setattr(core, "_prf_blocks", lambda state, idx: read.extend(idx) or blocks(state, idx))
        agg = AggregateState(m=m, eps=1.0)
        agg.absorb_batch(np.array([0]), np.array([1]))
        fo_estimate_many(agg, PUB, range(5))
        assert len(read) == 5 * -(-m // 512)

    def test_estimate_many_of_no_items(self):
        agg = AggregateState(m=8, eps=1.0)
        agg.absorb_batch(np.array([3]), np.array([1]))
        est = fo_estimate_many(agg, PUB, [])
        assert est.dtype == np.float64 and est.shape == (0,)


def _python_estimate(agg: AggregateState, column: np.ndarray) -> float:
    """c_eps / n_total * <column, plus - minus>, the product in Python ints."""
    diff = [int(p) - int(q) for p, q in zip(agg.plus, agg.minus)]
    return c_eps(agg.eps) / agg.n_total * float(sum(int(c) * w for c, w in zip(column, diff)))


def _full_column_absorb(agg, groups, column_of, rng):
    """Reference randomize-and-absorb: the same draws as absorb_groups, but
    each group's whole column is made and then indexed at its positions."""
    for v, count in groups:
        j = rng.integers(0, agg.m, size=count)
        if v < 0:
            signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=count)
        else:
            x = column_of(int(v))
            keep = rng.random(count) < math.exp(agg.eps) / (math.exp(agg.eps) + 1.0)
            signs = np.where(keep, x[j], -x[j])
        agg.absorb_batch(j, signs)
    return agg


class TestBlockPathEquivalence:
    """The simulations read only the column blocks they draw, with the
    same draws, so they count exactly what the full-column path counts."""

    @staticmethod
    def _assert_same(got, want):
        np.testing.assert_array_equal(got.plus, want.plus)
        np.testing.assert_array_equal(got.minus, want.minus)
        assert got.n_total == want.n_total

    @pytest.mark.parametrize("m", [1, 700, 1_203])
    def test_fo_simulate_reports(self, m):
        items = np.random.default_rng(3).integers(-1, 40, 5_000)
        assert (items == -1).any()
        got = fo_simulate_reports(items, m, 0.8, PUB, np.random.default_rng(11))
        values, counts = np.unique(items, return_counts=True)
        want = _full_column_absorb(AggregateState(m=m, eps=0.8), zip(values, counts),
                                   lambda v: PUB.sign_array(("phi", v), m), np.random.default_rng(11))
        self._assert_same(got, want)

    def test_pp_aggregate(self):
        from ldphist.codec import build_code
        from ldphist.heavy_hitter import BOT, pp_aggregate

        code = build_code(64, "reference")
        items = np.random.default_rng(4).integers(0, 64, 3_000)
        items[::7] = BOT
        got = pp_aggregate(items, code, 1.5, np.random.default_rng(12))
        values, counts = np.unique(items, return_counts=True)
        want = _full_column_absorb(AggregateState(m=code.m, eps=1.5), zip(values, counts),
                                   code.encode, np.random.default_rng(12))
        self._assert_same(got, want)

    def test_client_report_reads_one_block(self, monkeypatch):
        import ldphist.core as core

        read = []
        block, blocks = core._prf_block, core._prf_blocks
        monkeypatch.setattr(core, "_prf_block",
                            lambda state, i, *suffix: read.append(i) or block(state, i, *suffix))
        monkeypatch.setattr(core, "_prf_blocks", lambda state, idx: read.append(idx) or blocks(state, idx))
        params = derive_fo_params(64, 10_000, 1.0, 0.1)
        report = fo_client_report(9, params, PUB, 1.0, np.random.default_rng(5))
        assert read == [report.position // 512]
        full = randomize(PUB.sign_array(("phi", 9), params.m_fo), params.m_fo, 1.0, np.random.default_rng(5))
        assert report == full


def _per_group_fill(rows, m, groups, column_of, eps, rng):
    """Reference fill: each group's randomize_many draws, its signs read
    from the whole column, then absorb_batch into its row's aggregate."""
    aggs = [AggregateState(m=m, eps=eps) for _ in range(rows)]
    for row, v, count in groups:
        j, flips = randomize_many(count, eps, m, rng, zero=v == BOT)
        x = np.ones(count, dtype=np.int8) if v == BOT else column_of(v)[j]
        aggs[row].absorb_batch(j, np.where(flips, -x, x))
    return aggs


class TestAbsorbGroups:
    """absorb_groups draws group by group but reads and counts its draws a
    chunk at a time; with the same seed it counts exactly what the
    per-group reference counts, wherever the chunk boundaries fall."""

    M, EPS = 700, 0.9  # two PRF blocks per column, the second partial
    WORDS = np.random.default_rng(40).choice(np.array([-1, 1], dtype=np.int8), size=(16, 700))

    @classmethod
    def _sources(cls, kind):
        """(signs_of, column_of) over codeword-like rows or PRF columns."""
        if kind == "words":
            return (lambda items, j: cls.WORDS[items, j]), (lambda v: cls.WORDS[v])
        return (lambda items, j: PUB.signs_at(("phi",), j, items)), (lambda v: PUB.sign_array(("phi", v), cls.M))

    # With a 64 * 10-byte budget a chunk holds 10 draws.
    CASES = {
        "straddles": [(0, 3, 4), (0, 5, 9), (0, 7, 2)],  # draws 4..12 cross draw 10
        "ends-on-a-group": [(0, 3, 4), (0, 5, 6), (0, 7, 3)],  # the first chunk is exactly 4 + 6
        "larger-than-a-chunk": [(0, 3, 2), (0, 5, 27), (0, 7, 1)],  # 27 draws span three chunks
        "empty-rows": [(1, 3, 5), (1, 4, 0), (4, 5, 7), (4, BOT, 0), (5, BOT, 3)],  # rows 0, 2, 3 get none
        "bot-groups": [(r, v, c) for r in range(4) for v, c in ((2, 3), (9, 4), (BOT, 11))],
        "one-item-many-rows": [(r, 6, 3 + r) for r in range(8)],
    }

    @pytest.mark.parametrize("kind", ["words", "prf"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_per_group_fill(self, monkeypatch, case, kind):
        monkeypatch.setattr(freq_oracle, "_FILL_BYTES", 64 * 10)
        groups, (signs_of, column_of) = self.CASES[case], self._sources(kind)
        rows = 1 + max(row for row, _, _ in groups)
        table = np.zeros((rows, self.M, 2), dtype=np.int64)
        rng = np.random.default_rng(41)
        absorb_groups(table, iter(groups), signs_of, self.EPS, rng)
        ref_rng = np.random.default_rng(41)
        want = _per_group_fill(rows, self.M, groups, column_of, self.EPS, ref_rng)
        got = channel_aggregates(range(rows), table, self.EPS)
        assert [got[i].to_bytes() for i in range(rows)] == [agg.to_bytes() for agg in want]
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert table.sum() == sum(count for _, _, count in groups)

    def test_full_budget_matches_per_group_fill(self):
        # 9,000 draws in groups of up to 60: chunks of 4,096 split groups.
        rng = np.random.default_rng(42)
        groups = [(int(r), int(v), int(c)) for r, v, c in
                  zip(rng.integers(0, 3, 300), rng.integers(-1, 16, 300), rng.integers(0, 61, 300))]
        signs_of, column_of = self._sources("words")
        table = np.zeros((3, self.M, 2), dtype=np.int64)
        absorb_groups(table, iter(groups), signs_of, self.EPS, np.random.default_rng(43))
        want = _per_group_fill(3, self.M, groups, column_of, self.EPS, np.random.default_rng(43))
        got = channel_aggregates(range(3), table, self.EPS)
        assert [got[i].to_bytes() for i in range(3)] == [agg.to_bytes() for agg in want]

    def test_item_below_bot_refused_before_later_draws(self):
        rng, ref = np.random.default_rng(44), np.random.default_rng(44)
        table = np.zeros((1, self.M, 2), dtype=np.int64)
        with pytest.raises(ValueError, match="item -2"):
            absorb_groups(table, iter([(0, 3, 5), (0, -2, 5), (0, 4, 5)]), self._sources("words")[0],
                          self.EPS, rng)
        randomize_many(5, self.EPS, self.M, ref)  # the first group's draws only
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("n", [20_000, 200_000])
    def test_memory_is_bounded(self, n):
        # One chunk of draws is held and read at a time, so the fill's peak
        # above its groups and its table is the same multiple of the budget
        # at either n.  At m = 2^16 nearly every draw reads its own 64-byte
        # PRF block: reading all 2 x 10^5 at once would take 12.8 MB.
        m = 1 << 16
        values, counts = np.unique(np.random.default_rng(45).integers(0, n // 10, n), return_counts=True)
        groups = [(0, v, c) for v, c in zip(values.tolist(), counts.tolist())]
        table = np.zeros((1, m, 2), dtype=np.int64)
        signs_of = self._sources("prf")[0]
        tracemalloc.start()
        try:
            absorb_groups(table, iter(groups), signs_of, self.EPS, np.random.default_rng(46))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.sum() == n
        assert peak < 8 * freq_oracle._FILL_BYTES
