import json
import math
import re
import time

import numpy as np
import pytest

from ldphist import harness
from ldphist.core import PublicRandomness, derive_fo_params
from ldphist.harness import (
    FO_UNIVERSE_CAP,
    DatasetSpec,
    ExperimentConfig,
    fo_scaling_sweep,
    gen_dataset,
    hh_precision_recall,
    linf_error,
    protocol_setup,
    run_experiment,
    truth_frequencies,
)
from ldphist.heavy_hitter import BOT, MERSENNE_P, SuccinctHistogram


class TestDatasets:
    def test_planted_exact_counts(self):
        spec = DatasetSpec(kind="planted", d=16, n=10, seed=0, planted=((5, 0.3),))
        items = gen_dataset(spec)
        assert int((items == 5).sum()) == 3

    def test_planted_remainder_avoids_planted_items(self):
        spec = DatasetSpec(kind="planted", d=8, n=1000, seed=1,
                           planted=((1, 0.5), (2, 0.25)))
        items = gen_dataset(spec)
        assert int((items == 1).sum()) == 500
        assert int((items == 2).sum()) == 250
        rest = items[(items != 1) & (items != 2)]
        assert len(rest) == 250
        assert set(np.unique(rest)) <= set(range(8)) - {1, 2}

    @pytest.mark.parametrize("d, planted", [
        (2, ((0, 0.5),)),
        (2, ((1, 0.3),)),
        (5, ((4, 0.2), (0, 0.2))),
        (16, ((15, 0.1), (0, 0.1), (7, 0.3))),
        (64, ((3, 0.1), (4, 0.1), (5, 0.1), (63, 0.1))),
        (1000, ((998, 0.3), (999, 0.2))),
        (4, ((0, 0.5), (1, 0.5))),
    ])
    def test_planted_remainder_matches_choice_over_the_rest(self, d, planted):
        # The remainder as rng.choice over the explicit unplanted items draws it.
        spec = DatasetSpec(kind="planted", d=d, n=2000, seed=d, planted=planted)
        rng = np.random.default_rng([spec.seed, 0xD5EED])
        ids = [v for v, _ in planted]
        head = np.repeat(ids, [int(round(f * spec.n)) for _, f in planted])
        rest = np.setdiff1d(np.arange(d), np.array(ids, dtype=np.int64))
        tail = rng.choice(rest, size=spec.n - len(head)) if len(head) < spec.n else []
        want = np.concatenate([head, tail]).astype(np.int64)
        assert gen_dataset(spec).tobytes() == want.tobytes()

    def test_planted_refuses_a_remainder_with_no_items_left(self):
        spec = DatasetSpec(kind="planted", d=2, n=10, seed=0, planted=((0, 0.3), (1, 0.3)))
        with pytest.raises(ValueError, match="no unplanted items left"):
            gen_dataset(spec)

    def test_planted_draw_does_not_grow_with_d(self):
        d = 2**40
        spec = DatasetSpec(kind="planted", d=d, n=1000, seed=4, planted=((0, 0.3), (d - 1, 0.2)))
        started = time.perf_counter()
        items = gen_dataset(spec)
        assert time.perf_counter() - started < 0.2
        rest = items[500:]
        assert (items[:300] == 0).all() and (items[300:500] == d - 1).all()
        assert ((rest > 0) & (rest < d - 1)).all() and len(np.unique(rest)) == 500

    @pytest.mark.parametrize("extra, named", [
        ({"planted": ((1, -0.1), (2, 0.6))}, "planted frequency -0.1 of item 1 outside [0, 1]"),
        ({"planted": ((1, math.nan),)}, "planted frequency nan of item 1 outside [0, 1]"),
        ({"n": 3, "planted": ((1, 0.5), (2, 0.5))}, "planted counts sum to 4 > n = 3"),
        ({"n": 2, "planted": ((1, 1 / 3), (2, 1 / 3), (3, 1 / 3))}, "planted counts sum to 3 > n = 2"),
        ({"kind": "zipf", "s": math.nan}, "zipf exponent s must be finite, got nan"),
        ({"kind": "zipf", "s": math.inf}, "zipf exponent s must be finite, got inf"),
    ], ids=["planted-negative", "planted-nan", "planted-halves-at-3", "planted-thirds-at-2",
            "zipf-nan", "zipf-inf"])
    def test_refuses_a_spec_whose_dataset_would_differ(self, extra, named):
        # Each would otherwise draw a dataset other than the one the
        # manifest records, or fail late inside numpy.
        with pytest.raises(ValueError, match=re.escape(named)):
            DatasetSpec(**{"kind": "planted", "d": 64, "n": 100, "seed": 0, **extra})

    def test_planted_mass_validation(self):
        with pytest.raises(ValueError):
            DatasetSpec(kind="planted", d=8, n=10, seed=0,
                        planted=((1, 0.7), (2, 0.5)))

    def test_promise_counts(self):
        spec = DatasetSpec(kind="promise", d=16, n=10, seed=0, eta=0.2, item=9)
        items = gen_dataset(spec)
        assert int((items == 9).sum()) == 2
        assert int((items == BOT).sum()) == 8

    def test_zipf_rank_one_mass(self):
        d, n, s = 1024, 100_000, 1.1
        spec = DatasetSpec(kind="zipf", d=d, n=n, seed=3, s=s)
        items = gen_dataset(spec)
        weights = np.arange(1, d + 1, dtype=float) ** (-s)
        weights /= weights.sum()
        p1 = weights[0]
        se = math.sqrt(p1 * (1 - p1) / n)
        assert abs((items == 0).mean() - p1) < 3 * se

    def test_deterministic(self):
        spec = DatasetSpec(kind="uniform", d=64, n=500, seed=9)
        assert np.array_equal(gen_dataset(spec), gen_dataset(spec))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            DatasetSpec(kind="weird", d=4, n=4, seed=0)

    @pytest.mark.parametrize("extra, named", [
        ({"kind": "planted", "planted": ((3, 0.1), (64, 0.5))}, "planted item 64 outside [0, 64)"),
        ({"kind": "planted", "planted": ((-3, 0.5),)}, "planted item -3 outside [0, 64)"),
        ({"kind": "promise", "eta": 1.0, "item": -1}, "promise item -1 outside [0, 64)"),
        ({"kind": "promise", "eta": 0.5, "item": 64}, "promise item 64 outside [0, 64)"),
    ], ids=["planted-above", "planted-negative", "promise-bot", "promise-above"])
    def test_items_outside_the_universe(self, extra, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            DatasetSpec(d=64, n=100, seed=0, **extra)
        edge = {**extra, "planted": ((63, 0.5),), "item": 63}
        assert gen_dataset(DatasetSpec(d=64, n=100, seed=0, **edge)).max() == 63


def _truth_mapping(items):
    """{item: frequency} of the items held, as run_experiment builds it."""
    held, counts = np.unique(items[items != BOT], return_counts=True)
    return dict(zip(held.tolist(), (counts / len(items)).tolist()))


def _dense_linf(truth: np.ndarray, hist: SuccinctHistogram) -> float:
    # The length-d formula the mapping replaced, kept as the reference.
    est = np.zeros(len(truth))
    for v, f in hist.entries:
        est[v] = f
    return float(np.max(np.abs(est - truth)))


def _dense_precision_recall(truth: np.ndarray, hist: SuccinctHistogram, threshold: float):
    out = set(hist.items())
    heavy = {int(v) for v in np.nonzero(truth >= threshold)[0]}
    precision = 1.0 if not out else len(out & heavy) / len(out)
    recall = 1.0 if not heavy else len(out & heavy) / len(heavy)
    return precision, recall


class TestLinfError:
    def test_exact_restriction_is_zero(self):
        truth = {2: 0.6, 5: 0.4}
        hist = SuccinctHistogram(entries=[(2, 0.6), (5, 0.4)], threshold=0.1)
        assert linf_error(truth, hist) == 0.0

    def test_empty_estimate_point_mass(self):
        truth = {3: 1.0}
        hist = SuccinctHistogram(entries=[], threshold=0.1)
        assert linf_error(truth, hist) == 1.0

    def test_hand_case_dominated_by_missing_item(self):
        truth = {0: 0.5, 1: 0.5}
        hist = SuccinctHistogram(entries=[(0, 0.45)], threshold=0.1)
        assert linf_error(truth, hist) == pytest.approx(0.5)

    def test_precision_recall(self):
        truth = {1: 0.5, 2: 0.3}
        hist = SuccinctHistogram(entries=[(1, 0.52), (7, 0.2)], threshold=0.15)
        precision, recall = hh_precision_recall(truth, hist, 0.15)
        assert precision == 0.5
        assert recall == 0.5

    @pytest.mark.parametrize("seed", range(24))
    def test_mapping_metrics_equal_the_dense_formulas(self, seed):
        # Seeds cycle through no, some and only BOT users (seed % 3) and an
        # empty or a random histogram (seed % 4), which publishes items that
        # nobody holds as well as held ones.
        rng = np.random.default_rng([seed, 0x7A11])
        d, n = int(rng.integers(1, 17)), int(rng.integers(1, 60))
        items = rng.integers(0, d, n)
        items[rng.random(n) < (0.0, 0.4, 1.0)[seed % 3]] = BOT
        published = [] if seed % 4 == 0 else rng.choice(d, int(rng.integers(1, d + 1)), replace=False)
        hist = SuccinctHistogram(entries=[(int(v), float(rng.random())) for v in published],
                                 threshold=0.1)
        dense, truth = truth_frequencies(items, d), _truth_mapping(items)
        assert truth == {v: f for v, f in enumerate(dense.tolist()) if f}
        assert linf_error(truth, hist) == _dense_linf(dense, hist)
        for threshold in (0.05, float(rng.uniform(0.01, 1.0)), 1.0):
            assert hh_precision_recall(truth, hist, threshold) == _dense_precision_recall(
                dense, hist, threshold)


class TestProtocolSetup:
    def test_parts_per_protocol(self):
        fo = protocol_setup("fo", 64, 1000, 1.0, 0.2)
        assert fo.code is None and fo.hh is None
        assert fo.fo == derive_fo_params(64, 1000, 1.0, 0.2)
        assert set(fo.derived()) == {"fo_params"}
        pp = protocol_setup("pp", 64, 1000, 1.0, 0.2)
        assert pp.hh is None and pp.fo is None
        assert pp.derived() == {"code": pp.code.header()}
        hist = protocol_setup("hist", 64, 10_000, 2.0, 0.5, k_override=8)
        assert hist.hh.K == 8
        assert hist.fo == derive_fo_params(64, 10_000, hist.hh.eps_channel, 0.5 / 3)
        assert set(hist.derived()) == {"hh_params", "fo_params", "code"}
        with pytest.raises(ValueError, match="unknown protocol"):
            protocol_setup("hh", 64, 1000, 1.0, 0.2)

    def test_oracle_one_bit_structure(self):
        setup = protocol_setup("fo", 64, 1000, 0.5, 0.2)
        s = setup.one_bit(PublicRandomness.from_any(1), run_id=3)
        assert (s.run_id, s.K, s.T, s.eps_channel, s.m_fo, s.code) == (
            3, 1, 0, 0.5, setup.fo.m_fo, None)

    def test_universe_caps(self):
        assert protocol_setup("fo", FO_UNIVERSE_CAP, 1000, 1.0, 0.2).fo.d == FO_UNIVERSE_CAP
        with pytest.raises(ValueError, match="cap is 65536"):
            protocol_setup("fo", FO_UNIVERSE_CAP + 1, 1000, 1.0, 0.2)
        hist = dict(n=1000, eps=2.0, beta=0.5, k_override=8, code_kind="concatenated")
        assert protocol_setup("hist", MERSENNE_P, **hist).hh.d == MERSENNE_P
        with pytest.raises(ValueError, match="2\\^61 - 1"):
            protocol_setup("hist", MERSENNE_P + 1, **hist)

    def test_built_once_per_run(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return protocol_setup(*args, **kwargs)

        monkeypatch.setattr(harness, "protocol_setup", counted)
        cfg = ExperimentConfig(protocol="fo", dataset=DatasetSpec(kind="uniform", d=16, n=200, seed=6),
                               eps=1.0, beta=0.2, trials=3)
        assert len(run_experiment(cfg).trial_metrics) == 3
        assert len(calls) == 1


class TestRunExperiment:
    def test_fo_experiment_and_determinism(self, tmp_path):
        cfg = ExperimentConfig(
            protocol="fo",
            dataset=DatasetSpec(kind="uniform", d=32, n=4000, seed=5),
            eps=1.0,
            beta=0.2,
            seed=5,
            trials=2,
        )
        csv_a = tmp_path / "a.csv"
        man_a = tmp_path / "a.json"
        rec_a = run_experiment(cfg, out_csv=str(csv_a), out_manifest=str(man_a))
        csv_b = tmp_path / "b.csv"
        man_b = tmp_path / "b.json"
        rec_b = run_experiment(cfg, out_csv=str(csv_b), out_manifest=str(man_b))
        assert csv_a.read_bytes() == csv_b.read_bytes()
        assert man_a.read_bytes() == man_b.read_bytes()
        assert rec_a.linf_error == rec_b.linf_error
        assert rec_a.linf_error < 0.2
        manifest = json.loads(man_a.read_text())
        assert manifest["csv_schema_version"] == 1
        assert manifest["derived"]["fo_params"]["m_fo"] >= 1

    def test_truth_checksum_recorded(self):
        cfg = ExperimentConfig(
            protocol="fo",
            dataset=DatasetSpec(kind="uniform", d=16, n=200, seed=6),
            eps=1.0,
            beta=0.2,
            trials=1,
        )
        rec = run_experiment(cfg)
        items = gen_dataset(DatasetSpec(kind="uniform", d=16, n=200, seed=6))
        import hashlib

        assert rec.items_sha256 == hashlib.sha256(items.tobytes()).hexdigest()

    def test_pp_experiment(self):
        cfg = ExperimentConfig(
            protocol="pp",
            dataset=DatasetSpec(kind="promise", d=256, n=20_000, seed=7, eta=1.0, item=77),
            eps=2.0,
            beta=0.1,
            trials=3,
        )
        rec = run_experiment(cfg)
        assert all(m["recovered"] for m in rec.trial_metrics)
        assert rec.linf_error < 0.05

    def test_hist_experiment(self, tmp_path):
        cfg = ExperimentConfig(
            protocol="hist",
            dataset=DatasetSpec(kind="planted", d=64, n=10_000, seed=8,
                                planted=((7, 0.6),)),
            eps=2.0,
            beta=0.5,
            seed=8,
            trials=1,
            k_override=100_000,
        )
        rec = run_experiment(cfg, out_csv=str(tmp_path / "h.csv"))
        assert rec.trial_metrics[0]["planted_recovered"]
        csv_text = (tmp_path / "h.csv").read_text()
        assert csv_text.startswith("item,estimated_frequency,true_frequency")

    def test_truth_includes_bot_in_denominator(self):
        items = np.array([1, 1, BOT, BOT])
        truth = truth_frequencies(items, 4)
        assert truth[1] == 0.5

    def test_scored_truth_includes_bot_in_denominator(self, tmp_path):
        # Half of the users hold item 1 and half hold nothing; every run
        # scores against frequency 0.5 for it, and 0 for every other item.
        spec = DatasetSpec(kind="promise", d=4, n=200, seed=0, eta=0.5, item=1)
        csv = tmp_path / "fo.csv"
        run_experiment(ExperimentConfig("fo", spec, eps=1.0, beta=0.2), out_csv=str(csv))
        truths = [line.split(",")[1] for line in csv.read_text().splitlines()[1:]]
        assert truths == ["0", "0.5", "0", "0"]
        pp = run_experiment(ExperimentConfig("pp", spec, eps=2.0, beta=0.1))
        assert pp.trial_metrics[0]["recovered"]
        assert pp.linf_error == abs(pp.trial_metrics[0]["estimate"] - 0.5)

    def test_pp_with_nobody_holding_the_item_scores_zero(self, tmp_path):
        spec = DatasetSpec(kind="promise", d=64, n=500, seed=4, eta=0.0, item=5)
        csv = tmp_path / "pp.csv"
        rec = run_experiment(ExperimentConfig("pp", spec, eps=2.0, beta=0.1), out_csv=str(csv))
        assert not rec.trial_metrics[0]["recovered"]
        assert rec.linf_error == 0.0
        assert csv.read_text().splitlines()[1].endswith(",0")

    def test_hist_one_bit_pipeline(self):
        # Mechanics of the single-bit collection path: acceptance near 1/2
        # and a well-formed histogram; at eps <= ln 2 split over 2T+1
        # channels the per-channel signal is too weak for reliable
        # recovery at this scale, so none is asserted.
        cfg = ExperimentConfig(
            protocol="hist",
            dataset=DatasetSpec(kind="planted", d=16, n=2000, seed=13,
                                planted=((3, 0.9),)),
            eps=math.log(2),
            beta=0.5,
            seed=13,
            trials=1,
            k_override=16,
            one_bit=True,
        )
        rec = run_experiment(cfg)
        m = rec.trial_metrics[0]
        assert abs(m["acceptance_rate"] - 0.5) < 0.05
        assert 0.0 <= rec.linf_error <= 1.0

    def test_one_bit_requires_small_channel_count(self):
        cfg = ExperimentConfig(
            protocol="hist",
            dataset=DatasetSpec(kind="uniform", d=16, n=2000, seed=13),
            eps=math.log(2),
            beta=0.5,
            trials=1,
            k_override=100_000,
            one_bit=True,
        )
        with pytest.raises(ValueError, match="one-bit"):
            run_experiment(cfg)


class TestSweep:
    def test_ratio_near_two(self):
        out = fo_scaling_sweep(256, 1.0, 0.2, [4000, 16000], trials=9, seed=11)
        (ratio,) = out["ratios"]
        assert 1.4 < ratio < 2.7
