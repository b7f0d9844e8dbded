import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldphist.core import c_eps, report_magnitude
from ldphist.randomizer import (
    ChannelMatrix,
    amplified_epsilon,
    audit_ldp,
    compose,
    degrade,
    degrading_matrix,
    mutual_information,
    position_slice,
    randomize,
    randomizer_channel,
    report_distribution,
)


def all_sign_vectors(m):
    out = []
    for v in range(2**m):
        bits = [(v >> k) & 1 for k in range(m)]
        out.append(np.array([1 - 2 * b for b in bits], dtype=np.int8))
    return out


def expected_report_vector(probs, m, eps):
    # Closed-form E[report vector] from the exact pmf: coordinate k gets
    # magnitude c_eps*sqrt(m) times P[(k,+)] - P[(k,-)].
    return report_magnitude(eps, m) * (probs[0::2] - probs[1::2])


class TestRandomize:
    def test_zero_input_uniform(self):
        rng = np.random.default_rng(0)
        m = 4
        counts = np.zeros(2 * m)
        trials = 80_000
        for _ in range(trials):
            r = randomize(None, m, 1.0, rng)
            counts[2 * r.position + (0 if r.sign > 0 else 1)] += 1
        freqs = counts / trials
        # each of the 8 outcomes has probability 1/8
        assert np.all(np.abs(freqs - 1 / 8) < 5 * math.sqrt(0.125 * 0.875 / trials))

    def test_sign_bias_m1(self):
        rng = np.random.default_rng(1)
        x = np.array([1], dtype=np.int8)
        trials = 60_000
        plus = sum(randomize(x, 1, math.log(3), rng).sign > 0 for _ in range(trials))
        assert plus / trials == pytest.approx(0.75, abs=0.01)

    def test_rejects_bad_input(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            randomize(np.array([1, 0, -1]), 3, 1.0, rng)
        with pytest.raises(ValueError):
            randomize(np.array([1, -1]), 3, 1.0, rng)
        with pytest.raises(ValueError):
            randomize(None, 3, 0.0, rng)


class TestReportDistribution:
    def test_zero_m2_uniform(self):
        probs = report_distribution(None, 2, 2.7)
        assert np.allclose(probs, 0.25, atol=1e-15)

    def test_two_coordinate_example(self):
        # x = (+, -), eps = ln 3: branch probability 3/4, position 1/2 each.
        probs = report_distribution(np.array([1, -1], dtype=np.int8), 2, math.log(3))
        assert probs == pytest.approx([3 / 8, 1 / 8, 1 / 8, 3 / 8], abs=1e-15)

    def test_match_probability_formula(self):
        m, eps = 8, 0.7
        x = all_sign_vectors(m)[137]
        probs = report_distribution(x, m, eps)
        e = math.exp(eps)
        for j in range(m):
            match = probs[2 * j] if x[j] > 0 else probs[2 * j + 1]
            assert match == pytest.approx(e / (m * (e + 1)), abs=1e-15)

    @given(
        m=st.integers(min_value=1, max_value=16),
        eps=st.floats(min_value=0.05, max_value=5.0),
        bits=st.integers(min_value=0, max_value=2**16 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_sum_to_one(self, m, eps, bits):
        x = np.array([1 - 2 * ((bits >> k) & 1) for k in range(m)], dtype=np.int8)
        probs = report_distribution(x, m, eps)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_outcome_cap(self):
        with pytest.raises(ValueError):
            report_distribution(None, 2**20, 1.0)

    def test_unbiasedness_closed_form(self):
        # E[report vector] equals the scaled input x for random codewords.
        rng = np.random.default_rng(3)
        for _ in range(25):
            m = int(rng.integers(1, 65))
            eps = float(rng.uniform(0.1, 4.0))
            signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=m)
            probs = report_distribution(signs, m, eps)
            ev = expected_report_vector(probs, m, eps)
            assert np.max(np.abs(ev - signs / math.sqrt(m))) < 1e-12


class TestAudit:
    def test_basic_randomizer_audits_to_eps(self):
        for m, eps in [(2, 0.25), (4, 1.0), (4, math.log(2))]:
            ch = randomizer_channel(all_sign_vectors(m), m, eps)
            res = audit_ldp(ch)
            assert abs(res.eps_observed - eps) < 1e-9
            assert res.delta_at(res.eps_observed) < 1e-9

    def test_position_slices_audit_to_eps(self):
        m, eps = 4, 1.0
        ch = randomizer_channel(all_sign_vectors(m), m, eps)
        for j in range(m):
            res = audit_ldp(position_slice(ch, j))
            assert abs(res.eps_observed - eps) < 1e-9

    def test_identity_channel_infinite(self):
        ch = ChannelMatrix(inputs=[0, 1], outputs=[0, 1], probs=np.eye(2))
        assert audit_ldp(ch).eps_observed == math.inf

    def test_delta_curve(self):
        # Randomized response on one bit: delta at eps' < eps is the exact
        # positive-part gap p - e^{eps'} (1 - p).
        eps = 1.0
        p = math.exp(eps) / (1 + math.exp(eps))
        ch = ChannelMatrix(
            inputs=[0, 1],
            outputs=[0, 1],
            probs=np.array([[p, 1 - p], [1 - p, p]]),
        )
        res = audit_ldp(ch)
        assert res.eps_observed == pytest.approx(eps, abs=1e-12)
        for eps_query in (0.0, 0.3, 0.7):
            expected = p - math.exp(eps_query) * (1 - p)
            assert res.delta_at(eps_query) == pytest.approx(expected, abs=1e-12)

    def test_zero_included_does_not_change_eps(self):
        m, eps = 4, 0.8
        ch = randomizer_channel(all_sign_vectors(m) + [None], m, eps)
        assert abs(audit_ldp(ch).eps_observed - eps) < 1e-9


class TestDegrade:
    def test_eta_one_identity(self):
        rng = np.random.default_rng(4)
        assert all(degrade(5, 1.0, 16, rng) == 5 for _ in range(100))

    def test_eta_zero_uniform(self):
        rng = np.random.default_rng(5)
        vals = np.array([degrade(3, 0.0, 4, rng) for _ in range(40_000)])
        freqs = np.bincount(vals, minlength=4) / len(vals)
        assert np.all(np.abs(freqs - 0.25) < 0.02)

    def test_matrix_half_eta(self):
        mat = degrading_matrix(0.5, 2)
        assert mat.probs[0, 0] == pytest.approx(0.75, abs=1e-15)

    def test_matrix_matches_sampler(self):
        rng = np.random.default_rng(6)
        eta, d, v = 0.3, 5, 2
        vals = np.array([degrade(v, eta, d, rng) for _ in range(60_000)])
        freqs = np.bincount(vals, minlength=d) / len(vals)
        assert np.max(np.abs(freqs - degrading_matrix(eta, d).probs[v])) < 0.02


class TestAmplification:
    def test_endpoints(self):
        assert amplified_epsilon(1.0, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert amplified_epsilon(math.log(2), 1.0) == pytest.approx(math.log(3), abs=1e-12)

    def test_finite_for_every_accepted_eps(self):
        # The direct formula where it is finite; ln eta + 2 eps (to 1e-12)
        # once e^(2 eps) overflows, where the direct formula gives inf.
        from ldphist.core import _EPS_MAX
        for eps in (0.05, 0.25, 1.0, 5.0, 50.0, 300.0, 354.0):
            for eta in (0.05, 0.3, 1.0):
                e = math.exp(eps)
                assert amplified_epsilon(eps, eta) == pytest.approx(math.log(1.0 + eta * e * (e - 1.0)), rel=1e-12)
        assert amplified_epsilon(356.0, 0.5) == pytest.approx(712.0 + math.log(0.5), rel=1e-15)
        for eps in (355.0, 400.0, _EPS_MAX):
            for eta in (1e-100, 0.5, 1.0):
                got = amplified_epsilon(eps, eta)
                assert math.isfinite(got) and got == pytest.approx(2 * eps + math.log(eta), rel=1e-12)

    def test_monotone_in_eta(self):
        vals = [amplified_epsilon(0.8, eta) for eta in np.linspace(0, 1, 21)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_composed_channel_bounded(self):
        # Degrading channel then randomizer over d=16 items encoded as the
        # 16 vertices of the m=4 hypercube.
        m, d, eps = 4, 16, 1.0
        base = randomizer_channel(all_sign_vectors(m), m, eps)
        for eta in (0.0, 0.25, 0.5, 1.0):
            composed = compose(degrading_matrix(eta, d), base)
            observed = audit_ldp(composed).eps_observed
            assert observed <= amplified_epsilon(eps, eta) + 1e-9


class TestMutualInformation:
    def test_independent_channel_zero(self):
        ch = ChannelMatrix(
            inputs=[0, 1], outputs=[0, 1], probs=np.array([[0.3, 0.7], [0.3, 0.7]])
        )
        assert mutual_information(np.array([0.5, 0.5]), ch) == pytest.approx(0.0, abs=1e-15)

    def test_noiseless_channel_log_d(self):
        d = 8
        ch = ChannelMatrix(inputs=list(range(d)), outputs=list(range(d)), probs=np.eye(d))
        assert mutual_information(np.full(d, 1 / d), ch) == pytest.approx(math.log(d), abs=1e-12)

    def test_data_processing_monotone_in_eta(self):
        m, d, eps = 4, 16, 1.0
        base = randomizer_channel(all_sign_vectors(m), m, eps)
        prior = np.full(d, 1 / d)
        infos = [
            mutual_information(prior, compose(degrading_matrix(eta, d), base))
            for eta in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(infos, infos[1:]))
        assert all(i <= math.log(d) for i in infos)


class TestConcentration:
    def test_inner_product_hoeffding(self):
        # For fixed x, y the centered average (1/n) sum <z_i - x, y> stays
        # below 5 c_eps / sqrt(n) in at least 99% of trials.
        rng = np.random.default_rng(7)
        m, eps, n, trials = 16, 1.0, 1000, 200
        x = rng.choice(np.array([-1, 1], dtype=np.int8), size=m)
        y = rng.choice(np.array([-1, 1], dtype=np.int8), size=m)
        scale = c_eps(eps)
        e = math.exp(eps)
        p_keep = e / (e + 1.0)
        hits = 0
        for _ in range(trials):
            j = rng.integers(0, m, size=n)
            keep = rng.random(n) < p_keep
            signs = np.where(keep, x[j], -x[j])
            # <z_i, y> = c_eps * sign_i * y[j_i]; <x, y>/m with implicit scales
            inner_z = scale * signs * y[j]
            inner_x = float(x @ y) / m
            dev = abs(inner_z.mean() - inner_x)
            hits += dev < 5 * scale / math.sqrt(n)
        assert hits >= 0.99 * trials
