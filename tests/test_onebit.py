import dataclasses
import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest

from ldphist import core, onebit
from ldphist.codec import build_code
from ldphist.core import PublicRandomness, _draw_args, _encode_label
from ldphist.freq_oracle import AggregateState
from ldphist.heavy_hitter import BOT, FAITHFUL_CHANNEL_CAP, channel_of, draw_hash_seeds
from ldphist.onebit import (
    MAX_TOTAL_EPS,
    OneBitStructure,
    PublicString,
    acceptance_prob,
    collect_aggregates,
    collect_fo_aggregate,
    collect_pp_aggregates,
    onebit_client,
    onebit_server_collect,
)
from ldphist.randomizer import ChannelMatrix, audit_ldp, report_distribution

PUB = PublicRandomness.from_any(314)


def composite_toy(eps_total=math.log(2), m_fo=4, d=4, K=2, T=1, pub=PUB):
    code = build_code(d, "reference")
    seeds = tuple(draw_hash_seeds(pub, T, 16))
    return OneBitStructure(
        pub=pub,
        run_id=1,
        K=K,
        T=T,
        eps_channel=eps_total / (2 * T + 1),
        m_fo=m_fo,
        code=code,
        seeds=seeds,
    )


@dataclass(frozen=True)
class _FixedString:
    """Test double with explicit component values."""

    pp: dict
    fo: tuple

    def pp_component(self, t, k):
        return self.pp[(t, k)]

    def fo_component(self):
        return self.fo


def _enumerate_strings(structure):
    """All joint values of the item-dependent component space (every hash
    channel of every repetition, plus the oracle component)."""
    m_pp = structure.code.m
    pp_keys = [(t, k) for t in range(structure.T) for k in range(structure.K)]
    pp_space = list(itertools.product(range(m_pp), (1, -1)))
    fo_space = list(itertools.product(range(structure.m_fo), (1, -1)))
    for combo in itertools.product(pp_space, repeat=len(pp_keys)):
        for fo in fo_space:
            yield _FixedString(pp=dict(zip(pp_keys, combo)), fo=fo)


class TestStructure:
    def test_budget_cap_enforced(self):
        with pytest.raises(ValueError, match="ln 2"):
            composite_toy(eps_total=MAX_TOTAL_EPS + 0.01)

    def test_budget_cap_boundary_ok(self):
        composite_toy(eps_total=MAX_TOTAL_EPS)

    def test_seeds_required(self):
        code = build_code(4, "reference")
        with pytest.raises(ValueError, match="seeds"):
            OneBitStructure(pub=PUB, run_id=0, K=2, T=1, eps_channel=0.1,
                            m_fo=4, code=code, seeds=())

    def test_channel_cap_enforced(self):
        code = build_code(4, "reference")
        T = 3
        seeds = tuple(draw_hash_seeds(PUB, T, 16))
        kwargs = dict(pub=PUB, run_id=0, T=T, eps_channel=0.05, m_fo=4, code=code, seeds=seeds)
        OneBitStructure(K=FAITHFUL_CHANNEL_CAP // T, **kwargs)
        with pytest.raises(ValueError, match="K\\*T"):
            OneBitStructure(K=FAITHFUL_CHANNEL_CAP // T + 1, **kwargs)


class TestPublicString:
    def test_regenerable(self):
        s = composite_toy()
        a = PublicString(structure=s, user_id=9)
        b = PublicString(structure=s, user_id=9)
        assert a.pp_component(0, 1) == b.pp_component(0, 1)
        assert a.fo_component() == b.fo_component()
        assert a.fo_component() != PublicString(structure=s, user_id=10).fo_component() or \
               a.pp_component(0, 0) != PublicString(structure=s, user_id=10).pp_component(0, 0)

    def test_components_roughly_uniform(self):
        s = composite_toy(m_fo=4)
        counts = np.zeros(8)
        users = 20_000
        for u in range(users):
            j, sign = PublicString(structure=s, user_id=u).fo_component()
            counts[2 * j + (0 if sign > 0 else 1)] += 1
        assert np.max(np.abs(counts / users - 1 / 8)) < 5 * math.sqrt(0.125 * 0.875 / users)


class TestAcceptanceProb:
    def test_single_component_match_factor(self):
        # Matching sign in a component contributes e^eps/(1+e^eps) to p.
        eps = 0.4
        s = OneBitStructure(pub=PUB, run_id=0, K=1, T=0, eps_channel=eps, m_fo=8)
        v = 2
        col = PUB.sign_array(("phi", v), 8)
        y_match = _FixedString(pp={}, fo=(3, int(col[3])))
        y_miss = _FixedString(pp={}, fo=(3, -int(col[3])))
        e = math.exp(eps)
        assert acceptance_prob(v, y_match, s) == pytest.approx(e / (1 + e), abs=1e-12)
        assert acceptance_prob(v, y_miss, s) == pytest.approx(1 / (1 + e), abs=1e-12)

    def test_all_mismatch_minimum_positive(self):
        s = composite_toy()
        v = 1
        eps = s.eps_channel
        code = s.code
        k_active = channel_of(s.seeds[0], v, s.K)
        cw = code.encode(v)
        col = PUB.sign_array(("phi", v), s.m_fo)
        y = _FixedString(
            pp={(0, k): (0, -int(cw[0])) for k in range(s.K)},
            fo=(0, -int(col[0])),
        )
        p = acceptance_prob(v, y, s)
        expected = 0.5 * (2 / (math.exp(eps) + 1)) ** 2
        assert p == pytest.approx(expected, abs=1e-12)
        assert p > 0

    def test_mean_acceptance_is_half_exact(self):
        # Summation over the full finite component space.
        s = composite_toy(m_fo=2, d=4)
        m_pp = s.code.m
        cell = 1.0 / (2 * m_pp) ** (s.K * s.T) / (2 * s.m_fo)
        for v in range(4):
            total = sum(
                cell * acceptance_prob(v, y, s) for y in _enumerate_strings(s)
            )
            assert total == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_structure_half(self):
        s = OneBitStructure(pub=PUB, run_id=0, K=1, T=0, eps_channel=0.1, m_fo=0)
        y = _FixedString(pp={}, fo=None)
        assert acceptance_prob(0, y, s) == 0.5

    def test_empirical_acceptance_rate(self):
        s = composite_toy()
        rng = np.random.default_rng(0)
        users = 100_000
        items = rng.integers(0, 4, users)
        bits = sum(
            onebit_client(int(items[u]), PublicString(structure=s, user_id=u), s, rng)
            for u in range(users)
        )
        assert abs(bits / users - 0.5) <= 0.01


class TestPrivacy:
    def test_bit_channel_audit_exhaustive(self):
        # For every public string, the item -> bit channel stays within the
        # total budget; the y-marginal channel is exactly uninformative.
        s = composite_toy(m_fo=2, d=4)
        total = s.total_eps()
        mean_p = np.zeros(4)
        cell = 1.0 / (2 * s.code.m) ** (s.K * s.T) / (2 * s.m_fo)
        worst = 0.0
        for y in _enumerate_strings(s):
            p = np.array([acceptance_prob(v, y, s) for v in range(4)])
            mean_p += cell * p
            ch = ChannelMatrix(
                inputs=list(range(4)),
                outputs=[1, 0],
                probs=np.column_stack([p, 1 - p]),
            )
            worst = max(worst, audit_ldp(ch).eps_observed)
        assert worst <= total + 1e-9
        assert np.allclose(mean_p, 0.5, atol=1e-12)

    def test_likelihood_ratios_bounded_both_ways(self):
        s = composite_toy(m_fo=2, d=4)
        total = s.total_eps()
        lo, hi = math.exp(-total), math.exp(total)
        for y in itertools.islice(_enumerate_strings(s), 0, 4096, 37):
            ps = [acceptance_prob(v, y, s) for v in range(4)]
            for pa, pb in itertools.permutations(ps, 2):
                assert lo - 1e-12 <= pa / pb <= hi + 1e-12
                assert lo - 1e-12 <= (1 - pa) / (1 - pb) <= hi + 1e-12


    def test_worst_string_ratio_between_the_splits(self):
        """The per-string directional maximum of |ln p_a / p_b| and
        |ln (1 - p_a) / (1 - p_b)| over ordered item pairs, on the toy
        (T = 1, total ln 2, eps_channel = ln 2 / 3 = 0.2310), is 0.4750:
        above (T + 1) * eps_channel = 0.4621, within the total 0.6931.  An
        item's acceptance probability is p = a^i b^(T+1-i) / 2 for the i of
        its T + 1 components that match the string, a = 2e/(e+1) and
        b = 2/(e+1) at e = e^eps_channel (no clipping at 1 here), so the
        accept ratios reach (a/b)^(T+1) = e^((T+1) eps_channel), and the
        reject ratio reaches ln((1 - b^(T+1)/2) / (1 - a^(T+1)/2)), the
        worst: the transform's rejection step costs privacy of its own, so
        a (T + 1) split would not carry over to the one-bit path unchanged."""
        s = composite_toy(m_fo=2, d=4)
        worst = 0.0
        for y in _enumerate_strings(s):
            ps = [acceptance_prob(v, y, s) for v in range(4)]
            for pa, pb in itertools.permutations(ps, 2):
                worst = max(worst, abs(math.log(pa / pb)), abs(math.log((1 - pa) / (1 - pb))))
        e = math.exp(s.eps_channel)
        a, b = 2 * e / (e + 1), 2 / (e + 1)
        assert worst == pytest.approx(math.log((1 - b**(s.T + 1) / 2) / (1 - a**(s.T + 1) / 2)), rel=1e-12)
        assert (s.T + 1) * s.eps_channel < worst <= s.total_eps()
        assert (round((s.T + 1) * s.eps_channel, 4), round(worst, 4), round(s.total_eps(), 4)) == \
            (0.4621, 0.4750, 0.6931)


class TestServerCollect:
    def test_all_rejected_empty(self):
        s = composite_toy()
        assert onebit_server_collect([(0, 0), (1, 0)], s) == []

    def test_accepted_strings_regenerated(self):
        s = composite_toy()
        accepted = onebit_server_collect([(0, 1), (1, 0), (2, 1)], s)
        assert [u for u, _ in accepted] == [0, 2]
        agg = collect_fo_aggregate(accepted, s)
        assert agg.n_total == 2

    @pytest.mark.parametrize("bits, message", [
        ([(3, 1), (3, 1), (4, 1), (5, 1)], "user 3 sent more than one bit"),
        ([(3, 0), (4, 1), (3, 1)], "user 3 sent more than one bit"),
        ([(3, 1), (4, 2), (5, 1)], "user 4: bit 2 is not 0 or 1"),
        ([(3, 1), (4, -1)], "user 4: bit -1 is not 0 or 1"),
    ])
    def test_refuses_repeated_user_and_bad_bit(self, bits, message):
        s = composite_toy()
        with pytest.raises(ValueError, match=message):
            onebit_server_collect(bits, s)
        with pytest.raises(ValueError, match=message):
            collect_aggregates(iter(bits), s)

    def test_collect_aggregates_matches_parts(self):
        s = composite_toy()
        bits = [(u, u % 2) for u in range(10)]
        fo_agg, pp_aggs = collect_aggregates(iter(bits), s)  # a one-pass iterable, as the service's zip
        accepted = onebit_server_collect(bits, s)
        assert fo_agg.n_total == 5
        assert fo_agg.to_bytes() == collect_fo_aggregate(accepted, s).to_bytes()
        parts = collect_pp_aggregates(accepted, s)
        assert {key: agg.to_bytes() for key, agg in pp_aggs.items()} == {
            key: agg.to_bytes() for key, agg in parts.items()}

    def test_conditional_distribution_matches_randomizer(self):
        # Oracle-only toy: the accepted strings' empirical distribution over
        # the 2 m_fo outcomes matches the true report distribution (TV).
        m_fo, eps = 16, math.log(2)
        s = OneBitStructure(pub=PUB, run_id=3, K=1, T=0, eps_channel=eps, m_fo=m_fo)
        v = 3
        rng = np.random.default_rng(1)
        counts = np.zeros(2 * m_fo)
        accepted = 0
        for u in range(60_000):
            y = PublicString(structure=s, user_id=u)
            if rng.random() < acceptance_prob(v, y, s):
                j, sign = y.fo_component()
                counts[2 * j + (0 if sign > 0 else 1)] += 1
                accepted += 1
        empirical = counts / accepted
        exact = report_distribution(PUB.sign_array(("phi", v), m_fo), m_fo, eps)
        tv = 0.5 * np.abs(empirical - exact).sum()
        assert tv <= 0.02
        assert abs(accepted / 60_000 - 0.5) < 0.01

    def test_component_conditional_on_composite(self):
        # The active hash channel's component, conditioned on acceptance,
        # is distributed as the randomized codeword of the user's item.
        s = composite_toy()
        v = 2
        m_pp = s.code.m
        k_active = channel_of(s.seeds[0], v, s.K)
        rng = np.random.default_rng(2)
        counts = np.zeros(2 * m_pp)
        accepted = 0
        for u in range(60_000):
            y = PublicString(structure=s, user_id=u)
            if rng.random() < acceptance_prob(v, y, s):
                j, sign = y.pp_component(0, k_active)
                counts[2 * j + (0 if sign > 0 else 1)] += 1
                accepted += 1
        empirical = counts / accepted
        exact = report_distribution(s.code.encode(v), m_pp, s.eps_channel)
        assert 0.5 * np.abs(empirical - exact).sum() <= 0.02

    def test_pp_aggregates_sizes(self):
        s = composite_toy()
        accepted = onebit_server_collect([(u, 1) for u in range(10)], s)
        aggs = collect_pp_aggregates(accepted, s)
        assert set(aggs) == {(0, 0), (0, 1)}
        assert all(a.n_total == 10 for a in aggs.values())


def workload_structure(pub=PUB):
    """The one-bit bench's shape: K = 8, T = 3 and the reference code."""
    return composite_toy(eps_total=math.log(2), m_fo=2689, d=1024, K=8, T=3, pub=pub)


def _channels(s):
    """(label suffix, bound) of every component of a public string."""
    pp = [(("pp", t, k), 2 * s.code.m) for t in range(s.T) for k in range(s.K)]
    return pp + [(("fo",), 2 * s.m_fo)]


class TestSharedPrefixDraws:
    """The shared label-head draws are the v1 per-label draws: every
    component equals int_below over its full label."""

    USERS = 2_000

    def test_components_match_full_labels(self):
        s = workload_structure()
        suffixes = [_encode_label(("pp", t, k)) for t in range(s.T) for k in range(s.K)]
        heads = [_encode_label(("pub-y", s.run_id, user)) for user in range(self.USERS)]
        pp = PUB.ints_below(heads, [_draw_args(2 * s.code.m, suffix) for suffix in suffixes])
        fo = PUB.ints_below(heads, [_draw_args(2 * s.m_fo, _encode_label(("fo",)))])
        for user in range(self.USERS):
            head = ("pub-y", s.run_id, user)
            want = [PUB.int_below(head + suffix, bound) for suffix, bound in _channels(s)]
            got = pp[user].tolist() + fo[user].tolist()
            assert got == want
            y = PublicString(structure=s, user_id=user)
            drawn = [y.pp_component(t, k) for t in range(s.T) for k in range(s.K)]
            drawn.append(y.fo_component())
            assert drawn == [(u >> 1, 1 if u % 2 == 0 else -1) for u in want]

    def test_rejection_fallback_matches_full_labels(self):
        # limit = 2 * bound: about 1/3 of the words are rejected, so draws
        # step past word 0 and, for about one label in 3^8, past block 0.
        bound = 2**64 // 3 + 1
        s = workload_structure()
        suffixes = [_encode_label(suffix) for suffix, _ in _channels(s)]
        past_word0 = past_block0 = 0
        draws = PUB.ints_below([_encode_label(("pub-y", s.run_id, user)) for user in range(self.USERS)],
                               [_draw_args(bound, suffix) for suffix in suffixes])
        for user in range(self.USERS):
            head = ("pub-y", s.run_id, user)
            labels = [head + suffix for suffix, _ in _channels(s)]
            got = draws[user].tolist()
            assert got == [PUB.int_below(label, bound) for label in labels]
            for label, u in zip(labels, got):
                # The sampler spelled out on the label's byte stream.
                stream = PUB.bytes_at(label, 4 * 64)
                words = [int.from_bytes(stream[o : o + 8], "little") for o in range(0, len(stream), 8)]
                first = next(i for i, w in enumerate(words) if w < 2 * bound)
                assert u == words[first] % bound
                past_word0 += first > 0
                past_block0 += first >= 8
        assert past_word0 > 0 and past_block0 > 0

    def test_public_string_absorbs_its_head_once(self, monkeypatch):
        # A string's ("pub-y", run, user) head is absorbed into one copy of
        # the keyed PRF across all of its component reads, and no label is
        # encoded per user: the head prefix and the component suffixes once
        # per structure and the ("phi", v) label once per item.
        pub = PublicRandomness.from_any(2718)
        copies = []

        class Counting:
            def __init__(self, state):
                self.state = state

            def copy(self):
                copies.append(1)
                return self.state.copy()

        pub._keyed = Counting(pub._keyed)
        s = workload_structure(pub)
        del copies[:]  # the hash seeds' draws
        y = PublicString(structure=s, user_id=7)
        drawn = [y.pp_component(t, k) for t in range(s.T) for k in range(s.K)] + [y.fo_component()]
        assert len(copies) == 1
        labels = [_encode_label(suffix) for suffix, _ in _channels(s)]
        assert drawn == [_as_pair(pub.int_below(_encode_label(("pub-y", s.run_id, 7)) + suffix, bound))
                         for suffix, (_, bound) in zip(labels, _channels(s))]

        encoded = []
        real = onebit._encode_label
        monkeypatch.setattr(onebit, "_encode_label", lambda parts: encoded.append(parts) or real(parts))
        s = workload_structure()
        first = [acceptance_prob(v, PublicString(structure=s, user_id=0), s) for v in range(40)]
        assert [parts for parts in encoded if parts[0] not in ("pp", "fo")] == \
            [("pub-y", s.run_id, 0)] + [("phi", v) for v in range(40)]  # the prefix, then plans
        del encoded[:]
        probs = [acceptance_prob(v, PublicString(structure=s, user_id=u), s)
                 for u in range(1, 100) for v in range(40)]
        assert encoded == []
        monkeypatch.undo()
        assert first + probs == [_parent_prob(v, _ParentString(s, u), s) for u in range(100) for v in range(40)]

    def test_forced_rejection_matches_full_labels(self, monkeypatch):
        # Sampler limits at a multiple of the bound near 2/3 of 2^64: about
        # a third of the word-0 draws are rejected, and the client finishes
        # those on the head state with the one sampler int_below uses.
        def limit(bound):
            return (2**65 // 3 // bound) * bound

        def draw_args(bound, suffix, real=core._draw_args):
            return real(bound, suffix)[:3] + (limit(bound),)

        monkeypatch.setattr(core, "_draw_args", draw_args)
        monkeypatch.setattr(onebit, "_draw_args", draw_args)
        s = workload_structure()
        past_word0 = past_block0 = 0
        for user in range(self.USERS):
            head = ("pub-y", s.run_id, user)
            labels = [head + suffix for suffix, _ in _channels(s)]
            want = [PUB.int_below(label, bound) for label, (_, bound) in zip(labels, _channels(s))]
            y = PublicString(structure=s, user_id=user)
            drawn = [y.pp_component(t, k) for t in range(s.T) for k in range(s.K)] + [y.fo_component()]
            assert drawn == [_as_pair(u) for u in want]
            for label, (_, bound) in zip(labels, _channels(s)):
                words = [w for (w,) in core._WORD.iter_unpack(PUB.bytes_at(label, 64))]
                past_word0 += words[0] >= limit(bound)
                past_block0 += all(w >= limit(bound) for w in words)
        assert past_word0 > 0 and past_block0 > 0


def _as_pair(u):
    return u >> 1, 1 if u % 2 == 0 else -1


class _ParentString:
    """The per-component client the one-digest path replaced: each
    component is int_below over its full ("pub-y", run, user) + suffix label."""

    def __init__(self, s, user_id):
        self.s, self.head = s, _encode_label(("pub-y", s.run_id, user_id))

    def _draw(self, suffix, m):
        return _as_pair(self.s.pub.int_below(self.head + _encode_label(suffix), 2 * m))

    def pp_component(self, t, k):
        return self._draw(("pp", t, k), self.s.code.m)

    def fo_component(self):
        return self._draw(("fo",), self.s.m_fo)


def _parent_prob(v, y, s):
    """acceptance_prob as it was computed per component, factor by factor."""
    if v is None or v == BOT:
        return 0.5
    e = math.exp(s.eps_channel)
    match, miss = 2.0 * e / (e + 1.0), 2.0 / (e + 1.0)
    ratio = 1.0
    word = s.code.encode(v) if s.T else None
    for t in range(s.T):
        j, sign = y.pp_component(t, channel_of(s.seeds[t], v, s.K))
        ratio *= match if int(word[j]) == sign else miss
    if s.m_fo > 0:
        j, sign = y.fo_component()
        ratio *= match if s.pub.sign_at(("phi", v), j) == sign else miss
    return min(0.5 * ratio, 1.0)


class TestClientEquivalence:
    """The one-digest client against the per-component path it replaced:
    every component equal and every acceptance probability float-identical."""

    @pytest.mark.parametrize("case, users", [
        ("workload", 2_000),
        ("oracle-only", 500),
        ("no-oracle", 500),
        ("degenerate", 50),
        ("concatenated", 300),
    ])
    def test_matches_per_component_path(self, case, users):
        if case == "workload":
            s = workload_structure()
        elif case == "oracle-only":
            s = OneBitStructure(pub=PUB, run_id=8, K=1, T=0, eps_channel=0.5, m_fo=700)
        elif case == "no-oracle":
            s = composite_toy(m_fo=0, d=64, K=5, T=2)
        elif case == "concatenated":
            s = OneBitStructure(pub=PUB, run_id=3, K=4, T=2, eps_channel=math.log(2) / 5, m_fo=64,
                                code=build_code(2**16, "concatenated"), seeds=tuple(draw_hash_seeds(PUB, 2, 16)))
        else:
            s = OneBitStructure(pub=PUB, run_id=0, K=1, T=0, eps_channel=0.1, m_fo=0)
        d = s.code.d if s.T else 4096
        rng = np.random.default_rng(9)
        items = [int(v) for v in rng.integers(0, d, users)]
        for u in range(0, users, 7):
            items[u] = BOT if u % 2 else None
        for u in range(3, users, 11):
            items[u] = np.int64(items[u]) if items[u] not in (None, BOT) else items[u]
        keys = [(t, k) for t in range(s.T) for k in range(s.K)]
        for user, v in enumerate(items):
            y, old = PublicString(structure=s, user_id=user), _ParentString(s, user)
            got = acceptance_prob(v, y, s)
            # A numpy item is hashed as int(v), as hh_finalize hashes it: the
            # per-component path multiplied it in int64, which can overflow.
            assert got.hex() == _parent_prob(v if v is None else int(v), old, s).hex()
            assert acceptance_prob(v, old, s).hex() == got.hex()
            assert [y.pp_component(*key) for key in keys] == [old.pp_component(*key) for key in keys]
            if s.m_fo:
                assert y.fo_component() == old.fo_component()


@pytest.mark.parametrize("user", [0, 1, 2**63, 2**64 - 1, np.int64(-5), np.int64(2**62), np.uint64(2**64 - 1)])
def test_head_builder_matches_encode_label(user):
    s = workload_structure()
    assert s._layout.head(user) == _encode_label(("pub-y", s.run_id, user))


def test_public_string_is_a_frozen_value():
    # Equal, hashed and shown by (structure, user_id) only, whether or not
    # its head has been absorbed; its fields cannot be reassigned.
    s = workload_structure()
    read, fresh = PublicString(structure=s, user_id=3), PublicString(s, 3)
    read.fo_component()
    assert read == fresh and hash(read) == hash(fresh) and repr(read) == repr(fresh)
    assert read != PublicString(s, 4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        read.user_id = 4
    assert read.fo_component() == fresh.fo_component()


def test_plan_cache_stays_bounded():
    s = OneBitStructure(pub=PUB, run_id=5, K=1, T=0, eps_channel=0.5, m_fo=16)
    items = range(onebit._PLAN_CACHE + 300)
    y = PublicString(structure=s, user_id=3)
    first = [acceptance_prob(v, y, s) for v in items]
    assert s._layout.plan.cache_info().currsize == onebit._PLAN_CACHE
    assert [acceptance_prob(v, y, s) for v in items] == first
    assert first == [_parent_prob(v, y, s) for v in items]


def test_numpy_and_python_items_share_one_plan(monkeypatch):
    # The plan, which holds the encoded ("phi", v) label, is made once per
    # item, whatever integer type the item arrives as.
    s = workload_structure()
    y = PublicString(structure=s, user_id=3)
    encoded = []
    real = onebit._encode_label
    monkeypatch.setattr(onebit, "_encode_label", lambda parts: encoded.append(parts) or real(parts))
    probs = [acceptance_prob(v, y, s) for v in (3, np.int64(3), np.int32(3))]
    assert s._layout.plan.cache_info()[:2] == (2, 1)  # hits, misses
    assert [parts for parts in encoded if parts[0] == "phi"] == [("phi", 3)]
    monkeypatch.undo()
    assert probs == [_parent_prob(3, y, s)] * 3


def _loop_aggregate(accepted, m, eps, component):
    """The per-channel regeneration loop the one-pass path replaced."""
    positions = np.empty(len(accepted), dtype=np.int64)
    signs = np.empty(len(accepted), dtype=np.int64)
    for i, (_, y) in enumerate(accepted):
        positions[i], signs[i] = component(y)
    agg = AggregateState(m=m, eps=eps)
    agg.absorb_batch(positions, signs)
    return agg


def _loop_collect(accepted, s):
    def draw(suffix, m):
        def component(y):
            u = s.pub.int_below(("pub-y", s.run_id, y.user_id) + suffix, 2 * m)
            return u >> 1, 1 if (u & 1) == 0 else -1
        return component

    fo = _loop_aggregate(accepted, s.m_fo, s.eps_channel, draw(("fo",), s.m_fo))
    pp = {
        (t, k): _loop_aggregate(accepted, s.code.m, s.eps_channel, draw(("pp", t, k), s.code.m))
        for t in range(s.T)
        for k in range(s.K)
    }
    return fo, pp


def _same(a, b):
    return (a.m, a.eps, a.n_total) == (b.m, b.eps, b.n_total) and \
        np.array_equal(a.plus, b.plus) and np.array_equal(a.minus, b.minus)


def test_cap_sized_collection_matches_int_below():
    # At K*T = FAITHFUL_CHANNEL_CAP every accepted user is its own chunk;
    # each channel's counts are still the users' int_below draws, in a
    # first collection and in a second one that reuses its tails.
    code = build_code(1024, "reference")
    K, T = FAITHFUL_CHANNEL_CAP // 2, 2
    s = OneBitStructure(pub=PUB, run_id=4, K=K, T=T, eps_channel=MAX_TOTAL_EPS / 5, m_fo=9,
                        code=code, seeds=tuple(draw_hash_seeds(PUB, T, 20)))
    accepted = onebit_server_collect([(u, 1) for u in (2, 5, 11)], s)
    want = np.zeros((K * T, code.m, 2), dtype=np.int64)
    for _, y in accepted:
        for t in range(T):
            for k in range(K):
                u = PUB.int_below(("pub-y", s.run_id, y.user_id, "pp", t, k), 2 * code.m)
                want[t * K + k, u >> 1, u & 1] += 1
    for _ in range(2):
        got = collect_pp_aggregates(accepted, s)
        assert list(got) == [(t, k) for t in range(T) for k in range(K)]
        assert all(np.array_equal(got[key].plus, want[i, :, 0]) and
                   np.array_equal(got[key].minus, want[i, :, 1]) for i, key in enumerate(got))
        assert all(agg.n_total == 3 for agg in got.values())


class TestRegenEquivalence:
    @pytest.mark.parametrize("case, chunk", [
        ("empty", None),
        ("oracle-only", None),
        ("workload", None),
        ("chunk-boundary", 10),
    ])
    def test_matches_per_channel_loop(self, monkeypatch, case, chunk):
        if chunk is not None:
            monkeypatch.setattr(onebit, "_REGEN_CHUNK", chunk)
        if case == "oracle-only":
            s = OneBitStructure(pub=PUB, run_id=2, K=1, T=0, eps_channel=0.5, m_fo=16)
        elif case == "workload":
            s = workload_structure()
        else:
            s = composite_toy()  # K*T = 2: with a chunk of 10 draws, 5 users per chunk
        users = 0 if case == "empty" else 61
        rng = np.random.default_rng(7)
        accepted = onebit_server_collect([(u, int(rng.random() < 0.4)) for u in range(3 * users)], s)
        if case == "empty":
            assert accepted == []
        else:  # not a whole number of 5-user or 10-user chunks
            assert len(accepted) % 5 and len(accepted) % 10
        fo_want, pp_want = _loop_collect(accepted, s)
        assert _same(collect_fo_aggregate(accepted, s), fo_want)
        pp_got = collect_pp_aggregates(accepted, s)
        assert list(pp_got) == list(pp_want)
        assert all(_same(pp_got[key], pp_want[key]) for key in pp_want)
        fo_all, pp_all = collect_aggregates([(u, 1) for u, _ in accepted], s)
        assert _same(fo_all, fo_want) and list(pp_all) == list(pp_want)
