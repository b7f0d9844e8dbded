import hashlib
import math
import sys

import numpy as np
import pytest

from ldphist.core import (
    PublicRandomness,
    _INDICES,
    _draw_args,
    _encode_label,
    c_eps,
    check_eps,
    derive_fo_params,
    derive_hh_params,
    prf_below,
    report_magnitude,
)


class TestFoParams:
    def test_textbook_case(self):
        # d=2^10, n=1e5, eps=1, beta=0.1; oracle: direct formula evaluation.
        p = derive_fo_params(1024, 100_000, 1.0, 0.1)
        gamma_expected = math.sqrt(math.log(2 * 1024 / 0.1) / 1e5)
        assert p.gamma == pytest.approx(gamma_expected, abs=1e-15)
        assert p.gamma == pytest.approx(9.96e-3, abs=1e-5)
        m_expected = math.ceil(math.log(1025) * math.log(20) / gamma_expected**2)
        assert p.m_fo == m_expected == 209_201

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            derive_fo_params(1, 10, 1.0, 0.1)
        with pytest.raises(ValueError):
            derive_fo_params(16, 0, 1.0, 0.1)
        with pytest.raises(ValueError):
            derive_fo_params(16, 10, 0.0, 0.1)
        with pytest.raises(ValueError):
            derive_fo_params(16, 10, 1.0, 1.0)

    def test_pure(self):
        a = derive_fo_params(256, 5000, 0.7, 0.25)
        b = derive_fo_params(256, 5000, 0.7, 0.25)
        assert a == b


class TestHhParams:
    def test_default_channel_count(self):
        p = derive_hh_params(1024, 10_000, 2.0, 0.25)
        assert p.K == 1_000_000  # floor(n^{3/2})

    def test_repetitions_base2(self):
        # 3/0.375 = 8, so exactly 3 doublings.
        assert derive_hh_params(1024, 10_000, 2.0, 0.375).T == 3

    def test_budget_split_exact(self):
        p = derive_hh_params(1024, 10_000, 0.7, 0.375)
        assert p.T == 3
        assert p.eps_channel == pytest.approx(0.1, abs=1e-15)
        assert p.eps_channel * (2 * p.T + 1) == pytest.approx(0.7, abs=1e-12)

    def test_seed_length(self):
        p = derive_hh_params(1024, 10_000, 2.0, 0.5)
        assert p.ell == 2 * max(10, math.ceil(math.log2(10_000)))

    def test_override_reports_isolation_bound(self):
        p = derive_hh_params(1024, 100_000, 2.0, 0.5, k_override=1_000_000)
        assert p.K == 1_000_000
        assert p.threshold == pytest.approx(0.024260151319598085, rel=1e-12)
        assert p.iso_failure_bound == pytest.approx(
            (1 / p.threshold) * (100_000 / 1_000_000) ** p.T, rel=1e-12
        )
        assert p.iso_failure_bound <= p.beta / 3

    def test_vacuous_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            derive_hh_params(2**20, 50, 0.1, 0.01)

    def test_override_lower_bound(self):
        with pytest.raises(ValueError):
            derive_hh_params(1024, 10_000, 2.0, 0.5, k_override=1)


class TestReportMagnitude:
    def test_ln3(self):
        assert report_magnitude(math.log(3), 4) == pytest.approx(4.0, abs=1e-12)

    def test_large_eps_tends_to_one(self):
        assert report_magnitude(50.0, 1) == pytest.approx(1.0, abs=1e-12)

    def test_unit_eps(self):
        e = math.e
        assert report_magnitude(1.0, 16) == pytest.approx(4 * (e + 1) / (e - 1), abs=1e-12)
        assert report_magnitude(1.0, 16) == pytest.approx(8.6558137, abs=1e-6)

    def test_c_eps_positive_inputs_only(self):
        with pytest.raises(ValueError):
            c_eps(0.0)

    def test_eps_whose_exponential_overflows_is_refused(self):
        # e^eps is a finite float up to ln(max float) = 709.78..., where the
        # scale and the keep probability are still finite numbers.
        from ldphist.randomizer import amplified_epsilon, randomize

        top = math.log(sys.float_info.max)
        assert c_eps(top) == 1.0
        assert randomize(np.ones(4), 4, top, np.random.default_rng(1)).sign == 1
        for eps in (math.nextafter(top, math.inf), 800.0, 1e300, math.inf, math.nan, 0.0, -1.0):
            for refuse in (c_eps, lambda e: randomize(None, 4, e, np.random.default_rng(1)),
                           lambda e: amplified_epsilon(e, 0.5), lambda e: derive_fo_params(16, 100, e, 0.1),
                           lambda e: derive_hh_params(16, 100, e, 0.1), check_eps):
                with pytest.raises(ValueError, match="eps must be finite, > 0"):
                    refuse(eps)


class TestPublicRandomness:
    def test_replay_is_bit_exact(self):
        pub = PublicRandomness.from_any(1234)
        a = pub.bytes_at(("phi", 7), 1000)
        b = pub.bytes_at(("phi", 7), 1000)
        assert a == b

    def test_distinct_labels_differ(self):
        pub = PublicRandomness.from_any(1234)
        assert pub.bytes_at(("phi", 7), 64) != pub.bytes_at(("phi", 8), 64)
        assert pub.bytes_at(("phi", 7), 64) != pub.bytes_at(("hash-seed", 7), 64)

    def test_label_encoding_unambiguous(self):
        pub = PublicRandomness.from_any(0)
        # ("ab", "c") must not collide with ("a", "bc").
        assert pub.bytes_at(("ab", "c"), 32) != pub.bytes_at(("a", "bc"), 32)

    def test_golden_vector(self):
        # Pinned output of the documented construction: seed from_any(0),
        # label ("test",), first 8 bytes.  Guards against silent PRF drift.
        pub = PublicRandomness.from_any(0)
        assert pub.bytes_at(("test",), 8).hex() == _GOLDEN_TEST_PREFIX

    def test_sign_at_matches_stream(self):
        pub = PublicRandomness.from_any(99)
        stream = pub.bytes_at(("x", 3), 200)
        for idx in (0, 63, 64, 130, 199):
            for bit in (0, 7):
                expected = 1 - 2 * ((stream[idx] >> bit) & 1)
                assert pub.sign_at(("x", 3), 8 * idx + bit) == expected

    def test_sign_array_matches_sign_at(self):
        pub = PublicRandomness.from_any(7)
        signs = pub.sign_array(("col", 5), 600)
        assert set(np.unique(signs)) <= {-1, 1}
        for idx in (0, 1, 8, 511, 512, 599):
            assert pub.sign_at(("col", 5), idx) == signs[idx]

    def test_sign_array_roughly_balanced(self):
        pub = PublicRandomness.from_any(7)
        signs = pub.sign_array(("col", 5), 100_000)
        assert abs(signs.astype(np.float64).mean()) < 5 / math.sqrt(100_000)

    def test_int_below_range_and_determinism(self):
        pub = PublicRandomness.from_any(42)
        vals = [pub.int_below(("ab", i), 97) for i in range(200)]
        assert all(0 <= v < 97 for v in vals)
        assert vals == [pub.int_below(("ab", i), 97) for i in range(200)]

    def test_label_encoding_golden_bytes(self):
        # Tag, u32le length, data per part; a label encodes as the
        # concatenation of its parts, so a head and a suffix encoded apart
        # join to the full label's bytes.
        for label, expected in _GOLDEN_LABELS:
            assert _encode_label(label).hex() == expected
        full = tuple(label[0] for label, _ in _GOLDEN_LABELS)
        assert _encode_label(full).hex() == "".join(expected for _, expected in _GOLDEN_LABELS)
        assert _encode_label(full[:2]) + _encode_label(full[2:]) == _encode_label(full)

    def test_ints_below_matches_full_labels(self):
        # 40 heads x 700 suffixes: at bound 2^64 // 3 + 1 a third of the
        # words are rejected, and about one label in 3^8 rejects block 0.
        pub = PublicRandomness.from_any(42)
        heads = [("ab", i) for i in range(39)] + [(b"", -1, np.int64(3))]
        suffixes = [("s", j) for j in range(699)] + [()]
        encoded_heads = [_encode_label(h) for h in heads]
        encoded_suffixes = [_encode_label(s) for s in suffixes]
        labels = [h + s for h in heads for s in suffixes]
        for bound in (1, 97, 2**64 // 3 + 1, 1 << 63):
            got = pub.ints_below(encoded_heads, [_draw_args(bound, suffix) for suffix in encoded_suffixes])
            assert got.dtype == np.int64 and got.shape == (len(heads), len(suffixes))
            assert got.ravel().tolist() == [pub.int_below(label, bound) for label in labels]
        limit = 2 * (2**64 // 3 + 1)
        first = [next(i for i, w in enumerate(self._words(pub, label)) if w < limit) for label in labels]
        assert any(f > 0 for f in first) and any(f >= 8 for f in first)

    @staticmethod
    def _words(pub, label):
        stream = pub.bytes_at(label, 4 * 64)
        return [int.from_bytes(stream[o : o + 8], "little") for o in range(0, len(stream), 8)]

    def test_ints_below_empty_and_refused_bounds(self):
        pub = PublicRandomness.from_any(42)
        assert pub.ints_below([], [_draw_args(97, b"x"), _draw_args(97, b"y")]).shape == (0, 2)
        assert pub.ints_below([b"x", b"y", b"z"], []).shape == (3, 0)
        for bound in (0, (1 << 63) + 1):
            with pytest.raises(ValueError, match="bound"):
                _draw_args(bound, b"")
            with pytest.raises(ValueError, match="bound"):
                prf_below(b"k", b"", bound)
            with pytest.raises(ValueError, match="bound"):
                pub.int_below(("ab",), bound)

    def test_int_below_takes_an_encoded_label(self):
        pub = PublicRandomness.from_any(42)
        for label in [("ab", i) for i in range(50)] + [(), (b"", "s", np.int64(-5))]:
            for bound in (1, 97, 2**64 // 3 + 1, 1 << 63):
                assert pub.int_below(_encode_label(label), bound) == pub.int_below(label, bound)

    def test_sign_at_takes_an_encoded_label(self):
        pub = PublicRandomness.from_any(12)
        for label in [("phi", 3), ("phi", 2**40), ("x", b"\x00", -5)]:
            encoded = _encode_label(label)
            assert [pub.sign_at(encoded, j) for j in (0, 7, 511, 512, 5000)] == \
                [pub.sign_at(label, j) for j in (0, 7, 511, 512, 5000)]

    def test_signs_at_matches_sign_array_and_sign_at(self):
        # m = 1,203 is a multiple of neither 8 nor 512 (one block holds 512
        # signs), so the last block and the last byte are both partial.
        pub = PublicRandomness.from_any(31)
        m = 1_203
        column = pub.sign_array(("phi", 4), m)
        cases = {
            "edges": [0, 511, 512, 513, m - 1],
            "repeated-unsorted": [m - 1, 3, 513, 3, 0, 1024, 511, 513, m - 1],
            "every": list(range(m)),
        }
        for name, positions in cases.items():
            got = pub.signs_at(("phi",), np.array(positions), np.full(len(positions), 4))
            assert got.dtype == np.int8, name
            np.testing.assert_array_equal(got, column[positions], err_msg=name)
            assert got.tolist() == [pub.sign_at(("phi", 4), j) for j in positions], name

    def test_signs_at_empty_and_negative(self):
        pub = PublicRandomness.from_any(31)
        empty = pub.signs_at(("phi",), np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert empty.dtype == np.int8 and empty.shape == (0,)
        with pytest.raises(ValueError):
            pub.signs_at(("phi",), np.array([5, -1]), np.array([4, 4]))

    def test_signs_at_hashes_only_touched_blocks(self, monkeypatch):
        import ldphist.core as core

        read = []
        blocks = core._prf_blocks
        monkeypatch.setattr(core, "_prf_blocks", lambda state, idx: read.append(idx) or blocks(state, idx))
        PublicRandomness.from_any(31).signs_at(("phi",), np.array([5000, 7, 511, 5000, 1536]), np.full(5, 4))
        assert read == [[0, 3, 9]]

    def test_signs_at_many_labels_match_sign_array(self, monkeypatch):
        # Positions 0, 511 and 512 sit on a block edge and m - 1 = 1,202 in
        # the partial last block; label ("phi", 7) spans all three blocks,
        # and of the labels 0..9 only 3, 7 and 2^40 get positions.
        import ldphist.core as core

        read = []
        blocks = core._prf_blocks
        monkeypatch.setattr(core, "_prf_blocks", lambda state, idx: read.append(idx) or blocks(state, idx))
        pub, m = PublicRandomness.from_any(31), 1_203
        items = np.array([7, 3, 7, 3, 7, 7, 2**40, 3])
        positions = np.array([0, 511, 512, m - 1, m - 1, 5, 511, 511])
        got = pub.signs_at(("phi",), positions, items)
        assert read == [[0, 2], [0, 1, 2], [0]]  # labels in item order, each (label, block) once
        assert got.dtype == np.int8
        assert got.tolist() == [pub.sign_array(("phi", int(v)), m)[j] for v, j in zip(items, positions)]
        labels = np.random.default_rng(5).integers(0, 10, 3_000)
        spread = np.random.default_rng(6).integers(0, m, 3_000)
        columns = {v: pub.sign_array(("phi", v), m) for v in range(10)}
        np.testing.assert_array_equal(pub.signs_at(("phi",), spread, labels),
                                      [columns[v][j] for v, j in zip(labels.tolist(), spread)])

    def test_signs_at_one_label_is_the_many_label_case(self):
        # Each label's signs in a many-label call are the signs of a call
        # that holds only that label's positions.
        pub = PublicRandomness.from_any(31)
        items = np.random.default_rng(7).integers(0, 4, 400)
        positions = np.random.default_rng(8).integers(0, 5_000, 400)
        got = pub.signs_at(("phi",), positions, items)
        for v in range(4):
            mine = items == v
            np.testing.assert_array_equal(got[mine], pub.signs_at(("phi",), positions[mine], items[mine]))

    def test_seed_must_be_32_bytes(self):
        with pytest.raises(ValueError):
            PublicRandomness(b"short")


# Computed once from the implementation at freeze time; the test above pins it.
_GOLDEN_TEST_PREFIX = "74287bd786b39a95"

# Label encodings recorded before the encoder gained its plain-int path.
_GOLDEN_LABELS = [
    (("pub-y",), "73050000007075622d79"),
    ((b"\x00\xff",), "620200000000ff"),
    ((-3,), "6910000000fdffffffffffffffffffffffffffffff"),
    ((np.int64(7),), "691000000007000000000000000000000000000000"),
    ((True,), "691000000001000000000000000000000000000000"),
    ((12345,), "691000000039300000000000000000000000000000"),
]


def _reference_label(label) -> bytes:
    """The label encoding, written out: tag, u32le length, data per part."""
    out = b""
    for part in label:
        if isinstance(part, bytes):
            tag, data = b"b", part
        elif isinstance(part, str):
            tag, data = b"s", part.encode("utf-8")
        else:
            tag, data = b"i", int(part).to_bytes(16, "little", signed=True)
        out += tag + len(data).to_bytes(4, "little") + data
    return out


def _reference_block(seed: bytes, label, index: int) -> bytes:
    """Block index of the label's stream, hashed from scratch: keyed
    BLAKE2b-512 of the encoded label and u64le(index)."""
    return hashlib.blake2b(_reference_label(label) + index.to_bytes(8, "little"),
                           key=seed, digest_size=64).digest()


def _reference_sign(seed: bytes, label, position: int) -> int:
    block = _reference_block(seed, label, position // 512)
    return 1 - 2 * ((block[position // 8 % 64] >> (position % 8)) & 1)


class TestStreamsAtTheIndexTable:
    """Every read of a label stream against hashlib from scratch, on both
    sides of the last block index whose u64le comes from the table."""

    SEED = bytes(range(32))
    TABLE = len(_INDICES)
    BLOCKS = (0, TABLE - 1, TABLE, TABLE + 1, 2**32)

    def test_table_is_the_u64le_of_its_indices(self):
        assert self.TABLE == 4096
        assert all(word == i.to_bytes(8, "little") for i, word in enumerate(_INDICES))

    @pytest.mark.parametrize("nbytes", [1, 63, 64, 65, 26_152])
    def test_bytes_at(self, nbytes):
        label = ("phi", 1023)
        reference = b"".join(_reference_block(self.SEED, label, i) for i in range(-(-nbytes // 64)))
        assert PublicRandomness(self.SEED).bytes_at(label, nbytes) == reference[:nbytes]

    def test_bytes_at_across_the_table_edge(self):
        label, nbytes = ("x", b"\x00", -5), (self.TABLE + 2) * 64 - 3
        stream = PublicRandomness(self.SEED).bytes_at(label, nbytes)
        for i in self.BLOCKS[:-1]:
            assert stream[64 * i : 64 * i + 64] == _reference_block(self.SEED, label, i)[: nbytes - 64 * i]

    def test_sign_at_and_signs_at(self):
        pub, positions = PublicRandomness(self.SEED), []
        for block in self.BLOCKS:
            positions += [512 * block + k for k in (0, 7, 8, 300, 511)]
        for item in (3, 2**40):
            expected = [_reference_sign(self.SEED, ("phi", item), j) for j in positions]
            assert [pub.sign_at(("phi", item), j) for j in positions] == expected
            assert [pub.sign_at(_encode_label(("phi", item)), j) for j in positions] == expected
        items = np.repeat([3, 2**40], len(positions))
        got = pub.signs_at(("phi",), np.tile(positions, 2), items)
        assert got.tolist() == [_reference_sign(self.SEED, ("phi", int(v)), j)
                                for v, j in zip(items, np.tile(positions, 2).tolist())]

    def test_rejected_int_below_word(self):
        # At bound 2^64 // 3 + 1 the sampler keeps words below 2 * bound, a
        # third of them are rejected; the label searched for rejects all 8
        # words of block 0, so the draw is read from block 1.
        bound = 2**64 // 3 + 1
        limit = 2 * bound

        def words(label, blocks):
            stream = b"".join(_reference_block(self.SEED, label, i) for i in range(blocks))
            return [int.from_bytes(stream[o : o + 8], "little") for o in range(0, len(stream), 8)]

        label = next(("r", i) for i in range(100_000) if min(words(("r", i), 1)) >= limit)
        expected = next(w for w in words(label, 4) if w < limit) % bound
        pub = PublicRandomness(self.SEED)
        assert pub.int_below(label, bound) == expected
        assert pub.ints_below([_encode_label(label)], [_draw_args(bound, b"")]).tolist() == [[expected]]
