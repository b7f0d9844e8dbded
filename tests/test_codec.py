import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldphist import codec
from ldphist.codec import (
    ReferenceCode,
    _ReedSolomon,
    build_code,
    round_to_hypercube,
)
from ldphist.freq_oracle import AggregateState
from ldphist.heavy_hitter import decode_channels


def unit(signs):
    return signs.astype(np.float64) / math.sqrt(len(signs))


class TestBuildCode:
    def test_concatenated_geometry_d32bit(self):
        c = build_code(2**32, "concatenated")
        assert (c.t, c.sigma, c.n_out, c.m) == (32, 4, 8, 2048)
        assert c.zeta_eff == 1 / 8

    def test_reference_roundtrip_small(self):
        c = build_code(16, "reference")
        assert [c.decode(c.encode(v)) for v in range(16)] == list(range(16))

    def test_reference_cap(self):
        with pytest.raises(ValueError):
            build_code(2**17, "reference")

    @pytest.mark.parametrize("stream", ["all-zero", "row-1-repeats-row-0"])
    def test_rank_deficient_generator_is_refused(self, stream, monkeypatch):
        # At d = 16 the generator is 4 x 16 bits, so a row is two stream bytes.
        real = codec.prf_bytes

        def deficient(key, prefix, nbytes):
            raw = real(key, prefix, nbytes)
            return bytes(nbytes) if stream == "all-zero" else raw[:2] * 2 + raw[4:]

        monkeypatch.setattr(codec, "prf_bytes", deficient)
        with pytest.raises(RuntimeError, match=r"\(t=4, m=16\) is rank deficient; bump the build tag"):
            ReferenceCode(16)
        monkeypatch.undo()
        assert ReferenceCode(16).zeta_eff > 0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_code(16, "fancy")

    def test_header_roundtrips_to_json(self):
        import json

        for kind in ("reference", "concatenated"):
            h = build_code(64, kind).header()
            assert json.loads(json.dumps(h))["kind"] == kind
            # only the reference code is built from the published tag
            assert ("build_tag" in h) == (kind == "reference")
        assert "build_tag" not in build_code(2**20, "concatenated").header()


class TestEncode:
    def test_deterministic(self):
        a = build_code(256, "reference")
        b = build_code(256, "reference")
        for v in (0, 17, 255):
            assert np.array_equal(a.encode(v), b.encode(v))

    def test_unit_norm(self):
        for kind, d in (("reference", 64), ("concatenated", 5000)):
            c = build_code(d, kind)
            x = unit(c.encode(13))
            assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)

    def test_out_of_range_item(self):
        for kind in ("reference", "concatenated"):
            c = build_code(16, kind)
            for bad in ([16], [0, -1], np.array([3, 16])):
                with pytest.raises(ValueError):
                    c.encode_many(bad)
            with pytest.raises(ValueError):
                c.encode(16)
            with pytest.raises(TypeError):
                c.encode_many([1.0])
            assert c.encode_many([]).shape == (0, c.m)
            assert np.array_equal(c.encode_many([np.int64(5), np.uint64(5)]), c.encode_many([5, 5]))

    @pytest.mark.parametrize("kind", ["reference", "concatenated"])
    def test_item_arrays_are_checked_as_lists_are(self, kind):
        # An integer ndarray is range-checked in one vectorized test; every
        # input gets the error that checking its items one by one gives.
        c = build_code(16, kind)
        for bad in ([-1], [16], np.array([0, -1]), np.array([3, 16]), np.array([16], dtype=np.uint64),
                    np.array([5, 2**62], dtype=np.int64)):
            with pytest.raises(ValueError, match="outside universe of size 16"):
                c.encode_many(bad)
        for bad in ([1.0], np.array([1.0, 2.0]), np.array([True, False]), [np.True_],
                    np.array([[1, 2]]), np.array(3)):
            with pytest.raises(TypeError):
                c.encode_many(bad)
        for dtype in (np.int8, np.int64, np.uint16, np.uint64):
            items = np.array([0, 7, 15], dtype=dtype)
            assert np.array_equal(c.encode_many(items), c.encode_many([0, 7, 15]))
        assert c.encode_many(np.array([], dtype=np.int64)).shape == (0, c.m)

    def test_items_reach_two_to_the_64(self):
        c = build_code(2**64, "concatenated")
        top = [0, 2**63, 2**64 - 2, 2**64 - 1]
        words = c.encode_many(np.array(top, dtype=np.uint64))
        assert np.array_equal(words, c.encode_many(top))
        assert c.decode_many(words) == top
        for bad in ([-1], [2**64], np.array([-1, 0], dtype=np.int64)):
            with pytest.raises(ValueError):
                c.encode_many(bad)

    def test_reference_pairwise_distance_exhaustive(self):
        c = build_code(256, "reference")
        cb = c.encode_many(np.arange(256)).astype(np.float64) / math.sqrt(c.m)
        gram = cb @ cb.T
        np.fill_diagonal(gram, -1.0)
        assert gram.max() <= 1 - 2 * c.zeta_eff + 1e-12

    def test_concatenated_pairwise_distance_sampled(self):
        c = build_code(2**20, "concatenated")
        rng = np.random.default_rng(0)
        vs = rng.integers(0, 2**20, 80)
        cb = np.stack([unit(c.encode(int(v))) for v in vs])
        gram = cb @ cb.T
        np.fill_diagonal(gram, -1.0)
        # distinct items only; sampled duplicates would sit at +1
        dup = len(vs) - len(set(int(v) for v in vs))
        assert dup == 0
        assert gram.max() <= 1 - 2 * c.zeta_eff + 1e-12

    def test_pinned_reference_distances(self):
        # Measured from the fixed published build tag; a change here means
        # the code construction changed and stored experiments are invalid.
        assert ReferenceCode(1024).zeta_eff == pytest.approx(10 / 40)
        assert ReferenceCode(65536).zeta_eff == pytest.approx(15 / 64)


class TestDecode:
    def test_roundtrip_concatenated_sample(self):
        c = build_code(2**16, "concatenated")
        rng = np.random.default_rng(1)
        for v in rng.integers(0, 2**16, 200):
            assert c.decode(c.encode(int(v))) == int(v)

    def test_error_injection_reference(self):
        c = build_code(1024, "reference")
        rng = np.random.default_rng(2)
        k = math.ceil(c.correctable_flips()) - 1
        for _ in range(300):
            v = int(rng.integers(0, 1024))
            y = c.encode(v).copy()
            pos = rng.choice(c.m, size=k, replace=False)
            y[pos] = -y[pos]
            assert c.decode(y) == v

    def test_error_injection_concatenated(self):
        c = build_code(2**16, "concatenated")
        rng = np.random.default_rng(3)
        k = int(c.correctable_flips()) - 1
        for _ in range(100):
            v = int(rng.integers(0, 2**16))
            y = c.encode(v).copy()
            pos = rng.choice(c.m, size=k, replace=False)
            y[pos] = -y[pos]
            assert c.decode(y) == v

    def test_reference_matches_bruteforce_oracle(self):
        c = build_code(512, "reference")
        codebook = c.encode_many(np.arange(512))
        rng = np.random.default_rng(4)
        for _ in range(100):
            y = rng.choice(np.array([-1, 1], dtype=np.int8), size=c.m)
            # independent oracle: plain loop over Hamming distances
            dists = [np.count_nonzero(y != codebook[v]) for v in range(512)]
            assert c.decode(y) == int(np.argmin(dists))

    def test_concatenated_failure_is_none(self):
        c = build_code(2**16, "concatenated")
        rng = np.random.default_rng(5)
        noise = rng.choice(np.array([-1, 1], dtype=np.int8), size=(500, c.m))
        results = c.decode_many(noise)
        assert any(r is None for r in results)
        assert all(r is None or 0 <= r < 2**16 for r in results)

    @pytest.mark.parametrize("kind", ["reference", "concatenated"])
    def test_decode_many_rejects_other_shapes(self, kind):
        c = build_code(1000, kind)
        for shape in ((c.m,), (2, c.m + 1), (1, 2, c.m)):
            with pytest.raises(ValueError):
                c.decode_many(np.ones(shape, dtype=np.int8))

    @pytest.mark.parametrize("kind", ["reference", "concatenated"])
    def test_decode_many_chunks_rows(self, kind, monkeypatch):
        c = build_code(1000, kind)
        rng = np.random.default_rng(11)
        Y = np.concatenate([c.encode_many(range(0, 1000, 50)),
                            rng.choice(np.array([-1, 1], dtype=np.int8), size=(30, c.m))])
        whole = c.decode_many(Y)
        # Seven rows a chunk: at this budget the widest array holds m floats
        # a row for either code (the reference code's codebook slices are
        # never narrower than a row).  A code takes its width when built.
        monkeypatch.setattr(codec, "_DECODE_BYTES", 7 * 4 * c.m)
        c = build_code(1000, kind)
        assert c._decode_width == c.m
        sizes, rows = [], c._decode_rows
        monkeypatch.setattr(c, "_decode_rows", lambda Y: sizes.append(len(Y)) or rows(Y))
        assert c.decode_many(Y) == whole
        assert sizes == [7] * 7 + [1]
        assert whole[:20] == list(range(0, 1000, 50))

    def test_reference_decode_in_codebook_slices(self, monkeypatch):
        # 256-codeword slices: 16 of them over d = 2^12, in 256-row chunks.
        monkeypatch.setattr(codec, "_DECODE_BYTES", 4 * 256 * 256)
        c = ReferenceCode(2**12)
        assert c._decode_width == 256
        Y = np.random.default_rng(13).choice(np.array([-1, 1], dtype=np.int8), size=(600, c.m))
        corr = Y.astype(np.int32) @ c.encode_many(range(c.d)).astype(np.int32).T
        assert c.decode_many(Y) == np.argmax(corr, axis=1).tolist()
        # Rows whose maximum is reached in two or more slices: the first wins.
        at_max = corr == corr.max(axis=1, keepdims=True)
        slices_at_max = at_max.reshape(len(Y), c.d // 256, 256).any(axis=2).sum(axis=1)
        assert np.count_nonzero(slices_at_max >= 2) >= 10

    def test_reference_decode_chunks_are_square_blocks(self, monkeypatch):
        # At d = 2^16 a row's correlations with the whole codebook take
        # 256 KiB, which would leave a handful of rows a chunk, each chunk
        # re-reading the 16 MiB codebook.  Slices keep the chunks at the
        # budget's square side, whatever d is.
        c = ReferenceCode(2**16)
        side = math.isqrt(codec._DECODE_BYTES // 4)
        assert c._decode_width == side and side >= 256
        Y = np.random.default_rng(14).choice(np.array([-1, 1], dtype=np.int8), size=(2 * side + 5, c.m))
        Y[:5] = c.encode_many([0, 1, 2**15, c.d - 2, c.d - 1])
        sizes, rows = [], c._decode_rows
        monkeypatch.setattr(c, "_decode_rows", lambda Y: sizes.append(len(Y)) or rows(Y))
        assert c.decode_many(Y)[:5] == [0, 1, 2**15, c.d - 2, c.d - 1]
        assert sizes == [side, side, 5]

    def test_reference_decode_memory_is_bounded(self):
        # One 4,096-row decode correlates every row with 4,096 codewords:
        # 64 MiB as one float32 array, held to chunks within the budget.
        c = ReferenceCode(2**12)
        Y = np.random.default_rng(12).choice(np.array([-1, 1], dtype=np.int8), size=(4096, c.m))
        tracemalloc.start()
        try:
            decoded = c.decode_many(Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(decoded) == 4096
        assert peak < 4 * codec._DECODE_BYTES

    def test_out_of_universe_decode_rejected(self):
        # d below a byte boundary: decoded payloads >= d signal failure.
        c = build_code(1000, "concatenated")
        rng = np.random.default_rng(6)
        noise = rng.choice(np.array([-1, 1], dtype=np.int8), size=(300, c.m))
        assert all(r is None or r < 1000 for r in c.decode_many(noise))


# ---------------------------------------------------------------------------
# Scalar GF(256) Reed-Solomon: the reference the array code must match
# ---------------------------------------------------------------------------

_EXP = [0] * 512
_LOG = [0] * 256
_x = 1
for _i in range(255):
    _EXP[_i], _LOG[_x] = _x, _i
    _x <<= 1
    if _x & 0x100:
        _x ^= 0x11D
_EXP[255:510] = _EXP[0:255]


def _mul(a, b):
    return 0 if a == 0 or b == 0 else _EXP[_LOG[a] + _LOG[b]]


def _inv(a):
    return _EXP[255 - _LOG[a]]


def _pow_alpha(e):
    return _EXP[e % 255]


def _poly_eval(poly, x):
    acc = 0
    for c in reversed(poly):
        acc = _mul(acc, x) ^ c
    return acc


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] ^= _mul(ai, bj)
    return out


def _poly_xor(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] ^= x
    return out


class ScalarReedSolomon:
    """The scalar RS(n, k) code, one word at a time: the reference that
    ``_ReedSolomon``'s row arrays must match, failures included."""

    def __init__(self, n, k):
        self.n, self.k, self.nparity = n, k, n - k
        gen = [1]
        for i in range(1, self.nparity + 1):
            gen = _poly_mul(gen, [_pow_alpha(i), 1])
        self._gen = gen

    def encode(self, msg):
        work = list(msg) + [0] * self.nparity
        for i in range(self.k):
            coef = work[i]
            if coef:
                for j in range(1, self.nparity + 1):
                    work[i + j] ^= _mul(self._gen[self.nparity - j], coef)
        return list(msg) + work[self.k :]

    def _syndromes(self, received):
        word = list(reversed(received))
        return [_poly_eval(word, _pow_alpha(i)) for i in range(1, self.nparity + 1)]

    def decode(self, received):
        synd = self._syndromes(received)
        if not any(synd):
            return list(received[: self.k])
        lam, L = self._berlekamp_massey(synd)
        if L > self.nparity // 2:
            return None
        roots_inv, positions = [], []
        for idx in range(self.n):
            x_inv = _pow_alpha(-(self.n - 1 - idx))
            if _poly_eval(lam, x_inv) == 0:
                roots_inv.append(x_inv)
                positions.append(idx)
        if len(positions) != L:
            return None
        omega = _poly_mul(synd, lam)[: self.nparity]
        corrected = list(received)
        for idx, x_inv in zip(positions, roots_inv):
            lam_deriv = 0
            for deg in range(1, len(lam), 2):
                lam_deriv ^= _mul(lam[deg], _pow_alpha(_LOG[x_inv] * (deg - 1)))
            if lam_deriv == 0:
                return None
            corrected[idx] ^= _mul(_poly_eval(omega, x_inv), _inv(lam_deriv))
        if any(self._syndromes(corrected)):
            return None
        return corrected[: self.k]

    @staticmethod
    def _berlekamp_massey(synd):
        C, B, L, shift, b = [1], [1], 0, 1, 1
        for i, s in enumerate(synd):
            delta = s
            for j in range(1, L + 1):
                if j < len(C):
                    delta ^= _mul(C[j], synd[i - j])
            if delta == 0:
                shift += 1
                continue
            coef = _mul(delta, _inv(b))
            adjust = [0] * shift + [_mul(coef, x) for x in B]
            if 2 * L <= i:
                old_C = list(C)
                C = _poly_xor(C, adjust)
                L, B, b, shift = i + 1 - L, old_C, delta, 1
            else:
                C = _poly_xor(C, adjust)
                shift += 1
        return C, L


def _decoded(rs, words):
    msgs, ok, _ = rs.decode(words)
    return [m.tolist() if good else None for m, good in zip(msgs, ok)]


class TestReedSolomon:
    def test_exact_capacity(self):
        rs = _ReedSolomon(16, 8)
        rng = np.random.default_rng(7)
        msgs = rng.integers(0, 256, (300, 8), dtype=np.uint8)
        bad = rs.encode(msgs)
        for row in bad:
            pos = rng.choice(16, size=4, replace=False)
            row[pos] ^= rng.integers(1, 256, 4, dtype=np.uint8)
        got, ok, corrected = rs.decode(bad)
        assert ok.all() and np.array_equal(got, msgs)
        assert corrected.tolist() == [4] * len(msgs)

    def test_beyond_capacity_flagged_or_wrong_codeword(self):
        rs = _ReedSolomon(8, 4)
        rng = np.random.default_rng(8)
        bad = rs.encode(rng.integers(0, 256, (300, 4), dtype=np.uint8))
        for row in bad:
            pos = rng.choice(8, size=4, replace=False)  # 4 > capacity 2
            row[pos] ^= rng.integers(1, 256, 4, dtype=np.uint8)
        got, ok, corrected = rs.decode(bad)
        assert not ok.all()
        # a miscorrection changed at most capacity symbols: those it counts
        assert np.array_equal(corrected[ok], np.count_nonzero(rs.encode(got[ok]) != bad[ok], axis=1))
        assert (corrected[ok] <= 2).all()
        # whatever comes back must itself re-encode consistently
        again, ok_again, none = rs.decode(rs.encode(got[ok]))
        assert ok_again.all() and np.array_equal(again, got[ok]) and not none.any()

    def test_zero_error_fast_path(self):
        rs = _ReedSolomon(4, 2)
        got, ok, corrected = rs.decode(rs.encode([[7, 200]]))
        assert ok.tolist() == [True] and got.tolist() == [[7, 200]] and corrected.tolist() == [0]

    def test_rejects_words_of_the_wrong_shape(self):
        rs = _ReedSolomon(8, 4)
        for words in (np.zeros(8, dtype=np.uint8), np.zeros((2, 7), dtype=np.uint8)):
            with pytest.raises(ValueError):
                rs.decode(words)


class TestMatchesScalarReedSolomon:
    """The array code against the scalar reference, failures included."""

    @pytest.mark.parametrize("n, k", [(4, 2), (8, 4), (16, 8)])
    def test_encode(self, n, k):
        rng = np.random.default_rng(n)
        msgs = rng.integers(0, 256, (500, k), dtype=np.uint8)
        scalar = ScalarReedSolomon(n, k)
        got = _ReedSolomon(n, k).encode(msgs)
        assert got.tolist() == [scalar.encode(msg) for msg in msgs.tolist()]

    @pytest.mark.parametrize("n, k", [(4, 2), (8, 4), (16, 8)])
    def test_decode(self, n, k):
        rng = np.random.default_rng(100 + n)
        rs, scalar = _ReedSolomon(n, k), ScalarReedSolomon(n, k)
        rows = [np.zeros((1, n), dtype=np.uint8), rng.integers(0, 256, (600, n), dtype=np.uint8)]
        for errors in range((n - k) // 2 + 3):  # 0 up to two past capacity
            words = rs.encode(rng.integers(0, 256, (300, k), dtype=np.uint8))
            for row in words:
                pos = rng.choice(n, size=errors, replace=False)
                row[pos] ^= rng.integers(1, 256, errors, dtype=np.uint8)
            rows.append(words)
        words = np.concatenate(rows)
        expected = [scalar.decode(w) for w in words.tolist()]
        assert _decoded(rs, words) == expected
        # every failure rule is reached
        assert None in expected and any(e is not None for e in expected[601:])


class TestFailureRules:
    """Each failure rule rejects a row on its own: Berlekamp-Massey is
    replaced by an error locator that breaks only that rule.  (Given a true
    Berlekamp-Massey locator the root-count and syndrome rules reject the
    same rows, so only a planted locator tells them apart.)"""

    # RS(8, 4) corrects two symbols; symbol idx has locator alpha^(7 - idx).
    CASES = {
        # (symbols hit, locator roots, locator length, decodes)
        "none": ((0, 5), (0, 5), 2, True),
        "length": ((0, 1, 5), (0, 1, 5), 3, False),  # L = 3 > capacity 2
        "roots": ((0,), (0,), 2, False),  # one root, L = 2
        "syndrome": ((0,), (1,), 1, False),  # corrects the wrong symbol
    }

    @pytest.mark.parametrize("rule", sorted(CASES))
    def test_rejects_on_its_own(self, rule, monkeypatch):
        hit, roots, length, decodes = self.CASES[rule]
        lam = [1]
        for idx in roots:
            lam = _poly_mul(lam, [1, _pow_alpha(7 - idx)])

        def planted(synd, width):
            C = np.zeros((len(synd), width), dtype=np.uint8)
            C[:, : len(lam)] = lam
            return C, np.full(len(synd), length)

        monkeypatch.setattr(codec, "_berlekamp_massey", planted)
        rs = _ReedSolomon(8, 4)
        word = rs.encode([[7, 200, 0, 31]])
        word[0, list(hit)] ^= 99
        got, ok, _ = rs.decode(word)
        assert ok.tolist() == [decodes]
        if decodes:
            assert got.tolist() == [[7, 200, 0, 31]]


def test_acceptance_radius_from_the_junk_bound():
    # The largest r whose expected junk decodes over 197,000 uniform words,
    # 197,000 * sum_{i <= r} C(2 sigma, i) 255^i / 256^sigma, stay at or
    # below 0.1: d = 2^32 (sigma = 4) gives 0.094 at r = 1 and 83 at r = 2;
    # at sigma <= 2 even r = 0 gives more (3.0 at sigma = 2).
    assert [codec._acceptance_radius(s) for s in range(1, 9)] == [-1, -1, 0, 1, 1, 2, 3, 4]
    assert [build_code(d, "concatenated").accept_errors for d in (256, 2**16, 2**24, 2**32)] == [-1, -1, 0, 1]


@pytest.mark.parametrize("kind, d, block", [("reference", 1000, 1), ("concatenated", 2**32, 256)])
def test_decode_many_counts_corrected_errors(kind, d, block, monkeypatch):
    # Up to the correction capacity, every decode recovers its item and
    # counts the flipped blocks: coordinates for the reference code, 256-
    # blocks (Reed-Solomon symbols) for the concatenated code; in 3-row chunks.
    monkeypatch.setattr(codec, "_DECODE_BYTES", 3 * 4 * build_code(d, kind).m)
    c = build_code(d, kind)
    rng = np.random.default_rng(32)
    capacity = math.ceil(c.correctable_flips()) - 1 if kind == "reference" else c.sigma // 2
    flips = list(range(capacity + 1)) * 2
    items = rng.integers(0, d, len(flips)).tolist()
    Y = c.encode_many(items)
    for y, f in zip(Y, flips):
        y.reshape(-1, block)[rng.choice(c.m // block, size=f, replace=False)] *= -1
    errors = np.full(len(Y), -1, dtype=np.int64)
    assert c.decode_many(Y, errors) == items
    assert errors.tolist() == flips


class TestRounding:
    def test_zero_goes_positive(self):
        y = round_to_hypercube(np.array([0.3, -0.1, 0.0]))
        assert np.array_equal(y, np.array([1, -1, 1], dtype=np.int8))

    @pytest.mark.parametrize("z", [
        np.array([5, 0, -3, -(2**62), 2**62], dtype=np.int64),
        np.array([[0, -1, 1], [-7, 0, 9]], dtype=np.int64),
        np.array([0.0, -0.0, 1e-300, -1e-300, np.inf, -np.inf, np.nan]),
        np.array([[np.nan, 0.0], [-2.5, 3.5]], dtype=np.float32),
    ], ids=["int64-1d", "int64-2d", "float64-1d", "float32-2d"])
    def test_contract(self, z):
        y = round_to_hypercube(z)
        assert y.dtype == np.int8 and y.shape == z.shape
        assert np.array_equal(y, np.where(z >= 0, 1, -1))
        assert np.all(y[np.isnan(z)] == -1) and np.all(y[z == 0] == 1)

    @given(st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=30, deadline=None)
    def test_scaling_invariance(self, alpha):
        rng = np.random.default_rng(9)
        z = rng.normal(size=32)
        assert np.array_equal(round_to_hypercube(z), round_to_hypercube(alpha * z))

    def test_rounding_lemma_adversarial(self):
        # Unit vectors z with <z, x> > 1 - zeta/4 must round to within
        # Hamming distance m*zeta/2 of x.  The adversary spends almost no
        # norm on flipped coordinates (tiny opposite-sign entries).
        c = build_code(1024, "reference")
        m, zeta = c.m, c.zeta_eff
        rng = np.random.default_rng(10)
        eps0 = 1e-9
        for _ in range(300):
            v = int(rng.integers(0, 1024))
            s = c.encode(v).astype(np.float64)
            x = s / math.sqrt(m)
            k_max = int(m * (1 - (1 - zeta / 4) ** 2)) + 1
            k = int(rng.integers(0, k_max + 1))
            flip = rng.choice(m, size=k, replace=False)
            z = np.zeros(m)
            keep = np.setdiff1d(np.arange(m), flip)
            z[keep] = s[keep] * math.sqrt((1 - k * eps0**2) / (m - k))
            z[flip] = -s[flip] * eps0
            assert np.linalg.norm(z) == pytest.approx(1.0, abs=1e-9)
            if z @ x <= 1 - zeta / 4:
                continue  # adversary overshot; not a lemma instance
            flips = np.count_nonzero(round_to_hypercube(z) != c.encode(v))
            assert flips < m * zeta / 2


class TestRadius:
    def test_within_radius(self):
        # A verified decode lies strictly inside the correction radius: a
        # word ceil(radius) flips from codeword 5 never verifies as 5.
        c = build_code(256, "reference")
        k = math.ceil(c.correctable_flips())
        for flips in (0, k - 1, k):
            y = c.encode(5).copy()
            y[:flips] = -y[:flips]
            agg = AggregateState(m=c.m, eps=1.0, n_total=c.m,
                                 plus=(y > 0).astype(np.int64), minus=(y < 0).astype(np.int64))
            res = decode_channels([agg], c, verify=True)[0]
            if flips < k:
                assert (res.item, res.flips) == (5, flips)
            else:
                assert res.item != 5
