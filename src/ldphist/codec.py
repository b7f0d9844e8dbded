"""Binary codes over the sign hypercube used to encode items.

Codewords are length-m sign vectors (int8 entries in {-1, +1}) with an
implicit 1/sqrt(m) scale, so every codeword is a unit vector.  Two code
families are provided:

* ``reference``: a fixed pseudorandom binary linear code (rate 1/4) with
  exhaustively measured minimum distance and nearest-codeword decoding.
  Decoding is O(d * m), so the family is capped at d <= 2^16.  It doubles
  as a ground-truth oracle for the concatenated family.

* ``concatenated``: a rate-1/2 Reed-Solomon outer code over 8-bit symbols
  whose symbols are expanded by the [256, 8] binary Hadamard code
  (relative distance 1/2).  Encoding gathers the parity symbols of all
  items from one per-code table.  Inner blocks are decoded by per-block
  maximum likelihood and the outer code by unique decoding, both as array
  operations over all rows at once, which guarantees correction of any
  error pattern touching fewer than m/16 coordinates (zeta_eff = 1/8).
  Outer decoding failures are reported as None.

Each decode also counts the errors it corrected (flipped coordinates
for the reference code, Reed-Solomon symbols for the concatenated code),
and each code owns the rule by which a verifying caller keeps a decode:
at most ``accept_errors`` of them.
``round_to_hypercube`` maps a real vector to signs with ties going to +1.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, Optional

import numpy as np

from .core import prf_bytes

__all__ = [
    "Code",
    "ReferenceCode",
    "ConcatenatedCode",
    "build_code",
    "round_to_hypercube",
]

REFERENCE_CODE_TAG = b"ldphist-reference-code-v2"
REFERENCE_CODE_RATE_DEN = 4  # m = 4 * t
REFERENCE_D_CAP = 1 << 16
CONCATENATED_D_CAP = 1 << 64
_DECODE_BYTES = 1 << 20  # the widest array of one decode chunk, whatever the row count
# What a verifying caller may accept of pure noise: at most _JUNK_BOUND
# expected junk decodes over _JUNK_ROWS noise rows, the occupied channels
# of a d = 2^32 run over 2^16 + 2 items in T = 3 repetitions.
_JUNK_BOUND = 0.1
_JUNK_ROWS = 197_000

_GF_PRIM_POLY = 0x11D  # x^8 + x^4 + x^3 + x^2 + 1


def _chunk_rows(row_bytes: int) -> int:
    """Rows per decode chunk whose widest array, row_bytes a row, fits _DECODE_BYTES."""
    return max(1, _DECODE_BYTES // row_bytes)


def round_to_hypercube(zbar: np.ndarray) -> np.ndarray:
    """Coordinate-wise int8 sign rounding of the same shape; zero rounds to +1, NaN to -1."""
    signs = np.greater_equal(zbar, 0, out=np.empty(np.shape(zbar), dtype=bool)).view(np.int8)
    return np.subtract(2 * signs, 1, out=signs)


class Code:
    """Common interface: deterministic encode to signs, decode to an item
    (or None on a signaled decoding failure)."""

    kind: str
    d: int
    t: int
    m: int
    zeta_eff: float
    accept_errors: int  # the most corrected errors a verified decode may have; -1 accepts none
    _decode_width: int

    def encode(self, v: int) -> np.ndarray:
        return self.encode_many([v])[0]

    def encode_many(self, vs: Iterable[int]) -> np.ndarray:
        """The (len(vs), m) int8 codewords of items in [0, d)."""
        raise NotImplementedError

    def decode(self, y: np.ndarray) -> Optional[int]:
        return self.decode_many(np.asarray(y)[None, :])[0]

    def decode_many(self, Y: np.ndarray, errors: Optional[np.ndarray] = None) -> list:
        """The item of each row of an (rows, m) array, or None on a decoding
        failure.  Given errors, an int64 array of one entry a row, each
        row's entry is set to the errors its decode corrected (meaningless
        where decoding failed).  Rows go through float32 chunks whose
        widest array in _decode_rows, of _decode_width floats a row, fits
        _DECODE_BYTES."""
        Y = np.asarray(Y)
        if Y.ndim != 2 or Y.shape[1] != self.m:
            raise ValueError(f"expected an array of shape (rows, {self.m}), got {Y.shape}")
        out, step = [], _chunk_rows(4 * self._decode_width)
        for start in range(0, len(Y), step):
            items, corrected = self._decode_rows(Y[start : start + step].astype(np.float32))
            out += items
            if errors is not None:
                errors[start : start + step] = corrected
        return out

    def _decode_rows(self, Y: np.ndarray) -> tuple:
        raise NotImplementedError

    def correctable_flips(self) -> float:
        """Strict upper limit on correctable coordinate corruptions, m*zeta/2."""
        return self.m * self.zeta_eff / 2.0

    def check_verifiable(self) -> None:
        """Refuse (ValueError) a verified run with a code that accepts no decode."""
        if self.accept_errors < 0:
            raise ValueError(f"the {self.kind} code at d = {self.d} accepts no verified decode: pure noise "
                             f"passes its decoder too often there, so a histogram would be empty; "
                             f"use the reference code (d <= {REFERENCE_D_CAP})")

    def header(self) -> dict:
        return {
            "kind": self.kind,
            "d": self.d,
            "t": self.t,
            "m": self.m,
            "zeta_eff": self.zeta_eff,
        }

    def _item(self, v: int) -> int:
        """An integer item (Python or numpy) as an int checked to lie in [0, d)."""
        v = operator.index(v)
        if not (0 <= v < self.d):
            raise ValueError(f"item {v} outside universe of size {self.d}")
        return v

    def _items(self, vs: Iterable[int]) -> np.ndarray:
        """Items as a uint64 array, each checked as _item checks it: an integer
        ndarray by one range test, anything else item by item."""
        if isinstance(vs, np.ndarray) and vs.ndim == 1 and vs.dtype.kind in "iu":
            bad = (vs < 0) | (vs >= self.d)
            if bad.any():
                raise ValueError(f"item {vs[bad][0]} outside universe of size {self.d}")
            return vs.astype(np.uint64)
        return np.array([self._item(v) for v in vs], dtype=np.uint64)


def _message_bits(values: np.ndarray, t: int) -> np.ndarray:
    """LSB-first bit matrix of shape (len(values), t)."""
    values = np.asarray(values, dtype=np.uint64)
    shifts = np.arange(t, dtype=np.uint64)
    return ((values[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


class ReferenceCode(Code):
    kind = "reference"

    def __init__(self, d: int):
        if not (2 <= d <= REFERENCE_D_CAP):
            raise ValueError(f"reference code requires 2 <= d <= {REFERENCE_D_CAP}")
        self.d = d
        self.t = max(1, math.ceil(math.log2(d)))
        self.m = REFERENCE_CODE_RATE_DEN * self.t
        self._generator = self._build_generator(self.t, self.m)
        # Sign codebook over the full 2^t-message linear span; the first d
        # rows are the codewords in use.  Distance is measured over the
        # whole span (minimum nonzero weight), a conservative bound for any
        # d <= 2^t.
        span_bits = (_message_bits(np.arange(1 << self.t), self.t) @ self._generator) % 2
        weights = span_bits[1:].sum(axis=1)
        dmin = int(weights.min())
        if dmin == 0:  # a nonzero message maps to zero: the generator is rank deficient
            raise RuntimeError(f"generator for (t={self.t}, m={self.m}) is rank deficient; bump the build tag")
        self.zeta_eff = dmin / self.m
        self.accept_errors = math.ceil(self.correctable_flips()) - 1  # flips < m * zeta / 2
        self._codebook = (1 - 2 * span_bits[: self.d].astype(np.int8)).astype(np.int8)
        self._codebook_f = self._codebook.astype(np.float32)
        self._decode_width = max(self.m, min(self.d, math.isqrt(_DECODE_BYTES // 4)))  # square blocks

    @staticmethod
    def _build_generator(t: int, m: int) -> np.ndarray:
        """Pseudorandom t x m bit matrix: the first t*m bits (little bit
        order) of the keyed PRF stream of ``core`` under the fixed
        published tag as key and u32le(t) || u32le(m) as prefix.  Its full
        rank is checked by the measured distance (the tag version is bumped,
        never the matrix patched, if a size ever comes out rank deficient)."""
        prefix = t.to_bytes(4, "little") + m.to_bytes(4, "little")
        raw = prf_bytes(REFERENCE_CODE_TAG, prefix, -(-t * m // 8))
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
        return bits[: t * m].reshape(t, m).astype(np.uint8)

    def header(self) -> dict:
        return {**super().header(), "build_tag": REFERENCE_CODE_TAG.decode()}

    def encode(self, v: int) -> np.ndarray:
        return self._codebook[self._item(v)]

    def encode_many(self, vs: Iterable[int]) -> np.ndarray:
        return self._codebook[self._items(vs)]

    def _decode_rows(self, Y: np.ndarray) -> tuple:
        """Nearest codeword, correlating one codebook slice at a time; a later
        slice takes a row only on a strictly greater maximum, so ties go to the
        smallest item.  +-1 correlations are integers within +-m, exact in
        float32, and a row's flips to its codeword are (m - correlation) / 2."""
        step, rows = self._decode_width, np.arange(len(Y))
        best, arg = np.full(len(Y), -np.inf, dtype=np.float32), np.zeros(len(Y), dtype=np.int64)
        buf = np.empty((len(Y), step), dtype=np.float32)  # every slice's correlations
        for start in range(0, self.d, step):
            block = self._codebook_f[start : start + step]
            corr = np.matmul(Y, block.T, out=buf[:, : len(block)])
            top = np.argmax(corr, axis=1)
            better = corr[rows, top] > best
            best[better], arg[better] = corr[rows, top][better], top[better] + start
        return arg.tolist(), ((self.m - best) // 2).astype(np.int64)


# ---------------------------------------------------------------------------
# GF(256) arithmetic and Reed-Solomon outer code
# ---------------------------------------------------------------------------

_GF_EXP = np.zeros(512, dtype=np.int64)
_GF_LOG = np.zeros(256, dtype=np.int64)


def _init_gf_tables():
    x = 1
    for i in range(255):
        _GF_EXP[i] = x
        _GF_LOG[x] = i
        x <<= 1
        if x & 0x100:
            x ^= _GF_PRIM_POLY
    _GF_EXP[255:510] = _GF_EXP[0:255]


_init_gf_tables()
# Field multiplication and inverse tables (the inverse of 0 is never read).
_GF_MUL = np.where(np.outer(np.arange(256) > 0, np.arange(256) > 0),
                   _GF_EXP[_GF_LOG[:, None] + _GF_LOG[None, :]], 0).astype(np.uint8)
_GF_INV = _GF_EXP[255 - _GF_LOG].astype(np.uint8)


class _ReedSolomon:
    """Systematic RS(n, k) over GF(256), narrow sense (generator roots
    alpha^1 .. alpha^{n-k}), over (rows, n) uint8 symbol arrays whose column
    0 is the coefficient of x^{n-1}.  Encoding gathers each row's parity
    from a k x 256 x (n-k) table; decoding corrects up to floor((n-k)/2)
    symbol errors in every row at once, by Berlekamp-Massey, Chien search
    and Forney."""

    def __init__(self, n: int, k: int):
        if not (0 < k < n <= 255):
            raise ValueError(f"bad RS parameters n={n}, k={k}")
        self.n = n
        self.k = k
        self.nparity = n - k
        gen = np.ones(1, dtype=np.int64)
        for i in range(1, self.nparity + 1):
            gen = np.append(0, gen) ^ np.append(_GF_MUL[_GF_EXP[i], gen], 0)  # (x + alpha^i)
        self._gen_tail = gen[::-1][1:]  # below the monic leading term, descending
        # Symbol idx sits at x^{n-1-idx}: its syndrome powers alpha^{(n-1-idx) i}
        # for i = 1 .. n-k, and the powers x^e of its inverse locator
        # alpha^{-(n-1-idx)} for every coefficient e of an error locator.
        power = np.arange(n - 1, -1, -1)
        self._synd_pow = _GF_EXP[np.outer(power, np.arange(1, self.nparity + 1)) % 255]
        self._inv_pow = _GF_EXP[np.outer(-np.arange(self.nparity + 1), power) % 255]
        # Row 256 i + c: the parity of the message with symbol c at i, zero elsewhere.
        units = np.zeros((k, 256, k), dtype=np.uint8)
        units[np.arange(k), :, np.arange(k)] = np.arange(256)
        self._parity = self._divide(units.reshape(-1, k))
        self._parity_rows = 256 * np.arange(k)

    def _divide(self, msgs: np.ndarray) -> np.ndarray:
        """Remainders of msg * x^{n-k} by the generator: the parity symbols."""
        work = np.zeros((len(msgs), self.n), dtype=np.uint8)
        work[:, : self.k] = msgs
        for i in range(self.k):
            work[:, i + 1 : i + 1 + self.nparity] ^= _GF_MUL[work[:, i, None], self._gen_tail]
        return work[:, self.k :]

    def encode(self, msgs: np.ndarray) -> np.ndarray:
        """The (rows, n) codewords of (rows, k) message symbols."""
        msgs = np.asarray(msgs, dtype=np.uint8)
        parity = np.bitwise_xor.reduce(self._parity[msgs + self._parity_rows], axis=1)
        return np.concatenate([msgs, parity], axis=1)

    def _syndromes(self, words: np.ndarray) -> np.ndarray:
        return _evaluate(words, self._synd_pow)

    def decode(self, received: np.ndarray) -> tuple:
        """(messages, ok, corrected): the (rows, k) message symbols of each
        received row, whether it decoded and how many symbols it corrected
        (its error locator's degree, 0 for a zero syndrome).  The symbols
        and count of a failed row are not meaningful.  A row fails when its
        error locator is longer than floor((n-k)/2), has other than that
        many roots, or corrects to a word with a nonzero syndrome."""
        words = np.array(received, dtype=np.uint8)
        if words.ndim != 2 or words.shape[1] != self.n:
            raise ValueError(f"received words must be rows of {self.n} symbols")
        synd = self._syndromes(words)
        ok, corrected = np.ones(len(words), dtype=bool), np.zeros(len(words), dtype=np.int64)
        bad = np.flatnonzero(synd.any(axis=1))  # rows with no error pass as they are
        ok[bad], words[bad], corrected[bad] = self._correct(words[bad], synd[bad])
        return words[:, : self.k], ok, corrected

    def _correct(self, words: np.ndarray, synd: np.ndarray) -> tuple:
        npar = self.nparity
        lam, L = _berlekamp_massey(synd, npar + 1)  # degree L <= n-k
        # Chien search: the error locator at every inverse locator.
        roots = _evaluate(lam, self._inv_pow) == 0
        # Forney: omega = S(x) lambda(x) mod x^{n-k}, over lambda's formal
        # derivative, which in characteristic 2 keeps only the odd terms.
        lag = np.subtract.outer(np.arange(npar), np.arange(npar))  # [e, c] = e - c
        shifted = np.where(lag >= 0, synd[:, lag], 0)
        omega = np.bitwise_xor.reduce(_GF_MUL[lam[:, None, :npar], shifted], axis=2)
        omega_at = _evaluate(omega, self._inv_pow[:npar])
        deriv_at = _evaluate(lam[:, 1::2], self._inv_pow[:npar:2])
        fixed = words ^ np.where(roots, _GF_MUL[omega_at, _GF_INV[deriv_at]], 0)
        # L distinct roots of a degree-L locator are simple: deriv_at is nonzero at each.
        ok = (L <= npar // 2) & (roots.sum(axis=1) == L)
        return ok & ~self._syndromes(fixed).any(axis=1), fixed, L


def _evaluate(coeffs: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """XOR over e of coeffs[:, e] * powers[e]: each row's polynomial at
    every point whose powers are the columns of powers."""
    return np.bitwise_xor.reduce(_GF_MUL[coeffs[:, :, None], powers], axis=1)


def _berlekamp_massey(synd: np.ndarray, width: int) -> tuple:
    """Error locator coefficients, ascending in (rows, width) uint8, and
    their lengths L, of every row of syndromes: the scalar recurrence run
    in step on all rows, a row with zero discrepancy keeping its locator."""
    rows, npar = synd.shape
    C = np.zeros((rows, width), dtype=np.uint8)
    C[:, 0] = 1
    B = C.copy()
    L = np.zeros(rows, dtype=np.int64)
    shift = np.ones(rows, dtype=np.int64)
    b = np.ones(rows, dtype=np.uint8)
    cols = np.arange(width)
    for i in range(npar):
        # The scalar sum runs over j <= L; C is zero above its length L.
        j = np.arange(1, i + 1)
        delta = synd[:, i] ^ np.bitwise_xor.reduce(_GF_MUL[C[:, 1 : i + 1], synd[:, i - j]], axis=1)
        src = cols - shift[:, None]  # x^shift * B, read back from B
        moved = np.where(src >= 0, np.take_along_axis(B, np.maximum(src, 0), axis=1), 0)
        adjust = _GF_MUL[_GF_MUL[delta, _GF_INV[b]][:, None], moved]  # zero when delta is
        grow = (delta != 0) & (2 * L <= i)
        B = np.where(grow[:, None], C, B)
        C = C ^ adjust
        L = np.where(grow, i + 1 - L, L)
        b = np.where(grow, delta, b)
        shift = np.where(grow, 1, shift + 1)
    return C, L


def _hadamard_sign_table() -> np.ndarray:
    """H[u, a] = (-1)^{popcount(u & a)} for 8-bit u, a."""
    parity = np.bitwise_count(np.bitwise_and.outer(np.arange(256), np.arange(256))) & 1
    return (1 - 2 * parity.astype(np.int8)).astype(np.int8)


_HADAMARD = _hadamard_sign_table()
_HADAMARD_F = _HADAMARD.astype(np.float32)


def _acceptance_radius(sigma: int) -> int:
    """The largest r <= sigma // 2 at which _JUNK_ROWS uniform words
    decoded by RS(2 sigma, sigma) with at most r corrected symbols give at
    most _JUNK_BOUND decodes in expectation: a uniform word lies within r
    symbols of some codeword with probability
    sum_{i <= r} C(2 sigma, i) 255^i / 256^sigma.  -1 where even r = 0
    gives more (sigma <= 2): no decode is accepted, and a verified run
    refuses the code (Code.check_verifiable)."""
    radius, ball = -1, 0
    for r in range(sigma // 2 + 1):
        ball += math.comb(2 * sigma, r) * 255**r
        if _JUNK_ROWS * ball / 256**sigma > _JUNK_BOUND:
            break
        radius = r
    return radius


class ConcatenatedCode(Code):
    kind = "concatenated"
    zeta_eff = 1.0 / 8.0

    def __init__(self, d: int):
        if not (2 <= d <= CONCATENATED_D_CAP):
            raise ValueError(f"concatenated code requires 2 <= d <= 2^64")
        self.d = d
        self.t = max(1, math.ceil(math.log2(d)))
        self.sigma = -(-self.t // 8)  # data symbols (bytes)
        self.n_out = 2 * self.sigma  # rate-1/2 outer code
        self.m = self._decode_width = 256 * self.n_out
        self._rs = _ReedSolomon(self.n_out, self.sigma)
        self.accept_errors = _acceptance_radius(self.sigma)
        self._byte_shifts = 8 * np.arange(self.sigma, dtype=np.uint64)  # data is little endian

    def encode_many(self, vs: Iterable[int]) -> np.ndarray:
        items = self._items(vs)
        data = items.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)[:, : self.sigma]
        return _HADAMARD[self._rs.encode(data)].reshape(len(items), self.m)

    def _decode_rows(self, Y: np.ndarray) -> tuple:
        """Inner maximum-likelihood decode of every block, then one outer
        decode of all rows, which counts the symbols it corrected; a
        payload of d or more is a failure too."""
        symbols = np.argmax(Y.reshape(-1, 256) @ _HADAMARD_F.T, axis=1).reshape(len(Y), self.n_out)
        msgs, ok, corrected = self._rs.decode(symbols)
        values = np.bitwise_or.reduce(msgs.astype(np.uint64) << self._byte_shifts, axis=1)
        return [v if good and v < self.d else None for v, good in zip(values.tolist(), ok.tolist())], corrected


def build_code(d: int, kind: str = "reference") -> Code:
    """Build a code for a universe of size d.

    kind "reference" caps d at 2^16 (decoding is a full codebook scan);
    kind "concatenated" supports d up to 2^64.
    """
    if kind == "reference":
        return ReferenceCode(d)
    if kind == "concatenated":
        return ConcatenatedCode(d)
    raise ValueError(f"unknown code kind {kind!r}")
