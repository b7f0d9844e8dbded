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
  (relative distance 1/2).  Inner blocks are decoded by per-block maximum
  likelihood and the outer code by unique decoding, which guarantees
  correction of any error pattern touching fewer than m/16 coordinates
  (zeta_eff = 1/8).  Outer decoding failures are reported as None.

``round_to_hypercube`` maps a real vector to signs with ties going to +1.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .core import prf_bytes

__all__ = [
    "Code",
    "ReferenceCode",
    "ConcatenatedCode",
    "build_code",
    "round_to_hypercube",
    "hamming",
]

REFERENCE_CODE_TAG = b"ldphist-reference-code-v2"
REFERENCE_CODE_RATE_DEN = 4  # m = 4 * t
REFERENCE_D_CAP = 1 << 16
CONCATENATED_D_CAP = 1 << 64

_GF_PRIM_POLY = 0x11D  # x^8 + x^4 + x^3 + x^2 + 1


def round_to_hypercube(zbar: np.ndarray) -> np.ndarray:
    """Coordinate-wise sign rounding; zero rounds to +1."""
    zbar = np.asarray(zbar)
    return np.where(zbar >= 0, 1, -1).astype(np.int8)


def hamming(a: np.ndarray, b: np.ndarray) -> int:
    """Number of coordinates where two sign vectors disagree."""
    return int(np.count_nonzero(np.asarray(a) != np.asarray(b)))


class Code:
    """Common interface: deterministic encode to signs, decode to an item
    (or None on a signaled decoding failure)."""

    kind: str
    d: int
    t: int
    m: int
    zeta_eff: float

    def encode(self, v: int) -> np.ndarray:
        raise NotImplementedError

    def encode_many(self, vs: Sequence[int]) -> np.ndarray:
        return np.array([self.encode(int(v)) for v in vs], dtype=np.int8).reshape(-1, self.m)

    def signs_at(self, v: int, positions: np.ndarray) -> np.ndarray:
        return self.encode(v)[positions]

    def decode(self, y: np.ndarray) -> Optional[int]:
        return self.decode_many(np.asarray(y)[None, :])[0]

    def decode_many(self, Y: np.ndarray) -> list:
        raise NotImplementedError

    def correctable_flips(self) -> float:
        """Strict upper limit on correctable coordinate corruptions, m*zeta/2."""
        return self.m * self.zeta_eff / 2.0

    def header(self) -> dict:
        return {
            "kind": self.kind,
            "d": self.d,
            "t": self.t,
            "m": self.m,
            "zeta_eff": self.zeta_eff,
        }

    def _check_item(self, v: int) -> None:
        if not (0 <= v < self.d):
            raise ValueError(f"item {v} outside universe of size {self.d}")


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
        if dmin == 0:
            raise RuntimeError("degenerate pseudorandom generator matrix")
        self.zeta_eff = dmin / self.m
        self._codebook = (1 - 2 * span_bits[: self.d].astype(np.int8)).astype(np.int8)
        self._codebook_f = self._codebook.astype(np.float32)

    @staticmethod
    def _build_generator(t: int, m: int) -> np.ndarray:
        """Pseudorandom t x m bit matrix: the first t*m bits (little bit
        order) of the keyed PRF stream of ``core`` under the fixed
        published tag as key and u32le(t) || u32le(m) as prefix, with a
        full-rank guarantee (the tag version is bumped, never the matrix
        patched, if a size ever comes out rank deficient)."""
        prefix = t.to_bytes(4, "little") + m.to_bytes(4, "little")
        raw = prf_bytes(REFERENCE_CODE_TAG, prefix, -(-t * m // 8))
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
        G = bits[: t * m].reshape(t, m).astype(np.uint8)
        if _gf2_rank(G) != t:
            raise RuntimeError(
                f"generator matrix for (t={t}, m={m}) is rank deficient; "
                "the build tag needs a version bump"
            )
        return G

    def header(self) -> dict:
        return {**super().header(), "build_tag": REFERENCE_CODE_TAG.decode()}

    def encode(self, v: int) -> np.ndarray:
        self._check_item(v)
        return self._codebook[v]

    def encode_many(self, vs: Sequence[int]) -> np.ndarray:
        vs = np.asarray(vs, dtype=np.int64)
        if np.any(vs < 0) or np.any(vs >= self.d):
            raise ValueError("item outside universe")
        return self._codebook[vs]

    def decode_many(self, Y: np.ndarray) -> list:
        """Nearest codeword by correlation; ties resolve to the smallest item."""
        Y = np.asarray(Y, dtype=np.float32)
        out = []
        for start in range(0, len(Y), 4096):
            corr = Y[start : start + 4096] @ self._codebook_f.T
            out.extend(int(i) for i in np.argmax(corr, axis=1))
        return out


def _gf2_rank(mat: np.ndarray) -> int:
    work = mat.copy().astype(np.uint8)
    rank = 0
    rows, cols = work.shape
    col = 0
    for col in range(cols):
        pivot = None
        for r in range(rank, rows):
            if work[r, col]:
                pivot = r
                break
        if pivot is None:
            continue
        work[[rank, pivot]] = work[[pivot, rank]]
        for r in range(rows):
            if r != rank and work[r, col]:
                work[r] ^= work[rank]
        rank += 1
        if rank == rows:
            break
    return rank


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


def _gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return int(_GF_EXP[_GF_LOG[a] + _GF_LOG[b]])


def _gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("inverse of 0 in GF(256)")
    return int(_GF_EXP[255 - _GF_LOG[a]])


def _gf_pow_alpha(e: int) -> int:
    """alpha**e for any integer e."""
    return int(_GF_EXP[e % 255])


def _poly_eval(poly: Sequence[int], x: int) -> int:
    """Evaluate an ascending-order coefficient list at x."""
    acc = 0
    for c in reversed(poly):
        acc = _gf_mul(acc, x) ^ c
    return acc


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] ^= _gf_mul(ai, bj)
    return out


class _ReedSolomon:
    """Systematic RS(n, k) over GF(256), narrow sense (generator roots
    alpha^1 .. alpha^{n-k}); unique decoding of up to floor((n-k)/2)
    symbol errors via Berlekamp-Massey, Chien search, and Forney."""

    def __init__(self, n: int, k: int):
        if not (0 < k < n <= 255):
            raise ValueError(f"bad RS parameters n={n}, k={k}")
        self.n = n
        self.k = k
        self.nparity = n - k
        gen = [1]
        for i in range(1, self.nparity + 1):
            gen = _poly_mul(gen, [_gf_pow_alpha(i), 1])  # (x + alpha^i)
        self._gen = gen  # ascending order, degree nparity, monic

    def encode(self, msg: Sequence[int]) -> list:
        if len(msg) != self.k:
            raise ValueError(f"message must have {self.k} symbols")
        # Long division of msg * x^{nparity} by the generator.
        work = list(msg) + [0] * self.nparity
        for i in range(self.k):
            coef = work[i]
            if coef == 0:
                continue
            # generator is monic; subtract coef * gen aligned at i
            for j in range(1, self.nparity + 1):
                work[i + j] ^= _gf_mul(self._gen[self.nparity - j], coef)
        return list(msg) + work[self.k :]

    def _syndromes(self, received: Sequence[int]) -> list:
        # received[0] is the coefficient of x^{n-1}
        return [
            _poly_eval(list(reversed(received)), _gf_pow_alpha(i))
            for i in range(1, self.nparity + 1)
        ]

    def decode(self, received: Sequence[int]) -> Optional[list]:
        """Return the k message symbols, or None on decoding failure."""
        if len(received) != self.n:
            raise ValueError(f"received word must have {self.n} symbols")
        synd = self._syndromes(received)
        if not any(synd):
            return list(received[: self.k])
        lam, L = self._berlekamp_massey(synd)
        if L > self.nparity // 2:
            return None
        # Chien search: positions idx (0 = first symbol) have power n-1-idx.
        roots_inv = []
        positions = []
        for idx in range(self.n):
            power = self.n - 1 - idx
            x_inv = _gf_pow_alpha(-power)
            if _poly_eval(lam, x_inv) == 0:
                roots_inv.append(x_inv)
                positions.append(idx)
        if len(positions) != L:
            return None
        # Forney: omega = (S(x) * lambda(x)) mod x^{nparity}
        omega = _poly_mul(synd, lam)[: self.nparity]
        corrected = list(received)
        for idx, x_inv in zip(positions, roots_inv):
            # Formal derivative in characteristic 2 keeps only odd terms.
            lam_deriv = 0
            for deg in range(1, len(lam), 2):
                lam_deriv ^= _gf_mul(lam[deg], _gf_pow_alpha(_GF_LOG[x_inv] * (deg - 1)))
            if lam_deriv == 0:
                return None
            magnitude = _gf_mul(_poly_eval(omega, x_inv), _gf_inv(lam_deriv))
            corrected[idx] ^= magnitude
        if any(self._syndromes(corrected)):
            return None
        return corrected[: self.k]

    @staticmethod
    def _berlekamp_massey(synd: Sequence[int]) -> tuple:
        C = [1]
        B = [1]
        L = 0
        shift = 1
        b = 1
        for i, s in enumerate(synd):
            delta = s
            for j in range(1, L + 1):
                if j < len(C):
                    delta ^= _gf_mul(C[j], synd[i - j])
            if delta == 0:
                shift += 1
                continue
            coef = _gf_mul(delta, _gf_inv(b))
            adjust = [0] * shift + [_gf_mul(coef, x) for x in B]
            if 2 * L <= i:
                old_C = list(C)
                C = _poly_xor(C, adjust)
                L = i + 1 - L
                B = old_C
                b = delta
                shift = 1
            else:
                C = _poly_xor(C, adjust)
                shift += 1
        return C, L


def _poly_xor(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] ^= x
    return out


def _hadamard_sign_table() -> np.ndarray:
    """H[u, a] = (-1)^{popcount(u & a)} for 8-bit u, a."""
    popcount = np.array([bin(x).count("1") for x in range(256)], dtype=np.uint8)
    anded = np.bitwise_and.outer(np.arange(256), np.arange(256))
    parity = popcount[anded] & 1
    return (1 - 2 * parity.astype(np.int8)).astype(np.int8)


_HADAMARD = _hadamard_sign_table()
_HADAMARD_F = _HADAMARD.astype(np.float32)


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
        self.m = 256 * self.n_out
        self._rs = _ReedSolomon(self.n_out, self.sigma)

    def encode(self, v: int) -> np.ndarray:
        self._check_item(v)
        data = list(int(v).to_bytes(self.sigma, "little"))
        symbols = self._rs.encode(data)
        return np.concatenate([_HADAMARD[s] for s in symbols])

    def decode_many(self, Y: np.ndarray) -> list:
        Y = np.asarray(Y, dtype=np.float32)
        if Y.shape[1] != self.m:
            raise ValueError(f"expected vectors of length {self.m}")
        nblocks = self.n_out
        blocks = Y.reshape(len(Y), nblocks, 256)
        # Inner maximum-likelihood decode of every block at once.
        corr = blocks.reshape(-1, 256) @ _HADAMARD_F.T
        symbols = np.argmax(corr, axis=1).reshape(len(Y), nblocks)
        out = []
        for row in symbols:
            msg = self._rs.decode([int(s) for s in row])
            if msg is None:
                out.append(None)
                continue
            v = int.from_bytes(bytes(msg), "little")
            out.append(v if v < self.d else None)
        return out


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
