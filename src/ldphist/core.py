"""Shared domain types, protocol parameter derivation, and public randomness.

All protocols in this package are parameterized by a universe size ``d``, a
user count ``n``, a privacy budget ``eps`` (nats), and a confidence parameter
``beta``.  The derivation formulas use natural logarithms for every
concentration-derived quantity (gamma, projection dimension, pruning
threshold) and base-2 logarithms for bit lengths (message bits, hash seed
length, repetition count).  Derived integer parameters round up.

Every coin that clients and server must regenerate comes from one keyed
PRF, ``prf_bytes`` and its rejection sampler ``prf_below``, under three
(key, prefix) uses: ``PublicRandomness`` (master seed, encoded label; keyed
once), the channel hash's (a, b) in ``heavy_hitter`` and the reference
code's generator matrix in ``codec``.  The tests pin the v1 bytes of all
three.  A block costs one copy of a keyed state, one update and one
digest: label streams copy ``PublicRandomness``'s one keyed state, and block
indices below 2^12 read their u64le from ``_INDICES``.  The sampler costs one
digest when word 0 of block 0 is accepted, as it almost always is for small
bounds; ``ints_below`` draws a grid of encoded label heads x ``_draw_args``
tuples, absorbing each head once.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import struct
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "BOT",
    "FoParams",
    "HhParams",
    "PublicRandomness",
    "prf_bytes",
    "prf_below",
    "derive_fo_params",
    "derive_hh_params",
    "check_eps",
    "c_eps",
    "report_magnitude",
]


BOT = -1  # the item of a user holding nothing, who randomizes the zero input
LabelPart = Union[str, int, bytes]


@dataclass(frozen=True)
class FoParams:
    """Derived parameters of the frequency-oracle protocol.

    gamma is the target inner-product distortion of the random sign
    projection and m_fo its dimension.  The inputs (d, n, eps) are retained
    so that run manifests can echo the full derivation.
    """

    gamma: float
    m_fo: int
    beta: float
    d: int
    n: int
    eps: float

    def __post_init__(self):
        if self.m_fo < 1:
            raise ValueError("projection dimension must be >= 1")


@dataclass(frozen=True)
class HhParams:
    """Derived parameters of the succinct-histogram protocol.

    K channels per repetition, T repetitions, hash seeds of ell bits, a
    per-sub-protocol budget eps_channel = eps / (2T + 1), and the pruning
    threshold applied to frequency estimates of decoded candidates.
    iso_failure_bound is (1/threshold) * (n/K)**T, the probability bound on
    some heavy hitter failing to get an interference-free channel; callers
    overriding K should check it against beta / 3.
    """

    K: int
    T: int
    ell: int
    eps_channel: float
    threshold: float
    iso_failure_bound: float
    d: int
    n: int
    eps: float
    beta: float


_EPS_MAX = math.log(sys.float_info.max)  # the largest eps whose e^eps is a finite float


def check_eps(eps: float) -> None:
    """Refuse an eps the formulas cannot use: it must be finite, > 0 and at
    most _EPS_MAX, so that e^eps, c_eps and the keep probability are finite."""
    if not 0 < eps <= _EPS_MAX:
        raise ValueError(f"eps must be finite, > 0 and at most ln(max float) = {_EPS_MAX:.2f}, got {eps}")


_TABLE_BYTES = 1 << 31  # the most a run may allocate up front for one count table


def check_table_bytes(rows: int, m: int, what: str) -> None:
    """Refuse, before it is allocated, a (rows, m, 2) int64 count table of
    more than _TABLE_BYTES, naming its bytes and what drives them."""
    if 16 * rows * m > _TABLE_BYTES:
        raise ValueError(f"{what} needs a count table of {16 * rows * m:,} bytes; "
                         f"the budget is {_TABLE_BYTES:,}")


def _check_common(d: int, n: int, eps: float, beta: float) -> None:
    if d < 2:
        raise ValueError(f"universe size must be >= 2, got {d}")
    if n < 1:
        raise ValueError(f"user count must be >= 1, got {n}")
    check_eps(eps)
    if not (0 < beta < 1):
        raise ValueError(f"beta must be in (0, 1), got {beta}")


def derive_fo_params(d: int, n: int, eps: float, beta: float) -> FoParams:
    """Derive the frequency-oracle projection parameters.

    gamma = sqrt(ln(2d/beta) / (eps^2 n)) and
    m_fo  = ceil(ln(d+1) * ln(2/beta) / gamma^2), rounded up to at least 1.
    """
    _check_common(d, n, eps, beta)
    gamma = math.sqrt(math.log(2.0 * d / beta) / (eps * eps * n))
    m_fo = max(1, math.ceil(math.log(d + 1.0) * math.log(2.0 / beta) / (gamma * gamma)))
    return FoParams(gamma=gamma, m_fo=m_fo, beta=beta, d=d, n=n, eps=eps)


def derive_hh_params(
    d: int, n: int, eps: float, beta: float, k_override: int | None = None
) -> HhParams:
    """Derive the succinct-histogram protocol parameters.

    K defaults to floor(n^{3/2}); an override must be >= 2 and is intended
    for desk-scale runs, in which case the returned isolation failure bound
    should be checked against beta / 3.  T = max(1, ceil(log2(3/beta))).
    Raises if the pruning threshold reaches 1, which makes the protocol
    vacuous (no frequency can survive the prune).
    """
    _check_common(d, n, eps, beta)
    if k_override is not None:
        if k_override < 2:
            raise ValueError(f"K override must be >= 2, got {k_override}")
        K = int(k_override)
    else:
        K = math.floor(n ** 1.5)
    T = max(1, math.ceil(math.log2(3.0 / beta)))
    eps_channel = eps / (2 * T + 1)
    ell = 2 * max(math.ceil(math.log2(d)), math.ceil(math.log2(max(n, 2))))
    threshold = ((2 * T + 1) / eps) * math.sqrt(
        math.log(d) * math.log(1.0 / beta) / n
    )
    if threshold >= 1.0:
        raise ValueError(
            f"pruning threshold {threshold:.4g} >= 1: no frequency can pass it; "
            f"increase n or eps (d={d}, n={n}, eps={eps}, beta={beta})"
        )
    iso_failure_bound = (1.0 / threshold) * (n / K) ** T
    return HhParams(
        K=K,
        T=T,
        ell=ell,
        eps_channel=eps_channel,
        threshold=threshold,
        iso_failure_bound=iso_failure_bound,
        d=d,
        n=n,
        eps=eps,
        beta=beta,
    )


def c_eps(eps: float) -> float:
    """Debiasing scale (e^eps + 1) / (e^eps - 1) of the basic randomizer."""
    check_eps(eps)
    e = math.exp(eps)
    return (e + 1.0) / (e - 1.0)


def report_magnitude(eps: float, m: int) -> float:
    """Magnitude c_eps * sqrt(m) carried by every report coordinate."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return c_eps(eps) * math.sqrt(m)


# ---------------------------------------------------------------------------
# Public randomness
# ---------------------------------------------------------------------------

_BLOCK = 64  # bytes per PRF block
_WORD = struct.Struct("<Q")
_INDICES = tuple(_WORD.pack(i) for i in range(1 << 12))  # u64le(i), i < 2^12: columns of up to 2^21 signs


def _prf_state(key: bytes, prefix: bytes):
    """Keyed BLAKE2b-512 state after prefix; each block starts from a copy."""
    h = hashlib.blake2b(key=key, digest_size=_BLOCK)
    h.update(prefix)
    return h


def _prf_block(state, index: int, suffix: bytes = b"") -> bytes:
    """Block i: BLAKE2b-512(key, prefix || suffix || u64le(i)), state holding (key, prefix)."""
    h = state.copy()
    h.update(suffix + (_INDICES[index] if 0 <= index < len(_INDICES) else index.to_bytes(8, "little")))
    return h.digest()


def _prf_blocks(state, indices) -> bytes:
    """_prf_block(state, i) for each int i >= 0 in indices, joined, in one tight loop."""
    copy, table, size, pack, out = state.copy, _INDICES, len(_INDICES), _WORD.pack, []
    for i in indices:
        h = copy()
        h.update(table[i] if i < size else pack(i))
        out.append(h.digest())
    return b"".join(out)


def prf_bytes(key: bytes, prefix: bytes, nbytes: int) -> bytes:
    """First nbytes bytes of the keyed PRF stream for (key, prefix): the
    concatenation of blocks BLAKE2b-512(key, prefix || u64le(i)), i = 0, 1, ..."""
    return _prf_blocks(_prf_state(key, prefix), range(-(-nbytes // _BLOCK)))[:nbytes]


def _below(state, bound: int, suffix: bytes, tail: bytes, limit: int) -> int:
    """Rejection sampler on the (state, suffix) stream of the draw
    _draw_args(bound, suffix), read word by word: the first u64le word below
    limit, mod bound.  Word 0 of block 0 is tried by itself, one digest of
    tail; for bound <= 2^32 the loop that follows runs with probability below 2^-32."""
    h = state.copy()
    h.update(tail)
    (u,) = _WORD.unpack_from(h.digest())
    if u < limit:
        return u % bound
    for i in itertools.count():
        for (u,) in _WORD.iter_unpack(_prf_block(state, i, suffix)):
            if u < limit:
                return u % bound


def _draw_args(bound: int, suffix: bytes) -> tuple:
    """_below's (bound, suffix, tail, limit), the one description of a draw:
    tail = suffix + u64le(0) and limit, the largest multiple of bound in 64
    bits, which the sampler keeps words below."""
    if not (1 <= bound <= 1 << 63):
        raise ValueError(f"bound out of range: {bound}")
    return bound, suffix, suffix + _INDICES[0], ((1 << 64) // bound) * bound


def prf_below(key: bytes, prefix: bytes, bound: int) -> int:
    """Exactly uniform integer in [0, bound) from the (key, prefix) stream."""
    return _below(_prf_state(key, prefix), *_draw_args(bound, b""))


def _encode_label(parts: Iterable[LabelPart]) -> bytes:
    """Unambiguous byte encoding of a label tuple (type tag + length prefix)."""
    out = bytearray()
    for p in parts:
        if isinstance(p, bytes):
            tag, data = b"b", p
        elif isinstance(p, str):
            tag, data = b"s", p.encode("utf-8")
        elif isinstance(p, (int, np.integer)):
            tag, data = b"i", int(p).to_bytes(16, "little", signed=True)
        else:
            raise TypeError(f"unsupported label part type: {type(p)!r}")
        out += tag + len(data).to_bytes(4, "little") + data
    return bytes(out)


class PublicRandomness:
    """Deterministic public coin source shared by all protocol parties: the
    stream for a label is the keyed PRF stream with the 256-bit master seed
    as key and the label's encoding as prefix.  Distinct labels give
    independent streams, and the same seed and label always reproduce
    identical bytes."""

    def __init__(self, master_seed: bytes):
        if not isinstance(master_seed, bytes):
            raise TypeError("master seed must be bytes")
        if len(master_seed) != 32:
            raise ValueError(f"master seed must be 32 bytes, got {len(master_seed)}")
        self.master_seed = master_seed
        self._keyed = _prf_state(master_seed, b"")  # every label stream copies it

    @classmethod
    def from_any(cls, seed: Union[int, str, bytes]) -> "PublicRandomness":
        """Derive a 32-byte master seed from an int, string, or bytes value."""
        if isinstance(seed, bytes) and len(seed) == 32:
            return cls(seed)
        if isinstance(seed, int):
            material = seed.to_bytes(32, "little", signed=True)
        elif isinstance(seed, str):
            material = seed.encode("utf-8")
        elif isinstance(seed, bytes):
            material = seed
        else:
            raise TypeError(f"unsupported seed type: {type(seed)!r}")
        return cls(hashlib.blake2b(material, digest_size=32).digest())

    def bytes_at(self, label: Tuple[LabelPart, ...], nbytes: int) -> bytes:
        """First nbytes bytes of the stream for this label, read from a copy of the keyed state."""
        state = self._keyed.copy()
        state.update(_encode_label(label))
        return _prf_blocks(state, range(-(-nbytes // _BLOCK)))[:nbytes]

    def sign_array(self, label: Tuple[LabelPart, ...], count: int) -> np.ndarray:
        """count pseudorandom signs in {-1, +1} as int8 (bit k of byte k//8,
        little bit order)."""
        raw = self.bytes_at(label, -(-count // 8))
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=count, bitorder="little")
        signs = bits.view(np.int8)
        return np.subtract(1, np.add(signs, signs, out=signs), out=signs)  # 1 - 2 * bit, in place

    def sign_at(self, label: Union[Tuple[LabelPart, ...], bytes], index: int) -> int:
        """Single sign at a given bit offset of the label's stream, touching
        only the block that holds it; the label is a tuple or its encoding."""
        encoded = label if isinstance(label, bytes) else _encode_label(label)
        block = _prf_block(self._keyed, index // (8 * _BLOCK), encoded)
        return 1 - 2 * ((block[index // 8 % _BLOCK] >> (index % 8)) & 1)

    def signs_at(self, label: Tuple[LabelPart, ...], positions, items) -> np.ndarray:
        """The int8 signs sign_array(label + (item,), m) holds at each item's
        position, over equal-length arrays of positions and items: each
        (label, block) the positions touch is hashed once, and each sign is
        read from its byte."""
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size and positions.min() < 0:
            raise ValueError("positions must be nonnegative")
        block, (values, rank) = positions // (8 * _BLOCK), np.unique(items, return_inverse=True)
        head = _encode_label(label)  # label encoding is concatenative
        heads = [head + _encode_label((v,)) for v in values.tolist()]
        width = int(block.max(initial=0)) + 1  # blocks per label in the (label, block) keys
        keys, slot = np.unique(rank * width + block, return_inverse=True)
        bounds = np.searchsorted(keys, np.arange(len(heads) + 1) * width).tolist()
        raw = bytearray()
        for r, (head, lo, hi) in enumerate(zip(heads, bounds, bounds[1:])):
            state = self._keyed.copy()
            state.update(head)
            raw += _prf_blocks(state, (keys[lo:hi] - r * width).tolist())
        byte = np.frombuffer(raw, dtype=np.uint8).reshape(-1, _BLOCK)[slot, positions // 8 % _BLOCK]
        return 1 - 2 * (byte >> (positions % 8) & 1).astype(np.int8)

    def int_below(self, label: Union[Tuple[LabelPart, ...], bytes], bound: int) -> int:
        """Exactly uniform integer in [0, bound) via 64-bit rejection sampling;
        the label is a tuple or its encoding (bytes)."""
        encoded = label if isinstance(label, bytes) else _encode_label(label)
        return _below(self._keyed, *_draw_args(bound, encoded))

    def ints_below(self, heads: Sequence[bytes], draws: Sequence[tuple]) -> np.ndarray:
        """The (len(heads), len(draws)) int64 array of int_below(head + suffix,
        bound) over encoded heads and _draw_args tuples (label encoding is
        concatenative): one digest per entry reads word 0 of block 0, checked
        against limit - 1 (bound 1's limit is 2^64), and _below redraws the
        rare rejected entries."""
        digests, tails = [], [tail for _, _, tail, _ in draws]
        for head in heads:
            state = self._keyed.copy()
            state.update(head)
            for tail in tails:
                h = state.copy()
                h.update(tail)
                digests.append(h.digest())
        words = np.frombuffer(b"".join(digests), "<u8")[:: _BLOCK // 8].reshape(len(heads), len(draws))
        bounds = np.array([bound for bound, *_ in draws], dtype=np.uint64)
        lasts = np.array([limit - 1 for *_, limit in draws], dtype=np.uint64)
        out = (words % bounds).astype(np.int64)
        for i, j in zip(*np.nonzero(words > lasts)):
            state = self._keyed.copy()
            state.update(heads[i])
            out[i, j] = _below(state, *draws[j])
        return out
