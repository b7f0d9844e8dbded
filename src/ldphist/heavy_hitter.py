"""Unique-heavy-hitter recovery and the full succinct-histogram protocol.

The promise protocol aggregates randomized codewords from users that hold
a common item (idle users randomize the zero input), rounds the mean
report vector to the hypercube, and decodes.  The full protocol hashes
items into K channels, repeats with T fresh seeds so every heavy item is
isolated in some channel with high probability, decodes every channel of
interest, and publishes for each decoded candidate the mean of its
frequency-oracle estimate and its channel estimates in the channel it
hashes to in every repetition (oracle alone when K is too small for
isolation), keeping the candidates whose estimates reach the pruning
threshold.  The total privacy budget is eps = (2T + 1) * eps_channel:
changing one user's item alters its report distribution in at most 2T
hash channels plus the frequency-oracle channel, each running at
eps_channel.  The channel estimates reuse reports already charged to that
budget, so averaging them costs no privacy.

Modes.  In ``faithful`` mode every user's report is sampled in every
channel and every channel is decoded, which is the protocol as a real
server would run it (the report multiset is what the transport service
receives).  In ``fast`` mode, channels with no active user are neither
materialized per user nor decoded: idle-user noise in occupied channels is
drawn from the exact multinomial of the corresponding report count, which
is distributionally identical to per-user sampling, and skipping the
never-occupied channels removes pure-noise decodes whose candidates carry
no signal.  Fast mode is the desk-scale default.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .codec import Code, _chunk_rows, round_to_hypercube
from .core import BOT, FoParams, HhParams, PublicRandomness, c_eps, prf_below
from .freq_oracle import (
    AggregateState,
    absorb_groups,
    channel_aggregates,
    fo_estimate_many,
    fo_simulate_reports,
)
from .randomizer import SparseReport, randomize

__all__ = [
    "MERSENNE_P",
    "HashSeed",
    "draw_hash_seeds",
    "channel_of",
    "check_channel_cap",
    "pp_client_report",
    "simulate_idle_noise",
    "decode_channels",
    "PpDecodeResult",
    "pp_run",
    "SuccinctHistogram",
    "prune",
    "HhResult",
    "hh_execute",
    "hh_finalize",
]

MERSENNE_P = (1 << 61) - 1
_HASH_PRF_KEY = b"ldphist-channel-hash-v1"
FAITHFUL_CHANNEL_CAP = 1 << 14


@dataclass(frozen=True)
class HashSeed:
    """Public per-repetition seed of the pairwise-independent hash family;
    its ``pair`` (a, b), a in [1, p) and b in [0, p), is drawn once from the keyed
    PRF of ``core`` under key ``_HASH_PRF_KEY`` and prefixes b"a" + bits, b"b" + bits."""

    bits: bytes

    @cached_property
    def pair(self) -> tuple:
        a = prf_below(_HASH_PRF_KEY, b"a" + self.bits, MERSENNE_P - 1) + 1
        return a, prf_below(_HASH_PRF_KEY, b"b" + self.bits, MERSENNE_P)


def draw_hash_seeds(pub: PublicRandomness, T: int, ell: int) -> list:
    """One fresh ell-bit public seed per repetition."""
    nbytes = -(-ell // 8)
    seeds = []
    for t in range(T):
        raw = bytearray(pub.bytes_at(("hash-seed", t), nbytes))
        extra = 8 * nbytes - ell
        if extra:
            raw[-1] &= (1 << (8 - extra)) - 1
        seeds.append(HashSeed(bytes(raw)))
    return seeds


def channel_of(seed: HashSeed, v: int, K: int) -> int:
    """Channel of item v: ((a v + b) mod p) mod K, p = 2^61 - 1."""
    v = operator.index(v)  # a Python int: numpy items would overflow a * v
    if v >= MERSENNE_P:
        raise ValueError("item exceeds the hash prime; universe too large")
    a, b = seed.pair
    return ((a * v + b) % MERSENNE_P) % K


def check_channel_cap(K: int, T: int, what: str, instead: str = "a smaller K override") -> None:
    """Refuse K*T above FAITHFUL_CHANNEL_CAP, naming what materializes the channels."""
    if K * T > FAITHFUL_CHANNEL_CAP:
        raise ValueError(f"{what} materializes K*T = {K * T} channels; "
                         f"cap is {FAITHFUL_CHANNEL_CAP}, use {instead}")


def pp_client_report(
    v: Optional[int], code: Code, eps: float, rng: np.random.Generator
) -> SparseReport:
    """One user's report in the promise protocol: the randomized codeword of
    its item, or a randomized zero input when the user holds nothing
    (v is None or the BOT sentinel)."""
    if v is None or v == BOT:
        return randomize(None, code.m, eps, rng)
    return randomize(code.encode(v), code.m, eps, rng)


def simulate_idle_noise(k_idle: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Exact multinomial of k_idle uniform (position, sign) draws (none
    drawn for k_idle = 0): the (2, m) int64 (plus, minus) count deltas,
    transposed from an (m, 2) count-table row.  Adding them is the same in
    distribution as absorbing k_idle reports of zero-input users."""
    if k_idle < 0:
        raise ValueError("idle count must be nonnegative")
    cells = rng.multinomial(k_idle, np.full(2 * m, 1.0 / (2 * m)))
    return cells.astype(np.int64, copy=False).reshape(m, 2).T


@dataclass
class PpDecodeResult:
    item: Optional[int]
    estimate: float
    flips: Optional[int] = None  # Hamming(rounded mean vector, decoded codeword)


def decode_channels(aggs: Sequence[AggregateState], code: Code, verify: bool) -> list:
    """One PpDecodeResult per aggregate: round its mean report vector to
    the hypercube from the integer counts (ties at zero go positive),
    decode, and estimate the decoded item's frequency as c_eps / n_total
    times its codeword's exact int64 product with the count differences.
    Decoding failure gives item None and estimate 0, and so does, with
    verify=True, a codeword not strictly inside the correction radius of
    the rounded vector (which keeps noise-only channels from emitting
    candidates).  Rows go in chunks whose int64 count differences fit
    codec's byte budget, so no transient grows with the number of rows."""
    if any(agg.n_total < 1 for agg in aggs):
        raise ValueError("no reports absorbed")
    step = _chunk_rows(8 * code.m)
    buf = np.empty((min(step, len(aggs)), code.m), dtype=np.int64)  # every chunk's count differences
    return [r for s in range(0, len(aggs), step) for r in _decode_chunk(aggs[s : s + step], buf, code, verify)]


def _decode_chunk(aggs: Sequence[AggregateState], buf: np.ndarray, code: Code, verify: bool) -> list:
    """decode_channels on one chunk of rows at once, their count differences in buf's first rows."""
    diff = buf[: len(aggs)]
    for row, agg in zip(diff, aggs):  # one pass over the strided count-table views
        np.subtract(agg.plus, agg.minus, out=row)
    Y = round_to_hypercube(diff)
    decoded = code.decode_many(Y)
    rows = [i for i, v in enumerate(decoded) if v is not None]
    words = code.encode_many([decoded[i] for i in rows])
    flips = np.count_nonzero(words != Y[rows], axis=1)
    keep = (flips < code.correctable_flips()) | (not verify)
    dots = np.einsum("ij,ij->i", diff[rows], words)
    out = [None] * len(aggs)
    for i, f, dot, ok in zip(rows, flips.tolist(), dots.tolist(), keep.tolist()):
        est = c_eps(aggs[i].eps) / aggs[i].n_total * float(dot) if ok else 0.0
        out[i] = PpDecodeResult(item=decoded[i] if ok else None, estimate=est, flips=f)
    return [r if r is not None else PpDecodeResult(item=None, estimate=0.0) for r in out]


def pp_run(
    items: np.ndarray, code: Code, eps: float, rng: np.random.Generator
) -> PpDecodeResult:
    """Run the promise protocol end to end on items (BOT = no item).

    Below the promise (too few users holding the item for its signal to
    dominate the rounding noise) the result is unspecified: decoding may
    return an arbitrary item or fail even at a single user and huge eps,
    since one report fixes a single coordinate of the mean vector.
    """
    return decode_channels([pp_aggregate(items, code, eps, rng)], code, verify=False)[0]


def pp_aggregate(
    items: np.ndarray, code: Code, eps: float, rng: np.random.Generator
) -> AggregateState:
    """Aggregate promise-protocol reports for all users, grouped by item."""
    values, counts = np.unique(np.asarray(items), return_counts=True)
    cells = np.zeros(2 * code.m, dtype=np.int64)
    signs_of = _codeword_signs(code, values[values >= 0].tolist())
    absorb_groups(cells, zip(values, counts), signs_of, eps, rng)
    return channel_aggregates(["pp"], cells.reshape(1, code.m, 2), eps)["pp"]


# ---------------------------------------------------------------------------
# Succinct histograms
# ---------------------------------------------------------------------------

@dataclass
class SuccinctHistogram:
    """List of (item, estimated frequency); absent items estimate to 0.
    Estimates are clipped to [0, 1] and all reach the pruning threshold."""

    entries: list
    threshold: float

    def items(self) -> list:
        return [v for v, _ in self.entries]

    def estimate(self, v: int) -> float:
        for item, f in self.entries:
            if item == v:
                return f
        return 0.0

    def to_csv(self, truth=None) -> str:
        lines = ["item,estimated_frequency" + ("" if truth is None else ",true_frequency")]
        for v, f in sorted(self.entries, key=lambda e: (-e[1], e[0])):
            lines.append(f"{v},{f:.17g}" + ("" if truth is None else f",{truth.get(v, 0.0):.17g}"))
        return "\n".join(lines) + "\n"


def prune(candidates: Sequence, threshold: float) -> SuccinctHistogram:
    """Keep the candidates, distinct items as hh_finalize passes them,
    whose estimate reaches the threshold (a strict shortfall removes them;
    equality stays), with retained estimates clipped to [0, 1].  A NaN or
    infinite estimate raises ValueError naming its item."""
    entries = []
    for item, f in candidates:
        if not np.isfinite(f):
            raise ValueError(f"candidate {item} has a non-finite estimate {f}")
        if f < threshold:
            continue
        entries.append((int(item), float(min(1.0, max(0.0, f)))))
    return SuccinctHistogram(entries=entries, threshold=threshold)


@dataclass
class HhResult:
    histogram: SuccinctHistogram
    candidates: list  # (item, published estimate) after dedup, discovery order
    decodes: list  # (t, k, item, pp_estimate) for decoded channels
    seeds: list
    fo_agg: AggregateState
    pp_aggs: dict = field(repr=False, default=None)


def _channel_map(seeds, distinct_items, K):
    """channel[t][v] for every distinct item."""
    return [{v: channel_of(seed, v, K) for v in distinct_items} for seed in seeds]


def _codeword_signs(code: Code, distinct_items: list) -> Callable:
    """signs_of(v, positions) of absorb_groups, read from one encode_many
    of the distinct items."""
    words = dict(zip(distinct_items, code.encode_many(distinct_items)))
    return lambda v, positions: words[v][positions]


def hh_execute(
    items: np.ndarray,
    code: Code,
    hh_params: HhParams,
    fo_params: FoParams,
    pub: PublicRandomness,
    rng: np.random.Generator,
    mode: str = "fast",
) -> HhResult:
    """Run the full succinct-histogram protocol.

    items may contain BOT (-1) for users holding nothing.  All channels,
    including the frequency oracle, run at hh_params.eps_channel so the
    total budget is hh_params.eps.
    """
    if mode not in ("fast", "faithful"):
        raise ValueError(f"unknown mode {mode!r}")
    items = np.asarray(items, dtype=np.int64)
    if np.any((items < BOT) | (items >= code.d)):
        raise ValueError("items must lie in [0, d) or be the BOT sentinel")
    n = len(items)
    if n != hh_params.n:
        raise ValueError(f"got {n} items but parameters were derived for n={hh_params.n}")
    K, T, eps_ch = hh_params.K, hh_params.T, hh_params.eps_channel
    if mode == "faithful":
        check_channel_cap(K, T, "faithful mode", "fast mode or a smaller K override")

    seeds = draw_hash_seeds(pub, T, hh_params.ell)
    values, counts = np.unique(items[items != BOT], return_counts=True)
    values, counts = values.tolist(), counts.tolist()
    chan = _channel_map(seeds, values, K)
    signs_of = _codeword_signs(code, values)

    by_channel = {}
    for t in range(T):
        for v, cnt in zip(values, counts):
            by_channel.setdefault((t, chan[t][v]), []).append((v, cnt))
    keys = sorted(by_channel) if mode == "fast" else [(t, k) for t in range(T) for k in range(K)]
    # One count table, filled row by row in (t, k) order: each channel's
    # groups, sorted by item, then its idle users, the draw order seeded
    # runs pin.  pp_aggs is built once it is full, so n_total counts all.
    table = np.zeros((len(keys), code.m, 2), dtype=np.int64)
    for row, key in zip(table, keys):
        groups = by_channel.get(key, [])
        idle = n - sum(cnt for _, cnt in groups)
        if mode == "faithful":
            groups = groups + [(BOT, idle)]
        absorb_groups(row.reshape(-1), groups, signs_of, eps_ch, rng)  # a view
        if mode == "fast":
            row += simulate_idle_noise(idle, code.m, rng).T
    pp_aggs = channel_aggregates(keys, table, eps_ch)

    fo_agg = fo_simulate_reports(items, fo_params.m_fo, eps_ch, pub, rng)

    histogram, candidates, decodes = hh_finalize(
        pp_aggs, fo_agg, code, hh_params, pub
    )
    return HhResult(
        histogram=histogram,
        candidates=candidates,
        decodes=decodes,
        seeds=seeds,
        fo_agg=fo_agg,
        pp_aggs=pp_aggs,
    )


def hh_finalize(
    pp_aggs: dict,
    fo_agg: AggregateState,
    code: Code,
    hh_params: HhParams,
    pub: PublicRandomness,
) -> tuple:
    """Decode every provided channel aggregate, deduplicate candidates,
    estimate them, and prune.

    A candidate v's published estimate is the mean of its frequency-oracle
    estimate and, for every repetition t whose aggregate at
    (t, channel_of(seed_t, v, K)) exists, the channel estimate
    c_eps(eps_channel) / n_ch * <encode(v), count_diff>.  Every channel is
    already charged to the budget, so the mean is post-processing.  It
    follows three rules:

    1. v's own channel is used in every repetition, whether or not that
       channel decoded to v: averaging only channels that decoded to v
       selects for noise that helped the decode.
    2. Channel estimates are used only when hh_params.iso_failure_bound
       <= hh_params.beta / 3, the isolation condition of HhParams; with a
       smaller K, items sharing v's channel bias them and the published
       estimate is the oracle estimate alone.
    3. The unchanged ``prune`` is applied to the published estimate, so
       every histogram entry reaches the threshold.

    In fast mode a never-occupied channel has no aggregate, so a
    candidate contributes only the repetitions whose channel exists.

    Deterministic given its inputs: channels are processed in sorted
    (t, k) order and candidate deduplication keeps the first occurrence.
    Used verbatim by both in-process runs and the aggregation service.
    """
    keys = sorted(pp_aggs)
    results = decode_channels([pp_aggs[key] for key in keys], code, verify=True)
    decodes = [(t, k, r.item, r.estimate) for (t, k), r in zip(keys, results) if r.item is not None]
    candidate_items = list(dict.fromkeys(v for _, _, v, _ in decodes))
    candidates = []
    if candidate_items:
        ests = [float(e) for e in fo_estimate_many(fo_agg, pub, candidate_items)]
        if hh_params.iso_failure_bound <= hh_params.beta / 3:
            seeds = draw_hash_seeds(pub, hh_params.T, hh_params.ell)
            chan = _channel_map(seeds, candidate_items, hh_params.K)
            words = code.encode_many(candidate_items)
            for i, v in enumerate(candidate_items):
                own = [pp_aggs[(t, c[v])] for t, c in enumerate(chan) if (t, c[v]) in pp_aggs]
                parts = [c_eps(agg.eps) / agg.n_total * float(agg.count_diff() @ words[i]) for agg in own]
                ests[i] = (ests[i] + sum(parts)) / (1 + len(parts))
        candidates = list(zip(candidate_items, ests))
    histogram = prune(candidates, hh_params.threshold)
    return histogram, candidates, decodes
