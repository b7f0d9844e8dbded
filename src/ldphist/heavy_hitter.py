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

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .codec import Code, hamming, round_to_hypercube
from .core import FoParams, HhParams, PublicRandomness, prf_below
from .freq_oracle import (
    AggregateState,
    absorb_groups,
    channel_aggregates,
    fo_estimate_many,
    fo_simulate_reports,
    inner_estimates,
)
from .randomizer import SparseReport, randomize

__all__ = [
    "BOT",
    "MERSENNE_P",
    "HashSeed",
    "draw_hash_seeds",
    "channel_of",
    "pp_client_report",
    "simulate_idle_noise",
    "decode_channels",
    "pp_decode",
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
BOT = -1  # sentinel item for users holding nothing

FAITHFUL_CHANNEL_CAP = 1 << 14


@dataclass(frozen=True)
class HashSeed:
    """Public per-repetition seed of the pairwise-independent hash family;
    its (a, b), a in [1, p) and b in [0, p), come from the keyed PRF of
    ``core`` under key ``_HASH_PRF_KEY`` and prefixes b"a" + bits, b"b" + bits."""

    bits: bytes


@lru_cache(maxsize=4096)
def _hash_pair(bits: bytes) -> tuple:
    a = prf_below(_HASH_PRF_KEY, b"a" + bits, MERSENNE_P - 1) + 1
    b = prf_below(_HASH_PRF_KEY, b"b" + bits, MERSENNE_P)
    return a, b


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
    if v >= MERSENNE_P:
        raise ValueError("item exceeds the hash prime; universe too large")
    a, b = _hash_pair(seed.bits)
    return ((a * v + b) % MERSENNE_P) % K


def pp_client_report(
    v: Optional[int], code: Code, eps: float, rng: np.random.Generator
) -> SparseReport:
    """One user's report in the promise protocol: the randomized codeword of
    its item, or a randomized zero input when the user holds nothing
    (v is None or the BOT sentinel)."""
    if v is None or v == BOT:
        return randomize(None, code.m, eps, rng)
    return randomize(code.encode(v), code.m, eps, rng)


def simulate_idle_noise(k_idle: int, m: int, rng: np.random.Generator) -> tuple:
    """Exact multinomial of k_idle uniform (position, sign) draws, returned
    as (plus, minus) count deltas.  Merging these into an aggregate is
    distributionally indistinguishable from absorbing k_idle reports of
    users that randomize the zero input."""
    if k_idle < 0:
        raise ValueError("idle count must be nonnegative")
    if k_idle == 0:
        zero = np.zeros(m, dtype=np.int64)
        return zero, zero.copy()
    cells = rng.multinomial(k_idle, np.full(2 * m, 1.0 / (2 * m)))
    return cells[0::2].astype(np.int64), cells[1::2].astype(np.int64)


@dataclass
class PpDecodeResult:
    item: Optional[int]
    estimate: float
    flips: Optional[int] = None  # Hamming(rounded mean vector, decoded codeword)


def decode_channels(aggs: Sequence[AggregateState], code: Code, verify: bool) -> list:
    """One PpDecodeResult per aggregate: round its mean report vector to
    the hypercube from the integer counts (ties at zero go positive),
    decode, and estimate the decoded item's frequency as its codeword's
    inner product with the mean vector.  Decoding failure gives item None
    and estimate 0, and so does, with verify=True, a codeword not strictly
    inside the correction radius of the rounded vector (which keeps
    noise-only channels from emitting candidates)."""
    if any(agg.n_total < 1 for agg in aggs):
        raise ValueError("no reports absorbed")
    if not aggs:
        return []
    Y = round_to_hypercube(np.stack([agg.count_diff() for agg in aggs]))
    out = []
    for agg, y, v in zip(aggs, Y, code.decode_many(Y)):
        if v is None:
            out.append(PpDecodeResult(item=None, estimate=0.0))
            continue
        cw = code.encode(v)
        flips = hamming(y, cw)
        if verify and not flips < code.correctable_flips():
            out.append(PpDecodeResult(item=None, estimate=0.0, flips=flips))
            continue
        est = float(inner_estimates(agg, [cw])[0])
        out.append(PpDecodeResult(item=v, estimate=est, flips=flips))
    return out


def pp_decode(agg: AggregateState, code: Code, verify: bool = False) -> PpDecodeResult:
    """Decode one promise-protocol aggregate (see ``decode_channels``).

    Below the promise (too few users holding the item for its signal to
    dominate the rounding noise) the result is unspecified: decoding may
    return an arbitrary item or fail even at a single user and huge eps,
    since one report fixes a single coordinate of the mean vector.
    """
    return decode_channels([agg], code, verify)[0]


def pp_run(
    items: np.ndarray, code: Code, eps: float, rng: np.random.Generator
) -> PpDecodeResult:
    """Run the promise protocol end to end on items (BOT = no item)."""
    return pp_decode(pp_aggregate(items, code, eps, rng), code)


def pp_aggregate(
    items: np.ndarray, code: Code, eps: float, rng: np.random.Generator
) -> AggregateState:
    """Aggregate promise-protocol reports for all users, grouped by item."""
    values, counts = np.unique(np.asarray(items), return_counts=True)
    agg = AggregateState(m=code.m, eps=eps)
    return absorb_groups(agg, zip(values, counts), code.signs_at, rng)


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
        lines = []
        if truth is None:
            lines.append("item,estimated_frequency")
            for v, f in sorted(self.entries, key=lambda e: (-e[1], e[0])):
                lines.append(f"{v},{f:.17g}")
        else:
            lines.append("item,estimated_frequency,true_frequency")
            for v, f in sorted(self.entries, key=lambda e: (-e[1], e[0])):
                lines.append(f"{v},{f:.17g},{float(truth[v]):.17g}")
        return "\n".join(lines) + "\n"


def prune(candidates: Sequence, threshold: float) -> SuccinctHistogram:
    """Keep candidates whose estimate reaches the threshold (a strict
    shortfall removes them; equality stays), deduplicated by item keeping
    the first occurrence, with retained estimates clipped to [0, 1]."""
    seen = set()
    entries = []
    for item, f in candidates:
        if item in seen:
            continue
        seen.add(item)
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
    mode: str
    hh_params: HhParams
    fo_params: FoParams
    fo_agg: AggregateState
    pp_aggs: dict = field(repr=False, default=None)


def _channel_map(seeds, distinct_items, K):
    """channel[t][v] for every distinct item."""
    return [{int(v): channel_of(seed, int(v), K) for v in distinct_items} for seed in seeds]


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
    if mode == "faithful" and K * T > FAITHFUL_CHANNEL_CAP:
        raise ValueError(
            f"faithful mode materializes K*T = {K * T} channels; cap is "
            f"{FAITHFUL_CHANNEL_CAP}, use fast mode or a smaller K override"
        )

    seeds = draw_hash_seeds(pub, T, hh_params.ell)
    values, counts = np.unique(items[items != BOT], return_counts=True)
    chan = _channel_map(seeds, values, K)

    by_channel = {}
    for t in range(T):
        for v, cnt in zip(values, counts):
            by_channel.setdefault((t, chan[t][int(v)]), []).append((int(v), int(cnt)))
    keys = sorted(by_channel) if mode == "fast" else [(t, k) for t in range(T) for k in range(K)]
    # One count table, filled row by row in (t, k) order, each channel's
    # groups and then (fast mode) its idle noise: the draw order seeded runs
    # pin.  pp_aggs is built once it is full, so n_total counts the noise.
    table = np.zeros((len(keys), code.m, 2), dtype=np.int64)
    for key, agg in channel_aggregates(keys, table, eps_ch).items():
        groups = sorted(by_channel.get(key, []))
        idle = n - sum(cnt for _, cnt in groups)
        if mode == "faithful":
            groups.append((BOT, idle))
        absorb_groups(agg, groups, code.signs_at, rng)
        if mode == "fast":
            plus, minus = simulate_idle_noise(idle, code.m, rng)
            agg.plus += plus
            agg.minus += minus
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
        mode=mode,
        hh_params=hh_params,
        fo_params=fo_params,
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
            for i, v in enumerate(candidate_items):
                own = [pp_aggs[(t, c[v])] for t, c in enumerate(chan) if (t, c[v]) in pp_aggs]
                parts = [float(inner_estimates(agg, [code.encode(v)])[0]) for agg in own]
                ests[i] = (ests[i] + sum(parts)) / (1 + len(parts))
        candidates = list(zip(candidate_items, ests))
    histogram = prune(candidates, hh_params.threshold)
    return histogram, candidates, decodes
