"""Rejection-sampling transform: every user's report becomes a single bit.

A public string y is a full sample from the composite randomizer's
no-item distribution: one uniform (position, sign) pair per hash channel
plus one for the frequency-oracle channel, regenerated bit-exactly from
the public randomness under the label (run id, user id, channel).  The
user accepts y with probability

    p = 1/2 * Pr[randomizer(item) = y] / Pr[randomizer(no item) = y]

and sends only the accept bit.  Conditioned on acceptance, y is
distributed exactly as a true report, so the server regenerates accepted
strings and feeds them to the unchanged aggregation pipeline; rejected
users silently drop out (each user is kept with probability exactly 1/2).

Computing p touches only the item-dependent components: the T channels
the item hashes into and the oracle channel.  Each contributes a factor
2 e^eps' / (e^eps' + 1) when the public sign at the sampled position
matches the item's encoding bit there and 2 / (e^eps' + 1) otherwise;
the remaining (K-1) T idle components contribute exactly 1 and are
skipped.  The total budget (2T + 1) eps' may not exceed ln 2, which is
precisely what keeps p <= 1 for every item and public string.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass, field
from operator import index
from typing import Optional

import numpy as np

from .codec import Code
from .core import BOT, FoParams, HhParams, PublicRandomness, _below, _draw_args, _encode_label
from .freq_oracle import AggregateState, channel_aggregates
from .heavy_hitter import channel_of, check_channel_cap, draw_hash_seeds

__all__ = [
    "OneBitStructure",
    "PublicString",
    "acceptance_prob",
    "onebit_client",
    "onebit_server_collect",
    "collect_fo_aggregate",
    "collect_pp_aggregates",
    "collect_aggregates",
]

MAX_TOTAL_EPS = math.log(2)

_REGEN_CHUNK = 1 << 11  # draws held at once while regenerating accepted strings
_PLAN_CACHE = 1 << 12  # item plans kept per structure


@dataclass(frozen=True)
class OneBitStructure:
    """Layout of the composite randomizer the 1-bit transform wraps.

    T = 0 with m_fo > 0 describes an oracle-only protocol; m_fo = 0 and
    T = 0 is the degenerate structure with no item-dependent components
    (acceptance probability exactly 1/2), useful only in tests.
    """

    pub: PublicRandomness
    run_id: int
    K: int
    T: int
    eps_channel: float
    m_fo: int
    code: Optional[Code] = None
    seeds: tuple = ()

    def __post_init__(self):
        if self.T > 0 and self.code is None:
            raise ValueError("hash channels require a code")
        if self.T > 0 and len(self.seeds) != self.T:
            raise ValueError(f"need {self.T} hash seeds, got {len(self.seeds)}")
        check_channel_cap(self.K, self.T, "one-bit collection")
        if self.total_eps() > MAX_TOTAL_EPS + 1e-12:
            raise ValueError(
                f"total budget {self.total_eps():.4f} exceeds ln 2; the acceptance "
                "probability would leave [0, 1]"
            )

    def total_eps(self) -> float:
        return (2 * self.T + 1) * self.eps_channel

    @functools.cached_property
    def _layout(self) -> "_Layout":
        return _Layout(self)

    @classmethod
    def from_params(cls, code: Code, hh_params: HhParams, fo_params: FoParams,
                    pub: PublicRandomness, run_id: int = 0) -> "OneBitStructure":
        """The structure of the full protocol: K*T hash channels and the oracle."""
        seeds = tuple(draw_hash_seeds(pub, hh_params.T, hh_params.ell))
        return cls(pub=pub, run_id=run_id, K=hh_params.K, T=hh_params.T,
                   eps_channel=hh_params.eps_channel, m_fo=fo_params.m_fo, code=code, seeds=seeds)


class _Layout:
    """What a structure's client and regeneration reuse: the keyed PRF, the
    encoded ("pub-y", run) head prefix, each component's draw (its label
    suffix included), the match and miss factors, and a bounded plan cache."""

    def __init__(self, s: "OneBitStructure"):
        self.keyed = s.pub._keyed
        self.prefix = _encode_label(("pub-y", s.run_id, 0))[:-16]  # all but the user's 16 bytes
        self.pp = [[_draw_args(2 * s.code.m, _encode_label(("pp", t, k))) for k in range(s.K)]
                   for t in range(s.T)]
        self.fo = _draw_args(2 * s.m_fo, _encode_label(("fo",))) if s.m_fo else None
        e = math.exp(s.eps_channel)
        self.match, self.miss = 2.0 * e / (e + 1.0), 2.0 / (e + 1.0)
        self.plan = functools.lru_cache(maxsize=_PLAN_CACHE)(functools.partial(_plan, s))

    def head(self, user_id) -> bytes:
        """_encode_label(("pub-y", run, user_id)) for an integer user id."""
        return self.prefix + index(user_id).to_bytes(16, "little", signed=True)


def _plan(s: "OneBitStructure", v) -> tuple:
    """Item v's hash channels, codeword (its signed bytes, copied whole, read
    as ints) and encoded ("phi", v) label."""
    channels = [channel_of(s.seeds[t], v, s.K) for t in range(s.T)]
    word = array("b", np.asarray(s.code.encode(v), dtype=np.int8).tobytes()) if s.T else None
    return channels, word, _encode_label(("phi", v)) if s.m_fo else None


@dataclass(frozen=True, slots=True)
class PublicString:
    """User's public sample from the no-item distribution, one uniform
    (position, sign) pair per channel, regenerated lazily on demand.  The
    ("pub-y", run, user) head is absorbed into a copy of the keyed PRF on
    the first read; each component is then int_below's sampler on that
    state, one digest unless word 0 is rejected."""

    structure: OneBitStructure
    user_id: int
    _state: object = field(default=None, init=False, repr=False, compare=False)

    def _pair(self, draw: tuple) -> tuple:
        state = self._state
        if state is None:
            layout = self.structure._layout
            state = layout.keyed.copy()
            state.update(layout.head(self.user_id))
            object.__setattr__(self, "_state", state)
        u = _below(state, *draw)
        return u >> 1, 1 - 2 * (u & 1)

    def pp_component(self, t: int, k: int) -> tuple:
        return self._pair(self.structure._layout.pp[t][k])

    def fo_component(self) -> tuple:
        return self._pair(self.structure._layout.fo)


def acceptance_prob(v: int, y: PublicString, structure: OneBitStructure) -> float:
    """Acceptance probability of public string y for item v: half the
    likelihood ratio of y under the item's randomizer versus the no-item
    randomizer, evaluated in O(T + 1) component lookups.

    A user holding nothing (v is None or BOT) has likelihood ratio 1
    everywhere and accepts with probability exactly 1/2."""
    if v is None or v == BOT:
        return 0.5
    layout = structure._layout
    channels, word, phi = layout.plan(index(v))  # one cache entry for 3 and np.int64(3)
    match, miss = layout.match, layout.miss
    ratio = 1.0
    for t, k in enumerate(channels):
        j, sign = y.pp_component(t, k)
        ratio *= match if word[j] == sign else miss
    if phi is not None:
        j, sign = y.fo_component()
        ratio *= match if structure.pub.sign_at(phi, j) == sign else miss
    p = 0.5 * ratio
    if not (0.0 <= p <= 1.0 + 1e-12):
        raise AssertionError(f"acceptance probability {p} outside [0, 1]")
    return min(p, 1.0)


def onebit_client(
    v: int, y: PublicString, structure: OneBitStructure, rng: np.random.Generator
) -> int:
    """The single bit the user transmits."""
    return int(rng.random() < acceptance_prob(v, y, structure))


def onebit_server_collect(bits, structure: OneBitStructure) -> list:
    """Regenerate the public strings of accepting users from an iterable
    of (user_id, bit), read once; each returned (user_id, PublicString)
    stands in for that user's full report.  A bit other than 0 or 1 or a
    repeated user raises ValueError."""
    accepted, users = [], []
    for user_id, bit in bits:
        if bit not in (0, 1):
            raise ValueError(f"user {user_id}: bit {bit!r} is not 0 or 1")
        users.append(user_id)
        if bit == 1:
            accepted.append((user_id, PublicString(structure=structure, user_id=user_id)))
    users.sort()  # a sorted list, not a set: a quarter of the memory
    for user_id, following in zip(users, users[1:]):
        if user_id == following:
            raise ValueError(f"user {user_id} sent more than one bit")
    return accepted


def _regen_aggregates(accepted: list, structure: OneBitStructure, draws: dict, m: int) -> dict:
    """{key: aggregate} of each key's component draw: each chunk of accepted
    users draws every u in [0, 2m), the pair (u >> 1, +1 if u is even else
    -1), under the users' ("pub-y", run, user) heads in one ints_below call,
    into one (keys, m, 2) count table.  The heads are built per chunk, not
    kept on the strings."""
    pub, head, columns, width = structure.pub, structure._layout.head, list(draws.values()), len(draws)
    counts = np.zeros(width * 2 * m, dtype=np.int64)
    step = max(1, _REGEN_CHUNK // width)
    for lo in range(0, len(accepted), step):
        heads = [head(y.user_id) for _, y in accepted[lo : lo + step]]
        np.add.at(counts, pub.ints_below(heads, columns) + np.arange(width) * (2 * m), 1)
    return channel_aggregates(draws, counts.reshape(width, m, 2), structure.eps_channel)


def collect_fo_aggregate(accepted: list, structure: OneBitStructure) -> AggregateState:
    """Aggregate the oracle components of accepted users' strings."""
    return _regen_aggregates(accepted, structure, {"fo": structure._layout.fo}, structure.m_fo)["fo"]


def collect_pp_aggregates(accepted: list, structure: OneBitStructure) -> dict:
    """Aggregate every hash channel of accepted users' strings (the report
    set the histogram pipeline consumes).  Materializes K*T aggregates."""
    draws = {(t, k): pp for t, row in enumerate(structure._layout.pp) for k, pp in enumerate(row)}
    return _regen_aggregates(accepted, structure, draws, structure.code.m) if draws else {}


def collect_aggregates(bits, structure: OneBitStructure) -> tuple:
    """(oracle aggregate, hash-channel aggregates) of the users whose
    (user_id, bit) pairs accept: the server side of a one-bit run."""
    accepted = onebit_server_collect(bits, structure)
    return collect_fo_aggregate(accepted, structure), collect_pp_aggregates(accepted, structure)
