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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .codec import Code
from .core import FoParams, HhParams, PublicRandomness, _encode_label
from .freq_oracle import AggregateState, channel_aggregates, phi_sign_at
from .heavy_hitter import BOT, FAITHFUL_CHANNEL_CAP, channel_of, draw_hash_seeds

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


@functools.lru_cache(maxsize=FAITHFUL_CHANNEL_CAP + 1)
def _suffix(*parts) -> bytes:
    """Encoded label suffix of a public-string component: ("pp", t, k) or ("fo",)."""
    return _encode_label(parts)


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
        if self.T > 0 and self.K * self.T > FAITHFUL_CHANNEL_CAP:
            raise ValueError(
                f"one-bit collection materializes K*T = {self.K * self.T} channels; "
                f"cap is {FAITHFUL_CHANNEL_CAP}, use a smaller K override"
            )
        if self.total_eps() > MAX_TOTAL_EPS + 1e-12:
            raise ValueError(
                f"total budget {self.total_eps():.4f} exceeds ln 2; the acceptance "
                "probability would leave [0, 1]"
            )

    def total_eps(self) -> float:
        return (2 * self.T + 1) * self.eps_channel

    @classmethod
    def from_params(cls, code: Code, hh_params: HhParams, fo_params: FoParams,
                    pub: PublicRandomness, run_id: int = 0) -> "OneBitStructure":
        """The structure of the full protocol: K*T hash channels and the oracle."""
        seeds = tuple(draw_hash_seeds(pub, hh_params.T, hh_params.ell))
        return cls(pub=pub, run_id=run_id, K=hh_params.K, T=hh_params.T,
                   eps_channel=hh_params.eps_channel, m_fo=fo_params.m_fo, code=code, seeds=seeds)


@dataclass(frozen=True)
class PublicString:
    """User's public sample from the no-item distribution, one uniform
    (position, sign) pair per channel, regenerated lazily on demand under
    the ("pub-y", run, user) label head, which is encoded once."""

    structure: OneBitStructure
    user_id: int

    @functools.cached_property
    def _head(self) -> bytes:
        return _encode_label(("pub-y", self.structure.run_id, self.user_id))

    def _draw(self, suffix: bytes, m: int) -> tuple:
        (u,) = self.structure.pub.ints_below(self._head, (suffix,), 2 * m)
        return u >> 1, 1 if (u & 1) == 0 else -1

    def pp_component(self, t: int, k: int) -> tuple:
        return self._draw(_suffix("pp", t, k), self.structure.code.m)

    def fo_component(self) -> tuple:
        return self._draw(_suffix("fo"), self.structure.m_fo)


def _ratio(match: bool, eps: float) -> float:
    e = math.exp(eps)
    return 2.0 * e / (e + 1.0) if match else 2.0 / (e + 1.0)


def acceptance_prob(v: int, y: PublicString, structure: OneBitStructure) -> float:
    """Acceptance probability of public string y for item v: half the
    likelihood ratio of y under the item's randomizer versus the no-item
    randomizer, evaluated in O(T + 1) component lookups.

    A user holding nothing (v is None or BOT) has likelihood ratio 1
    everywhere and accepts with probability exactly 1/2."""
    if v is None or v == BOT:
        return 0.5
    ratio = 1.0
    eps = structure.eps_channel
    for t in range(structure.T):
        k = channel_of(structure.seeds[t], v, structure.K)
        j, sign = y.pp_component(t, k)
        ratio *= _ratio(int(structure.code.encode(v)[j]) == sign, eps)
    if structure.m_fo > 0:
        j, sign = y.fo_component()
        ratio *= _ratio(phi_sign_at(structure.pub, v, j) == sign, eps)
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
    of (user_id, bit); each returned (user_id, PublicString) stands in for
    that user's full report."""
    return [
        (user_id, PublicString(structure=structure, user_id=user_id))
        for user_id, bit in bits
        if bit == 1
    ]


def _regen_aggregates(accepted: list, structure: OneBitStructure, suffixes: dict, m: int) -> dict:
    """{key: aggregate} of each key's component suffix: one pass per
    accepted user draws each u in [0, 2m), the pair (u >> 1, +1 if u is
    even else -1), under the user's ("pub-y", run, user) head into one
    (keys, m, 2) count table."""
    pub, run, width = structure.pub, structure.run_id, len(suffixes)
    counts = np.zeros(width * 2 * m, dtype=np.int64)
    step = max(1, _REGEN_CHUNK // width)
    for lo in range(0, len(accepted), step):
        draws = [u for _, y in accepted[lo : lo + step]
                 for u in pub.ints_below(("pub-y", run, y.user_id), suffixes.values(), 2 * m)]
        np.add.at(counts, np.reshape(draws, (-1, width)) + np.arange(width) * (2 * m), 1)
    return channel_aggregates(suffixes, counts.reshape(width, m, 2), structure.eps_channel)


def collect_fo_aggregate(accepted: list, structure: OneBitStructure) -> AggregateState:
    """Aggregate the oracle components of accepted users' strings."""
    return _regen_aggregates(accepted, structure, {"fo": _suffix("fo")}, structure.m_fo)["fo"]


def collect_pp_aggregates(accepted: list, structure: OneBitStructure) -> dict:
    """Aggregate every hash channel of accepted users' strings (the report
    set the histogram pipeline consumes).  Materializes K*T aggregates."""
    suffixes = {(t, k): _suffix("pp", t, k) for t in range(structure.T) for k in range(structure.K)}
    return _regen_aggregates(accepted, structure, suffixes, structure.code.m) if suffixes else {}


def collect_aggregates(bits, structure: OneBitStructure) -> tuple:
    """(oracle aggregate, hash-channel aggregates) of the users whose
    (user_id, bit) pairs accept: the server side of a one-bit run."""
    accepted = onebit_server_collect(bits, structure)
    return collect_fo_aggregate(accepted, structure), collect_pp_aggregates(accepted, structure)
