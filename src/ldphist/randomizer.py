"""One-coordinate sign randomizer, exact channel audits, and channel tools.

The basic randomizer takes a sign vector x in {-1, +1}^m (a hypercube
codeword with implicit scale 1/sqrt(m)) or the distinguished zero input
(no item) and emits a single (position, sign) pair.  The position is
uniform; for a nonzero input the sign agrees with the input coordinate
with probability e^eps / (e^eps + 1).  Interpreted as the m-vector with
value sign * c_eps * sqrt(m) at the chosen position, the report is an
unbiased estimator of x.

Channels here are finite row-stochastic matrices, which makes privacy
auditing exact: the observed epsilon is the worst log-likelihood ratio
over input pairs and outputs, and delta at a given epsilon is the worst
positive-part mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .core import c_eps, check_eps

__all__ = [
    "SparseReport",
    "ChannelMatrix",
    "AuditResult",
    "randomize",
    "randomize_many",
    "report_distribution",
    "randomizer_channel",
    "position_slice",
    "audit_ldp",
    "degrade",
    "degrading_matrix",
    "compose",
    "amplified_epsilon",
    "mutual_information",
]

OUTCOME_CAP = 1 << 20  # largest outcome count report_distribution enumerates


class SparseReport(NamedTuple):
    """A privatized report: one coordinate index and its sign.

    The magnitude c_eps * sqrt(m) is implied by (eps, m) and never stored.
    """

    position: int
    sign: int


def _check_signs(x: np.ndarray, m: int) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError("input must be a 1-d sign vector")
    if not np.all(np.abs(x) == 1):
        raise ValueError("input entries must be -1 or +1")
    if len(x) != m:
        raise ValueError(f"input length {len(x)} != m {m}")
    return x.astype(np.int8)


def _p_keep(eps: float) -> float:
    """Probability e^eps / (e^eps + 1) that a report keeps its input sign."""
    e = math.exp(eps)
    return e / (e + 1.0)


def randomize(x, m: int, eps: float, rng: np.random.Generator) -> SparseReport:
    """Run the basic randomizer on input x: a sign vector, a function giving
    its sign at one position (called at the drawn one only), or None (the
    zero input)."""
    check_eps(eps)
    j = int(rng.integers(0, m))
    if x is None:
        sign = 1 if rng.random() < 0.5 else -1
    else:
        xj = int(x(j) if callable(x) else _check_signs(x, m)[j])
        keep = rng.random() < _p_keep(eps)
        sign = xj if keep else -xj
    return SparseReport(position=j, sign=sign)


def randomize_many(count: int, eps: float, m: int, rng: np.random.Generator,
                   zero: bool = False) -> tuple:
    """(positions, flips) of count users running the basic randomizer on
    one input, drawn before the input is read; identical in distribution
    to count ``randomize`` calls.  A user reports its input's sign at its
    position, negated where its flip is True.  All positions are drawn
    first, then the keep-uniforms or, for the zero input (zero=True, whose
    signs count as +1), the uniform signs."""
    j = rng.integers(0, m, size=count)
    if zero:
        return j, rng.choice(np.array([-1, 1], dtype=np.int8), size=count) < 0
    return j, rng.random(count) >= _p_keep(eps)


def outcome_labels(m: int) -> list[str]:
    """Canonical outcome order: (0,+), (0,-), (1,+), (1,-), ..."""
    labels = []
    for j in range(m):
        labels.append(f"{j}+")
        labels.append(f"{j}-")
    return labels


def report_distribution(x: Optional[np.ndarray], m: int, eps: float) -> np.ndarray:
    """Exact pmf of the randomizer output over the 2m outcomes (j, sign).

    Outcomes are ordered (0,+), (0,-), (1,+), (1,-), ...  Raises when 2m
    exceeds OUTCOME_CAP.
    """
    if 2 * m > OUTCOME_CAP:
        raise ValueError(f"2m = {2 * m} outcomes exceed enumeration cap {OUTCOME_CAP}")
    probs = np.empty(2 * m, dtype=np.float64)
    if x is None:
        probs[:] = 1.0 / (2 * m)
        return probs
    x = _check_signs(x, m)
    p_keep = _p_keep(eps)
    plus = np.where(x > 0, p_keep, 1.0 - p_keep) / m
    probs[0::2] = plus
    probs[1::2] = 1.0 / m - plus
    return probs


@dataclass
class ChannelMatrix:
    """A finite channel: row-stochastic conditional probabilities."""

    inputs: list
    outputs: list
    probs: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.probs.shape != (len(self.inputs), len(self.outputs)):
            raise ValueError("probs shape does not match input/output labels")
        if np.any(self.probs < 0):
            raise ValueError("channel probabilities must be nonnegative")
        rows = self.probs.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > 1e-12):
            raise ValueError("channel rows must sum to 1 within 1e-12")


def randomizer_channel(
    inputs: Sequence[Optional[np.ndarray]], m: int, eps: float
) -> ChannelMatrix:
    """Channel matrix of the basic randomizer over the given inputs."""
    probs = np.stack([report_distribution(x, m, eps) for x in inputs])
    labels = ["zero" if x is None else "".join("+" if s > 0 else "-" for s in x) for x in inputs]
    return ChannelMatrix(inputs=labels, outputs=outcome_labels(m), probs=probs)


def position_slice(channel: ChannelMatrix, j: int) -> ChannelMatrix:
    """Conditional channel given that the reported position equals j.

    Valid for channels whose position marginal does not depend on the
    input (true for the basic randomizer, where j is uniform); the row
    restriction is then renormalized to the two sign outcomes.
    """
    cols = [2 * j, 2 * j + 1]
    sub = channel.probs[:, cols]
    mass = sub.sum(axis=1, keepdims=True)
    if np.any(np.abs(mass - mass[0]) > 1e-12):
        raise ValueError("position mass depends on the input; slice undefined")
    return ChannelMatrix(
        inputs=list(channel.inputs),
        outputs=[channel.outputs[c] for c in cols],
        probs=sub / mass,
    )


@dataclass
class AuditResult:
    """Observed privacy of a finite channel.

    eps_observed is max over ordered input pairs and single outputs of
    ln(P[z|v] / P[z|v']), with 0/0 treated as ratio 1 and x/0 (x > 0) as
    +inf.  delta_at(eps) is the worst-case additive slack at that eps,
    computed per input pair as the sum over outputs of the positive part
    of P[z|v] - e^eps * P[z|v'], which is tight for the worst output set.
    """

    eps_observed: float
    delta_at: Callable[[float], float]


def audit_ldp(channel: ChannelMatrix) -> AuditResult:
    P = channel.probs
    with np.errstate(divide="ignore"):
        logP = np.log(P)
    # diff[a, b, z] = log P[a, z] - log P[b, z]
    with np.errstate(invalid="ignore"):
        diff = logP[:, None, :] - logP[None, :, :]
    both_zero = (P[:, None, :] == 0) & (P[None, :, :] == 0)
    diff[both_zero] = 0.0  # 0/0 counts as ratio 1
    # x/0 with x > 0 comes out as +inf from the log subtraction already
    eps_observed = float(diff.max()) if diff.size else 0.0

    def delta_at(eps: float) -> float:
        factor = math.exp(eps)
        gap = P[:, None, :] - factor * P[None, :, :]
        return float(np.clip(gap, 0.0, None).sum(axis=2).max())

    return AuditResult(eps_observed=eps_observed, delta_at=delta_at)


# ---------------------------------------------------------------------------
# Degrading channel and information utilities
# ---------------------------------------------------------------------------

def degrade(v: int, eta: float, d: int, rng: np.random.Generator) -> int:
    """Pass v through the degrading channel: keep it with probability eta,
    otherwise output a uniform item (which may again equal v)."""
    if not (0.0 <= eta <= 1.0):
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    if rng.random() < eta:
        return v
    return int(rng.integers(0, d))


def degrading_matrix(eta: float, d: int) -> ChannelMatrix:
    """Exact d x d matrix of the degrading channel."""
    if not (0.0 <= eta <= 1.0):
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    probs = np.full((d, d), (1.0 - eta) / d)
    probs[np.diag_indices(d)] += eta
    labels = list(range(d))
    return ChannelMatrix(inputs=labels, outputs=labels, probs=probs)


def compose(first: ChannelMatrix, second: ChannelMatrix) -> ChannelMatrix:
    """Channel obtained by feeding the output of `first` into `second`."""
    if len(first.outputs) != len(second.inputs):
        raise ValueError("inner dimensions do not match")
    return ChannelMatrix(
        inputs=list(first.inputs),
        outputs=list(second.outputs),
        probs=first.probs @ second.probs,
    )


def amplified_epsilon(eps: float, eta: float) -> float:
    """Exact pure-privacy bound ln(1 + eta * e^eps * (e^eps - 1)) for a
    randomizer preceded by an eta-degrading channel, computed from
    ln(eta * e^eps * (e^eps - 1)) = ln eta + 2 eps + ln(1 - e^-eps), so it
    stays finite for every eps check_eps accepts (e^(2 eps) overflows past
    eps = 354.9)."""
    check_eps(eps)
    if not (0.0 <= eta <= 1.0):
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    if eta == 0.0:
        return 0.0
    log_x = math.log(eta) + 2.0 * eps + math.log(-math.expm1(-eps))
    return log_x + math.log1p(math.exp(-log_x)) if log_x > 0 else math.log1p(math.exp(log_x))


def mutual_information(prior: np.ndarray, channel: ChannelMatrix) -> float:
    """Exact I(V; Z) in nats for a prior over inputs and a finite channel."""
    p = np.asarray(prior, dtype=np.float64)
    if p.shape != (len(channel.inputs),):
        raise ValueError("prior length does not match channel inputs")
    if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-12:
        raise ValueError("prior must be a probability vector")
    P = channel.probs
    marg = p @ P
    joint = p[:, None] * P
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = joint * (np.log(P) - np.log(marg)[None, :])
    terms[joint == 0] = 0.0
    return float(terms.sum())
