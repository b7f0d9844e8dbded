"""Frequency oracle from random sign projections and one-coordinate reports.

Each item v is assigned a pseudorandom column of signs with implicit scale
1/sqrt(m); the column is regenerated on demand from the public randomness
(label ("phi", v)), never materialized as a d x m matrix.  Clients run the
basic randomizer on their item's column, reading only the PRF block of the
drawn position; the server keeps exact integer counts of (position, sign)
pairs.  The mean report vector and all frequency estimates are derived
from those counts, so aggregation is associative, order-free, and
bit-exact under any partitioning into shards.

The estimate of f(v) is the inner product of v's column with the mean
report vector; it is intentionally not clipped here.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .core import BOT, FoParams, PublicRandomness, c_eps
from .randomizer import SparseReport, randomize, randomize_many

__all__ = [
    "AggregateState",
    "channel_aggregates",
    "absorb_groups",
    "inner_estimates",
    "fo_client_report",
    "fo_simulate_reports",
    "fo_estimate",
    "fo_estimate_many",
]


@dataclass
class AggregateState:
    """Exact integer sign counts per coordinate.

    The mean report vector is c_eps(eps) * sqrt(m) * (plus - minus) / n_total,
    but estimates are computed straight from the integer counts.
    """

    m: int
    eps: float
    n_total: int = 0
    plus: np.ndarray = field(default=None)
    minus: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.plus is None:
            self.plus = np.zeros(self.m, dtype=np.int64)
        if self.minus is None:
            self.minus = np.zeros(self.m, dtype=np.int64)

    def absorb_batch(self, positions: np.ndarray, signs: np.ndarray) -> None:
        """Count one report per (position, sign) pair; signs must be -1 or +1."""
        positions = np.asarray(positions)
        signs = np.asarray(signs)
        if positions.ndim != 1 or positions.shape != signs.shape:
            raise ValueError(f"need equal-length 1-d positions and signs, got {signs.shape}")
        if positions.size and (positions.min() < 0 or positions.max() >= self.m):
            raise ValueError("position out of range")
        up, down = positions[signs == 1], positions[signs == -1]
        if len(up) + len(down) != len(positions):
            raise ValueError("report signs must be -1 or +1")
        np.add.at(self.plus, up, 1)
        np.add.at(self.minus, down, 1)
        self.n_total += len(positions)

    def merge(self, other: "AggregateState") -> None:
        if other.m != self.m or other.eps != self.eps:
            raise ValueError("cannot merge aggregates with different parameters")
        self.plus += other.plus
        self.minus += other.minus
        self.n_total += other.n_total

    def count_diff(self) -> np.ndarray:
        return self.plus - self.minus

    def zbar(self) -> np.ndarray:
        """Mean report vector (float); requires at least one report."""
        if self.n_total < 1:
            raise ValueError("no reports absorbed")
        scale = c_eps(self.eps) * np.sqrt(self.m)
        return scale * self.count_diff() / self.n_total

    # Wire form: header m, n_total (u64) and eps (f64), then the two count
    # arrays as little-endian u64.
    _HEADER = struct.Struct("<QQd")

    def to_bytes(self) -> bytes:
        head = self._HEADER.pack(self.m, self.n_total, self.eps)
        return (
            head
            + self.plus.astype("<u8").tobytes()
            + self.minus.astype("<u8").tobytes()
        )

    @classmethod
    def from_bytes(cls, blob: bytes) -> "AggregateState":
        """Parse to_bytes output, refusing any blob that no aggregate could
        have written: counts must fit int64 and sum to n_total."""
        off = cls._HEADER.size
        if len(blob) < off:
            raise ValueError(f"aggregate blob has {len(blob)} bytes, shorter than its header")
        m, n_total, eps = cls._HEADER.unpack_from(blob, 0)
        if m < 1:
            raise ValueError(f"aggregate blob has m = {m}, need m >= 1")
        if not 0 < eps < np.inf:
            raise ValueError(f"aggregate blob has eps = {eps}, need a finite eps > 0")
        need = off + 16 * m
        if len(blob) != need:
            raise ValueError(f"aggregate blob has {len(blob)} bytes, expected {need}")
        counts = np.frombuffer(blob, dtype="<i8", count=2 * m, offset=off).astype(np.int64)
        if (counts < 0).any():
            raise ValueError("aggregate blob has a count at or above 2^63")
        if sum(counts.tolist()) != n_total:  # Python ints: an int64 sum could wrap
            raise ValueError(f"aggregate blob's counts do not sum to n_total = {n_total}")
        return cls(m=int(m), eps=float(eps), n_total=int(n_total), plus=counts[:m], minus=counts[m:])


def channel_aggregates(keys, table: np.ndarray, eps: float) -> dict:
    """{key: aggregate of row i} for the i-th of keys, over a (rows, m, 2)
    int64 count table: plus counts at [i, :, 0], minus at [i, :, 1] (views
    that write through to the table) and n_total the row sum."""
    m, totals = table.shape[1], table.sum(axis=(1, 2)).tolist()
    return {key: AggregateState(m=m, eps=eps, n_total=n, plus=row[:, 0], minus=row[:, 1])
            for key, row, n in zip(keys, table, totals, strict=True)}


def fo_client_report(
    v: int, params: FoParams, pub: PublicRandomness, eps: float, rng: np.random.Generator
) -> SparseReport:
    """One user's privatized report: the basic randomizer applied to the
    user's projection column.  A user with no item (v is None or BOT)
    randomizes the zero input."""
    if v is None or v == BOT:
        return randomize(None, params.m_fo, eps, rng)
    if not (0 <= v < params.d):
        raise ValueError(f"item {v} outside universe of size {params.d}")
    return randomize(lambda j: pub.signs_at(("phi", v), j), params.m_fo, eps, rng)


def absorb_groups(
    cells: np.ndarray,
    groups: Iterable,
    signs_of: Callable[[int, np.ndarray], np.ndarray],
    eps: float,
    rng: np.random.Generator,
) -> None:
    """Randomize grouped users' reports and count them, in place, in cells:
    an (m, 2) int64 count-table row read flat, cell 2j + (s < 0) for (j, s).

    groups yields (item, count) pairs, drawn in the order given (seeded
    runs depend on it); the count users holding item run the basic
    randomizer on its input, read only at their positions as
    signs_of(item, positions), and item BOT stands for users holding
    nothing, who randomize the zero input.  Any other negative item is
    refused when its group is reached."""
    for v, count in groups:
        if v < BOT:
            raise ValueError(f"item {v}: items must lie in [0, d) or be {BOT} (no item)")
        x = None if v == BOT else functools.partial(signs_of, int(v))
        positions, signs = randomize_many(x, int(count), eps, len(cells) // 2, rng)
        np.add.at(cells, 2 * positions + (signs < 0), 1)


def inner_estimates(agg: AggregateState, columns: Iterable[bytes]) -> np.ndarray:
    """c_eps(eps) / n_total * <column, plus - minus> for every packed sign
    column (the estimate of the item the column encodes): 8 * ceil(m / 64)
    bytes, bit j (little bit order) set where the sign is -1, bits past m
    ignored, as sign_array reads the PRF stream; other sizes are refused.

    The product is the exact integer sum(diff) - 2 * sum_l w_l *
    popcount(column & plane_l) over the bit planes of plus (w_l = 2^l) and
    of minus (w_l = -2^l), packed one plane at a time, in Python ints."""
    if agg.n_total < 1:
        raise ValueError("no reports absorbed")
    nbytes = 8 * -(-agg.m // 64)
    rows = [(counts, sign << l) for counts, sign in ((agg.plus, 1), (agg.minus, -1))
            for l in range(int(counts.max()).bit_length())]
    planes = np.zeros((len(rows), nbytes), dtype=np.uint8)
    for plane, (counts, w) in zip(planes, rows):
        packed = np.packbits(counts & abs(w), bitorder="little")
        plane[: len(packed)] = packed
    planes, weights = planes.view("<u8"), [w for _, w in rows]

    def weighted(bits):  # sum_l w_l * popcount(bits_l)
        return sum(w * c for w, c in zip(weights, np.bitwise_count(bits).sum(axis=1).tolist()))
    total, scale, out = weighted(planes), c_eps(agg.eps) / agg.n_total, []
    for col in columns:
        if memoryview(col).nbytes != nbytes:
            raise ValueError(f"packed column has {memoryview(col).nbytes} bytes, expected shape ({nbytes},)")
        out.append(scale * float(total - 2 * weighted(planes & np.frombuffer(col, dtype="<u8"))))
    return np.array(out, dtype=np.float64)


def fo_simulate_reports(
    items: np.ndarray,
    m: int,
    eps: float,
    pub: PublicRandomness,
    rng: np.random.Generator,
) -> AggregateState:
    """Aggregate the reports of all users in one pass.

    Sampling is grouped by distinct item, and each group hashes only the
    column blocks its users' positions fall in; per-user draws are
    identical in distribution to calling fo_client_report in a loop.
    Items equal to BOT denote users with no item, whose reports are
    uniform; items below BOT are refused before any draw (np.unique sorts
    them first).
    """
    values, counts = np.unique(np.asarray(items), return_counts=True)
    cells = np.zeros(2 * m, dtype=np.int64)
    absorb_groups(cells, zip(values, counts), lambda v, j: pub.signs_at(("phi", v), j), eps, rng)
    return channel_aggregates(["fo"], cells.reshape(1, m, 2), eps)["fo"]


def fo_estimate(agg: AggregateState, pub: PublicRandomness, v: int) -> float:
    """Estimate f(v) as the inner product of v's column with the mean
    report vector, computed exactly from integer counts.  May fall outside
    [0, 1]; consumers clip where a proportion is required."""
    return float(fo_estimate_many(agg, pub, [v])[0])


def fo_estimate_many(agg: AggregateState, pub: PublicRandomness, items) -> np.ndarray:
    """Estimates for several items; identical results to fo_estimate.  Each
    column is read packed: the ceil(m / 512) PRF blocks sign_array hashes."""
    nbytes = 8 * -(-agg.m // 64)
    return inner_estimates(agg, (pub.bytes_at(("phi", int(v)), nbytes) for v in items))
