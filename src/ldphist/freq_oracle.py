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

import struct
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .core import BOT, FoParams, PublicRandomness, c_eps
from .randomizer import SparseReport, randomize, randomize_many

__all__ = [
    "AggregateState",
    "channel_aggregates",
    "absorb_groups",
    "fo_client_report",
    "fo_simulate_reports",
    "fo_estimate",
    "fo_estimate_many",
]

_FILL_BYTES = 1 << 18  # what one fill chunk may read: up to a 64-byte PRF block per draw


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


class ChannelTable(Mapping):
    """Read-only {key: aggregate of row i} for the i-th of keys, over a
    (rows, m, 2) int64 count table.  ``table``, ``eps`` and ``row_of``
    (each key's row, in the order of keys) are what hh_finalize decodes
    from, reading every n_total from the table.  A key's aggregate (plus
    counts at [i, :, 0], minus at [i, :, 1], views that write through to
    the table, and n_total its row sum then) is built the first time that
    key is read, and kept."""

    def __init__(self, keys, table: np.ndarray, eps: float):
        self.row_of = {key: i for i, key in enumerate(keys)}
        if len(self.row_of) != len(table):
            raise ValueError(f"{len(self.row_of)} distinct keys for {len(table)} count-table rows")
        self.table, self.eps, self._views = table, eps, {}

    def __getitem__(self, key) -> AggregateState:
        if key not in self._views:
            row = self.table[self.row_of[key]]
            self._views[key] = AggregateState(m=self.table.shape[1], eps=self.eps, n_total=int(row.sum()),
                                              plus=row[:, 0], minus=row[:, 1])
        return self._views[key]

    def __iter__(self):
        return iter(self.row_of)

    def __len__(self) -> int:
        return len(self.row_of)


def channel_aggregates(keys, table: np.ndarray, eps: float) -> ChannelTable:
    """The ChannelTable of a (rows, m, 2) int64 count table, row i for the i-th of keys."""
    return ChannelTable(keys, table, eps)


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
    return randomize(lambda j: pub.sign_at(("phi", v), j), params.m_fo, eps, rng)


def absorb_groups(
    table: np.ndarray,
    groups: Iterable,
    signs_of: Callable[[np.ndarray, np.ndarray], np.ndarray],
    eps: float,
    rng: np.random.Generator,
) -> None:
    """Randomize grouped users' reports and count them, in place, in a
    C-contiguous (rows, m, 2) int64 count table, report (j, s) of row i
    in cell [i, j, s < 0].  groups yields (row, item, count) triples, drawn
    in the order given (seeded runs depend on it) with randomize_many; item
    BOT stands for users holding nothing, whose zero input has nothing to
    read, so their draws are counted as they come, and any other negative
    item is refused when its group is reached.  The other draws are held in
    chunks of _FILL_BYTES // 64 users, a group running on into the next
    chunk, and each chunk is counted at once after one signs_of(items,
    positions): the int8 input signs of an array of items at their
    positions."""
    m, step, flat = table.shape[1], _FILL_BYTES // 64, table.reshape(-1)
    positions, flips = np.empty(step, dtype=np.int64), np.empty(step, dtype=bool)
    runs, k = [], 0  # (row, item, count) of the draws held in positions[:k] and flips[:k]

    def flush(held):  # one sign lookup and one np.add.at for the held draws
        rows, items, sizes = np.array(runs, dtype=np.int64).reshape(-1, 3).T
        x = signs_of(np.repeat(items, sizes), positions[:held])
        np.add.at(flat, 2 * (np.repeat(rows, sizes) * m + positions[:held]) + ((x < 0) ^ flips[:held]), 1)
        runs.clear()
    for row, v, count in groups:
        if v < BOT:
            raise ValueError(f"item {v}: items must lie in [0, d) or be {BOT} (no item)")
        j, f = randomize_many(int(count), eps, m, rng, zero=v == BOT)
        if v == BOT:  # the zero input's signs count as +1
            table[row] += np.bincount(2 * j + f, minlength=2 * m).reshape(m, 2)
            continue
        while len(j):
            take = min(len(j), step - k)
            positions[k : k + take], flips[k : k + take] = j[:take], f[:take]
            runs.append((row, v, take))
            j, f, k = j[take:], f[take:], k + take
            if k == step:
                flush(step)
                k = 0
    flush(k)


def fo_simulate_reports(
    items: np.ndarray,
    m: int,
    eps: float,
    pub: PublicRandomness,
    rng: np.random.Generator,
) -> AggregateState:
    """Aggregate the reports of all users in one pass.

    Sampling is grouped by distinct item, and each absorb_groups chunk
    hashes only the column blocks its positions fall in; per-user draws
    are identical in distribution to calling fo_client_report in a loop.
    Items equal to BOT denote users with no item, whose reports are
    uniform; items below BOT are refused before any draw (np.unique sorts
    them first).
    """
    values, counts = np.unique(np.asarray(items), return_counts=True)
    table = np.zeros((1, m, 2), dtype=np.int64)
    absorb_groups(table, ((0, v, c) for v, c in zip(values.tolist(), counts.tolist())),
                  lambda v, j: pub.signs_at(("phi",), j, v), eps, rng)
    return channel_aggregates(["fo"], table, eps)["fo"]


def fo_estimate(agg: AggregateState, pub: PublicRandomness, v: int) -> float:
    """Estimate f(v) as the inner product of v's column with the mean
    report vector, computed exactly from integer counts.  May fall outside
    [0, 1]; consumers clip where a proportion is required."""
    return float(fo_estimate_many(agg, pub, [v])[0])


def fo_estimate_many(agg: AggregateState, pub: PublicRandomness, items) -> np.ndarray:
    """Estimates for several items; identical results to fo_estimate:
    c_eps(eps) / n_total * <column, plus - minus>, each item's column read
    packed as the first 8 * ceil(m / 64) bytes of its PRF stream (the
    blocks sign_array hashes), bit j (little bit order) set where the sign
    is -1 and bits past m ignored.  The product is the exact integer
    sum(diff) - 2 * sum_l w_l * popcount(column & plane_l) over the bit
    planes of plus (w_l = 2^l) and of minus (w_l = -2^l), packed one plane
    at a time, in Python ints."""
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
    total, scale = weighted(planes), c_eps(agg.eps) / agg.n_total
    columns = (np.frombuffer(pub.bytes_at(("phi", int(v)), nbytes), dtype="<u8") for v in items)
    return np.array([scale * float(total - 2 * weighted(planes & col)) for col in columns], dtype=np.float64)
