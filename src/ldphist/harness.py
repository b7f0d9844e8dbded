"""Protocol setup, dataset generators, error metrics, and reproducible
experiment runs.

Every experiment is a pure function of its configuration and seed: trial
seeds are derived from the config seed, public randomness comes from a
seeded master value, and outputs (a CSV table and a JSON manifest echoing
every derived parameter) are byte-stable across runs and machines.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .codec import Code, build_code
from .core import BOT, FoParams, HhParams, PublicRandomness, derive_fo_params, derive_hh_params
from .freq_oracle import fo_estimate_many, fo_simulate_reports
from .heavy_hitter import MERSENNE_P, SuccinctHistogram, hh_execute, hh_finalize, pp_run
from .onebit import OneBitStructure, PublicString, collect_aggregates, onebit_client

__all__ = [
    "FO_UNIVERSE_CAP",
    "ProtocolSetup",
    "protocol_setup",
    "DatasetSpec",
    "gen_dataset",
    "truth_frequencies",
    "linf_error",
    "hh_precision_recall",
    "ExperimentConfig",
    "MetricsRecord",
    "run_experiment",
    "fo_scaling_sweep",
]

CSV_SCHEMA_VERSION = 1

# Largest oracle universe: closing an oracle run estimates every item, about
# 1.4 s for 2^16 items at m_fo = 2,000.
FO_UNIVERSE_CAP = 1 << 16
_ZIPF_D_CAP = 1 << 22  # a zipf draw weighs every item: about 0.2 s and 100 MB at the cap


@dataclass(frozen=True)
class ProtocolSetup:
    """The code and derived parameters of one run; a part is None when the
    protocol lacks it ("fo" has no code or hh, "pp" only a code)."""

    code: Optional[Code]
    hh: Optional[HhParams]
    fo: Optional[FoParams]

    def one_bit(self, pub: PublicRandomness, run_id: int = 0) -> OneBitStructure:
        """The one-bit structure wrapping this protocol's reports."""
        if self.hh is None:
            return OneBitStructure(pub=pub, run_id=run_id, K=1, T=0,
                                   eps_channel=self.fo.eps, m_fo=self.fo.m_fo)
        return OneBitStructure.from_params(self.code, self.hh, self.fo, pub, run_id)

    def derived(self) -> dict:
        """Manifest echo of the parts this setup has."""
        parts = {"hh_params": self.hh and asdict(self.hh), "fo_params": self.fo and asdict(self.fo),
                 "code": self.code and self.code.header()}
        return {key: part for key, part in parts.items() if part is not None}


def protocol_setup(protocol: str, d: int, n: int, eps: float, beta: float,
                   k_override: Optional[int] = None, code_kind: str = "reference") -> ProtocolSetup:
    """A protocol's code and parameters, for experiment runs and the
    aggregation service alike.  "hist" runs its hash channels and oracle at
    eps/(2T+1), the oracle at confidence beta/3.  Refuses (with ValueError)
    a "hist" d above the channel-hash prime 2^61 - 1, whose larger items
    cannot be hashed, and an "fo" d above FO_UNIVERSE_CAP."""
    if protocol == "fo":
        if d > FO_UNIVERSE_CAP:
            raise ValueError(f"an fo run estimates all d = {d} items; cap is {FO_UNIVERSE_CAP}")
        return ProtocolSetup(None, None, derive_fo_params(d, n, eps, beta))
    if protocol == "pp":
        return ProtocolSetup(build_code(d, code_kind), None, None)
    if protocol != "hist":
        raise ValueError(f"unknown protocol {protocol!r}")
    if d > MERSENNE_P:
        raise ValueError(f"a hist universe must have d <= 2^61 - 1 to be hashed, got {d}")
    hh = derive_hh_params(d, n, eps, beta, k_override)
    fo = derive_fo_params(d, n, hh.eps_channel, beta / 3)
    return ProtocolSetup(build_code(d, code_kind), hh, fo)


@dataclass(frozen=True)
class DatasetSpec:
    """A deterministic synthetic dataset.

    kinds: "uniform"; "zipf" with exponent s over ranks 0..d-1, d <= 2^22;
    "planted" with exact per-item counts from (item, frequency) pairs and
    the remaining users uniform over the unplanted items; "promise" where
    ceil(eta * n) users hold `item` and everyone else holds nothing (BOT).
    """

    kind: str
    d: int
    n: int
    seed: int
    s: float = 1.1
    planted: tuple = ()
    eta: float = 0.0
    item: int = 0

    def __post_init__(self):
        if self.kind not in ("uniform", "zipf", "planted", "promise"):
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        if self.kind == "planted":
            for v, f in self.planted:
                if not 0.0 <= f <= 1.0:  # NaN fails both comparisons
                    raise ValueError(f"planted frequency {f} of item {v} outside [0, 1]")
            counts = sum(round(f * self.n) for _, f in self.planted)
            if counts > self.n:
                raise ValueError(f"planted counts sum to {counts} > n = {self.n}")
            total = sum(f for _, f in self.planted)
            if total > 1.0 + 1e-12:
                raise ValueError(f"planted frequencies sum to {total} > 1")
            if len({v for v, _ in self.planted}) != len(self.planted):
                raise ValueError("planted items must be distinct")
        if self.kind == "zipf" and not math.isfinite(self.s):
            raise ValueError(f"zipf exponent s must be finite, got {self.s}")
        if self.kind == "zipf" and self.d > _ZIPF_D_CAP:
            raise ValueError(f"a zipf dataset weighs all d = {self.d} items; cap is {_ZIPF_D_CAP}")
        if self.kind == "promise" and not (0.0 <= self.eta <= 1.0):
            raise ValueError("eta must be in [0, 1]")
        held = {"planted": [v for v, _ in self.planted], "promise": [self.item]}.get(self.kind, [])
        for v in held:
            if not 0 <= v < self.d:
                raise ValueError(f"{self.kind} item {v} outside [0, {self.d})")


def gen_dataset(spec: DatasetSpec) -> np.ndarray:
    """Items array of length n; BOT (-1) marks users holding nothing."""
    rng = np.random.default_rng([spec.seed, 0xD5EED])
    if spec.kind == "uniform":
        return rng.integers(0, spec.d, spec.n).astype(np.int64)
    if spec.kind == "zipf":
        weights = np.arange(1, spec.d + 1, dtype=np.float64) ** (-spec.s)
        weights /= weights.sum()
        return rng.choice(spec.d, size=spec.n, p=weights).astype(np.int64)
    if spec.kind == "promise":
        k = math.ceil(spec.eta * spec.n)
        items = np.full(spec.n, BOT, dtype=np.int64)
        items[:k] = spec.item
        return items
    # planted: exact counts, remainder uniform over the other items
    items = np.empty(spec.n, dtype=np.int64)
    pos = 0
    for v, f in spec.planted:
        cnt = int(round(f * spec.n))
        items[pos : pos + cnt] = v
        pos += cnt
    planted = np.sort(np.array([v for v, _ in spec.planted], dtype=np.int64))
    if pos < spec.n:
        if len(planted) == spec.d:
            raise ValueError("no unplanted items left for the remainder")
        # rng.choice over the unplanted items: item i is i + #{j : planted[j] - j <= i}.
        rank = rng.integers(0, spec.d - len(planted), size=spec.n - pos)
        items[pos:] = rank + np.searchsorted(planted - np.arange(len(planted)), rank, side="right")
    return items


def truth_frequencies(items: np.ndarray, d: int) -> np.ndarray:
    """Length-d empirical frequencies; BOT users count toward n.  Only the
    benchmark calls it: perfbench's oracle check and harness.check span."""
    held = items[items != BOT]
    return np.bincount(held, minlength=d) / len(items)


def items_checksum(items: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(items, dtype=np.int64).tobytes()).hexdigest()


def linf_error(truth: dict, hist: SuccinctHistogram) -> float:
    """Worst-case absolute error over the whole universe.  An item off the
    histogram estimates to 0 and one off the truth mapping holds 0, so only
    items held or published can differ."""
    est = dict(hist.entries)
    return max((abs(est.get(v, 0.0) - truth.get(v, 0.0)) for v in truth.keys() | est), default=0.0)


def hh_precision_recall(truth: dict, hist: SuccinctHistogram, threshold: float) -> tuple:
    """Precision/recall of the output list against the true heavy set
    {v : f(v) >= threshold}, threshold > 0.  Empty sets score 1.0."""
    out = set(hist.items())
    heavy = {v for v, f in truth.items() if f >= threshold}
    precision = 1.0 if not out else len(out & heavy) / len(out)
    recall = 1.0 if not heavy else len(out & heavy) / len(heavy)
    return precision, recall


@dataclass
class ExperimentConfig:
    protocol: str  # "fo", "pp", "hist"
    dataset: DatasetSpec
    eps: float
    beta: float
    seed: int = 0
    trials: int = 1
    k_override: Optional[int] = None
    code_kind: str = "reference"
    mode: str = "fast"
    one_bit: bool = False

    def __post_init__(self):
        if self.protocol not in ("fo", "pp", "hist"):
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.one_bit and self.protocol == "pp":
            raise ValueError("one-bit mode applies to fo and hist runs")
        if self.trials < 1:
            raise ValueError(f"need at least one trial, got {self.trials}")


@dataclass
class MetricsRecord:
    protocol: str
    config: dict
    derived: dict
    trial_metrics: list
    linf_error: float  # median over trials
    hh_precision: float
    hh_recall: float
    runtime_s: float
    items_sha256: str
    csv_schema_version: int = CSV_SCHEMA_VERSION

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)


def run_experiment(
    config: ExperimentConfig,
    out_csv: str = None,
    out_manifest: str = None,
    out_aggregate: str = None,
) -> MetricsRecord:
    """Run the configured protocol for the configured number of trials.

    Writes the final trial's per-item CSV, a JSON manifest, and (for
    oracle runs) the final trial's framed aggregate blob when paths are
    given; all outputs are byte-stable for a fixed (config, seed).
    """
    started = time.time()
    spec = config.dataset
    d, n = spec.d, spec.n
    runner = {"fo": _run_fo_trial, "pp": _run_pp_trial, "hist": _run_hist_trial}[config.protocol]
    setup = protocol_setup(config.protocol, d, n, config.eps, config.beta,
                           config.k_override, config.code_kind)

    derived = {}
    trial_metrics = []
    final_rows = ""
    final_blob = None
    checksum = ""
    for trial in range(config.trials):
        items = gen_dataset(DatasetSpec(**{**asdict(spec), "seed": spec.seed + trial}))
        checksum = items_checksum(items)
        held, counts = np.unique(items[items != BOT], return_counts=True)
        truth = dict(zip(held.tolist(), (counts / len(items)).tolist()))  # BOT users count toward n
        pub = PublicRandomness.from_any(f"experiment:{config.seed}:{trial}")
        rng = np.random.default_rng([config.seed, trial, 0xC0FFEE])
        metrics, rows, extra = runner(config, setup, items, truth, trial, pub, rng)
        derived = {**setup.derived(), **extra}
        final_blob = metrics.pop("aggregate_blob", None)
        metrics["trial"] = trial
        metrics["items_sha256"] = checksum
        trial_metrics.append(metrics)
        final_rows = rows

    linf_values = [m["linf_error"] for m in trial_metrics]
    precisions = [m.get("precision", 1.0) for m in trial_metrics]
    recalls = [m.get("recall", 1.0) for m in trial_metrics]
    record = MetricsRecord(
        protocol=config.protocol,
        config=asdict(config),
        derived=derived,
        trial_metrics=trial_metrics,
        linf_error=float(np.median(linf_values)),
        hh_precision=float(np.median(precisions)),
        hh_recall=float(np.median(recalls)),
        runtime_s=time.time() - started,
        items_sha256=checksum,
    )
    if out_csv:
        with open(out_csv, "w", encoding="utf-8") as fh:
            fh.write(final_rows)
    if out_aggregate and final_blob is not None:
        with open(out_aggregate, "wb") as fh:
            fh.write(final_blob)
    if out_manifest:
        manifest = json.loads(record.to_json())
        manifest["runtime_s"] = None  # keep manifest bytes reproducible
        with open(out_manifest, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=2)
    return record


def _run_fo_trial(config: ExperimentConfig, setup: ProtocolSetup, items, truth, trial, pub, rng):
    spec = config.dataset
    if config.one_bit:
        structure = setup.one_bit(pub, run_id=trial)
        agg, _ = collect_aggregates(_one_bit_bits(items, structure, rng), structure)
        acceptance = agg.n_total / spec.n
    else:
        agg = fo_simulate_reports(items, setup.fo.m_fo, config.eps, pub, rng)
        acceptance = 1.0
    est = fo_estimate_many(agg, pub, np.arange(spec.d)).tolist()
    rows = ["item,true_frequency,estimated_frequency"]
    rows += [f"{v},{truth.get(v, 0.0):.17g},{e:.17g}" for v, e in enumerate(est)]
    metrics = {
        "linf_error": max(abs(e - truth.get(v, 0.0)) for v, e in enumerate(est)),
        "acceptance_rate": acceptance,
        "n_reports": int(agg.n_total),
        "aggregate_blob": agg.to_bytes(),
    }
    return metrics, "\n".join(rows) + "\n", {}


def _run_pp_trial(config: ExperimentConfig, setup: ProtocolSetup, items, truth, trial, pub, rng):
    spec = config.dataset
    res = pp_run(items, setup.code, config.eps, rng)
    planted = spec.item if spec.kind == "promise" else None
    recovered = planted is not None and res.item == planted
    if planted is None:
        err = 0.0
    elif recovered:
        err = abs(res.estimate - truth.get(planted, 0.0))
    else:
        err = truth.get(planted, 0.0)  # the missing item's implicit-zero error
    rows = ["recovered_item,estimate,true_frequency"]
    rows.append(f"{res.item if res.item is not None else ''},{res.estimate:.17g},"
                f"{truth.get(planted, 0.0):.17g}")
    metrics = {
        "linf_error": err,
        "recovered": bool(recovered),
        "decoded_item": res.item,
        "estimate": res.estimate,
    }
    return metrics, "\n".join(rows) + "\n", {}


def _run_hist_trial(config: ExperimentConfig, setup: ProtocolSetup, items, truth, trial, pub, rng):
    spec = config.dataset
    code, hh = setup.code, setup.hh
    extra = {}
    if config.one_bit:
        # Materializes all K*T channels; OneBitStructure enforces the cap.
        structure = setup.one_bit(pub, run_id=trial)
        fo_agg, pp_aggs = collect_aggregates(_one_bit_bits(items, structure, rng), structure)
        hist, _, _ = hh_finalize(pp_aggs, fo_agg, code, hh, pub)
        seeds, mode = structure.seeds, "one-bit"
        extra = {"acceptance_rate": fo_agg.n_total / spec.n}
    else:
        res = hh_execute(items, code, hh, setup.fo, pub, rng, mode=config.mode)
        hist, seeds, mode = res.histogram, res.seeds, config.mode
    linf = linf_error(truth, hist)
    precision, recall = hh_precision_recall(truth, hist, hh.threshold)
    junk = [int(v) for v in hist.items() if truth.get(v, 0.0) < hh.threshold / 2]
    metrics = {
        "linf_error": linf,
        "precision": precision,
        "recall": recall,
        "output_size": len(hist.entries),
        "junk_items": junk,
        "planted_errors": {
            int(v): float(hist.estimate(v) - truth.get(v, 0.0)) for v, _ in spec.planted
        },
        "planted_recovered": all(v in hist.items() for v, _ in spec.planted),
        **extra,
    }
    return metrics, hist.to_csv(truth), {"seeds": [s.bits.hex() for s in seeds], "mode": mode}


def _one_bit_bits(items, structure: OneBitStructure, rng: np.random.Generator) -> list:
    """(user, accept bit) of every user's public string, in user order."""
    bits = []
    for user, v in enumerate(items):
        y = PublicString(structure=structure, user_id=user)
        bits.append((user, onebit_client(int(v), y, structure, rng)))
    return bits


def fo_scaling_sweep(
    d: int, eps: float, beta: float, n_values, trials: int, seed: int = 0
) -> dict:
    """Median worst-case oracle error per n; the returned record includes
    the ratio between consecutive medians (expected near 2 when n
    quadruples)."""
    medians = {}
    for n in n_values:
        cfg = ExperimentConfig(
            protocol="fo",
            dataset=DatasetSpec(kind="uniform", d=d, n=n, seed=seed),
            eps=eps,
            beta=beta,
            seed=seed,
            trials=trials,
        )
        medians[n] = run_experiment(cfg).linf_error
    ns = sorted(medians)
    ratios = [medians[a] / medians[b] for a, b in zip(ns, ns[1:])]
    return {"medians": medians, "ratios": ratios}
