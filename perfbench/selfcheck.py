"""Quick checks of the benchmark itself, on tiny configurations.

    python3 perfbench/selfcheck.py

Runs each workload's runner once, untraced and traced, through the same
code the benchmark uses; shows that the same seed gives the same inputs
and outputs; that a tampered service result trips the byte-identity
check; that a traced run survives a public name the program no longer
has and puts every wrapped name back; and that the metric names agree
with BENCHMARK.json.  Prints one line per check and exits 1 if any fails.
"""

import argparse
import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import run  # noqa: E402  (needs ROOT on the path)

run._import_program()

import numpy as np  # noqa: E402

from ldphist import freq_oracle, heavy_hitter  # noqa: E402
from perfbench import layers, spans, speed, workloads  # noqa: E402

TINY = {
    "oracle": dict(d=16, n=2_000, eps=1.0, beta=0.1),
    "histogram": dict(d=16, n=5_000, eps=4.0, beta=0.5, k_per_user=10, code="reference"),
    "onebit": dict(d=16, n=2_000, eps=math.log(2), beta=0.5, K=8, code="reference",
                   planted=0.3),
    "service": dict(d=16, n=400, eps=6.0, beta=0.5, K=8, code="reference", planted=0.5,
                    clients=2, sessions=2),
}
SEED = 3

results = []


def check(name, ok, detail=""):
    results.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""), flush=True)


def args_for(workload, trace):
    return argparse.Namespace(workload=workload, seed=SEED, seconds=1.0, trace=trace)


def trial_workload(name):
    return workloads.TRIAL_WORKLOADS[name](TINY[name], SEED)


def check_trial_runners():
    for name in ("oracle", "histogram", "onebit"):
        for trace in (0, 1):
            wl = trial_workload(name)
            tally = run.Tally()
            tracer = spans.Tracer(layers.TARGETS) if trace else None
            with speed.SpeedSampler() as sampler:
                measured, detail = run._trial_workload(args_for(name, trace), wl,
                                                       wl.inputs(0), tally, sampler, tracer)
            detail["time_scale"] = 1.0
            ok = tally.attempted > 0 and not tally.failures and not tally.run_problems
            if trace:
                metrics = layers.layer_metrics(tracer, detail)
                ok = ok and len(metrics) == len(layers.PER_LAYER) and detail["units"] > 0
            else:
                ok = ok and measured["users_per_s"][0] > 0
            check(f"{name} runner, trace {trace}", ok,
                  f"{tally.attempted} trials, failures {tally.failures + tally.run_problems}")


def check_determinism():
    for name in ("oracle", "histogram", "onebit"):
        a, b = trial_workload(name), trial_workload(name)
        ia, ib = a.inputs(1), b.inputs(1)
        same_inputs = np.array_equal(np.asarray(ia[0]), np.asarray(ib[0]))
        oa, ob = a.trial(ia), b.trial(ib)
        if name == "oracle":
            same_out = np.array_equal(oa[1], ob[1])
        elif name == "histogram":
            same_out = oa.histogram.entries == ob.histogram.entries and oa.decodes == ob.decodes
        else:
            same_out = [u for u, _ in oa[0]] == [u for u, _ in ob[0]]
        check(f"{name} same seed gives same inputs and outputs", same_inputs and same_out)


def check_service():
    wl = workloads.ServiceWorkload(TINY["service"], SEED, ROOT, sessions=2)
    try:
        sess = wl.run_session(0, 1.0)
        clean = wl.check_session(sess)
        check("service session passes its checks", not sess["failures"] and not clean,
              f"{len(sess['users'])} users, problems {sess['failures'] + clean}")
        csv = sess["close_csv"] or ""
        tampered = csv[:-2] + ("1" if csv[-2:-1] != "1" else "2") + csv[-1:]
        caught = wl.check_session({**sess, "close_csv": tampered})
        check("tampered service result trips the byte-identity check",
              any("differs from the in-process replay" in p for p in caught), str(caught))
    finally:
        wl.stop()
    for trace in (0, 1):
        wl = workloads.ServiceWorkload(TINY["service"], SEED, ROOT, sessions=2)
        tally = run.Tally()
        tracer = spans.Tracer(layers.TARGETS) if trace else None
        try:
            with speed.SpeedSampler() as sampler:
                measured, detail = run._service_workload(args_for("service", trace), wl,
                                                         tally, sampler, tracer)
            detail["time_scale"] = 1.0
        finally:
            wl.stop()
        exited = all(s.proc.returncode is not None for s in wl.servers)
        ok = exited and tally.attempted > 2 and not tally.failures
        if trace:
            ok = ok and len(layers.layer_metrics(tracer, detail)) == len(layers.PER_LAYER)
        else:
            ok = ok and measured["users_per_s"][0] > 0
        check(f"service runner, trace {trace}, servers reaped", ok,
              f"{tally.attempted} operations, failures {tally.failures[:2]}")


def check_tracer_robustness():
    originals = (freq_oracle.fo_estimate_many, heavy_hitter.fo_estimate_many,
                 freq_oracle.AggregateState.absorb_batch)
    targets = layers.TARGETS + (
        spans.Target("gone", "ldphist.heavy_hitter", "no_such_function"),
        spans.Target("gone", "ldphist.freq_oracle", "AggregateState.no_such_method"),
        spans.Target("gone", "ldphist.no_such_module", "anything"),
    )
    tracer = spans.Tracer(targets)
    tracer.install()
    try:
        wrapped = heavy_hitter.fo_estimate_many is not originals[1]
        wl = trial_workload("histogram")
        tracer.set_trace_id(0)
        wl.trial(wl.inputs(0))
    finally:
        tracer.uninstall()
    restored = (freq_oracle.fo_estimate_many, heavy_hitter.fo_estimate_many,
                freq_oracle.AggregateState.absorb_batch) == originals
    summary = tracer.summary()
    check("traced run reports absent names instead of crashing",
          len(tracer.absent) == 3 and summary["heavy_hitter.execute"][2] == 1,
          f"absent {sorted(tracer.absent)}")
    check("tracer wraps imported names and puts every one back", wrapped and restored)


def check_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    check("end-to-end metric names and units match BENCHMARK.json",
          e2e == list(run.END_TO_END))
    check("per-layer metric names and units match BENCHMARK.json", per == list(layers.PER_LAYER))
    check("workloads match BENCHMARK.json",
          [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS))


def main():
    check_benchmark_json()
    check_tracer_robustness()
    check_determinism()
    check_trial_runners()
    check_service()
    failed = results.count(False)
    print(f"{len(results) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
