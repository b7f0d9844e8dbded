"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  With ``--trace 0`` the last line of output is a JSON
object with the end-to-end metrics; with ``--trace 1`` the first half of
the time runs untraced and the second half traced, and the JSON holds the
per-layer metrics and the tracing overhead.  Sample counts, the
environment and the derived parameters are printed above it and written,
with everything else, to ``.bench_results/`` in the checkout.  The exit
code is 0 only when every output check passed.  See README.md.
"""

import time

_STARTED = time.perf_counter()  # set-up time counts from here, imports included

import argparse
import hashlib
import json
import os
import platform
import resource
import socket
import statistics
import subprocess
import sys

# One BLAS thread: on a small shared machine, BLAS threads inside the
# decoders compete with the service's processes and make timings unsteady.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread settings it reads)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import speed  # noqa: E402

WORKLOADS = ("oracle", "histogram", "onebit", "service")
# (name, unit) of the end-to-end metrics; every workload reports all of them.
END_TO_END = (
    ("users_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
SETUP_REPEATS = 3


def _import_program():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "ldphist", "__init__.py")):
        raise SystemExit(f"error: no ldphist sources under {src}; run from a source checkout")
    sys.path.insert(0, src)
    import ldphist

    if os.path.dirname(os.path.abspath(ldphist.__file__)) != os.path.join(src, "ldphist"):
        raise SystemExit(f"error: imported ldphist from {ldphist.__file__}, not from {src}")


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, and print the set-up time (used internally)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def _set_up(args, sessions=1):
    """Everything before the first timed operation: the workload and, for
    trial workloads, the first trial's inputs."""
    from perfbench import workloads as w

    cfg = w.CONFIGS[args.workload]
    if args.workload == "service":
        return w.ServiceWorkload(cfg, args.seed, ROOT, sessions), None
    wl = w.TRIAL_WORKLOADS[args.workload](cfg, args.seed)
    return wl, wl.inputs(0)


def _probe(args):
    """Set up once and print the set-up time, at nominal speed.  Set-up is
    short, so the speed is sampled more often than in a timed phase."""
    with speed.SpeedSampler(period_s=0.02) as sampler:
        _import_program()
        wl, _ = _set_up(args)
        took = time.perf_counter() - _STARTED
    if args.workload == "service":
        wl.stop()
    ref = sampler.run_mean() if sampler.samples else speed.reference_cpu_s()
    interrupted = sum(wall for _, wall in sampler.samples)
    nominal = (took - interrupted) * speed.NOMINAL_S / ref
    print(json.dumps({"setup_s": nominal, "setup_wall_s": took}))
    return 0


def _setup_samples(args) -> list:
    """Set-up of fresh interpreters, so that imports and every cache are
    cold as they are for a user starting the program."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({out.returncode}): {out.stderr[-2000:]}")
        samples.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return samples


# ---------------------------------------------------------------------------
# timed phases
# ---------------------------------------------------------------------------

class Tally:
    """Operations attempted and failed, with the reasons for failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.run_problems = []

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems[:3]))


def _run_trials(wl, first_inputs, first, seconds, tally, accuracy, sampler, tracer=None):
    """Trials back to back until ``seconds`` have passed.  Returns, per
    trial, its wall time less the speed sampler's interruptions and the
    mean reference time during it (None if no sample fell in it), and the
    next trial index."""
    timed = []
    began = time.perf_counter()
    i = first
    while not timed or time.perf_counter() - began < seconds:
        if tracer is not None:
            tracer.set_trace_id(i)
        inputs = first_inputs if i == 0 else wl.inputs(i)
        mark = sampler.mark()
        started = time.perf_counter()
        try:
            out = wl.trial(inputs)
        except Exception as exc:  # a failed operation, reported below
            tally.record(f"trial {i}", [f"{type(exc).__name__}: {exc}"])
            i += 1
            continue
        wall = time.perf_counter() - started
        ref, ref_wall, interrupted = sampler.since(mark)
        timed.append((wall - interrupted, ref, ref_wall))
        problems, acc = wl.check(inputs, out)
        accuracy.append(acc)
        tally.record(f"trial {i}", problems)
        i += 1
    return timed, i


def _nominal(timed, sampler) -> list:
    """Times at nominal speed; an operation too short to hold a sample
    takes the run's mean reference time."""
    return [t * speed.NOMINAL_S / (ref or sampler.run_mean()) for t, ref, _ in timed]


def _trial_workload(args, wl, first_inputs, tally, sampler, tracer):
    """Results of the trials; with a tracer, the second half of the time
    runs traced."""
    n = wl.cfg["n"]
    accuracy = []
    if tracer is None:
        timed, _ = _run_trials(wl, first_inputs, 0, args.seconds, tally, accuracy, sampler)
        nominal = _nominal(timed, sampler)
        measured = {
            "users_per_s": (n * len(nominal) / sum(nominal), len(nominal)),
            "op_ms_p50": (1e3 * statistics.median(nominal), len(nominal)),
        }
        detail = {"trials": timed}
    else:
        half = args.seconds / 2
        timed, nxt = _run_trials(wl, first_inputs, 0, half, tally, accuracy, sampler)
        plain = _nominal(timed, sampler)
        tracer.install()
        try:
            timed, _ = _run_trials(wl, None, nxt, half, tally, accuracy, sampler, tracer)
        finally:
            tracer.uninstall()
        traced = _nominal(timed, sampler)
        measured = {}
        detail = dict(units=len(traced), traced_wall_s=sum(t for t, _, _ in timed),
                      untraced_units=len(plain),
                      overhead_pct=100.0 * (statistics.mean(traced) / statistics.mean(plain) - 1))
    tally.run_problems += wl.check_run(accuracy)
    return measured, detail


def _service_workload(args, wl, tally, sampler, tracer):
    """Results of the sessions, run one after another, each given an equal
    share of the time; with a tracer, the second half of the sessions run
    traced.  Each session's times are scaled by the speed samples taken
    during it."""
    sessions = len(wl.servers)
    per_session = args.seconds / sessions
    traced_from = sessions // 2 if tracer is not None else sessions
    results = []
    try:
        for s in range(sessions):
            if s == traced_from:
                tracer.install()
            mark = sampler.mark()
            sess = wl.run_session(s, per_session, tracer if s >= traced_from else None)
            sess["reference_s"], sess["reference_wall_s"], _ = sampler.since(mark)
            results.append(sess)
    finally:
        if tracer is not None:
            tracer.uninstall()
        wl.stop()
    for sess in results:
        sess["scale"] = speed.NOMINAL_S / (sess["reference_s"] or sampler.run_mean())

    from perfbench.layers import REPLAY_ID

    for sess in results:
        for reason in sess["failures"]:
            tally.record(f"session {sess['session']}", [reason])
        tally.attempted += len(sess["users"])
        traced = sess["session"] >= traced_from
        if traced:
            tracer.install()
            tracer.set_trace_id(REPLAY_ID + sess["session"])
        try:
            problems = wl.check_session(sess)
        finally:
            if traced:
                tracer.uninstall()
        tally.record(f"session {sess['session']} close", problems)

    def rate(group):
        return sum(len(x["users"]) for x in group) / sum(x["wall"] * x["scale"] for x in group)

    def upload_ms(group, q):
        lat = [t * x["scale"] for x in group for t in x["latencies"]]
        return 1e3 * float(np.percentile(lat, q)) if lat else 0.0

    def close_ms(group):
        closes = [x["close_s"] * x["scale"] for x in group if x["close_s"] is not None]
        return 1e3 * statistics.median(closes) if closes else 0.0

    plain, traced = results[:traced_from], results[traced_from:]
    if tracer is not None:
        detail = dict(units=len(traced), traced_wall_s=sum(x["wall"] for x in traced),
                      untraced_units=len(plain),
                      overhead_pct=100.0 * (rate(plain) / rate(traced) - 1.0),
                      upload_ms_p99=upload_ms(plain, 99), close_ms=close_ms(plain))
        return {}, detail
    uploads = sum(len(x["users"]) for x in plain)
    measured = {
        "users_per_s": (rate(plain), uploads),
        "op_ms_p50": (upload_ms(plain, 50), uploads),
    }
    detail = {"sessions": [{k: v for k, v in x.items() if k not in ("latencies", "close_csv")}
                           for x in results],
              "upload_ms_p99": upload_ms(plain, 99), "close_ms": close_ms(plain),
              "server_rss_kb": max(x["server_rss_kb"] for x in plain)}
    return measured, detail


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def _source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _provenance(args, wl) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except Exception:  # the layout of numpy's build report varies by version
        blas_name = None
    return {
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config": wl.cfg,
        "derived": wl.derived(),
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    socket.setdefaulttimeout(60.0)
    if args.setup_probe:
        return _probe(args)
    _import_program()

    from perfbench.layers import PER_LAYER, TARGETS, layer_metrics
    from perfbench.spans import Tracer
    from perfbench.workloads import CONFIGS

    setup_samples = _setup_samples(args) if args.trace == 0 else []
    tracer = Tracer(TARGETS) if args.trace else None
    if tracer is not None:
        tracer.install()  # set-up is traced too, for the client-side costs
    try:
        wl, first_inputs = _set_up(args, CONFIGS["service"]["sessions"])
    finally:
        if tracer is not None:
            tracer.uninstall()

    tally = Tally()
    try:
        with speed.SpeedSampler() as sampler:
            if args.workload == "service":
                measured, detail = _service_workload(args, wl, tally, sampler, tracer)
            else:
                measured, detail = _trial_workload(args, wl, first_inputs, tally, sampler,
                                                   tracer)
    finally:
        if args.workload == "service":
            wl.stop()

    # Per-layer times are scaled by the run's mean reference time.
    f = speed.NOMINAL_S / sampler.run_mean()
    detail.update(time_scale=f, speed_samples=len(sampler.samples))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is None:
        detail["setup"] = setup_samples
        measured["setup_s"] = (statistics.median(x["setup_s"] for x in setup_samples),
                               len(setup_samples))
        measured["peak_rss_mb"] = (rss_mb + detail.get("server_rss_kb", 0) / 1024.0, 1)
        metrics = {name: {"value": measured[name][0], "unit": unit} for name, unit in END_TO_END}
        samples = {name: measured[name][1] for name, _ in END_TO_END}
    else:
        metrics = layer_metrics(tracer, detail)
        samples = {name: detail["units"] for name, _ in PER_LAYER}

    correct = not tally.failures and not tally.run_problems
    provenance = _provenance(args, wl)
    result = {"correct": correct, "attempted": tally.attempted,
              "failed": len(tally.failures), "metrics": metrics}

    out_dir = os.path.join(ROOT, ".bench_results")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out_dir, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump({**result, "samples": samples, "failures": tally.failures,
                   "run_problems": tally.run_problems,
                   "absent_spans": sorted(tracer.absent) if tracer else [],
                   "detail": detail, "provenance": provenance}, fh, indent=2, default=str)
    if tracer is not None:
        tracer.save(os.path.join(out_dir, f"{args.workload}-spans.npz"))

    print(f"[provenance] {json.dumps(provenance, sort_keys=True, default=str)}")
    if tracer is not None:
        print(f"[trace] units={detail['units']} overhead={detail['overhead_pct']:.1f}% "
              f"absent={sorted(tracer.absent)}")
    print(f"{'metric':40s} {'value':>14s} {'unit':6s} samples")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:14.6g} {m['unit']:6s} {samples[name]}")
    failed_frac = len(tally.failures) / max(tally.attempted, 1)
    print(f"failed_frac {failed_frac:.6g} ({len(tally.failures)} of {tally.attempted} operations)")
    for line in tally.failures[:10] + tally.run_problems:
        print(f"[check failed] {line}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
