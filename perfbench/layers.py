"""What the traced run wraps, and how spans and counters become the
per-layer metrics.

Each layer is one ldphist module.  The spans wrap public names only; a
time metric is self time (net of the wrapped calls made inside it) unless
its comment says otherwise, and every time or count is per unit of work,
which is one trial (one session on ``service``).
"""

from __future__ import annotations

from .spans import Target, Tracer


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _count_column(tracer, args, kwargs, result):
    tracer.count("core.column_bytes", -(-int(_arg(args, kwargs, 2, "count")) // 8))


def _count_estimate(tracer, args, kwargs, result):
    tracer.count("freq_oracle.items_estimated", len(_arg(args, kwargs, 2, "items")))


def _count_finalize(tracer, args, kwargs, result):
    histogram, candidates, decodes = result
    tracer.count("heavy_hitter.channels", len(_arg(args, kwargs, 0, "pp_aggs")))
    tracer.count("heavy_hitter.verified", len(decodes))
    tracer.count("heavy_hitter.candidates", len(candidates))
    tracer.count("heavy_hitter.pruned", len(candidates) - len(histogram.entries))


def _count_decode(tracer, args, kwargs, result):
    tracer.count("codec.words_decoded", len(result))
    tracer.count("codec.decode_failures", sum(v is None for v in result))


def _count_collect(tracer, args, kwargs, result):
    tracer.count("onebit.offered", len(_arg(args, kwargs, 0, "bits")))
    tracer.count("onebit.accepted", len(result))


def _count_upload(tracer, args, kwargs, result):
    frames = _arg(args, kwargs, 1, "frames")
    tracer.count("transport.frames", len(frames))
    tracer.count("transport.bytes_sent", sum(len(f) for f in frames))
    for ack in result:
        if not ack.get("ok"):
            tracer.count("transport.acks_rejected." + str(ack.get("code")))


TARGETS = (
    Target("core.column", "ldphist.core", "PublicRandomness.sign_array", _count_column),
    Target("core.int_below", "ldphist.core", "PublicRandomness.int_below"),
    Target("core.sign_at", "ldphist.core", "PublicRandomness.sign_at"),
    Target("freq_oracle.simulate", "ldphist.freq_oracle", "fo_simulate_reports"),
    Target("freq_oracle.estimate", "ldphist.freq_oracle", "fo_estimate_many", _count_estimate),
    Target("freq_oracle.absorb", "ldphist.freq_oracle", "AggregateState.absorb_batch"),
    Target("heavy_hitter.execute", "ldphist.heavy_hitter", "hh_execute"),
    Target("heavy_hitter.idle_noise", "ldphist.heavy_hitter", "simulate_idle_noise"),
    Target("heavy_hitter.finalize", "ldphist.heavy_hitter", "hh_finalize", _count_finalize),
    Target("codec.decode", "ldphist.codec", "Code.decode_many", _count_decode),
    Target("onebit.client", "ldphist.onebit", "acceptance_prob"),
    Target("onebit.regen", "ldphist.onebit", "onebit_server_collect", _count_collect),
    Target("onebit.regen", "ldphist.onebit", "collect_pp_aggregates"),
    Target("onebit.regen", "ldphist.onebit", "collect_fo_aggregate"),
    Target("randomizer.client_report", "ldphist.heavy_hitter", "pp_client_report"),
    Target("randomizer.client_report", "ldphist.freq_oracle", "fo_client_report"),
    Target("transport.upload", "ldphist.transport", "client_submit", _count_upload),
    Target("transport.close", "ldphist.transport", "client_close"),
    Target("transport.decode", "ldphist.transport", "decode_frame"),
    Target("transport.decode", "ldphist.transport", "ReportPayload.unpack"),
    Target("harness.gen_dataset", "ldphist.harness", "gen_dataset"),
    Target("harness.check", "ldphist.harness", "truth_frequencies"),
)

ACK_CODES = ("duplicate", "bounds", "session-closed", "bad-frame")

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("core.column_s", "s"),
    ("core.columns", "count"),
    ("core.column_bytes", "bytes"),
    ("core.int_below_s", "s"),
    ("core.int_below_calls", "count"),
    ("core.sign_at_s", "s"),
    ("core.sign_at_calls", "count"),
    ("freq_oracle.simulate_s", "s"),
    ("freq_oracle.estimate_s", "s"),
    ("freq_oracle.items_estimated", "count"),
    ("freq_oracle.absorb_s", "s"),
    ("freq_oracle.absorb_calls", "count"),
    ("heavy_hitter.execute_s", "s"),
    ("heavy_hitter.randomize_s", "s"),
    ("heavy_hitter.idle_noise_s", "s"),
    ("heavy_hitter.finalize_s", "s"),
    ("heavy_hitter.channels", "count"),
    ("heavy_hitter.verified_ratio", "ratio"),
    ("heavy_hitter.candidates", "count"),
    ("heavy_hitter.pruned", "count"),
    ("codec.decode_s", "s"),
    ("codec.words_decoded", "count"),
    ("codec.decode_failures", "count"),
    ("onebit.client_s", "s"),
    ("onebit.client_us_per_user", "us"),
    ("onebit.regen_s", "s"),
    ("onebit.accepted", "count"),
    ("onebit.acceptance_rate", "ratio"),
    ("randomizer.client_report_us", "us"),
    ("transport.frames_per_s", "1/s"),
    ("transport.frames", "count"),
    ("transport.bytes_sent", "bytes"),
    ("transport.acks_rejected", "count"),
) + tuple(("transport.acks_rejected." + code, "count") for code in ACK_CODES) + (
    ("transport.upload_ms_p99", "ms"),
    ("transport.close_ms", "ms"),
    ("transport.replay_decode_s", "s"),
    ("transport.replay_absorb_s", "s"),
    ("harness.gen_dataset_s", "s"),
    ("harness.check_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.units", "count"),
    ("trace.spans", "count"),
    ("trace.absent_spans", "count"),
)


REPLAY_ID = 1 << 40  # trace ids at or above this mark in-process replays


def layer_metrics(tracer: Tracer, detail: dict) -> dict:
    """Per-layer metrics from the spans of a traced run.

    Trace id -1 marks set-up, ids from 0 the timed units (trials, or user
    uploads on ``service``) and ids from ``REPLAY_ID`` the in-process
    replays on ``service``.  ``detail`` gives the number of traced units,
    the wall time of the traced phase, the factor that scales wall time to
    nominal speed, the tracing overhead and, on ``service``, the upload and
    close times of the untraced sessions.
    """
    setup = tracer.summary()
    unit = tracer.summary(lambda ids: ids >= 0)
    replay = tracer.summary(lambda ids: ids >= REPLAY_ID)
    c = tracer.counters
    u = max(detail["units"], 1)

    def own(name):
        return unit[name][0]

    def calls(name):
        return unit[name][2]

    def per_call_us(name, inclusive=False):
        total, count = setup[name][1 if inclusive else 0], setup[name][2]
        return 1e6 * total / count if count else 0.0

    rejected = sum(c.get("transport.acks_rejected." + code, 0) for code in ACK_CODES)
    values = {
        "core.column_s": own("core.column") / u,
        "core.columns": calls("core.column") / u,
        "core.column_bytes": c.get("core.column_bytes", 0) / u,
        "core.int_below_s": own("core.int_below") / u,
        "core.int_below_calls": calls("core.int_below") / u,
        "core.sign_at_s": own("core.sign_at") / u,
        "core.sign_at_calls": calls("core.sign_at") / u,
        "freq_oracle.simulate_s": own("freq_oracle.simulate") / u,
        "freq_oracle.estimate_s": own("freq_oracle.estimate") / u,
        "freq_oracle.items_estimated": c.get("freq_oracle.items_estimated", 0) / u,
        "freq_oracle.absorb_s": own("freq_oracle.absorb") / u,
        "freq_oracle.absorb_calls": calls("freq_oracle.absorb") / u,
        # Inclusive: the whole hh_execute call.
        "heavy_hitter.execute_s": unit["heavy_hitter.execute"][1] / u,
        # hh_execute's own time: grouped channel randomization and its loop.
        "heavy_hitter.randomize_s": own("heavy_hitter.execute") / u,
        "heavy_hitter.idle_noise_s": own("heavy_hitter.idle_noise") / u,
        "heavy_hitter.finalize_s": own("heavy_hitter.finalize") / u,
        "heavy_hitter.channels": c.get("heavy_hitter.channels", 0) / u,
        "heavy_hitter.verified_ratio": (
            c.get("heavy_hitter.verified", 0) / c["heavy_hitter.channels"]
            if c.get("heavy_hitter.channels") else 0.0
        ),
        "heavy_hitter.candidates": c.get("heavy_hitter.candidates", 0) / u,
        "heavy_hitter.pruned": c.get("heavy_hitter.pruned", 0) / u,
        "codec.decode_s": own("codec.decode") / u,
        "codec.words_decoded": c.get("codec.words_decoded", 0) / u,
        "codec.decode_failures": c.get("codec.decode_failures", 0) / u,
        "onebit.client_s": own("onebit.client") / u,
        "onebit.client_us_per_user": 1e6 * own("onebit.client") / calls("onebit.client") if calls("onebit.client") else 0.0,
        "onebit.regen_s": own("onebit.regen") / u,
        "onebit.accepted": c.get("onebit.accepted", 0) / u,
        "onebit.acceptance_rate": (
            c.get("onebit.accepted", 0) / c["onebit.offered"] if c.get("onebit.offered") else 0.0
        ),
        # Inclusive mean cost of one client report, made while service
        # frames are generated in set-up.
        "randomizer.client_report_us": per_call_us("randomizer.client_report", inclusive=True),
        "transport.frames_per_s": (
            c.get("transport.frames", 0) / detail["traced_wall_s"]
            if detail["traced_wall_s"] > 0 else 0.0
        ),
        "transport.frames": c.get("transport.frames", 0) / u,
        "transport.bytes_sent": c.get("transport.bytes_sent", 0) / u,
        "transport.acks_rejected": rejected / u,
        **{
            "transport.acks_rejected." + code: c.get("transport.acks_rejected." + code, 0) / u
            for code in ACK_CODES
        },
        "transport.replay_decode_s": replay["transport.decode"][0] / u,
        "transport.replay_absorb_s": replay["freq_oracle.absorb"][0] / u,
        # Mean per call: datasets are made in set-up and between trials.
        "harness.gen_dataset_s": per_call_us("harness.gen_dataset") / 1e6,
        "harness.check_s": own("harness.check") / u,
        "transport.upload_ms_p99": detail.get("upload_ms_p99", 0.0),
        "transport.close_ms": detail.get("close_ms", 0.0),
        "trace.overhead_pct": detail["overhead_pct"],
        "trace.units": detail["units"],
        "trace.spans": tracer.span_count() / u,
        "trace.absent_spans": len(tracer.absent),
    }
    # Times at nominal speed (see speed.py), like the end-to-end metrics;
    # the upload and close times come scaled already.
    f = detail["time_scale"]
    for name, unit in PER_LAYER:
        if unit in ("s", "us"):
            values[name] *= f
        elif unit == "1/s":
            values[name] /= f
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
