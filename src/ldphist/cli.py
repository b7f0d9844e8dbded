"""Command-line front end.

Subcommands: fo, pp, hist (with --one-bit), audit, serve, submit, sweep.
Common flags mirror the protocol parameters (--d, --n, --eps, --beta,
--k-override, --mode, --seed); --config loads a key=value parameter file
whose entries serve as the subcommand's defaults (flags on the command
line override them; a key the subcommand lacks is an error).  Outputs
land in --out-dir, defaulting to the LDPHIST_OUT environment variable or
the working directory, and every derived quantity is echoed to stdout and
the JSON manifest.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from .core import load_params_file
from .harness import DatasetSpec, ExperimentConfig, fo_scaling_sweep, run_experiment
from .randomizer import (
    amplified_epsilon,
    audit_ldp,
    compose,
    degrading_matrix,
    mutual_information,
    randomizer_channel,
)
from .transport import (
    MSG_FO_REPORT,
    MSG_ONE_BIT,
    MSG_PP_REPORT,
    AggregationServer,
    OneBitPayload,
    ReportPayload,
    SessionConfig,
    client_close,
    client_submit,
    encode_frame,
)


def _out_dir(args) -> str:
    path = args.out_dir or os.environ.get("LDPHIST_OUT", ".")
    os.makedirs(path, exist_ok=True)
    return path


class _ConfigDefaults(argparse.Action):
    """--config FILE: each key=value entry is parsed as the option it names
    (an error if the subcommand has none) and becomes its default; ``main``
    parses again so that the command line overrides the file."""

    def __call__(self, parser, namespace, path, option_string=None):
        tokens, attrs = [], []
        for key, value in load_params_file(path).items():
            attr = key.replace("-", "_")
            if attr in ("config", "func") or not hasattr(namespace, attr):
                parser.error(f"{path}: unknown key {key!r}")
            flag, default = "--" + attr.replace("_", "-"), getattr(namespace, attr)
            if isinstance(default, bool):  # store_true: 1 or 0, any other value is refused
                tokens += {1: [flag], 0: []}.get(value, [flag, str(value)])
            elif isinstance(default, list):  # nargs="+"
                tokens += [flag, *str(value).split()]
            else:
                tokens += [flag, str(value)]
            attrs.append(attr)
        from_file = parser.parse_args(tokens)
        parser.set_defaults(**{attr: getattr(from_file, attr) for attr in attrs})
        setattr(namespace, self.dest, path)


def _echo(tag: str, payload: dict):
    print(f"[{tag}] " + json.dumps(payload, sort_keys=True, default=str))


def _dataset_from_args(args) -> DatasetSpec:
    kind = args.dataset
    extra = {}
    if kind.startswith("zipf"):
        extra["s"] = float(kind.split(":", 1)[1]) if ":" in kind else 1.1
        kind = "zipf"
    elif kind == "planted":
        pairs = []
        for part in (args.planted or "").split(","):
            if not part:
                continue
            item, freq = part.split(":")
            pairs.append((int(item), float(freq)))
        if not pairs:
            raise SystemExit("--planted item:freq[,item:freq...] is required")
        extra["planted"] = tuple(pairs)
    return DatasetSpec(kind=kind, d=args.d, n=args.n, seed=args.seed, **extra)


def cmd_fo(args):
    cfg = ExperimentConfig(
        protocol="fo",
        dataset=_dataset_from_args(args),
        eps=args.eps,
        beta=args.beta,
        seed=args.seed,
        trials=args.trials,
        one_bit=args.one_bit,
    )
    out = _out_dir(args)
    record = run_experiment(
        cfg,
        out_csv=os.path.join(out, "fo_estimates.csv"),
        out_manifest=os.path.join(out, "fo_manifest.json"),
        out_aggregate=os.path.join(out, "fo_aggregate.bin"),
    )
    _echo("derived", record.derived)
    _echo("metrics", {"median_linf_error": record.linf_error, "trials": cfg.trials})
    return 0


def cmd_pp(args):
    spec = DatasetSpec(
        kind="promise", d=args.d, n=args.n, seed=args.seed, eta=args.eta, item=args.item
    )
    cfg = ExperimentConfig(
        protocol="pp",
        dataset=spec,
        eps=args.eps,
        beta=args.beta,
        seed=args.seed,
        trials=args.trials,
        code_kind=args.code,
    )
    out = _out_dir(args)
    record = run_experiment(
        cfg,
        out_csv=os.path.join(out, "pp_result.csv"),
        out_manifest=os.path.join(out, "pp_manifest.json"),
    )
    recovered = sum(m["recovered"] for m in record.trial_metrics)
    _echo("derived", record.derived)
    _echo("metrics", {"recovered": recovered, "trials": cfg.trials,
                      "median_abs_error": record.linf_error})
    return 0


def cmd_hist(args):
    cfg = ExperimentConfig(
        protocol="hist",
        dataset=_dataset_from_args(args),
        eps=args.eps,
        beta=args.beta,
        seed=args.seed,
        trials=args.trials,
        k_override=args.k_override,
        code_kind=args.code,
        mode=args.mode,
        one_bit=args.one_bit,
    )
    out = _out_dir(args)
    record = run_experiment(
        cfg,
        out_csv=os.path.join(out, "histogram.csv"),
        out_manifest=os.path.join(out, "hist_manifest.json"),
    )
    _echo("derived", record.derived)
    _echo("metrics", {
        "median_linf_error": record.linf_error,
        "median_precision": record.hh_precision,
        "median_recall": record.hh_recall,
    })
    return 0


def cmd_audit(args):
    out = _out_dir(args)
    rows = ["m,eps,eps_observed,delta_at_eps"]
    for m in args.m_list:
        inputs = [np.array([1 - 2 * ((v >> i) & 1) for i in range(m)], dtype=np.int8)
                  for v in range(2**m)]
        for eps in args.eps_list:
            ch = randomizer_channel(inputs, m, eps)
            res = audit_ldp(ch)
            rows.append(f"{m},{eps},{res.eps_observed:.12f},{res.delta_at(eps):.3e}")
            _echo("audit", {"m": m, "eps": eps, "eps_observed": res.eps_observed})
    amp_rows = ["eta,eps,amplified_bound,eps_observed,mutual_information_nats"]
    m, d = 4, 16
    base_inputs = [np.array([1 - 2 * ((v >> i) & 1) for i in range(m)], dtype=np.int8)
                   for v in range(d)]
    for eps in args.eps_list:
        base = randomizer_channel(base_inputs, m, eps)
        for eta in (0.0, 0.25, 0.5, 1.0):
            composed = compose(degrading_matrix(eta, d), base)
            obs = audit_ldp(composed).eps_observed
            info = mutual_information(np.full(d, 1 / d), composed)
            amp_rows.append(
                f"{eta},{eps},{amplified_epsilon(eps, eta):.12f},{obs:.12f},{info:.12f}"
            )
    with open(os.path.join(out, "audit_randomizer.csv"), "w") as fh:
        fh.write("\n".join(rows) + "\n")
    with open(os.path.join(out, "audit_amplification.csv"), "w") as fh:
        fh.write("\n".join(amp_rows) + "\n")
    print(f"wrote {out}/audit_randomizer.csv and {out}/audit_amplification.csv")
    return 0


def cmd_serve(args):
    cfg = SessionConfig(
        protocol=args.protocol,
        d=args.d,
        n=args.n,
        eps=args.eps,
        beta=args.beta,
        seed=args.seed,
        k_override=args.k_override,
        code_kind=args.code,
        one_bit=args.one_bit,
    )
    server = AggregationServer(cfg, args.host, args.port)
    host, port = server.start()
    _echo("serving", {"host": host, "port": port, "config": cfg.to_json()})
    try:
        while server.state.result_csv is None:
            time.sleep(0.1)
        print(server.state.result_csv, end="")
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
    return 0


# Largest value + 1 of each report-file field after kind, as the wire
# carries it (user u64, t u16, k u32, position u32), and the signs of each kind.
_FIELD_BOUNDS = {"user": 2**64, "t": 2**16, "k": 2**32, "position": 2**32}
_KIND_SIGNS = {"fo": (-1, 1), "pp": (-1, 1), "bit": (0, 1)}


def _report_frame(line: str) -> bytes:
    """The frame of one report-file line: kind, then user, t, k, position
    and sign as integers; ValueError for anything the wire cannot carry."""
    kind, *fields = line.strip().split(",")
    if kind not in _KIND_SIGNS:
        raise ValueError(f"unknown report kind {kind!r}")
    try:
        user, t, k, j, sign = map(int, fields)
    except ValueError:
        raise ValueError(f"need kind and five integer fields, got {line.strip()!r}") from None
    for (name, bound), value in zip(_FIELD_BOUNDS.items(), (user, t, k, j)):
        if not 0 <= value < bound:
            raise ValueError(f"{name} {value} outside [0, {bound})")
    if sign not in _KIND_SIGNS[kind]:
        raise ValueError(f"a {kind} sign must be one of {_KIND_SIGNS[kind]}, got {sign}")
    if kind == "bit":
        return encode_frame(MSG_ONE_BIT, OneBitPayload(user, sign).pack())
    if kind == "fo":
        return encode_frame(MSG_FO_REPORT, ReportPayload(user, 0, 0, j, sign).pack())
    return encode_frame(MSG_PP_REPORT, ReportPayload(user, t, k, j, sign).pack())


def cmd_submit(args):
    # Every line is checked before the service is contacted.
    frames = []
    with open(args.reports, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "kind,user,t,k,position,sign":
            raise SystemExit(f"unexpected reports header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            try:
                frames.append(_report_frame(line))
            except ValueError as exc:
                raise ValueError(f"{args.reports} line {lineno}: {exc}") from None
    acks = client_submit((args.host, args.port), frames)
    rejected = [a for a in acks if not a.get("ok")]
    _echo("submitted", {"frames": len(frames), "rejected": len(rejected)})
    if args.close:
        print(client_close((args.host, args.port)), end="")
    return 0


def cmd_sweep(args):
    out = _out_dir(args)
    result = fo_scaling_sweep(
        args.d, args.eps, args.beta, args.n_list, args.trials, seed=args.seed
    )
    rows = ["n,median_linf_error"]
    rows += [f"{n},{err:.17g}" for n, err in sorted(result["medians"].items())]
    with open(os.path.join(out, "fo_sweep.csv"), "w") as fh:
        fh.write("\n".join(rows) + "\n")
    _echo("sweep", {"medians": result["medians"], "ratios": result["ratios"]})
    return 0


def _add_common(p, n_default=10_000):
    p.add_argument("--d", type=int, default=1024, help="universe size")
    p.add_argument("--n", type=int, default=n_default, help="user count")
    p.add_argument("--eps", type=float, default=1.0, help="privacy budget (nats)")
    p.add_argument("--beta", type=float, default=0.1, help="confidence parameter")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--out-dir", default=None, help="output directory (default $LDPHIST_OUT or .)")
    p.add_argument("--config", action=_ConfigDefaults, help="key=value parameter defaults")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ldphist")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fo", help="frequency-oracle experiment")
    _add_common(p)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--dataset", default="uniform", help="uniform | zipf[:s] | planted")
    p.add_argument("--planted", default=None, help="item:freq[,item:freq...]")
    p.add_argument("--one-bit", action="store_true")
    p.set_defaults(func=cmd_fo)

    p = sub.add_parser("pp", help="unique-heavy-hitter experiment")
    _add_common(p)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--eta", type=float, default=1.0, help="fraction of users holding the item")
    p.add_argument("--item", type=int, default=0)
    p.add_argument("--code", default="reference", choices=["reference", "concatenated"])
    p.set_defaults(func=cmd_pp)

    p = sub.add_parser("hist", help="full succinct-histogram experiment")
    _add_common(p, n_default=100_000)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--dataset", default="planted")
    p.add_argument("--planted", default="1:0.3,2:0.2")
    p.add_argument("--k-override", type=int, default=None)
    p.add_argument("--mode", default="fast", choices=["fast", "faithful"])
    p.add_argument("--code", default="reference", choices=["reference", "concatenated"])
    p.add_argument("--one-bit", action="store_true")
    p.set_defaults(func=cmd_hist)

    p = sub.add_parser("audit", help="exact privacy audits of the randomizer")
    p.add_argument("--m-list", type=int, nargs="+", default=[2, 4, 8])
    p.add_argument("--eps-list", type=float, nargs="+", default=[0.25, 1.0])
    p.add_argument("--out-dir", default=None)
    p.add_argument("--config", action=_ConfigDefaults)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("serve", help="run the aggregation service")
    _add_common(p, n_default=1000)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7811)
    p.add_argument("--protocol", default="hist", choices=["hist", "fo"])
    p.add_argument("--k-override", type=int, default=8)
    p.add_argument("--code", default="reference", choices=["reference", "concatenated"])
    p.add_argument("--one-bit", action="store_true")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("submit", help="submit a report file to a running service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7811)
    p.add_argument("--reports", required=True, help="CSV: kind,user,t,k,position,sign")
    p.add_argument("--close", action="store_true", help="close the session and print the result")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("sweep", help="oracle error scaling sweep over n")
    p.add_argument("--d", type=int, default=1024)
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=0.1)
    p.add_argument("--n-list", type=int, nargs="+", default=[10_000, 40_000])
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--config", action=_ConfigDefaults)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        args = parser.parse_args(argv)  # now with the file's defaults
    try:
        return args.func(args)
    except ValueError as exc:  # a parameter set the library refuses
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
