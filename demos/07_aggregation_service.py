"""Running the pieces as separate processes over a byte stream.

Clients frame their (position, sign) reports in a small binary wire format
and stream them to an untrusted aggregation service, which never sees
items, deduplicates per user and channel, and on session close runs the
same decode/prune pipeline as an in-process run.  Integer count
aggregation makes the result byte-identical no matter how many clients
submit or how their frames interleave.
"""

import threading

import numpy as np

from ldphist.core import PublicRandomness
from ldphist.freq_oracle import fo_client_report
from ldphist.harness import protocol_setup
from ldphist.heavy_hitter import BOT, channel_of, draw_hash_seeds, pp_client_report
from ldphist.transport import (
    MSG_FO_REPORT,
    MSG_PP_REPORT,
    AggregationServer,
    ReportPayload,
    SessionConfig,
    client_close,
    client_submit,
    encode_frame,
)

cfg = SessionConfig(protocol="hist", d=16, n=1000, eps=6.0, beta=0.5,
                    seed=99, k_override=8)
pub = PublicRandomness.from_any(cfg.seed)
setup = protocol_setup(cfg.protocol, cfg.d, cfg.n, cfg.eps, cfg.beta,
                       cfg.k_override, cfg.code_kind)
hh, fo, code = setup.hh, setup.fo, setup.code
seeds = draw_hash_seeds(pub, hh.T, hh.ell)

rng = np.random.default_rng(1)
items = rng.integers(0, cfg.d, cfg.n)
items[: int(0.7 * cfg.n)] = 3  # one heavy item

frames = []
for user in range(cfg.n):
    v = int(items[user])
    for t in range(hh.T):
        k_active = channel_of(seeds[t], v, hh.K)
        for k in range(hh.K):
            rep = pp_client_report(v if k == k_active else BOT, code, hh.eps_channel, rng)
            frames.append(encode_frame(
                MSG_PP_REPORT, ReportPayload(user, t, k, rep.position, rep.sign).pack()))
    rep = fo_client_report(v, fo, pub, hh.eps_channel, rng)
    frames.append(encode_frame(
        MSG_FO_REPORT, ReportPayload(user, 0, 0, rep.position, rep.sign).pack()))

server = AggregationServer(cfg)
addr = server.start()
print(f"service listening on {addr}; submitting {len(frames)} frames from 4 clients")

threads = [threading.Thread(target=client_submit, args=(addr, frames[i::4]))
           for i in range(4)]
for th in threads:
    th.start()
for th in threads:
    th.join()

result = client_close(addr)
server.shutdown()
print("histogram result from the service:")
print(result)
