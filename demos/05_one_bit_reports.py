"""Shrinking every report to one bit by public-coin rejection sampling.

The server publishes, for each user, a sample from the no-item report
distribution.  The user accepts it with probability half the likelihood
ratio of its own randomizer, which needs only T + 1 cheap lookups.  Each
user is kept with probability exactly 1/2, accepted samples are
distributed exactly as real reports, and the whole exchange costs one bit
per user; the price is a total budget capped at ln 2 and half the sample.
"""

import math

import numpy as np

from ldphist.core import PublicRandomness
from ldphist.freq_oracle import fo_estimate_many, fo_simulate_reports
from ldphist.harness import protocol_setup
from ldphist.onebit import (
    PublicString,
    acceptance_prob,
    collect_fo_aggregate,
    onebit_server_collect,
)

d, n, eps = 256, 20_000, math.log(2)
setup = protocol_setup("fo", d, n, eps, 0.1)
pub = PublicRandomness.from_any(5)
rng = np.random.default_rng(5)

items = rng.integers(0, d, n)
items[: n // 4] = 7
truth = np.bincount(items, minlength=d) / n

structure = setup.one_bit(pub, run_id=0)
bits = {}
for user in range(n):
    y = PublicString(structure=structure, user_id=user)
    bits[user] = int(rng.random() < acceptance_prob(int(items[user]), y, structure))

accepted = onebit_server_collect(sorted(bits.items()), structure)
print(f"acceptance rate: {len(accepted) / n:.4f} (expected 0.5 exactly in the mean)")

agg = collect_fo_aggregate(accepted, structure)
est = fo_estimate_many(agg, pub, np.arange(d))
print(f"planted item 7: true {truth[7]:.4f}, 1-bit estimate {est[7]:.4f}")

full = fo_simulate_reports(items, setup.fo.m_fo, eps, pub, np.random.default_rng(6))
est_full = fo_estimate_many(full, pub, np.arange(d))
err_bits = np.max(np.abs(est - truth))
err_full = np.max(np.abs(est_full - truth))
print(f"worst-case error, 1-bit reports: {err_bits:.4f}")
print(f"worst-case error, full reports:  {err_full:.4f}")
print(f"ratio {err_bits / err_full:.2f} (about sqrt(2) from the halved sample)")
