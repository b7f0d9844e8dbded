"""The full protocol: hash items into channels, recover, estimate, prune.

Hashing isolates each frequent item in its own channel with high
probability, where the unique-heavy-hitter machinery recovers it.  Fresh
seeds over T repetitions cover unlucky collisions, a frequency oracle
running in one extra channel prices every candidate together with the
candidate's own channel in each repetition, and candidates below the
pruning threshold are dropped.  Every sub-protocol runs at
eps/(2T + 1), for a total privacy cost of exactly eps.
"""

import numpy as np

from ldphist.core import PublicRandomness
from ldphist.harness import linf_error, protocol_setup
from ldphist.heavy_hitter import hh_execute

d, n, eps, beta = 1024, 100_000, 2.0, 0.5
setup = protocol_setup("hist", d, n, eps, beta, k_override=10 * n)
hh = setup.hh
print(f"channels K = {hh.K}, repetitions T = {hh.T}, per-channel budget "
      f"{hh.eps_channel:.4f}, pruning threshold {hh.threshold:.4f}")
print(f"isolation failure bound {hh.iso_failure_bound:.4f} (want <= beta/3 = {beta/3:.4f})")

rng = np.random.default_rng(11)
items = rng.integers(0, d - 2, n)
items[: int(0.3 * n)] = d - 2
items[int(0.3 * n) : int(0.5 * n)] = d - 1
# The truth holds only the items some user holds; every other item reads 0.
held, counts = np.unique(items, return_counts=True)
truth = dict(zip(held.tolist(), (counts / n).tolist()))

pub = PublicRandomness.from_any(2718)
res = hh_execute(items, setup.code, hh, setup.fo, pub, rng, mode="fast")

print(f"\ndecoded candidates before pruning: {res.candidates}")
print("\nfinal histogram (item, estimate, truth):")
for v, f in res.histogram.entries:
    print(f"  {v:5d}  {f:.4f}  {truth.get(v, 0.0):.4f}")
print(f"\nworst-case error over the whole universe: {linf_error(truth, res.histogram):.4f}")
print("(the oracle alone at eps/(2T+1) has noise floor c/sqrt(n) ~= 0.022 here; "
      "averaging each item's own channel in all T repetitions cuts it by up to sqrt(T+1))")
