"""Recovering an unknown common item from heavily randomized codewords.

Here every user either holds one fixed item (the server does not know
which) or nothing at all.  Users send single-coordinate randomizations of
their item's error-correcting codeword; idle users send pure noise.  The
server averages, rounds the mean vector back onto the hypercube, and
decodes.  The code's redundancy absorbs both the randomizer noise and the
rounding, so the item pops out even when only a fraction of users hold it.
"""

import numpy as np

from ldphist.codec import build_code
from ldphist.core import BOT
from ldphist.heavy_hitter import decode_channels, pp_aggregate, pp_run

d, n, eps = 2**16, 100_000, 2.0
code = build_code(d, "concatenated")
print(f"code: {code.header()}")

rng = np.random.default_rng(3)
secret = 51_966

for frac in (1.0, 0.5, 0.2):
    items = np.full(n, BOT, dtype=np.int64)
    items[: int(frac * n)] = secret
    res = pp_run(items, code, eps, rng)
    status = "recovered" if res.item == secret else f"got {res.item}"
    print(f"fraction {frac:.1f}: {status}, estimate {res.estimate:.4f}")

# with nothing planted, decoding fails (or is pruned downstream)
noise_only = pp_run(np.full(n, BOT, dtype=np.int64), code, eps, rng)
print(f"all users idle: decoded item = {noise_only.item}, estimate {noise_only.estimate:.4f}")

# the rounded vector's distance to the decoded codeword is what a
# verifying caller checks against the correction radius
agg = pp_aggregate(np.full(n, secret, dtype=np.int64), code, eps, rng)
res = decode_channels([agg], code, verify=True)[0]
print(f"verified decode at full support: item {res.item}, "
      f"{res.flips} flipped coordinates (radius {code.correctable_flips():.0f})")
