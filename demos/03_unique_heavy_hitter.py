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

# A verifying caller (hh_finalize) keeps a decode only when the code
# accepts it.  The concatenated code accepts an outer decode that corrected
# at most `accept_errors` Reed-Solomon symbols, the most at which pure noise
# rarely passes.  At d <= 2^16 that is none at all, so a verified run
# refuses the concatenated code there (that universe is the reference
# code's); at d = 2^32 it is one symbol.
wide = build_code(2**32, "concatenated")
agg = pp_aggregate(np.full(n, secret, dtype=np.int64), wide, eps, rng)
res = decode_channels([agg], wide, verify=True)[0]
print(f"verified decode at d = 2^32: item {res.item}, {res.flips} flipped coordinates "
      f"(up to {wide.accept_errors} corrected symbol accepted; none at d = {d})")
