"""Halving protocol for 2^k equally spaced amplitude candidates.

Each stage applies a pure Chebyshev product whose squared response
alternates exactly between 1 and 0 on the surviving candidate grid, so
one measurement discards half the set; the accumulated offset rides along
as a pre-rotation on each oracle call. Identification is exact for every
hidden index, with n/2 + n/4 + ... + 1 = n - 1 oracle queries in total.
"""

import numpy as np

from spinkey import protocols

for n in (2, 4, 8, 16, 32):
    proto = protocols.bisection_protocol(n)
    stages = ", ".join(
        f"T_{s.qsp_degree}" for s in proto.stages
    )
    # One call runs every hidden index.
    hidden = np.arange(n)
    identified, _, margins = protocols.run_bisection(proto, hidden)
    perfect = bool((identified == hidden).all())
    worst = margins.max()
    print(f"n={n:3d}: stages [{stages}]  queries={proto.total_queries:3d}  "
          f"all identified={perfect}  worst margin={worst:.1e}")

print("\nsix phase candidates = three-phase program + one disambiguation query:")
step = protocols.even_psk_disambiguation((0.0, 3.141592653589793))
total = protocols.query_count(protocols.psk3_sequence()) + protocols.query_count(step)
print(f"  total queries: {total}")
for which, phi in ((0, step.phi_low), (1, step.phi_high)):
    identified, p = protocols.run_disambiguation(step, which)
    print(f"  hidden phase {phi:.3f}: identified {identified:.3f} with p={p:.9f}")
