"""Simulated block maxima meet the asymptotic theory.

Draw one long iid sequence, form disjoint and sliding block maxima,
and compare the empirical variance estimates with the limit values
from the overlap-integral engine.

Run:  python3 demos/05_block_maxima.py
"""

import math

from mocorr import (
    Functional,
    GEVShape,
    RngStream,
    block_maxima_simulate,
    doa_scaling,
    sigma2_sb,
)

rng = RngStream(20260805)
h = Functional("identity")

print("normalizing constants (gamma, a_r, b_r) at r = 100:")
for dist, alpha in (("exp", None), ("uniform", None), ("pareto", 8.0),
                    ("gumbel", None)):
    gamma, a_r, b_r = doa_scaling(dist, 100, alpha)
    label = dist if alpha is None else f"{dist}(alpha={alpha:g})"
    print(f"  {label:18} gamma={gamma:6.3f}  a_r={a_r:8.4f}  b_r={b_r:8.4f}")

print("\nexp(1) data, r=500, 2000 blocks, identity functional:")
oracle = sigma2_sb(h, GEVShape(0.0), n_mc=150_000, rng=rng.child(0))
disjoint = block_maxima_simulate("exp", 500, 2000, "disjoint", h, rng.child(1))
sliding = block_maxima_simulate("exp", 500, 2000, "sliding", h, rng.child(2))
print(f"  disjoint: simulated {disjoint.estimate:.4f}  "
      f"limit {math.pi ** 2 / 6:.4f}")
print(f"  sliding:  simulated {sliding.estimate:.4f}  "
      f"limit {oracle.sigma2_sb:.4f}")
print(f"  simulated ratio {sliding.estimate / disjoint.estimate:.4f}  "
      f"limit ratio {oracle.ratio:.4f}")

print("\nsimulated vs limit variance ratios across base distributions")
print("(r=300, 4000 blocks; long-run variance estimates are noisy, so the")
print("simulated column scatters around the limit):")
print(f"{'distribution':16} {'disjoint':>9} {'sliding':>9} {'sim ratio':>10} "
      f"{'limit ratio':>12}")
for i, (dist, alpha) in enumerate((("exp", None), ("uniform", None),
                                   ("pareto", 8.0), ("gumbel", None))):
    gamma = doa_scaling(dist, 300, alpha)[0]
    limit = sigma2_sb(h, GEVShape(gamma), n_mc=150_000, rng=rng.child(30 + i))
    d = block_maxima_simulate(dist, 300, 4000, "disjoint", h, rng.child(10 + i),
                              alpha=alpha)
    s = block_maxima_simulate(dist, 300, 4000, "sliding", h, rng.child(20 + i),
                              alpha=alpha)
    label = dist if alpha is None else f"{dist}({alpha:g})"
    print(f"{label:16} {d.estimate:9.4f} {s.estimate:9.4f} "
          f"{s.estimate / d.estimate:10.4f} {limit.ratio:12.4f}")
