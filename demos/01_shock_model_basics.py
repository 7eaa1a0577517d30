"""Tour of the bivariate shock model: ties, marginals, survival surface.

Run:  python3 demos/01_shock_model_basics.py
"""

import math
from dataclasses import asdict

import numpy as np

from mocorr import (
    MOParams,
    RngStream,
    mo_cdf,
    mo_survival,
    mo_to_copula,
    sample_mo,
)

p = MOParams(2.0, 3.0, 5.0)
rng = RngStream(20260801)
n = 200_000

print("shock rates:", asdict(p))
print(f"tie probability (diagonal atom):   {p.tie_probability:.6f}")

s = sample_mo(p, n, rng)
x1, x2 = s.pairs[:, 0], s.pairs[:, 1]
tie = float(np.mean(x1 == x2))
se = math.sqrt(p.tie_probability * (1 - p.tie_probability) / n)
print(f"empirical tie fraction at n={n}:   {tie:.6f}  (SE {se:.6f})")

# Marginals are exponential with the combined rate of the clocks that
# can kill each component.
rate1 = p.lambda1 + p.lambda12
print(f"\nmarginal 1 rate {rate1}: mean {1 / rate1:.6f}, "
      f"empirical {float(x1.mean()):.6f}")

# Survival function vs empirical joint tail at a few points.
print("\npoint          survival   empirical")
for point in [(0.05, 0.05), (0.1, 0.2), (0.3, 0.1)]:
    closed = mo_survival(p, *point)
    emp = float(np.mean((x1 > point[0]) & (x2 > point[1])))
    print(f"{str(point):14} {closed:.6f}   {emp:.6f}")

# The joint cdf and the survival surface are linked through the
# margins; spot-check the identity at one point.
a, b = 0.12, 0.3
lhs = mo_cdf(p, a, b)
m1 = 1 - math.exp(-(p.lambda1 + p.lambda12) * a)
m2 = 1 - math.exp(-(p.lambda2 + p.lambda12) * b)
rhs = m1 + m2 - 1 + mo_survival(p, a, b)
print(f"\ncdf via survival identity: {lhs:.12f} vs {rhs:.12f}")

c = mo_to_copula(p)
print(f"\ninduced copula exponents: phi={c.phi:.6f}, psi={c.psi:.6f}")
print("(these feed the closed-form maximal correlation; see demo 02)")
