"""The one-parameter section family and its square-root law.

D_xi(u, v) = u^(1-xi) * min(u^xi, v) is the survival copula at
(phi, psi) = (xi, 1), so its maximal correlation is sqrt(xi).
The estimator sees it, the closed-form correlation curve climbs to it,
and the family obeys a multiplicativity law in xi.

Run:  python3 demos/03_section_family.py
"""

import math

from mocorr import (
    DXiParam,
    PowerIndex,
    RngStream,
    estimate_max_corr,
    max_corr_closed,
    power_corr,
    sample_d_xi,
)

root = RngStream(20260803)

print("closed-form correlation of (f_{k*xi}(S), f_k(T)) at xi = 0.5:")
d = DXiParam(0.5)
for k in (0.0, 1.0, 10.0, 100.0, 10_000.0):
    print(f"  k={k:<8g} corr={power_corr(d.copula, PowerIndex(k * d.xi, k)):.10f}")
print(f"  limit:      {max_corr_closed(d.copula):.10f}  (= sqrt(0.5))\n")

print("binned spectral estimates vs sqrt(xi) at n=300000, m=48:")
print("xi        estimate   target     |error|")
for i, xi in enumerate((0.25, 0.5, 2 ** -0.5, 0.75)):
    s = sample_d_xi(DXiParam(xi), 300_000, root.child(i))
    est = estimate_max_corr(s, m=48).value
    target = math.sqrt(xi)
    print(f"{xi:<9.6f} {est:.6f}   {target:.6f}   {abs(est - target):.6f}")

# Multiplicativity: the maximal correlation of the product parameter
# is bounded by the product of maximal correlations, with equality in
# the square-root law.  Estimates inherit it up to noise.
print("\nproduct law on estimates (xi1*xi2 vs product of estimates):")
grid = (0.5, 0.8)
est = {}
needed = sorted({g for g in grid} | {a * b for a in grid for b in grid})
for i, xi in enumerate(needed):
    s = sample_d_xi(DXiParam(xi), 300_000, root.child(100 + i))
    est[xi] = estimate_max_corr(s, m=48).value
for a in grid:
    for b in grid:
        print(f"  r({a:.2f}*{b:.2f}) = {est[a * b]:.4f}  vs  "
              f"r({a:.2f})*r({b:.2f}) = {est[a] * est[b]:.4f}")

print("\nfunctional equation r(xi) = sqrt(r(xi^2)) on estimates:")
for xi in (0.6, 0.8):
    s1 = sample_d_xi(DXiParam(xi), 300_000, root.child(200))
    s2 = sample_d_xi(DXiParam(xi * xi), 300_000, root.child(201))
    r1 = estimate_max_corr(s1, m=48).value
    r2 = estimate_max_corr(s2, m=48).value
    print(f"  r({xi}) = {r1:.4f}  vs  sqrt(r({xi * xi:.2f})) = {math.sqrt(r2):.4f}")
