"""How far can Corr(f(U), g(V)) be pushed under the shock-model copula?

Power transforms f_k(x) = x^(k+1)/(k+1) give a closed-form correlation.
Scaling both indices in proportion to the copula exponents climbs to
the supremum sqrt(phi*psi), and no pair of indices beats it.

Run:  python3 demos/02_power_correlations.py
"""

import math

from mocorr import (
    CopulaParams,
    PowerIndex,
    QuadratureSpec,
    copula_cdf,
    max_corr_closed,
    power_corr,
    quad_2d,
    var_fk,
)

c = CopulaParams(0.3, 0.7)
target = max_corr_closed(c)
print(f"copula exponents phi={c.phi}, psi={c.psi}")
print(f"maximal correlation sqrt(phi*psi) = {target:.10f}\n")

print("correlation over a small index grid (k rows, l columns):")
ks = [0.0, 1.0, 3.0, 9.0]
print("        " + "".join(f"l={ell:<8.0f}" for ell in ks))
for k in ks:
    row = "".join(f"{power_corr(c, PowerIndex(k, ell)):<10.6f}" for ell in ks)
    print(f"k={k:<4.0f}  {row}")

print("\nclimbing along k = phi*m, l = psi*m:")
for m in (1, 10, 100, 1_000, 10_000):
    value = power_corr(c, PowerIndex(c.phi * m, c.psi * m))
    print(f"m={m:<7} corr={value:.10f}   gap={target - value:.3e}")

# Independent cross-check of one entry by integrating the copula excess
# over the unit square (the covariance form with weights u^k v^l).
k, ell = 1.0, 2.0
spec = QuadratureSpec(32, 32)
cov = quad_2d(lambda u, v: (copula_cdf(c, u, v) - u * v) * u ** k * v ** ell, spec)
quad_corr = cov / math.sqrt(var_fk(k) * var_fk(ell))
closed = power_corr(c, PowerIndex(k, ell))
print(f"\nquadrature cross-check at (k,l)=({k:g},{ell:g}): "
      f"closed {closed:.10f}, quadrature {quad_corr:.10f}, "
      f"|diff| {abs(closed - quad_corr):.2e}")
