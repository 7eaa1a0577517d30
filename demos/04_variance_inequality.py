"""Sliding blocks never lose: the asymptotic variance comparison.

For a functional h of normalized block maxima, the sliding-blocks
estimator's asymptotic variance is 2 * int_0^1 Cov_zeta dzeta, where
Cov_zeta is the covariance of h over two blocks with overlap fraction
1 - zeta.  That integral never exceeds the disjoint-blocks variance
Var(h(Y)).  The engine below computes both and the whole overlap curve.

Run:  python3 demos/04_variance_inequality.py
"""

import math

from mocorr import Functional, GEVShape, RngStream, gev_quantile, sigma2_sb

rng = RngStream(20260804)

cases = [
    ("identity, Gumbel shape", Functional("identity"), GEVShape(0.0)),
    ("identity, bounded tail", Functional("identity"), GEVShape(-0.25)),
    ("log transform, heavy tail", Functional("log_transform"), GEVShape(0.5)),
]
g = GEVShape(0.5)
cases.append(("tail indicator (90th pct)",
              Functional("indicator", threshold=gev_quantile(g, 0.9)), g))

print(f"{'case':28} {'sigma2_db':>10} {'sigma2_sb':>10} {'ratio':>7}")
for i, (label, h, shape) in enumerate(cases):
    report = sigma2_sb(h, shape, n_mc=150_000, rng=rng.child(i))
    print(f"{label:28} {report.sigma2_db:10.5f} {report.sigma2_sb:10.5f} "
          f"{report.ratio:7.4f}")

print("\nGumbel identity has sigma2_db = pi^2/6 =", f"{math.pi ** 2 / 6:.5f}")

# The overlap covariance curve behind one of the integrals; the
# correlation it implies is capped by 1 - zeta at every overlap.
report = sigma2_sb(Functional("identity"), GEVShape(0.0),
                   n_mc=150_000, rng=rng.child(99))
print("\noverlap curve (every 4th node):")
print(f"{'zeta':>8} {'cov':>9} {'corr':>9} {'cap 1-zeta':>11}")
for zeta, cov, _ in report.per_zeta[::4]:
    corr = cov / report.sigma2_db
    print(f"{zeta:8.4f} {cov:9.5f} {corr:9.5f} {1 - zeta:11.5f}")
