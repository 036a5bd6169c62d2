"""Mapping how deep each sampler can truncate before breaking.

The scanner walks increasing lower bounds.  The quantile route is sampled:
each probe draws an n_probe-variate batch, which breaks on errors,
infinities or out-of-interval values.  The rejection sampler's depth is
read off each probe's target: it breaks only where the interval mass stops
being representable.  Up to 8 of its batches per cell are then sampled as
a check, and the shallowest unclean one is reported as ds_inexact (nan when
all are clean).  Depths are standardized to safety ratios
eta = (a_bar - mu) / sigma so families can be compared.
"""

import numpy as np

from trunclc import scan_safety

# Standard normal: the quantile route survives to ~7-8 sigma, the
# rejection sampler to ~38.5 sigma (the representability limit of the
# tail mass).
report = scan_safety("normal", probe_schedule=np.arange(0.0, 51.0),
                     method="both", n_probe=1000, seed=3)
cell = report.rows[0]
print("standard normal:")
print(f"  inverse transform breaks past a = {cell.a_bar:.2f}  (eta  = {cell.eta:.2f})")
print(f"  rejection sampler breaks past a = {cell.a_bar_prime:.2f}  "
      f"(eta' = {cell.eta_prime:.2f})")
print(f"  density representable up to a = {cell.a_bar_dprime:.0f}")

# Exponential (gamma with unit shape): log-survival is exactly -a, so the
# rejection sampler runs to a ~ 745 before the mass underflows.
report = scan_safety("gamma", param_grid=[{"alpha": 1.0, "lambda": 1.0}],
                     probe_schedule=np.arange(1.0, 1001.0), method="both",
                     n_probe=1000, seed=5)
cell = report.rows[0]
print("\nexponential(1):")
print(f"  eta = {cell.eta:.1f}   eta' = {cell.eta_prime:.1f}   "
      f"ratio = {cell.eta_prime / cell.eta:.1f}x")

# A parameter grid: Poisson over four decades of the rate, probed on the
# integer-sigma lattice.  Reports serialize to CSV and JSON.
report = scan_safety(
    "poisson",
    param_grid=[{"lambda": v} for v in (0.5, 5.0, 50.0, 500.0)],
    probe_schedule="auto", method="both", n_probe=500, seed=7,
)
print("\nPoisson grid (eta vs eta'):")
for cell in report.rows:
    print(f"  lambda={cell.params['lambda']:7.1f}  eta={cell.eta:6.2f}  "
          f"eta'={cell.eta_prime:6.2f}")
print(f"\nordering violations (a_bar > a_bar'): {len(report.endpoint_violations())}")
print("\nCSV output:\n" + report.to_csv())
