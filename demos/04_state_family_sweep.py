"""
Sweeping state families through the detector
============================================

Nine benchmark two-state mixtures plus the noise-mixed singlet and the
maximally-entangled-mixed-state curves, located in the tangle vs linear
entropy plane and pushed through the detection pipeline.  The same data
is available as a plot-ready CSV via ``spapt fig3``.
"""

import numpy as np

from spapt import (
    NINE_STATE_PARAMS,
    SPA_THRESHOLD,
    ShotConfig,
    detect,
    f_hat,
    lambda_min_d,
    linear_entropy,
    mems,
    rho_family,
    sample_table,
    tangle,
    werner,
)

cfg = ShotConfig(shots_per_setting=100000, seed=42)

print("nine benchmark mixtures rho(p, alpha):")
print(f"{'p':>5} {'alpha':>6} {'tangle':>8} {'S_L':>7} {'lambda_th':>10} {'lambda_d@1e5':>12}  verdict")
for p, alpha in NINE_STATE_PARAMS:
    rho = rho_family(p, alpha)
    lam_th = detect(rho, "spa_spectrum").lambda_min
    lam_d = lambda_min_d(f_hat(sample_table(rho, cfg)))
    verdict = "entangled" if lam_th < SPA_THRESHOLD else "undetected"
    print(f"{p:>5.2f} {alpha:>6.2f} {tangle(rho):>8.4f} {linear_entropy(rho):>7.4f} {lam_th:>10.6f} {lam_d:>12.6f}  {verdict}")

print("\nverdicts track the tangle exactly: entangled iff tangle > 0")

# a family given an array of p is one stack: each column below is one call on it
grid = np.linspace(0.0, 1.0, 11)
curves = (("noise-mixed singlet curve (lambda = (p+2)/12, flips at p = 2/3)", werner), ("maximally entangled mixed states (tangle = p^2 at fixed mixedness)", mems))
for title, family in curves:
    print(f"\n{title}:")
    states = family(grid)
    for p, t, s_l, spa in zip(grid, tangle(states), linear_entropy(states), detect(states, "spa_spectrum")):
        print(f"  p={p:.2f}  tangle={t:.4f}  S_L={s_l:.4f}  lambda={spa.lambda_min:.6f}")

print("\nfor the CSV dataset run:  spapt fig3 --format csv --out sweep.csv")
