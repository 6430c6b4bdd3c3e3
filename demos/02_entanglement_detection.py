"""
Operation-based entanglement detection
======================================

Applying the approximated partial transpose compresses the spectrum of a
state's partial transpose into [1/6, 1/3]; entangled states fall below
2/9, separable states cannot.  This demo compares the exact PPT oracle,
the channel-spectrum route and the measurement-statistics route, and
contrasts them with a fixed entanglement witness whose verdict depends
on the local basis.
"""

import numpy as np

from spapt import (
    BELL_KINDS,
    DensityMatrix,
    SPA_THRESHOLD,
    bell,
    bell_vector,
    detect,
    werner,
    witness_expectation,
)

print(f"detection threshold after the approximation: 2/9 = {SPA_THRESHOLD:.6f}\n")

# All three routes agree on representative states; the states are one stack
# and each column below is one call on it.
labels = ["bell psi-", "werner p=0.5", "werner p=0.8", "|00><00|"]
product = DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))
samples = DensityMatrix.concatenate([bell("psi-"), werner([0.5, 0.8]), product])
columns = [detect(samples, method) for method in ("ppt", "spa_spectrum", "f_hat")]
print(f"{'state':<14} {'ppt':>10} {'spa':>10} {'f_hat':>10}  verdict")
for label, ppt, spa, fhat in zip(labels, *columns):
    assert spa.verdict == fhat.verdict
    print(f"{label:<14} {ppt.lambda_min:>10.6f} {spa.lambda_min:>10.6f} {fhat.lambda_min:>10.6f}  {spa.verdict}")

# The noise-mixed singlet flips from entangled to undetected exactly at
# p = 2/3, in lockstep with the PPT criterion.
print("\nwerner family sweep (lambda after the channel is (p+2)/12):")
grid = np.linspace(0.0, 1.0, 11)
previous = "entangled"
for p, verdict in zip(grid, detect(werner(grid), "spa_spectrum")):
    marker = "<-- flips past p = 2/3" if verdict.verdict != previous else ""
    previous = verdict.verdict
    print(f"  p={p:.2f}  lambda={verdict.lambda_min:.6f}  {verdict.verdict} {marker}")

# A fixed witness detects only states aligned with it: built from the
# phi+ projector, it flags the singlet and misses the other three
# maximally entangled states.  The channel routes treat all four alike.
print("\nfixed witness vs channel route on the four Bell states:")
bells = DensityMatrix.concatenate(bell(kind) for kind in BELL_KINDS)
witness = witness_expectation(bells, bell_vector("phi+").projector())
for kind, w, spa in zip(BELL_KINDS, witness, detect(bells, "spa_spectrum")):
    witness_says = "entangled" if w < 0 else "missed"
    print(f"  {kind:<5} witness expectation {w:+.3f} ({witness_says:<9})   channel lambda {spa.lambda_min:.6f} (entangled)")
