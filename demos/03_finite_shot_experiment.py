"""
Simulating the finite-shot experiment
=====================================

The channel is realized one copy at a time: a coin chooses the branch, a
local measurement collapses one qubit, and a fresh state is prepared in
its place.  This demo runs that trajectory simulation, tomographs the
output from sampled Pauli statistics, and builds the detection operator
from measured tables alone, reproducing the three estimates of the
Bell-state minimum eigenvalue.
"""

from spapt import (
    BELL_KINDS,
    ShotConfig,
    apply,
    bell,
    detect,
    f_hat,
    fidelity,
    lambda_min_d,
    project_to_physical,
    qst_linear_inversion,
    sample_pauli_expectations,
    sample_table,
    spa_pt,
    trajectory_branch_counts,
    trajectory_spa_pt,
)

cfg = ShotConfig(shots_per_setting=100000, seed=42)
channel = spa_pt()

# Branch statistics of the single-copy protocol: 1/3 transpose branch,
# 2/3 inversion branch.
n1, n2 = trajectory_branch_counts(bell("phi+"), cfg)
print(f"branch counts over {cfg.shots_per_setting} runs: {n1} vs {n2} (fractions {n1 / (n1 + n2):.4f} / {n2 / (n1 + n2):.4f})")

# The ensemble average converges to the exact channel output.
rho = bell("phi+")
trajectory_out = trajectory_spa_pt(rho, cfg)
exact_out = apply(channel, rho)
print(f"fidelity(trajectory, exact) at 1e5 runs: {fidelity(trajectory_out, exact_out):.6f}")
print(f"fidelity at 1e6 runs:                    {fidelity(trajectory_spa_pt(rho, ShotConfig(10**6, 42)), exact_out):.6f}")

# Tomography of the trajectory output from sampled Pauli statistics.
expectations = sample_pauli_expectations(trajectory_out, cfg)
reconstructed = project_to_physical(qst_linear_inversion(expectations))
print(f"tomography fidelity to the exact output: {fidelity(reconstructed, exact_out):.6f}")

# Three estimates of the same number for each Bell state:
#   lambda_th   exact channel spectrum,
#   lambda_exp  trajectory + sampled tomography + spectrum,
#   lambda_d    detection operator from sampled tables alone.
print(f"\n{'state':<6} {'lambda_th':>10} {'lambda_exp':>11} {'lambda_d':>10}   (threshold 2/9 = {2 / 9:.4f})")
for kind in BELL_KINDS:
    rho = bell(kind)
    lam_th = detect(rho, "spa_spectrum").lambda_min
    out = trajectory_spa_pt(rho, cfg)
    rec = project_to_physical(qst_linear_inversion(sample_pauli_expectations(out, cfg)))
    lam_exp = float(rec.spectrum.values[0])
    lam_d = lambda_min_d(f_hat(sample_table(rho, cfg)))
    print(f"{kind:<6} {lam_th:>10.6f} {lam_exp:>11.6f} {lam_d:>10.6f}")
print("\nall three sit near the maximal-entanglement floor 1/6 =", round(1 / 6, 6))

# Same seed, same numbers: every sampled quantity is reproducible.
again = lambda_min_d(f_hat(sample_table(bell("psi-"), cfg)))
once = lambda_min_d(f_hat(sample_table(bell("psi-"), cfg)))
print("reproducibility check (identical draws):", again == once)
