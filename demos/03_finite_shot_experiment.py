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
    min_eigenvalue,
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
# Each column is one call on the stack of the four Bell states; a stack
# entry draws what the state draws alone.
bells = bell(BELL_KINDS)
lams_th = detect(bells, "spa_spectrum").lambda_min
lams_exp = min_eigenvalue(project_to_physical(qst_linear_inversion(sample_pauli_expectations(trajectory_spa_pt(bells, cfg), cfg))))
lams_d = detect(sample_table(bells, cfg), "f_hat").lambda_min
print(f"\n{'state':<6} {'lambda_th':>10} {'lambda_exp':>11} {'lambda_d':>10}   (threshold 2/9 = {2 / 9:.4f})")
for kind, lam_th, lam_exp, lam_d in zip(BELL_KINDS, lams_th, lams_exp, lams_d):
    print(f"{kind:<6} {lam_th:>10.6f} {lam_exp:>11.6f} {lam_d:>10.6f}")
print("\nall three sit near the maximal-entanglement floor 1/6 =", round(1 / 6, 6))

# Same seed, same numbers: every sampled quantity is reproducible.
again = lambda_min_d(f_hat(sample_table(bell("psi-"), cfg)))
once = lambda_min_d(f_hat(sample_table(bell("psi-"), cfg)))
print("reproducibility check (identical draws):", again == once)
