"""
Building the physical partial-transpose approximation
=====================================================

The transpose is not a physical operation, but mixing it with enough
white noise is.  This demo builds the measure-and-prepare channels that
realize the approximation locally, checks their closed forms, and
certifies physicality through Choi matrices.
"""

import numpy as np

from spapt import (
    apply,
    bell,
    choi,
    depolarize,
    herm_eig,
    is_cp,
    is_tp,
    partial_transpose_channel,
    replace_channel,
    spa_inversion,
    spa_pt,
    spa_transpose,
    tetrahedral_states,
)

# The single-qubit ingredients are measure-and-prepare channels over a
# tetrahedral POVM: measuring effect k prepares the matching tetrahedral
# state.  The four preparation states sum to twice the identity.
states = tetrahedral_states()
projector_sum = sum(v.projector() for v in states)
print("tetrahedral projector sum (should be 2*I):")
print(np.round(projector_sum, 12))

overlaps = sorted(
    abs(np.vdot(states[j].amplitudes, states[k].amplitudes)) ** 2
    for j in range(4)
    for k in range(j + 1, 4)
)
print("pairwise overlaps (all 1/3):", [round(o, 6) for o in overlaps])

# Acting on |0><0| the transpose approximation returns the closed form
# (1/3) rho^T + (2/3) I/2, and the inversion approximation its
# sigma_y-rotated counterpart.
ket0 = np.diag([1.0, 0.0]).astype(complex)
print("\ntranspose approximation on |0><0|:")
print(np.round(spa_transpose().apply_matrix(ket0).real, 6), "(expect diag(2/3, 1/3))")
print("inversion approximation on |0><0|:")
print(np.round(spa_inversion().apply_matrix(ket0).real, 6), "(expect diag(1/3, 2/3))")
print("depolarizer on |0><0|:")
print(np.round(depolarize().apply_matrix(ket0).real, 6), "(expect I/2)")

# The two-qubit channel mixes one branch acting on B with one acting on
# A (weights 1/3 and 2/3).  As a superoperator it is exactly
# (1/9) PT + (8/9) replace-with-I/4.
channel = spa_pt()
exact = partial_transpose_channel().mat / 9.0 + (8.0 / 9.0) * replace_channel(4).mat
print("\ndecomposition identity max deviation:", np.max(np.abs(channel.superoperator() - exact)))

# Choi matrices certify the difference between the approximation and the
# raw map: the first is a physical channel, the second is not.
print("\napproximated PT: CP =", is_cp(channel), " TP =", is_tp(channel))
raw = partial_transpose_channel()
print("raw PT:          CP =", is_cp(raw), " TP =", is_tp(raw))
print("raw PT Choi minimum eigenvalue:", round(herm_eig(choi(raw).mat).values[0], 9), "(the -1/2 witness of non-physicality)")

# Output spectra are partial-transpose spectra compressed into [1/6, 1/3]:
# a Bell state lands on the lower edge 1/6.
out = apply(channel, bell("phi+"))
print("\nchannel output spectrum for a Bell state:", np.round(out.spectrum.values, 9))
print("minimum eigenvalue 1/6 =", round(1.0 / 6.0, 9))
