#!/usr/bin/env python3
"""Tour of the information machinery on small qubit models.

Walks through outcome probabilities, the classical Fisher information of a
measurement, the quantum Fisher information of the state family, and what the
gap between them means for achievable precision.
"""

import numpy as np

from qsense import (
    DensityMatrix,
    HermitianOperator,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    WeightMatrix,
    best_combination,
    classical_fim,
    probabilities,
    projective_measurement,
    qfim,
    saturation_checks,
    scalar_bound,
    unitary_family,
    weak_qcrb,
)

half = lambda op: HermitianOperator(op.entries / 2)

print("=" * 70)
print("Single-parameter phase estimation on a qubit")
print("=" * 70)

# |+> precessing about z, measured in the x basis
plus = DensityMatrix(np.full((2, 2), 0.5, dtype=complex))
model = unitary_family(plus, [half(PAULI_Z)])
x_basis = projective_measurement(
    [np.array([1, 1]) / np.sqrt(2), np.array([1, -1]) / np.sqrt(2)]
)

for theta in [0.3, 1.0, 2.0]:
    p = probabilities(model, x_basis, [theta])
    point = qfim(model, [theta])
    f = classical_fim(point, x_basis).matrix[0, 0]
    fq = point.qfim.matrix[0, 0]
    print(
        f"theta={theta:.1f}:  P(+)={p.values[0]:.4f}  F={f:.6f}  F_Q={fq:.6f}"
        "   (this measurement is optimal at every phase)"
    )

print()
print("=" * 70)
print("Two incompatible rotations on |0>: x and y generators")
print("=" * 70)

zero = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
xy = unitary_family(zero, [half(PAULI_X), half(PAULI_Y)])
result = qfim(xy, [0.0, 0.0])
print("QFIM:\n", result.qfim.matrix)
print("mean curvature matrix:\n", result.g_q)
print(f"incompatibility ratio R = {result.r_measure:.3f}  (1 = maximal)")

checks = saturation_checks(xy, [0.0, 0.0])
print(
    "weak commutativity holds:", checks.weak_commutativity_holds,
    "-> the quantum bound cannot be reached for both parameters at once",
)

# the weighted scalar bound and the inverse-free weak bound
w = WeightMatrix.identity(2)
print("Tr[W F_Q^+] =", scalar_bound(result.qfim, w).value)
for nu in [np.array([1.0, 0.0]), np.array([1.0, 1.0])]:
    wb = weak_qcrb(nu, result.qfim)
    print(f"direction {nu}: weak bound {wb.value:.4f}, exact {wb.exact:.4f}, gap {wb.gap:.1e}")

direction, info = best_combination(result.qfim)
print(f"best-resolved combination: {direction} with information {info:.3f}")
