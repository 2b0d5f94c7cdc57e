#!/usr/bin/env python3
"""Tour of the Pauli string / Pauli sum algebra.

Pauli strings are stored symplectically (X bits, Z bits, a power of i), so
products and commutators are exact bit arithmetic.  The dense-matrix
decomposition is the oracle everything else in the package is tested
against.
"""

import numpy as np

from fermiperm import (
    PauliString,
    PauliSum,
    commutes,
    pauli_decompose,
)

# --- products track phases exactly -----------------------------------------

X = PauliString.from_letters("X")
Y = PauliString.from_letters("Y")
Z = PauliString.from_letters("Z")

print("X * Y =", X * Y)  # i Z
print("Y * X =", Y * X)  # -i Z
print("Z * Z =", Z * Z)  # identity

a = PauliString.from_letters("ZXIX")
b = PauliString.from_letters("XXZY")
print(f"\n({a.letters()}) * ({b.letters()}) = {a * b}")
print("weight of ZXIX:", a.weight())

# --- commutation from the symplectic form -----------------------------------

# commutes() is the symplectic test; the demo spells its verdict as a word
words = {True: "commute", False: "anticommute"}
print("\nX vs Z on one qubit:", words[commutes(X, Z)])
print(
    "X1 vs Z2 (disjoint support):",
    words[commutes(PauliString.from_letters("XI"), PauliString.from_letters("IZ"))],
)

# --- sums, simplification, dense form ---------------------------------------

# 1/2 (II + ZI + IX - ZX) is the controlled-NOT from qubit 1 to qubit 2
cnot = PauliSum.from_terms(
    2, [(0.5, "II"), (0.5, "ZI"), (0.5, "IX"), (-0.5, "ZX")]
)
print("\ncontrolled-NOT as a Pauli sum:")
print(" ", cnot)
print("its dense matrix (a basis permutation):")
print(np.real(cnot.to_dense()))

# --- decomposition oracle ----------------------------------------------------

rng = np.random.default_rng(1)
raw = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
unitary, _ = np.linalg.qr(raw)
decomp = pauli_decompose(unitary)
print(f"\nrandom 3-qubit unitary decomposes into {len(decomp)} Pauli terms")
print("sum of |coefficient|^2 (must be 1 for a unitary):", round(decomp.frobenius_sq(), 12))

back = decomp.to_dense()
print("reconstruction error:", float(np.max(np.abs(back - unitary))))
