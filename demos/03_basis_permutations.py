#!/usr/bin/env python3
"""Encodings as permutations of the 2^N computational basis states.

A CNOT chain permutes basis states exactly the way the parity encoding
relabels occupancy strings, so conjugating the Jordan-Wigner Majoranas by
that permutation reproduces the parity-basis Majoranas.  Commutation
relations survive any such conjugation, which is why every one of the
2^N! basis permutations yields a valid encoding.
"""

import numpy as np

from fermiperm import (
    GateCircuit,
    PauliSum,
    classify_affine,
    commutes,
    conjugate_pauli_affine,
    conjugate_pauli_dense,
    jw_majorana,
    parity_majorana,
    permutation_from_circuit,
)

N = 4

# CNOT chain: wire j controls wire j+1, applied left to right
chain = GateCircuit(N)
for j in range(1, N):
    chain.cnot(j, j + 1)
p = permutation_from_circuit(chain)

print("CNOT-chain permutation on a few kets:")
for s in ("0000", "1000", "1100", "1011"):
    print(f"  |{s}> -> |{p.apply(int(s, 2)):04b}>")

affine = classify_affine(p)
print("\nclassified as affine map x -> Mx (+) b with M =")
print(affine.matrix)
print("offset b =", affine.offset, "(pure CNOT circuits are linear)")

# --- conjugation carries JW Majoranas to parity Majoranas ---------------------

print("\nconjugated Jordan-Wigner Majoranas vs parity-basis formulas:")
for j in range(1, N + 1):
    got = conjugate_pauli_affine(affine, jw_majorana(j, False, N))
    want = parity_majorana(j, False, N)
    mark = "ok" if got == want else "MISMATCH"
    print(f"  P g{j} P+ = {got.letters():>6}   parity formula {want.letters():>6}   {mark}")

# --- commutation is a conjugation invariant ----------------------------------

from fermiperm import BasisPermutation, PauliString

rng = np.random.default_rng(0)
perm = np.arange(1 << N)
rng.shuffle(perm)
random_p = BasisPermutation(perm)

pairs_checked = 0
for _ in range(200):
    letters = ["".join(rng.choice(list("IXYZ")) for _ in range(N)) for _ in range(2)]
    a, b = (PauliString.from_letters(s) for s in letters)
    before = commutes(a, b)
    ca = conjugate_pauli_dense(random_p, PauliSum.from_pauli(a)).to_dense()
    cb = conjugate_pauli_dense(random_p, PauliSum.from_pauli(b)).to_dense()
    after = np.max(np.abs(ca @ cb - cb @ ca)) < 1e-12
    assert before == after
    pairs_checked += 1
print(f"\ncommutator type preserved under a random S_16 permutation "
      f"for {pairs_checked} random Pauli pairs")
