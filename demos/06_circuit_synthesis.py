#!/usr/bin/env python3
"""Reversible-circuit synthesis for basis permutations.

Affine permutations compile straight to CNOT/X netlists.  Anything else is
split into two-state transpositions, each routed by a Gray-code walk of
multi-controlled flips.  The one-fermion example shows why non-Clifford
gates are unavoidable, and that a single Toffoli suffices there.
"""

from fermiperm import (
    PauliSum,
    SectorSpec,
    conjugate_pauli_dense,
    jw_majorana,
    lower_mcx,
    minimal_permutation_index_embed,
    permutation_from_circuit,
    single_toffoli_one_fermion_circuit,
    synthesize_permutation,
)

# --- affine fast path -----------------------------------------------------------

spec = SectorSpec(4, 2)
p = minimal_permutation_index_embed(spec)
rep = synthesize_permutation(p, sector=spec)
print("index-embed (4,2):")
print(f"  gates={rep.total_gates} cnot={rep.cnot_count} x={rep.x_count} "
      f"nonclifford={rep.nonclifford_count} transpositions={rep.transposition_count}")
assert permutation_from_circuit(rep.circuit) == p

# --- general path: Gray-code transpositions --------------------------------------

spec63 = SectorSpec(6, 3)
p63 = minimal_permutation_index_embed(spec63, completion="compact")
rep63 = synthesize_permutation(p63, sector=spec63)
print(f"\ncompact index-embed (6,3): C(6,3)={spec63.dimension}")
print(f"  transpositions={rep63.transposition_count} "
      f"(<= 2 C(N,K) = {2 * spec63.dimension})")
print(f"  gates={rep63.total_gates}, per transposition "
      f"{rep63.total_gates / rep63.transposition_count:.1f} (<= 4 N^2 = {4 * 36})")
assert permutation_from_circuit(rep63.circuit) == p63

lowered = lower_mcx(rep63.circuit)
print(f"  lowered to X/CNOT/Toffoli only: {len(lowered)} gates "
      f"on {lowered.n_qubits} wires ({lowered.n_qubits - 6} clean ancillas)")

# --- the single-Toffoli one-fermion encoder ---------------------------------------

circuit = single_toffoli_one_fermion_circuit()
p41 = permutation_from_circuit(circuit)
print("\none-fermion sector of four modes, hand-routed circuit:")
print(f"  {len(circuit)} gates, non-Clifford count = {circuit.nonclifford_count}")
for s in (0b1000, 0b0100, 0b0010, 0b0001):
    print(f"  |{s:04b}> -> |{p41.apply(s):04b}>")

print("  conjugated Majorana term counts (4^t bound with t = 1):")
counts = []
for j in range(1, 5):
    for primed in (False, True):
        g = PauliSum.from_pauli(jw_majorana(j, primed, 4))
        counts.append(len(conjugate_pauli_dense(p41, g)))
print(" ", counts)

# --- naive route for comparison -----------------------------------------------

from fermiperm import from_cycles

naive = from_cycles(4, [(0, 2), (1, 12)])
worst = max(
    len(conjugate_pauli_dense(naive, PauliSum.from_pauli(jw_majorana(j, pr, 4))))
    for j in range(1, 5)
    for pr in (False, True)
)
print(f"\nnaive transposition route: up to {worst} terms per Majorana;")
print("choosing permutations with few non-Clifford gates keeps operators short.")
