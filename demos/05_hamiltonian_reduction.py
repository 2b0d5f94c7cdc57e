#!/usr/bin/env python3
"""End to end: encode a number-conserving Hamiltonian, permute, project.

The reduced operator lives on ceil(log2 C(N,K)) qubits and its sector
matrix elements must match a brute-force calculation performed directly on
occupancy strings, with no qubit encoding anywhere in the oracle path.
"""

import numpy as np

from fermiperm import (
    FermionOperator,
    GateCircuit,
    SectorSpec,
    encode_and_reduce,
    minimal_permutation_index_embed,
    permutation_from_circuit,
    sector_oracle,
    verify_reduction,
)

rng = np.random.default_rng(42)

# --- two-fermion sector of four modes, Clifford permutation --------------------

spec = SectorSpec(4, 2)
circuit = GateCircuit(4)
for control in (3, 2, 1):
    circuit.cnot(control, 4)  # parity of all four modes collects on qubit 4
p = permutation_from_circuit(circuit)

raw = rng.uniform(-1, 1, (4, 4))
h = FermionOperator.one_body((raw + raw.T) / 2)

rh = encode_and_reduce(h, p, spec)
print(f"(N,K) = (4,2): {spec.dimension} sector states on {rh.pauli_sum.n_qubits} qubits")
print("fixed qubits:", rh.report.fixed)
q = rh.pauli_sum.n_qubits
bits = {r: format(label, f"0{q}b") for r, label in enumerate(rh.labels)}
print("rank -> surviving bits:", bits)

check = verify_reduction(rh, h)  # computes the oracle a chunk of columns at a time
print(f"verified against the occupancy-string oracle: passed={check.passed}, "
      f"max deviation {check.max_deviation:.2e}")

# --- bigger sector, non-Clifford index-embed permutation -----------------------

spec6 = SectorSpec(6, 3)
p6 = minimal_permutation_index_embed(spec6)
raw6 = rng.uniform(-1, 1, (6, 6)) + 1j * rng.uniform(-1, 1, (6, 6))
h6 = FermionOperator.one_body((raw6 + raw6.conj().T) / 2)

rh6 = encode_and_reduce(h6, p6, spec6)
check6 = verify_reduction(rh6, h6)
print(f"\n(N,K) = (6,3): C(6,3) = {spec6.dimension} states "
      f"squeezed from 6 into {rh6.pauli_sum.n_qubits} qubits")
print(f"reduced operator has {len(rh6.pauli_sum)} Pauli terms, "
      f"max weight {rh6.pauli_sum.max_weight()}")
print(f"oracle comparison: passed={check6.passed}, "
      f"max deviation {check6.max_deviation:.2e}")

# --- eigenvalues carry over ------------------------------------------------------

oracle = sector_oracle(h6, spec6)
sector_energies = np.sort(np.linalg.eigvalsh(oracle))
block = rh6.pauli_sum.to_dense()[np.ix_(rh6.labels, rh6.labels)]
reduced_energies = np.sort(np.linalg.eigvalsh(block))
print("largest spectral difference:",
      float(np.max(np.abs(sector_energies - reduced_energies))))
