"""Permutation-based fermion-to-qubit encodings with minimal qubit counts.

For an N-mode system with a fixed number K of fermions, a permutation of
the 2^N computational-basis states can relabel the C(N,K) sector states so
that only ceil(log2 C(N,K)) qubits distinguish them; the rest become
constant and can be projected away.  This package provides the Pauli and
fermionic operator algebra, the basis permutations and their Clifford
(affine-over-GF(2)) classification, conjugation of operators by
permutations, reversible-circuit synthesis, and the reduction pipeline with
a brute-force sector oracle for verification.
"""

from .errors import (
    DimensionError,
    FermipermError,
    HamiltonianParseError,
    InvalidEncodingError,
    NumberConservationError,
    ResourceError,
)
from .pauli import (
    DENSE_CAP,
    PauliString,
    PauliSum,
    commutes,
    pauli_decompose,
)
from .encodings import (
    FermionOperator,
    FermionTerm,
    FockState,
    LinearEncodingF2,
    encode_fermion_operator,
    encode_ladder,
    encode_state,
    gl_to_cnot_circuit,
    jw_majorana,
    jw_majoranas,
    linear_encoding_majoranas,
    parity_majorana,
    parity_majoranas,
    parse_hamiltonian,
    random_one_body,
)
from .permutations import (
    AffineMapF2,
    BasisPermutation,
    GateCircuit,
    classify_affine,
    conjugate_pauli_affine,
    conjugate_pauli_dense,
    from_cycles,
    parse_cycles,
    permutation_from_circuit,
)
from .minimal import (
    RedundancyReport,
    SectorSpec,
    appendix_verify,
    costs_csv,
    count_valid_permutations,
    lower_mcx,
    minimal_permutation_index_embed,
    qubit_costs,
    rank_weightk,
    redundant_qubits,
    single_toffoli_one_fermion_circuit,
    synthesize_permutation,
    unrank_weightk,
)
from .reduction import (
    ReducedHamiltonian,
    encode_and_reduce,
    project_fixed_qubit,
    sector_oracle,
    verify_reduction,
)

__version__ = "0.1.0"
