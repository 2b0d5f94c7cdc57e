"""End-to-end reduction: encode, conjugate, project out redundant qubits.

``encode_and_reduce`` takes a number-conserving fermionic operator, encodes
it with Jordan-Wigner, conjugates by a chosen basis permutation (closed-form
fast path when the permutation is affine), removes every qubit whose value
is constant across the sector images, and returns the reduced operator plus
the map from sector ranks to surviving-qubit bitstrings.  ``sector_oracle``
computes the same physics with no qubit encoding at all, vectorised over the
sector's columns, and is the ground truth that ``verify_reduction`` compares
against.  Verification stays inside the sector: it builds only the d x d
block of the reduced operator on the sector labels, never the 2^q x 2^q
matrix, so for d = C(N,K) its cost is dominated by the two d x d
eigensolves of the spectrum check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encodings import FermionOperator, jw_majoranas, encode_fermion_operator
from .errors import DimensionError, InvalidEncodingError
from .minimal import RedundancyReport, SectorSpec, redundant_qubits
from .pauli import DENSE_CAP, PRUNE_TOL, PauliString, PauliSum, _check_dense_cap, parity_u64
from .permutations import (
    BasisPermutation,
    classify_affine,
    conjugate_pauli_affine,
    conjugate_pauli_dense,
)

ORACLE_TOL = 1e-9
SPECTRUM_TOL = 1e-8


def project_fixed_qubit(s: PauliSum, qubit: int, value: int) -> PauliSum:
    """<value| s |value> on one tensor factor: I keeps a term, Z scales it
    by (-1)^value, X or Y drops it; the result lives on n-1 qubits.

    Runs on the term arrays: a mask drops X/Y on the qubit, its bit is
    folded out of both masks, the (at most two) terms that now share a key
    are summed and the sum is pruned at ``PRUNE_TOL``.  Terms keep the order
    in which their keys first appear."""
    n = s.n_qubits
    if not 1 <= qubit <= n:
        raise DimensionError(f"qubit {qubit} out of range 1..{n}")
    if n == 1:
        raise DimensionError("cannot project the last remaining qubit away")
    x, z, coeff = s._arrays
    word = x.dtype.type  # uint64, or Python ints past 64 qubits
    bit = word(1 << (n - qubit))
    low = word((1 << (n - qubit)) - 1)
    keep = (x & bit) == 0  # X or Y is off-diagonal on the fixed qubit
    x, z, coeff = x[keep], z[keep], coeff[keep]
    if value:
        coeff = np.where((z & bit) != 0, -coeff, coeff)
    x = ((x >> 1) & ~low) | (x & low)
    z = ((z >> 1) & ~low) | (z & low)
    # The stable sort puts each key's first-seen term first.  Adding 0.0 to
    # first + second gives, signed zeros included, PauliSum's own merge
    # (0.0 + first) + second bit for bit.
    order = np.lexsort((z, x))
    x, z, coeff = x[order], z[order], coeff[order]
    new = np.ones(x.size, dtype=bool)
    new[1:] = (x[1:] != x[:-1]) | (z[1:] != z[:-1])
    start = np.flatnonzero(new)
    total = np.add.reduceat(coeff, start) + 0.0
    seen = np.argsort(order[start])
    x, z, total = x[start][seen], z[start][seen], total[seen]
    keep = np.abs(total) > PRUNE_TOL
    return PauliSum._from_arrays(n - 1, x[keep], z[keep], total[keep])


@dataclass(frozen=True)
class ReducedHamiltonian:
    """A Pauli sum on the surviving qubits plus the sector bookkeeping."""

    pauli_sum: PauliSum
    report: RedundancyReport
    spec: SectorSpec
    state_map: tuple[str, ...]  # rank -> surviving-qubit bitstring

    def state_index(self, rank: int) -> int:
        return int(self.state_map[rank], 2)


def encode_and_reduce(
    h: FermionOperator, p: BasisPermutation, spec: SectorSpec, dense_cap: int = DENSE_CAP
) -> ReducedHamiltonian:
    """Full pipeline; raises if ``h`` is not number conserving or if the
    permutation does not separate the sector on its surviving qubits.
    A non-affine permutation is conjugated on the full 2^N register, which
    ``dense_cap`` bounds in qubits."""
    h.require_number_conserving()
    n = spec.n_modes
    if p.n_qubits != n:
        raise DimensionError("permutation size does not match the mode count")
    if spec.dimension < 2:
        raise InvalidEncodingError(
            "sector holds a single state; there is no operator left to reduce"
        )
    encoded = encode_fermion_operator(h, jw_majoranas(n))

    affine = classify_affine(p)
    if affine is not None:
        items = []
        for (x, z), coeff in encoded.items():
            q = conjugate_pauli_affine(affine, PauliString(n, x, z))
            items.append(((q.x_bits, q.z_bits), coeff * q.coefficient))
        reduced = PauliSum(n, items)
    else:
        reduced = conjugate_pauli_dense(p, encoded, dense_cap)

    report = redundant_qubits(p, spec)
    if not report.restricted_injective:
        raise InvalidEncodingError(
            "sector images collide once restricted to the surviving qubits"
        )

    if affine is not None:
        _check_identity_on_fixed(reduced._arrays[0], n, report)

    for qubit, value in sorted(report.fixed, reverse=True):
        reduced = project_fixed_qubit(reduced, qubit, value)

    images = p.image[np.array(spec.sector_states(), dtype=np.int64)]  # in rank order
    positions = np.array([n - q for q in report.surviving], dtype=np.int64)
    bits = (images[:, None] >> positions) & 1
    state_map = tuple("".join(map(str, row)) for row in bits.tolist())
    return ReducedHamiltonian(reduced, report, spec, state_map)


def _check_identity_on_fixed(x: np.ndarray, n: int, report: RedundancyReport) -> None:
    """For Clifford permutations every encoded number-conserving term must
    carry only I or Z on the redundant qubits; X or Y there, a set bit of
    an X mask, means the permutation or the conjugation is wrong."""
    fixed_mask = 0
    for q, _ in report.fixed:
        fixed_mask |= 1 << (n - q)
    if np.any(x & x.dtype.type(fixed_mask)):
        raise InvalidEncodingError(
            "encoded term acts with X or Y on a redundant qubit"
        )


def sector_oracle(
    h: FermionOperator, spec: SectorSpec, dense_cap: int = DENSE_CAP
) -> np.ndarray:
    """Brute-force sector matrix: H[r', r] = <unrank(r')| h |unrank(r)>,
    with no qubit encoding at all.

    Vectorised over the columns: each term's ladder operators act right to
    left on every sector state at once, held as ``uint64`` occupancy strings
    (so N <= 64).  A state dies when a raised mode is occupied or a lowered
    one is empty, picks up the sign (-1)^(number of occupied modes left of
    the acted mode), and has that mode flipped.  The results are ranked by
    binary search in the sorted sector; those outside it are dropped.  One
    term sends distinct columns to distinct rows, and every entry sums its
    terms in their given order.  The d x d matrix is dense, so d may be at
    most 2^dense_cap.
    """
    n = spec.n_modes
    if n > 64:
        raise DimensionError(f"the sector oracle handles at most 64 modes, got {n}")
    _check_dense_cap(spec.q_min, dense_cap)  # q_min = ceil(log2 d)
    dim = spec.dimension

    states = np.array(spec.sector_states(), dtype=np.uint64)
    cols = np.arange(dim)
    register = (1 << n) - 1
    out = np.zeros((dim, dim), dtype=complex)
    for term in h.terms:
        state = states.copy()
        alive = np.ones(dim, dtype=bool)
        odd = np.zeros(dim, dtype=np.int64)
        for mode, dagger in reversed(term.ops):
            if not 1 <= mode <= n:
                raise DimensionError(f"mode {mode} out of range 1..{n}")
            bit = 1 << (n - mode)
            alive &= ((state & np.uint64(bit)) != 0) != dagger
            odd ^= parity_u64(state & np.uint64(register ^ ((bit << 1) - 1)))
            state ^= np.uint64(bit)
        rows = np.minimum(np.searchsorted(states, state), dim - 1)
        keep = alive & (states[rows] == state)
        coeff = complex(term.coefficient)
        out[rows[keep], cols[keep]] += np.where(odd[keep] == 1, -coeff, coeff)
    return out


@dataclass(frozen=True)
class ReductionCheck:
    max_deviation: float
    spectrum_deviation: float
    passed: bool
    tolerance: float


def verify_reduction(
    rh: ReducedHamiltonian,
    oracle: np.ndarray,
    tol: float = ORACLE_TOL,
    dense_cap: int = DENSE_CAP,
) -> ReductionCheck:
    """Compare every sector matrix element of the reduced operator against
    the brute-force oracle, and the sector spectra as well.

    Only the d x d block on the sector labels is built, straight from the
    Pauli sum by the transform ``to_dense`` uses; the two d x d eigensolves
    then dominate the cost.  ``dense_cap`` bounds the reduced register."""
    dim = rh.spec.dimension
    if oracle.shape != (dim, dim):
        raise DimensionError("oracle shape does not match the sector dimension")
    labels = np.array([rh.state_index(r) for r in range(dim)], dtype=np.int64)
    block = rh.pauli_sum._dense_block(labels, dense_cap)
    max_dev = float(np.max(np.abs(block - oracle))) if dim else 0.0

    eig_block = np.sort(np.linalg.eigvalsh((block + block.conj().T) / 2))
    eig_oracle = np.sort(np.linalg.eigvalsh((oracle + oracle.conj().T) / 2))
    spectrum_dev = float(np.max(np.abs(eig_block - eig_oracle))) if dim else 0.0

    passed = max_dev < tol and spectrum_dev < SPECTRUM_TOL
    return ReductionCheck(max_dev, spectrum_dev, passed, tol)
