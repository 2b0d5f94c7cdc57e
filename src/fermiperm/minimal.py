"""Minimal-qubit basis construction, redundancy detection, and synthesis.

A sector of K fermions in N modes spans C(N,K) basis states, so
ceil(log2 C(N,K)) qubits suffice to label them.  This module builds basis
permutations that move every weight-K state onto a state whose leading
qubits hold its lexicographic rank, detects which qubits become constant
across the sector, decomposes arbitrary basis permutations into reversible
X/CNOT/TOFFOLI/MCX circuits via Gray-code routed transpositions, and
brute-forces the claim that no invertible GF(2) map can fix more than one
output digit across a fixed-weight set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Optional

import numpy as np

from . import f2
from .encodings import gl_to_cnot_circuit
from .errors import DimensionError, ResourceError
from .permutations import (
    AffineMapF2,
    BasisPermutation,
    Gate,
    GateCircuit,
    _check_storage_cap,
    permutation_from_circuit,
)


@dataclass(frozen=True)
class SectorSpec:
    """An (N modes, K fermions) sector and its minimal qubit count."""

    n_modes: int
    n_fermions: int

    def __post_init__(self):
        if not 0 <= self.n_fermions <= self.n_modes:
            raise ValueError("need 0 <= K <= N")

    @property
    def dimension(self) -> int:
        return math.comb(self.n_modes, self.n_fermions)

    @property
    def q_min(self) -> int:
        # exact ceil(log2 C(N,K)) without float rounding
        return (self.dimension - 1).bit_length()

    @cached_property
    def states(self) -> np.ndarray:
        """All weight-K basis integers in increasing (lexicographic) order,
        so index r holds ``unrank_weightk(r, N, K)``, as one read-only ``uint64`` array.

        One pass over the K-subsets of the mode bits, highest first: their
        lexicographic order is decreasing order of the integers.  Raises
        before it enumerates past 64 modes or 2^16 states (q_min > 16)."""
        if self.n_modes > 64:
            raise DimensionError(f"the sector states hold at most 64 modes, got {self.n_modes}")
        _check_storage_cap(self.q_min, "sector")
        bits = [1 << b for b in range(self.n_modes - 1, -1, -1)]
        sums = [sum(c) for c in combinations(bits, self.n_fermions)]
        states = np.array(sums[::-1], dtype=np.uint64)
        states.setflags(write=False)
        return states


def rank_weightk(bits: int, n: int, k: int) -> int:
    """Lexicographic rank of a weight-k string among all weight-k strings,
    reading qubit 1 (most significant bit) first."""
    if not 0 <= bits < 1 << n:
        raise ValueError(f"state {bits} out of range for {n} bits")
    if bits.bit_count() != k:
        raise ValueError(f"state {bits:0{n}b} does not have weight {k}")
    rank = 0
    remaining = k
    for j in range(1, n + 1):
        if (bits >> (n - j)) & 1:
            rank += math.comb(n - j, remaining)
            remaining -= 1
    return rank


def unrank_weightk(rank: int, n: int, k: int) -> int:
    """Inverse of :func:`rank_weightk` via the combinatorial number system."""
    if not 0 <= rank < math.comb(n, k):
        raise ValueError(f"rank {rank} out of range for C({n},{k})")
    bits = 0
    remaining = k
    for j in range(1, n + 1):
        if remaining == 0:
            break
        block = math.comb(n - j, remaining)
        if rank >= block:
            bits |= 1 << (n - j)
            rank -= block
            remaining -= 1
    return bits


def minimal_permutation_index_embed(
    spec: SectorSpec,
    completion: str = "ordered",
    rng: Optional[np.random.Generator] = None,
) -> BasisPermutation:
    """Permutation sending the weight-K state of rank r to the state whose
    first q_min qubits hold r in binary and whose remaining qubits are zero.

    Non-sector states are completed per ``completion``:

    * ``"ordered"``  - enumerate non-sector sources in increasing order and
      map them to the unused targets in increasing order (the default,
      deterministic rule);
    * ``"compact"``  - fix every state outside sources-union-targets, so the
      permutation's support stays within 2 C(N,K) states;
    * ``"random"``   - shuffle the unused targets with ``rng``.
    """
    n = spec.n_modes
    _check_storage_cap(n)
    states = np.arange(1 << n, dtype=np.int64)
    sources = spec.states.view(np.int64)  # numpy makes uint64 with int64 float64
    targets = np.arange(spec.dimension, dtype=np.int64) << (n - spec.q_min)
    image = np.full(states.size, -1, dtype=np.int64)
    image[sources] = targets
    if completion == "compact":
        fixed = np.setdiff1d(states, np.union1d(sources, targets))
        image[fixed] = fixed
        image[np.setdiff1d(targets, sources)] = np.setdiff1d(sources, targets)
    else:
        free_targets = np.setdiff1d(states, targets)
        if completion == "random":
            if rng is None:
                raise ValueError("completion='random' requires an rng")
            free_targets = rng.permutation(free_targets)
        elif completion != "ordered":
            raise ValueError(f"unknown completion rule {completion!r}")
        image[image < 0] = free_targets  # the unset states, in increasing order
    return BasisPermutation(image)


def count_valid_permutations(spec: SectorSpec) -> int:
    """Exact (2^N - C(N,K))!, the freedom left after fixing the sector map."""
    return math.factorial((1 << spec.n_modes) - spec.dimension)


@dataclass(frozen=True)
class RedundancyReport:
    """Which qubits are constant across the images of a sector."""

    fixed: tuple[tuple[int, int], ...]  # (qubit index 1-based, fixed bit value)
    surviving: tuple[int, ...]


def redundant_qubits(p: BasisPermutation | AffineMapF2, spec: SectorSpec) -> RedundancyReport:
    """Scan the images of all weight-K states for constant bit positions.

    ``p.apply`` gives the images, so a map needs no 2^N table.  A bit is
    constant when the AND and the OR of the images agree on it; the bits
    where they differ are the surviving ones.  Restricted to those, the
    images stay distinct: they are distinct and agree on every fixed bit."""
    if p.n_qubits != spec.n_modes:
        raise DimensionError("permutation and sector have different sizes")
    return _redundancy_of_images(p.apply(spec.states), p.n_qubits)


def _redundancy_of_images(images: np.ndarray, n: int) -> RedundancyReport:
    """The :func:`redundant_qubits` scan of the sector ``images`` on n qubits."""
    all_set = int(np.bitwise_and.reduce(images))
    any_set = int(np.bitwise_or.reduce(images))
    varying = all_set ^ any_set
    fixed = tuple(
        (q, (all_set >> (n - q)) & 1) for q in range(1, n + 1) if not (varying >> (n - q)) & 1
    )
    surviving = tuple(q for q in range(1, n + 1) if (varying >> (n - q)) & 1)
    return RedundancyReport(fixed, surviving)


@dataclass(frozen=True)
class SynthesisReport:
    circuit: GateCircuit
    total_gates: int
    cnot_count: int
    x_count: int
    nonclifford_count: int
    transposition_count: int


def synthesize_permutation(
    p: BasisPermutation | AffineMapF2, sector: Optional[SectorSpec] = None
) -> SynthesisReport:
    """Decompose a basis permutation into a reversible circuit.

    Affine permutations take a fast path: a CNOT netlist for the linear part
    followed by X gates for the offset, with no non-Clifford gates;
    ``p.affine`` tells them apart.  General permutations are split cycle by
    cycle into transpositions (cycles that touch sector states first, when a
    sector is given); each transposition of basis states a, b is routed along
    a Gray-code path of single-bit flips, every flip being an (X-conjugated)
    multi-controlled X that swaps exactly two states.
    """
    n = p.n_qubits
    affine = p.affine
    if affine is not None:
        circuit = _affine_netlist(affine)
        return _report(circuit, transpositions=0)

    cycles = p.to_cycles()
    if sector is not None:
        sector_states = set(sector.states.tolist())
        cycles.sort(key=lambda c: (not any(s in sector_states for s in c), c[0]))
    circuit = GateCircuit(n)
    n_transpositions = 0
    for cyc in cycles:
        # (a1 ... ak) = (a1 a2)(a2 a3)...(a_{k-1} a_k), rightmost applied first
        for i in range(len(cyc) - 1, 0, -1):
            _emit_transposition(circuit, cyc[i - 1], cyc[i])
            n_transpositions += 1
    if permutation_from_circuit(circuit) != p:
        raise AssertionError("synthesized circuit does not reproduce the permutation")
    return _report(circuit, transpositions=n_transpositions)


def _report(circuit: GateCircuit, transpositions: int) -> SynthesisReport:
    return SynthesisReport(
        circuit=circuit,
        total_gates=len(circuit),
        cnot_count=circuit.count("CNOT"),
        x_count=circuit.count("X"),
        nonclifford_count=circuit.nonclifford_count,
        transposition_count=transpositions,
    )


def _affine_netlist(a: AffineMapF2) -> GateCircuit:
    circuit = gl_to_cnot_circuit(a)
    for q in range(1, a.n_qubits + 1):
        if a.offset[q - 1]:
            circuit.x(q)
    return circuit


def _emit_transposition(circuit: GateCircuit, a: int, b: int) -> None:
    """Swap basis states a and b via a Gray-code walk.

    Walk a through single-bit flips to the last state before b, apply the
    central controlled flip, then unwind.  Each step swaps exactly the two
    states that differ in the flipped bit and match everywhere else.
    """
    n = circuit.n_qubits
    diff_positions = [q for q in range(1, n + 1) if (a ^ b) >> (n - q) & 1]
    path = [a]
    for q in diff_positions:
        path.append(path[-1] ^ (1 << (n - q)))
    assert path[-1] == b
    steps = list(zip(path[:-1], path[1:]))
    forward = steps[:-1]
    for u, v in forward:
        _emit_two_state_flip(circuit, u, v)
    _emit_two_state_flip(circuit, *steps[-1])
    for u, v in reversed(forward):
        _emit_two_state_flip(circuit, u, v)


def _emit_two_state_flip(circuit: GateCircuit, u: int, v: int) -> None:
    """One multi-controlled X swapping the two states u, v at Hamming
    distance 1; controls on value 0 are realized by X conjugation."""
    n = circuit.n_qubits
    diff = u ^ v
    target = n - (diff.bit_length() - 1)
    controls = [q for q in range(1, n + 1) if q != target]
    zero_controls = [q for q in controls if not (u >> (n - q)) & 1]
    for q in zero_controls:
        circuit.x(q)
    circuit.mcx(controls, target) if controls else circuit.x(target)
    for q in zero_controls:
        circuit.x(q)


def lower_mcx(circuit: GateCircuit) -> GateCircuit:
    """Expand every gate with three or more controls into Toffolis using a
    standard compute/uncompute ladder of clean ancilla wires.

    Ancillas are appended after the original wires, one per extra control
    (max over the circuit), and every gate restores them to zero, so the
    lowered circuit's action on the original wires is unchanged.
    """
    extra = max((len(g.controls) - 1 for g in circuit.gates if len(g.controls) >= 3), default=0)
    lowered = GateCircuit(circuit.n_qubits + extra)
    base = circuit.n_qubits
    for g in circuit.gates:
        k = len(g.controls)
        if k < 3:
            lowered._push(g)
            continue
        ladder: list[Gate] = []
        ladder.append(Gate((g.controls[0], g.controls[1]), base + 1))
        for i in range(2, k):
            ladder.append(Gate((g.controls[i], base + i - 1), base + i))
        for step in ladder:
            lowered._push(step)
        lowered.cnot(base + k - 1, g.target)
        for step in reversed(ladder):
            lowered._push(step)
    return lowered


@dataclass(frozen=True)
class AppendixReport:
    """Outcome of the exhaustive invertible-matrix scan."""

    n: int
    matrix_count: int
    max_constant_digits: int
    witness: tuple[int, ...]  # row masks of a matrix achieving the max
    per_weight_max: tuple[tuple[int, int], ...] = field(default=())


def appendix_verify(n: int) -> AppendixReport:
    """Enumerate every invertible n x n GF(2) matrix and, for each weight
    0 < k < n, count output digits constant across the images of all
    weight-k strings; report the maximum and a witness matrix reaching it.

    The prefix-parity matrix always pins exactly one digit, so a maximum of
    1 means no invertible map can do better.  Runs for n = 2..5: the scan
    builds each matrix row by row, every row outside the span of the rows
    before it, so it visits only the |GL(n, 2)| invertible matrices (about
    9.9M for n = 5, in a few seconds).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if n > 5:
        raise ResourceError(f"appendix enumeration is capped at n = 5, got {n}")

    weight_sets = {
        k: [s for s in range(1 << n) if s.bit_count() == k] for k in range(1, n)
    }
    count, max_digits, per_k, argmax = _appendix_scan(n, weight_sets)
    expected = _gl2_order(n)
    if count != expected:
        raise AssertionError(
            f"enumerated {count} invertible matrices, expected {expected}"
        )
    parity_rows = tuple(f2.rows_to_masks(f2.parity_matrix(n)))
    parity_digits = max(
        _constant_digits(parity_rows, n, weight_sets[k]) for k in range(1, n)
    )
    if parity_digits != 1:
        raise AssertionError("parity matrix must pin exactly one digit")
    witness = parity_rows if max_digits == 1 else argmax
    return AppendixReport(
        n=n,
        matrix_count=count,
        max_constant_digits=max_digits,
        witness=witness,
        per_weight_max=tuple(sorted(per_k.items())),
    )


def _gl2_order(n: int) -> int:
    order = 1
    for i in range(n):
        order *= (1 << n) - (1 << i)
    return order


def _constant_digits(rows: tuple[int, ...], n: int, states: list[int]) -> int:
    constant = 0
    for row in rows:
        first = (row & states[0]).bit_count() & 1
        if all(((row & s).bit_count() & 1) == first for s in states[1:]):
            constant += 1
    return constant


def _appendix_scan(n, weight_sets):
    """Every invertible matrix once, row by row, each row outside the span
    of the rows before it; the last two rows run as one vectorised grid of
    pairs.  Returns the matrix count, the maximum number of constant
    digits, that maximum per weight, and a matrix reaching it."""
    dim = 1 << n
    labels = np.arange(dim)
    weights = sorted(weight_sets)
    # lut[i, row] is 1 when row . s is the same for every s of weight weights[i]
    lut = np.array(
        [[_constant_digits((row,), n, weight_sets[k]) for row in range(dim)] for k in weights]
    )
    per_k = np.zeros(len(weights), dtype=np.int64)
    count = 0
    max_digits = 0
    argmax: tuple[int, ...] = ()

    def extend(prefix: tuple[int, ...], in_span: np.ndarray) -> None:
        nonlocal count, max_digits, argmax
        free = np.flatnonzero(~in_span)
        if len(prefix) < n - 2:
            for row in free.tolist():
                extend(prefix + (row,), in_span | in_span[labels ^ row])
            return
        # the last two rows must differ by a vector outside the span; 0 is in
        # the span, so they are also distinct
        valid = ~in_span[free[:, None] ^ free]
        count += int(np.count_nonzero(valid))
        partial = lut[:, list(prefix)].sum(axis=1)
        scores = partial[:, None, None] + lut[:, free, None] + lut[:, None, free]
        scores[:, ~valid] = -1
        tops = scores.reshape(len(weights), -1).max(axis=1)
        np.maximum(per_k, tops, out=per_k)
        best = int(tops.argmax())
        if tops[best] > max_digits:
            max_digits = int(tops[best])
            i, j = np.unravel_index(int(scores[best].argmax()), valid.shape)
            argmax = prefix + (int(free[i]), int(free[j]))

    in_span = np.zeros(dim, dtype=bool)
    in_span[0] = True
    extend((), in_span)
    return count, max_digits, dict(zip(weights, per_k.tolist())), argmax


@dataclass(frozen=True)
class CostRow:
    n_fermions: int
    parity: int
    minimal: int
    first_quantized: int


def qubit_costs(n_modes: int) -> list[CostRow]:
    """Qubit costs for K = 0..N: the parity basis with known overall parity
    (N-1), the minimal basis (ceil log2 C(N,K)), and first quantization
    (K ceil log2 N)."""
    if n_modes < 1:
        raise ValueError("need at least one mode")
    log_n = (n_modes - 1).bit_length()
    rows = []
    for k in range(n_modes + 1):
        spec = SectorSpec(n_modes, k)
        rows.append(
            CostRow(
                n_fermions=k,
                parity=n_modes - 1,
                minimal=spec.q_min,
                first_quantized=k * log_n,
            )
        )
    return rows


def costs_csv(n_modes: int) -> str:
    lines = ["K,parity,minimal,first_quantized"]
    for row in qubit_costs(n_modes):
        lines.append(f"{row.n_fermions},{row.parity},{row.minimal},{row.first_quantized}")
    return "\n".join(lines) + "\n"


def single_toffoli_one_fermion_circuit() -> GateCircuit:
    """A 4-wire circuit, Clifford except for one Toffoli, that routes the
    one-fermion states onto their rank labels: |1000> -> |1000>,
    |0100> -> |0100>, |0010> -> |0000>, |0001> -> |1100>, leaving the last
    two qubits redundant for the sector.

    The final wire values are y1 = x1+x4, y2 = x2+x4, y3 = 1+x1+x2+x3+x4
    and y4 = x1 + (x1+x2)(x1+x3) over GF(2); the single quadratic output is
    what one Toffoli buys, and no affine map alone can zero two digits.
    """
    c = GateCircuit(4)
    c.cnot(4, 1)
    c.cnot(4, 2)
    c.cnot(1, 4)
    c.cnot(2, 3)
    c.cnot(4, 3)
    c.x(3)
    # stage alpha = x1+x2 on wire 1 and beta = x1+x3 on wire 2, AND them
    # into wire 4, then restore wires 1 and 2
    c.cnot(2, 1)
    c.cnot(3, 2)
    c.x(2)
    c.toffoli(1, 2, 4)
    c.x(2)
    c.cnot(3, 2)
    c.cnot(2, 1)
    return c
