"""Permutations of the computational basis and Pauli conjugation by them.

A :class:`BasisPermutation` is a bijection on the 2^n basis indices (an
element of S_{2^n}, not a wire permutation).  Permutations whose action is
x -> Mx (+) b over GF(2) are Clifford; they conjugate a Pauli string to a
single Pauli string via a closed form.  Arbitrary permutations conjugate a
Pauli sum to a Pauli sum via the generalized-permutation-matrix structure
and one batched Walsh-Hadamard transform over the basis-index displacements.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from . import f2
from .errors import DimensionError, InvalidEncodingError, ResourceError
from .pauli import (
    _I_POWERS,
    DENSE_CAP,
    PauliString,
    PauliSum,
    _block_rows,
    _check_dense_cap,
    _check_fixed,
    _decompose_displacements,
    _fixed_mask,
    _overflow_raises,
    _popcount_u64,
    parity_u64,
)

PERMUTATION_CAP = 16


def _check_storage_cap(n_qubits: int, noun: str = "permutation") -> None:
    """Raise before a 2^n image table, or a sector whose q_min is n, is stored past the cap."""
    if n_qubits > PERMUTATION_CAP:
        raise ResourceError(f"{noun} storage is capped at {PERMUTATION_CAP} qubits, got {n_qubits}")


def _check_states(states, n_qubits: int) -> None:
    """Raise unless ``states``, an int or an integer array (an object array of
    Python ints past 64 bits), lie in 0..2^n - 1.  A bool or a float is no state."""
    s = np.asarray(states)
    if s.dtype.kind not in "iu" and not (s.dtype == object and all(type(x) is int for x in s.flat)):
        kind = f"a {s.dtype} array" if s.ndim else type(states).__name__
        raise DimensionError(f"basis states must be integers, got {kind}")
    if s.size and (int(np.min(s)) < 0 or int(np.max(s)) >= 1 << n_qubits):
        raise DimensionError(f"a basis state lies outside 0..2^{n_qubits} - 1")


class BasisPermutation:
    """A bijection on {0, ..., 2^n - 1}; image[i] is where basis state i goes."""

    __slots__ = ("n_qubits", "image", "_affine", "_inverse")

    def __init__(self, image: Sequence[int]):
        arr = np.asarray(image)
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(f"image must hold integers, got dtype {arr.dtype}")
        dim = arr.size
        n = dim.bit_length() - 1
        if dim < 2 or dim != 1 << n:
            raise ValueError("image length must be a power of two, at least 2")
        _check_storage_cap(n)
        arr = arr.astype(np.int64)  # always a copy, so the caller's array stays writable
        if not np.array_equal(np.sort(arr), np.arange(dim)):
            raise ValueError("image is not a bijection on the basis indices")
        arr.setflags(write=False)
        self.n_qubits = n
        self.image = arr
        self._affine = ...  # not yet classified
        self._inverse = None  # not yet built

    def apply(self, states):
        """Lookup: an ``int`` for an int state, elementwise for an integer
        array, an object array of ints among them.  Raises
        ``DimensionError`` on a bool, a float or a state outside 0..2^n - 1."""
        _check_states(states, self.n_qubits)
        images = self.image[np.asarray(states, dtype=np.int64)]  # a table has at most 2^16 states
        return images if isinstance(images, np.ndarray) else int(images)

    @property
    def affine(self) -> Optional["AffineMapF2"]:
        """The ``AffineMapF2`` that realizes this table, or None.  A map is
        its own classification; a table is scanned by ``classify_affine``
        once, on first use, and the answer is kept: the image is read-only."""
        if self._affine is ...:
            self._affine = classify_affine(self)
        return self._affine

    @property
    def dim(self) -> int:
        return self.image.size

    def inverse(self) -> "BasisPermutation":
        if self._inverse is None:  # built and checked once, on first use, and kept
            self._inverse = BasisPermutation(np.argsort(self.image))
        return self._inverse

    def __eq__(self, other) -> bool:
        if not isinstance(other, BasisPermutation):
            return NotImplemented
        return np.array_equal(self.image, other.image)

    def to_cycles(self) -> list[tuple[int, ...]]:
        """Cycle decomposition, fixed points omitted; each cycle starts at its
        smallest element and cycles are sorted by that element."""
        seen = np.zeros(self.dim, dtype=bool)
        cycles = []
        for start in range(self.dim):
            if seen[start] or self.image[start] == start:
                seen[start] = True
                continue
            cyc = [start]
            seen[start] = True
            nxt = int(self.image[start])
            while nxt != start:
                cyc.append(nxt)
                seen[nxt] = True
                nxt = int(self.image[nxt])
            cycles.append(tuple(cyc))
        return cycles

    def cycle_string(self) -> str:
        cycles = self.to_cycles()
        if not cycles:
            return "()"
        return "".join("(" + ",".join(str(i) for i in c) + ")" for c in cycles)


def from_cycles(n_qubits: int, cycles: Iterable[Sequence[int]]) -> BasisPermutation:
    """Standard cycle notation on 0-based state values: within (a1,...,ak),
    a_i maps to a_{i+1} and a_k maps back to a1; unlisted states are fixed."""
    _check_storage_cap(n_qubits)
    dim = 1 << n_qubits
    image = np.arange(dim)
    touched: set[int] = set()
    for cyc in cycles:
        cyc = list(cyc)
        for a in cyc:
            if not 0 <= a < dim:
                raise ValueError(f"state {a} out of range for {n_qubits} qubits")
            if a in touched:
                raise ValueError(f"state {a} appears twice in the cycles")
            touched.add(a)
        for i, a in enumerate(cyc):
            image[a] = cyc[(i + 1) % len(cyc)]
    return BasisPermutation(image)


def parse_cycles(text: str) -> list[tuple[int, ...]]:
    """Parse ``"(a,b,c)(d,e)"`` into cycle tuples of 0-based integers."""
    text = text.strip()
    cycles = []
    pos = 0
    while pos < len(text):
        if text[pos] != "(":
            raise ValueError(f"expected '(' at position {pos} of cycle string")
        end = text.find(")", pos)
        if end < 0:
            raise ValueError(f"unbalanced parenthesis at position {pos} of cycle string")
        body = text[pos + 1 : end]
        if body.strip():
            cycle = []
            at = pos + 1  # position of the current token in text
            for tok in body.split(","):
                try:
                    cycle.append(int(tok))
                except ValueError:
                    at += len(tok) - len(tok.lstrip())
                    raise ValueError(
                        f"invalid state {tok.strip()!r} at position {at} of cycle string"
                    ) from None
                at += len(tok) + 1
            cycles.append(tuple(cycle))
        pos = end + 1
    return cycles


@dataclass(frozen=True)
class Gate:
    """A classical reversible gate: flip ``target`` if all controls are 1."""

    controls: tuple[int, ...]
    target: int

    @property
    def name(self) -> str:
        k = len(self.controls)
        return {0: "X", 1: "CNOT", 2: "TOFFOLI"}.get(k, "MCX")

    def to_line(self) -> str:
        wires = " ".join(str(w) for w in (*self.controls, self.target))
        return f"{self.name} {wires}"


class GateCircuit:
    """An ordered list of X/CNOT/TOFFOLI/MCX gates on wires 1..n.

    Gates apply first-to-last; to transcribe a printed operator product
    G_k ... G_1, list G_1 first.
    """

    __slots__ = ("n_qubits", "gates")

    def __init__(self, n_qubits: int):
        if n_qubits < 1:
            raise ValueError("need at least one wire")
        self.n_qubits = n_qubits
        self.gates: list[Gate] = []

    def _validate(self, g: Gate) -> None:
        wires = (*g.controls, g.target)
        if len(set(wires)) != len(wires):
            raise ValueError(f"gate {g.to_line()!r} reuses a wire")
        for w in wires:
            if not 1 <= w <= self.n_qubits:
                raise ValueError(f"wire {w} out of range 1..{self.n_qubits}")

    def x(self, target: int) -> "GateCircuit":
        return self._push(Gate((), target))

    def cnot(self, control: int, target: int) -> "GateCircuit":
        return self._push(Gate((control,), target))

    def toffoli(self, c1: int, c2: int, target: int) -> "GateCircuit":
        return self._push(Gate((c1, c2), target))

    def mcx(self, controls: Sequence[int], target: int) -> "GateCircuit":
        return self._push(Gate(tuple(controls), target))

    def _push(self, g: Gate) -> "GateCircuit":
        self._validate(g)
        self.gates.append(g)
        return self

    def __len__(self) -> int:
        return len(self.gates)

    @property
    def nonclifford_count(self) -> int:
        return sum(1 for g in self.gates if len(g.controls) >= 2)

    def count(self, name: str) -> int:
        return sum(1 for g in self.gates if g.name == name)

    def to_text(self) -> str:
        return "\n".join(g.to_line() for g in self.gates)

    @classmethod
    def from_text(cls, n_qubits: int, text: str) -> "GateCircuit":
        circuit = cls(n_qubits)
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            kind, wires = tokens[0].upper(), []
            for tok in tokens[1:]:
                try:
                    wires.append(int(tok))
                except ValueError:
                    raise ValueError(f"line {line_no}: invalid wire {tok!r}") from None
            expected = {"X": 1, "CNOT": 2, "TOFFOLI": 3}
            if kind in expected and len(wires) != expected[kind]:
                raise ValueError(f"line {line_no}: {kind} takes {expected[kind]} wire(s)")
            if kind == "MCX" and len(wires) < 3:
                raise ValueError(f"line {line_no}: MCX needs at least two controls")
            if kind not in ("X", "CNOT", "TOFFOLI", "MCX"):
                raise ValueError(f"line {line_no}: unknown gate {tokens[0]!r}")
            try:
                circuit._push(Gate(tuple(wires[:-1]), wires[-1]))
            except ValueError as exc:
                raise ValueError(f"line {line_no}: {exc}") from None
        return circuit


def permutation_from_circuit(circuit: GateCircuit) -> BasisPermutation:
    """Compose the gates' actions on basis indices, first gate acting first."""
    n = circuit.n_qubits
    _check_storage_cap(n)
    state = np.arange(1 << n, dtype=np.int64)
    for g in circuit.gates:
        tbit = 1 << (n - g.target)
        if g.controls:
            cmask = 0
            for c in g.controls:
                cmask |= 1 << (n - c)
            state = np.where((state & cmask) == cmask, state ^ tbit, state)
        else:
            state = state ^ tbit
    # state[i] is the image of basis state i after the whole circuit
    return BasisPermutation(state)


@dataclass(frozen=True)
class AffineMapF2:
    """The invertible affine map x -> Mx (+) b over GF(2).  A linear
    encoding is the map with b = 0 (``encodings.LinearEncodingF2``)."""

    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        m, b = np.asarray(self.matrix), np.asarray(self.offset)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or b.shape != (m.shape[0],):
            raise ValueError("matrix must be square and offset a matching vector")
        if not all(((a == 0) | (a == 1)).all() for a in (m, b)):
            raise ValueError("matrix and offset entries must be 0 or 1")
        m, b = np.array(m, dtype=np.uint8), np.array(b, dtype=np.uint8)  # own copies
        ops = f2._row_ops(m)
        if ops is None:
            raise InvalidEncodingError("encoding matrix is singular over GF(2), not invertible")
        m.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "offset", b)
        object.__setattr__(self, "_offset_mask", f2.vec_to_mask(b))
        # M's one elimination, kept: reversed, its row additions are the
        # CNOTs of M (``encodings.gl_to_cnot_circuit``).
        object.__setattr__(self, "row_ops", ops)
        # Row masks of M^-1 and the mask of M^-1 b: those additions replayed
        # on the identity's rows and on b.
        n = m.shape[0]
        rows = [1 << (n - 1 - i) for i in range(n)]
        bits = b.tolist()
        for src, dst in zip(ops[0::2], ops[1::2]):
            rows[dst] ^= rows[src]
            bits[dst] ^= bits[src]
        object.__setattr__(self, "_inverse_masks", (tuple(rows), f2.vec_to_mask(bits)))

    @property
    def n_qubits(self) -> int:
        return self.matrix.shape[0]

    # Conjugation tables, computed once per instance: the matrix is read-only.
    @cached_property
    def _column_masks(self) -> tuple[int, ...]:
        return tuple(f2.rows_to_masks(self.matrix.T))

    def apply(self, states):
        """Mx (+) b: for a Python int of any width, or elementwise for an
        integer array.  Raises ``DimensionError`` as ``BasisPermutation.apply`` does."""
        _check_states(states, self.n_qubits)
        return f2._xor_columns(self._column_masks, states) ^ self._offset_mask

    @property
    def affine(self) -> "AffineMapF2":
        """This map: see ``BasisPermutation.affine``."""
        return self

    def to_permutation(self) -> BasisPermutation:
        _check_storage_cap(self.n_qubits)
        return BasisPermutation(self.apply(np.arange(1 << self.n_qubits, dtype=np.int64)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, AffineMapF2):
            return NotImplemented
        return np.array_equal(self.matrix, other.matrix) and np.array_equal(
            self.offset, other.offset
        )


def classify_affine(p: BasisPermutation) -> Optional[AffineMapF2]:
    """Return the affine map realizing p, or None if p is not affine.

    Candidate: b = p(0) and column i = p(e_i) (+) b; the candidate is then
    verified against every one of the 2^n states, so the answer is exact.
    """
    n = p.n_qubits
    b_mask = int(p.image[0])
    col_masks = [int(p.image[1 << (n - 1 - i)]) ^ b_mask for i in range(n)]
    predicted = f2._xor_columns(col_masks, np.arange(p.dim, dtype=np.int64)) ^ b_mask
    if not np.array_equal(predicted, p.image):
        return None
    matrix = f2.masks_to_matrix(col_masks, n).T
    return AffineMapF2(matrix, f2.mask_to_vec(b_mask, n))


def conjugate_pauli_affine(a: AffineMapF2, p: PauliString) -> PauliString:
    """Closed-form U P U^dag for the basis permutation U: |x> -> |Mx (+) b>.

    The X part maps by M, the Z part by (M^-1)^T, and the phase picks up
    (-1)^(z . M^-1 b) together with the X/Z overlap normalization.
    """
    n = a.n_qubits
    if p.n_qubits != n:
        raise DimensionError("Pauli string and affine map act on different registers")
    x_new = f2._xor_columns(a._column_masks, p.x_bits)
    inverse_rows, minv_b = a._inverse_masks  # the rows of M^-1 are the columns of (M^-1)^T
    z_new = f2._xor_columns(inverse_rows, p.z_bits)
    sign_flips = (p.z_bits & minv_b).bit_count() % 2

    overlap_delta = (p.x_bits & p.z_bits).bit_count() - (x_new & z_new).bit_count()
    if overlap_delta % 2 != 0:
        raise AssertionError("affine conjugation produced a complex phase")
    phase = (p.phase + overlap_delta + 2 * sign_flips) % 4
    return PauliString(n, x_new, z_new, phase)


def conjugate_pauli_dense(
    p: BasisPermutation, s: PauliSum, dense_cap: int = DENSE_CAP, *, fixed=()
) -> PauliSum:
    """Exact U S U^dag for an arbitrary basis permutation U or, given
    ``fixed``, (qubit, value) pairs such as a ``RedundancyReport``'s, its
    projection <fixed| U S U^dag |fixed> on the other qubits.

    Each conjugated Pauli term is a generalized permutation matrix (one
    non-zero per column).  The terms' column values are scattered, a chunk
    of terms at a time, into one displacement-by-column array
    G[row (+) column, column]; one batched Walsh-Hadamard transform over the
    rows of G then yields the Z coefficients of every displacement at once
    (``_decompose_displacements`` in :mod:`fermiperm.pauli`).  Given
    ``fixed``, G holds only the displacements with no X on a fixed qubit,
    the terms the projection keeps, so each fixed qubit halves G and the
    transform; each block of transformed rows is then projected, one fixed
    qubit at a time in descending qubit order, before any term is
    gathered.  The result is ``project_fixed_qubit`` run on the full result
    for each fixed qubit in that order, bit for bit and in the same order,
    and the pairs are checked as it checks them.

    A chunk is a (terms x 2^n) block of entries, ``pauli._BLOCK_ENTRIES``
    in all, added into G with ``np.add.at`` in term-major order, so every
    entry sums its terms in the given order, starting from zero; a sum past
    the largest float raises ``ValueError``.  Cost O(T 2^n + n 4^n) for T
    input terms; the only 2^n-wide arrays of more than a chunk are G and a
    ``bool`` mask of its survivors, and ``dense_cap`` bounds n.  The result
    holds the surviving terms as arrays; without ``fixed``, distinct keys
    row-major in (x, z).
    """
    n = p.n_qubits
    if s.n_qubits != n:
        raise DimensionError("Pauli sum and permutation act on different registers")
    _check_dense_cap(n, dense_cap)
    _check_fixed(n, fixed)
    dim = p.dim
    mask = _fixed_mask(n, fixed)
    cols = np.arange(dim, dtype=np.int64)
    labels = cols[(cols & mask) == 0]  # the displacements G keeps, increasing
    row_of = np.zeros(dim, dtype=np.int64)
    row_of[labels] = np.arange(labels.size)
    p_inv = p.inverse().image
    g = np.zeros((labels.size, dim), dtype=complex)
    flat = g.reshape(-1)
    x, z, coeff = s._arrays
    x, z = x.astype(np.int64), z.astype(np.int64)
    amps = coeff * _I_POWERS[_popcount_u64(x & z) % 4]
    step = _block_rows(dim)
    with _overflow_raises("the dense conjugation"):
        for start in range(0, amps.size, step):
            chunk = slice(start, start + step)
            # column v of U P U^dag holds amp * (-1)^(z.u) at row p(u (+) x),
            # u = p^-1(v): one entry per column
            disp = p.image[p_inv ^ x[chunk, None]] ^ cols
            values = amps[chunk, None] * (1.0 - 2.0 * parity_u64(p_inv & z[chunk, None]))
            where = row_of[disp] * dim + cols
            if mask:
                kept = (disp & mask) == 0
                where, values = where[kept], values[kept]
            np.add.at(flat, where.ravel(), values.ravel())
    return PauliSum._from_arrays(n - len(fixed), *_decompose_displacements(g, fixed))
