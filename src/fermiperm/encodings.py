"""Fermionic operators, Fock states, and concrete fermion-to-qubit encodings.

Provides the Jordan-Wigner and parity-basis Majorana operators, arbitrary
invertible GF(2)-linear state encodings (Jordan-Wigner is the identity
matrix, the parity basis the lower-triangular all-ones matrix), ladder
operator encoding, and synthesis of the CNOT circuit realizing any
invertible linear encoding on the basis states.

Modes are 1-based; mode 1 is the leftmost entry of an occupancy string and
the most significant bit of its integer form, matching the qubit convention
in :mod:`fermiperm.pauli`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import f2
from .errors import DimensionError, HamiltonianParseError, NumberConservationError
from .pauli import PRUNE_TOL, PauliString, PauliSum, _merge, _products
from .permutations import AffineMapF2, GateCircuit, conjugate_pauli_affine


@dataclass(frozen=True)
class FockState:
    """Occupancy string |n1 n2 ... nN>, stored as an integer bit mask."""

    n_modes: int
    occupancy: int

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError("need at least one mode")
        if self.occupancy & ~((1 << self.n_modes) - 1):
            raise ValueError("occupancy mask exceeds the register")

    @classmethod
    def from_string(cls, bits: str) -> "FockState":
        return cls(len(bits), int(bits, 2))

    def to_string(self) -> str:
        return format(self.occupancy, f"0{self.n_modes}b")


@dataclass(frozen=True)
class FermionTerm:
    """coefficient * product of ladder operators, leftmost written first.

    ``ops`` is a sequence of (mode, dagger) pairs; when the term acts on a
    ket the rightmost operator applies first.
    """

    coefficient: complex
    ops: tuple[tuple[int, bool], ...]

    @classmethod
    def make(cls, coefficient: complex, ops: Iterable[tuple[int, bool]]) -> "FermionTerm":
        return cls(complex(coefficient), tuple((int(m), bool(d)) for m, d in ops))

    def dagger(self) -> "FermionTerm":
        flipped = tuple((m, not d) for m, d in reversed(self.ops))
        return FermionTerm(self.coefficient.conjugate(), flipped)

    def is_number_conserving(self) -> bool:
        raised = sum(1 for _, d in self.ops if d)
        return raised * 2 == len(self.ops)

    def describe(self) -> str:
        if not self.ops:
            return f"{self.coefficient:g} * 1"
        names = " ".join(f"a{'+' if d else ''}_{m}" for m, d in self.ops)
        return f"({self.coefficient.real:g}{self.coefficient.imag:+g}i) {names}"


@dataclass(frozen=True)
class FermionOperator:
    """A finite sum of :class:`FermionTerm`."""

    terms: tuple[FermionTerm, ...] = field(default_factory=tuple)

    @classmethod
    def from_terms(cls, terms: Iterable[FermionTerm]) -> "FermionOperator":
        return cls(tuple(terms))

    @classmethod
    def one_body(cls, coefficients: np.ndarray) -> "FermionOperator":
        """sum_pq h[p-1, q-1] a+_p a_q from a coefficient matrix."""
        h = np.asarray(coefficients, dtype=complex)
        terms = []
        for p in range(h.shape[0]):
            for q in range(h.shape[1]):
                if h[p, q] != 0:
                    terms.append(FermionTerm.make(h[p, q], [(p + 1, True), (q + 1, False)]))
        return cls(tuple(terms))

    @classmethod
    def number_operator(cls, n_modes: int) -> "FermionOperator":
        return cls.one_body(np.eye(n_modes))

    def __add__(self, other: "FermionOperator") -> "FermionOperator":
        return FermionOperator(self.terms + other.terms)

    def dagger(self) -> "FermionOperator":
        return FermionOperator(tuple(t.dagger() for t in self.terms))

    def hermitized(self) -> "FermionOperator":
        return self + self.dagger()

    def max_mode(self) -> int:
        return max((m for t in self.terms for m, _ in t.ops), default=0)

    def is_number_conserving(self) -> bool:
        return all(t.is_number_conserving() for t in self.terms)

    def require_number_conserving(self) -> None:
        for t in self.terms:
            if not t.is_number_conserving():
                raise NumberConservationError(
                    f"term does not conserve particle number: {t.describe()}", term=t
                )


class LinearEncodingF2(AffineMapF2):
    """An invertible GF(2) matrix M encoding occupancies as x = M n: the
    affine map x -> Mx (+) b with b = 0, checked by its one elimination."""

    def __init__(self, matrix: np.ndarray):
        super().__init__(matrix, np.zeros(np.shape(matrix)[:1], dtype=np.uint8))

    @property
    def n_modes(self) -> int:
        return self.n_qubits

    @classmethod
    def jordan_wigner(cls, n_modes: int) -> "LinearEncodingF2":
        return cls(f2.identity(n_modes))

    @classmethod
    def parity(cls, n_modes: int) -> "LinearEncodingF2":
        return cls(f2.parity_matrix(n_modes))


def jw_majorana(j: int, primed: bool, n_modes: int) -> PauliString:
    """Jordan-Wigner Majorana: Z on qubits 1..j-1 then X (or Y if primed) on j."""
    if not 1 <= j <= n_modes:
        raise DimensionError(f"mode {j} out of range 1..{n_modes}")
    letters = "Z" * (j - 1) + ("Y" if primed else "X") + "I" * (n_modes - j)
    return PauliString.from_letters(letters)


def parity_majorana(j: int, primed: bool, n_modes: int) -> PauliString:
    """Parity-basis Majorana: Z on j-1 (absent if primed or j=1), then X or Y
    on j, then X on every later qubit."""
    if not 1 <= j <= n_modes:
        raise DimensionError(f"mode {j} out of range 1..{n_modes}")
    if primed:
        letters = "I" * (j - 1) + "Y" + "X" * (n_modes - j)
    else:
        letters = "I" * (j - 2) + ("Z" if j > 1 else "") + "X" + "X" * (n_modes - j)
    return PauliString.from_letters(letters)


def jw_majoranas(n_modes: int) -> list[tuple[PauliString, PauliString]]:
    return [
        (jw_majorana(j, False, n_modes), jw_majorana(j, True, n_modes))
        for j in range(1, n_modes + 1)
    ]


def parity_majoranas(n_modes: int) -> list[tuple[PauliString, PauliString]]:
    return [
        (parity_majorana(j, False, n_modes), parity_majorana(j, True, n_modes))
        for j in range(1, n_modes + 1)
    ]


def encode_state(enc: AffineMapF2, state: FockState) -> FockState:
    """The encoded basis state M n (+) b of the occupancy vector n over
    GF(2), offset included: ``enc.apply`` on the occupancy integer."""
    if enc.n_qubits != state.n_modes:
        raise DimensionError("encoding and state have different mode counts")
    return FockState(state.n_modes, enc.apply(state.occupancy))


def gl_to_cnot_circuit(enc: AffineMapF2) -> GateCircuit:
    """Synthesize a CNOT circuit whose basis action maps |x> to |Mx>, for
    the linear part M of the map (its offset is not read).

    The row additions row_t += row_c of the map's one elimination, kept as
    ``enc.row_ops``, reversed: each is a CNOT with control c+1, target t+1.
    """
    circuit = GateCircuit(enc.n_qubits)
    ops = enc.row_ops
    for src, dst in zip(ops[-2::-2], ops[::-2]):
        circuit.cnot(src + 1, dst + 1)
    return circuit


def _coerce_majorana(op) -> PauliSum:
    if isinstance(op, PauliString):
        return PauliSum.from_pauli(op)
    return op


def encode_ladder(
    j: int,
    dagger: bool,
    majoranas: Sequence[tuple[PauliString, PauliString]],
) -> PauliSum:
    """Ladder operator from a Majorana pair table:
    a+_j = (g_j - i g'_j)/2 and a_j = (g_j + i g'_j)/2."""
    if not 1 <= j <= len(majoranas):
        raise DimensionError(f"no Majorana pair for mode {j}")
    g, gp = majoranas[j - 1]
    sign = -1j if dagger else 1j
    return _coerce_majorana(g).scale(0.5) + _coerce_majorana(gp).scale(0.5 * sign)


def encode_fermion_operator(
    h: FermionOperator,
    majoranas: Sequence[tuple[PauliString, PauliString]],
) -> PauliSum:
    """Encode each term as the product of its encoded ladder operators, in
    the order written, and return the sum.  The products are added in place
    into one dict, with ``PauliSum``'s merge and prune, so the result is the
    left-to-right ``total + product`` bit for bit, in linear time.

    Finite coefficients can still overflow once they are added up; a sum
    with a coefficient that is not finite raises ``ValueError``.  Every
    product is finite and a sum of finite values never reaches NaN, so one
    check of the result is enough."""
    n_modes = len(majoranas)
    if not n_modes:
        raise DimensionError("no Majorana pairs: need at least one mode to encode")
    if h.max_mode() > n_modes:
        raise DimensionError(
            f"operator touches mode {h.max_mode()} but only {n_modes} are encoded"
        )
    n_qubits = _coerce_majorana(majoranas[0][0]).n_qubits
    ops = dict.fromkeys(op for term in h.terms for op in term.ops)
    ladders = {op: list(encode_ladder(*op, majoranas).items()) for op in ops}
    total: dict[tuple[int, int], complex] = {}
    for term in h.terms:
        acc = _merge([((0, 0), term.coefficient)])
        for op in term.ops:
            acc = _merge(_products(acc.items(), ladders[op]))
        for key, c in acc.items():
            total[key] = (0.0 + total[key]) + c if key in total else 0.0 + c
            if not abs(total[key]) > PRUNE_TOL:  # not <=: NaN is pruned too
                del total[key]
    out = PauliSum(n_qubits, total)
    overflowed = np.count_nonzero(~np.isfinite(out._arrays[2]))
    if overflowed:
        raise ValueError(
            f"the encoded sum overflows: {overflowed} of its {len(out)} coefficients are not finite"
        )
    return out


def linear_encoding_majoranas(a: AffineMapF2) -> list[tuple[PauliString, PauliString]]:
    """Majoranas of the encoding |x> -> |Mx (+) b>: the Jordan-Wigner
    Majoranas conjugated in closed form by that basis permutation, one
    signed Pauli string each, straight from M and b.  No 2^N table is
    built, so any number of modes works."""
    return [
        (conjugate_pauli_affine(a, g), conjugate_pauli_affine(a, gp))
        for g, gp in jw_majoranas(a.n_qubits)
    ]


def random_one_body(n_modes: int, rng: np.random.Generator) -> FermionOperator:
    """Random Hermitian one-body number-conserving operator: the Hermitian
    part of a matrix with real and imaginary parts uniform in [-1, 1]."""
    h = rng.uniform(-1.0, 1.0, size=(n_modes, n_modes)) + 1j * rng.uniform(
        -1.0, 1.0, size=(n_modes, n_modes)
    )
    return FermionOperator.one_body((h + h.conj().T) / 2)


def parse_hamiltonian(
    text: str, n_modes: int | None = None, hermitize: bool = False
) -> FermionOperator:
    """Parse the fermionic Hamiltonian text format.

    Lines are either ``p q re im`` for (re+im*i) a+_p a_q or
    ``p q r s re im`` for (re+im*i) a+_p a+_q a_r a_s; '#' starts a comment
    and modes are 1-based.  Both parts must be finite: ``nan``, ``inf`` or
    an overflowing ``1e400`` raises ``HamiltonianParseError``.  Hermiticity
    is the caller's responsibility unless ``hermitize`` is set, which adds
    the conjugate transpose of every parsed term.
    """
    terms = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) == 4:
            n_ops = 2
        elif len(tokens) == 6:
            n_ops = 4
        else:
            raise HamiltonianParseError(
                f"line {line_no}: expected 4 or 6 fields, got {len(tokens)}",
                line_no=line_no,
            )
        try:
            modes = [int(t) for t in tokens[:n_ops]]
            re_part, im_part = float(tokens[n_ops]), float(tokens[n_ops + 1])
        except ValueError:
            raise HamiltonianParseError(
                f"line {line_no}: could not parse fields {tokens!r}", line_no=line_no
            ) from None
        for m in modes:
            if m < 1 or (n_modes is not None and m > n_modes):
                raise HamiltonianParseError(
                    f"line {line_no}: mode {m} out of range", line_no=line_no
                )
        if not (math.isfinite(re_part) and math.isfinite(im_part)):
            raise HamiltonianParseError(
                f"line {line_no}: coefficient {' '.join(tokens[n_ops:])} is not finite",
                line_no=line_no,
            )
        coeff = complex(re_part, im_part)
        if n_ops == 2:
            ops = [(modes[0], True), (modes[1], False)]
        else:
            ops = [
                (modes[0], True),
                (modes[1], True),
                (modes[2], False),
                (modes[3], False),
            ]
        terms.append(FermionTerm.make(coeff, ops))
    op = FermionOperator(tuple(terms))
    return op.hermitized() if hermitize else op
