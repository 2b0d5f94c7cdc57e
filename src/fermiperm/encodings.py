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
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from . import f2
from .errors import DimensionError, HamiltonianParseError, NumberConservationError
from .pauli import (
    PauliString,
    PauliSum,
    _ZERO,
    _above_tol,
    _fold,
    _key_groups,
    _popcount,
    _row_products,
)
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

    def describe(self) -> str:
        if not self.ops:
            return f"{self.coefficient:g} * 1"
        names = " ".join(f"a{'+' if d else ''}_{m}" for m, d in self.ops)
        return f"({self.coefficient.real:g}{self.coefficient.imag:+g}i) {names}"


@dataclass(frozen=True)
class FermionOperator:
    """A finite sum of :class:`FermionTerm`.

    Its array form, built once when the operator is made, is what every
    stage reads: ``_arrays`` holds the ops as ``modes`` (``int64``) and
    ``daggers`` (``bool``), one row a term, padded after the term's own ops
    to the longest term (mode 0, not raised), each term's op count as
    ``lengths`` and the coefficients as ``coeff`` (``complex``), in term
    order.  ``terms`` stays the operator's value; the form is not compared.
    """

    terms: tuple[FermionTerm, ...] = field(default_factory=tuple)
    _arrays: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        terms = self.terms
        lengths = np.array([len(t.ops) for t in terms], dtype=np.int64)
        filled = np.arange(lengths.max(initial=0)) < lengths[:, None]
        ops = chain.from_iterable(chain.from_iterable(t.ops for t in terms))
        ops = np.fromiter(ops, np.int64, 2 * int(lengths.sum())).reshape(-1, 2)
        modes = np.zeros(filled.shape, dtype=np.int64)
        daggers = np.zeros(filled.shape, dtype=bool)
        modes[filled], daggers[filled] = ops[:, 0], ops[:, 1]
        coeff = np.array([t.coefficient for t in terms], dtype=complex)
        for a in (modes, daggers, lengths, coeff):
            a.setflags(write=False)
        object.__setattr__(self, "_arrays", (modes, daggers, lengths, coeff))

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

    def __add__(self, other: "FermionOperator") -> "FermionOperator":
        return FermionOperator(self.terms + other.terms)

    def hermitized(self) -> "FermionOperator":
        return FermionOperator(self.terms + tuple(t.dagger() for t in self.terms))

    def max_mode(self) -> int:
        return int(self._arrays[0].max(initial=0))

    def require_number_conserving(self) -> None:
        """Raise unless every term has as many raising as lowering operators."""
        _, daggers, lengths, _ = self._arrays
        broken = np.flatnonzero(2 * np.count_nonzero(daggers, axis=1) != lengths)
        if broken.size:
            t = self.terms[broken[0]]
            raise NumberConservationError(
                f"term does not conserve particle number: {t.describe()}", term=t
            )


class LinearEncodingF2(AffineMapF2):
    """An invertible GF(2) matrix M encoding occupancies as x = M n: the
    affine map x -> Mx (+) b with b = 0, checked by its one elimination."""

    def __init__(self, matrix: np.ndarray):
        super().__init__(matrix, np.zeros(np.shape(matrix)[:1], dtype=np.uint8))

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
    the order written, and return the sum.

    The result is the dict route's, bit for bit (the tests keep that route
    as their reference): per term, a dict merge of the products of the
    coefficient and each ladder in turn, then each term's keys added in
    order into one dict as ``(0.0 + total) + c``, a key whose sum is at
    most ``PRUNE_TOL`` (or NaN) deleted and put back at the end when it
    comes again.  So the keys, their ``items()`` order and every bit of
    every part, signed zeros included, are that route's.

    It runs on the operator's array form, one group of terms of equal
    length at a time, with the term algebra of :mod:`fermiperm.pauli`.
    The ladder table holds ``encode_ladder``'s terms (``_ladder_table``).
    Each op multiplies every term's current strings by its ladder's at
    once (``_row_products``); ``_fold`` then merges each term's products.
    The terms' strings, in term order, are added by ``_fold`` after one
    stable sort by key.  Each ``0.0 +`` is ``pauli._ZERO +``, so it adds
    to the parts this interpreter's ``0.0 + c`` adds to.

    Finite coefficients can still overflow once they are added up; a sum
    with a coefficient that is not finite raises ``ValueError``.  Every
    product is finite and a sum of finite values never reaches NaN, so one
    check of the result is enough."""
    n_modes = len(majoranas)
    if not n_modes:
        raise DimensionError("no Majorana pairs: need at least one mode to encode")
    modes, daggers, lengths, coeff = h._arrays
    if h.max_mode() > n_modes:
        raise DimensionError(
            f"operator touches mode {h.max_mode()} but only {n_modes} are encoded"
        )
    used = modes[np.arange(modes.shape[1]) < lengths[:, None]]
    if np.any(used < 1):
        raise DimensionError(f"no Majorana pair for mode {used[used < 1][0]}")
    n_qubits = majoranas[0][0].n_qubits
    table = _ladder_table(majoranas, n_qubits)
    rows = 2 * (modes - 1) + daggers  # each op's ladder row; padding is never read
    masks = np.zeros(0, dtype=table[0].dtype)
    pieces = [(np.zeros(0, dtype=np.int64), masks, masks, np.zeros(0, dtype=complex))]
    for length in np.unique(lengths).tolist():
        terms = np.flatnonzero(lengths == length)
        term, *strings = _encode_equal_length(
            n_qubits, table, rows[terms, :length], coeff[terms]
        )
        pieces.append((terms[term], *strings))
    term, x, z, c = (np.concatenate(a) for a in zip(*pieces))
    if len(pieces) > 2:  # back in term order
        order = np.argsort(term, kind="stable")
        x, z, c = x[order], z[order], c[order]
    pos, out = _fold(c, *_key_groups(n_qubits, x, z), prune_each=True)
    overflowed = np.count_nonzero(~np.isfinite(out))
    if overflowed:
        raise ValueError(
            f"the encoded sum overflows: {overflowed} of its {out.size} coefficients are not finite"
        )
    return PauliSum._from_arrays(n_qubits, x[pos], z[pos], out)


def _ladder_table(majoranas, n_qubits: int) -> tuple[np.ndarray, ...]:
    """Every mode's two encoded ladders: row 2(j - 1) + dagger holds a_j or
    a+_j as ``x``, ``z`` masks, ``c`` coefficients and ``yc``, the popcount
    of x & z, padded to the longest ladder, with ``count`` terms each.

    These are ``encode_ladder``'s terms, bit for bit, in one pass over
    every Majorana's terms as a sum (a string's one term is ``0.0 + 1.0 *
    coefficient``, as ``PauliSum.from_pauli`` merges it): each is scaled
    as ``c * factor`` and pruned, and each ladder's g then g' terms are
    merged by one ``_fold``.  ``scale``'s own ``0.0 +`` is left out, as it
    changes no bit: the fold adds 0.0 to each key's first value, and where
    a later value has a -0.0 that ``0.0 +`` would turn to 0.0, the running
    sum's part is not -0.0."""
    if any(m.n_qubits != n_qubits for pair in majoranas for m in pair):
        raise DimensionError("the Majoranas act on registers of different sizes")
    row, keys, values = [], [], []
    for j, pair in enumerate(majoranas):
        terms = [list(m.items()) if isinstance(m, PauliSum)
                 else [((m.x_bits, m.z_bits), 0.0 + 1.0 * m.coefficient)] for m in pair]
        for dagger, sign in enumerate((1j, -1j)):  # a_j, then a+_j
            for m_terms, factor in zip(terms, (0.5, 0.5 * sign)):
                for key, c in m_terms:
                    row.append(2 * j + dagger)
                    keys.append(key)
                    values.append(c * factor)
    row = np.array(row, dtype=np.int64)
    keys = np.array(keys, dtype=np.uint64 if n_qubits <= 64 else object).reshape(-1, 2)
    values = np.array(values, dtype=complex)
    keep = _above_tol(values)
    row, x, z, values = row[keep], keys[keep, 0], keys[keep, 1], values[keep]
    pos, values = _fold(values, *_key_groups(n_qubits, x, z, row), prune_each=False)
    row, x, z = row[pos], x[pos], z[pos]
    count = np.bincount(row, minlength=2 * len(majoranas))
    col = np.arange(row.size) - (np.cumsum(count) - count)[row]
    table = [np.zeros((count.size, count.max(initial=0)), dtype=a.dtype) for a in (x, z, values)]
    for t, a in zip(table, (x, z, values)):
        t[row, col] = a
    return (*table, _popcount(table[0] & table[1]), count)


def _encode_equal_length(n: int, table, rows: np.ndarray, coeff: np.ndarray):
    """Each term's encoded strings, for terms with ``rows.shape[1]`` ops:
    ``term`` (index into ``coeff``), ``x``, ``z`` and the ``complex``
    coefficients, term by term, each term's keys in the order its dict
    route first sees them.

    Every term starts as ``0.0 + coefficient`` on the identity, pruned.
    Each op then multiplies every current string by every term of its
    ladder (``_row_products``), and ``_fold`` merges each term's products
    as a dict does: in first-seen order, summed from ``0.0 +`` the first,
    pruned."""
    x_table, z_table, c_table, yc_table, count = table
    width = x_table.shape[1]
    full = bool(np.all(count == width))
    term = np.arange(len(coeff))
    x = z = np.zeros(len(coeff), dtype=x_table.dtype)
    yc = np.zeros(len(coeff), dtype=np.int64)
    c = _ZERO + coeff
    keep = _above_tol(c)
    term, x, z, yc, c = (a[keep] for a in (term, x, z, yc, c))
    for op in range(rows.shape[1]):
        row = rows[term, op]
        ladder = (t[row] for t in (x_table, z_table, yc_table, c_table))
        x, z, yc, c = (a.ravel() for a in _row_products(x, z, yc, c, *ladder))
        term = np.repeat(term, width)
        if not full:
            real = (np.arange(width) < count[row][:, None]).ravel()
            term, x, z, yc, c = (a[real] for a in (term, x, z, yc, c))
        pos, c = _fold(c, *_key_groups(n, x, z, term), prune_each=False)
        term, x, z, yc = term[pos], x[pos], z[pos], yc[pos]
    return term, x, z, c


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
    the conjugate transpose of every parsed term before the array form is built.
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
    daggers = [t.dagger() for t in terms] if hermitize else []
    return FermionOperator(tuple(terms + daggers))
