"""Exact Pauli-string and Pauli-sum algebra with a dense-matrix oracle.

Representation conventions, used consistently across the package:

* Qubit 1 is the leftmost letter of a string like ``ZXIX`` and the most
  significant bit of a computational-basis index, so the ket |n1 n2 ... nN>
  is the integer ``n1*2^(N-1) + ... + nN``.
* A :class:`PauliString` stores bit masks ``x_bits``/``z_bits`` (bit for
  qubit q is ``1 << (n - q)``) plus an integer ``phase`` in {0,1,2,3}.
  The operator it denotes is exactly ``i**phase`` times the tensor product
  of the standard letters, with the letter at qubit q given by
  (x,z) = (0,0) -> I, (1,0) -> X, (0,1) -> Z, (1,1) -> Y.
* A :class:`PauliSum` maps (x_bits, z_bits) keys to complex coefficients;
  like terms are always merged and coefficients with magnitude below
  ``PRUNE_TOL`` are dropped by arithmetic.  It stores its terms only as
  read-only parallel ``x``/``z``/``coeff`` arrays, in the order the keys
  were first merged; ``items()`` reads them in that order.

The term algebra, shared by ``PauliSum`` and the encoder, lives here once:
``_row_products`` multiplies strings and ``_fold`` merges like keys, bit for
bit as Python's complex arithmetic and a dict merge, the tests' reference.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from .errors import DimensionError, ResourceError

DENSE_CAP = 12
PRUNE_TOL = 1e-12

# i^k for k = 0..3, indexed by k
_I_POWERS = np.array([1, 1j, -1, -1j])

# numpy's _ZERO + c is this interpreter's 0.0 + c for a complex c, signed
# zeros included.  Up to Python 3.13 the 0.0 is added to both parts; from
# 3.14 (C99's mixed-mode rule) to the real part only, which adding -0.0 to
# the imaginary part reproduces.
_ZERO = 0.0 + complex(0.0, -0.0)
# x + _ABSENT is x, signed zeros included: the partner of a term that is not there
_ABSENT = complex(-0.0, -0.0)

_LETTER_TO_XZ = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_XZ_TO_LETTER = {v: k for k, v in _LETTER_TO_XZ.items()}


def _check_dense_cap(n_qubits: int, cap: int = DENSE_CAP) -> None:
    if n_qubits > cap:
        raise ResourceError(f"dense operations are capped at {cap} qubits, got {n_qubits}")


def _check_fixed(n: int, fixed) -> None:
    """``project_fixed_qubit``'s checks on (qubit, value) pairs fixed at once
    on n qubits: every qubit in 1..n and fixed once, one qubit left at
    least, every value 0 or 1."""
    qubits = [q for q, _ in fixed]
    for q in qubits:
        if not 1 <= q <= n:
            raise DimensionError(f"qubit {q} out of range 1..{n}")
    for q in qubits:
        if qubits.count(q) > 1:
            raise DimensionError(f"qubit {q} is fixed twice")
    if len(qubits) >= n:
        raise DimensionError("cannot project the last remaining qubit away")
    for q, value in fixed:
        if value not in (0, 1):
            raise ValueError(f"qubit {q} can only be fixed to 0 or 1, got {value!r}")


def _fixed_mask(n: int, fixed) -> int:
    """The register mask of the qubits of (qubit, value) pairs, qubit q at bit n - q."""
    return sum(1 << (n - q) for q, _ in fixed)


def parity_u64(values: np.ndarray) -> np.ndarray:
    """Elementwise popcount parity (0 or 1) of an integer array, all 64 bits."""
    return _popcount_u64(values) & 1


def _popcount_u64(values: np.ndarray) -> np.ndarray:
    """Elementwise popcount of an integer array, all 64 bits: numpy's
    ``bitwise_count`` (numpy 2.0 on) on the bits as ``uint64``, else SWAR
    folding."""
    v = np.array(values, dtype=np.uint64)
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(v).astype(np.int64)
    m1 = np.uint64(0x5555555555555555)
    m2 = np.uint64(0x3333333333333333)
    m4 = np.uint64(0x0F0F0F0F0F0F0F0F)
    v -= (v >> np.uint64(1)) & m1
    v = (v & m2) + ((v >> np.uint64(2)) & m2)
    v = (v + (v >> np.uint64(4))) & m4
    for shift in (8, 16, 32):
        v += v >> np.uint64(shift)
    return (v & np.uint64(0x7F)).astype(np.int64)


def _key_groups(n: int, x: np.ndarray, z: np.ndarray, term: np.ndarray | None = None):
    """A stable order of the terms that puts equal keys (x, z), or (term,
    x, z) with ``term`` nondecreasing, together, each key's terms in their
    given order, and where in that order each group starts; masks have at
    most n bits.  One combined key (term << 2n) | (x << n) | z is sorted
    where it fits a ``uint64`` or the masks are Python ints, and
    ``lexsort`` takes the parts otherwise."""
    word = x.dtype.type
    extra = 0 if term is None or not term.size else int(term[-1]).bit_length()
    new = np.empty(x.size, dtype=bool)
    new[:1] = True
    if x.dtype == object or 2 * n + extra <= 64:
        key = x << word(n)
        key |= z
        if extra:
            key |= term.astype(x.dtype) << word(2 * n)
        order = np.argsort(key, kind="stable")
        key.sort(kind="stable")  # in place: no second key array beside ``order``
        np.not_equal(key[1:], key[:-1], out=new[1:])
        del key
    else:
        cols = (z, x) if term is None else (z, x, term)
        order = np.lexsort(cols)
        new[1:] = False
        for col in cols:
            col = col[order]
            new[1:] |= col[1:] != col[:-1]
    return order, np.flatnonzero(new)


def _popcount(masks: np.ndarray) -> np.ndarray:
    """Elementwise popcount of ``uint64`` masks or of Python-int masks."""
    if masks.dtype != object:
        return _popcount_u64(masks)
    counts = [int(m).bit_count() for m in masks.ravel().tolist()]
    return np.array(counts, dtype=np.int64).reshape(masks.shape)


# np.abs(c) more than 2 ulps from PRUNE_TOL is on hypot's side of it: near
# PRUNE_TOL numpy's complex abs is at most an ulp off the C library's hypot
_NEAR_TOL = np.nextafter(np.nextafter(PRUNE_TOL, [0, 1]), [0, 1])


@np.errstate(over="ignore")  # a finite c's magnitude may pass the largest float
def _above_tol(c: np.ndarray) -> np.ndarray:
    """``abs(c) > PRUNE_TOL`` as CPython decides it, by the C library's
    ``hypot``; False for NaN.  The one prune of every coefficient array:
    ``np.abs`` decides, and ``hypot`` only within 2 ulps of ``PRUNE_TOL``."""
    magnitude = np.abs(c)
    keep = magnitude > PRUNE_TOL
    near = (magnitude >= _NEAR_TOL[0]) & (magnitude <= _NEAR_TOL[1])
    if near.any():
        keep[near] = np.hypot(c.real[near], c.imag[near]) > PRUNE_TOL
    return keep


@np.errstate(over="ignore", invalid="ignore")
def _fold(c, order, start, prune_each: bool):
    """Add each group's values ``c[order[start[g]:start[g + 1]]]`` in order:
    s = 0.0 + the first, then s = (0.0 + s) + the next, the way a Python
    dict merges them.  With ``prune_each`` a sum at most ``PRUNE_TOL`` (or
    NaN) leaves at once and the next value starts again from ``0.0 +``, as
    ``del total[key]`` does; otherwise only the final sum is pruned.

    The groups of more than one value are added in lockstep, longest
    first, so that step i adds the i-th value of a prefix of them.
    Returns, in increasing order, the position in ``c`` of the value that
    last started each surviving group, and the sums."""
    if start.size == order.size:  # no key twice: each value is its own sum
        c = _ZERO + c
        pos = np.flatnonzero(_above_tol(c))
        return pos, c[pos]
    s = c[order]
    cur = _ZERO + s[start]
    last = start.copy()
    alive = _above_tol(cur)
    size = np.diff(start, append=order.size)
    multi = np.flatnonzero(size > 1)
    multi = multi[np.argsort(-size[multi], kind="stable")]
    first, run, run_last, run_alive = start[multi], cur[multi], last[multi], alive[multi]
    longer = np.searchsorted(-size[multi], -np.arange(size[multi[0]]))  # groups with > i
    for i in range(1, size[multi[0]]):
        k = longer[i]
        at = first[:k] + i
        sums = run[:k]
        if prune_each and not run_alive[:k].all():
            dead = ~run_alive[:k]
            sums[dead] = _ZERO  # an absent key: 0.0 + c
            run_last[:k][dead] = at[dead]
        sums += s[at]  # 0.0 + sum is the sum: no part it adds 0.0 to is -0.0
        if prune_each:
            run_alive[:k] = _above_tol(sums)
    cur[multi], last[multi] = run, run_last
    alive[multi] = run_alive if prune_each else _above_tol(run)
    # back in the order of those positions by a scatter, not a sort; s is
    # spent and holds the sums at their positions
    pos = order[last[alive]]
    kept = np.zeros(order.size, dtype=bool)
    kept[pos] = True
    s[pos] = cur[alive]
    return np.flatnonzero(kept), s[kept]


@np.errstate(over="ignore", invalid="ignore")
def _row_products(x, z, yc, c, bx, bz, byc, bc):
    """Each string a (masks ``x``, ``z``, ``yc`` the popcount of x & z,
    coefficient ``c``) times every string b of its row of the 2-D ``bx``,
    ``bz``, ``byc``, ``bc`` (a row per string, or one for all): masks a ^ b,
    i**k from the popcounts as in ``_mask_product``, and the bits of
    ``ca * cb * 1j**k`` as CPython's complex product gives them.  Returns
    the products' ``x``, ``z``, ``yc`` and coefficients, a row per a."""
    px, pz = x[:, None] ^ bx, z[:, None] ^ bz
    pyc = _popcount(px & pz)
    k = (yc[:, None] + byc + 2 * _popcount(z[:, None] & bx) - pyc) & 3
    re, im = c.real[:, None], c.imag[:, None]
    pr, pi = re * bc.real - im * bc.imag, re * bc.imag + im * bc.real
    kr, ki = _I_POWERS.real[k], _I_POWERS.imag[k]  # 1j**k's parts, signed zeros too
    out = np.empty(pr.shape, dtype=complex)
    out.real, out.imag = pr * kr - pi * ki, pr * ki + pi * kr
    return px, pz, pyc, out


def _overflow_raises(what: str) -> np.errstate:
    """An ``np.errstate`` under which a float overflow raises ``ValueError``
    naming ``what``: finite input whose dense form passes the largest float
    stops there, before any warning, output or eigensolve.  Only overflow
    raises; arithmetic on values already infinite or NaN goes on as before."""

    def overflow(kind, flag):
        raise ValueError(f"{what} overflows: its sums pass the largest float")

    return np.errstate(over="call", call=overflow)


# Rows per block of a batched transform: a block holds about 2^14 complex
# entries (256 KiB) whatever the register width.
_BLOCK_ENTRIES = 1 << 14


# Complex entries (64 KiB) that each array of verify's scratch holds, beside
# the d x d block of ``_dense_block(small_blocks=True)``.
_VERIFY_ENTRIES = 1 << 12


def _block_rows(dim: int) -> int:
    return max(1, _BLOCK_ENTRIES // dim)


def _walsh_hadamard_rows(a: np.ndarray) -> None:
    """In place, per row: a[r, z] <- sum_v a[r, v] * (-1)^popcount(z & v).

    ``a`` must be C-contiguous with a power-of-two row length; the only
    temporary is one buffer of its size.  The log2(size) stages have
    Pease's constant geometry.  Each reads its source, flat, as pairs of
    adjacent entries and writes their sums to the first half of the other
    buffer and their differences to the second, in two passes that each
    span the whole block.  So each stage butterflies the lowest index bit,
    a column bit, then rotates the index bits right by one.  After every
    column bit has had its turn, the entry of row r at column z sits at
    z * rows + r, and one transposing copy puts it back in ``a``.  A stage
    cannot run in place, as it writes entries it has yet to read, so the
    two buffers take turns; when the result ends in ``a``, it is first
    copied to the other.  Every output of every pass is contiguous:
    numpy's ufuncs stage a row-gapped output through a buffer of up to
    half a block, which a per-row (rows, size / 2, 2) geometry would need.

    Each entry gets the same additions as the in-place butterfly, column
    bit 0 first, the entry with the bit clear as the left operand, so the
    bits are the same, signed zeros, infinities and NaN included.
    """
    rows, size = a.shape
    if size == 1:  # no stage: the transform of one entry is itself
        return
    flat = a.reshape(-1)
    src, dst = flat, np.empty_like(flat)
    # each buffer's views, made once: read as adjacent pairs, written as halves
    views = {}
    for b in (src, dst):
        pairs, halves = b.reshape(-1, 2), b.reshape(2, -1)
        views[id(b)] = pairs[:, 0], pairs[:, 1], halves[0], halves[1]
    for _ in range(size.bit_length() - 1):
        (left, right, _, _), (_, _, low, high) = views[id(src)], views[id(dst)]
        np.add(left, right, out=low)
        np.subtract(left, right, out=high)
        src, dst = dst, src
    if src is flat:
        if rows == 1:
            return
        dst[...] = src
        src = dst
    a[...] = src.reshape(size, rows).T


# Qubits per word of a term's sort key: 2 bits a qubit fill a uint64.
_KEY_QUBITS = 32
# (shift, mask) steps that move bit i of a 32-bit value to bit 2i.
_SPREAD_STEPS = [
    (np.uint64(shift), np.uint64(spread))
    for shift, spread in (
        (16, 0x0000FFFF0000FFFF),
        (8, 0x00FF00FF00FF00FF),
        (4, 0x0F0F0F0F0F0F0F0F),
        (2, 0x3333333333333333),
        (1, 0x5555555555555555),
    )
]


def _key_word(x: np.ndarray, z: np.ndarray, low: int) -> np.ndarray:
    """The sort-key word of qubits ``low`` to ``low + _KEY_QUBITS - 1``
    (counted from the last qubit): bit i of the word's z at bit 2i + 1 and
    of its x ^ z at bit 2i, as a ``uint64`` array."""
    mask = (1 << _KEY_QUBITS) - 1
    zw = np.asarray((z >> low) & mask, dtype=np.uint64)
    xw = np.asarray((x >> low) & mask, dtype=np.uint64) ^ zw
    for v in (zw, xw):
        for shift, spread in _SPREAD_STEPS:
            v |= v << shift
            v &= spread
    zw <<= np.uint64(1)
    zw |= xw
    return zw


@dataclass(frozen=True)
class PauliString:
    """A signed Pauli operator i**phase * (letter_1 x ... x letter_n)."""

    n_qubits: int
    x_bits: int
    z_bits: int
    phase: int = 0

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("need at least one qubit")
        full = (1 << self.n_qubits) - 1
        if self.x_bits & ~full or self.z_bits & ~full:
            raise ValueError("bit mask exceeds register size")
        if self.phase not in (0, 1, 2, 3):
            raise ValueError("phase must be an integer power of i in {0,1,2,3}")

    @classmethod
    def from_letters(cls, letters: str, phase: int = 0) -> "PauliString":
        """Build from a string like ``"ZXIX"`` (qubit 1 leftmost)."""
        n = len(letters)
        x = z = 0
        for q, letter in enumerate(letters, start=1):
            try:
                xq, zq = _LETTER_TO_XZ[letter]
            except KeyError:
                raise ValueError(f"invalid Pauli letter {letter!r}") from None
            bit = 1 << (n - q)
            x |= xq * bit
            z |= zq * bit
        return cls(n, x, z, phase)

    def letter(self, qubit: int) -> str:
        if not 1 <= qubit <= self.n_qubits:
            raise DimensionError(f"qubit {qubit} out of range 1..{self.n_qubits}")
        bit = 1 << (self.n_qubits - qubit)
        return _XZ_TO_LETTER[(int(bool(self.x_bits & bit)), int(bool(self.z_bits & bit)))]

    def letters(self) -> str:
        return "".join(self.letter(q) for q in range(1, self.n_qubits + 1))

    @property
    def coefficient(self) -> complex:
        return 1j ** self.phase

    def weight(self) -> int:
        """Number of qubits acted on non-trivially."""
        return (self.x_bits | self.z_bits).bit_count()

    def __mul__(self, other: "PauliString") -> "PauliString":
        """Exact group product with the phase tracked in {1, i, -1, -i}."""
        if self.n_qubits != other.n_qubits:
            raise DimensionError(
                f"cannot multiply Pauli strings on {self.n_qubits} and {other.n_qubits} qubits"
            )
        x, z, k = _mask_product(self.x_bits, self.z_bits, other.x_bits, other.z_bits)
        return PauliString(self.n_qubits, x, z, (self.phase + other.phase + k) % 4)

    def __str__(self) -> str:
        return f"{_format_coeff(self.coefficient)} {self.letters()}"

    def to_dense(self) -> np.ndarray:
        return PauliSum.from_pauli(self).to_dense()


def _mask_product(xa: int, za: int, xb: int, zb: int) -> tuple[int, int, int]:
    """X mask, Z mask and power of i in {0,1,2,3} of the product of the
    unit-phase strings with masks (xa, za) and (xb, zb)."""
    x = xa ^ xb
    z = za ^ zb
    # Fold each operand's Y letters into X*Z form, pick up the (-1) from
    # commuting Z past X, then normalize the product's Y letters back.
    k = (
        (xa & za).bit_count()
        + (xb & zb).bit_count()
        + 2 * (za & xb).bit_count()
        - (x & z).bit_count()
    ) % 4
    return x, z, k


def commutes(a: PauliString, b: PauliString) -> bool:
    """Symplectic-form test: True iff a and b commute."""
    if a.n_qubits != b.n_qubits:
        raise DimensionError("commutator of Pauli strings on different registers")
    return ((a.x_bits & b.z_bits).bit_count() + (a.z_bits & b.x_bits).bit_count()) % 2 == 0


class PauliSum:
    """A complex-weighted sum of Pauli strings on a fixed register.

    Instances are immutable: every operation returns a new sum.  Terms are
    keyed by (x_bits, z_bits); the stored coefficient includes any i**phase
    carried by the strings that produced the term.  ``_arrays`` holds the
    terms as read-only parallel ``x``, ``z``, ``coeff`` arrays in ``items()``
    order, masks as ``uint64`` up to 64 qubits and Python ints beyond.
    """

    __slots__ = ("n_qubits", "_arrays")

    def __init__(self, n_qubits: int, terms: Iterable[tuple[tuple[int, int], complex]] = ()):
        if n_qubits < 1:
            raise ValueError("need at least one qubit")
        self.n_qubits = n_qubits
        pairs = list(terms.items() if isinstance(terms, dict) else terms)
        masks = list(chain.from_iterable(key for key, _ in pairs))
        if masks and (min(masks) < 0 or int(max(masks)) >> n_qubits):
            raise DimensionError(f"a term's x or z mask lies outside the {n_qubits}-qubit register")
        keys = np.array(masks, np.uint64 if n_qubits <= 64 else object).reshape(-1, 2)
        x, z = keys[:, 0], keys[:, 1]
        coeff = np.array([complex(c) for _, c in pairs], dtype=complex)
        pos, coeff = _fold(coeff, *_key_groups(n_qubits, x, z), prune_each=False)
        x, z = x[pos], z[pos]
        for a in (x, z, coeff):
            a.setflags(write=False)
        self._arrays = (x, z, coeff)

    @classmethod
    def _from_arrays(
        cls, n_qubits: int, x: np.ndarray, z: np.ndarray, coeff: np.ndarray
    ) -> "PauliSum":
        """Trusted constructor from parallel arrays with distinct (x, z) keys and
        every coefficient above ``PRUNE_TOL``; adopts them, made read-only."""
        for a in (x, z, coeff):
            a.setflags(write=False)
        out = cls.__new__(cls)
        out.n_qubits = n_qubits
        out._arrays = (x, z, coeff)
        return out

    @classmethod
    def from_pauli(cls, p: PauliString, coeff: complex = 1.0) -> "PauliSum":
        return cls(p.n_qubits, [((p.x_bits, p.z_bits), coeff * p.coefficient)])

    @classmethod
    def from_terms(cls, n_qubits: int, pairs: Iterable[tuple[complex, str]]) -> "PauliSum":
        """Build from (coefficient, letters) pairs, e.g. ``(0.5, "XIZX")``."""
        items = []
        for index, (coeff, letters) in enumerate(pairs):
            if len(letters) != n_qubits:
                raise DimensionError(f"term {index} {letters!r} does not act on {n_qubits} qubits")
            try:
                p = PauliString.from_letters(letters)
            except ValueError as exc:
                raise ValueError(f"term {index}: {exc}") from None
            items.append(((p.x_bits, p.z_bits), complex(coeff)))
        return cls(n_qubits, items)

    def items(self) -> Iterator[tuple[tuple[int, int], complex]]:
        x, z, coeff = self._arrays
        return zip(zip(x.tolist(), z.tolist()), coeff.tolist())

    def _sorted_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """Every term's letters in lexicographic order, as one ``S{n}``
        array of ASCII bytes, and the coefficient array in that order.

        Terms are ordered by an integer key of 2 bits a qubit, qubit 1 most
        significant, whose digit ``2 z + (x ^ z)`` ranks I < X < Y < Z as
        ASCII does: one ``uint64`` word per ``_KEY_QUBITS`` qubits, sorted
        by ``argsort`` or, past one word, ``lexsort``.  The letters are then
        read from the sorted words, one qubit column at a time through an
        ``IXYZ`` lookup.  Any register width takes this one path: past 64
        qubits the masks are Python ints, cut into words the same way.
        """
        n = self.n_qubits
        x, z, coeff = self._arrays
        words = [_key_word(x, z, low) for low in range(0, n, _KEY_QUBITS)]  # low word first
        # the keys are distinct; lexsort, a stable sort, is 4x slower on one key
        order = words[0].argsort() if len(words) == 1 else np.lexsort(words)
        ascii_codes = np.frombuffer(b"IXYZ", dtype=np.uint8)  # at the key digit
        codes = np.empty((len(coeff), n), dtype=np.uint8)
        for low in range(0, n, _KEY_QUBITS):
            key = words.pop(0)[order]  # the unsorted word is freed here
            for bit in range(low, min(low + _KEY_QUBITS, n)):
                digit = (key >> np.uint64(2 * (bit - low))) & np.uint64(3)
                codes[:, n - 1 - bit] = ascii_codes[digit]
        return codes.view(f"S{n}").ravel(), coeff[order]

    def items_sorted(self) -> list[tuple[str, complex]]:
        """(letters, coefficient) pairs sorted lexicographically by letters."""
        letters, coeff = self._sorted_terms()
        return list(zip(letters.astype(f"U{self.n_qubits}").tolist(), coeff.tolist()))

    def __len__(self) -> int:
        return len(self._arrays[2])

    def __eq__(self, other) -> bool:
        """Same register and the same terms, in any order."""
        if not isinstance(other, PauliSum):
            return NotImplemented
        (xa, za, ca), (xb, zb, cb) = self._arrays, other._arrays
        a, b = np.lexsort((za, xa)), np.lexsort((zb, xb))
        same = (np.array_equal(u[a], v[b]) for u, v in ((xa, xb), (za, zb), (ca, cb)))
        return self.n_qubits == other.n_qubits and all(same)

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if self.n_qubits != other.n_qubits:
            raise DimensionError("cannot add sums on different registers")
        return PauliSum(self.n_qubits, chain(self.items(), other.items()))

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + other.scale(-1.0)

    def scale(self, factor: complex) -> "PauliSum":
        return PauliSum(self.n_qubits, [(k, c * factor) for k, c in self.items()])

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        if not isinstance(other, PauliSum):
            return NotImplemented
        if self.n_qubits != other.n_qubits:
            raise DimensionError("cannot multiply sums on different registers")
        (x, z, c), (bx, bz, bc) = self._arrays, other._arrays
        products = _row_products(
            x, z, _popcount(x & z), c, bx[None], bz[None], _popcount(bx & bz)[None], bc[None]
        )
        x, z, _, c = (a.ravel() for a in products)
        pos, c = _fold(c, *_key_groups(self.n_qubits, x, z), prune_each=False)
        return PauliSum._from_arrays(self.n_qubits, x[pos], z[pos], c)

    __rmul__ = __mul__

    def dagger(self) -> "PauliSum":
        return PauliSum(self.n_qubits, [(k, c.conjugate()) for k, c in self.items()])

    def frobenius_sq(self) -> float:
        """Sum of squared coefficient magnitudes (Frobenius norm^2 / 2^n)."""
        return float(sum(abs(c) ** 2 for c in self._arrays[2].tolist()))

    def max_weight(self) -> int:
        x, z, _ = self._arrays
        return max(map(int.bit_count, (x | z).tolist()), default=0)

    def mean_weight(self) -> float:
        x, z, _ = self._arrays
        return sum(map(int.bit_count, (x | z).tolist())) / len(x) if len(x) else 0.0

    def to_dense(self) -> np.ndarray:
        """Exact 2^n x 2^n matrix; qubit 1 is the most significant index bit."""
        _check_dense_cap(self.n_qubits)  # before the 2^n labels are built
        return self._dense_block(np.arange(1 << self.n_qubits))

    def _dense_block(
        self, labels: np.ndarray, dense_cap: int = DENSE_CAP, small_blocks: bool = False
    ) -> np.ndarray:
        """The block B[i, j] = <labels[i]| sum |labels[j]> for distinct basis
        labels, without the 2^n x 2^n matrix unless every label is asked for.
        B is the first d rows of a (d + 1) x d buffer.  With ``small_blocks``
        its blocks of X masks hold ``_VERIFY_ENTRIES`` entries, or one row:
        beside the buffer, the block, the transform's second buffer and each
        gather of labels hold 64 KiB at most, two rows at 2^11.

        Terms sharing an X mask x fill the entries (v (+) x, v); their values
        are one Walsh-Hadamard transform of the amplitudes indexed by Z mask,
        so the cost is O(n 2^n) per distinct X mask.  Column j reads that
        transform at v = labels[j] and keeps it when the row label v (+) x is
        one of ``labels``; the others land in a spare row that is cut off.
        """
        _check_dense_cap(self.n_qubits, dense_cap)
        dim = 1 << self.n_qubits
        labels = np.asarray(labels, dtype=np.int64)
        size = labels.size
        if labels.min() < 0 or labels.max() >= dim:
            raise DimensionError(f"block labels must lie in 0..{dim - 1}")
        pos = np.full(dim, size, dtype=np.int64)
        pos[labels] = np.arange(size)
        if np.count_nonzero(pos < size) != size:
            raise ValueError("block labels must be distinct")
        out = np.zeros((size + 1, size), dtype=complex)
        x, z, coeff = self._arrays
        x, z = x.view(np.int64), z.view(np.int64)  # views of the uint64 masks, no copies
        # one stable sort by X mask, whose order each block of masks reads
        order = np.argsort(x, kind="stable")
        xs = x[order]
        new = np.empty(xs.size, dtype=bool)
        new[:1] = True
        np.not_equal(xs[1:], xs[:-1], out=new[1:])
        bounds = np.append(np.flatnonzero(new), xs.size)  # where each X mask's terms start
        masks = xs[bounds[:-1]]
        del xs, new
        cols = np.arange(size)
        step = max(1, _VERIFY_ENTRIES // dim) if small_blocks else _block_rows(dim)
        # each term's power of i, a byte, so a block gathers its amplitudes
        phase = np.empty(x.size, dtype=np.uint8)
        for lo in range(0, x.size, _BLOCK_ENTRIES):
            part = slice(lo, lo + _BLOCK_ENTRIES)
            phase[part] = _popcount_u64(x[part] & z[part]) % 4
        with _overflow_raises("the dense form of the Pauli sum"):
            for start in range(0, masks.size, step):
                stop = min(start + step, masks.size)
                terms = order[bounds[start] : bounds[stop]]
                block = np.zeros((stop - start, dim), dtype=complex)
                rows = np.arange(0, (stop - start) * dim, dim)  # where each mask's row starts
                at = z[terms] + np.repeat(rows, np.diff(bounds[start : stop + 1]))
                block.reshape(-1)[at] = coeff[terms] * _I_POWERS[phase[terms]]
                _walsh_hadamard_rows(block)
                out[pos[masks[start:stop, None] ^ labels], cols] = block[:, labels]
        return out[:size]

    def __str__(self) -> str:
        if not len(self):
            return "0"
        return " + ".join(f"{_format_coeff(c)} {s}" for s, c in self.items_sorted())

    def to_json_dict(self) -> dict:
        letters, coeff = self._sorted_terms()
        letters = letters.astype(f"U{self.n_qubits}").tolist()
        terms = zip(letters, coeff.real.tolist(), coeff.imag.tolist())
        return {
            "n_qubits": self.n_qubits,
            "terms": [{"pauli": s, "re": re, "im": im} for s, re, im in terms],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PauliSum":
        """The inverse of :meth:`to_json_dict`; a malformed term, ``true`` for a
        number or a part that is not a finite float, raises ``ValueError`` naming its index."""
        if not (
            isinstance(data, dict)
            and type(data.get("n_qubits")) is int
            and isinstance(data.get("terms"), list)
        ):
            raise ValueError('a Pauli sum must be {"n_qubits": integer, "terms": list}')
        pairs = []
        for index, t in enumerate(data["terms"]):
            if not (
                isinstance(t, dict)
                and isinstance(t.get("pauli"), str)
                and all(type(t.get(part)) in (int, float) for part in ("re", "im"))
            ):
                raise ValueError(
                    f'term {index} must be {{"pauli": letters, "re": number, "im": number}}'
                )
            if not all(abs(t[part]) <= sys.float_info.max for part in ("re", "im")):
                raise ValueError(f"term {index} has a part that is not a finite float")
            pairs.append((complex(t["re"], t["im"]), t["pauli"]))
        return cls.from_terms(data["n_qubits"], pairs)


def _format_coeff(c: complex) -> str:
    return f"({c.real:g}{c.imag:+g}i)"


def pauli_decompose(m: np.ndarray) -> PauliSum:
    """Expand a matrix in the Pauli basis: coefficients tr(Q^dag m) / 2^n.

    Scatters m into its displacement-by-column array G[r (+) c, c] = m[r, c]
    and runs :func:`_decompose_displacements` on it, so the cost is
    O(n 4^n) whatever the sparsity of m.
    """
    shape = np.shape(m)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError("expected a square matrix")
    dim = shape[0]
    n = dim.bit_length() - 1
    if dim != 1 << n or n < 1:
        raise ValueError("matrix dimension must be a power of two, at least 2")
    _check_dense_cap(n)
    m = np.asarray(m)
    rows = np.arange(dim)
    g = np.empty((dim, dim), dtype=complex)
    for c in range(dim):
        g[rows ^ c, c] = m[:, c]
    return PauliSum._from_arrays(n, *_decompose_displacements(g))


def _decompose_displacements(
    g: np.ndarray, fixed=()
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pauli terms of the 2^n x 2^n matrix M whose displacement-by-column
    array is ``g``, g[d, c] = M[c (+) d, c]; ``g`` is overwritten.  With
    ``fixed``, (qubit, value) pairs, the terms of <fixed| M |fixed> on the
    other qubits.

    The Walsh-Hadamard transform of row d over c, at z, times
    (-i)^|d & z| / 2^n, is the coefficient of the term with X mask d and Z
    mask z (Georges, Berntson, Suenderhauf and Ivanov, "Pauli decomposition
    via the fast Walsh-Hadamard transform").  Each row is transformed,
    phased and pruned on its own, so given ``fixed``, ``g`` holds only the
    displacements with no X on a fixed qubit, in increasing order: the
    projection drops the others.  Both Z partners of a fixed qubit lie in
    one row, so ``_project_rows`` projects each block of rows right after
    its prune, before any term is gathered.
    Transform, phase, threshold and projection run on blocks of rows into
    one ``bool`` mask, so the survivors are gathered once.  Returns parallel
    ``x``, ``z`` (``uint64``) and ``coeff`` arrays: distinct keys, every
    coefficient above ``PRUNE_TOL``, bit for bit and in the order that the
    full decomposition, row-major in (x, z), gives once ``project_fixed_qubit``
    has run on it for every fixed qubit in descending qubit order.
    """
    rows, dim = g.shape
    n = dim.bit_length() - 1
    cols = np.arange(dim, dtype=np.int64)
    labels = cols[(cols & _fixed_mask(n, fixed)) == 0]  # row i is displacement labels[i]
    bits = sorted((n - q, value) for q, value in fixed)  # descending qubit order
    width = dim >> len(bits)
    phases = _I_POWERS[-_popcount_u64(cols) % 4] / dim  # (-i)^|t| / 2^n at t = d & z
    keep = np.empty((rows, width), dtype=bool)
    first = np.empty((rows, width), dtype=np.int32) if bits else None  # columns < 2^31
    step = _block_rows(dim)
    with _overflow_raises("the Pauli decomposition"):
        for start in range(0, rows, step):
            block = g[start : start + step]
            _walsh_hadamard_rows(block)
            block *= phases[labels[start : start + step, None] & cols]
            kept = _above_tol(block)
            if bits:
                block, kept, first[start : start + step] = _project_rows(block, kept, bits)
                g[start : start + step, :width] = block
            keep[start : start + step] = kept
    x, z = np.nonzero(keep)  # row i on the surviving qubits is i: labels skip the fixed bits
    coeff = g[:, :width][keep]
    if bits:
        # the projection keeps each term where its first-seen partner stood
        seen = x * dim + first[keep]
        if np.any(seen[1:] <= seen[:-1]):
            order = np.argsort(seen, kind="stable")
            x, z, coeff = x[order], z[order], coeff[order]
    return x.view(np.uint64), z.view(np.uint64), coeff


def _project_rows(block: np.ndarray, kept: np.ndarray, bits):
    """``project_fixed_qubit`` on a block of decomposed rows, for each
    (bit, value) of ``bits`` in increasing bit order: the entries with the
    bit clear (I) and set (Z) are partners, ``kept`` marks the terms that
    exist, and each sum is (lo or ``_ABSENT``) + (+-hi or ``_ABSENT``) +
    ``_ZERO``, pruned at ``PRUNE_TOL``: the projection's merge, bit for
    bit.  Returns the sums with the folded columns taken out, their mask,
    and the column each one's first-seen term had in the block: lo's,
    since it comes first, when lo exists."""
    first = np.arange(block.shape[1])[None]
    for folded, (bit, value) in enumerate(bits):
        half = 1 << (bit - folded)  # the lower fixed bits are folded out already
        pairs = [a.reshape(a.shape[0], -1, 2, half) for a in (block, kept, first)]
        (lo, klo, flo), (hi, khi, fhi) = ([a[:, :, side] for a in pairs] for side in (0, 1))
        block = np.where(klo, lo, _ABSENT)
        block += np.where(khi, np.negative(hi) if value else hi, _ABSENT)
        block += _ZERO
        first = np.where(klo, flo, fhi)
        kept = _above_tol(block)
        block, kept, first = (a.reshape(a.shape[0], -1) for a in (block, kept, first))
    return block, kept, first
