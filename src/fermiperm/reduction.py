"""End-to-end reduction: encode in the permuted basis, project out redundant qubits.

``encode_and_reduce`` takes a number-conserving fermionic operator, finds
the qubits whose value is constant across the sector images, and encodes
the operator in the basis of the chosen permutation U: with U's conjugated
Majoranas, one signed Pauli string each, when U is affine (a Clifford),
given as its map or as a table that scans as one, then projects those
qubits out with ``project_fixed_qubit``; otherwise with Jordan-Wigner,
conjugated by the chunked dense path given those qubits as ``fixed``: it
skips the terms with X or Y on them and projects them out of each block of
transformed rows, with the same bits.  It returns the reduced operator plus
each sector rank's label, its basis index on the surviving qubits.
``sector_oracle`` computes the same physics with no qubit encoding at all:
one private kernel applies a chunk of terms' ladder strings to every sector
state at once and adds their elements into the matrix.  It is the ground
truth that ``verify_reduction`` compares against.  Verification stays
inside the sector: it builds only the d x d block B of the reduced operator
on the sector labels, never the 2^q x 2^q matrix.  Verify fills one d x d
buffer with the oracle O, by that kernel given ``h`` or by one copy of a
given matrix, and subtracts B from it in place, a block of X masks at a
time, touching only the entries whose rows stay in the sector.  The kernel
finds the rank a ladder string sends each state to with a second mask
test, not a search.  Under round-to-nearest fl(o - b) = -fl(b - o), so
|O - B| has the bits of |B - O|: one pass over slabs of row blocks then
takes max |B - O| and the Frobenius norm ||B - O||_F, which bounds the
difference of the two hermitized sector spectra (Weyl); the two d x d
eigensolves run only when that bound does not certify the spectrum check.
The buffer is the only d x d array verify builds, 16 d^2 bytes (about 256
MiB under the default dense cap, d <= 2^12).  Beside it, each array of
scratch holds at most ``pauli._VERIFY_ENTRIES`` entries (4096, 64 KiB), a
slab of 4 x 4096 magnitudes (128 KiB) or a step of the oracle kernel.
When the bound fails, O whole (given ``h``, or a copy of the given matrix)
and then B are built again, one after the other, each to be hermitized in
place and solved.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .encodings import (
    FermionOperator,
    encode_fermion_operator,
    jw_majoranas,
    linear_encoding_majoranas,
)
from . import pauli
from .errors import DimensionError, InvalidEncodingError
from .minimal import RedundancyReport, SectorSpec, _redundancy_of_images
from .pauli import (
    DENSE_CAP,
    PauliSum,
    _ZERO,
    _VERIFY_ENTRIES,
    _above_tol,
    _check_dense_cap,
    _check_fixed,
    _fixed_mask,
    _key_groups,
    _overflow_raises,
    _popcount_u64,
    parity_u64,
)
from .permutations import AffineMapF2, BasisPermutation, conjugate_pauli_dense

ORACLE_TOL = 1e-9
SPECTRUM_TOL = 1e-8
# (term, state) pairs per chunk of the oracle kernel, whose broadcast mask
# test holds about 24 bytes a pair, numpy's ufunc buffers included
_LADDER_PAIRS = 1 << 13


def project_fixed_qubit(s: PauliSum, qubit: int, value: int) -> PauliSum:
    """<value| s |value> on one tensor factor: I keeps a term, Z scales it
    by (-1)^value, X or Y drops it; the result lives on n-1 qubits.

    Runs on the term arrays: the terms without X or Y on the qubit are
    sorted by key, the (at most two) terms that share a key once the qubit
    is folded out are summed and the sum is pruned at ``PRUNE_TOL``.  Only
    the index of those terms, their keys and their gathered coefficients
    are held, so the input is never copied whole; only the surviving keys
    are folded.  Terms keep the order in which their keys first appear.
    A sum past the largest float raises ``ValueError``."""
    n = s.n_qubits
    _check_fixed(n, ((qubit, value),))
    x, z, coeff = s._arrays
    word = x.dtype.type  # uint64, or Python ints past 64 qubits
    bit = word(1 << (n - qubit))
    low = word((1 << (n - qubit)) - 1)
    kept = np.flatnonzero((x & bit) == 0)  # X or Y is off-diagonal on the fixed qubit
    xs, zs = x[kept], z[kept]
    flip = (zs & bit) != 0  # Z on the qubit: the sign (-1)^value
    # The X bit is clear on every kept term and the Z bit is cleared here, so
    # these keys sort and compare as the folded keys do.
    zs &= ~bit
    # _key_groups' stable sort puts each key's first-seen term first.
    # Adding _ZERO to first + second gives, signed zeros included, PauliSum's
    # own merge (0.0 + first) + second bit for bit.
    order, start = _key_groups(n, xs, zs)
    kept = kept[order]  # one at a time: each unsorted copy is freed at once
    flip = flip[order]
    first = order[start]
    del order
    xs = xs[first]
    zs = zs[first]
    del first
    seen = np.argsort(kept[start])  # kept was increasing before the sort
    terms = coeff[kept]
    del kept
    if value:
        np.negative(terms, out=terms, where=flip)
    with _overflow_raises("the projection"):
        total = np.add.reduceat(terms, start)
    del terms
    total = total[seen] + _ZERO
    keep = _above_tol(total)
    xs, zs = xs[seen[keep]], zs[seen[keep]]
    xs = ((xs >> 1) & ~low) | (xs & low)
    zs = ((zs >> 1) & ~low) | (zs & low)
    return PauliSum._from_arrays(n - 1, xs, zs, total[keep])


@dataclass(frozen=True)
class ReducedHamiltonian:
    """A Pauli sum on the surviving qubits plus the sector bookkeeping."""

    pauli_sum: PauliSum
    report: RedundancyReport
    spec: SectorSpec
    labels: tuple[int, ...]  # rank -> basis index on the surviving qubits


def encode_and_reduce(
    h: FermionOperator,
    p: BasisPermutation | AffineMapF2,
    spec: SectorSpec,
    dense_cap: int = DENSE_CAP,
) -> ReducedHamiltonian:
    """Full pipeline; raises if ``h`` is not number conserving.

    ``p`` is U as a 2^N table or as its affine map x -> Mx (+) b, which
    stores none (a ``LinearEncodingF2`` has b = 0); ``p.affine`` tells the
    paths apart and either type's ``apply`` gives the sector images.

    The sector images stay distinct on the surviving qubits, since a
    permutation's images are distinct and agree on every fixed qubit, so
    the reduction never merges two sector states.  They are gathered once,
    in rank order, from ``spec.states``, which caps both paths at 64 modes
    and 2^16 states: the redundancy scan runs on them first, and each
    rank's label is its image's surviving bits.  An affine U encodes ``h``
    with its conjugated Majoranas, bit for bit the conjugated JW encoding.
    Any other permutation is conjugated on the full 2^N register, which
    ``dense_cap`` bounds in qubits, and projected inside the same call:
    ``conjugate_pauli_dense`` with the report's ``fixed`` pairs."""
    h.require_number_conserving()
    n = spec.n_modes
    if p.n_qubits != n:
        raise DimensionError("permutation size does not match the mode count")
    if spec.dimension < 2:
        raise InvalidEncodingError(
            "sector holds a single state; there is no operator left to reduce"
        )
    affine = p.affine
    images = p.apply(spec.states)  # in rank order
    report = _redundancy_of_images(images, n)

    if affine is not None:
        reduced = encode_fermion_operator(h, linear_encoding_majoranas(affine))
        _check_identity_on_fixed(reduced._arrays[0], n, report)
        for qubit, value in sorted(report.fixed, reverse=True):
            reduced = project_fixed_qubit(reduced, qubit, value)
    else:
        encoded = encode_fermion_operator(h, jw_majoranas(n))
        reduced = conjugate_pauli_dense(p, encoded, dense_cap, fixed=report.fixed)

    labels = np.zeros_like(images)
    for q in report.surviving:
        labels = (labels << 1) | ((images >> (n - q)) & 1)
    return ReducedHamiltonian(reduced, report, spec, tuple(labels.tolist()))


def _check_identity_on_fixed(x: np.ndarray, n: int, report: RedundancyReport) -> None:
    """For Clifford permutations every encoded number-conserving term must
    carry only I or Z on the redundant qubits; X or Y there, a set bit of
    an X mask, means the permutation or the conjugation is wrong."""
    if np.any(x & x.dtype.type(_fixed_mask(n, report.fixed))):
        raise InvalidEncodingError(
            "encoded term acts with X or Y on a redundant qubit"
        )


def sector_oracle(
    h: FermionOperator, spec: SectorSpec, dense_cap: int = DENSE_CAP
) -> np.ndarray:
    """Brute-force sector matrix: H[r', r] = <unrank(r')| h |unrank(r)>,
    with no qubit encoding at all.

    Each term's ladder operators act right to left on every sector state,
    held as ``uint64`` occupancy strings (so N <= 64).  A state dies when a
    raised mode is occupied or a lowered one is empty, picks up the sign
    (-1)^(number of occupied modes left of the acted mode), and has that
    mode flipped.  Every entry sums its terms in their given order
    (``_add_ladders``, which ``verify_reduction`` given ``h`` runs into its
    own buffer).  Every mode is checked before anything is allocated.  The
    d x d matrix is dense, so d may be at most 2^dense_cap.
    """
    coeff, strings = _checked_ladder_strings(h, spec, dense_cap)
    out = np.zeros((spec.dimension, spec.dimension), dtype=complex)
    _add_ladders(out, spec.states, coeff, strings)
    return out


def _ladder_strings(h: FermionOperator, n: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The coefficients of the terms of ``h`` that can act on some state
    and keep its particle number, in order, and their ladder strings as
    ``need``, ``one``, ``flip``, ``sign``, ``odd``, read from its array
    form.

    Ladder operators only flip mode bits, and the sign of each is the
    parity of the occupied modes left of it, which is linear over GF(2).
    So on an occupancy string s, with the operators applied in turn, the
    term survives iff ``s & need == one``, ends at ``s ^ flip`` and carries
    (-1)^(parity(s & sign) ^ odd), ``odd`` a 0/1 ``int64``.  ``flip`` lies
    inside ``need``, so the survivor ends with ``one ^ flip`` on those
    bits: a term whose ``one ^ flip`` and ``one`` differ in weight changes
    the particle number and is left out, as is a term that asks one mode
    to be both occupied and empty.  Raises ``DimensionError`` on a mode
    outside 1..n."""
    modes, daggers, lengths, coeff = h._arrays
    # terms x operators in the order they apply, right to left; the padding,
    # mode 0, has no bit and nothing left of it
    filled = (np.arange(modes.shape[1]) < lengths[:, None])[:, ::-1]
    grid = modes[:, ::-1]
    lowers = filled & ~daggers[:, ::-1]
    used = grid[filled]
    if used.size and not 1 <= used.min() <= used.max() <= n:
        mode = next(m for m in used.tolist() if not 1 <= m <= n)
        raise DimensionError(f"mode {mode} out of range 1..{n}")
    register = (1 << n) - 1
    bit_of = np.array([0] + [1 << (n - m) for m in range(1, n + 1)], dtype=np.uint64)
    left_of = np.array(
        [0] + [register ^ ((1 << (n - m + 1)) - 1) for m in range(1, n + 1)], dtype=np.uint64
    )
    bits, lefts = bit_of[grid], left_of[grid]
    before = np.bitwise_xor.accumulate(bits, axis=1) ^ bits  # flipped by earlier operators
    # operator j needs its mode occupied (lowering) or empty in s ^ before[j],
    # so in s itself occupied exactly where this is true
    occupied = lowers ^ ((before & bits) != 0)
    one = np.bitwise_or.reduce(np.where(occupied, bits, 0), axis=1)
    zero = np.bitwise_or.reduce(np.where(occupied, 0, bits), axis=1)
    flip = np.bitwise_xor.reduce(bits, axis=1)
    odd = np.bitwise_xor.reduce(parity_u64(before & lefts), axis=1)
    conserving = _popcount_u64(one ^ flip) == _popcount_u64(one)
    live = np.flatnonzero(((one & zero) == 0) & conserving)
    masks = (one | zero, one, flip, np.bitwise_xor.reduce(lefts, axis=1), odd)
    return coeff[live], tuple(a[live] for a in masks)


def _apply_ladders(states, coeff, need, one, flip, sign, odd):
    """Apply a chunk of ladder strings (``_ladder_strings`` masks, their
    coefficients ``coeff``) to every occupancy string in the sorted sector
    ``states``.  Returns the surviving (term, column) pairs in term-major
    order, as the rank of the state each lands on, the column and the
    signed coefficient.

    No search finds the ranks.  On a term's survivors, s & need == one, the
    map s -> s ^ flip sets the ``need`` bits to ``one ^ flip`` and keeps the
    others, so it keeps order, and the terms conserve the particle number,
    so it maps them onto exactly the sector states t with t & need == one ^
    flip.  The ranks are those states' places, in order: the columns of a
    second mask test, paired in order with the survivors'."""
    live = states & need[:, None]
    leave, arrive = live == one[:, None], live == (one ^ flip)[:, None]
    del live
    term, col = np.nonzero(leave)
    del leave
    rank = np.flatnonzero(arrive)
    del arrive
    rank %= states.size
    minus = parity_u64(states[col] & sign[term]) != odd[term]
    value = coeff[term]
    np.negative(value, out=value, where=minus)
    return rank, col, value


def _add_ladders(out, states, coeff, strings) -> None:
    """The one oracle kernel: add each term's element +-c from sector state
    c to rank r into ``out[r, c]``, ``out`` C-contiguous with d columns and
    at least d rows, in term-major order.

    ``_apply_ladders`` runs on ``_LADDER_PAIRS`` (term, state) pairs at a
    time and ranks the states they land on by a second mask test, with no
    search, so no pair leaves the sector and no spare row is needed.  One
    term sends distinct states to distinct rows, so ``np.add.at`` over the
    steps in turn sums every entry's terms in their given order.  A sum
    past the largest float raises ``ValueError``."""
    dim = states.size
    flat = out.reshape(-1)
    step = max(1, _LADDER_PAIRS // dim)
    with _overflow_raises("the sector oracle"):
        for start in range(0, coeff.size, step):
            chunk = slice(start, start + step)
            rank, col, value = _apply_ladders(states, coeff[chunk], *(a[chunk] for a in strings))
            rank *= dim
            rank += col
            del col
            np.add.at(flat, rank, value)


def _checked_ladder_strings(h: FermionOperator, spec: SectorSpec, dense_cap: int):
    """The oracle's checks, then ``_ladder_strings(h, N)``."""
    n = spec.n_modes
    if n > 64:
        raise DimensionError(f"the sector oracle handles at most 64 modes, got {n}")
    _check_dense_cap(spec.q_min, dense_cap)  # q_min = ceil(log2 d)
    return _ladder_strings(h, n)


@dataclass(frozen=True)
class ReductionCheck:
    max_deviation: float
    spectrum_bound: float
    spectrum_deviation: float | None  # None when the bound certifies the spectra
    passed: bool
    tolerance: float


def verify_reduction(
    rh: ReducedHamiltonian,
    oracle: FermionOperator | np.ndarray,
    tol: float = ORACLE_TOL,
    dense_cap: int = DENSE_CAP,
) -> ReductionCheck:
    """Compare every sector matrix element of the reduced operator against
    the brute-force oracle, and the sector spectra as well.

    ``oracle`` is ``h`` itself or its matrix ``sector_oracle(h, rh.spec)``
    (or anything ``np.asarray`` reads as that matrix), with the same result,
    bit for bit.  Verify holds one d x d array, a buffer of 16 d^2 bytes
    (about 256 MiB under the default ``dense_cap``, d <= 2^12) with no
    spare row, filled with O, whole, before B exists: given ``h``, after
    the oracle's checks, by the oracle's own kernel (``_add_ladders``);
    given a complex array of any layout, by one copy that only reads it.
    ``_dense_block`` then subtracts the d x d block B on the sector labels
    from it in place, an overflow giving inf, not a warning; it gathers
    and writes only the entries whose rows stay in the sector.  The
    errors keep their order: the oracle's checks, the reduced register's
    ``dense_cap``, checked before the buffer is allocated, the oracle's
    overflow, then B's.  Beside the buffer, each array of scratch holds at
    most ``_VERIFY_ENTRIES`` entries, 64 KiB, or one row of the 2^q-wide
    transform, the deviation's slab of magnitudes 128 KiB, and the
    oracle's kernel steps ``_LADDER_PAIRS`` (term, state) pairs: at d =
    924 and q = 11, at most about 0.20 MiB given ``h``, 0.16 MiB given the
    matrix.

    The spectra are certified before they are solved.  For Hermitian A and
    O', max_i |lambda_i(A) - lambda_i(O')| <= ||A - O'||_F (Weyl), and
    hermitizing is a projection, so ||B - O||_F bounds the difference of
    the spectra of (B + B^H) / 2 and (O + O^H) / 2 taken exactly (their
    rounding, 2^-53 of each entry, is not counted).  Under round-to-nearest
    fl(o - b) = -fl(b - o), so it is read from O - B with the same bits.
    It is summed with ufunc reductions, no BLAS, so its bits do not depend
    on BLAS threading.  When ``spectrum_bound * (1 + 1e-6) <
    SPECTRUM_TOL`` no eigensolve runs, ``spectrum_deviation`` is None and
    ``passed`` is ``max_deviation < tol``: the factor covers the sum's own
    rounding, a relative error below d^2 2^-53, 2e-9 at d <= 2^12.
    Otherwise, NaN and inf included, O is built whole again if ``h`` was
    given or else the given matrix is copied, then B is built again, and
    each is hermitized in place as (a + a^H) / 2 and solved before the next
    is built: an O whose hermitization overflows raises before any
    eigensolve.  This path holds one d x d array beside LAPACK's copy, a
    traced peak of 1.05 x 16 d^2 at d = 924.  ``spectrum_deviation``, the
    largest difference of the sorted eigenvalues, must stay below
    ``SPECTRUM_TOL`` as well."""
    dim = rh.spec.dimension
    if isinstance(oracle, FermionOperator):
        coeff, strings = _checked_ladder_strings(oracle, rh.spec, dense_cap)
    else:
        oracle = np.asarray(oracle, dtype=complex)  # a complex matrix is not copied
        if oracle.shape != (dim, dim):
            raise DimensionError("oracle shape does not match the sector dimension")
    pauli._check_dense_cap(rh.pauli_sum.n_qubits, dense_cap)  # the block's, before the buffer
    with _small_ufunc_buffers():
        if isinstance(oracle, FermionOperator):
            buf = np.zeros((dim, dim), dtype=complex)
            _add_ladders(buf, rh.spec.states, coeff, strings)
        else:
            buf = np.empty((dim, dim), dtype=complex)
            buf[...] = oracle
        rh.pauli_sum._dense_block(rh.labels, dense_cap, subtract_from=buf)
        max_dev, bound = _deviation_and_bound(buf)
        del buf  # holds O - B; a failed certificate builds O and B again
    if bound * (1 + 1e-6) < SPECTRUM_TOL:
        return ReductionCheck(max_dev, bound, None, max_dev < tol, tol)
    if isinstance(oracle, FermionOperator):
        eig_oracle = _hermitized_spectrum(sector_oracle(oracle, rh.spec, dense_cap))
    else:
        eig_oracle = _hermitized_spectrum(oracle.copy())  # the caller's matrix is only read
    eig_block = _hermitized_spectrum(rh.pauli_sum._dense_block(rh.labels, dense_cap))
    spectrum_dev = float(np.max(np.abs(eig_block - eig_oracle)))  # d >= 1: d = 0 certifies
    passed = max_dev < tol and spectrum_dev < SPECTRUM_TOL
    return ReductionCheck(max_dev, bound, spectrum_dev, passed, tol)


def _deviation_and_bound(block: np.ndarray) -> tuple[float, float]:
    """max |B - O| and ||B - O||_F of a d x d array that holds B - O or,
    with the same bits, O - B.  Blocks of rows, each of at most
    ``_VERIFY_ENTRIES`` entries or one row, give their max and sum of
    squares.  A slab of whole blocks, up to 4 x ``_VERIFY_ENTRIES``
    magnitudes, writes its absolute values into one buffer with one call,
    and one ``axis=1`` reduce over its (blocks, block entries) view gives
    each block's max, then its pairwise sum of squares, with the bits of
    that block reduced alone; a last block of fewer rows is read on its
    own.  In block order, the maxes are chained by ``np.maximum`` from
    0.0, which keeps a NaN as one max over the whole array does, and the
    sums are added to 0.0.  A NaN or inf anywhere gives a NaN or inf
    bound, with no warning."""
    dim = block.shape[1]
    step = max(1, _VERIFY_ENTRIES // dim)  # rows a block
    size = step * dim  # entries a whole block
    span = step * max(1, 4 * _VERIFY_ENTRIES // size)  # rows a slab: whole blocks
    mag = np.empty(min(span, dim) * dim)
    maxes, sums = np.zeros((2, -(-dim // step) + 1))  # [0]: the 0.0 start
    i = 1
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(0, dim, span):
            part = mag[: min(span, dim - a) * dim]
            np.abs(block[a : a + span], out=part.reshape(-1, dim))
            whole = part.size - part.size % size
            for rows in (part[:whole], part[whole:]):  # whole blocks, then the rest
                if rows.size:
                    rows = rows.reshape(-1, min(rows.size, size))
                    np.maximum.reduce(rows, axis=1, out=maxes[i : i + len(rows)])
                    np.add.reduce(np.square(rows, out=rows), axis=1, out=sums[i : i + len(rows)])
                    i += len(rows)
        # accumulate runs the chains in order; a reduce may give another NaN's bits
        max_dev = np.maximum.accumulate(maxes)[-1]
        total = np.add.accumulate(sums)[-1]
    return float(max_dev), float(np.sqrt(total))


def _hermitized_spectrum(a: np.ndarray) -> np.ndarray:
    """The sorted eigenvalues of (a + a^H) / 2, with the whole-matrix
    ufuncs' bits, for a square array ``a`` that verify built: its lower
    triangle, all that ``eigvalsh`` reads, is hermitized in place, in blocks
    of rows whose scratch holds ``_VERIFY_ENTRIES`` entries or one row.  As
    (a + a^H)_ji = conj((a + a^H)_ij), it overflows iff the whole one does."""
    dim = len(a)
    step = max(1, _VERIFY_ENTRIES // dim)
    with _small_ufunc_buffers(), _overflow_raises("the hermitized sector matrix"):
        for s in range(0, dim, step):
            t = min(s + step, dim)
            herm = np.conjugate(a[:t, s:t].T)  # rows s..t-1 of a^H, to column t
            np.add(a[s:t, :t], herm, out=herm)
            np.true_divide(herm, 2, out=herm)
            np.copyto(a[s:t, :t], herm, where=np.tri(t - s, t, s, dtype=bool))
    return np.sort(np.linalg.eigvalsh(a))


@contextmanager
def _small_ufunc_buffers():
    """A context in which numpy's ufuncs buffer 256 entries an operand.  A
    ufunc on a view of more than one dimension that is not contiguous
    allocates ``np.getbufsize()`` entries for each operand, 128 KiB for a
    complex one by default, even when no cast needs them, as none of
    verify's does."""
    old = np.setbufsize(256)
    try:
        yield
    finally:
        np.setbufsize(old)
