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
one private kernel applies a chunk of terms' ladder strings to a set of
sector states at once.  It is the ground truth that ``verify_reduction``
compares against; given the operator itself, verify computes it a chunk of
columns at a time and never holds it whole.  Verification stays inside the
sector: it builds only the d x d block B of the reduced operator on the
sector labels, never the 2^q x 2^q matrix.  The oracle O is subtracted
from B in place, a chunk of columns at a time given ``h`` and in one ufunc
call given its matrix; one pass over blocks of rows then takes max |B - O|
and the Frobenius norm ||B - O||_F, which bounds the difference of the two
hermitized sector spectra (Weyl); the two d x d eigensolves run only when
that bound does not certify the spectrum check.  B is the only d x d array
verify builds, 16 (d + 1) d bytes with the spare row it is scattered
through (about 256 MiB under the default dense cap, d <= 2^12).  Beside it,
each array of scratch holds at most ``pauli._VERIFY_ENTRIES`` entries
(4096, 64 KiB), whatever d and the chunk width.  When the bound fails, B is
built again and O whole (given ``h``), one after the other, each to be
hermitized in place and solved.
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
    parity_u64,
)
from .permutations import AffineMapF2, BasisPermutation, conjugate_pauli_dense

ORACLE_TOL = 1e-9
SPECTRUM_TOL = 1e-8
# (term, state) pairs per chunk of the oracle kernel, whose broadcast mask
# test holds about 24 bytes a pair, numpy's ufunc buffers included
_LADDER_PAIRS = 1 << 13
_ORACLE_SAFE_SUM = 2.0**1000  # far enough below the largest float, about 2^1024


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
    mode flipped.  This is the column pass of ``_oracle_passes`` over every
    state; ``verify_reduction``, given ``h``, runs it a chunk of columns at
    a time.  Every entry sums its terms in their given order.  Every mode
    is checked before anything is allocated.  The d x d matrix is dense, so
    d may be at most 2^dense_cap.
    """
    coeff, strings = _checked_ladder_strings(h, spec, dense_cap)
    states, dim = spec.states, spec.dimension
    out = np.zeros((dim, dim), dtype=complex)
    flat = out.reshape(-1)
    with _overflow_raises("the sector oracle"):
        for rank, col, value in _scatter_ladders(states, states, coeff, strings):
            np.add.at(flat, rank * dim + col, value)
    return out


def _ladder_strings(h: FermionOperator, n: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The coefficients of the terms of ``h`` that do not kill every state,
    in order, and their ladder strings as ``need``, ``one``, ``flip``,
    ``sign``, ``odd``, read from its array form.

    Ladder operators only flip mode bits, and the sign of each is the
    parity of the occupied modes left of it, which is linear over GF(2).
    So on an occupancy string s, with the operators applied in turn, the
    term survives iff ``s & need == one``, ends at ``s ^ flip`` and carries
    (-1)^(parity(s & sign) ^ odd), ``odd`` a 0/1 ``int64``.  A term that
    asks one mode to be both occupied and empty is left out.  Raises
    ``DimensionError`` on a mode outside 1..n."""
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
    odd = np.bitwise_xor.reduce(parity_u64(before & lefts), axis=1)
    live = np.flatnonzero((one & zero) == 0)
    masks = (one | zero, one, np.bitwise_xor.reduce(bits, axis=1),
             np.bitwise_xor.reduce(lefts, axis=1), odd)
    return coeff[live], tuple(a[live] for a in masks)


def _apply_ladders(starts, states, coeff, need, one, flip, sign, odd):
    """Apply a chunk of ladder strings (``_ladder_strings`` masks, their
    coefficients ``coeff``) to every occupancy string in ``starts``.
    Returns the surviving (term, column) pairs that land on a sector rank,
    in term-major order, as the rank, the column and the signed
    coefficient."""
    term, col = np.nonzero((starts & need[:, None]) == one[:, None])
    state = starts[col]
    minus = parity_u64(state & sign[term]) != odd[term]
    state ^= flip[term]
    rank = np.searchsorted(states, state)
    np.minimum(rank, states.size - 1, out=rank)
    hit = states[rank] == state
    del state
    term, col, rank, minus = term[hit], col[hit], rank[hit], minus[hit]
    value = coeff[term]
    np.negative(value, out=value, where=minus)
    return rank, col, value


def _scatter_ladders(starts, states, coeff, strings):
    """The one oracle kernel: yield each term's element +-c from
    ``starts[c]`` to sector rank r as r, c and the value, in term-major
    order.

    ``_apply_ladders`` runs on ``_LADDER_PAIRS`` (term, start) pairs at a
    time, one yield each.  The results are ranked by binary search in the
    sorted sector ``states``; those outside it are dropped.  One term sends distinct starts to distinct rows, so
    ``np.add.at`` over the yields in turn sums every entry's terms in their
    given order."""
    step = max(1, _LADDER_PAIRS // starts.size)
    for start in range(0, coeff.size, step):
        chunk = slice(start, start + step)
        yield _apply_ladders(starts, states, coeff[chunk], *(a[chunk] for a in strings))


def _ladder_counts(states, need, one, *_) -> np.ndarray:
    """How many of the ladder strings (``_ladder_strings`` masks) survive
    on each of ``states``: the most entries the kernel gives its column."""
    counts = np.zeros(states.size, dtype=np.int64)
    step = max(1, _LADDER_PAIRS // states.size)
    for start in range(0, need.size, step):
        chunk = slice(start, start + step)
        counts += np.count_nonzero((states & need[chunk, None]) == one[chunk, None], axis=0)
    return counts


def _summed(entries, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct flat indices r * ``width`` + c of ``_scatter_ladders``
    yields, sorted, and each one's values summed by ``np.add.at`` from +0
    in the order given: the entries of the zeroed array that ``np.add.at``
    over the yields in turn would fill.  The n entries are grouped by one
    sort of the words key * n + position, the stable order of the keys."""
    keys, values = [], []
    for rank, col, value in entries:
        keys.append(rank * width + col)
        values.append(value)
    keys = np.concatenate(keys) if keys else np.zeros(0, dtype=np.int64)
    # The words fit in int64: keys < d * width <= 2^32 under the 2^16-state
    # sector cap, and n < 2^31.  An empty chunk divides by 1.
    n = max(keys.size, 1)
    keys *= n
    keys += np.arange(keys.size)
    keys.sort()
    keys, order = np.divmod(keys, n)
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    inverse = np.cumsum(first)  # each entry's distinct index, in sorted order
    inverse -= 1
    inverse[order] = inverse.copy()  # and in the order given
    del order
    keys = keys[first]
    total = np.zeros(keys.size, dtype=complex)
    start = 0
    for value in values:  # one piece at a time, in order
        np.add.at(total, inverse[start:start + value.size], value)
        start += value.size
    return keys, total


def _checked_ladder_strings(h: FermionOperator, spec: SectorSpec, dense_cap: int):
    """The oracle's checks, then ``_ladder_strings(h, N)``."""
    n = spec.n_modes
    if n > 64:
        raise DimensionError(f"the sector oracle handles at most 64 modes, got {n}")
    _check_dense_cap(spec.q_min, dense_cap)  # q_min = ceil(log2 d)
    return _ladder_strings(h, n)


def _oracle_passes(h: FermionOperator, spec: SectorSpec, dense_cap: int):
    """The oracle's checks, then its column pass, which gives the entries
    of O[:, s:t] for the sector states s..t-1 as ``_summed`` does, and the
    most entries each column of the oracle O gets from the kernel.

    Below ``_ORACLE_SAFE_SUM`` per part, a sum of some of the coefficients
    cannot pass the largest float.  Otherwise an oracle entry may overflow,
    so the column pass runs once over every state here: its error then
    comes before any other of ``verify_reduction``'s, as when the whole
    oracle was built first."""
    coeff, strings = _checked_ladder_strings(h, spec, dense_cap)
    states = spec.states

    def columns(s: int, t: int):
        with _overflow_raises("the sector oracle"):
            return _summed(_scatter_ladders(states[s:t], states, coeff, strings), t - s)

    counts = _ladder_counts(states, *strings)
    with np.errstate(over="ignore"):
        safe = all(np.abs(part).sum() < _ORACLE_SAFE_SUM for part in (coeff.real, coeff.imag))
    if not safe:
        cuts = _chunk_cuts(counts)
        for s, t in zip(cuts[:-1], cuts[1:]):
            columns(s, t)
    return columns, counts


def _chunk_cuts(counts: np.ndarray) -> list[int]:
    """Bounds 0 = c_0 < c_1 < ... = d of verify's chunks of columns,
    taken left to right: each chunk is as wide as keeps the entries
    ``counts`` gives its columns within ``_VERIFY_ENTRIES``, and one column
    at least."""
    total = np.concatenate(([0], np.cumsum(counts)))
    cuts = [0]
    while cuts[-1] < counts.size:
        s = cuts[-1]
        t = int(np.searchsorted(total, total[s] + _VERIFY_ENTRIES, side="right")) - 1
        cuts.append(max(t, s + 1))
    return cuts


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
    bit for bit.  Only the d x d block B on the sector labels is built, and
    O is subtracted from it in place, an overflow giving inf, not a warning:
    given ``h``, after the oracle's checks, a chunk of columns at a time and
    never whole (``_subtract_chunks``); given a complex array of any layout,
    in one ``np.subtract`` that only reads it.  So verify holds one d x d
    array, 16 (d + 1) d bytes with the spare row ``_dense_block`` scatters
    into (about 256 MiB under the default ``dense_cap``, d <= 2^12).
    Beside it, each array of scratch holds at most ``_VERIFY_ENTRIES``
    entries, 64 KiB, or one row of the 2^q-wide transform, and the
    oracle's kernel steps ``_LADDER_PAIRS`` (term, state) pairs: at d = 924
    and q = 11, at most about 0.25 MiB given ``h``, 0.16 MiB given the
    matrix.  ``dense_cap`` bounds the reduced register.

    The spectra are certified before they are solved.  For Hermitian A and
    O', max_i |lambda_i(A) - lambda_i(O')| <= ||A - O'||_F (Weyl), and
    hermitizing is a projection, so ||B - O||_F bounds the difference of
    the spectra of (B + B^H) / 2 and (O + O^H) / 2 taken exactly (their
    rounding, 2^-53 of each entry, is not counted).  It is summed with
    ufunc reductions, no BLAS, so its bits do not depend on BLAS threading.
    When ``spectrum_bound * (1 + 1e-6) < SPECTRUM_TOL`` no eigensolve runs,
    ``spectrum_deviation`` is None and ``passed`` is ``max_deviation <
    tol``: the factor covers the sum's own rounding, a relative error below
    d^2 2^-53, 2e-9 at d <= 2^12.  Otherwise, NaN and inf included, B is
    built again, then O whole if ``h`` was given or else a copy of the given
    matrix, and each is hermitized in place as (a + a^H) / 2 and solved
    before the next is built: this path holds one d x d array beside
    LAPACK's copy, a traced peak of 1.05 x 16 d^2 at d = 924.
    ``spectrum_deviation``, the largest difference of the sorted
    eigenvalues, must stay below ``SPECTRUM_TOL`` as well."""
    dim = rh.spec.dimension
    if not isinstance(oracle, FermionOperator):
        oracle = np.asarray(oracle, dtype=complex)  # a complex matrix is not copied
        if oracle.shape != (dim, dim):
            raise DimensionError("oracle shape does not match the sector dimension")
    with _small_ufunc_buffers():
        if isinstance(oracle, FermionOperator):
            columns, counts = _oracle_passes(oracle, rh.spec, dense_cap)
        block = rh.pauli_sum._dense_block(rh.labels, dense_cap, small_blocks=True)
        if isinstance(oracle, FermionOperator):
            _subtract_chunks(block, _chunk_cuts(counts), columns)
        else:
            with np.errstate(over="ignore", invalid="ignore"):  # inf on overflow, not a warning
                np.subtract(block, oracle, out=block)
        max_dev, bound = _deviation_and_bound(block)
        del block  # holds B - O; a failed certificate builds B again
    if bound * (1 + 1e-6) < SPECTRUM_TOL:
        return ReductionCheck(max_dev, bound, None, max_dev < tol, tol)
    eig_block = _hermitized_spectrum(rh.pauli_sum._dense_block(rh.labels, dense_cap))
    if isinstance(oracle, FermionOperator):
        eig_oracle = _hermitized_spectrum(sector_oracle(oracle, rh.spec, dense_cap))
    else:
        eig_oracle = _hermitized_spectrum(oracle.copy())  # the caller's matrix is only read
    spectrum_dev = float(np.max(np.abs(eig_block - eig_oracle)))  # d >= 1: d = 0 certifies
    passed = max_dev < tol and spectrum_dev < SPECTRUM_TOL
    return ReductionCheck(max_dev, bound, spectrum_dev, passed, tol)


def _subtract_chunks(block: np.ndarray, cuts, columns) -> None:
    """Subtract the oracle O from the d x d block B in place by chunks of
    columns [s, t) between ``cuts``: ``columns(s, t)`` gives O[:, s:t] as
    sorted, distinct flat indices of that array and their values, every
    other entry +0+0j, and ``np.subtract.at`` takes those from B.  As
    b - (+0.0) is b in every bit, B has the bits of the whole difference."""
    dim = block.shape[1]
    flat = block.reshape(-1)
    for s, t in zip(cuts[:-1], cuts[1:]):
        w = t - s
        keys, values = columns(s, t)
        with np.errstate(over="ignore", invalid="ignore"):  # inf on overflow, not a warning
            np.subtract.at(flat, keys + keys // w * (dim - w) + s, values)
        del keys, values  # before the next chunk's entries are made


def _deviation_and_bound(block: np.ndarray) -> tuple[float, float]:
    """max |B - O| and ||B - O||_F of a d x d block that holds B - O.
    Blocks of rows, each of at most ``_VERIFY_ENTRIES`` entries or one
    row, write their absolute values into one buffer and give their max
    and sum of squares.  In block order, the maxes are chained by
    ``np.maximum`` from 0.0, which keeps a NaN as one max over the whole
    array does, and the sums are added to 0.0.  A NaN or inf anywhere
    gives a NaN or inf bound, with no warning."""
    dim = block.shape[1]
    step = max(1, _VERIFY_ENTRIES // dim)
    starts = range(0, dim, step)
    mag = np.empty((min(step, dim), dim))
    maxes, sums = np.zeros(len(starts) + 1), np.zeros(len(starts) + 1)  # [0]: the 0.0 start
    with np.errstate(over="ignore", invalid="ignore"):
        for i, a in enumerate(starts, 1):
            part = np.abs(block[a:a + step], out=mag[:min(step, dim - a)])
            maxes[i] = np.maximum.reduce(part, axis=None)
            sums[i] = np.add.reduce(np.square(part, out=part), axis=None)
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
