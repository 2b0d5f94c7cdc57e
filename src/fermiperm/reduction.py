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
columns at a time, with the matching rows from the adjoint ladder strings,
and never holds it whole.  Verification stays inside the sector: it builds
only the d x d block of the reduced operator on the sector labels, never
the 2^q x 2^q matrix.  One sweep writes both hermitized triangles into the
(d + 1) x d buffer the block comes in, and one pass over them takes the
Frobenius norm of their difference, which bounds the difference of the
two sector spectra (Weyl); the two d x d eigensolves run only when that
bound does not certify the spectrum check.  That buffer is the only d x d
array verify holds, 16 (d + 1) d bytes (about 256 MiB under the default
dense cap, d <= 2^12); LAPACK's own working copy of each matrix, 16 d^2
bytes, is not counted there when the solves run.  Beside it, each array
of verify's scratch holds at most ``pauli._VERIFY_ENTRIES`` entries (4096,
64 KiB), whatever d and the chunk width: the oracle reaches the sweep as
the summed entries of a chunk of columns, and the sweep hermitizes in
place.
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


def _ladder_strings(
    h: FermionOperator, n: int, adjoint: bool = False
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The coefficients of the terms of ``h`` that do not kill every state,
    in order, and their ladder strings as ``need``, ``one``, ``flip``,
    ``sign``, ``odd``, read from its array form.  With ``adjoint`` the
    strings are those of each term's adjoint, its operators read left to
    right with their dagger flags flipped; the coefficients are not
    conjugated.

    Ladder operators only flip mode bits, and the sign of each is the
    parity of the occupied modes left of it, which is linear over GF(2).
    So on an occupancy string s, with the operators applied in turn, the
    term survives iff ``s & need == one``, ends at ``s ^ flip`` and carries
    (-1)^(parity(s & sign) ^ odd), ``odd`` a 0/1 ``int64``.  A term that
    asks one mode to be both occupied and empty is left out.  Raises
    ``DimensionError`` on a mode outside 1..n."""
    modes, daggers, lengths, coeff = h._arrays
    # terms x operators in the order they apply; the padding, mode 0, has no
    # bit and nothing left of it
    filled = np.arange(modes.shape[1]) < lengths[:, None]
    if adjoint:
        grid, lowers = modes, filled & daggers
    else:
        filled, grid = filled[:, ::-1], modes[:, ::-1]
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


def _apply_ladders(starts, states, coeff, need, one, flip, sign, odd, first):
    """Apply a chunk of ladder strings (``_ladder_strings`` masks, their
    coefficients ``coeff``) to every occupancy string in ``starts``.
    Returns the surviving (term, column) pairs that land on a sector rank
    r >= ``first``, in term-major order, as r - first, the column and the
    signed coefficient."""
    term, col = np.nonzero((starts & need[:, None]) == one[:, None])
    state = starts[col]
    minus = parity_u64(state & sign[term]) != odd[term]
    state ^= flip[term]
    rank = np.searchsorted(states, state)
    np.minimum(rank, states.size - 1, out=rank)
    hit = states[rank] == state
    del state
    if first:
        hit &= rank >= first
    term, col, rank, minus = term[hit], col[hit], rank[hit], minus[hit]
    rank -= first
    value = coeff[term]
    np.negative(value, out=value, where=minus)
    return rank, col, value


def _scatter_ladders(starts, states, coeff, strings, first: int = 0):
    """The one oracle kernel: yield each term's element +-c from
    ``starts[c]`` to sector rank r >= ``first`` as r - first, c and the
    value, in term-major order.

    ``_apply_ladders`` runs on ``_LADDER_PAIRS`` (term, start) pairs at a
    time, one yield each.  The results are ranked by binary search in the
    sorted sector ``states``; those outside it, or ranked below ``first``,
    are dropped.  One term sends distinct starts to distinct rows, so
    ``np.add.at`` over the yields in turn sums every entry's terms in their
    given order."""
    step = max(1, _LADDER_PAIRS // starts.size)
    for start in range(0, coeff.size, step):
        chunk = slice(start, start + step)
        yield _apply_ladders(starts, states, coeff[chunk], *(a[chunk] for a in strings), first)


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
    over the yields in turn would fill."""
    keys, values = [], []
    for rank, col, value in entries:
        keys.append(rank * width + col)
        values.append(value)
    keys = np.concatenate(keys) if keys else np.zeros(0, dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
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
    """The oracle's checks, then for the sector states s..t-1 its column
    and row passes, and the most entries each column of the oracle O gets
    from the kernel.  The column pass gives the entries of O[:, s:t] as
    ``_summed`` does.  The row pass adds O[s:t, t:], transposed, into the
    zeroed ``buf[t + 1:, s:t]``, one kernel step at a time; it applies the
    adjoint ladder strings to the same states, since for a ladder product
    T, <j| T |i> = <i| T^dagger |j>, a real +-1 or 0.

    Below ``_ORACLE_SAFE_SUM`` per part, a sum of some of the coefficients
    cannot pass the largest float.  Otherwise an oracle entry may overflow,
    so the column pass runs once over every state here: its error then
    comes before any other of ``verify_reduction``'s, as when the whole
    oracle was built first."""
    n = spec.n_modes
    coeff, strings = _checked_ladder_strings(h, spec, dense_cap)
    states, dim = spec.states, spec.dimension
    adjoint = None  # built by the first row pass; the last chunk runs none

    def columns(s: int, t: int):
        with _overflow_raises("the sector oracle"):
            return _summed(_scatter_ladders(states[s:t], states, coeff, strings), t - s)

    def rows(s: int, t: int, buf: np.ndarray) -> None:
        nonlocal adjoint
        adjoint = adjoint or _ladder_strings(h, n, adjoint=True)
        flat = buf.reshape(-1)
        with _overflow_raises("the sector oracle"):
            for rank, col, value in _scatter_ladders(states[s:t], states, *adjoint, first=t):
                np.add.at(flat, (rank + t + 1) * dim + s + col, value)

    counts = _ladder_counts(states, *strings)
    with np.errstate(over="ignore"):
        safe = all(np.abs(part).sum() < _ORACLE_SAFE_SUM for part in (coeff.real, coeff.imag))
    if not safe:
        cuts = _chunk_cuts(counts)
        for s, t in zip(cuts[:-1], cuts[1:]):
            columns(s, t)
    return columns, rows, counts


def _matrix_passes(oracle: np.ndarray):
    """``_oracle_passes`` for a given complex matrix O: the column pass
    gives the entries of O[:, s:t] that are not +0+0j, in row-major order;
    the row pass copies O[s:t, t:], transposed, into ``buf[t + 1:, s:t]``;
    and each column's count of those entries.  Both read O in blocks of
    rows whose masks hold 8 ``_VERIFY_ENTRIES`` bools."""
    dim = len(oracle)

    def blocks(s: int, t: int):
        step = max(1, 8 * _VERIFY_ENTRIES // (t - s))
        for a in range(0, dim, step):
            part = oracle[a:a + step, s:t]
            kept = part.real.view(np.int64) != 0  # the bits of a part are not all zero
            kept |= part.imag.view(np.int64) != 0
            yield a, part, kept

    def columns(s: int, t: int):
        keys, values = [], []
        for a, part, kept in blocks(s, t):
            keys.append(np.flatnonzero(kept) + a * (t - s))
            values.append(part[kept])
        return np.concatenate(keys), np.concatenate(values)

    def rows(s: int, t: int, buf: np.ndarray) -> None:
        buf[t + 1:, s:t] = oracle[s:t, t:].T

    counts = np.zeros(dim, dtype=np.int64)
    for _, _, kept in blocks(0, dim):
        counts += np.count_nonzero(kept, axis=0)
    return columns, rows, counts


def _chunk_cuts(counts: np.ndarray) -> list[int]:
    """Bounds 0 = c_0 < c_1 < ... = d of the sweep's chunks of columns,
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
    bit for bit.  Given ``h``, the oracle's checks come first and it is
    computed a chunk of columns at a time, never whole; a given complex
    array is only read.  Only the d x d block on the sector labels is
    built, in the (d + 1) x d buffer ``_dense_block`` returns, and
    ``_sweep`` writes both hermitized triangles into that buffer.  So verify
    holds one d x d array, 16 (d + 1) d bytes (about 256 MiB under the
    default ``dense_cap``, d <= 2^12).  Beside it, each array of scratch
    holds at most ``_VERIFY_ENTRIES`` entries, 64 KiB, or one row of the
    2^q-wide transform, and the oracle's kernel steps ``_LADDER_PAIRS``
    (term, state) pairs: at d = 924 and q = 11, about 0.25 MiB at most.
    ``dense_cap`` bounds the reduced register.

    The spectra are certified before they are solved.  For Hermitian A and
    O, max_i |lambda_i(A) - lambda_i(O)| <= ||A - O||_F (Weyl), and
    ``_spectrum_bound`` sums that norm from the two hermitized triangles
    with ufunc reductions, no BLAS, so its bits do not depend on BLAS
    threading.  When ``spectrum_bound * (1 + 1e-6) < SPECTRUM_TOL`` no
    eigensolve runs, ``spectrum_deviation`` is None and ``passed`` is
    ``max_deviation < tol``: the factor covers the sum's own rounding, a
    relative error below d^2 2^-53, 2e-9 at d <= 2^12.  Otherwise, NaN and
    inf included, the two eigensolves run in turn, on LAPACK's copies of
    16 d^2 bytes each, and ``spectrum_deviation``, the largest difference
    of the sorted eigenvalues, must stay below ``SPECTRUM_TOL`` as well."""
    dim = rh.spec.dimension
    if not isinstance(oracle, FermionOperator):
        oracle = np.asarray(oracle, dtype=complex)  # a complex matrix is not copied
        if oracle.shape != (dim, dim):
            raise DimensionError("oracle shape does not match the sector dimension")
    with _small_ufunc_buffers():
        if isinstance(oracle, FermionOperator):
            columns, rows, counts = _oracle_passes(oracle, rh.spec, dense_cap)
        else:
            columns, rows, counts = _matrix_passes(oracle)
        buf = rh.pauli_sum._dense_block(rh.labels, dense_cap, spare_row=True)
        max_dev = _sweep(buf, _chunk_cuts(counts), columns, rows)
        bound = _spectrum_bound(buf)
    if bound * (1 + 1e-6) < SPECTRUM_TOL:
        return ReductionCheck(max_dev, bound, None, max_dev < tol, tol)
    eig_block = np.sort(np.linalg.eigvalsh(buf[:dim].T, UPLO="L"))
    eig_oracle = np.sort(np.linalg.eigvalsh(buf[1:], UPLO="L"))
    spectrum_dev = float(np.max(np.abs(eig_block - eig_oracle)))  # d >= 1: d = 0 certifies
    passed = max_dev < tol and spectrum_dev < SPECTRUM_TOL
    return ReductionCheck(max_dev, bound, spectrum_dev, passed, tol)


def _spectrum_bound(buf: np.ndarray) -> float:
    """||A - O||_F for the Hermitian matrices whose lower triangles
    ``_sweep`` wrote into the (d + 1) x d buffer: A[i, j] = ``buf[j, i]``
    and O[i, j] = ``buf[i + 1, j]`` for i >= j, what LAPACK reads, so the
    rounding of the hermitization is covered.  With D = A - O it is
    sqrt(sum_i |D_ii|^2 + 2 sum_{i>j} |D_ij|^2).

    Column j of D's lower triangle is ``buf[j, j:] - buf[j + 1:, j]``; the
    pass takes blocks of such columns, each of at most ``_VERIFY_ENTRIES``
    entries or one column, and sums their squared parts with ufunc
    reductions only.  A NaN or inf anywhere in the triangles gives a NaN or
    inf bound, with no warning."""
    dim, s, diag, off = buf.shape[1], 0, 0.0, 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        while s < dim:
            n = dim - s
            w = min(n, max(1, _VERIFY_ENTRIES // n))
            # row a holds column s + a of D from row s on; below the diagonal
            # of the block's first w columns are entries i < j, not D's
            delta = np.subtract(buf[s:s + w, s:], buf[s + 1:, s:s + w].T)
            square = delta[:, :w]
            diag += float(np.square(np.abs(square.diagonal())).sum())
            np.copyto(square, 0, where=np.tri(w, dtype=bool))
            parts = delta.view(np.float64)
            off += float(np.square(parts, out=parts).sum())
            s += w
    return float(np.sqrt(diag + 2 * off))


def _sweep(buf: np.ndarray, cuts, columns, rows) -> float:
    """Return max |B - O| for the block B in the first d rows of the
    (d + 1) x d buffer, and write both hermitized lower triangles, (a +
    a^H) / 2, into it: B's, transposed, into the upper triangle of rows
    0..d-1, read as ``buf[:d].T``; the oracle's into the strict lower
    triangle, read as ``buf[1:]``.  ``columns(s, t)`` gives the entries of
    O[:, s:t] as sorted, distinct flat indices of that array and their
    values, every other entry +0+0j; ``rows(s, t, buf)`` writes O[s:t, t:],
    transposed, into the zeroed ``buf[t + 1:, s:t]``.

    The chunks J = [s, t) between ``cuts`` run right to left.  When J's
    turn comes no chunk has written to column J or to rows J right of the
    diagonal, so:

    1. the deviation reads B[:, J] raw, in blocks of rows: the block's
       entries of O are subtracted in place, |B - O| there and |B| = |B -
       0| elsewhere give the block's max, and B's bits are put back;
    2. B's entries for rows J go into ``buf[J, s:]``: in place right of
       J's square, and the square's rows from the diagonal on a block of
       rows at a time, through an array of at most ``_VERIFY_ENTRIES``;
    3. O's entries for columns J go into ``buf[j + 1:, j]``, over the raw B
       entries steps 1 and 2 have just read.  The square's, a block of rows
       at a time, through the same array: conj(O[J, J].T) from the entries,
       0j added, and the entries added at their places.  Below the square,
       in place: the region is zeroed, takes the row pass, is conjugated,
       0j is added and the entries of O[t:, J] are added at their places.

    Every entry is ``a[i, j] + conj(a[j, i])`` then ``/ 2``, the ufuncs of
    ``(a + a.conj().T) / 2``, so it has the bits of the whole-matrix form:
    where O has no entry, the +0+0j that ``0j +`` adds stands for it.  No
    scratch array grows with d times the chunk width: each holds the
    chunk's entries, a block of absolute values or of the square, at most
    ``_VERIFY_ENTRIES`` entries' bytes.  ``verify_reduction`` runs it, and
    the block, under ``_small_ufunc_buffers``."""
    max_dev = 0.0  # np.maximum keeps a NaN, as one max over the whole array does
    for s, t in reversed(list(zip(cuts[:-1], cuts[1:]))):
        max_dev = np.maximum(max_dev, _sweep_chunk(buf, s, t, columns, rows))
    return float(max_dev)


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


def _sweep_chunk(buf: np.ndarray, s: int, t: int, columns, rows):
    """One chunk of ``_sweep``, whose docstring gives its steps; returns
    its deviation.  Its arrays go when it returns, before the next chunk's
    entries are made."""
    dim, w = buf.shape[1], t - s
    flat = buf.reshape(-1)
    keys, values = columns(s, t)
    inside, below = np.searchsorted(keys, [s * w, t * w])
    square = values[inside:below]  # O[J, J]'s entries, at J's flat indices
    direct = keys[inside:below] - s * w
    moved = direct % w * w + direct // w  # and at conj(O[J, J].T)'s
    at = keys + keys // w * (dim - w) + s  # each entry's index in ``flat``
    del keys
    max_dev = 0.0
    step = max(1, 2 * _VERIFY_ENTRIES // w)  # |B| is 8 bytes, half an entry
    bounds = np.searchsorted(at, np.arange(0, dim + step, step) * dim)
    for i, a in enumerate(range(0, dim, step)):
        # B - O at the block's entries, B - 0 = B elsewhere; B's bits go back
        e = slice(bounds[i], bounds[i + 1])
        raw = flat[at[e]]
        np.subtract.at(flat, at[e], values[e])
        max_dev = np.maximum(max_dev, np.max(np.abs(buf[a:min(a + step, dim), s:t])))
        flat[at[e]] = raw
    step = max(1, _VERIFY_ENTRIES // w)  # rows of J's square at a time
    scratch = np.empty((step, w), dtype=complex)
    with _overflow_raises("the hermitized sector matrix"):
        right = buf[s:t, t:]
        np.conjugate(right, out=right)
        np.add(buf[t:dim, s:t].T, right, out=right)
        np.true_divide(right, 2, out=right)
        for a in range(0, w, step):  # B's, each row from the diagonal on
            b = min(a + step, w)
            herm = np.conjugate(buf[s + a:s + b, s + a:t], out=scratch[:b - a, a:])
            np.add(buf[s + a:t, s + a:s + b].T, herm, out=herm)
            np.true_divide(herm, 2, out=buf[s + a:s + b, s + a:t])
        for a in range(0, w, step):  # O's: conj(O[J, J].T), then 0j or the entry + it
            b = min(a + step, w)
            herm = scratch[:b - a].reshape(-1)
            herm[...] = np.conjugate(0j)
            there = (moved >= a * w) & (moved < b * w) if step < w else slice(None)
            herm[moved[there] - a * w] = np.conjugate(square[there])
            here = slice(*np.searchsorted(direct, [a * w, b * w]))
            conj_t = herm[direct[here] - a * w]
            np.add(0j, herm, out=herm)
            herm[direct[here] - a * w] = square[here] + conj_t
            np.true_divide(herm, 2, out=herm)
            np.copyto(buf[s + 1 + a:s + 1 + b, s:t], scratch[:b - a],
                      where=np.tri(b - a, w, a, dtype=bool))
        del scratch, herm, square, direct, moved, there, conj_t
        if t == dim:  # no rows below the square
            return max_dev
        at = at[below:] + dim
        lower = buf[t + 1:, s:t]
        lower[...] = 0
        rows(s, t, buf)
        np.conjugate(lower, out=lower)
        conj_rows = flat[at]
        np.add(0j, lower, out=lower)
        flat[at] = values[below:] + conj_rows
        np.true_divide(lower, 2, out=lower)
    return max_dev
