"""End-to-end reduction: encode in the permuted basis, project out redundant qubits.

``encode_and_reduce`` takes a number-conserving fermionic operator, finds
the qubits whose value is constant across the sector images, and encodes
the operator in the basis of the chosen permutation U: with U's conjugated
Majoranas, one signed Pauli string each, when U is affine (a Clifford),
given as its map or as a table that scans as one; otherwise with
Jordan-Wigner, conjugated by the chunked dense path told by ``drop_x`` to
skip the terms with X or Y on a constant qubit.  It projects those qubits
out and returns the reduced operator plus each sector rank's label, its
basis index on the surviving qubits.
``sector_oracle`` computes the same physics with no qubit encoding at all:
one private kernel applies a chunk of terms' ladder strings to every
sector state at once.  It is the ground truth that ``verify_reduction``
compares against.  Verification stays inside the sector: it builds only the d x d
block of the reduced operator on the sector labels, never the 2^q x 2^q
matrix, so for d = C(N,K) its cost is dominated by the two d x d
eigensolves of the spectrum check.  Both solves read hermitized triangles
packed into the one (d + 1) x d buffer the block comes in, so for a large
sector and a BLAS pinned to one thread they run side by side on two
threads.  That buffer is the only d x d array verify allocates, so with
the oracle it holds 2 x 16 d^2 bytes (at most 512 MiB under the default
dense cap, d <= 2^12); LAPACK's own working copy of each matrix, 16 d^2
bytes, two at once when the solves run side by side, is not counted there.
"""

from __future__ import annotations

import os
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
    PRUNE_TOL,
    PauliSum,
    _ZERO,
    _block_rows,
    _check_dense_cap,
    _key_groups,
    _overflow_raises,
    parity_u64,
)
from .permutations import AffineMapF2, BasisPermutation, conjugate_pauli_dense

ORACLE_TOL = 1e-9
SPECTRUM_TOL = 1e-8
SIDE_BY_SIDE_DIM = 512  # sector size from which verify's two eigensolves may run at once
# the thread counts numpy's BLAS reads when it loads
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def project_fixed_qubit(s: PauliSum, qubit: int, value: int) -> PauliSum:
    """<value| s |value> on one tensor factor: I keeps a term, Z scales it
    by (-1)^value, X or Y drops it; the result lives on n-1 qubits.

    Runs on the term arrays: the terms without X or Y on the qubit are
    sorted by key, the (at most two) terms that share a key once the qubit
    is folded out are summed and the sum is pruned at ``PRUNE_TOL``.  Only
    the index of those terms, their keys and their gathered coefficients
    are held, so the input is never copied whole; only the surviving keys
    are folded.  Terms keep the order in which their keys first appear."""
    n = s.n_qubits
    if not 1 <= qubit <= n:
        raise DimensionError(f"qubit {qubit} out of range 1..{n}")
    if n == 1:
        raise DimensionError("cannot project the last remaining qubit away")
    if value not in (0, 1):
        raise ValueError(f"qubit {qubit} can only be fixed to 0 or 1, got {value!r}")
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
    total = np.add.reduceat(terms, start)
    del terms
    total = total[seen] + _ZERO
    keep = np.abs(total) > PRUNE_TOL
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

    ``p`` is U as a table or as its affine map x -> Mx (+) b (a
    ``LinearEncodingF2`` has b = 0); ``p.affine`` tells the two paths apart
    and either type's ``apply`` gives the sector images.

    The sector images stay distinct on the surviving qubits, since a
    permutation's images are distinct and agree on every fixed qubit, so
    the reduction never merges two sector states.  The sector images are
    gathered once, in rank order: the redundancy scan runs on them first,
    and each rank's label is its image's surviving bits.  An affine U
    encodes ``h`` with its conjugated Majoranas, which gives the
    Jordan-Wigner encoding conjugated term by term, bit for bit.
    Any other permutation is conjugated on the full 2^N register, which
    ``dense_cap`` bounds in qubits, keeping only the terms with no X or Y
    on a fixed qubit: the projection would drop the others."""
    h.require_number_conserving()
    n = spec.n_modes
    if p.n_qubits != n:
        raise DimensionError("permutation size does not match the mode count")
    if spec.dimension < 2:
        raise InvalidEncodingError(
            "sector holds a single state; there is no operator left to reduce"
        )
    states = np.array(spec.sector_states(), dtype=np.int64)  # in rank order
    affine = p.affine
    images = p.apply(states)
    report = _redundancy_of_images(images, n)

    if affine is not None:
        reduced = encode_fermion_operator(h, linear_encoding_majoranas(affine))
        _check_identity_on_fixed(reduced._arrays[0], n, report)
    else:
        encoded = encode_fermion_operator(h, jw_majoranas(n))
        reduced = conjugate_pauli_dense(p, encoded, dense_cap, drop_x=_fixed_mask(n, report))

    for qubit, value in sorted(report.fixed, reverse=True):
        reduced = project_fixed_qubit(reduced, qubit, value)

    labels = np.zeros_like(images)
    for q in report.surviving:
        labels = (labels << 1) | ((images >> (n - q)) & 1)
    return ReducedHamiltonian(reduced, report, spec, tuple(labels.tolist()))


def _fixed_mask(n: int, report: RedundancyReport) -> int:
    """The register mask of the fixed qubits, qubit q at bit n - q."""
    mask = 0
    for q, _ in report.fixed:
        mask |= 1 << (n - q)
    return mask


def _check_identity_on_fixed(x: np.ndarray, n: int, report: RedundancyReport) -> None:
    """For Clifford permutations every encoded number-conserving term must
    carry only I or Z on the redundant qubits; X or Y there, a set bit of
    an X mask, means the permutation or the conjugation is wrong."""
    if np.any(x & x.dtype.type(_fixed_mask(n, report))):
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
    mode flipped.  ``_apply_ladders`` does this for a chunk of terms and
    every state at once, ``pauli._BLOCK_ENTRIES`` (term, state) pairs at a
    time.  The surviving results are ranked by binary search in the sorted
    sector; those outside it are dropped.  One term sends distinct columns
    to distinct rows, and the results are added with ``np.add.at`` in
    term-major order, so every entry sums its terms in their given order.
    Every mode is checked before anything is allocated.  The d x d matrix is
    dense, so d may be at most 2^dense_cap.
    """
    n = spec.n_modes
    if n > 64:
        raise DimensionError(f"the sector oracle handles at most 64 modes, got {n}")
    _check_dense_cap(spec.q_min, dense_cap)  # q_min = ceil(log2 d)
    live, strings = _ladder_strings(h, n)
    dim = spec.dimension

    states = np.array(spec.sector_states(), dtype=np.uint64)
    out = np.zeros((dim, dim), dtype=complex)
    coeff = h._arrays[3][live]
    step = _block_rows(dim)
    with _overflow_raises("the sector oracle"):
        for start in range(0, live.size, step):
            chunk = slice(start, start + step)
            term, col, state, odd = _apply_ladders(states, *(a[chunk] for a in strings))
            rows = np.minimum(np.searchsorted(states, state), dim - 1)
            hit = states[rows] == state
            c = coeff[chunk][term[hit]]
            np.add.at(out.reshape(-1), rows[hit] * dim + col[hit], np.where(odd[hit] == 1, -c, c))
    return out


def _ladder_strings(h: FermionOperator, n: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The index of the terms of ``h`` that do not kill every state, in
    order, and their ladder strings as ``need``, ``one``, ``flip``, ``sign``,
    ``odd``, read from its array form.

    Ladder operators only flip mode bits, and the sign of each is the
    parity of the occupied modes left of it, which is linear over GF(2).
    So on an occupancy string s, with the operators applied right to left,
    the term survives iff ``s & need == one``, ends at ``s ^ flip`` and
    carries (-1)^(parity(s & sign) ^ odd), ``odd`` a 0/1 ``int64``.  A term
    that asks one mode to be both occupied and empty is not in the index.
    Raises ``DimensionError`` on a mode outside 1..n."""
    modes, daggers, lengths, _ = h._arrays
    # terms x operators, right to left as they apply; the padding, mode 0,
    # comes first and has no bit and nothing left of it
    filled = (np.arange(modes.shape[1]) < lengths[:, None])[:, ::-1]
    grid = modes[:, ::-1]
    used = grid[filled]
    if used.size and not 1 <= used.min() <= used.max() <= n:
        mode = next(m for m in used.tolist() if not 1 <= m <= n)
        raise DimensionError(f"mode {mode} out of range 1..{n}")
    lowers = filled & ~daggers[:, ::-1]
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
    return live, tuple(a[live] for a in masks)


def _apply_ladders(states, need, one, flip, sign, odd):
    """Apply a chunk of ladder strings (``_ladder_strings`` masks) to every
    occupancy string in ``states``.  Returns the surviving (term, column)
    pairs in term-major order, and for each its resulting state and its
    sign bit (1 for a minus sign)."""
    term, col = np.nonzero((states & need[:, None]) == one[:, None])
    start = states[col]
    return term, col, start ^ flip[term], parity_u64(start & sign[term]) ^ odd[term]


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
    then dominate the cost.  The block is the only d x d array allocated:
    the deviation is taken a few rows at a time, and both eigensolves read
    hermitized lower triangles written in place into the (d + 1) x d buffer
    the block comes in.  The block's goes, transposed, into the upper
    triangle of rows 0..d-1, read as ``buf[:d].T``; the oracle's goes into
    the strict lower triangle of the buffer, read as ``buf[1:]``.  The two
    never overlap, and LAPACK sees the same lower triangles whichever way
    the solves run, so the result does not depend on it.  So verify holds
    the oracle and one buffer, 2 x 16 d^2 bytes, which is at most 512 MiB
    under the default ``dense_cap`` (d <= 2^12); LAPACK's own working copy,
    16 d^2 bytes, comes on top, twice at once when the solves run side by
    side.  ``oracle`` is only read.  ``dense_cap`` bounds the reduced
    register.

    The oracle's solve runs on a worker thread while the calling thread
    runs the block's (numpy releases the GIL inside ``eigvalsh``) only
    when all three of these hold, and otherwise after it:

    * d >= ``SIDE_BY_SIDE_DIM``: on a 2-vCPU machine whose CPUs share one
      core, two small solves at once were no faster than in turn (d = 256:
      slower), while two at d = 924 took about half the time;
    * at least two CPUs are usable by this process: on one, the two
      threads would only take turns;
    * at least one of ``BLAS_THREAD_VARS`` is set and every one that is set
      reads 1: a BLAS at its default threading already uses every core,
      and two solves side by side would only contend for them.

    A solve that raises raises from the calling thread, after the worker
    has been joined, as it would in turn."""
    dim = rh.spec.dimension
    if oracle.shape != (dim, dim):
        raise DimensionError("oracle shape does not match the sector dimension")
    buf = rh.pauli_sum._dense_block(rh.labels, dense_cap, spare_row=True)
    block = buf[:dim]
    step = _block_rows(dim)
    max_dev = 0.0  # np.maximum keeps a NaN, as one max over the whole array does
    for start in range(0, dim, step):
        rows = slice(start, start + step)
        max_dev = np.maximum(max_dev, np.max(np.abs(block[rows] - oracle[rows])))
    max_dev = float(max_dev)

    _hermitize_lower(block, block.T, step)
    _hermitize_lower(oracle, buf[1:], step)  # over the block's spent strict lower triangle
    eig_block, eig_oracle = _eigvalsh_pair(block.T, buf[1:], _solve_side_by_side(dim))
    spectrum_dev = float(np.max(np.abs(eig_block - eig_oracle))) if dim else 0.0

    passed = max_dev < tol and spectrum_dev < SPECTRUM_TOL
    return ReductionCheck(max_dev, spectrum_dev, passed, tol)


def _solve_side_by_side(dim: int) -> bool:
    """Whether ``verify_reduction`` runs its two d x d eigensolves on two
    threads at once; its docstring gives the rule and the reasons."""
    if dim < SIDE_BY_SIDE_DIM:
        return False
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    pins = [os.environ[var] for var in BLAS_THREAD_VARS if var in os.environ]
    return cpus >= 2 and bool(pins) and all(pin == "1" for pin in pins)


def _eigvalsh_pair(a: np.ndarray, b: np.ndarray, side_by_side: bool):
    """The sorted eigenvalues of the Hermitian matrices whose lower
    triangles are those of ``a`` and ``b``; with ``side_by_side``, ``b`` is
    solved on a worker thread while this one solves ``a``.  Either way an
    exception from ``a``'s solve wins over one from ``b``'s."""
    if not side_by_side:
        eig_a = np.linalg.eigvalsh(a, UPLO="L")
        return np.sort(eig_a), np.sort(np.linalg.eigvalsh(b, UPLO="L"))
    # imported here: at module level it would slow every `import fermiperm.cli`
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1) as pool:  # leaving the block joins the worker
        eig_b = pool.submit(np.linalg.eigvalsh, b, UPLO="L")
        eig_a = np.linalg.eigvalsh(a, UPLO="L")
    return np.sort(eig_a), np.sort(eig_b.result())


def _hermitize_lower(a: np.ndarray, out: np.ndarray, step: int) -> None:
    """Write (a + a^H) / 2 into the lower triangle of ``out``, diagonal
    included, ``step`` rows at a time; no other entry of ``out`` is written.

    ``out`` may be ``a`` itself or ``a.T``: row block [s, t) reads a[s:t, :t]
    and a[:t, s:t], and writes out[s:t, :t] on or below the diagonal, which
    is a[s:t, :t] or a[:t, s:t] on its side of the diagonal; no later block
    reads those entries.  The add and the halving are the ufuncs of
    ``(a + a.conj().T) / 2``, so every entry has the same bits."""
    with _overflow_raises("the hermitized sector matrix"):
        for start in range(0, a.shape[0], step):
            stop = min(start + step, a.shape[0])
            rows = slice(start, stop)
            target = out[rows, :start]
            np.add(a[rows, :start], a[:start, rows].conj().T, out=target)
            np.true_divide(target, 2, out=target)
            square = a[rows, rows]
            lower = np.tri(stop - start, dtype=bool)
            np.copyto(out[rows, rows], (square + square.conj().T) / 2, where=lower)
