"""Shared test oracles, independent of the library's own dense paths."""

import numpy as np

from fermiperm import (
    BasisPermutation,
    DimensionError,
    GateCircuit,
    InvalidEncodingError,
    PauliString,
    PauliSum,
    RedundancyReport,
    conjugate_pauli_affine,
    pauli_decompose,
    permutation_from_circuit,
    rank_weightk,
    unrank_weightk,
)
from fermiperm import f2
from fermiperm.encodings import _coerce_majorana, encode_ladder
from fermiperm.pauli import (
    DENSE_CAP,
    PRUNE_TOL,
    _check_dense_cap,
    _decompose_displacements,
    _mask_product,
    parity_u64,
)
from fermiperm.permutations import _check_storage_cap
from fermiperm.reduction import ORACLE_TOL, SPECTRUM_TOL, ReductionCheck

_SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _merge(pairs) -> dict[tuple[int, int], complex]:
    """The dict route's merge, the reference for ``pauli._fold``: sum the
    coefficients of like keys, in first-seen key order, and drop every sum
    of magnitude at most ``PRUNE_TOL``."""
    merged: dict[tuple[int, int], complex] = {}
    for key, coeff in pairs:
        merged[key] = merged.get(key, 0.0) + complex(coeff)
    return {k: c for k, c in merged.items() if abs(c) > PRUNE_TOL}


def _products(a_items, b_items: list) -> list[tuple[tuple[int, int], complex]]:
    """The dict route's product, the reference for ``pauli._row_products``:
    unmerged (key, coefficient) pairs of a * b, a's terms in the outer loop."""
    items = []
    for (xa, za), ca in a_items:
        for (xb, zb), cb in b_items:
            x, z, k = _mask_product(xa, za, xb, zb)
            items.append(((x, z), ca * cb * 1j**k))
    return items


def products_loop(n_qubits: int, a_items, b_items) -> list:
    """Reference for ``PauliSum.__mul__`` before its merge: one validated
    ``PauliString`` per operand and one ``PauliString`` product per pair.
    Unmerged (key, coefficient) pairs of a * b, a's terms in the outer
    loop."""
    items = []
    for (xa, za), ca in a_items:
        pa = PauliString(n_qubits, xa, za)
        for (xb, zb), cb in b_items:
            prod = pa * PauliString(n_qubits, xb, zb)
            items.append(((prod.x_bits, prod.z_bits), ca * cb * prod.coefficient))
    return items


# Single-qubit products P * Q = i^k R of distinct non-identity letters.
_LETTER_PRODUCTS = {
    ("X", "Y"): (1, "Z"), ("Y", "Z"): (1, "X"), ("Z", "X"): (1, "Y"),
    ("Y", "X"): (3, "Z"), ("Z", "Y"): (3, "X"), ("X", "Z"): (3, "Y"),
}


def letter_product(a: str, b: str) -> tuple[str, int]:
    """Reference for ``PauliString.__mul__`` on unit-phase strings, one
    qubit at a time: the letters of a * b and its power of i."""
    k = 0
    out = []
    for p, q in zip(a, b):
        if p == "I" or q == "I" or p == q:
            out.append(q if p == "I" else p if q == "I" else "I")
        else:
            dk, r = _LETTER_PRODUCTS[p, q]
            k += dk
            out.append(r)
    return "".join(out), k % 4


def kron_dense(letters: str, coeff: complex = 1.0) -> np.ndarray:
    """Tensor product of literal 2x2 matrices, qubit 1 as the leftmost factor."""
    out = np.array([[coeff]], dtype=complex)
    for ch in letters:
        out = np.kron(out, _SINGLE[ch])
    return out


def kron_dense_sum(pairs) -> np.ndarray:
    """Dense matrix of a list of (coeff, letters) pairs via the kron oracle."""
    return sum(kron_dense(letters, coeff) for coeff, letters in pairs)


def permutation_matrix(perm) -> np.ndarray:
    """Dense unitary of a BasisPermutation, built by direct indexing."""
    dim = perm.dim
    u = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        u[perm.apply(col), col] = 1.0
    return u


def conjugate_pauli_matrix(p, s: PauliSum) -> PauliSum:
    """Reference for ``conjugate_pauli_dense``: build dense matrices and
    decompose U S U^dag."""
    u = permutation_matrix(p)
    return pauli_decompose(u @ s.to_dense() @ u.conj().T)


def conjugate_affine_loop(affine, encoded: PauliSum) -> PauliSum:
    """Reference for ``encode_and_reduce``'s affine branch: one
    ``PauliString`` and one ``conjugate_pauli_affine`` call per term of the
    Jordan-Wigner encoded sum, in its order, then one merge."""
    n = encoded.n_qubits
    items = []
    for (x, z), coeff in encoded.items():
        q = conjugate_pauli_affine(affine, PauliString(n, x, z))
        items.append(((q.x_bits, q.z_bits), coeff * q.coefficient))
    return PauliSum(n, items)


def conjugate_pauli_dense_loop(p, s: PauliSum, dense_cap: int = DENSE_CAP) -> PauliSum:
    """Reference for ``conjugate_pauli_dense``: one scatter into G per term.
    Exact U S U^dag for an arbitrary basis permutation U, every term kept."""
    n = p.n_qubits
    if s.n_qubits != n:
        raise DimensionError("Pauli sum and permutation act on different registers")
    _check_dense_cap(n, dense_cap)
    dim = p.dim
    cols = np.arange(dim, dtype=np.int64)
    p_inv = p.inverse().image
    g = np.zeros((dim, dim), dtype=complex)
    for (x, z), coeff in s.items():
        # column v of U P U^dag holds coeff * i^|x&z| * (-1)^(z.u) at row
        # p(u (+) x), u = p^-1(v): one entry per column, so a plain += suffices
        amp = coeff * 1j ** ((x & z).bit_count() % 4)
        g[p.image[p_inv ^ x] ^ cols, cols] += amp * (1.0 - 2.0 * parity_u64(p_inv & z))
    return PauliSum._from_arrays(n, *_decompose_displacements(g))


def random_pauli_sum(n_qubits: int, n_terms: int, rng: np.random.Generator) -> PauliSum:
    items = []
    for _ in range(n_terms):
        x = int(rng.integers(0, 1 << n_qubits))
        z = int(rng.integers(0, 1 << n_qubits))
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        items.append(((x, z), c))
    return PauliSum(n_qubits, items)


def array_sum(n_qubits: int, terms: dict) -> PauliSum:
    """A sum that adopts ``terms`` (distinct keys, every coefficient above
    ``PRUNE_TOL``) as term arrays, with no merge, so signed zeros survive."""
    dtype = np.uint64 if n_qubits <= 64 else object
    x = np.array([x for x, _ in terms], dtype=dtype)
    z = np.array([z for _, z in terms], dtype=dtype)
    return PauliSum._from_arrays(n_qubits, x, z, np.array(list(terms.values()), dtype=complex))


def random_pauli_letters(n_qubits: int, rng: np.random.Generator) -> str:
    return "".join(rng.choice(list("IXYZ")) for _ in range(n_qubits))


def random_invertible(n: int, rng: np.random.Generator) -> np.ndarray:
    """Sample a uniformly random invertible GF(2) matrix by rejection."""
    while True:
        m = rng.integers(0, 2, size=(n, n), dtype=np.uint8)
        if f2.is_invertible(m):
            return m


def three_cnot_circuit() -> GateCircuit:
    """The two-fermion example circuit: product CNOT(1->4) CNOT(2->4) CNOT(3->4),
    transcribed with the rightmost factor first."""
    c = GateCircuit(4)
    c.cnot(3, 4)
    c.cnot(2, 4)
    c.cnot(1, 4)
    return c


def three_cnot_permutation():
    return permutation_from_circuit(three_cnot_circuit())


def sector_oracle_loop(h, spec) -> np.ndarray:
    """Reference for ``sector_oracle``: one Python step per column, term and
    ladder operator.  H[r', r] = <unrank(r')| h |unrank(r)>, applying ladder
    operators directly to occupancy strings with the sign
    (-1)^(number of occupied modes left of the acted mode)."""
    n, k = spec.n_modes, spec.n_fermions
    dim = spec.dimension
    if dim > 1 << 12:
        raise DimensionError("sector dimension exceeds the dense cap")

    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        start = unrank_weightk(col, n, k)
        for term in h.terms:
            amp = complex(term.coefficient)
            state = start
            dead = False
            for mode, dagger in reversed(term.ops):
                bit = 1 << (n - mode)
                occupied = bool(state & bit)
                if dagger == occupied:
                    dead = True
                    break
                left_mask = ~((bit << 1) - 1)
                if (state & left_mask).bit_count() % 2:
                    amp = -amp
                state ^= bit
            if dead:
                continue
            if state.bit_count() == k:
                out[rank_weightk(state, n, k), col] += amp
    return out


def sector_oracle_term_loop(h, spec, dense_cap: int = DENSE_CAP) -> np.ndarray:
    """Reference for ``sector_oracle``: one vectorised pass over the columns
    per term and ladder operator, bit for bit the oracle's sums.
    H[r', r] = <unrank(r')| h |unrank(r)> on ``uint64`` occupancy strings."""
    n = spec.n_modes
    if n > 64:
        raise DimensionError(f"the sector oracle handles at most 64 modes, got {n}")
    _check_dense_cap(spec.q_min, dense_cap)  # q_min = ceil(log2 d)
    dim = spec.dimension

    states = spec.states
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


def project_fixed_qubit_loop(s: PauliSum, qubit: int, value: int) -> PauliSum:
    """Reference for ``project_fixed_qubit``: one Python step per term.
    <value| s |value> on one tensor factor: I keeps a term, Z scales it
    by (-1)^value, X or Y drops it; the result lives on n-1 qubits."""
    n = s.n_qubits
    if not 1 <= qubit <= n:
        raise DimensionError(f"qubit {qubit} out of range 1..{n}")
    if n == 1:
        raise DimensionError("cannot project the last remaining qubit away")
    bit = 1 << (n - qubit)
    low = bit - 1
    items = []
    for (x, z), coeff in s.items():
        if x & bit:
            continue  # X or Y: off-diagonal on the fixed qubit
        if z & bit and value:
            coeff = -coeff
        x_new = ((x >> 1) & ~low) | (x & low)
        z_new = ((z >> 1) & ~low) | (z & low)
        items.append(((x_new, z_new), coeff))
    return PauliSum(n - 1, items)


def minimal_permutation_index_embed_loop(
    spec, completion="ordered", rng=None
) -> BasisPermutation:
    """Reference for ``minimal_permutation_index_embed``: Python lists, sets
    and loops over all 2^N states.  Sends the weight-K state of rank r to
    r << (N - q_min) and completes the other states per ``completion``."""
    n, k = spec.n_modes, spec.n_fermions
    _check_storage_cap(n)
    dim = 1 << n
    shift = n - spec.q_min
    sources = spec.states.tolist()
    targets = [r << shift for r in range(spec.dimension)]
    image = np.full(dim, -1, dtype=np.int64)
    for src, tgt in zip(sources, targets):
        image[src] = tgt

    src_set, tgt_set = set(sources), set(targets)
    if completion == "compact":
        for state in range(dim):
            if image[state] >= 0:
                continue
            if state not in tgt_set:
                image[state] = state
        leftovers = sorted(src_set - tgt_set)
        for state, tgt in zip(sorted(tgt_set - src_set), leftovers):
            image[state] = tgt
    else:
        free_targets = [s for s in range(dim) if s not in tgt_set]
        if completion == "random":
            if rng is None:
                raise ValueError("completion='random' requires an rng")
            free_targets = list(rng.permutation(free_targets))
        elif completion != "ordered":
            raise ValueError(f"unknown completion rule {completion!r}")
        free_iter = iter(free_targets)
        for state in range(dim):
            if image[state] < 0:
                image[state] = next(free_iter)
    return BasisPermutation(image)


def items_sorted_loop(s: PauliSum) -> list[tuple[str, complex]]:
    """Reference for ``PauliSum.items_sorted``: one ``PauliString`` per term.
    (letters, coefficient) pairs sorted lexicographically by letters."""
    out = [
        (PauliString(s.n_qubits, key[0], key[1]).letters(), c) for key, c in s.items()
    ]
    out.sort(key=lambda t: t[0])
    return out


def redundant_qubits_loop(p, spec) -> RedundancyReport:
    """Reference for ``redundant_qubits``: one Python set per qubit.
    Scan the images of all weight-K states for constant bit positions."""
    n = p.n_qubits
    if n != spec.n_modes:
        raise DimensionError("permutation and sector have different sizes")
    images = [p.apply(s) for s in spec.states.tolist()]
    fixed = []
    surviving = []
    for q in range(1, n + 1):
        bit = 1 << (n - q)
        values = {(img & bit) != 0 for img in images}
        if len(values) == 1:
            fixed.append((q, int(values.pop())))
        else:
            surviving.append(q)
    return RedundancyReport(tuple(fixed), tuple(surviving))


def encode_fermion_operator_loop(h, majoranas) -> PauliSum:
    """Reference for ``encode_fermion_operator``: one ``PauliSum`` product per
    ladder operator and one ``total + acc`` per term.  Encode each term as the
    product of its encoded ladder operators, in the order written, and return
    the sum."""
    n_modes = len(majoranas)
    if h.max_mode() > n_modes:
        raise DimensionError(
            f"operator touches mode {h.max_mode()} but only {n_modes} are encoded"
        )
    first = _coerce_majorana(majoranas[0][0])
    n_qubits = first.n_qubits
    total = PauliSum(n_qubits)
    for term in h.terms:
        acc = PauliSum(n_qubits, [((0, 0), term.coefficient)])
        for mode, dag in term.ops:
            acc = acc * encode_ladder(mode, dag, majoranas)
        total = total + acc
    return total


def encode_fermion_operator_dict(h, majoranas) -> PauliSum:
    """Reference for ``encode_fermion_operator``: the dict route, one Python
    step per product.  Each term is ``_merge`` of ``_products`` of its
    coefficient and each encoded ladder in turn; its keys are added in
    order into one dict as ``(0.0 + total) + c``, and a key whose sum is at
    most ``PRUNE_TOL`` (or NaN) is deleted, to come back at the end."""
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
    return PauliSum(n_qubits, total)


def verify_reduction_dense(rh, oracle, tol=ORACLE_TOL, dense_cap=DENSE_CAP,
                           certify=True) -> ReductionCheck:
    """Reference for ``verify_reduction``: whole-matrix temporaries.
    Compare every sector matrix element of the reduced operator against
    the brute-force oracle, and the sector spectra as well: the Frobenius
    norm of the difference of the block and the oracle, and the two
    eigensolves of the hermitized matrices only when it does not certify
    the spectra.  With
    ``certify=False`` the eigensolves always run and decide, as before the
    certificate."""
    dim = rh.spec.dimension
    if oracle.shape != (dim, dim):
        raise DimensionError("oracle shape does not match the sector dimension")
    block = rh.pauli_sum._dense_block(rh.labels, dense_cap)
    max_dev = float(np.max(np.abs(block - oracle))) if dim else 0.0

    with np.errstate(over="ignore", invalid="ignore"):
        bound = float(np.sqrt(np.sum(np.abs(block - oracle) ** 2)))
    if certify and bound * (1 + 1e-6) < SPECTRUM_TOL:
        return ReductionCheck(max_dev, bound, None, max_dev < tol, tol)
    herm_block = (block + block.conj().T) / 2
    herm_oracle = (oracle + oracle.conj().T) / 2
    eig_block = np.sort(np.linalg.eigvalsh(herm_block))
    eig_oracle = np.sort(np.linalg.eigvalsh(herm_oracle))
    spectrum_dev = float(np.max(np.abs(eig_block - eig_oracle))) if dim else 0.0

    passed = max_dev < tol and spectrum_dev < SPECTRUM_TOL
    return ReductionCheck(max_dev, bound, spectrum_dev, passed, tol)


def deviation_and_bound_rows(delta: np.ndarray, entries: int) -> tuple[float, float]:
    """Reference for the row loop of ``reduction._deviation_and_bound`` on
    B - O: blocks of ``entries // d`` rows, or one, each its own array of
    absolute values, the maxes chained by ``np.maximum`` from 0.0 and each
    block's sum of squares added to a 0.0 total, in block order."""
    dim = delta.shape[1]
    max_dev, total = 0.0, 0.0
    step = max(1, entries // dim)
    for a in range(0, dim, step):
        mag = np.abs(delta[a:a + step])
        max_dev = np.maximum(max_dev, np.max(mag))
        with np.errstate(over="ignore", invalid="ignore"):
            total += float(np.square(mag, out=mag).sum())
    return float(max_dev), float(np.sqrt(total))


# GF(2) references: three eliminations independent of ``f2._row_ops``, and
# the matrix-vector product behind ``f2._xor_columns``.


def matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (m.astype(np.uint16) @ v.astype(np.uint16) % 2).astype(np.uint8)


def rank_masks(masks) -> int:
    """GF(2) rank of the row masks, by elimination on the highest set bit."""
    pivots: dict[int, int] = {}
    r = 0
    for row in masks:
        while row:
            h = row.bit_length() - 1
            if h in pivots:
                row ^= pivots[h]
            else:
                pivots[h] = row
                r += 1
                break
    return r


def gauss_jordan_inverse(m: np.ndarray) -> np.ndarray:
    """Invert over GF(2) by Gauss-Jordan elimination; raises if singular."""
    m = np.array(m, dtype=np.uint8) % 2
    n = m.shape[0]
    aug = np.concatenate([m, f2.identity(n)], axis=1)
    row = 0
    for col in range(n):
        pivots = np.nonzero(aug[row:, col])[0]
        if pivots.size == 0:
            raise InvalidEncodingError("matrix is singular over GF(2)")
        p = row + pivots[0]
        if p != row:
            aug[[row, p]] = aug[[p, row]]
        others = np.nonzero(aug[:, col])[0]
        for r in others:
            if r != row:
                aug[r] ^= aug[row]
        row += 1
    return aug[:, n:].copy()


def gl_to_cnot_circuit_loop(m: np.ndarray) -> GateCircuit:
    """Reference for ``gl_to_cnot_circuit``: the elimination on uint8 rows.

    Gaussian elimination, column-major: clear below the diagonal, then above
    it.  Each row operation row_t += row_c is a CNOT with control c+1 and
    target t+1; the recorded operations, reversed, reproduce M.
    """
    n = m.shape[0]
    work = m.astype(np.uint8).copy()
    ops: list[tuple[int, int]] = []  # (control row, target row), 0-based

    def add_row(src: int, dst: int) -> None:
        work[dst] ^= work[src]
        ops.append((src, dst))

    for col in range(n):
        if work[col, col] == 0:
            below = [r for r in range(col + 1, n) if work[r, col]]
            add_row(below[0], col)
        for r in range(col + 1, n):
            if work[r, col]:
                add_row(col, r)
    for col in range(n - 1, 0, -1):
        for r in range(col - 1, -1, -1):
            if work[r, col]:
                add_row(col, r)

    circuit = GateCircuit(n)
    for src, dst in reversed(ops):
        circuit.cnot(src + 1, dst + 1)
    return circuit


def walsh_hadamard_rows_reshape(a: np.ndarray) -> None:
    """Reference for ``pauli._walsh_hadamard_rows``: every butterfly level
    through one (rows, size / 2h, 2, h) view, in place."""
    rows, size = a.shape
    tmp = np.empty(rows * size // 2, dtype=a.dtype)
    h = 1
    while h < size:
        pairs = a.reshape(rows, size // (2 * h), 2, h)
        lo, hi = pairs[:, :, 0, :], pairs[:, :, 1, :]
        diff = tmp.reshape(rows, size // (2 * h), h)
        np.subtract(lo, hi, out=diff)
        lo += hi
        hi[...] = diff
        h *= 2


_JSON_NAMES = {b"nan": b"NaN", b"inf": b"Infinity", b"-inf": b"-Infinity"}


def spellings_repr(bits: np.ndarray, batch: int = 1 << 12) -> list[bytes]:
    """Reference for ``cli._spellings``: what json writes for each float64
    bit pattern in ``bits``, from one ``repr`` of a list of ``batch`` values
    at a time, split at its separators, with NaN and the infinities renamed
    as json spells them."""
    values = bits.view(np.float64)
    spelled = []
    for start in range(0, values.size, batch):
        spelled += repr(values[start : start + batch].tolist()).encode()[1:-1].split(b", ")
    return [_JSON_NAMES.get(word, word) for word in spelled]


def anticommutation_suite_dense(majoranas) -> tuple[int, list[str]]:
    """``cli.anticommutation_suite`` on dense products: every operator made
    dense, each square compared with I and each anticommutator with 0."""
    names = [f"{g}{j}" for j in range(1, len(majoranas) + 1) for g in ("g", "g'")]
    ops = [op.to_dense() for pair in majoranas for op in pair]
    eye = np.eye(ops[0].shape[0])
    failures = []
    for i, a in enumerate(ops):
        if not np.array_equal(a @ a, eye):
            failures.append(f"{names[i]}^2 != I")
        for j in range(i + 1, len(ops)):
            if np.max(np.abs(a @ ops[j] + ops[j] @ a)) != 0.0:
                failures.append(f"{{ {names[i]}, {names[j]} }} != 0")
    return len(ops) * (len(ops) + 1) // 2, failures
