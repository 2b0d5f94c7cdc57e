"""Basis permutations, affine classification, and Pauli conjugation."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fermiperm import (
    AffineMapF2,
    BasisPermutation,
    DimensionError,
    FermionOperator,
    FermionTerm,
    GateCircuit,
    InvalidEncodingError,
    LinearEncodingF2,
    PauliString,
    PauliSum,
    ResourceError,
    SectorSpec,
    classify_affine,
    commutes,
    conjugate_pauli_affine,
    conjugate_pauli_dense,
    encode_fermion_operator,
    from_cycles,
    gl_to_cnot_circuit,
    jw_majorana,
    jw_majoranas,
    minimal_permutation_index_embed,
    parse_cycles,
    pauli_decompose,
    permutation_from_circuit,
    project_fixed_qubit,
    random_one_body,
)
from fermiperm import f2, permutations
from fermiperm.pauli import PRUNE_TOL
from helpers import (
    array_sum,
    conjugate_pauli_dense_loop,
    conjugate_pauli_matrix,
    gauss_jordan_inverse,
    gl_to_cnot_circuit_loop,
    matvec,
    permutation_matrix,
    project_fixed_qubit_loop,
    random_invertible,
    random_pauli_letters,
    random_pauli_sum,
    rank_masks,
    three_cnot_permutation,
)


def random_affine(n, rng):
    return AffineMapF2(
        random_invertible(n, rng), rng.integers(0, 2, size=n, dtype=np.uint8)
    )


def random_permutation(n, rng):
    return BasisPermutation(rng.permutation(1 << n))


# --- construction ----------------------------------------------------------


def test_from_cycles_empty_is_identity():
    assert from_cycles(3, []) == BasisPermutation(np.arange(8))


def test_from_cycles_one_fermion_ket_table():
    """The naive one-fermion permutation from its stated ket actions."""
    p = from_cycles(4, [(0, 2), (1, 12)])
    assert p.apply(int("0010", 2)) == int("0000", 2)
    assert p.apply(int("0001", 2)) == int("1100", 2)
    assert p.apply(int("1000", 2)) == int("1000", 2)
    assert p.apply(int("0100", 2)) == int("0100", 2)


def test_from_cycles_rejects_bad_input():
    with pytest.raises(ValueError):
        from_cycles(2, [(0, 4)])
    with pytest.raises(ValueError):
        from_cycles(2, [(0, 1), (1, 2)])


def test_image_must_be_integers():
    for image, message in (
        ([0.7, 1.2], "image must hold integers"),
        ([1.0, 0.0], "image must hold integers"),
        ([True, False], "image must hold integers"),
        ([0, 0, 1, 2], "not a bijection"),
        ([0, 1, 2], "power of two"),
        ([0], "power of two"),
    ):
        with pytest.raises(ValueError, match=message):
            BasisPermutation(image)
    assert BasisPermutation(np.array([1, 0], dtype=np.uint8)).apply(0) == 1


@settings(max_examples=40, deadline=None)
@given(st.permutations(list(range(8))))
def test_cycle_round_trip(image):
    p = BasisPermutation(image)
    assert from_cycles(3, p.to_cycles()) == p


def test_parse_cycles():
    assert parse_cycles("(0,2)(1,12)") == [(0, 2), (1, 12)]
    assert parse_cycles("()") == []
    with pytest.raises(ValueError):
        parse_cycles("(0,2")


def test_cycle_string_round_trip():
    rng = np.random.default_rng(3)
    p = BasisPermutation(rng.permutation(16))
    assert from_cycles(4, parse_cycles(p.cycle_string())) == p
    assert BasisPermutation(np.arange(4)).cycle_string() == "()"


def test_permutation_from_circuit_single_cnot():
    c = GateCircuit(2).cnot(1, 2)
    p = permutation_from_circuit(c)
    assert list(p.image) == [0, 1, 3, 2]


def test_permutation_from_circuit_x_gate():
    c = GateCircuit(2).x(1)
    p = permutation_from_circuit(c)
    assert p == from_cycles(2, [(0, 2), (1, 3)])


def test_two_fermion_circuit_state_table():
    p = three_cnot_permutation()
    table = {
        "0011": "0010",
        "0101": "0100",
        "0110": "0110",
        "1001": "1000",
        "1010": "1010",
        "1100": "1100",
    }
    for src, dst in table.items():
        assert p.apply(int(src, 2)) == int(dst, 2)


def test_circuit_text_round_trip():
    text = "CNOT 3 4\nX 2\nTOFFOLI 1 2 3\nMCX 1 2 3 4"
    c = GateCircuit.from_text(4, text)
    assert permutation_from_circuit(GateCircuit.from_text(4, c.to_text())) == (
        permutation_from_circuit(c)
    )
    with pytest.raises(ValueError):
        GateCircuit.from_text(2, "CNOT 1\n")
    with pytest.raises(ValueError):
        GateCircuit.from_text(2, "HADAMARD 1\n")
    with pytest.raises(ValueError, match="^line 1: MCX needs at least two controls$"):
        GateCircuit.from_text(4, "MCX 1 2")


# --- group operations ------------------------------------------------------


def test_inverse_undoes_the_permutation():
    rng = np.random.default_rng(0)
    p = random_permutation(4, rng)
    q = p.inverse()
    assert np.array_equal(p.image[q.image], np.arange(16))
    assert np.array_equal(q.image[p.image], np.arange(16))


def test_inverse_is_built_once_and_kept():
    p = random_permutation(4, np.random.default_rng(1))
    assert p.inverse() is p.inverse()
    assert np.array_equal(p.inverse().image, np.argsort(p.image))


def test_dense_conjugation_rejects_mismatched_registers():
    with pytest.raises(DimensionError, match="different registers"):
        conjugate_pauli_dense(BasisPermutation(np.arange(8)), PauliSum.from_terms(2, [(1.0, "XZ")]))


def test_circuits_and_affine_conjugation_check_their_registers():
    with pytest.raises(ValueError, match="need at least one wire"):
        GateCircuit(0)
    with pytest.raises(DimensionError, match="Pauli string and affine map act on different registers"):
        conjugate_pauli_affine(LinearEncodingF2.parity(3), PauliString.from_letters("XZ"))


def test_parity_chain_inverse_recovers_occupancies():
    n = 5
    chain = GateCircuit(n)
    for j in range(1, n):
        chain.cnot(j, j + 1)
    p = permutation_from_circuit(chain)
    assert p.apply(int("10011", 2)) == int("11101", 2)
    assert p.inverse().apply(int("11101", 2)) == int("10011", 2)


# --- affine classification -------------------------------------------------


def test_classify_identity():
    a = classify_affine(BasisPermutation(np.arange(8)))
    assert a is not None
    assert np.array_equal(a.matrix, np.eye(3, dtype=np.uint8))
    assert not a.offset.any()


def test_classify_parity_chain():
    n = 4
    chain = GateCircuit(n)
    for j in range(1, n):
        chain.cnot(j, j + 1)
    a = classify_affine(permutation_from_circuit(chain))
    assert a is not None
    assert np.array_equal(a.matrix, np.tril(np.ones((n, n), dtype=np.uint8)))
    assert not a.offset.any()


def test_classify_toffoli_not_affine():
    c = GateCircuit(3).toffoli(1, 2, 3)
    assert classify_affine(permutation_from_circuit(c)) is None


def test_affine_is_classified_once_per_table(monkeypatch):
    """A table's ``.affine`` is ``classify_affine``'s answer, scanned on the
    first read only; a map is its own classification."""
    chain = GateCircuit(4)
    for j in range(1, 4):
        chain.cnot(j, j + 1)
    tables = [
        permutation_from_circuit(chain.x(2)),
        permutation_from_circuit(GateCircuit(3).toffoli(1, 2, 3)),
    ]
    expected = [classify_affine(p) for p in tables]
    assert expected[0] is not None and expected[1] is None
    scans = []
    inner = permutations.classify_affine
    monkeypatch.setattr(permutations, "classify_affine", lambda p: scans.append(p) or inner(p))
    for p, a in zip(tables, expected):
        scans.clear()
        assert p.affine == a and scans == [p]
        assert p.affine == a and scans == [p]
    a = expected[0]
    linear = LinearEncodingF2(np.eye(3, dtype=np.uint8))
    assert a.affine is a and linear.affine is linear and scans == [tables[1]]


def test_xor_columns_matches_matvec():
    """The GF(2) column kernel on Python ints of any width and, elementwise,
    on uint64 arrays up to the full 64 bits, against ``matvec``."""
    rng = np.random.default_rng(21)
    for n in (1, 5, 16, 64, 70):
        m = rng.integers(0, 2, size=(n, n), dtype=np.uint8)
        columns = f2.rows_to_masks(m.T)
        vectors = [0, (1 << n) - 1]
        vectors += [f2.vec_to_mask(rng.integers(0, 2, n)) for _ in range(20)]
        expected = [f2.vec_to_mask(matvec(m, f2.mask_to_vec(v, n))) for v in vectors]
        assert [f2._xor_columns(columns, v) for v in vectors] == expected
        if n <= 64:
            got = f2._xor_columns(columns, np.array(vectors, dtype=np.uint64))
            assert got.dtype == np.uint64
            assert got.tolist() == expected


def test_rows_to_masks_matches_the_entrywise_sum():
    """The packed-bytes row masks equal the sum of entry << (n - 1 - column)
    for widths on and off a byte boundary, and for a transposed view."""
    rng = np.random.default_rng(8)
    for n in (0, 1, 7, 8, 9, 16, 63, 64, 70, 130):
        m = rng.integers(0, 2, size=(5, n), dtype=np.uint8)
        expected = [sum(int(v) << (n - 1 - i) for i, v in enumerate(row)) for row in m]
        assert f2.rows_to_masks(m) == expected
        assert f2.rows_to_masks(m.astype(np.int64)) == expected
        assert np.array_equal(f2.masks_to_matrix(expected, n), m)
        assert f2.rows_to_masks(m.T) == f2.rows_to_masks(np.ascontiguousarray(m.T))


@st.composite
def f2_square_matrices(draw):
    """A 0/1 square matrix, n = 1..16, 64 or 70, and an offset.  Half are
    uniform, so singular ones come up; half are invertible by construction:
    unit lower times unit upper triangular, rows permuted."""
    n = draw(st.sampled_from([*range(1, 17), 64, 70]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.integers(0, 2, size=(n, n), dtype=np.uint8)
    if draw(st.booleans()):
        eye = np.eye(n, dtype=np.int64)
        lower = np.tril(m, -1) + eye
        upper = np.triu(rng.integers(0, 2, size=(n, n)), 1) + eye
        m = (lower @ upper % 2)[rng.permutation(n)].astype(np.uint8)
    return m, rng.integers(0, 2, size=n, dtype=np.uint8)


@settings(max_examples=200, deadline=None)
@given(f2_square_matrices())
@example((np.zeros((3, 3), dtype=np.uint8), np.ones(3, dtype=np.uint8)))
@example((f2.identity(70), np.ones(70, dtype=np.uint8)))
@example((f2.parity_matrix(70), np.arange(70, dtype=np.uint8) % 2))
def test_row_ops_match_the_reference_eliminations(case):
    """``f2._row_ops`` is the one elimination: invertibility against the
    rank by highest bit, the replayed inverse against Gauss-Jordan (and
    M^-1 M = I), the CNOT netlist against the elimination on uint8 rows."""
    m, b = case
    n = m.shape[0]
    invertible = f2.is_invertible(m)
    assert invertible == (rank_masks(f2.rows_to_masks(m)) == n)
    if not invertible:
        assert f2._row_ops(m) is None
        return
    minv = gauss_jordan_inverse(m)
    rows, minv_b = AffineMapF2(m, b)._inverse_masks
    assert (rows, minv_b) == (tuple(f2.rows_to_masks(minv)), f2.vec_to_mask(matvec(minv, b)))
    assert np.array_equal(f2.masks_to_matrix(rows, n).astype(np.int64) @ m % 2, np.eye(n))
    circuit = gl_to_cnot_circuit(LinearEncodingF2(m))
    assert circuit.to_text() == gl_to_cnot_circuit_loop(m).to_text()


@pytest.mark.parametrize(
    "matrix, offset, message",
    [
        ([[1, 1], [1, 1]], [0, 1], "invertible"),
        ([[1, 0, 0], [0, 1, 0]], [0, 0], "square"),
        ([[1, 0], [1, 1]], [0, 1, 1], "matching vector"),
        ([[3, 0], [2, 1]], [0, 0], "entries must be 0 or 1"),
        ([[1, 0], [0, -1]], [0, 0], "entries must be 0 or 1"),
        ([[1.5, 0], [0, 1]], [0, 0], "entries must be 0 or 1"),
        ([[1, 0], [0, 1]], [0, 2], "entries must be 0 or 1"),
    ],
    ids=["singular", "not-square", "offset-length", "entry-2", "entry-minus-1", "entry-1.5",
         "offset-2"],
)
def test_affine_map_rejects_bad_input(matrix, offset, message):
    with pytest.raises(ValueError, match=message):
        AffineMapF2(np.array(matrix), np.array(offset))


def test_linear_encoding_is_the_affine_map_with_zero_offset():
    """One map type: a linear encoding is an ``AffineMapF2`` with b = 0,
    equal to one built with a zero offset, and checked by its elimination
    alone, with the encoding error for a singular M."""
    assert not {"__post_init__", "__eq__"} & set(LinearEncodingF2.__dict__)
    parity = LinearEncodingF2.parity(4)
    assert isinstance(parity, AffineMapF2)
    assert parity == AffineMapF2(f2.parity_matrix(4), np.zeros(4, dtype=np.uint8))
    assert parity != LinearEncodingF2.jordan_wigner(4)
    assert not parity.offset.any() and parity.n_qubits == 4
    with pytest.raises(InvalidEncodingError, match="singular over GF\\(2\\)"):
        LinearEncodingF2(np.array([[1, 1], [1, 1]]))


def test_row_ops_keep_eight_bytes_an_addition():
    """The 79,800 additions of a 400-mode parity matrix are held as flat
    32-bit pairs, about 0.6 MiB; a list of tuples holds 6.7 MB."""
    m = f2.parity_matrix(400)
    tracemalloc.start()
    try:
        ops = f2._row_ops(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ops) == 2 * 400 * 399 // 2
    assert peak < 1 << 20


def test_classify_round_trips_random_affine():
    """Random maps with offsets, N = 2..8: the table classifies back to the
    map, and the map's vectorised ``apply`` is the table's lookup, for an
    array (elementwise) and for a Python int (an int)."""
    rng = np.random.default_rng(5)
    for n in range(2, 9):
        for _ in range(10):
            a = random_affine(n, rng)
            table = a.to_permutation()
            assert classify_affine(table) == a
            images = a.apply(np.arange(1 << n))
            assert images.dtype == table.image.dtype
            assert np.array_equal(images, table.image)
            assert np.array_equal(table.apply(np.arange(1 << n)), table.image)
            state = int(rng.integers(1 << n))
            assert type(a.apply(state)) is type(table.apply(state)) is int
            assert a.apply(state) == table.apply(state)



def test_apply_rejects_states_outside_the_register():
    """A table and a map take states in 0..2^n - 1 only, as ints or integer
    arrays; in range they give the lookup and Mx (+) b."""
    table = BasisPermutation([1, 0, 3, 2])
    swap = LinearEncodingF2(np.array([[0, 1], [1, 0]]))
    wide = LinearEncodingF2.jordan_wigner(70)
    for p, images in ((table, [1, 0, 3, 2]), (swap, [0, 2, 1, 3])):
        for bad in (-1, 4, np.array([0, 4]), np.array([-1, 1])):
            with pytest.raises(DimensionError, match=r"outside 0\.\.2\^2 - 1"):
                p.apply(bad)
        # a bool would index the table as a mask, and a float is no state
        for bad in (True, np.array([True, False, True, False]), 2.0):
            with pytest.raises(DimensionError, match="basis states must be integers"):
                p.apply(bad)
        assert [p.apply(s) for s in range(4)] == images
        assert p.apply(np.arange(4)).tolist() == images
        # an object array of ints, the form of states past 64 bits, empty too
        assert p.apply(np.array([1, 2], dtype=object)).tolist() == images[1:3]
        assert p.apply(np.array([], dtype=object)).tolist() == []
    with pytest.raises(DimensionError):
        wide.apply(1 << 70)
    assert wide.apply((1 << 70) - 1) == (1 << 70) - 1
    assert wide.apply(np.array([1 << 69, 3], dtype=object)).tolist() == [1 << 69, 3]

def test_classify_affine_iff_single_term_conjugation():
    """Gottesman-Knill consistency: affine exactly when every single-qubit
    X and Z conjugates to one unit-magnitude term."""
    rng = np.random.default_rng(6)
    n = 3
    perms = [random_permutation(n, rng) for _ in range(15)]
    perms += [random_affine(n, rng).to_permutation() for _ in range(5)]
    for p in perms:
        single = True
        for q in range(1, n + 1):
            for letter in "XZ":
                letters = "I" * (q - 1) + letter + "I" * (n - q)
                s = PauliSum.from_pauli(PauliString.from_letters(letters))
                out = conjugate_pauli_dense(p, s)
                if len(out) != 1:
                    single = False
                else:
                    ((_, coeff),) = list(out.items())
                    if abs(abs(coeff) - 1.0) > 1e-12:
                        single = False
        assert (classify_affine(p) is not None) == single


# --- conjugation -----------------------------------------------------------


def test_affine_conjugation_identity_map():
    p = PauliString.from_letters("XYZI", phase=1)
    assert conjugate_pauli_affine(LinearEncodingF2.jordan_wigner(4), p) == p


def test_affine_conjugation_golden_table():
    a = classify_affine(three_cnot_permutation())
    assert a is not None
    got2 = conjugate_pauli_affine(a, jw_majorana(2, False, 4))
    assert (got2.letters(), got2.phase) == ("ZXIX", 0)
    got4p = conjugate_pauli_affine(a, jw_majorana(4, True, 4))
    assert (got4p.letters(), got4p.phase) == ("IIIY", 0)


def test_dense_conjugation_identity():
    rng = np.random.default_rng(7)
    s = random_pauli_sum(3, 5, rng)
    assert conjugate_pauli_dense(BasisPermutation(np.arange(8)), s) == s


def test_dense_conjugation_of_zero_sum_is_zero():
    rng = np.random.default_rng(9)
    p = random_permutation(4, rng)
    assert conjugate_pauli_dense(p, PauliSum(4)) == PauliSum(4)


def test_dense_conjugation_cap_checked_before_allocation():
    p = BasisPermutation(np.arange(2**13))
    s = PauliSum(13, [((0, 0), 1.0)])
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError):
            conjugate_pauli_dense(p, s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_dense_conjugation_across_row_blocks():
    """Nine qubits: the displacement array spans several row blocks."""
    rng = np.random.default_rng(24)
    p = random_permutation(9, rng)
    s = random_pauli_sum(9, 3, rng)
    u = permutation_matrix(p)
    direct = u @ s.to_dense() @ u.conj().T
    assert np.max(np.abs(conjugate_pauli_dense(p, s).to_dense() - direct)) < 1e-12


@st.composite
def non_affine_hamiltonian_cases(draw):
    """A non-affine permutation on N = 3..6 qubits and the Jordan-Wigner
    encoding of a random one-body Hamiltonian; on half the draws it also
    holds random two-body terms a+_p a+_q a_r a_s and their adjoints."""
    n = draw(st.integers(3, 6))
    p = BasisPermutation(draw(st.permutations(range(1 << n))))
    assume(classify_affine(p) is None)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = random_one_body(n, rng)
    if draw(st.booleans()):
        terms = []
        for _ in range(draw(st.integers(1, 4))):
            a, b = draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
            c, d = draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
            coeff = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            terms.append(FermionTerm.make(coeff, [(a, True), (b, True), (c, False), (d, False)]))
        h = h + FermionOperator.from_terms(terms).hermitized()
    return p, encode_fermion_operator(h, jw_majoranas(n))


@settings(max_examples=40, deadline=None)
@given(non_affine_hamiltonian_cases())
def test_dense_conjugation_against_matrix_oracle_hamiltonians(case):
    p, encoded = case
    fast = dict(conjugate_pauli_dense(p, encoded).items())
    slow = dict(conjugate_pauli_matrix(p, encoded).items())
    for key in fast.keys() | slow.keys():
        assert abs(fast.get(key, 0.0) - slow.get(key, 0.0)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(non_affine_hamiltonian_cases())
def test_dense_conjugation_array_core_matches_public(case):
    """The array core holds exactly the public result's terms in its order:
    uint64 masks, distinct keys in row-major (x, z) order, each coefficient
    above PRUNE_TOL."""
    p, encoded = case
    out = conjugate_pauli_dense(p, encoded)
    x, z, coeff = out._arrays
    assert x.dtype == z.dtype == np.uint64
    assert list(zip(zip(x.tolist(), z.tolist()), coeff.tolist())) == list(out.items())
    keys = x.astype(np.int64) * p.dim + z.astype(np.int64)
    assert np.all(np.diff(keys) > 0)
    assert np.all(np.abs(coeff) > PRUNE_TOL)


@st.composite
def dense_conjugation_cases(draw):
    """A random or an index-embed permutation on N <= 8 qubits, a sum of
    unmerged terms whose parts include -0.0, and (qubit, value) pairs that
    fix up to N - 1 qubits.  On half the draws with a fixed qubit and N <= 6
    the sum is U^dag T U for a T whose Z terms on a fixed qubit come without
    their I partner or with one that cancels them on projection, so that
    the projection meets Z terms alone and sums that vanish."""
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        p = BasisPermutation(draw(st.permutations(range(1 << n))))
    else:
        p = minimal_permutation_index_embed(SectorSpec(n, draw(st.integers(0, n))))
    qubits = draw(st.lists(st.integers(1, n), unique=True, max_size=n - 1))
    fixed = tuple((q, draw(st.integers(0, 1))) for q in qubits)
    masks = st.integers(0, 2**n - 1)
    parts = st.sampled_from([0.0, -0.0, 1.0, -0.5, 0.1, 1 / 3, -2.5e-3])
    terms = draw(st.dictionaries(st.tuples(masks, masks), st.builds(complex, parts, parts),
                                 max_size=40))
    above_tol = lambda t: array_sum(n, {k: c for k, c in t.items() if abs(c) > PRUNE_TOL})  # noqa: E731
    if fixed and n <= 6 and draw(st.booleans()):
        for x, z in list(terms):
            q, value = draw(st.sampled_from(fixed))
            bit = 1 << (n - q)
            x &= ~bit
            c = terms.pop((x, z), None) or 1.0
            terms[(x, z | bit)] = c
            if draw(st.booleans()):
                terms[(x, z & ~bit)] = c if value else -c  # <value| I and Z cancel
            else:
                terms.pop((x, z & ~bit), None)
        terms = dict(conjugate_pauli_dense(p.inverse(), above_tol(terms)).items())
    return p, above_tol(terms), fixed


@settings(max_examples=150, deadline=None)
@given(dense_conjugation_cases())
def test_dense_conjugation_bit_identical_to_term_loop(case):
    """The chunked scatter adds every entry's terms in their given order,
    from zero, as the per-term loop does; with ``fixed`` the projection
    inside the transform gives what the loop projection gives on the full
    result, one fixed qubit at a time in descending qubit order: the same
    bytes in the same order."""
    p, s, fixed = case
    full = conjugate_pauli_dense(p, s)
    for got, want in zip(full._arrays, conjugate_pauli_dense_loop(p, s)._arrays):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    expected = full
    for qubit, value in sorted(fixed, reverse=True):
        expected = project_fixed_qubit_loop(expected, qubit, value)
    projected = conjugate_pauli_dense(p, s, fixed=fixed)
    assert projected.n_qubits == expected.n_qubits
    for got, want in zip(projected._arrays, expected._arrays):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "fixed",
    [((0, 0),), ((4, 1),), ((2, 2),), ((1, 0), (2, 1), (3, 0)), ((3, 0), (3, 1))],
    ids=["qubit_0", "qubit_n_plus_1", "value_2", "every_qubit", "qubit_n_twice"],
)
def test_dense_conjugation_rejects_bad_fixed_pairs(fixed):
    """Qubit 0, qubit n + 1, value 2, every qubit, and qubit n twice: each
    raises the error ``project_fixed_qubit`` raises on the full result, one
    pair at a time in descending qubit order, and its message wherever the
    pairs name distinct qubits."""
    p = BasisPermutation(np.arange(8))
    s = PauliSum.from_terms(3, [(1.0, "ZIZ"), (0.5, "IXI")])
    with pytest.raises(ValueError) as expected:
        out = conjugate_pauli_dense(p, s)
        for qubit, value in sorted(fixed, reverse=True):
            out = project_fixed_qubit(out, qubit, value)
    with pytest.raises(expected.type) as got:
        conjugate_pauli_dense(p, s, fixed=fixed)
    if len(set(q for q, _ in fixed)) == len(fixed):
        assert str(got.value) == str(expected.value)
    else:  # one call cannot fix a qubit twice, so the message is its own
        assert str(got.value) == "qubit 3 is fixed twice"


def test_dense_conjugation_holds_survivors_once():
    """N=8, K=4 index embed, random one-body Hamiltonian: 58,600 surviving
    terms (1.8 MiB as x, z and coeff arrays) beside the 1 MiB displacement
    array."""
    p = minimal_permutation_index_embed(SectorSpec(8, 4))
    h = random_one_body(8, np.random.default_rng(7))
    encoded = encode_fermion_operator(h, jw_majoranas(8))
    tracemalloc.start()
    try:
        _, _, coeff = conjugate_pauli_dense(p, encoded)._arrays
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert coeff.size == 58600
    assert peak < 3.5 * 2**20


def test_dense_conjugation_term_count_one_fermion():
    p1 = from_cycles(4, [(0, 2), (1, 12)])
    for j in range(1, 5):
        for primed in (False, True):
            g = PauliSum.from_pauli(jw_majorana(j, primed, 4))
            assert len(conjugate_pauli_dense(p1, g)) <= 32


def test_dense_conjugation_against_matrix_oracle():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        p = random_permutation(n, rng)
        s = random_pauli_sum(n, int(rng.integers(1, 5)), rng)
        fast = conjugate_pauli_dense(p, s)
        u = permutation_matrix(p)
        slow = pauli_decompose(u @ s.to_dense() @ u.conj().T)
        diff = fast - slow
        assert all(abs(c) < 1e-12 for _, c in diff.items())


def test_affine_equals_dense_on_affine_permutations():
    rng = np.random.default_rng(9)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        a = random_affine(n, rng)
        p = a.to_permutation()
        letters = random_pauli_letters(n, rng)
        ps = PauliString.from_letters(letters)
        fast = conjugate_pauli_affine(a, ps)
        dense = conjugate_pauli_dense(p, PauliSum.from_pauli(ps))
        assert len(dense) == 1
        ((key, coeff),) = list(dense.items())
        assert key == (fast.x_bits, fast.z_bits)
        assert coeff == fast.coefficient  # exact signs, zero tolerance


def test_affine_equals_dense_exhaustive_small():
    """Every Pauli letter string on 2 and 3 qubits, against sampled maps
    built from generator-like pieces (pure M, pure offset, both)."""
    rng = np.random.default_rng(19)
    for n in (2, 3):
        letters_all = ["".join(t) for t in itertools.product("IXYZ", repeat=n)]
        maps = [LinearEncodingF2.jordan_wigner(n)]
        for _ in range(3):
            m = random_invertible(n, rng)
            b = rng.integers(0, 2, size=n, dtype=np.uint8)
            maps.append(LinearEncodingF2(m))
            maps.append(AffineMapF2(f2.identity(n), b))
            maps.append(AffineMapF2(m, b))
        for a in maps:
            p = a.to_permutation()
            for letters in letters_all:
                ps = PauliString.from_letters(letters)
                fast = conjugate_pauli_affine(a, ps)
                dense = conjugate_pauli_dense(p, PauliSum.from_pauli(ps))
                assert dense == PauliSum.from_pauli(fast)


def test_permutation_cap():
    """At 17 qubits the image table would be 1 MiB; the ResourceError comes
    before anything near that is allocated."""
    zeros = np.broadcast_to(np.int64(0), (1 << 17,))  # a view: nothing the size of the table
    for build in (lambda n: BasisPermutation(zeros), lambda n: from_cycles(n, [(0, 1)])):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError):
                build(17)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * 2**20


def test_affine_conjugation_signs_are_real():
    rng = np.random.default_rng(10)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        a = random_affine(n, rng)
        ps = PauliString.from_letters(random_pauli_letters(n, rng))
        out = conjugate_pauli_affine(a, ps)
        assert (out.phase - ps.phase) % 2 == 0


def test_conjugation_preserves_commutator_type_exhaustive_n3():
    rng = np.random.default_rng(11)
    p = random_permutation(3, rng)
    letters3 = [a + b + c for a in "IXYZ" for b in "IXYZ" for c in "IXYZ"]
    dense_cache = {
        s: conjugate_pauli_dense(p, PauliSum.from_pauli(PauliString.from_letters(s)))
        for s in letters3
    }
    mats = {s: op.to_dense() for s, op in dense_cache.items()}
    for i, sa in enumerate(letters3):
        for sb in letters3[i:]:
            before = commutes(PauliString.from_letters(sa), PauliString.from_letters(sb))
            ab = mats[sa] @ mats[sb]
            ba = mats[sb] @ mats[sa]
            assert before == (np.max(np.abs(ab - ba)) < 1e-12)


def test_conjugation_preserves_commutator_type_random_n6():
    rng = np.random.default_rng(12)
    p = random_permutation(6, rng)
    for _ in range(20):
        sa, sb = random_pauli_letters(6, rng), random_pauli_letters(6, rng)
        before = commutes(PauliString.from_letters(sa), PauliString.from_letters(sb))
        ma = conjugate_pauli_dense(
            p, PauliSum.from_pauli(PauliString.from_letters(sa))
        ).to_dense()
        mb = conjugate_pauli_dense(
            p, PauliSum.from_pauli(PauliString.from_letters(sb))
        ).to_dense()
        comm = np.max(np.abs(ma @ mb - mb @ ma)) < 1e-12
        assert before == comm


def test_conjugation_preserves_frobenius_norm():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        p = random_permutation(n, rng)
        s = random_pauli_sum(n, 6, rng)
        out = conjugate_pauli_dense(p, s)
        assert abs(out.frobenius_sq() - s.frobenius_sq()) < 1e-9


def _random_circuit_with_t_toffolis(n, t, rng):
    c = GateCircuit(n)
    wires = list(range(1, n + 1))
    slots = sorted(rng.choice(8, size=t, replace=False)) if t else []
    for slot in range(8):
        if slot in slots:
            a, b, tg = rng.choice(wires, size=3, replace=False)
            c.toffoli(int(a), int(b), int(tg))
        elif rng.random() < 0.5:
            a, tg = rng.choice(wires, size=2, replace=False)
            c.cnot(int(a), int(tg))
        else:
            c.x(int(rng.choice(wires)))
    return c


@pytest.mark.parametrize("t", [0, 1, 2])
def test_term_count_bound_4_to_the_t(t):
    """A circuit with t Toffolis conjugates one Pauli into at most 4^t terms."""
    rng = np.random.default_rng(40 + t)
    for _ in range(10):
        n = int(rng.integers(3, 7))
        circuit = _random_circuit_with_t_toffolis(n, t, rng)
        p = permutation_from_circuit(circuit)
        s = PauliSum.from_pauli(PauliString.from_letters(random_pauli_letters(n, rng)))
        out = conjugate_pauli_dense(p, s)
        assert len(out) <= 4**t


def test_unitarity_of_conjugated_sum_dense():
    rng = np.random.default_rng(14)
    p = random_permutation(4, rng)
    s = random_pauli_sum(4, 5, rng)
    u = permutation_matrix(p)
    direct = u @ s.to_dense() @ u.conj().T
    assert np.allclose(conjugate_pauli_dense(p, s).to_dense(), direct, atol=1e-12)


def test_conjugate_matrix_helper_agrees():
    rng = np.random.default_rng(15)
    p = random_permutation(3, rng)
    s = random_pauli_sum(3, 4, rng)
    assert conjugate_pauli_matrix(p, s) == conjugate_pauli_dense(p, s)
