"""Reduction pipeline against the brute-force sector oracle."""

import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fermiperm import (
    AffineMapF2,
    BasisPermutation,
    DimensionError,
    FermionOperator,
    FermionTerm,
    InvalidEncodingError,
    LinearEncodingF2,
    NumberConservationError,
    PauliSum,
    ReducedHamiltonian,
    ResourceError,
    SectorSpec,
    classify_affine,
    conjugate_pauli_dense,
    encode_and_reduce,
    encode_fermion_operator,
    gl_to_cnot_circuit,
    jw_majoranas,
    linear_encoding_majoranas,
    minimal_permutation_index_embed,
    permutation_from_circuit,
    project_fixed_qubit,
    random_one_body,
    sector_oracle,
    unrank_weightk,
    verify_reduction,
)
from fermiperm import f2, reduction
from fermiperm.pauli import PRUNE_TOL
from fermiperm.reduction import SPECTRUM_TOL
from helpers import (
    array_sum,
    conjugate_affine_loop,
    deviation_and_bound_rows,
    kron_dense,
    project_fixed_qubit_loop,
    random_invertible,
    random_pauli_sum,
    sector_oracle_loop,
    sector_oracle_term_loop,
    summed_argsort,
    three_cnot_permutation,
    verify_reduction_dense,
)


# --- projection ------------------------------------------------------------


def test_project_z_on_own_qubit():
    s = PauliSum.from_terms(2, [(1.0, "ZI")])
    out = project_fixed_qubit(s, 1, 0)
    assert out == PauliSum.from_terms(1, [(1.0, "I")])
    out = project_fixed_qubit(s, 1, 1)
    assert out == PauliSum.from_terms(1, [(-1.0, "I")])


def test_project_x_vanishes():
    s = PauliSum.from_terms(2, [(1.0, "XI")])
    assert len(project_fixed_qubit(s, 1, 0)) == 0


def test_project_out_of_range():
    s = PauliSum.from_terms(2, [(1.0, "XI")])
    with pytest.raises(DimensionError):
        project_fixed_qubit(s, 3, 0)


@pytest.mark.parametrize("value", [2, -1])
def test_project_rejects_values_other_than_0_and_1(value):
    s = PauliSum.from_terms(2, [(1.0, "ZI")])
    with pytest.raises(ValueError, match=f"qubit 1 .* 0 or 1, got {value}"):
        project_fixed_qubit(s, 1, value)


def test_project_matches_dense_block_extraction():
    """dense(project(s, q, v)) equals the <v| . |v> block of dense(s)."""
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        s = random_pauli_sum(n, 6, rng)
        q = int(rng.integers(1, n + 1))
        v = int(rng.integers(0, 2))
        proj = project_fixed_qubit(s, q, v)
        dense = s.to_dense()
        keep = [
            idx
            for idx in range(1 << n)
            if ((idx >> (n - q)) & 1) == v
        ]
        block = dense[np.ix_(keep, keep)]
        assert np.max(np.abs(proj.to_dense() - block)) < 1e-12


def same_terms(a: PauliSum, b: PauliSum) -> bool:
    """Equal sums with the same term order and the same signed zeros."""
    return a.n_qubits == b.n_qubits and repr(list(a.items())) == repr(list(b.items()))


# Coefficient parts at, one ulp around and twice the prune threshold, and
# signed zeros.
_EDGE_PARTS = [
    0.0, -0.0, PRUNE_TOL, -PRUNE_TOL, 2 * PRUNE_TOL, -2 * PRUNE_TOL,
    float(np.nextafter(PRUNE_TOL, 1.0)), -float(np.nextafter(PRUNE_TOL, 1.0)),
    float(np.nextafter(PRUNE_TOL, 0.0)), 0.5, -0.25, 1.0,
]


@st.composite
def projection_cases(draw):
    """A sum on 2..6 qubits whose terms often come in I/Z pairs on one qubit
    (they merge when that qubit is projected), built without the
    constructor's merge so signed zeros survive, and 1..3 projections."""
    n = draw(st.integers(2, 6))
    parts = st.one_of(st.sampled_from(_EDGE_PARTS), st.floats(-1, 1))
    terms = {}
    for _ in range(draw(st.integers(0, 24))):
        x, z = draw(st.integers(0, 2**n - 1)), draw(st.integers(0, 2**n - 1))
        terms[(x, z)] = complex(draw(parts), draw(parts))
        if draw(st.booleans()):
            bit = 1 << draw(st.integers(0, n - 1))
            terms[(x & ~bit, z & ~bit)] = complex(draw(parts), draw(parts))
            terms[(x & ~bit, z | bit)] = complex(draw(parts), draw(parts))
    s = array_sum(n, {k: c for k, c in terms.items() if abs(c) > PRUNE_TOL})
    steps = []
    for width in range(n, max(n - 3, 1), -1):
        steps.append((draw(st.integers(1, width)), draw(st.integers(0, 1))))
    return s, steps[: draw(st.integers(1, len(steps)))]


# |c| is 1e-12 by numpy's complex abs and one ulp above it by hypot, which
# CPython's abs and so the loop use: a prune by np.abs dropped the term
_ULP_OFF_ABS = 9.999999999999998e-13 + 2.4780348905730923e-20j


@settings(max_examples=100, deadline=None)
@given(projection_cases())
@example((array_sum(2, {(0, 0): _ULP_OFF_ABS}), [(1, 0)]))
def test_project_matches_loop(case):
    s, steps = case
    for qubit, value in steps:
        expected = project_fixed_qubit_loop(s, qubit, value)
        got = project_fixed_qubit(s, qubit, value)
        assert got == expected
        assert same_terms(got, expected)
        s = expected


@pytest.mark.parametrize("value", [0, 1])
def test_project_raises_when_partners_overflow(value):
    """I and Z partners of 1e308 fold to a sum past the largest float on
    either value (Z's sign flips with the I term's): a ValueError naming
    the projection, before any numpy warning."""
    s = PauliSum.from_terms(2, [(1e308, "II"), ((-1) ** value * 1e308, "ZI")])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^the projection overflows"):
            project_fixed_qubit(s, 1, value)


def test_project_merges_at_the_prune_threshold():
    """I and Z partners, each above PRUNE_TOL, whose merged coefficient
    lands exactly at PRUNE_TOL are dropped; one ulp above it they are kept."""
    up = lambda v: float(np.nextafter(v, 1.0))  # noqa: E731
    first = up(2 * PRUNE_TOL)
    at, above = up(up(PRUNE_TOL)), up(PRUNE_TOL)  # first - at == PRUNE_TOL exactly
    assert first - at == PRUNE_TOL and first - above > PRUNE_TOL
    for value, z_coeff, kept in [
        (0, -at, False),
        (1, at, False),  # the Z term changes sign on |1>
        (0, -above, True),
        (1, above, True),
    ]:
        s = PauliSum.from_terms(2, [(first, "IX"), (z_coeff, "ZX")])
        expected = project_fixed_qubit_loop(s, 1, value)
        assert same_terms(project_fixed_qubit(s, 1, value), expected)
        assert len(expected) == int(kept)


def test_project_past_64_qubits():
    """Masks wider than 64 bits are folded as Python ints, not truncated."""
    n = 70
    s = PauliSum(n, [((1 << 69 | 1, 1 << 68), 0.5), ((1, 1 << 68 | 1 << 3), -0.25j)])
    for qubit, value in [(1, 0), (2, 1), (70, 1), (35, 0)]:
        expected = project_fixed_qubit_loop(s, qubit, value)
        assert same_terms(project_fixed_qubit(s, qubit, value), expected)


def test_project_holds_no_whole_copy():
    """N=8, K=4 index embed: the conjugated sum has 58,600 terms (32 bytes
    each) and about half have no X or Y on the fixed qubit.  Projecting it
    holds the index, keys and coefficients of those, not a copy of every
    term array (about 1.25 times the input's bytes before)."""
    spec = SectorSpec(8, 4)
    p = minimal_permutation_index_embed(spec)
    h = random_one_body(8, np.random.default_rng(7))
    s = conjugate_pauli_dense(p, encode_fermion_operator(h, jw_majoranas(8)))
    (qubit, value), = encode_and_reduce(h, p, spec).report.fixed
    expected = project_fixed_qubit(s, qubit, value)
    tracemalloc.start()
    try:
        got = project_fixed_qubit(s, qubit, value)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert same_terms(got, expected)
    assert peak < 0.8 * 32 * len(s)


def test_project_number_conserving_term_keeps_structure():
    """Projecting the encoded total number on the redundant qubit at 0
    leaves the same diagonal operator on three qubits."""
    p = three_cnot_permutation()
    spec = SectorSpec(4, 2)
    h = FermionOperator.one_body(np.eye(4))
    rh = encode_and_reduce(h, p, spec)
    dense = rh.pauli_sum.to_dense()
    assert np.max(np.abs(dense - np.diag(np.diag(dense)))) < 1e-12


# --- sector oracle ---------------------------------------------------------


def test_oracle_number_operator_is_k_identity():
    for n, k in [(3, 1), (4, 2), (5, 3)]:
        spec = SectorSpec(n, k)
        oracle = sector_oracle(FermionOperator.one_body(np.eye(n)), spec)
        assert np.allclose(oracle, k * np.eye(spec.dimension))


def test_oracle_two_mode_hopping():
    spec = SectorSpec(2, 1)
    h = FermionOperator.from_terms(
        [
            FermionTerm.make(1.0, [(1, True), (2, False)]),
            FermionTerm.make(1.0, [(2, True), (1, False)]),
        ]
    )
    oracle = sector_oracle(h, spec)
    assert np.allclose(oracle, np.array([[0, 1], [1, 0]]))


def test_oracle_matches_jw_dense_restriction():
    """Dual-oracle check: eigenvalues agree with the dense encoded
    Hamiltonian restricted to the weight-K block."""
    rng = np.random.default_rng(11)
    for n, k in [(3, 1), (4, 2), (5, 2)]:
        spec = SectorSpec(n, k)
        raw = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
        h = FermionOperator.one_body((raw + raw.conj().T) / 2)
        oracle = sector_oracle(h, spec)
        dense = encode_fermion_operator(h, jw_majoranas(n)).to_dense()
        states = [unrank_weightk(r, n, k) for r in range(spec.dimension)]
        block = dense[np.ix_(states, states)]
        assert np.max(np.abs(block - oracle)) < 1e-12
        ev_a = np.sort(np.linalg.eigvalsh(oracle))
        ev_b = np.sort(np.linalg.eigvalsh(block))
        assert np.max(np.abs(ev_a - ev_b)) < 1e-9


def test_oracle_fermionic_sign():
    # a+_1 a_3 on |011> must come with the sign from crossing mode 2
    spec = SectorSpec(3, 2)
    h = FermionOperator.from_terms([FermionTerm.make(1.0, [(1, True), (3, False)])])
    oracle = sector_oracle(h, spec)
    col = 0  # |011>
    row = 2  # |110>
    assert oracle[row, col] == -1.0  # one occupied mode (2) sits left of mode 3


@st.composite
def sector_operators(draw, n_modes, body=None):
    """(operator, sector) with random ``body``-body terms on ``n_modes``
    modes; with ``body=None`` the terms are arbitrary ladder strings."""
    n = draw(n_modes)
    k = draw(st.integers(0, n))
    modes = st.integers(1, n)
    parts = st.floats(-1, 1, allow_nan=False)
    terms = []
    for _ in range(draw(st.integers(0, 8))):
        if body is None:
            ops = draw(st.lists(st.tuples(modes, st.booleans()), max_size=5))
        else:
            raised = draw(st.lists(modes, min_size=body, max_size=body))
            lowered = draw(st.lists(modes, min_size=body, max_size=body))
            ops = [(m, True) for m in raised] + [(m, False) for m in lowered]
        terms.append(FermionTerm.make(complex(draw(parts), draw(parts)), ops))
    return FermionOperator.from_terms(terms), SectorSpec(n, k)


@settings(max_examples=60, deadline=None)
@given(sector_operators(st.integers(2, 7), body=1))
def test_oracle_matches_loop_one_body(case):
    h, spec = case
    assert np.array_equal(sector_oracle(h, spec), sector_oracle_loop(h, spec))


@settings(max_examples=60, deadline=None)
@given(sector_operators(st.integers(2, 7), body=2))
def test_oracle_matches_loop_two_body(case):
    h, spec = case
    assert np.array_equal(sector_oracle(h, spec), sector_oracle_loop(h, spec))


@settings(max_examples=60, deadline=None)
@given(sector_operators(st.integers(2, 7)))
def test_oracle_matches_loop_leaving_the_sector(case):
    """Terms that change the particle number map every column out of the
    sector; mixed with conserving ones they must still agree."""
    h, spec = case
    assert np.array_equal(sector_oracle(h, spec), sector_oracle_loop(h, spec))


@settings(max_examples=60, deadline=None)
@given(sector_operators(st.integers(1, 7)))
def test_oracle_matches_loop_bit_for_bit(case):
    """Terms of 0 to 5 operators, read from the operator's padded array
    form: the same bits in every entry, signed zeros included."""
    h, spec = case
    assert (sector_oracle(h, spec).view(np.uint64) == sector_oracle_loop(h, spec).view(np.uint64)).all()


@settings(max_examples=20, deadline=None)
@given(sector_operators(st.just(64)), st.data())
def test_oracle_matches_loop_at_64_modes(case, data):
    h, _ = case
    spec = SectorSpec(64, 1)
    hopping = FermionOperator.from_terms(
        FermionTerm.make(1.0 + 0.5j, [(p, True), (q, False)])
        for p, q in data.draw(st.lists(st.tuples(st.integers(1, 64), st.integers(1, 64))))
    )
    h = h + hopping
    assert np.array_equal(sector_oracle(h, spec), sector_oracle_loop(h, spec))


@pytest.mark.parametrize("n", [1, 4, 64])
def test_oracle_empty_and_full_sectors(n):
    h = FermionOperator.one_body(np.eye(n)) + FermionOperator.from_terms(
        [FermionTerm.make(0.25, []), FermionTerm.make(2.0, [(1, False), (1, True)])]
    )
    for k in (0, n):
        spec = SectorSpec(n, k)
        oracle = sector_oracle(h, spec)
        assert np.array_equal(oracle, sector_oracle_loop(h, spec))
        assert oracle.shape == (1, 1)
        assert oracle[0, 0] == k + 0.25 + (2.0 if k == 0 else 0.0)


def test_oracle_rejects_more_than_64_modes():
    with pytest.raises(DimensionError):
        sector_oracle(FermionOperator.one_body(np.eye(65)), SectorSpec(65, 1))


def test_encode_and_reduce_at_64_modes():
    """The sector states of 64 modes fill uint64: mode 1 is bit 63.  A
    linear encoding reduces them with no table; parity fixes its last qubit
    and Jordan-Wigner none, with the labels of the images."""
    h = FermionOperator.from_terms(
        FermionTerm.make(0.5, [(p, True), (q, False)]) for p, q in ((1, 64), (64, 1))
    )
    spec = SectorSpec(64, 1)
    rh = encode_and_reduce(h, LinearEncodingF2.jordan_wigner(64), spec)
    assert rh.pauli_sum.n_qubits == 64 and rh.report.fixed == ()
    assert rh.labels == tuple(1 << b for b in range(64))
    assert dict(rh.pauli_sum.items_sorted()) == {
        "X" + "Z" * 62 + "X": 0.25, "Y" + "Z" * 62 + "Y": 0.25
    }
    rh = encode_and_reduce(h, LinearEncodingF2.parity(64), spec)
    assert rh.pauli_sum.n_qubits == 63 and rh.report.fixed == ((64, 1),)


def test_verify_rejects_an_oracle_of_another_shape():
    h = random_one_body(4, np.random.default_rng(0))
    spec = SectorSpec(4, 2)
    rh = encode_and_reduce(h, minimal_permutation_index_embed(spec), spec)
    with pytest.raises(DimensionError, match="oracle shape"):
        verify_reduction(rh, np.zeros((5, 5)))
    # the shape is that of the converted matrix: one more axis is refused too
    with pytest.raises(DimensionError, match="oracle shape"):
        verify_reduction(rh, sector_oracle(h, spec)[None])


def test_verify_reads_a_nested_list_oracle_as_its_array():
    h = random_one_body(5, np.random.default_rng(3))
    spec = SectorSpec(5, 2)
    rh = encode_and_reduce(h, minimal_permutation_index_embed(spec), spec)
    oracle = sector_oracle(h, spec)
    assert repr(verify_reduction(rh, oracle.tolist())) == repr(verify_reduction(rh, oracle))


def test_oracle_rejects_modes_outside_the_register():
    h = FermionOperator.from_terms([FermionTerm.make(1.0, [(5, True), (1, False)])])
    with pytest.raises(DimensionError):
        sector_oracle(h, SectorSpec(4, 1))


@st.composite
def oracle_cases(draw):
    """(operator, sector), N = 3..10: constant, one-body, two-body and
    arbitrary ladder terms with complex coefficients (signed zeros among
    the parts), some of them repeated."""
    n = draw(st.integers(3, 10))
    k = draw(st.integers(0, n))
    modes = st.integers(1, n)
    parts = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -0.5]), st.floats(-1, 1))
    terms = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["constant", "one-body", "two-body", "any"]))
        if kind == "any":
            ops = draw(st.lists(st.tuples(modes, st.booleans()), max_size=5))
        else:
            body = {"constant": 0, "one-body": 1, "two-body": 2}[kind]
            raised = draw(st.lists(modes, min_size=body, max_size=body))
            lowered = draw(st.lists(modes, min_size=body, max_size=body))
            ops = [(m, True) for m in raised] + [(m, False) for m in lowered]
        terms.append(FermionTerm.make(complex(draw(parts), draw(parts)), ops))
    if terms:
        terms += [terms[i] for i in draw(st.lists(st.integers(0, len(terms) - 1), max_size=4))]
    return FermionOperator.from_terms(terms), SectorSpec(n, k)


@settings(max_examples=150, deadline=None)
@given(oracle_cases())
@example((FermionOperator(), SectorSpec(5, 2)))
@example((FermionOperator.from_terms([FermionTerm.make(-0.0 - 0.5j, [])] * 2), SectorSpec(4, 2)))
def test_oracle_bit_identical_to_term_loop(case):
    """The chunked ladder kernel sums every entry's terms in their given
    order, as the per-term loop does: the same bits, signed zeros included."""
    h, spec = case
    assert sector_oracle(h, spec).tobytes() == sector_oracle_term_loop(h, spec).tobytes()


@pytest.mark.parametrize("bad", [0, 13])
def test_oracle_checks_every_mode_before_allocating(bad):
    """An out-of-range mode in the last term raises the term loop's error
    before the 924 x 924 matrix (13 MiB) exists."""
    spec = SectorSpec(12, 6)
    h = random_one_body(12, np.random.default_rng(3)) + FermionOperator.from_terms(
        [FermionTerm.make(1.0, [(1, True), (bad, False)])]
    )
    with pytest.raises(DimensionError, match=f"mode {bad} out of range 1..12"):
        sector_oracle_term_loop(h, spec)
    tracemalloc.start()
    try:
        with pytest.raises(DimensionError, match=f"mode {bad} out of range 1..12"):
            sector_oracle(h, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_dense_cap_reaches_every_check():
    """N=6, K=3: 20 sector states (q_min 5) on a 6-qubit register.  Each
    dense step honours the cap it is given, whatever the module default."""
    spec = SectorSpec(6, 3)
    h = random_one_body(6, np.random.default_rng(8))
    p = minimal_permutation_index_embed(spec)  # not affine: conjugated on 2^6
    with pytest.raises(ResourceError):
        sector_oracle(h, spec, dense_cap=4)  # 20 > 2^4
    assert np.array_equal(sector_oracle(h, spec, dense_cap=5), sector_oracle(h, spec))
    with pytest.raises(ResourceError):
        encode_and_reduce(h, p, spec, dense_cap=5)
    rh = encode_and_reduce(h, p, spec, dense_cap=6)
    assert rh.pauli_sum == encode_and_reduce(h, p, spec).pauli_sum
    oracle = sector_oracle(h, spec)
    with pytest.raises(ResourceError):
        verify_reduction(rh, oracle, dense_cap=4)
    assert verify_reduction(rh, oracle, dense_cap=5) == verify_reduction(rh, oracle)


# --- sector block ----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(0, 2**32 - 1))
def test_dense_block_equals_dense_submatrix(n, seed):
    """Exact: the block is read from the same transforms as to_dense."""
    rng = np.random.default_rng(seed)
    s = random_pauli_sum(n, int(rng.integers(0, 80)), rng)
    labels = rng.permutation(1 << n)[: int(rng.integers(1, (1 << n) + 1))]
    block = s._dense_block(labels)
    assert np.array_equal(block, s.to_dense()[np.ix_(labels, labels)])


def test_dense_block_rejects_bad_labels():
    s = PauliSum.from_terms(3, [(1.0, "XYZ")])
    with pytest.raises(ValueError):
        s._dense_block([1, 2, 1])
    with pytest.raises(DimensionError):
        s._dense_block([0, 8])


def test_dense_block_never_builds_the_full_matrix():
    """924 labels at q=11: one 2^11 x 2^11 complex matrix is 64 MiB."""
    rng = np.random.default_rng(5)
    s = random_pauli_sum(11, 300, rng)
    labels = rng.permutation(1 << 11)[:924]
    tracemalloc.start()
    try:
        block = s._dense_block(labels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 << 20
    # the kron oracle one entry at a time: kron(A, B)[r, c] is
    # A[r_hi, c_hi] * B[r_lo, c_lo], with A on qubits 1..6 and B on 7..11
    halves = [(kron_dense(t[:6], c), kron_dense(t[6:])) for t, c in s.items_sorted()]
    for i, j in rng.integers(0, 924, size=(20, 2)):
        (r_hi, r_lo), (c_hi, c_lo) = divmod(int(labels[i]), 32), divmod(int(labels[j]), 32)
        expected = sum(a[r_hi, c_hi] * b[r_lo, c_lo] for a, b in halves)
        assert abs(block[i, j] - expected) < 1e-12


# --- pipeline --------------------------------------------------------------


def test_reduce_number_operator_two_fermion_circuit():
    p = three_cnot_permutation()
    spec = SectorSpec(4, 2)
    rh = encode_and_reduce(FermionOperator.one_body(np.eye(4)), p, spec)
    assert rh.pauli_sum.n_qubits == 3
    assert rh.report.fixed == ((4, 0),)
    dense = rh.pauli_sum.to_dense()
    for r in range(spec.dimension):
        idx = rh.labels[r]
        assert abs(dense[idx, idx] - 2.0) < 1e-12
    check = verify_reduction(rh, sector_oracle(FermionOperator.one_body(np.eye(4)), spec))
    assert check.passed and check.max_deviation < 1e-12


def test_reduce_number_operator_index_embed():
    for n, k in [(4, 1), (4, 2), (5, 2)]:
        spec = SectorSpec(n, k)
        p = minimal_permutation_index_embed(spec)
        rh = encode_and_reduce(FermionOperator.one_body(np.eye(n)), p, spec)
        assert rh.pauli_sum.n_qubits == spec.q_min
        oracle = sector_oracle(FermionOperator.one_body(np.eye(n)), spec)
        assert verify_reduction(rh, oracle).passed


def test_reduce_random_hermitian_one_body():
    rng = np.random.default_rng(29)
    for n, k in [(4, 1), (4, 2), (5, 2), (6, 3)]:
        spec = SectorSpec(n, k)
        p = minimal_permutation_index_embed(spec)
        for _ in range(5):
            raw = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
            h = FermionOperator.one_body((raw + raw.conj().T) / 2)
            rh = encode_and_reduce(h, p, spec)
            assert rh.pauli_sum.n_qubits == spec.q_min
            assert all(abs(c.imag) <= 1e-9 for _, c in rh.pauli_sum.items())
            check = verify_reduction(rh, sector_oracle(h, spec))
            assert check.passed
            assert check.max_deviation < 1e-9


def test_reduce_two_body_term():
    spec = SectorSpec(4, 2)
    p = minimal_permutation_index_embed(spec)
    h = FermionOperator.from_terms(
        [
            FermionTerm.make(0.5, [(1, True), (2, True), (2, False), (1, False)]),
            FermionTerm.make(1.0, [(1, True), (1, False)]),
        ]
    )
    rh = encode_and_reduce(h, p, spec)
    assert verify_reduction(rh, sector_oracle(h, spec)).passed


@st.composite
def reduction_cases(draw):
    """A random one-body Hamiltonian, with two-body terms on half the draws,
    on N = 3..6 modes; a sector of dimension at least 2; and the affine
    parity permutation, a random affine one, or an index-embed one with
    random completion, whose fixed qubits are the last ones, or the same
    with its qubits in a random order, so that they sit anywhere."""
    n = draw(st.integers(3, 6))
    k = draw(st.integers(1, n - 1))
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
    spec = SectorSpec(n, k)
    kind = draw(st.sampled_from(["parity", "affine", "index-embed", "permuted index-embed"]))
    if kind == "parity":
        p = permutation_from_circuit(gl_to_cnot_circuit(LinearEncodingF2.parity(n)))
    elif kind == "affine":
        p = AffineMapF2(random_invertible(n, rng), rng.integers(0, 2, n)).to_permutation()
    else:
        p = minimal_permutation_index_embed(spec, completion="random", rng=rng)
    if kind == "permuted index-embed":
        p = permute_qubits(p, draw(st.permutations(range(n))))
    return h, p, spec


def permute_qubits(p: BasisPermutation, wires) -> BasisPermutation:
    """The table whose images carry bit ``wires[i]`` of p's at bit i."""
    return BasisPermutation(sum(((p.image >> w) & 1) << i for i, w in enumerate(wires)))


def reduce_by_public_calls_and_loops(h, p, report) -> PauliSum:
    """The Jordan-Wigner encoding, conjugated by the public dense path or,
    for an affine ``p``, term by term, then projected by the loop."""
    encoded = encode_fermion_operator(h, jw_majoranas(p.n_qubits))
    affine = classify_affine(p)
    if affine is None:
        expected = conjugate_pauli_dense(p, encoded)
    else:
        expected = conjugate_affine_loop(affine, encoded)
    for qubit, value in sorted(report.fixed, reverse=True):
        expected = project_fixed_qubit_loop(expected, qubit, value)
    return expected


@settings(max_examples=40, deadline=None)
@given(reduction_cases())
# qubit 4 of 5 fixed: the loop projection leaves the terms out of row-major order
@example((random_one_body(5, np.random.default_rng(0)),
          permute_qubits(minimal_permutation_index_embed(SectorSpec(5, 2)), (1, 0, 2, 3, 4)),
          SectorSpec(5, 2)))
def test_reduce_matches_public_calls_and_loop_projection(case):
    """The array pipeline gives, term for term and in the same order, what
    the public conjugation followed by the loop projection gives."""
    h, p, spec = case
    rh = encode_and_reduce(h, p, spec)
    expected = reduce_by_public_calls_and_loops(h, p, rh.report)
    assert rh.pauli_sum == expected
    assert same_terms(rh.pauli_sum, expected)


@st.composite
def affine_reduction_cases(draw):
    """N = 2..8 modes, a random invertible affine map with a random offset,
    and one- and two-body terms, hermitized on half the draws, whose
    coefficient parts include signed zeros and values at and one ulp around
    ``PRUNE_TOL``.  Modes may repeat, so some terms vanish."""
    n = draw(st.integers(2, 8))
    k = draw(st.integers(1, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    affine = AffineMapF2(random_invertible(n, rng), rng.integers(0, 2, n))
    parts = st.one_of(st.sampled_from(_EDGE_PARTS), st.floats(-1, 1))
    modes = st.integers(1, n)
    terms = []
    for _ in range(draw(st.integers(0, 12))):
        body = 2 if draw(st.booleans()) else 1
        ops = [(draw(modes), True) for _ in range(body)] + [
            (draw(modes), False) for _ in range(body)
        ]
        terms.append(FermionTerm.make(complex(draw(parts), draw(parts)), ops))
    h = FermionOperator.from_terms(terms)
    if draw(st.booleans()):
        h = h.hermitized()
    return h, affine, SectorSpec(n, k)


@settings(max_examples=100, deadline=None)
@given(affine_reduction_cases())
def test_affine_majoranas_encode_the_conjugated_sum(case):
    """Encoding with the conjugated Majoranas gives the Jordan-Wigner
    encoding conjugated term by term, and ``encode_and_reduce`` its loop
    projection: the same terms, in the same order, with the same bits."""
    h, affine, spec = case
    p = affine.to_permutation()
    encoded = encode_fermion_operator(h, jw_majoranas(spec.n_modes))
    assert same_terms(
        encode_fermion_operator(h, linear_encoding_majoranas(affine)),
        conjugate_affine_loop(affine, encoded),
    )
    rh = encode_and_reduce(h, p, spec)
    assert same_terms(rh.pauli_sum, reduce_by_public_calls_and_loops(h, p, rh.report))


@settings(max_examples=100, deadline=None)
@given(affine_reduction_cases())
@example((random_one_body(6, np.random.default_rng(4)), LinearEncodingF2.parity(6),
          SectorSpec(6, 3)))
def test_reduce_by_the_map_equals_reduce_by_its_table(case):
    """An ``AffineMapF2`` reduces, with no 2^N table and no classify scan,
    to what its table reduces to: the same terms in the same order with the
    same signed zeros, the same report and the same labels."""
    h, affine, spec = case
    by_map = encode_and_reduce(h, affine, spec)
    by_table = encode_and_reduce(h, affine.to_permutation(), spec)
    assert same_terms(by_map.pauli_sum, by_table.pauli_sum)
    assert by_map.report == by_table.report
    assert by_map.labels == by_table.labels


@pytest.mark.parametrize(
    "p", [LinearEncodingF2.parity(5), BasisPermutation(np.arange(32))], ids=["map", "table"]
)
def test_reduce_rejects_a_permutation_of_the_wrong_size(p):
    h = random_one_body(6, np.random.default_rng(0))
    with pytest.raises(DimensionError, match="does not match the mode count"):
        encode_and_reduce(h, p, SectorSpec(6, 3))


def test_identity_on_fixed_check_is_a_mask_test():
    """X or Y on a redundant qubit is rejected; Z there and X elsewhere pass."""
    from fermiperm.minimal import RedundancyReport
    from fermiperm.reduction import _check_identity_on_fixed

    report = RedundancyReport(fixed=((2, 0), (4, 1)), surviving=(1, 3))
    _check_identity_on_fixed(np.array([0b1010, 0b0000], dtype=np.uint64), 4, report)
    for bad in (0b0100, 0b0001):
        with pytest.raises(InvalidEncodingError):
            _check_identity_on_fixed(np.array([0b1000, bad], dtype=np.uint64), 4, report)


def test_reduce_rejects_nonconserving():
    spec = SectorSpec(3, 1)
    p = minimal_permutation_index_embed(spec)
    bad = FermionOperator.from_terms([FermionTerm.make(1.0, [(1, True)])])
    with pytest.raises(NumberConservationError) as err:
        encode_and_reduce(bad, p, spec)
    assert err.value.term is not None


def test_reduce_rejects_trivial_sector():
    spec = SectorSpec(3, 3)
    p = minimal_permutation_index_embed(spec)
    with pytest.raises(InvalidEncodingError):
        encode_and_reduce(FermionOperator.one_body(np.eye(3)), p, spec)


def test_reduce_nonclifford_permutation():
    """The single-Toffoli one-fermion permutation reduces by two qubits."""
    from fermiperm import permutation_from_circuit, single_toffoli_one_fermion_circuit

    spec = SectorSpec(4, 1)
    p = permutation_from_circuit(single_toffoli_one_fermion_circuit())
    rng = np.random.default_rng(31)
    raw = rng.uniform(-1, 1, (4, 4))
    h = FermionOperator.one_body((raw + raw.T) / 2)
    rh = encode_and_reduce(h, p, spec)
    assert rh.pauli_sum.n_qubits == 2
    assert verify_reduction(rh, sector_oracle(h, spec)).passed


def test_verify_detects_swapped_sector_images():
    """Negative control: operating with two sector images exchanged while
    the bookkeeping still claims the original map must be caught."""
    from fermiperm import ReducedHamiltonian

    spec = SectorSpec(4, 2)
    p = minimal_permutation_index_embed(spec)
    rng = np.random.default_rng(17)
    raw = rng.uniform(-1, 1, (4, 4))
    h = FermionOperator.one_body((raw + raw.T) / 2)
    rh = encode_and_reduce(h, p, spec)
    swapped = list(rh.labels)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    corrupted = ReducedHamiltonian(rh.pauli_sum, rh.report, rh.spec, tuple(swapped))
    check = verify_reduction(corrupted, sector_oracle(h, spec))
    assert not check.passed
    assert check.max_deviation > 1e-6
    # the uncorrupted bookkeeping passes
    assert verify_reduction(rh, sector_oracle(h, spec)).passed


def test_spectrum_containment():
    """Sector spectrum sits inside the reduced operator's spectrum."""
    rng = np.random.default_rng(23)
    spec = SectorSpec(5, 2)
    p = minimal_permutation_index_embed(spec)
    raw = rng.uniform(-1, 1, (5, 5))
    h = FermionOperator.one_body((raw + raw.T) / 2)
    rh = encode_and_reduce(h, p, spec)
    oracle = sector_oracle(h, spec)
    check = verify_reduction(rh, oracle)
    assert check.passed
    assert check.spectrum_deviation is None  # certified: no eigensolve ran
    assert 0.0 <= check.spectrum_bound < SPECTRUM_TOL


@st.composite
def verify_cases(draw, max_modes=8):
    """A reduced operator and its sector oracle on N = 3..``max_modes``
    modes: one- and two-body terms with complex coefficients, hermitized or
    not (then the block is not Hermitian), reduced with a random affine
    permutation or a random non-affine one; the oracle is sometimes
    perturbed, so that ``passed`` goes both ways."""
    n = draw(st.integers(3, max_modes))
    k = draw(st.integers(1, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    modes = st.integers(1, n)
    terms = []
    for _ in range(draw(st.integers(1, 6))):
        body = draw(st.integers(1, 2))
        raised = draw(st.lists(modes, min_size=body, max_size=body))
        lowered = draw(st.lists(modes, min_size=body, max_size=body))
        ops = [(m, True) for m in raised] + [(m, False) for m in lowered]
        terms.append(FermionTerm.make(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), ops))
    h = FermionOperator.from_terms(terms)
    if draw(st.booleans()):
        h = h.hermitized()
    spec = SectorSpec(n, k)
    kind = draw(st.sampled_from(["affine", "index-embed", "random"]))
    if kind == "affine":
        offset = rng.integers(0, 2, size=n, dtype=np.uint8)
        p = AffineMapF2(random_invertible(n, rng), offset).to_permutation()
    elif kind == "index-embed":
        p = minimal_permutation_index_embed(spec, completion="random", rng=rng)
    else:
        p = BasisPermutation(rng.permutation(1 << n))
    oracle = sector_oracle(h, spec)
    scale = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]))
    d = spec.dimension
    oracle = oracle + scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return encode_and_reduce(h, p, spec), oracle


def _check_bits(check):
    """A ``ReductionCheck`` with its floats as bytes, so that -0.0 and NaN compare too."""
    floats = (check.max_deviation, check.spectrum_bound, check.spectrum_deviation)
    return (tuple(None if f is None else np.float64(f).tobytes() for f in floats),
            check.passed, check.tolerance)


def _assert_matches_reference(got, expected):
    """``got`` has every field's bits of the whole-matrix reference's but the
    bound's, which the reference sums in another order: that one is equal to
    within a relative 1e-12."""
    assert abs(got.spectrum_bound - expected.spectrum_bound) <= 1e-12 * expected.spectrum_bound
    assert (_check_bits(replace(got, spectrum_bound=0.0))
            == _check_bits(replace(expected, spectrum_bound=0.0)))


@settings(max_examples=80, deadline=None)
@given(verify_cases())
def test_verify_matches_dense_reference(case):
    """Bit-equal fields against the whole-matrix reference, the bound to
    within a relative 1e-12; the oracle is read-only, so a write to it would
    raise."""
    rh, oracle = case
    oracle.setflags(write=False)
    _assert_matches_reference(verify_reduction(rh, oracle), verify_reduction_dense(rh, oracle))


@settings(max_examples=80, deadline=None)
@given(verify_cases(max_modes=10))
def test_spectrum_certificate_is_sound_and_decides_as_the_eigensolves(case):
    """N = 3..10: the bound is at least the spectrum deviation the two
    eigensolves measure (up to their own rounding), and ``passed`` is what
    the check that always solves decides."""
    rh, oracle = case
    check = verify_reduction(rh, oracle)
    solved = verify_reduction_dense(rh, oracle, certify=False)
    assert solved.spectrum_deviation <= check.spectrum_bound + 1e-12
    assert check.passed == solved.passed


@pytest.mark.parametrize(
    "n, k, mapping",
    [(4, 2, "index-embed"), (6, 3, "parity"), (8, 4, "index-embed"), (10, 5, "parity")],
)
def test_spectrum_fallback_is_the_eigensolve_check(n, k, mapping):
    """A perturbation at 1e-6 fails the certificate, so the eigensolves run
    and the result is the check that always solves: every field but the
    bound bit for bit, the bound to within a relative 1e-12.  The oracle
    matrix is perturbed, and so is the reduced operator, which verify then
    checks given ``h`` and given the matrix."""
    spec = SectorSpec(n, k)
    rng = np.random.default_rng(11)
    h = random_one_body(n, rng)
    p = LinearEncodingF2.parity(n) if mapping == "parity" else minimal_permutation_index_embed(spec)
    rh = encode_and_reduce(h, p, spec)
    q, d = rh.pauli_sum.n_qubits, spec.dimension
    oracle = sector_oracle(h, spec)
    oracle.setflags(write=False)
    noise = 1e-6 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    spiked = ReducedHamiltonian(rh.pauli_sum + 1e-6 * random_pauli_sum(q, 8, rng),
                                rh.report, rh.spec, rh.labels)
    noisy = oracle + noise
    for reduced, source, matrix in ((rh, noisy, noisy), (spiked, h, oracle), (spiked, oracle, oracle)):
        check = verify_reduction(reduced, source)
        assert check.spectrum_bound >= SPECTRUM_TOL
        assert check.spectrum_deviation is not None and not check.passed
        _assert_matches_reference(check, verify_reduction_dense(reduced, matrix, certify=False))


def test_an_oracle_whose_hermitization_overflows_raises():
    """N=4, K=2 with the parity map: a given oracle with 1e308 at [0, 1] and
    [1, 0] fails the certificate, and (O + O^H) / 2 passes the largest float
    there, so verify raises naming that stage, before any numpy warning."""
    spec = SectorSpec(4, 2)
    h = random_one_body(4, np.random.default_rng(7))
    rh = encode_and_reduce(h, LinearEncodingF2.parity(4), spec)
    oracle = sector_oracle(h, spec)
    oracle[0, 1] = oracle[1, 0] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="the hermitized sector matrix overflows"):
            verify_reduction(rh, oracle)


def test_a_difference_that_overflows_is_inf_without_a_warning():
    """N=4, K=2 index embed: 1e308 (X + iY)/2 on the last qubit puts 1e308
    at [0, 1] of the sector block, and the given oracle has -1e308 there.
    B - O passes the largest float: the deviation and the bound are inf and
    the check fails on the spectra it then solves, with no numpy warning."""
    spec = SectorSpec(4, 2)
    h = random_one_body(4, np.random.default_rng(7))
    rh = encode_and_reduce(h, minimal_permutation_index_embed(spec), spec)
    q = rh.pauli_sum.n_qubits
    identities = "I" * (q - 1)
    spike = PauliSum.from_terms(q, [(0.5e308, identities + "X"), (0.5e308j, identities + "Y")])
    spiked = ReducedHamiltonian(rh.pauli_sum + spike, rh.report, rh.spec, rh.labels)
    oracle = sector_oracle(h, spec)
    oracle[0, 1] = -1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check = verify_reduction(spiked, oracle)
    assert (check.max_deviation, check.spectrum_bound) == (np.inf, np.inf)
    assert check.spectrum_deviation == 5e307 and not check.passed


@pytest.mark.parametrize("read_only", [False, True])
@pytest.mark.parametrize("broken", ["oracle", "block", "both"])
def test_verify_raises_a_failed_solve_from_the_calling_thread(broken, read_only):
    """An inf on the oracle's last diagonal entry makes its eigensolve raise
    (N=8, K=4, d = 70), and so does an inf identity term in the reduced
    operator for the block's.  The inf makes the bound inf, so the solves
    run; whichever fails, verify raises what the reference raises and
    leaves the oracle alone, whether a write to it would raise or not."""
    spec = SectorSpec(8, 4)
    h = random_one_body(8, np.random.default_rng(7))
    rh = encode_and_reduce(h, minimal_permutation_index_embed(spec), spec)
    oracle = sector_oracle(h, spec)
    if broken != "block":
        oracle[-1, -1] = np.inf
    if broken != "oracle":
        q = rh.pauli_sum.n_qubits
        spike = PauliSum.from_terms(q, [(np.inf, "I" * q)])
        rh = ReducedHamiltonian(rh.pauli_sum + spike, rh.report, rh.spec, rh.labels)
    oracle.setflags(write=not read_only)
    before = oracle.tobytes()
    with np.errstate(invalid="ignore"):
        with pytest.raises(np.linalg.LinAlgError) as reference:
            verify_reduction_dense(rh, oracle)
        with pytest.raises(type(reference.value), match=re.escape(str(reference.value))):
            verify_reduction(rh, oracle)
    assert oracle.tobytes() == before


def test_verify_holds_one_block():
    """N=12, K=6 with the parity mapping (d = 924): besides the oracle,
    verify allocates only the d x d block (16 d^2 bytes, 13 MiB); the
    whole-matrix reference held three such arrays at once."""
    n, spec = 12, SectorSpec(12, 6)
    p = permutation_from_circuit(gl_to_cnot_circuit(LinearEncodingF2.parity(n)))
    h = random_one_body(n, np.random.default_rng(7))
    rh = encode_and_reduce(h, p, spec)
    oracle = sector_oracle(h, spec)
    d = spec.dimension
    tracemalloc.start()
    try:
        check = verify_reduction(rh, oracle)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert check.passed
    assert peak < 1.25 * 16 * d * d
    _assert_matches_reference(check, verify_reduction_dense(rh, oracle))  # 9 chunks of 44 to 110
    spiked = oracle.copy()
    spiked[16, 923] += 1e-3  # an entry the oracle lacks, in the first chunk swept
    spiked.setflags(write=False)
    _assert_matches_reference(verify_reduction(rh, spiked), verify_reduction_dense(rh, spiked))


def _cuts(dim, width):
    """Chunk bounds of ``width`` columns, the last one narrower."""
    return list(range(0, dim, width)) + [dim]


def _two_body(n, rng, count):
    """``count`` random a+_p a+_q a_r a_s terms with complex coefficients, hermitized."""
    terms = []
    for _ in range(count):
        p, q, r, s = (int(m) for m in rng.integers(1, n + 1, size=4))
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        terms.append(FermionTerm.make(c, [(p, True), (q, True), (r, False), (s, False)]))
    return FermionOperator.from_terms(terms).hermitized()


@st.composite
def operator_reductions(draw):
    """(operator, reduced operator) on N = 3..8 modes: one- and two-body
    terms with complex coefficients, hermitized or not, reduced with the
    parity map, a random index embed or a random table (both not affine)."""
    n = draw(st.integers(3, 8))
    k = draw(st.integers(1, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    modes = st.integers(1, n)
    terms = []
    for _ in range(draw(st.integers(1, 8))):
        body = draw(st.integers(1, 2))
        raised = draw(st.lists(modes, min_size=body, max_size=body))
        lowered = draw(st.lists(modes, min_size=body, max_size=body))
        ops = [(m, True) for m in raised] + [(m, False) for m in lowered]
        terms.append(FermionTerm.make(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), ops))
    h = FermionOperator.from_terms(terms)
    if draw(st.booleans()):
        h = h.hermitized()
    spec = SectorSpec(n, k)
    kind = draw(st.sampled_from(["parity", "index-embed", "random"]))
    if kind == "parity":
        p = LinearEncodingF2.parity(n)
    elif kind == "index-embed":
        p = minimal_permutation_index_embed(spec, completion="random", rng=rng)
    else:
        p = BasisPermutation(rng.permutation(1 << n))
    return h, encode_and_reduce(h, p, spec)


@settings(max_examples=80, deadline=None)
@given(operator_reductions(), st.integers(1, 9))
def test_verify_from_the_operator_matches_the_matrix(case, width):
    """Given ``h``, verify never builds the oracle, yet every field has the
    bits it has given ``sector_oracle(h, spec)`` and the whole-matrix
    reference's.  At N <= 8 verify takes one chunk of columns, so it runs
    again with chunks of ``width`` columns: the column pass and the
    deviation then run at several column offsets."""
    h, rh = case
    oracle = sector_oracle(h, rh.spec)
    oracle.setflags(write=False)
    got = verify_reduction(rh, h)
    _assert_matches_reference(got, verify_reduction_dense(rh, oracle))
    expected = _check_bits(got)
    assert _check_bits(verify_reduction(rh, oracle)) == expected
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reduction, "_chunk_cuts", lambda counts: _cuts(counts.size, width))
        assert _check_bits(verify_reduction(rh, h)) == expected
        assert _check_bits(verify_reduction(rh, oracle)) == expected


@pytest.mark.parametrize(
    "n, k, mapping, body",
    [(10, 5, "index-embed", 1), (10, 5, "parity", 2), (12, 6, "parity", 1)],
)
def test_verify_from_the_operator_over_many_chunks(n, k, mapping, body):
    """Sectors of 252 and 924 states, compared in 2, 1 and 10 chunks of
    columns as their entries fall: the operator gives the reference's bits,
    and so does its matrix, read-only, whether C-ordered, a Fortran-order
    copy or a view of every other column of a d x 2d array, and left
    unwritten."""
    spec = SectorSpec(n, k)
    rng = np.random.default_rng(5)
    h = random_one_body(n, rng) if body == 1 else _two_body(n, rng, 40)
    p = LinearEncodingF2.parity(n) if mapping == "parity" else minimal_permutation_index_embed(spec)
    rh = encode_and_reduce(h, p, spec)
    oracle = sector_oracle(h, spec)
    got = verify_reduction(rh, h)
    _assert_matches_reference(got, verify_reduction_dense(rh, oracle))
    wide = np.zeros((len(oracle), 2 * len(oracle)), dtype=complex)
    wide[:, ::2] = oracle
    forms = (oracle, np.asfortranarray(oracle), wide[:, ::2])
    assert [given.flags.c_contiguous for given in forms] == [True, False, False]
    for given in forms:
        given.setflags(write=False)
        before = given.tobytes()
        assert _check_bits(verify_reduction(rh, given)) == _check_bits(got)
        assert given.tobytes() == before


@settings(max_examples=150, deadline=None)
@given(oracle_cases(), st.integers(1, 30))
def test_column_pass_matches_the_oracle_columns(case, width):
    """The column pass gives the oracle's columns s..t-1 bit for bit, and
    its counts bound each column's entries: constant, one-body, two-body
    and arbitrary ladder terms, signed zeros and repeated terms among
    them."""
    h, spec = case
    oracle = sector_oracle(h, spec)
    columns, counts = reduction._oracle_passes(h, spec, spec.n_modes)
    dim = spec.dimension
    assert np.all(counts >= np.count_nonzero(oracle, axis=0))
    for s in range(0, dim, width):
        t = min(s + width, dim)
        keys, values = columns(s, t)
        assert np.all(keys[1:] > keys[:-1])
        got = np.zeros((dim, t - s), dtype=complex)
        got.reshape(-1)[keys] = values
        assert got.shape == (dim, t - s) and got.tobytes() == oracle[:, s:t].tobytes()


_PARTS = st.sampled_from([0.0, -0.0, 1.5, -0.25])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6),
       st.lists(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), _PARTS, _PARTS),
                         max_size=8), max_size=4))
@example(3, [])  # no yield at all
@example(3, [[]])  # an empty chunk: one yield with no entries
@example(3, [[(1, 2, 0.5, -0.0)]])  # a single entry
@example(2, [[(0, 1, -0.0, -0.0), (4, 1, 1.5, 0.0), (0, 1, 0.0, 0.0)], [(0, 1, -0.0, 0.0)]])
def test_summed_matches_the_stable_argsort(width, pieces):
    """``_summed``'s one sort of packed words groups the entries as a
    stable argsort of their keys does: the same distinct keys, and each
    one's values summed from +0 in the order given, bit for bit, repeated
    keys with -0.0 and +0.0 parts among them."""
    def yields():
        for piece in pieces:
            rank = np.array([e[0] for e in piece], dtype=np.int64)
            col = np.array([e[1] % width for e in piece], dtype=np.int64)
            yield rank, col, np.array([complex(e[2], e[3]) for e in piece], dtype=complex)

    keys, total = reduction._summed(yields(), width)
    expected_keys, expected_total = summed_argsort(yields(), width)
    assert keys.tobytes() == expected_keys.tobytes()
    assert total.tobytes() == expected_total.tobytes()


def test_verify_from_the_operator_holds_one_buffer():
    """N=10, K=5 with the parity mapping (d = 252, 2 chunks): given ``h``,
    verify holds the (d + 1) x d buffer, never the d x d oracle.  Given the
    matrix, verify itself holds no more."""
    n, spec = 10, SectorSpec(10, 5)
    h = random_one_body(n, np.random.default_rng(7))
    rh = encode_and_reduce(h, LinearEncodingF2.parity(n), spec)
    d = spec.dimension
    bound = 1.15 * 16 * (d + 1) * d + 2**20
    oracle = sector_oracle(h, spec)
    for source in (h, oracle):
        tracemalloc.start()
        try:
            check = verify_reduction(rh, source)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert check.passed
        assert peak < bound


def test_verify_scratch_keeps_to_one_budget():
    """N=12, K=6 with the parity mapping, seed 7 (d = 924, q = 11): beside
    its (d + 1) x d buffer, 13.04 MiB, verify's scratch stays under 0.3
    MiB given ``h`` or its matrix.  Dense chunks of 17 columns of the
    oracle and blocks of 2^14 transform entries took 0.74 MiB."""
    n, spec = 12, SectorSpec(12, 6)
    h = random_one_body(n, np.random.default_rng(7))
    rh = encode_and_reduce(h, LinearEncodingF2.parity(n), spec)
    oracle = sector_oracle(h, spec)
    d = spec.dimension
    for source in (h, oracle):
        tracemalloc.start()
        try:
            check = verify_reduction(rh, source)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert check.passed
        assert peak <= 16 * (d + 1) * d + 0.3 * 2**20


def test_a_failed_certificate_holds_one_matrix():
    """N=12, K=6 with the parity mapping, seed 7 (d = 924), 1e-6 X...X
    added to the reduced operator: the certificate fails, so B and then O
    are built again, each hermitized in place and solved.  Given ``h`` or
    the matrix, verify's traced peak stays within 1.1 x 16 d^2 (2.02 with a
    hermitized copy beside each), and the given matrix is left as it was."""
    n, spec = 12, SectorSpec(12, 6)
    h = random_one_body(n, np.random.default_rng(7))
    rh = encode_and_reduce(h, LinearEncodingF2.parity(n), spec)
    q, d = rh.pauli_sum.n_qubits, spec.dimension
    spike = PauliSum.from_terms(q, [(1e-6, "X" * q)])
    spiked = ReducedHamiltonian(rh.pauli_sum + spike, rh.report, rh.spec, rh.labels)
    oracle = sector_oracle(h, spec)
    before = oracle.tobytes()
    for source in (h, oracle):
        tracemalloc.start()
        try:
            check = verify_reduction(spiked, source)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert check.spectrum_deviation is not None and not check.passed
        assert peak <= 1.1 * 16 * d * d
    assert oracle.tobytes() == before


@st.composite
def deviation_cases(draw):
    """A d x d block, an oracle given as ``h`` or as a matrix, a chunk width
    in 1..45 for ``h``'s column pass and an entry budget that reads the
    block in one block of rows or many.  The block has -0.0 parts and,
    sometimes, a NaN, inf or 1e300 spike whose square makes the bound NaN
    or inf.
    ``h`` (N = 3..8) has one- and two-body terms, repeated terms and
    coefficients with -0.0 parts; the matrix has +0+0j, -0.0 parts and
    random entries, at a density drawn from sparse to dense."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = draw(st.integers(1, 45))
    if draw(st.booleans()):
        n = draw(st.integers(3, 8))
        spec = SectorSpec(n, draw(st.integers(1, n - 1)))
        modes = st.integers(1, n)
        parts = st.sampled_from([0.0, -0.0, 0.5, -1.0, 0.25])
        terms = []
        for _ in range(draw(st.integers(0, 12))):
            body = draw(st.integers(1, 2))
            raised = draw(st.lists(modes, min_size=body, max_size=body))
            lowered = draw(st.lists(modes, min_size=body, max_size=body))
            ops = [(m, True) for m in raised] + [(m, False) for m in lowered]
            terms.append(FermionTerm.make(complex(draw(parts), draw(parts)), ops))
        terms += terms[: draw(st.integers(0, len(terms)))]
        source = FermionOperator.from_terms(terms)
        d = spec.dimension
    else:
        spec = None
        d = draw(st.integers(1, 60))
        source = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        source[rng.random((d, d)) < draw(st.sampled_from([0.0, 0.5, 0.95]))] = 0.0
        source[rng.random((d, d)) < 0.1] = complex(-0.0, 0.0)
        source[rng.random((d, d)) < 0.1] = complex(0.0, -0.0)
    block = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    block[rng.random((d, d)) < 0.3] = -0.0
    spike = draw(st.sampled_from([None, np.nan, np.inf, 1e300]))
    if spike is not None:
        block[tuple(rng.integers(0, d, size=2))] = spike
    return spec, source, block, width, draw(st.sampled_from([8, 100, 4096]))


def _deviation_pass(case):
    """Subtract a drawn case's oracle from its block as verify does: a
    given matrix in one ``np.subtract``, ``h`` through the chunk
    subtraction of its column pass.  Then read the deviation and the bound.
    Returns the block it left, and B - O, max |B - O| and ||B - O||_F
    computed on the whole matrices, and the pass's deviation and bound."""
    spec, source, block, width, entries = case
    d = block.shape[1]
    if spec is None:
        oracle = source
    else:
        oracle = sector_oracle(source, spec)
        columns, _ = reduction._oracle_passes(source, spec, spec.n_modes)
    oracle.setflags(write=False)
    with np.errstate(over="ignore", invalid="ignore"):
        delta = block - oracle
        max_dev = np.max(np.abs(delta))
        norm = np.sqrt(np.sum(np.abs(delta) ** 2))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reduction, "_VERIFY_ENTRIES", entries)
        if spec is None:
            np.subtract(block, oracle, out=block)
        else:
            reduction._subtract_chunks(block, _cuts(d, width), columns)
        got, bound = reduction._deviation_and_bound(block)
    return block, delta, max_dev, norm, got, bound


@settings(max_examples=200, deadline=None)
@given(deviation_cases())
def test_deviation_pass_leaves_b_minus_o_in_the_block(case):
    """Every chunk width and entry budget: the pass leaves B - O in the
    block byte for byte, signed zeros and NaN or inf spikes among the
    entries; the oracle is only read."""
    block, delta, _, _, _, _ = _deviation_pass(case)
    assert block.tobytes() == delta.tobytes()


@settings(max_examples=200, deadline=None)
@given(deviation_cases())
def test_deviation_pass_matches_the_whole_matrix_max(case):
    """The deviation the pass reads, for the oracle given as ``h`` and as
    a matrix, has the bits of max |B - O| on the whole matrices."""
    _, _, max_dev, _, got, _ = _deviation_pass(case)
    assert np.float64(got).tobytes() == max_dev.tobytes()


@settings(max_examples=200, deadline=None)
@given(deviation_cases())
def test_spectrum_bound_is_the_norm_of_b_minus_o(case):
    """The deviation and the bound, at entry budgets from below one column
    to the whole block, have the bits of the row loop that holds one array
    of absolute values per block (``deviation_and_bound_rows``), NaN, inf
    and 1e300 spikes included.  The bound is ||B - O||_F to within a
    relative 1e-12, or NaN or inf as the whole-matrix norm is."""
    _, delta, _, norm, got, bound = _deviation_pass(case)
    expected = deviation_and_bound_rows(delta, case[-1])
    assert np.array([got, bound]).tobytes() == np.array(expected).tobytes()
    if np.isfinite(norm):
        assert abs(bound - norm) <= 1e-12 * norm
    else:
        assert np.float64(bound).tobytes() == norm.tobytes()


def test_reduce_index_embed_projects_inside_the_transform():
    """N=10, K=5 one-body index embed: the fixed qubits are projected out of
    each block of transformed rows, so the 627,635 terms of the conjugated
    sum on all ten qubits are never gathered (16.7 MiB peak when they
    were); what is held is the displacement array, 4 MiB, and the 50,378
    terms of the result."""
    spec = SectorSpec(10, 5)
    p = minimal_permutation_index_embed(spec)
    h = random_one_body(10, np.random.default_rng(7))
    tracemalloc.start()
    try:
        rh = encode_and_reduce(h, p, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rh.pauli_sum) == 50378
    assert peak < 10 * 2**20


def test_dense_block_holds_the_sort_order_not_sorted_copies():
    """N=10, K=5 one-body index embed (50,378 terms, d = 252): beside its
    (d + 1) x d buffer the block holds the terms' sort order and chunks of
    about 2^14 entries, not sorted copies of every term array (81 bytes a
    term beside the buffer before)."""
    spec = SectorSpec(10, 5)
    h = random_one_body(10, np.random.default_rng(7))
    rh = encode_and_reduce(h, minimal_permutation_index_embed(spec), spec)
    s = rh.pauli_sum
    d = spec.dimension
    tracemalloc.start()
    try:
        block = s._dense_block(rh.labels, small_blocks=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(block, s.to_dense()[np.ix_(rh.labels, rh.labels)])
    assert peak < 16 * (d + 1) * d + 48 * len(s)


def test_identity_permutation_reduction_has_no_fixed_qubits():
    spec = SectorSpec(4, 2)
    p = BasisPermutation(np.arange(16))
    h = FermionOperator.one_body(np.eye(4))
    rh = encode_and_reduce(h, p, spec)
    assert rh.report.fixed == ()
    assert rh.pauli_sum.n_qubits == 4
    assert verify_reduction(rh, sector_oracle(h, spec)).passed
