"""Pauli string / Pauli sum algebra against the literal-matrix oracle."""

import itertools
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermiperm import (
    DimensionError,
    PauliString,
    PauliSum,
    ResourceError,
    commutes,
    pauli_decompose,
)
from fermiperm.pauli import (
    PRUNE_TOL,
    _ZERO,
    _above_tol,
    _block_rows,
    _decompose_displacements,
    _popcount_u64,
    _walsh_hadamard_rows,
    parity_u64,
)
from helpers import (
    _merge,
    array_sum,
    items_sorted_loop,
    kron_dense,
    kron_dense_sum,
    letter_product,
    products_loop,
    random_pauli_letters,
    walsh_hadamard_rows_reshape,
    random_pauli_sum,
)


def test_multiply_single_qubit_identities():
    X = PauliString.from_letters("X")
    Y = PauliString.from_letters("Y")
    Z = PauliString.from_letters("Z")
    assert X * Y == PauliString.from_letters("Z", phase=1)  # i Z
    assert Y * X == PauliString.from_letters("Z", phase=3)  # -i Z
    assert Y * Z == PauliString.from_letters("X", phase=1)
    assert Z * X == PauliString.from_letters("Y", phase=1)


@pytest.mark.parametrize("letters", ["X", "ZXIX", "YYZ", "IIIII"])
def test_paulis_square_to_identity(letters):
    p = PauliString.from_letters(letters)
    sq = p * p
    assert sq == PauliString(p.n_qubits, 0, 0)


def test_multiply_checked_against_dense_product():
    a = PauliString.from_letters("ZX")
    b = PauliString.from_letters("XX")
    prod = a * b
    expected = kron_dense("ZX") @ kron_dense("XX")
    got = prod.coefficient * kron_dense(prod.letters())
    assert np.allclose(got, expected)


def test_multiply_random_pairs_against_dense(seed=11):
    rng = np.random.default_rng(seed)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        sa = random_pauli_letters(n, rng)
        sb = random_pauli_letters(n, rng)
        prod = PauliString.from_letters(sa) * PauliString.from_letters(sb)
        expected = kron_dense(sa) @ kron_dense(sb)
        assert np.allclose(prod.coefficient * kron_dense(prod.letters()), expected)


def test_multiply_associative_on_random_triples():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        a, b, c = (PauliString.from_letters(random_pauli_letters(n, rng)) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        triple = (a * b) * c
        dense = kron_dense(a.letters()) @ kron_dense(b.letters()) @ kron_dense(c.letters())
        assert np.allclose(triple.coefficient * kron_dense(triple.letters()), dense)


def test_multiply_dimension_mismatch():
    x, xx = PauliString.from_letters("X"), PauliString.from_letters("XX")
    with pytest.raises(DimensionError, match="cannot multiply Pauli strings on 1 and 2 qubits"):
        x * xx
    with pytest.raises(DimensionError, match="commutator of Pauli strings on different registers"):
        commutes(x, xx)
    a, b = PauliSum.from_pauli(x), PauliSum.from_pauli(xx)
    with pytest.raises(DimensionError, match="cannot add sums on different registers"):
        a + b
    with pytest.raises(DimensionError, match="cannot multiply sums on different registers"):
        a * b


@st.composite
def mask_products(draw):
    """Two lists of (masks, coefficient) terms on 1..130 qubits, with
    signed-zero coefficient parts, and one phase per operand."""
    n = draw(st.integers(1, 130))
    masks = st.tuples(st.integers(0, 2**n - 1), st.integers(0, 2**n - 1))
    parts = st.sampled_from([0.0, -0.0, 1.0, -0.5, 0.25, 1e-300])
    terms = st.lists(
        st.tuples(masks, st.builds(complex, parts, parts)), min_size=1, max_size=4
    )
    return n, draw(terms), draw(terms), draw(st.integers(0, 3)), draw(st.integers(0, 3))


@settings(max_examples=150, deadline=None)
@given(mask_products())
def test_mask_rule_matches_multiply_and_letter_table(case):
    """``PauliSum.__mul__`` reads the phase off the masks: same keys, same
    order and the same coefficient bits as one ``PauliString`` product per
    pair and the dict merge; that product matches a per-qubit letter
    table."""
    n, a_items, b_items, pa, pb = case
    a, b = PauliSum(n, a_items), PauliSum(n, b_items)
    expected = _merge(products_loop(n, list(a.items()), list(b.items())))
    assert repr(list((a * b).items())) == repr(list(expected.items()))
    for (xa, za), _ in a_items:
        for (xb, zb), _ in b_items:
            a, b = PauliString(n, xa, za, pa), PauliString(n, xb, zb, pb)
            letters, k = letter_product(a.letters(), b.letters())
            assert a * b == PauliString.from_letters(letters, (pa + pb + k) % 4)


def test_commutator_type_basics():
    X1 = PauliString.from_letters("X")
    Z1 = PauliString.from_letters("Z")
    assert not commutes(X1, Z1)
    assert commutes(PauliString.from_letters("XI"), PauliString.from_letters("IZ"))


def test_jw_gamma2_gamma3_anticommute():
    from fermiperm import jw_majorana

    g2 = jw_majorana(2, False, 4)
    g3 = jw_majorana(3, False, 4)
    assert not commutes(g2, g3)


def test_commutator_type_matches_dense_exhaustive_3q():
    """Symplectic test vs dense [a,b] / {a,b} for every letter pair on 3 qubits."""
    letters3 = [a + b + c for a in "IXYZ" for b in "IXYZ" for c in "IXYZ"]
    for sa in letters3:
        ma = kron_dense(sa)
        pa = PauliString.from_letters(sa)
        for sb in letters3:
            mb = kron_dense(sb)
            pb = PauliString.from_letters(sb)
            comm_zero = np.allclose(ma @ mb - mb @ ma, 0)
            assert commutes(pa, pb) == comm_zero
            if not comm_zero:
                assert np.allclose(ma @ mb + mb @ ma, 0)


def test_commutator_type_matches_dense_random_8q():
    rng = np.random.default_rng(23)
    for _ in range(30):
        sa = random_pauli_letters(8, rng)
        sb = random_pauli_letters(8, rng)
        pa, pb = PauliString.from_letters(sa), PauliString.from_letters(sb)
        ma, mb = kron_dense(sa), kron_dense(sb)
        assert commutes(pa, pb) == np.allclose(ma @ mb, mb @ ma)


def test_weight():
    assert PauliString(5, 0, 0).weight() == 0
    assert PauliString.from_letters("ZXIX").weight() == 3
    from fermiperm import jw_majorana

    for n in (1, 3, 7):
        for j in range(1, n + 1):
            assert jw_majorana(j, False, n).weight() == j


def test_sum_cancellation_and_merging():
    s = PauliSum.from_terms(2, [(0.5, "XZ"), (1.0, "YY")])
    assert len(s + s.scale(-1.0)) == 0
    a = PauliSum.from_terms(1, [(1.0, "X")])
    b = PauliSum.from_terms(1, [(1.0, "Z")])
    half = (a + b).scale(0.5) + (a - b).scale(0.5)
    assert half == a


def test_four_term_majorana_image_stays_four_terms():
    # image of the first Majorana under a single-Toffoli permutation
    s = PauliSum.from_terms(
        4,
        [(0.5, "XIXI"), (0.5, "XIXX"), (0.5, "XZXI"), (-0.5, "XZXX")],
    )
    assert len(s) == 4
    coeffs = [c for _, c in s.items_sorted()]
    assert all(c.imag == 0 for c in coeffs)
    assert sorted(c.real for c in coeffs) == [-0.5, 0.5, 0.5, 0.5]


def test_to_dense_identity_and_z():
    assert np.allclose(PauliString(3, 0, 0).to_dense(), np.eye(8))
    assert np.allclose(PauliString.from_letters("Z").to_dense(), np.diag([1, -1]))


def test_to_dense_cnot_combination():
    """1/2 (II + ZI + IX - ZX) is the controlled-NOT permutation matrix."""
    s = PauliSum.from_terms(2, [(0.5, "II"), (0.5, "ZI"), (0.5, "IX"), (-0.5, "ZX")])
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    assert np.allclose(s.to_dense(), cnot)


def test_to_dense_matches_kron_oracle():
    rng = np.random.default_rng(2)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        pairs = [
            (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), random_pauli_letters(n, rng))
            for _ in range(4)
        ]
        s = PauliSum.from_terms(n, pairs)
        assert np.allclose(s.to_dense(), kron_dense_sum(pairs))


def test_to_dense_of_zero_sum_is_zero():
    dense = PauliSum(3).to_dense()
    assert dense.shape == (8, 8)
    assert not dense.any()


@st.composite
def sums_sharing_x_masks(draw):
    """Random sums whose terms reuse a few X masks; most terms turn every
    X letter of their mask into Y."""
    n = draw(st.integers(1, 6))
    full = (1 << n) - 1
    masks = draw(st.lists(st.integers(0, full), min_size=1, max_size=3))
    coeff = st.complex_numbers(min_magnitude=1e-3, max_magnitude=2.0)
    pairs = []
    for _ in range(draw(st.integers(1, 16))):
        x = draw(st.sampled_from(masks))
        z = draw(st.integers(0, full))
        if draw(st.integers(0, 3)):
            z |= x
        pairs.append(((x, z), draw(coeff)))
    return PauliSum(n, pairs)


@settings(max_examples=80, deadline=None)
@given(sums_sharing_x_masks())
def test_to_dense_against_kron_oracle_shared_x_masks(s):
    oracle = kron_dense_sum([(c, letters) for letters, c in s.items_sorted()])
    assert np.max(np.abs(s.to_dense() - oracle), initial=0.0) < 1e-12


@st.composite
def decomposition_cases(draw):
    """(pairs, matrix) for a sum sharing X masks, a dense sum with a random
    complex coefficient on every one of the 4^n strings, or a sum whose
    matrix is real, passed as a float64 array."""
    kind = draw(st.sampled_from(["shared_x", "dense", "real"]))
    if kind == "shared_x":
        pairs = [(c, letters) for letters, c in draw(sums_sharing_x_masks()).items_sorted()]
        return pairs, kron_dense_sum(pairs)
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "dense":
        pairs = [
            (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), "".join(letters))
            for letters in itertools.product("IXYZ", repeat=n)
        ]
        return pairs, kron_dense_sum(pairs)
    pairs = []
    for _ in range(draw(st.integers(1, 16))):
        letters = random_pauli_letters(n, rng)
        # a string with an odd number of Y letters is imaginary
        pairs.append((rng.uniform(-1, 1) * 1j ** (letters.count("Y") % 2), letters))
    dense = kron_dense_sum(pairs)
    assert not dense.imag.any()
    return pairs, dense.real


@settings(max_examples=60, deadline=None)
@given(decomposition_cases())
def test_decompose_against_kron_oracle(case):
    pairs, dense = case
    expected = dict(PauliSum.from_terms(len(pairs[0][1]), pairs).items())
    got = dict(pauli_decompose(dense).items())
    assert got.keys() == expected.keys()
    assert all(abs(got[key] - expected[key]) <= 1e-12 for key in got)


def test_to_dense_round_trip_across_row_blocks():
    """Nine qubits, with more distinct X masks than one row block holds."""
    rng = np.random.default_rng(23)
    s = random_pauli_sum(9, 400, rng)
    assert len({x for (x, _), _ in s.items()}) > _block_rows(1 << 9)
    assert pauli_decompose(s.to_dense()) - s == PauliSum(9)


# Rows of 2 to 2^14 columns, an odd and an even stage count at the block
# cap among them, and the block shapes of the two callers: 64 x 256 in the
# embed_onebody decomposition and 8 x 2048 in the parity_wide verify block.
_WHT_SHAPES = {
    **{str(rows): [(rows, 1 << bits) for bits in range(1, 15)] for rows in (1, 3, 16)},
    "callers": [(64, 256), (8, 2048)],
}


@pytest.mark.parametrize("shapes", list(_WHT_SHAPES.values()), ids=list(_WHT_SHAPES))
def test_walsh_hadamard_rows_match_the_reshape_loop(shapes):
    """The constant-geometry stages leave the same bits as every butterfly
    level through one reshaped view, in place, signed zeros, infinities and
    NaN included."""
    rng = np.random.default_rng(len(shapes) * shapes[0][0])
    for rows, size in shapes:
        a = rng.standard_normal((rows, size)) + 1j * rng.standard_normal((rows, size))
        a *= rng.choice([1.0, 0.0, -0.0, 1e300], (rows, size))
        a.flat[rng.integers(0, a.size, 3)] = [complex(np.inf, 0.0), complex(np.nan, -0.0), -0.0j]
        expected = a.copy()
        with np.errstate(invalid="ignore", over="ignore"):
            _walsh_hadamard_rows(a)
            walsh_hadamard_rows_reshape(expected)
        assert a.tobytes() == expected.tobytes(), (rows, size)


@pytest.mark.parametrize("rows, size", [(1, 1 << 14), (16, 1 << 9), (64, 256), (8, 2048)])
def test_walsh_hadamard_rows_hold_one_extra_buffer(rows, size):
    """The transform allocates at most one buffer the size of its input,
    whether its stage count is odd or even."""
    a = np.random.default_rng(size).standard_normal((rows, size)) + 0j
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _walsh_hadamard_rows(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base <= a.nbytes + 4096, (peak - base, a.nbytes)


def test_parity_u64_beyond_16_bits():
    assert parity_u64([2**17, 2**17 + 1]).tolist() == [1, 0]
    assert parity_u64([2**32, 2**63, 2**64 - 1, 2**64 - 2]).tolist() == [1, 1, 0, 1]


def test_parity_and_popcount_u64_against_bit_count():
    rng = np.random.default_rng(21)
    values = rng.integers(0, 2**64, size=500, dtype=np.uint64)
    counts = [int(v).bit_count() for v in values]
    assert _popcount_u64(values).tolist() == counts
    assert parity_u64(values).tolist() == [c % 2 for c in counts]


def test_popcount_u64_with_and_without_numpy_bitwise_count(monkeypatch):
    """numpy's ``bitwise_count`` (2.0 on) and the SWAR folding older numpy
    takes give the counts of the bits as ``uint64``, for signed input too."""
    rng = np.random.default_rng(22)
    values = rng.integers(0, 2**64, size=500, dtype=np.uint64)
    counts = [int(v).bit_count() for v in values]
    for _ in range(2):
        assert _popcount_u64(values).tolist() == counts
        assert _popcount_u64(values.view(np.int64)).tolist() == counts
        assert parity_u64(values.view(np.int64)).tolist() == [c % 2 for c in counts]
        monkeypatch.delattr(np, "bitwise_count", raising=False)


def test_zero_adds_to_complex_arrays_as_this_interpreter_does():
    """numpy's ``_ZERO + c`` has the bits of CPython's ``0.0 + c``, whichever
    rule the interpreter follows for a float plus a complex (both parts up
    to Python 3.13, the real part only from 3.14)."""
    parts = [0.0, -0.0, 1.5, -2.0, math.inf, -math.inf]
    values = [complex(r, i) for r in parts for i in parts]
    got = (_ZERO + np.array(values)).tolist()
    want = [0.0 + v for v in values]
    assert [(math.copysign(1, g.real), math.copysign(1, g.imag), g) for g in got] == [
        (math.copysign(1, w.real), math.copysign(1, w.imag), w) for w in want
    ]


def test_decompose_keeps_a_finite_coefficient_whose_magnitude_overflows():
    """|c| of c = 1.5e308 + 1.5e308i passes the largest float, but c is
    finite and above the threshold: kept, not an overflow error."""
    c = complex(1.5e308, 1.5e308)
    x, z, coeff = _decompose_displacements(np.array([[c]]))
    assert (x.tolist(), z.tolist(), coeff.tolist()) == ([0], [0], [c])


def test_dense_forms_that_overflow_raise_value_error():
    """Finite terms whose dense matrix, or a finite matrix whose Pauli
    coefficients, pass the largest float: a ValueError naming the step,
    not a numpy warning and an infinity."""
    s = PauliSum.from_terms(1, [(1e308, "I"), (1e308, "Z")])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="the dense form of the Pauli sum overflows"):
            s.to_dense()
        with pytest.raises(ValueError, match="the Pauli decomposition overflows"):
            pauli_decompose(np.diag([1e308, -1e308]))


def test_dense_cap_enforced():
    with pytest.raises(ResourceError):
        PauliSum(13, [((0, 0), 1.0)]).to_dense()
    with pytest.raises((ResourceError, ValueError)):
        pauli_decompose(np.broadcast_to(np.float64(1.0), (2**13, 2**13)))


@pytest.mark.parametrize("op", [PauliSum(20, [((0, 0), 1.0)]), PauliString(20, 0, 0)], ids=type)
def test_to_dense_cap_checked_before_allocation(op):
    """At 20 qubits the 2^20 basis labels alone would be 8 MiB."""
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError):
            op.to_dense()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_decompose_cap_checked_before_copy():
    """A zero-stride 2^13 x 2^13 view is rejected before the 1 GiB complex copy."""
    m = np.broadcast_to(np.float64(1.0), (2**13, 2**13))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError):
            pauli_decompose(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_decompose_holds_terms_as_arrays():
    """A dense random complex q=8 matrix: the 1 MiB displacement array, its
    mask and 65,536 terms as arrays (1 MiB of masks, 1 MiB of coefficients);
    no dict of the terms is built."""
    rng = np.random.default_rng(8)
    m = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
    tracemalloc.start()
    try:
        s = pauli_decompose(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(s) == 4**8
    assert peak < 4 * 2**20


def test_decompose_q10_time():
    """A dense random complex q=10 matrix (about 10^6 terms), best of three
    calls, in under 0.5 s."""
    rng = np.random.default_rng(10)
    m = rng.normal(size=(1024, 1024)) + 1j * rng.normal(size=(1024, 1024))
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        pauli_decompose(m)
        best = min(best, time.perf_counter() - start)
    assert best < 0.5


def test_decompose_identity_and_z():
    one = pauli_decompose(np.eye(4))
    assert one == PauliSum.from_terms(2, [(1.0, "II")])
    z = pauli_decompose(np.diag([1.0, -1.0]))
    assert z == PauliSum.from_terms(1, [(1.0, "Z")])
    # |c| is PRUNE_TOL by numpy's complex abs and an ulp above it by hypot,
    # which CPython's abs and the constructor use: the term comes back, bit for bit
    c = PauliSum(1, [((0, 0), 9.999999999999998e-13 + 2.4780348905730923e-20j)])
    assert len(c) == 1
    assert repr(list(pauli_decompose(c.to_dense()).items())) == repr(list(c.items()))


def test_decompose_round_trip_random_3q():
    rng = np.random.default_rng(17)
    for _ in range(100):
        s = random_pauli_sum(3, int(rng.integers(1, 8)), rng)
        back = pauli_decompose(s.to_dense())
        assert back.n_qubits == s.n_qubits
        for (key, coeff) in s.items():
            assert abs(dict(back.items()).get(key, 0.0) - coeff) < 1e-12
        assert len(back) == len(s)


def test_above_tol_is_hypot_near_the_threshold():
    """At each of the 17 magnitudes within 8 ulps of PRUNE_TOL, over random
    angles, and on NaN, infinities and overflowing magnitudes, the prune
    keeps exactly the values whose hypot is above PRUNE_TOL, for any shape."""
    rng = np.random.default_rng(5)
    magnitudes = [PRUNE_TOL]
    for _ in range(8):
        magnitudes = [np.nextafter(magnitudes[0], 0), *magnitudes, np.nextafter(magnitudes[-1], 1)]
    angles = rng.uniform(0, 2 * np.pi, size=(len(magnitudes), 4000))
    c = np.array(magnitudes)[:, None] * np.exp(1j * angles)
    inf, nan = math.inf, math.nan
    special = [complex(nan, 0), complex(inf, nan), complex(nan, -inf), complex(1.5e308, 1.5e308),
               complex(PRUNE_TOL, 0), complex(0, -PRUNE_TOL), 0j]
    for values in (c, c.ravel(), np.array(special)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _above_tol(values)
        with np.errstate(over="ignore"):
            assert np.array_equal(got, np.hypot(values.real, values.imag) > PRUNE_TOL)
    assert np.array_equal(got, [False, True, True, True, False, False, False])
    assert 0 < np.count_nonzero(_above_tol(c)) < c.size


def test_decompose_unitary_norm_is_one():
    rng = np.random.default_rng(31)
    for n in (1, 2, 3, 4):
        dim = 1 << n
        raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        q, _ = np.linalg.qr(raw)
        s = pauli_decompose(q)
        assert abs(s.frobenius_sq() - 1.0) < 1e-9


def test_decompose_rejects_bad_shapes():
    with pytest.raises(ValueError):
        pauli_decompose(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        pauli_decompose(np.zeros((2, 4)))


def test_from_letters_validation():
    with pytest.raises(ValueError):
        PauliString.from_letters("XQZ")
    with pytest.raises(ValueError):
        PauliString(2, 0, 0, 5)
    with pytest.raises(ValueError, match="need at least one qubit"):
        PauliString(0, 0, 0)
    with pytest.raises(ValueError, match="bit mask exceeds register size"):
        PauliString(2, 4, 0)
    with pytest.raises(ValueError, match="need at least one qubit"):
        PauliSum(0)
    with pytest.raises(DimensionError):
        PauliSum.from_terms(3, [(1.0, "XX")])
    # a key's masks must lie on the register, compared as Python ints at any width
    for n, key in [(2, (4, 0)), (2, (0, -1)), (64, (1 << 64, 0)), (70, (1 << 70, 0))]:
        with pytest.raises(DimensionError, match=f"outside the {n}-qubit register"):
            PauliSum(n, [(key, 1.0)])
    assert PauliSum(64, [((2**64 - 1, 0), 1.0)]).to_json_dict()["terms"][0]["pauli"] == "X" * 64
    assert PauliSum(70, [((1 << 69, 0), 1.0)]).to_json_dict()["terms"][0]["pauli"] == "X" + "I" * 69


def test_sum_checks_every_mask_before_the_merge():
    """A mask off the register raises even when its term would be pruned
    or cancelled by the merge."""
    for terms in (
        [((9, 0), 0.0)],
        [((-1, 0), 0.0)],
        [((9, 0), 1.0), ((9, 0), -1.0)],
    ):
        with pytest.raises(DimensionError, match="outside the 3-qubit register"):
            PauliSum(3, terms)


_AT_TOL = [PRUNE_TOL, float(np.nextafter(PRUNE_TOL, 1.0)), float(np.nextafter(PRUNE_TOL, 0.0))]


@st.composite
def merge_inputs(draw):
    """(n, pairs) on 1..130 qubits: keys drawn from a pool of up to four,
    so they repeat, and coefficients (complex, float or int) whose parts
    include signed zeros, values either side of ``PRUNE_TOL`` and values
    that cancel exactly."""
    n = draw(st.integers(1, 130))
    masks = st.tuples(st.integers(0, 2**n - 1), st.integers(0, 2**n - 1))
    keys = draw(st.lists(masks, min_size=1, max_size=4))
    parts = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -3e-13, *_AT_TOL, *(-t for t in _AT_TOL)]),
        st.floats(-1.0, 1.0, allow_nan=False),
    )
    coeff = st.one_of(st.builds(complex, parts, parts), parts, st.integers(-2, 2))
    pairs = st.lists(st.tuples(st.sampled_from(keys), coeff), max_size=12)
    return n, draw(pairs)


@settings(max_examples=200, deadline=None)
@given(merge_inputs())
def test_sum_merges_as_the_dict_route(case):
    """The constructor's array merge gives the dict merge's terms: the same
    keys in first-seen order and the same bits of every part, signed zeros
    included, at any width."""
    n, pairs = case
    assert repr(list(PauliSum(n, pairs).items())) == repr(list(_merge(pairs).items()))


def test_single_qubit_accessors_validate():
    p = PauliString.from_letters("XYZ")
    assert [p.letter(q) for q in (1, 2, 3)] == ["X", "Y", "Z"]
    for qubit in (0, 4):
        with pytest.raises(DimensionError, match=f"qubit {qubit} out of range 1..3"):
            p.letter(qubit)


def test_string_rendering():
    p = PauliString.from_letters("XIZX")
    assert str(p) == "(1+0i) XIZX"
    s = PauliSum.from_terms(4, [(0.5, "XIZX")])
    assert s.items_sorted() == [("XIZX", 0.5 + 0j)]
    assert str(PauliSum(2)) == "0"
    s = PauliSum.from_terms(2, [(0.5, "ZX"), (-1j, "XI"), (2, "IY")])
    assert str(s) == "(2+0i) IY + (0-1i) XI + (0.5+0i) ZX"  # in letter order


def test_json_round_trip_and_sorted_terms():
    s = PauliSum.from_terms(2, [(0.25, "ZI"), (-1.0, "IX"), (0.5j, "YY")])
    data = s.to_json_dict()
    assert [t["pauli"] for t in data["terms"]] == sorted(t["pauli"] for t in data["terms"])
    assert PauliSum.from_json_dict(data) == s


def test_hermiticity_detection():
    herm = PauliSum.from_terms(2, [(1.0, "XZ"), (-0.25, "YY")])
    assert herm.dagger() == herm
    anti = PauliSum.from_terms(2, [(1j, "XZ")])
    assert anti.dagger() != anti


@st.composite
def wide_sums(draw):
    """A sum on 1, 31, 32, 33, 63, 64, 65 or 130 qubits whose keys often
    differ only in the first qubit, the last, bit 31 or 32 (either side of
    the 32 qubits in a word of the sort key) or bit 64 (the first past a
    64-bit mask)."""
    n = draw(st.sampled_from([1, 31, 32, 33, 63, 64, 65, 130]))
    masks = st.integers(0, 2**n - 1)
    bits = (1, 1 << (n - 1), *((1 << b) % (1 << n) for b in (31, 32, 64)))
    flips = st.sampled_from(sorted({b or 1 for b in bits}))
    items = []
    for i in range(draw(st.integers(0, 12))):
        x, z = draw(masks), draw(masks)
        items.append(((x, z), complex(i + 1, -i)))
        items.append(((x ^ draw(flips), z ^ draw(flips)), complex(-i, 0.5)))
    return PauliSum(n, items)


@settings(max_examples=120, deadline=None)
@given(wide_sums())
def test_items_sorted_matches_loop(s):
    assert s.items_sorted() == items_sorted_loop(s)
    assert [t["pauli"] for t in s.to_json_dict()["terms"]] == [
        letters for letters, _ in items_sorted_loop(s)
    ]



# --- sums built by the constructor and sums adopted from term arrays --------


def test_term_arrays_are_read_only():
    rng = np.random.default_rng(12)
    dict_born = random_pauli_sum(4, 30, rng)
    for s in (dict_born, pauli_decompose(dict_born.to_dense())):
        for a in s._arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[:1] = a[:1]


def test_to_dense_leaves_the_arrays_alone():
    rng = np.random.default_rng(13)
    s = pauli_decompose(random_pauli_sum(5, 40, rng).to_dense())
    before = [a.copy() for a in s._arrays]
    first = s.to_dense()
    assert np.array_equal(s.to_dense(), first)
    for a, b in zip(s._arrays, before):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@settings(max_examples=80, deadline=None)
@given(wide_sums(), st.randoms(use_true_random=False))
def test_array_born_sum_agrees_with_dict_born(s, rnd):
    """A sum adopted from arrays, with no merge, against the constructor's;
    ``==`` ignores term order and sees one changed coefficient."""
    born = array_sum(s.n_qubits, dict(s.items()))
    assert len(born) == len(s)
    assert born.to_json_dict() == s.to_json_dict()
    assert born == s and s == born
    assert list(born.items()) == list(s.items())
    assert born.items_sorted() == s.items_sorted()
    items = list(s.items())
    rnd.shuffle(items)
    assert array_sum(s.n_qubits, dict(items)) == s
    if items:
        (key, coeff), *rest = items
        changed = array_sum(s.n_qubits, dict([(key, 2 * coeff), *rest]))
        assert changed != s and s != changed
