"""Jordan-Wigner, parity, and general linear encodings."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fermiperm import (
    AffineMapF2,
    DimensionError,
    FermionOperator,
    FermionTerm,
    FockState,
    HamiltonianParseError,
    InvalidEncodingError,
    LinearEncodingF2,
    PauliString,
    PauliSum,
    commutes,
    encode_fermion_operator,
    encode_ladder,
    encode_state,
    gl_to_cnot_circuit,
    jw_majorana,
    jw_majoranas,
    linear_encoding_majoranas,
    parity_majorana,
    parity_majoranas,
    parse_hamiltonian,
    permutation_from_circuit,
)
from fermiperm import SectorSpec, f2
from fermiperm.cli import random_minimal_majoranas
from helpers import (
    encode_fermion_operator_dict,
    encode_fermion_operator_loop,
    kron_dense,
    matvec,
    random_invertible,
)


def test_jw_majorana_forms():
    assert jw_majorana(1, False, 1).letters() == "X"
    assert jw_majorana(2, False, 4).letters() == "ZXII"
    assert jw_majorana(4, True, 4).letters() == "ZZZY"
    with pytest.raises(DimensionError):
        jw_majorana(5, False, 4)


def test_parity_majorana_forms():
    assert parity_majorana(4, True, 4).letters() == "IIIY"
    assert parity_majorana(2, False, 4).letters() == "ZXXX"
    assert parity_majorana(1, False, 3).letters() == "XXX"
    with pytest.raises(DimensionError):
        parity_majorana(0, False, 4)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("family", [jw_majoranas, parity_majoranas])
def test_majorana_relations_exhaustive(family, n):
    """All pairs anticommute and every Majorana squares to the identity."""
    flat = [op for pair in family(n) for op in pair]
    for i, a in enumerate(flat):
        assert a * a == PauliString(n, 0, 0)
        for b in flat[i + 1 :]:
            assert not commutes(a, b)


def test_encode_state_identity_and_parity():
    """Identity and parity maps, and maps with an offset: ``encode_state``
    is the map's basis action M n (+) b, offset included, the lookup
    ``to_permutation().apply`` on every state."""
    s = FockState.from_string("10011")
    jw = LinearEncodingF2.jordan_wigner(5)
    assert encode_state(jw, s).to_string() == "10011"
    par = LinearEncodingF2.parity(5)
    assert encode_state(par, s).to_string() == "11101"
    zero = FockState.from_string("00000")
    assert encode_state(par, zero).to_string() == "00000"
    shifted = AffineMapF2(f2.identity(3), np.array([1, 0, 1]))
    assert encode_state(shifted, FockState.from_string("000")).to_string() == "101"
    rng = np.random.default_rng(12)
    for n in (2, 4, 6):
        a = AffineMapF2(random_invertible(n, rng), rng.integers(0, 2, size=n))
        table = a.to_permutation()
        for occupancy in range(1 << n):
            assert encode_state(a, FockState(n, occupancy)).occupancy == table.apply(occupancy)


def test_encode_state_equals_prefix_xor():
    rng = np.random.default_rng(3)
    par = LinearEncodingF2.parity(6)
    for _ in range(20):
        occ = [int(b) for b in rng.integers(0, 2, size=6)]
        prefix = []
        acc = 0
        for b in occ:
            acc ^= b
            prefix.append(acc)
        s = FockState.from_string("".join(map(str, occ)))
        assert encode_state(par, s).to_string() == "".join(map(str, prefix))


def test_encode_ladder_single_mode():
    majos = jw_majoranas(1)
    a_dag = encode_ladder(1, True, majos)
    # |1><0| in matrix form
    assert np.allclose(a_dag.to_dense(), np.array([[0, 0], [1, 0]], dtype=complex))
    assert a_dag == PauliSum.from_terms(1, [(0.5, "X"), (-0.5j, "Y")])


def test_encode_ladder_two_modes():
    majos = jw_majoranas(2)
    a2_dag = encode_ladder(2, True, majos)
    assert a2_dag == PauliSum.from_terms(2, [(0.5, "ZX"), (-0.5j, "ZY")])


def test_number_operator_eigenvalues_are_occupancies():
    """a+_j a_j acts diagonally with eigenvalue n_j on every basis state."""
    for n in (2, 3, 4):
        majos = jw_majoranas(n)
        for j in range(1, n + 1):
            num_j = encode_ladder(j, True, majos) * encode_ladder(j, False, majos)
            diag = np.diag(num_j.to_dense())
            for state in range(1 << n):
                occ = (state >> (n - j)) & 1
                assert abs(diag[state] - occ) < 1e-12


def test_encode_number_operator_closed_form():
    for n in (1, 2, 4):
        enc = encode_fermion_operator(FermionOperator.one_body(np.eye(n)), jw_majoranas(n))
        expected = PauliSum(n, [((0, 0), n / 2)])
        for j in range(1, n + 1):
            letters = "I" * (j - 1) + "Z" + "I" * (n - j)
            expected = expected + PauliSum.from_terms(n, [(-0.5, letters)])
        assert enc == expected


def test_encode_hopping_term():
    h = FermionOperator.from_terms(
        [
            FermionTerm.make(1.0, [(1, True), (2, False)]),
            FermionTerm.make(1.0, [(2, True), (1, False)]),
        ]
    )
    enc = encode_fermion_operator(h, jw_majoranas(2))
    assert enc == PauliSum.from_terms(2, [(0.5, "XX"), (0.5, "YY")])
    # dense cross-check against the kron oracle
    expected = 0.5 * (kron_dense("XX") + kron_dense("YY"))
    assert np.allclose(enc.to_dense(), expected)


def test_encode_hermitian_input_gives_hermitian_sum():
    rng = np.random.default_rng(9)
    h = rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3))
    op = FermionOperator.one_body((h + h.conj().T) / 2)
    enc = encode_fermion_operator(op, jw_majoranas(3))
    assert all(abs(c.imag) <= 1e-12 for _, c in enc.items())


def test_gl_to_cnot_identity_is_empty():
    assert len(gl_to_cnot_circuit(LinearEncodingF2.jordan_wigner(4))) == 0


def test_gl_to_cnot_two_mode_parity():
    circ = gl_to_cnot_circuit(LinearEncodingF2.parity(2))
    assert [g.to_line() for g in circ.gates] == ["CNOT 1 2"]


def test_gl_to_cnot_parity_chain_action():
    """The synthesized circuit acts like the CNOT chain for any N."""
    for n in (3, 5):
        from fermiperm import GateCircuit

        chain = GateCircuit(n)
        for j in range(1, n):
            chain.cnot(j, j + 1)
        synth = gl_to_cnot_circuit(LinearEncodingF2.parity(n))
        assert permutation_from_circuit(synth) == permutation_from_circuit(chain)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8])
def test_gl_to_cnot_matches_matrix_action(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(5):
        m = random_invertible(n, rng)
        enc = LinearEncodingF2(m)
        p = permutation_from_circuit(gl_to_cnot_circuit(enc))
        for state in range(1 << n):
            vec = f2.mask_to_vec(state, n)
            assert p.apply(state) == f2.vec_to_mask(matvec(m, vec))


def test_linear_map_table_matches_circuit_table():
    """The table built straight from M equals the synthesized circuit's."""
    rng = np.random.default_rng(101)
    for n in (1, 2, 5, 9):
        enc = LinearEncodingF2(random_invertible(n, rng))
        p = permutation_from_circuit(gl_to_cnot_circuit(enc))
        assert enc.to_permutation() == p


def test_gl_to_cnot_at_the_dense_cap():
    """One 12-qubit case: the circuit action matches M on all 4096 states."""
    rng = np.random.default_rng(200)
    m = random_invertible(12, rng)
    p = permutation_from_circuit(gl_to_cnot_circuit(LinearEncodingF2(m)))
    cols = [f2.vec_to_mask(matvec(m, f2.mask_to_vec(1 << (11 - i), 12))) for i in range(12)]
    for state in range(1 << 12):
        expect = 0
        for i in range(12):
            if (state >> (11 - i)) & 1:
                expect ^= cols[i]
        assert p.apply(state) == expect


def test_singular_matrix_rejected():
    with pytest.raises(InvalidEncodingError):
        LinearEncodingF2(np.array([[1, 1], [1, 1]], dtype=np.uint8))


def test_linear_encoding_majoranas_satisfy_relations():
    rng = np.random.default_rng(12)
    for n in (2, 4, 6):
        enc = LinearEncodingF2(random_invertible(n, rng))
        flat = [op for pair in linear_encoding_majoranas(enc) for op in pair]
        for i, a in enumerate(flat):
            assert a * a == PauliString(n, 0, 0)
            for b in flat[i + 1 :]:
                assert not commutes(a, b)


def test_linear_majoranas_match_parity_formulas():
    for n in range(1, 25):
        majos = linear_encoding_majoranas(LinearEncodingF2.parity(n))
        for j in range(1, n + 1):
            g, gp = majos[j - 1]
            assert g == parity_majorana(j, False, n)
            assert gp == parity_majorana(j, True, n)


def test_conjugated_majoranas_match_ladder_semantics():
    """<Mn'| g~ |Mn> equals <n'| g |n> for every pair of basis states."""
    rng = np.random.default_rng(77)
    for n in (2, 3, 4, 5, 6):
        m = random_invertible(n, rng)
        enc = LinearEncodingF2(m)
        majos = linear_encoding_majoranas(enc)
        jw = jw_majoranas(n)
        perm = permutation_from_circuit(gl_to_cnot_circuit(enc))
        image = np.asarray(perm.image)
        for pair_new, pair_old in zip(majos, jw):
            for g_new, g_old in zip(pair_new, pair_old):
                dn = PauliSum.from_pauli(g_new).to_dense()
                do = PauliSum.from_pauli(g_old).to_dense()
                assert np.max(np.abs(dn[np.ix_(image, image)] - do)) < 1e-12


def test_number_conserving_operator_commutes_with_number():
    rng = np.random.default_rng(8)
    for n in (2, 3, 5):
        h = rng.uniform(-1, 1, (n, n))
        op = FermionOperator.one_body((h + h.T) / 2)
        enc = encode_fermion_operator(op, jw_majoranas(n))
        num = encode_fermion_operator(FermionOperator.one_body(np.eye(n)), jw_majoranas(n))
        a, b = enc.to_dense(), num.to_dense()
        assert np.max(np.abs(a @ b - b @ a)) < 1e-12


def test_number_conservation_flagging():
    bad = FermionTerm.make(1.0, [(1, True), (2, True), (3, False)])
    op = FermionOperator.from_terms([bad])
    from fermiperm import NumberConservationError

    with pytest.raises(NumberConservationError) as err:
        op.require_number_conserving()
    assert err.value.term == bad


def test_parse_hamiltonian_formats():
    text = """
    # one-body and two-body lines
    1 2 0.5 0.0
    2 1 0.5 0.0
    1 2 2 1 0.25 -0.5   # a+_1 a+_2 a_2 a_1
    """
    op = parse_hamiltonian(text, n_modes=2)
    assert len(op.terms) == 3
    assert op.terms[2].ops == ((1, True), (2, True), (2, False), (1, False))
    assert op.terms[2].coefficient == 0.25 - 0.5j


def test_parse_hamiltonian_hermitize():
    op = parse_hamiltonian("1 2 0.0 1.0\n", n_modes=3, hermitize=True)
    assert len(op.terms) == 2
    assert op.terms[1].ops == ((2, True), (1, False))
    assert op.terms[1].coefficient == -1j


@pytest.mark.parametrize(
    "bad, line",
    [
        ("1 2 0.5\n", 1),
        ("x y 1 0\n", 1),
        ("1 2 1 0\n9 1 1 0\n", 2),
    ],
)
def test_parse_hamiltonian_errors_carry_line_numbers(bad, line):
    with pytest.raises(HamiltonianParseError) as err:
        parse_hamiltonian(bad, n_modes=3)
    assert err.value.line_no == line


def test_encode_rejects_out_of_range_mode():
    for mode, message in (
        (3, "operator touches mode 3 but only 2 are encoded"),
        (0, "no Majorana pair for mode 0"),
    ):
        op = FermionOperator.from_terms([FermionTerm.make(1.0, [(mode, True), (mode, False)])])
        with pytest.raises(DimensionError, match=message):
            encode_fermion_operator(op, jw_majoranas(2))


def test_states_and_ladders_check_their_registers():
    with pytest.raises(ValueError, match="need at least one mode"):
        FockState(0, 0)
    with pytest.raises(ValueError, match="occupancy mask exceeds the register"):
        FockState(2, 4)
    with pytest.raises(DimensionError, match="encoding and state have different mode counts"):
        encode_state(LinearEncodingF2.jordan_wigner(3), FockState(2, 1))
    with pytest.raises(DimensionError, match="no Majorana pair for mode 3"):
        encode_ladder(3, True, jw_majoranas(2))


def test_encode_rejects_majoranas_on_different_registers():
    """A table mixing 2- and 3-qubit strings has no one register."""
    majoranas = jw_majoranas(2) + jw_majoranas(3)[2:]
    op = FermionOperator.from_terms([FermionTerm.make(1.0, [(1, True), (1, False)])])
    with pytest.raises(DimensionError, match="registers of different sizes"):
        encode_fermion_operator(op, majoranas)


@pytest.mark.parametrize("terms", [[], [FermionTerm.make(1.0, [(1, True), (1, False)])]])
def test_encode_without_majoranas_is_a_dimension_error(terms):
    with pytest.raises(DimensionError, match="at least one mode"):
        encode_fermion_operator(FermionOperator.from_terms(terms), [])


def test_encode_rejects_coefficients_that_overflow_when_added():
    """Each number operator 1e308 n_p = 5e307 (I - Z_p) is finite, but four
    identity parts add up past the largest float; two do not."""
    numbers = [FermionTerm.make(1e308, [(p, True), (p, False)]) for p in (1, 2, 3, 4)]
    with pytest.raises(ValueError, match="overflows: 1 of its 5 coefficients are not finite"):
        encode_fermion_operator(FermionOperator.from_terms(numbers), jw_majoranas(4))
    two = encode_fermion_operator(FermionOperator.from_terms(numbers[:2]), jw_majoranas(4))
    assert dict(two.items_sorted()) == {"IIII": 1e308, "ZIII": -5e307, "IZII": -5e307}


# Dyadic values, exact zeros of either sign and values at the prune threshold
# make cancellations exact and show signed zeros and the prune order.
_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -0.5, 0.25, 1e-12, -3e-13]),
    st.floats(-1.0, 1.0, allow_nan=False),
)


@st.composite
def operators_and_majoranas(draw):
    """A one-/two-body operator on n modes, with one term t appearing as
    t, -t, later terms, t; and a Majorana table: JW or parity strings, or the
    dense ``PauliSum`` images of a random index embedding (n <= 3, as their
    two-body products have thousands of terms at n = 4)."""
    kind = draw(st.sampled_from(["jw", "parity", "minimal"]))
    n = draw(st.integers(2, 3 if kind == "minimal" else 4))
    mode = st.integers(1, n)

    def term():
        coeff = complex(draw(_PARTS), draw(_PARTS))
        if draw(st.booleans()):
            return FermionTerm.make(coeff, [(draw(mode), True), (draw(mode), False)])
        ops = [(draw(mode), True), (draw(mode), True), (draw(mode), False), (draw(mode), False)]
        return FermionTerm.make(coeff, ops)

    t = term()
    negated = FermionTerm(-t.coefficient, t.ops)
    terms = [term() for _ in range(draw(st.integers(0, 3)))] + [t, negated]
    terms += [term() for _ in range(draw(st.integers(0, 3)))] + [t]
    terms += [term() for _ in range(draw(st.integers(0, 2)))]
    if kind == "jw":
        majoranas = jw_majoranas(n)
    elif kind == "parity":
        majoranas = parity_majoranas(n)
    else:
        spec = SectorSpec(n, draw(st.integers(1, n - 1)))
        majoranas = random_minimal_majoranas(spec, np.random.default_rng(draw(st.integers(0, 99))))
    return FermionOperator.from_terms(terms), majoranas


def _keys_and_bits(s: PauliSum):
    items = list(s.items())
    coeff = np.array([c for _, c in items], dtype=complex)
    return [k for k, _ in items], coeff.view(np.uint64).tolist()


@settings(max_examples=150, deadline=None)
@given(operators_and_majoranas())
def test_encoder_matches_loop_bit_for_bit(case):
    """Same terms in the same ``items()`` order, and the same bits of every
    real and imaginary part, signed zeros included."""
    h, majoranas = case
    assert _keys_and_bits(encode_fermion_operator(h, majoranas)) == _keys_and_bits(
        encode_fermion_operator_loop(h, majoranas)
    )


@st.composite
def wide_operators_and_majoranas(draw):
    """A one-/two-body operator with one term t appearing as t, -t, later
    terms, t (or t alone, a quarter of the time), and a Majorana table: JW, parity or a random affine map's
    (offset included) strings on up to 70 modes, where past 64 qubits the
    masks are Python ints; or a random index embedding's sums, whose
    ladders have 8 to 104 terms each, so that one term's products number
    the product of its ladder lengths (two-body terms up to 3 modes, one-body
    terms up to 4, where the dict route takes its time); or a mixed table
    of JW strings, pairs (g, i g) whose a_j cancels to no terms, pairs
    (g, g) and two-term sums."""
    kind = draw(st.sampled_from(["jw", "parity", "affine", "minimal", "mixed"]))
    if kind == "minimal":
        n = draw(st.integers(2, 4))
    else:
        n = draw(st.one_of(st.integers(1, 6), st.integers(62, 70)))
    mode = st.integers(1, n)
    two_body = kind != "minimal" or n <= 3

    def term():
        coeff = complex(draw(_PARTS), draw(_PARTS))
        if not two_body or draw(st.booleans()):
            return FermionTerm.make(coeff, [(draw(mode), True), (draw(mode), False)])
        ops = [(draw(mode), True), (draw(mode), True), (draw(mode), False), (draw(mode), False)]
        return FermionTerm.make(coeff, ops)

    t = term()
    terms = [term() for _ in range(draw(st.integers(0, 3)))] + [t, FermionTerm(-t.coefficient, t.ops)]
    terms += [term() for _ in range(draw(st.integers(0, 3)))] + [t]
    terms += [term() for _ in range(draw(st.integers(0, 2)))]
    if draw(st.integers(0, 3)) == 0:
        terms = [t]  # a sum whose keys may all differ: no merge at all
    rng = np.random.default_rng(draw(st.integers(0, 99)))
    if kind == "jw":
        majoranas = jw_majoranas(n)
    elif kind == "parity":
        majoranas = parity_majoranas(n)
    elif kind == "affine":
        a = AffineMapF2(random_invertible(n, rng), rng.integers(0, 2, size=n))
        majoranas = linear_encoding_majoranas(a)
    elif kind == "minimal":
        majoranas = random_minimal_majoranas(SectorSpec(n, draw(st.integers(1, n - 1))), rng)
    else:
        majoranas = [_mixed_pair(draw, n, g, gp) for g, gp in jw_majoranas(n)]
    return FermionOperator.from_terms(terms), majoranas


def _mixed_pair(draw, n: int, g: PauliString, gp: PauliString):
    """JW's pair (g, g') kept, turned into (g, i g) or (g, g), or into the
    sums g + c g' and g', whose c may be above ``PRUNE_TOL`` and half of it
    not, so a ladder's scaled terms are pruned before they merge."""
    form = draw(st.sampled_from(["strings", "cancel", "same", "sums"]))
    if form == "cancel":
        return g, PauliString(n, g.x_bits, g.z_bits, 1)
    if form == "same":
        return g, g
    if form == "sums":
        coeff = draw(st.one_of(st.sampled_from([1.5e-12, -2e-12]), st.builds(complex, _PARTS, _PARTS)))
        return PauliSum.from_pauli(g) + PauliSum.from_pauli(gp, coeff), PauliSum.from_pauli(gp)
    return g, gp


@settings(max_examples=120, deadline=None)
@given(wide_operators_and_majoranas())
def test_encoder_matches_dict_route_bit_for_bit(case):
    """The array kernel gives the dict route's terms in its ``items()``
    order, with the same bits in every real and imaginary part, signed zeros
    included, whether the masks are ``uint64`` or Python ints."""
    h, majoranas = case
    encoded = encode_fermion_operator(h, majoranas)
    reference = encode_fermion_operator_dict(h, majoranas)
    assert encoded.n_qubits == reference.n_qubits
    assert encoded._arrays[0].dtype == reference._arrays[0].dtype  # uint64, or object past 64
    assert _keys_and_bits(encoded) == _keys_and_bits(reference)
