"""Ranking, index-embed permutations, redundancy, synthesis, enumeration."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermiperm import (
    BasisPermutation,
    DimensionError,
    GateCircuit,
    LinearEncodingF2,
    PauliSum,
    ResourceError,
    SectorSpec,
    appendix_verify,
    classify_affine,
    conjugate_pauli_dense,
    costs_csv,
    count_valid_permutations,
    from_cycles,
    gl_to_cnot_circuit,
    jw_majorana,
    lower_mcx,
    minimal_permutation_index_embed,
    permutation_from_circuit,
    qubit_costs,
    rank_weightk,
    redundant_qubits,
    single_toffoli_one_fermion_circuit,
    synthesize_permutation,
    unrank_weightk,
)
from fermiperm import f2
from fermiperm.permutations import AffineMapF2
from helpers import (
    minimal_permutation_index_embed_loop,
    random_invertible,
    redundant_qubits_loop,
    three_cnot_permutation,
)


# --- ranking ---------------------------------------------------------------


def test_rank_four_mode_two_fermion_table():
    expected = {"0011": 0, "0101": 1, "0110": 2, "1001": 3, "1010": 4, "1100": 5}
    for bits, r in expected.items():
        assert rank_weightk(int(bits, 2), 4, 2) == r
        assert unrank_weightk(r, 4, 2) == int(bits, 2)


def test_rank_weight_zero():
    assert rank_weightk(0, 5, 0) == 0
    assert unrank_weightk(0, 5, 0) == 0


def test_rank_errors():
    with pytest.raises(ValueError):
        rank_weightk(int("0111", 2), 4, 2)
    with pytest.raises(ValueError, match="state 16 out of range for 4 bits"):
        rank_weightk(16, 4, 1)
    with pytest.raises(ValueError):
        unrank_weightk(6, 4, 2)


def test_rank_unrank_exhaustive_enumeration_oracle():
    """Ranks must match position in the sorted enumeration of weight-k ints."""
    for n in range(1, 13):
        for k in range(0, n + 1):
            states = sorted(s for s in range(1 << n) if bin(s).count("1") == k)
            for r, s in enumerate(states):
                assert rank_weightk(s, n, k) == r
                assert unrank_weightk(r, n, k) == s


def test_sector_states_match_unrank_loop():
    for n in range(0, 11):
        for k in range(0, n + 1):
            spec = SectorSpec(n, k)
            expected = [unrank_weightk(r, n, k) for r in range(spec.dimension)]
            assert spec.states.tolist() == expected


def test_sector_states_are_one_kept_read_only_uint64_array():
    spec = SectorSpec(64, 2)
    states = spec.states
    assert states is spec.states  # enumerated once, on first use
    assert states.dtype == np.uint64 and not states.flags.writeable
    assert states.size == spec.dimension == 2016
    assert states[[0, -1]].tolist() == [0b11, 0b11 << 62]
    assert bool(np.all(states[1:] > states[:-1]))


def test_sector_states_reject_more_than_64_modes():
    spec = SectorSpec(65, 1)
    assert spec.q_min == 7  # the spec itself is fine; only its states are held as uint64
    with pytest.raises(DimensionError, match="at most 64 modes, got 65"):
        spec.states


def test_sector_states_are_capped_at_2_to_the_16():
    """A sector is stored only up to 2^16 states, the entry count of the
    largest permutation table: (18,9) and (64,3) need 16 qubits and are
    held; (19,9) needs 17 and (20,10) 18, and both are refused before a
    single state is enumerated.  Past 64 modes the mode check comes first."""
    assert SectorSpec(18, 9).states.size == 48_620
    assert SectorSpec(64, 3).states.size == 41_664
    for n, k, q in ((19, 9, 17), (20, 10, 18), (40, 20, 38)):
        spec = SectorSpec(n, k)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError) as err:
                spec.states
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(err.value) == f"sector storage is capped at 16 qubits, got {q}"
        assert peak < 1 << 20
    with pytest.raises(DimensionError, match="at most 64 modes, got 70"):
        SectorSpec(70, 35).states


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 14), st.data())
def test_rank_round_trip_property(n, data):
    k = data.draw(st.integers(0, n))
    r = data.draw(st.integers(0, math.comb(n, k) - 1))
    assert rank_weightk(unrank_weightk(r, n, k), n, k) == r


# --- index-embed -----------------------------------------------------------


def test_index_embed_four_mode_two_fermion_golden():
    p = minimal_permutation_index_embed(SectorSpec(4, 2))
    table = {
        "0011": "0000",
        "0101": "0010",
        "0110": "0100",
        "1001": "0110",
        "1010": "1000",
        "1100": "1010",
    }
    for src, dst in table.items():
        assert p.apply(int(src, 2)) == int(dst, 2)


def test_index_embed_full_sector():
    spec = SectorSpec(4, 4)
    assert spec.q_min == 0
    p = minimal_permutation_index_embed(spec)
    assert p.apply(0b1111) == 0


@pytest.mark.parametrize("completion", ["ordered", "compact"])
@pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (5, 2), (6, 3)])
def test_index_embed_redundancy_property(n, k, completion):
    spec = SectorSpec(n, k)
    p = minimal_permutation_index_embed(spec, completion=completion)
    report = redundant_qubits(p, spec)
    assert len(report.fixed) == n - spec.q_min
    assert all(v == 0 for _, v in report.fixed)


@pytest.mark.parametrize("p", [BasisPermutation(np.arange(16)), LinearEncodingF2.parity(4)])
def test_redundant_qubits_rejects_a_sector_of_another_size(p):
    with pytest.raises(DimensionError, match="different sizes"):
        redundant_qubits(p, SectorSpec(5, 2))


def test_index_embed_random_completion_fixes_sector():
    rng = np.random.default_rng(5)
    spec = SectorSpec(5, 2)
    base = minimal_permutation_index_embed(spec)
    rand = minimal_permutation_index_embed(spec, completion="random", rng=rng)
    for s in spec.states.tolist():
        assert rand.apply(s) == base.apply(s)
    assert rand != base  # overwhelmingly likely with (2^5 - 10)! choices


def test_index_embed_compact_support():
    spec = SectorSpec(6, 2)
    p = minimal_permutation_index_embed(spec, completion="compact")
    sources = set(spec.states.tolist())
    targets = {r << (6 - spec.q_min) for r in range(spec.dimension)}
    moved = {s for s in range(64) if p.apply(s) != s}
    assert moved <= (sources | targets)


@pytest.mark.parametrize("completion", ["ordered", "compact", "random"])
def test_index_embed_matches_loop(completion):
    """The array-built tables equal the per-state loop's, for every N <= 10
    and K, with the same rng seed for the random completion."""
    for n in range(1, 11):
        for k in range(n + 1):
            spec = SectorSpec(n, k)
            got = minimal_permutation_index_embed(spec, completion, np.random.default_rng(n))
            ref = minimal_permutation_index_embed_loop(spec, completion, np.random.default_rng(n))
            assert np.array_equal(got.image, ref.image), (n, k)


def test_index_embed_rejects_unknown_completion():
    with pytest.raises(ValueError, match="unknown completion rule 'sorted'"):
        minimal_permutation_index_embed(SectorSpec(4, 2), completion="sorted")
    with pytest.raises(ValueError, match="requires an rng"):
        minimal_permutation_index_embed(SectorSpec(4, 2), completion="random")


def test_q_min_values():
    assert SectorSpec(4, 2).q_min == 3
    assert SectorSpec(4, 1).q_min == 2
    assert SectorSpec(32, 16).q_min == 30
    assert SectorSpec(7, 0).q_min == 0


def test_index_embed_hard_cap():
    from fermiperm import ResourceError

    with pytest.raises(ResourceError):
        minimal_permutation_index_embed(SectorSpec(17, 2))


# --- counting --------------------------------------------------------------


def test_count_valid_permutations():
    assert count_valid_permutations(SectorSpec(4, 2)) == 3628800
    assert count_valid_permutations(SectorSpec(4, 2)) == math.factorial(16 - 6)
    assert count_valid_permutations(SectorSpec(1, 0)) == 1
    assert count_valid_permutations(SectorSpec(4, 1)) == 479001600


# --- redundancy ------------------------------------------------------------


def test_redundancy_two_fermion_circuit():
    report = redundant_qubits(three_cnot_permutation(), SectorSpec(4, 2))
    assert report.fixed == ((4, 0),)
    assert report.surviving == (1, 2, 3)


@pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (5, 3), (6, 2)])
def test_redundancy_parity_map_fixes_last_qubit(n, k):
    chain = GateCircuit(n)
    for j in range(1, n):
        chain.cnot(j, j + 1)
    p = permutation_from_circuit(chain)
    report = redundant_qubits(p, SectorSpec(n, k))
    assert (n, k % 2) in report.fixed


def test_redundancy_one_fermion_naive_permutation():
    p1 = from_cycles(4, [(0, 2), (1, 12)])
    report = redundant_qubits(p1, SectorSpec(4, 1))
    assert report.fixed == ((3, 0), (4, 0))


def test_redundancy_scan_matches_loop():
    """Every (N, K) with N <= 8: ordered and random index embeds and the
    parity permutation; and the two circuit permutations on every K."""
    rng = np.random.default_rng(31)
    cases = []
    for n in range(1, 9):
        parity = permutation_from_circuit(gl_to_cnot_circuit(LinearEncodingF2.parity(n)))
        for k in range(n + 1):
            spec = SectorSpec(n, k)
            cases += [
                (minimal_permutation_index_embed(spec), spec),
                (minimal_permutation_index_embed(spec, completion="random", rng=rng), spec),
                (parity, spec),
            ]
    for circuit in (three_cnot_permutation(),
                    permutation_from_circuit(single_toffoli_one_fermion_circuit())):
        cases += [(circuit, SectorSpec(4, k)) for k in range(5)]
    for p, spec in cases:
        assert redundant_qubits(p, spec) == redundant_qubits_loop(p, spec)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sector_images_stay_distinct_on_surviving_qubits(data):
    """Random permutations and index embeds with N <= 10: the sector images
    read on the surviving qubits alone are still distinct, so the reduction
    never merges two sector states."""
    n = data.draw(st.integers(1, 10))
    spec = SectorSpec(n, data.draw(st.integers(0, n)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    completion = data.draw(st.sampled_from([None, "ordered", "random", "compact"]))
    if completion is None:
        p = BasisPermutation(rng.permutation(1 << n))
    else:
        p = minimal_permutation_index_embed(spec, completion=completion, rng=rng)
    report = redundant_qubits(p, spec)
    restricted = {
        tuple((p.apply(s) >> (n - q)) & 1 for q in report.surviving) for s in spec.states.tolist()
    }
    assert len(restricted) == spec.dimension


def test_affine_permutations_fix_at_most_one_qubit():
    """Sampled Clifford permutations never make two or more qubits redundant
    in any proper sector.  The map and its table give the same redundancy
    report and the same synthesized circuit, N = 2..8."""
    rng = np.random.default_rng(21)
    for n in range(2, 9):
        for _ in range(30):
            a = AffineMapF2(
                random_invertible(n, rng),
                rng.integers(0, 2, size=n, dtype=np.uint8),
            )
            p = a.to_permutation()
            for k in range(1, n):
                report = redundant_qubits(p, SectorSpec(n, k))
                assert len(report.fixed) <= 1
                assert redundant_qubits(a, SectorSpec(n, k)) == report
            from_map, from_table = synthesize_permutation(a), synthesize_permutation(p)
            assert from_map.circuit.to_text() == from_table.circuit.to_text()
            assert replace(from_map, circuit=None) == replace(from_table, circuit=None)
            assert permutation_from_circuit(from_map.circuit) == p


# --- synthesis -------------------------------------------------------------


def test_synthesize_identity():
    rep = synthesize_permutation(BasisPermutation(np.arange(8)))
    assert rep.total_gates == 0
    assert rep.nonclifford_count == 0


def test_synthesize_adjacent_transposition_single_gate():
    p = from_cycles(3, [(6, 7)])  # |110> <-> |111>
    rep = synthesize_permutation(p)
    assert rep.total_gates == 1
    assert rep.nonclifford_count == 1
    (gate,) = rep.circuit.gates
    assert set(gate.controls) == {1, 2} and gate.target == 3
    assert permutation_from_circuit(rep.circuit) == p


def test_synthesize_two_fermion_circuit_affine_fast_path():
    p = three_cnot_permutation()
    rep = synthesize_permutation(p)
    assert rep.nonclifford_count == 0
    assert rep.transposition_count == 0
    assert all(g.name in ("X", "CNOT") for g in rep.circuit.gates)
    assert permutation_from_circuit(rep.circuit) == p


def test_synthesize_round_trip_200_random():
    rng = np.random.default_rng(33)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        p = BasisPermutation(rng.permutation(1 << n))
        rep = synthesize_permutation(p)
        assert permutation_from_circuit(rep.circuit) == p


def test_synthesize_sector_scaling_counts():
    """Compact sector permutations stay within c1*C(N,K) transpositions and
    c2*N^2 gates per transposition."""
    worst_c1 = 0.0
    worst_c2 = 0.0
    for n in range(2, 9):
        for k in range(1, min(3, n - 1) + 1):
            spec = SectorSpec(n, k)
            p = minimal_permutation_index_embed(spec, completion="compact")
            rep = synthesize_permutation(p, sector=spec)
            assert permutation_from_circuit(rep.circuit) == p
            if rep.transposition_count:
                worst_c1 = max(worst_c1, rep.transposition_count / spec.dimension)
                worst_c2 = max(
                    worst_c2, rep.total_gates / rep.transposition_count / n**2
                )
    assert worst_c1 <= 2.0
    assert worst_c2 <= 4.0


def test_lower_mcx_preserves_action():
    rng = np.random.default_rng(55)
    for _ in range(10):
        n = int(rng.integers(4, 7))
        p = BasisPermutation(rng.permutation(1 << n))
        circuit = synthesize_permutation(p).circuit
        lowered = lower_mcx(circuit)
        assert all(len(g.controls) <= 2 for g in lowered.gates)
        extra = lowered.n_qubits - n
        q = permutation_from_circuit(lowered)
        for s in range(1 << n):
            assert q.apply(s << extra) == p.apply(s) << extra


def test_single_toffoli_circuit_realizes_one_fermion_map():
    c = single_toffoli_one_fermion_circuit()
    assert c.nonclifford_count == 1
    p = permutation_from_circuit(c)
    assert p.apply(0b1000) == 0b1000
    assert p.apply(0b0100) == 0b0100
    assert p.apply(0b0010) == 0b0000
    assert p.apply(0b0001) == 0b1100
    report = redundant_qubits(p, SectorSpec(4, 1))
    assert report.fixed == ((3, 0), (4, 0))
    assert classify_affine(p) is None
    for j in range(1, 5):
        for primed in (False, True):
            g = PauliSum.from_pauli(jw_majorana(j, primed, 4))
            assert len(conjugate_pauli_dense(p, g)) <= 4


# --- appendix enumeration --------------------------------------------------


def _gl_order(n):
    out = 1
    for i in range(n):
        out *= (1 << n) - (1 << i)
    return out


@pytest.mark.parametrize("n", [2, 3])
def test_appendix_small(n):
    report = appendix_verify(n)
    assert report.matrix_count == _gl_order(n)
    assert report.max_constant_digits == 1
    assert all(v == 1 for _, v in report.per_weight_max)


def test_appendix_n4():
    report = appendix_verify(4)
    assert report.matrix_count == 20160
    assert report.max_constant_digits == 1
    assert report.witness == tuple(f2.rows_to_masks(f2.parity_matrix(4)))


def test_appendix_caps():
    from fermiperm import ResourceError

    with pytest.raises(ResourceError):
        appendix_verify(6)
    with pytest.raises(ValueError, match="^need n >= 2$"):
        appendix_verify(1)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_appendix_counts_and_witness(n):
    report = appendix_verify(n)
    assert report.matrix_count == {2: 6, 3: 168, 4: 20160, 5: 9999360}[n]
    assert report.max_constant_digits == 1
    assert [v for _, v in report.per_weight_max] == [1] * (n - 1)
    assert report.witness == tuple(f2.rows_to_masks(f2.parity_matrix(n)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_affine_maps_fix_exactly_an_all_ones_row(data):
    """The Clifford limit in closed form, past the n <= 5 of the brute force:
    for 0 < K < N, digit i of Ms (+) b is constant on the weight-K states
    exactly when row i of M is all ones, and then it is K + b_i mod 2;
    otherwise swapping a 1-bit and a 0-bit of s flips it.  An invertible M
    has at most one such row; half the draws force one."""
    n = data.draw(st.integers(2, 16), label="n")  # C(16, 8) = 12870 <= 2^16 states
    k = data.draw(st.integers(1, n - 1), label="k")
    ones = data.draw(st.none() | st.integers(0, n - 1), label="all-ones row")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    m = np.ones((n, n), dtype=np.uint8)  # singular: the loop runs at least once
    while not f2.is_invertible(m):
        m = rng.integers(0, 2, (n, n), dtype=np.uint8)
        if ones is not None:
            m[ones] = 1
    b = rng.integers(0, 2, n, dtype=np.uint8)
    expect = tuple((int(i) + 1, (k + int(b[i])) % 2) for i in np.flatnonzero(m.all(axis=1)))
    assert redundant_qubits(AffineMapF2(m, b), SectorSpec(n, k)).fixed == expect


# --- costs -----------------------------------------------------------------


def test_costs_32_modes():
    rows = {r.n_fermions: r for r in qubit_costs(32)}
    assert rows[16].minimal == 30
    assert rows[16].parity == 31
    assert rows[16].first_quantized == 80
    assert rows[0].minimal == 0
    for k, row in rows.items():
        assert row.minimal == (math.comb(32, k) - 1).bit_length()
        assert row.minimal <= row.parity


def test_costs_small():
    rows = {r.n_fermions: r for r in qubit_costs(4)}
    assert rows[2].minimal == 3
    text = costs_csv(4)
    lines = text.strip().splitlines()
    assert lines[0] == "K,parity,minimal,first_quantized"
    assert lines[3] == "2,3,3,4"


def test_costs_single_mode():
    rows = qubit_costs(1)
    assert [r.minimal for r in rows] == [0, 0]
    with pytest.raises(ValueError, match="need at least one mode"):
        qubit_costs(0)
