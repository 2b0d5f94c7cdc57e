"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from fermiperm import (
    AffineMapF2,
    BasisPermutation,
    PauliString,
    PauliSum,
    SectorSpec,
    appendix_verify,
    classify_affine,
    conjugate_pauli_affine,
    conjugate_pauli_dense,
    count_valid_permutations,
    from_cycles,
    jw_majorana,
    jw_majoranas,
    minimal_permutation_index_embed,
    parity_majoranas,
    pauli_decompose,
    permutation_from_circuit,
    qubit_costs,
    random_one_body,
    redundant_qubits,
    sector_oracle,
    single_toffoli_one_fermion_circuit,
    synthesize_permutation,
    encode_and_reduce,
    verify_reduction,
)
from fermiperm.cli import anticommutation_suite, random_minimal_majoranas
from helpers import (
    permutation_matrix,
    random_invertible,
    random_pauli_letters,
    three_cnot_permutation,
)


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {number}: PASS - {description} ({elapsed:.2f}s)")
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.2f}s > {budget_s}s"


GOLDEN_MAJORANA_TABLE = {
    (1, False): "XIIX",
    (1, True): "YIIX",
    (2, False): "ZXIX",
    (2, True): "ZYIX",
    (3, False): "ZZXX",
    (3, True): "ZZYX",
    (4, False): "ZZZX",
    (4, True): "IIIY",
}


def test_criterion_1_golden_majorana_table():
    with criterion(1, "golden two-fermion Majorana conjugation table", 1.0):
        p = three_cnot_permutation()
        affine = classify_affine(p)
        assert affine is not None
        for (j, primed), want in GOLDEN_MAJORANA_TABLE.items():
            g = jw_majorana(j, primed, 4)
            got = conjugate_pauli_affine(affine, g)
            assert got.letters() == want, f"gamma[{j},{primed}]"
            assert got.phase == 0
            dense = conjugate_pauli_dense(p, PauliSum.from_pauli(g))
            assert dense == PauliSum.from_terms(4, [(1.0, want)])


def test_criterion_2_golden_state_tables():
    with criterion(2, "golden state tables and redundancy reports", 1.0):
        circuit_table = {
            "0011": "0010",
            "0101": "0100",
            "0110": "0110",
            "1001": "1000",
            "1010": "1010",
            "1100": "1100",
        }
        p = three_cnot_permutation()
        for src, dst in circuit_table.items():
            assert p.apply(int(src, 2)) == int(dst, 2)
        report = redundant_qubits(p, SectorSpec(4, 2))
        assert report.fixed == ((4, 0),)

        embed_table = {
            "0011": "0000",
            "0101": "0010",
            "0110": "0100",
            "1001": "0110",
            "1010": "1000",
            "1100": "1010",
        }
        q = minimal_permutation_index_embed(SectorSpec(4, 2))
        for src, dst in embed_table.items():
            assert q.apply(int(src, 2)) == int(dst, 2)
        report_q = redundant_qubits(q, SectorSpec(4, 2))
        assert report_q.fixed == ((4, 0),)


def test_criterion_3_one_fermion_sector():
    with criterion(3, "one-fermion sector: 32-term bound and single-Toffoli route", 5.0):
        p1 = from_cycles(4, [(0, 2), (1, 12)])
        kets = {0b1000: 0b1000, 0b0100: 0b0100, 0b0010: 0b0000, 0b0001: 0b1100}
        for src, dst in kets.items():
            assert p1.apply(src) == dst
        for j in range(1, 5):
            for primed in (False, True):
                g = PauliSum.from_pauli(jw_majorana(j, primed, 4))
                assert len(conjugate_pauli_dense(p1, g)) <= 32

        circuit = single_toffoli_one_fermion_circuit()
        assert circuit.nonclifford_count == 1
        p2 = permutation_from_circuit(circuit)
        for src, dst in kets.items():
            assert p2.apply(src) == dst
        for j in range(1, 5):
            for primed in (False, True):
                g = PauliSum.from_pauli(jw_majorana(j, primed, 4))
                assert len(conjugate_pauli_dense(p2, g)) <= 4  # 4^t with t = 1

        for p in (p1, p2):
            report = redundant_qubits(p, SectorSpec(4, 1))
            assert report.fixed == ((3, 0), (4, 0))


def test_criterion_4_anticommutation_everywhere():
    with criterion(4, "Majorana relations for JW, parity, 20 random encodings", 30.0):
        for n in range(2, 7):
            for family in (jw_majoranas, parity_majoranas):
                checks, failures = anticommutation_suite(family(n))
                assert checks == math.comb(2 * n, 2) + 2 * n
                assert failures == []
        rng = np.random.default_rng(2024)
        pairs = [(n, k) for n in range(3, 7) for k in range(1, n)]
        done = 0
        i = 0
        while done < 20:
            n, k = pairs[i % len(pairs)]
            i += 1
            majos = random_minimal_majoranas(SectorSpec(n, k), rng)
            checks, failures = anticommutation_suite(majos)
            assert checks == math.comb(2 * n, 2) + 2 * n
            assert failures == []
            done += 1


def test_criterion_5_appendix_brute_force():
    with criterion(5, "no invertible map fixes two digits (n = 2, 3, 4)", 120.0):
        expected_counts = {2: 6, 3: 168, 4: 20160}
        for n, expected in expected_counts.items():
            report = appendix_verify(n)
            assert report.matrix_count == expected
            assert report.max_constant_digits == 1
            assert all(v == 1 for _, v in report.per_weight_max)


def test_criterion_6_conjugation_oracle_equivalence():
    with criterion(6, "affine fast path vs dense path vs matrix oracle", 60.0):
        rng = np.random.default_rng(99)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            a = AffineMapF2(
                random_invertible(n, rng),
                rng.integers(0, 2, size=n, dtype=np.uint8),
            )
            ps = PauliString.from_letters(random_pauli_letters(n, rng))
            fast = conjugate_pauli_affine(a, ps)
            dense = conjugate_pauli_dense(a.to_permutation(), PauliSum.from_pauli(ps))
            assert len(dense) == 1
            ((key, coeff),) = list(dense.items())
            assert key == (fast.x_bits, fast.z_bits)
            assert coeff == fast.coefficient  # deviation exactly 0

        nonaffine = 0
        while nonaffine < 50:
            # every 2-qubit permutation is affine, so draw from 3..5 and skip
            # the occasional affine sample
            n = int(rng.integers(3, 6))
            p = BasisPermutation(rng.permutation(1 << n))
            if classify_affine(p) is not None:
                continue
            nonaffine += 1
            s = PauliSum(
                n,
                [
                    (
                        (int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n))),
                        complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                    )
                    for _ in range(3)
                ],
            )
            fast = conjugate_pauli_dense(p, s)
            u = permutation_matrix(p)
            slow = pauli_decompose(u @ s.to_dense() @ u.conj().T)
            diff = fast - slow
            assert all(abs(c) < 1e-12 for _, c in diff.items())


def test_criterion_7_reduction_correctness():
    with criterion(7, "random one-body reductions match the sector oracle", 120.0):
        rng = np.random.default_rng(7)
        expected_qubits = {
            (n, k): (math.comb(n, k) - 1).bit_length()
            for (n, k) in [(4, 1), (4, 2), (5, 2), (6, 3)]
        }
        for (n, k), q_min in expected_qubits.items():
            spec = SectorSpec(n, k)
            p = minimal_permutation_index_embed(spec)
            for _ in range(20):
                h = random_one_body(n, rng)
                rh = encode_and_reduce(h, p, spec)
                assert rh.pauli_sum.n_qubits == q_min
                check = verify_reduction(rh, sector_oracle(h, spec))
                assert check.passed
                assert check.max_deviation < 1e-9


def test_criterion_8_qubit_cost_table():
    with criterion(8, "32-mode qubit-cost curves", 1.0):
        rows = {r.n_fermions: r for r in qubit_costs(32)}
        assert rows[16].minimal == 30
        assert rows[4].minimal == 16
        for k, row in rows.items():
            assert row.minimal == (math.comb(32, k) - 1).bit_length()
            assert row.parity == 31
            assert row.first_quantized == k * 5
            assert row.minimal <= row.parity


def test_criterion_9_synthesis_scaling():
    with criterion(9, "Gray-code synthesis: exact and within scaling bounds", 120.0):
        worst_c1 = 0.0
        worst_c2 = 0.0
        for n in range(2, 9):
            for k in range(1, min(3, n - 1) + 1):
                spec = SectorSpec(n, k)
                p = minimal_permutation_index_embed(spec, completion="compact")
                rep = synthesize_permutation(p, sector=spec)
                assert permutation_from_circuit(rep.circuit) == p
                if rep.transposition_count:
                    worst_c1 = max(
                        worst_c1, rep.transposition_count / spec.dimension
                    )
                    worst_c2 = max(
                        worst_c2, rep.total_gates / rep.transposition_count / n**2
                    )
        print(f"  measured constants: c1 = {worst_c1:.3f}, c2 = {worst_c2:.3f}")
        assert worst_c1 <= 2.0
        assert worst_c2 <= 4.0


def test_criterion_10_count_freedom():
    with criterion(10, "completion freedom count", 1.0):
        value = count_valid_permutations(SectorSpec(4, 2))
        assert value == 3628800
        assert value == math.factorial((1 << 4) - math.comb(4, 2))
        assert isinstance(value, int)
