"""Command-line surface: subcommands, exit codes, determinism."""

import contextlib
import difflib
import io
import itertools
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np

from fermiperm import (
    PauliString,
    PauliSum,
    SectorSpec,
    cli,
    encode_and_reduce,
    jw_majoranas,
    minimal_permutation_index_embed,
    random_one_body,
)
from fermiperm import encodings, f2, minimal, permutations
from fermiperm.cli import (
    _CHUNK_TERMS, _SPELL_BATCH, _json_chunks, _spellings, _state_map, anticommutation_suite,
    build_parser, main,
)
from fermiperm.pauli import PRUNE_TOL
from helpers import anticommutation_suite_dense, array_sum, items_sorted_loop, spellings_repr

GOLDEN = Path(__file__).parent / "golden"

HOPPING = "1 2 1 0\n2 1 1 0\n"
ONE_MODE_NUMBER = "1 1 1 0\n"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def hop_file(tmp_path):
    path = tmp_path / "hop.txt"
    path.write_text(HOPPING)
    return str(path)


def test_encode_one_mode_number(tmp_path, capsys):
    path = tmp_path / "n.txt"
    path.write_text(ONE_MODE_NUMBER)
    code, out, _ = run(capsys, "encode", "--modes", "1", "--hamiltonian", str(path))
    assert code == 0
    data = json.loads(out)
    terms = {t["pauli"]: t["re"] for t in data["terms"]}
    assert terms == {"I": 0.5, "Z": -0.5}
    assert data["stats"]["term_count"] == 2


def test_encode_two_mode_hopping(hop_file, capsys):
    code, out, _ = run(capsys, "encode", "--modes", "2", "--hamiltonian", hop_file)
    assert code == 0
    data = json.loads(out)
    terms = {t["pauli"]: t["re"] for t in data["terms"]}
    assert terms == {"XX": 0.5, "YY": 0.5}


def test_encode_empty_hamiltonian(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing here\n")
    code, out, _ = run(capsys, "encode", "--modes", "3", "--hamiltonian", str(path))
    assert code == 0
    assert json.loads(out)["terms"] == []


def test_encode_parse_error_has_line_number(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("1 2 0.5 0\nnot a line\n")
    code, _, err = run(capsys, "encode", "--modes", "2", "--hamiltonian", str(path))
    assert code == 2
    assert "line 2" in err


def test_encode_parity_mapping(hop_file, capsys):
    code, out, _ = run(
        capsys, "encode", "--modes", "2", "--hamiltonian", hop_file,
        "--mapping", "parity",
    )
    assert code == 0
    data = json.loads(out)
    assert data["stats"]["term_count"] == 2


def test_encode_matrix_past_the_permutation_cap(tmp_path, capsys):
    """A 20-mode parity matrix file encodes to the same bytes as the named
    parity mapping: the encode never builds a 2^20 permutation table."""
    mat = tmp_path / "parity20.txt"
    mat.write_text("".join("1" * (j + 1) + "0" * (19 - j) + "\n" for j in range(20)))
    ham = tmp_path / "h.txt"
    ham.write_text("1 2 0.5 0.25\n3 19 -1 0\n4 20 5 7 0.125 0.5\n")
    outs = []
    for selector in (["--matrix", str(mat)], ["--mapping", "parity"]):
        code, out, err = run(
            capsys, "encode", "--modes", "20", "--hermitize", "--hamiltonian", str(ham),
            *selector,
        )
        assert (code, err) == (0, "")
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["n_qubits"] == 20


def test_reduce_two_fermion_circuit(tmp_path, capsys):
    circuit = tmp_path / "circ.txt"
    circuit.write_text("CNOT 3 4\nCNOT 2 4\nCNOT 1 4\n")
    ham = tmp_path / "h.txt"
    ham.write_text("1 1 1 0\n2 2 1 0\n3 3 1 0\n4 4 1 0\n1 2 0.5 0\n2 1 0.5 0\n")
    code, out, _ = run(
        capsys, "reduce", "--modes", "4", "--fermions", "2",
        "--circuit", str(circuit), "--hamiltonian", str(ham),
    )
    assert code == 0
    data = json.loads(out)
    assert data["spec"] == {"N": 4, "K": 2, "q_min": 3}
    assert data["fixed_qubits"] == [[4, 0]]
    assert data["hamiltonian"]["n_qubits"] == 3
    assert data["verify"]["passed"] is True
    assert len(data["state_map"]) == 6


def test_reduce_index_embed_one_fermion(tmp_path, capsys):
    ham = tmp_path / "h.txt"
    ham.write_text("1 1 1 0\n2 2 -1 0\n1 2 0.25 0\n2 1 0.25 0\n")
    code, out, _ = run(
        capsys, "reduce", "--modes", "4", "--fermions", "1",
        "--index-embed", "--hamiltonian", str(ham),
    )
    assert code == 0
    data = json.loads(out)
    assert data["spec"]["q_min"] == 2
    assert len(data["fixed_qubits"]) == 2


def test_reduce_verify_reports_spectrum_deviation(tmp_path, capsys):
    from fermiperm import SectorSpec, minimal_permutation_index_embed, parse_hamiltonian
    from fermiperm.reduction import (
        SPECTRUM_TOL, encode_and_reduce, sector_oracle, verify_reduction,
    )

    text = "1 1 1 0\n2 2 -1 0\n1 2 0.25 0\n2 1 0.25 0\n3 4 0 0.5\n4 3 0 -0.5\n"
    ham = tmp_path / "h.txt"
    ham.write_text(text)
    code, out, _ = run(
        capsys, "reduce", "--modes", "4", "--fermions", "2",
        "--index-embed", "--hamiltonian", str(ham),
    )
    assert code == 0
    verify = json.loads(out)["verify"]
    assert list(verify) == ["max_deviation", "spectrum_bound", "spectrum_deviation", "passed"]
    assert verify["spectrum_deviation"] is None  # the bound certifies the spectra
    assert 0.0 <= verify["spectrum_bound"] < SPECTRUM_TOL

    spec = SectorSpec(4, 2)
    h = parse_hamiltonian(text, n_modes=4)
    rh = encode_and_reduce(h, minimal_permutation_index_embed(spec), spec)
    check = verify_reduction(rh, sector_oracle(h, spec))
    assert verify["spectrum_bound"] == check.spectrum_bound


def test_dense_cap_option_is_passed_not_set(tmp_path, capsys, monkeypatch):
    """--dense-cap reaches the conjugation, the oracle and the verify as an
    argument; the module default is never reassigned.  The oracle is
    computed inside verify, from the operator: its cap is the one its size
    check is given."""
    import fermiperm.cli as cli
    from fermiperm import pauli, reduction

    seen = []

    def spy(name):
        real = getattr(cli, name)

        def call(*args, dense_cap, **kwargs):
            seen.append((name, dense_cap, pauli.DENSE_CAP))
            return real(*args, dense_cap=dense_cap, **kwargs)

        monkeypatch.setattr(cli, name, call)

    for name in ("encode_and_reduce", "verify_reduction"):
        spy(name)
    check_oracle = reduction._check_dense_cap  # the oracle's only use of it

    def oracle_check(n_qubits, cap):
        seen.append(("sector_oracle", cap, pauli.DENSE_CAP))
        return check_oracle(n_qubits, cap)

    monkeypatch.setattr(reduction, "_check_dense_cap", oracle_check)
    ham = tmp_path / "h.txt"
    ham.write_text(HOPPING)
    args = ["reduce", "--modes", "4", "--fermions", "2", "--index-embed",
            "--hamiltonian", str(ham)]
    code, out, _ = run(capsys, *args, "--dense-cap", "14")
    assert code == 0
    assert json.loads(out)["overrides"] == {"dense_cap": 14}
    assert sorted(seen) == [
        ("encode_and_reduce", 14, 12), ("sector_oracle", 14, 12), ("verify_reduction", 14, 12),
    ]
    seen.clear()
    code, _, err = run(capsys, *args, "--dense-cap", "2")
    assert code == 2
    assert "capped at 2 qubits" in err
    assert pauli.DENSE_CAP == 12


@pytest.mark.parametrize(
    "cap, error",
    [("9", "error: dense operations are capped at 9 qubits, got 10\n"),  # the oracle's sector
     ("10", "error: dense operations are capped at 10 qubits, got 11\n")],  # the reduced block
)
def test_dense_cap_errors_name_the_oracle_then_the_block(tmp_path, capsys, cap, error):
    """N=12, K=6 with the parity mapping: 924 sector states need 10 qubits
    and the reduced operator has 11.  The oracle's check comes before the
    block's, so each cap names its own count; exit 2, nothing on stdout and
    no file written."""
    ham = tmp_path / "h.txt"
    ham.write_text(HOPPING)
    out = tmp_path / "out.json"
    argv = ["reduce", "--mapping", "parity", "--modes", "12", "--fermions", "6",
            "--dense-cap", cap, "--hamiltonian", str(ham)]
    for output in (["--output", str(out)], []):
        assert run(capsys, *argv, *output) == (2, "", error)
    assert not out.exists()


# A complex one-body input on 17 modes, every p <= q once.
ONE_BODY_17 = "".join(
    f"{p} {q} {0.1 * p - 0.07 * q:.3f} {0.05 * (q - p):.3f}\n"
    for p in range(1, 18)
    for q in range(p, 18)
)


@pytest.mark.parametrize(
    "argv, error",
    [
        # verify's block on the reduced register, at the default dense cap
        ("--modes 16 --fermions 2 --mapping parity", "dense operations are capped at 12 qubits, got 15"),
        ("--modes 17 --fermions 2 --mapping parity", "dense operations are capped at 12 qubits, got 16"),
        # C(40,20) states need 38 qubits
        ("--modes 40 --fermions 20 --mapping parity", "sector storage is capped at 16 qubits, got 38"),
        ("--modes 65 --fermions 1 --mapping jw", "the sector states hold at most 64 modes, got 65"),
        # a table is still bounded by the permutation cap
        ("--modes 17 --fermions 2 --index-embed", "permutation storage is capped at 16 qubits, got 17"),
    ],
    ids=["parity-16-2", "parity-17-2", "parity-40-20", "jw-65-1", "embed-17-2"],
)
def test_reduce_is_bounded_by_the_sector_and_dense_caps(hop_file, tmp_path, capsys, argv, error):
    """A linear encoding stores no 2^N table, so ``reduce --mapping`` past
    16 modes is bounded by the sector's caps and the dense cap alone: exit
    2, one error line, nothing on stdout and no file."""
    out = tmp_path / "out.json"
    argv = ["reduce", *argv.split(), "--hamiltonian", hop_file, "--output", str(out)]
    assert run(capsys, *argv) == (2, "", f"error: {error}\n")
    assert not out.exists()


@pytest.mark.parametrize("selector", [["--mapping", "parity"], ["--index-embed"]], ids=["map", "table"])
@pytest.mark.parametrize("modes, fermions, error", [
    (40, 20, "sector storage is capped at 16 qubits, got 38"),
    (1000, 1, "the sector states hold at most 64 modes, got 1000"),
], ids=["40-20", "1000-1"])
def test_reduce_refuses_a_sector_before_it_is_enumerated(
    hop_file, capsys, monkeypatch, selector, modes, fermions, error
):
    """The sector's caps are checked before a state is enumerated and
    before the encoding's N x N matrix or the 2^N table is built."""
    def refuse(*args, **kwargs):
        pytest.fail("built past the sector's caps")

    monkeypatch.setattr(minimal, "combinations", refuse)
    monkeypatch.setattr(cli, "_resolve_permutation", refuse)
    argv = ["reduce", "--modes", str(modes), "--fermions", str(fermions), *selector]
    assert run(capsys, *argv, "--hamiltonian", hop_file) == (2, "", f"error: {error}\n")


def test_reduce_mapping_runs_past_16_modes(tmp_path, capsys):
    """(17,2) under the parity map: 136 states on a 16-qubit register, with
    no 2^17 table, once the dense cap admits verify's block."""
    ham = tmp_path / "h.txt"
    ham.write_text(ONE_BODY_17)
    code, out, err = run(
        capsys, "reduce", "--modes", "17", "--fermions", "2", "--mapping", "parity",
        "--dense-cap", "16", "--hermitize", "--hamiltonian", str(ham),
    )
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["hamiltonian"]["n_qubits"] == 16 and len(doc["state_map"]) == 136
    assert doc["fixed_qubits"] == [[17, 0]] and doc["verify"]["passed"]


NUMPY_REFUSAL = "Unable to allocate 16.0 GiB for an array with shape (16384, 65536) and data type complex128"


@pytest.mark.parametrize("message, line", [
    (NUMPY_REFUSAL, NUMPY_REFUSAL),
    ("", "out of memory"),  # Python's own MemoryError carries no message
], ids=["numpy", "python"])
def test_a_failed_allocation_is_one_error_line(
    hop_file, tmp_path, capsys, monkeypatch, message, line
):
    """An allocation past the machine's memory exits 2 with one error line
    and no file, not a traceback with exit 1 (the code of a failed
    verification).  The allocation is faked: a real one might succeed."""
    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "encode_and_reduce", refuse)
    out = tmp_path / "out.json"
    argv = ["reduce", "--modes", "4", "--fermions", "2", "--index-embed",
            "--hamiltonian", hop_file, "--output", str(out)]
    assert run(capsys, *argv) == (2, "", f"error: {line}\n")
    assert not out.exists()


def test_reduce_argument_errors(hop_file, capsys):
    """A --modes that is not an integer is argparse's error; K past N is
    the sector's."""
    argv = ["reduce", "--index-embed", "--hamiltonian", hop_file]
    code, out, err = run(capsys, *argv, "--modes", "x", "--fermions", "1")
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --modes: invalid int value: 'x'\n")
    assert run(capsys, *argv, "--modes", "3", "--fermions", "4") == (
        2, "", "error: need 0 <= K <= N\n"
    )


def test_reduce_without_fermions_is_usage_error(tmp_path, capsys):
    """``reduce`` and ``verify oracle`` require ``--fermions``: argparse
    rejects the command before it runs."""
    ham = tmp_path / "h.txt"
    ham.write_text(ONE_MODE_NUMBER)
    for argv in (
        ["reduce", "--modes", "4", "--index-embed", "--hamiltonian", str(ham)],
        ["verify", "oracle", "--modes", "4"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "the following arguments are required: --fermions" in err


def test_perm_two_fermion_circuit(tmp_path, capsys):
    circuit = tmp_path / "circ.txt"
    circuit.write_text("CNOT 3 4\nCNOT 2 4\nCNOT 1 4\n")
    code, out, _ = run(
        capsys, "perm", "--modes", "4", "--fermions", "2", "--circuit", str(circuit)
    )
    assert code == 0
    assert "affine: yes" in out
    assert "redundant: qubit 4 = 0" in out


def test_perm_index_embed_one_fermion_not_affine(capsys):
    code, out, _ = run(
        capsys, "perm", "--modes", "4", "--fermions", "1", "--index-embed"
    )
    assert code == 0
    assert "affine: no" in out
    assert "qubit 3 = 0" in out and "qubit 4 = 0" in out


def test_perm_index_embed_two_fermion_matches_table(capsys):
    code, out, _ = run(
        capsys, "perm", "--modes", "4", "--fermions", "2", "--index-embed"
    )
    assert code == 0
    assert "redundant: qubit 4 = 0" in out


def test_perm_cycles_with_synthesis(capsys):
    code, out, _ = run(
        capsys, "perm", "--modes", "4", "--fermions", "1",
        "--cycles", "(0,2)(1,12)", "--synthesize",
    )
    assert code == 0
    assert "affine: no" in out
    assert "transpositions=2" in out


@pytest.mark.parametrize(
    "text, located",
    [
        ("X 1\nCNOT a 2\n", ["line 2", "'a'"]),
        ("X 1\nCNOT 1 9\n", ["line 2", "wire 9"]),
        ("# header\n\nTOFFOLI 1 2\n", ["line 3"]),
    ],
)
def test_circuit_parse_error_has_line_number(tmp_path, capsys, text, located):
    circuit = tmp_path / "bad.txt"
    circuit.write_text(text)
    code, out, err = run(capsys, "perm", "--modes", "3", "--circuit", str(circuit))
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    for piece in located:
        assert piece in err


@pytest.mark.parametrize(
    "cycles, located",
    [("(0,x)", ["'x'", "position 3"]), ("(0,1)( 2 , y)", ["'y'", "position 11"])],
)
def test_cycles_parse_error_names_token_and_position(capsys, cycles, located):
    code, out, err = run(capsys, "perm", "--modes", "3", "--cycles", cycles)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    for piece in located:
        assert piece in err


def test_verify_appendix(capsys):
    code, out, _ = run(capsys, "verify", "appendix", "--n", "3")
    assert code == 0
    assert out.strip() == "168 matrices, max constant digits 1"


def test_verify_anticommutation_parity(capsys):
    code, out, _ = run(
        capsys, "verify", "anticommutation", "--modes", "4", "--mapping", "parity"
    )
    assert code == 0
    assert "parity: 36 checks pass" in out


def test_verify_anticommutation_jw(capsys):
    code, out, _ = run(capsys, "verify", "anticommutation", "--modes", "4", "--mapping", "jw")
    assert code == 0
    assert out == "jw: 36 checks pass\n"


def test_verify_anticommutation_random_minimal(capsys):
    code, out, _ = run(
        capsys, "verify", "anticommutation", "--modes", "3",
        "--mapping", "random-minimal", "--trials", "1", "--seed", "7",
    )
    assert code == 0
    assert "pass" in out and "FAIL" not in out


def test_verify_anticommutation_random_minimal_needs_two_modes(capsys):
    """At one mode ``random-minimal`` has no sector to build a family for,
    so it is a usage error, not a pass of zero checks; the jw and parity
    suites still run there."""
    code, out, err = run(
        capsys, "verify", "anticommutation", "--modes", "1", "--mapping", "random-minimal"
    )
    assert (code, out) == (2, "")
    assert err == "error: --mapping random-minimal needs at least 2 modes, got 1\n"
    code, out, err = run(capsys, "verify", "anticommutation", "--modes", "1")
    assert (code, err) == (0, "")
    assert out == "jw: 3 checks pass\nparity: 3 checks pass\n"



def _traced_peak(f) -> int:
    """The tracemalloc peak of ``f()``, in bytes."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_anticommutation_holds_one_family_at_a_time(capsys):
    """At 7 modes ``random-minimal`` builds 12 dense-conjugated families,
    6 sectors of 2 trials; the command peaks below twice the peak of
    building and checking the K = 3 family alone, so each family is
    dropped before the next is built."""
    spec = SectorSpec(7, 3)

    def one_family():
        cli.anticommutation_suite(cli.random_minimal_majoranas(spec, np.random.default_rng(0)))

    one_family()  # once untraced, so that both peaks leave out first-use caches
    alone = _traced_peak(one_family)
    argv = ["verify", "anticommutation", "--modes", "7", "--mapping", "random-minimal"]
    command = _traced_peak(lambda: run(capsys, *argv))
    assert command < 2 * alone, (command, alone)
    assert run(capsys, *argv)[1].count(" checks pass\n") == 12


def test_anticommutation_suite_reports_failures():
    """Broken 3-mode families: each failure is named, in pair order, and the
    check count stays 2N(2N + 1)/2.  Strings are checked on their masks and
    phases, sums and mixed families on dense matrices."""
    g = jw_majoranas(3)
    g1 = g[0][0]
    # g2 repeats g1 and g3 is i g1: three commuting pairs and g3^2 = -I
    strings = [g[0], (g1, g[1][1]), (PauliString(3, g1.x_bits, g1.z_bits, 1), g[2][1])]
    assert anticommutation_suite(strings) == (
        21, ["g1 and g2 commute", "g1 and g3 commute", "g2 and g3 commute", "g3^2 != I"]
    )
    # g2 repeats g1 and g'2, g'3 are doubled
    sums = [tuple(PauliSum.from_pauli(op) for op in pair) for pair in g]
    sums[1] = (sums[0][0], 2 * sums[1][1])
    sums[2] = (sums[2][0], 2 * sums[2][1])
    assert anticommutation_suite(sums) == (
        21, ["{ g1, g2 } != 0", "g'2^2 != I", "g'3^2 != I"]
    )
    # one sum among the strings sends the whole family through dense matrices
    mixed = [(strings[0][0], PauliSum.from_pauli(strings[0][1])), *strings[1:]]
    assert anticommutation_suite(mixed) == (
        21, ["{ g1, g2 } != 0", "{ g1, g3 } != 0", "{ g2, g3 } != 0", "g3^2 != I"]
    )


def test_anticommutation_suite_matches_dense_products():
    """On random-minimal families for N = 2..6, and on copies of them with an
    operator doubled, negated, repeated, or swapped in from another family,
    the column maps give the checks and failures of dense products."""
    rng = np.random.default_rng(12)
    swaps_failing = 0
    for n in range(2, 7):
        families = [cli.random_minimal_majoranas(SectorSpec(n, k), rng) for k in range(1, n)]
        families.append(cli.random_minimal_majoranas(SectorSpec(n, 1), rng))  # a second trial
        for f, family in enumerate(families):
            ops = [op for pair in family for op in pair]
            other = [op for pair in families[f - 1] for op in pair]
            i, j = (int(v) for v in rng.choice(len(ops), 2, replace=False))
            copies = [list(ops) for _ in range(5)]
            copies[1][i] = 2 * ops[i]
            copies[2][i] = -1 * ops[i]
            copies[3][j] = ops[i]
            copies[4][i] = other[i]
            verdicts = []
            for c in copies:
                pairs = list(zip(c[0::2], c[1::2]))
                expect = anticommutation_suite_dense(pairs)
                assert anticommutation_suite(pairs) == expect
                verdicts.append(bool(expect[1]))
            # a negated Majorana is still one; a doubled or repeated one is not
            assert verdicts[:4] == [False, True, False, True]
            swaps_failing += verdicts[4]
    assert swaps_failing > 10


def test_anticommutation_suite_holds_column_maps():
    """A (7,3) random-minimal family is checked on column maps: the suite
    peaks below 2 MB, where dense products of its 128 x 128 operators peak
    at 4.4 MB."""
    family = cli.random_minimal_majoranas(SectorSpec(7, 3), np.random.default_rng(0))
    anticommutation_suite(family)  # once untraced, so that the peak leaves out first-use caches
    assert _traced_peak(lambda: anticommutation_suite(family)) < 2_000_000


def test_anticommutation_suite_refuses_operators_not_one_nonzero_per_column():
    """(X + Z)/sqrt(2) squares to I and anticommutes with Y, but it is no
    Pauli string up to a basis permutation: the suite names it and raises."""
    h = PauliSum.from_terms(1, [(2**-0.5, "X"), (2**-0.5, "Z")])
    y = PauliSum.from_terms(1, [(1.0, "Y")])
    with pytest.raises(ValueError, match="^g1 does not hold exactly one nonzero per column$"):
        anticommutation_suite([(h, y)])
    with pytest.raises(ValueError, match="^g'2 does not hold"):
        anticommutation_suite([(y, 1j * y), (y, h)])


def test_verify_appendix_reports_a_counterexample(capsys, monkeypatch):
    """Two constant digits would refute the appendix: exit 1 and the rows
    of the matrix that reaches them."""
    report = minimal.AppendixReport(
        n=3, matrix_count=168, max_constant_digits=2, witness=(4, 6, 7)
    )
    monkeypatch.setattr(cli, "appendix_verify", lambda n: report)
    assert run(capsys, "verify", "appendix", "--n", "3") == (
        1, "168 matrices, max constant digits 2\ncounterexample rows (bit masks): (4, 6, 7)\n", ""
    )


def test_verify_anticommutation_reports_the_first_failure(capsys, monkeypatch):
    """A family whose first pair commutes fails its suite: exit 1, and only
    the first of its failures is printed."""
    x, y = PauliString.from_letters("X"), PauliString.from_letters("Y")
    monkeypatch.setattr(cli, "jw_majoranas", lambda n: [(x, x), (x, y)])
    assert run(capsys, "verify", "anticommutation", "--modes", "2", "--mapping", "jw") == (
        1, "jw: 10 checks FAIL\n  counterexample: g1 and g'1 commute\n", ""
    )


def test_perm_index_embed_needs_fermions(capsys):
    code, out, err = run(capsys, "perm", "--modes", "4", "--index-embed")
    assert (code, out, err) == (2, "", "error: --index-embed needs --fermions\n")


def test_verify_oracle_reports_a_deviation_past_the_tolerance(capsys):
    """A tolerance below the rounding of the reduction fails the first
    trial: exit 1 and one line naming the deviation and the tolerance."""
    code, out, err = run(
        capsys, "verify", "oracle", "--modes", "6", "--fermions", "3", "--trials", "2",
        "--tolerance", "1e-300",
    )
    assert (code, err) == (1, "")
    assert out.startswith("FAIL: deviation ") and out.endswith(" exceeds 1e-300\n")
    assert out.count("\n") == 1
    assert 1e-300 < float(out.split()[2]) < 1e-12


def test_verify_oracle_names_a_failed_spectrum_check(capsys, monkeypatch):
    """A check whose elements pass and whose spectra do not fails on the
    spectrum line, with its deviation and bound, not the deviation line."""
    from fermiperm.reduction import ReductionCheck

    failed = ReductionCheck(1e-5, 2e-8, 1.5e-8, False, 1e-3)
    monkeypatch.setattr(cli, "verify_reduction", lambda rh, h, tol: failed)
    code, out, err = run(
        capsys, "verify", "oracle", "--modes", "4", "--fermions", "2", "--tolerance", "1e-3",
    )
    assert (code, out, err) == (1, "FAIL: spectrum deviation 1.5e-08 exceeds 1e-08 (bound 2e-08)\n", "")


def test_verify_oracle(capsys):
    code, out, _ = run(
        capsys, "verify", "oracle", "--modes", "4", "--fermions", "2",
        "--trials", "5", "--seed", "1",
    )
    assert code == 0
    assert "5 trials pass" in out


def test_costs_csv(capsys):
    code, out, _ = run(capsys, "costs", "--modes", "32")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "K,parity,minimal,first_quantized"
    assert lines[17] == "16,31,30,80"
    assert lines[5] == "4,31,16,20"


def test_stats_round_trip(tmp_path, capsys):
    ham = tmp_path / "h.txt"
    ham.write_text(HOPPING)
    pauli_json = tmp_path / "p.json"
    code, _, _ = run(
        capsys, "encode", "--modes", "2", "--hamiltonian", str(ham),
        "--output", str(pauli_json),
    )
    assert code == 0
    code, out, _ = run(capsys, "stats", "--input", str(pauli_json))
    assert code == 0
    data = json.loads(out)
    assert data == {"n_qubits": 2, "term_count": 2, "max_weight": 2, "mean_weight": 2.0}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"n_qubits": 2}, '"n_qubits": integer'),
        ([1, 2], '"n_qubits": integer'),
        ({"n_qubits": "x", "terms": []}, '"n_qubits": integer'),
        ({"n_qubits": 1, "terms": [{"pauli": 5, "re": 1.0, "im": 0.0}]}, "term 0 must"),
        (
            {"n_qubits": 1, "terms": [{"pauli": "X", "re": 1.0, "im": 0.0},
                                      {"pauli": "Z", "re": "a", "im": 0.0}]},
            "term 1 must",
        ),
        ({"n_qubits": 1, "terms": [{"pauli": "Q", "re": 1, "im": 0}]}, "term 0: invalid Pauli"),
        (
            {"n_qubits": 2, "terms": [{"pauli": "XZ", "re": 1, "im": 0},
                                      {"pauli": "X", "re": 1, "im": 0}]},
            "term 1 'X' does not act on 2 qubits",
        ),
        (
            {"n_qubits": True, "terms": [{"pauli": "X", "re": True, "im": False}]},
            '"n_qubits": integer',
        ),
        ({"n_qubits": 1, "terms": [{"pauli": "X", "re": 1.0, "im": False}]}, "term 0 must"),
    ],
)
def test_stats_rejects_malformed_structure(tmp_path, capsys, doc, message):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "stats", "--input", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_stats_rejects_parts_that_are_not_finite(tmp_path, capsys):
    """A NaN or infinite part is named by its term's index, not pruned or
    kept; so is an integer past the largest float.  Nothing is written."""
    terms = [("X", "1.0", "0.0"), ("Y", "NaN", "0.0"), ("Z", "1.0", "Infinity")]
    for bad, index in ((terms, 1), (terms[:1] + terms[2:], 1), ([("X", "1" + "0" * 400, "0")], 0)):
        path, out_file = tmp_path / "p.json", tmp_path / "stats.json"
        body = ", ".join(f'{{"pauli": "{p}", "re": {re}, "im": {im}}}' for p, re, im in bad)
        path.write_text(f'{{"n_qubits": 1, "terms": [{body}]}}')
        code, out, err = run(capsys, "stats", "--input", str(path), "--output", str(out_file))
        assert (code, out) == (2, "")
        assert err == f"error: term {index} has a part that is not a finite float\n"
        assert not out_file.exists()


def test_stats_rejects_json_nested_too_deeply(tmp_path, capsys):
    """Nesting past the interpreter's recursion limit is one error line and
    exit 2, with nothing on stdout and no file written."""
    path, out_file = tmp_path / "deep.json", tmp_path / "stats.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    for output in (["--output", str(out_file)], []):
        code, out, err = run(capsys, "stats", "--input", str(path), *output)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "recursion" in err
    assert not out_file.exists()


def test_outputs_are_deterministic(hop_file, capsys):
    _, out1, _ = run(capsys, "encode", "--modes", "2", "--hamiltonian", hop_file)
    _, out2, _ = run(capsys, "encode", "--modes", "2", "--hamiltonian", hop_file)
    assert out1 == out2
    _, c1, _ = run(capsys, "costs", "--modes", "8")
    _, c2, _ = run(capsys, "costs", "--modes", "8")
    assert c1 == c2


def test_usage_error_exit_code(capsys):
    assert run(capsys, "encode", "--modes", "2")[0] == 2  # missing --hamiltonian
    assert run(capsys, "nonsense")[0] == 2


# Help and usage errors, which main prints from the one cached parser.
_PARSER_ARGVS = [
    [], ["--help"], ["-h"], ["bogus"], ["bogus", "--modes", "3"], ["--help", "reduce"],
    *([command, "--help"] for command in ("encode", "reduce", "perm", "verify", "costs", "stats")),
    *(["verify", suite, "--help"] for suite in ("anticommutation", "appendix", "oracle")),
    ["verify"], ["verify", "bogus"], ["verify", "appendix", "--n", "7"],
    ["reduce", "--modes", "x"], ["encode", "--modes", "0"], ["perm", "--modes", "3"],
    ["costs"], ["stats", "--input"], ["--bogus", "reduce", "--modes", "x"],
]


@pytest.mark.parametrize("argv", _PARSER_ARGVS, ids=" ".join)
def test_one_command_parser_prints_what_the_full_parser_prints(argv):
    """Every help text and usage error main prints, its exit code included,
    is that of a freshly built parser, byte for byte: the parser main has
    cached, and parsed with in earlier tests, is unchanged by its parses."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            build_parser.__wrapped__().parse_args(argv)
    assert _main_captured(argv) == (exc.value.code, out.getvalue(), err.getvalue())


def test_main_parses_with_one_parser_built_once(monkeypatch):
    """A usage error, a command, a suite and help, run in turn by main in
    one process, share one parser and print, exit codes included, what each
    prints from a freshly built parser."""
    argvs = [["costs"], ["costs", "--modes", "4"], ["verify", "appendix", "--n", "2"], ["--help"]]
    parser = build_parser()
    cached = [_main_captured(argv) for argv in argvs]
    assert build_parser() is parser
    assert [code for code, _, _ in cached] == [2, 0, 0, 0]
    monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)  # a new parser per call
    assert [_main_captured(argv) for argv in argvs] == cached


# Every subcommand that takes --modes, with the other arguments it needs;
# "HAM" stands for a Hamiltonian file.
_MODES_COMMANDS = {
    "encode": ["encode", "--hamiltonian", "HAM"],
    "reduce": ["reduce", "--fermions", "1", "--hamiltonian", "HAM", "--index-embed"],
    "perm": ["perm", "--cycles", "()"],
    "anticommutation": ["verify", "anticommutation"],
    "oracle": ["verify", "oracle", "--fermions", "1"],
    "costs": ["costs"],
}
_COUNTS_BELOW_ONE = [
    pytest.param([*argv, "--modes", modes], "--modes", id=f"{name}-modes{modes}")
    for name, argv in _MODES_COMMANDS.items()
    for modes in ("0", "-1")
] + [
    pytest.param(
        [*_MODES_COMMANDS[name], "--modes", "3", "--trials", "0"], "--trials", id=f"{name}-trials0"
    )
    for name in ("anticommutation", "oracle")
] + [
    pytest.param(
        [*_MODES_COMMANDS["reduce"], "--modes", "4", "--dense-cap", cap, "--output", "OUT"],
        "--dense-cap",
        id=f"reduce-dense-cap{cap}",
    )
    for cap in ("0", "-3")
]


@pytest.mark.parametrize("argv, option", _COUNTS_BELOW_ONE)
def test_counts_below_one_are_usage_errors(hop_file, tmp_path, capsys, argv, option):
    """--modes, --trials and --dense-cap take positive integers: anything
    else is an argparse error (exit 2) that writes no file, not a traceback
    or a vacuous pass."""
    out_file = tmp_path / "out.json"
    fill = {"HAM": hop_file, "OUT": str(out_file)}
    code, out, err = run(capsys, *(fill.get(arg, arg) for arg in argv))
    assert code == 2
    assert f"error: argument {option}" in err
    assert "Traceback" not in err
    assert out == ""
    assert not out_file.exists()


@pytest.mark.parametrize("command", ["reduce", "oracle"])
@pytest.mark.parametrize("tolerance", ["nan", "0", "-0.5", "inf", "x"])
def test_tolerance_must_be_finite_and_positive(hop_file, tmp_path, capsys, command, tolerance):
    """NaN would be written as non-strict JSON, 0 or less fails every check
    and inf passes any finite deviation: each is an argparse error (exit 2)
    that writes no file."""
    argv = [*_MODES_COMMANDS[command], "--modes", "4", "--tolerance", tolerance]
    if command == "reduce":
        argv += ["--output", str(tmp_path / "out.json")]
    code, out, err = run(capsys, *(hop_file if arg == "HAM" else arg for arg in argv))
    assert code == 2
    assert "error: argument --tolerance" in err
    assert "Traceback" not in err
    assert out == ""
    assert not (tmp_path / "out.json").exists()


# The arguments of each command that takes a linear encoding ("HAM" stands for
# the Hamiltonian file, "EYE" for a 6-mode identity matrix file) and the
# selectors that must give the same bytes.
_JW_SELECTORS = [["--mapping", "jw"], ["--matrix", "EYE"]]
_LINEAR_SELECTOR_COMMANDS = {
    "encode": (["encode", "--hermitize", "--hamiltonian", "HAM"], [*_JW_SELECTORS, []]),
    "reduce": (["reduce", "--fermions", "3", "--hamiltonian", "HAM"], _JW_SELECTORS),
    "perm": (["perm", "--fermions", "3", "--synthesize"], _JW_SELECTORS),
}


@pytest.mark.parametrize("command", list(_LINEAR_SELECTOR_COMMANDS))
def test_mapping_jw_is_the_identity_matrix(tmp_path, capsys, command):
    """``--mapping jw``, an identity ``--matrix`` file and, for ``encode``,
    no selector at all write the same bytes."""
    eye = tmp_path / "eye.txt"
    eye.write_text("".join("0" * j + "1" + "0" * (5 - j) + "\n" for j in range(6)))
    ham = tmp_path / "h.txt"
    ham.write_text(DYADIC_HAMILTONIAN)
    fill = {"HAM": str(ham), "EYE": str(eye)}
    base, selectors = _LINEAR_SELECTOR_COMMANDS[command]
    outs = []
    for k, selector in enumerate(selectors):
        out_file = tmp_path / f"out{k}"
        argv = [*base, "--modes", "6", *selector, "--output", str(out_file)]
        code, _, err = run(capsys, *(fill.get(arg, arg) for arg in argv))
        assert (code, err) == (0, "")
        outs.append(out_file.read_bytes())
    assert outs[1:] == outs[:-1]
    if command == "reduce":
        assert json.loads(outs[0])["verify"]["passed"]


@pytest.mark.parametrize("mapping", ["jw", "parity"])
def test_encode_named_mapping_runs_no_elimination(tmp_path, capsys, monkeypatch, mapping):
    """``encode --mapping jw|parity`` writes the bytes of its ``--matrix``
    file with the closed-form Majoranas: no N x N matrix is eliminated."""
    n = 40
    matrix = f2.parity_matrix(n) if mapping == "parity" else f2.identity(n)
    mat = tmp_path / "m.txt"
    mat.write_text("".join("".join(map(str, row)) + "\n" for row in matrix))
    ham = tmp_path / "h.txt"
    ham.write_text(f"1 {n} 0.5 0.25\n{n} 1 0.5 -0.25\n3 7 12 20 1 0\n")
    base = ["encode", "--modes", str(n), "--hamiltonian", str(ham)]
    code, expected, err = run(capsys, *base, "--matrix", str(mat))
    assert (code, err) == (0, "")

    def no_elimination(m):
        raise AssertionError("a named mapping eliminated a matrix")

    monkeypatch.setattr(f2, "_row_ops", no_elimination)
    assert run(capsys, *base, "--mapping", mapping) == (0, expected, "")


@pytest.mark.parametrize("modes, selector", [(20, "--mapping"), (2000, "--mapping"), (20, "--matrix")])
def test_perm_refuses_the_table_before_the_map(tmp_path, capsys, monkeypatch, modes, selector):
    """``perm`` needs the 2^N table for its ``cycles:`` line, so past the cap
    it exits 2 before the N x N map is built and eliminated."""
    if selector == "--matrix":
        mat = tmp_path / "m.txt"
        mat.write_text("".join("".join(map(str, row)) + "\n" for row in f2.parity_matrix(modes)))
        selector = ["--matrix", str(mat)]
    else:
        selector = ["--mapping", "parity"]

    def no_elimination(m):
        raise AssertionError("eliminated a map past the table cap")

    monkeypatch.setattr(f2, "_row_ops", no_elimination)
    error = f"error: permutation storage is capped at 16 qubits, got {modes}\n"
    assert run(capsys, "perm", "--modes", str(modes), *selector) == (2, "", error)


@pytest.mark.parametrize(
    "command",
    [["encode"], ["reduce", "--fermions", "1"], ["perm", "--fermions", "1", "--synthesize"]],
    ids=["encode", "reduce", "perm"],
)
def test_singular_matrix_is_a_usage_error(hop_file, tmp_path, capsys, command):
    """A singular ``--matrix`` exits 2 with one error line naming it, and
    writes no ``--output`` file."""
    mat = tmp_path / "m.txt"
    mat.write_text("110\n011\n101\n")  # row 3 is the sum of rows 1 and 2
    out_file = tmp_path / "out"
    argv = [*command, "--modes", "3", "--matrix", str(mat), "--output", str(out_file)]
    if command[0] != "perm":
        argv += ["--hamiltonian", hop_file]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "singular over GF(2)" in err
    assert not out_file.exists()


def test_reduce_mapping_parity_eliminates_once_and_scans_no_table(tmp_path, capsys, monkeypatch):
    """``reduce --mapping parity`` hands its map to ``encode_and_reduce``,
    and ``perm --synthesize`` with ``--mapping parity`` or the parity
    ``--matrix`` hands it to the redundancy scan and to synthesis: one
    elimination, in the map's constructor, and no ``classify_affine`` scan
    of a 2^N table."""
    ham = tmp_path / "h.txt"
    ham.write_text(DYADIC_HAMILTONIAN)
    calls = {}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(f2, "_row_ops")
    counted(permutations, "classify_affine")
    perm = ["perm", "--modes", "6", "--fermions", "3", "--synthesize"]
    for argv in (
        ["reduce", "--modes", "6", "--fermions", "3", "--hermitize", "--hamiltonian", str(ham),
         "--mapping", "parity"],
        [*perm, "--mapping", "parity"],
        [*perm, "--matrix", str(GOLDEN / "parity_n6.txt")],
    ):
        calls.update(_row_ops=0, classify_affine=0)
        code, _, err = run(capsys, *argv, "--output", str(tmp_path / "out"))
        assert (code, err) == (0, "")
        assert calls == {"_row_ops": 1, "classify_affine": 0}, argv


def test_each_table_is_scanned_once_per_command(capsys, monkeypatch):
    """``perm --synthesize`` on a non-affine table reads the one
    ``classify_affine`` scan for its ``affine:`` line and for synthesis, and
    ``verify oracle`` scans its one table once for all its trials."""
    scans = []
    inner = permutations.classify_affine

    def counted(p):
        scans.append(p)
        return inner(p)

    monkeypatch.setattr(permutations, "classify_affine", counted)
    perm = ["perm", "--modes", "6", "--fermions", "3", "--synthesize"]
    for argv in (
        [*perm, "--index-embed"],
        [*perm, "--cycles", "(0,3)(5,9)"],
        ["verify", "oracle", "--modes", "6", "--fermions", "3", "--trials", "3"],
    ):
        scans.clear()
        code, _, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert len(scans) == 1, argv


@pytest.mark.parametrize(
    "argv, enumerations, inversions, operators",
    [
        (["reduce", "--modes", "8", "--fermions", "4", "--index-embed"], 1, 1, 1),
        (["reduce", "--modes", "12", "--fermions", "6", "--mapping", "parity"], 1, 0, 1),
        (["reduce", "--modes", "6", "--fermions", "3", "--index-embed", "--hermitize"], 1, 1, 1),
        (["perm", "--modes", "6", "--fermions", "3", "--synthesize", "--index-embed"], 1, 0, 0),
        (["verify", "oracle", "--modes", "8", "--fermions", "4"], 1, 1, 20),
        (["verify", "anticommutation", "--modes", "6"], 5, 10, 0),
    ],
)
def test_each_input_is_built_once_per_command(
    hop_file, capsys, monkeypatch, argv, enumerations, inversions, operators
):
    """A command enumerates each ``SectorSpec``'s states once, inverts each
    table once however many conjugations read it, and builds each
    operator's array form once, ``--hermitize`` included.  Per command, the
    sector enumerations (one ``combinations`` pass each), the distinct
    inverse tables and the ``FermionOperator`` constructions are counted:
    20 trials of ``verify oracle`` draw 20 operators, and ``verify
    anticommutation --modes 6`` makes 5 sectors and 10 tables."""
    passes, inverses, built = [], [], []
    combinations, inverse = minimal.combinations, permutations.BasisPermutation.inverse
    post_init = encodings.FermionOperator.__post_init__
    monkeypatch.setattr(minimal, "combinations", lambda *a: passes.append(a) or combinations(*a))
    monkeypatch.setattr(
        permutations.BasisPermutation, "inverse",
        lambda p: inverses.append(inverse(p)) or inverses[-1],
    )
    monkeypatch.setattr(
        encodings.FermionOperator, "__post_init__", lambda op: built.append(op) or post_init(op)
    )
    if argv[0] == "reduce":
        argv = [*argv, "--hamiltonian", hop_file]
    code, _, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert len(passes) == enumerations
    assert len({id(t) for t in inverses}) == inversions  # inverses holds each one alive
    assert len(built) == operators


def test_reduce_cycles_of_the_parity_table_match_the_parity_map(tmp_path, capsys):
    """The cycle string ``perm --mapping parity`` prints, reduced through
    ``--cycles`` (a table that ``classify_affine`` scans), writes the bytes
    of ``reduce --mapping parity`` (the map itself).  ``perm --synthesize``
    prints the same lines for that table as for the map and for the parity
    ``--matrix``."""
    code, out, _ = run(capsys, "perm", "--modes", "6", "--mapping", "parity")
    assert code == 0
    (cycles,) = [line[len("cycles: "):] for line in out.splitlines() if line.startswith("cycles: ")]
    ham = tmp_path / "h.txt"
    ham.write_text(DYADIC_HAMILTONIAN)
    outs = []
    for selector in (["--cycles", cycles], ["--mapping", "parity"]):
        out_file = tmp_path / f"out{len(outs)}"
        code, _, err = run(
            capsys, "reduce", "--modes", "6", "--fermions", "3", "--hermitize",
            "--hamiltonian", str(ham), *selector, "--output", str(out_file),
        )
        assert (code, err) == (0, "")
        outs.append(out_file.read_bytes())
    assert outs[0] == outs[1]
    synthesized = []
    for selector in (["--cycles", cycles], ["--mapping", "parity"],
                     ["--matrix", str(GOLDEN / "parity_n6.txt")]):
        code, out, err = run(
            capsys, "perm", "--modes", "6", "--fermions", "3", "--synthesize", *selector
        )
        assert (code, err) == (0, "")
        synthesized.append(out)
    assert "affine: yes" in synthesized[0] and "\nCNOT " in synthesized[0]
    assert synthesized[0] == synthesized[1] == synthesized[2]


@pytest.mark.parametrize(
    "command, selector",
    [("encode", "--matrix"), ("reduce", "--matrix"), ("reduce", "--circuit"),
     ("reduce", "--cycles"), ("perm", "--cycles")],
)
def test_empty_selector_value_is_taken_as_given(tmp_path, capsys, hop_file, command, selector):
    """An empty ``--matrix`` or ``--circuit`` names no file: exit 2, one
    error line, no ``--output`` file.  An empty ``--cycles`` lists no cycle,
    so it gives the bytes of ``--cycles "()"``."""
    argv = [command, "--modes", "4"]
    if command != "perm":
        argv += ["--hamiltonian", hop_file]
    if command != "encode":
        argv += ["--fermions", "2"]
    out_file = tmp_path / "out"
    code, out, err = run(capsys, *argv, selector, "", "--output", str(out_file))
    if selector != "--cycles":
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_file.exists()
        return
    assert (code, out, err) == (0, "", "")
    empty = out_file.read_bytes()
    code, _, _ = run(capsys, *argv, selector, "()", "--output", str(out_file))
    assert code == 0
    assert empty == out_file.read_bytes()


def test_reduce_tolerance_override(tmp_path, capsys):
    """A valid ``--tolerance`` reaches verify and the ``overrides`` block.
    The non-dyadic input leaves rounding in the index-embed reduction, so
    1e-300 fails verify (exit 1) and a loose tolerance passes it."""
    ham = tmp_path / "h.txt"
    ham.write_text("1 2 0.1 0.3\n2 3 0.7 0\n3 3 0.2 0\n1 4 0.3 0.1\n")
    argv = ["reduce", "--modes", "4", "--fermions", "2", "--hermitize", "--index-embed",
            "--hamiltonian", str(ham)]
    code, out, err = run(capsys, *argv, "--tolerance", "1e-300")
    data = json.loads(out)
    assert (code, err) == (1, "")
    assert data["verify"]["passed"] is False
    assert data["verify"]["max_deviation"] > 1e-300
    assert data["overrides"] == {"tolerance": 1e-300}
    code, out, _ = run(capsys, *argv, "--tolerance", "1e-6")
    assert code == 0
    assert json.loads(out)["overrides"] == {"tolerance": 1e-6}


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(
        capsys, "encode", "--modes", "2", "--hamiltonian", "/does/not/exist.txt"
    )
    assert code == 2
    assert "error" in err.lower()


def test_matrix_file_selector(tmp_path, capsys):
    mat = tmp_path / "m.txt"
    mat.write_text("# parity of two modes\n10\n11\n")
    ham = tmp_path / "h.txt"
    ham.write_text(HOPPING)
    code, out, _ = run(
        capsys, "encode", "--modes", "2", "--hamiltonian", str(ham),
        "--matrix", str(mat),
    )
    assert code == 0
    data = json.loads(out)
    assert data["stats"]["term_count"] == 2


def test_encode_matrix_size_must_match_modes(tmp_path, capsys):
    mat = tmp_path / "m.txt"
    mat.write_text("10\n11\n")
    ham = tmp_path / "h.txt"
    ham.write_text(HOPPING)
    code, out, err = run(
        capsys, "encode", "--modes", "3", "--hamiltonian", str(ham), "--matrix", str(mat),
    )
    assert code == 2
    assert out == ""
    assert "matrix is 2x2 but --modes is 3" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text, located",
    [
        ("10\n1\n", "line 2:"),  # ragged
        ("# three rows of two\n10\n01\n\n11\n", "line 2:"),  # not square
        ("100\n010\n01\n", "line 3:"),
    ],
)
@pytest.mark.parametrize("command", ["encode", "reduce"])
def test_matrix_shape_error_has_line_number(tmp_path, capsys, text, located, command):
    mat = tmp_path / "m.txt"
    mat.write_text(text)
    ham = tmp_path / "h.txt"
    ham.write_text(HOPPING)
    extra = ["--fermions", "1"] if command == "reduce" else []
    code, _, err = run(
        capsys, command, "--modes", "2", *extra, "--hamiltonian", str(ham),
        "--matrix", str(mat),
    )
    assert code == 2
    assert located in err and "square" in err
    assert "Traceback" not in err


def test_empty_matrix_message_kept(tmp_path, capsys):
    mat = tmp_path / "m.txt"
    mat.write_text("# no rows\n")
    ham = tmp_path / "h.txt"
    ham.write_text(HOPPING)
    code, _, err = run(
        capsys, "encode", "--modes", "2", "--hamiltonian", str(ham), "--matrix", str(mat),
    )
    assert code == 2
    assert "matrix must be square and non-empty" in err


# Dyadic coefficients: every sum and product the reduction forms is exact in
# binary, so the golden terms do not depend on numpy, BLAS or the platform.
DYADIC_HAMILTONIAN = """\
1 1 0.5 0
2 2 -0.25 0
3 3 0.75 0
5 5 1 0
6 6 -0.5 0
1 2 0.5 0.25
2 3 -0.125 0
4 6 0.25 -0.5
3 5 0 0.375
1 2 3 4 0.0625 0
2 5 4 6 -0.125 0.25
"""


@pytest.mark.parametrize(
    "selector, golden",
    [(["--index-embed"], "reduce_n6_k3_index-embed.json"),
     (["--mapping", "parity"], "reduce_n6_k3_parity.json"),
     (["--matrix", str(GOLDEN / "parity_n6.txt")], "reduce_n6_k3_parity.json")],
)
def test_reduce_golden_bytes(tmp_path, capsys, selector, golden):
    """The whole output (spec, fixed qubits, Hamiltonian terms, state map
    and the verify block) is line for line the recorded output.  The
    dyadic input makes B equal to the oracle, so the verify block is exact:
    no deviation, a zero bound and no eigensolve.  The 6-mode parity
    matrix given as a ``--matrix`` file reduces to the bytes of
    ``--mapping parity``."""
    ham = tmp_path / "h.txt"
    ham.write_text(DYADIC_HAMILTONIAN)
    code, out, _ = run(
        capsys, "reduce", "--modes", "6", "--fermions", "3", "--hermitize",
        "--hamiltonian", str(ham), *selector,
    )
    assert code == 0
    got = out.splitlines()
    expected = (GOLDEN / golden).read_text().splitlines()
    if got != expected:  # a line diff: pytest's own diff of 30 kB strings is very slow
        diff = difflib.unified_diff(expected, got, "golden", "output", n=1, lineterm="")
        pytest.fail("\n".join(itertools.islice(diff, 40)))


_FLOATS = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300,
         math.inf, -math.inf, math.nan, 0.1, 1 / 3]
    ),
    st.floats(),
)
_TERMS = st.lists(
    st.builds(
        lambda p, r, i: {"pauli": p, "re": r, "im": i},
        st.text("IXYZ", min_size=1, max_size=8), _FLOATS, _FLOATS,
    ),
    max_size=10,
)
_COUNT = st.integers(0, 10**6)
_ENCODE_PAYLOADS = st.builds(
    lambda n, terms, count, weight, mean: {
        "n_qubits": n, "terms": terms,
        "stats": {"term_count": count, "max_weight": weight, "mean_weight": mean},
    },
    _COUNT, _TERMS, _COUNT, _COUNT, _FLOATS,
)
_REDUCE_PAYLOADS = st.builds(
    lambda spec, fixed, n, terms, bits, verify, overrides: {
        "spec": dict(zip(("N", "K", "q_min"), spec)),
        "fixed_qubits": [list(f) for f in fixed],
        "hamiltonian": {"n_qubits": n, "terms": terms},
        "state_map": [{"rank": r, "bits": b} for r, b in enumerate(bits)],
        "verify": dict(zip(("max_deviation", "spectrum_bound", "spectrum_deviation", "passed"),
                           verify)),
        **({"overrides": overrides} if overrides else {}),
    },
    st.tuples(_COUNT, _COUNT, _COUNT),
    st.lists(st.tuples(_COUNT, st.integers(0, 1)), max_size=3),
    _COUNT,
    _TERMS,
    st.lists(st.text("01", max_size=6), max_size=4),
    st.tuples(_FLOATS, _FLOATS, st.one_of(st.none(), _FLOATS), st.booleans()),
    st.dictionaries(st.sampled_from(["dense_cap", "tolerance"]), st.one_of(_COUNT, _FLOATS)),
)
_STATS_PAYLOADS = st.builds(
    lambda n, count, weight, mean: {
        "n_qubits": n, "term_count": count, "max_weight": weight, "mean_weight": mean,
    },
    _COUNT, _COUNT, _COUNT, _FLOATS,
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_ENCODE_PAYLOADS, _REDUCE_PAYLOADS, _STATS_PAYLOADS))
def test_json_writer_matches_json_dumps(payload):
    assert _joined(payload) == json.dumps(payload, indent=2)


def _joined(payload) -> str:
    """The writer's chunks for ``payload``, joined and decoded."""
    return b"".join(_json_chunks(payload)).decode()



# A small pool, so that many coefficients repeat.  The trusted constructor
# keeps -0.0 parts (PauliSum's own merge adds 0.0, which turns them into
# 0.0), as array results can hold them; NaN is above PRUNE_TOL only beside
# an infinite part.
_PARTS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300,
          math.inf, -math.inf, math.nan, 0.5, -0.25, 0.1, 1 / 3]
_SUMS = st.integers(1, 70).flatmap(
    lambda n: st.builds(
        lambda pairs: array_sum(n, {key: c for key, c in pairs if abs(c) > PRUNE_TOL}),
        st.lists(
            st.tuples(
                st.tuples(st.integers(0, 2**n - 1), st.integers(0, 2**n - 1)),
                st.builds(complex, st.sampled_from(_PARTS), st.sampled_from(_PARTS)),
            ),
            max_size=40,
        ),
    )
)


def _plain(obj):
    """``obj`` with every PauliSum replaced by its to_json_dict terms list."""
    if isinstance(obj, PauliSum):
        return obj.to_json_dict()["terms"]
    if isinstance(obj, dict):
        return {key: _plain(value) for key, value in obj.items()}
    return obj


@settings(max_examples=200, deadline=None)
@given(_SUMS, st.booleans(), _COUNT)
@example(PauliSum(3), True, 0)
@example(PauliSum(65), False, 0)
def test_json_writer_on_pauli_sums(s, top_level, count):
    """As encode writes a sum (top level) and as reduce does (nested)."""
    if top_level:
        payload = {"n_qubits": s.n_qubits, "terms": s, "stats": {"term_count": count}}
    else:
        payload = {
            "spec": {"N": count},
            "hamiltonian": {"n_qubits": s.n_qubits, "terms": s},
            "state_map": [{"rank": 0, "bits": "01"}],
        }
    text = _joined(payload)
    assert text == json.dumps(_plain(payload), indent=2)
    if not len(s):
        assert '"terms": []' in text
    # to_json_dict itself is unchanged: the loop reference's sorted items
    expected = [{"pauli": p, "re": c.real, "im": c.imag} for p, c in items_sorted_loop(s)]
    assert json.dumps(s.to_json_dict()["terms"]) == json.dumps(expected)


@pytest.mark.parametrize("d", [2, 70, 924])
def test_json_writer_on_state_maps(d):
    """A state map of d labels, 1 to 16 digits each, as reduce writes it
    (one level down) and nested deeper, is json's text of its list; so is
    an empty one."""
    rng = np.random.default_rng(d)
    for width in range(1, 17):
        labels = rng.integers(0, 1 << width, d)
        labels[:2] = [0, (1 << width) - 1]
        labels = tuple(labels.tolist())
        plain = [{"rank": r, "bits": format(label, f"0{width}b")} for r, label in enumerate(labels)]
        for wrap in (
            lambda m: {"spec": {"N": d}, "state_map": m, "verify": {"passed": True}},
            lambda m: {"a": {"b": m}},
        ):
            assert _joined(wrap(_state_map(labels, width))) == json.dumps(wrap(plain), indent=2)
    assert _joined({"state_map": _state_map((), 1)}) == json.dumps({"state_map": []}, indent=2)


@pytest.mark.parametrize("d", [255, 256, 257, 924])
def test_json_writer_chunks_state_maps(d):
    """A state map of d labels around one chunk and of the (12, 6) sector
    is json's text in chunks of at most _CHUNK_TERMS records, one chunk per
    _CHUNK_TERMS labels begun, beside the text before and after it."""
    width = 10
    labels = tuple(np.random.default_rng(d).integers(0, 1 << width, d).tolist())
    plain = [{"rank": r, "bits": format(label, f"0{width}b")} for r, label in enumerate(labels)]
    payload = {"spec": {"N": 12}, "state_map": _state_map(labels, width), "verify": {}}
    chunks = list(_json_chunks(payload))
    assert b"".join(chunks).decode() == json.dumps({**payload, "state_map": plain}, indent=2)
    assert max(chunk.count(b'"rank"') for chunk in chunks) <= _CHUNK_TERMS
    assert len(chunks) == 2 + math.ceil(d / _CHUNK_TERMS)


def _numbered_sum(n_terms: int, seed: int) -> PauliSum:
    """``n_terms`` distinct random 6-qubit terms; coefficients repeat, and
    some imaginary parts are -0.0."""
    rng = np.random.default_rng(seed)
    keys = rng.choice(4**6, n_terms, replace=False).tolist()
    re = rng.choice([0.5, -0.25, 0.1, 1 / 3, -3.0], n_terms) * rng.uniform(1, 2, n_terms)
    im = rng.choice([0.0, -0.0, 0.75, 1e-300], n_terms)
    return array_sum(6, {(k >> 6, k & 63): complex(r, i) for k, r, i in zip(keys, re, im)})


@pytest.mark.parametrize(
    "sizes",
    [(0, _CHUNK_TERMS), (_CHUNK_TERMS, 2 * _CHUNK_TERMS + 1), (2 * _CHUNK_TERMS + 1, 0)],
)
def test_json_writer_chunk_boundaries(sizes):
    """Two sums in one payload, with no terms, exactly one chunk of terms
    and two chunks and one term: every chunk holds at most _CHUNK_TERMS
    terms, and the chunks join to json's text."""
    a, b = (_numbered_sum(size, seed) for seed, size in enumerate(sizes))
    payload = {
        "hamiltonian": {"n_qubits": 6, "terms": a},
        "twin": {"n_qubits": 6, "terms": b},
        "stats": {"term_count": len(a) + len(b)},
    }
    chunks = list(_json_chunks(payload))
    assert b"".join(chunks).decode() == json.dumps(_plain(payload), indent=2)
    assert max(chunk.count(b'"pauli"') for chunk in chunks) <= _CHUNK_TERMS
    # the text around the sums is three chunks: before, between and after them
    assert len(chunks) == 3 + sum(max(1, math.ceil(t / _CHUNK_TERMS)) for t in sizes)


def _significant_digits(v: float) -> int:
    return len(repr(abs(v)).split("e")[0].replace(".", "").strip("0"))


def test_json_writer_spells_distinct_doubles_across_chunks():
    """More than two chunks of terms whose parts are random doubles that
    need 17 significant digits, with a _PARTS value in every fourth term
    (NaN beside an infinite part): more distinct parts than one batch of the
    spelling table holds, so each batch serves several chunks, and special
    values sit between ordinary ones."""
    rng = np.random.default_rng(29)
    n_terms = _SPELL_BATCH // 2 + 2 * _CHUNK_TERMS + 1
    doubles = (
        v for v in rng.integers(0, 2**64, 8 * n_terms, dtype=np.uint64).view(np.float64).tolist()
        if _significant_digits(v) == 17 and math.isfinite(v)
    )
    coeffs = []
    while len(coeffs) < n_terms:
        c = complex(next(doubles), next(doubles))
        if len(coeffs) % 4 == 0:
            special = _PARTS[len(coeffs) // 4 % len(_PARTS)]
            c = complex(special, math.inf if math.isnan(special) else c.imag)
        if abs(c) > PRUNE_TOL:
            coeffs.append(c)
    keys = rng.choice(4**6, n_terms, replace=False).tolist()
    s = array_sum(6, {(k >> 6, k & 63): c for k, c in zip(keys, coeffs)})
    parts = np.array(coeffs).view(np.float64)
    assert np.unique(parts.view(np.uint64)).size > _SPELL_BATCH
    assert sum(_significant_digits(v) == 17 for v in parts.tolist()) > 0.8 * parts.size
    payload = {"hamiltonian": {"n_qubits": 6, "terms": s}, "stats": {"term_count": n_terms}}
    chunks = list(_json_chunks(payload))
    assert len(chunks) == 2 + math.ceil(n_terms / _CHUNK_TERMS)
    assert b"".join(chunks).decode() == json.dumps(_plain(payload), indent=2)


def _assert_spelled_as_repr(bits: np.ndarray) -> None:
    assert _spellings(bits).tolist() == spellings_repr(bits)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(), min_size=100, max_size=1000))
def test_spellings_match_repr_on_floats(values):
    _assert_spelled_as_repr(np.array(values, dtype=np.float64).view(np.uint64))


@settings(max_examples=150, deadline=None)
@given(st.binary(min_size=8 * 256, max_size=8 * 1024))
def test_spellings_match_repr_on_bit_patterns(raw):
    """Any 64 bits, viewed as a double: mostly 17-digit values, spread over
    every exponent, NaN payloads included."""
    _assert_spelled_as_repr(np.frombuffer(raw[: len(raw) // 8 * 8], dtype=np.uint64))


def _edge_doubles(stride: int = 1, reach: int = 1000) -> np.ndarray:
    """Bit patterns where the spelling's rules change: every power of two
    with both neighbours (an exponent step, where the interval below the
    value is half as wide), the 2^18 smallest subnormals, the integers up to
    200,000 and 2^53 +- 1000, every power of ten, ``reach`` neighbours on
    each side of 1e-4, 1e-5, 1e16 and 1e17 (where positional and exponent
    forms switch), and zero, the largest double, NaN and infinity; each with
    both signs.  ``stride`` thins the two large families."""
    one = np.uint64(1)
    powers = np.concatenate([
        np.arange(1, 2047, dtype=np.uint64) << np.uint64(52),
        one << np.arange(52, dtype=np.uint64),
    ])
    switches = np.array([1e-4, 1e-5, 1e16, 1e17]).view(np.uint64)
    specials = np.array([0.0, np.finfo(np.float64).max, np.nan, np.inf]).view(np.uint64)
    positive = np.concatenate([
        powers - one, powers, powers + one,
        np.arange(1, 2**18, stride, dtype=np.uint64),
        np.arange(1, 200_001, stride, dtype=np.float64).view(np.uint64),
        (2**53 + np.arange(-1000, 1001)).astype(np.float64).view(np.uint64),
        np.array([float(f"1e{e}") for e in range(-323, 309)]).view(np.uint64),
        (switches[:, None] - np.uint64(reach) + np.arange(2 * reach + 1, dtype=np.uint64)).ravel(),
        specials,
        np.array([0x7FF0000000000001, 0x7FFFFFFFFFFFFFFF], dtype=np.uint64),  # NaN payloads
    ])
    return np.concatenate([positive, positive | np.uint64(1 << 63)])


def test_spellings_match_repr_on_edge_doubles():
    bits = _edge_doubles()
    assert bits.size > 900_000
    _assert_spelled_as_repr(bits)
    # the cases this kernel and Java's differ on, and both form switches
    values = [5e-324, 1e-323, 1.7976931348623157e308, 1e16, 9999999999999998.0,
              0.0001, 1e-05, 9.999999999999999e-05, 1e17, 1.2345678901234567e16, -0.0, 0.0]
    spelled = _spellings(np.array(values).view(np.uint64)).tolist()
    assert spelled == [repr(v).encode() for v in values]
    assert spelled[:2] == [b"5e-324", b"1e-323"]
    assert spelled[3:8] == [b"1e+16", b"9999999999999998.0", b"0.0001", b"1e-05", b"9.999999999999999e-05"]


def test_json_writer_spells_edge_doubles():
    """A sum whose parts are the edge doubles, thinned, each beside 1.0 (NaN
    beside an infinity, to stay above PRUNE_TOL), as json writes it."""
    parts = _edge_doubles(stride=61, reach=40).view(np.float64).tolist()
    coeffs = [complex(v, math.inf) if math.isnan(v) else complex(v, 1.0) if i % 2
              else complex(1.0, v) for i, v in enumerate(parts)]
    keys = np.random.default_rng(5).choice(4**9, len(coeffs), replace=False).tolist()
    s = array_sum(9, {(k >> 9, k & 511): c for k, c in zip(keys, coeffs)})
    payload = {"n_qubits": 9, "terms": s}
    assert _joined(payload) == json.dumps(_plain(payload), indent=2)


@pytest.mark.parametrize("command", ["reduce", "encode", "stats"])
def test_stdout_is_the_output_file_and_a_newline(tmp_path, capsys, command):
    ham = tmp_path / "h.txt"
    ham.write_text(DYADIC_HAMILTONIAN)
    encoded = tmp_path / "encoded.json"
    argv = {
        "reduce": ["reduce", "--modes", "6", "--fermions", "3", "--hermitize",
                   "--hamiltonian", str(ham), "--index-embed"],
        "encode": ["encode", "--modes", "6", "--hamiltonian", str(ham)],
        "stats": ["stats", "--input", str(encoded)],
    }[command]
    assert main(["encode", "--modes", "6", "--hamiltonian", str(ham), "--output", str(encoded)]) == 0
    out = tmp_path / "out.json"
    code, stdout, _ = run(capsys, *argv, "--output", str(out))
    assert (code, stdout) == (0, "")
    code, stdout, _ = run(capsys, *argv)
    assert code == 0
    assert stdout.encode() == out.read_bytes() + b"\n"



@pytest.mark.parametrize("command", ["encode", "reduce", "perm", "costs", "stats"])
def test_empty_output_name_is_a_usage_error(tmp_path, capsys, hop_file, command):
    """``--output ""`` names no file: exit 2, one error line, nothing on
    stdout, as for any other file that cannot be opened."""
    encoded = tmp_path / "encoded.json"
    assert main(["encode", "--modes", "2", "--hamiltonian", hop_file, "--output", str(encoded)]) == 0
    argv = {
        "encode": ["encode", "--modes", "2", "--hamiltonian", hop_file],
        "reduce": ["reduce", "--modes", "4", "--fermions", "2", "--hamiltonian", hop_file,
                   "--index-embed"],
        "perm": ["perm", "--modes", "4", "--mapping", "parity"],
        "costs": ["costs", "--modes", "4"],
        "stats": ["stats", "--input", str(encoded)],
    }[command]
    code, out, err = run(capsys, *argv, "--output", "")
    assert (code, out) == (2, "")
    assert err == "error: [Errno 2] No such file or directory: ''\n"

def test_json_writer_peak_below_the_text(tmp_path):
    """N=8, K=4 index embed: 11,872 terms, about 1 MB of text, written with
    less memory at its peak than the text takes."""
    spec = SectorSpec(8, 4)
    h = random_one_body(8, np.random.default_rng(7))
    s = encode_and_reduce(h, minimal_permutation_index_embed(spec), spec).pauli_sum
    assert len(s) == 11872
    path = tmp_path / "sum.json"
    tracemalloc.start()
    try:
        cli._emit({"n_qubits": s.n_qubits, "terms": s}, str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == json.dumps(s.to_json_dict(), indent=2).encode()
    assert peak < path.stat().st_size


@pytest.mark.parametrize("command", ["reduce", "encode"])
@pytest.mark.parametrize("coeff", ["nan 0", "0.5 inf", "-inf 0", "1e400 0", "0 -1e999"])
def test_nonfinite_coefficients_name_their_line(tmp_path, command, coeff):
    ham = tmp_path / "h.txt"
    ham.write_text(f"# hopping\n1 2 0.5 0\n\n2 1 {coeff}\n1 1 1 0\n")
    out = tmp_path / "out.json"
    argv = {
        "reduce": ["reduce", "--modes", "2", "--fermions", "1", "--index-embed"],
        "encode": ["encode", "--modes", "2"],
    }[command]
    _assert_located_usage_error([*argv, "--hamiltonian", str(ham), "--output", str(out)], "line 4:")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["encode", "--modes", "4"],
        ["reduce", "--modes", "4", "--fermions", "2", "--index-embed"],
        ["reduce", "--modes", "4", "--fermions", "2", "--mapping", "parity"],
    ],
)
def test_coefficients_that_overflow_when_added_are_a_usage_error(tmp_path, capsys, argv):
    """Four finite number operators of 1e308 add up to an infinite identity
    coefficient: exit 2 with one error line, before any numpy warning, with
    nothing on stdout and no file written."""
    ham = tmp_path / "h.txt"
    ham.write_text("".join(f"{p} {p} 1e308 0\n" for p in range(1, 5)))
    out = tmp_path / "out.json"
    error = "error: the encoded sum overflows: 1 of its 5 coefficients are not finite\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for output in (["--output", str(out)], []):
            assert run(capsys, *argv, "--hamiltonian", str(ham), *output) == (2, "", error)
    assert not out.exists()


_HOPPINGS = "1 2 1e308 0\n2 1 1e308 0\n3 4 1e308 0\n4 3 1e308 0\n"


@pytest.mark.parametrize(
    "text, selector, stage",
    [(_HOPPINGS, ["--index-embed"], "the Pauli decomposition"),
     ("1 1 1e308 0\n1 1 1e308 0\n", ["--mapping", "parity"], "the sector oracle"),
     ("1 1 1e308 0\n1 1 1e308 0\n", ["--index-embed"], "the dense conjugation")],
)
def test_finite_sums_whose_dense_forms_overflow_are_a_usage_error(
    tmp_path, capsys, monkeypatch, text, selector, stage
):
    """Each input encodes to a finite sum, but the conjugation of the
    hoppings (index embed), the sector oracle's sum of the two number terms
    (parity) or the scatter of their I and Z terms into one entry (index
    embed) passes the largest float: exit 2 with one error line naming the
    overflow, before any numpy warning and any eigensolve, with nothing on
    stdout and no file written."""
    ham = tmp_path / "h.txt"
    ham.write_text(text)
    out = tmp_path / "out.json"

    def eigvalsh(*args, **kwargs):
        raise AssertionError("an overflowed matrix reached the eigensolver")

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    argv = ["reduce", "--modes", "4", "--fermions", "2", *selector, "--hamiltonian", str(ham)]
    error = f"error: {stage} overflows: its sums pass the largest float\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for output in (["--output", str(out)], []):
            assert run(capsys, *argv, *output) == (2, "", error)
    assert not out.exists()


def test_hoppings_whose_hermitization_would_overflow_are_certified(tmp_path, capsys, monkeypatch):
    """With the parity map the 1e308 hoppings reduce to a sector block equal
    to the oracle, so ||B - O||_F = 0 certifies the spectra: exit 0 and
    ``passed``, with no numpy warning, no eigensolve and no hermitized
    matrix, whose sums would pass the largest float."""
    ham = tmp_path / "h.txt"
    ham.write_text(_HOPPINGS)

    def eigvalsh(*args, **kwargs):
        raise AssertionError("a certified check reached the eigensolver")

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run(capsys, "reduce", "--modes", "4", "--fermions", "2",
                           "--mapping", "parity", "--hamiltonian", str(ham))
    assert code == 0
    check = json.loads(out)["verify"]
    assert check["passed"] is True
    assert check["spectrum_bound"] == 0.0 and check["spectrum_deviation"] is None


@pytest.mark.parametrize("selector", [["--mapping", "parity"], ["--index-embed"]])
def test_projections_that_overflow_are_a_usage_error(tmp_path, capsys, selector):
    """At N=2, K=1 either table is affine, so the number terms' I and Z
    partners meet in the projection, where their sum passes the largest
    float: exit 2 with one error line naming it, before any numpy warning,
    with nothing on stdout and no file written."""
    ham = tmp_path / "h.txt"
    ham.write_text("1 1 1.7e308 0\n2 2 -1.7e308 0\n")
    out = tmp_path / "out.json"
    argv = ["reduce", "--modes", "2", "--fermions", "1", *selector, "--hermitize"]
    error = "error: the projection overflows: its sums pass the largest float\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for output in (["--output", str(out)], []):
            assert run(capsys, *argv, "--hamiltonian", str(ham), *output) == (2, "", error)
    assert not out.exists()


# --- fuzzed parsers ---------------------------------------------------------
# Each input is valid lines (with comments and blank lines between them) and
# one malformed line; the error must name that line.  Three modes throughout.

_FILLER = st.sampled_from(["", "   ", "# comment", "  # 1 2 x"])
_WIRE = st.integers(1, 3).map(str)
_NUMBER = st.sampled_from(["0", "1", "-0.5", "2.5e-3", "1e300", "-1e-320"])
_NONFINITE = st.sampled_from(["nan", "-inf", "inf", "1e400", "-1e999"])


def _with_bad_line(good, bad):
    """(text, line number of the bad line), good lines around the bad one."""
    around = st.lists(st.one_of(good, _FILLER), max_size=4)
    return st.tuples(around, bad, around).map(
        lambda t: ("\n".join([*t[0], t[1], *t[2]]) + "\n", len(t[0]) + 1)
    )


_HAMILTONIAN_GOOD = st.one_of(
    st.tuples(_WIRE, _WIRE, _NUMBER, _NUMBER),
    st.tuples(_WIRE, _WIRE, _WIRE, _WIRE, _NUMBER, _NUMBER),
).map(" ".join)
_HAMILTONIAN_BAD = st.one_of(
    st.lists(_WIRE, min_size=1, max_size=7).filter(lambda t: len(t) not in (4, 6)).map(" ".join),
    st.tuples(st.sampled_from(["x", "1.5", "0x1", "--1"]), _WIRE, _NUMBER, _NUMBER).map(" ".join),
    st.tuples(_WIRE, _WIRE, _NUMBER, st.sampled_from(["i", "1j", "e3"])).map(" ".join),
    st.tuples(st.sampled_from(["0", "4", "-1"]), _WIRE, _NUMBER, _NUMBER).map(" ".join),
    st.tuples(_WIRE, _WIRE, _NONFINITE, _NUMBER).map(" ".join),
    st.tuples(_WIRE, _WIRE, _WIRE, _WIRE, _NUMBER, _NONFINITE).map(" ".join),
)
_CIRCUIT_GOOD = st.one_of(
    _WIRE.map("X {}".format),
    st.permutations(["1", "2", "3"]).map(lambda w: f"CNOT {w[0]} {w[1]}"),
    st.permutations(["1", "2", "3"]).map(lambda w: "TOFFOLI " + " ".join(w)),
)
_CIRCUIT_BAD = st.sampled_from(
    ["FOO 1", "X", "X 1 2", "CNOT 1", "TOFFOLI 1 2", "MCX 1 2", "X a", "CNOT 1 b",
     "X 0", "X 4", "CNOT 2 2", "TOFFOLI 1 1 3"]
)


def _main_captured(argv):
    """``main(argv)`` with its stdout and stderr captured per call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_located_usage_error(argv, located):
    code, out, err = _main_captured(argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert located in err


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "h.txt").write_text(HOPPING)
    return path


@settings(max_examples=100, deadline=None)
@given(_with_bad_line(_HAMILTONIAN_GOOD, _HAMILTONIAN_BAD))
def test_fuzz_hamiltonian_errors_name_the_line(fuzz_dir, case):
    text, line = case
    (fuzz_dir / "bad.txt").write_text(text)
    _assert_located_usage_error(
        ["encode", "--modes", "3", "--hamiltonian", str(fuzz_dir / "bad.txt")], f"line {line}:"
    )


@settings(max_examples=100, deadline=None)
@given(_with_bad_line(_CIRCUIT_GOOD, _CIRCUIT_BAD))
def test_fuzz_circuit_errors_name_the_line(fuzz_dir, case):
    text, line = case
    (fuzz_dir / "bad.txt").write_text(text)
    _assert_located_usage_error(
        ["perm", "--modes", "3", "--circuit", str(fuzz_dir / "bad.txt")], f"line {line}:"
    )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from(["100", "010", "001", "1 1 0", "111"]), min_size=2, max_size=2),
    st.integers(0, 2),
    st.sampled_from(["102", "1a0", "10", "1000", "1", "01-"]),
    st.lists(_FILLER, min_size=4, max_size=4),
)
def test_fuzz_matrix_errors_name_the_line(fuzz_dir, good, bad_at, bad, fillers):
    """Three rows, one of them malformed: a bad digit or the wrong length."""
    rows = [*good[:bad_at], bad, *good[bad_at:]]
    lines = [fillers[0]]
    for row, filler in zip(rows, fillers[1:]):
        lines += [row, filler]
    (fuzz_dir / "m.txt").write_text("\n".join(lines) + "\n")
    _assert_located_usage_error(
        ["encode", "--modes", "3", "--hamiltonian", str(fuzz_dir / "h.txt"),
         "--matrix", str(fuzz_dir / "m.txt")],
        f"line {lines.index(bad) + 1}:",
    )


_STATE = st.integers(0, 7).map(str)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(_STATE, min_size=1, max_size=3), max_size=3),
    st.lists(_STATE, max_size=3),
    st.sampled_from(["x", "", " y ", "1.5", "(", "0x2"]),
    st.sampled_from(["token", "open", "close"]),
)
def test_fuzz_cycles_errors_name_the_position(prefix, before, bad, kind):
    """Well-formed cycles, then an error; the message names where it starts."""
    head = "".join("(" + ",".join(c) + ")" for c in prefix)
    if kind == "token":
        text = head + "(" + ",".join([*before, bad]) + ",1)"
        at = len(head) + 1 + sum(len(t) + 1 for t in before) + len(bad) - len(bad.lstrip())
        located = f"position {at} "
    elif kind == "open":
        text, located = head + "1,2)", f"'(' at position {len(head)} "
    else:
        text, located = head + "(1,2", f"parenthesis at position {len(head)} "
    _assert_located_usage_error(["perm", "--modes", "3", "--cycles", text], located)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["hamiltonian", "circuit", "matrix", "cycles"]),
    st.text(" \n#()-+.,01234579aeinxCNOTXMF", max_size=40),
)
def test_fuzz_parsers_never_raise(fuzz_dir, parser, text):
    """Arbitrary text: a result or a usage error, never a traceback."""
    path = str(fuzz_dir / "any.txt")
    (fuzz_dir / "any.txt").write_text(text)
    ham = str(fuzz_dir / "h.txt")
    argv = {
        "hamiltonian": ["encode", "--modes", "3", "--hamiltonian", path],
        "circuit": ["perm", "--modes", "3", "--circuit", path],
        "matrix": ["encode", "--modes", "3", "--hamiltonian", ham, "--matrix", path],
        "cycles": ["perm", "--modes", "3", f"--cycles={text}"],
    }[parser]
    code, _, err = _main_captured(argv)
    assert code in (0, 2)
    assert "Traceback" not in err
    assert code == 0 or err.startswith("error: ")
