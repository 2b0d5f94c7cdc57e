"""Command-line interface: encode, reduce, perm, verify, costs, stats.

Exit codes are a stable contract: 0 success, 1 verification failure,
2 usage or parse error.  All output is deterministic for identical inputs;
Pauli terms are always emitted in lexicographic letter order.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from typing import Iterator, Optional, Sequence

import numpy as np

from .encodings import (
    FermionOperator,
    LinearEncodingF2,
    _coerce_majorana,
    jw_majoranas,
    linear_encoding_majoranas,
    parity_majoranas,
    encode_fermion_operator,
    parse_hamiltonian,
    random_one_body,
)
from .errors import FermipermError
from .minimal import (
    SectorSpec,
    appendix_verify,
    costs_csv,
    minimal_permutation_index_embed,
    redundant_qubits,
    synthesize_permutation,
)
from .pauli import DENSE_CAP, PauliString, PauliSum, commutes
from .permutations import (
    BasisPermutation,
    GateCircuit,
    _check_permutation_cap,
    conjugate_pauli_dense,
    from_cycles,
    parse_cycles,
    permutation_from_circuit,
)
from .reduction import ORACLE_TOL, encode_and_reduce, verify_reduction

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2


def parse_matrix_text(text: str) -> np.ndarray:
    """Rows of 0/1 digits (spaces allowed), '#' comments."""
    rows = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        digits = line.replace(" ", "")
        if not set(digits) <= {"0", "1"}:
            raise ValueError(f"line {line_no}: matrix rows must be 0/1 digits")
        rows.append((line_no, [int(ch) for ch in digits]))
    if not rows:
        raise ValueError("matrix must be square and non-empty")
    for line_no, row in rows:
        if len(row) != len(rows):
            raise ValueError(
                f"line {line_no}: matrix must be square, but this row has "
                f"{len(row)} digits and the matrix {len(rows)} rows"
            )
    return np.array([row for _, row in rows], dtype=np.uint8)


def _load_matrix(args) -> np.ndarray:
    """The ``--matrix`` file, checked against ``--modes``."""
    with open(args.matrix) as fh:
        m = parse_matrix_text(fh.read())
    if m.shape[0] != args.modes:
        raise ValueError(f"matrix is {m.shape[0]}x{m.shape[0]} but --modes is {args.modes}")
    return m


def _positive_int(text: str) -> int:
    """argparse type of ``--modes``, ``--trials`` and ``--dense-cap``: an
    integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type of ``--tolerance``: a finite number above 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number above 0, got {text}")
    return value


def _add_perm_selector(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--mapping", choices=["jw", "parity"], help="named linear encoding")
    group.add_argument("--matrix", metavar="FILE", help="GF(2) encoding matrix file")
    group.add_argument("--cycles", metavar="CYCLES", help='cycle string like "(0,2)(1,12)"')
    group.add_argument("--circuit", metavar="FILE", help="gate-per-line circuit file")
    group.add_argument(
        "--index-embed",
        action="store_true",
        help="rank-labelling permutation for the (N, K) sector",
    )


def _linear_encoding(args) -> LinearEncodingF2:
    """The encoding ``--matrix`` or ``--mapping`` selects: Jordan-Wigner
    when neither is given."""
    if args.matrix is not None:
        return LinearEncodingF2(_load_matrix(args))
    if args.mapping == "parity":
        return LinearEncodingF2.parity(args.modes)
    return LinearEncodingF2.jordan_wigner(args.modes)


def _resolve_permutation(args) -> BasisPermutation | LinearEncodingF2:
    """A linear encoding as its map, with no 2^N table; any other as its table."""
    n = args.modes
    if args.matrix is not None or args.mapping is not None:
        _check_permutation_cap(n)  # before the n x n matrix is built or read
        return _linear_encoding(args)
    if args.cycles is not None:
        return from_cycles(n, parse_cycles(args.cycles))
    if args.circuit is not None:
        with open(args.circuit) as fh:
            circuit = GateCircuit.from_text(n, fh.read())
        return permutation_from_circuit(circuit)
    if args.fermions is None:
        raise ValueError("--index-embed needs --fermions")
    return minimal_permutation_index_embed(SectorSpec(n, args.fermions))


# Terms per chunk of a streamed Pauli sum: about 25 kB of JSON text.  The
# join of a chunk's 6 pieces per term holds an 80-byte buffer view per piece.
_CHUNK_TERMS = 1 << 8
# Distinct floats per repr of a list: about 100 kB of text at a time.
_SPELL_BATCH = 1 << 12


def _emit(payload, output: Optional[str]) -> None:
    """Write a JSON payload (a dict, as ``_json_chunks`` spells it) or a
    text to the file ``output`` or, when it is not given, to stdout with a
    newline added if the text lacks one.

    The text is written a chunk at a time and never held whole.  The file
    is opened only once the first chunk exists, so an error raised before
    it leaves no file behind."""
    chunks = _json_chunks(payload) if isinstance(payload, dict) else iter([payload.encode()])
    chunks = itertools.chain([next(chunks)], chunks)
    if output is not None:
        with open(output, "wb") as fh:
            fh.writelines(chunks)
        return
    last = b""
    for chunk in chunks:
        sys.stdout.write(chunk.decode())
        last = chunk[-1:] or last
    if last != b"\n":
        sys.stdout.write("\n")


def _json_chunks(payload: dict) -> Iterator[bytes]:
    """Exactly ``json.dumps(payload, indent=2)``, encoded, in chunks, where a
    ``PauliSum`` value (in the payload or a nested dict) stands for its
    sorted terms list, the ``"terms"`` of ``PauliSum.to_json_dict``.

    Sums are written straight from their term arrays, ``_CHUNK_TERMS`` terms
    a chunk (see ``_terms_chunks``).  Everything else goes through json,
    whose encoder is pure Python once ``indent`` is set.
    """
    # stands in for each sum; the CLI's payloads hold no NUL character
    marker = "\0terms"
    sums: list[tuple[PauliSum, str]] = []
    marked = _mark_sums(payload, marker, 0, sums)
    head, *tails = json.dumps(marked, indent=2).split(json.dumps(marker))
    yield head.encode()
    for (s, indent), tail in zip(sums, tails):
        yield from _terms_chunks(s, indent)
        yield tail.encode()


def _mark_sums(obj, marker: str, depth: int, sums: list):
    """``obj`` with each ``PauliSum`` in it replaced by ``marker``; the sum
    and the indent of its lines are appended to ``sums`` in the order json
    will write them.

    A module function, not a closure: a recursive closure is a reference
    cycle, which would keep ``sums`` alive until the garbage collector
    runs."""
    if isinstance(obj, PauliSum):
        sums.append((obj, "  " * depth))
        return marker
    if not isinstance(obj, dict):
        return obj
    return {key: _mark_sums(value, marker, depth + 1, sums) for key, value in obj.items()}


def _terms_chunks(s: PauliSum, indent: str) -> Iterator[bytes]:
    """Chunks that join to ``json.dumps(s.to_json_dict()["terms"], indent=2)``,
    encoded, with every line after the first indented by ``indent``.

    Each distinct float bit pattern is spelled once, as json does: the
    sorted distinct values go through one ``repr`` of their list a batch of
    ``_SPELL_BATCH`` at a time, split at its separators, and NaN and the
    infinities are renamed as json spells them.  A chunk looks its parts
    up in that table; it is one join of the constant separators, the
    sorted letters and the spellings of the chunk's terms, interleaved."""
    letters, coeff = s._sorted_terms()
    if not letters.size:
        yield b"[]"
        return
    parts = coeff.view(np.float64).view(np.uint64)  # re, im per term
    bits = np.sort(parts)  # np.unique(parts) gives the same, ten times slower
    bits = bits[np.append(True, bits[1:] != bits[:-1])]
    values = bits.view(np.float64)
    spelled = np.empty(bits.size, dtype=object)
    for start in range(0, bits.size, _SPELL_BATCH):
        batch = slice(start, start + _SPELL_BATCH)
        spelled[batch] = repr(values[batch].tolist()).encode()[1:-1].split(b", ")
    json_names = {b"nan": b"NaN", b"inf": b"Infinity", b"-inf": b"-Infinity"}
    for index in np.flatnonzero(~np.isfinite(values)).tolist():
        spelled[index] = json_names[spelled[index]]
    item = (indent + "  ").encode()
    opening = b"\n" + item + b'{\n' + item + b'  "pauli": "'
    closing = b"\n" + item + b"}"
    term = [closing + b"," + opening, None, b'",\n' + item + b'  "re": ',
            None, b",\n" + item + b'  "im": ', None]
    for start in range(0, letters.size, _CHUNK_TERMS):
        stop = min(start + _CHUNK_TERMS, letters.size)
        spelling = spelled[np.searchsorted(bits, parts[2 * start : 2 * stop])].tolist()
        pieces = term * (stop - start)
        pieces[1::6] = letters[start:stop].tolist()
        pieces[3::6] = spelling[0::2]
        pieces[5::6] = spelling[1::2]
        if start == 0:
            pieces[0] = b"[" + opening  # the list opens where later terms close the last
        if stop == letters.size:
            pieces.append(closing + b"\n" + indent.encode() + b"]")
        yield b"".join(pieces)
        del pieces, spelling  # before the next chunk's lists are built


def _load_hamiltonian(args) -> FermionOperator:
    with open(args.hamiltonian) as fh:
        return parse_hamiltonian(
            fh.read(), n_modes=args.modes, hermitize=args.hermitize
        )


def cmd_encode(args) -> int:
    h = _load_hamiltonian(args)
    # A named mapping takes its closed-form Majoranas: the same strings as
    # its matrix gives, without the O(N^2) elimination that checks a matrix.
    if args.matrix is not None:
        majoranas = linear_encoding_majoranas(_linear_encoding(args))
    elif args.mapping == "parity":
        majoranas = parity_majoranas(args.modes)
    else:
        majoranas = jw_majoranas(args.modes)
    encoded = encode_fermion_operator(h, majoranas)
    payload = {"n_qubits": encoded.n_qubits, "terms": encoded, "stats": _sum_stats(encoded)}
    _emit(payload, args.output)
    return EXIT_OK


def _sum_stats(s: PauliSum) -> dict:
    return {
        "term_count": len(s),
        "max_weight": s.max_weight(),
        "mean_weight": round(s.mean_weight(), 12),
    }


def cmd_reduce(args) -> int:
    spec = SectorSpec(args.modes, args.fermions)
    h = _load_hamiltonian(args)
    p = _resolve_permutation(args)
    given = (("dense_cap", args.dense_cap), ("tolerance", args.tolerance))
    overrides = {name: value for name, value in given if value is not None}
    cap = overrides.get("dense_cap", DENSE_CAP)
    tol = overrides.get("tolerance", ORACLE_TOL)
    rh = encode_and_reduce(h, p, spec, dense_cap=cap)
    check = verify_reduction(rh, h, tol=tol, dense_cap=cap)

    width = rh.pauli_sum.n_qubits
    payload = {
        "spec": {"N": spec.n_modes, "K": spec.n_fermions, "q_min": spec.q_min},
        "fixed_qubits": [[q, v] for q, v in rh.report.fixed],
        "hamiltonian": {"n_qubits": width, "terms": rh.pauli_sum},
        "state_map": [
            {"rank": r, "bits": format(label, f"0{width}b")} for r, label in enumerate(rh.labels)
        ],
        "verify": {
            "max_deviation": check.max_deviation,
            "spectrum_deviation": check.spectrum_deviation,
            "passed": check.passed,
        },
    }
    if overrides:
        payload["overrides"] = overrides
    _emit(payload, args.output)
    return EXIT_OK if check.passed else EXIT_VERIFY_FAILED


def cmd_perm(args) -> int:
    p = _resolve_permutation(args)
    table = p if isinstance(p, BasisPermutation) else p.to_permutation()  # for `cycles:`
    lines = [f"cycles: {table.cycle_string()}"]
    lines.append(f"affine: {'yes' if p.affine is not None else 'no'}")
    spec = SectorSpec(args.modes, args.fermions) if args.fermions is not None else None
    if spec is not None:
        report = redundant_qubits(p, spec)
        desc = "; ".join(f"qubit {q} = {v}" for q, v in report.fixed) or "none"
        lines.append(f"redundant: {desc}")
    if args.synthesize:
        rep = synthesize_permutation(p, sector=spec)
        lines.append(
            "synthesis: "
            f"gates={rep.total_gates} cnot={rep.cnot_count} x={rep.x_count} "
            f"nonclifford={rep.nonclifford_count} transpositions={rep.transposition_count}"
        )
        lines.append("circuit:")
        lines.append(rep.circuit.to_text())
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_costs(args) -> int:
    _emit(costs_csv(args.modes), args.output)
    return EXIT_OK


def cmd_stats(args) -> int:
    with open(args.input) as fh:
        data = json.load(fh)
    s = PauliSum.from_json_dict(data)
    payload = {"n_qubits": s.n_qubits, **_sum_stats(s)}
    _emit(payload, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suites


def anticommutation_suite(majoranas) -> tuple[int, list[str]]:
    """Check that every Majorana squares to the identity and that every
    pair anticommutes.

    ``majoranas`` is a list of (plain, primed) pairs of PauliString or
    PauliSum.  A family of strings is checked on its masks and phases; any
    other family is made dense once.  Returns (number of checks, failure
    descriptions).
    """
    names = [f"{g}{j}" for j in range(1, len(majoranas) + 1) for g in ("g", "g'")]
    ops = [op for pair in majoranas for op in pair]
    if all(isinstance(op, PauliString) for op in ops):
        def bad_square(a) -> bool:
            sq = a * a
            return (sq.x_bits, sq.z_bits, sq.phase) != (0, 0, 0)

        bad_pair, pair_failure = commutes, "{} and {} commute"
    else:
        ops = [_coerce_majorana(op).to_dense() for op in ops]
        eye = np.eye(ops[0].shape[0])

        def bad_square(a) -> bool:
            return not np.array_equal(a @ a, eye)

        def bad_pair(a, b) -> bool:
            return np.max(np.abs(a @ b + b @ a)) != 0.0

        pair_failure = "{{ {}, {} }} != 0"
    failures = []
    for i, a in enumerate(ops):
        if bad_square(a):
            failures.append(f"{names[i]}^2 != I")
        for j in range(i + 1, len(ops)):
            if bad_pair(a, ops[j]):
                failures.append(pair_failure.format(names[i], names[j]))
    return len(ops) * (len(ops) + 1) // 2, failures


def random_minimal_majoranas(
    spec: SectorSpec, rng: np.random.Generator
) -> list[tuple[PauliSum, PauliSum]]:
    """JW Majoranas conjugated by an index-embed permutation whose
    non-sector completion is randomized."""
    p = minimal_permutation_index_embed(spec, completion="random", rng=rng)
    return [
        (
            conjugate_pauli_dense(p, PauliSum.from_pauli(g)),
            conjugate_pauli_dense(p, PauliSum.from_pauli(gp)),
        )
        for g, gp in jw_majoranas(spec.n_modes)
    ]


def cmd_verify_appendix(args) -> int:
    report = appendix_verify(args.n)
    print(f"{report.matrix_count} matrices, max constant digits {report.max_constant_digits}")
    if report.max_constant_digits != 1:
        print(f"counterexample rows (bit masks): {report.witness}")
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_verify_anticommutation(args) -> int:
    n = args.modes
    rng = np.random.default_rng(args.seed)
    suites = []
    if args.mapping in (None, "jw"):
        suites.append(("jw", jw_majoranas(n)))
    if args.mapping in (None, "parity"):
        suites.append(("parity", parity_majoranas(n)))
    if args.mapping in (None, "random-minimal"):
        for k in range(1, n):
            spec = SectorSpec(n, k)
            for t in range(args.trials):
                suites.append((f"minimal(K={k},#{t})", random_minimal_majoranas(spec, rng)))
    if not suites:
        raise ValueError(f"--mapping random-minimal needs at least 2 modes, got {n}")
    bad = 0
    for name, majos in suites:
        checks, failures = anticommutation_suite(majos)
        print(f"{name}: {checks} checks {'FAIL' if failures else 'pass'}")
        for f in failures[:1]:
            print(f"  counterexample: {f}")
        bad += len(failures)
    return EXIT_OK if bad == 0 else EXIT_VERIFY_FAILED


def cmd_verify_oracle(args) -> int:
    spec = SectorSpec(args.modes, args.fermions)
    rng = np.random.default_rng(args.seed)
    tol = args.tolerance if args.tolerance is not None else ORACLE_TOL
    p = minimal_permutation_index_embed(spec)
    worst = 0.0
    for _ in range(args.trials):
        h = random_one_body(spec.n_modes, rng)
        rh = encode_and_reduce(h, p, spec)
        check = verify_reduction(rh, h, tol=tol)
        worst = max(worst, check.max_deviation)
        if not check.passed:
            print(f"FAIL: deviation {check.max_deviation:g} exceeds {tol:g}")
            return EXIT_VERIFY_FAILED
    print(f"{args.trials} trials pass, max deviation {worst:.3g}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermiperm",
        description="Permutation-based fermion-to-qubit encodings and sector reduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="encode a fermionic Hamiltonian file")
    enc.add_argument("--modes", type=_positive_int, required=True)
    enc.add_argument("--hamiltonian", required=True, metavar="FILE")
    enc.add_argument("--hermitize", action="store_true")
    enc.add_argument("--output", metavar="FILE")
    group = enc.add_mutually_exclusive_group()
    group.add_argument("--mapping", choices=["jw", "parity"])
    group.add_argument("--matrix", metavar="FILE")
    enc.set_defaults(func=cmd_encode)

    red = sub.add_parser("reduce", help="encode, conjugate, and project a sector")
    red.add_argument("--modes", type=_positive_int, required=True)
    red.add_argument("--fermions", type=int, required=True)
    red.add_argument("--hamiltonian", required=True, metavar="FILE")
    red.add_argument("--hermitize", action="store_true")
    red.add_argument("--tolerance", type=_positive_float, help="oracle comparison tolerance")
    red.add_argument(
        "--dense-cap", type=_positive_int, help="override the dense-matrix qubit cap"
    )
    red.add_argument("--output", metavar="FILE")
    _add_perm_selector(red)
    red.set_defaults(func=cmd_reduce)

    perm = sub.add_parser("perm", help="inspect or synthesize a basis permutation")
    perm.add_argument("--modes", type=_positive_int, required=True)
    perm.add_argument("--fermions", type=int)
    perm.add_argument("--synthesize", action="store_true")
    perm.add_argument("--output", metavar="FILE")
    _add_perm_selector(perm)
    perm.set_defaults(func=cmd_perm)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver_sub = ver.add_subparsers(dest="suite", required=True)
    v_anti = ver_sub.add_parser("anticommutation")
    v_anti.add_argument("--modes", type=_positive_int, required=True)
    v_anti.add_argument("--mapping", choices=["jw", "parity", "random-minimal"])
    v_anti.add_argument("--trials", type=_positive_int, default=2)
    v_anti.add_argument("--seed", type=int, default=0)
    v_anti.set_defaults(func=cmd_verify_anticommutation)
    v_app = ver_sub.add_parser("appendix")
    v_app.add_argument("--n", type=int, required=True, choices=[2, 3, 4, 5])
    v_app.set_defaults(func=cmd_verify_appendix)
    v_orc = ver_sub.add_parser("oracle")
    v_orc.add_argument("--modes", type=_positive_int, required=True)
    v_orc.add_argument("--fermions", type=int, required=True)
    v_orc.add_argument("--trials", type=_positive_int, default=20)
    v_orc.add_argument("--seed", type=int, default=0)
    v_orc.add_argument("--tolerance", type=_positive_float)
    v_orc.set_defaults(func=cmd_verify_oracle)

    costs = sub.add_parser("costs", help="qubit-cost table as CSV")
    costs.add_argument("--modes", type=_positive_int, required=True)
    costs.add_argument("--output", metavar="FILE")
    costs.set_defaults(func=cmd_costs)

    stats = sub.add_parser("stats", help="term statistics of a Pauli-sum JSON file")
    stats.add_argument("--input", required=True, metavar="FILE")
    stats.add_argument("--output", metavar="FILE")
    stats.set_defaults(func=cmd_stats)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (FermipermError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
