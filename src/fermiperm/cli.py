"""Command-line interface: encode, reduce, perm, verify, costs, stats.

Exit codes are a stable contract: 0 success, 1 verification failure,
2 usage, parse or resource error.  All output is deterministic for
identical inputs; Pauli terms are always emitted in lexicographic letter order.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .encodings import (
    FermionOperator,
    LinearEncodingF2,
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
    _check_storage_cap,
    conjugate_pauli_dense,
    from_cycles,
    parse_cycles,
    permutation_from_circuit,
)
from .reduction import ORACLE_TOL, SPECTRUM_TOL, encode_and_reduce, verify_reduction

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


def _resolve_permutation(args, spec: Optional[SectorSpec]) -> BasisPermutation | LinearEncodingF2:
    """A linear encoding as its map, with no 2^N table; any other as its table."""
    n = args.modes
    if args.matrix is not None or args.mapping is not None:
        return _linear_encoding(args)
    if args.cycles is not None:
        return from_cycles(n, parse_cycles(args.cycles))
    if args.circuit is not None:
        with open(args.circuit) as fh:
            circuit = GateCircuit.from_text(n, fh.read())
        return permutation_from_circuit(circuit)
    if spec is None:
        raise ValueError("--index-embed needs --fermions")
    return minimal_permutation_index_embed(spec)


# Records per chunk of a streamed JSON list: about 25 kB of a Pauli sum's
# text.  The join holds an 80-byte buffer view per piece, 6 per term.
_CHUNK_TERMS = 1 << 8
# Distinct floats per batch of the spelling kernel (``_spellings``).
_SPELL_BATCH = 1 << 12
# Bytes of the longest spelling, "-2.2250738585072014e-308".
_SPELL_WIDTH = 24
# Spellings laid out per gather: an index of 8 bytes a byte, 98 kB.
_GATHER_ROWS = 1 << 9


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


class _Records(NamedTuple):
    """A JSON list of ``count`` flat objects: ``fields`` pairs each key with
    whether its value is a quoted string, and ``columns()``, called once json
    reaches the list, gives per key a function spelling records start to stop."""

    fields: tuple[tuple[str, bool], ...]
    count: int
    columns: Callable[[], Sequence[Callable[[int, int], list]]]


def _json_chunks(payload: dict) -> Iterator[bytes]:
    """Exactly ``json.dumps(payload, indent=2)``, encoded, in chunks, where a
    ``_Records`` value (in the payload or a nested dict) stands for its list
    and a ``PauliSum`` for the records of ``_term_records``.

    Each list is written by ``_records_chunks``; everything else goes
    through json, whose encoder is pure Python once ``indent`` is set.
    """
    # stands in for each such value; the CLI's payloads hold no NUL character
    marker = "\0spelled"
    spelled: list[tuple[_Records, str]] = []
    marked = _mark_spelled(payload, marker, 0, spelled)
    head, *tails = json.dumps(marked, indent=2).split(json.dumps(marker))
    yield head.encode()
    for (records, indent), tail in zip(spelled, tails):
        yield from _records_chunks(records, indent)
        yield tail.encode()


def _mark_spelled(obj, marker: str, depth: int, spelled: list):
    """``obj`` with each ``_Records`` and ``PauliSum`` in it replaced by
    ``marker``; the records and the indent of their lines are appended to
    ``spelled`` in the order json will write them.

    A module function, not a closure: a recursive closure is a reference
    cycle, which would keep ``spelled`` alive until the garbage collector
    runs."""
    if isinstance(obj, PauliSum):
        obj = _term_records(obj)
    if isinstance(obj, _Records):
        spelled.append((obj, "  " * depth))
        return marker
    if not isinstance(obj, dict):
        return obj
    return {key: _mark_spelled(value, marker, depth + 1, spelled) for key, value in obj.items()}


def _records_chunks(records: _Records, indent: str) -> Iterator[bytes]:
    """Chunks that join to the records' list as ``json.dumps(..., indent=2)``
    writes it, encoded, with every line after the first indented by
    ``indent``.  A chunk of ``_CHUNK_TERMS`` records is one join of the
    constant separators and its slice of each column, interleaved."""
    if not records.count:
        yield b"[]"
        return
    columns = records.columns()
    item = (indent + "  ").encode()
    quotes = [b'"' * quoted for _, quoted in records.fields]  # each opens and closes its value
    keys = [b'\n%s  "%s": %s' % (item, k.encode(), q) for (k, _), q in zip(records.fields, quotes)]
    opening, closing = b"\n" + item + b"{" + keys[0], quotes[-1] + b"\n" + item + b"}"
    separators = [closing + b"," + opening] + [q + b"," + key for q, key in zip(quotes, keys[1:])]
    record = [piece for separator in separators for piece in (separator, None)]
    for start in range(0, records.count, _CHUNK_TERMS):
        stop = min(start + _CHUNK_TERMS, records.count)
        pieces = record * (stop - start)
        for j, column in enumerate(columns):
            pieces[2 * j + 1 :: len(record)] = column(start, stop)
        if start == 0:
            pieces[0] = b"[" + opening  # the list opens where later records close the last
        if stop == records.count:
            pieces.append(closing + b"\n" + indent.encode() + b"]")
        yield b"".join(pieces)
        del pieces  # before the next chunk's lists are built


def _term_records(s: PauliSum) -> _Records:
    """The records of ``s.to_json_dict()["terms"]``.  Each distinct float bit
    pattern is spelled once, as json does: one ``argsort`` of the parts
    gives the sorted distinct values, which ``_spellings`` turns into a
    table of fixed-width bytes, and each part's row in that table."""

    def columns():
        letters, coeff = s._sorted_terms()
        parts = coeff.view(np.float64).view(np.uint64)  # re, im per term
        order = np.argsort(parts)
        bits = parts[order]
        del coeff, parts  # the sorted copy and the order hold all that is needed
        first = np.empty(bits.size, dtype=bool)
        first[0] = True
        np.not_equal(bits[1:], bits[:-1], out=first[1:])
        bits = bits[first]
        row = np.empty((order.size // 2, 2), dtype=np.int32)  # each part's row of the table
        row.ravel()[order] = np.cumsum(first, dtype=np.int32) - 1
        del order, first
        table = _spellings(bits)
        del bits
        re, im = row.T
        return (lambda start, stop: letters[start:stop].tolist(),
                lambda start, stop: table[re[start:stop]].tolist(),  # drops the NUL padding
                lambda start, stop: table[im[start:stop]].tolist())

    return _Records((("pauli", True), ("re", False), ("im", False)), len(s), columns)


def _state_map(labels: Sequence[int], width: int) -> _Records:
    """``reduce``'s ``state_map``: each rank and its label in ``width`` binary digits."""

    def columns():
        digits = np.asarray(labels, dtype=np.int64)[:, None] >> np.arange(width - 1, -1, -1)
        bits = (digits & 1 | ord("0")).astype(np.uint8).view(f"S{width}").ravel()
        return (lambda start, stop: np.arange(start, stop).astype(bytes).tolist(),
                lambda start, stop: bits[start:stop].tolist())

    return _Records((("rank", False), ("bits", True)), len(labels), columns)


def _spellings(bits: np.ndarray) -> np.ndarray:
    """What ``json.dumps`` writes for each float64 bit pattern in ``bits``
    (a ``uint64`` array): ``repr``'s spelling, or ``NaN``, ``Infinity`` and
    ``-Infinity``, as ``S24`` items padded with NUL bytes, which
    ``.tolist()`` drops.

    The finite values are spelled ``_SPELL_BATCH`` at a time, without a
    ``repr`` per value: ``_shortest`` finds repr's digits and
    ``_lay_out`` places them as repr does."""
    table = np.empty(bits.size, dtype=f"S{_SPELL_WIDTH}")
    rows = table.view(np.uint8).reshape(bits.size, _SPELL_WIDTH)
    for start in range(0, bits.size, _SPELL_BATCH):
        batch = bits[start : start + _SPELL_BATCH]
        _lay_out(batch, *_shortest(batch), rows[start : start + _SPELL_BATCH])
    values = bits.view(np.float64)
    table[np.isnan(values)] = b"NaN"
    table[np.isposinf(values)] = b"Infinity"
    table[np.isneginf(values)] = b"-Infinity"
    return table


# Every constant beside a uint64 array is a uint64 scalar: numpy 1.x makes
# a uint64 array mixed with a signed integer float64.
_U = np.uint64
_LOW_32, _LOW_63 = _U(2**32 - 1), _U(2**63 - 1)
_EXPONENT_FIELD = _U(0x7FF << 52)
_POW10 = np.array([10**i for i in range(18)], dtype=np.uint64)
_K_MIN, _K_MAX = -324, 292  # floor(log10(2^q)) for q from -1074 to 971


@functools.cache
def _powers_of_ten() -> tuple[np.ndarray, np.ndarray]:
    """Schubfach's g for each decimal exponent k from ``_K_MIN`` to
    ``_K_MAX``: the 126-bit g = floor(10^-k 2^-r) + 1 with 2^125 <= g < 2^126,
    as two ``uint64`` arrays, g >> 63 and g & (2^63 - 1).  Built from Python
    ints on first use."""
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        r = ((-k * 913124641741) >> 38) - 125  # floor(log2(10^-k)) - 125
        if k > 0:
            g.append((1 << -r) // 10**k + 1)
        else:
            g.append((10**-k >> r if r >= 0 else 10**-k << -r) + 1)
    high = np.array([v >> 63 for v in g], dtype=np.uint64)
    low = np.array([v & (2**63 - 1) for v in g], dtype=np.uint64)
    high.flags.writeable = low.flags.writeable = False
    return high, low


def _high_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high 64 bits of each 128-bit product a b, from 32-bit limbs."""
    b0, b1, low = b & _LOW_32, b >> _U(32), a & _LOW_32
    carry = low * b0
    carry >>= _U(32)
    low *= b1
    high = low >> _U(32)
    low &= _LOW_32
    carry += low
    np.right_shift(a, _U(32), out=low)  # a's high limb
    b0 *= low
    b1 *= low
    del low
    high += b0 >> _U(32)
    b0 &= _LOW_32
    carry += b0
    high += b1
    carry >>= _U(32)
    high += carry
    return high


def _round_to_odd(g1: np.ndarray, g0: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """Schubfach's rop(cp g 2^-127), g = g1 2^63 + g0: the product's
    integer part with its lowest bit set when a fraction is left."""
    z = g1 * cp
    z >>= _U(1)
    z += _high_product(g0, cp)
    high = _high_product(g1, cp)
    high += z >> _U(63)
    z &= _LOW_63
    z += _LOW_63
    z >>= _U(63)
    high |= z
    return high


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per float64 bit pattern, integers f and k with the value f 10^k,
    where f has the fewest digits that read back as the value and, of
    those, the nearest (even on a tie): the digits ``repr`` writes.
    Zeros and non-finite values give f = 0.

    Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020),
    as Java's ``DoubleToDecimal`` runs it, on ``uint64`` arrays, with two
    differences where Python spells a value otherwise: a shorter candidate
    is tried from two digits up, not three (Java keeps two digits), and the
    two smallest subnormals take the common path, not Java's x10 one
    (``repr`` writes 5e-324, Java 4.9E-324).  Each temporary is freed or
    reused once read, which keeps a batch's memory to a few hundred bytes a
    value."""
    c = bits & _U(2**52 - 1)
    biased = bits & _EXPONENT_FIELD
    blank = (biased == _EXPONENT_FIELD) | ((bits << _U(1)) == _U(0))  # non-finite or zero
    biased >>= _U(52)
    # at a power of two the interval below the value is half as wide
    irregular = (c == _U(0)) & (biased > _U(1))
    c |= (biased != _U(0)).astype(np.uint64) << _U(52)
    q = np.maximum(biased, _U(1)).astype(np.int64)
    del biased
    q -= 1075  # the value is c 2^q
    # k = floor(log10(2^q)), or floor(log10(3/4 2^q)) where irregular, and
    # h = q + floor(log2(10^-k)) + 2, from Java's exact fixed-point logs
    k = q * 661971961083
    k -= np.where(irregular, 274743187321, 0)
    k >>= 41
    h = k * -913124641741
    h >>= 38
    h += q
    h += 2
    h = h.view(np.uint64)  # 1 to 4
    del q
    g1, g0 = (table[k - _K_MIN] for table in _powers_of_ten())
    cb = c << _U(2)
    c &= _U(1)  # an odd c leaves the interval's ends out
    vb = _round_to_odd(g1, g0, cb << h)
    cb -= np.where(irregular, _U(1), _U(2))
    vbl = _round_to_odd(g1, g0, cb << h)
    cb += np.where(irregular, _U(3), _U(4))
    vbr = _round_to_odd(g1, g0, cb << h)
    del g1, g0, cb, h, irregular
    vbl += c  # d 10^k is in the interval when vbl <= 4 d <= vbr
    vbr -= c
    del c
    s = vb >> _U(2)
    # one digit fewer: if just one of the multiples of ten around s is in
    # the interval, it is the answer
    sp = s // _U(10)
    sp *= _U(10)
    upin = vbl <= sp << _U(2)
    shorter = upin != (((sp + _U(10)) << _U(2)) <= vbr)
    shorter &= s >= _U(10)
    # else s or s + 1: the one in the interval or, if both are, the nearer
    # (v is below their midpoint when vb < 4 s + 2), s on a tie if even
    uin = vbl <= s << _U(2)
    win = ((s + _U(1)) << _U(2)) <= vbr
    del vbl, vbr
    middle = (s << _U(2)) + _U(2)
    nearer = vb < middle
    nearer |= (vb == middle) & ((s & _U(1)) == _U(0))
    del vb, middle
    s += np.where(uin != win, win, ~nearer).astype(np.uint64)
    sp += np.where(upin, _U(0), _U(10))
    f = np.where(shorter, sp, s)
    f[blank] = 0
    return f, k


def _lay_out(bits: np.ndarray, f: np.ndarray, k: np.ndarray, rows: np.ndarray) -> None:
    """Write repr's spelling of each value f 10^k into its row of ``rows``
    (a ``uint8`` array, ``_SPELL_WIDTH`` bytes a row, NUL-padded), the sign
    taken from ``bits``; f = 0 is spelled as a zero.  ``f`` and ``k`` are
    overwritten.

    Each value gets 32 source bytes, four little-endian words: its 17
    digits at bytes 7 to 23 (f scaled up to 17 digits, so trailing zeros
    pad it) and '0', '.', '-', 'e' and the exponent's sign and three digits
    at bytes 24 to 31, with NUL at byte 0.  Its row is a gather of those
    bytes by the ``_layouts()`` row for its sign, count of significant
    digits and form."""
    size = f.size
    digits = np.searchsorted(_POW10, f, side="right")
    f *= _POW10[17 - digits]
    point = k  # the value is 0.(digits) 10^point
    point += digits
    del digits
    point[f == _U(0)] = 1
    lead = f // _U(10**16)
    f -= lead * _U(10**16)
    # the other 16 digits, 8 to a word, the first in the lowest byte
    eights = np.empty((size, 2), dtype=np.uint64)
    eights[:, 0] = f // _U(10**8)
    eights[:, 1] = f - eights[:, 0] * _U(10**8)
    part = eights // _U(10**4)
    eights -= part * _U(10**4)
    eights <<= _U(32)
    eights |= part  # two 4-digit halves, 32 bits apart
    for multiplier, shift, mask, width, spread in (
        (10486, 20, 0x0000007F0000007F, 100, 16),  # y // 100 = y 10486 >> 20 for y < 10^4
        (103, 10, 0x000F000F000F000F, 10, 8),  # y // 10 = y 103 >> 10 for y < 100
    ):
        np.multiply(eights, _U(multiplier), out=part)
        part >>= _U(shift)
        part &= _U(mask)
        eights -= part * _U(width)
        eights <<= _U(spread)
        eights |= part
    del part
    # the digit count without trailing zeros: a word's float exponent
    # places its highest nonzero byte
    last = [(np.frexp(eights[:, j].astype(np.float64))[1] + 7) // 8 for j in (0, 1)]
    count = np.where(last[1] > 0, 9 + last[1], np.where(last[0] > 0, 1 + last[0], 1))
    del last
    words = np.empty((size, 4), dtype="<u8")
    words[:, 0] = (lead + _U(0x30)) << _U(56)
    words[:, 1:3] = eights | _U(0x3030303030303030)
    del lead, eights
    e = np.abs(point - 1)
    exponent = np.where(point < 1, 0x2D, 0x2B) | (e // 100 + 0x30) << 8
    exponent |= (e // 10 % 10 + 0x30) << 16 | (e % 10 + 0x30) << 24
    words[:, 3] = (exponent.astype(np.uint64) << _U(32)) | _U(0x652D2E30)  # "0.-e"
    del exponent
    form = np.where((point > -4) & (point <= 16), point + 3, 20 + (e >= 100))
    del e
    negative = (bits >> _U(63)).astype(np.intp)
    source = words.view(np.uint8).ravel()
    layouts = _layouts()
    for start in range(0, size, _GATHER_ROWS):
        rows_here = slice(start, start + _GATHER_ROWS)
        index = layouts[negative[rows_here], count[rows_here] - 1, form[rows_here]]
        index += np.arange(32 * start, 32 * min(start + _GATHER_ROWS, size), 32)[:, None]
        np.take(source, index, out=rows[rows_here])


@functools.cache
def _layouts() -> np.ndarray:
    """The source bytes of ``_lay_out``'s rows that spell a value, padded
    with NUL, at [negative, n - 1, form] for n significant digits and a
    form of point + 3 for a decimal point at -3 to 16 (the value is
    0.(digits) 10^point), or 20 and 21 for an exponent of two and three
    digits.

    These are ``repr``'s rules: positional notation when -4 < point <= 16,
    with '.0' on an integer; otherwise one digit, '.' and the rest if there
    are more, 'e', the exponent's sign and at least two of its digits."""
    nul, zero, dot, minus, e, sign = 0, 24, 25, 26, 27, 28
    exponent_digits = [29, 30, 31]  # hundreds, tens, units
    table = np.full((2, 17, 22, _SPELL_WIDTH), nul, dtype=np.intp)
    for negative, n, form in itertools.product((0, 1), range(1, 18), range(22)):
        digits = list(range(7, 7 + n))
        point = form - 3
        if form >= 20:
            row = digits[:1] + ([dot] + digits[1:] if n > 1 else [])
            row += [e, sign] + exponent_digits[21 - form :]
        elif point <= 0:
            row = [zero, dot] + [zero] * -point + digits
        elif point >= n:
            row = digits + [zero] * (point - n) + [dot, zero]
        else:
            row = digits[:point] + [dot] + digits[point:]
        row = [minus] * negative + row
        table[negative, n - 1, form, : len(row)] = row
    table.flags.writeable = False
    return table


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
    spec.states  # enumerated, or refused by its caps, before an N x N map is built
    p = _resolve_permutation(args, spec)
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
        "state_map": _state_map(rh.labels, width),
        "verify": {
            "max_deviation": check.max_deviation,
            "spectrum_bound": check.spectrum_bound,
            "spectrum_deviation": check.spectrum_deviation,
            "passed": check.passed,
        },
    }
    if overrides:
        payload["overrides"] = overrides
    _emit(payload, args.output)
    return EXIT_OK if check.passed else EXIT_VERIFY_FAILED


def cmd_perm(args) -> int:
    spec = SectorSpec(args.modes, args.fermions) if args.fermions is not None else None
    if args.matrix is not None or args.mapping is not None:
        _check_storage_cap(args.modes)  # `cycles:` needs the table: refuse before the N x N map
    p = _resolve_permutation(args, spec)
    table = p if isinstance(p, BasisPermutation) else p.to_permutation()  # for `cycles:`
    lines = [f"cycles: {table.cycle_string()}"]
    lines.append(f"affine: {'yes' if p.affine is not None else 'no'}")
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
        s = PauliSum.from_json_dict(json.load(fh))
    payload = {"n_qubits": s.n_qubits, **_sum_stats(s)}
    _emit(payload, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suites


def anticommutation_suite(majoranas) -> tuple[int, list[str]]:
    """Check that every Majorana squares to the identity and that every
    pair anticommutes.

    ``majoranas`` is a list of (plain, primed) pairs of PauliString or
    PauliSum.  A family of strings is checked on its masks and phases.  Any
    other family is made dense once and kept as column maps, each column's one
    nonzero (ValueError unless there is one) as its row and value; products of
    such maps are checked entry for entry.  Returns (number of checks, failure
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
        ops = [_column_map(op.to_dense(), name) for op, name in zip(ops, names)]
        cols = np.arange(ops[0][0].size)

        def bad_square(a) -> bool:
            row, val = a
            return not (np.array_equal(row[row], cols) and np.all(val[row] * val == 1))

        def bad_pair(a, b) -> bool:  # column v of ab + ba: two entries that must cancel
            (row_a, val_a), (row_b, val_b) = a, b
            return not (
                np.array_equal(row_a[row_b], row_b[row_a])
                and np.array_equal(val_a[row_b] * val_b, -(val_b[row_a] * val_a))
            )

        pair_failure = "{{ {}, {} }} != 0"
    failures = []
    for i, a in enumerate(ops):
        if bad_square(a):
            failures.append(f"{names[i]}^2 != I")
        for j in range(i + 1, len(ops)):
            if bad_pair(a, ops[j]):
                failures.append(pair_failure.format(names[i], names[j]))
    return len(ops) * (len(ops) + 1) // 2, failures


def _column_map(dense: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """(row, value) of each column's one nonzero; ValueError unless there is one."""
    nonzero = dense != 0
    if np.any(np.count_nonzero(nonzero, axis=0) != 1):
        raise ValueError(f"{name} does not hold exactly one nonzero per column")
    row = np.argmax(nonzero, axis=0)
    return row, dense[row, np.arange(row.size)]


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
    """Each family is built, checked and dropped before the next is built.
    The report lines are printed once every family is checked, so an error
    leaves stdout empty."""
    n = args.modes
    rng = np.random.default_rng(args.seed)

    def families():
        if args.mapping in (None, "jw"):
            yield "jw", jw_majoranas(n)
        if args.mapping in (None, "parity"):
            yield "parity", parity_majoranas(n)
        if args.mapping in (None, "random-minimal"):
            for k in range(1, n):
                spec = SectorSpec(n, k)
                for t in range(args.trials):
                    yield f"minimal(K={k},#{t})", random_minimal_majoranas(spec, rng)

    lines, bad = [], 0
    for name, majos in families():
        checks, failures = anticommutation_suite(majos)
        del majos  # before the next family is built
        lines.append(f"{name}: {checks} checks {'FAIL' if failures else 'pass'}")
        lines.extend(f"  counterexample: {f}" for f in failures[:1])
        bad += len(failures)
    if not lines:
        raise ValueError(f"--mapping random-minimal needs at least 2 modes, got {n}")
    print("\n".join(lines))
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
        if not check.max_deviation < tol:
            print(f"FAIL: deviation {check.max_deviation:g} exceeds {tol:g}")
            return EXIT_VERIFY_FAILED
        if not check.passed:
            print(f"FAIL: spectrum deviation {check.spectrum_deviation:g} exceeds "
                  f"{SPECTRUM_TOL:g} (bound {check.spectrum_bound:g})")
            return EXIT_VERIFY_FAILED
    print(f"{args.trials} trials pass, max deviation {worst:.3g}")
    return EXIT_OK


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: argparse reads
    a parser and changes nothing in it while it parses."""
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
    """Run the command ``argv`` names (``sys.argv[1:]`` when None), parsed by
    the one ``build_parser()``, and return its exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (FermipermError, ValueError, OSError, MemoryError, RecursionError) as exc:
        # an allocation Python itself refuses raises a MemoryError with no
        # message; json raises a RecursionError on input nested too deeply
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
