"""Linear algebra over GF(2).

Matrices are small numpy arrays with 0/1 entries (dtype uint8), rows indexed
by output coordinate and columns by input coordinate; index 0 corresponds to
qubit/mode 1.  Bit-mask helpers use the register convention shared by the
whole package: qubit 1 is the most significant bit of a state integer.

Two kernels serve the package: ``_xor_columns``, the product M v, and
``_row_ops``, the one Gaussian elimination.  Its row additions decide
invertibility, replay to M^-1 and, reversed, are the CNOTs of M.
"""

from __future__ import annotations

from array import array

import numpy as np


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.uint8)


def parity_matrix(n: int) -> np.ndarray:
    """Lower-triangular all-ones matrix: output j is the prefix XOR of inputs 1..j."""
    return np.tril(np.ones((n, n), dtype=np.uint8))


def _xor_columns(columns, v):
    """XOR of ``columns[i]`` over the set bits i of ``v``, bit i being the
    (i+1)-th most significant of ``len(columns)``: the product M v for the
    column masks of M.  ``v`` is a Python int, of any width, or an integer
    array, elementwise; Python-int operands keep an array's dtype under
    numpy's legacy and NEP 50 casting alike."""
    n = len(columns)
    out = v & 0
    for i, col in enumerate(columns):
        out ^= ((v >> (n - 1 - i)) & 1) * col
    return out


def _row_ops(m: np.ndarray) -> array | None:
    """The row additions that reduce the square matrix M to the identity, or
    None when M is singular.

    Column by column: when the diagonal entry is 0, the first row below with
    a 1 in the column is added to it, then the pivot row clears the column
    below; last, from the last column back, each pivot row clears its column
    above.  Each addition row[dst] ^= row[src] is a 0-based (src, dst) pair,
    in the order made, flat in one ``array("i")``: ``ops[0::2]`` are the
    sources and ``ops[1::2]`` the targets, 8 bytes an addition.  Replayed on
    the rows of the identity they give M^-1; reversed, they are CNOTs whose
    basis action is x -> Mx.
    """
    rows = rows_to_masks(m)
    n = len(rows)
    ops = array("i")
    for col in range(n):
        bit = 1 << (n - 1 - col)
        if not rows[col] & bit:
            src = next((r for r in range(col + 1, n) if rows[r] & bit), None)
            if src is None:
                return None
            rows[col] ^= rows[src]
            ops.extend((src, col))
        for r in range(col + 1, n):
            if rows[r] & bit:
                rows[r] ^= rows[col]
                ops.extend((col, r))
    for col in range(n - 1, 0, -1):
        bit = 1 << (n - 1 - col)
        for r in range(col - 1, -1, -1):
            if rows[r] & bit:
                rows[r] ^= rows[col]
                ops.extend((col, r))
    return ops


def is_invertible(m: np.ndarray) -> bool:
    m = np.asarray(m)
    return m.shape[0] == m.shape[1] and _row_ops(m) is not None


def rows_to_masks(m: np.ndarray) -> list[int]:
    """Row bit masks of a 0/1 matrix with column 0 as the most significant
    bit: each row packed to bytes in C, then read as one big-endian int."""
    m = np.asarray(m)
    pad = -m.shape[1] % 8
    return [int.from_bytes(row.tobytes(), "big") >> pad for row in np.packbits(m, axis=1)]


def masks_to_matrix(masks, n: int) -> np.ndarray:
    out = np.zeros((len(masks), n), dtype=np.uint8)
    for r, mask in enumerate(masks):
        for i in range(n):
            out[r, i] = (mask >> (n - 1 - i)) & 1
    return out


def mask_to_vec(mask: int, n: int) -> np.ndarray:
    return np.array([(mask >> (n - 1 - i)) & 1 for i in range(n)], dtype=np.uint8)


def vec_to_mask(v: np.ndarray) -> int:
    n = len(v)
    return int(sum(int(v[i]) << (n - 1 - i) for i in range(n)))
