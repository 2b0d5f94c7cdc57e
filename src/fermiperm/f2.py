"""Dense linear algebra over GF(2).

Matrices are small numpy arrays with 0/1 entries (dtype uint8), rows indexed
by output coordinate and columns by input coordinate; index 0 corresponds to
qubit/mode 1.  Bit-mask helpers use the register convention shared by the
whole package: qubit 1 is the most significant bit of a state integer.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidEncodingError


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.uint8)


def parity_matrix(n: int) -> np.ndarray:
    """Lower-triangular all-ones matrix: output j is the prefix XOR of inputs 1..j."""
    return np.tril(np.ones((n, n), dtype=np.uint8))


def matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (m.astype(np.uint16) @ v.astype(np.uint16) % 2).astype(np.uint8)


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


def rank(m: np.ndarray) -> int:
    return _rank_masks(rows_to_masks(m))


def is_invertible(m: np.ndarray) -> bool:
    m = np.asarray(m)
    return m.shape[0] == m.shape[1] and rank(m) == m.shape[0]


def inverse(m: np.ndarray) -> np.ndarray:
    """Invert over GF(2) by Gauss-Jordan elimination; raises if singular."""
    m = np.array(m, dtype=np.uint8) % 2
    n = m.shape[0]
    aug = np.concatenate([m, identity(n)], axis=1)
    row = 0
    for col in range(n):
        pivots = np.nonzero(aug[row:, col])[0]
        if pivots.size == 0:
            raise InvalidEncodingError("matrix is singular over GF(2)")
        p = row + pivots[0]
        if p != row:
            aug[[row, p]] = aug[[p, row]]
        others = np.nonzero(aug[:, col])[0]
        for r in others:
            if r != row:
                aug[r] ^= aug[row]
        row += 1
    return aug[:, n:].copy()


def random_invertible(n: int, rng: np.random.Generator) -> np.ndarray:
    """Sample a uniformly random invertible matrix by rejection."""
    while True:
        m = rng.integers(0, 2, size=(n, n), dtype=np.uint8)
        if is_invertible(m):
            return m


def rows_to_masks(m: np.ndarray) -> list[int]:
    """Row bit masks with column 0 as the most significant bit."""
    m = np.asarray(m)
    n = m.shape[1]
    return [int(sum(int(row[i]) << (n - 1 - i) for i in range(n))) for row in m]


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


def _rank_masks(masks) -> int:
    pivots: dict[int, int] = {}
    r = 0
    for row in masks:
        while row:
            h = row.bit_length() - 1
            if h in pivots:
                row ^= pivots[h]
            else:
                pivots[h] = row
                r += 1
                break
    return r
