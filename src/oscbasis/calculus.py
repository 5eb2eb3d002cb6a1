"""Derivative matrices over Legendre-trig coordinates.

Differentiating P_j cos(omega x) gives P_j' cos(omega x) - omega P_j
sin(omega x), and P_j' re-expands with the coefficients 2m+1 on degrees
m = j-1, j-3, ....  On interleaved coefficient vectors (a_0, b_0, a_1,
b_1, ...) this is a sparse block matrix D: diagonal 2x2 blocks
omega * [[0, 1], [-1, 0]] for the trig part, and (2m+1) times the 2x2
identity at block (m, j) for odd j-m > 0.

The same operator expressed in the orthonormal basis is B^-1 D B, where the
columns of B are the basis members.  D flips parity, so it maps each
parity class (see the basis module) to the other, and the class-c block of
d_orth is B_{1-c}^-1 (D B_c), with B_c the upper triangular (N+1)-square
block of class c's members in class-c coordinates, padded with unit
pivots.  D B_c needs no dense product: row m is omega times row m of B_c,
negated for a cosine row (the trig swap), plus 2m+1 times the sum of rows
m+1, m+3, ....  One small matmul per BLOCK rows forms the part of that sum
within the rows' block, and a carry adds the later blocks.  Each B_{1-c}
then takes one back-substitution in PANEL-row panels: the inverses of its
upper triangular diagonal blocks are formed once, together, and each panel
applies its own with a matmul.  A class of up to SMALL rows is one panel,
which LAPACK solves.  D is exact in (omega, N): an operator stores only
d_orth.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .basis import OscBasis, member_slice
from .frequency import Frequency


@dataclass
class DerivativeOperator:
    """D over interleaved Legendre-trig coefficients at (freq, n_max),
    optionally with its orthonormal-basis counterpart d_orth = B^-1 D B."""

    freq: Frequency
    n_max: int
    d_orth: np.ndarray | None = None
    similarity_residual: float | None = None

    @property
    def d_legtrig(self) -> np.ndarray:
        """The exact sparse block matrix D, formed densely on each read."""
        n, omega = self.n_max + 1, self.freq.omega
        D = np.zeros((2 * n, 2 * n))
        j = np.arange(n)
        D[2 * j, 2 * j + 1], D[2 * j + 1, 2 * j] = omega, -omega
        m, j = np.triu_indices(n, 1)
        m, j = m[(j - m) % 2 == 1], j[(j - m) % 2 == 1]
        D[2 * m, 2 * j] = D[2 * m + 1, 2 * j + 1] = 2 * m + 1
        return D


def derivative_matrix_legtrig(freq: Frequency, n_max: int) -> DerivativeOperator:
    """The operator D for degrees 0 ... n_max, without d_orth."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    return DerivativeOperator(freq=freq, n_max=n_max)


# rows per block of the sums in D B_c, and per back-substitution panel.
# Classes of up to SMALL rows are padded to a multiple of BLOCK and solved
# as one panel, larger ones are padded to a multiple of PANEL.  Measured
# on to_orthogonal_basis at N = 20 ... 300, one BLAS thread: up to SMALL
# rows one LAPACK solve costs less than the calls of several panels, and
# beyond, 16-row panels cost less than 8- or 32-row ones
BLOCK, PANEL, SMALL = 8, 16, 48
_i = np.arange(BLOCK)
# [i, i']: row i of a block takes the rows i' > i of odd offset in it
_ODD_LATER = ((_i > _i[:, None]) & ((_i - _i[:, None]) % 2 == 1)).astype(float)
# [t, i]: 1 on the rows i of parity t
_PARITY = (_i % 2 == np.arange(2)[:, None]).astype(float)
# [c, 0, i, i]: D(P_m cos) has -omega P_m sin and D(P_m sin) has +omega
# P_m cos, and row i of class c is a cosine row when c + i is even
_SWAP = (np.where((np.arange(2)[:, None] + _i) % 2, 1.0, -1.0)[:, None, :, None]
         * np.eye(BLOCK))


def _layout(n: int) -> tuple[int, int]:
    """The padded size of classes of n rows and the rows of their panels."""
    if n <= SMALL:
        size = -(-n // BLOCK) * BLOCK
        return size, size
    return -(-n // PANEL) * PANEL, PANEL


def _class_blocks(basis: OscBasis, size: int) -> np.ndarray:
    """B_c for c = 0, 1, stacked and padded to `size` rows: column k is
    class c's member of pair k in class-c coordinates, and the padding is
    zero but for unit pivots, so each B_c stays upper triangular."""
    n, a_b = basis.n_max + 1, (basis.a, basis.b)
    B = np.zeros((2, size, size))
    for c, h, e in np.ndindex(2, 2, 2):
        B[c, e:n:2, h:n:2] = a_b[(c + e) % 2][member_slice(c, h), e::2].T
    B.reshape(2, -1)[:, n * (size + 1) :: size + 1] = 1.0
    return B


def _times_d(omega: float, B: np.ndarray) -> np.ndarray:
    """D B_c for both padded class blocks, in O(N^2 BLOCK) and without D:
    row m of block c is in class 1 - c coordinates.  Each block of BLOCK
    rows takes one matmul, over its own rows and two more that carry in
    the sums of the rows of each parity in the blocks after it."""
    size = B.shape[1]
    nb = size // BLOCK
    w = 2.0 * np.arange(size).reshape(nb, BLOCK, 1) + 1.0
    rows = np.empty((2, nb, BLOCK + 2, size))
    rows[:, :, :BLOCK] = B.reshape(2, nb, BLOCK, size)
    np.matmul(np.tri(nb, k=-1).T, (_PARITY @ rows[:, :, :BLOCK]).reshape(2, nb, -1),
              out=rows[:, :, BLOCK:].reshape(2, nb, -1))
    # row i of a block takes the later rows of parity i + 1
    M = np.empty((2, nb, BLOCK, BLOCK + 2))
    M[..., :BLOCK] = _ODD_LATER * w + omega * _SWAP
    M[..., BLOCK:] = _PARITY[::-1].T * w
    return (M @ rows).reshape(B.shape)


def _view(M: np.ndarray, offset: int, shape: tuple, strides: tuple) -> np.ndarray:
    """The view of C-contiguous M at an offset and strides in elements."""
    return np.ndarray(shape, M.dtype, M, offset * M.itemsize,
                      tuple(step * M.itemsize for step in strides))


def _inverses(B: np.ndarray, p: int) -> np.ndarray:
    """The inverses of the p x p diagonal blocks of B[c], c = 0, 1, upper
    triangular, C-contiguous and of a size that p, a power of 2, divides,
    as (2, size / p, p, p).  They are doubled up from the reciprocal
    pivots, all blocks at once: [[A, C], [0, E]] has the inverse
    [[A^-1, -A^-1 C E^-1], [0, E^-1]].  A zero pivot raises LinAlgError."""
    size = B.shape[1]
    m = size // p
    pivots = np.diagonal(B, axis1=1, axis2=2)
    if not np.all(pivots):
        raise np.linalg.LinAlgError("zero pivot")
    inverses = np.zeros((2, m, p, p))
    _view(inverses, 0, (2, m, p), (m * p * p, p * p, p + 1))[:] = (
        1.0 / pivots.reshape(2, m, p))
    s = 1
    while s < p:
        # the s x s corners of the 2s x 2s diagonal blocks of each p-block
        shape = (2, m, p // (2 * s), s, s)
        steps = (m * p * p, p * p, 2 * s * (p + 1), p, 1)
        upper = _view(inverses, s, shape, steps)
        np.matmul(_view(inverses, 0, shape, steps)
                  @ _view(B, s, shape, (size * size, p * (size + 1),
                                        2 * s * (size + 1), size, 1)),
                  _view(inverses, s * (p + 1), shape, steps), out=upper)
        np.negative(upper, out=upper)
        s *= 2
    return inverses


def _solve_upper(B: np.ndarray, Y: np.ndarray, p: int) -> np.ndarray:
    """Solve B[c] X[c] = Y[c] for upper triangular B[c] and Y[c], c = 0, 1,
    of a size that p divides, by back-substitution in p-row panels from the
    bottom: a panel's rows take the products with the rows solved below
    them and then the inverse of their diagonal block.  One panel (p the
    size) goes to LAPACK instead; for several, p is a power of 2 and B is
    C-contiguous.  X keeps exact zeros below the diagonal; a zero pivot
    raises LinAlgError."""
    size = B.shape[1]
    if p == size:
        return np.linalg.solve(B, Y)
    inverses = _inverses(B, p)
    X = Y.copy()
    for lo in range(size - p, -1, -p):
        hi = lo + p
        X[:, lo:hi, hi:] -= B[:, lo:hi, hi:] @ X[:, hi:, hi:]
        np.matmul(inverses[:, lo // p], X[:, lo:hi, lo:], out=X[:, lo:hi, lo:])
    return X


def _residual(B: np.ndarray, X: np.ndarray, Y: np.ndarray, p: int) -> float:
    """max|B[c] X[c] - Y[c]| over c = 0, 1 for upper triangular B[c] and
    X[c] of a size that p divides, with B X formed on p-row panels of its
    upper triangle."""
    R = np.zeros(X.shape)
    for lo in range(0, B.shape[1], p):
        np.matmul(B[:, lo : lo + p, lo:], X[:, lo:, lo:], out=R[:, lo : lo + p, lo:])
    R -= Y
    return float(np.abs(R, out=R).max())


def to_orthogonal_basis(op: DerivativeOperator,
                        basis: OscBasis) -> DerivativeOperator:
    """Return a copy of op with d_orth = B^-1 D B, D the exact D at op.freq.

    B's columns are the basis members, so d_orth acts on coefficient
    vectors expressed in the orthonormal basis.  The similarity residual
    max|B_{1-c} X_c - D B_c| over the upper parts of the class blocks is
    recorded on the result for checking.
    """
    if op.freq.omega != basis.freq.omega:
        raise ValueError(
            f"frequency mismatch: operator at omega={op.freq.omega!r}, "
            f"basis at omega={basis.freq.omega!r}"
        )
    if op.n_max != basis.n_max:
        raise ValueError(
            f"size mismatch: operator n_max={op.n_max}, basis n_max={basis.n_max}"
        )
    n = basis.n_max + 1
    size, p = _layout(n)
    B = _class_blocks(basis, size)
    Y = _times_d(op.freq.omega, B)
    Y[:, :, n:] = 0.0
    if p == size:
        # one panel needs no padding
        B, Y, p = B[:, :n, :n], Y[:, :n, :n], n
    # X[c] = B_c^-1 (D B_{1-c}): d_orth from class 1 - c to class c
    try:
        X = _solve_upper(B, Y[::-1], p)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            f"representation matrix is singular ({exc}); the basis file is corrupted"
        ) from exc
    residual = _residual(B, X, Y[::-1], p)
    d_orth = np.zeros((2 * n, 2 * n))
    for c, h, g in np.ndindex(2, 2, 2):
        d_orth[member_slice(c, h), member_slice(1 - c, g)] = X[c, h:n:2, g:n:2]
    return replace(op, d_orth=d_orth, similarity_residual=residual)
