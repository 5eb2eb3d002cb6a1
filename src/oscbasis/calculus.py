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
within the rows' block, and a carry adds the later blocks.  Every class
is padded to a multiple of PANEL rows, and each B_{1-c} takes one
back-substitution in PANEL-row panels: the inverses of its diagonal blocks
are doubled up together on einsum views, each panel applies its own with a
matmul, and its rows of the similarity residual are formed as soon as it
is solved.  D is exact in (omega, N): an operator stores only d_orth.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .basis import OscBasis, member_slice
from .frequency import Frequency
from .legendre import require_size


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
    require_size(n_max)
    return DerivativeOperator(freq=freq, n_max=n_max)


# rows per block of the sums in D B_c, and per back-substitution panel:
# on to_orthogonal_basis at N = 20 ... 300, one BLAS thread, 16-row panels
# cost less than 8- or 32-row ones
BLOCK, PANEL = 8, 16
_i = np.arange(BLOCK)
# [i, i']: row i of a block takes the rows i' > i of odd offset in it
_ODD_LATER = ((_i > _i[:, None]) & ((_i - _i[:, None]) % 2 == 1)).astype(float)
# [t, i]: 1 on the rows i of parity t
_PARITY = (_i % 2 == np.arange(2)[:, None]).astype(float)
# [c, 0, i, i]: D(P_m cos) has -omega P_m sin and D(P_m sin) has +omega
# P_m cos, and row i of class c is a cosine row when c + i is even
_SWAP = (np.where((np.arange(2)[:, None] + _i) % 2, 1.0, -1.0)[:, None, :, None]
         * np.eye(BLOCK))


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


def _inverses(B: np.ndarray) -> np.ndarray:
    """The inverses of the PANEL-square diagonal blocks of B[c], c = 0, 1,
    upper triangular and of a size that PANEL divides, as (2, size / PANEL,
    PANEL, PANEL).  They are doubled up from the reciprocal pivots, all
    blocks at once: [[A, C], [0, E]] has the inverse [[A^-1, -A^-1 C E^-1],
    [0, E^-1]].  A zero pivot raises LinAlgError."""
    p, m = PANEL, B.shape[1] // PANEL
    blocks = np.einsum("cixiy->cixy", B.reshape(2, m, p, m, p))
    pivots = np.einsum("cmxx->cmx", blocks)
    if not np.all(pivots):
        raise np.linalg.LinAlgError("zero pivot")
    inverses = np.zeros((2, m, p, p))
    np.einsum("cmxx->cmx", inverses)[:] = 1.0 / pivots
    s = 1
    while s < p:
        # views of the 2s-square diagonal blocks of each p-block
        q = p // (2 * s)
        inv, b = (np.einsum("cmaxay->cmaxy", M.reshape(2, m, q, 2 * s, q, 2 * s))
                  for M in (inverses, blocks))
        np.negative(inv[..., :s, :s] @ b[..., :s, s:] @ inv[..., s:, s:],
                    out=inv[..., :s, s:])
        s *= 2
    return inverses


def _solve_upper(B: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, float]:
    """X with B[c] X[c] = Y[c], and max|B[c] X[c] - Y[c]|, for upper
    triangular B[c] and Y[c], c = 0, 1, of a size that PANEL divides.
    Back-substitution in PANEL-row panels from the bottom: a panel's rows
    take the products with the rows solved below them and then the inverse
    of their diagonal block.  Every row that the panel's rows of B X reach
    is final then, so they are formed at once, over the upper part.  X
    keeps exact zeros below the diagonal; a zero pivot raises LinAlgError."""
    p, size = PANEL, B.shape[1]
    inverses = _inverses(B)
    X, R = Y.copy(), np.zeros(Y.shape)
    for lo in range(size - p, -1, -p):
        hi = lo + p
        X[:, lo:hi, hi:] -= B[:, lo:hi, hi:] @ X[:, hi:, hi:]
        np.matmul(inverses[:, lo // p], X[:, lo:hi, lo:], out=X[:, lo:hi, lo:])
        np.matmul(B[:, lo:hi, lo:], X[:, lo:, lo:], out=R[:, lo:hi, lo:])
    R -= Y
    return X, float(np.abs(R, out=R).max())


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
    B = _class_blocks(basis, -(-n // PANEL) * PANEL)
    Y = _times_d(op.freq.omega, B)
    Y[:, :, n:] = 0.0
    # X[c] = B_c^-1 (D B_{1-c}): d_orth from class 1 - c to class c
    try:
        X, residual = _solve_upper(B, Y[::-1])
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            f"representation matrix is singular ({exc}); the basis file is corrupted"
        ) from exc
    d_orth = np.zeros((2 * n, 2 * n))
    for c, h, g in np.ndindex(2, 2, 2):
        d_orth[member_slice(c, h), member_slice(1 - c, g)] = X[c, h:n:2, g:n:2]
    return replace(op, d_orth=d_orth, similarity_residual=residual)
