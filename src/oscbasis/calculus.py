"""Derivative matrices over Legendre-trig coordinates.

Differentiating P_j cos(omega x) gives P_j' cos(omega x) - omega P_j
sin(omega x), and P_j' re-expands with the coefficients 2m+1 on degrees
m = j-1, j-3, ....  On interleaved coefficient vectors (a_0, b_0, a_1,
b_1, ...) this is a sparse block matrix D: diagonal 2x2 blocks
omega * [[0, 1], [-1, 0]] for the trig part, and (2m+1) times the 2x2
identity at block (m, j) for odd j-m > 0.

The same operator expressed in the orthonormal basis is B^-1 D B, where the
columns of B are the basis members in interleaved coordinates.  D B needs
no dense product: row pair m is omega times the other trig row of degree m
plus 2m+1 times the sum of the row pairs of degrees m+1, m+3, ..., a suffix
sum within one parity class of degrees.  B is block upper triangular, so
the transform needs one block back-substitution and no explicit inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .basis import OscBasis, representation_matrix
from .frequency import Frequency


@dataclass
class DerivativeOperator:
    """D over interleaved Legendre-trig coefficients, optionally with its
    orthonormal-basis counterpart d_orth = B^-1 D B."""

    freq: Frequency
    n_max: int
    d_legtrig: np.ndarray
    d_orth: np.ndarray | None = None
    similarity_residual: float | None = None


def derivative_matrix_legtrig(freq: Frequency, n_max: int) -> DerivativeOperator:
    """Assemble the exact sparse block matrix D for degrees 0 ... n_max."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    size = 2 * (n_max + 1)
    D = np.zeros((size, size))
    j = np.arange(n_max + 1)
    D[2 * j, 2 * j + 1] = freq.omega
    D[2 * j + 1, 2 * j] = -freq.omega
    m, j = np.triu_indices(n_max + 1, 1)
    m, j = m[(j - m) % 2 == 1], j[(j - m) % 2 == 1]
    D[2 * m, 2 * j] = D[2 * m + 1, 2 * j + 1] = 2 * m + 1
    return DerivativeOperator(freq=freq, n_max=n_max, d_legtrig=D)


# rows per back-substitution panel; even, so no 2x2 block is split
PANEL = 64


def _solve_block_upper(B: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Solve B X = Y for block upper triangular B and Y with 2x2 blocks.

    X is block upper triangular too, so the back-substitution walks B in
    PANEL-row panels from the bottom, each solved on the columns from its
    first row on; X keeps exact zeros below the block diagonal.
    """
    X = np.zeros_like(Y)
    for lo in reversed(range(0, B.shape[0], PANEL)):
        hi = lo + PANEL
        rhs = Y[lo:hi, lo:] - B[lo:hi, hi:] @ X[hi:, lo:]
        X[lo:hi, lo:] = np.linalg.solve(B[lo:hi, lo:hi], rhs)
    return X


def _times_d(omega: float, B: np.ndarray) -> np.ndarray:
    """D B for the derivative matrix D at omega, in O(N^2) without D."""
    Y = np.zeros(B.shape)
    by_degree = Y.reshape(B.shape[0] // 2, 2, -1)
    B_by_degree = B.reshape(by_degree.shape)
    for parity in (0, 1):
        # pairs m = parity, parity + 2, ... take degrees m+1, m+3, ...
        later = B_by_degree[parity + 1 :: 2]
        np.cumsum(later[::-1], axis=0,
                  out=by_degree[parity::2][: len(later)][::-1])
    by_degree *= (2.0 * np.arange(len(by_degree)) + 1.0)[:, None, None]
    Y[0::2] += omega * B[1::2]
    Y[1::2] -= omega * B[0::2]
    return Y


def to_orthogonal_basis(op: DerivativeOperator,
                        basis: OscBasis) -> DerivativeOperator:
    """Return a copy of op with d_orth = B^-1 D B, D the exact D at op.freq.

    B's columns are the basis members, so d_orth acts on coefficient
    vectors expressed in the orthonormal basis.  The similarity residual
    max|B d_orth - D B| is recorded on the result for checking; all three
    are zero below the 2x2 block diagonal, so it is taken over the block
    upper part, panel by panel.
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
    B = representation_matrix(basis).T
    Y = _times_d(op.freq.omega, B)
    try:
        d_orth = _solve_block_upper(B, Y)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            f"representation matrix is singular ({exc}); the basis file is corrupted"
        ) from exc
    residual = float(np.max([np.max(np.abs(
        B[lo : lo + PANEL, lo:] @ d_orth[lo:, lo:] - Y[lo : lo + PANEL, lo:]))
        for lo in range(0, B.shape[0], PANEL)]))
    return replace(op, d_orth=d_orth, similarity_residual=residual)
