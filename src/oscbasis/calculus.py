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
d_orth is B_{1-c}^-1 (D B_c), with B_c = basis.class_blocks(basis)[c] the
upper triangular (N+1)-square block of class c's members.  D B_c needs no
dense product: row m is omega times row m of B_c, negated for a cosine row
(the trig swap), plus 2m+1 times the stride-2 suffix sum of rows m+1, m+3,
....  Each block then takes one panel back-substitution and no explicit
inverse.  D is exact in (omega, N): an operator stores only d_orth.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .basis import OscBasis, class_blocks, member_slice
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


# rows per back-substitution panel
PANEL = 64


def _times_d(omega: float, B: np.ndarray) -> np.ndarray:
    """D B_c for both classes, in O(N^2) without D: row m of block c is
    in class 1 - c coordinates."""
    Y = np.zeros(B.shape)
    for parity in (0, 1):
        # rows m = parity, parity + 2, ... take degrees m+1, m+3, ...
        later = B[:, parity + 1 :: 2]
        np.cumsum(later[:, ::-1], axis=1,
                  out=Y[:, parity::2][:, : later.shape[1]][:, ::-1])
    Y *= (2.0 * np.arange(B.shape[1]) + 1.0)[:, None]
    # D(P_m cos) has -omega P_m sin and D(P_m sin) has +omega P_m cos
    Y += np.where((np.arange(2)[:, None] + np.arange(B.shape[1])) % 2,
                  omega, -omega)[:, :, None] * B
    return Y


def _solve_upper(B: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Solve B[c] X[c] = Y[c] for upper triangular B[c] and Y[c], c = 0, 1,
    by back-substitution in PANEL-row panels from the bottom, each on the
    columns from its first row on; X keeps exact zeros below the diagonal."""
    X = np.zeros_like(Y)
    for lo in reversed(range(0, B.shape[1], PANEL)):
        hi = lo + PANEL
        rhs = Y[:, lo:hi, lo:] - B[:, lo:hi, hi:] @ X[:, hi:, lo:]
        X[:, lo:hi, lo:] = np.linalg.solve(B[:, lo:hi, lo:hi], rhs)
    return X


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
    B = class_blocks(basis)
    Y = _times_d(op.freq.omega, B)
    try:
        X = _solve_upper(B[::-1], Y)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            f"representation matrix is singular ({exc}); the basis file is corrupted"
        ) from exc
    residual = float(np.max([np.max(np.abs(
        B[::-1, lo : lo + PANEL, lo:] @ X[:, lo:, lo:]
        - Y[:, lo : lo + PANEL, lo:])) for lo in range(0, B.shape[1], PANEL)]))
    d_orth = np.zeros((2 * X.shape[1],) * 2)
    for c, h, g in np.ndindex(2, 2, 2):
        d_orth[member_slice(1 - c, h), member_slice(c, g)] = X[c, h::2, g::2]
    return replace(op, d_orth=d_orth, similarity_residual=residual)
