"""Inner products in Legendre-trig coordinates.

A function in span{P_j(x)cos(omega x), P_j(x)sin(omega x)} is a pair of
coefficient vectors (a, b).  The inner product of two such functions
collapses to the bilinear form

    <f, g> = a.M2.d + a.M3.c + b.M2.c + b.M4.d

over the precomputed tables, where (c, d) are the second function's
coefficients.  M2 appears in both cross terms because it is symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .legendre import legendre_table

if TYPE_CHECKING:
    from .tables import InnerProductTables


@dataclass
class LegTrigCoeffs:
    """Coefficients (a, b) of sum a_k P_k(x)cos(omega x) + b_k P_k(x)sin(omega x)."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.a.ndim != 1 or self.b.ndim != 1:
            raise ValueError("coefficient vectors must be one-dimensional")
        if self.a.size != self.b.size:
            raise ValueError(
                f"cosine and sine parts must have equal length, "
                f"got {self.a.size} and {self.b.size}"
            )
        require_finite(self.a, self.b)

    @property
    def n_max(self) -> int:
        return self.a.size - 1

    def evaluate(self, omega: float, x):
        """Value at x, as legtrig_values gives it."""
        return legtrig_values(self.a, self.b, omega, x)


def require_finite(a, b):
    """Refuse coefficient arrays that hold a NaN or an infinity."""
    # count_nonzero costs half of what .all() does on a short array
    if np.count_nonzero(np.isfinite(a)) + np.count_nonzero(np.isfinite(b)) \
            != a.size + b.size:
        raise ValueError("coefficients must be finite")


def legtrig_values(a, b, omega: float, x):
    """sum_j a[..., j] P_j(x) cos(omega x) + b[..., j] P_j(x) sin(omega x)
    at the points x, for one coefficient pair or stacked rows: one Legendre
    table and two matrix products, of shape a.shape[:-1] + x.shape; a
    Python float for one pair at a scalar or 0-d x, whose recurrence runs on
    Python floats with the same bits as at a 1-point array."""
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    P = legendre_table(a.shape[-1] - 1, x if x.ndim == 0 else flat)
    values = ((a @ P) * np.cos(omega * flat)
              + (b @ P) * np.sin(omega * flat)).reshape(a.shape[:-1] + x.shape)
    return float(values) if values.ndim == 0 else values


def coefficient_arrays(rows) -> tuple[np.ndarray, np.ndarray]:
    """The cosine and sine parts of rows as two arrays, shorter rows
    zero-padded: rows are members with coefficient vectors a and b, or a
    basis, whose arrays a and b already hold its members stacked."""
    if np.ndim(getattr(rows, "a", None)) == 2:
        return rows.a, rows.b
    rows = list(rows)
    A = np.zeros((len(rows), max((row.a.size for row in rows), default=0)))
    B = np.zeros_like(A)
    for i, row in enumerate(rows):
        A[i, : row.a.size], B[i, : row.b.size] = row.a, row.b
    return A, B


def stacked(rows, size: int) -> tuple[np.ndarray, np.ndarray]:
    """coefficient_arrays(rows) zero-padded to `size` columns; a row longer
    than that raises with the table size it needs."""
    A, B = coefficient_arrays(rows)
    if A.shape[1] > size:
        raise ValueError(
            f"coefficient vector of length {A.shape[1]} exceeds tables built "
            f"for n_max={size - 1}; rebuild tables with n_max >= {A.shape[1] - 1}"
        )
    pad = ((0, 0), (0, size - A.shape[1]))
    return np.pad(A, pad), np.pad(B, pad)


def inner_product(f: LegTrigCoeffs, g: LegTrigCoeffs,
                  tables: "InnerProductTables") -> float:
    """The bilinear form <f, g> over the given tables.

    Shorter coefficient vectors are zero-padded; vectors longer than the
    tables raise with the required table size in the message.
    """
    A, B = stacked([f, g], tables.n_max + 1)
    return float(bilinear(A[0], B[0], A[1], B[1], tables))


def bilinear(a, b, c, d, tables: "InnerProductTables"):
    """a.M2.d + a.M3.c + b.M2.c + b.M4.d for coefficients already padded to
    the table size: vectors, or rows (a, b) and columns (c, d) of several."""
    return a @ tables.m2 @ d + a @ tables.m3 @ c \
        + b @ tables.m2 @ c + b @ tables.m4 @ d


def gram_matrix(rows, tables: "InnerProductTables") -> np.ndarray:
    """G[i][j] = inner_product(rows[i], rows[j], tables), computed batched;
    rows as coefficient_arrays takes them."""
    A, B = stacked(rows, tables.n_max + 1)
    return bilinear(A, B, A.T, B.T, tables)
