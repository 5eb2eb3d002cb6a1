"""Inner products in Legendre-trig coordinates: a function in
span{P_j(x)cos(omega x), P_j(x)sin(omega x)} is a coefficient pair (a, b),
several are the rows of two arrays (A, B), and over the tables the inner
product is the bilinear form <(a, b), (c, d)> = a.M2.d + a.M3.c + b.M2.c +
b.M4.d.
"""

from typing import TYPE_CHECKING

import numpy as np

from .legendre import legendre_table

if TYPE_CHECKING:
    from .tables import InnerProductTables


def require_finite(*arrays):
    """Refuse coefficient arrays that hold a NaN or an infinity."""
    for arr in arrays:  # count_nonzero costs half of .all() on short arrays
        if np.count_nonzero(np.isfinite(arr)) != arr.size:
            raise ValueError("coefficients must be finite")


def legtrig_values(a, b, omega: float, x):
    """sum_j a[..., j] P_j(x) cos(omega x) + b[..., j] P_j(x) sin(omega x)
    at x, of shape a.shape[:-1] + x.shape, from one Legendre table; for one
    pair at a scalar or 0-d x, a Python float with the bits of a 1-point x."""
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    P = legendre_table(a.shape[-1] - 1, x if x.ndim == 0 else flat)
    values = ((a @ P) * np.cos(omega * flat)
              + (b @ P) * np.sin(omega * flat)).reshape(a.shape[:-1] + x.shape)
    return float(values) if values.ndim == 0 else values


def _rows(rows) -> tuple[np.ndarray, np.ndarray]:
    """(basis.a, basis.b), or an (A, B) pair of 2-D arrays, checked."""
    if hasattr(rows, "a"):
        return rows.a, rows.b
    A, B = (np.asarray(part, dtype=float) for part in rows)
    if A.ndim != 2 or A.shape != B.shape:
        raise ValueError(f"coefficient arrays must be 2-D of one shape, "
                         f"got {A.shape} and {B.shape}")
    require_finite(A, B)
    return A, B


def gram_matrix(rows, tables: "InnerProductTables") -> np.ndarray:
    """G[i][j] = <row i, row j> for the rows of a basis or an (A, B) pair,
    zero-padded to the table size; a longer row raises with the size needed."""
    A, B = _rows(rows)
    if A.shape[1] > tables.n_max + 1:
        raise ValueError(
            f"coefficient vector of length {A.shape[1]} exceeds tables built "
            f"for n_max={tables.n_max}; rebuild tables with n_max >= {A.shape[1] - 1}")
    pad = ((0, 0), (0, tables.n_max + 1 - A.shape[1]))
    A, B = np.pad(A, pad), np.pad(B, pad)
    m2 = tables.m2
    return A @ m2 @ B.T + A @ tables.m3 @ A.T + B @ m2 @ A.T + B @ tables.m4 @ B.T
