"""Inner products in Legendre-trig coordinates.

A function in span{P_j(x)cos(omega x), P_j(x)sin(omega x)} is a pair of
coefficient vectors (a, b).  The inner product of two such functions
collapses to the bilinear form

    <f, g> = a.M2.d + a.M3.c + b.M2.c + b.M4.d

over the precomputed tables, where (c, d) are the second function's
coefficients.  M2 appears in both cross terms because it is symmetric.
"""

from __future__ import annotations

import math
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
        if not (np.all(np.isfinite(self.a)) and np.all(np.isfinite(self.b))):
            raise ValueError("coefficients must be finite")

    @property
    def n_max(self) -> int:
        return self.a.size - 1

    def evaluate(self, omega: float, x):
        """Value of the represented function at x (scalar or array)."""
        xa = np.asarray(x, dtype=float)
        P = legendre_table(self.n_max, np.atleast_1d(xa).ravel())
        vals = (self.a @ P) * np.cos(omega * xa.ravel()) + \
               (self.b @ P) * np.sin(omega * xa.ravel())
        vals = vals.reshape(xa.shape)
        return vals if isinstance(x, np.ndarray) else float(vals)


def _padded(vec: np.ndarray, size: int, tables: "InnerProductTables") -> np.ndarray:
    if vec.size > size:
        raise ValueError(
            f"coefficient vector of length {vec.size} exceeds tables built for "
            f"n_max={tables.n_max}; rebuild tables with n_max >= {vec.size - 1}"
        )
    out = np.zeros(size)
    out[: vec.size] = vec
    return out


def inner_product(f: LegTrigCoeffs, g: LegTrigCoeffs,
                  tables: "InnerProductTables") -> float:
    """The bilinear form <f, g> over the given tables.

    Shorter coefficient vectors are zero-padded; vectors longer than the
    tables raise with the required table size in the message.
    """
    size = tables.n_max + 1
    return float(bilinear(_padded(f.a, size, tables), _padded(f.b, size, tables),
                          _padded(g.a, size, tables), _padded(g.b, size, tables),
                          tables))


def bilinear(a, b, c, d, tables: "InnerProductTables"):
    """a.M2.d + a.M3.c + b.M2.c + b.M4.d for coefficients already padded to
    the table size: vectors, or rows (a, b) and columns (c, d) of several."""
    return a @ tables.m2 @ d + a @ tables.m3 @ c \
        + b @ tables.m2 @ c + b @ tables.m4 @ d


def gram_matrix(rows, tables: "InnerProductTables") -> np.ndarray:
    """G[i][j] = inner_product(rows[i], rows[j], tables), computed batched."""
    rows = list(rows)
    if not rows:
        return np.zeros((0, 0))
    size = tables.n_max + 1
    A = np.array([_padded(r.a, size, tables) for r in rows])
    B = np.array([_padded(r.b, size, tables) for r in rows])
    return bilinear(A, B, A.T, B.T, tables)


def norm(f: LegTrigCoeffs, tables: "InnerProductTables") -> float:
    """sqrt(<f, f>), clipping roundoff-negative self inner products to 0."""
    nsq = inner_product(f, f, tables)
    if nsq < -1e-12:
        raise ValueError(
            f"self inner product {nsq:.6e} is strongly negative; "
            "tables are inconsistent or corrupted"
        )
    return math.sqrt(max(nsq, 0.0))
