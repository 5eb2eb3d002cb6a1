"""Inner-product tables M5 and M6 for the Legendre-trig family:

M5[j][k] = <P_j, P_k cos(2wx)>
M6[j][k] = <P_j, P_k sin(2wx)>

They satisfy a coupled recursion obtained by integrating by parts and
re-expanding P' in the Legendre basis: each entry on skew diagonal j+k = s
is a boundary term plus (R[j,k] + R[k,j]) / 2w, where R[j,k] is the sum of
(2m+1) M[m,k] over m = j-1, j-3, ... of the opposite table M.  R is carried
as the strided prefix sum R[j-2,k] + (2j-1) M[j-1,k], so every diagonal is a
few whole-slice operations and the fill costs O(N^2).  Whole diagonals keep
the tables exactly symmetric; M5 is exactly zero where j+k is odd and M6
where it is even, and InnerProductTables refuses arrays that are not.
oracle.verify checks the tables against quadrature.

Every other inner product of the family follows from M5, M6 and the
Legendre norms M1 = diag(2/(2j+1)): class_grams forms the Gram of each
parity class, and build_basis and gram_matrix both read it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .frequency import Frequency, StabilityWarning
from .legendre import read_only, require_finite, require_size

# largest table and basis degree N; it bounds the arrays of one table build
# and of the basis on its tables: at 2 pi 25000, N = 2047, build_tables peaks
# at 105 MB, and build_basis at N = 2046 peaked at 579 MB more (tracemalloc)
MAX_DEGREE = 2047


@dataclass(frozen=True, eq=False)
class InnerProductTables:
    """M5 and M6, (N+1) x (N+1), at one frequency.

    m5 and m6 are read-only; an array given writable, or not as float64,
    is copied first.  An n_max not an int >= 0, and tables not (N+1)-square,
    not finite, not exactly symmetric or nonzero off their parity (M5 at odd
    j + k, M6 at even), are refused with ValueError, however they are made.
    """

    freq: Frequency
    n_max: int
    m5: np.ndarray
    m6: np.ndarray

    def __post_init__(self):
        require_size(self.n_max)
        n = self.n_max + 1
        for name, parity in (("m5", 1), ("m6", 0)):
            mat = read_only(getattr(self, name))
            if mat.shape != (n, n):
                raise ValueError(f"{name} has shape {mat.shape}, expected {(n, n)}")
            if not np.isfinite(mat).all():
                raise ValueError(f"{name} has non-finite entries")
            if not (mat == mat.T).all():
                raise ValueError(f"{name} is not symmetric")
            # strided blocks, not an index mask, as this runs on every build
            if mat[0::2, parity::2].any() or mat[1::2, 1 - parity::2].any():
                odd = np.add.outer(np.arange(n), np.arange(n)) % 2
                j, k = np.argwhere((mat != 0.0) & (odd == parity))[0]
                raise ValueError(f"{name}[{j}][{k}] = {float(mat[j, k])!r} is "
                                 f"nonzero at {('even', 'odd')[parity]} j + k")
            object.__setattr__(self, name, mat)


def build_tables(freq: Frequency, n_max: int) -> InnerProductTables:
    """Populate M5 and M6 at the given frequency by the stable recursion.

    Parameters
    ----------
    freq : Frequency
        Oscillation frequency.  When freq.exact_multiple, sin(2w) and
        cos(2w) are substituted as exactly 0 and 1 instead of evaluating
        trig functions at large arguments.
    n_max : int
        Largest Legendre degree N; matrices are (N+1) x (N+1).

    Emits a StabilityWarning when omega <= n_max, the regime where the
    recursion is no longer guaranteed accurate.  Raises ValueError, before
    allocating anything, when n_max is over MAX_DEGREE, and after the fill
    when M5 or M6 holds a value that is not finite (the recursion overflows
    far outside its stable regime).
    """
    require_size(n_max)
    if n_max > MAX_DEGREE:
        raise ValueError(f"n_max={n_max} is over the table degree limit of "
                         f"{MAX_DEGREE}")
    omega = freq.omega
    if omega <= n_max:
        warnings.warn(
            StabilityWarning(
                f"omega={omega:.6g} <= n_max={n_max}: outside the stable "
                f"regime omega > N, table accuracy may degrade"
            ),
            stacklevel=2,
        )

    sin_2w, cos_2w = freq.double_angle()
    inv_2w = 1.0 / (2.0 * omega)

    # diagonal s is the step-(n-1) slice d of flat indices j n + k: R_jk[d],
    # m5[d], m6[d] are its own entries, R[d] is R[j-2, k], pad5/6[d] M[j-1, k]
    n = n_max + 1
    R = np.zeros((n + 2) * n)
    pad5, pad6 = np.zeros((n + 1) * n), np.zeros((n + 1) * n)
    R_jk, m5, m6 = R[2 * n:], pad5[n:], pad6[n:]
    odd = 2.0 * np.arange(n) - 1.0
    # by diagonal parity: the table filled in place, the one summed into R,
    # the boundary term e and the factor f of R; e + (-f) t rounds as e - f t
    fills = (m5, pad6, sin_2w / omega, -inv_2w), (m6, pad5, -cos_2w / omega, inv_2w)
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(2 * n_max + 1):
            j0, j1 = max(0, s - n_max), min(s, n_max)
            d = slice(j0 * n + s - j0, j1 * n + s - j1 + 1, max(n - 1, 1))
            table, other, edge, factor = fills[s % 2]
            r, m = R_jk[d], table[d]
            np.multiply(odd[j0:j1 + 1], other[d], out=r)
            np.add(r, R[d], out=r)
            np.add(r, r[::-1], out=m)
            np.multiply(m, factor, out=m)
            np.add(m, edge, out=m)
    if not (np.all(np.isfinite(m5)) and np.all(np.isfinite(m6))):
        raise ValueError(
            f"the table recursion overflows at omega={omega:.6g}, "
            f"n_max={n_max}: M5 or M6 holds a value that is not finite"
        )
    # read-only, so the tables take them without a copy
    m5, m6 = m5.reshape(n, n), m6.reshape(n, n)
    m5.flags.writeable = m6.flags.writeable = False
    return InnerProductTables(freq=freq, n_max=n_max, m5=m5, m6=m6)


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


def class_grams(tables: InnerProductTables, n: int) -> np.ndarray:
    """The (2, n, n) stack of class Grams G_c = (M1 + M6 + s_c M5)/2 over
    degrees 0 ... n - 1.  Mode j of class c is P_j cos(wx), s_c = +1, where
    j + c is even and P_j sin(wx), s_c = -1, where it is odd; modes of
    different classes are orthogonal."""
    s = (-1.0) ** np.add.outer(np.arange(2), np.arange(n))[:, :, None]
    G = s * tables.m5[:n, :n]
    G += np.diag(2.0 / (2.0 * np.arange(n) + 1.0)) + tables.m6[:n, :n]
    G /= 2
    return G


def gram_matrix(rows, tables: InnerProductTables) -> np.ndarray:
    """G[i][j] = <row i, row j> for the rows of a basis or an (A, B) pair,
    no longer than the tables; a longer row raises with the size needed."""
    A, B = _rows(rows)
    n = A.shape[1]
    if n > tables.n_max + 1:
        raise ValueError(
            f"coefficient vector of length {n} exceeds tables built "
            f"for n_max={tables.n_max}; rebuild tables with n_max >= {n - 1}")
    # E[c] holds each row's coordinates on class c's modes: a where j + c
    # is even, b where it is odd
    E = np.where(np.add.outer(np.arange(2), np.arange(n))[:, None] % 2, B, A)
    return (E @ class_grams(tables, n) @ E.transpose(0, 2, 1)).sum(axis=0)
