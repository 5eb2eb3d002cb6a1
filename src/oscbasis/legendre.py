"""Legendre and Legendre-trig primitives.

Evaluation by the standard forward three-term recurrence (P_n at x is
row n of legendre_table(n, x)) and Gauss-Legendre rule generation for the
analysis rule and the quadrature oracle.  A function in span{P_j(x)
cos(omega x), P_j(x) sin(omega x)} is a coefficient pair (a, b), several
are the rows of two arrays (A, B), and legtrig_values evaluates them from
one Legendre table.  All arithmetic is 64-bit floating point.

legtrig_values keeps the table of its last call at two or more points,
keyed by the exact bytes of the flattened points, so a point set
evaluated again (one grid for many expansions) reuses its rows instead of
running the recurrence again; a table of more than KEPT_ENTRIES entries
is not kept.  One pair at one point is summed on Python floats, in
degree order, with no numpy call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice, repeat

import numpy as np

# largest Legendre table legtrig_values keeps for its next call on the same
# points: 2**18 float64 entries, 2 MiB
KEPT_ENTRIES = 2 ** 18
# (bytes of the flattened points, their read-only table), replaced whole so
# that a thread never reads a key with another key's table
_kept = (None, None)


def legendre_rows(x, out=None):
    """Yield P_0(x), P_1(x), P_2(x), ... without end, or as the rows of out,
    each filled in place, until out is full.

    The one place the forward recurrence (k+1) P_{k+1} = (2k+1) x P_k -
    k P_{k-1} is written; it is stable on [-1, 1] for every degree needed
    here.  Every consumer draws its values from this generator, so a given
    degree at a given point has the same bits wherever it is computed.  A
    0-d x with no out yields Python floats, a fraction of the cost of numpy
    scalars for the same bits; legtrig_values sums one point on them.
    """
    x = np.asarray(x, dtype=float)
    if out is None and x.ndim == 0:
        x = float(x)
    # P_0 = x ** 0 (1 also at NaN), then ((2k+1) x p - k pm1) / (k+1) in
    # that operation order from P_{-1} = 0, which gives P_1 = x exactly
    p = 0.0
    for k, row in enumerate(repeat(None) if out is None else out, start=-1):
        if k < 0:
            new = x ** 0 if row is None else np.power(x, 0, out=row)
        else:
            new = (2 * k + 1) * x if row is None \
                else np.multiply(x, 2 * k + 1, out=row)
            new *= p
            new -= k * pm1
            new /= k + 1
        yield new
        p, pm1 = new, p


def legendre_table(n_max: int, x: np.ndarray) -> np.ndarray:
    """All of P_0 ... P_n_max at once.

    Returns an (n_max+1, x.size) array; row j holds P_j at the 1-D sample
    points x, written in place by one recurrence pass.  A 0-d x gives one
    column, by the same array operations and so with the same bits as at
    that point inside an array.
    """
    x = np.asarray(x, dtype=float)
    table = np.empty((n_max + 1, x.size))
    for _ in legendre_rows(x, out=table):
        pass
    return table


def require_finite(*arrays):
    """Refuse coefficient arrays that hold a NaN or an infinity."""
    for arr in arrays:  # count_nonzero costs half of .all() on short arrays
        if np.count_nonzero(np.isfinite(arr)) != arr.size:
            raise ValueError("coefficients must be finite")


def read_only(value) -> np.ndarray:
    """value as a read-only float64 array: as it is when it already is
    one, else a copy, so the caller's array cannot change it later."""
    if (not isinstance(value, np.ndarray) or value.dtype != float
            or value.flags.writeable):
        value = np.array(value, dtype=float)
        value.flags.writeable = False
    return value


def require_size(n_max):
    """Refuse a size N that is not an int >= 0 (a bool, 3.0, "3", None)."""
    if isinstance(n_max, bool) or not isinstance(n_max, int) or n_max < 0:
        raise ValueError(f"n_max must be an integer >= 0, got {n_max!r}")


def require_count(value, name: str, low: int):
    """Refuse a count that is not an integer >= low (a bool, 3.0, "3",
    None); a numpy integer is one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def legtrig_values(a, b, omega: float, x):
    """sum_j a[..., j] P_j(x) cos(omega x) + b[..., j] P_j(x) sin(omega x)
    at x, of shape a.shape[:-1] + x.shape, from one Legendre table; for one
    pair at a scalar or 0-d x, a Python float.

    One pair at one point (0-d, or an array of size 1) is summed on Python
    floats in degree order, so its value does not depend on how it was
    passed.  At two or more points the table is the kept one when the
    points have the kept key and it reaches the degree, else it is built
    and, up to KEPT_ENTRIES entries, kept; its row j does not depend on
    the top degree, so the values are the same either way."""
    x = np.asarray(x, dtype=float)
    if a.ndim == 1 and x.size == 1:
        value = _one_point(a, b, omega, x.item())
        return value if x.ndim == 0 else np.full(x.shape, value)
    flat = x.reshape(-1)
    P = _table(a.shape[-1] - 1, flat)
    values = ((a @ P) * np.cos(omega * flat)
              + (b @ P) * np.sin(omega * flat))
    return values.reshape(a.shape[:-1] + x.shape)


def _one_point(a, b, omega: float, x: float) -> float:
    """sum_j a[j] P_j(x) cos(omega x) + b[j] P_j(x) sin(omega x) on floats,
    the sums in degree order."""
    sa = sb = 0.0
    for aj, bj, p in zip(a.tolist(), b.tolist(), legendre_rows(x)):
        sa += aj * p
        sb += bj * p
    t = omega * x
    if math.isfinite(t):
        return sa * math.cos(t) + sb * math.sin(t)
    # numpy's NaN, with its RuntimeWarning at +-inf, where math.cos raises
    t = np.float64(omega) * x
    return float(sa * np.cos(t) + sb * np.sin(t))


def _table(n_max: int, flat: np.ndarray) -> np.ndarray:
    """legendre_table(n_max, flat), or the first n_max + 1 rows of the kept
    table when flat has its key; a new table of two or more points and
    within KEPT_ENTRIES is kept."""
    global _kept
    key = flat.tobytes()
    kept_key, kept = _kept
    if key == kept_key and kept.shape[0] > n_max:
        return kept[: n_max + 1]
    table = legendre_table(n_max, flat)
    if flat.size > 1 and table.size <= KEPT_ENTRIES:
        table.flags.writeable = False
        _kept = key, table
    return table


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes and weights on [-1, 1], nodes increasing."""

    nodes: np.ndarray
    weights: np.ndarray

    def __len__(self) -> int:
        return self.nodes.size


def gauss_legendre_rule(n_points: int) -> QuadratureRule:
    """The n-point Gauss-Legendre rule on [-1, 1].

    Nodes are roots of P_n found by Newton iteration from Tricomi's
    asymptotic initial guesses (1 - (1 - 1/n)/(8n^2)) cos(pi*(i - 1/4)/(n +
    1/2)), refined to 1e-15, then weights 2 / ((1 - x^2) P'_n(x)^2).  Each
    Newton step is one recurrence pass; from these guesses a few hundred
    points take three steps.  Exact for polynomials of degree <= 2n - 1.
    Refuses with ValueError an n_points that is not an integer >= 1.
    """
    return QuadratureRule(*_gauss_legendre(n_points, False)[:2])


def _gauss_legendre(n: int, table: bool):
    """Nodes, weights and, if table, P_0 ... P_{n-1} at the nodes (row j
    holds P_j), else None: up to 100 Newton steps, one pass each, then one
    pass for the weights from P'_n at |x| < 1, which can keep its rows."""
    require_count(n, "n_points", 1)
    i = np.arange(1, n + 1)
    x = np.cos(math.pi * (i - 0.25) / (n + 0.5))
    x *= 1.0 - (1.0 - 1.0 / n) / (8.0 * n * n)
    dx = math.inf
    for step in range(101):
        done = step == 100 or np.max(np.abs(dx)) < 1e-15
        rows = legendre_table(n, x) if done and table else legendre_rows(x)
        pm1, p = islice(rows, n - 1, n + 1)
        dp = n * (x * p - pm1) / (x * x - 1.0)
        if done:
            break
        dx = p / dp
        x -= dx
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    order = np.argsort(x)
    # take, not rows[:n, order], whose result is in Fortran order
    return x[order], w[order], np.take(rows[:n], order, axis=1) if table else None
