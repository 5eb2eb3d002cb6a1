"""Legendre and Legendre-trig primitives.

Evaluation by the standard forward three-term recurrence (P_n at x is
row n of legendre_table(n, x)) and Gauss-Legendre rule generation for the
analysis rule and the quadrature oracle.  A function in span{P_j(x)
cos(omega x), P_j(x) sin(omega x)} is a coefficient pair (a, b), several
are the rows of two arrays (A, B), and legtrig_values evaluates them from
one Legendre table.  All arithmetic is 64-bit floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice, repeat

import numpy as np


def legendre_rows(x, out=None):
    """Yield P_0(x), P_1(x), P_2(x), ... without end, or as the rows of out,
    each filled in place, until out is full.

    The one place the forward recurrence (k+1) P_{k+1} = (2k+1) x P_k -
    k P_{k-1} is written; it is stable on [-1, 1] for every degree needed
    here.  Every consumer draws its values from this generator, so a given
    degree at a given point has the same bits wherever it is computed.  A
    0-d x with no out yields Python floats, a fraction of the cost of numpy
    scalars for the same bits.
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
    column, from the recurrence on Python floats, with the same bits as at
    that point inside an array.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return np.fromiter(islice(legendre_rows(x), n_max + 1), float)[:, None]
    table = np.empty((n_max + 1, x.size))
    for _ in legendre_rows(x, out=table):
        pass
    return table


def require_finite(*arrays):
    """Refuse coefficient arrays that hold a NaN or an infinity."""
    for arr in arrays:  # count_nonzero costs half of .all() on short arrays
        if np.count_nonzero(np.isfinite(arr)) != arr.size:
            raise ValueError("coefficients must be finite")


def require_size(n_max):
    """Refuse a size N that is not an int >= 0 (a bool, 3.0, "3", None)."""
    if isinstance(n_max, bool) or not isinstance(n_max, int) or n_max < 0:
        raise ValueError(f"n_max must be an integer >= 0, got {n_max!r}")


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
    """
    return QuadratureRule(*_gauss_legendre(n_points, False)[:2])


def _gauss_legendre(n: int, table: bool):
    """Nodes, weights and, if table, P_0 ... P_{n-1} at the nodes (row j
    holds P_j), else None: up to 100 Newton steps, one pass each, then one
    pass for the weights from P'_n at |x| < 1, which can keep its rows."""
    if n < 1:
        raise ValueError(f"n_points must be >= 1, got {n}")
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
