"""Legendre polynomial primitives.

Evaluation by the standard forward three-term recurrence (P_n at x is
row n of legendre_table(n, x)), the closed-form norms, and Gauss-Legendre
rule generation for the quadrature oracle.  All arithmetic is 64-bit
floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np


def legendre_rows(x):
    """Yield P_0(x), P_1(x), P_2(x), ... without end.

    The one place the forward recurrence (k+1) P_{k+1} = (2k+1) x P_k -
    k P_{k-1} is written; it is stable on [-1, 1] for every degree needed
    here.  Every consumer draws its values from this generator, so a given
    degree at a given point has the same bits wherever it is computed.
    """
    x = np.asarray(x, dtype=float)
    pm1 = np.ones_like(x)
    yield pm1
    p = x.copy()
    k = 1
    while True:
        yield p
        # ((2k+1) x p - k pm1) / (k+1), in place in one new array (a float
        # for 0-d x), in that operation order
        new = (2 * k + 1) * x
        new *= p
        new -= k * pm1
        new /= k + 1
        p, pm1 = new, p
        k += 1


def legendre_table(n_max: int, x: np.ndarray) -> np.ndarray:
    """All of P_0 ... P_n_max at once.

    Returns an (n_max+1, x.size) array; row j holds P_j at the sample
    points, from one recurrence pass.  A 0-d x gives one column, and the
    recurrence runs on floats, with the same bits as at that point inside
    an array.
    """
    x = np.asarray(x, dtype=float)
    table = np.empty((n_max + 1, x.size))
    for row, p in zip(table, legendre_rows(x)):
        row[:] = p
    return table


def legendre_norm_sq(degree: int) -> float:
    """||P_degree||^2 on [-1, 1], which is 2/(2*degree+1)."""
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    return 2.0 / (2 * degree + 1)


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
    if n_points < 1:
        raise ValueError(f"n_points must be >= 1, got {n_points}")
    if n_points == 1:
        return QuadratureRule(nodes=np.zeros(1), weights=np.full(1, 2.0))
    n = n_points
    i = np.arange(1, n + 1)
    x = np.cos(math.pi * (i - 0.25) / (n + 0.5))
    x *= 1.0 - (1.0 - 1.0 / n) / (8.0 * n * n)
    for _ in range(100):
        p, dp = _value_and_derivative(n, x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    p, dp = _value_and_derivative(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    order = np.argsort(x)
    return QuadratureRule(nodes=x[order], weights=w[order])


def _value_and_derivative(n: int, x: np.ndarray):
    """P_n(x) and P'_n(x) for n >= 1 at interior points |x| < 1."""
    pm1, p = islice(legendre_rows(x), n - 1, n + 1)
    return p, n * (x * p - pm1) / (x * x - 1.0)
