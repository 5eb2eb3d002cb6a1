"""Reference values for the outcome checks, all by `oscbasis.oracle` quadrature.

Bases are read through their documented JSON form (rows of Legendre-trig
coefficients a, b), so the checks do not depend on how the program stores a
basis in memory.  Quadrature runs over the oracle's composite rule in node
chunks, which bounds memory at about (rows + degree) x CHUNK doubles.
"""

from __future__ import annotations

import json

import numpy as np
from oscbasis.legendre import legendre_table
from oscbasis.oracle import OracleConfig, composite_rule

CHUNK = 4096

# Finer than the default four panels per period and 24 points per panel; the
# projection checks compare the program's default-resolution quadrature
# against this one.
FINE = OracleConfig(panels_per_period=6, points_per_panel=32)


def load_rows(path) -> tuple[float, np.ndarray, np.ndarray]:
    """(omega, A, B) from a basis document; row i of A and B holds the cosine
    and sine Legendre coefficients of member i, zero-padded."""
    with open(path) as fh:
        doc = json.load(fh)
    rows = doc["rows"]
    width = max(len(r["a"]) for r in rows)
    A = np.zeros((len(rows), width))
    B = np.zeros((len(rows), width))
    for i, r in enumerate(rows):
        A[i, :len(r["a"])] = r["a"]
        B[i, :len(r["b"])] = r["b"]
    return float(doc["omega"]), A, B


def _members(A, B, omega, x):
    P = legendre_table(A.shape[1] - 1, x)
    return (A @ P) * np.cos(omega * x) + (B @ P) * np.sin(omega * x)


def member_values(A, B, omega, x) -> np.ndarray:
    """Members evaluated at x, shape (rows, len(x))."""
    x = np.asarray(x, dtype=float)
    return np.hstack([_members(A, B, omega, x[s:s + CHUNK])
                      for s in range(0, max(x.size, 1), CHUNK)])


def gram(A, B, omega, cfg: OracleConfig | None = None) -> np.ndarray:
    """Gram matrix of the members by composite quadrature (the quantity
    `oracle.member_gram` computes, batched over members)."""
    rule = composite_rule(omega, cfg)
    G = np.zeros((A.shape[0], A.shape[0]))
    for s in range(0, rule.nodes.size, CHUNK):
        x, w = rule.nodes[s:s + CHUNK], rule.weights[s:s + CHUNK]
        E = _members(A, B, omega, x)
        G += (E * w) @ E.T
    return 0.5 * (G + G.T)


def gram_deviation(A, B, omega) -> float:
    G = gram(A, B, omega)
    return float(np.max(np.abs(G - np.eye(G.shape[0]))))


def projection(A, B, omega, f, g, omega_raw, coeffs):
    """Reference coefficients of F = f sin(omega_raw x) + g cos(omega_raw x)
    on the members, and the L2 residual of F minus the expansion with the
    given `coeffs`, both on the FINE rule.

    The target is sampled at its raw frequency, so the reference does not go
    through the program's frequency reduction.
    """
    rule = composite_rule(omega, FINE)
    c_ref = np.zeros(A.shape[0])
    r2 = 0.0
    for s in range(0, rule.nodes.size, CHUNK):
        x, w = rule.nodes[s:s + CHUNK], rule.weights[s:s + CHUNK]
        E = _members(A, B, omega, x)
        F = f(x) * np.sin(omega_raw * x) + g(x) * np.cos(omega_raw * x)
        c_ref += E @ (w * F)
        r = F - coeffs @ E
        r2 += float(np.sum(w * r * r))
    return c_ref, float(np.sqrt(max(r2, 0.0)))


def interleaved_matrix(A, B) -> np.ndarray:
    """Members as columns over interleaved (a_0, b_0, a_1, b_1, ...)."""
    M = np.zeros((2 * A.shape[1], A.shape[0]))
    M[0::2] = A.T
    M[1::2] = B.T
    return M
