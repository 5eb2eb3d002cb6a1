"""Brute-force verification oracle.

Composite Gauss-Legendre quadrature with enough panels to resolve the
fastest integrand oscillation (cos(2*omega*x) and sin(2*omega*x)).  Tables,
member and monomial-trig Grams go through one Gram kernel that walks the
rule a chunk of nodes at a time, so their memory does not grow with omega.
The module keeps no state: each call builds the rule it needs.  Nothing
here shares code with the table recursion it verifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frequency import Frequency
from .legendre import QuadratureRule, gauss_legendre_rule, legendre_table
from .pairing import _rows, legtrig_values

# most nodes a composite rule may have; a refined rule (6 panels per period,
# 32 points per panel) at omega/2pi = 2000 has 768,000
NODE_BUDGET = 2 ** 24
_GRAM_CHUNK = 4096  # nodes per quadrature Gram chunk
MIN_PANELS = 8  # fewest panels of a composite rule, however low omega is


@dataclass(frozen=True)
class OracleConfig:
    """Resolution knobs for the composite quadrature.

    Panel count for frequency omega is max(MIN_PANELS,
    ceil(panels_per_period * omega / pi)), so with the default 4 panels per
    period of cos(2*omega*x) each panel sees about a quarter period.
    """

    panels_per_period: int = 4
    points_per_panel: int = 24

    def __post_init__(self):
        if self.panels_per_period < 2:
            raise ValueError("panels_per_period must be >= 2")
        if self.points_per_panel < 8:
            raise ValueError("points_per_panel must be >= 8")

    def panel_count(self, omega: float) -> int:
        """Panels for omega; ValueError past NODE_BUDGET nodes, compared as
        a float before ceil so that omega = 1e308, inf or NaN is refused."""
        panels = max(self.panels_per_period * omega / math.pi, MIN_PANELS)
        nodes = panels * self.points_per_panel
        if not nodes <= NODE_BUDGET:
            raise ValueError(f"the oracle rule at omega={omega:.6g} needs {nodes:.4g} "
                             f"nodes, over the budget of {NODE_BUDGET}")
        return math.ceil(panels)


def composite_rule(omega: float, cfg: OracleConfig | None = None) -> QuadratureRule:
    """Composite Gauss-Legendre rule on [-1, 1] resolving oscillations up to
    frequency 2*omega, built afresh on every call.  Refuses with ValueError,
    before allocating anything, a rule of more than NODE_BUDGET nodes."""
    cfg = cfg or OracleConfig()
    n_panels = cfg.panel_count(float(omega))
    base = gauss_legendre_rule(cfg.points_per_panel)
    edges = np.linspace(-1.0, 1.0, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * base.nodes[None, :]).ravel()
    weights = (half[:, None] * base.weights[None, :]).ravel()
    return QuadratureRule(nodes=nodes, weights=weights)


def sample(F, nodes: np.ndarray) -> np.ndarray:
    """F at the nodes by one call, broadcast to their shape; ValueError if
    it does not broadcast, or at the first non-finite value."""
    values = np.asarray(F(nodes), dtype=float)
    if values.shape != nodes.shape:
        try:
            values = np.broadcast_to(values, nodes.shape)
        except ValueError:
            raise ValueError(f"integrand returned shape {values.shape}, which "
                             f"does not broadcast to {nodes.shape}") from None
    bad = ~np.isfinite(values)
    if np.any(bad):
        i = int(np.nonzero(bad)[0][0])
        raise ValueError(
            f"integrand returned non-finite value {values[i]!r} at x={nodes[i]!r}"
        )
    return values


def integrate(F, freq: Frequency) -> float:
    """Integral of F over [-1, 1] by composite Gauss-Legendre quadrature.

    Accurate to about 1e-12 absolute for integrands of the form
    (polynomial of degree <= 40) * trig(<= 2*omega) at default settings.
    """
    rule = composite_rule(freq.omega)
    values = sample(F, rule.nodes)
    return float(np.sum(rule.weights * values))


def _gram(rows, omega: float, cfg: OracleConfig | None = None) -> np.ndarray:
    """Exactly symmetric Gram matrix, by the composite rule for omega, of
    the functions whose values at points x are the rows of rows(x); summed
    _GRAM_CHUNK nodes at a time, so memory is bounded by the chunk."""
    rule = composite_rule(omega, cfg)
    G = 0.0
    for start in range(0, rule.nodes.size, _GRAM_CHUNK):
        chunk = slice(start, start + _GRAM_CHUNK)
        E = rows(rule.nodes[chunk])
        G += (E * rule.weights[chunk]) @ E.T
    return 0.5 * (G + G.T)


def oracle_tables(freq: Frequency, n_max: int,
                  cfg: OracleConfig | None = None) -> dict[str, np.ndarray]:
    """All five non-trivial tables M2 ... M6 from one quadrature Gram.

    Returns {'m2': ..., 'm6': ...} with (n_max+1) x (n_max+1) matrices:
    'm2' holds <P_j cos, P_k sin>, 'm3' <P_j cos, P_k cos>, 'm4' <P_j sin,
    P_k sin>, 'm5' <P_j, P_k cos(2 omega x)>, 'm6' <P_j, P_k sin(2 omega
    x)>.  The Gram of the unit modes P_j cos and P_j sin holds M3, M2 and
    M4 as blocks; M5 = M3 - M4 and M6 = 2 M2 by the double-angle formulas.
    Used by verify_tables.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    omega = freq.omega

    def units(x):  # rows P_j cos(omega x), then rows P_j sin(omega x)
        trig = np.stack([np.cos(omega * x), np.sin(omega * x)])
        return (trig[:, None] * legendre_table(n_max, x)).reshape(-1, x.size)

    n = n_max + 1
    G = _gram(units, omega, cfg)
    m2, m3, m4 = G[:n, n:], G[:n, :n], G[n:, n:]
    return {"m2": m2, "m3": m3, "m4": m4, "m5": m3 - m4, "m6": 2.0 * m2}


def member_gram(members, omega: float) -> np.ndarray:
    """Gram matrix of the rows of a basis or of an (A, B) pair, as
    gram_matrix takes them, by quadrature, independent of any tables."""
    A, B = _rows(members)
    return _gram(lambda x: legtrig_values(A, B, omega, x), omega)


def monomial_gram(freq: Frequency, n: int) -> np.ndarray:
    """Gram matrix H[i][j] = <x^i cos(omega x), x^j cos(omega x)>.

    This is the ill-conditioned object the Legendre-trig representation
    avoids; for large omega it approaches hilbert_limit(n).
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    omega = freq.omega
    return _gram(lambda x: np.vander(x, n + 1, increasing=True).T
                 * np.cos(omega * x), omega)


def hilbert_limit(n: int) -> np.ndarray:
    """The omega -> infinity limit of monomial_gram on [-1, 1]:
    L[i][j] = (1 + (-1)^(i+j)) / (2 (i+j+1)).

    Odd i+j entries vanish by parity; the even ones reproduce Hilbert-matrix
    behaviour, which is what makes the monomial-trig Gram ill-conditioned.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    i = np.arange(n + 1)
    s = i[:, None] + i[None, :]
    return (1.0 + (-1.0) ** s) / (2.0 * (s + 1))


def cond_estimate(matrix) -> float:
    """2-norm condition number of a symmetric matrix.

    max|lambda| / min|lambda| over the eigenvalues from the symmetric
    eigensolver; 1.0 for an empty matrix, inf for a singular one.
    """
    A = np.asarray(matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    scale = float(np.max(np.abs(A))) if A.size else 0.0
    if not np.allclose(A, A.T, rtol=0.0, atol=1e-10 * max(scale, 1.0)):
        raise ValueError("matrix must be symmetric")
    if A.shape[0] == 0:
        return 1.0
    eigs = np.abs(np.linalg.eigvalsh(0.5 * (A + A.T)))
    if scale == 0.0 or eigs.min() == 0.0:
        return math.inf
    return float(eigs.max() / eigs.min())
