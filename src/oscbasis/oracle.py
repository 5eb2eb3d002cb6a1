"""Brute-force verification oracle.

Composite Gauss-Legendre quadrature with enough panels to resolve the
fastest integrand oscillation (cos(2*omega*x) and sin(2*omega*x)), plus the
batched table, Gram-matrix, Hilbert-limit, and condition-number
computations that the rest of the package is checked against.  Nothing here
shares code with the table recursion it verifies.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .frequency import Frequency
from .legendre import QuadratureRule, gauss_legendre_rule, legendre_table
from .pairing import coefficient_arrays, legtrig_values

# most nodes a composite rule may have; a refined rule (6 panels per period,
# 32 points per panel) at omega/2pi = 2000 has 768,000
NODE_BUDGET = 2 ** 24
_GRAM_CHUNK = 4096  # nodes per member_gram chunk


@dataclass(frozen=True)
class OracleConfig:
    """Resolution knobs for the composite quadrature.

    Panel count for frequency omega is max(min_panels,
    ceil(panels_per_period * omega / pi)), so with the default 4 panels per
    period of cos(2*omega*x) each panel sees about a quarter period.
    """

    panels_per_period: int = 4
    points_per_panel: int = 24
    min_panels: int = 8

    def __post_init__(self):
        if self.panels_per_period < 2:
            raise ValueError("panels_per_period must be >= 2")
        if self.points_per_panel < 8:
            raise ValueError("points_per_panel must be >= 8")
        if self.min_panels < 1:
            raise ValueError("min_panels must be >= 1")

    def panel_count(self, omega: float) -> int:
        """Panels for omega; ValueError past NODE_BUDGET nodes, compared as
        a float before ceil so that omega = 1e308, inf or NaN is refused."""
        panels = max(self.panels_per_period * omega / math.pi, self.min_panels)
        nodes = panels * self.points_per_panel
        if not nodes <= NODE_BUDGET:
            raise ValueError(f"the oracle rule at omega={omega:.6g} needs {nodes:.4g} "
                             f"nodes, over the budget of {NODE_BUDGET}")
        return math.ceil(panels)


# built rules by (omega, panels_per_period, points_per_panel, min_panels),
# least recently used first; at most _RULE_CACHE_SIZE of them and, together,
# at most NODE_BUDGET nodes
_RULE_CACHE_SIZE = 64
_rules: OrderedDict[tuple, QuadratureRule] = OrderedDict()


def _build_rule(omega: float, cfg: OracleConfig) -> QuadratureRule:
    n_panels = cfg.panel_count(omega)
    base = gauss_legendre_rule(cfg.points_per_panel)
    edges = np.linspace(-1.0, 1.0, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * base.nodes[None, :]).ravel()
    weights = (half[:, None] * base.weights[None, :]).ravel()
    return QuadratureRule(nodes=nodes, weights=weights)


def composite_rule(omega: float, cfg: OracleConfig | None = None) -> QuadratureRule:
    """Composite Gauss-Legendre rule on [-1, 1] resolving oscillations up to
    frequency 2*omega.  Refuses with ValueError, before allocating anything,
    a rule of more than NODE_BUDGET nodes.  Rules are cached; the least
    recently used are dropped once the cache holds more than NODE_BUDGET
    nodes in all."""
    cfg = cfg or OracleConfig()
    key = (float(omega), cfg.panels_per_period, cfg.points_per_panel,
           cfg.min_panels)
    rule = _rules.get(key)
    if rule is None:
        rule = _rules[key] = _build_rule(key[0], cfg)
        while len(_rules) > _RULE_CACHE_SIZE or \
                sum(map(len, _rules.values())) > NODE_BUDGET:
            _rules.popitem(last=False)
    _rules.move_to_end(key)
    return rule


def sample(F, nodes: np.ndarray) -> np.ndarray:
    """F at the nodes, or ValueError at the first non-finite value."""
    values = np.asarray(F(nodes), dtype=float)
    if values.shape != nodes.shape:
        values = np.array([float(F(t)) for t in nodes])
    bad = ~np.isfinite(values)
    if np.any(bad):
        i = int(np.nonzero(bad)[0][0])
        raise ValueError(
            f"integrand returned non-finite value {values[i]!r} at x={nodes[i]!r}"
        )
    return values


def integrate(F, freq: Frequency, cfg: OracleConfig | None = None) -> float:
    """Integral of F over [-1, 1] by composite Gauss-Legendre quadrature.

    Accurate to about 1e-12 absolute for integrands of the form
    (polynomial of degree <= 40) * trig(<= 2*omega) at default settings.
    """
    rule = composite_rule(freq.omega, cfg)
    values = sample(F, rule.nodes)
    return float(np.sum(rule.weights * values))


def oracle_tables(freq: Frequency, n_max: int,
                  cfg: OracleConfig | None = None) -> dict[str, np.ndarray]:
    """All five non-trivial tables M2 ... M6 at once by batched quadrature.

    Returns {'m2': ..., 'm6': ...} with (n_max+1) x (n_max+1) matrices:
    'm2' holds <P_j cos, P_k sin>, 'm3' <P_j cos, P_k cos>, 'm4' <P_j sin,
    P_k sin>, 'm5' <P_j, P_k cos(2 omega x)>, 'm6' <P_j, P_k sin(2 omega
    x)>.  Used by verify_tables.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    omega = freq.omega
    rule = composite_rule(omega, cfg)
    x, w = rule.nodes, rule.weights
    P = legendre_table(n_max, x)
    c = np.cos(omega * x)
    s = np.sin(omega * x)
    Pc = P * c
    Ps = P * s
    return {
        "m2": (Pc * w) @ Ps.T,
        "m3": (Pc * w) @ Pc.T,
        "m4": (Ps * w) @ Ps.T,
        "m5": (P * (w * np.cos(2.0 * omega * x))) @ P.T,
        "m6": (P * (w * np.sin(2.0 * omega * x))) @ P.T,
    }


def member_gram(members, omega: float, cfg: OracleConfig | None = None) -> np.ndarray:
    """Gram matrix of Legendre-trig members (as coefficient_arrays takes
    them) by quadrature, independent of any recursion tables; evaluated a
    chunk of nodes at a time, so memory is bounded by the chunk size."""
    rule = composite_rule(omega, cfg)
    A, B = coefficient_arrays(members)
    G = np.zeros((A.shape[0], A.shape[0]))
    for start in range(0, rule.nodes.size, _GRAM_CHUNK):
        chunk = slice(start, start + _GRAM_CHUNK)
        E = legtrig_values(A, B, omega, rule.nodes[chunk])
        G += (E * rule.weights[chunk]) @ E.T
    return 0.5 * (G + G.T)


def monomial_gram(freq: Frequency, n: int, cfg: OracleConfig | None = None) -> np.ndarray:
    """Gram matrix H[i][j] = <x^i cos(omega x), x^j cos(omega x)>.

    This is the ill-conditioned object the Legendre-trig representation
    avoids; for large omega it approaches hilbert_limit(n).
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    omega = freq.omega
    rule = composite_rule(omega, cfg)
    x, w = rule.nodes, rule.weights
    V = np.empty((n + 1, x.size))
    V[0] = 1.0
    for i in range(1, n + 1):
        V[i] = V[i - 1] * x
    A = V * np.cos(omega * x)
    H = (A * w) @ A.T
    return 0.5 * (H + H.T)


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
