"""Brute-force verification oracle.

Composite Gauss-Legendre quadrature with enough panels to resolve the
fastest integrand oscillation (cos(2*omega*x) and sin(2*omega*x)).  Tables
and member Grams sum their integrands, split into even and odd blocks, over
the x > 0 half of the rule with doubled weights, a chunk of nodes at a time,
so their memory does not grow with omega.  The tables check integrates M5
and M6 from their definition and nothing else.
The module keeps no state: each call builds the rule it needs.  Nothing
here shares code with the table recursion it verifies, and no pipeline
module imports this one.  verify is the one check of tables or a basis
against the oracle, with one report for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import OscBasis
from .frequency import Frequency, require_real
from .legendre import (QuadratureRule, gauss_legendre_rule, legendre_table,
                       require_count, require_size)
from .tables import InnerProductTables, _rows

_CHUNK = 1024  # nodes x > 0 per chunk of _half_rule
MIN_PANELS = 8  # fewest panels of a composite rule, however low omega is
MAX_POINTS = 64  # most points per panel: a rule costs points^2 steps per Newton pass
# most nodes of a composite rule; a refined rule (6 panels per period, 32
# points per panel) at omega/2pi = 2000 has 768,000 nodes
NODE_BUDGET = 2 ** 24


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
        require_real(self.panels_per_period, "panels_per_period")
        if not 2 <= self.panels_per_period < math.inf:
            raise ValueError("panels_per_period must be >= 2 and finite")
        require_count(self.points_per_panel, "points_per_panel", 8)
        if self.points_per_panel > MAX_POINTS:
            raise ValueError(f"points_per_panel must be from 8 to {MAX_POINTS}, "
                             f"got {self.points_per_panel}")

    def panel_count(self, omega: float) -> int:
        """Panels for omega; ValueError past NODE_BUDGET nodes, compared as
        a float before ceil so that omega = 1e308, inf or NaN is refused."""
        panels = max(self.panels_per_period * omega / math.pi, MIN_PANELS)
        nodes = panels * self.points_per_panel
        if not nodes <= NODE_BUDGET:
            raise ValueError(f"the oracle rule at omega={omega:.6g} needs {nodes:.4g} "
                             f"nodes, over the budget of {NODE_BUDGET}")
        return math.ceil(panels)


def _panels(omega: float, cfg: OracleConfig | None):
    """Midpoints and half-widths of the composite rule's panels for omega,
    and the Gauss-Legendre rule that each panel scales."""
    cfg = cfg or OracleConfig()
    n_panels = cfg.panel_count(float(omega))
    edges = np.linspace(-1.0, 1.0, n_panels + 1)
    return (0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1]),
            gauss_legendre_rule(cfg.points_per_panel))


def composite_rule(omega: float, cfg: OracleConfig | None = None) -> QuadratureRule:
    """Composite Gauss-Legendre rule on [-1, 1] resolving oscillations up to
    frequency 2*omega, built afresh on every call.  Refuses with ValueError,
    before allocating anything, a rule of more than NODE_BUDGET nodes."""
    mid, half, base = _panels(omega, cfg)
    nodes = (mid[:, None] + half[:, None] * base.nodes[None, :]).ravel()
    weights = (half[:, None] * base.weights[None, :]).ravel()
    return QuadratureRule(nodes=nodes, weights=weights)


def _half_rule(omega: float, cfg: OracleConfig | None = None):
    """The x > 0 half of composite_rule(omega, cfg) with doubled weights,
    _CHUNK nodes at a time, with the bits of composite_rule's nodes and
    weights; an odd rule's middle node is 0 and its weight is not doubled.
    Summed over it, an even integrand gives its integral over [-1, 1], and
    no array grows with omega."""
    mid, half, base = _panels(omega, cfg)
    m = len(base)
    n_nodes = mid.size * m  # symmetric about 0: the upper half is x > 0
    for start in range(n_nodes // 2, n_nodes, _CHUNK):
        p, q = np.divmod(np.arange(start, min(start + _CHUNK, n_nodes)), m)
        x = mid[p] + half[p] * base.nodes[q]
        w = 2.0 * (half[p] * base.weights[q])
        if start == n_nodes // 2 and n_nodes % 2:
            x[0], w[0] = 0.0, 0.5 * w[0]
        yield x, w


def oracle_tables(freq: Frequency, n_max: int,
                  cfg: OracleConfig | None = None) -> dict[str, np.ndarray]:
    """M5 and M6 from their definition M5 + i M6 = P diag(w e^{2i omega x})
    P^T over the composite rule, as {'m5': ..., 'm6': ...} with (n_max+1) x
    (n_max+1) matrices.  P_j P_k cos(2 omega x) is even where j + k is even
    and P_j P_k sin(2 omega x) where j + k is odd, so over _half_rule M5 is
    an even-degree and an odd-degree block and M6 one even-by-odd block;
    both are exactly symmetric and exactly 0.0 off their parity.  Used by
    verify.
    """
    require_size(n_max)
    two_omega = 2.0 * freq.omega
    even, odd, cross = 0.0, 0.0, 0.0
    for x, w in _half_rule(freq.omega, cfg):
        P = legendre_table(n_max, x)
        wc, ws = w * np.cos(two_omega * x), w * np.sin(two_omega * x)
        even += (P[0::2] * wc) @ P[0::2].T
        odd += (P[1::2] * wc) @ P[1::2].T
        cross += (P[0::2] * ws) @ P[1::2].T
    m5, m6 = np.zeros((2, n_max + 1, n_max + 1))
    m5[0::2, 0::2], m5[1::2, 1::2] = 0.5 * (even + even.T), 0.5 * (odd + odd.T)
    m6[0::2, 1::2], m6[1::2, 0::2] = cross, cross.T
    return {"m5": m5, "m6": m6}


def member_gram(members, omega: float) -> np.ndarray:
    """Gram matrix of the rows of a basis or of an (A, B) pair, as
    gram_matrix takes them, by quadrature, independent of any tables.

    Each row splits into an even part (cos at even degrees, sin at odd) and
    an odd part; each parity block holds the rows whose part is nonzero, is
    evaluated from its own half of the degrees and is summed over
    _half_rule.  The result is exactly symmetric; a basis's members have
    definite parity, so its cross-parity entries are exactly 0.0.
    ValueError for a basis and an omega that is not the basis's own.
    """
    freq = getattr(members, "freq", None)
    if freq is not None and omega != freq.omega:
        raise ValueError(f"member_gram at omega={omega!r} of a basis built "
                         f"at omega={freq.omega!r}")
    A, B = _rows(members)
    parts = [(A[:, p::2], B[:, 1 - p::2]) for p in (0, 1)]
    blocks = [np.flatnonzero(np.any(a != 0.0, axis=1) | np.any(b != 0.0, axis=1))
              for a, b in parts]
    parts = [(a[rows], b[rows]) for (a, b), rows in zip(parts, blocks)]
    grams = [0.0, 0.0]
    for x, w in _half_rule(omega):
        P = legendre_table(A.shape[1] - 1, x)
        cos, sin = np.cos(omega * x), np.sin(omega * x)
        for p, (a, b) in enumerate(parts):
            E = (a @ P[p::2]) * cos + (b @ P[1 - p::2]) * sin
            grams[p] += (E * w) @ E.T
    G = np.zeros((A.shape[0], A.shape[0]))
    for rows, g in zip(blocks, grams):
        G[np.ix_(rows, rows)] += 0.5 * (g + g.T)
    return G


@dataclass
class VerifyReport:
    """Outcome of verify: the max deviation per matrix (m5 and m6, or gram)
    and every entry not within tolerance as (matrix, j, k, deviation)."""

    kind: str
    tolerance: float
    deviations: dict
    flagged: list

    @property
    def passed(self) -> bool:
        return not self.flagged

    def as_dict(self) -> dict:
        """The JSON report body: per-matrix maxima and {matrix, j, k} entries
        for tables, the max |G - I| and {i, j} entries for a basis."""
        tables = self.kind == "tables"
        keys = ("matrix", "j", "k", "deviation") if tables else ("i", "j", "deviation")
        return {"tolerance": self.tolerance,
                **({"max_deviation_per_matrix": dict(self.deviations)} if tables
                   else {"max_gram_deviation": self.deviations["gram"]}),
                "flagged_entries": [dict(zip(keys, entry[-len(keys):]))
                                    for entry in self.flagged],
                "passed": self.passed}


def verify(obj, tolerance: float) -> VerifyReport:
    """Every entry of m5 and m6 of tables against oracle_tables, or the
    member_gram of a basis against I.  The report flags every entry not
    within tolerance, NaN included.  ValueError for a tolerance that is not
    a real number >= 0 and finite, TypeError for anything but tables or a basis."""
    require_real(tolerance, "tolerance")
    if not 0.0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance!r}")
    if isinstance(obj, InnerProductTables):
        reference = oracle_tables(obj.freq, obj.n_max)
        kind, pairs = "tables", [(name, getattr(obj, name), reference[name])
                                 for name in ("m5", "m6")]
    elif isinstance(obj, OscBasis):
        G = member_gram(obj, obj.freq.omega)
        kind, pairs = "basis", [("gram", G, np.eye(G.shape[0]))]
    else:
        raise TypeError(f"verify takes tables or a basis, not {type(obj).__name__}")
    deviations, flagged = {}, []
    for name, mat, want in pairs:
        diff = np.abs(mat - want)
        deviations[name] = float(np.max(diff)) if diff.size else 0.0
        flagged += [(name, int(j), int(k), float(diff[j, k]))
                    for j, k in zip(*np.nonzero(~(diff <= tolerance)))]
    return VerifyReport(kind, tolerance, deviations, flagged)


verify_tables = verify
