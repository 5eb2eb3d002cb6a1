"""Approximation workflow: reduce the frequency, project, reconstruct.

A target F(x) = f(x) sin(w x) + g(x) cos(w x) at arbitrary w > pi is first
rewritten at the nearest exact multiple 2 pi k using the trig addition
formulas; the new envelopes absorb the remainder epsilon and stay
non-oscillatory because |epsilon| <= pi.  Projection onto the orthonormal
basis is then a plain inner product per row, done by oracle quadrature.
Expansions are collapsed through the basis coefficient arrays first, so
every quadrature step costs one Legendre table and two matrix-vector
products, whatever the number of rows.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .basis import OscBasis
from .frequency import Frequency
from .legendre import legendre_norm_sq, legendre_rows, legendre_table
from .oracle import OracleConfig, composite_rule, sample
from .pairing import LegTrigCoeffs

logger = logging.getLogger(__name__)

# built-in envelope catalog for the CLI and tests
ENVELOPES = {
    "one": lambda x: np.ones_like(np.asarray(x, dtype=float)),
    "zero": lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    "x": lambda x: np.asarray(x, dtype=float),
    "x^2": lambda x: np.asarray(x, dtype=float) ** 2,
    "exp": lambda x: np.exp(np.asarray(x, dtype=float)),
    "cos1": lambda x: np.cos(np.asarray(x, dtype=float)),
    "runge": lambda x: 1.0 / (1.0 + 25.0 * np.asarray(x, dtype=float) ** 2),
}


@dataclass
class OscTarget:
    """F(x) = f_env(x) sin(freq_raw x) + g_env(x) cos(freq_raw x)."""

    f_env: object
    g_env: object
    freq_raw: float

    def __post_init__(self):
        if not math.isfinite(self.freq_raw) or self.freq_raw <= 0.0:
            raise ValueError(
                f"freq_raw must be positive and finite, got {self.freq_raw!r}"
            )

    def evaluate(self, x):
        xa = np.asarray(x, dtype=float)
        fv = np.broadcast_to(np.asarray(self.f_env(xa), dtype=float), xa.shape)
        gv = np.broadcast_to(np.asarray(self.g_env(xa), dtype=float), xa.shape)
        vals = fv * np.sin(self.freq_raw * xa) + gv * np.cos(self.freq_raw * xa)
        return vals if isinstance(x, np.ndarray) else float(vals)


@dataclass(frozen=True)
class BasisRef:
    """Identity of the basis an expansion belongs to."""

    freq: Frequency
    n_max: int
    basis_hash: str

    @classmethod
    def from_basis(cls, basis: OscBasis) -> "BasisRef":
        return cls(freq=basis.freq, n_max=basis.n_max,
                   basis_hash=basis.content_hash())


@dataclass
class Expansion:
    """Coefficients over the orthonormal rows, interleaved [p0, q0, p1, ...]."""

    basis_ref: BasisRef
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        expected = 2 * (self.basis_ref.n_max + 1)
        if self.coeffs.shape != (expected,):
            raise ValueError(
                f"expected {expected} coefficients for n_max="
                f"{self.basis_ref.n_max}, got {self.coeffs.size}"
            )
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("coefficients must be finite")


def reduce_frequency(target: OscTarget) -> tuple[Frequency, OscTarget]:
    """Rewrite the target at the nearest exact multiple of 2 pi.

    Returns the reduced Frequency (epsilon = 0) and a target with new
    envelopes f_hat = f cos(eps x) - g sin(eps x), g_hat = f sin(eps x)
    + g cos(eps x); pointwise identical to the original.  Targets already
    within 1e-12 of a 2 pi k pass through unchanged.
    """
    omega_raw = target.freq_raw
    if omega_raw <= math.pi:
        raise ValueError(
            f"freq_raw={omega_raw!r} <= pi: no integer k gives |epsilon| < pi"
        )
    decomp = Frequency.from_omega(omega_raw)
    if decomp.exact_multiple:
        return decomp, target
    eps = decomp.epsilon
    reduced = Frequency.exact(decomp.k)
    f, g = target.f_env, target.g_env

    def f_hat(x):
        xa = np.asarray(x, dtype=float)
        return np.asarray(f(xa), dtype=float) * np.cos(eps * xa) \
            - np.asarray(g(xa), dtype=float) * np.sin(eps * xa)

    def g_hat(x):
        xa = np.asarray(x, dtype=float)
        return np.asarray(f(xa), dtype=float) * np.sin(eps * xa) \
            + np.asarray(g(xa), dtype=float) * np.cos(eps * xa)

    logger.info("reduced omega_raw=%.17g to k=%d, epsilon=%.17g",
                omega_raw, decomp.k, eps)
    return reduced, OscTarget(f_env=f_hat, g_env=g_hat,
                              freq_raw=reduced.omega)


def _check_match(exp: Expansion, basis: OscBasis):
    want = exp.basis_ref.basis_hash
    have = basis.content_hash()
    if want != have:
        raise ValueError(
            f"expansion was computed against basis {want[:12]}..., "
            f"got basis {have[:12]}..."
        )


def _expansion_values(coeffs: np.ndarray, basis: OscBasis, x):
    """sum_i coeffs[i] * row_i(x), collapsed to one Legendre-trig function."""
    return LegTrigCoeffs(a=coeffs @ basis.a,
                         b=coeffs @ basis.b).evaluate(basis.freq.omega, x)


def _sample_on_rule(target: OscTarget, basis: OscBasis,
                    cfg: OracleConfig | None):
    """The oracle rule at the basis frequency and the reduced target on it."""
    omega = basis.freq.omega
    if abs(target.freq_raw - omega) > 1e-12 * max(1.0, omega):
        raise ValueError(
            f"target frequency {target.freq_raw!r} does not match basis "
            f"frequency {omega!r}; apply reduce_frequency first"
        )
    rule = composite_rule(omega, cfg)
    return rule, sample(target.evaluate, rule.nodes)


def project(target: OscTarget, basis: OscBasis,
            cfg: OracleConfig | None = None) -> Expansion:
    """Coefficients <F, row_i> by oracle quadrature.

    The rows are orthonormal, so no normal-equations solve is involved.
    The target must already be reduced: its frequency has to equal the
    basis frequency to 1e-12 relative.
    """
    rule, F = _sample_on_rule(target, basis, cfg)
    x, wF, omega = rule.nodes, rule.weights * F, basis.freq.omega
    P = legendre_table(basis.n_max, x)
    coeffs = basis.a @ (P @ (wF * np.cos(omega * x))) \
        + basis.b @ (P @ (wF * np.sin(omega * x)))
    return Expansion(basis_ref=BasisRef.from_basis(basis), coeffs=coeffs)


def evaluate_expansion(exp: Expansion, basis: OscBasis, x):
    """Sum of coeffs[i] * row_i(x); x may be scalar or ndarray."""
    _check_match(exp, basis)
    return _expansion_values(exp.coeffs, basis, x)


def residual_norm(target: OscTarget, exp: Expansion, basis: OscBasis,
                  cfg: OracleConfig | None = None) -> float:
    """L2 norm of F minus its expansion, by oracle quadrature."""
    _check_match(exp, basis)
    rule, F = _sample_on_rule(target, basis, cfg)
    r = F - _expansion_values(exp.coeffs, basis, rule.nodes)
    return float(np.sqrt(max(np.sum(rule.weights * r * r), 0.0)))


def plain_legendre_residuals(target: OscTarget, n_max: int,
                             cfg: OracleConfig | None = None) -> np.ndarray:
    """Residual norms of plain Legendre expansions of the full oscillatory
    target, degrees 0 ... n_max.

    The comparison baseline for the frequency-independence claim: expanding
    F itself (oscillations included) in P_0 ... P_n needs n to grow with
    omega.  Computed in one streaming recurrence pass; accurate while n_max
    stays below the node budget of the quadrature rule.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    rule = composite_rule(target.freq_raw, cfg)
    x, w = rule.nodes, rule.weights
    F = sample(target.evaluate, x)
    wF = w * F
    total = float(np.sum(wF * F))
    residuals = np.empty(n_max + 1)
    captured = 0.0
    for n, pn in zip(range(n_max + 1), legendre_rows(x)):
        proj = float(np.sum(wF * pn))
        captured += proj * proj / legendre_norm_sq(n)
        residuals[n] = math.sqrt(max(total - captured, 0.0))
    return residuals
