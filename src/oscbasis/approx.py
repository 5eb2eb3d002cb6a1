"""Approximation workflow: project, reconstruct, measure the residual.

A target F(x) = f(x) sin(w x) + g(x) cos(w x) is projected onto a basis at
any frequency w_b within pi of w; reduce_frequency names the nearest 2 pi k.
With eps = w - w_b the trig addition formulas give F the envelopes f cos(eps
x) - g sin(eps x) and f sin(eps x) + g cos(eps x) at w_b, non-oscillatory
because |eps| <= pi; project rotates its samples of f and g that way, and
the target itself is never rewritten.  Projection onto the orthonormal
basis is a plain inner product per row, and the residual the L2 norm of
what is left.  Both are Filon quadrature (Iserles & Norsett, 2005): the
envelopes and the rows are sampled on one fixed Gauss-Legendre rule, and
the oscillatory factor cos(2 w_b x) + i sin(2 w_b x) their products carry
is integrated exactly through the moments of the Legendre polynomials, so
the cost does not depend on w.  The quadrature oracle is left to checking
only.  Expansions are evaluated through the basis coefficient arrays, one
Legendre table and two matrix-vector products; legtrig_values keeps the
table of its last point set (up to KEPT_ENTRIES entries, keyed by the
points' bytes), so expansions evaluated on one grid share one table, and
sums one point on Python floats in degree order.
"""

from __future__ import annotations

import logging
import math
import operator
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .basis import OscBasis
from .frequency import Frequency, require_real
from .legendre import _gauss_legendre, legtrig_values, require_finite, require_size

logger = logging.getLogger(__name__)

# The reduced envelopes must be resolved by Legendre degree ENVELOPE_DEGREE:
# their Legendre tail beyond it may hold at most RESOLVE_TOL of their L2 norm.
ENVELOPE_DEGREE = 160
RESOLVE_TOL = 1e-10

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
        require_real(self.freq_raw, "freq_raw")
        if not 0 < self.freq_raw <= sys.float_info.max:
            raise ValueError(f"freq_raw must be positive and finite, got {self.freq_raw!r}")

    def evaluate(self, x):
        xa = np.asarray(x, dtype=float)
        fv = np.broadcast_to(np.asarray(self.f_env(xa), dtype=float), xa.shape)
        gv = np.broadcast_to(np.asarray(self.g_env(xa), dtype=float), xa.shape)
        vals = fv * np.sin(self.freq_raw * xa) + gv * np.cos(self.freq_raw * xa)
        return float(vals) if vals.ndim == 0 else vals


@dataclass(eq=False)
class Expansion:
    """Coefficients over the orthonormal rows, interleaved [p0, q0, p1, ...],
    of the basis named by its frequency, its N and its content hash
    (OscBasis.content_hash, over the basis's arrays).  Equality is identity,
    as for OscBasis: compare the coefficient arrays directly."""

    freq: Frequency
    n_max: int
    basis_hash: str
    coeffs: np.ndarray
    # what project sampled, for residual_norm: see _filon_setup
    _sampled: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        require_size(self.n_max)
        if not isinstance(self.basis_hash, str):
            raise ValueError(f"basis_hash must be a string, got {self.basis_hash!r}")
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        expected = 2 * (self.n_max + 1)
        if self.coeffs.shape != (expected,):
            raise ValueError(f"expected {expected} coefficients for n_max="
                             f"{self.n_max}, got {self.coeffs.size}")
        require_finite(self.coeffs)

    def __getstate__(self):
        # the samples hold the target, whose envelopes may not pickle
        return {**vars(self), "_sampled": None}


def reduce_frequency(target: OscTarget) -> tuple[Frequency, OscTarget]:
    """The exact multiple 2 pi k nearest the target's frequency, the basis
    frequency to project it on, and the target itself, unchanged.

    A frequency within 1e-12 of a 2 pi k is returned as that promoted
    Frequency (Frequency.from_omega), any other as Frequency.exact(k);
    project absorbs the remainder epsilon into the envelopes.
    """
    omega_raw = target.freq_raw
    if omega_raw <= math.pi:
        raise ValueError(
            f"freq_raw={omega_raw!r} <= pi: no integer k gives |epsilon| < pi"
        )
    decomp = Frequency.from_omega(omega_raw)
    return decomp if decomp.exact_multiple else Frequency.exact(decomp.k), target


def sample(F, nodes: np.ndarray) -> np.ndarray:
    """F at the nodes by one call, as an array of their shape; a result that
    only broadcasts to it, such as a scalar, is copied out in full.
    ValueError if it does not broadcast, or at the first non-finite value."""
    values = np.asarray(F(nodes), dtype=float)
    if values.shape != nodes.shape:
        try:
            values = np.broadcast_to(values, nodes.shape).copy()
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


def _check_match(exp: Expansion, basis: OscBasis):
    want = exp.basis_hash
    have = basis.content_hash()
    if want != have:
        raise ValueError(
            f"expansion was computed against basis {want[:12]}..., "
            f"got basis {have[:12]}..."
        )


@lru_cache(maxsize=2)
def _analysis(points: int):
    """The Gauss-Legendre analysis rule: nodes, weights, the Legendre table P
    at the nodes, and W, which takes values at the nodes to the Legendre
    coefficients of their interpolant (row l holds (l + 1/2) w_i P_l(x_i))."""
    nodes, weights, P = _gauss_legendre(points, True)
    W = (np.arange(points)[:, None] + 0.5) * P
    W *= weights
    return nodes, weights, P, W


def _spherical_bessel(kappa: float, sin_k: float, cos_k: float,
                      count: int) -> np.ndarray:
    """j_0(kappa) ... j_{count-1}(kappa), given sin and cos of kappa.

    Forward recurrence where every degree is below kappa / 2, so that it
    stays in the oscillatory range where it is stable; otherwise Miller's
    backward recurrence from well past both count and kappa, rescaled
    against overflow and normalised by j_0 or j_1, whichever is larger.
    """
    # on local Python floats: item-by-item numpy scalars cost several times
    # more, and list indexing about half as much again, for the same bits
    if kappa >= 2 * count:
        prev, cur = j = [sin_k / kappa, sin_k / kappa ** 2 - cos_k / kappa]
        for n in range(1, count - 1):
            prev, cur = cur, (2 * n + 1) / kappa * cur - prev
            j.append(cur)
        return np.array(j[:count])
    top = int(max(count, kappa)) + 40 + int(4 * kappa ** (1 / 3))
    # filled downwards: j[i] holds degree top + 1 - i, cur the last of them
    prev, cur = j = [0.0, 1e-300]
    for n in range(top, 0, -1):
        prev, cur = cur, (2 * n + 1) / kappa * cur - prev
        j.append(cur)
        if abs(cur) > 1e250:
            j = [v * 1e-250 for v in j]
            prev, cur = j[-2:]
    j = np.array(j[: -count - 1 : -1])
    if abs(sin_k) >= abs(cos_k):
        return j * (sin_k / kappa / j[0])
    return j * ((sin_k / kappa ** 2 - cos_k / kappa) / j[1])


def _filon_weights(freq: Frequency, points: int) -> np.ndarray:
    """Complex weights v on the analysis nodes with sum_i v_i h(x_i) equal to
    the integral of h(x) exp(2i omega x) over [-1, 1] for every polynomial h
    of degree < points: the moments 2 i^l j_l(2 omega) of P_l, times W.

    The moments are real at even l and imaginary at odd l, so v is two real
    products, one over the even rows of W and one over the odd ones."""
    moments = np.array([2.0, -2.0])[np.arange(points) // 2 % 2] \
        * _spherical_bessel(2.0 * freq.omega, *freq.double_angle(), points)
    W = _analysis(points)[3]
    v = np.empty(points, dtype=complex)
    v.real = moments[0::2] @ W[0::2]
    v.imag = moments[1::2] @ W[1::2]
    return v


def _filon_setup(target: OscTarget, basis: OscBasis, sampled=None):
    """The envelopes g and f on the analysis nodes, rotated onto the basis
    frequency, the Legendre table there up to the basis degree, and the
    plain and the Filon weights, last in the record (target, f_env, g_env,
    basis, freq_raw, those).  An earlier record of this very target,
    envelope objects, basis and freq_raw is returned as is.

    The rotation by eps = freq_raw - omega is that of the module docstring;
    it is skipped within 1e-12 relative of 0 and refused past pi.  With F =
    g - i f and a row a - i b, the integral of (g cos + f sin)(a cos + b
    sin) is half the real part of the sums of w F conj(a - i b) and v F (a -
    i b), and that of (g cos + f sin)^2 half the real part of those of w
    |F|^2 and v F^2.  So with envelopes resolved by degree D and rows of
    degree at most D, a rule of 2D + 1 points makes every integral exact up
    to the envelopes' tail, whatever omega.
    """
    omega, omega_raw = basis.freq.omega, target.freq_raw
    f_env, g_env = target.f_env, target.g_env
    key = target, f_env, g_env, basis
    if sampled and all(map(operator.is_, sampled, key)) and sampled[4] == omega_raw:
        return sampled
    eps = omega_raw - omega
    if not abs(eps) <= math.pi:
        raise ValueError(f"target frequency {omega_raw!r} is more than pi "
                         f"from basis frequency {omega!r}")
    degree = max(ENVELOPE_DEGREE, basis.n_max)
    x, w, P, W = _analysis(2 * degree + 1)
    g, f = sample(g_env, x), sample(f_env, x)
    if abs(eps) > 1e-12 * max(1.0, omega):
        logger.info("reduced omega_raw=%.17g onto basis omega=%.17g (k=%d), "
                    "epsilon=%.17g", omega_raw, omega, basis.freq.k, eps)
        cos, sin = np.cos(eps * x), np.sin(eps * x)
        g, f = f * sin + g * cos, f * cos - g * sin
    # the Legendre coefficients of the envelopes beyond degree D, against
    # their whole norm, sum w (g^2 + f^2): exact for interpolants of degree 2D
    energy = np.square(W[degree + 1:] @ np.column_stack([g, f])).sum(axis=1) \
        / np.arange(degree + 1.5, x.size)
    norm, tail = math.sqrt(w @ (g * g + f * f)), math.sqrt(energy.sum())
    if not tail <= RESOLVE_TOL * norm:
        raise ValueError(
            f"envelopes not resolved at Legendre degree M={degree} "
            f"(omega={omega:.6g}): the tail beyond it is {tail / norm:.2e} "
            f"of the envelope norm, over {RESOLVE_TOL:g}"
        )
    return *key, omega_raw, (g, f, P[:basis.n_max + 1], w,
                             _filon_weights(basis.freq, x.size))


def project(target: OscTarget, basis: OscBasis) -> Expansion:
    """Coefficients <F, row_i> by Filon quadrature on the analysis rule.

    The cost does not depend on omega.  The rows are orthonormal, so no
    normal-equations solve is involved.  The target may be at any
    frequency within pi of the basis's, with envelopes resolved by
    ENVELOPE_DEGREE (see _filon_setup).
    """
    sampled = _filon_setup(target, basis)
    g, f, P, w, v = sampled[-1]
    # the real part of w F conj(a - i b) + v F (a - i b) is a yg + b yf
    yg = (w + v.real) * g + v.imag * f
    yf = (w - v.real) * f + v.imag * g
    coeffs = 0.5 * (basis.a @ (P @ yg) + basis.b @ (P @ yf))
    return Expansion(basis.freq, basis.n_max, basis.content_hash(), coeffs,
                     _sampled=sampled)


def evaluate_expansion(exp: Expansion, basis: OscBasis, x):
    """Sum of coeffs[i] * row_i(x), collapsed to one Legendre-trig function:
    a float for a scalar or 0-d x, else an array of x's shape."""
    _check_match(exp, basis)
    a, b = exp.coeffs @ basis.a, exp.coeffs @ basis.b
    require_finite(a, b)
    return legtrig_values(a, b, basis.freq.omega, x)


def residual_norm(target: OscTarget, exp: Expansion, basis: OscBasis) -> float:
    """L2 norm of F minus its expansion, by the same Filon quadrature as
    project, on the residual's own values (no Parseval cancellation).  On
    the expansion project returned, for the same target object, f_env, g_env,
    freq_raw and basis object, it reuses that projection's envelope samples
    and resolution check; any other call samples the envelopes afresh."""
    _check_match(exp, basis)
    g, f, P, w, v = _filon_setup(target, basis, exp._sampled)[-1]
    # the residual's envelopes; the real part of w |r|^2 + v r^2 for
    # r = rg - i rf
    rg = g - (exp.coeffs @ basis.a) @ P
    rf = f - (exp.coeffs @ basis.b) @ P
    r2 = 0.5 * ((w + v.real) @ (rg * rg) + (w - v.real) @ (rf * rf)
                + 2.0 * (v.imag @ (rg * rf)))
    return float(np.sqrt(max(r2, 0.0)))
