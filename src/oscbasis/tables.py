"""Inner-product tables M1 ... M6 for the Legendre-trig family.

M1[j][k] = <P_j, P_k>                    (diagonal, known norms)
M2[j][k] = <P_j cos(wx), P_k sin(wx)>    = M6/2
M3[j][k] = <P_j cos(wx), P_k cos(wx)>    = (M1 + M5)/2
M4[j][k] = <P_j sin(wx), P_k sin(wx)>    = (M1 - M5)/2
M5[j][k] = <P_j, P_k cos(2wx)>
M6[j][k] = <P_j, P_k sin(2wx)>

M5 and M6 satisfy a coupled recursion obtained by integrating by parts and
re-expanding P' in the Legendre basis: each entry on skew diagonal j+k = s
is a boundary term plus a (1/2w)-weighted combination of opposite-table
entries on diagonal s-1.  Entries are filled diagonal by diagonal, upper
triangle only, then mirrored.  Boundary terms vanish for M5 when j+k is odd
and for M6 when j+k is even, so those entries stay exactly zero.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .frequency import Frequency, StabilityWarning, parse_omega_spec  # noqa: F401
from .legendre import derivative_expansion, legendre_norm_sq
from .oracle import OracleConfig, oracle_tables


@dataclass
class InnerProductTables:
    """The six (N+1) x (N+1) matrices for one frequency."""

    freq: Frequency
    n_max: int
    m1: np.ndarray
    m2: np.ndarray
    m3: np.ndarray
    m4: np.ndarray
    m5: np.ndarray
    m6: np.ndarray


def build_tables(freq: Frequency, n_max: int) -> InnerProductTables:
    """Populate M1 ... M6 at the given frequency by the stable recursion.

    Parameters
    ----------
    freq : Frequency
        Oscillation frequency.  When freq.exact_multiple, sin(2w) and
        cos(2w) are substituted as exactly 0 and 1 instead of evaluating
        trig functions at large arguments.
    n_max : int
        Largest Legendre degree N; matrices are (N+1) x (N+1).

    Emits a StabilityWarning when omega <= n_max, the regime where the
    recursion is no longer guaranteed accurate.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    omega = freq.omega
    if not np.isfinite(omega):
        raise ValueError(f"omega must be finite, got {omega!r}")
    if omega <= n_max:
        warnings.warn(
            StabilityWarning(
                f"omega={omega:.6g} <= n_max={n_max}: outside the stable "
                f"regime omega > N, table accuracy may degrade"
            ),
            stacklevel=2,
        )

    if freq.exact_multiple:
        sin_2w, cos_2w = 0.0, 1.0
    else:
        sin_2w, cos_2w = np.sin(2.0 * omega), np.cos(2.0 * omega)
    inv_2w = 1.0 / (2.0 * omega)

    n = n_max + 1
    m5 = np.zeros((n, n))
    m6 = np.zeros((n, n))
    expansions = [derivative_expansion(j).terms for j in range(n)]

    for s in range(0, 2 * n_max + 1):
        even = (s % 2 == 0)
        for j in range(max(0, s - n_max), s // 2 + 1):
            k = s - j
            # derivative re-expansion sums pull from the opposite table on
            # the previous skew diagonal
            if even:
                acc = 0.0
                for m, coeff in expansions[j]:
                    acc += coeff * m6[m, k]
                for m, coeff in expansions[k]:
                    acc += coeff * m6[j, m]
                val = sin_2w / omega - inv_2w * acc
                m5[j, k] = val
                m5[k, j] = val
            else:
                acc = 0.0
                for m, coeff in expansions[j]:
                    acc += coeff * m5[m, k]
                for m, coeff in expansions[k]:
                    acc += coeff * m5[j, m]
                val = -cos_2w / omega + inv_2w * acc
                m6[j, k] = val
                m6[k, j] = val

    m1 = np.diag([legendre_norm_sq(k) for k in range(n)])
    m2 = m6 / 2.0
    m3 = (m1 + m5) / 2.0
    m4 = (m1 - m5) / 2.0
    return InnerProductTables(freq=freq, n_max=n_max,
                              m1=m1, m2=m2, m3=m3, m4=m4, m5=m5, m6=m6)


@dataclass
class VerifyReport:
    """Outcome of comparing tables against the quadrature oracle."""

    tolerance: float
    deviations: dict
    flagged: list
    passed: bool

    def as_dict(self) -> dict:
        return {
            "tolerance": self.tolerance,
            "max_deviation_per_matrix": dict(self.deviations),
            "flagged_entries": [
                {"matrix": name, "j": j, "k": k, "deviation": dev}
                for name, j, k, dev in self.flagged
            ],
            "passed": self.passed,
        }


def verify_tables(tables: InnerProductTables, oracle_tolerance: float,
                  cfg: OracleConfig | None = None) -> VerifyReport:
    """Compare every entry of m2 ... m6 against direct quadrature.

    Deviations are data, not errors: the report lists the max deviation per
    matrix and flags every entry not within oracle_tolerance, NaN included.
    """
    reference = oracle_tables(tables.freq, tables.n_max, cfg)
    deviations: dict[str, float] = {}
    flagged: list[tuple[str, int, int, float]] = []
    for name in ("m2", "m3", "m4", "m5", "m6"):
        diff = np.abs(getattr(tables, name) - reference[name])
        deviations[name] = float(np.max(diff)) if diff.size else 0.0
        for j, k in zip(*np.nonzero(~(diff <= oracle_tolerance))):
            flagged.append((name, int(j), int(k), float(diff[j, k])))
    return VerifyReport(
        tolerance=oracle_tolerance,
        deviations=deviations,
        flagged=flagged,
        passed=not flagged,
    )
