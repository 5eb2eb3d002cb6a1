"""Inner-product tables M1 ... M6 for the Legendre-trig family.

M1[j][k] = <P_j, P_k>                    (diagonal, known norms)
M2[j][k] = <P_j cos(wx), P_k sin(wx)>    = M6/2
M3[j][k] = <P_j cos(wx), P_k cos(wx)>    = (M1 + M5)/2
M4[j][k] = <P_j sin(wx), P_k sin(wx)>    = (M1 - M5)/2
M5[j][k] = <P_j, P_k cos(2wx)>
M6[j][k] = <P_j, P_k sin(2wx)>

M5 and M6 satisfy a coupled recursion obtained by integrating by parts and
re-expanding P' in the Legendre basis: each entry on skew diagonal j+k = s
is a boundary term plus (R[j,k] + R[k,j]) / 2w, where R[j,k] is the sum of
(2m+1) M[m,k] over m = j-1, j-3, ... of the opposite table M.  R is carried
as the strided prefix sum R[j-2,k] + (2j-1) M[j-1,k], so every diagonal is a
few whole-slice operations and the fill costs O(N^2).  Whole diagonals keep
the tables exactly symmetric; M5 is exactly zero where j+k is odd and M6
where it is even.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .frequency import Frequency, StabilityWarning
from .legendre import legendre_norm_sq
from .oracle import NODE_BUDGET, oracle_tables

# largest table degree N: the Gram of the 2(N+1) unit modes P_j cos(wx) and
# P_j sin(wx), the largest array that a basis on the tables or their oracle
# check allocates, then holds at most NODE_BUDGET entries
MAX_DEGREE = math.isqrt(NODE_BUDGET) // 2 - 1


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
    recursion is no longer guaranteed accurate.  Raises ValueError, before
    allocating anything, when n_max is over MAX_DEGREE, and after the fill
    when M5 or M6 holds a value that is not finite (the recursion overflows
    far outside its stable regime).
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if n_max > MAX_DEGREE:
        raise ValueError(f"n_max={n_max} is over the table degree limit of "
                         f"{MAX_DEGREE} (a basis of pair index N takes tables "
                         f"of degree N + 1)")
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

    sin_2w, cos_2w = freq.double_angle()
    inv_2w = 1.0 / (2.0 * omega)

    # diagonal s is the step-(n-1) slice d of flat indices j n + k: R_jk[d],
    # m5[d], m6[d] are its own entries, R[d] is R[j-2, k], pad5/6[d] M[j-1, k]
    n = n_max + 1
    R = np.zeros((n + 2) * n)
    pad5, pad6 = np.zeros((n + 1) * n), np.zeros((n + 1) * n)
    R_jk, m5, m6 = R[2 * n:], pad5[n:], pad6[n:]
    odd = 2.0 * np.arange(n) - 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(2 * n_max + 1):
            j0, j1 = max(0, s - n_max), min(s, n_max)
            d = slice(j0 * n + s - j0, j1 * n + s - j1 + 1, max(n - 1, 1))
            R_jk[d] = r = R[d] + odd[j0:j1 + 1] * (pad6 if s % 2 == 0 else pad5)[d]
            if s % 2 == 0:
                m5[d] = sin_2w / omega - inv_2w * (r + r[::-1])
            else:
                m6[d] = -cos_2w / omega + inv_2w * (r + r[::-1])
    if not (np.all(np.isfinite(m5)) and np.all(np.isfinite(m6))):
        raise ValueError(
            f"the table recursion overflows at omega={omega:.6g}, "
            f"n_max={n_max}: M5 or M6 holds a value that is not finite"
        )
    m5, m6 = m5.reshape(n, n), m6.reshape(n, n)

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


def verify_tables(tables: InnerProductTables, oracle_tolerance: float) -> VerifyReport:
    """Compare every entry of m2 ... m6 against direct quadrature.

    Deviations are data, not errors: the report lists the max deviation per
    matrix and flags every entry not within oracle_tolerance, NaN included.
    The tolerance must be finite and >= 0; anything else is a ValueError.
    """
    if not 0.0 <= oracle_tolerance < math.inf:
        raise ValueError(
            f"oracle_tolerance must be finite and >= 0, got {oracle_tolerance!r}"
        )
    reference = oracle_tables(tables.freq, tables.n_max)
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
