"""Construction of the paired orthonormal family {p_k, q_k}.

Seeds are p_0 = cos(omega x), q_0 = sin(omega x).  Each later member comes
from the mixed three-term recurrence: multiply by x (which in Legendre
coordinates shifts degree by exactly one), subtract the projection onto the
opposite member of the current pair and onto the same-side member one pair
back, then normalize.  All inner products are the pairing bilinear form
over the tables, so the only approximation anywhere is in the tables.

Rows are stored interleaved [p_0, q_0, p_1, q_1, ...] in two coefficient
arrays, the cosine part and the sine part; row 2k and 2k+1 have Legendre
degree at most k, which makes the representation matrix B block upper
triangular.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .frequency import TWO_PI, Frequency, StabilityWarning
from .pairing import LegTrigCoeffs, legtrig_values
from .tables import InnerProductTables

# below this pre-normalization norm a direction carries no information in
# 64-bit arithmetic
DEGENERATION_THRESHOLD = 1e-13


class BasisDegenerationError(RuntimeError):
    """Recurrence produced a direction with norm below the degeneration
    threshold (orthogonality has collapsed, typically omega/2pi <= n_max)."""


@dataclass(frozen=True)
class RecurrenceStep:
    """Projection quotients used to build pair k+1 from pairs k and k-1.

    alpha = <x p_k, q_k> / <q_k, q_k>, beta = <x p_k, p_{k-1}> / <p_{k-1}, p_{k-1}>,
    gamma = <x q_k, p_k> / <p_k, p_k>, delta = <x q_k, q_{k-1}> / <q_{k-1}, q_{k-1}>;
    beta and delta are 0 for the first step.
    """

    alpha: float
    beta: float
    gamma: float
    delta: float


@dataclass(frozen=True, eq=False)
class OscBasis:
    """Orthonormal family in Legendre-trig coordinates.

    Member i is sum_j a[i, j] P_j(x) cos(omega x) + b[i, j] P_j(x) sin(omega
    x); rows 2k and 2k+1 are p_k and q_k and are zero beyond Legendre degree
    k.  a and b have shape (2(N+1), N+1).  norms[i] is the pre-normalization
    norm of member i; rec[i] holds the quotients that produced pair i+1.
    All of it is read-only, so the content hash is computed once.
    """

    freq: Frequency
    n_max: int
    a: np.ndarray
    b: np.ndarray
    norms: np.ndarray
    rec: tuple

    def __post_init__(self):
        for name in ("a", "b", "norms"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "rec", tuple(self.rec))

    @property
    def rep(self) -> list[LegTrigCoeffs]:
        """The members as LegTrigCoeffs, row i trimmed to length i//2 + 1."""
        return [LegTrigCoeffs(a=self.a[i, : i // 2 + 1],
                              b=self.b[i, : i // 2 + 1])
                for i in range(self.a.shape[0])]

    def content_hash(self) -> str:
        """sha256 over the canonical serialized form, computed on first
        use; identifies the basis so expansions can detect mismatched
        inputs."""
        return self._hash

    @cached_property
    def _hash(self) -> str:
        from .documents import to_doc  # documents imports this module
        payload = json.dumps(to_doc(self), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()


def _times_x(f: np.ndarray, length: int) -> np.ndarray:
    """x * f for f = (cos part, sin part) of Legendre length `length`, via
    x P_j = ((j+1) P_{j+1} + j P_{j-1}) / (2j+1)."""
    out = np.zeros_like(f)
    j = np.arange(length)
    out[:, 1:length + 1] += f[:, :length] * (j + 1) / (2 * j + 1)
    if length > 1:
        out[:, :length - 1] += f[:, 1:length] * (j[1:] / (2 * j[1:] + 1))
    return out


def build_basis(freq: Frequency, n_max: int, tables: InnerProductTables,
                reorthogonalize: bool = False) -> OscBasis:
    """Run the mixed recurrence with per-step normalization.

    Parameters
    ----------
    freq : Frequency
    n_max : int
        Largest pair index N; the basis has 2(N+1) rows.
    tables : InnerProductTables
        Must cover degree n_max + 1 (the x-shift overshoot).
    reorthogonalize : bool
        When true, each new row gets one extra orthogonalization pass
        against all previous rows before normalization.  Off by default;
        useful near the omega / (2 pi) <= n_max boundary.

    Raises BasisDegenerationError when a pre-normalization norm drops below
    1e-13, and warns with StabilityWarning when the oscillation period count
    omega / (2 pi) does not exceed n_max.
    """
    if freq.omega != tables.freq.omega:
        raise ValueError(
            f"frequency mismatch: basis requested at omega={freq.omega!r} "
            f"but tables were built at omega={tables.freq.omega!r}"
        )
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if tables.n_max < n_max + 1:
        raise ValueError(
            f"tables.n_max={tables.n_max} too small: multiplication by x "
            f"raises the degree, need tables with n_max >= {n_max + 1}"
        )
    # orthogonality holds up while the polynomial degree stays below the
    # number of oscillation periods, so the warning threshold here is
    # omega / 2pi, not the raw omega that the table recursion cares about
    if freq.omega / TWO_PI <= n_max:
        warnings.warn(
            StabilityWarning(
                f"omega={freq.omega:.6g} spans only {freq.omega / TWO_PI:.4g} "
                f"oscillation periods but n_max={n_max}: outside the stable "
                f"regime, expect orthogonality loss"
            ),
            stacklevel=2,
        )

    # rows[i] holds member i as (cos part, sin part), zero-padded to the
    # table size, and applied[i] its image G rows[i] = (M3 a + M2 b, M2 a +
    # M4 b) under the bilinear form, so that <f, rows[i]> is one dot product
    G = np.block([[tables.m3, tables.m2], [tables.m2, tables.m4]])
    n_rows = 2 * (n_max + 1)
    rows = np.zeros((n_rows, 2, tables.n_max + 1))
    applied = np.zeros_like(rows)
    norms = np.empty(n_rows)
    self_ip = [0.0] * n_rows
    rec: list[RecurrenceStep] = []

    def ip(f, i):
        return float(np.vdot(f, applied[i]))

    def store(i, f):
        Gf = (G @ f.ravel()).reshape(f.shape)
        nsq = float(np.vdot(f, Gf))
        if not nsq >= DEGENERATION_THRESHOLD ** 2:
            raise BasisDegenerationError(
                f"basis degenerated at member {i // 2}: pre-normalization "
                f"norm^2 = {nsq:.3e} is below {DEGENERATION_THRESHOLD}^2 "
                f"(omega={freq.omega:.6g}, n_max={n_max}; the recurrence is "
                f"reliable only for omega/2pi > n_max)"
            )
        norms[i] = np.sqrt(nsq)
        scale = 1.0 / norms[i]
        rows[i], applied[i] = f * scale, Gf * scale
        self_ip[i] = ip(rows[i], i)

    for i in (0, 1):
        seed = np.zeros_like(rows[i])
        seed[i, 0] = 1.0
        store(i, seed)

    for k in range(n_max):
        p_k, q_k = rows[2 * k], rows[2 * k + 1]
        xp = _times_x(p_k, k + 1)
        xq = _times_x(q_k, k + 1)
        alpha = ip(xp, 2 * k + 1) / self_ip[2 * k + 1]
        gamma = ip(xq, 2 * k) / self_ip[2 * k]
        if k > 0:
            p_prev, q_prev = rows[2 * k - 2], rows[2 * k - 1]
            beta = ip(xp, 2 * k - 2) / self_ip[2 * k - 2]
            delta = ip(xq, 2 * k - 1) / self_ip[2 * k - 1]
        else:
            beta = delta = 0.0
        rec.append(RecurrenceStep(alpha=alpha, beta=beta,
                                  gamma=gamma, delta=delta))

        # each update f + (-coef) g runs over g's Legendre length only, so
        # the zeros above it keep their signs
        xp[:, : k + 1] += -alpha * q_k[:, : k + 1]
        xq[:, : k + 1] += -gamma * p_k[:, : k + 1]
        if k > 0:
            xp[:, :k] += -beta * p_prev[:, :k]
            xq[:, :k] += -delta * q_prev[:, :k]
        if reorthogonalize:
            # sequential (modified Gram-Schmidt) passes, one row at a time
            for new in (xp, xq):
                for j in range(2 * k + 2):
                    coef = ip(new, j) / self_ip[j]
                    new[:, : j // 2 + 1] += -coef * rows[j, :, : j // 2 + 1]
        store(2 * k + 2, xp)
        store(2 * k + 3, xq)

    return OscBasis(freq=freq, n_max=n_max, a=rows[:, 0, : n_max + 1],
                    b=rows[:, 1, : n_max + 1], norms=norms, rec=rec)


def monic_norm_profile(freq: Frequency, n_max: int,
                       tables: InnerProductTables) -> np.ndarray:
    """Norms h_k of the monic p-side members, k = 0 ... n_max.

    The monic run (no rescaling of recurrence inputs) is the normalized run
    scaled by h_k, so h_k is the running product of build_basis's
    pre-normalization p-side norms.  This is the decay diagnostic: h_0 =
    ||cos(omega x)|| and the h_k shrink rapidly, which is why build_basis
    normalizes at every step.  The q-side norms track the p-side ones
    closely and are not reported separately.
    """
    return np.cumprod(build_basis(freq, n_max, tables).norms[0::2])


def evaluate_member(basis: OscBasis, row_index: int, x):
    """Value of basis row row_index at x (scalar or ndarray)."""
    n_rows = 2 * (basis.n_max + 1)
    if not 0 <= row_index < n_rows:
        raise IndexError(
            f"row_index {row_index} out of range for basis with {n_rows} rows"
        )
    length = row_index // 2 + 1
    return LegTrigCoeffs(a=basis.a[row_index, :length],
                         b=basis.b[row_index, :length]).evaluate(basis.freq.omega, x)


def member_values(basis: OscBasis, x: np.ndarray) -> np.ndarray:
    """All rows evaluated at once: shape (2(N+1), len(x))."""
    return legtrig_values(basis.a, basis.b, basis.freq.omega,
                          np.asarray(x, dtype=float))


def representation_matrix(basis: OscBasis) -> np.ndarray:
    """B as a square array: row i is member i in interleaved
    (a_0, b_0, a_1, b_1, ...) coordinate order, zero-padded."""
    size = 2 * (basis.n_max + 1)
    B = np.empty((size, size))
    B[:, 0::2] = basis.a
    B[:, 1::2] = basis.b
    return B
