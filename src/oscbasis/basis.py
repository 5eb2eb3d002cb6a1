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
# unit roundoff of 64-bit arithmetic
ROUNDOFF = np.finfo(float).eps / 2


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
        When true, each new row gets one extra classical Gram-Schmidt pass
        against all previous rows before normalization.  Off by default;
        useful near the omega / (2 pi) <= n_max boundary.

    Pair k+1 depends only on pairs k and k-1, so (x p_k, x q_k) is
    projected, normalized and checked as one block: one step per pair.

    Raises BasisDegenerationError, naming the first such member, when a
    pre-normalization norm drops below 1e-13 or is NaN, or when a
    normalized row's largest coefficient c makes u c^2 >= 1 (u the unit
    roundoff), so that rounding alone perturbs the Gram by as much as the
    Gram itself.  Warns with StabilityWarning when the oscillation period
    count omega / (2 pi) does not exceed n_max.
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

    # rows[i] holds member i in interleaved (a_0, b_0, a_1, b_1, ...)
    # coordinates, zero past its first w = 2(i//2 + 1) entries; with x_i the
    # member before normalization, applied[i] = G x_i over the w + 4 entries
    # that quotients read and ip[i] = <rows[i], x_i>, so <f, rows[i]> /
    # <rows[i], rows[i]> = f . applied[i] / ip[i].  A zero degree N+2 in G
    # gives each pair's products the same shapes, and bits, at any N.
    n_rows = 2 * (n_max + 1)
    size = n_rows + 2
    G = np.empty((size, size))
    G[0::2, 0::2] = tables.m3[: size // 2, : size // 2]
    G[0::2, 1::2] = G[1::2, 0::2] = tables.m2[: size // 2, : size // 2]
    G[1::2, 1::2] = tables.m4[: size // 2, : size // 2]
    G = np.pad(G, (0, 2))
    rows = np.zeros((n_rows, n_rows))
    applied = np.zeros((n_rows, size + 2))
    ip = np.empty(n_rows)
    norms = np.empty(n_rows)
    # x P_j = ((j+1) P_{j+1} + j P_{j-1}) / (2j+1), so entries 2j and 2j+1
    # of x f take j/(2j-1) of degree j-1 (up), (j+1)/(2j+3) of j+1 (down)
    deg = np.arange(size) // 2
    up = deg / (2.0 * deg - 1.0)
    down = (deg + 1) / (2.0 * deg + 3.0)
    # quotients of (x p_k, x q_k) against (p_{k-1}, q_{k-1}, p_k, q_k)
    quot = np.zeros((n_max, 2, 4))
    used = np.array([[True, False, False, True], [False, True, True, False]])

    def degenerated(k, why):
        return BasisDegenerationError(
            f"basis degenerated at member {k}: {why} (omega="
            f"{freq.omega:.6g}, n_max={n_max}; the recurrence is reliable "
            f"only for omega/2pi > n_max)")

    def store(k, X):
        # normalize and store the pair X = (p_k, q_k); G is symmetric, so G X
        # takes w rows of G, one row of X at a time (a 2-row product sums in
        # longer chains, and its bases are less orthogonal near k = 1.6 N)
        i, w = 2 * k, X.shape[1]
        GX = applied[i : i + 2, : w + 4]
        for x, gx in zip(X, GX):
            np.matmul(x, G[:w, : w + 4], out=gx)
        nsq = np.einsum("ij,ij->i", X, GX[:, :w])
        if not nsq.min() >= DEGENERATION_THRESHOLD ** 2:
            bad = nsq[~(nsq >= DEGENERATION_THRESHOLD ** 2)][0]
            raise degenerated(k, f"pre-normalization norm^2 = {bad:.3e} is "
                                 f"below {DEGENERATION_THRESHOLD}^2")
        norms[i : i + 2] = np.sqrt(nsq)
        scale = 1.0 / norms[i : i + 2, None]
        R = np.multiply(X, scale, out=rows[i : i + 2, :w])
        rho = ROUNDOFF * np.abs(R).max(axis=1) ** 2
        if not rho.max() < 1.0:
            bad = rho[~(rho < 1.0)][0]
            raise degenerated(k, f"u*max|c|^2 = {bad:.3e} >= 1, so rounding "
                                 f"alone perturbs the Gram as much as the "
                                 f"Gram itself")
        ip[i : i + 2] = np.einsum("ij,ij->i", R, GX[:, :w])

    store(0, np.eye(2))
    for k in range(n_max):
        s = 2 * (k + 1)
        back = min(s, 4)
        X = np.zeros((2, s + 2))
        np.multiply(rows[s - 2 : s, :s], up[2 : s + 2], out=X[:, 2:])
        X[:, : s - 2] += rows[s - 2 : s, 2:s] * down[: s - 2]
        # one product gives the quotients against the last two pairs, and
        # one more, with the unused ones left at zero, both subtractions
        Q = quot[k, :, 4 - back :]
        np.copyto(Q, X @ applied[s - back : s, : s + 2].T / ip[s - back : s],
                  where=used[:, 4 - back :])
        X -= Q @ rows[s - back : s, : s + 2]
        if reorthogonalize:
            # one classical Gram-Schmidt pass on all earlier rows (twice is
            # enough); <X, rows[j]> = rows[j].G X, <rows[j], rows[j]> = ip/norm
            X -= ((X @ G[: s + 2, :s]) @ rows[:s, :s].T
                  * (norms[:s] / ip[:s])) @ rows[:s, : s + 2]
        store(k + 1, X)

    rec = [RecurrenceStep(*map(float, q)) for q in zip(
        quot[:, 0, 3], quot[:, 0, 0], quot[:, 1, 2], quot[:, 1, 1])]
    return OscBasis(freq=freq, n_max=n_max, a=rows[:, 0::2],
                    b=rows[:, 1::2], norms=norms, rec=rec)


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
