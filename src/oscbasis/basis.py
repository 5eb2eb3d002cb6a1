"""Construction of the paired orthonormal family {p_k, q_k}.

Seeds are p_0 = cos(omega x), q_0 = sin(omega x).  Each later member comes
from the mixed three-term recurrence: multiply by x (which in Legendre
coordinates shifts degree by exactly one), subtract the projection onto the
opposite member of the current pair and onto the same-side member one pair
back, then normalize.  All inner products are the pairing bilinear form
over the tables, so the only approximation anywhere is in the tables.

On [-1, 1], p_k has parity (-1)^k and q_k (-1)^(k+1), so the build runs
on two parity classes.  Class c has one coordinate per degree j, P_j
cos(omega x) when j + c is even and P_j sin(omega x) otherwise, and one
member per pair, p_k when k + c is even and q_k otherwise; the other half
of every row, and of the Gram, is exactly zero.  The rows are stored in
member order [p_0, q_0, p_1, q_1, ...] as two coefficient arrays, the
cosine part and the sine part; rows 2k and 2k+1 have degree at most k.
An OscBasis refuses a nonzero coefficient of the wrong parity, and
class_blocks gathers its rows back into the classes.
"""

from __future__ import annotations

import hashlib
import struct
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .frequency import TWO_PI, Frequency, StabilityWarning
from .pairing import legtrig_values, require_finite
from .tables import InnerProductTables

# below this pre-normalization norm a direction carries no information in
# 64-bit arithmetic
DEGENERATION_THRESHOLD = 1e-13
# unit roundoff of 64-bit arithmetic
ROUNDOFF = np.finfo(float).eps / 2


class BasisDegenerationError(RuntimeError):
    """Recurrence produced a direction with norm below the degeneration
    threshold (orthogonality has collapsed, typically omega/2pi <= n_max)."""


@dataclass(frozen=True, eq=False)
class OscBasis:
    """Orthonormal family in Legendre-trig coordinates.

    Member i is sum_j a[i, j] P_j(x) cos(omega x) + b[i, j] P_j(x) sin(omega
    x); rows 2k and 2k+1 are p_k and q_k and are zero beyond Legendre degree
    k.  a and b have shape (2(N+1), N+1).  norms[i] is the pre-normalization
    norm of member i.  rec, of shape (N, 4), has rows (alpha, beta, gamma,
    delta), the projection quotients of x p_k on q_k and p_{k-1} and of x q_k
    on p_k and q_{k-1} that produced pair k+1 (beta = delta = 0 at k = 0).
    All of it is read-only, so the content hash is computed once.  Arrays of
    other shapes, a nonzero or NaN coefficient of the wrong parity or
    beyond its member's degree, and then a NaN or infinity anywhere else,
    are refused with ValueError.
    """

    freq: Frequency
    n_max: int
    a: np.ndarray
    b: np.ndarray
    norms: np.ndarray
    rec: np.ndarray

    def __post_init__(self):
        n = self.n_max + 1
        shapes = {"a": (2 * n, n), "b": (2 * n, n), "norms": (2 * n,),
                  "rec": (n - 1, 4)}
        for name, shape in shapes.items():
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != shape:
                raise ValueError(f"basis {name} has shape {arr.shape}, but a "
                                 f"basis with n_max={self.n_max} has {shape}")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        # a and b may be nonzero (or NaN) only at degree j <= i // 2 of
        # member i, and there only in the part of its parity
        sine = _sine_slots(2 * n, n)
        low = np.repeat(np.tri(n, dtype=bool), 2, axis=0)
        stray = [(self.a != 0.0) & ~(low & ~sine), (self.b != 0.0) & ~(low & sine)]
        if np.any(stray[0]) or np.any(stray[1]):
            i, j, part = np.argwhere(np.stack(stray, axis=-1))[0]
            rule = ("where its parity requires 0" if j <= i // 2
                    else f"beyond its degree {i // 2}")
            raise ValueError(
                f"basis member {i} ({'pq'[i % 2]}_{i // 2}) has "
                f"{('cosine', 'sine')[part]} coefficient "
                f"{float((self.a, self.b)[part][i, j])!r} at degree {j}, "
                f"{rule}; the basis file is corrupted")
        require_finite(self.a, self.b, self.norms, self.rec)

    @property
    def rep(self) -> tuple[np.ndarray, np.ndarray]:
        """(a, b); kept only because the benchmark under bench/ still
        passes basis.rep to gram_matrix and member_gram."""
        return self.a, self.b

    def content_hash(self) -> str:
        """sha256 over the basis's numbers, computed on first use; identifies
        the basis so expansions can detect mismatched inputs.  The bytes
        hashed are omega and epsilon (little-endian float64), k and N
        (little-endian int64), then a, b, norms and rec as little-endian
        float64 in C order, so the hash does not depend on memory layout or
        on how the basis was saved.  It costs about 0.02 ms at N = 12 and
        1.3 ms at N = 200."""
        return self._hash

    @cached_property
    def _hash(self) -> str:
        freq = self.freq
        digest = hashlib.sha256(struct.pack(
            "<2d2q", freq.omega, freq.epsilon, freq.k, self.n_max))
        for arr in (self.a, self.b, self.norms, self.rec):
            digest.update(np.ascontiguousarray(arr, dtype="<f8"))
        return digest.hexdigest()


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
        against all previous rows before normalization.  It costs 1.4-2.9
        times the plain build for no better basis; kept for bench/ alone.

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

    # rows[c, k] holds class c's member of pair k in class-c coordinates,
    # zero past degree k: x times class 1 - c's member of pair k - 1, less
    # its projections on class c's pairs k - 2 and k - 1.  With x_ck that
    # member before normalization, applied[c, k] = G_c x_ck over the k + 3
    # entries that quotients read and ip[c, k] = <rows[c, k], x_ck>, so
    # <f, rows[c, k]> / <rows[c, k], rows[c, k]> = f . applied[c, k] /
    # ip[c, k].  A zero degree N + 2 in G_c gives each pair's products the
    # same shapes, and bits, at any N.
    n = n_max + 1
    # mixed degree parities pair cos with sin (M2), the others cos with cos
    # (M3) or sin with sin (M4)
    G = np.zeros((2, n + 2, n + 2))
    G[:, : n + 1, : n + 1] = tables.m2[: n + 1, : n + 1]
    m3_m4 = tables.m3, tables.m4
    for c, i in np.ndindex(2, 2):
        G[c, i : n + 1 : 2, i : n + 1 : 2] = m3_m4[(c + i) % 2][
            i : n + 1 : 2, i : n + 1 : 2]
    rows, applied = np.zeros((2, n, n)), np.zeros((2, n, n + 2))
    ip, norms = np.empty((2, 2, n))
    # x P_j = ((j+1) P_{j+1} + j P_{j-1}) / (2j+1), so degree j of x f takes
    # j/(2j-1) of degree j-1 (up) and (j+1)/(2j+3) of degree j+1 (down)
    deg = np.arange(n + 1)
    up = deg / (2.0 * deg - 1.0)
    down = (deg + 1) / (2.0 * deg + 3.0)
    # quotients of each class's new member against its pairs k-1 and k
    quot = np.zeros((n_max, 2, 2))

    def check(k, values, ok, why):
        # refuse pair k at its first member, in (p_k, q_k) order, whose
        # value is not ok
        for v in values.tolist()[:: -1 if k % 2 else 1]:
            if not ok(v):
                raise BasisDegenerationError(
                    f"basis degenerated at member {k}: {why.format(v)} (omega="
                    f"{freq.omega:.6g}, n_max={n_max}; the recurrence is "
                    f"reliable only for omega/2pi > n_max)")

    def store(k, X):
        # normalize and store pair k, X[c] its class-c member; G_c X[c] is a
        # 1-row product per class (a 2-row product sums in longer chains,
        # and its bases are less orthogonal near k = 1.6 N)
        w = k + 1
        GX = applied[:, k, : w + 2]
        np.matmul(X[:, None], G[:, :w, : w + 2], out=GX[:, None])
        nsq = (X[:, None] @ GX[:, :w, None])[:, 0, 0]
        check(k, nsq, lambda v: v >= DEGENERATION_THRESHOLD ** 2,
              "pre-normalization norm^2 = {:.3e} is below "
              f"{DEGENERATION_THRESHOLD}^2")
        norms[:, k] = np.sqrt(nsq)
        R = np.divide(X, norms[:, k, None], out=rows[:, k, :w])
        check(k, ROUNDOFF * np.abs(R).max(axis=1) ** 2, lambda v: v < 1.0,
              "u*max|c|^2 = {:.3e} >= 1, so rounding alone perturbs the "
              "Gram as much as the Gram itself")
        ip[:, k] = (R[:, None] @ GX[:, :w, None])[:, 0, 0]

    store(0, np.ones((2, 1)))
    for k in range(n_max):
        X = np.zeros((2, k + 2))
        other = rows[::-1, k, : k + 1]
        np.multiply(other, up[1 : k + 2], out=X[:, 1:])
        X[:, :k] += other[:, 1:] * down[:k]
        lo = max(k - 1, 0)  # pairs lo ... k: k - 1 and k, or 0 at first
        Q = quot[k, :, lo - k + 1 :]
        Q[:] = (applied[:, lo : k + 1, : k + 2] @ X[:, :, None])[:, :, 0]
        Q /= ip[:, lo : k + 1]
        X -= (Q[:, None] @ rows[:, lo : k + 1, : k + 2])[:, 0]
        if reorthogonalize:
            # one classical Gram-Schmidt pass on all earlier members of the
            # class (twice is enough); <X, rows[c, m]> = rows[c, m].G_c X,
            # <rows[c, m], rows[c, m]> = ip / norm
            coef = ((X[:, None] @ G[:, : k + 2, : k + 1])
                    @ rows[:, : k + 1, : k + 1].transpose(0, 2, 1)
                    * (norms[:, None, : k + 1] / ip[:, None, : k + 1]))
            X -= (coef @ rows[:, : k + 1, : k + 2])[:, 0]
        store(k + 1, X)

    # class (k+1) % 2 holds p_{k+1}: its quotients are alpha (against q_k)
    # and beta (p_{k-1}); class k % 2 holds q_{k+1}: gamma and delta
    k = np.arange(n_max)
    p, q = quot[k, (k + 1) % 2], quot[k, k % 2]
    rec = np.stack([p[:, 1], p[:, 0], q[:, 1], q[:, 0]], axis=1)
    member = class_rows(n_max)
    full, flat = np.empty((2 * n, n)), np.empty(2 * n)
    full[member], flat[member] = rows, norms
    sine = _sine_slots(2 * n, n)
    return OscBasis(freq=freq, n_max=n_max, a=np.where(sine, 0.0, full),
                    b=np.where(sine, full, 0.0), norms=flat, rec=rec)


def class_rows(n_max: int) -> np.ndarray:
    """[c, k]: the row of class c's member of pair k, 2k (p_k) or 2k + 1
    (q_k); its parity is 1 where class c's coordinate k is P_k sin."""
    k = np.arange(n_max + 1)
    return 2 * k + (k + np.arange(2)[:, None]) % 2


def _sine_slots(rows: int, degrees: int) -> np.ndarray:
    """[i, j]: True where member i's coefficient at degree j belongs to
    P_j sin, whose parity j + 1 is that of member i (p_k has parity k, q_k
    k + 1); the other of its two coefficients there is zero."""
    i = np.arange(rows)
    return ((i // 2 + i % 2) % 2 == 1)[:, None] ^ (np.arange(degrees) % 2 == 1)


def class_blocks(basis: OscBasis) -> np.ndarray:
    """B_c for classes c = 0, 1, stacked: column k is class c's member of
    pair k in class-c coordinates, so B_c is upper triangular."""
    kept = np.where(_sine_slots(*basis.a.shape), basis.b, basis.a)
    return np.ascontiguousarray(kept[class_rows(basis.n_max)].transpose(0, 2, 1))


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
    """Value of basis row row_index at x: a float for a scalar or 0-d x,
    else an array of x's shape."""
    if isinstance(row_index, bool) or not isinstance(row_index, (int, np.integer)):
        raise TypeError(f"row_index must be an integer, got {row_index!r}")
    n_rows = 2 * (basis.n_max + 1)
    if not 0 <= row_index < n_rows:
        raise IndexError(
            f"row_index {row_index} out of range for basis with {n_rows} rows"
        )
    length = row_index // 2 + 1
    return legtrig_values(basis.a[row_index, :length],
                          basis.b[row_index, :length], basis.freq.omega, x)


def member_values(basis: OscBasis, x: np.ndarray) -> np.ndarray:
    """All rows evaluated at once: shape (2(N+1), len(x)), 0-d x one point."""
    return legtrig_values(basis.a, basis.b, basis.freq.omega, np.atleast_1d(x))


def representation_matrix(basis: OscBasis) -> np.ndarray:
    """B as a square array: row i is member i in interleaved
    (a_0, b_0, a_1, b_1, ...) coordinate order, zero-padded."""
    size = 2 * (basis.n_max + 1)
    B = np.empty((size, size))
    B[:, 0::2] = basis.a
    B[:, 1::2] = basis.b
    return B
