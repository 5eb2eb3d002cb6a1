"""Construction of the paired orthonormal family {p_k, q_k}.

Seeds are p_0 = cos(omega x), q_0 = sin(omega x).  Each later member comes
from the mixed three-term recurrence: multiply by x (which in Legendre
coordinates shifts degree by exactly one), subtract the projection onto the
opposite member of the current pair and onto the same-side member one pair
back, then normalize.  All inner products are the bilinear form over the
tables, so the only approximation anywhere is in the tables.

On [-1, 1], p_k has parity (-1)^k and q_k (-1)^(k+1), so the build runs
on two parity classes.  Class c has one coordinate per degree j, P_j
cos(omega x) when j + c is even and P_j sin(omega x) otherwise, and one
member per pair, p_k when k + c is even and q_k otherwise; the other half
of every row, and of the Gram, is exactly zero.  The rows are stored in
member order [p_0, q_0, p_1, q_1, ...] as two coefficient arrays, the
cosine part and the sine part; rows 2k and 2k+1 have degree at most k.
An OscBasis refuses a nonzero coefficient of the wrong parity, and the
derivative transform gathers its rows back into the classes.
"""

from __future__ import annotations

import hashlib
import struct
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .frequency import TWO_PI, Frequency, StabilityWarning
from .legendre import legtrig_values, read_only, require_finite, require_size
from .tables import InnerProductTables

# below this pre-normalization norm a direction carries no information in
# 64-bit arithmetic
DEGENERATION_THRESHOLD = 1e-13
# unit roundoff of 64-bit arithmetic
ROUNDOFF = np.finfo(float).eps / 2


class BasisDegenerationError(RuntimeError):
    """A basis member lost orthogonality: its pre-normalization norm fell
    below the degeneration threshold, or rounding alone perturbs the Gram
    as much as the Gram itself."""


@dataclass(frozen=True, eq=False)
class OscBasis:
    """Orthonormal family in Legendre-trig coordinates.

    Member i is sum_j a[i, j] P_j(x) cos(omega x) + b[i, j] P_j(x) sin(omega
    x); rows 2k and 2k+1 are p_k and q_k and are zero beyond Legendre degree
    k.  a and b have shape (2(N+1), N+1).  norms[i] is the pre-normalization
    norm of member i.  rec, of shape (N, 4), has rows (alpha, beta, gamma,
    delta), the quotients of x p_k on q_k and p_{k-1} and of x q_k on p_k
    and q_{k-1} that the recurrence subtracts for pair k+1 (beta = delta = 0
    at k = 0); with norms they replay pair k+1 of a plain build bit for bit,
    but not of a reorthogonalized one, whose Gram-Schmidt pass is not in rec.
    All of it is read-only, so the content hash is computed once; an array
    given read-only in float64 is kept as it is, any other is copied.  An n_max
    that is not an int >= 0, a k of 2**63 or more, arrays of other shapes, a
    nonzero or NaN coefficient of the wrong parity or beyond its member's
    degree, then a NaN or infinity anywhere else, and then a norm not > 0,
    are refused with ValueError.
    """

    freq: Frequency
    n_max: int
    a: np.ndarray
    b: np.ndarray
    norms: np.ndarray
    rec: np.ndarray

    def __post_init__(self):
        require_size(self.n_max)
        if self.freq.k >= 2 ** 63:
            raise ValueError(f"k={self.freq.k} overflows the int64 of the basis hash")
        n = self.n_max + 1
        shapes = {"a": (2 * n, n), "b": (2 * n, n), "norms": (2 * n,),
                  "rec": (n - 1, 4)}
        for name, shape in shapes.items():
            arr = read_only(getattr(self, name))
            if arr.shape != shape:
                raise ValueError(f"basis {name} has shape {arr.shape}, but a "
                                 f"basis with n_max={self.n_max} has {shape}")
            object.__setattr__(self, name, arr)
        # a and b may be nonzero (or NaN) only at degree j <= i // 2 of
        # member i, and there only in the part of its parity: the sine part
        # where j + 1 has member i's parity i // 2 + i % 2
        i, j = np.arange(2 * n)[:, None], np.arange(n)
        low, sine = j <= i // 2, ((i // 2 + i) % 2 == 1) ^ (j % 2 == 1)
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
        if not np.all(self.norms > 0.0):
            raise ValueError("basis norms must be positive")

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
        Any n_max >= the basis's; only its degrees 0 ... n_max are read.
    reorthogonalize : bool
        When true, each new row gets one extra classical Gram-Schmidt pass
        against all previous rows before normalization.  It costs 1.4-2.9
        times the plain build for no better basis; kept for bench/ alone.

    Pair k+1 depends only on pairs k and k-1, so (x p_k, x q_k) is
    projected and normalized as one block: one step per pair.  The steps
    do arithmetic only and run to the last pair, also past a collapsed
    member, where the numbers may overflow or turn NaN.

    One pass after the last pair raises BasisDegenerationError, naming
    member i as row i and its pair, as OscBasis does.  It refuses first a
    member of a pair before the first norm failure whose normalized row's
    largest coefficient c makes u c^2 >= 1 (u the unit roundoff), so that
    rounding alone perturbs the Gram by as much as the Gram itself; else
    the first member whose pre-normalization norm is below 1e-13 or NaN.
    A refused request so costs up to one full build.  Warns with
    StabilityWarning when the oscillation period count omega / (2 pi) does
    not exceed n_max.
    """
    if freq.omega != tables.freq.omega:
        raise ValueError(f"frequency mismatch: basis requested at omega={freq.omega!r} "
                         f"but tables were built at omega={tables.freq.omega!r}")
    require_size(n_max)
    if tables.n_max < n_max:
        raise ValueError(f"tables.n_max={tables.n_max} too small: a basis at "
                         f"n_max={n_max} needs tables with n_max >= {n_max}")
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
    # ip[c, k].  Zero degrees N + 1 and N + 2 in G_c give each pair's
    # products the same shapes, and bits, at any N; they reach only the
    # entries past degree N of the last two pairs, which no step reads.  A
    # step writes every product into these arrays, so it allocates nothing.
    n = n_max + 1
    # G_c = (M1 + M6 + s M5)/2, s = 1 on cosine and -1 on sine coordinates:
    # M3 or M4 where the degree parities match, M2 where they differ
    s = (-1.0) ** np.add.outer(np.arange(2), np.arange(n))[:, :, None]
    G = np.zeros((2, n + 2, n + 2))
    g = np.multiply(s, tables.m5[:n, :n], out=G[:, :n, :n])
    g += tables.m1[:n, :n] + tables.m6[:n, :n]
    g /= 2
    rows, applied = np.zeros((2, n, n)), np.zeros((2, n, n + 2))
    ip, norm2, norms = np.empty((3, 2, n))
    # x P_m = ((m+1) P_{m+1} + m P_{m-1}) / (2m+1), so degree m of f gives
    # updown[0, m] of it to degree m + 1 of x f and updown[1, m] to m - 1
    m = np.arange(n + 1)
    updown = np.stack([(m + 1) / (2.0 * m + 1.0), m / (2.0 * m + 1.0)])
    # quot[c, k]: quotients of class c's member of pair k against its pairs
    # k - 2 and k - 1 (none at pair 0, one at pair 1)
    quot = np.zeros((2, n, 2))
    # the new pair, its x-shift terms and the terms subtracted from it
    X, scratch = np.zeros((2, 2, n + 1))
    shift = np.zeros((2, 2, n + 2))

    def store(k):
        # normalize and store pair k, X[c, :k + 1] its class-c member; G_c
        # X[c] is a 1-row product per class (a 2-row product sums in longer
        # chains, and its bases are less orthogonal near k = 1.6 N)
        x, GX = X[:, None, : k + 1], applied[:, k, None, : k + 3]
        np.matmul(x, G[:, : k + 1, : k + 3], out=GX)
        GX = GX[:, 0, : k + 1, None]
        np.matmul(x, GX, out=norm2[:, k, None, None])
        np.sqrt(norm2[:, k], out=norms[:, k])
        R = np.divide(x, norms[:, k, None, None], out=rows[:, k, None, : k + 1])
        np.matmul(R, GX, out=ip[:, k, None, None])

    # past a collapsed member the recurrence may overflow or turn NaN; it
    # runs on to the last pair, and the pass after it refuses
    X[:, 0] = 1.0
    with np.errstate(all="ignore"):
        store(0)
        for k in range(n_max):
            # x times class 1 - c's member f of pair k, from one product:
            # degree j takes shift[c, 0, j] from degree j - 1 of f (0 at
            # j = 0) and shift[c, 1, j + 2] from degree j + 1 (j < k only)
            x = X[:, : k + 2]
            np.multiply(rows[::-1, k, None, : k + 1], updown[:, : k + 1],
                        out=shift[:, :, 1 : k + 2])
            np.add(shift[:, 0, :k], shift[:, 1, 2 : k + 2], out=x[:, :k])
            x[:, k:] = shift[:, 0, k : k + 2]
            lo = max(k - 1, 0)  # pairs lo ... k: k - 1 and k, or 0 at first
            Q = quot[:, k + 1, lo - k + 1 :]
            np.matmul(applied[:, lo : k + 1, : k + 2], x[:, :, None],
                      out=Q[:, :, None])
            np.divide(Q, ip[:, lo : k + 1], out=Q)
            np.matmul(Q[:, None], rows[:, lo : k + 1, : k + 2],
                      out=scratch[:, None, : k + 2])
            np.subtract(x, scratch[:, : k + 2], out=x)
            if reorthogonalize:
                # one classical Gram-Schmidt pass on all earlier members of
                # the class (twice is enough); <x, rows[c, m]> = rows[c, m].G_c
                # x, <rows[c, m], rows[c, m]> = ip / norm
                coef = ((x[:, None] @ G[:, : k + 2, : k + 1])
                        @ rows[:, : k + 1, : k + 1].transpose(0, 2, 1)
                        * (norms[:, None, : k + 1] / ip[:, None, : k + 1]))
                x -= (coef @ rows[:, : k + 1, : k + 2])[:, 0]
            store(k + 1)
        rho = ROUNDOFF * np.abs(rows).max(axis=2) ** 2

    a_b, norm2, rho, norms, quot = _member_order(rows, norm2, rho, norms, quot)
    # refuse the first member whose rho is not below 1 at a pair before the
    # first norm failure, else the first whose norm fails; NaN fails both
    low = ~(norm2 >= DEGENERATION_THRESHOLD ** 2)
    stop = np.argmax(low) // 2 * 2 if low.any() else 2 * n
    for bad, value, why in (
            (~(rho[:stop] < 1.0), rho, "u*max|c|^2 = {:.3e} >= 1, so rounding "
             "alone perturbs the Gram as much as the Gram itself"),
            (low, norm2, "pre-normalization norm^2 = {:.3e} is below "
             f"{DEGENERATION_THRESHOLD}^2")):
        if bad.any():
            i = int(np.argmax(bad))
            raise BasisDegenerationError(
                f"basis degenerated at member {i} ({'pq'[i % 2]}_{i // 2}): "
                f"{why.format(value[i])} (omega={freq.omega:.6g}, n_max={n_max})")
    # rows 2k + 2 and 2k + 3 are p_{k+1} and q_{k+1}, whose quotients against
    # pairs k - 1 and k are (beta, alpha) and (delta, gamma)
    rec = quot[2:, ::-1].reshape(n_max, 4)
    for arr in (a_b, norms, rec):
        arr.flags.writeable = False
    return OscBasis(freq=freq, n_max=n_max, a=a_b[0], b=a_b[1], norms=norms, rec=rec)


def member_slice(c: int, h: int) -> slice:
    """The member rows of class c's members of the pairs k = h, h + 2, ...
    at any N: pair k's is row 2k + (k + c) % 2.  Their cosine degrees are
    j = c, c + 2, ... and their sine degrees the others."""
    return slice(2 * h + (h + c) % 2, None, 4)


def _member_order(rows: np.ndarray, *values: np.ndarray) -> tuple:
    """(a, b) stacked, then each of values, in member order: rows[c, k] and
    values[c, k] are class c's member of pair k, row 2k + (k + c) % 2.  The
    part of a and b that a parity excludes is exactly zero."""
    n = rows.shape[1]
    a_b = np.zeros((2, 2 * n, n))
    for c, h, e in np.ndindex(2, 2, 2):
        a_b[(c + e) % 2, member_slice(c, h), e::2] = rows[c, h::2, e::2]
    # row 2k + s, p_k at s = 0 and q_k at s = 1, is class (k + s) % 2's
    pair, side = np.divmod(np.arange(2 * n), 2)
    order = (pair + side) % 2 * n + pair
    return (a_b, *(v.reshape(2 * n, *v.shape[2:])[order] for v in values))


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
