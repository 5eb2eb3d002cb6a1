import copy
import hashlib
import math
import re
import struct
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from oscbasis import (
    BasisDegenerationError,
    Frequency,
    InnerProductTables,
    OscBasis,
    StabilityWarning,
    build_basis,
    build_tables,
    load_basis,
    save_basis,
)
from oscbasis.basis import _member_order, member_values, representation_matrix
from oscbasis.documents import from_doc, save, save_csv, to_doc
from oscbasis.frequency import TWO_PI
from oscbasis.oracle import member_gram
from oscbasis.tables import gram_matrix


def _build_quiet(freq, n_max, tables, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        return build_basis(freq, n_max, tables, **kw)


def _member(basis, i):
    """Member i's cosine and sine parts, trimmed to its degree i // 2."""
    return basis.a[i, : i // 2 + 1], basis.b[i, : i // 2 + 1]


def test_seed_pair_is_normalized_trig(freq20, tables20, basis20):
    # at an exact multiple ||cos|| = ||sin|| = 1 already
    assert basis20.norms[0] == 1.0
    assert basis20.norms[1] == 1.0
    assert basis20.a[0, 0] == 1.0 and basis20.b[0, 0] == 0.0
    assert basis20.a[1, 0] == 0.0 and basis20.b[1, 0] == 1.0


def test_first_quotient_has_closed_form(freq20, basis20):
    # <x cos, sin> = -1/(2 omega) when sin(2 omega) = 0
    # rec rows are (alpha, beta, gamma, delta)
    assert basis20.rec[0, 0] == pytest.approx(-1.0 / (2.0 * freq20.omega), rel=1e-13)
    assert basis20.rec[0, 1] == 0.0
    assert basis20.rec[0, 3] == 0.0


def test_monic_p1_picks_up_sine_correction(freq20, basis20):
    monic_b0 = basis20.norms[2] * basis20.b[2, 0]
    assert monic_b0 == pytest.approx(1.0 / (2.0 * freq20.omega), rel=1e-12)


def test_seed_orthogonality_at_general_frequency():
    freq = Frequency.from_omega(12.0)
    tables = build_tables(freq, 1)
    basis = build_basis(freq, 0, tables)
    G = gram_matrix(basis, tables)
    assert G[0, 1] == 0.0
    for i in (0, 1):
        assert G[i, i] == pytest.approx(1.0, rel=1e-14)


def test_gram_is_identity_under_table_form(basis20, tables20):
    G = gram_matrix(basis20, tables20)
    assert np.max(np.abs(G - np.eye(26))) <= 1e-10


@pytest.mark.parametrize("k", [10, 20, 50])
def test_orthonormality_against_quadrature(k):
    freq = Frequency.exact(k)
    tables = build_tables(freq, 13)
    basis = _build_quiet(freq, 12, tables)
    G = member_gram(basis, freq.omega)
    assert np.max(np.abs(G - np.eye(26))) <= 1e-8


def test_polynomial_trig_products_lie_in_span(freq20, tables20):
    from oscbasis.oracle import composite_rule

    basis = build_basis(freq20, 6, tables20)
    rule = composite_rule(freq20.omega)
    vals = member_values(basis, rule.nodes)
    for k in (0, 1, 3, 5):
        for trig in (np.cos, np.sin):
            target = rule.nodes**k * trig(freq20.omega * rule.nodes)
            sub = vals[: 2 * k + 2]
            coeffs = sub @ (rule.weights * target)
            resid = target - coeffs @ sub
            resid_norm = np.sqrt(np.sum(rule.weights * resid**2))
            assert resid_norm <= 1e-7, f"x^{k} {trig.__name__}: {resid_norm:.3e}"


def test_rows_have_strict_trig_parity(basis20):
    # at an exact multiple the recurrence never mixes the two parity classes
    for k in range(basis20.n_max + 1):
        (pa, pb), (qa, qb) = _member(basis20, 2 * k), _member(basis20, 2 * k + 1)
        for j in range(pa.size):
            if j % 2 != k % 2:
                assert pa[j] == 0.0
                assert qb[j] == 0.0
            else:
                assert pb[j] == 0.0
                assert qa[j] == 0.0


def _times_x(c):
    """Legendre coefficients of x * sum_j c_j P_j, from
    x P_j = ((j+1) P_{j+1} + j P_{j-1}) / (2j+1)."""
    out = np.zeros(c.size + 1)
    for j, cj in enumerate(c):
        out[j + 1] += cj * (j + 1) / (2 * j + 1)
        if j > 0:
            out[j - 1] += cj * j / (2 * j + 1)
    return out


def test_recurrence_steps_reproduce_stored_rows(basis20, tables20):
    for k in range(1, basis20.n_max):
        alpha, beta, gamma, delta = basis20.rec[k]
        p_prev, q_prev, p_k, q_k = (_member(basis20, i) for i in range(2 * k - 2, 2 * k + 2))
        # x p_k - alpha q_k - beta p_{k-1} and x q_k - gamma p_k - delta q_{k-1}
        for row, own, other, prev, (near, back) in (
                (2 * k + 2, p_k, q_k, p_prev, (alpha, beta)),
                (2 * k + 3, q_k, p_k, q_prev, (gamma, delta))):
            want = basis20.norms[row]
            got = _member(basis20, row)
            for part in (0, 1):
                raw = _times_x(own[part])
                raw[: k + 1] -= near * other[part]
                raw[:k] -= back * prev[part]
                assert raw.size == got[part].size
                assert np.max(np.abs(raw - want * got[part])) <= 1e-12


def test_recurrence_quotients_are_table_inner_products(basis20, tables20):
    for k in range(1, basis20.n_max):
        alpha, beta, gamma, delta = basis20.rec[k]
        # rows x p_k, x q_k, then q_k, p_{k-1}, p_k, q_{k-1}, all k + 2 long
        pair = np.zeros((2, 6, k + 2))
        for part, rows in zip(pair, (basis20.a, basis20.b)):
            part[0] = _times_x(rows[2 * k, : k + 1])
            part[1] = _times_x(rows[2 * k + 1, : k + 1])
            part[2:, : k + 1] = rows[[2 * k + 1, 2 * k - 2, 2 * k, 2 * k - 1], : k + 1]
        G = gram_matrix(tuple(pair), tables20)
        # <f, g> / <g, g> for f = x p_k, x q_k and g the other four rows
        quotient = G[:2, 2:] / np.diag(G)[2:]
        for got, want in ((alpha, quotient[0, 0]),
                          (beta, quotient[0, 1]),
                          (gamma, quotient[1, 2]),
                          (delta, quotient[1, 3])):
            assert got == pytest.approx(want, rel=1e-12, abs=1e-14)


def _replay(basis):
    """(a, b) rebuilt from norms and rec alone by build_basis's own array
    operations, in its layout: rows[c, k] is class c's member of pair k,
    row 2k + (k + c) % 2, in class-c coordinates."""
    n_max, n = basis.n_max, basis.n_max + 1
    pair, side = np.divmod(np.arange(2 * n), 2)
    norms = np.empty((2, n))
    norms[(pair + side) % 2, pair] = basis.norms
    # quot[c, k + 1]: quotients against pairs k - 1 and k; p_{k+1} is in
    # class (k + 1) % 2 and q_{k+1} in class k % 2
    quot = np.zeros((2, n, 2))
    for k, (alpha, beta, gamma, delta) in enumerate(basis.rec):
        quot[(k + 1) % 2, k + 1], quot[k % 2, k + 1] = (beta, alpha), (delta, gamma)
    m = np.arange(n + 1)
    updown = np.stack([(m + 1) / (2.0 * m + 1.0), m / (2.0 * m + 1.0)])
    rows, (X, scratch) = np.zeros((2, n, n)), np.zeros((2, 2, n + 1))
    shift = np.zeros((2, 2, n + 2))
    X[:, 0] = 1.0
    np.divide(X[:, None, :1], norms[:, 0, None, None], out=rows[:, 0, None, :1])
    for k in range(n_max):
        x = X[:, : k + 2]
        np.multiply(rows[::-1, k, None, : k + 1], updown[:, : k + 1],
                    out=shift[:, :, 1 : k + 2])
        np.add(shift[:, 0, :k], shift[:, 1, 2 : k + 2], out=x[:, :k])
        x[:, k:] = shift[:, 0, k : k + 2]
        lo = max(k - 1, 0)
        np.matmul(quot[:, k + 1, None, lo - k + 1 :], rows[:, lo : k + 1, : k + 2],
                  out=scratch[:, None, : k + 2])
        np.subtract(x, scratch[:, : k + 2], out=x)
        np.divide(x[:, None], norms[:, k + 1, None, None],
                  out=rows[:, k + 1, None, : k + 2])
    return _member_order(rows)[0]


@pytest.mark.parametrize("k, n_max", [(20, 0), (20, 1), (20, 2), (84, 40), (330, 200)])
def test_norms_and_rec_replay_a_plain_build_bit_for_bit(k, n_max):
    # the recurrence reaches this far only without reorthogonalization: its
    # extra Gram-Schmidt pass is not in rec, and those builds do not replay
    freq = Frequency.exact(k)
    basis = build_basis(freq, n_max, build_tables(freq, n_max + 1))
    a, b = _replay(basis)
    assert a.tobytes() == basis.a.tobytes()
    assert b.tobytes() == basis.b.tobytes()


def test_reorthogonalization_tightens_marginal_gram():
    freq = Frequency.exact(10)
    tables = build_tables(freq, 13)
    plain = _build_quiet(freq, 12, tables)
    tight = _build_quiet(freq, 12, tables, reorthogonalize=True)
    G_plain = gram_matrix(plain, tables)
    G_tight = gram_matrix(tight, tables)
    dev_plain = np.max(np.abs(G_plain - np.eye(26)))
    dev_tight = np.max(np.abs(G_tight - np.eye(26)))
    assert dev_tight <= dev_plain + 1e-14


@pytest.mark.parametrize("reorthogonalize", [False, True])
def test_basis_is_bitwise_prefix_of_larger_build(reorthogonalize):
    # a basis at N is the first 2(N+1) rows of the one at N' > N, bit for
    # bit, whether it is built on its own tables or on the larger ones, at
    # an exact multiple and off the 2 pi grid
    for freq in (Frequency.exact(50), Frequency.from_omega(200.3)):
        shared = build_tables(freq, 41)
        big = _build_quiet(freq, 40, shared, reorthogonalize=reorthogonalize)
        for n_max in range(40):
            rows = 2 * (n_max + 1)
            for tables in (shared, build_tables(freq, n_max + 1)):
                small = _build_quiet(freq, n_max, tables,
                                     reorthogonalize=reorthogonalize)
                assert np.array_equal(small.a, big.a[:rows, : n_max + 1])
                assert np.array_equal(small.b, big.b[:rows, : n_max + 1])
                assert np.array_equal(small.norms, big.norms[:rows])
                assert np.array_equal(small.rec, big.rec[:n_max])


@pytest.mark.parametrize("freq, n_max", [
    (Frequency.exact(50), n) for n in (0, 1, 2, 63, 64)] + [
    (Frequency.from_omega(200.3), n) for n in (0, 1, 2, 63, 64)] + [
    # both frequencies above are refused at N = 200 (the basis collapses
    # at member 225, q_112, and 179, q_89), so N = 200 takes 2pi*330 and
    # an off-grid neighbour
    (Frequency.exact(330), 200), (Frequency.from_omega(TWO_PI * 330 + 0.3), 200)])
@pytest.mark.parametrize("reorthogonalize", [False, True])
def test_rows_are_zero_at_opposite_parity(freq, n_max, reorthogonalize):
    # p_k has parity (-1)^k and q_k (-1)^(k+1), and P_j cos(omega x) has
    # (-1)^j and P_j sin(omega x) (-1)^(j+1): member i = 2k + s leaves its
    # cosine part zero where j + k + s is odd and its sine part where even
    basis = _build_quiet(freq, n_max, build_tables(freq, n_max + 1),
                         reorthogonalize=reorthogonalize)
    i, j = np.ogrid[: 2 * (n_max + 1), : n_max + 1]
    odd = (i // 2 + i % 2 + j) % 2 == 1
    assert np.all(basis.a[odd] == 0.0)
    assert np.all(basis.b[~odd] == 0.0)


def _fields(basis, **changes):
    fields = {"freq": basis.freq, "n_max": basis.n_max, "a": basis.a,
              "b": basis.b, "norms": basis.norms, "rec": basis.rec}
    return {**fields, **changes}


@pytest.mark.parametrize("part, row, degree, value, message", [
    # row 0 is p_0, of degree 0: member_values would use the stray
    # coefficient, and the content hash would not see it
    ("a", 0, 4, 1.0, r"member 0 \(p_0\) has cosine coefficient 1.0 at degree 4, "
                     r"beyond its degree 0"),
    ("b", 9, 5, np.nan, r"member 9 \(q_4\) has sine coefficient nan at degree 5, "
                        r"beyond its degree 4"),
    ("a", 17, 8, 1e-300, r"member 17 \(q_8\) has cosine coefficient 1e-300 at "
                         r"degree 8, where its parity requires 0"),
], ids=["past-degree", "past-degree-nan", "parity"])
def test_basis_refuses_coefficient_it_cannot_hold(part, row, degree, value, message):
    freq = Frequency.exact(20)
    basis = build_basis(freq, 8, build_tables(freq, 9))
    arr = getattr(basis, part).copy()
    arr[row, degree] = value
    with pytest.raises(ValueError, match=message + "; the basis file is corrupted"):
        OscBasis(**_fields(basis, **{part: arr}))


@pytest.mark.parametrize("name, shape", [
    ("a", (18, 10)), ("a", (16, 9)), ("a", (18 * 9,)),
    ("b", (18, 8)), ("b", (20, 9)),
    ("norms", (17,)), ("norms", (18, 1)),
    ("rec", (9, 4)), ("rec", (8, 3)), ("rec", (32,)),
])
def test_basis_refuses_arrays_of_the_wrong_shape(name, shape):
    freq = Frequency.exact(20)
    basis = build_basis(freq, 8, build_tables(freq, 9))
    want = getattr(basis, name).shape
    with pytest.raises(ValueError, match=re.escape(
            f"basis {name} has shape {shape}, but a basis with n_max=8 has {want}")):
        OscBasis(**_fields(basis, **{name: np.zeros(shape)}))
    assert OscBasis(**_fields(basis)).content_hash() == basis.content_hash()


@pytest.mark.parametrize("name, index", [("b", (1, 0)), ("norms", (3,)),
                                         ("rec", (2, 1))],
                         ids=["b", "norms", "rec"])
def test_basis_refuses_non_finite_entries(basis20, name, index):
    arr = getattr(basis20, name).copy()
    arr[index] = np.inf
    with pytest.raises(ValueError, match="coefficients must be finite"):
        OscBasis(**_fields(basis20, **{name: arr}))


def test_basis_keeps_read_only_float_arrays_and_copies_the_rest(basis20):
    names = ("a", "b", "norms", "rec")
    # build_basis and from_doc hand their arrays over read-only, and a basis
    # made from a basis's own arrays holds the same objects
    for basis in (basis20, from_doc(to_doc(basis20))):
        assert not any(getattr(basis, name).flags.writeable for name in names)
        same = OscBasis(**_fields(basis))
        assert all(getattr(same, name) is getattr(basis, name) for name in names)
    # a writable array, or one not in native float64, is copied
    writable = {name: getattr(basis20, name).copy() for name in names}
    swapped = {name: getattr(basis20, name).astype(">f8") for name in names}
    for arr in swapped.values():
        arr.flags.writeable = False
    copies = [OscBasis(**_fields(basis20, **given)) for given in (writable, swapped)]
    for copied, given in zip(copies, (writable, swapped)):
        for name, arr in given.items():
            got = getattr(copied, name)
            assert got.dtype == np.float64 and got.dtype.isnative
            assert not got.flags.writeable and not np.shares_memory(got, arr)
        assert copied.content_hash() == basis20.content_hash()
    writable["a"][0, 0] = 5.0
    assert copies[0].a[0, 0] == basis20.a[0, 0]


# a hand-written basis at 2 pi 3, N = 1, every coefficient at a slot its
# parity and degree allow, and its pinned content hash
_GOLDEN = {"a": [[1.0, 0.0], [0.0, 0.0], [0.0, 2.5], [-0.75, 0.0]],
           "b": [[0.0, 0.0], [1.5, 0.0], [0.125, 0.0], [0.0, -3.0]],
           "norms": [1.0, 0.5, 0.25, 2.0], "rec": [[0.1, 0.0, -0.2, 0.0]]}
_GOLDEN_HASH = "29963c137b0429be1763ef7da56b31911d5d82326103189c2ef9913164b85e85"


def test_content_hash_is_pinned_and_independent_of_layout(tmp_path):
    freq = Frequency.exact(3)
    basis = OscBasis(freq=freq, n_max=1, **_GOLDEN)
    assert basis.content_hash() == _GOLDEN_HASH
    # the documented byte form: omega, epsilon, k, N, then a, b, norms and
    # rec in C order, all little-endian
    values = [v for name in ("a", "b", "norms", "rec")
              for v in np.ravel(_GOLDEN[name]).tolist()]
    payload = struct.pack(f"<2d2q{len(values)}d", freq.omega, 0.0, 3, 1, *values)
    assert hashlib.sha256(payload).hexdigest() == _GOLDEN_HASH
    fortran = OscBasis(freq=freq, n_max=1, **{
        name: np.asfortranarray(value) for name, value in _GOLDEN.items()})
    assert not fortran.a.flags.c_contiguous
    assert fortran.content_hash() == _GOLDEN_HASH
    loaded = load_basis(save_basis(basis, tmp_path / "golden.json"))
    assert loaded.content_hash() == _GOLDEN_HASH


def test_basis_refuses_k_its_content_hash_cannot_pack():
    # Frequency takes any k (1e308 has k near 1.6e307); the int64 limit is
    # the basis's, whose hash packs k
    freq = Frequency(omega=TWO_PI * 2 ** 63, k=2 ** 63, epsilon=0.0)
    with pytest.raises(ValueError, match=f"k={2 ** 63} overflows the int64 of"):
        OscBasis(freq=freq, n_max=1, **_GOLDEN)
    edge = Frequency(omega=TWO_PI * (2 ** 63 - 1), k=2 ** 63 - 1, epsilon=0.0)
    assert len(OscBasis(freq=edge, n_max=1, **_GOLDEN).content_hash()) == 64


def test_basis_document_refuses_row_past_its_degree(basis20):
    doc = to_doc(basis20)
    doc["rows"][0]["a"].append(0.0)
    doc["rows"][0]["b"].append(0.0)
    with pytest.raises(ValueError, match="basis row 0 has 2 coefficients, but "
                       "member 0 reaches only Legendre degree 0"):
        from_doc(doc)


def test_degeneration_raises_with_context():
    freq = Frequency.exact(3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        tables = build_tables(freq, 25)
        with pytest.raises(BasisDegenerationError, match="member"):
            build_basis(freq, 24, tables)


def test_collapse_is_refused_before_the_norm_turns_negative():
    # at 2pi*3, N = 20 every norm^2 stays positive, but the coefficients
    # grow until rounding alone swamps the Gram (oracle max|G - I| ~ 5 if
    # the basis were returned)
    freq = Frequency.exact(3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        tables = build_tables(freq, 21)
        with pytest.raises(BasisDegenerationError, match="member"):
            build_basis(freq, 20, tables)


@pytest.mark.parametrize("n_max", [39, 40, 41])
@pytest.mark.parametrize("ratio", [1.05, 2, 4])
def test_batched_reorthogonalization_keeps_oracle_gram(n_max, ratio):
    freq = Frequency.exact(math.ceil(ratio * n_max))
    tables = build_tables(freq, n_max + 1)
    dev = {}
    for reorth in (False, True):
        basis = build_basis(freq, n_max, tables, reorthogonalize=reorth)
        G = member_gram(basis, freq.omega)
        dev[reorth] = np.max(np.abs(G - np.eye(G.shape[0])))
    assert dev[True] <= 1e-10
    assert dev[True] <= dev[False] + 1e-14


REFUSALS = {"rho": "u*max|c|^2 = {} >= 1, so rounding alone perturbs the Gram "
                    "as much as the Gram itself",
            "norm": "pre-normalization norm^2 = {} is below 1e-13^2"}


@pytest.mark.parametrize("k, n_max, member, check, value", [
    (3, 20, 40, "rho", "4.054e+00"), (3, 60, 40, "rho", "4.054e+00"),
    (600, 400, 795, "rho", "2.012e+00"), (10, 200, 94, "norm", "-5.210e-02")])
def test_collapse_refusal_names_the_member_a_per_pair_check_names(
        k, n_max, member, check, value):
    # the recurrence runs to the last pair, so at 2pi*3, N = 60 it runs on
    # past member 40 to a negative norm^2 at member 43; the refusal is still
    # member 40's, with the value and the message of a check after every
    # pair.  At 2pi*10, N = 200 the norm fails before any rho reaches 1
    freq = Frequency.exact(k)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        tables = build_tables(freq, n_max + 1)
    with pytest.raises(BasisDegenerationError) as info:
        _build_quiet(freq, n_max, tables)
    assert str(info.value) == (
        f"basis degenerated at member {member} ({'pq'[member % 2]}_{member // 2}): "
        f"{REFUSALS[check].format(value)} (omega={freq.omega:.6g}, n_max={n_max})")


def _with_entries(tables, name, value, *entries):
    """A copy of tables whose m5 or m6 holds value at each entry (j, k) and
    (k, j), set past the checks of InnerProductTables, which refuses a
    value that is not finite."""
    mat = getattr(tables, name).copy()
    for j, k in entries:
        mat[j, k] = mat[k, j] = value
    changed = copy.copy(tables)
    object.__setattr__(changed, name, mat)
    return changed


@pytest.mark.parametrize("n_max", [31, 60, 150])
def test_build_runs_past_a_collapsed_member_without_warnings(n_max):
    # 2pi*3 collapses at member 40 (pair 20), and the recurrence runs on to
    # the last pair; with M5 at minus the largest float at [21, 23], so that
    # M4 = (M1 - M5)/2 and M3 = (M1 + M5)/2 read +-max/2 there, a product
    # with a member of pair 21 or later overflows (pairs 0 ... 20 never read
    # those entries), and no RuntimeWarning escapes (pytest turns one into
    # an error)
    freq = Frequency.exact(3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        tables = build_tables(freq, n_max + 1)
    huge = _with_entries(tables, "m5", -np.finfo(float).max, (21, 23))
    with pytest.raises(BasisDegenerationError,
                       match=r"member 40 \(p_20\): u\*max\|c\|\^2 = 4\.054e\+00 >= 1"):
        _build_quiet(freq, n_max, huge)


def test_degeneration_check_refuses_nan_norm(freq20, tables20):
    # M5 NaN at [2, 2]: M3 = (M1 + M5)/2 and M4 = (M1 - M5)/2 read NaN there
    tables = _with_entries(tables20, "m5", np.nan, (2, 2))
    with pytest.raises(BasisDegenerationError, match="norm\\^2 = nan"):
        build_basis(freq20, 4, tables)


def test_degeneration_check_refuses_nan_in_q_row_only(freq20, tables20):
    # with M5 and M6 infinite at [1, 1], G_c = (M1 + M6 + s M5)/2 reads
    # inf - inf = NaN there where degree 1 is a sine coordinate (M4's entry)
    # and inf where it is a cosine one (M3's).  The NaN enters only the
    # sine part of q_1, whose norm^2 turns NaN, while p_1's, infinite,
    # passes the norm check; the pair is still refused.  No finite tables
    # meet that inf - inf, so its invalid-value warning is let through here
    tables = _with_entries(tables20, "m5", np.inf, (1, 1))
    tables = _with_entries(tables, "m6", np.inf, (1, 1))
    with np.errstate(invalid="ignore"), pytest.raises(
            BasisDegenerationError,
            match=r"member 3 \(q_1\): pre-normalization norm\^2 = nan"):
        build_basis(freq20, 12, tables)


def test_boundary_build_warns_but_succeeds():
    freq = Frequency.exact(5)
    tables = build_tables(freq, 25)
    with pytest.warns(StabilityWarning):
        basis = build_basis(freq, 24, tables)
    assert basis.a.shape[0] == 50


def test_no_warning_when_frequency_dominates_degree(freq20, tables20):
    with warnings.catch_warnings():
        warnings.simplefilter("error", StabilityWarning)
        build_basis(freq20, 12, tables20)


def test_build_rejects_bad_inputs(freq20, tables20):
    with pytest.raises(ValueError, match="n_max"):
        build_basis(freq20, -1, tables20)
    with pytest.raises(ValueError, match="n_max >= 18"):
        build_basis(freq20, 18, tables20)
    with pytest.raises(ValueError, match="mismatch"):
        build_basis(Frequency.exact(21), 4, tables20)


@pytest.mark.parametrize("freq, n_max", [
    (Frequency.exact(5), 0), (Frequency.exact(7), 1), (Frequency.exact(9), 2),
    (Frequency.exact(20), 12), (Frequency.exact(84), 40),
    (Frequency.exact(137), 100), *((Frequency.exact(k), 200)
                                   for k in (218, 304, 325, 330)),
    (Frequency.exact(660), 300)], ids=lambda v: str(getattr(v, "k", v)))
def test_basis_is_the_same_on_tables_of_any_larger_degree(freq, n_max):
    # each quotient and norm is an inner product of members of degree at
    # most N, so the build reads table degrees 0 ... N only
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        bases = [build_basis(freq, n_max, build_tables(freq, n_max + extra))
                 for extra in (0, 1, 5)]
    for basis in bases[1:]:
        for name in ("a", "b", "norms", "rec"):
            assert getattr(basis, name).tobytes() == getattr(bases[0], name).tobytes()
        assert basis.content_hash() == bases[0].content_hash()


def test_build_on_large_tables_allocates_for_its_own_degree():
    # the class Grams are formed over degrees 0 ... N only: tables at T far
    # above N cost the build no (T+1)-square array (8 MB at T = 1000)
    freq = Frequency.exact(1000)
    tables = build_tables(freq, 1000)
    tracemalloc.start()
    try:
        build_basis(freq, 10, tables)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("freq, n_max", [
    (Frequency.exact(20), 120), (Frequency.exact(60), 200),
    (Frequency.exact(2), 60), (Frequency.from_omega(3.3), 40)],
    ids=["2pi*20", "2pi*60", "2pi*2", "3.3"])
def test_refusal_is_the_same_on_tables_of_any_larger_degree(freq, n_max):
    messages = []
    for extra in (0, 1, 5):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StabilityWarning)
            tables = build_tables(freq, n_max + extra)
        with pytest.raises(BasisDegenerationError) as info:
            _build_quiet(freq, n_max, tables)
        messages.append(str(info.value))
    assert messages[1:] == messages[:1] * 2


@pytest.mark.parametrize("n_max", [1, 12])
def test_tables_below_the_basis_degree_are_refused(freq20, n_max):
    tables = build_tables(freq20, n_max - 1)
    with pytest.raises(ValueError, match=rf"tables.n_max={n_max - 1} too small: "
                                         rf".*needs tables with n_max >= {n_max}$"):
        build_basis(freq20, n_max, tables)


def test_member_evaluation(freq20, basis20):
    assert list(member_values(basis20, 0.0)[:3, 0]) == [1.0, 0.0, 0.0]
    x = np.linspace(-1.0, 1.0, 5)
    vals = member_values(basis20, x)
    assert vals.shape == (26, 5)


def test_basis_arrays_stand_in_for_member_list(basis20, tables20):
    omega = basis20.freq.omega
    assert np.array_equal(gram_matrix(basis20, tables20),
                          gram_matrix(basis20.rep, tables20))
    assert np.array_equal(member_gram(basis20, omega), member_gram(basis20.rep, omega))


def test_monic_norms_decrease(freq20, tables20, script):
    monic_norm_profile = script("monic_decay").monic_norm_profile
    profile = monic_norm_profile(freq20, 10, tables20)
    assert profile[0] == 1.0
    assert np.all(np.diff(profile) < 0.0)
    with pytest.raises(ValueError):
        monic_norm_profile(freq20, -1, tables20)


def test_monic_norms_past_member_44(script):
    # the monic norms fall below the degeneration threshold near k = 44,
    # but they are products of normalized-run norms, which do not
    freq = Frequency.exact(100)
    tables = build_tables(freq, 61)
    profile = script("monic_decay").monic_norm_profile(freq, 60, tables)
    assert profile.shape == (61,)
    assert np.all(profile > 0.0)
    assert np.all(np.diff(profile) < 0.0)
    assert np.array_equal(profile,
                          np.cumprod(build_basis(freq, 60, tables).norms[0::2]))


def test_monic_norms_refuse_tables_at_another_frequency(script):
    tables = build_tables(Frequency.exact(50), 11)
    with pytest.raises(ValueError, match=r"omega=125\.66.*omega=314\.15"):
        script("monic_decay").monic_norm_profile(Frequency.exact(20), 10, tables)


def test_serialization_round_trip(basis20, tmp_path):
    path = tmp_path / "basis.json"
    save_basis(basis20, path)
    loaded = load_basis(path)
    assert loaded.freq == basis20.freq
    assert loaded.n_max == basis20.n_max
    assert np.array_equal(loaded.norms, basis20.norms)
    assert np.array_equal(loaded.a, basis20.a)
    assert np.array_equal(loaded.b, basis20.b)
    assert np.array_equal(loaded.rec, basis20.rec)
    assert loaded.content_hash() == basis20.content_hash()


def test_load_basis_refuses_tables_file(tables20, tmp_path):
    path = save(tables20, tmp_path / "tables.json")
    with pytest.raises(ValueError, match="holds InnerProductTables, not OscBasis"):
        load_basis(path)


def test_content_hash_tracks_content(basis20):
    doc = to_doc(basis20)
    doc["rows"][3]["a"][0] += 1e-9
    altered = from_doc(doc)
    assert altered.content_hash() != basis20.content_hash()


def test_representation_matrix_layout(basis20):
    B = representation_matrix(basis20)
    assert B.shape == (26, 26)
    assert B[0, 0] == basis20.a[0, 0]
    assert B[1, 1] == basis20.b[1, 0]
    # degree bound: pair k only reaches Legendre degree k
    for i in range(B.shape[0]):
        k = i // 2
        assert np.all(B[i, 2 * (k + 1):] == 0.0)


def test_csv_export_round_trips(basis20, tmp_path):
    [path] = save_csv(basis20, tmp_path / "basis.csv")
    header = path.read_text().splitlines()[0]
    assert header.startswith("c0,")
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(data, representation_matrix(basis20))


@pytest.mark.parametrize("norm", [0.0, -0.5])
def test_basis_refuses_a_norm_not_positive(basis20, norm):
    norms = basis20.norms.copy()
    norms[5] = norm
    with pytest.raises(ValueError, match="basis norms must be positive"):
        replace(basis20, norms=norms)
