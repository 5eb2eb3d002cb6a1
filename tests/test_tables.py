import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscbasis import (
    Expansion,
    Frequency,
    InnerProductTables,
    StabilityWarning,
    build_tables,
    load_tables,
    verify_tables,
)
from oscbasis.documents import SCHEMA_VERSION, from_doc, save, save_csv, to_doc
from oscbasis.legendre import legendre_table, legtrig_values
from oscbasis.oracle import composite_rule, member_gram
from oscbasis.tables import MAX_DEGREE, gram_matrix


def _quiet_tables(freq, n_max):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        return build_tables(freq, n_max)


def _scalar_recursion(freq, n_max):
    """M5 and M6 by the entry-at-a-time skew-diagonal loop: every entry sums
    its derivative re-expansion terms directly from the opposite table."""
    omega = freq.omega
    if freq.exact_multiple:
        sin_2w, cos_2w = 0.0, 1.0
    else:
        sin_2w, cos_2w = np.sin(2.0 * omega), np.cos(2.0 * omega)
    inv_2w = 1.0 / (2.0 * omega)
    m5 = np.zeros((n_max + 1, n_max + 1))
    m6 = np.zeros((n_max + 1, n_max + 1))
    # P_j' = sum (2m+1) P_m over m = j-1, j-3, ...
    expansions = [[(m, 2 * m + 1) for m in range(j - 1, -1, -2)]
                  for j in range(n_max + 1)]
    for s in range(2 * n_max + 1):
        src, dst = (m6, m5) if s % 2 == 0 else (m5, m6)
        for j in range(max(0, s - n_max), s // 2 + 1):
            k = s - j
            acc = 0.0
            for m, coeff in expansions[j]:
                acc += coeff * src[m, k]
            for m, coeff in expansions[k]:
                acc += coeff * src[j, m]
            if s % 2 == 0:
                val = sin_2w / omega - inv_2w * acc
            else:
                val = -cos_2w / omega + inv_2w * acc
            dst[j, k] = dst[k, j] = val
    return m5, m6


@pytest.mark.parametrize("freq, n_max", [
    (Frequency.exact(12), 40), (Frequency.exact(25), 60),
    (Frequency.exact(40), 60), (Frequency.from_omega(97.3), 40),
    (Frequency.from_omega(150.2), 60), (Frequency.from_omega(300.7), 60),
])
def test_prefix_sum_fill_matches_scalar_recursion(freq, n_max):
    t = build_tables(freq, n_max)
    want5, want6 = _scalar_recursion(freq, n_max)
    assert np.max(np.abs(t.m5 - want5)) <= 1e-14
    assert np.max(np.abs(t.m6 - want6)) <= 1e-14
    idx = np.add.outer(np.arange(n_max + 1), np.arange(n_max + 1))
    for m in (t.m5, t.m6):
        assert np.array_equal(m, m.T)
    assert np.all(t.m5[idx % 2 == 1] == 0.0)
    assert np.all(t.m6[idx % 2 == 0] == 0.0)


def test_far_corner_matches_quadrature_at_large_degree():
    # the last rows of M5 and M6 at 2pi*200, N = 201, where the recursion
    # has run longest, against the oracle rule summed 4096 nodes at a time
    freq, n_max, corner = Frequency.exact(200), 201, 4
    t = build_tables(freq, n_max)
    rule = composite_rule(freq.omega)
    want5 = np.zeros((corner, n_max + 1))
    want6 = np.zeros((corner, n_max + 1))
    for start in range(0, rule.nodes.size, 4096):
        x = rule.nodes[start:start + 4096]
        w = rule.weights[start:start + 4096]
        P = legendre_table(n_max, x)
        want5 += (P[-corner:] * (w * np.cos(2.0 * freq.omega * x))) @ P.T
        want6 += (P[-corner:] * (w * np.sin(2.0 * freq.omega * x))) @ P.T
    assert np.max(np.abs(t.m5[-corner:] - want5)) <= 1e-13
    assert np.max(np.abs(t.m6[-corner:] - want6)) <= 1e-13


def test_diagonal_table_is_legendre_norms(tables20, unit_gram):
    # <P_j cos, P_k cos> + <P_j sin, P_k sin> = <P_j, P_k>: M3 + M4 = M1
    expected = np.diag([2.0 / (2 * k + 1) for k in range(18)])
    U = unit_gram(tables20)
    assert np.array_equal(U[:18, :18] + U[18:, 18:], expected)


def test_level_zero_tables_at_exact_multiple(unit_gram):
    tables = build_tables(Frequency.exact(10), 0)
    assert tables.m5[0, 0] == 0.0
    assert tables.m6[0, 0] == 0.0
    assert unit_gram(tables)[0, 0] == 1.0
    assert unit_gram(tables)[1, 1] == 1.0


def test_first_coupling_entries_at_exact_multiple():
    tables = build_tables(Frequency.exact(10), 1)
    omega = tables.freq.omega
    assert tables.m6[1, 0] == -1.0 / omega
    assert tables.m6[1, 0] == pytest.approx(-0.015915494309189534, rel=1e-15)
    assert tables.m5[1, 1] == pytest.approx(1.0 / omega**2, rel=1e-13)


def test_derived_tables_are_exact_combinations(tables20, unit_gram):
    # the unit-mode Gram is [[M3, M2], [M2^T, M4]], M2 = M6/2, M3 and M4 =
    # (M1 +- M5)/2, bit for bit
    t, n = tables20, 18
    m1 = np.diag(2.0 / (2.0 * np.arange(n) + 1.0))
    U = unit_gram(t)
    assert np.array_equal(U[:n, n:], t.m6 / 2.0)
    assert np.array_equal(U[n:, :n], t.m6.T / 2.0)
    assert np.array_equal(U[:n, :n], (m1 + t.m5) / 2.0)
    assert np.array_equal(U[n:, n:], (m1 - t.m5) / 2.0)
    assert np.array_equal(U[:n, :n] + U[n:, n:], m1)


@pytest.mark.parametrize("freq, n_max", [
    (Frequency.exact(5), 1), (Frequency.exact(20), 12), (Frequency.exact(137), 100),
    (Frequency.exact(330), 201), (Frequency.from_omega(200.3), 30)],
    ids=lambda v: str(getattr(v, "omega", v)))
def test_unit_mode_gram_is_the_table_blocks(freq, n_max, unit_gram):
    # gram_matrix reads the class Grams only; on the unit modes it gives
    # [[M3, M2], [M2^T, M4]] with the bits of the formulas
    t, n = build_tables(freq, n_max), n_max + 1
    m1 = np.diag(2.0 / (2.0 * np.arange(n) + 1.0))
    m2, m3, m4 = t.m6 / 2.0, (m1 + t.m5) / 2.0, (m1 - t.m5) / 2.0
    assert np.array_equal(unit_gram(t), np.block([[m3, m2], [m2.T, m4]]))


def test_all_tables_symmetric(tables20, unit_gram):
    U, n = unit_gram(tables20), 18
    for m in (U, U[:n, :n], U[:n, n:], U[n:, n:], tables20.m5, tables20.m6):
        assert np.array_equal(m, m.T)


def test_parity_zeros_hold_for_any_frequency():
    for freq in (Frequency.exact(20), Frequency.from_omega(12.0)):
        t = _quiet_tables(freq, 9)
        idx = np.add.outer(np.arange(10), np.arange(10))
        assert np.all(t.m5[idx % 2 == 1] == 0.0)
        assert np.all(t.m6[idx % 2 == 0] == 0.0)


def test_recursion_matches_oracle_at_exact_multiples(oracle_reference, table_blocks):
    for k, n_max in ((10, 16), (20, 16), (40, 16)):
        freq = Frequency.exact(k)
        got = table_blocks(build_tables(freq, n_max))
        ref = oracle_reference(freq, n_max)
        for key in ("m2", "m3", "m4", "m5", "m6"):
            dev = np.max(np.abs(got[key] - ref[key]))
            assert dev <= 1e-10, f"{key} at 2pi*{k}: {dev:.3e}"


def test_recursion_matches_oracle_at_general_frequency(oracle_reference, table_blocks):
    freq = Frequency.from_omega(12.0)
    got = table_blocks(build_tables(freq, 8))
    ref = oracle_reference(freq, 8)
    for key in ("m2", "m3", "m4", "m5", "m6"):
        assert np.max(np.abs(got[key] - ref[key])) <= 1e-10


def test_coupling_entries_decay_with_frequency():
    lo = build_tables(Frequency.exact(10), 8)
    hi = build_tables(Frequency.exact(100), 8)
    assert np.all(np.abs(hi.m5) <= np.abs(lo.m5) + 1e-12)
    assert np.all(np.abs(hi.m6) <= np.abs(lo.m6) + 1e-12)


def test_warns_when_degree_reaches_omega():
    with pytest.warns(StabilityWarning):
        build_tables(Frequency.exact(2), 16)


def test_no_warning_in_stable_regime():
    with warnings.catch_warnings():
        warnings.simplefilter("error", StabilityWarning)
        build_tables(Frequency.exact(20), 16)


def test_rejects_negative_size():
    with pytest.raises(ValueError):
        build_tables(Frequency.exact(2), -1)


def test_refuses_degree_over_the_limit():
    # the CLI's messages name 2047; the limit bounds what one table build
    # and the basis on its tables allocate
    assert MAX_DEGREE == 2047
    with pytest.raises(ValueError, match="n_max=2048 is over the table degree "
                                         "limit of 2047"):
        build_tables(Frequency.exact(20), MAX_DEGREE + 1)


@settings(max_examples=25, deadline=None)
@given(
    st.one_of(
        st.floats(min_value=10.0, max_value=500.0, allow_nan=False),
        st.integers(min_value=2, max_value=80),
    ),
    st.integers(min_value=0, max_value=6),
)
def test_structural_identities_hold_everywhere(unit_gram, omega_or_k, n_max):
    if isinstance(omega_or_k, int):
        freq = Frequency.exact(omega_or_k)
    else:
        freq = Frequency.from_omega(omega_or_k)
    t = _quiet_tables(freq, n_max)
    n = n_max + 1
    idx = np.add.outer(np.arange(n), np.arange(n))
    assert np.all(t.m5[idx % 2 == 1] == 0.0)
    assert np.all(t.m6[idx % 2 == 0] == 0.0)
    U = unit_gram(t)
    assert np.array_equal(U[:n, n:], t.m6 / 2.0)
    assert np.array_equal(U[:n, :n] + U[n:, n:], np.diag(2.0 / (2.0 * np.arange(n) + 1.0)))
    for m in (t.m5, t.m6):
        assert np.array_equal(m, m.T)
        assert np.max(np.abs(m)) <= 2.0


def test_verify_report_on_fresh_tables(tables20):
    report = verify_tables(tables20, 1e-10)
    assert report.passed
    assert report.flagged == []
    assert set(report.deviations) == {"m5", "m6"}
    assert max(report.deviations.values()) <= 1e-12


def test_verify_flags_corrupted_entry(tables20):
    # (3, 7) is an entry that M5's parity allows to be nonzero
    m5 = tables20.m5.copy()
    m5[3, 7] += 1e-6
    m5[7, 3] += 1e-6
    bad = dataclasses.replace(tables20, m5=m5)
    report = verify_tables(bad, 1e-10)
    assert not report.passed
    flagged = {(f["matrix"], f["j"], f["k"]) for f in report.as_dict()["flagged_entries"]}
    assert ("m5", 3, 7) in flagged


def _set(tables, name, value, *entries):
    """{name: a copy of the matrix name of tables, set to value at the entries}."""
    mat = getattr(tables, name).copy()
    for entry in entries:
        mat[entry] = value
    return {name: mat}


@pytest.mark.parametrize("change, message", [
    (lambda t: {"m6": t.m6[:, :-1]}, "m6 has shape (18, 17), expected (18, 18)"),
    (lambda t: {"m5": t.m5[None]}, "m5 has shape (1, 18, 18), expected (18, 18)"),
    (lambda t: _set(t, "m5", np.nan, (2, 3)), "m5 has non-finite entries"),
    (lambda t: _set(t, "m6", np.inf, (0, 1), (1, 0)), "m6 has non-finite entries"),
    (lambda t: _set(t, "m5", 1e-3, (1, 2)), "m5 is not symmetric"),
    (lambda t: _set(t, "m6", t.m6[3, 8] + 1e-9, (3, 8)), "m6 is not symmetric"),
    (lambda t: _set(t, "m5", 1e-3, (1, 2), (2, 1)),
     "m5[1][2] = 0.001 is nonzero at odd j + k"),
    (lambda t: _set(t, "m6", 1e-3, (4, 4)), "m6[4][4] = 0.001 is nonzero at even j + k"),
    (lambda t: _set(t, "m6", -2.5, (3, 5), (5, 3)),
     "m6[3][5] = -2.5 is nonzero at even j + k"),
], ids=["shape", "ndim", "nan_entry", "inf_entry", "asymmetric_zero",
        "asymmetric_value", "m5_off_parity", "m6_off_parity_even",
        "m6_off_parity_odd"])
def test_constructor_and_replace_refuse_bad_tables(tables20, change, message):
    exact = f"^{re.escape(message)}$"
    arrays = {"m5": tables20.m5, "m6": tables20.m6, **change(tables20)}
    with pytest.raises(ValueError, match=exact):
        InnerProductTables(tables20.freq, tables20.n_max, **arrays)
    with pytest.raises(ValueError, match=exact):
        dataclasses.replace(tables20, **change(tables20))


def test_tables_arrays_are_read_only(tables20):
    m5 = tables20.m5.copy()
    t = InnerProductTables(tables20.freq, tables20.n_max, m5, tables20.m6)
    m5[3, 7] = 1.0
    m5[7, 3] = 1.0
    assert np.array_equal(t.m5, tables20.m5)
    for mat in (t.m5, t.m6, tables20.m5, tables20.m6):
        with pytest.raises(ValueError, match="read-only"):
            mat[0, 0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.m5 = m5
    assert t != dataclasses.replace(t) and t == t


@pytest.mark.parametrize("basis_hash", [None, 0, b"0" * 64, ["0" * 64]],
                         ids=["none", "int", "bytes", "list"])
def test_expansion_refuses_hash_that_is_not_a_string(basis20, basis_hash):
    with pytest.raises(ValueError, match=re.escape(
            f"basis_hash must be a string, got {basis_hash!r}")):
        Expansion(basis20.freq, basis20.n_max, basis_hash, np.zeros(26))


@pytest.mark.parametrize("tol", [float("inf"), float("nan"), -1.0])
def test_verify_refuses_tolerance_that_is_not_finite_and_non_negative(tables20, tol):
    with pytest.raises(ValueError, match=f"^tolerance must be finite and >= 0, got {tol!r}"):
        verify_tables(tables20, tol)


def test_verify_accepts_zero_tolerance(tables20):
    report = verify_tables(tables20, 0.0)
    assert report.tolerance == 0.0
    assert report.passed == (max(report.deviations.values()) == 0.0)


def test_loader_refuses_non_finite_matrix(tables20):
    doc = to_doc(tables20)
    doc["m5"][2][3] = float("nan")
    with pytest.raises(ValueError, match="m5 has non-finite"):
        from_doc(doc)


def test_loader_refuses_asymmetric_matrix(tables20):
    doc = to_doc(tables20)
    doc["m5"][2][3] += 1e-9
    with pytest.raises(ValueError, match="m5 is not symmetric"):
        from_doc(doc)


def test_verify_runs_at_stability_boundary():
    t = _quiet_tables(Frequency.exact(5), 24)
    report = verify_tables(t, 1e-10)
    assert set(report.deviations) == {"m5", "m6"}
    assert isinstance(report.passed, bool)


def test_json_round_trip_is_bit_exact(tables20, tmp_path, table_blocks):
    path = tmp_path / "tables.json"
    save(tables20, path)
    loaded = load_tables(path)
    assert loaded.freq == tables20.freq
    assert loaded.n_max == tables20.n_max
    got, want = table_blocks(loaded), table_blocks(tables20)
    for key in ("m2", "m3", "m4", "m5", "m6"):
        assert np.array_equal(got[key], want[key])


def test_doc_round_trip(tables20):
    doc = to_doc(tables20)
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["omega"] == tables20.freq.omega
    back = from_doc(doc)
    assert np.array_equal(back.m6, tables20.m6)


def test_csv_export_round_trips(tables20, tmp_path):
    written = save_csv(tables20, tmp_path / "t")
    assert written == [tmp_path / "t_m5.csv", tmp_path / "t_m6.csv"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t_m5.csv", "t_m6.csv"]
    for key in ("m5", "m6"):
        path = tmp_path / f"t_{key}.csv"
        header = path.read_text().splitlines()[0]
        assert header.split(",")[0] == "k0"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(data, getattr(tables20, key))


# the bilinear form over the tables
def _coeffs(a, b):
    return np.asarray(a, dtype=float), np.asarray(b, dtype=float)


def _pair(*rows):
    """(A, B) with one row per (a, b), shorter rows zero-padded."""
    A = np.zeros((len(rows), max(len(a) for a, _ in rows)))
    B = np.zeros_like(A)
    for i, (a, b) in enumerate(rows):
        A[i, : len(a)], B[i, : len(b)] = a, b
    return A, B


def _inner(f, g, tables):
    """<f, g>: the off-diagonal entry of the Gram of the pair (f, g)."""
    return gram_matrix(_pair(f, g), tables)[0, 1]


def test_coeff_validation(tables20, freq20):
    cases = [
        ((np.ones((1, 2)), np.ones((1, 1))), "one shape"),
        ((np.array([[np.nan]]), np.zeros((1, 1))), "finite"),
        ((np.ones(2), np.ones(2)), "2-D"),
        ((np.ones((2, 2, 2)), np.ones((2, 2, 2))), "2-D"),
    ]
    for pair, why in cases:
        with pytest.raises(ValueError, match=why):
            gram_matrix(pair, tables20)
        with pytest.raises(ValueError, match=why):
            member_gram(pair, freq20.omega)


def test_pure_cosine_norm_squared_at_exact_multiple(tables20):
    f = _coeffs([1.0], [0.0])
    assert _inner(f, f, tables20) == 1.0


def test_cross_term_is_half_sine_table(tables20, unit_gram):
    f = _coeffs([1.0], [0.0])
    g = _coeffs([0.0], [1.0])
    # U[0, 18] is <P_0 cos, P_0 sin> = M2[0][0] = M6[0][0] / 2
    assert _inner(f, g, tables20) == unit_gram(tables20)[0, 18]
    assert _inner(f, g, tables20) == tables20.m6[0, 0] / 2.0


def test_degree_one_cross_entry_vanishes_at_exact_multiple(tables20):
    f = _coeffs([0.0, 1.0], [0.0, 0.0])
    g = _coeffs([1.0], [0.0])
    assert _inner(f, g, tables20) == 0.0


def test_inner_product_on_general_frequency_tables(unit_gram):
    tables = build_tables(Frequency.from_omega(12.0), 4)
    f = _coeffs([0.0, 1.0], [0.0, 0.0])
    g = _coeffs([0.0], [1.0])
    # <P1 cos, P0 sin> carries the cos(2 omega) weight, nonzero off multiples;
    # it is M2[1][0], entry (1, 5) of the unit-mode Gram
    m2_10 = unit_gram(tables)[1, 5]
    assert _inner(f, g, tables) == m2_10
    assert m2_10 != 0.0


def test_symmetry(tables20):
    rng = np.random.default_rng(3)
    for _ in range(5):
        f = _coeffs(rng.uniform(-1, 1, 5), rng.uniform(-1, 1, 5))
        g = _coeffs(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
        lhs = _inner(f, g, tables20)
        rhs = _inner(g, f, tables20)
        assert lhs == pytest.approx(rhs, rel=1e-14, abs=1e-15)


# built once at module level to keep the bilinearity property fast
_BILINEARITY_TABLES = build_tables(Frequency.exact(20), 8)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    st.lists(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False), min_size=2, max_size=8),
)
def test_bilinearity(alpha, beta, values):
    tables = _BILINEARITY_TABLES
    n = len(values) // 2
    f = _coeffs(values[:n], values[n : 2 * n])
    h = _coeffs(values[n : 2 * n], values[:n])
    g = _coeffs([0.3, -0.7], [0.1, 0.9])
    combo = _coeffs(alpha * f[0] + beta * h[0], alpha * f[1] + beta * h[1])
    lhs = _inner(combo, g, tables)
    rhs = alpha * _inner(f, g, tables) + beta * _inner(h, g, tables)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_matches_quadrature_oracle(tables20, freq20, quad):
    rng = np.random.default_rng(11)
    for _ in range(5):
        f = _coeffs(rng.uniform(-1, 1, 13), rng.uniform(-1, 1, 13))
        g = _coeffs(rng.uniform(-1, 1, 13), rng.uniform(-1, 1, 13))
        want = quad(
            lambda x: legtrig_values(*f, freq20.omega, x)
            * legtrig_values(*g, freq20.omega, x),
            freq20.omega,
        )
        got = _inner(f, g, tables20)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_zero_padding_aligns_lengths(tables20):
    short = _coeffs([1.0, -0.5], [0.2, 0.0])
    padded = _coeffs([1.0, -0.5, 0.0, 0.0], [0.2, 0.0, 0.0, 0.0])
    g = _coeffs(np.arange(1.0, 6.0), np.arange(-2.0, 3.0))
    assert _inner(short, g, tables20) == _inner(padded, g, tables20)


def test_overflowing_degree_names_required_size(tables20):
    f = _coeffs(np.zeros(19), np.zeros(19))
    with pytest.raises(ValueError, match="n_max >= 18"):
        _inner(f, f, tables20)


def test_gram_matrix_matches_entrywise_products(tables20):
    rng = np.random.default_rng(5)
    rows = [
        _coeffs(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)) for n in (4, 6, 2)
    ]
    G = gram_matrix(_pair(*rows), tables20)
    assert G.shape == (3, 3)
    for i in range(3):
        for j in range(3):
            assert G[i, j] == pytest.approx(
                _inner(rows[i], rows[j], tables20), rel=1e-13, abs=1e-15
            )
    empty = gram_matrix((np.zeros((0, 0)), np.zeros((0, 0))), tables20)
    assert empty.shape == (0, 0)


def test_gram_matrix_positive_semidefinite(tables20):
    rng = np.random.default_rng(9)
    rows = [_coeffs(rng.uniform(-1, 1, 7), rng.uniform(-1, 1, 7)) for _ in range(4)]
    G = gram_matrix(_pair(*rows), tables20)
    G = 0.5 * (G + G.T)
    assert np.min(np.linalg.eigvalsh(G)) >= -1e-10


def test_norm_basics(tables20, unit_gram):
    # norms are the square roots of the Gram diagonal
    k = 3
    e = np.zeros(k + 1)
    e[k] = 1.0
    rows = [_coeffs([1.0], [0.0]), _coeffs([0.0, 0.0], [0.0, 0.0]),
            _coeffs(e, np.zeros(k + 1))]
    norms = np.sqrt(np.diag(gram_matrix(_pair(*rows), tables20)))
    assert norms[0] == 1.0
    assert norms[1] == 0.0
    assert norms[2] == pytest.approx(np.sqrt(unit_gram(tables20)[k, k]), rel=1e-15)
