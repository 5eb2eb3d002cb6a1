import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscbasis import (
    Frequency,
    StabilityWarning,
    build_tables,
    load_tables,
    save_tables,
    verify_tables,
)
from oscbasis.documents import from_doc, save_tables_csv, to_doc
from oscbasis.legendre import legendre_table
from oscbasis.oracle import composite_rule, oracle_tables
from oscbasis.tables import MAX_DEGREE


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


def test_diagonal_table_is_legendre_norms(tables20):
    expected = np.diag([2.0 / (2 * k + 1) for k in range(18)])
    assert np.array_equal(tables20.m1, expected)


def test_level_zero_tables_at_exact_multiple():
    tables = build_tables(Frequency.exact(10), 0)
    assert tables.m5[0, 0] == 0.0
    assert tables.m6[0, 0] == 0.0
    assert tables.m3[0, 0] == 1.0
    assert tables.m4[0, 0] == 1.0


def test_first_coupling_entries_at_exact_multiple():
    tables = build_tables(Frequency.exact(10), 1)
    omega = tables.freq.omega
    assert tables.m6[1, 0] == -1.0 / omega
    assert tables.m6[1, 0] == pytest.approx(-0.015915494309189534, rel=1e-15)
    assert tables.m5[1, 1] == pytest.approx(1.0 / omega**2, rel=1e-13)


def test_derived_tables_are_exact_combinations(tables20):
    t = tables20
    assert np.array_equal(t.m2, t.m6 / 2.0)
    assert np.array_equal(t.m3, (t.m1 + t.m5) / 2.0)
    assert np.array_equal(t.m4, (t.m1 - t.m5) / 2.0)
    assert np.array_equal(t.m3 + t.m4, t.m1)


def test_all_tables_symmetric(tables20):
    for m in (tables20.m1, tables20.m2, tables20.m3, tables20.m4, tables20.m5, tables20.m6):
        assert np.array_equal(m, m.T)


def test_parity_zeros_hold_for_any_frequency():
    for freq in (Frequency.exact(20), Frequency.from_omega(12.0)):
        t = _quiet_tables(freq, 9)
        idx = np.add.outer(np.arange(10), np.arange(10))
        assert np.all(t.m5[idx % 2 == 1] == 0.0)
        assert np.all(t.m6[idx % 2 == 0] == 0.0)


def test_recursion_matches_oracle_at_exact_multiples():
    for k, n_max in ((10, 16), (20, 16), (40, 16)):
        freq = Frequency.exact(k)
        t = build_tables(freq, n_max)
        ref = oracle_tables(freq, n_max)
        for key in ("m2", "m3", "m4", "m5", "m6"):
            dev = np.max(np.abs(getattr(t, key) - ref[key]))
            assert dev <= 1e-10, f"{key} at 2pi*{k}: {dev:.3e}"


def test_recursion_matches_oracle_at_general_frequency():
    freq = Frequency.from_omega(12.0)
    t = build_tables(freq, 8)
    ref = oracle_tables(freq, 8)
    for key in ("m2", "m3", "m4", "m5", "m6"):
        assert np.max(np.abs(getattr(t, key) - ref[key])) <= 1e-10


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
    # the unit-mode Gram of degree MAX_DEGREE has 4096^2 = NODE_BUDGET entries
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
def test_structural_identities_hold_everywhere(omega_or_k, n_max):
    if isinstance(omega_or_k, int):
        freq = Frequency.exact(omega_or_k)
    else:
        freq = Frequency.from_omega(omega_or_k)
    t = _quiet_tables(freq, n_max)
    idx = np.add.outer(np.arange(n_max + 1), np.arange(n_max + 1))
    assert np.all(t.m5[idx % 2 == 1] == 0.0)
    assert np.all(t.m6[idx % 2 == 0] == 0.0)
    assert np.array_equal(t.m2, t.m6 / 2.0)
    assert np.array_equal(t.m3 + t.m4, t.m1)
    for m in (t.m5, t.m6):
        assert np.array_equal(m, m.T)
        assert np.max(np.abs(m)) <= 2.0


def test_verify_report_on_fresh_tables(tables20):
    report = verify_tables(tables20, 1e-10)
    assert report.passed
    assert report.flagged == []
    assert set(report.deviations) == {"m2", "m3", "m4", "m5", "m6"}
    assert max(report.deviations.values()) <= 1e-12


def test_verify_flags_corrupted_entry(tables20):
    import dataclasses

    m5 = tables20.m5.copy()
    m5[2, 3] += 1e-6
    m5[3, 2] += 1e-6
    bad = dataclasses.replace(tables20, m5=m5, m3=(tables20.m1 + m5) / 2.0)
    report = verify_tables(bad, 1e-10)
    assert not report.passed
    flagged = {(f["matrix"], f["j"], f["k"]) for f in report.as_dict()["flagged_entries"]}
    assert ("m5", 2, 3) in flagged


def test_verify_flags_nan_entry(tables20):
    import dataclasses

    m5 = tables20.m5.copy()
    m5[2, 3] = np.nan
    report = verify_tables(dataclasses.replace(tables20, m5=m5), 1e-10)
    assert not report.passed
    flagged = {(name, j, k) for name, j, k, _ in report.flagged}
    assert ("m5", 2, 3) in flagged


@pytest.mark.parametrize("tol", [float("inf"), float("nan"), -1.0])
def test_verify_refuses_tolerance_that_is_not_finite_and_non_negative(tables20, tol):
    with pytest.raises(ValueError, match=f"oracle_tolerance must be finite and >= 0, got {tol!r}"):
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
    assert set(report.deviations) == {"m2", "m3", "m4", "m5", "m6"}
    assert isinstance(report.passed, bool)


def test_json_round_trip_is_bit_exact(tables20, tmp_path):
    path = tmp_path / "tables.json"
    save_tables(tables20, path)
    loaded = load_tables(path)
    assert loaded.freq == tables20.freq
    assert loaded.n_max == tables20.n_max
    for key in ("m1", "m2", "m3", "m4", "m5", "m6"):
        assert np.array_equal(getattr(loaded, key), getattr(tables20, key))


def test_doc_round_trip(tables20):
    doc = to_doc(tables20)
    assert doc["schema_version"] == 1
    assert doc["omega"] == tables20.freq.omega
    back = from_doc(doc)
    assert np.array_equal(back.m6, tables20.m6)


def test_csv_export_round_trips(tables20, tmp_path):
    save_tables_csv(tables20, tmp_path / "t")
    for key in ("m1", "m2", "m3", "m4", "m5", "m6"):
        path = tmp_path / f"t_{key}.csv"
        assert path.exists()
        header = path.read_text().splitlines()[0]
        assert header.split(",")[0] == "k0"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(data, getattr(tables20, key))
