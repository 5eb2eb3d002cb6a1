import copy
import warnings

import numpy as np
import pytest

from oscbasis import (
    BasisDegenerationError,
    Frequency,
    StabilityWarning,
    build_basis,
    build_tables,
    evaluate_member,
    load_basis,
    monic_norm_profile,
    save_basis,
    save_tables,
)
from oscbasis.basis import member_values, representation_matrix
from oscbasis.documents import from_doc, save_basis_csv, to_doc
from oscbasis.oracle import member_gram
from oscbasis.pairing import LegTrigCoeffs, gram_matrix, inner_product


def _build_quiet(freq, n_max, tables, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        return build_basis(freq, n_max, tables, **kw)


def test_seed_pair_is_normalized_trig(freq20, tables20, basis20):
    p0, q0 = basis20.rep[0], basis20.rep[1]
    # at an exact multiple ||cos|| = ||sin|| = 1 already
    assert basis20.norms[0] == 1.0
    assert basis20.norms[1] == 1.0
    assert p0.a[0] == 1.0 and p0.b[0] == 0.0
    assert q0.a[0] == 0.0 and q0.b[0] == 1.0


def test_first_quotient_has_closed_form(freq20, basis20):
    # <x cos, sin> = -1/(2 omega) when sin(2 omega) = 0
    assert basis20.rec[0].alpha == pytest.approx(-1.0 / (2.0 * freq20.omega), rel=1e-13)
    assert basis20.rec[0].beta == 0.0
    assert basis20.rec[0].delta == 0.0


def test_monic_p1_picks_up_sine_correction(freq20, basis20):
    monic_b0 = basis20.norms[2] * basis20.rep[2].b[0]
    assert monic_b0 == pytest.approx(1.0 / (2.0 * freq20.omega), rel=1e-12)


def test_seed_orthogonality_at_general_frequency():
    freq = Frequency.from_omega(12.0)
    tables = build_tables(freq, 1)
    basis = build_basis(freq, 0, tables)
    assert inner_product(basis.rep[0], basis.rep[1], tables) == 0.0
    for i in (0, 1):
        nsq = inner_product(basis.rep[i], basis.rep[i], tables)
        assert nsq == pytest.approx(1.0, rel=1e-14)


def test_gram_is_identity_under_table_form(basis20, tables20):
    G = gram_matrix(basis20.rep, tables20)
    assert np.max(np.abs(G - np.eye(26))) <= 1e-10


@pytest.mark.parametrize("k", [10, 20, 50])
def test_orthonormality_against_quadrature(k):
    freq = Frequency.exact(k)
    tables = build_tables(freq, 13)
    basis = _build_quiet(freq, 12, tables)
    G = member_gram(basis.rep, freq.omega)
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
        p, q = basis20.rep[2 * k], basis20.rep[2 * k + 1]
        for j in range(p.a.size):
            if j % 2 != k % 2:
                assert p.a[j] == 0.0
                assert q.b[j] == 0.0
            else:
                assert p.b[j] == 0.0
                assert q.a[j] == 0.0


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
        step = basis20.rec[k]
        p_k, q_k = basis20.rep[2 * k], basis20.rep[2 * k + 1]
        p_prev = basis20.rep[2 * k - 2]
        want = basis20.norms[2 * k + 2]
        got = basis20.rep[2 * k + 2]
        for part in ("a", "b"):
            raw = _times_x(getattr(p_k, part))
            raw[: k + 1] -= step.alpha * getattr(q_k, part)
            raw[:k] -= step.beta * getattr(p_prev, part)
            assert raw.size == getattr(got, part).size
            assert np.max(np.abs(raw - want * getattr(got, part))) <= 1e-12


def test_recurrence_quotients_are_table_inner_products(basis20, tables20):
    for k in range(1, basis20.n_max):
        step = basis20.rec[k]
        p_prev, p_k, q_k = (basis20.rep[i] for i in (2 * k - 2, 2 * k, 2 * k + 1))
        xp = LegTrigCoeffs(_times_x(p_k.a), _times_x(p_k.b))
        alpha = inner_product(xp, q_k, tables20) / inner_product(q_k, q_k, tables20)
        beta = inner_product(xp, p_prev, tables20) / inner_product(p_prev, p_prev, tables20)
        assert step.alpha == pytest.approx(alpha, rel=1e-12, abs=1e-14)
        assert step.beta == pytest.approx(beta, rel=1e-12, abs=1e-14)


def test_reorthogonalization_tightens_marginal_gram():
    freq = Frequency.exact(10)
    tables = build_tables(freq, 13)
    plain = _build_quiet(freq, 12, tables)
    tight = _build_quiet(freq, 12, tables, reorthogonalize=True)
    G_plain = gram_matrix(plain.rep, tables)
    G_tight = gram_matrix(tight.rep, tables)
    dev_plain = np.max(np.abs(G_plain - np.eye(26)))
    dev_tight = np.max(np.abs(G_tight - np.eye(26)))
    assert dev_tight <= dev_plain + 1e-14


def test_degeneration_raises_with_context():
    freq = Frequency.exact(3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        tables = build_tables(freq, 25)
        with pytest.raises(BasisDegenerationError, match="member"):
            build_basis(freq, 24, tables)


def test_degeneration_check_refuses_nan_norm(freq20, tables20):
    tables = copy.deepcopy(tables20)
    tables.m3[2, 2] = np.nan
    with pytest.raises(BasisDegenerationError, match="norm\\^2 = nan"):
        build_basis(freq20, 4, tables)


def test_boundary_build_warns_but_succeeds():
    freq = Frequency.exact(5)
    tables = build_tables(freq, 25)
    with pytest.warns(StabilityWarning):
        basis = build_basis(freq, 24, tables)
    assert len(basis.rep) == 50


def test_no_warning_when_frequency_dominates_degree(freq20, tables20):
    with warnings.catch_warnings():
        warnings.simplefilter("error", StabilityWarning)
        build_basis(freq20, 12, tables20)


def test_build_rejects_bad_inputs(freq20, tables20):
    with pytest.raises(ValueError, match="n_max"):
        build_basis(freq20, -1, tables20)
    with pytest.raises(ValueError, match="n_max >= 18"):
        build_basis(freq20, 17, tables20)
    with pytest.raises(ValueError, match="mismatch"):
        build_basis(Frequency.exact(21), 4, tables20)


def test_member_evaluation(freq20, basis20):
    assert evaluate_member(basis20, 0, 0.0) == 1.0
    assert evaluate_member(basis20, 1, 0.0) == 0.0
    assert evaluate_member(basis20, 2, 0.0) == 0.0
    x = np.linspace(-1.0, 1.0, 5)
    vals = member_values(basis20, x)
    assert vals.shape == (26, 5)
    assert vals[3, 2] == pytest.approx(evaluate_member(basis20, 3, 0.0), rel=1e-14, abs=1e-15)
    with pytest.raises(IndexError):
        evaluate_member(basis20, 26, 0.0)


def test_basis_arrays_stand_in_for_member_list(basis20, tables20):
    omega = basis20.freq.omega
    assert np.array_equal(gram_matrix(basis20, tables20),
                          gram_matrix(basis20.rep, tables20))
    assert np.array_equal(member_gram(basis20, omega), member_gram(basis20.rep, omega))
    x = np.linspace(-1.0, 1.0, 7)
    for i, member in enumerate(basis20.rep):
        assert np.array_equal(evaluate_member(basis20, i, x), member.evaluate(omega, x))
        assert evaluate_member(basis20, i, 0.3) == member.evaluate(omega, 0.3)


def test_monic_norms_decrease(freq20, tables20):
    profile = monic_norm_profile(freq20, 10, tables20)
    assert profile[0] == 1.0
    assert np.all(np.diff(profile) < 0.0)
    with pytest.raises(ValueError):
        monic_norm_profile(freq20, -1, tables20)


def test_monic_norms_past_member_44():
    # the monic norms fall below the degeneration threshold near k = 44,
    # but they are products of normalized-run norms, which do not
    freq = Frequency.exact(100)
    tables = build_tables(freq, 61)
    profile = monic_norm_profile(freq, 60, tables)
    assert profile.shape == (61,)
    assert np.all(profile > 0.0)
    assert np.all(np.diff(profile) < 0.0)
    assert np.array_equal(profile,
                          np.cumprod(build_basis(freq, 60, tables).norms[0::2]))


def test_monic_norms_refuse_tables_at_another_frequency():
    tables = build_tables(Frequency.exact(50), 11)
    with pytest.raises(ValueError, match=r"omega=125\.66.*omega=314\.15"):
        monic_norm_profile(Frequency.exact(20), 10, tables)


def test_serialization_round_trip(basis20, tmp_path):
    path = tmp_path / "basis.json"
    save_basis(basis20, path)
    loaded = load_basis(path)
    assert loaded.freq == basis20.freq
    assert loaded.n_max == basis20.n_max
    assert np.array_equal(loaded.norms, basis20.norms)
    for got, want in zip(loaded.rep, basis20.rep):
        assert np.array_equal(got.a, want.a)
        assert np.array_equal(got.b, want.b)
    assert loaded.rec == basis20.rec
    assert loaded.content_hash() == basis20.content_hash()


def test_load_basis_refuses_tables_file(tables20, tmp_path):
    path = save_tables(tables20, tmp_path / "tables.json")
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
    assert B[0, 0] == basis20.rep[0].a[0]
    assert B[1, 1] == basis20.rep[1].b[0]
    # degree bound: pair k only reaches Legendre degree k
    for i, row in enumerate(basis20.rep):
        k = i // 2
        assert np.all(B[i, 2 * (k + 1):] == 0.0)


def test_csv_export_round_trips(basis20, tmp_path):
    path = save_basis_csv(basis20, tmp_path / "basis.csv")
    header = path.read_text().splitlines()[0]
    assert header.startswith("c0,")
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(data, representation_matrix(basis20))
