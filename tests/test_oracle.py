import tracemalloc

import numpy as np
import pytest

from oscbasis import Frequency, build_basis, build_tables
from oscbasis.frequency import TWO_PI
from oscbasis.legendre import legendre_table
from oscbasis.oracle import (
    OracleConfig,
    composite_rule,
    cond_estimate,
    hilbert_limit,
    integrate,
    member_gram,
    monomial_gram,
    oracle_tables,
)
from oscbasis.pairing import legtrig_values


def test_config_validation_and_panel_count():
    cfg = OracleConfig()
    assert cfg.panels_per_period == 4
    assert cfg.points_per_panel == 24
    assert cfg.panel_count(TWO_PI * 20) == 160
    assert cfg.panel_count(0.5) == 8
    with pytest.raises(ValueError):
        OracleConfig(panels_per_period=0)
    with pytest.raises(ValueError):
        OracleConfig(points_per_panel=-1)


def test_composite_rule_refuses_rule_over_node_budget():
    with pytest.raises(ValueError, match=r"omega=1e\+308 needs inf nodes, "
                                         r"over the budget of 16777216"):
        composite_rule(1e308)


def test_composite_rule_returns_new_arrays_on_every_call():
    # a caller that scales a rule in place does not move the next one
    first = composite_rule(10.0)
    want = first.nodes.copy(), first.weights.copy()
    first.nodes[:] *= 0.5
    first.weights[:] *= 0.5
    again = composite_rule(10.0)
    assert np.array_equal(again.nodes, want[0])
    assert np.array_equal(again.weights, want[1])


def test_member_gram_matches_per_member_quadrature():
    # 2pi*50 gives 9600 nodes, so member_gram sums more than one node chunk
    freq = Frequency.exact(50)
    basis = build_basis(freq, 10, build_tables(freq, 11))
    rule = composite_rule(freq.omega)
    E = np.array([legtrig_values(basis.a[i, : i // 2 + 1], basis.b[i, : i // 2 + 1],
                                 freq.omega, rule.nodes)
                  for i in range(basis.a.shape[0])])
    want = (E * rule.weights) @ E.T
    got = member_gram(basis, freq.omega)
    assert rule.nodes.size > 4096
    assert np.max(np.abs(got - 0.5 * (want + want.T))) <= 1e-14
    assert np.array_equal(got, got.T)


def test_composite_rule_covers_interval():
    freq = Frequency.exact(20)
    rule = composite_rule(freq.omega)
    assert len(rule) == 160 * 24
    assert np.all(np.diff(rule.nodes) > 0.0)
    assert rule.nodes[0] > -1.0 and rule.nodes[-1] < 1.0
    assert np.sum(rule.weights) == pytest.approx(2.0, rel=1e-14)


def test_integrate_constant():
    freq = Frequency.exact(20)
    assert integrate(lambda x: np.ones_like(x), freq) == pytest.approx(2.0, rel=1e-14)


def test_integrate_squared_cosine():
    freq = Frequency.exact(20)
    val = integrate(lambda x: np.cos(freq.omega * x) ** 2, freq)
    assert val == pytest.approx(1.0, abs=1e-13)


def test_integrate_resolves_double_frequency():
    freq = Frequency.exact(20)
    val = integrate(lambda x: x * np.sin(2.0 * freq.omega * x), freq)
    assert val == pytest.approx(-1.0 / freq.omega, rel=1e-12)


def test_integrate_rejects_non_finite_samples():
    freq = Frequency.exact(2)
    with pytest.raises(ValueError, match="non-finite"):
        integrate(lambda x: np.where(np.abs(x) < 0.5, np.nan, 1.0), freq)


def test_integrate_broadcasts_a_scalar_and_refuses_a_wrong_shape():
    freq = Frequency.exact(2)
    assert integrate(lambda x: 2.0, freq) == integrate(
        lambda x: np.full_like(x, 2.0), freq)
    with pytest.raises(ValueError, match=r"returned shape \(3,\), which does "
                                         r"not broadcast"):
        integrate(lambda x: np.ones(3), freq)


def test_oracle_entry_known_values():
    freq = Frequency.exact(10)
    t = oracle_tables(freq, 1)
    assert t["m6"][1, 0] == pytest.approx(-1.0 / freq.omega, rel=1e-12)
    assert t["m3"][0, 0] == pytest.approx(1.0, rel=1e-12)
    assert t["m5"][0, 1] == pytest.approx(t["m5"][1, 0], abs=1e-15)


def test_oracle_tables_consistent_under_refinement():
    # doubling the points per panel moves nothing at the tolerance of interest
    freq = Frequency.exact(50)
    coarse = oracle_tables(freq, 16)
    fine = oracle_tables(freq, 16, OracleConfig(points_per_panel=48))
    for key in ("m2", "m3", "m4", "m5", "m6"):
        assert np.max(np.abs(coarse[key] - fine[key])) <= 1e-12


def _five_products(freq, n_max):
    """M2 ... M6 as five weighted products over the whole rule, each with
    its own integrand: the form oracle_tables had before the chunked Gram."""
    rule = composite_rule(freq.omega)
    x, w = rule.nodes, rule.weights
    P = legendre_table(n_max, x)
    Pc, Ps = P * np.cos(freq.omega * x), P * np.sin(freq.omega * x)
    return {
        "m2": (Pc * w) @ Ps.T,
        "m3": (Pc * w) @ Pc.T,
        "m4": (Ps * w) @ Ps.T,
        "m5": (P * (w * np.cos(2.0 * freq.omega * x))) @ P.T,
        "m6": (P * (w * np.sin(2.0 * freq.omega * x))) @ P.T,
    }


@pytest.mark.parametrize("freq, n_max", [
    (Frequency.exact(20), 8),
    (Frequency.exact(100), 60),
    (Frequency.from_omega(200.3), 30),
])
def test_oracle_tables_match_five_products(freq, n_max):
    got, want = oracle_tables(freq, n_max), _five_products(freq, n_max)
    for key in ("m2", "m3", "m4", "m5", "m6"):
        assert got[key].shape == (n_max + 1, n_max + 1)
        assert np.max(np.abs(got[key] - want[key])) <= 1e-14


def test_oracle_tables_memory_does_not_grow_with_omega():
    # 2pi*400 has four times the nodes of 2pi*100; both span several chunks.
    # The rule, built inside each call, is the one part that grows with
    # omega: 16 bytes a node, 1.2 MB at 2pi*400
    def peak(k):
        freq = Frequency.exact(k)
        tracemalloc.start()
        try:
            oracle_tables(freq, 60)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(400) <= 1.25 * peak(100)


def test_monomial_gram_low_order_entries():
    freq = Frequency.exact(20)
    H = monomial_gram(freq, 3)
    assert H.shape == (4, 4)
    assert np.array_equal(H, H.T)
    assert H[0, 0] == pytest.approx(1.0, abs=1e-13)
    # odd total power pairs an even with an odd function
    assert H[0, 1] == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        monomial_gram(freq, -1)


def test_hilbert_limit_entries():
    L = hilbert_limit(2)
    assert L.shape == (3, 3)
    assert L[0, 0] == 1.0
    assert L[0, 1] == 0.0
    assert L[1, 1] == 1.0 / 3.0
    for i in range(3):
        for j in range(3):
            assert L[i, j] == (1.0 + (-1.0) ** (i + j)) / (2.0 * (i + j + 1.0))


def test_monomial_gram_approaches_hilbert_limit():
    limit = hilbert_limit(5)
    devs = []
    for k in (10, 100, 1000):
        H = monomial_gram(Frequency.exact(k), 5)
        devs.append(np.max(np.abs(H - limit)))
    assert devs[0] >= devs[1] >= devs[2]
    assert devs[-1] <= 1e-2


def test_cond_estimate_simple_matrices():
    assert cond_estimate(np.eye(5)) == pytest.approx(1.0, rel=1e-10)
    assert cond_estimate(np.diag([1.0, 1e-8])) == pytest.approx(1e8, rel=1e-6)
    assert cond_estimate(np.array([[3.0]])) == 1.0
    assert cond_estimate(np.array([[0.0]])) == np.inf


def test_cond_estimate_tracks_dense_spectra():
    # within a factor of 2 of the factored reference on small dense instances
    rng = np.random.default_rng(7)
    for n in (3, 6, 10):
        A = rng.standard_normal((n, n))
        S = A @ A.T + 1e-6 * np.eye(n)
        ref = np.linalg.cond(S)
        est = cond_estimate(S)
        assert ref / 2.0 <= est <= ref * 2.0
    L = hilbert_limit(10)
    assert cond_estimate(L) == pytest.approx(np.linalg.cond(L), rel=1e-6)


def test_monomial_gram_parity_split_and_limit_conditioning():
    # odd i+j entries pair an even with an odd integrand and vanish, so the
    # Gram splits into even and odd Hankel blocks; 2pi*50 gives 9600 nodes,
    # so the Gram sums more than one node chunk and must stay symmetric
    H = monomial_gram(Frequency.exact(50), 10)
    assert np.array_equal(H, H.T)
    i = np.arange(11)
    odd = (i[:, None] + i[None, :]) % 2 == 1
    assert np.max(np.abs(H[odd])) <= 1e-12

    # cond(hilbert_limit(10)) against a 50-digit eigenvalue reference
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        L = mpmath.zeros(11, 11)
        for a in range(11):
            for b in range(11):
                if (a + b) % 2 == 0:
                    L[a, b] = mpmath.mpf(1) / (a + b + 1)
        eigs = mpmath.eigsy(L, eigvals_only=True)
        ref = float(max(eigs) / min(eigs))
    assert ref == pytest.approx(9.44308e6, rel=1e-6)
    assert cond_estimate(hilbert_limit(10)) == pytest.approx(ref, rel=1e-6)


def test_cond_estimate_rejects_bad_input():
    with pytest.raises(ValueError):
        cond_estimate(np.array([[1.0, 2.0], [3.0, 4.0]]))
    with pytest.raises(ValueError):
        cond_estimate(np.ones((2, 3)))


def test_legtrig_units_stay_well_conditioned():
    # normalized single-mode rows at a frequency well above the degree
    from oscbasis import build_tables
    from oscbasis.pairing import gram_matrix

    freq = Frequency.exact(50)
    tables = build_tables(freq, 10)
    A, B = np.zeros((2, 22, 11))
    A[0::2] = np.diag(1.0 / np.sqrt(np.diag(tables.m3)))
    B[1::2] = np.diag(1.0 / np.sqrt(np.diag(tables.m4)))
    G = gram_matrix((A, B), tables)
    assert cond_estimate(G) <= 10.0
