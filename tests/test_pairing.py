
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscbasis import Frequency, build_tables
from oscbasis.legendre import legendre_table, legtrig_values
from oscbasis.oracle import member_gram
from oscbasis.tables import gram_matrix


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


def test_evaluate_matches_direct_sum():
    freq = Frequency.exact(4)
    f = _coeffs([0.5, -1.0, 0.25], [0.0, 2.0, 0.0])
    x = np.linspace(-1.0, 1.0, 9)
    P = legendre_table(2, x)
    direct = np.zeros_like(x)
    for j, (aj, bj) in enumerate(zip(*f)):
        direct += aj * P[j] * np.cos(freq.omega * x)
        direct += bj * P[j] * np.sin(freq.omega * x)
    vals = legtrig_values(*f, freq.omega, x)
    assert np.max(np.abs(vals - direct)) <= 1e-13
    scalar = legtrig_values(*f, freq.omega, float(x[3]))
    assert scalar == pytest.approx(direct[3], rel=1e-13, abs=1e-15)


def test_pure_cosine_norm_squared_at_exact_multiple(tables20):
    f = _coeffs([1.0], [0.0])
    assert _inner(f, f, tables20) == 1.0


def test_cross_term_is_half_sine_table(tables20):
    f = _coeffs([1.0], [0.0])
    g = _coeffs([0.0], [1.0])
    assert _inner(f, g, tables20) == tables20.m2[0, 0]


def test_degree_one_cross_entry_vanishes_at_exact_multiple(tables20):
    f = _coeffs([0.0, 1.0], [0.0, 0.0])
    g = _coeffs([1.0], [0.0])
    assert _inner(f, g, tables20) == 0.0


def test_inner_product_on_general_frequency_tables():
    tables = build_tables(Frequency.from_omega(12.0), 4)
    f = _coeffs([0.0, 1.0], [0.0, 0.0])
    g = _coeffs([0.0], [1.0])
    # <P1 cos, P0 sin> carries the cos(2 omega) weight, nonzero off multiples
    assert _inner(f, g, tables) == tables.m2[1, 0]
    assert tables.m2[1, 0] != 0.0


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


def test_norm_basics(tables20):
    # norms are the square roots of the Gram diagonal
    k = 3
    e = np.zeros(k + 1)
    e[k] = 1.0
    rows = [_coeffs([1.0], [0.0]), _coeffs([0.0, 0.0], [0.0, 0.0]),
            _coeffs(e, np.zeros(k + 1))]
    norms = np.sqrt(np.diag(gram_matrix(_pair(*rows), tables20)))
    assert norms[0] == 1.0
    assert norms[1] == 0.0
    assert norms[2] == pytest.approx(np.sqrt(tables20.m3[k, k]), rel=1e-15)
