from itertools import islice

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oscbasis import Frequency
from oscbasis.legendre import (gauss_legendre_rule, legendre_rows, legendre_table,
                               legtrig_values)


def _p(n, x):
    """P_n at the points x, read off the table row."""
    return legendre_table(n, x)[n]


def _deriv_terms(j):
    """Reference re-expansion P_j' = sum (2m+1) P_m over m = j-1, j-3, ..."""
    return [(m, 2 * m + 1) for m in range(j - 1, -1, -2)]


def test_low_degree_values():
    x = np.array([0.37, -0.5, 0.5])
    assert np.array_equal(_p(0, x), [1.0, 1.0, 1.0])
    assert _p(1, x)[1] == -0.5
    assert _p(2, x)[2] == -0.125


def test_array_argument_matches_scalar():
    # a point evaluated alone gets the same bits as inside a batch
    x = np.linspace(-1.0, 1.0, 7)
    vals = _p(5, x)
    assert vals.shape == x.shape
    for xi, vi in zip(x, vals):
        assert _p(5, float(xi)) == [vi]


def test_table_stacks_all_degrees():
    x = np.linspace(-1.0, 1.0, 11)
    table = legendre_table(6, x)
    assert table.shape == (7, 11)
    for n in range(7):
        assert np.array_equal(table[: n + 1], legendre_table(n, x))
        ref = np.polynomial.legendre.legval(x, np.eye(7)[n])
        assert np.max(np.abs(table[n] - ref)) <= 1e-14


@given(
    st.integers(min_value=0, max_value=64),
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
)
def test_parity(n, x):
    # the recurrence is sign-symmetric term by term, so this holds exactly
    assert _p(n, -x) == (-1.0) ** n * _p(n, x)


@given(
    st.integers(min_value=0, max_value=64),
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
)
def test_bounded_on_interval(n, x):
    assert abs(_p(n, x)) <= 1.0 + 1e-12


def test_endpoint_values():
    table = legendre_table(19, np.array([1.0, -1.0]))
    for n in range(20):
        assert table[n, 0] == 1.0
        assert table[n, 1] == (-1.0) ** n


def test_orthogonality_against_quadrature():
    rule = gauss_legendre_rule(64)
    table = legendre_table(20, rule.nodes)
    gram = (table * rule.weights) @ table.T
    expected = np.diag(2.0 / (2.0 * np.arange(21) + 1.0))
    assert np.max(np.abs(gram - expected)) <= 1e-12


def test_derivative_expansion_terms():
    # the reference re-expansion against numpy's Legendre differentiation
    assert _deriv_terms(0) == []
    assert _deriv_terms(3) == [(2, 5), (0, 1)]
    for j in range(21):
        want = np.polynomial.legendre.legder(np.eye(21)[j])
        got = np.zeros(20)
        for m, coeff in _deriv_terms(j):
            got[m] = coeff
        assert np.array_equal(got[: want.size], want)
        assert not np.any(got[want.size:])


def test_derivative_expansion_against_finite_differences():
    x = np.linspace(-0.9, 0.9, 13)
    h = 1e-6
    for j in (1, 2, 5, 12, 20):
        table = legendre_table(j, x)
        exact = sum(coeff * table[m] for m, coeff in _deriv_terms(j))
        fd = (_p(j, x + h) - _p(j, x - h)) / (2.0 * h)
        assert np.max(np.abs(exact - fd)) <= 1e-4


def test_rule_smallest_sizes():
    r1 = gauss_legendre_rule(1)
    assert r1.nodes == pytest.approx([0.0])
    assert r1.weights == pytest.approx([2.0])
    r2 = gauss_legendre_rule(2)
    root = 1.0 / np.sqrt(3.0)
    assert r2.nodes == pytest.approx([-root, root], rel=1e-15)
    assert r2.weights == pytest.approx([1.0, 1.0], rel=1e-15)


def test_rule_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        gauss_legendre_rule(0)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 24, 48, 64])
def test_rule_shape_and_weights(n):
    rule = gauss_legendre_rule(n)
    assert len(rule) == n
    assert np.all(np.diff(rule.nodes) > 0.0) or n == 1
    assert np.all(rule.weights > 0.0)
    assert np.sum(rule.weights) == pytest.approx(2.0, abs=1e-14)
    # nodes are roots of P_n
    assert np.max(np.abs(_p(n, rule.nodes))) <= 1e-13


def test_rule_monomial_moments():
    # an n-point rule is exact through degree 2n-1
    rule = gauss_legendre_rule(16)
    powers = np.ones_like(rule.nodes)
    for m in range(32):
        exact = 2.0 / (m + 1.0) if m % 2 == 0 else 0.0
        assert np.sum(rule.weights * powers) == pytest.approx(exact, abs=1e-13)
        powers = powers * rule.nodes


@pytest.mark.parametrize("n", [5, 24, 64])
def test_rule_matches_reference_implementation(n):
    rule = gauss_legendre_rule(n)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(rule.nodes - ref_nodes)) <= 1e-13
    assert np.max(np.abs(rule.weights - ref_weights)) <= 1e-13


@pytest.mark.parametrize("x", [0.3, -0.77, 0.999, -1.0, 1.0, 0.0, 1e-300])
def test_table_for_0d_point_has_its_bits_inside_an_array(x):
    # a 0-d point runs the recurrence on floats, an array on arrays; each
    # degree gets the same bits either way
    xs = np.array([-0.5, x, 0.25, 0.6])
    table = legendre_table(80, np.array(x))
    assert table.shape == (81, 1)
    assert np.array_equal(table[:, 0], legendre_table(80, xs)[:, 1])


@pytest.mark.parametrize("size", [None, 1, 5, 2001], ids=["0d", "1", "5", "2001"])
def test_table_filled_in_place_matches_rows_drawn_one_by_one(size):
    # legendre_table writes each degree into its row of the table; drawn
    # from the generator alone, every degree is a new array (a Python float
    # for a 0-d point)
    x = np.array(0.3) if size is None else np.concatenate(
        [[-1.0, 1.0, 0.0], np.random.default_rng(size).uniform(-1.0, 1.0, size)])
    rows = list(islice(legendre_rows(x), 81))
    if size is None:
        assert all(type(p) is float for p in rows)
    table = legendre_table(80, x)
    assert table.shape == (81, x.size)
    assert np.array_equal(table, np.array(rows).reshape(table.shape))
    out = np.empty_like(table)
    filled = list(legendre_rows(x, out=out))
    assert len(filled) == 81 and all(np.shares_memory(p, out) for p in filled)
    assert np.array_equal(out, table)


@pytest.mark.parametrize("n", [321, 401])
def test_analysis_rule_sizes(n):
    # the sizes the projection's analysis rule takes (2 * max(160, N) + 1)
    rule = gauss_legendre_rule(n)
    x = rule.nodes
    table = legendre_table(n, x)
    # the Newton step P_n / P_n' that is left at each node
    dp = n * (x * table[n] - table[n - 1]) / (x * x - 1.0)
    assert np.max(np.abs(table[n] / dp)) <= 1e-15
    assert np.sum(rule.weights) == pytest.approx(2.0, abs=1e-14)
    # discrete orthogonality: W takes values at the nodes to Legendre
    # coefficients, so W @ P.T is the identity through degree n - 1; row l
    # is scaled by l + 1/2, and the largest error, 1.2e-13 at both sizes,
    # sits in the top rows
    P = table[:n]
    W = (np.arange(n)[:, None] + 0.5) * P * rule.weights
    assert np.max(np.abs(W @ P.T - np.eye(n))) <= 2e-13


def _coeffs(a, b):
    return np.asarray(a, dtype=float), np.asarray(b, dtype=float)


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
