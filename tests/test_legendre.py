import math
import sys
import threading
import warnings
from itertools import islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscbasis import Frequency, evaluate_expansion, project
from oscbasis import legendre
from oscbasis.approx import ENVELOPES, OscTarget
from oscbasis.legendre import (KEPT_ENTRIES, gauss_legendre_rule, legendre_rows,
                               legendre_table, legtrig_values)


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


def _fresh(a, b, omega, x):
    """legtrig_values at two or more points on a table built for this call
    alone: the evaluation without a kept table."""
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    P = legendre_table(a.shape[-1] - 1, flat)
    return ((a @ P) * np.cos(omega * flat)
            + (b @ P) * np.sin(omega * flat)).reshape(a.shape[:-1] + x.shape)


def _same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


class _Builds(list):
    """The (n_max, points) of every legendre_table call made inside it,
    starting from no kept table."""

    def __enter__(self):
        def counting(n_max, x):
            self.append((n_max, np.size(x)))
            return legendre_table(n_max, x)
        self._patches = [mock.patch.object(legendre, "legendre_table", counting),
                         mock.patch.object(legendre, "_kept", (None, None))]
        for patch in self._patches:
            patch.start()
        return self

    def __exit__(self, *exc):
        for patch in reversed(self._patches):
            patch.stop()


def _pairs(rng, rows, degree):
    shape = (rows, degree + 1) if rows else (degree + 1,)
    return rng.standard_normal(shape), rng.standard_normal(shape)


def test_kept_table_gives_the_bits_of_a_fresh_one():
    rng = np.random.default_rng(7)
    omega = Frequency.exact(20).omega
    grid = np.linspace(-1.0, 1.0, 2001)
    with _Builds() as builds:
        for rows in (0, 26, 0, 26):
            a, b = _pairs(rng, rows, 12)
            assert _same_bits(legtrig_values(a, b, omega, grid),
                              _fresh(a, b, omega, grid))
        assert builds == [(12, 2001)]
        kept = legendre._kept[1]
        assert not kept.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            kept[0, 0] = 2.0


def test_two_expansions_on_one_grid_build_one_table(freq20, basis20):
    grid = np.linspace(-1.0, 1.0, 2001)
    exps = [project(OscTarget(ENVELOPES[f], ENVELOPES[g], freq20.omega), basis20)
            for f, g in (("exp", "runge"), ("cos1", "x^2"))]
    with _Builds() as builds:
        values = [evaluate_expansion(exp, basis20, grid) for exp in exps]
    assert builds == [(basis20.n_max, grid.size)]
    for exp, got in zip(exps, values):
        a, b = exp.coeffs @ basis20.a, exp.coeffs @ basis20.b
        assert _same_bits(got, _fresh(a, b, freq20.omega, grid))


def test_grid_changed_in_place_gets_a_fresh_table():
    a, b = _pairs(np.random.default_rng(8), 0, 9)
    omega = Frequency.exact(30).omega
    grid = np.linspace(-1.0, 1.0, 301)
    with _Builds() as builds:
        legtrig_values(a, b, omega, grid)
        grid[150] = 0.123
        assert _same_bits(legtrig_values(a, b, omega, grid),
                          _fresh(a, b, omega, grid))
    assert builds == [(9, 301), (9, 301)]


def test_higher_degree_rebuilds_and_lower_reuses_rows():
    rng = np.random.default_rng(9)
    omega = Frequency.exact(20).omega
    grid = rng.uniform(-1.0, 1.0, 500)
    with _Builds() as builds:
        for degree in (5, 3, 0, 8, 5, 8):
            a, b = _pairs(rng, 3, degree)
            assert _same_bits(legtrig_values(a, b, omega, grid),
                              _fresh(a, b, omega, grid))
    assert builds == [(5, 500), (8, 500)]


@pytest.mark.parametrize("over", [False, True], ids=["at_bound", "over_bound"])
def test_table_over_the_bound_is_not_kept(over):
    # two rows of KEPT_ENTRIES / 2 points are kept, one point more is not
    points = KEPT_ENTRIES // 2 + over
    a, b = np.array([0.5, -1.5]), np.array([2.0, 0.25])
    grid = np.linspace(-1.0, 1.0, points)
    with _Builds() as builds:
        first = legtrig_values(a, b, 3.0, grid)
        assert _same_bits(legtrig_values(a, b, 3.0, grid), first)
    assert builds == [(1, points)] * (1 + over)


def test_two_grids_in_turn_both_stay_right():
    rng = np.random.default_rng(10)
    omega = Frequency.exact(50).omega
    grids = np.linspace(-1.0, 1.0, 2001), rng.uniform(-1.0, 1.0, 37)
    with _Builds() as builds:
        for turn in range(6):
            grid = grids[turn % 2]
            a, b = _pairs(rng, turn % 3, 12)
            assert _same_bits(legtrig_values(a, b, omega, grid),
                              _fresh(a, b, omega, grid))
    # one table is kept, so each change of grid builds
    assert [size for _, size in builds] == [2001, 37] * 3


@settings(max_examples=80, deadline=None)
@given(points=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=2,
                       max_size=40),
       degrees=st.lists(st.integers(0, 30), min_size=1, max_size=6),
       rows=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1),
       change=st.booleans())
def test_kept_table_matches_fresh_builds(points, degrees, rows, seed, change):
    # whatever degrees follow each other on one point set, or on a copy of
    # it changed in one place, every value has the bits of a fresh build,
    # and a table is built only when the degree passes the largest so far
    rng = np.random.default_rng(seed)
    x = np.array(points)
    with _Builds() as builds:
        top = -1
        for i, degree in enumerate(degrees):
            if change and i == len(degrees) // 2:
                x = x.copy()
                x[0] = -x[0] if x[0] != 0.0 else 0.5
                top = -1
            a, b = _pairs(rng, rows, degree)
            assert _same_bits(legtrig_values(a, b, 7.5, x), _fresh(a, b, 7.5, x))
            if degree > top:
                assert builds.pop() == (degree, x.size)
                top = degree
            assert not builds


def test_threads_sharing_the_kept_table_each_get_their_own_values():
    # the kept (key, table) pair is replaced whole, so a thread never reads
    # one point set's key with another's table, nor too few rows; five
    # threads on three point sets, two of them at two degrees each
    rng = np.random.default_rng(12)
    omega = Frequency.exact(20).omega
    grids = [rng.uniform(-1.0, 1.0, size) for size in (50, 50, 300)]
    jobs = []
    for grid, degree in zip([*grids, grids[0], grids[2]], (12, 12, 20, 4, 8)):
        a, b = _pairs(rng, 0, degree)
        jobs.append((a, b, grid, _fresh(a, b, omega, grid)))
    finished = []

    def work(a, b, grid, want):
        # a wrong value stops the thread, and so does an exception
        for _ in range(300):
            if not _same_bits(legtrig_values(a, b, omega, grid), want):
                return
        finished.append(grid.size)

    threads = [threading.Thread(target=work, args=job) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(finished) == len(jobs)


def _degree_order_sum(a, b, omega, x):
    """The one-point value as a fixed-order float sum: degree 0 first."""
    p = legendre_table(len(a) - 1, np.array([x]))[:, 0].tolist()
    sa = sb = 0.0
    for j in range(len(a)):
        sa += a[j] * p[j]
        sb += b[j] * p[j]
    return sa * math.cos(omega * x) + sb * math.sin(omega * x)


@pytest.mark.parametrize("x", [0.3, -0.77, 0.999, 1.0, -1.0, 0.0, -0.0, 1e-300])
def test_one_point_is_a_degree_order_float_sum(x):
    rng = np.random.default_rng(11)
    omega = Frequency.exact(20).omega
    for degree in (0, 1, 12, 40):
        a, b = (v.tolist() for v in _pairs(rng, 0, degree))
        want = _degree_order_sum(a, b, omega, x)
        a, b = np.array(a), np.array(b)
        got = legtrig_values(a, b, omega, x)
        assert type(got) is float and got == want
        for shape in ((1,), (1, 1)):
            arr = legtrig_values(a, b, omega, np.full(shape, x))
            assert arr.shape == shape and arr.item() == want


@pytest.mark.parametrize("x", [np.inf, -np.inf], ids=["inf", "-inf"])
def test_one_point_at_infinity_warns_as_numpy_does(x):
    a, b = np.array([1.0, 0.5, 0.25]), np.array([0.0, 2.0, 0.0])
    for point in (x, np.array([[x]])):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = legtrig_values(a, b, 3.0, point)
        assert {(w.category, str(w.message)) for w in caught} == {
            (RuntimeWarning, f"invalid value encountered in {name}")
            for name in ("cos", "sin")}
        assert np.shape(got) == np.shape(point) and np.isnan(got)


def test_one_point_at_nan_gives_nan_without_a_warning():
    a, b = np.array([1.0, 0.5, 0.25]), np.array([0.0, 2.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(legtrig_values(a, b, 3.0, math.nan))
        got = legtrig_values(a, b, 3.0, np.full((1, 1), math.nan))
    assert got.shape == (1, 1) and np.isnan(got).all()
