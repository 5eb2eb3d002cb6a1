import math
import pickle
import warnings
from dataclasses import replace
from functools import lru_cache, partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscbasis import (
    ENVELOPES,
    Expansion,
    Frequency,
    OscTarget,
    build_basis,
    build_tables,
    evaluate_expansion,
    evaluate_member,
    load_basis,
    load_expansion,
    project,
    reduce_frequency,
    residual_norm,
    save_basis,
    save_expansion,
)
from oscbasis.approx import (ENVELOPE_DEGREE, _analysis, _filon_weights,
                             _spherical_bessel, plain_legendre_residuals)
from oscbasis.basis import OscBasis, member_values
from oscbasis.frequency import TWO_PI, StabilityWarning
from oscbasis.legendre import gauss_legendre_rule, legendre_table
from oscbasis.oracle import OracleConfig, composite_rule, integrate, oracle_tables
from oscbasis.pairing import gram_matrix, legtrig_values


def _target(f_name, g_name, omega):
    return OscTarget(f_env=ENVELOPES[f_name], g_env=ENVELOPES[g_name], freq_raw=omega)


def test_envelope_catalog():
    for name in ("one", "zero", "x", "x^2", "exp", "cos1", "runge"):
        env = ENVELOPES[name]
        vals = env(np.array([0.0, 0.5, 1.0]))
        assert vals.shape == (3,)
    assert ENVELOPES["runge"](1.0) == pytest.approx(1.0 / 26.0)
    assert ENVELOPES["zero"](np.ones(4)).tolist() == [0.0] * 4


def test_target_validation_and_evaluation():
    with pytest.raises(ValueError):
        OscTarget(f_env=ENVELOPES["one"], g_env=ENVELOPES["one"], freq_raw=-3.0)
    t = _target("x", "one", 10.0)
    assert t.evaluate(0.0) == 1.0
    xs = np.linspace(-1, 1, 5)
    vals = t.evaluate(xs)
    assert vals == pytest.approx(xs * np.sin(10 * xs) + np.cos(10 * xs), rel=1e-15)


def test_reduction_passes_exact_multiples_through():
    t = _target("exp", "one", TWO_PI * 7)
    freq, reduced = reduce_frequency(t)
    assert freq.exact_multiple and freq.k == 7
    assert reduced is t


def test_reduction_rejects_low_frequency():
    with pytest.raises(ValueError):
        reduce_frequency(_target("one", "one", 3.0))


def test_reduction_decomposes_toward_nearest_multiple():
    t = _target("one", "zero", TWO_PI * 10 - 0.25)
    freq, reduced = reduce_frequency(t)
    assert freq.k == 10
    assert freq.epsilon == 0.0
    assert reduced is t


def _closure_reduced(target):
    """The target rewritten at the nearest 2 pi k by two closures over its
    envelopes, each evaluating f, g, cos(eps x) and sin(eps x): what project
    must agree with bit for bit when it rotates its own samples instead."""
    decomp = Frequency.from_omega(target.freq_raw)
    if decomp.exact_multiple:
        return target
    eps, f, g = decomp.epsilon, target.f_env, target.g_env

    def f_hat(x):
        xa = np.asarray(x, dtype=float)
        return np.asarray(f(xa), dtype=float) * np.cos(eps * xa) \
            - np.asarray(g(xa), dtype=float) * np.sin(eps * xa)

    def g_hat(x):
        xa = np.asarray(x, dtype=float)
        return np.asarray(f(xa), dtype=float) * np.sin(eps * xa) \
            + np.asarray(g(xa), dtype=float) * np.cos(eps * xa)

    return OscTarget(f_env=f_hat, g_env=g_hat, freq_raw=TWO_PI * decomp.k)


def test_reduction_is_pointwise_identity():
    # the returned target is the raw one; the rotation project applies to
    # its samples reproduces it at the nearest 2 pi k
    omega_raw = TWO_PI * 3 + 0.5
    t = _target("exp", "cos1", omega_raw)
    freq, reduced = reduce_frequency(t)
    assert freq.k == 3
    xs = np.linspace(-1.0, 1.0, 101)
    for rewritten in (reduced, _closure_reduced(t)):
        assert np.max(np.abs(rewritten.evaluate(xs) - t.evaluate(xs))) <= 1e-13


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=3.2, max_value=400.0, allow_nan=False))
def test_reduction_identity_property(omega_raw):
    # desk-scale frequencies; phase rounding grows linearly with omega
    t = _target("exp", "cos1", omega_raw)
    _, reduced = reduce_frequency(t)
    xs = np.linspace(-1.0, 1.0, 41)
    scale = np.max(np.abs(t.evaluate(xs))) + 1.0
    for rewritten in (reduced, _closure_reduced(t)):
        assert np.max(np.abs(rewritten.evaluate(xs) - t.evaluate(xs))) \
            <= 1e-13 * scale


@lru_cache(maxsize=None)
def _small_basis(k):
    freq = Frequency.exact(k)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        return build_basis(freq, 4, build_tables(freq, 5))


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=3.2, max_value=400.0, allow_nan=False))
def test_raw_target_projects_with_the_bits_of_closure_reduction(omega_raw):
    # desk-scale frequencies, on the basis at the k reduce_frequency names
    t = _target("exp", "cos1", omega_raw)
    freq, _ = reduce_frequency(t)
    basis = _small_basis(freq.k)
    closure = _closure_reduced(t)
    exp, want = project(t, basis), project(closure, basis)
    assert np.array_equal(exp.coeffs, want.coeffs)
    assert residual_norm(t, exp, basis) == residual_norm(closure, want, basis)
    # fresh samples, not the reused ones, agree as well
    assert residual_norm(replace(t), exp, basis) \
        == residual_norm(replace(closure), want, basis)


def test_projection_of_pure_cosine_hits_first_row(freq20, basis20):
    exp = project(_target("zero", "one", freq20.omega), basis20)
    assert exp.coeffs[0] == pytest.approx(1.0, rel=1e-12)
    assert np.max(np.abs(exp.coeffs[1:])) <= 1e-12


def test_projection_of_zero_target_is_zero(freq20, basis20):
    exp = project(_target("zero", "zero", freq20.omega), basis20)
    assert np.all(exp.coeffs == 0.0)


def test_projection_accepts_offsets_within_pi_and_refuses_beyond(basis20):
    for offset in (3.0, -3.0, 0.3):
        t = _target("exp", "runge", TWO_PI * 20 + offset)
        assert np.array_equal(project(t, basis20).coeffs,
                              project(_closure_reduced(t), basis20).coeffs)
    for offset in (3.2, -3.2, TWO_PI):
        with pytest.raises(ValueError, match="is more than pi from basis "
                                             "frequency"):
            project(_target("one", "one", TWO_PI * 20 + offset), basis20)


def test_scalar_envelope_is_sampled_once_and_broadcast(freq20, basis20):
    calls = []

    def two(x):
        calls.append(x)
        return 2.0

    omega = freq20.omega + 0.3
    exp = project(OscTarget(f_env=two, g_env=ENVELOPES["exp"], freq_raw=omega),
                  basis20)
    assert len(calls) == 1
    full = OscTarget(f_env=lambda x: np.full_like(x, 2.0),
                     g_env=ENVELOPES["exp"], freq_raw=omega)
    assert np.array_equal(exp.coeffs, project(full, basis20).coeffs)


def test_in_span_targets_reproduce_exactly(freq20, basis20):
    # x cos(wx) lies in the span of the first two pairs
    exp = project(_target("zero", "x", freq20.omega), basis20)
    assert residual_norm(_target("zero", "x", freq20.omega), exp, basis20) <= 1e-9


def test_smooth_envelope_converges_fast(freq20, basis20):
    t = _target("exp", "one", freq20.omega)
    exp = project(t, basis20)
    assert residual_norm(t, exp, basis20) <= 1e-8
    # Parseval: captured energy never exceeds the total
    total = integrate(lambda x: t.evaluate(x) ** 2, freq20)
    assert np.sum(exp.coeffs**2) <= total + 1e-9


def test_expansion_evaluation_round_trip(freq20, basis20):
    t = _target("zero", "one", freq20.omega)
    exp = project(t, basis20)
    assert evaluate_expansion(exp, basis20, 0.37) == pytest.approx(
        np.cos(freq20.omega * 0.37), abs=1e-9
    )
    xs = np.linspace(-1, 1, 11)
    vals = evaluate_expansion(exp, basis20, xs)
    assert vals == pytest.approx(np.cos(freq20.omega * xs), abs=1e-9)


@pytest.mark.parametrize("x", [[0.1, 0.2], (0.1, -0.7), [[0.1], [0.2]],
                               0.3, np.float64(0.3), np.array(0.3)],
                         ids=["list", "tuple", "nested", "float", "float64", "0d"])
def test_evaluators_take_array_like_points(freq20, basis20, x):
    # a scalar or 0-d x gives a float, anything else an array of x's shape
    target = _target("exp", "one", freq20.omega)
    exp = project(target, basis20)
    xa = np.asarray(x, dtype=float)
    for evaluate in (target.evaluate, partial(evaluate_expansion, exp, basis20),
                     partial(evaluate_member, basis20, 3)):
        got = evaluate(x)
        if xa.ndim == 0:
            assert type(got) is float
            assert got == evaluate(xa.reshape(1))[0]
        else:
            assert isinstance(got, np.ndarray) and got.shape == xa.shape
            assert np.array_equal(got, evaluate(xa))


@pytest.mark.parametrize("point", [0.3, np.float64(-0.77), np.array(0.999)],
                         ids=["float", "float64", "0d"])
def test_scalar_point_has_its_bits_alone_in_an_array(freq20, basis20, point):
    # a scalar runs the Legendre recurrence on floats, an array on arrays,
    # with the same bits; the matrix-vector product after it sums in an
    # order that depends on the number of points and on the point's place
    # among them, so inside a longer array only rounding may differ
    exp = project(_target("exp", "runge", freq20.omega), basis20)
    x = float(point)
    xs = np.array([-1.0, 0.25, x, 0.5, 1.0])
    for evaluate in (partial(evaluate_expansion, exp, basis20),
                     partial(evaluate_member, basis20, 11),
                     partial(legtrig_values, exp.coeffs @ basis20.a,
                             exp.coeffs @ basis20.b, freq20.omega)):
        got = evaluate(point)
        assert type(got) is float
        assert got == evaluate(x) == evaluate(np.float64(x)) == evaluate(np.array(x))
        assert got == evaluate(np.array([x]))[0]
        assert abs(got - evaluate(xs)[2]) <= 1e-14


@pytest.mark.parametrize("point", [0.3, -0.77, 1.0, -1.0, 0.0])
def test_scalar_evaluators_agree_bit_for_bit(freq20, basis20, point):
    # the expansion and a member both evaluate through legtrig_values, on
    # the same coefficients the same bits, at a scalar as at a 1-point array
    omega = freq20.omega
    exp = project(_target("exp", "runge", omega), basis20)
    collapsed = exp.coeffs @ basis20.a, exp.coeffs @ basis20.b
    got = evaluate_expansion(exp, basis20, point)
    assert got == legtrig_values(*collapsed, omega, point)
    assert got == legtrig_values(*collapsed, omega, np.array([point]))[0]
    for row in (0, 11, 25):
        member = basis20.a[row, : row // 2 + 1], basis20.b[row, : row // 2 + 1]
        got = evaluate_member(basis20, row, point)
        assert got == legtrig_values(*member, omega, point)
        assert got == legtrig_values(*member, omega, np.array([point]))[0]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("x", [0.3, np.linspace(-1.0, 1.0, 5)], ids=["scalar", "array"])
def test_evaluators_refuse_non_finite_coefficients(freq20, tables20, basis20,
                                                   value, x):
    # a basis refuses a NaN or an infinity even at a slot its parity allows,
    # so no evaluator or Gram ever sees one; the same arrays as an (A, B)
    # pair are refused by gram_matrix
    row, degree = np.argwhere(basis20.a != 0.0)[-1]
    a = basis20.a.copy()
    a[row, degree] = value
    with pytest.raises(ValueError, match="coefficients must be finite"):
        OscBasis(freq=freq20, n_max=basis20.n_max, a=a, b=basis20.b,
                 norms=basis20.norms, rec=basis20.rec)
    with pytest.raises(ValueError, match="coefficients must be finite"):
        gram_matrix((a, basis20.b), tables20)
    # coefficients assigned after projection are checked as well
    exp = project(_target("exp", "runge", freq20.omega), basis20)
    exp.coeffs = np.where(np.arange(exp.coeffs.size) == 3, np.nan, exp.coeffs)
    with pytest.raises(ValueError, match="coefficients must be finite"):
        evaluate_expansion(exp, basis20, x)


class _Counted:
    """A catalog envelope that counts the calls made to it."""

    def __init__(self, name):
        self.env, self.calls = ENVELOPES[name], 0

    def __call__(self, x):
        self.calls += 1
        return self.env(x)


def test_residual_reuses_the_samples_of_its_projection(freq20, basis20):
    f, g = _Counted("exp"), _Counted("runge")
    target = OscTarget(f_env=f, g_env=g, freq_raw=freq20.omega)
    exp = project(target, basis20)
    assert (f.calls, g.calls) == (1, 1)
    reused = residual_norm(target, exp, basis20)
    assert (f.calls, g.calls) == (1, 1)
    # the same envelopes in a new target object are sampled again, to the
    # same bits
    fresh = residual_norm(OscTarget(f_env=f, g_env=g, freq_raw=freq20.omega),
                          exp, basis20)
    assert (f.calls, g.calls) == (2, 2)
    assert np.array_equal(reused, fresh)
    # a frequency reassigned after projection is sampled afresh: by less
    # than pi it gives a fresh target's residual, by more it is refused
    target.freq_raw = freq20.omega + 0.3
    moved = residual_norm(target, exp, basis20)
    assert (f.calls, g.calls) == (3, 3)
    assert moved != reused
    assert np.array_equal(moved, residual_norm(
        OscTarget(f_env=f, g_env=g, freq_raw=target.freq_raw), exp, basis20))
    target.freq_raw *= 1.5
    with pytest.raises(ValueError, match="is more than pi from basis frequency"):
        residual_norm(target, exp, basis20)


def test_projected_expansion_pickles_without_its_samples(freq20, basis20):
    # the catalog envelopes are lambdas, which do not pickle; the copy
    # samples the target afresh, to the same residual
    _, reduced = reduce_frequency(_target("exp", "runge", freq20.omega + 0.3))
    exp = project(reduced, basis20)
    copy = pickle.loads(pickle.dumps(exp))
    assert np.array_equal(copy.coeffs, exp.coeffs) and copy._sampled is None
    assert residual_norm(reduced, copy, basis20) == residual_norm(reduced, exp, basis20)


@pytest.mark.parametrize("change", ["f_env", "g_env", "target", "basis"])
def test_residual_samples_afresh_on_anything_but_what_was_projected(
        freq20, basis20, change):
    omega = freq20.omega
    target = OscTarget(f_env=_Counted("exp"), g_env=_Counted("runge"),
                       freq_raw=omega)
    exp = project(target, basis20)
    reused = residual_norm(target, exp, basis20)
    basis = basis20
    if change == "f_env":
        target.f_env = _Counted("cos1")
    elif change == "g_env":
        target.g_env = _Counted("x")
    elif change == "target":
        target = OscTarget(f_env=_Counted("cos1"), g_env=target.g_env,
                           freq_raw=omega)
    else:
        basis = replace(basis20)
    calls = target.f_env.calls, target.g_env.calls
    got = residual_norm(target, exp, basis)
    assert (target.f_env.calls, target.g_env.calls) == (calls[0] + 1, calls[1] + 1)
    fresh = OscTarget(f_env=target.f_env.env, g_env=target.g_env.env,
                      freq_raw=omega)
    assert np.array_equal(got, residual_norm(fresh, exp, basis20))
    assert (got == reused) == (change == "basis")


def test_reduce_project_evaluate_pipeline(tables20, freq20, basis20):
    omega_raw = freq20.omega + 0.3
    t = _target("cos1", "exp", omega_raw)
    freq, reduced = reduce_frequency(t)
    assert freq.omega == freq20.omega
    exp = project(reduced, basis20)
    xs = np.linspace(-1.0, 1.0, 101)
    recon = evaluate_expansion(exp, basis20, xs)
    assert np.max(np.abs(recon - t.evaluate(xs))) <= 1e-8


def test_residual_of_zero_target_is_zero(freq20, basis20):
    t = _target("zero", "zero", freq20.omega)
    exp = project(t, basis20)
    assert residual_norm(t, exp, basis20) == 0.0


def test_non_finite_target_rejected(freq20, basis20):
    bad = OscTarget(
        f_env=lambda x: np.where(np.abs(x) < 0.5, np.inf, 1.0),
        g_env=ENVELOPES["zero"],
        freq_raw=freq20.omega,
    )
    with pytest.raises(ValueError, match="non-finite"):
        project(bad, basis20)


def _basis(k, n_max):
    freq = Frequency.exact(k)
    return build_basis(freq, n_max, build_tables(freq, n_max + 1))


@pytest.mark.parametrize("k", [20, 200, 2000])
def test_projection_and_residual_match_fine_quadrature(k):
    basis = _basis(k, 12)
    omega = basis.freq.omega
    # off the 2 pi grid, so the reduced envelopes carry the remainder
    targets = [reduce_frequency(_target(f, g, omega + 0.3))[1]
               for f in ENVELOPES for g in ENVELOPES]
    exps = [project(t, basis) for t in targets]
    C = np.array([e.coeffs for e in exps])
    resid = np.array([residual_norm(t, e, basis) for t, e in zip(targets, exps)])
    rule = composite_rule(omega, OracleConfig(6, 32))
    c_ref, r2 = np.zeros_like(C), np.zeros(len(targets))
    for start in range(0, rule.nodes.size, 8192):
        x = rule.nodes[start:start + 8192]
        w = rule.weights[start:start + 8192]
        E = member_values(basis, x)
        F = np.array([t.evaluate(x) for t in targets])
        c_ref += (F * w) @ E.T
        r2 += ((F - C @ E) ** 2) @ w
    assert np.max(np.abs(C - c_ref)) <= 1e-11
    assert np.max(np.abs(resid - np.sqrt(r2))) <= 1e-11


def test_projection_raises_no_stability_warning(freq20, basis20):
    t = _target("exp", "runge", freq20.omega)
    with warnings.catch_warnings():
        warnings.simplefilter("error", StabilityWarning)
        residual_norm(t, project(t, basis20), basis20)


@pytest.mark.parametrize("freq", [Frequency.exact(20), Frequency.exact(600),
                                  Frequency.from_omega(130.0)])
def test_filon_weights_integrate_legendre_moments(freq):
    # 2pi*20 runs the backward recurrence, 2pi*600 the forward one
    v = _filon_weights(freq, 2 * ENVELOPE_DEGREE + 1)
    got = v @ legendre_table(60, gauss_legendre_rule(v.size).nodes).T
    ref = oracle_tables(freq, 60, OracleConfig(6, 32))
    assert np.max(np.abs(got.real - ref["m5"][0])) <= 1e-14
    assert np.max(np.abs(got.imag - ref["m6"][0])) <= 1e-14


@pytest.mark.parametrize("freq", [Frequency.exact(1), Frequency.exact(20),
                                  Frequency.from_omega(200.3),
                                  Frequency.exact(2000)])
def test_filon_weights_match_complex_product(freq):
    # the real and imaginary parts are products over the even and the odd
    # rows of W; the complex product of the moments with W is the reference
    points = 2 * ENVELOPE_DEGREE + 1
    phase = np.array([2.0, 2.0j, -2.0, -2.0j])[np.arange(points) % 4]
    moments = phase * _spherical_bessel(2.0 * freq.omega, *freq.double_angle(),
                                        points)
    v = _filon_weights(freq, points)
    ref = moments @ _analysis(points)[3]
    assert np.max(np.abs(v - ref)) <= 1e-15 * np.max(np.abs(v))


def _spherical_bessel_on_numpy_scalars(kappa, sin_k, cos_k, count):
    """The reference for the bits: both recurrences item by item on a numpy
    array; also says whether the backward one rescaled against overflow."""
    if kappa >= 2 * count:
        j = np.empty(count + 1)
        j[0], j[1] = sin_k / kappa, sin_k / kappa ** 2 - cos_k / kappa
        for n in range(1, count):
            j[n + 1] = (2 * n + 1) / kappa * j[n] - j[n - 1]
        return j[:count], False
    top = int(max(count, kappa)) + 40 + int(4 * kappa ** (1 / 3))
    j = np.zeros(top + 2)
    j[top] = 1e-300
    rescaled = False
    for n in range(top, 0, -1):
        j[n - 1] = (2 * n + 1) / kappa * j[n] - j[n + 1]
        if abs(j[n - 1]) > 1e250:
            j[n - 1:] *= 1e-250
            rescaled = True
    if abs(sin_k) >= abs(cos_k):
        return j[:count] * (sin_k / kappa / j[0]), rescaled
    return j[:count] * ((sin_k / kappa ** 2 - cos_k / kappa) / j[1]), rescaled


@pytest.mark.parametrize("omega", [0.5, TWO_PI, TWO_PI * 20, 200.3,
                                   TWO_PI * 20.37, TWO_PI * 737, TWO_PI * 2000])
def test_spherical_bessel_bits_match_numpy_scalar_loop(omega):
    # 2pi*737 and 2pi*2000 take the forward recurrence, the others the
    # backward one; at omega = 0.5 it rescales against overflow
    kappa = 2.0 * omega
    args = (kappa, math.sin(kappa), math.cos(kappa), 2 * ENVELOPE_DEGREE + 1)
    want, rescaled = _spherical_bessel_on_numpy_scalars(*args)
    assert np.array_equal(_spherical_bessel(*args), want)
    assert rescaled == (omega == 0.5)


@pytest.mark.parametrize("freq", [Frequency.exact(1), Frequency.exact(20),
                                  Frequency.from_omega(200.0), Frequency.exact(600)])
def test_filon_moments_match_mpmath_at_every_degree(freq):
    # integral of P_l(x) exp(2i omega x) = 2 i^l j_l(2 omega); the Gauss rule
    # reproduces each moment from v, so every degree of the recurrence shows
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    v = _filon_weights(freq, 2 * ENVELOPE_DEGREE + 1)
    got = v @ legendre_table(v.size - 1, gauss_legendre_rule(v.size).nodes).T
    kappa = mp.mpf(2) * mp.mpf(freq.omega)
    for l in [*range(0, v.size, 8), v.size - 1]:
        j_l = mp.sqrt(mp.pi / (2 * kappa)) * mp.besselj(l + mp.mpf(1) / 2, kappa)
        assert abs(got[l] - 2 * 1j ** l * float(j_l)) <= 1e-14


def test_projection_reaches_past_the_oracle_node_budget():
    # the composite rule at 2pi*1e5 would need 19.2 million nodes
    basis = _basis(10 ** 5, 4)
    with pytest.raises(ValueError, match="over the budget"):
        composite_rule(basis.freq.omega)
    t = _target("zero", "one", basis.freq.omega)
    exp = project(t, basis)
    assert abs(exp.coeffs[0] - 1.0) <= 1e-13
    assert np.max(np.abs(exp.coeffs[1:])) <= 1e-13
    assert residual_norm(t, exp, basis) <= 1e-12


def test_basis_degree_past_envelope_degree():
    basis = _basis(600, ENVELOPE_DEGREE + 10)
    t = _target("x", "one", basis.freq.omega)
    assert residual_norm(t, project(t, basis), basis) <= 1e-12


def test_unresolved_envelope_refused(freq20, basis20):
    t = OscTarget(f_env=np.abs, g_env=ENVELOPES["one"], freq_raw=freq20.omega)
    msg = rf"not resolved at Legendre degree M={ENVELOPE_DEGREE} .*tail beyond it is"
    with pytest.raises(ValueError, match=msg):
        project(t, basis20)
    exp = project(_target("zero", "one", freq20.omega), basis20)
    with pytest.raises(ValueError, match=msg):
        residual_norm(t, exp, basis20)


def test_plain_legendre_residuals_decrease(freq20):
    t = _target("zero", "one", freq20.omega)
    res = plain_legendre_residuals(t, 60)
    assert res.shape == (61,)
    assert np.all(np.diff(res) <= 1e-12)


def test_plain_legendre_residuals_match_direct_projection():
    from oscbasis.legendre import legendre_norm_sq, legendre_table

    t = _target("zero", "one", TWO_PI * 2)
    n_max = 40
    res = plain_legendre_residuals(t, n_max)
    rule = composite_rule(t.freq_raw)
    F = t.evaluate(rule.nodes)
    P = legendre_table(n_max, rule.nodes)
    coeffs = (P * rule.weights) @ F
    coeffs = coeffs / np.array([legendre_norm_sq(n) for n in range(n_max + 1)])
    r = F - coeffs @ P
    direct = np.sqrt(np.sum(rule.weights * r * r))
    assert res[n_max] == pytest.approx(direct, rel=1e-8, abs=1e-10)


def test_plain_residuals_reject_negative_degree(freq20):
    with pytest.raises(ValueError):
        plain_legendre_residuals(_target("one", "one", freq20.omega), -1)


def test_expansion_validation(basis20):
    fields = basis20.freq, basis20.n_max, basis20.content_hash()
    with pytest.raises(ValueError, match="expected 26"):
        Expansion(*fields, coeffs=np.zeros(4))
    with pytest.raises(ValueError, match="finite"):
        Expansion(*fields, coeffs=np.full(26, np.nan))


def test_mismatched_basis_is_detected(freq20, tables20, basis20):
    from oscbasis import build_basis

    t = _target("zero", "one", freq20.omega)
    exp = project(t, basis20)
    other = build_basis(freq20, 12, tables20, reorthogonalize=True)
    with pytest.raises(ValueError, match="computed against basis"):
        evaluate_expansion(exp, other, 0.0)


def test_expansion_file_round_trip(freq20, basis20, tmp_path):
    t = _target("exp", "one", freq20.omega)
    exp = project(t, basis20)
    path = tmp_path / "exp.json"
    save_expansion(exp, path)
    loaded = load_expansion(path)
    assert (loaded.freq, loaded.n_max, loaded.basis_hash) \
        == (exp.freq, exp.n_max, exp.basis_hash)
    assert np.array_equal(loaded.coeffs, exp.coeffs)
    # reconstruction still works after the round trip
    assert evaluate_expansion(loaded, basis20, 0.2) == pytest.approx(
        evaluate_expansion(exp, basis20, 0.2), rel=1e-15
    )


@pytest.mark.parametrize("x", [np.linspace(-1.0, 1.0, 2001), 0.3],
                         ids=["grid", "scalar"])
def test_projected_and_explicit_refs_give_identical_results(freq20, basis20, x,
                                                            tmp_path):
    _, target = reduce_frequency(_target("exp", "runge", TWO_PI * 20.3))
    exp = project(target, basis20)
    resid = residual_norm(target, exp, basis20)
    values = evaluate_expansion(exp, basis20, x)
    # the same coefficients under basis fields spelled out from the hash
    named = Expansion(freq=basis20.freq, n_max=basis20.n_max,
                      basis_hash=basis20.content_hash(),
                      coeffs=project(target, basis20).coeffs)
    assert np.array_equal(exp.coeffs, named.coeffs)
    assert np.array_equal(resid, residual_norm(target, named, basis20))
    assert np.array_equal(values, evaluate_expansion(named, basis20, x))
    assert (exp.freq, exp.n_max, exp.basis_hash) \
        == (named.freq, named.n_max, named.basis_hash)
    save_expansion(exp, tmp_path / "projected.json")
    save_expansion(named, tmp_path / "named.json")
    assert (tmp_path / "projected.json").read_bytes() \
        == (tmp_path / "named.json").read_bytes()


def test_expansion_checks_against_a_loaded_copy_of_its_basis(freq20, tables20,
                                                            tmp_path):
    basis = build_basis(freq20, 12, tables20)
    _, target = reduce_frequency(_target("exp", "runge", TWO_PI * 20.3))
    exp = project(target, basis)
    save_basis(basis, tmp_path / "basis.json")
    copy = load_basis(tmp_path / "basis.json")
    assert copy is not basis
    grid = np.linspace(-1.0, 1.0, 2001)
    assert np.array_equal(evaluate_expansion(exp, copy, grid),
                          evaluate_expansion(exp, basis, grid))
    assert residual_norm(target, exp, copy) == residual_norm(target, exp, basis)
