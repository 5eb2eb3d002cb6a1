"""End-to-end acceptance checks.

Each test prints one [criterion NN] PASS/FAIL line with the measured
numbers (capture is disabled for those lines so they always reach the
terminal), then asserts the stated tolerances.
"""

import json
import time
import warnings

import numpy as np
import pytest

from oscbasis import (
    BasisDegenerationError,
    ENVELOPES,
    Frequency,
    OscTarget,
    StabilityWarning,
    build_basis,
    build_tables,
    derivative_matrix_legtrig,
    evaluate_expansion,
    monic_norm_profile,
    project,
    reduce_frequency,
    to_orthogonal_basis,
)
from oscbasis.approx import plain_legendre_residuals
from oscbasis.cli import main
from oscbasis.frequency import TWO_PI
from oscbasis.oracle import (
    cond_estimate,
    hilbert_limit,
    integrate,
    member_gram,
    monomial_gram,
    oracle_tables,
)
from oscbasis.pairing import gram_matrix


def _emit(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {detail}")


def test_criterion_01_table_recursion_matches_oracle(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for k, n_max in ((10, 12), (20, 16), (40, 16)):
        freq = Frequency.exact(k)
        tables = build_tables(freq, n_max)
        ref = oracle_tables(freq, n_max)
        for key in ("m2", "m3", "m4", "m5", "m6"):
            worst = max(worst, float(np.max(np.abs(getattr(tables, key) - ref[key]))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed <= 10.0
    _emit(capsys, 1, ok, f"table deviation {worst:.3e} (tol 1e-10), {elapsed:.2f}s (limit 10s)")
    assert worst <= 1e-10
    assert elapsed <= 10.0


def test_criterion_02_basis_orthonormal_under_quadrature(capsys):
    t0 = time.perf_counter()
    freq = Frequency.exact(20)
    tables = build_tables(freq, 13)
    basis = build_basis(freq, 12, tables)
    G = member_gram(basis, freq.omega)
    dev = float(np.max(np.abs(G - np.eye(26))))
    elapsed = time.perf_counter() - t0
    ok = dev <= 1e-8 and elapsed <= 30.0
    _emit(capsys, 2, ok, f"max|G - I| = {dev:.3e} (tol 1e-8), {elapsed:.2f}s (limit 30s)")
    assert dev <= 1e-8
    assert elapsed <= 30.0


def test_criterion_03_low_degree_products_lie_in_span(capsys):
    from oscbasis.basis import member_values
    from oscbasis.oracle import composite_rule

    freq = Frequency.exact(20)
    tables = build_tables(freq, 9)
    basis = build_basis(freq, 8, tables)
    rule = composite_rule(freq.omega)
    vals = member_values(basis, rule.nodes)
    worst = 0.0
    for k in range(9):
        for trig in (np.cos, np.sin):
            target = rule.nodes**k * trig(freq.omega * rule.nodes)
            sub = vals[: 2 * k + 2]
            coeffs = sub @ (rule.weights * target)
            r = target - coeffs @ sub
            worst = max(worst, float(np.sqrt(np.sum(rule.weights * r * r))))
    ok = worst <= 1e-7
    _emit(capsys, 3, ok, f"max span residual over x^k trig, k <= 8: {worst:.3e} (tol 1e-7)")
    assert worst <= 1e-7


def test_criterion_04_stability_bracket(capsys):
    # stable side: many periods, moderate degree
    freq_hi = Frequency.exact(50)
    basis_hi = build_basis(freq_hi, 12, build_tables(freq_hi, 13))
    dev_hi = float(np.max(np.abs(member_gram(basis_hi, freq_hi.omega) - np.eye(26))))

    # unstable side must at least warn; degeneration is the documented outcome
    freq_lo = Frequency.exact(3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        tables_lo = build_tables(freq_lo, 25)
    with pytest.warns(StabilityWarning):
        try:
            basis_lo = build_basis(freq_lo, 24, tables_lo)
            G = member_gram(basis_lo, freq_lo.omega)
            lo_note = f"built with max|G - I| = {np.max(np.abs(G - np.eye(50))):.3e}"
        except BasisDegenerationError as exc:
            lo_note = f"degenerated as documented ({str(exc).split(':')[0]})"
    ok = dev_hi <= 1e-8
    _emit(
        capsys, 4, ok,
        f"omega=2pi*50 N=12 max|G - I| = {dev_hi:.3e} (tol 1e-8); omega=2pi*3 N=24 warned, {lo_note}",
    )
    assert dev_hi <= 1e-8


def test_criterion_05_conditioning_contrast(capsys):
    # (a) monomial-trig Gram approaches its frequency-free limit
    limit = hilbert_limit(5)
    devs = []
    for k in (10, 100, 1000):
        H = monomial_gram(Frequency.exact(k), 5)
        devs.append(float(np.max(np.abs(H - limit))))
    sweep_ok = devs[0] >= devs[1] >= devs[2] and devs[-1] <= 1e-2

    # (b) and (c): conditioning contrast at omega = 2pi*50, N = 10
    freq = Frequency.exact(50)
    cond_mono = cond_estimate(monomial_gram(freq, 10))

    # Reference: the exact omega -> infinity limit, written out from its
    # closed form L[i][j] = 1/(i+j+1) for even i+j and 0 for odd i+j.
    # Parity splits it into an even Hankel block (entries 1/(2a+2b+1)) and
    # an odd one (entries 1/(2a+2b+3)), so cond grows with N/2, not N.
    def cond_spd(m):
        eig = np.linalg.eigvalsh(m)
        return float(eig[-1] / eig[0])

    idx = np.arange(11)
    total = idx[:, None] + idx[None, :]
    limit_10 = np.where(total % 2 == 0, 1.0 / (total + 1.0), 0.0)
    cond_limit = cond_spd(limit_10)
    cond_even = cond_spd(limit_10[0::2, 0::2])
    cond_odd = cond_spd(limit_10[1::2, 1::2])
    mono_gap = cond_mono / cond_limit - 1.0

    tables = build_tables(freq, 10)
    # unit-norm single modes P_j cos(omega x), P_j sin(omega x), interleaved
    A, B = np.zeros((2, 22, 11))
    A[0::2] = np.diag(1.0 / np.sqrt(np.diag(tables.m3)))
    B[1::2] = np.diag(1.0 / np.sqrt(np.diag(tables.m4)))
    cond_legtrig = cond_estimate(gram_matrix((A, B), tables))

    # The finite-omega gap to the limit is O(N / omega^2) (about 4e-3 here);
    # the Gram one degree off misses the reference by a factor of 0.18 or 5.5.
    mono_ok = abs(mono_gap) <= 1e-2
    ok = sweep_ok and mono_ok and cond_legtrig <= 10.0
    mono_detail = (
        f"cond(monomial) = {cond_mono:.4e} vs omega->inf limit {cond_limit:.4e} "
        f"(even block {cond_even:.4e}, odd block {cond_odd:.4e}), "
        f"relative gap {mono_gap:+.2e} (|gap| <= 1e-2)"
    )
    _emit(
        capsys, 5, ok,
        f"limit sweep devs {devs[0]:.2e} >= {devs[1]:.2e} >= {devs[2]:.2e} (<= 1e-2); "
        f"{mono_detail}; cond(legtrig) = {cond_legtrig:.3f} (<= 10)",
    )
    assert sweep_ok
    assert cond_legtrig <= 10.0
    assert mono_ok, f"monomial Gram at N=10 is not as ill-conditioned as its limit: {mono_detail}"


def test_criterion_06_derivative_operator(capsys):
    freq = Frequency.exact(20)
    tables = build_tables(freq, 9)
    basis = build_basis(freq, 8, tables)
    op = to_orthogonal_basis(derivative_matrix_legtrig(freq, 8), basis)
    sim = op.similarity_residual

    rng = np.random.default_rng(0)
    xs = np.linspace(-0.9, 0.9, 20)
    h = 1e-5
    from oscbasis.approx import Expansion

    fields = basis.freq, basis.n_max, basis.content_hash()
    worst_rel = 0.0
    for _ in range(10):
        exp = Expansion(*fields, coeffs=rng.uniform(-1.0, 1.0, 18))
        d_exp = Expansion(*fields, coeffs=op.d_orth @ exp.coeffs)
        f = lambda t: evaluate_expansion(exp, basis, t)  # noqa: E731
        fd = (8.0 * (f(xs + h) - f(xs - h)) - (f(xs + 2 * h) - f(xs - 2 * h))) / (12.0 * h)
        dv = evaluate_expansion(d_exp, basis, xs)
        rel = float(np.max(np.abs(dv - fd)) / max(1.0, np.max(np.abs(dv))))
        worst_rel = max(worst_rel, rel)
    ok = sim <= 1e-9 and worst_rel <= 1e-5
    _emit(
        capsys, 6, ok,
        f"similarity residual {sim:.3e} (tol 1e-9); worst FD relative deviation "
        f"{worst_rel:.3e} over 10 expansions at 20 points (tol 1e-5)",
    )
    assert sim <= 1e-9
    assert worst_rel <= 1e-5


def test_criterion_07_reduction_pipeline_pointwise(capsys):
    omega_raw = TWO_PI * 20 + 0.3
    target = OscTarget(f_env=ENVELOPES["exp"], g_env=ENVELOPES["one"], freq_raw=omega_raw)
    freq, reduced = reduce_frequency(target)
    tables = build_tables(freq, 17)
    basis = build_basis(freq, 16, tables)
    exp = project(reduced, basis)
    xs = np.linspace(-1.0, 1.0, 101)
    dev = float(np.max(np.abs(evaluate_expansion(exp, basis, xs) - target.evaluate(xs))))
    ok = dev <= 1e-7
    _emit(
        capsys, 7, ok,
        f"omega_raw = 2pi*20 + 0.3 reduced to k={freq.k}; max pointwise error "
        f"{dev:.3e} on 101-point grid (tol 1e-7)",
    )
    assert freq.k == 20
    assert dev <= 1e-7


def test_criterion_08_degree_cost_frequency_independence(capsys):
    osc_n = {}
    plain_n = {}
    for k, plain_cap in ((20, 400), (200, 1500)):
        freq = Frequency.exact(k)
        target = OscTarget(f_env=ENVELOPES["exp"], g_env=ENVELOPES["one"],
                           freq_raw=freq.omega)
        tables = build_tables(freq, 13)
        basis = build_basis(freq, 12, tables)
        exp = project(target, basis)
        total = integrate(lambda x: target.evaluate(x) ** 2, freq)
        c2 = exp.coeffs**2
        osc = None
        for n in range(13):
            resid = np.sqrt(max(total - float(np.sum(c2[: 2 * (n + 1)])), 0.0))
            if resid <= 1e-6:
                osc = n
                break
        assert osc is not None, f"no N <= 12 reaches 1e-6 at omega=2pi*{k}"
        osc_n[k] = osc

        res = plain_legendre_residuals(target, plain_cap)
        hits = np.nonzero(res <= 1e-6)[0]
        assert hits.size, f"plain expansion never reaches 1e-6 by N={plain_cap}"
        plain_n[k] = int(hits[0])

    ok = abs(osc_n[20] - osc_n[200]) <= 1 and plain_n[200] >= 4 * plain_n[20]
    _emit(
        capsys, 8, ok,
        f"oscillatory N: {osc_n[20]} at 2pi*20 vs {osc_n[200]} at 2pi*200 (differ <= 1); "
        f"plain Legendre N: {plain_n[20]} vs {plain_n[200]} "
        f"(ratio {plain_n[200] / max(plain_n[20], 1):.1f}, required >= 4)",
    )
    assert abs(osc_n[20] - osc_n[200]) <= 1
    assert plain_n[200] >= 4 * plain_n[20]


def test_criterion_09_monic_norms_decay(capsys):
    freq = Frequency.exact(20)
    tables = build_tables(freq, 11)
    profile = monic_norm_profile(freq, 10, tables)
    ratios = profile[1:] / profile[:-1]
    ok = bool(np.all(np.diff(profile) < 0.0))
    _emit(
        capsys, 9, ok,
        f"h_k strictly decreasing over k <= 10; ratios h_k+1/h_k in "
        f"[{ratios.min():.3f}, {ratios.max():.3f}], tail ratio {ratios[-1]:.3f}",
    )
    assert ok


def test_criterion_10_cli_outputs_deterministic(capsys, tmp_path):
    summaries = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        assert main(["tables", "--omega", "2pi*12", "--n", "6",
                     "--out", str(d / "t.json")]) == 0
        assert main(["basis", "--omega", "2pi*12", "--n", "4",
                     "--out", str(d / "basis.json")]) == 0
    t_same = (tmp_path / "a" / "t.json").read_bytes() == (tmp_path / "b" / "t.json").read_bytes()
    b_same = (tmp_path / "a" / "basis.json").read_bytes() == (tmp_path / "b" / "basis.json").read_bytes()
    ok = t_same and b_same
    _emit(
        capsys, 10, ok,
        f"rerun byte-identical: tables {t_same}, basis {b_same}",
    )
    assert t_same and b_same
    # manifests agree except for the wall-clock duration
    ma = json.loads((tmp_path / "a" / "t.manifest.json").read_text())
    mb = json.loads((tmp_path / "b" / "t.manifest.json").read_text())
    assert ma["outputs"] == mb["outputs"]
