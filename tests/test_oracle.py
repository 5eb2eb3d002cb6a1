import ast
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oscbasis
from oscbasis import Frequency, build_basis, build_tables
from oscbasis.approx import sample
from oscbasis.frequency import TWO_PI
from oscbasis.legendre import gauss_legendre_rule, legendre_table, legtrig_values
from oscbasis.oracle import (
    OracleConfig,
    composite_rule,
    member_gram,
    oracle_tables,
    verify,
)


def _imported(node):
    """The dotted names an import statement refers to: its module and each
    name in it, relative ones resolved within oscbasis."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    module = node.module or ""
    if node.level:
        module = f"oscbasis.{module}".rstrip(".")
    return [module] + [f"{module}.{alias.name}" for alias in node.names]


def test_no_pipeline_module_imports_the_oracle():
    # the oracle checks the pipeline from above: cli is the one module that
    # drives both, and the oracle's own imports are all at module top
    trees = {path.stem: ast.parse(path.read_text())
             for path in Path(oscbasis.__file__).parent.glob("*.py")}
    imports = {name: [node for node in ast.walk(tree)
                      if isinstance(node, (ast.Import, ast.ImportFrom))]
               for name, tree in trees.items()}
    assert {"approx", "basis", "tables", "oracle"} <= imports.keys()
    importers = sorted(
        name for name, nodes in imports.items()
        if name not in ("cli", "oracle", "__init__")
        and any(target.split(".")[:2] == ["oscbasis", "oracle"]
                for node in nodes for target in _imported(node)))
    assert importers == []
    assert all(node in trees["oracle"].body for node in imports["oracle"])


def test_config_validation_and_panel_count():
    cfg = OracleConfig()
    assert cfg.panels_per_period == 4
    assert cfg.points_per_panel == 24
    assert cfg.panel_count(TWO_PI * 20) == 160
    assert cfg.panel_count(0.5) == 8
    # a panel count need not be an integer
    assert OracleConfig(panels_per_period=2.5).panel_count(TWO_PI * 20) == 100
    with pytest.raises(ValueError):
        OracleConfig(panels_per_period=0)
    with pytest.raises(ValueError):
        OracleConfig(points_per_panel=-1)


@pytest.mark.parametrize("value", ["4", None, True, float("nan"), float("inf")],
                         ids=["str", "none", "bool", "nan", "inf"])
@pytest.mark.parametrize("name", ["panels_per_period", "tolerance"])
def test_config_and_verify_refuse_a_value_that_is_not_a_finite_real(tables20, name, value):
    # refused where the value is given, as ValueError: a bool is not taken as
    # a number, and a NaN or infinite panel count is not left for the rule
    if isinstance(value, float):
        message = {"panels_per_period": "panels_per_period must be >= 2 and finite",
                   "tolerance": f"tolerance must be finite and >= 0, got {value!r}"}[name]
    else:
        message = f"{name} must be a real number, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        if name == "tolerance":
            verify(tables20, value)
        else:
            OracleConfig(panels_per_period=value)


def test_config_refuses_points_per_panel_over_the_limit():
    # a rule of p points costs p^2 Python steps per Newton pass, so a large
    # p never finishes; the config refuses it before any rule is built
    assert OracleConfig(points_per_panel=64).points_per_panel == 64
    for points in (65, 2 ** 21):
        with pytest.raises(ValueError, match=rf"^points_per_panel must be from "
                                             rf"8 to 64, got {points}$"):
            OracleConfig(points_per_panel=points)


@pytest.mark.parametrize("points", [3.0, 8.5, "3", True, None],
                         ids=["3.0", "8.5", "str", "True", "None"])
def test_point_counts_that_are_not_integers_are_refused(points):
    # refused where given, not later inside the Newton loop's islice
    with pytest.raises(ValueError, match=re.escape(
            f"n_points must be an integer >= 1, got {points!r}")):
        gauss_legendre_rule(points)
    with pytest.raises(ValueError, match=re.escape(
            f"points_per_panel must be an integer >= 8, got {points!r}")):
        OracleConfig(points_per_panel=points)


def test_point_counts_may_be_numpy_integers():
    assert np.array_equal(gauss_legendre_rule(np.int64(3)).nodes,
                          gauss_legendre_rule(3).nodes)
    cfg = OracleConfig(points_per_panel=np.int64(8))
    assert np.array_equal(composite_rule(TWO_PI, cfg).nodes,
                          composite_rule(TWO_PI, OracleConfig(points_per_panel=8)).nodes)


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


def test_integrate_constant(quad):
    freq = Frequency.exact(20)
    assert quad(lambda x: np.ones_like(x), freq.omega) == pytest.approx(2.0, rel=1e-14)


def test_integrate_squared_cosine(quad):
    freq = Frequency.exact(20)
    val = quad(lambda x: np.cos(freq.omega * x) ** 2, freq.omega)
    assert val == pytest.approx(1.0, abs=1e-13)


def test_integrate_resolves_double_frequency(quad):
    freq = Frequency.exact(20)
    val = quad(lambda x: x * np.sin(2.0 * freq.omega * x), freq.omega)
    assert val == pytest.approx(-1.0 / freq.omega, rel=1e-12)


def test_integrate_rejects_non_finite_samples():
    nodes = composite_rule(Frequency.exact(2).omega).nodes
    with pytest.raises(ValueError, match="non-finite"):
        sample(lambda x: np.where(np.abs(x) < 0.5, np.nan, 1.0), nodes)


def test_integrate_broadcasts_a_scalar_and_refuses_a_wrong_shape(quad):
    omega = Frequency.exact(2).omega
    assert quad(lambda x: 2.0, omega) == quad(lambda x: np.full_like(x, 2.0), omega)
    # a full array, not a zero-stride view, so a dot product sums it as such
    rule = composite_rule(omega)
    assert rule.weights @ sample(lambda x: 2.0, rule.nodes) == \
        rule.weights @ np.full_like(rule.nodes, 2.0)
    with pytest.raises(ValueError, match=r"returned shape \(3,\), which does "
                                         r"not broadcast"):
        sample(lambda x: np.ones(3), composite_rule(omega).nodes)


def test_oracle_entry_known_values(oracle_reference):
    freq = Frequency.exact(10)
    t = oracle_reference(freq, 1)
    assert t["m6"][1, 0] == pytest.approx(-1.0 / freq.omega, rel=1e-12)
    assert t["m3"][0, 0] == pytest.approx(1.0, rel=1e-12)
    assert t["m5"][0, 1] == pytest.approx(t["m5"][1, 0], abs=1e-15)


def test_oracle_tables_consistent_under_refinement():
    # doubling the points per panel moves nothing at the tolerance of interest
    freq = Frequency.exact(50)
    coarse = oracle_tables(freq, 16)
    fine = oracle_tables(freq, 16, OracleConfig(points_per_panel=48))
    assert set(coarse) == set(fine) == {"m5", "m6"}
    for key in ("m5", "m6"):
        assert np.max(np.abs(coarse[key] - fine[key])) <= 1e-12


def _five_products(freq, n_max, cfg=None):
    """M2 ... M6 as five weighted products over the whole rule, each with
    its own integrand: the form of the tables check before the folded rule."""
    rule = composite_rule(freq.omega, cfg)
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


def _assert_match(got, want, n_max):
    for key in got:
        assert got[key].shape == (n_max + 1, n_max + 1)
        assert np.max(np.abs(got[key] - want[key])) <= 1e-14


@pytest.mark.parametrize("freq, n_max", [
    (Frequency.exact(20), 8),
    (Frequency.exact(100), 60),
    (Frequency.from_omega(200.3), 30),
])
def test_oracle_tables_match_five_products(freq, n_max, oracle_reference):
    # m5 and m6 by oracle_tables, m2, m3 and m4 by the unit-mode member Gram
    got = oracle_reference(freq, n_max)
    assert list(got) == ["m2", "m3", "m4", "m5", "m6"]
    _assert_match(got, _five_products(freq, n_max), n_max)


def test_oracle_tables_of_an_odd_rule_match_five_products():
    # 9 panels of 9 points: an odd rule, whose middle node is x = 0
    freq, cfg = Frequency.from_omega(14.0), OracleConfig(2, 9)
    assert len(composite_rule(freq.omega, cfg)) == 81
    _assert_match(oracle_tables(freq, 8, cfg), _five_products(freq, 8, cfg), 8)


def test_oracle_tables_memory_does_not_grow_with_omega():
    # 2pi*400 has four times the nodes of 2pi*100; both span several chunks.
    # The Gram builds its nodes a chunk at a time, so only the panel edges
    # grow with omega
    def peak(k):
        freq = Frequency.exact(k)
        tracemalloc.start()
        try:
            oracle_tables(freq, 60)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(400) <= 1.25 * peak(100)


def _full_rule_gram(freq, rows):
    """(E * w) @ E.T over the whole composite rule, 4096 nodes at a time,
    with E the values rows(x) of every function at every node: the form of
    the Gram before it was folded by parity."""
    rule = composite_rule(freq.omega)
    G = 0.0
    for start in range(0, rule.nodes.size, 4096):
        chunk = slice(start, start + 4096)
        E = rows(rule.nodes[chunk])
        G += (E * rule.weights[chunk]) @ E.T
    return 0.5 * (G + G.T)


@pytest.mark.parametrize("k, n_max", [(20, 12), (50, 40), (137, 100)])
def test_folded_grams_match_the_full_rule(k, n_max, script):
    freq = Frequency.exact(k)
    basis = build_basis(freq, n_max, build_tables(freq, n_max + 1))
    want = _full_rule_gram(freq, lambda x: legtrig_values(basis.a, basis.b,
                                                          freq.omega, x))
    assert np.max(np.abs(member_gram(basis, freq.omega) - want)) <= 1e-13
    want = _full_rule_gram(freq, lambda x: np.vander(x, n_max + 1, increasing=True).T
                           * np.cos(freq.omega * x))
    monomial_gram = script("hilbert_demo").monomial_gram
    assert np.max(np.abs(monomial_gram(freq, n_max) - want)) <= 1e-13


def test_member_gram_of_a_pair_without_parity_matches_per_member_quadrature():
    # every coefficient nonzero, so each row is in both parity blocks
    freq = Frequency.exact(50)
    A, B = np.random.default_rng(3).uniform(-1.0, 1.0, (2, 6, 11))
    rule = composite_rule(freq.omega)
    E = np.array([legtrig_values(a, b, freq.omega, rule.nodes) for a, b in zip(A, B)])
    want = (E * rule.weights) @ E.T
    got = member_gram((A, B), freq.omega)
    assert np.max(np.abs(got - 0.5 * (want + want.T))) <= 1e-14
    assert np.array_equal(got, got.T)


def test_cross_parity_entries_are_exactly_zero():
    freq = Frequency.exact(30)
    basis = build_basis(freq, 20, build_tables(freq, 21))
    i = np.arange(42)
    # p_k has parity (-1)^k and q_k (-1)^(k+1): row i's parity is i//2 + i%2
    parity = (i // 2 + i % 2) % 2
    cross = parity[:, None] != parity[None, :]
    assert np.all(member_gram(basis, freq.omega)[cross] == 0.0)
    t = oracle_tables(freq, 20)
    odd = (i[:21, None] + i[None, :21]) % 2 == 1
    assert np.all(t["m5"][odd] == 0.0) and np.all(t["m6"][~odd] == 0.0)


def test_member_gram_memory_does_not_grow_with_omega():
    # 2pi*400 has four times the nodes of 2pi*100; the Gram builds its nodes
    # a chunk at a time, so only the panel edges grow with omega
    bases = {k: build_basis(Frequency.exact(k), 60, build_tables(Frequency.exact(k), 61))
             for k in (100, 400)}

    def peak(k):
        tracemalloc.start()
        try:
            member_gram(bases[k], bases[k].freq.omega)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(400) <= 1.25 * peak(100)


def test_member_gram_refuses_an_omega_not_the_basis_own(basis20):
    omega = basis20.freq.omega
    with pytest.raises(ValueError, match=rf"omega={2 * omega!r} of a basis "
                                         rf"built at omega={omega!r}"):
        member_gram(basis20, 2 * omega)
    # a bare pair has no frequency of its own and takes any omega
    assert member_gram(basis20.rep, 2 * omega).shape == (basis20.a.shape[0],) * 2


def test_monomial_gram_low_order_entries(script):
    monomial_gram = script("hilbert_demo").monomial_gram
    freq = Frequency.exact(20)
    H = monomial_gram(freq, 3)
    assert H.shape == (4, 4)
    assert np.array_equal(H, H.T)
    assert H[0, 0] == pytest.approx(1.0, abs=1e-13)
    # odd total power pairs an even with an odd function
    assert H[0, 1] == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        monomial_gram(freq, -1)


def test_monomial_gram_approaches_hilbert_limit(script):
    monomial_gram = script("hilbert_demo").monomial_gram
    i = np.arange(6)
    s = i[:, None] + i[None, :]
    limit = (1.0 + (-1.0) ** s) / (2.0 * (s + 1))
    devs = []
    for k in (10, 100, 1000):
        H = monomial_gram(Frequency.exact(k), 5)
        devs.append(np.max(np.abs(H - limit)))
    assert devs[0] >= devs[1] >= devs[2]
    assert devs[-1] <= 1e-2


def test_monomial_gram_parity_split_and_limit_conditioning(cond, script):
    monomial_gram = script("hilbert_demo").monomial_gram
    # odd i+j entries pair an even with an odd integrand and vanish, so the
    # Gram splits into even and odd Hankel blocks; 2pi*50 gives 9600 nodes,
    # so the Gram sums more than one node chunk and must stay symmetric
    H = monomial_gram(Frequency.exact(50), 10)
    assert np.array_equal(H, H.T)
    i = np.arange(11)
    odd = (i[:, None] + i[None, :]) % 2 == 1
    assert np.max(np.abs(H[odd])) <= 1e-12

    # cond of the omega -> infinity limit against a 50-digit eigenvalue
    # reference
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
    s = i[:, None] + i[None, :]
    assert cond((1.0 + (-1.0) ** s) / (2.0 * (s + 1))) == pytest.approx(ref, rel=1e-6)


def test_legtrig_units_stay_well_conditioned(cond, unit_gram):
    # normalized single-mode rows at a frequency well above the degree
    from oscbasis import build_tables
    from oscbasis.tables import gram_matrix

    freq = Frequency.exact(50)
    tables = build_tables(freq, 10)
    A, B = np.zeros((2, 22, 11))
    scale = 1.0 / np.sqrt(np.diag(unit_gram(tables)))
    A[0::2], B[1::2] = np.diag(scale[:11]), np.diag(scale[11:])
    G = gram_matrix((A, B), tables)
    assert cond(G) <= 10.0


def test_verify_takes_tables_or_basis_and_nothing_else():
    freq = Frequency.exact(8)
    tables = build_tables(freq, 7)
    basis = build_basis(freq, 6, tables)
    t, b = verify(tables, 1e-10), verify(basis, 1e-10)
    assert (t.kind, b.kind) == ("tables", "basis")
    assert list(t.deviations) == ["m5", "m6"]
    assert list(b.deviations) == ["gram"] and t.passed and b.passed
    G = member_gram(basis, freq.omega)
    assert b.deviations["gram"] == float(np.max(np.abs(G - np.eye(14))))
    for obj in (basis.a, (basis.a, basis.b), None):
        with pytest.raises(TypeError, match="verify takes tables or a basis"):
            verify(obj, 1e-10)


def test_oracle_tables_refuses_negative_degree():
    with pytest.raises(ValueError, match="n_max must be an integer >= 0, got -1"):
        oracle_tables(Frequency.exact(3), -1)
