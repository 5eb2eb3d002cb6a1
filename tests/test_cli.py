import json
import logging
import warnings

import numpy as np
import pytest

from oscbasis import (ENVELOPES, OscTarget, StabilityWarning, build_tables,
                      load_basis)
from oscbasis.approx import Expansion
from oscbasis.basis import member_values
from oscbasis.cli import main
from oscbasis.documents import save
from oscbasis.frequency import TWO_PI, parse_omega_spec
from oscbasis.oracle import OracleConfig, composite_rule


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One basis file shared by the project/diff command tests."""
    d = tmp_path_factory.mktemp("cli")
    rc = main(
        ["basis", "--omega", "2pi*20", "--n", "8", "--out", str(d / "basis.json")]
    )
    assert rc == 0
    return d


def _run(*args):
    return main([str(a) for a in args])


def test_help_exits_cleanly():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    for cmd in ("tables", "basis", "verify", "project", "diff"):
        with pytest.raises(SystemExit) as sub:
            main([cmd, "--help"])
        assert sub.value.code == 0


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_tables_json_with_manifest(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert _run("tables", "--omega", "2pi*10", "--n", "5", "--out", out) == 0
    assert "wrote" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["omega"] == TWO_PI * 10
    assert doc["epsilon"] == 0.0
    # parity: odd-diagonal entries of m5 are exactly zero
    assert doc["m5"][0][1] == 0.0
    assert doc["m6"][0][0] == 0.0
    manifest = json.loads((tmp_path / "t.manifest.json").read_text())
    assert manifest["command"] == "tables"
    assert manifest["parameters"]["n"] == 5
    import hashlib

    want = hashlib.sha256(out.read_bytes()).hexdigest()
    assert manifest["outputs"][0]["sha256"] == want


def test_tables_accepts_plain_real_frequency(tmp_path):
    out = tmp_path / "general.json"
    assert _run("tables", "--omega", "12.0", "--n", "4", "--out", out) == 0
    from oscbasis import load_tables, verify_tables

    report = verify_tables(load_tables(out), 1e-10)
    assert report.passed


def test_tables_csv_layout(tmp_path):
    out = tmp_path / "t.csv"
    assert _run("tables", "--omega", "2pi*4", "--n", "3", "--out", out) == 0
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == ["t_m5.csv", "t_m6.csv"]
    for m in ("m5", "m6"):
        path = tmp_path / f"t_{m}.csv"
        assert path.read_text().splitlines()[0] == "k0,k1,k2,k3"
    assert (tmp_path / "t.manifest.json").exists()


def test_tables_invalid_parameters(tmp_path):
    assert _run("tables", "--omega", "2pi*4", "--n", "-1", "--out", tmp_path / "x.json") == 2
    assert _run("tables", "--omega", "fast", "--n", "3", "--out", tmp_path / "y.json") == 2


@pytest.mark.parametrize("command, omega, n, message", [
    ("tables", "2pi*1", 300, "overflows at omega=6.28319, n_max=300: M5 or M6 "
                             "holds a value that is not finite"),
    ("basis", "0.5", 150, "overflows at omega=0.5, n_max=150: M5 or M6 holds "
                          "a value that is not finite"),
    ("tables", "2pi*20", 1000000, "n_max=1000000 is over the table degree "
                                  "limit of 2047"),
    ("basis", "2pi*20", 100000, "n_max=100000 is over the table degree limit "
                                "of 2047\n"),
], ids=["tables-overflow", "basis-overflow", "tables-over-limit",
        "basis-over-limit"])
def test_refused_build_writes_no_file(tmp_path, capsys, command, omega, n,
                                      message):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        rc = _run(command, "--omega", omega, "--n", n, "--out",
                  tmp_path / "out.json")
    assert rc == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    for d in (a, b):
        assert _run("tables", "--omega", "2pi*12", "--n", "6", "--out", d / "t.json") == 0
        assert _run("basis", "--omega", "2pi*12", "--n", "4", "--out", d / "basis.json") == 0
    assert (a / "t.json").read_bytes() == (b / "t.json").read_bytes()
    assert (a / "basis.json").read_bytes() == (b / "basis.json").read_bytes()
    ma = json.loads((a / "t.manifest.json").read_text())
    mb = json.loads((b / "t.manifest.json").read_text())
    ma.pop("duration_seconds")
    mb.pop("duration_seconds")
    # paths are recorded by name only, so the rest matches exactly
    assert {k: v for k, v in ma.items() if k != "parameters"} == {
        k: v for k, v in mb.items() if k != "parameters"
    }


def test_basis_reports_self_check(tmp_path, capsys):
    out = tmp_path / "basis.json"
    assert _run("basis", "--omega", "2pi*20", "--n", "6", "--out", out) == 0
    stdout = capsys.readouterr().out
    line = next(l for l in stdout.splitlines() if l.startswith("rho = "))
    rho = float(line.split("=")[-1])
    assert rho <= 1e-12
    basis = load_basis(out)
    assert basis.n_max == 6
    assert basis.a.shape[0] == 14


def test_basis_csv_format(tmp_path):
    out = tmp_path / "basis.csv"
    assert _run("basis", "--omega", "2pi*20", "--n", "3", "--out", out) == 0
    rows = out.read_text().splitlines()
    assert rows[0].startswith("c0,c1,")
    assert len(rows) == 9  # header plus 2(N+1) members


def test_basis_csv_default_out_takes_the_csv_suffix(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _run("basis", "--omega", "2pi*20", "--n", "3", "--out", "basis.csv") == 0
    assert not (tmp_path / "basis.json").exists()
    assert (tmp_path / "basis.csv").read_text().startswith("c0,c1,")
    manifest = json.loads((tmp_path / "basis.manifest.json").read_text())
    assert [o["path"] for o in manifest["outputs"]] == ["basis.csv"]
    # with no --out, basis writes the JSON document basis.json
    assert _run("basis", "--omega", "2pi*20", "--n", "3") == 0
    assert load_basis(tmp_path / "basis.json").n_max == 3


@pytest.mark.parametrize("command, omega", [("tables", "2pi*4"), ("basis", "2pi*20")])
def test_format_flag_is_gone(tmp_path, command, omega):
    # --out alone picks the format: a name ending in .csv writes CSV
    with pytest.raises(SystemExit) as exc:
        _run(command, "--omega", omega, "--n", "3", "--format", "csv",
             "--out", tmp_path / "x.json")
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_huge_integer_omega_exits_2_with_one_error_line(tmp_path, capsys):
    # 2 pi times a 401-digit k is no float: refused, not an OverflowError
    rc = _run("tables", "--omega", "2pi*1" + "0" * 400, "--n", "3",
              "--out", tmp_path / "t.json")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: exact multiple needs k >= 1 and 2*pi*k finite")
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_verify_refuses_a_file_that_is_not_json(tmp_path, capsys):
    # a CSV, and arrays nested past the JSON decoder's recursion limit
    basis = tmp_path / "b.json"
    _run("basis", "--omega", "2pi*20", "--n", "2", "--out", basis)
    capsys.readouterr()
    path = tmp_path / "bad.json"
    for text in ("c0,c1\n1,2\n", "[" * 200_000):
        path.write_text(text)
        for argv in (["verify", path],
                     ["project", "--basis", path, "--f", "exp", "--g", "one",
                      "--omega-raw", "2pi*20", "--out", tmp_path / "e.json"],
                     ["diff", "--basis", path, "--expansion", path,
                      "--out", tmp_path / "d.json"],
                     ["diff", "--basis", basis, "--expansion", path,
                      "--out", tmp_path / "d.json"]):
            assert _run(*argv) == 2
            assert f"{path} is not a JSON document" in capsys.readouterr().err


def test_basis_warns_outside_stable_regime(tmp_path):
    out = tmp_path / "marginal.json"
    with pytest.warns(StabilityWarning):
        rc = _run("basis", "--omega", "2pi*5", "--n", "24", "--out", out)
    assert rc == 0
    assert out.exists()


def test_basis_invalid_frequency(tmp_path):
    assert _run("basis", "--omega", "0", "--n", "4", "--out", tmp_path / "b.json") == 2


def test_verify_fresh_tables_pass(tmp_path, capsys):
    t = tmp_path / "t.json"
    _run("tables", "--omega", "2pi*8", "--n", "6", "--out", t)
    rc = _run("verify", t)
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
    report = json.loads((tmp_path / "t.verify.json").read_text())
    assert report["kind"] == "tables"
    assert report["passed"] is True


def test_verify_flags_corruption(tmp_path, capsys):
    # verify compares only what the tables store, so a moved pair of M5
    # entries is flagged at those two entries and nowhere else
    t = tmp_path / "t.json"
    _run("tables", "--omega", "2pi*20", "--n", "12", "--out", t)
    doc = json.loads(t.read_text())
    doc["m5"][3][7] += 1e-6
    doc["m5"][7][3] += 1e-6
    t.write_text(json.dumps(doc, indent=2) + "\n")
    rc = _run("verify", t, "--out", tmp_path / "report.json")
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out
    report = json.loads((tmp_path / "report.json").read_text())
    assert list(report["max_deviation_per_matrix"]) == ["m5", "m6"]
    assert [(f["matrix"], f["j"], f["k"]) for f in report["flagged_entries"]] == \
        [("m5", 3, 7), ("m5", 7, 3)]


def test_verify_zero_tolerance_fails_on_roundoff(tmp_path):
    t = tmp_path / "t.json"
    _run("tables", "--omega", "2pi*8", "--n", "4", "--out", t)
    assert _run("verify", t, "--tol", "0") == 1


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
@pytest.mark.parametrize("kind", ["tables", "basis"])
def test_verify_refuses_bad_tolerance(tmp_path, capsys, kind, tol):
    f = tmp_path / f"{kind}.json"
    assert _run(kind, "--omega", "2pi*20", "--n", "8", "--out", f) == 0
    capsys.readouterr()
    assert _run("verify", f, "--tol", tol) == 2
    assert f"got {float(tol)!r}" in capsys.readouterr().err
    assert not (tmp_path / f"{kind}.verify.json").exists()


def test_verify_basis_file(workdir):
    assert _run("verify", workdir / "basis.json") == 0
    report = json.loads((workdir / "basis.verify.json").read_text())
    assert report["kind"] == "basis"
    assert report["max_gram_deviation"] <= 1e-8


# the keys, in order, that readers of a verify report rely on
REPORT_KEYS = {
    "tables": ["schema_version", "kind", "input", "tolerance",
               "max_deviation_per_matrix", "flagged_entries", "passed"],
    "basis": ["schema_version", "kind", "input", "tolerance",
              "max_gram_deviation", "flagged_entries", "passed"],
}


@pytest.mark.parametrize("kind", ["tables", "basis"])
def test_verify_report_keys_in_order(tmp_path, kind):
    f = tmp_path / f"{kind}.json"
    assert _run(kind, "--omega", "2pi*8", "--n", "6", "--out", f) == 0
    assert _run("verify", f) == 0
    report = json.loads((tmp_path / f"{kind}.verify.json").read_text())
    assert list(report) == REPORT_KEYS[kind]
    assert report["kind"] == kind and report["flagged_entries"] == []


def test_verify_flags_perturbed_basis_member(workdir, tmp_path, capsys):
    doc = json.loads((workdir / "basis.json").read_text())
    doc["rows"][6]["a"][1] += 1e-6
    path = tmp_path / "perturbed.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert _run("verify", path) == 1
    out = capsys.readouterr().out
    assert out.startswith("verify basis: max |G - I| = ") and "-> FAIL" in out
    report = json.loads((tmp_path / "perturbed.verify.json").read_text())
    assert list(report) == REPORT_KEYS["basis"]
    assert report["passed"] is False
    assert report["max_gram_deviation"] > 1e-10
    flagged = report["flagged_entries"]
    assert flagged and all(list(f) == ["i", "j", "deviation"] for f in flagged)
    # only row and column 6 of the Gram move, symmetrically
    pairs = {(f["i"], f["j"]) for f in flagged}
    assert all(6 in pair for pair in pairs)
    assert pairs == {(j, i) for i, j in pairs}


def test_verify_rejects_unrelated_json(tmp_path):
    bad = tmp_path / "other.json"
    bad.write_text('{"foo": 1}\n')
    assert _run("verify", bad) == 2


def test_verify_refuses_nan_tables(tmp_path, capsys):
    t = tmp_path / "t.json"
    _run("tables", "--omega", "2pi*8", "--n", "6", "--out", t)
    doc = json.loads(t.read_text())
    doc["m5"][2][3] = float("nan")
    t.write_text(json.dumps(doc))
    assert _run("verify", t) == 2
    assert "non-finite" in capsys.readouterr().err


def test_verify_names_the_nesting_of_a_payload_past_numpy_dimensions(tmp_path, capsys):
    # numpy refuses lists nested past its dimension limit as it refuses a
    # ragged list; the message names the depth against the expected one
    t = tmp_path / "t.json"
    _run("tables", "--omega", "2pi*8", "--n", "0", "--out", t)
    doc = json.loads(t.read_text())
    for _ in range(898):
        doc["m5"] = [doc["m5"]]
    t.write_text(json.dumps(doc))
    capsys.readouterr()
    assert _run("verify", t) == 2
    err = capsys.readouterr().err
    assert "m5 is nested 900 levels deep, expected 2 dimensions" in err
    assert "ragged" not in err


def _drop_m6(doc):
    del doc["m6"]


def _drop_row_b(doc):
    del doc["rows"][3]["b"]


def _future_schema(doc):
    doc["schema_version"] = 99


def _old_schema(doc):
    doc["schema_version"] = 1


def _drop_row(doc):
    doc["rows"].pop()


def _lengthen_row(doc):
    doc["rows"][2]["a"].append(0.5)
    doc["rows"][2]["b"].append(0.0)


def _empty_m6(doc):
    doc["m6"] = {}


def _asymmetric_m5(doc):
    doc["m5"][1][2] += 1e-3


def _m5_off_parity(doc):
    doc["m5"][1][2] = doc["m5"][2][1] = 1e-3


def _m6_off_parity(doc):
    doc["m6"][4][4] = 1e-3


def _nan_epsilon(doc):
    doc["epsilon"] = float("nan")


def _nan_norm(doc):
    doc["norms"][4] = float("nan")


def _string_alpha(doc):
    doc["rec"][2]["alpha"] = "0.5"


@pytest.mark.parametrize("kind, corrupt, message", [
    ("tables", _drop_m6, "m6"),
    ("basis", _drop_row_b, "row 3"),
    ("tables", _future_schema, "schema_version 99"),
    ("basis", _future_schema, "schema_version 99"),
    ("tables", _old_schema, "schema_version 1, expected 2"),
    ("basis", _old_schema, "schema_version 1, expected 2"),
    ("basis", _drop_row, "basis a has shape (17, 9)"),
    ("basis", _lengthen_row, "row 2 has 3 coefficients"),
    ("tables", _empty_m6, "m6 is not a numeric array"),
    ("tables", _asymmetric_m5, "m5 is not symmetric"),
    ("tables", _m5_off_parity, "m5[1][2] = 0.001 is nonzero at odd j + k"),
    ("tables", _m6_off_parity, "m6[4][4] = 0.001 is nonzero at even j + k"),
    ("tables", _nan_epsilon, "epsilon must satisfy |epsilon| <= pi, got nan"),
    ("basis", _nan_epsilon, "epsilon must satisfy |epsilon| <= pi, got nan"),
    ("basis", _nan_norm, "basis norms has non-finite entries"),
    ("basis", _string_alpha, "rec is not a numeric array"),
])
def test_verify_refuses_malformed_document(tmp_path, capsys, kind, corrupt,
                                           message):
    path = tmp_path / f"{kind}.json"
    _run(kind, "--omega", "2pi*20", "--n", "8", "--out", path)
    doc = json.loads(path.read_text())
    corrupt(doc)
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert _run("verify", path) == 2
    assert message in capsys.readouterr().err


def test_verify_refuses_expansion_document(workdir, tmp_path, capsys):
    exp_path = tmp_path / "exp.json"
    assert _run("project", "--basis", workdir / "basis.json", "--f", "zero",
                "--g", "one", "--omega-raw", "2pi*20", "--out", exp_path) == 0
    capsys.readouterr()
    assert _run("verify", exp_path) == 2
    assert "holds Expansion, not OscBasis or InnerProductTables" in \
        capsys.readouterr().err


def test_verify_refuses_oracle_rule_over_node_budget(tmp_path, capsys):
    # the tables command refuses this frequency, so the file is written here
    path = save(build_tables(parse_omega_spec("1e308"), 2), tmp_path / "huge.json")
    assert _run("verify", path) == 2
    assert "over the budget of 16777216" in capsys.readouterr().err


@pytest.mark.parametrize("command, omega", [
    ("tables", "1e308"),
    ("tables", "6e5"),
    ("basis", "2pi*100000"),
])
def test_command_refuses_frequency_its_verify_cannot_check(command, omega,
                                                           tmp_path, capsys):
    out = tmp_path / f"{command}.json"
    assert _run(command, "--omega", omega, "--n", "2", "--out", out) == 2
    assert "over the budget of 16777216" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_tables_accepts_frequency_just_inside_the_node_budget(tmp_path):
    # 4 * 5.4e5 / pi panels of 24 nodes: 1.65e7 of the 2^24 budget
    assert _run("tables", "--omega", "5.4e5", "--n", "2",
                "--out", tmp_path / "t.json") == 0


def test_verify_missing_file_is_io_error(tmp_path):
    assert _run("verify", tmp_path / "nope.json") == 3


def test_project_pure_cosine(workdir, tmp_path):
    out = tmp_path / "exp.json"
    rc = _run(
        "project", "--basis", workdir / "basis.json", "--f", "zero", "--g", "one",
        "--omega-raw", "2pi*20", "--out", out,
    )
    assert rc == 0
    report = json.loads((tmp_path / "exp.report.json").read_text())
    assert report["reduced_k"] == 20
    assert report["epsilon"] == 0.0
    assert report["residual_norm"] <= 1e-9
    decay = report["coefficient_decay"]
    assert len(decay) == 18
    assert decay[0]["abs_coeff"] == pytest.approx(1.0, rel=1e-9)


def test_project_reduces_raw_frequency(workdir, tmp_path, caplog):
    out = tmp_path / "exp.json"
    omega_raw = repr(TWO_PI * 20 + 0.3)
    with caplog.at_level(logging.INFO, logger="oscbasis.approx"):
        rc = _run(
            "project", "--basis", workdir / "basis.json", "--f", "exp", "--g", "one",
            "--omega-raw", omega_raw, "--out", out,
        )
    assert rc == 0
    assert "reduced omega_raw" in caplog.text
    report = json.loads((tmp_path / "exp.report.json").read_text())
    assert report["reduced_k"] == 20
    assert report["epsilon"] == pytest.approx(0.3, abs=1e-12)
    assert report["residual_norm"] <= 1e-6


def test_project_rejects_unknown_envelope(workdir, tmp_path):
    with pytest.raises(SystemExit) as exc:
        _run(
            "project", "--basis", workdir / "basis.json", "--f", "bogus", "--g", "one",
            "--omega-raw", "2pi*20", "--out", tmp_path / "e.json",
        )
    assert exc.value.code == 2


def test_project_frequency_must_match_basis(workdir, tmp_path):
    rc = _run(
        "project", "--basis", workdir / "basis.json", "--f", "one", "--g", "one",
        "--omega-raw", "2pi*21", "--out", tmp_path / "e.json",
    )
    assert rc == 2


def test_project_onto_basis_off_the_2pi_grid(tmp_path):
    # a basis at omega = 12.0 (k = 2, epsilon = -0.57) takes targets at its
    # own frequency and within pi of it, and its expansions differentiate
    basis_path = tmp_path / "basis.json"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        assert _run("basis", "--omega", "12.0", "--n", "9", "--out", basis_path) == 0
    assert _run("verify", basis_path) == 0
    basis = load_basis(basis_path)
    rule = composite_rule(12.0, OracleConfig(6, 32))
    E = member_values(basis, rule.nodes)
    for omega_raw in ("12.0", "12.3"):
        out = tmp_path / f"exp_{omega_raw}.json"
        assert _run("project", "--basis", basis_path, "--f", "exp", "--g", "runge",
                    "--omega-raw", omega_raw, "--out", out) == 0
        report = json.loads(out.with_suffix(".report.json").read_text())
        assert report["reduced_k"] == 2
        assert report["epsilon"] == float(omega_raw) - 12.0
        target = OscTarget(f_env=ENVELOPES["exp"], g_env=ENVELOPES["runge"],
                           freq_raw=float(omega_raw))
        want = E @ (rule.weights * target.evaluate(rule.nodes))
        got = np.array(json.loads(out.read_text())["coeffs"])
        assert np.max(np.abs(got - want)) <= 1e-12
        assert _run("diff", "--basis", basis_path, "--expansion", out,
                    "--out", tmp_path / f"d_{omega_raw}.json") == 0


def test_diff_differentiates_first_member(workdir, tmp_path, capsys):
    basis = load_basis(workdir / "basis.json")
    coeffs = np.zeros(18)
    coeffs[0] = 1.0
    exp_path = tmp_path / "e0.json"
    save(Expansion(basis.freq, basis.n_max, basis.content_hash(), coeffs),
         exp_path)
    out = tmp_path / "d.json"
    rc = _run("diff", "--basis", workdir / "basis.json", "--expansion", exp_path, "--out", out)
    assert rc == 0
    deriv = json.loads(out.read_text())
    # d/dx p0 = -omega q0 at an exact multiple
    assert deriv["coeffs"][1] == pytest.approx(-TWO_PI * 20, rel=1e-9)
    report = json.loads((tmp_path / "d.report.json").read_text())
    assert report["similarity_residual"] <= 1e-9
    assert report["max_fd_relative_deviation"] <= 1e-5
    assert report["fd_points"] == 21
    assert "deviation" in capsys.readouterr().out


def test_diff_rejects_mismatched_expansion(workdir, tmp_path, capsys):
    basis = load_basis(workdir / "basis.json")
    exp_path = tmp_path / "stale.json"
    save(Expansion(basis.freq, basis.n_max, "0" * 64, np.zeros(18)), exp_path)
    capsys.readouterr()
    rc = _run("diff", "--basis", workdir / "basis.json", "--expansion", exp_path,
              "--out", tmp_path / "d.json")
    assert rc == 2
    want = (f"error: expansion was computed against basis {'0' * 12}..., "
            f"got basis {basis.content_hash()[:12]}...\n")
    assert capsys.readouterr().err == want
    assert not (tmp_path / "d.json").exists()


def _wrong_parity_basis(workdir, path, value):
    """The workdir basis file with q_4's cosine coefficient at degree 4 set
    to value; q_4 (row 9) has odd parity, so that coefficient must be 0."""
    doc = json.loads((workdir / "basis.json").read_text())
    doc["rows"][9]["a"][4] = value
    path.write_text(json.dumps(doc))
    return path


def _expansion_file(workdir, path):
    basis = load_basis(workdir / "basis.json")
    save(Expansion(basis.freq, basis.n_max, basis.content_hash(),
                   np.ones(18)), path)
    return path


def test_diff_refuses_wrong_parity_coefficient(workdir, tmp_path, capsys):
    # the loader refuses the basis before the expansion's hash is compared
    broken = _wrong_parity_basis(workdir, tmp_path / "broken.json", 1e-3)
    exp_path = _expansion_file(workdir, tmp_path / "e.json")
    rc = _run("diff", "--basis", broken, "--expansion", exp_path,
              "--out", tmp_path / "d.json")
    assert rc == 2
    assert ("basis member 9 (q_4) has cosine coefficient 0.001 at degree 4"
            in capsys.readouterr().err)
    assert not (tmp_path / "d.json").exists()


@pytest.mark.parametrize("command", ["project", "verify", "diff"])
def test_commands_refuse_tiny_wrong_parity_coefficient(workdir, tmp_path, capsys,
                                                       command):
    # 1e-14 is below the oracle's verify tolerance, so only the parity
    # check can refuse it; every command that loads the basis does
    broken = _wrong_parity_basis(workdir, tmp_path / "broken.json", 1e-14)
    out = tmp_path / "out.json"
    args = {
        "project": ["--basis", broken, "--f", "exp", "--g", "one",
                    "--omega-raw", "2pi*20"],
        "verify": [broken],
        "diff": ["--basis", broken, "--expansion",
                 _expansion_file(workdir, tmp_path / "e.json")],
    }[command]
    rc = _run(command, *args, "--out", out)
    assert rc == 2
    assert ("error: basis member 9 (q_4) has cosine coefficient 1e-14 at degree "
            "4, where its parity requires 0" in capsys.readouterr().err)
    # no output, report or manifest
    assert not list(tmp_path.glob("out*"))


def test_diff_refuses_wrong_parity_nan(workdir, tmp_path, capsys):
    # a NaN does not get as far as the parity check: the loader refuses it
    doc = json.loads((workdir / "basis.json").read_text())
    doc["rows"][9]["a"][4] = float("nan")
    (tmp_path / "nan.json").write_text(json.dumps(doc))
    basis = load_basis(workdir / "basis.json")
    exp_path = tmp_path / "e.json"
    save(Expansion(basis.freq, basis.n_max, basis.content_hash(),
                   np.ones(18)), exp_path)
    rc = _run("diff", "--basis", tmp_path / "nan.json", "--expansion", exp_path,
              "--out", tmp_path / "d.json")
    assert rc == 2
    assert "basis row 9 (a, b) has non-finite entries" in capsys.readouterr().err
    assert not (tmp_path / "d.json").exists()


@pytest.mark.parametrize("command", ["project", "diff"])
def test_commands_refuse_basis_with_k_over_int64(workdir, tmp_path, capsys,
                                                 command):
    # the frequency itself is consistent; only the basis hash cannot hold k
    doc = json.loads((workdir / "basis.json").read_text())
    doc.update(k=2 ** 63, omega=TWO_PI * 2 ** 63, epsilon=0.0)
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(doc))
    args = {
        "project": ["--f", "exp", "--g", "one", "--omega-raw", f"2pi*{2 ** 63}"],
        "diff": ["--expansion", _expansion_file(workdir, tmp_path / "e.json")],
    }[command]
    capsys.readouterr()
    assert _run(command, "--basis", huge, *args, "--out", tmp_path / "out.json") == 2
    assert (f"error: k={2 ** 63} overflows the int64 of the basis hash"
            in capsys.readouterr().err)
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("command", ["verify", "project"])
def test_commands_refuse_operator_document(tmp_path, capsys, command):
    # no command reads or writes d_orth; it is recomputed from the basis
    path = tmp_path / "op.json"
    path.write_text(json.dumps({
        "schema_version": 2, "omega": TWO_PI * 5, "k": 5, "epsilon": 0.0,
        "n_max": 0, "d_orth": [[0.0, TWO_PI * 5], [-TWO_PI * 5, 0.0]]}))
    args = {"verify": [path],
            "project": ["--basis", path, "--f", "exp", "--g", "one",
                        "--omega-raw", "2pi*5"]}[command]
    assert _run(command, *args, "--out", tmp_path / "out.json") == 2
    assert "not a tables, basis or expansion document" in capsys.readouterr().err


def test_diff_refuses_a_basis_with_a_singular_class_block(tmp_path, capsys):
    assert _run("basis", "--omega", "2pi*20", "--n", "6", "--out", tmp_path / "b.json") == 0
    doc = json.loads((tmp_path / "b.json").read_text())
    doc["rows"][4]["a"][2] = 0.0
    (tmp_path / "b.json").write_text(json.dumps(doc))
    basis = load_basis(tmp_path / "b.json")
    save(Expansion(basis.freq, basis.n_max, basis.content_hash(),
                   np.ones(14)), tmp_path / "e.json")
    capsys.readouterr()
    assert _run("diff", "--basis", tmp_path / "b.json", "--expansion",
                tmp_path / "e.json", "--out", tmp_path / "d.json") == 2
    assert "representation matrix is singular" in capsys.readouterr().err
    assert not (tmp_path / "d.json").exists()
