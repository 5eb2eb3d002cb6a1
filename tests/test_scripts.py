"""Smoke runs of the experiment scripts at desk size."""

import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import oscbasis
from oscbasis import ENVELOPES, OscTarget, reduce_frequency
from oscbasis.frequency import TWO_PI

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _proc(script, args):
    # run against the package under test, wherever it was imported from
    package_root = str(Path(oscbasis.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    # as in the test suite's own warning filter
    env["PYTHONWARNINGS"] = "error::RuntimeWarning"
    return subprocess.run([sys.executable, str(SCRIPTS / script), *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120)


def _run(script, args):
    proc = _proc(script, args)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines and lines[-1].strip()
    return lines


@pytest.mark.parametrize("script, args", [
    ("monic_decay.py", ["--omega", "2pi*20", "--n", "10"]),
    ("stability_sweep.py", ["--periods", "5,20", "--degrees", "4,8"]),
    ("frequency_cost.py", ["--periods", "20,50", "--plain-cap", "400"]),
    ("construct_cost.py", ["--cells", "20:12,3:20", "--repeats", "2"]),
    ("approx_cost.py", ["--periods", "20.3", "--repeats", "1"]),
])
def test_script_runs(script, args):
    _run(script, args)


def test_stability_sweep_prints_rho_next_to_each_deviation():
    lines = _run("stability_sweep.py", ["--periods", "20", "--degrees", "4,8"])
    cells = lines[-1].split()
    assert cells[0] == "2pi*20"
    for cell in cells[1:]:
        assert re.fullmatch(r"\d\.\d{3}e[-+]\d+/\d\.\de[-+]\d+", cell), cell


def test_stability_sweep_names_the_member_and_goes_on_past_refused_tables():
    # 2pi*3 degenerates at row 40, p_20; at N = 200 its table recursion
    # overflows, and the sweep prints that cell and goes on
    lines = _run("stability_sweep.py", ["--periods", "3,20", "--degrees", "20,200"])
    assert lines[-2].split() == ["2pi*3", "degenerate@40(p_20)", "refused@tables"]
    assert lines[-1].split()[0] == "2pi*20"


def test_frequency_cost_degree_is_flat_at_a_tight_tolerance():
    # at 1e-9 the residual must come from the expansion itself: a
    # ||F||^2 - sum c^2 figure bottoms out near 2e-8 and hides the degree
    lines = _run("frequency_cost.py", ["--tol", "1e-9", "--periods", "20,200",
                                       "--plain-cap", "400"])
    rows = [line.split() for line in lines[-2:]]
    assert [row[0] for row in rows] == ["2pi*20", "2pi*200"]
    assert rows[0][1] != "None"
    assert rows[0][1] == rows[1][1]


def test_frequency_cost_samples_each_target_once(script):
    # the trimmed expansions keep the projection's samples, so residual_norm
    # does not sample the envelopes again for each trial degree (up to 13
    # samplings per row when each trim was a new Expansion)
    smallest_osc_degree = script("frequency_cost").smallest_osc_degree
    calls = Counter()

    def counted(name):
        def env(x):
            calls[name] += 1
            return ENVELOPES[name](x)
        return env

    for periods in (20.3, 200.3, 2000.3):
        calls.clear()
        target = OscTarget(f_env=counted("exp"), g_env=counted("one"),
                           freq_raw=TWO_PI * periods)
        freq, _ = reduce_frequency(target)
        assert smallest_osc_degree(freq, target, 1e-6) == 9
        assert calls == {"exp": 1, "one": 1}


def test_construct_cost_prints_every_layer_and_rho():
    lines = _run("construct_cost.py", ["--cells", "20:12,3:20", "--repeats", "2"])
    header, ok, refused = lines[-3].split(), lines[-2].split(), lines[-1].split()
    for name in ("tables", "basis", "basis_reorth", "to_orth", "sim_res", "save",
                 "load", "hash", "us/pair", "rho", "max|G-I|", "gram_ms"):
        assert name in header
    assert "d_legtrig" not in header
    # the transform's accuracy figure sits next to its time
    assert header.index("sim_res") == header.index("to_orth") + 1
    assert ok[0] == "2pi*20:12" and len(ok) == 13
    assert all(float(ms) > 0.0 for ms in ok[1:5] + ok[6:10])
    # sim_res is the similarity residual max|B_{1-c} X_c - D B_c| in 12.2e
    # format; at 2pi*20, N = 12 it is a few ulps of the largest entry
    assert re.fullmatch(r"\d\.\d{2}e[-+]\d{2}", ok[5]), ok[5]
    assert 0.0 <= float(ok[5]) <= 1e-9
    # us/pair is the basis median over the N = 12 recurrence steps
    assert float(ok[9]) == pytest.approx(1e3 * float(ok[2]) / 12, rel=1e-2, abs=0.01)
    # rho and the oracle deviation, each in 9.2e format; at 2pi*20, N = 12
    # the plain basis is orthonormal to about 1e-15
    for cell in ok[10:12]:
        assert re.fullmatch(r"\d\.\d{2}e[-+]\d{2}", cell), cell
    assert 0.0 < float(ok[11]) <= 1e-12
    # the one member_gram call that gives max|G-I|, in milliseconds
    assert float(ok[12]) > 0.0
    # at 2pi*3, N = 20 the plain build is refused, so there is no transform
    # and no rho; the refused build is still timed, per pair as well
    assert refused[0] == "2pi*3:20" and refused[-1] == "refused"
    assert refused[4:9] == ["-"] * 5
    assert float(refused[9]) > 0.0


def _assert_ratio(this, other, ratio, digits):
    # ratio = this / against, up to the rounding of the three printed figures
    this, other, ratio = float(this), float(other), float(ratio)
    half = 0.5 * 10.0 ** -digits
    assert this > 0.0 and other > half
    low, high = (this - half) / (other + half), (this + half) / (other - half)
    assert low - 5e-4 <= ratio <= high + 5e-4


CONSTRUCT_LAYERS = ("tables", "basis", "basis_reorth", "to_orth", "save", "load", "hash")


def test_construct_cost_against_a_checkout_prints_both_medians_and_ratio():
    # the checkout this test file is in, imported beside the package under test
    root = Path(__file__).resolve().parents[1]
    lines = _run("construct_cost.py", ["--cells", "20:12,3:20", "--repeats", "2",
                                       "--against", root])
    assert lines[0].split()[:5] == ["cell", "layer", "this_ms", "against_ms", "ratio"]
    rows = [line.split() for line in lines[1:]]
    # every layer of the single-tree table, in its order, for each cell
    assert [row[:2] for row in rows] == [[cell, name] for cell in ("2pi*20:12", "2pi*3:20")
                                         for name in CONSTRUCT_LAYERS]
    for _, _, this, other, ratio in rows[:10]:
        _assert_ratio(this, other, ratio, 3)
    # at 2pi*3, N = 20 the plain build is refused in both trees: its time to
    # the refusal is printed, and nothing after it is timed
    assert [row[2:] for row in rows[10:]] == [["-"] * 3] * 4


def test_approx_cost_prints_every_layer_and_the_residual():
    lines = _run("approx_cost.py", ["--periods", "20.3,2000.3", "--repeats", "2"])
    header, rows = lines[-3].split(), [line.split() for line in lines[-2:]]
    for name in ("analysis", "filon_w", "project", "residual",
                 "residual_fresh", "project_fresh", "content_hash",
                 "eval_2001_first", "eval_2001_again", "eval_scalar"):
        assert name in header
    assert [row[0] for row in rows] == ["20.3", "2000.3"]
    for row in rows:
        assert len(row) == 12
        assert all(float(ms) > 0.0 for ms in row[1:11])
        # exp / runge at N = 12: the residual does not depend on omega
        assert re.fullmatch(r"\d\.\d{2}e[-+]\d{2}", row[11]), row[11]
        assert 1e-3 < float(row[11]) < 1.0


def test_approx_cost_against_a_checkout_prints_both_medians_and_ratio():
    # the checkout this test file is in, imported beside the package under test
    root = Path(__file__).resolve().parents[1]
    lines = _run("approx_cost.py", ["--periods", "20.3,2000.3", "--repeats", "2",
                                    "--against", root])
    assert lines[0].split()[:5] == ["periods", "layer", "this_ms", "against_ms",
                                    "ratio"]
    rows = [line.split() for line in lines[1:]]
    # every layer of the single-tree table, in its order, for each frequency
    assert [row[:2] for row in rows] == [
        [periods, name] for periods in ("20.3", "2000.3")
        for name in ("analysis", "filon_w", "project", "residual", "residual_fresh",
                     "project_fresh", "content_hash", "eval_2001_first",
                     "eval_2001_again", "eval_scalar")]
    for _, _, this, other, ratio in rows:
        _assert_ratio(this, other, ratio, 4)


def test_hilbert_demo_single_mode(tmp_path):
    out = tmp_path / "demo.csv"
    _run("hilbert_demo.py", ["--n", "0", "--omegas", "2pi*10", "--out", out])
    header, row = out.read_text().splitlines()
    assert header == "omega,max_dev_from_limit,cond_monomial_gram,cond_legtrig_gram"
    omega, dev, cond_m, cond_l = (float(v) for v in row.split(","))
    assert omega == TWO_PI * 10
    assert cond_m == pytest.approx(1.0, rel=1e-12)
    assert cond_l == pytest.approx(1.0, rel=1e-12)
    assert dev <= 1e-2


def test_hilbert_demo_deviation_shrinks_with_frequency(tmp_path):
    out = tmp_path / "demo.csv"
    _run("hilbert_demo.py", ["--n", "5", "--omegas", "2pi*10,2pi*100", "--out", out])
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    devs = [float(r[1]) for r in rows]
    assert devs[0] > devs[1]


def _demo_refusal(tmp_path, n, omegas):
    """stderr of a demo run that must exit 2 and write nothing."""
    proc = _proc("hilbert_demo.py", ["--n", n, "--omegas", omegas,
                                     "--out", tmp_path / "d.csv"])
    assert proc.returncode == 2
    assert list(tmp_path.iterdir()) == []
    return proc.stderr


def test_hilbert_demo_rejects_large_n(tmp_path):
    assert "error: --n must be between 0 and 12 (desk scale), got 13" in \
        _demo_refusal(tmp_path, 13, "2pi*10")


def test_hilbert_demo_refuses_oracle_rule_over_node_budget(tmp_path):
    assert "over the budget of 16777216" in _demo_refusal(tmp_path, 2, "1e308")


def test_hilbert_demo_refuses_an_empty_frequency_list(tmp_path):
    assert "error: --omegas must list at least one frequency" in \
        _demo_refusal(tmp_path, 2, ",")
