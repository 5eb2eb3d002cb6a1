"""Smoke runs of the experiment scripts at desk size."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import oscbasis

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(script, args):
    # run against the package under test, wherever it was imported from
    package_root = str(Path(oscbasis.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    # as in the test suite's own warning filter
    env["PYTHONWARNINGS"] = "error::RuntimeWarning"
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          env=env, capture_output=True, text=True, timeout=120)
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


def test_frequency_cost_degree_is_flat_at_a_tight_tolerance():
    # at 1e-9 the residual must come from the expansion itself: a
    # ||F||^2 - sum c^2 figure bottoms out near 2e-8 and hides the degree
    lines = _run("frequency_cost.py", ["--tol", "1e-9", "--periods", "20,200",
                                       "--plain-cap", "400"])
    rows = [line.split() for line in lines[-2:]]
    assert [row[0] for row in rows] == ["2pi*20", "2pi*200"]
    assert rows[0][1] != "None"
    assert rows[0][1] == rows[1][1]


def test_construct_cost_prints_every_layer_and_rho():
    lines = _run("construct_cost.py", ["--cells", "20:12,3:20", "--repeats", "2"])
    header, ok, refused = lines[-3].split(), lines[-2].split(), lines[-1].split()
    for name in ("tables", "basis", "basis_reorth", "to_orth", "save", "load",
                 "hash", "rho", "max|G-I|"):
        assert name in header
    assert "d_legtrig" not in header
    assert ok[0] == "2pi*20:12" and len(ok) == 10
    assert all(float(ms) > 0.0 for ms in ok[1:8])
    # rho and the oracle deviation, each in 9.2e format; at 2pi*20, N = 12
    # the plain basis is orthonormal to about 1e-15
    for cell in ok[8:]:
        assert re.fullmatch(r"\d\.\d{2}e[-+]\d{2}", cell), cell
    assert 0.0 < float(ok[9]) <= 1e-12
    # at 2pi*3, N = 20 the plain build is refused, so there is no rho
    assert refused[0] == "2pi*3:20" and refused[-1] == "refused"


def test_approx_cost_prints_every_layer_and_the_residual():
    lines = _run("approx_cost.py", ["--periods", "20.3,2000.3", "--repeats", "2"])
    header, rows = lines[-3].split(), [line.split() for line in lines[-2:]]
    for name in ("analysis", "filon_w", "project", "residual",
                 "residual_fresh", "project_fresh", "content_hash",
                 "eval_2001", "eval_scalar"):
        assert name in header
    assert [row[0] for row in rows] == ["20.3", "2000.3"]
    for row in rows:
        assert len(row) == 11
        assert all(float(ms) > 0.0 for ms in row[1:10])
        # exp / runge at N = 12: the residual does not depend on omega
        assert re.fullmatch(r"\d\.\d{2}e[-+]\d{2}", row[10]), row[10]
        assert 1e-3 < float(row[10]) < 1.0
