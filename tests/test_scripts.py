"""Smoke runs of the experiment scripts at desk size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import oscbasis

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script, args", [
    ("monic_decay.py", ["--omega", "2pi*20", "--n", "10"]),
    ("stability_sweep.py", ["--periods", "5,20", "--degrees", "4,8"]),
    ("frequency_cost.py", ["--periods", "20,50", "--plain-cap", "400"]),
])
def test_script_runs(script, args):
    # run against the package under test, wherever it was imported from
    package_root = str(Path(oscbasis.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines and lines[-1].strip()
