"""The names and call forms the benchmark harness under bench/ takes from
oscbasis, together with representation_matrix and documents.save, so that a
cleanup cannot break the harness without a failing test; and the standing
rule that numpy is the package's only runtime dependency."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import oscbasis
from oscbasis import (ENVELOPES, BasisDegenerationError, Frequency, OscTarget,
                      build_basis, build_tables, derivative_matrix_legtrig,
                      evaluate_expansion, gram_matrix, load_basis,
                      load_expansion, load_tables, project, reduce_frequency,
                      residual_norm, save_basis, to_orthogonal_basis,
                      verify_tables)
from oscbasis.basis import member_values, representation_matrix
from oscbasis.documents import save
from oscbasis.legendre import legendre_table
from oscbasis.oracle import OracleConfig, composite_rule, member_gram


def test_bench_names_and_call_forms(tmp_path):
    assert issubclass(BasisDegenerationError, Exception)
    assert callable(legendre_table) and callable(derivative_matrix_legtrig)
    freq = Frequency.exact(20)
    tables = build_tables(freq, 9)
    basis = build_basis(freq, 8, tables)
    G = gram_matrix(basis.rep, tables)
    assert np.max(np.abs(G - np.eye(18))) <= 1e-12
    assert np.max(np.abs(member_gram(basis.rep, freq.omega) - G)) <= 1e-12
    nodes = composite_rule(freq.omega, OracleConfig(6, 32)).nodes
    assert member_values(basis, nodes).shape == (18, nodes.size)
    assert verify_tables(load_tables(save(tables, tmp_path / "t.json")),
                         1e-10).passed
    doc = json.loads((tmp_path / "t.json").read_text())
    assert doc["n_max"] == 9 and np.asarray(doc["m5"]).shape == (10, 10)
    loaded = load_basis(save_basis(basis, tmp_path / "b.json"))
    assert loaded.content_hash() == basis.content_hash()
    target = OscTarget(f_env=ENVELOPES["zero"], g_env=ENVELOPES["one"],
                       freq_raw=freq.omega + 0.1)
    _, reduced = reduce_frequency(target)
    exp = load_expansion(save(project(reduced, loaded), tmp_path / "e.json"))
    assert residual_norm(reduced, exp, loaded) <= 1e-6
    assert np.isfinite(evaluate_expansion(exp, loaded, 0.3))
    op = to_orthogonal_basis(derivative_matrix_legtrig(freq, 8), loaded)
    assert op.similarity_residual <= 1e-9
    M = representation_matrix(loaded).T
    DB = op.d_legtrig @ M
    assert np.max(np.abs(M @ op.d_orth - DB)) <= 1e-9 * np.max(np.abs(DB))


def test_every_exported_name_resolves():
    missing = [name for name in oscbasis.__all__ if not hasattr(oscbasis, name)]
    assert not missing


def test_every_name_the_bench_imports_resolves():
    bench = Path(__file__).resolve().parents[1] / "bench"
    names = [(node.module, alias.name)
             for path in sorted(bench.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ImportFrom) and node.level == 0
             and node.module.split(".")[0] == "oscbasis"
             for alias in node.names]
    assert names
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(module), name)]
    assert not missing


def test_numpy_is_the_only_runtime_dependency():
    # a fresh interpreter, so that nothing the tests loaded is counted
    package_root = str(Path(oscbasis.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    code = ("import sys; before = set(sys.modules); import oscbasis, oscbasis.cli; "
            "print(*sorted({name.split('.')[0] for name in set(sys.modules) - before}))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert {"numpy", "oscbasis"} <= added
    assert added - sys.stdlib_module_names <= {"numpy", "oscbasis"}
