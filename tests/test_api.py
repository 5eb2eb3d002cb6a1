"""The names and call forms the benchmark harness under bench/ takes from
oscbasis, so that a cleanup cannot break the harness without a failing
test."""

import json

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
