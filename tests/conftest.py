import importlib.util
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from oscbasis import Frequency, build_basis, build_tables
from oscbasis.approx import sample
from oscbasis.oracle import composite_rule, member_gram, oracle_tables
from oscbasis.tables import gram_matrix

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture(scope="session")
def freq20():
    return Frequency.exact(20)


@pytest.fixture(scope="session")
def tables20(freq20):
    # n_max 17 covers basis construction up to N = 16
    return build_tables(freq20, 17)


@pytest.fixture(scope="session")
def basis20(freq20, tables20):
    return build_basis(freq20, 12, tables20)


@pytest.fixture(scope="session")
def quad():
    """F integrated over [-1, 1] by the oracle's composite rule for omega."""
    def quad(F, omega):
        rule = composite_rule(omega)
        return float(np.sum(rule.weights * sample(F, rule.nodes)))
    return quad


def _unit_modes(n):
    """(A, B) of the unit modes P_0 cos(wx) ... P_{n-1} cos(wx), then
    P_0 sin(wx) ... P_{n-1} sin(wx)."""
    I, Z = np.eye(n), np.zeros((n, n))
    return np.vstack([I, Z]), np.vstack([Z, I])


def _blocks(G, n):
    """The blocks of a unit-mode Gram [[M3, M2], [M2^T, M4]] by name."""
    return {"m2": G[:n, n:], "m3": G[:n, :n], "m4": G[n:, n:]}


@pytest.fixture(scope="session")
def oracle_reference():
    """oracle_reference(freq, n_max) is m2 ... m6 by quadrature: m5 and m6
    from oracle_tables, and m2, m3 and m4 as the blocks of the member Gram
    of the unit modes P_j cos(wx) and P_j sin(wx)."""
    def reference(freq, n_max):
        G = member_gram(_unit_modes(n_max + 1), freq.omega)
        return {**_blocks(G, n_max + 1), **oracle_tables(freq, n_max)}
    return reference


@pytest.fixture(scope="session")
def unit_gram():
    """unit_gram(tables) is gram_matrix over the tables of the unit modes,
    P_j cos(wx) then P_j sin(wx): the 2(N+1)-square [[M3, M2], [M2^T, M4]]."""
    return lambda tables: gram_matrix(_unit_modes(tables.n_max + 1), tables)


@pytest.fixture(scope="session")
def table_blocks(unit_gram):
    """table_blocks(tables) is m2 ... m6 keyed as oracle_reference keys
    them: m2, m3 and m4 the blocks of unit_gram(tables), m5 and m6 the
    tables' own."""
    def blocks(tables):
        return {**_blocks(unit_gram(tables), tables.n_max + 1),
                "m5": tables.m5, "m6": tables.m6}
    return blocks


@pytest.fixture(scope="session")
def script():
    """script(name) is scripts/<name>.py loaded as a module, once per name."""
    @cache
    def load(name):
        spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    return load


@pytest.fixture(scope="session")
def cond():
    """max|lambda| / min|lambda| of a symmetric matrix."""
    def cond(G):
        eigs = np.abs(np.linalg.eigvalsh(0.5 * (G + G.T)))
        return float(eigs.max() / eigs.min())
    return cond
