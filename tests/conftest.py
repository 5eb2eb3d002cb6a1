import importlib.util
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from oscbasis import Frequency, build_basis, build_tables
from oscbasis.approx import sample
from oscbasis.oracle import composite_rule, member_gram, oracle_tables

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


@pytest.fixture(scope="session")
def oracle_reference():
    """oracle_reference(freq, n_max) is m2 ... m6 by quadrature: m5 and m6
    from oracle_tables, and m2, m3 and m4 as the blocks of the member Gram
    of the unit modes P_j cos(wx) and P_j sin(wx)."""
    def reference(freq, n_max):
        n = n_max + 1
        I, Z = np.eye(n), np.zeros((n, n))
        G = member_gram((np.vstack([I, Z]), np.vstack([Z, I])), freq.omega)
        return {"m2": G[:n, n:], "m3": G[:n, :n], "m4": G[n:, n:],
                **oracle_tables(freq, n_max)}
    return reference


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
