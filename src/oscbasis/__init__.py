"""Orthonormal polynomial-trig bases for oscillatory function approximation.

Builds the paired family {p_k, q_k} spanning {x^j cos(omega x),
x^j sin(omega x)} on [-1, 1], with inner-product tables computed by a
stable skew-diagonal recursion, spectral derivative matrices, and
projection of oscillatory targets, all checked against an independent
quadrature oracle.
"""

from .approx import (ENVELOPES, Expansion, OscTarget, evaluate_expansion,
                     project, reduce_frequency, residual_norm)
from .basis import BasisDegenerationError, OscBasis, build_basis
from .calculus import (DerivativeOperator, derivative_matrix_legtrig,
                       to_orthogonal_basis)
from .documents import load_basis, load_expansion, load_tables, save_basis
from .frequency import Frequency, StabilityWarning, parse_omega_spec
from .legendre import QuadratureRule, gauss_legendre_rule
from .oracle import OracleConfig, VerifyReport, verify, verify_tables
from .tables import InnerProductTables, build_tables, gram_matrix

__version__ = "0.1.0"

__all__ = [
    "ENVELOPES",
    "BasisDegenerationError",
    "DerivativeOperator",
    "Expansion",
    "Frequency",
    "InnerProductTables",
    "OracleConfig",
    "OscBasis",
    "OscTarget",
    "QuadratureRule",
    "StabilityWarning",
    "VerifyReport",
    "build_basis",
    "build_tables",
    "derivative_matrix_legtrig",
    "evaluate_expansion",
    "gauss_legendre_rule",
    "gram_matrix",
    "load_basis",
    "load_expansion",
    "load_tables",
    "parse_omega_spec",
    "project",
    "reduce_frequency",
    "residual_norm",
    "save_basis",
    "to_orthogonal_basis",
    "verify",
    "verify_tables",
]
