"""Orthonormal polynomial-trig bases for oscillatory function approximation.

Builds the paired family {p_k, q_k} spanning {x^j cos(omega x),
x^j sin(omega x)} on [-1, 1], with inner-product tables computed by a
stable skew-diagonal recursion, spectral derivative matrices, and
projection of oscillatory targets, all checked against an independent
quadrature oracle.
"""

from .approx import (ENVELOPES, Expansion, OscTarget, evaluate_expansion,
                     plain_legendre_residuals, project, reduce_frequency,
                     residual_norm)
from .basis import (BasisDegenerationError, OscBasis, build_basis,
                    evaluate_member, monic_norm_profile)
from .calculus import (DerivativeOperator, derivative_matrix_legtrig,
                       to_orthogonal_basis)
from .documents import (load_basis, load_expansion, load_operator, load_tables,
                        save_basis, save_basis_csv, save_expansion,
                        save_operator, save_operator_csv, save_tables,
                        save_tables_csv)
from .frequency import Frequency, StabilityWarning, parse_omega_spec
from .legendre import QuadratureRule, gauss_legendre_rule, legendre_norm_sq
from .oracle import (OracleConfig, cond_estimate, hilbert_limit, integrate,
                     monomial_gram)
from .pairing import gram_matrix
from .tables import InnerProductTables, VerifyReport, build_tables, verify_tables

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
    "cond_estimate",
    "derivative_matrix_legtrig",
    "evaluate_expansion",
    "evaluate_member",
    "gauss_legendre_rule",
    "gram_matrix",
    "hilbert_limit",
    "integrate",
    "legendre_norm_sq",
    "load_basis",
    "load_expansion",
    "load_operator",
    "load_tables",
    "monic_norm_profile",
    "monomial_gram",
    "parse_omega_spec",
    "plain_legendre_residuals",
    "project",
    "reduce_frequency",
    "residual_norm",
    "save_basis",
    "save_basis_csv",
    "save_expansion",
    "save_operator",
    "save_operator_csv",
    "save_tables",
    "save_tables_csv",
    "to_orthogonal_basis",
    "verify_tables",
]
