"""Derivative matrices over Legendre-trig coordinates.

Differentiating P_j cos(omega x) gives P_j' cos(omega x) - omega P_j
sin(omega x), and P_j' re-expands with the coefficients 2m+1 on degrees
m = j-1, j-3, ....  On interleaved coefficient vectors (a_0, b_0, a_1,
b_1, ...) this is a sparse block matrix D: diagonal 2x2 blocks
omega * [[0, 1], [-1, 0]] for the trig part, and (2m+1) times the 2x2
identity at block (m, j) for odd j-m > 0.

The same operator expressed in the orthonormal basis is B^-1 D B, where the
columns of B are the basis members in interleaved coordinates.  B is block
upper triangular, so the transform needs one block back-substitution and no
explicit inverse.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .basis import OscBasis, representation_matrix
from .frequency import Frequency, doc_frequency
from .legendre import derivative_expansion

SCHEMA_VERSION = 1


@dataclass
class DerivativeOperator:
    """D over interleaved Legendre-trig coefficients, optionally with its
    orthonormal-basis counterpart d_orth = B^-1 D B."""

    freq: Frequency
    n_max: int
    d_legtrig: np.ndarray
    d_orth: np.ndarray | None = None
    similarity_residual: float | None = None


def derivative_matrix_legtrig(freq: Frequency, n_max: int) -> DerivativeOperator:
    """Assemble the exact sparse block matrix D for degrees 0 ... n_max."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    size = 2 * (n_max + 1)
    D = np.zeros((size, size))
    omega = freq.omega
    for j in range(n_max + 1):
        D[2 * j, 2 * j + 1] = omega
        D[2 * j + 1, 2 * j] = -omega
        for m, coeff in derivative_expansion(j).terms:
            D[2 * m, 2 * j] = coeff
            D[2 * m + 1, 2 * j + 1] = coeff
    return DerivativeOperator(freq=freq, n_max=n_max, d_legtrig=D)


def _solve_block_upper(B: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Solve B X = Y for block upper triangular B with 2x2 blocks."""
    n_blocks = B.shape[0] // 2
    X = np.zeros_like(Y)
    for i in reversed(range(n_blocks)):
        rows = slice(2 * i, 2 * i + 2)
        rhs = Y[rows] - B[rows, 2 * i + 2:] @ X[2 * i + 2:]
        X[rows] = np.linalg.solve(B[rows, rows], rhs)
    return X


def to_orthogonal_basis(op: DerivativeOperator,
                        basis: OscBasis) -> DerivativeOperator:
    """Return a copy of op with d_orth = B^-1 D B filled in.

    B's columns are the basis members, so d_orth acts on coefficient
    vectors expressed in the orthonormal basis.  The similarity residual
    max|B d_orth - D B| is recorded on the result for checking.
    """
    if op.freq.omega != basis.freq.omega:
        raise ValueError(
            f"frequency mismatch: operator at omega={op.freq.omega!r}, "
            f"basis at omega={basis.freq.omega!r}"
        )
    if op.n_max != basis.n_max:
        raise ValueError(
            f"size mismatch: operator n_max={op.n_max}, basis n_max={basis.n_max}"
        )
    B = representation_matrix(basis).T
    Y = op.d_legtrig @ B
    try:
        d_orth = _solve_block_upper(B, Y)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            f"representation matrix is singular ({exc}); the basis file is corrupted"
        ) from exc
    residual = float(np.max(np.abs(B @ d_orth - Y)))
    return replace(op, d_orth=d_orth, similarity_residual=residual)


def operator_to_doc(op: DerivativeOperator) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "omega": op.freq.omega,
        "k": op.freq.k,
        "epsilon": op.freq.epsilon,
        "n_max": op.n_max,
        "d_legtrig": op.d_legtrig.tolist(),
        "d_orth": None if op.d_orth is None else op.d_orth.tolist(),
    }


def operator_from_doc(doc: dict) -> DerivativeOperator:
    freq = doc_frequency(doc, SCHEMA_VERSION, ("d_legtrig", "d_orth"))
    d_orth = doc["d_orth"]
    return DerivativeOperator(
        freq=freq,
        n_max=doc["n_max"],
        d_legtrig=np.array(doc["d_legtrig"], dtype=float),
        d_orth=None if d_orth is None else np.array(d_orth, dtype=float),
    )


def save_operator(op: DerivativeOperator, path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(operator_to_doc(op), indent=2) + "\n")
    return path


def load_operator(path) -> DerivativeOperator:
    with open(path) as fh:
        return operator_from_doc(json.load(fh))


def save_operator_csv(op: DerivativeOperator, stem) -> list[Path]:
    """d_legtrig (and d_orth when present) as CSVs, 17-digit decimals."""
    stem = Path(stem)
    size = op.d_legtrig.shape[0]
    header = ",".join(f"c{i}" for i in range(size))
    paths = []
    matrices = [("d_legtrig", op.d_legtrig)]
    if op.d_orth is not None:
        matrices.append(("d_orth", op.d_orth))
    for name, mat in matrices:
        path = stem.with_name(f"{stem.name}_{name}.csv")
        np.savetxt(path, mat, fmt="%.17g", delimiter=",", header=header,
                   comments="")
        paths.append(path)
    return paths
