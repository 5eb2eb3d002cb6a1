#!/usr/bin/env python3
"""Conditioning demo: the monomial-trig Gram against its Hilbert-like limit
and against the Legendre-trig Gram.

For each frequency it writes one CSV row: omega, max|H - L| between the
monomial-trig Gram H[i][j] = <x^i cos(omega x), x^j cos(omega x)> and its
omega -> infinity limit L[i][j] = (1 + (-1)^(i+j)) / (2 (i+j+1)), cond(H),
and the cond of the Gram of the unit-norm modes P_j cos(omega x), P_j
sin(omega x) (from the tables).  x^i cos(omega x) is the Legendre-trig row
whose cosine part holds the Legendre coefficients of x^i, so H is the
oracle's member Gram of those rows.  cond is
max|lambda| / min|lambda| over the symmetric eigenvalues.  An --n outside
0 ... 12, an empty --omegas or a frequency whose oracle rule is over the
node budget exits 2 and writes nothing.  Run e.g.

    python scripts/hilbert_demo.py --n 10 --omegas 2pi*10,2pi*100 --out demo.csv
"""

import argparse
import sys
from pathlib import Path

import numpy as np
from numpy.polynomial.legendre import poly2leg

from oscbasis import Frequency, build_tables, gram_matrix, parse_omega_spec
from oscbasis.oracle import member_gram


def monomial_gram(freq: Frequency, n: int) -> np.ndarray:
    """Gram matrix H[i][j] = <x^i cos(omega x), x^j cos(omega x)>, i, j <= n,
    by the quadrature oracle.

    This is the ill-conditioned object the Legendre-trig representation
    avoids; for large omega it approaches L[i][j] = (1 + (-1)^(i+j)) /
    (2 (i+j+1)), which behaves like a Hilbert matrix.  x^i cos(omega x) has
    the parity of i, so odd i + j entries are exactly 0.0.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    A = np.zeros((n + 1, n + 1))
    for i in range(n + 1):
        A[i, :i + 1] = poly2leg([0] * i + [1])
    return member_gram((A, np.zeros_like(A)), freq.omega)


def cond(G: np.ndarray) -> float:
    eigs = np.abs(np.linalg.eigvalsh(0.5 * (G + G.T)))
    return float(eigs.max() / eigs.min())


def rows(n: int, omegas: str) -> list[str]:
    """The CSV lines for n and the comma-separated frequency specs."""
    if n < 0 or n > 12:
        raise ValueError(f"--n must be between 0 and 12 (desk scale), got {n}")
    specs = [s.strip() for s in omegas.split(",") if s.strip()]
    if not specs:
        raise ValueError("--omegas must list at least one frequency")
    i = np.arange(n + 1)
    s = i[:, None] + i[None, :]
    L = (1.0 + (-1.0) ** s) / (2.0 * (s + 1))
    lines = ["omega,max_dev_from_limit,cond_monomial_gram,cond_legtrig_gram"]
    for spec in specs:
        freq = parse_omega_spec(spec)
        H = monomial_gram(freq, n)
        dev = float(np.max(np.abs(H - L)))
        cond_m = cond(H)
        tables = build_tables(freq, n)
        # single modes P_j cos(omega x), P_j sin(omega x), interleaved, then
        # scaled to unit norm by the diagonal of their Gram
        A = np.zeros((2 * n + 2, n + 1))
        B = np.zeros((2 * n + 2, n + 1))
        A[0::2] = B[1::2] = np.eye(n + 1)
        scale = 1.0 / np.sqrt(np.diag(gram_matrix((A, B), tables)))
        cond_l = cond(gram_matrix((A * scale[:, None], B * scale[:, None]), tables))
        lines.append(",".join(
            format(v, ".17g") for v in (freq.omega, dev, cond_m, cond_l)))
        print(f"omega={freq.omega:.6g}: max|H - L|={dev:.3e} "
              f"cond(H)={cond_m:.3e} cond(legtrig)={cond_l:.3e}")
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", required=True, type=int, help="matrix size N (<= 12)")
    ap.add_argument("--omegas", required=True,
                    help="comma-separated list of frequency specs")
    ap.add_argument("--out", default="hilbert_demo.csv", help="output CSV path")
    args = ap.parse_args()
    try:
        lines = rows(args.n, args.omegas)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
