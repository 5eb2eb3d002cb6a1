#!/usr/bin/env python3
"""Degrees needed to hit a residual tolerance: oscillatory basis vs plain
Legendre, across frequencies.

The oscillatory count stays flat as omega grows while the plain count
scales linearly, which is the point of the construction.  A period count
off the integers is projected at its raw frequency onto the basis at the
nearest 2pi * k (`reduce_frequency`).

    python scripts/frequency_cost.py --tol 1e-6 --periods 20,50,100,200
    python scripts/frequency_cost.py --periods 20.3,200.3,2000.3 --plain-cap 400
"""

import argparse

import numpy as np

from oscbasis import (ENVELOPES, Expansion, OscTarget, build_basis,
                      build_tables, project, reduce_frequency, residual_norm)
from oscbasis.approx import plain_legendre_residuals
from oscbasis.frequency import TWO_PI


def smallest_osc_degree(freq, target, tol, n_cap=12):
    """Smallest n whose expansion in pairs 0 ... n has residual norm <= tol,
    by `residual_norm` on the projection with its tail zeroed."""
    tables = build_tables(freq, n_cap + 1)
    basis = build_basis(freq, n_cap, tables)
    exp = project(target, basis)
    for n in range(n_cap + 1):
        coeffs = exp.coeffs.copy()
        coeffs[2 * (n + 1):] = 0.0
        trimmed = Expansion(exp.freq, exp.n_max, exp.basis_hash, coeffs)
        if residual_norm(target, trimmed, basis) <= tol:
            return n
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--f", default="exp", choices=sorted(ENVELOPES))
    ap.add_argument("--g", default="one", choices=sorted(ENVELOPES))
    ap.add_argument("--tol", type=float, default=1e-6)
    ap.add_argument("--periods", default="20,50,100,200")
    ap.add_argument("--plain-cap", type=int, default=2000)
    args = ap.parse_args()

    print(f"target: {args.f} * sin + {args.g} * cos, tolerance {args.tol:g}")
    print(f"{'omega':>10}  {'N_osc':>6}  {'N_plain':>8}")
    for spec in args.periods.split(","):
        target = OscTarget(f_env=ENVELOPES[args.f], g_env=ENVELOPES[args.g],
                           freq_raw=TWO_PI * float(spec))
        freq, _ = reduce_frequency(target)
        n_osc = smallest_osc_degree(freq, target, args.tol)
        res = plain_legendre_residuals(target, args.plain_cap)
        hits = np.nonzero(res <= args.tol)[0]
        n_plain = int(hits[0]) if hits.size else f">{args.plain_cap}"
        print(f"{f'2pi*{spec}':>10}  {str(n_osc):>6}  {str(n_plain):>8}")


if __name__ == "__main__":
    main()
