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
import math
from dataclasses import replace

import numpy as np

from oscbasis import (ENVELOPES, OscTarget, build_basis, build_tables, project,
                      reduce_frequency, residual_norm)
from oscbasis.approx import sample
from oscbasis.frequency import TWO_PI
from oscbasis.legendre import legendre_rows
from oscbasis.oracle import composite_rule


def plain_legendre_residuals(target: OscTarget, n_max: int) -> np.ndarray:
    """Residual norms of plain Legendre expansions of the full oscillatory
    target, degrees 0 ... n_max.

    The comparison baseline for the frequency-independence claim: expanding
    F itself (oscillations included) in P_0 ... P_n needs n to grow with
    omega.  Computed in one streaming recurrence pass over the oracle's
    composite rule, on the residual's own values (no Parseval cancellation,
    which would floor the residuals near 1e-8 of the target's norm), with
    ||P_n||^2 = 2/(2n+1); accurate while n_max stays below the node budget
    of the rule.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    rule = composite_rule(target.freq_raw)
    x, w = rule.nodes, rule.weights
    F = sample(target.evaluate, x)
    wF = w * F
    r = F.copy()
    residuals = np.empty(n_max + 1)
    for n, pn in zip(range(n_max + 1), legendre_rows(x)):
        r -= float(np.sum(wF * pn)) / (2.0 / (2 * n + 1)) * pn
        residuals[n] = math.sqrt(float(np.sum(w * r * r)))
    return residuals


def smallest_osc_degree(freq, target, tol, n_cap=12):
    """Smallest n whose expansion in pairs 0 ... n has residual norm <= tol,
    by `residual_norm` on the projection with its tail zeroed.  The trimmed
    copies keep the projection's samples, so the envelopes are sampled once."""
    tables = build_tables(freq, n_cap + 1)
    basis = build_basis(freq, n_cap, tables)
    exp = project(target, basis)
    for n in range(n_cap + 1):
        coeffs = exp.coeffs.copy()
        coeffs[2 * (n + 1):] = 0.0
        if residual_norm(target, replace(exp, coeffs=coeffs), basis) <= tol:
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
