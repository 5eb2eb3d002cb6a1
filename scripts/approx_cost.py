#!/usr/bin/env python3
"""Median time of each layer of the projection path.

For each target frequency 2pi * periods this builds the N-pair basis at
the nearest 2pi * k (`reduce_frequency`), projects an exp/runge target
(f = exp, g = runge) at the raw frequency onto it, and times, R times
over: the uncached build of the Gauss-Legendre analysis rule
(`_analysis`), the Filon weights (`_filon_weights`, which every
`project` computes afresh), `project` and `residual_norm` (the residual on
the expansion and target that `project` just sampled, so it reuses their
samples and weights), `residual_norm` on a copy of the target that
`project` has not sampled (`residual_fresh`: it samples the envelopes and
checks their resolution again), `project` and `residual_norm` together
on a fresh copy of the basis object (`project_fresh`: nothing cached on
the basis, so it includes the basis's first content hash, as on a first
projection onto a new basis), the content hash alone on a fresh copy
(`content_hash`: paid once per basis object), and `evaluate_expansion` at
2001 points and at one scalar point.  It prints the median of each in
milliseconds, and the residual.

    python scripts/approx_cost.py --periods 20.3,200.3,2000.3 --repeats 21
    python scripts/approx_cost.py --n 200 --periods 330.3 --repeats 3
"""

import argparse
import math
import time
from dataclasses import replace

import numpy as np

from oscbasis import (
    ENVELOPES,
    OscTarget,
    build_basis,
    build_tables,
    evaluate_expansion,
    project,
    reduce_frequency,
    residual_norm,
)
from oscbasis.approx import ENVELOPE_DEGREE, _analysis, _filon_weights

LAYERS = ("analysis", "filon_w", "project", "residual", "residual_fresh",
          "project_fresh", "content_hash", "eval_2001", "eval_scalar")
WIDTH = {name: max(11, len(name)) for name in LAYERS}


def project_and_residual(target, basis):
    return residual_norm(target, project(target, basis), basis)


def time_period(periods: float, n: int, repeats: int):
    """Median milliseconds per layer and the residual at 2pi * periods."""
    target = OscTarget(f_env=ENVELOPES["exp"], g_env=ENVELOPES["runge"],
                       freq_raw=2 * math.pi * periods)
    freq, _ = reduce_frequency(target)
    basis = build_basis(freq, n, build_tables(freq, n + 1))
    points = 2 * max(ENVELOPE_DEGREE, n) + 1
    grid = np.linspace(-1.0, 1.0, 2001)
    times = {name: [] for name in LAYERS}

    def timed(name, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        times[name].append(time.perf_counter() - start)
        return out

    # one untimed round first, so that one-time set-up is not counted
    for rep in range(repeats + 1):
        if rep == 1:
            for values in times.values():
                values.clear()
        timed("analysis", _analysis.__wrapped__, points)
        timed("filon_w", _filon_weights, freq, points)
        exp = timed("project", project, target, basis)
        resid = timed("residual", residual_norm, target, exp, basis)
        timed("residual_fresh", residual_norm, replace(target), exp, basis)
        # replace makes a new basis object with the same arrays and no hash,
        # or a new target object with the same envelopes
        timed("project_fresh", project_and_residual, target, replace(basis))
        timed("content_hash", replace(basis).content_hash)
        timed("eval_2001", evaluate_expansion, exp, basis, grid)
        timed("eval_scalar", evaluate_expansion, exp, basis, 0.3)
    return {name: 1e3 * float(np.median(t)) for name, t in times.items()}, resid


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--periods", default="20.3,200.3,2000.3",
                    help="comma list of omega / 2pi")
    ap.add_argument("--n", type=int, default=12, help="basis pairs N")
    ap.add_argument("--repeats", type=int, default=9,
                    help="timed runs per frequency; the median is printed")
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")

    print(f"{'periods':>10}  " + "  ".join(f"{name:>{WIDTH[name]}}" for name in LAYERS)
          + f"  {'residual':>9}   (median ms of {args.repeats}, N = {args.n})")
    for spec in args.periods.split(","):
        ms, resid = time_period(float(spec), args.n, args.repeats)
        print(f"{spec:>10}  " + "  ".join(f"{ms[name]:{WIDTH[name]}.4f}" for name in LAYERS)
              + f"  {resid:9.2e}")


if __name__ == "__main__":
    main()
