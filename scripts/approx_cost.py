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
2001 points and at one scalar point.  The 2001 points are timed twice:
`eval_2001_first` on points whose bytes are new in each run, so their
Legendre table is built, and `eval_2001_again` on the same points right
after, where `legtrig_values` reuses the table it kept.  It prints the
median of each in milliseconds, and the residual.

With `--against ROOT` the same loop times every layer in two trees, this
package and the one in the checkout ROOT (imported from ROOT/src/oscbasis
under a private module name, as `construct_cost.py --against` does; ROOT
must be at 4810eac or later). Each tree builds its own basis, from tables
at N, and projects onto and evaluates it; each layer alternates call by
call between the trees, in an order swapped from run to run. It prints
each layer's two medians and their ratio (this / ROOT).

    python scripts/approx_cost.py --periods 20.3,200.3,2000.3 --repeats 21
    python scripts/approx_cost.py --n 200 --periods 330.3 --repeats 3
    OPENBLAS_NUM_THREADS=1 python scripts/approx_cost.py --against ../parent
"""

import argparse
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from construct_cost import Alternation, against_row, load_trees
from oscbasis.approx import ENVELOPE_DEGREE

LAYERS = ("analysis", "filon_w", "project", "residual", "residual_fresh",
          "project_fresh", "content_hash", "eval_2001_first", "eval_2001_again",
          "eval_scalar")
WIDTH = {name: max(11, len(name)) for name in LAYERS}


def time_period(periods: float, n: int, repeats: int, trees: tuple):
    """Median milliseconds per layer in each tree, and this tree's residual,
    at 2pi * periods."""
    targets = [tree.OscTarget(f_env=tree.ENVELOPES["exp"], g_env=tree.ENVELOPES["runge"],
                              freq_raw=2 * math.pi * periods) for tree in trees]
    freqs = [tree.reduce_frequency(target)[0] for tree, target in zip(trees, targets)]
    bases = [tree.build_basis(freq, n, tree.build_tables(freq, n))
             for tree, freq in zip(trees, freqs)]
    points = 2 * max(ENVELOPE_DEGREE, n) + 1
    timer = Alternation(trees, LAYERS, repeats)
    for rep in timer.runs():
        # 2001 points on [-1, 1] whose bytes are new in each run: run r scales
        # them by 1 - (r + 1) 2**-52, within an ulp or so
        grid = np.linspace(-1.0, 1.0, 2001) * (1.0 - (rep + 1) * 2.0 ** -52)
        timer.time("analysis", lambda i: trees[i].approx._analysis.__wrapped__(points))
        timer.time("filon_w", lambda i: trees[i].approx._filon_weights(freqs[i], points))
        exps = timer.time("project", lambda i: trees[i].project(targets[i], bases[i]))
        resids = timer.time("residual", lambda i: trees[i].residual_norm(
            targets[i], exps[i], bases[i]))
        # replace makes a new target object with the same envelopes, or a new
        # basis object with the same arrays and no hash
        fresh = [replace(target) for target in targets]
        timer.time("residual_fresh", lambda i: trees[i].residual_norm(
            fresh[i], exps[i], bases[i]))
        fresh = [replace(basis) for basis in bases]
        timer.time("project_fresh", lambda i: trees[i].residual_norm(
            targets[i], trees[i].project(targets[i], fresh[i]), fresh[i]))
        fresh = [replace(basis) for basis in bases]
        timer.time("content_hash", lambda i: fresh[i].content_hash())
        for name, x in (("eval_2001_first", grid), ("eval_2001_again", grid),
                        ("eval_scalar", 0.3)):
            timer.time(name, lambda i: trees[i].evaluate_expansion(exps[i], bases[i], x))
    return timer.medians(), resids[0]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--periods", default="20.3,200.3,2000.3",
                    help="comma list of omega / 2pi")
    ap.add_argument("--n", type=int, default=12, help="basis pairs N")
    ap.add_argument("--repeats", type=int, default=9,
                    help="timed runs per frequency; the median is printed")
    ap.add_argument("--against", type=Path, metavar="ROOT",
                    help="time every layer in this package and in the checkout "
                         "at ROOT (4810eac or later), alternating call by call, "
                         "and print both medians and their ratio")
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    trees = load_trees(ap, args.against)

    if len(trees) == 2:
        print(f"{'periods':>10}  {'layer':>15}  {'this_ms':>10}  {'against_ms':>10}  "
              f"{'ratio':>7}   (median ms of {args.repeats}, N = {args.n}, "
              f"alternating with {args.against})")
    else:
        print(f"{'periods':>10}  " + "  ".join(f"{name:>{WIDTH[name]}}" for name in LAYERS)
              + f"  {'residual':>9}   (median ms of {args.repeats}, N = {args.n})")
    for spec in args.periods.split(","):
        medians, resid = time_period(float(spec), args.n, args.repeats, trees)
        ms = medians[0]
        if len(trees) == 2:
            for name in LAYERS:
                print(f"{spec:>10}  " + against_row(name, ms[name], medians[1][name], 4))
        else:
            print(f"{spec:>10}  "
                  + "  ".join(f"{ms[name]:{WIDTH[name]}.4f}" for name in LAYERS)
                  + f"  {resid:9.2e}")


if __name__ == "__main__":
    main()
