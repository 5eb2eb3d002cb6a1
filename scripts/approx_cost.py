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

With `--against ROOT` it instead compares this package with the one in
the checkout ROOT (imported from ROOT/src/oscbasis under a private module
name, as `construct_cost.py --against` does): per frequency each tree
builds its own basis, and the script alternates call by call between the
two trees' `project`, `residual_norm` and the three evaluations, with the
order of the trees swapped on every run, and prints each layer's two
medians and their ratio (this / ROOT).

    python scripts/approx_cost.py --periods 20.3,200.3,2000.3 --repeats 21
    python scripts/approx_cost.py --n 200 --periods 330.3 --repeats 3
    OPENBLAS_NUM_THREADS=1 python scripts/approx_cost.py --against ../parent
"""

import argparse
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import oscbasis
from construct_cost import load_tree
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
          "project_fresh", "content_hash", "eval_2001_first", "eval_2001_again",
          "eval_scalar")
# the layers --against times in both trees
AGAINST = ("project", "residual", "eval_2001_first", "eval_2001_again",
           "eval_scalar")
WIDTH = {name: max(11, len(name)) for name in LAYERS}


def project_and_residual(target, basis):
    return residual_norm(target, project(target, basis), basis)


def grids(repeats: int):
    """2001 points on [-1, 1] for each run, their bytes new in each: run r
    scales the points by 1 - (r + 1) 2**-52, within an ulp or so."""
    grid = np.linspace(-1.0, 1.0, 2001)
    return [grid * (1.0 - (rep + 1) * 2.0 ** -52) for rep in range(repeats + 1)]


def time_period(periods: float, n: int, repeats: int):
    """Median milliseconds per layer and the residual at 2pi * periods."""
    target = OscTarget(f_env=ENVELOPES["exp"], g_env=ENVELOPES["runge"],
                       freq_raw=2 * math.pi * periods)
    freq, _ = reduce_frequency(target)
    basis = build_basis(freq, n, build_tables(freq, n + 1))
    points = 2 * max(ENVELOPE_DEGREE, n) + 1
    times = {name: [] for name in LAYERS}

    def timed(name, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        times[name].append(time.perf_counter() - start)
        return out

    # one untimed round first, so that one-time set-up is not counted
    for rep, grid in enumerate(grids(repeats)):
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
        timed("eval_2001_first", evaluate_expansion, exp, basis, grid)
        timed("eval_2001_again", evaluate_expansion, exp, basis, grid)
        timed("eval_scalar", evaluate_expansion, exp, basis, 0.3)
    return {name: 1e3 * float(np.median(t)) for name, t in times.items()}, resid


def time_against(periods: float, n: int, repeats: int, trees: tuple):
    """Median milliseconds of each AGAINST layer in each of the two trees,
    alternating call by call, with the order of the trees swapped on every
    run; each tree projects onto and evaluates its own basis."""
    times = [{name: [] for name in AGAINST} for _ in trees]
    targets = [tree.OscTarget(f_env=tree.ENVELOPES["exp"], g_env=tree.ENVELOPES["runge"],
                              freq_raw=2 * math.pi * periods) for tree in trees]
    bases = []
    for tree, target in zip(trees, targets):
        freq, _ = tree.reduce_frequency(target)
        bases.append(tree.build_basis(freq, n, tree.build_tables(freq, n + 1)))

    def timed(i, name, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        times[i][name].append(time.perf_counter() - start)
        return out

    # one untimed round first, so that one-time set-up is not counted
    for rep, grid in enumerate(grids(repeats)):
        if rep == 1:
            for values in (v for t in times for v in t.values()):
                values.clear()
        order = (1, 0) if rep % 2 else (0, 1)
        exps = {i: timed(i, "project", trees[i].project, targets[i], bases[i])
                for i in order}
        for i in order:
            timed(i, "residual", trees[i].residual_norm, targets[i], exps[i], bases[i])
        for name, x in (("eval_2001_first", grid), ("eval_2001_again", grid),
                        ("eval_scalar", 0.3)):
            for i in order:
                timed(i, name, trees[i].evaluate_expansion, exps[i], bases[i], x)
    return [{name: 1e3 * float(np.median(v)) for name, v in t.items()} for t in times]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--periods", default="20.3,200.3,2000.3",
                    help="comma list of omega / 2pi")
    ap.add_argument("--n", type=int, default=12, help="basis pairs N")
    ap.add_argument("--repeats", type=int, default=9,
                    help="timed runs per frequency; the median is printed")
    ap.add_argument("--against", type=Path, metavar="ROOT",
                    help="compare project, residual and the evaluations with "
                         "the checkout at ROOT instead")
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    if args.against is not None:
        if not (args.against / "src" / "oscbasis" / "__init__.py").is_file():
            ap.error(f"--against: no src/oscbasis under {args.against}")
        compare(args.periods, args.n, args.repeats, args.against)
        return

    print(f"{'periods':>10}  " + "  ".join(f"{name:>{WIDTH[name]}}" for name in LAYERS)
          + f"  {'residual':>9}   (median ms of {args.repeats}, N = {args.n})")
    for spec in args.periods.split(","):
        ms, resid = time_period(float(spec), args.n, args.repeats)
        print(f"{spec:>10}  " + "  ".join(f"{ms[name]:{WIDTH[name]}.4f}" for name in LAYERS)
              + f"  {resid:9.2e}")


def compare(periods: str, n: int, repeats: int, root: Path):
    """Print each AGAINST layer's median in this tree and in the one at
    root, and their ratio."""
    trees = (oscbasis, load_tree(root))
    print(f"{'periods':>10}  {'layer':>15}  {'this_ms':>10}  {'against_ms':>10}  "
          f"{'ratio':>7}   (median ms of {repeats}, N = {n}, alternating with {root})")
    for spec in periods.split(","):
        this, other = time_against(float(spec), n, repeats, trees)
        for name, ms in this.items():
            print(f"{spec:>10}  {name:>15}  {ms:10.4f}  {other[name]:10.4f}  "
                  f"{ms / other[name]:7.3f}")


if __name__ == "__main__":
    main()
