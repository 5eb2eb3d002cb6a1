#!/usr/bin/env python3
"""Print the norm profile h_k of the monic (unnormalized) recurrence.

The h_k collapse roughly like 2^-k, which is the whole reason build_basis
renormalizes at every step.  They are read off the normalized run as the
running product of its pre-normalization norms, so the profile goes as far
as build_basis does (N = 200 at 2pi*400, h_200 ~ 1e-60).  Run e.g.

    python scripts/monic_decay.py --omega 2pi*20 --n 10
"""

import argparse

import numpy as np

from oscbasis import (Frequency, InnerProductTables, build_basis, build_tables,
                      parse_omega_spec)


def monic_norm_profile(freq: Frequency, n_max: int,
                       tables: InnerProductTables) -> np.ndarray:
    """Norms h_k of the monic p-side members, k = 0 ... n_max.

    The monic run (no rescaling of recurrence inputs) is the normalized run
    scaled by h_k, so h_k is the running product of build_basis's
    pre-normalization p-side norms.  This is the decay diagnostic: h_0 =
    ||cos(omega x)|| and the h_k shrink rapidly, which is why build_basis
    normalizes at every step.  The q-side norms track the p-side ones
    closely and are not reported separately.
    """
    return np.cumprod(build_basis(freq, n_max, tables).norms[0::2])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--omega", default="2pi*20")
    ap.add_argument("--n", type=int, default=10)
    args = ap.parse_args()

    freq = parse_omega_spec(args.omega)
    tables = build_tables(freq, args.n + 1)
    profile = monic_norm_profile(freq, args.n, tables)

    print(f"omega = {freq.omega:.6g}  (k={freq.k}, epsilon={freq.epsilon:g})")
    print(f"{'k':>3}  {'h_k':>24}  {'h_k/h_k-1':>10}")
    prev = None
    for k, h in enumerate(profile):
        ratio = "" if prev is None else f"{h / prev:10.6f}"
        print(f"{k:>3}  {h:24.17e}  {ratio:>10}")
        prev = h


if __name__ == "__main__":
    main()
