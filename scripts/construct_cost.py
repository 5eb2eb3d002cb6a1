#!/usr/bin/env python3
"""Median time of each construction layer, with rho and the Gram error.

For each cell 2pi*k : N this times, R times over, `build_tables`, the
plain and the reorthogonalized `build_basis` and `to_orthogonal_basis`
(on the operator of `derivative_matrix_legtrig`, which forms no matrix and
is not timed), then `save_basis` and `load_basis` of the plain basis's
JSON document and its content hash on a fresh copy of the basis
object (nothing cached), and prints the median of each in milliseconds.
Next to them it prints rho = u * max|c|^2 over the plain basis's
coefficients (u the unit roundoff), the size of the Gram error that
rounding alone can cause, and the plain basis's quadrature-oracle max|G - I|
(`member_gram`, computed once, outside the timed runs), the Gram error it
has.

    python scripts/construct_cost.py --cells 330:200,84:40 --repeats 9
"""

import argparse
import tempfile
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from oscbasis import (
    BasisDegenerationError,
    Frequency,
    StabilityWarning,
    build_basis,
    build_tables,
    derivative_matrix_legtrig,
    load_basis,
    save_basis,
    to_orthogonal_basis,
)
from oscbasis.basis import ROUNDOFF
from oscbasis.oracle import member_gram

LAYERS = ("tables", "basis", "basis_reorth", "to_orth", "save", "load",
          "hash")


def time_cell(k: int, n: int, repeats: int, path: Path):
    """Median milliseconds per layer, rho and the oracle max|G - I|, or
    None where a build is refused."""
    freq = Frequency.exact(k)
    times = {name: [] for name in LAYERS}

    def timed(name, fn, *args, **kw):
        start = time.perf_counter()
        try:
            return fn(*args, **kw)
        except BasisDegenerationError:
            return None
        finally:
            times[name].append(time.perf_counter() - start)

    # one untimed round first, so that one-time set-up is not counted
    for rep in range(repeats + 1):
        if rep == 1:
            for values in times.values():
                values.clear()
        tables = timed("tables", build_tables, freq, n + 1)
        basis = timed("basis", build_basis, freq, n, tables)
        timed("basis_reorth", build_basis, freq, n, tables,
              reorthogonalize=True)
        if basis is not None:
            timed("to_orth", to_orthogonal_basis,
                  derivative_matrix_legtrig(freq, n), basis)
            timed("save", save_basis, basis, path)
            timed("load", load_basis, path)
            # replace makes a new basis object with the same arrays and no
            # hash yet
            timed("hash", replace(basis).content_hash)
    ms = {name: 1e3 * float(np.median(t)) if t else None
          for name, t in times.items()}
    if basis is None:
        return ms, None, None
    rho = ROUNDOFF * max(float(np.max(np.abs(basis.a))),
                         float(np.max(np.abs(basis.b)))) ** 2
    G = member_gram(basis, freq.omega)
    return ms, rho, float(np.max(np.abs(G - np.eye(G.shape[0]))))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cells", default="20:12,84:40,137:100,330:200",
                    help="comma list of k:N (omega = 2pi*k, N pairs)")
    ap.add_argument("--repeats", type=int, default=5,
                    help="timed runs per cell; the median is printed")
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")

    print(f"{'cell':>12}  " + "  ".join(f"{name:>12}" for name in LAYERS)
          + f"  {'rho':>9}  {'max|G-I|':>9}   (median ms of {args.repeats})")
    for spec in args.cells.split(","):
        k, n = (int(part) for part in spec.split(":"))
        with warnings.catch_warnings(), tempfile.TemporaryDirectory() as tmp:
            warnings.simplefilter("ignore", StabilityWarning)
            ms, rho, dev = time_cell(k, n, args.repeats,
                                     Path(tmp) / "basis.json")
        cols = [f"{ms[name]:12.3f}" if ms[name] is not None else f"{'-':>12}"
                for name in LAYERS]
        print(f"{f'2pi*{k}:{n}':>12}  " + "  ".join(cols) + "  "
              + (f"{rho:9.2e}  {dev:9.2e}" if rho is not None
                 else f"{'refused':>9}"))


if __name__ == "__main__":
    main()
