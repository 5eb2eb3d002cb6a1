#!/usr/bin/env python3
"""Map orthogonality quality over an (omega, N) grid.

For each combination this builds the basis and reports, as dev/rho, the
worst Gram deviation max|<row_i, row_j> - delta_ij| measured by quadrature
next to rho = u * max|c|^2 over the basis coefficients c (u the unit
roundoff), the Gram error that rounding alone can cause; or, as
degenerate@40(p_20), the row and pair of the member where the recurrence
degenerated; or refused@tables where the table recursion overflows.  CSV
goes to --out, a readable table to stdout.
"""

import argparse
import re
import sys
import warnings

import numpy as np

from oscbasis import (
    BasisDegenerationError,
    Frequency,
    StabilityWarning,
    build_basis,
    build_tables,
)
from oscbasis.basis import ROUNDOFF
from oscbasis.oracle import member_gram


def sweep_cell(k: int, n: int) -> str:
    freq = Frequency.exact(k)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        try:
            tables = build_tables(freq, n)
        except ValueError:
            return "refused@tables"
        try:
            basis = build_basis(freq, n, tables)
        except BasisDegenerationError as exc:
            row, pair = re.search(r"member (\d+) \((\w+)\)", str(exc)).groups()
            return f"degenerate@{row}({pair})"
    G = member_gram(basis, freq.omega)
    dev = np.max(np.abs(G - np.eye(G.shape[0])))
    rho = ROUNDOFF * max(np.max(np.abs(basis.a)), np.max(np.abs(basis.b))) ** 2
    return f"{dev:.3e}/{rho:.1e}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--periods", default="2,3,5,10,20,50",
                    help="comma list of k values (omega = 2pi*k)")
    ap.add_argument("--degrees", default="4,8,12,16,20,24",
                    help="comma list of N values")
    ap.add_argument("--out", default=None, help="optional CSV path")
    args = ap.parse_args()

    ks = [int(s) for s in args.periods.split(",")]
    ns = [int(s) for s in args.degrees.split(",")]

    rows = []
    header = ["omega"] + [f"N={n}" for n in ns]
    print("cells: oracle max|G - I| / rho = u*max|c|^2")
    print("  ".join(f"{h:>19}" for h in header))
    for k in ks:
        cells = [sweep_cell(k, n) for n in ns]
        rows.append([f"2pi*{k}"] + cells)
        print("  ".join(f"{c:>19}" for c in rows[-1]))

    if args.out:
        with open(args.out, "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(row) + "\n")
        print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
