#!/usr/bin/env python3
"""Median time of each construction layer, with rho and the Gram error.

For each cell 2pi*k : N this times, R times over, `build_tables`, the
plain and the reorthogonalized `build_basis` and `to_orthogonal_basis`
(on the operator of `derivative_matrix_legtrig`, which forms no matrix and
is not timed; `sim_res` next to it is the transform's similarity residual
max|B_{1-c} X_c - D B_c|, its accuracy figure), then `save_basis` and
`load_basis` of the plain basis's
JSON document and its content hash on a fresh copy of the basis
object (nothing cached), and prints the median of each in milliseconds.
`us/pair` is the plain basis median over its N recurrence steps, in
microseconds (a refused build's time to its refusal, which comes after its
last step; `-` at N = 0).
Next to them it prints rho = u * max|c|^2 over the plain basis's
coefficients (u the unit roundoff), the size of the Gram error that
rounding alone can cause, and the plain basis's quadrature-oracle max|G - I|
(`member_gram`, computed once, outside the timed runs), the Gram error it
has, with `gram_ms`, the time of that one `member_gram` call in
milliseconds, so the cost of the check sits next to the cost of the build.

With `--against ROOT` it instead compares this package with the one in
the checkout ROOT (imported from ROOT/src/oscbasis under a private module
name): per cell it alternates call by call between the two trees'
`build_tables`, `build_basis` and `to_orthogonal_basis`, both transforms
on this tree's basis, and prints each layer's two medians and their ratio
(this / ROOT).

    python scripts/construct_cost.py --cells 330:200,84:40 --repeats 9
    OPENBLAS_NUM_THREADS=1 python scripts/construct_cost.py --against ../parent
"""

import argparse
import importlib.util
import sys
import tempfile
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

import oscbasis
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
    """Median milliseconds per layer, the similarity residual of the
    transform, rho, the oracle max|G - I| and the milliseconds of the one
    member_gram call, or None where a build is refused."""
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
            op = timed("to_orth", to_orthogonal_basis,
                       derivative_matrix_legtrig(freq, n), basis)
            timed("save", save_basis, basis, path)
            timed("load", load_basis, path)
            # replace makes a new basis object with the same arrays and no
            # hash yet
            timed("hash", replace(basis).content_hash)
    ms = {name: 1e3 * float(np.median(t)) if t else None
          for name, t in times.items()}
    if basis is None:
        return ms, None, None, None, None
    rho = ROUNDOFF * max(float(np.max(np.abs(basis.a))),
                         float(np.max(np.abs(basis.b)))) ** 2
    start = time.perf_counter()
    G = member_gram(basis, freq.omega)
    gram_ms = 1e3 * (time.perf_counter() - start)
    return (ms, op.similarity_residual, rho,
            float(np.max(np.abs(G - np.eye(G.shape[0])))), gram_ms)


def load_tree(root: Path):
    """The oscbasis package of the checkout at root, imported under a
    private module name so that it sits beside this one."""
    package = root.resolve() / "src" / "oscbasis"
    spec = importlib.util.spec_from_file_location(
        "_against_oscbasis", package / "__init__.py",
        submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def time_against(k: int, n: int, repeats: int, trees: tuple):
    """Median milliseconds of build_tables, build_basis and
    to_orthogonal_basis in each of the two trees, alternating call by call,
    with the order of the trees swapped on every run; both transforms run
    on the first tree's basis, and neither where it is refused."""
    times = [{name: [] for name in ("tables", "basis", "to_orth")} for _ in trees]
    refused = tuple(tree.BasisDegenerationError for tree in trees)

    def timed(i, name, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        except refused:
            return None
        finally:
            times[i][name].append(time.perf_counter() - start)

    # one untimed round first, so that one-time set-up is not counted
    for rep in range(repeats + 1):
        if rep == 1:
            for values in (v for t in times for v in t.values()):
                values.clear()
        order = (1, 0) if rep % 2 else (0, 1)
        freqs = [tree.Frequency.exact(k) for tree in trees]
        tables = {i: timed(i, "tables", trees[i].build_tables, freqs[i], n + 1)
                  for i in order}
        bases = {i: timed(i, "basis", trees[i].build_basis, freqs[i], n, tables[i])
                 for i in order}
        if bases[0] is not None:
            for i in order:
                timed(i, "to_orth", trees[i].to_orthogonal_basis,
                      trees[i].derivative_matrix_legtrig(freqs[i], n), bases[0])
    return [{name: 1e3 * float(np.median(v)) if v else None for name, v in t.items()}
            for t in times]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cells", default="20:12,84:40,137:100,330:200",
                    help="comma list of k:N (omega = 2pi*k, N pairs)")
    ap.add_argument("--repeats", type=int, default=5,
                    help="timed runs per cell; the median is printed")
    ap.add_argument("--against", type=Path, metavar="ROOT",
                    help="compare tables, basis and to_orth with the checkout "
                         "at ROOT instead")
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    if args.against is not None:
        if not (args.against / "src" / "oscbasis" / "__init__.py").is_file():
            ap.error(f"--against: no src/oscbasis under {args.against}")
        compare(args.cells, args.repeats, args.against)
        return

    names = [*LAYERS[:4], "sim_res", *LAYERS[4:]]
    print(f"{'cell':>12}  " + "  ".join(f"{name:>12}" for name in names)
          + f"  {'us/pair':>9}  {'rho':>9}  {'max|G-I|':>9}  {'gram_ms':>9}   "
          f"(median ms of {args.repeats})")
    for spec in args.cells.split(","):
        k, n = (int(part) for part in spec.split(":"))
        with warnings.catch_warnings(), tempfile.TemporaryDirectory() as tmp:
            warnings.simplefilter("ignore", StabilityWarning)
            ms, sim_res, rho, dev, gram_ms = time_cell(
                k, n, args.repeats, Path(tmp) / "basis.json")
        cols = [f"{ms[name]:12.3f}" if ms[name] is not None else f"{'-':>12}"
                for name in LAYERS]
        cols.insert(4, f"{sim_res:12.2e}" if sim_res is not None else f"{'-':>12}")
        cols.append(f"{1e3 * ms['basis'] / n:9.2f}" if n else f"{'-':>9}")
        print(f"{f'2pi*{k}:{n}':>12}  " + "  ".join(cols) + "  "
              + (f"{rho:9.2e}  {dev:9.2e}  {gram_ms:9.2f}" if rho is not None
                 else f"{'refused':>9}"))


def compare(cells: str, repeats: int, root: Path):
    """Print each layer's median in this tree and in the one at root, and
    their ratio."""
    trees = (oscbasis, load_tree(root))
    print(f"{'cell':>12}  {'layer':>8}  {'this_ms':>10}  {'against_ms':>10}  "
          f"{'ratio':>7}   (median ms of {repeats}, alternating with {root})")
    for spec in cells.split(","):
        k, n = (int(part) for part in spec.split(":"))
        with warnings.catch_warnings():
            for tree in trees:
                warnings.simplefilter("ignore", tree.StabilityWarning)
            this, other = time_against(k, n, repeats, trees)
        for name, ms in this.items():
            cols = ([f"{ms:10.3f}", f"{other[name]:10.3f}", f"{ms / other[name]:7.3f}"]
                    if ms is not None else [f"{'-':>10}", f"{'-':>10}", f"{'-':>7}"])
            print(f"{f'2pi*{k}:{n}':>12}  {name:>8}  " + "  ".join(cols))


if __name__ == "__main__":
    main()
