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

With `--against ROOT` the same loop times every layer in two trees, this
package and the one in the checkout ROOT (imported from ROOT/src/oscbasis
under a private module name; ROOT must be at 4810eac or later, which
builds a basis at N from tables at N). Each layer alternates call by call
between the trees, in an order swapped from run to run; both transforms
run on this tree's basis. It prints each layer's two medians and their
ratio (this / ROOT), `-` where the build is refused.

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
from oscbasis.basis import ROUNDOFF
from oscbasis.oracle import member_gram

LAYERS = ("tables", "basis", "basis_reorth", "to_orth", "save", "load",
          "hash")


def load_trees(ap, root):
    """This package alone, or this package and the one of the checkout at
    root (`--against ROOT`), imported under a private module name so that
    it sits beside this one."""
    if root is None:
        return (oscbasis,)
    package = root.resolve() / "src" / "oscbasis"
    if not (package / "__init__.py").is_file():
        ap.error(f"--against: no src/oscbasis under {root}")
    spec = importlib.util.spec_from_file_location(
        "_against_oscbasis", package / "__init__.py",
        submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return oscbasis, module


class Alternation:
    """The times of each layer in each tree over an untimed first run,
    whose one-time set-up is not counted, and `repeats` timed ones.  Each
    layer calls the trees one after the other, in the order (0, 1) on even
    runs and (1, 0) on odd ones, so that neither always goes first."""

    def __init__(self, trees, layers, repeats, refused=()):
        self.trees, self.repeats, self.refused = trees, repeats, refused
        self.times = [{name: [] for name in layers} for _ in trees]
        self.order = ()

    def runs(self):
        """Yield each run's number, 0 ... repeats."""
        for rep in range(self.repeats + 1):
            self.order = range(len(self.trees))[::-1 if rep % 2 else 1]
            yield rep
            if rep == 0:
                for values in (v for t in self.times for v in t.values()):
                    values.clear()

    def time(self, name, call):
        """call(i) for each tree i in this run's order, each call timed
        under name; the results by tree, None where a call is refused."""
        out = [None] * len(self.trees)
        for i in self.order:
            start = time.perf_counter()
            try:
                out[i] = call(i)
            except self.refused:
                pass
            finally:
                self.times[i][name].append(time.perf_counter() - start)
        return out

    def medians(self):
        """Median milliseconds of each layer in each tree, None for a layer
        never timed."""
        return [{name: 1e3 * float(np.median(v)) if v else None for name, v in t.items()}
                for t in self.times]


def against_row(name, this, other, digits):
    """A layer's row of the two-tree table: both medians and their ratio,
    or `-` in all three columns where the layer was not timed."""
    if this is None or other is None:
        return f"{name:>15}  {'-':>10}  {'-':>10}  {'-':>7}"
    return f"{name:>15}  {this:10.{digits}f}  {other:10.{digits}f}  {this / other:7.3f}"


def time_cell(k: int, n: int, repeats: int, trees: tuple, tmp: Path):
    """Median milliseconds per layer in each tree, and this tree's basis
    and transform, None where its build is refused."""
    freqs = [tree.Frequency.exact(k) for tree in trees]
    ops = [tree.derivative_matrix_legtrig(freq, n) for tree, freq in zip(trees, freqs)]
    paths = [tmp / f"basis{i}.json" for i in range(len(trees))]
    timer = Alternation(trees, LAYERS, repeats,
                        tuple(tree.BasisDegenerationError for tree in trees))
    transforms = [None]
    for _ in timer.runs():
        tables = timer.time("tables", lambda i: trees[i].build_tables(freqs[i], n))
        bases = timer.time("basis", lambda i: trees[i].build_basis(freqs[i], n, tables[i]))
        timer.time("basis_reorth", lambda i: trees[i].build_basis(
            freqs[i], n, tables[i], reorthogonalize=True))
        if None in bases:
            continue
        transforms = timer.time("to_orth", lambda i: trees[i].to_orthogonal_basis(
            ops[i], bases[0]))
        timer.time("save", lambda i: trees[i].save_basis(bases[i], paths[i]))
        timer.time("load", lambda i: trees[i].load_basis(paths[i]))
        # replace makes a new basis object with the same arrays and no hash yet
        copies = [replace(basis) for basis in bases]
        timer.time("hash", lambda i: copies[i].content_hash())
    return timer.medians(), bases[0], transforms[0]


def health(basis):
    """rho, the oracle max|G - I| and the milliseconds of the one
    member_gram call, or `refused` where there is no basis."""
    if basis is None:
        return f"{'refused':>9}"
    rho = ROUNDOFF * max(float(np.max(np.abs(basis.a))),
                         float(np.max(np.abs(basis.b)))) ** 2
    start = time.perf_counter()
    G = member_gram(basis, basis.freq.omega)
    gram_ms = 1e3 * (time.perf_counter() - start)
    return (f"{rho:9.2e}  {float(np.max(np.abs(G - np.eye(G.shape[0])))):9.2e}  "
            f"{gram_ms:9.2f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cells", default="20:12,84:40,137:100,330:200",
                    help="comma list of k:N (omega = 2pi*k, N pairs)")
    ap.add_argument("--repeats", type=int, default=5,
                    help="timed runs per cell; the median is printed")
    ap.add_argument("--against", type=Path, metavar="ROOT",
                    help="time every layer in this package and in the checkout "
                         "at ROOT (4810eac or later), alternating call by call, "
                         "and print both medians and their ratio")
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    trees = load_trees(ap, args.against)

    if len(trees) == 2:
        print(f"{'cell':>12}  {'layer':>15}  {'this_ms':>10}  {'against_ms':>10}  "
              f"{'ratio':>7}   (median ms of {args.repeats}, alternating with "
              f"{args.against})")
    else:
        names = [*LAYERS[:4], "sim_res", *LAYERS[4:]]
        print(f"{'cell':>12}  " + "  ".join(f"{name:>12}" for name in names)
              + f"  {'us/pair':>9}  {'rho':>9}  {'max|G-I|':>9}  {'gram_ms':>9}   "
              f"(median ms of {args.repeats})")
    for spec in args.cells.split(","):
        k, n = (int(part) for part in spec.split(":"))
        cell = f"{f'2pi*{k}:{n}':>12}"
        with warnings.catch_warnings(), tempfile.TemporaryDirectory() as tmp:
            for tree in trees:
                warnings.simplefilter("ignore", tree.StabilityWarning)
            medians, basis, op = time_cell(k, n, args.repeats, trees, Path(tmp))
            ms = medians[0]
            if len(trees) == 2:
                for name in LAYERS:
                    print(f"{cell}  " + against_row(name, ms[name], medians[1][name], 3))
                continue
            cols = [f"{ms[name]:12.3f}" if ms[name] is not None else f"{'-':>12}"
                    for name in LAYERS]
            cols.insert(4, f"{op.similarity_residual:12.2e}" if op is not None
                        else f"{'-':>12}")
            cols.append(f"{1e3 * ms['basis'] / n:9.2f}" if n else f"{'-':>9}")
            print(f"{cell}  " + "  ".join(cols) + "  " + health(basis))


if __name__ == "__main__":
    main()
