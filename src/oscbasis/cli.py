"""Batch CLI: table generation, basis construction, verification,
projection and differentiation.

Each cmd_* function writes its data files and returns (inputs, outputs,
exit code); main then writes the run manifest (parameters and sha256
content hashes) and prints one "wrote" line per file.  Data files are
byte-identical across reruns with the same arguments; only the manifest
duration field varies.  tables and basis write JSON, or CSV when --out
ends in .csv: tables as <stem>_m5.csv and <stem>_m6.csv, a basis as its
representation matrix at --out.  verify writes the report of oracle.verify
on the tables or basis file it loads.

Exit codes: 0 success, 1 verification failure, 2 invalid parameters or a
refused input (tables the recursion cannot fill with finite values, a
degree over the table limit, a frequency whose tables or basis verify could
not check within the oracle's node budget), 3 I/O failure.
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import sys
import time
from pathlib import Path

import numpy as np

from .approx import (ENVELOPES, Expansion, OscTarget, _check_match,
                     evaluate_expansion, project, residual_norm)
from .basis import ROUNDOFF, BasisDegenerationError, OscBasis, build_basis
from .calculus import derivative_matrix_legtrig, to_orthogonal_basis
from .documents import (load, load_basis, load_expansion, save, save_csv,
                        write_json)
from .frequency import Frequency, parse_omega_spec
from .oracle import OracleConfig, verify
from .tables import InnerProductTables, build_tables

MANIFEST_SCHEMA_VERSION = 1


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _manifest_path(out: Path) -> Path:
    stem = out.with_suffix("") if out.suffix else out
    return stem.parent / (stem.name + ".manifest.json")


def _write_manifest(args: argparse.Namespace, inputs: list[Path],
                    outputs: list[Path], t0: float) -> Path:
    doc = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "command": args.command,
        "parameters": {k: v for k, v in vars(args).items() if k != "func"},
        "inputs": [{"path": p.name, "sha256": _sha256(p)} for p in inputs],
        "outputs": [{"path": p.name, "sha256": _sha256(p),
                     "bytes": p.stat().st_size} for p in outputs],
        "duration_seconds": time.perf_counter() - t0,
    }
    return write_json(doc, _manifest_path(Path(args.out)))


def _verifiable(spec: str) -> Frequency:
    """The frequency of spec, or ValueError if the oracle rule that verify
    would check its file on exceeds the node budget."""
    freq = parse_omega_spec(spec)
    OracleConfig().panel_count(freq.omega)
    return freq


def cmd_tables(args):
    freq = _verifiable(args.omega)
    tables = build_tables(freq, args.n)
    out = Path(args.out)
    if out.suffix == ".csv":
        return [], save_csv(tables, out.with_suffix("")), 0
    return [], [save(tables, out)], 0


def cmd_basis(args):
    freq = _verifiable(args.omega)
    tables = build_tables(freq, args.n)
    basis = build_basis(freq, args.n, tables)
    # the size of the Gram error that rounding alone can cause
    rho = ROUNDOFF * max(np.abs(basis.a).max(), np.abs(basis.b).max()) ** 2
    print(f"rho = u*max|c|^2 = {rho:.3e}")
    out = Path(args.out)
    if out.suffix == ".csv":
        return [], save_csv(basis, out), 0
    return [], [save(basis, out)], 0


def cmd_verify(args):
    in_path = Path(args.input)
    result = verify(load(in_path, (OscBasis, InnerProductTables)), args.tol)
    report = {"schema_version": MANIFEST_SCHEMA_VERSION, "kind": result.kind,
              "input": in_path.name, **result.as_dict()}
    out = Path(args.out) if args.out else in_path.with_suffix(".verify.json")
    args.out = str(out)
    outputs = [write_json(report, out)]
    label = {"tables": "max table deviation", "basis": "max |G - I|"}[result.kind]
    print(f"verify {result.kind}: {label} = {max(result.deviations.values()):.3e} "
          f"(tolerance {args.tol:g}) -> {'PASS' if result.passed else 'FAIL'}")
    return [in_path], outputs, 0 if result.passed else 1


def cmd_project(args):
    basis_path = Path(args.basis)
    basis = load_basis(basis_path)
    omega_raw = parse_omega_spec(args.omega_raw).omega
    target = OscTarget(f_env=ENVELOPES[args.f], g_env=ENVELOPES[args.g],
                       freq_raw=omega_raw)
    exp = project(target, basis)
    resid = residual_norm(target, exp, basis)
    out = Path(args.out)
    outputs = [save(exp, out)]
    report = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "omega_raw": omega_raw,
        "reduced_k": basis.freq.k,
        "epsilon": omega_raw - basis.freq.omega,
        "residual_norm": resid,
        "coefficient_decay": [
            {"index": i, "abs_coeff": float(abs(c))}
            for i, c in enumerate(exp.coeffs)
        ],
    }
    outputs.append(write_json(report, out.with_suffix(".report.json")))
    print(f"residual_norm = {resid:.6e}")
    return [basis_path], outputs, 0


def cmd_diff(args):
    basis_path = Path(args.basis)
    exp_path = Path(args.expansion)
    basis = load_basis(basis_path)
    exp = load_expansion(exp_path)
    _check_match(exp, basis)
    op = to_orthogonal_basis(
        derivative_matrix_legtrig(basis.freq, basis.n_max), basis)
    d_exp = Expansion(exp.freq, exp.n_max, exp.basis_hash,
                      op.d_orth @ exp.coeffs)
    out = Path(args.out)
    outputs = [save(d_exp, out)]

    xs = np.linspace(-0.9, 0.9, 21)
    deriv = evaluate_expansion(d_exp, basis, xs)
    h = 1e-5
    f = lambda t: evaluate_expansion(exp, basis, t)  # noqa: E731
    fd = (8.0 * (f(xs + h) - f(xs - h)) - (f(xs + 2 * h) - f(xs - 2 * h))) / (12.0 * h)
    max_dev = float(np.max(np.abs(deriv - fd)))
    rel_dev = max_dev / max(1.0, float(np.max(np.abs(deriv))))
    report = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "similarity_residual": op.similarity_residual,
        "fd_points": len(xs),
        "max_fd_deviation": max_dev,
        "max_fd_relative_deviation": rel_dev,
    }
    outputs.append(write_json(report, out.with_suffix(".report.json")))
    print(f"max finite-difference deviation = {max_dev:.3e} "
          f"(relative {rel_dev:.3e}) at {len(xs)} points")
    return [basis_path, exp_path], outputs, 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscbasis",
        description="Orthonormal polynomial-trig bases for oscillatory "
                    "function approximation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("tables", help="build the inner-product tables M5 and M6")
    t.add_argument("--omega", required=True,
                   help="frequency: a real number or the exact form '2pi*k'")
    t.add_argument("--n", required=True, type=int, help="largest Legendre degree")
    t.add_argument("--out", default="tables.json", help="output path (.csv: CSV)")
    t.set_defaults(func=cmd_tables)

    b = sub.add_parser("basis", help="build the orthonormal basis")
    b.add_argument("--omega", required=True,
                   help="frequency: a real number or the exact form '2pi*k'")
    b.add_argument("--n", required=True, type=int, help="largest pair index N")
    b.add_argument("--out", default="basis.json", help="output path (.csv: CSV)")
    b.set_defaults(func=cmd_basis)

    v = sub.add_parser("verify", help="check a tables or basis file against "
                                      "the quadrature oracle")
    v.add_argument("input", help="tables or basis JSON file")
    v.add_argument("--tol", type=float, default=1e-10,
                   help="deviation tolerance (default 1e-10)")
    v.add_argument("--out", default=None,
                   help="report path (default <input>.verify.json)")
    v.set_defaults(func=cmd_verify)

    p = sub.add_parser("project", help="project an oscillatory target onto "
                                       "a basis")
    p.add_argument("--basis", required=True, help="basis JSON file")
    p.add_argument("--f", required=True, choices=sorted(ENVELOPES),
                   help="sine-part envelope")
    p.add_argument("--g", required=True, choices=sorted(ENVELOPES),
                   help="cosine-part envelope")
    p.add_argument("--omega-raw", required=True,
                   help="raw target frequency, within pi of the basis's")
    p.add_argument("--out", default="expansion.json", help="output path")
    p.set_defaults(func=cmd_project)

    d = sub.add_parser("diff", help="differentiate an expansion via B^-1 D B")
    d.add_argument("--basis", required=True, help="basis JSON file")
    d.add_argument("--expansion", required=True, help="expansion JSON file")
    d.add_argument("--out", default="derivative.json", help="output path")
    d.set_defaults(func=cmd_diff)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    t0 = time.perf_counter()
    try:
        inputs, outputs, code = args.func(args)
        manifest = _write_manifest(args, inputs, outputs, t0)
    except (ValueError, BasisDegenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for path in outputs + [manifest]:
        print(f"wrote {path}")
    return code


if __name__ == "__main__":
    sys.exit(main())
