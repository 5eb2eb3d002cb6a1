"""The three workloads: seeded inputs, one operation, its check and its probes.

Each workload generates the inputs of a run, a number of whole cycles, from
the seed alone, prepares state in a set-up step, then runs the operations in
order.  `run` is the only code inside the timed region.
`keep` turns a result into what the check needs right after the operation,
outside its timing; `check` runs after the timed region against the
`oscbasis.oracle` references in `reference`.  `probe` runs only in traced
runs and times single calls into functions that the operation reaches only
from inside another call, using that operation's inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import reference as ref
from harness import log_spread, stratified
from oscbasis import (ENVELOPES, BasisDegenerationError, Frequency, OscTarget,
                      build_basis, build_tables, derivative_matrix_legtrig,
                      evaluate_expansion, gram_matrix, load_basis,
                      load_expansion, load_tables, project, reduce_frequency,
                      residual_norm, save_basis, to_orthogonal_basis,
                      verify_tables)
from oscbasis.basis import member_values
from oscbasis.legendre import legendre_table
from oscbasis.oracle import composite_rule, member_gram

TWO_PI = 2.0 * math.pi

# The CLI's default verify tolerance; a basis whose oracle Gram is further
# than this from the identity is a wrong result.
GRAM_TOL = 1e-10
# Coefficients, residuals and values of an N = 12 expansion of an O(1)
# target, against the finer oracle rule.
APPROX_TOL = 1e-9
# Similarity residual of B^-1 D B relative to max|D B|.
SIMILARITY_TOL = 1e-12

DOCUMENTED = (BasisDegenerationError, ValueError)

ENVELOPE_PAIRS = [(f, g) for f in sorted(ENVELOPES) for g in sorted(ENVELOPES)
                  if not (f == "zero" and g == "zero")]


@dataclass
class Counters:
    """Per-layer figures that do not belong to one span: sums and maxima
    over a traced run, and samples whose median is reported."""

    sums: dict = field(default_factory=dict)
    maxima: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)

    def add(self, name: str, value: float):
        self.sums[name] = self.sums.get(name, 0.0) + value

    def sample(self, name: str, value: float):
        self.samples.setdefault(name, []).append(value)

    def peak(self, name: str, value: float):
        self.maxima[name] = max(self.maxima.get(name, 0.0), value)


def _seeded(seed: int, salt: str) -> random.Random:
    return random.Random(f"{salt}:{seed}")


def _legendre_probe(tracer, degree: int, x):
    """Five flops per entry of the three-term recurrence; every entry of the
    (degree + 1) x len(x) table is written once."""
    x = np.asarray(x, dtype=float)
    with tracer.span("legendre.legendre_table",
                     flops_computed=5 * max(degree - 1, 0) * x.size,
                     bytes_computed=8 * (degree + 1) * x.size):
        legendre_table(degree, x)


def _member_values_probe(tracer, basis, x):
    with tracer.span("basis.member_values") as attrs:
        attrs["points_x_rows"] = member_values(basis, x).size


def _rule_probe(tracer, omega):
    with tracer.span("oracle.composite_rule") as attrs:
        rule = composite_rule(omega)
        attrs["nodes"] = rule.nodes.size
    return rule


def _from_omega_probe(tracer, omega):
    with tracer.span("frequency.from_omega"):
        Frequency.from_omega(omega)


class Construct:
    """Tables, basis and derivative operator for seeded (2 pi k, N) cells.

    Cells come in cycles of thirteen: N = 20, 32, 50, 80 and 130, four
    reorthogonalized builds near N = 40, and four cells at N = 200.  The
    seed moves each N by up to 2% and draws k / N from [1.05, 4], stratified
    over the visits of a run to each size class, so every cell lies in the
    documented stable regime omega / 2 pi > N, the large-N, small-k/N corner
    included.  At N = 130 and 200, where wrong bases come back, the cells
    are the same in every run of a given length: exact N, k / N evenly
    spread, in seeded order.  The count of failed operations then depends
    on the code and the run length, not on the seed.

    Construction cost grows as N^3, so a few large cells would dominate a
    run: whole cycles give every run the same mix of sizes.  The sizes are
    grouped so that the median operation falls among the reorthogonalized
    builds and the slowest ten among the N = 200 cells, for runs of three
    or more cycles; neither percentile then jumps between sizes from run
    to run.
    """

    name = "construct"
    documented = DOCUMENTED
    CYCLE = (20, 32, 50, 80, "reorth", "reorth", "reorth", "reorth", 130, 200,
             200, 200, 200)
    FIXED = (130, 200)
    cycle = len(CYCLE)
    # operation seconds per cycle on the reference host, as first measured;
    # with --seconds it fixes the number of cycles in a run
    cycle_s = 5.0

    def specs(self, seed: int, cycles: int) -> list[dict]:
        rng = _seeded(seed, self.name)
        draws = {}
        for level, visits in Counter(self.CYCLE).items():
            count = visits * cycles
            if level in self.FIXED:
                order = list(range(count))
                rng.shuffle(order)
                draws[level] = iter([(0.5, (j + 0.5) / count) for j in order])
            else:
                draws[level] = iter(zip(stratified(rng, count),
                                        stratified(rng, count)))
        out = []
        for level in self.CYCLE * cycles:
            u, v = next(draws[level])
            reorth = level == "reorth"
            n = round((40 if reorth else level) * (0.98 + 0.04 * u))
            k = max(n + 1, math.ceil(log_spread(v, 1.05, 4.0) * n))
            out.append({"k": k, "n": n, "reorth": reorth})
        return out

    def prepare(self, specs, ctx, tracer):
        with tracer.span("setup.cold_import"):
            ctx.cold_start(["-c", "import oscbasis"])
        return None

    def run(self, spec, state, tracer):
        freq = Frequency.exact(spec["k"])
        n = spec["n"]
        with tracer.span("tables.build_tables", entries=(n + 2) ** 2):
            tables = build_tables(freq, n + 1)
        name = "basis.build_basis.reorth" if spec["reorth"] else "basis.build_basis"
        with tracer.span(name) as attrs:
            try:
                basis = build_basis(freq, n, tables,
                                    reorthogonalize=spec["reorth"])
            except BasisDegenerationError:
                attrs["refusals"] = 1
                raise
            attrs["rows"] = 2 * (n + 1)
        with tracer.span("calculus.derivative_matrix_legtrig"):
            op = derivative_matrix_legtrig(freq, n)
        with tracer.span("calculus.to_orthogonal_basis"):
            op = to_orthogonal_basis(op, basis)
        return {"tables": tables, "basis": basis, "op": op}

    def keep(self, spec, result, ctx):
        """Save the basis document and check the similarity relation now,
        so that the operation's arrays can be freed before the next one."""
        path = ctx.work / f"basis_{spec['index']}.json"
        save_basis(result["basis"], path)
        _, A, B = ref.load_rows(path)
        op = result["op"]
        M = ref.interleaved_matrix(A, B)
        DB = op.d_legtrig @ M
        sim = float(np.max(np.abs(M @ op.d_orth - DB))) / max(
            1.0, float(np.max(np.abs(DB))))
        return {"path": str(path), "similarity": sim}

    def check(self, spec, kept, state):
        omega, A, B = ref.load_rows(kept["path"])
        n_rows = 2 * (spec["n"] + 1)
        if A.shape[0] != n_rows or omega != TWO_PI * spec["k"]:
            return False, None, f"basis has {A.shape[0]} rows at omega={omega}"
        dev = ref.gram_deviation(A, B, omega)
        if not kept["similarity"] <= SIMILARITY_TOL:
            return False, dev, f"similarity residual {kept['similarity']:.2e}"
        if not dev <= GRAM_TOL:
            return False, dev, f"oracle max|G-I| = {dev:.2e}"
        return True, dev, ""

    def probe(self, spec, result, state, tracer, counters):
        _from_omega_probe(tracer, TWO_PI * spec["k"])
        with tracer.span("pairing.gram_matrix"):
            G = gram_matrix(result["basis"].rep, result["tables"])
        counters.peak("pairing.gram_dev.max",
                      float(np.max(np.abs(G - np.eye(G.shape[0])))))
        counters.peak("calculus.similarity_residual.max",
                      float(result["op"].similarity_residual))


class Approximate:
    """Project seeded oscillatory targets onto N = 12 bases built in set-up.

    omega / 2 pi is log-spread over [20, 2000] and kept off the 2 pi grid,
    in cycles with one target in each of seventeen log-spaced strata; the
    visits of a run to a stratum are spread evenly over it.  The cost of a
    target grows with omega, so whole cycles give every run the same cost
    mix.  The envelope pairs cycle through the catalog in seeded order,
    leaving out zero/zero.
    """

    name = "approximate"
    documented = DOCUMENTED
    STRATA = 17
    cycle = STRATA
    cycle_s = 6.8
    n_basis = 12
    grid = np.linspace(-1.0, 1.0, 2001)

    def specs(self, seed: int, cycles: int) -> list[dict]:
        rng = _seeded(seed, self.name)
        pairs = ENVELOPE_PAIRS[:]
        rng.shuffle(pairs)
        draws = [stratified(rng, cycles) for _ in range(self.STRATA)]
        out = []
        for i in range(cycles * self.STRATA):
            c, stratum = divmod(i, self.STRATA)
            periods = log_spread((stratum + draws[stratum][c]) / self.STRATA,
                                 20.0, 2000.0)
            # at least a hundredth of a period off the 2 pi grid
            frac = periods - math.floor(periods)
            if min(frac, 1.0 - frac) < 0.01:
                periods += 0.02
            f, g = pairs[i % len(pairs)]
            out.append({"omega_raw": TWO_PI * periods, "f": f, "g": g,
                        "points": [rng.uniform(-1.0, 1.0) for _ in range(4)]})
        return out

    def prepare(self, specs, ctx, tracer):
        with tracer.span("setup.cold_import"):
            ctx.cold_start(["-c", "import oscbasis"])
        bases = {}
        for k in sorted({round(s["omega_raw"] / TWO_PI) for s in specs}):
            freq = Frequency.exact(k)
            with tracer.span("tables.build_tables",
                             entries=(self.n_basis + 2) ** 2):
                tables = build_tables(freq, self.n_basis + 1)
            with tracer.span("basis.build_basis", rows=2 * (self.n_basis + 1)):
                bases[k] = build_basis(freq, self.n_basis, tables)
        return Bases(bases, ctx.work)

    def run(self, spec, bases, tracer):
        target = OscTarget(f_env=ENVELOPES[spec["f"]], g_env=ENVELOPES[spec["g"]],
                           freq_raw=spec["omega_raw"])
        with tracer.span("approx.reduce_frequency"):
            freq, reduced = reduce_frequency(target)
        basis = bases[freq.k]
        periods = spec["omega_raw"] / TWO_PI
        band = "lo" if periods < 100 else "hi" if periods >= 1000 else "mid"
        with tracer.span("approx.project", band=band):
            exp = project(reduced, basis)
        with tracer.span("approx.residual_norm"):
            resid = residual_norm(reduced, exp, basis)
        with tracer.span("approx.evaluate_expansion",
                         points=self.grid.size + len(spec["points"])):
            dense = evaluate_expansion(exp, basis, self.grid)
            scalars = [evaluate_expansion(exp, basis, x) for x in spec["points"]]
        return {"k": freq.k, "coeffs": np.array(exp.coeffs), "residual": resid,
                "dense": dense, "scalars": np.array(scalars)}

    def keep(self, spec, result, ctx):
        return result

    def check(self, spec, kept, bases):
        k = round(spec["omega_raw"] / TWO_PI)
        if kept["k"] != k:
            return False, None, f"reduced to k={kept['k']}, expected {k}"
        omega, A, B = bases.rows(k)
        f, g = ENVELOPES[spec["f"]], ENVELOPES[spec["g"]]
        c = kept["coeffs"]
        c_ref, r_ref = ref.projection(A, B, omega, f, g, spec["omega_raw"], c)
        dense_ref = c @ ref.member_values(A, B, omega, self.grid)
        scal_ref = c @ ref.member_values(A, B, omega, spec["points"])
        err = max(float(np.max(np.abs(c - c_ref))),
                  abs(kept["residual"] - r_ref),
                  float(np.max(np.abs(kept["dense"] - dense_ref))),
                  float(np.max(np.abs(kept["scalars"] - scal_ref))))
        if not err <= APPROX_TOL:
            return False, err, f"max error {err:.2e} against the fine oracle"
        return True, err, ""

    def probe(self, spec, result, bases, tracer, counters):
        basis = bases[result["k"]]
        _from_omega_probe(tracer, spec["omega_raw"])
        rule = _rule_probe(tracer, basis.freq.omega)
        _member_values_probe(tracer, basis, rule.nodes)
        _legendre_probe(tracer, basis.n_max, rule.nodes)
        with tracer.span("basis.content_hash"):
            basis.content_hash()


class Bases(dict):
    """Set-up bases by k, with their documents' coefficient rows for checks."""

    def __init__(self, bases, work):
        super().__init__(bases)
        self._work = work
        self._rows = {}

    def rows(self, k):
        if k not in self._rows:
            path = self._work / f"setup_basis_{k}.json"
            save_basis(self[k], path)
            self._rows[k] = ref.load_rows(path)
        return self._rows[k]


CLI_STEPS = ("tables", "verify_tables", "basis", "project", "diff",
             "verify_basis")


class CliPipeline:
    """`oscbasis` commands as subprocesses, one command per operation.

    Each cell runs tables -> verify, then basis -> project -> diff ->
    verify.  Cells cycle through four (N, k / N) sizes from (16, 4) to
    (54, 1.6), scaled down from the (2 pi 200, N = 100) case so that a run
    holds dozens of commands; the seed moves N and k / N by up to 2%,
    stratified over the visits of a run to each size, and picks the
    envelopes and the off-grid part of the target frequency.
    """

    name = "cli_pipeline"
    documented = ()
    CYCLE = ((16, 4.0), (30, 2.5), (48, 2.0), (54, 1.6))
    cycle = len(CLI_STEPS) * len(CYCLE)
    cycle_s = 8.8

    def specs(self, seed: int, cycles: int) -> list[dict]:
        rng = _seeded(seed, self.name)
        pairs = ENVELOPE_PAIRS[:]
        rng.shuffle(pairs)
        draws = [list(zip(stratified(rng, cycles), stratified(rng, cycles)))
                 for _ in self.CYCLE]
        out = []
        for i in range(cycles * len(self.CYCLE)):
            c, size = divmod(i, len(self.CYCLE))
            n_level, ratio = self.CYCLE[size]
            u, v = draws[size][c]
            n = round(n_level * (0.98 + 0.04 * u))
            k = math.ceil(ratio * (0.98 + 0.04 * v) * n)
            f, g = pairs[i % len(pairs)]
            eps = rng.uniform(-0.9, 0.9) * math.pi
            cell = {"k": k, "n": n, "f": f, "g": g,
                    "omega_raw": TWO_PI * k + eps}
            out.extend(dict(cell, step=step) for step in CLI_STEPS)
        return out

    @staticmethod
    def argv(spec, stem):
        k, n = spec["k"], spec["n"]
        step = spec["step"]
        if step == "tables":
            return ["tables", "--omega", f"2pi*{k}", "--n", str(n + 1),
                    "--out", f"{stem}_tables.json"]
        if step == "verify_tables":
            return ["verify", f"{stem}_tables.json"]
        if step == "basis":
            return ["basis", "--omega", f"2pi*{k}", "--n", str(n),
                    "--out", f"{stem}_basis.json"]
        if step == "project":
            return ["project", "--basis", f"{stem}_basis.json", "--f", spec["f"],
                    "--g", spec["g"], "--omega-raw", repr(spec["omega_raw"]),
                    "--out", f"{stem}_exp.json"]
        if step == "diff":
            return ["diff", "--basis", f"{stem}_basis.json", "--expansion",
                    f"{stem}_exp.json", "--out", f"{stem}_dexp.json"]
        return ["verify", f"{stem}_basis.json"]

    # manifest and report written by each step, relative to the stem
    MANIFEST = {"tables": "_tables.manifest.json",
                "verify_tables": "_tables.verify.manifest.json",
                "basis": "_basis.manifest.json",
                "project": "_exp.manifest.json",
                "diff": "_dexp.manifest.json",
                "verify_basis": "_basis.verify.manifest.json"}

    def prepare(self, specs, ctx, tracer):
        with tracer.span("setup.cold_import"):
            ctx.cold_start(["-m", "oscbasis.cli", "--help"])
        return ctx

    def run(self, spec, state, tracer):
        # one cell is six consecutive operations; the stem is unique per
        # cell visit so that every output survives until the checks
        stem = f"c{spec['index'] // len(CLI_STEPS)}"
        t0 = time.perf_counter()
        with tracer.span(f"cli.{spec['step'].split('_')[0]}") as attrs:
            proc = subprocess.run(
                [sys.executable, "-m", "oscbasis.cli", *self.argv(spec, stem)],
                cwd=state.work, env=state.env, capture_output=True, text=True)
        attrs["exit_code"] = proc.returncode
        return {"stem": stem, "exit_code": proc.returncode,
                "wall": time.perf_counter() - t0, "stderr": proc.stderr[-2000:]}

    def keep(self, spec, result, ctx):
        return result

    def _manifest(self, work, spec, stem):
        with open(work / f"{stem}{self.MANIFEST[spec['step']]}") as fh:
            return json.load(fh)

    def check(self, spec, kept, state):
        work = state.work
        stem = kept["stem"]
        manifest = self._manifest(work, spec, stem)
        for out in manifest["outputs"]:
            data = (work / out["path"]).read_bytes()
            if hashlib.sha256(data).hexdigest() != out["sha256"] or \
                    len(data) != out["bytes"]:
                return False, None, f"{out['path']} does not match its manifest"
        step = spec["step"]
        n_rows = 2 * (spec["n"] + 1)
        if step == "tables":
            with open(work / f"{stem}_tables.json") as fh:
                doc = json.load(fh)
            ok = doc["n_max"] == spec["n"] + 1 and \
                np.asarray(doc["m5"]).shape == (spec["n"] + 2,) * 2
            return ok, None, "" if ok else "tables document has the wrong size"
        if step in ("verify_tables", "verify_basis"):
            kind = step.split("_")[1]
            with open(work / f"{stem}_{kind}.verify.json") as fh:
                report = json.load(fh)
            if kind == "tables":
                dev = max(report["max_deviation_per_matrix"].values())
            else:
                dev = report["max_gram_deviation"]
            ok = report["passed"] is True and dev <= report["tolerance"]
            return ok, dev, "" if ok else f"verify {kind} reports {dev:.2e}"
        omega, A, B = ref.load_rows(work / f"{stem}_basis.json")
        if step == "basis":
            ok = A.shape[0] == n_rows and omega == TWO_PI * spec["k"]
            return ok, None, "" if ok else "basis document has the wrong size"
        if step == "project":
            with open(work / f"{stem}_exp.json") as fh:
                c = np.asarray(json.load(fh)["coeffs"], dtype=float)
            with open(work / f"{stem}_exp.report.json") as fh:
                reported = json.load(fh)["residual_norm"]
            f, g = ENVELOPES[spec["f"]], ENVELOPES[spec["g"]]
            c_ref, r_ref = ref.projection(A, B, omega, f, g, spec["omega_raw"], c)
            err = max(float(np.max(np.abs(c - c_ref))), abs(reported - r_ref))
            ok = c.size == n_rows and err <= APPROX_TOL
            return ok, err, "" if ok else f"projection error {err:.2e}"
        with open(work / f"{stem}_dexp.report.json") as fh:
            report = json.load(fh)
        with open(work / f"{stem}_dexp.json") as fh:
            n_coeffs = len(json.load(fh)["coeffs"])
        ok = n_coeffs == n_rows and \
            report["max_fd_relative_deviation"] <= 1e-6 and \
            math.isfinite(report["similarity_residual"])
        return ok, None, "" if ok else "derivative report out of range"

    def probe(self, spec, result, state, tracer, counters):
        work, stem, step = state.work, result["stem"], spec["step"]
        try:
            manifest = self._manifest(work, spec, stem)
        except OSError:
            manifest = None
        if manifest is not None:
            cmd = step.split("_")[0]
            counters.add(f"cli.{cmd}.in_process_s", manifest["duration_seconds"])
            counters.add("cli.bytes_written",
                         float(sum(o["bytes"] for o in manifest["outputs"])))
            counters.sample("cli.startup_s",
                            result["wall"] - manifest["duration_seconds"])
        if result["exit_code"] != 0:
            counters.add("cli.exit_nonzero", 1.0)
            return
        freq = Frequency.exact(spec["k"])
        if step in ("tables", "basis"):
            n = spec["n"] + 1
            with tracer.span("tables.build_tables", entries=(n + 1) ** 2):
                tables = build_tables(freq, n)
            if step == "basis":
                with tracer.span("basis.build_basis", rows=2 * (spec["n"] + 1)):
                    basis = build_basis(freq, spec["n"], tables)
                with tracer.span("pairing.gram_matrix"):
                    gram_matrix(basis.rep, tables)
            return
        if step == "verify_tables":
            tables = load_tables(work / f"{stem}_tables.json")
            rule = _rule_probe(tracer, freq.omega)
            _legendre_probe(tracer, tables.n_max, rule.nodes)
            with tracer.span("tables.verify_tables"):
                report = verify_tables(tables, GRAM_TOL)
            counters.peak("tables.verify_tables.max_dev",
                          max(report.deviations.values()))
            return
        basis = load_basis(work / f"{stem}_basis.json")
        if step == "verify_basis":
            rule = _rule_probe(tracer, freq.omega)
            _member_values_probe(tracer, basis, rule.nodes)
            _legendre_probe(tracer, basis.n_max, rule.nodes)
            with tracer.span("oracle.member_gram"):
                member_gram(basis.rep, freq.omega)
        elif step == "project":
            target = OscTarget(f_env=ENVELOPES[spec["f"]],
                               g_env=ENVELOPES[spec["g"]],
                               freq_raw=spec["omega_raw"])
            _from_omega_probe(tracer, spec["omega_raw"])
            with tracer.span("approx.reduce_frequency"):
                _, reduced = reduce_frequency(target)
            with tracer.span("approx.project", band="lo" if spec["k"] < 100 else "mid"):
                exp = project(reduced, basis)
            with tracer.span("approx.residual_norm"):
                residual_norm(reduced, exp, basis)
            rule = _rule_probe(tracer, freq.omega)
            _member_values_probe(tracer, basis, rule.nodes)
            _legendre_probe(tracer, basis.n_max, rule.nodes)
        else:
            # diff: the derivative operator, then the expansion at the 21
            # points and the +-h, +-2h neighbours the command evaluates
            with tracer.span("basis.content_hash"):
                basis.content_hash()
            with tracer.span("calculus.derivative_matrix_legtrig"):
                op = derivative_matrix_legtrig(freq, basis.n_max)
            with tracer.span("calculus.to_orthogonal_basis"):
                op = to_orthogonal_basis(op, basis)
            counters.peak("calculus.similarity_residual.max",
                          float(op.similarity_residual))
            xs = np.linspace(-0.9, 0.9, 21)
            h = 1e-5
            x = np.concatenate([xs + d * h for d in (0, 1, -1, 2, -2)])
            with tracer.span("approx.evaluate_expansion", points=x.size):
                evaluate_expansion(load_expansion(work / f"{stem}_exp.json"),
                                   basis, x)
            _member_values_probe(tracer, basis, x)
            _legendre_probe(tracer, basis.n_max, x)


WORKLOADS = {w.name: w for w in (Construct(), Approximate(), CliPipeline())}

