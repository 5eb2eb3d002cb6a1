"""Layered benchmark for oscbasis.

Run from the root of a checkout:

    python3 bench/run.py --workload construct --seed 1 --seconds 25 --trace 0

Workloads are `construct`, `approximate` and `cli_pipeline`; `--workload
all` runs each in its own process.  Each run is a closed loop: one client,
the next operation starts when the previous one ends.  With `--trace 0` the
last line of standard output is a JSON object with the end-to-end metrics;
with `--trace 1` it holds the per-layer metrics of a traced run, and the
lines before it give the tracing overhead.  Full results, and the spans of a
traced run, are written under `.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from statistics import median

from harness import (FAILED, OK, REFUSED, HostClock, Tracer, busy_by_name,
                     cap_threads, classify, digits, environment_record,
                     tail_percentile)

WORKLOAD_NAMES = ("construct", "approximate", "cli_pipeline")
SETUP_REPEATS = 3
# One client runs one operation at a time.  On a 2-core shared host, two
# BLAS threads made no operation faster and made times spread twice as
# wide, because a BLAS call waits for its slowest thread.
BLAS_THREADS = 1
# wall time of a traced operation, with its untraced twin and its probes,
# over the operation time of an untraced one
TRACED_COST = 2.5

# end-to-end metrics gated in BENCHMARK.json: (name, unit)
END_TO_END = (
    ("setup_s", "s"),
    ("ok_ops_per_s", "1/s"),
    ("op_ms.p50", "ms"),
    ("op_ms.tail", "ms"),
    ("ok_frac", "1"),
    ("accuracy_digits.min", "digits"),
    ("peak_rss_mb", "MB"),
)
# printed and recorded, not gated: zero on workloads without refusals or
# failures, so no relative bound can apply to them
REPORTED_ONLY = (("fail_frac", "1"), ("refuse_frac", "1"))

CLI_COMMANDS = ("tables", "basis", "verify", "project", "diff")

PER_LAYER = (
    ("tables.build_tables.calls", "count"),
    ("tables.build_tables.busy_s", "s"),
    ("tables.build_tables.entries", "count"),
    ("basis.build_basis.calls", "count"),
    ("basis.build_basis.busy_s", "s"),
    ("basis.build_basis.rows", "count"),
    ("basis.build_basis.refusals", "count"),
    ("basis.build_basis.reorth.busy_s", "s"),
    ("pairing.gram_matrix.busy_s", "s"),
    ("pairing.gram_dev.max", "1"),
    ("calculus.derivative_matrix_legtrig.busy_s", "s"),
    ("calculus.to_orthogonal_basis.busy_s", "s"),
    ("calculus.similarity_residual.max", "1"),
    ("approx.reduce_frequency.busy_s", "s"),
    ("approx.project.busy_s", "s"),
    ("approx.residual_norm.busy_s", "s"),
    ("approx.evaluate_expansion.busy_s", "s"),
    ("approx.project.ms_p50.band_lo", "ms"),
    ("approx.project.ms_p50.band_hi", "ms"),
    ("approx.evaluate_expansion.points", "count"),
    ("basis.member_values.busy_s", "s"),
    ("basis.member_values.points_x_rows", "count"),
    ("legendre.legendre_table.busy_s", "s"),
    ("legendre.legendre_table.flops_computed", "flop"),
    ("legendre.legendre_table.bytes_computed", "B"),
    ("basis.content_hash.calls", "count"),
    ("basis.content_hash.busy_s", "s"),
    ("oracle.composite_rule.nodes", "count"),
    ("oracle.member_gram.busy_s", "s"),
    ("tables.verify_tables.busy_s", "s"),
    ("tables.verify_tables.max_dev", "1"),
    *((f"cli.{c}.wall_s", "s") for c in CLI_COMMANDS),
    *((f"cli.{c}.in_process_s", "s") for c in CLI_COMMANDS),
    ("cli.startup_s", "s"),
    ("cli.bytes_written", "B"),
    ("cli.exit_nonzero", "count"),
    ("frequency.from_omega.calls", "count"),
)


@dataclass
class Record:
    """One operation: its inputs, wall time, host slowdown, outcome and
    check."""

    spec: dict
    seconds: float
    host: float = 1.0
    raised: BaseException | None = None
    kept: object = None
    untraced_seconds: float | None = None
    outcome: str = ""
    error: float | None = None
    note: str = ""


@dataclass
class Context:
    """Where a run works and how it starts child interpreters."""

    root: Path
    work: Path
    env: dict = field(default_factory=dict)

    def cold_start(self, argv):
        """Run a fresh interpreter to completion; set-up fails if it does."""
        proc = subprocess.run([sys.executable, *argv], cwd=self.work,
                              env=self.env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"cold start {argv} exited {proc.returncode}: "
                               f"{proc.stderr[-500:]}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0,
                   help="operation time to measure per run, on the "
                   "reference host")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def cycles_for(wl, seconds: float, traced: bool) -> int:
    """Whole cycles of the workload that take about `seconds` of operation
    time on the reference host (2-core x86-64), or about `seconds` of wall
    time in a traced run, where each operation runs twice and is probed.

    The count depends on the arguments alone, not on the clock, so a seed
    and a duration always give the same operations, and the same code the
    same outcomes, however fast the host runs.
    """
    per_cycle = wl.cycle_s * (TRACED_COST if traced else 1.0)
    return max(1, round(seconds / per_cycle))


def run_ops(wl, specs, state, ctx, tracer, counters, clock):
    """The timed region: the operations of `specs`, back to back, each with
    host-speed samples right before and after it.

    In a traced run each operation runs twice, untraced and traced, in
    alternating order, so the tracing overhead is measured on the same
    inputs; probes follow outside both timings.
    """
    records = []
    for i, spec in enumerate(specs):
        spec = dict(spec, index=i)
        before = clock.sample()
        if tracer.enabled:
            if i % 2:
                result, raised, dt = _timed(wl, spec, state, tracer)
                untraced = _timed(wl, spec, state, _OFF)[2]
            else:
                untraced = _timed(wl, spec, state, _OFF)[2]
                result, raised, dt = _timed(wl, spec, state, tracer)
            record = Record(spec, dt, raised, untraced_seconds=untraced)
            if raised is None:
                _probe(wl, spec, result, state, tracer, counters)
        else:
            result, raised, dt = _timed(wl, spec, state, tracer)
            record = Record(spec, dt, raised)
        record.host = clock.factor(before, clock.sample())
        if raised is None:
            record.kept = wl.keep(spec, result, ctx)
        result = None
        records.append(record)
    return records


_OFF = Tracer(enabled=False)


def _timed(wl, spec, state, tracer):
    """(result, exception, seconds) of one operation; a traced operation is
    one `op` span with the module spans below it."""
    if tracer.enabled:
        tracer.op = spec["index"]
    t0 = time.perf_counter()
    try:
        with tracer.span("op"):
            result = wl.run(spec, state, tracer)
    except Exception as exc:  # classed by run_checks
        return None, exc, time.perf_counter() - t0
    return result, None, time.perf_counter() - t0


def _probe(wl, spec, result, state, tracer, counters):
    tracer.op = spec["index"]
    try:
        with tracer.span("probe"):
            wl.probe(spec, result, state, tracer, counters)
    except Exception:  # a probe must not end the run; it is reported
        counters.sample("probe_errors", traceback.format_exc(limit=3))


def run_checks(wl, records, state):
    """Class every operation; returns False if some output could not be
    checked at all (then the run is not `correct`)."""
    all_checked = True
    for r in records:
        if r.raised is not None:
            r.outcome = classify(raised=r.raised, documented=wl.documented)
            r.note = f"{type(r.raised).__name__}: {r.raised}"[:300]
            continue
        exit_code = r.kept.get("exit_code") if isinstance(r.kept, dict) else None
        if exit_code not in (None, 0):
            r.outcome = classify(exit_code=exit_code)
            r.note = f"exit {exit_code}: {r.kept.get('stderr', '')[-300:]}"
            continue
        try:
            passed, r.error, r.note = wl.check(r.spec, r.kept, state)
        except Exception as exc:
            passed = False
            all_checked = False
            r.note = f"check could not run: {type(exc).__name__}: {exc}"[:300]
        r.outcome = classify(exit_code=exit_code, check_passed=passed)
    return all_checked


def end_to_end(records, setup_times, peak_rss_mb) -> tuple[dict, dict]:
    """End-to-end metrics and the facts behind them.

    Times, set-up times included, are on the reference host: each wall time
    divided by the host slowdown measured around it.
    """
    n = len(records)
    times_ms = [1e3 * r.seconds / r.host for r in records]
    busy = 1e-3 * sum(times_ms)
    count = {o: sum(r.outcome == o for r in records) for o in (OK, REFUSED, FAILED)}
    tail, pct, samples = tail_percentile(times_ms)
    errors = [r.error for r in records if r.outcome == OK and r.error is not None]
    values = {
        "setup_s": median(t / host for t, host in setup_times),
        "ok_ops_per_s": count[OK] / busy,
        "op_ms.p50": median(times_ms),
        "op_ms.tail": tail,
        "ok_frac": count[OK] / n,
        "accuracy_digits.min": min(map(digits, errors)) if errors else 16.0,
        "peak_rss_mb": peak_rss_mb,
        "fail_frac": count[FAILED] / n,
        "refuse_frac": count[REFUSED] / n,
    }
    checked = [r.error for r in records if r.error is not None]
    facts = {"attempted": n, **count, "measured_s": busy,
             "wall_s": sum(r.seconds for r in records),
             "wall_ms.p50": median(1e3 * r.seconds for r in records),
             "host_slowdown.median": median(r.host for r in records),
             "tail_percentile": pct, "tail_samples": samples,
             "accuracy_digits.min_all_checked":
                 min(map(digits, checked)) if checked else None}
    return values, facts


def per_layer(spans, counters) -> dict:
    busy = busy_by_name(spans)
    calls: dict[str, int] = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1

    def band(which):
        ms = [1e3 * (s.end - s.start) for s in spans
              if s.name == "approx.project" and s.attrs.get("band") == which]
        return median(ms) if ms else 0.0

    # a metric <span name>.<stat> is the span count, the summed self time,
    # or the sum of that attribute over the spans; the rest are counters
    attr_sums: dict[str, float] = {}
    for s in spans:
        for stat, v in s.attrs.items():
            if isinstance(v, (int, float)):
                key = f"{s.name}.{stat}"
                attr_sums[key] = attr_sums.get(key, 0.0) + v
    out = {}
    for name, _ in PER_LAYER:
        span_name, stat = name.rsplit(".", 1)
        if stat == "busy_s":
            out[name] = busy.get(span_name, 0.0)
        elif stat == "calls":
            out[name] = float(calls.get(span_name, 0))
        else:
            out[name] = float(attr_sums.get(name, counters.sums.get(
                name, counters.maxima.get(name, 0.0))))
    # reorthogonalized builds are build_basis calls too
    out["basis.build_basis.busy_s"] += busy.get("basis.build_basis.reorth", 0.0)
    out["basis.build_basis.calls"] += calls.get("basis.build_basis.reorth", 0)
    for stat in ("rows", "refusals"):
        out[f"basis.build_basis.{stat}"] += attr_sums.get(
            f"basis.build_basis.reorth.{stat}", 0.0)
    for c in CLI_COMMANDS:
        out[f"cli.{c}.wall_s"] = busy.get(f"cli.{c}", 0.0)
    out["approx.project.ms_p50.band_lo"] = band("lo")
    out["approx.project.ms_p50.band_hi"] = band("hi")
    startup = counters.samples.get("cli.startup_s")
    out["cli.startup_s"] = median(startup) if startup else 0.0
    return out


def overhead(records) -> dict:
    traced = [1e3 * r.seconds for r in records]
    untraced = [1e3 * r.untraced_seconds for r in records]
    return {
        "op_ms.p50": median(traced) - median(untraced),
        "op_ms.tail": tail_percentile(traced)[0] - tail_percentile(untraced)[0],
        "op_ms.mean_pair_diff": sum(t - u for t, u in zip(traced, untraced))
        / len(records),
        "pairs": len(records),
    }


def _metric_doc(values: dict, spec) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in spec}


def run_workload(args, root: Path) -> int:
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    out_dir = root / ".bench_out"
    ctx = Context(root=root, work=out_dir / f"work-{args.workload}-{args.seed}-"
                  f"{args.trace}-{os.getpid()}", env=dict(os.environ))
    src = str(root / "src")
    ctx.env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    ctx.work.mkdir(parents=True)
    try:
        return _run_in(wl, ctx, args, out_dir, workloads.Counters())
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)


def _run_in(wl, ctx, args, out_dir, counters) -> int:
    tracer = Tracer(enabled=bool(args.trace))
    specs = wl.specs(args.seed, cycles_for(wl, args.seconds, bool(args.trace)))
    clock = HostClock()
    setup_times = []
    for rep in range(SETUP_REPEATS):
        before = clock.sample()
        t0 = time.perf_counter()
        state = wl.prepare(specs, ctx, tracer if rep == SETUP_REPEATS - 1 else _OFF)
        dt = time.perf_counter() - t0
        setup_times.append((dt, clock.factor(before, clock.sample())))

    records = run_ops(wl, specs, state, ctx, tracer, counters, clock)
    usage = resource.RUSAGE_CHILDREN if wl.name == "cli_pipeline" \
        else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0

    all_checked = run_checks(wl, records, state)
    values, facts = end_to_end(records, setup_times, peak_rss_mb)
    env = environment_record(int(ctx.env["OPENBLAS_NUM_THREADS"]))

    mode = "traced" if args.trace else "untraced"
    print(f"workload {wl.name}, seed {args.seed}, {mode}, "
          f"{facts['wall_s']:.1f} s of operations: {facts['attempted']} "
          f"attempted, {facts[OK]} ok, {facts[REFUSED]} refused, "
          f"{facts[FAILED]} failed")
    for name, unit in END_TO_END + REPORTED_ONLY:
        line = f"  {name:<22} {values[name]:>12.6g} {unit}"
        if name == "op_ms.tail":
            line += (f"  (p{facts['tail_percentile']:.1f} of "
                     f"{facts['tail_samples']} operations)")
        if name == "setup_s":
            line += f"  (median of {SETUP_REPEATS})"
        print(line)
    print(f"  times are on the reference host; the host ran "
          f"{facts['host_slowdown.median']:.3f} times slower (median), and "
          f"the wall-time op_ms.p50 was {facts['wall_ms.p50']:.6g} ms")
    for r in records:
        if r.outcome != OK:
            print(f"  {r.outcome}: op {r.spec['index']} "
                  f"{json.dumps({k: v for k, v in r.spec.items() if k != 'index'})}"
                  f" {r.note}")
    print(f"  environment: {json.dumps(env)}")

    doc = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
           "seconds": args.seconds, "environment": env, "facts": facts,
           "end_to_end": values,
           "setup": [{"seconds": t, "host": h} for t, h in setup_times],
           "operations": [{"spec": r.spec, "seconds": r.seconds, "host": r.host,
                           "outcome": r.outcome, "error": r.error,
                           "note": r.note} for r in records]}
    metrics = _metric_doc(values, END_TO_END)
    if args.trace:
        layer = per_layer(tracer.spans, counters)
        cost = overhead(records)
        doc.update(per_layer=layer, tracing_overhead=cost,
                   probe_errors=counters.samples.get("probe_errors", []))
        print("  per-layer (traced run):")
        for name, unit in PER_LAYER:
            print(f"    {name:<42} {layer[name]:>14.6g} {unit}")
        print(f"  tracing overhead, traced minus untraced over "
              f"{cost['pairs']} paired operations: op_ms.p50 "
              f"{cost['op_ms.p50']:+.4g} ms, op_ms.tail {cost['op_ms.tail']:+.4g}"
              f" ms, mean per operation {cost['op_ms.mean_pair_diff']:+.4g} ms")
        for err in doc["probe_errors"][:3]:
            print(f"  probe error: {err.strip().splitlines()[-1]}")
        spans_path = out_dir / f"spans-{wl.name}-{args.seed}.json"
        spans_path.write_text(json.dumps([s.as_dict() for s in tracer.spans]))
        metrics = _metric_doc(layer, PER_LAYER)
    result_path = out_dir / f"result-{wl.name}-{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(doc, indent=1, default=str) + "\n")
    print(f"  results: {result_path.relative_to(ctx.root)}")
    print(json.dumps({"correct": all_checked, "attempted": facts["attempted"],
                      "failed": facts[FAILED], "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so peak memory is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            return proc.returncode
        last = json.loads(lines[-1])
        merged["correct"] &= last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        merged["metrics"].update({f"{name}.{k}": v
                                  for k, v in last["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "oscbasis" / "__init__.py").is_file():
        print(f"error: no oscbasis sources under {root / 'src'}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # before numpy is first imported, so that this process and its children
    # use at most BLAS_THREADS BLAS threads
    cap_threads(os.environ, BLAS_THREADS)
    # the build: byte-compile the package the way every later import uses it
    if not compileall.compile_dir(str(root / "src"), quiet=1):
        print("error: oscbasis sources do not compile", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    return run_workload(args, root)


if __name__ == "__main__":
    sys.exit(main())
