"""Tests of the benchmark's own rules.  Run: python3 -m pytest bench"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import reference as ref
import run
import workloads
from harness import (FAILED, OK, REFUSED, Span, Tracer, busy_by_name,
                     cap_threads, classify, digits, self_times, stratified,
                     tail_percentile)
from oscbasis import (BasisDegenerationError, Frequency, OscTarget, build_basis,
                      build_tables, project, save_basis)
from oscbasis.oracle import member_gram

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_a_function_of_the_seed(name):
    wl = workloads.WORKLOADS[name]
    assert wl.specs(7, 2) == wl.specs(7, 2)
    assert wl.specs(7, 2) != wl.specs(8, 2)
    assert len(wl.specs(7, 2)) == 2 * wl.cycle


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_run_length_depends_on_the_arguments_alone(name):
    wl = workloads.WORKLOADS[name]
    cycles = run.cycles_for(wl, 20.0, traced=False)
    assert cycles == run.cycles_for(wl, 20.0, traced=False) >= 1
    assert run.cycles_for(wl, 20.0, traced=True) <= cycles
    assert run.cycles_for(wl, 1e-3, traced=False) == 1


def test_construct_cells_stay_in_the_stable_regime():
    cells = workloads.Construct().specs(3, 4)
    assert all(c["k"] > c["n"] for c in cells)
    assert min(c["n"] for c in cells) <= 20 and max(c["n"] for c in cells) >= 200
    # the large-N corner close to omega / 2 pi = N is in every run
    for seed in range(10):
        big = [c for c in workloads.Construct().specs(seed, 4) if c["n"] >= 196]
        assert len(big) == 16 and min(c["k"] / c["n"] for c in big) < 1.2
    assert all(c["reorth"] == (i % 13 in (4, 5, 6, 7)) for i, c in enumerate(cells))


def test_construct_large_cells_are_the_same_on_every_seed():
    def large(seed):
        cells = workloads.Construct().specs(seed, 4)
        return [c for c in cells if c["n"] in workloads.Construct.FIXED]

    assert len(large(1)) == 20
    assert sorted(map(str, large(1))) == sorted(map(str, large(2)))
    assert large(1) != large(2)


def test_approximate_targets_are_off_grid_and_skip_zero_zero():
    targets = workloads.Approximate().specs(3, 3)
    for t in targets:
        periods = t["omega_raw"] / (2 * math.pi)
        assert 20 <= periods <= 2001
        assert abs(periods - round(periods)) >= 0.005
        assert (t["f"], t["g"]) != ("zero", "zero")
    assert any("runge" in (t["f"], t["g"]) for t in targets
               if t["omega_raw"] < 2 * math.pi * 100)


def test_cli_cells_run_both_sequences_in_order():
    specs = workloads.CliPipeline().specs(3, 2)
    steps = [s["step"] for s in specs[:6]]
    assert steps == list(workloads.CLI_STEPS)
    assert len({(s["k"], s["n"]) for s in specs[:6]}) == 1


def test_stratified_draws_one_point_per_stratum():
    import random
    us = stratified(random.Random(5), 40)
    assert sorted(int(40 * u) for u in us) == list(range(40))
    # one offset for all strata, so every seed gets the same spread
    assert len({round(40 * u % 1.0, 12) for u in us}) == 1
    assert us != sorted(us)


@pytest.mark.parametrize("n", [11, 12, 25, 100, 1000])
def test_tail_has_exactly_ten_samples_beyond(n):
    samples = list(np.random.default_rng(n).permutation(n) * 1.5)
    value, pct, count = tail_percentile(samples)
    assert sum(s > value for s in samples) == 10
    assert count == n
    assert pct == pytest.approx(100.0 * (n - 10) / n)


def test_tail_with_ten_or_fewer_samples_is_the_maximum():
    assert tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert tail_percentile(list(range(10)))[:2] == (9, 100.0)


def _span(i, start, end, parent=None, name="x"):
    return Span(i, name, start, end, parent, None)


def test_self_time_subtracts_merged_children():
    spans = [_span(0, 0.0, 10.0, name="op"),
             _span(1, 1.0, 3.0, 0, "a"), _span(2, 2.0, 5.0, 0, "b"),
             _span(3, 7.0, 8.0, 0, "a"), _span(4, 9.0, 12.0, 0, "a"),
             _span(5, 7.5, 7.75, 3, "c")]
    own = self_times(spans)
    # children cover [1, 5], [7, 8] and [9, 10] (clipped): 6 of 10
    assert own[0] == pytest.approx(4.0)
    assert own[3] == pytest.approx(0.75)
    busy = busy_by_name(spans)
    assert busy["a"] == pytest.approx(2.0 + 0.75 + 3.0)
    # overlapping and overhanging children make the sum exceed the root
    assert sum(busy.values()) == pytest.approx(10.0 - 6.0 + 9.0)


def test_per_layer_metrics_come_from_spans_and_counters():
    spans = [Span(0, "op", 0.0, 5.0, None, 0),
             Span(1, "tables.build_tables", 0.0, 1.0, 0, 0, {"entries": 9}),
             Span(2, "basis.build_basis", 1.0, 2.0, 0, 0, {"rows": 6}),
             Span(3, "basis.build_basis.reorth", 2.0, 4.0, 0, 0,
                  {"refusals": 1}),
             Span(4, "approx.project", 4.0, 4.5, 0, 0, {"band": "lo"}),
             Span(5, "approx.project", 4.5, 4.75, 0, 0, {"band": "hi"})]
    counters = workloads.Counters()
    counters.peak("pairing.gram_dev.max", 3e-12)
    counters.peak("pairing.gram_dev.max", 1e-12)
    counters.add("cli.bytes_written", 10.0)
    counters.sample("cli.startup_s", 0.3)
    counters.sample("cli.startup_s", 0.5)
    layer = run.per_layer(spans, counters)
    assert list(layer) == [name for name, _ in run.PER_LAYER]
    assert layer["tables.build_tables.calls"] == 1.0
    assert layer["tables.build_tables.entries"] == 9.0
    assert layer["basis.build_basis.calls"] == 2.0
    assert layer["basis.build_basis.busy_s"] == pytest.approx(3.0)
    assert layer["basis.build_basis.reorth.busy_s"] == pytest.approx(2.0)
    assert layer["basis.build_basis.rows"] == 6.0
    assert layer["basis.build_basis.refusals"] == 1.0
    assert layer["approx.project.busy_s"] == pytest.approx(0.75)
    assert layer["approx.project.ms_p50.band_lo"] == pytest.approx(500.0)
    assert layer["approx.project.ms_p50.band_hi"] == pytest.approx(250.0)
    assert layer["pairing.gram_dev.max"] == 3e-12
    assert layer["cli.bytes_written"] == 10.0
    assert layer["cli.startup_s"] == pytest.approx(0.4)
    assert layer["oracle.member_gram.busy_s"] == 0.0


def test_tracer_records_parents_and_operation_ids():
    tr = Tracer(enabled=True)
    tr.op = 4
    with tr.span("op"):
        with tr.span("tables.build_tables", entries=9) as attrs:
            attrs["extra"] = 1
    assert [(s.name, s.parent, s.op) for s in tr.spans] == [
        ("op", None, 4), ("tables.build_tables", 0, 4)]
    assert tr.spans[1].attrs == {"entries": 9, "extra": 1}
    assert all(s.end >= s.start for s in tr.spans)
    off = Tracer(enabled=False)
    with off.span("op") as attrs:
        attrs["x"] = 1
    assert off.spans == []


@pytest.mark.parametrize("kwargs, outcome", [
    ({"raised": BasisDegenerationError("x"),
      "documented": workloads.DOCUMENTED}, REFUSED),
    ({"raised": ValueError("x"), "documented": workloads.DOCUMENTED}, REFUSED),
    ({"raised": KeyError("x"), "documented": workloads.DOCUMENTED}, FAILED),
    ({"raised": ValueError("x"), "documented": ()}, FAILED),
    ({"exit_code": 2}, REFUSED),
    ({"exit_code": 1, "check_passed": True}, FAILED),
    ({"exit_code": 3}, FAILED),
    ({"exit_code": 0, "check_passed": True}, OK),
    ({"exit_code": 0, "check_passed": False}, FAILED),
    ({"check_passed": True}, OK),
    ({"check_passed": False}, FAILED),
    ({}, FAILED),
])
def test_classification(kwargs, outcome):
    assert classify(**kwargs) == outcome


def test_digits_are_capped():
    assert digits(0.0) == 16.0
    assert digits(1e-12) == pytest.approx(12.0)
    assert digits(float("nan")) == 0.0


def test_run_checks_classes_every_record():
    class Stub:
        documented = (BasisDegenerationError,)

        def check(self, spec, kept, state):
            if kept == "boom":
                raise KeyError("missing")
            return kept == "good", 1e-13, ""

    recs = [run.Record({}, 0.1, raised=BasisDegenerationError("x")),
            run.Record({}, 0.1, raised=RuntimeError("x")),
            run.Record({}, 0.1, kept="good"), run.Record({}, 0.1, kept="bad"),
            run.Record({}, 0.1, kept={"exit_code": 2})]
    assert run.run_checks(Stub(), recs, None)
    assert [r.outcome for r in recs] == [REFUSED, FAILED, OK, FAILED, REFUSED]
    broken = [run.Record({}, 0.1, kept="boom")]
    assert not run.run_checks(Stub(), broken, None)
    assert broken[0].outcome == FAILED


def test_cap_threads_keeps_a_stricter_cap():
    env = {"OPENBLAS_NUM_THREADS": "1"}
    assert cap_threads(env, 4) == 1
    assert all(env[v] == "1" for v in ("OMP_NUM_THREADS", "MKL_NUM_THREADS"))
    env = {}
    cap = cap_threads(env, 4)
    assert 1 <= cap <= 4 and env["OPENBLAS_NUM_THREADS"] == str(cap)
    assert cap_threads({}, 1) == 1


@pytest.fixture(scope="module")
def small_basis(tmp_path_factory):
    freq = Frequency.exact(9)
    basis = build_basis(freq, 5, build_tables(freq, 6))
    path = tmp_path_factory.mktemp("ref") / "basis.json"
    save_basis(basis, path)
    return basis, ref.load_rows(path)


def test_reference_gram_matches_the_oracle(small_basis):
    basis, (omega, A, B) = small_basis
    G = ref.gram(A, B, omega)
    assert np.max(np.abs(G - member_gram(basis.rep, omega))) < 1e-13
    assert ref.gram_deviation(A, B, omega) < 1e-12


def test_reference_projection_matches_the_program(small_basis):
    basis, (omega, A, B) = small_basis
    f, g = np.exp, np.cos
    exp = project(OscTarget(f_env=f, g_env=g, freq_raw=omega), basis)
    c_ref, resid = ref.projection(A, B, omega, f, g, omega, exp.coeffs)
    assert np.max(np.abs(exp.coeffs - c_ref)) < 1e-12
    # the residual of a 12-row expansion of exp/cos is small but not zero
    assert 0.0 < resid < 1e-3


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
