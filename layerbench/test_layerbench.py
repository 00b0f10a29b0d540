"""Self-tests of the benchmark: its statistics helpers, its trace analysis,
its agreement with BENCHMARK.json, and a smoke-size pass of every workload
through the single command.

    python3 -m pytest layerbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from layerbench import calib, run, stats, trace, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- tail percentile -----------------------------------------------------------

def test_tail_leaves_exactly_ten_samples_beyond():
    values = list(range(100, 0, -1))          # 1..100, unsorted
    value, pct, n = stats.tail(values)
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(v > value for v in values) == 10


def test_tail_of_eleven_samples_is_the_minimum():
    value, pct, n = stats.tail([5.0] + [9.0] * 10)
    assert (value, n) == (5.0, 11)
    assert pct == pytest.approx(100 / 11)


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        stats.tail(range(10))


def test_median():
    assert stats.median([3, 1, 2]) == 2
    assert stats.median([4, 1, 3, 2]) == 2.5


# -- typed counter diffs -------------------------------------------------------

def test_counter_diff_differences_counters_only():
    before = {"hits": 90, "misses": 10, "physical_bytes": 100,
              "logical_bytes": 1000, "hit_rate": 0.9,
              "compression_ratio": 0.1}
    after = {"hits": 100, "misses": 100, "physical_bytes": 600,
             "logical_bytes": 2000, "hit_rate": 0.5,
             "compression_ratio": 0.3}
    d = stats.counter_diff(before, after, ("hits", "misses", "physical_bytes",
                                           "logical_bytes"))
    assert d == {"hits": 10, "misses": 90, "physical_bytes": 500,
                 "logical_bytes": 1000}
    # the phase's ratios come from the differenced counters ...
    assert stats.ratio(d["hits"], d["hits"] + d["misses"]) == 0.1
    assert stats.ratio(d["physical_bytes"], d["logical_bytes"]) == 0.5
    # ... never from differencing the ratios themselves, which is not a
    # ratio at all (here a negative "hit rate")
    assert after["hit_rate"] - before["hit_rate"] < 0


def test_counter_diff_rejects_backwards_and_non_integer_counters():
    with pytest.raises(ValueError):
        stats.counter_diff({"hits": 5}, {"hits": 4}, ("hits",))
    with pytest.raises(TypeError):
        stats.counter_diff({"hit_rate": 0.5}, {"hit_rate": 0.7},
                           ("hit_rate",))


def test_unit_ratio_check():
    m = {"a": 0.0, "b": 1.0, "c": -0.47, "d": 1.2, "e": float("nan")}
    assert stats.check_unit_ratios(m, m) == ["c", "d", "e"]


# -- machine-speed calibration -------------------------------------------------

def test_factor_is_the_median_slice_over_the_reference():
    ref = calib.REFERENCE_MS
    assert calib.factor([ref, 2 * ref, 3 * ref]) == pytest.approx(2.0)


def test_local_factors_follow_a_change_of_speed():
    ref = calib.REFERENCE_MS
    samples = [ref] * 40 + [2 * ref] * 40
    f = calib.local_factors(samples)
    assert len(f) == len(samples)
    assert f[0] == f[29] == pytest.approx(1.0)
    assert f[50] == f[79] == pytest.approx(2.0)


def test_reference_slice_takes_time():
    assert 0.0 < calib.slice_ms() < 1000.0


# -- trace analysis ------------------------------------------------------------

def _span(name, t0, t1, parent, req, attrs=None):
    return [name, t0, t1, parent, req, attrs]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("request", 0.0, 10.0, -1, 0),
        _span("reduction.reduce", 1.0, 5.0, 0, 0),
        _span("storage.materialize", 2.0, 3.0, 1, 0),
        _span("builder.build", 6.0, 9.0, 0, 0),
    ]
    assert trace.self_times(spans) == [3.0, 3.0, 1.0, 3.0]


def test_analyze_reports_outermost_time_and_shares():
    spans = [
        _span("request", 0.0, 0.010, -1, 0),
        _span("storage.materialize", 0.001, 0.005, 0, 0),
        _span("storage.materialize", 0.002, 0.004, 1, 0),   # nested: once
        _span("reduction.reduce", 0.006, 0.008, 0, 0, {"rows_out": 7}),
        _span("request", 0.0, 0.002, -1, 1),
    ]
    m = trace.analyze(spans)
    assert m["storage.materialize_ms"] == pytest.approx(4.0)
    assert m["reduction.reduce_ms"] == pytest.approx(2.0)
    assert m["reduction.rows_out"] == 7
    assert m["builder.build_ms"] == 0.0
    assert m["storage.self_share"] == pytest.approx(0.004 / 0.012)
    assert m["other.self_share"] == pytest.approx(0.006 / 0.012)
    assert sum(m[f"{layer}.self_share"]
               for layer in trace.QUERY_LAYERS) == pytest.approx(1.0)


def test_instrument_restores_every_wrapped_name():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    targets = trace._targets()
    before = [owner.__dict__[attr] for owner, attr, _, _ in targets]
    with trace.instrument(trace.Tracer()):
        assert all(owner.__dict__[attr] is not orig for (owner, attr, _, _),
                   orig in zip(targets, before))
    assert [owner.__dict__[attr] for owner, attr, _, _ in targets] == before


# -- inputs --------------------------------------------------------------------

def test_same_seed_same_inputs():
    for w in workloads.WORKLOADS:
        assert workloads.stream(w, 3, True) == workloads.stream(w, 3, True)
        assert workloads.stream(w, 3, True) != workloads.stream(w, 4, True)
    assert (workloads.documents("join-scale", 3, True)
            == workloads.documents("join-scale", 3, True))


# -- BENCHMARK.json ------------------------------------------------------------

def test_benchmark_json_names_what_the_command_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(
        workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == list(run.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


# -- the single command ----------------------------------------------------------

def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "layerbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("trace_flag", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_pass(workload, trace_flag):
    p = _run(["--workload", workload, "--seed", "5", "--seconds", "1.5",
              "--trace", trace_flag, "--smoke"])
    assert p.returncode == 0, p.stderr
    res = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True, p.stderr
    assert res["failed"] == 0 and res["attempted"] >= 1
    names = run.PER_LAYER if trace_flag == "1" else run.END_TO_END
    assert list(res["metrics"]) == [name for name, _, _ in names]
    for (name, unit, _), m in zip(names, res["metrics"].values()):
        assert m["unit"] == unit and isinstance(m["value"], float), name


def test_refuses_to_run_without_the_program():
    bare = os.path.join(ROOT, ".layerbench", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(os.path.join(ROOT, "layerbench"),
                        os.path.join(bare, "layerbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        p = _run(["--workload", "join-scale", "--seed", "1", "--seconds",
                  "1", "--trace", "0"], cwd=bare)
        assert p.returncode != 0
        assert p.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
