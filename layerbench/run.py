#!/usr/bin/env python3
"""The repository benchmark: one command, four layer-separating workloads.

    python3 layerbench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload (``serve-mix``, ``warm-large-results``, ``cold-oneshot``
or ``join-scale``; see :mod:`layerbench.workloads`) against the program in
``src/`` and prints, as the last line of standard output, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end metrics a user sees (:data:`END_TO_END`); with
``--trace 1`` they are the per-layer metrics (:data:`PER_LAYER`), taken by
timing calls into each layer's public functions from outside the program
(:mod:`layerbench.trace`).  End-to-end numbers always come from untraced
runs.  ``--smoke`` shrinks every document for a quick self-test.

``--seed`` makes every input: documents, query constants, Zipf draws and
the arrival schedule.  Every timed answer is compared byte for byte (by
digest) with a reference computed outside the timed region, and every
query template is checked against the naive evaluator on a small
document.  Wrong answers, errors and refused requests count as failed.
The run writes only under ``.layerbench/`` in the checkout and removes
its working files on exit (traced runs keep their spans there).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".layerbench")

#: (name, unit, better) of each end-to-end metric
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("query_p50_ms", "ms", "lower"),
    ("query_tail_ms", "ms", "lower"),
    ("throughput_qps", "1/s", "higher"),
    ("goodput_qps", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("stored_bytes_per_input_byte", "count", "lower"),
    ("join_slope", "log/log", "lower"),
)

#: (name, unit, better) of each per-layer metric; a layer a workload
#: never calls reports 0
PER_LAYER = (
    ("vectorize.s", "s", "lower"),
    ("vectorize.self_share", "frac", "lower"),
    ("storage.save_s", "s", "lower"),
    ("storage.pages_written", "count", "lower"),
    ("repo.add_s", "s", "lower"),
    ("xquery.parse_ms", "ms", "lower"),
    ("xquery.self_share", "frac", "lower"),
    ("qgraph.compile_ms", "ms", "lower"),
    ("qgraph.self_share", "frac", "lower"),
    ("planner.plan_ms", "ms", "lower"),
    ("planner.index_ops", "count", "higher"),
    ("planner.dict_ops", "count", "higher"),
    ("planner.scan_ops", "count", "lower"),
    ("planner.self_share", "frac", "lower"),
    ("reduction.reduce_ms", "ms", "lower"),
    ("reduction.rows_out", "count", "lower"),
    ("reduction.peak_alloc_mb", "MB", "lower"),
    ("reduction.self_share", "frac", "lower"),
    ("builder.build_ms", "ms", "lower"),
    ("builder.self_share", "frac", "lower"),
    ("serialize.ms", "ms", "lower"),
    ("serialize.out_bytes", "B", "lower"),
    ("serialize.self_share", "frac", "lower"),
    ("vx_eval.eval_ms", "ms", "lower"),
    ("vx_eval.values_ms", "ms", "lower"),
    ("vx_eval.self_share", "frac", "lower"),
    ("paths.build_ms", "ms", "lower"),
    ("paths.self_share", "frac", "lower"),
    ("storage.open_ms", "ms", "lower"),
    ("storage.materialize_ms", "ms", "lower"),
    ("storage.pages_read", "count", "lower"),
    ("storage.evictions", "count", "lower"),
    ("storage.hit_rate", "frac", "higher"),
    ("storage.decoded_values", "count", "lower"),
    ("storage.physical_bytes", "B", "lower"),
    ("storage.logical_bytes", "B", "lower"),
    ("storage.compression_ratio", "frac", "lower"),
    ("storage.self_share", "frac", "lower"),
    ("index.load_ms", "ms", "lower"),
    ("index.self_share", "frac", "lower"),
    ("repo.cache_hit_rate", "frac", "higher"),
    ("repo.cache_hits", "count", "higher"),
    ("repo.cache_misses", "count", "lower"),
    ("repo.cache_evictions", "count", "lower"),
    ("repo.pruned_members", "count", "higher"),
    ("repo.self_share", "frac", "lower"),
    ("serve.service_p50_ms", "ms", "lower"),
    ("serve.wait_ms", "ms", "lower"),
    ("serve.overloads", "count", "lower"),
    ("serve.timeouts", "count", "lower"),
    ("serve.pin_leaks", "count", "lower"),
    ("serve.self_share", "frac", "lower"),
    ("other.self_share", "frac", "lower"),
    ("generator.lag_ms", "ms", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)

#: derived ratios that must lie in [0, 1] (checked on every traced run)
UNIT_RATIOS = tuple(name for name, unit, _ in PER_LAYER
                    if unit == "frac" and name != "trace.overhead_frac")


def _log(msg: str) -> None:
    print(f"layerbench: {msg}", file=sys.stderr, flush=True)


def _child_env(workdir: str) -> dict:
    return dict(os.environ, PYTHONPATH=SRC, TMPDIR=workdir)


def _children_peak_rss_mb() -> float:
    """Peak resident set of the largest child waited for so far (the
    evaluating process); ``ru_maxrss`` is in KiB on Linux."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


# -- per-layer metrics of the ingest -----------------------------------------

def traced_setup(workload, xmls, workdir):
    from layerbench import trace, workloads

    tracer = trace.Tracer()
    with trace.instrument(tracer):
        with tracer.span("setup", request="setup"):
            store = workloads.ingest(workload, xmls,
                                     os.path.join(workdir, "store"))
    spans = tracer.spans
    selfs = trace.self_times(spans)
    total = spans[0][2] - spans[0][1]

    def secs(name):
        return sum(s[2] - s[1] for s in spans
                   if s[0] == name and spans[s[3]][0] != name)

    return store, {
        "vectorize.s": secs("vectorize"),
        "vectorize.self_share": sum(t for s, t in zip(spans, selfs)
                                    if s[0] == "vectorize") / total,
        "storage.save_s": secs("storage.save"),
        "storage.pages_written": float(sum(
            (s[5] or {}).get("pages_written", 0) for s in spans)),
        "repo.add_s": secs("repo.add"),
    }


# -- in-process workloads ----------------------------------------------------

def run_worker(spec: dict, workdir: str, seconds: float) -> dict:
    spec_path = os.path.join(workdir, "spec.json")
    spec["out"] = os.path.join(workdir, "worker-out.json")
    with open(spec_path, "w", encoding="utf-8") as f:
        json.dump(spec, f)
    subprocess.run([sys.executable, os.path.abspath(__file__),
                    "--worker", spec_path],
                   cwd=ROOT, env=_child_env(workdir), check=True,
                   timeout=seconds + 120)
    with open(spec["out"], encoding="utf-8") as f:
        return json.load(f)


def inproc(args, workload, reqs, store, workdir):
    """Run the worker; returns (metrics, attempted, failed, problems)."""
    from layerbench import calib, stats, workloads

    mode = {"cold-oneshot": "cold"}.get(workload, "warm")
    spec = {"mode": mode, "docs": store["docs"], "requests": reqs,
            "pool_pages": (workloads.COLD_POOL_PAGES if mode == "cold"
                           else None),
            "seconds": args.seconds, "trace": args.trace,
            "spans_out": spans_path(args)}
    out = run_worker(spec, workdir, args.seconds)
    run = out["run"]
    attempted = len(run["ok"])
    failed = attempted - sum(run["ok"])
    problems = list(run["errors"])
    if out["pinned"]:
        problems.append(f"{out['pinned']} buffer-pool pages left pinned")
    if args.trace:
        return out["layers"], attempted, failed, problems

    # each latency scaled by the speed around it (calib.local_factors)
    lat = [x / f for x, f in zip(run["lat_ms"],
                                 calib.local_factors(run["cal_ms"]))]
    ok = run["ok"]
    docs = [reqs[i]["doc"] for i in run["idx"]]
    main = [x for x, d in zip(lat, docs)
            if workload != "join-scale" or d == "large"]
    value, pct, n = stats.tail(main)
    limit = workloads.GOODPUT_LIMIT_MS[workload]
    elapsed = run["elapsed"] * sum(lat) / sum(run["lat_ms"])
    metrics = {
        "query_p50_ms": stats.median(main),
        "query_tail_ms": value,
        "throughput_qps": sum(ok) / elapsed,
        "goodput_qps": sum(1 for x, g in zip(lat, ok) if g and x <= limit)
        / elapsed,
        "peak_rss_mb": _children_peak_rss_mb(),
    }
    _log(f"{workload}: {len(lat)} requests in {run['elapsed']:.2f}s, "
         f"tail is p{pct:.1f} of {n}; speed factor "
         f"{calib.factor(run['cal_ms']):.3f} (measured: "
         f"{sum(ok) / run['elapsed']:.2f} answers/s)")
    if workload == "join-scale":
        p50 = {d: stats.median([x for x, dd in zip(lat, docs) if dd == d])
               for d in ("small", "large")}
        ratio = (workloads.size(workload, "large", args.smoke)
                 / workloads.size(workload, "small", args.smoke))
        metrics["join_slope"] = (math.log(p50["large"] / p50["small"])
                                 / math.log(ratio))
    return metrics, attempted, failed, problems


# -- serve-mix ---------------------------------------------------------------

def serve(args, reqs, store, workdir):
    from layerbench import calib, gen, serving, stats, workloads

    T = args.seconds
    r = gen.rng(args.seed, "serve-mix", "arrivals")
    server = serving.Server(ROOT, store["repo"], workdir)
    load = serving.Load(server.port, reqs)
    try:
        load.burst(serving.WARMUP_REQUESTS, "warmup")
        before = server.stats()
        if args.trace:
            load.open_loop(serving.NOMINAL[0], T / 2, r, "traced")
        else:
            # reference slices while the server is idle, around every
            # nominal window and burst: cal[2k], cal[2k + 1] frame
            # nominal window k, cal[2k + 1], cal[2k + 2] burst k
            cal = [calib.block(serving.CAL_SLICES)]
            rate, share = serving.NOMINAL
            starts = {rate: []}
            closed_s = []
            for k in range(serving.ROUNDS):
                starts[rate].append(
                    (f"nominal{k}", load.open_loop(rate, T * share, r,
                                                   f"nominal{k}")))
                cal.append(calib.block(serving.CAL_SLICES))
                closed_s.append(load.burst(serving.BURST, f"closed{k}"))
                cal.append(calib.block(serving.CAL_SLICES))
            for rate, share in serving.UPPER:
                starts[rate] = [(f"rung{rate:g}", load.open_loop(
                    rate, T * share, r, f"rung{rate:g}"))]
        after = server.stats()
    finally:
        final = server.stop()
    recs = load.records
    attempted = len(recs)
    failed = sum(1 for x in recs if not x["ok"])
    problems = [f"{x['tpl']}: status {x['status']}" for x in recs
                if not x["ok"]][:5]
    diff = serving.stats_diff(before, after)
    if (after["pin_leaks"] or after["pool"]["pinned"]
            or final.get("pin_leaks", 1) or final.get("pool", {}).get("pinned", 1)):
        problems.append(f"server reported leaked/pinned pages: "
                        f"pin_leaks={final.get('pin_leaks')} "
                        f"pinned={final.get('pool', {}).get('pinned')}")
    if args.trace:
        phase = [x for x in recs if x["phase"] == "traced"]
        client_ms = stats.median([1e3 * (x["done"] - x["due"])
                                  for x in phase])
        client_mean = sum(1e3 * (x["done"] - x["due"])
                          for x in phase) / len(phase)
        service_mean = stats.ratio(diff["service_ms"], diff["service_count"])
        cache = diff["cache"]
        layers = {
            "serve.service_p50_ms": after["endpoints"]["/xq"]["p50_ms"],
            "serve.wait_ms": client_mean - service_mean,
            "serve.overloads": float(diff["service"]["overloads"]),
            "serve.timeouts": float(diff["service"]["timeouts"]),
            "serve.pin_leaks": float(diff["service"]["pin_leaks"]),
            "repo.cache_hits": float(cache["hits"]),
            "repo.cache_misses": float(cache["misses"]),
            "repo.cache_evictions": float(cache["evictions"]),
            "repo.cache_hit_rate": stats.ratio(
                cache["hits"], cache["hits"] + cache["misses"]),
            "generator.lag_ms": stats.median([1e3 * (x["sent"] - x["due"])
                                              for x in phase]),
        }
        _log(f"serve-mix traced phase: {len(phase)} requests, client p50 "
             f"{client_ms:.2f} ms, mean {client_mean:.2f} ms, service mean "
             f"{service_mean:.2f} ms")
        spec = {"mode": "repo", "repo": store["repo"], "docs": {},
                "requests": reqs, "pool_pages": workloads.SERVE_POOL_PAGES,
                "seconds": T / 2, "trace": 1, "spans_out": spans_path(args)}
        out = run_worker(spec, workdir, T)
        replay = out["run"]
        plain = [x for x, t in zip(replay["lat_ms"], replay["traced"])
                 if not t]
        layers.update(out["layers"])
        layers["serve.self_share"] = max(
            0.0, 1.0 - stats.ratio(sum(plain) / len(plain), client_mean))
        attempted += len(replay["ok"])
        failed += len(replay["ok"]) - sum(replay["ok"])
        problems += replay["errors"]
        if out["pinned"]:
            problems.append(f"{out['pinned']} pages left pinned in replay")
        return layers, attempted, failed, problems

    rungs = []
    for rate, windows in starts.items():
        rungs.append(serving.rung_summary(
            [([x for x in recs if x["phase"] == name], t0)
             for name, t0 in windows], rate))
        _log("serve-mix rung " + json.dumps(
            {k: round(v, 3) if isinstance(v, float) else v
             for k, v in rungs[-1].items()}))
    meeting = [x for x in rungs if x["meets"]]
    closed = [x for x in recs if x["phase"].startswith("closed")]
    cache = diff["cache"]
    hit_rate = stats.ratio(cache["hits"], cache["hits"] + cache["misses"])
    # each window scaled by the speed measured just before and after it
    lat, closed_scaled = [], 0.0
    for k in range(serving.ROUNDS):
        f = calib.factor(cal[2 * k] + cal[2 * k + 1])
        lat += [(x["done"] - x["due"]) * 1e3 / f for x in recs
                if x["phase"] == f"nominal{k}"]
        closed_scaled += closed_s[k] / calib.factor(cal[2 * k + 1]
                                                    + cal[2 * k + 2])
    tail_ms, pct, n = stats.tail(lat)
    _log(f"serve-mix: closed loop {len(closed)} requests in "
         f"{sum(closed_s):.2f}s; cache hit rate {hit_rate:.3f}; nominal "
         f"tail is p{pct:.1f} of {n}; speed factor "
         f"{calib.factor([x for c in cal for x in c]):.3f}")
    # goodput is the rate of a ladder rung, not a duration: not scaled
    return {
        "query_p50_ms": stats.median(lat),
        "query_tail_ms": tail_ms,
        "throughput_qps": sum(x["ok"] for x in closed) / closed_scaled,
        "goodput_qps": meeting[-1]["good_qps"] if meeting else 0.0,
        "peak_rss_mb": _children_peak_rss_mb(),
    }, attempted, failed, problems


# -- one run -------------------------------------------------------------------

def spans_path(args) -> str:
    os.makedirs(os.path.join(OUT_DIR, "spans"), exist_ok=True)
    return os.path.join(OUT_DIR, "spans",
                        f"{args.workload}-seed{args.seed}.jsonl")


def run(args, workdir: str) -> dict:
    from layerbench import stats, workloads

    w = args.workload
    clock = [time.perf_counter()]

    def stage(name):
        now = time.perf_counter()
        _log(f"{name}: {now - clock[0]:.1f}s")
        clock[0] = now

    xmls = workloads.documents(w, args.seed, args.smoke)
    input_bytes = sum(len(x.encode()) for x in xmls.values())
    reqs = workloads.stream(w, args.seed, args.smoke)
    problems = [f"naive oracle disagrees: {q}"
                for q in workloads.check_oracle(args.seed, args.smoke)]
    stage("inputs and naive oracle")
    if args.trace:
        store, setup_layers = traced_setup(w, xmls, workdir)
    else:
        store, setup_raw, setup_times = workloads.timed_setup(
            w, xmls, workdir, *((1, 0.0) if args.smoke else
                                (workloads.SETUP_REPS, workloads.SETUP_MIN_S)))
    stage("setup")
    workloads.references(w, store, reqs)
    stage("reference answers")
    if w == "serve-mix":
        metrics, attempted, failed, errs = serve(args, reqs, store, workdir)
    else:
        metrics, attempted, failed, errs = inproc(args, w, reqs, store,
                                                  workdir)
    stage("measurement")
    problems += errs
    if args.trace:
        metrics.update(setup_layers)
        names = [name for name, _, _ in PER_LAYER]
        metrics = {k: float(metrics.get(k, 0.0)) for k in names}
        bad = stats.check_unit_ratios(metrics, UNIT_RATIOS)
        if bad:
            problems.append(f"ratios outside [0, 1]: {bad}")
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics["setup_s"] = stats.median(setup_times)
        _log(f"setup: {len(setup_raw)} ingests, measured median "
             f"{stats.median(setup_raw):.3f}s")
        metrics["stored_bytes_per_input_byte"] = store["bytes"] / input_bytes
        if "join_slope" not in metrics:
            metrics["join_slope"] = workloads.join_probe(args.seed,
                                                         args.smoke)
            stage("join probe")
        units = {name: unit for name, unit, _ in END_TO_END}
        metrics = {k: metrics[k] for k in units}
    for p in problems:
        _log(f"FAILED: {p}")
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny documents, for the self-tests")
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        _log(f"no program source at {SRC}/repro: nothing to measure")
        return 2
    sys.path[:0] = [SRC, ROOT]
    if args.worker:
        from layerbench import worker
        return worker.main(args.worker)

    from layerbench import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    os.environ["TMPDIR"] = workdir   # nothing strays outside the checkout
    t0 = time.perf_counter()
    try:
        result = run(args, workdir)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _log(f"{args.workload} done in {time.perf_counter() - t0:.1f}s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
