"""The evaluating process: timed request loops, run in a fresh interpreter.

The orchestrator (``run.py``) generates the inputs, ingests the store and
computes reference digests, then starts this module in a child process
so that the child's peak resident memory is that of evaluation alone.
The child opens the store, warms it (except for ``cold``, whose every
request opens the document afresh), and answers requests in a loop for
the given number of seconds, comparing every answer's digest with its
reference after the clock stops.

Untraced, every request is followed by one machine-speed reference
slice (:mod:`layerbench.calib`), outside the request's timing and outside
the elapsed time, so that the run's metrics can be scaled to a fixed
reference speed.  With tracing on, blocks of requests alternate between
untraced and traced (the span wrappers of :mod:`layerbench.trace`
installed); the two modes' throughputs give ``trace.overhead_frac``.
A last pass measures the peak Python allocation of each reduction under
``tracemalloc`` (kept apart because ``tracemalloc`` slows everything it
watches).
"""

from __future__ import annotations

import contextlib
import json
import time
import tracemalloc

from . import calib, stats, trace
from .workloads import answer, digest, repo_answer

_NOW = time.perf_counter

#: IOStats fields that are monotonically increasing counters
IO_COUNTERS = ("pages_read", "pages_written", "hits", "misses", "evictions",
               "read_retries", "logical_bytes", "physical_bytes",
               "decoded_values")


class Target:
    """Opens the store for one evaluation mode and answers requests.

    ``call(req)`` returns ``(body, io)``: the answer bytes and the I/O
    counters the request moved (a counter diff of the pools it used)."""

    def __init__(self, spec: dict, result_cache: bool = True):
        from repro.repo import Repository
        from repro.storage import vdocfile

        self.mode = spec["mode"]
        self.pool_pages = spec.get("pool_pages")
        self.paths = spec["docs"]
        self.docs = {}
        self.repo = None
        self.pin_leaks = 0
        if self.mode == "warm":
            self.docs = {k: vdocfile.open_vdoc(p)
                         for k, p in self.paths.items()}
        elif self.mode == "repo":
            self.repo = Repository.open(
                spec["repo"], pool_pages=self.pool_pages,
                result_cache_bytes=(64 << 20) if result_cache else None)

    def pools(self) -> list:
        if self.repo is not None:
            return [self.repo.pool]
        return [d.pool for d in self.docs.values()]

    def io_snapshot(self) -> dict:
        snap = dict.fromkeys(IO_COUNTERS, 0)
        for pool in self.pools():
            for key in IO_COUNTERS:
                snap[key] += getattr(pool.stats, key)
        return snap

    def call(self, req: dict) -> tuple[bytes, dict]:
        from repro.storage import vdocfile

        if self.mode == "cold":
            doc = vdocfile.open_vdoc(self.paths[req["doc"]],
                                     pool_pages=self.pool_pages)
            try:
                body = answer(doc, req)
                io = {k: getattr(doc.pool.stats, k) for k in IO_COUNTERS}
                self.pin_leaks += doc.pool.pinned_total()
            finally:
                doc.close()
            return body, io
        before = self.io_snapshot()
        if self.repo is not None:
            body = repo_answer(self.repo, req)
        else:
            body = answer(self.docs[req["doc"]], req)
        return body, stats.counter_diff(before, self.io_snapshot(),
                                        IO_COUNTERS)

    def pinned(self) -> int:
        return self.pin_leaks + sum(p.pinned_total() for p in self.pools())

    def close(self) -> None:
        if self.repo is not None:
            self.repo.close()
        for d in self.docs.values():
            d.close()


def warm_up(target: Target, reqs: list[dict]) -> None:
    """Answer one request per (template, document) so every column the
    loop reads is resident before the clock starts."""
    seen = set()
    for req in reqs:
        key = (req["tpl"], req["doc"])
        if key not in seen:
            seen.add(key)
            target.call(req)


#: requests per block; tracing alternates block by block (a multiple of
#: every workload's template cycle, so both modes see the same mix)
TRACE_BLOCK = 6


def loop(target: Target, reqs: list[dict], seconds: float,
         tracer: trace.Tracer | None = None) -> dict:
    """Answer ``reqs`` in order (cycling) until ``seconds`` have passed;
    latency runs from the call to the complete answer bytes.  With a
    ``tracer``, every other block of requests runs with the span wrappers
    installed (``traced`` marks them), so tracing overhead is measured
    against interleaved untraced requests of the same mix.  Without a
    ``tracer``, a reference slice follows every request (``cal_ms``);
    ``elapsed`` leaves the slices out."""
    lat, ok, idx, io, traced, cal = [], [], [], [], [], []
    errors: list[str] = []
    i = 0
    t_begin = _NOW()
    t_end = t_begin + seconds
    while True:
        req = reqs[i % len(reqs)]
        on = tracer is not None and (i // TRACE_BLOCK) % 2 == 1
        with (trace.instrument(tracer) if on
              else contextlib.nullcontext()):
            span = (tracer.span("request", request=i) if on
                    else contextlib.nullcontext())
            t0 = _NOW()
            try:
                with span:
                    body, moved = target.call(req)
                t1 = _NOW()
                good = digest(body) == req["digest"]
                if not good:
                    errors.append(f"wrong answer: {req['q']}")
            except Exception as exc:  # a failed request counts, not fatal
                t1 = _NOW()
                good, moved = False, {}
                errors.append(f"{type(exc).__name__}: {exc}")
        lat.append((t1 - t0) * 1e3)
        ok.append(good)
        idx.append(i % len(reqs))
        io.append(moved)
        traced.append(on)
        i += 1
        if tracer is None:
            cal.append(calib.slice_ms())
            t_end += cal[-1] / 1e3
        if _NOW() >= t_end:
            break
    return {"lat_ms": lat, "ok": ok, "idx": idx, "io": io, "traced": traced,
            "cal_ms": cal, "elapsed": _NOW() - t_begin - sum(cal) / 1e3,
            "errors": errors[:5]}


def overhead(run: dict) -> float:
    """``1 - traced / untraced`` throughput over the interleaved blocks."""
    qps = []
    for mode in (False, True):
        lat = [x for x, t in zip(run["lat_ms"], run["traced"]) if t == mode]
        ok = sum(g for g, t in zip(run["ok"], run["traced"]) if t == mode)
        qps.append(stats.ratio(ok, sum(lat)))
    return 1.0 - stats.ratio(qps[1], qps[0])


def io_metrics(io: list[dict]) -> dict:
    """Per-request medians of the I/O counters, and the hit rate and
    compression ratio recomputed from the summed counter diffs."""
    rows = [m for m in io if m]
    tot = {k: sum(m[k] for m in rows) for k in IO_COUNTERS}

    def med(key):
        return float(stats.median([m[key] for m in rows])) if rows else 0.0

    return {
        "storage.pages_read": med("pages_read"),
        "storage.evictions": med("evictions"),
        "storage.decoded_values": med("decoded_values"),
        "storage.physical_bytes": med("physical_bytes"),
        "storage.logical_bytes": med("logical_bytes"),
        "storage.hit_rate": stats.ratio(tot["hits"],
                                        tot["hits"] + tot["misses"]),
        "storage.compression_ratio": stats.ratio(tot["physical_bytes"],
                                                 tot["logical_bytes"]),
    }


@contextlib.contextmanager
def _reduce_peaks(peaks: list[float]):
    """Wrap ``reduce_query`` so each call's peak traced allocation (MB)
    is appended to ``peaks``."""
    from repro.core import engine

    orig = engine.reduce_query

    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return orig(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()

    engine.reduce_query = measured
    try:
        yield
    finally:
        engine.reduce_query = orig


def peak_alloc(spec: dict, reqs: list[dict]) -> float:
    """Median peak reduction allocation over one request per template,
    evaluated without result cache so every template reduces."""
    target = Target(spec, result_cache=False)
    peaks: list[float] = []
    try:
        seen = set()
        with _reduce_peaks(peaks):
            for req in reqs:
                if req["kind"] == "xq" and req["tpl"] not in seen:
                    seen.add(req["tpl"])
                    target.call(req)
    finally:
        target.close()
    return stats.median(peaks) if peaks else 0.0


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    reqs = spec["requests"]
    seconds = spec["seconds"]
    target = Target(spec)
    out: dict = {}
    try:
        if spec["mode"] != "cold":
            warm_up(target, reqs)
        tracer = trace.Tracer() if spec["trace"] else None
        out["run"] = loop(target, reqs, seconds, tracer)
        if tracer is not None:
            tracer.write(spec["spans_out"])
            layers = trace.analyze(tracer.spans)
            layers.update(io_metrics([m for m, t in zip(out["run"]["io"],
                                                         out["run"]["traced"])
                                      if t]))
            layers["trace.overhead_frac"] = overhead(out["run"])
            out["layers"] = layers
        out["pinned"] = target.pinned()
    finally:
        target.close()
    if spec["trace"]:
        out["layers"]["reduction.peak_alloc_mb"] = peak_alloc(spec, reqs)
    with open(spec["out"], "w", encoding="utf-8") as f:
        json.dump(out, f)
    return 0
