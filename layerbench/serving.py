"""``serve-mix``: a ``repro-xq serve`` subprocess under seeded HTTP load.

The load generator is this process, with at most two connections (one
per core of the two-core machines the benchmark is sized for).  Two
kinds of phase:

* **open loop** -- requests are due at seeded random times at a fixed
  rate (a Poisson process conditioned on its count), whatever the server
  does; each connection sends the next due request as soon as it is
  free, so a slow server builds a backlog here, in the generator.
  Latency runs from when a request was *due*, so it includes that
  backlog, and ``generator.lag_ms`` reports how late requests were sent.
* **closed loop** -- both connections send a fixed number of requests
  back to back; the completion rate is the server's capacity
  (``throughput_qps``).

Every response is compared by digest with the in-process reference; a
non-200 status or a wrong body is a failure.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

from . import stats
from .workloads import SERVE_POOL_PAGES, digest

_NOW = time.perf_counter
CONNECTIONS = 2
WORKERS = 2

#: The measured part of a run.  ``ROUNDS`` rounds, each an open loop at
#: the nominal rate (``NOMINAL``: requests/s, share of --seconds) followed
#: by a closed-loop burst of ``BURST`` requests, spread over the run so
#: that drift in machine speed averages out; then the upper rungs of the
#: open-loop ladder.  ``query_p50_ms`` / ``query_tail_ms`` are read over
#: the nominal windows, ``throughput_qps`` over the bursts, and the highest
#: ladder rate that meets the limit without a growing backlog gives
#: ``goodput_qps``.  The nominal rate keeps the server about a fifth busy,
#: so its latencies are mostly service time rather than the luck of
#: which arrivals collide.  The rates sit far from the seed commit's
#: capacity (about 80-90 requests/s on two cores), so every seed passes
#: the same rungs: 48/s passes, 320/s does not.
ROUNDS = 6
NOMINAL = (12.0, 0.14)
BURST = 70
UPPER = ((48.0, 0.12), (320.0, 0.025))
#: reference slices (:mod:`layerbench.calib`) timed after the warm-up and
#: after every nominal window and burst, while the server is idle
CAL_SLICES = 30
#: requests sent back to back before measuring (not timed; answers are
#: checked), so the pool and the result cache start warm
WARMUP_REQUESTS = 200
#: a rung meets the limit when its tail latency is at most this (ms) ...
TAIL_LIMIT_MS = 250.0
#: ... and no request was sent later than this after it was due
BACKLOG_LIMIT_MS = 250.0


class Server:
    """``repro-xq serve`` over ``repo_dir`` on a free port."""

    def __init__(self, root: str, repo_dir: str, workdir: str):
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                   TMPDIR=workdir)
        self.err_path = os.path.join(workdir, "serve.err")
        self._err = open(self.err_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", repo_dir,
             "--port", "0", "--workers", str(WORKERS),
             "--pool", str(SERVE_POOL_PAGES)],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._err,
            text=True)
        line = self.proc.stdout.readline()
        m = re.search(r"http://[0-9.]+:(\d+)", line)
        if m is None:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(m.group(1))

    def stats(self) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", "/stats")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self) -> dict:
        """SIGTERM (graceful drain), wait, and return the final stats the
        server logs on exit ({} if it logged none)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._err.close()
        with open(self.err_path, encoding="utf-8") as f:
            m = re.search(r"serve: final stats (.*)", f.read())
        return json.loads(m.group(1)) if m else {}


class Load:
    """Sends requests from one stream, in order, over ``CONNECTIONS``
    keep-alive connections, recording every outcome."""

    def __init__(self, port: int, reqs: list[dict]):
        self.port = port
        self.reqs = reqs
        self.next = 0
        self.records: list[dict] = []
        self._lock = threading.Lock()

    def _take(self) -> int:
        with self._lock:
            i = self.next
            self.next += 1
            return i

    def _send(self, conn, req: dict) -> tuple[int, bytes]:
        path = "/xq" if req["kind"] == "xq" else "/xpath"
        conn.request("POST", path, body=req["q"].encode())
        resp = conn.getresponse()
        return resp.status, resp.read()

    def _run(self, due_of, stop_at: float, phase: str) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            while True:
                i = self._take()
                due = due_of(i)
                if due is None or (stop_at and _NOW() >= stop_at):
                    return
                wait = due - _NOW()
                if wait > 0:
                    time.sleep(wait)
                sent = _NOW()
                req = self.reqs[i % len(self.reqs)]
                try:
                    status, body = self._send(conn, req)
                    good = status == 200 and digest(body) == req["digest"]
                except (OSError, http.client.HTTPException):
                    conn.close()
                    status, good = 0, False
                done = _NOW()
                with self._lock:
                    self.records.append({
                        "phase": phase, "due": due, "sent": sent,
                        "done": done, "status": status, "ok": good,
                        "tpl": req["tpl"], "i": i})
        finally:
            conn.close()

    def _threads(self, due_of, stop_at: float, phase: str) -> None:
        ts = [threading.Thread(target=self._run,
                               args=(due_of, stop_at, phase))
              for _ in range(CONNECTIONS)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()

    def open_loop(self, rate: float, seconds: float, r, phase: str) -> float:
        """``rate * seconds`` arrivals at seeded uniformly random times in
        the window (a Poisson process conditioned on its count, so every
        seed offers exactly the same load); returns the window's start
        once every request has been answered."""
        dues = sorted(r.uniform(0.0, seconds)
                      for _ in range(round(rate * seconds)))
        first = self.next
        t0 = _NOW() + 0.05

        def due_of(i):
            k = i - first
            return t0 + dues[k] if k < len(dues) else None

        self._threads(due_of, 0.0, phase)
        self.next = first + len(dues)
        return t0

    def burst(self, count: int, phase: str) -> float:
        """The next ``count`` requests back to back over every connection
        (a closed loop of fixed length, so every seed sends the same share
        of repeated constants); returns the time to the last answer."""
        first = self.next
        t0 = _NOW()
        self._threads(lambda i: _NOW() if i < first + count else None, 0.0,
                      phase)
        self.next = first + count
        return max(r["done"] for r in self.records
                   if r["phase"] == phase) - t0


def rung_summary(windows: list[tuple[list, float]], rate: float) -> dict:
    """Latency (from due time) of one open-loop rate run as one or more
    windows ``(records, start)``, its generator lag, whether it met the
    limit, and its goodput: correct answers within the limit per second
    of window (start to last answer)."""
    records = [x for recs, _ in windows for x in recs]
    lat = [(x["done"] - x["due"]) * 1e3 for x in records]
    lag = [(x["sent"] - x["due"]) * 1e3 for x in records]
    if len(lat) > stats.TAIL_BEYOND:
        value, pct, n = stats.tail(lat)
    else:   # too short a rung (smoke runs): no percentile qualifies
        value, pct, n = max(lat), 100.0, len(lat)
    good = sum(1 for x, ms in zip(records, lat)
               if x["ok"] and ms <= TAIL_LIMIT_MS)
    span = sum(max(x["done"] for x in recs) - t0 for recs, t0 in windows)
    return {
        "rate": rate, "n": n, "p50_ms": stats.median(lat),
        "tail_ms": value, "tail_pct": pct, "lag_ms": stats.median(lag),
        "max_lag_ms": max(lag), "good_qps": good / span,
        "meets": (value <= TAIL_LIMIT_MS and max(lag) <= BACKLOG_LIMIT_MS
                  and all(x["ok"] for x in records)),
    }


#: /stats counters (never the derived ratios or quantiles) that are
#: differenced across a phase
RESULT_CACHE_COUNTERS = ("hits", "misses", "evictions", "invalidations",
                         "uncacheable")
SERVICE_COUNTERS = ("requests", "pin_leaks", "overloads", "drain_rejects",
                    "pool_exhausted", "timeouts")


def service_totals(snap: dict) -> dict:
    """Request count and total service seconds over the query endpoints.
    The total is recovered from the per-endpoint mean (a ratio) times its
    count, so it can be differenced like a counter."""
    n, total = 0, 0.0
    for name in ("/xq", "/xpath"):
        ep = snap["endpoints"].get(name)
        if ep:
            n += ep["count"]
            total += ep["mean_ms"] * ep["count"]
    return {"count": n, "total_ms": total}


def stats_diff(before: dict, after: dict) -> dict:
    svc = stats.counter_diff(before, after, SERVICE_COUNTERS)
    cache = stats.counter_diff(before["result_cache"], after["result_cache"],
                               RESULT_CACHE_COUNTERS)
    t0, t1 = service_totals(before), service_totals(after)
    return {"service": svc, "cache": cache,
            "service_count": t1["count"] - t0["count"],
            "service_ms": t1["total_ms"] - t0["total_ms"]}
