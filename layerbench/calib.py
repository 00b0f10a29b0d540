"""Machine-speed calibration: time metrics at a fixed reference speed.

The benchmark runs on shared virtual machines whose CPU speed drifts by
up to 1.5x within minutes (another tenant's load on the same physical
cores), and the drift shows in every wall-clock metric: ten 15-second
runs of a fixed Python loop spread by 0.17 of their median between
their quartiles.  Each run therefore also times a fixed reference
computation of the benchmark's own -- dictionary building, string
formatting, sorting and a NumPy argsort, the kinds of work the program
does -- interleaved with its measurement, and reports every duration
scaled to the speed at which one reference slice takes
:data:`REFERENCE_MS`:

    scaled duration   = measured duration   * REFERENCE_MS / slice median
    scaled throughput = measured throughput * slice median / REFERENCE_MS

where the slice median is taken over the slices timed around the
measured work.

The reference never calls the program, so a change to the program moves
the scaled metrics exactly as it moves the measured ones; a change in
the machine's speed moves both the program and the slices and cancels.
The measured values and the speed factor are logged on standard error.
"""

from __future__ import annotations

import gc
import os
import time

import numpy as np

from . import stats

#: duration of one reference slice at the reference speed (about its
#: median on the two-core machine the benchmark was tuned on)
REFERENCE_MS = 3.5

_WORDS = tuple(f"w{i % 997}" for i in range(4000))
_KEYS = np.random.default_rng(0).integers(0, 1 << 30, 20000)


def slice_ms() -> float:
    """Run one reference slice; returns its duration in ms.  The
    collector is off so that the slice never pays for scanning the
    program's heap."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        counts: dict[str, int] = {}
        for i, w in enumerate(_WORDS):
            counts[w] = counts.get(w, 0) + i
        "".join(f"<a k='{k}'>{v}</a>" for k, v in sorted(counts.items()))
        order = np.argsort(_KEYS, kind="stable")
        np.searchsorted(_KEYS[order], _KEYS[:2000])
        return (time.perf_counter() - t0) * 1e3
    finally:
        if was_on:
            gc.enable()


def block(count: int) -> list[float]:
    """``count`` reference slices back to back, taking turns on every CPU
    this process may use: the CPUs of a shared host slow down one by one,
    and work that runs elsewhere (a server process) may run on any."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):     # no affinity control here
        return [slice_ms() for _ in range(count)]
    out = []
    try:
        for k, cpu in enumerate(cpus):
            os.sched_setaffinity(0, {cpu})
            out += [slice_ms() for _ in range((count + k) // len(cpus))]
    finally:
        os.sched_setaffinity(0, cpus)
    return out


def factor(samples: list[float]) -> float:
    """How much slower than the reference speed the machine ran: the
    median slice over :data:`REFERENCE_MS`.  Divide durations by it,
    multiply rates by it."""
    return stats.median(samples) / REFERENCE_MS


#: slices on each side of a request that give its local factor
LOCAL_HALF = 10


def local_factors(samples: list[float]) -> list[float]:
    """One factor per slice, from the slices within :data:`LOCAL_HALF`
    places of it: when slice ``j`` follows request ``j``, the speed the
    machine ran at around that request (the speed changes within a run,
    not only between runs)."""
    return [factor(samples[max(0, j - LOCAL_HALF):j + LOCAL_HALF + 1])
            for j in range(len(samples))]
