#!/usr/bin/env python
"""XQ benchmark: graph reduction over extended vectors vs. the naive
nested-loop reference on the reconstructed tree.

For each document size the same XQ queries (joins + selections, the
workload of paper §4) run two ways:

* ``naive`` — reconstruct the full tree from (skeleton, vectors), then
  evaluate the FLWR expression with nested loops node at a time;
* ``vx``    — compile to (Gq, Gr), order operations with the heuristic
  planner, reduce Gq edge-at-a-time over extended vectors and instantiate
  Gr with stepwise hash-cons compression — zero decompression and at most
  one scan per touched vector, both machine-asserted by the engine.

Three further regimes ride along: batched vs per-combo execution on
many-path documents; **index probes vs column scans** — selective
queries on a disk-backed document with persistent value indexes, columns
dropped between runs, asserting byte-identical answers and the
``INDEXED_MIN_*`` speedup floors at the largest size; and **join
scaling** — only the vx side of the value joins, from 1,000 up to 16,000
people, recording time and ``tracemalloc`` peak per size plus the fitted
log-log slope that ``gate.py`` bounds (the naive side is quadratic, so
the speedup ratio alone would hide a quadratic vx join).

Answers are checked byte-identical (after serialization) before timing.
Results go to BENCH_xq.json.  Exits nonzero if reduction does not beat
naive on every query at the largest size (disable with --no-assert;
--smoke uses tiny documents).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import sys
import tempfile
import tracemalloc

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro import __version__  # noqa: E402
from repro.core.engine import eval_xq  # noqa: E402
from repro.core.vdoc import VectorizedDocument  # noqa: E402
from repro.core.xquery.parser import parse_xq  # noqa: E402
from repro.datasets.synth import manypath_xml, xmark_like_xml  # noqa: E402
from repro.storage.vdocfile import open_vdoc, save_vdoc  # noqa: E402
from repro.util import Timer, best_of, fmt_table, human_count  # noqa: E402

QUERIES = {
    "XQ1-selection":
        "for $p in /site/people/person where $p/profile/age >= '60' "
        "return <r>{$p/name}</r>",
    "XQ2-desc-selection":
        "for $i in //item where $i/location = 'United States' "
        "return <hit>{$i/name/text()}</hit>",
    "XQ3-value-join":
        "for $c in /site/closed_auctions/closed_auction, "
        "$p in /site/people/person where $c/buyer = $p/@id "
        "return <pair>{$p/name}{$c/price}</pair>",
    "XQ4-join-plus-selection":
        "for $c in //closed_auction, $p in //person "
        "where $p/profile/age > '40' and $c/buyer = $p/@id "
        "return <r>{$p/emailaddress}{$c/date}</r>",
    "XQ5-nested-vars":
        "for $p in /site/people/person, $i in $p/profile/interest "
        "where $i = 'databases' return <fan>{$p/@id}</fan>",
}


#: batched-vs-per-combo regime: a structurally wide document (many region
#: labels, so ``//item`` expands to many concrete paths) and a two-variable
#: query whose combo table is the cross product of those paths.  The
#: per-combo baseline re-runs the plan once per combo; batched execution
#: runs it once over the whole table.  Batched must be at least this much
#: faster at the largest configuration.
BATCHED_MIN_SPEEDUP = 2.0
BATCHED_XQ = (
    "for $i in //item, $j in //item "
    "where $i/quantity > '8' and $i/location = 'Kenya' "
    "and $j/quantity > '8' and $j/location = 'Kenya' "
    "return <pair>{$i/name}{$j/name}</pair>"
)


#: indexed regime: selective queries on a *disk-backed* document whose
#: vectors all carry persistent value indexes.  Columns are dropped
#: before every run (the buffer pool stays warm), so the scan path pays
#: column materialization for every vector a predicate touches while the
#: index path loads only the (binary, frombuffer-decoded) index segments
#: it probes plus the result columns — the access-path gap the paper's
#: value indexes exist to open.  Thresholds hold at the largest size.
INDEXED_MIN_SEL_SPEEDUP = 5.0    # selective constant selections
INDEXED_MIN_JOIN_SPEEDUP = 3.0   # selective equality joins
INDEXED_QUERIES = {
    "IXQ1-needle-selection": (
        "sel",
        "for $p in /site/people/person where $p/name = 'name 7' "
        "and $p/emailaddress = 'mailto:person7@example.com' "
        "and $p/@id = 'person7' return <r>{$p/phone}</r>"),
    "IXQ2-selective-join": (
        "join",
        "for $c in /site/closed_auctions/closed_auction, "
        "$p in /site/people/person where $p/name = 'name 7' "
        "and $c/buyer = $p/@id return <pair>{$c/price}</pair>"),
}


#: join scaling regime: value joins whose vx time must grow about linearly
#: in the document (output-sensitive joins); answers are byte-checked
#: against naive at the smallest size only — naive is quadratic
JOIN_SCALING_QUERIES = ("XQ3-value-join", "XQ4-join-plus-selection")


def loglog_slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    var = sum((x - mx) ** 2 for x in lx)
    return sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / var


def run_join_scaling_regime(sizes: list[int],
                            repeat: int) -> tuple[list[dict], dict, dict]:
    """Time the vx side of JOIN_SCALING_QUERIES per size; returns
    (records, time slope per query, tracemalloc-peak slope per query)."""
    records = []
    print("\n== join scaling (vx only) ==")
    for n_people in sizes:
        vdoc = VectorizedDocument.from_xml(xmark_like_xml(n_people, seed=42))
        for name in JOIN_SCALING_QUERIES:
            xq = parse_xq(QUERIES[name])
            res = eval_xq(vdoc, xq)
            if n_people == min(sizes):
                assert res.to_xml() == \
                    eval_xq(vdoc, xq, mode="naive").to_xml(), name
            t_vx = best_of(lambda: eval_xq(vdoc, xq), repeat)
            tracemalloc.start()
            try:
                eval_xq(vdoc, xq)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            print(f"  n_people={n_people} {name}  vx {t_vx * 1e3:.1f}ms"
                  f"  peak {peak / 2**20:.1f}MiB  tuples={res.n_tuples}")
            records.append({
                "n_people": n_people,
                "query": name,
                "result_tuples": res.n_tuples,
                "t_vx_s": t_vx,
                "peak_alloc_bytes": peak,
            })

    def slope(key: str) -> dict[str, float]:
        return {name: round(loglog_slope(
            [r["n_people"] for r in records if r["query"] == name],
            [r[key] for r in records if r["query"] == name]), 3)
            for name in JOIN_SCALING_QUERIES}

    slopes, mem_slopes = slope("t_vx_s"), slope("peak_alloc_bytes")
    print("  log-log slope: " + ", ".join(
        f"{q} time {slopes[q]:.2f} / peak {mem_slopes[q]:.2f}"
        for q in JOIN_SCALING_QUERIES))
    return records, slopes, mem_slopes


def run_indexed_regime(sizes: list[int], repeat: int,
                       workdir: str) -> tuple[list[dict], dict[str, float]]:
    """Time INDEXED_QUERIES with and without index probes on cold-column
    disk documents; returns (records, min speedup per kind at the largest
    size)."""
    records = []
    print("\n== index probes vs column scans (disk, cold columns) ==")
    for n_people in sizes:
        vdoc = VectorizedDocument.from_xml(xmark_like_xml(n_people, seed=42))
        path = str(pathlib.Path(workdir) / f"ix{n_people}.vdoc")
        with Timer() as t_build:
            summary = save_vdoc(vdoc, path, index_paths="all")
        with open_vdoc(path) as doc:
            for name, (kind, query) in INDEXED_QUERIES.items():
                xq = parse_xq(query)
                # byte-identical answers and an actually-indexed plan,
                # machine-checked before any timing
                ix_res = eval_xq(doc, xq, use_indexes=True)
                doc.drop_caches()
                scan_res = eval_xq(doc, xq, use_indexes=False)
                doc.drop_caches()
                assert ix_res.to_xml() == scan_res.to_xml(), name
                assert any(op.access == "index"
                           for op in ix_res.plan.ops), name
                assert all(op.access == "scan"
                           for op in scan_res.plan.ops), name

                def indexed():
                    doc.drop_caches()
                    return eval_xq(doc, xq, use_indexes=True)

                def scanned():
                    doc.drop_caches()
                    return eval_xq(doc, xq, use_indexes=False)

                t_ix = best_of(indexed, repeat)
                t_scan = best_of(scanned, repeat)
                speedup = t_scan / t_ix if t_ix > 0 else float("inf")
                print(f"  n_people={n_people} {name}"
                      f"  indexed {t_ix * 1e3:.1f}ms"
                      f"  scan {t_scan * 1e3:.1f}ms"
                      f"  speedup {speedup:.2f}x"
                      f"  tuples={ix_res.n_tuples}")
                records.append({
                    "n_people": n_people,
                    "query": name,
                    "kind": kind,
                    "xq": query,
                    "result_tuples": ix_res.n_tuples,
                    "index_pages": summary["index_pages"],
                    "t_index_build_s": t_build.elapsed,
                    "t_indexed_s": t_ix,
                    "t_scan_s": t_scan,
                    "speedup": speedup,
                })
        os.unlink(path)
    largest = max(sizes)
    mins = {
        kind: min(r["speedup"] for r in records
                  if r["n_people"] == largest and r["kind"] == kind)
        for kind in ("sel", "join")
    }
    return records, mins


def run_batched_regime(configs: list[tuple[int, int]], repeat: int,
                       check_naive: bool) -> tuple[list[dict], float]:
    """Time BATCHED_XQ batched vs. per-combo on many-path documents;
    returns (records, min speedup at the largest configuration)."""
    records = []
    xq = parse_xq(BATCHED_XQ)
    print("\n== batched combo execution (many-path documents) ==")
    for n_people, n_regions in configs:
        vdoc = VectorizedDocument.from_xml(
            manypath_xml(n_people, n_regions=n_regions, seed=42))
        batched = eval_xq(vdoc, xq, batched=True)
        per_combo = eval_xq(vdoc, xq, batched=False)
        assert batched.to_xml() == per_combo.to_xml(), "executors diverge"
        if check_naive:  # the nested-loop cross product is quadratic
            naive = eval_xq(vdoc, xq, mode="naive")
            assert batched.to_xml() == naive.to_xml(), "naive diverges"
        n_combos = len(batched.table.combos)
        t_batched = best_of(lambda: eval_xq(vdoc, xq, batched=True), repeat)
        t_percombo = best_of(lambda: eval_xq(vdoc, xq, batched=False),
                             repeat)
        speedup = t_percombo / t_batched if t_batched > 0 else float("inf")
        print(f"  people={n_people} regions={n_regions} combos={n_combos}"
              f" tuples={batched.n_tuples}"
              f"  batched {t_batched * 1e3:.1f}ms"
              f"  per-combo {t_percombo * 1e3:.1f}ms"
              f"  speedup {speedup:.2f}x")
        records.append({
            "n_people": n_people,
            "n_regions": n_regions,
            "n_combos": n_combos,
            "result_tuples": batched.n_tuples,
            "xq": BATCHED_XQ,
            "t_batched_s": t_batched,
            "t_per_combo_s": t_percombo,
            "speedup": speedup,
        })
    largest = max(configs)
    at_largest = [r for r in records
                  if (r["n_people"], r["n_regions"]) == largest]
    return records, min(r["speedup"] for r in at_largest)


def run(sizes: list[int], repeat: int, out_path: str, do_assert: bool,
        batched_configs: list[tuple[int, int]],
        check_naive_batched: bool, indexed_sizes: list[int],
        scaling_sizes: list[int]) -> int:
    records = []
    for n_people in sizes:
        with Timer() as t_gen:
            xml = xmark_like_xml(n_people, seed=42)
        with Timer() as t_vec:
            vdoc = VectorizedDocument.from_xml(xml)
        stats = vdoc.stats()
        print(
            f"\n== n_people={n_people}  nodes={human_count(stats['document_nodes'])}"
            f"  skeleton={stats['skeleton_nodes']} nodes"
            f"  vectors={stats['vectors']}"
            f"  (gen {t_gen.elapsed:.2f}s, vectorize {t_vec.elapsed:.2f}s)"
        )
        for name, query in QUERIES.items():
            xq = parse_xq(query)
            # sanity: byte-identical serialized answers before timing
            vx_res = eval_xq(vdoc, xq, mode="vx")
            nv_res = eval_xq(vdoc, xq, mode="naive")
            assert vx_res.to_xml() == nv_res.to_xml(), name
            t_naive = best_of(lambda: eval_xq(vdoc, xq, mode="naive"),
                              repeat)
            t_vx = best_of(lambda: eval_xq(vdoc, xq, mode="vx"), repeat)
            records.append({
                "n_people": n_people,
                "document_nodes": stats["document_nodes"],
                "skeleton_nodes": stats["skeleton_nodes"],
                "vectors": stats["vectors"],
                "query": name,
                "xq": query,
                "result_tuples": vx_res.n_tuples,
                "t_naive_s": t_naive,
                "t_vx_s": t_vx,
                "speedup": t_naive / t_vx if t_vx > 0 else float("inf"),
            })

    headers = ["nodes", "query", "tuples", "naive (ms)", "vx (ms)", "speedup"]
    rows = [
        [human_count(r["document_nodes"]), r["query"], r["result_tuples"],
         f"{r['t_naive_s'] * 1e3:.2f}", f"{r['t_vx_s'] * 1e3:.3f}",
         f"{r['speedup']:.1f}x"]
        for r in records
    ]
    print("\n" + fmt_table(headers, rows))

    largest = max(sizes)
    at_largest = [r for r in records if r["n_people"] == largest]
    min_speedup = min(r["speedup"] for r in at_largest)
    geo = 1.0
    for r in at_largest:
        geo *= r["speedup"]
    geo **= 1.0 / len(at_largest)
    print(f"\nlargest size: min speedup {min_speedup:.1f}x, "
          f"geomean {geo:.1f}x over {len(at_largest)} queries")

    batched_records, batched_speedup = run_batched_regime(
        batched_configs, repeat, check_naive_batched)

    with tempfile.TemporaryDirectory(prefix="bench-ix-") as workdir:
        indexed_records, indexed_mins = run_indexed_regime(
            indexed_sizes, repeat, workdir)

    scaling_records, slopes, mem_slopes = run_join_scaling_regime(
        scaling_sizes, repeat)

    payload = {
        "bench": "xq_reduction_vs_naive",
        "version": __version__,
        "sizes_n_people": sizes,
        "repeat": repeat,
        "records": records,
        "largest_size": {
            "n_people": largest,
            "min_speedup": min_speedup,
            "geomean_speedup": geo,
        },
        "batched_regime": {
            "records": batched_records,
            "min_speedup_at_largest": batched_speedup,
            "threshold": BATCHED_MIN_SPEEDUP,
        },
        "indexed_regime": {
            "records": indexed_records,
            "min_speedup_at_largest": indexed_mins,
            "thresholds": {"sel": INDEXED_MIN_SEL_SPEEDUP,
                           "join": INDEXED_MIN_JOIN_SPEEDUP},
        },
        "join_scaling_regime": {
            "sizes_n_people": scaling_sizes,
            "records": scaling_records,
            "slopes": slopes,
            "peak_alloc_slopes": mem_slopes,
        },
    }
    pathlib.Path(out_path).write_text(json.dumps(payload, indent=2) + "\n",
                                      encoding="utf-8")
    print(f"wrote {out_path}")

    if do_assert and min_speedup < 1.0:
        print(f"FAIL: expected reduction to beat naive on every query at "
              f"the largest size, got {min_speedup:.2f}x", file=sys.stderr)
        return 1
    if do_assert and batched_speedup < BATCHED_MIN_SPEEDUP:
        print(f"FAIL: expected batched combo execution to be at least "
              f"{BATCHED_MIN_SPEEDUP:.0f}x faster than the per-combo "
              f"baseline on the many-path document, got "
              f"{batched_speedup:.2f}x", file=sys.stderr)
        return 1
    for kind, floor in (("sel", INDEXED_MIN_SEL_SPEEDUP),
                        ("join", INDEXED_MIN_JOIN_SPEEDUP)):
        if do_assert and indexed_mins[kind] < floor:
            print(f"FAIL: expected index probes to be at least "
                  f"{floor:.0f}x faster than cold-column scans on "
                  f"selective {kind} queries at the largest size, got "
                  f"{indexed_mins[kind]:.2f}x", file=sys.stderr)
            return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--sizes", default=None,
                    help="comma-separated n_people sizes (default 500,2000,"
                         "4000 — the naive nested-loop join is quadratic, so "
                         "sizes are smaller than the XPath benchmark's)")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny documents for CI (no speedup assertion)")
    ap.add_argument("--repeat", type=int, default=2)
    ap.add_argument("--out", default=str(
        pathlib.Path(__file__).resolve().parent.parent / "BENCH_xq.json"))
    ap.add_argument("--no-assert", action="store_true")
    args = ap.parse_args(argv)

    if args.sizes:
        sizes = [int(s) for s in args.sizes.split(",")]
    elif args.smoke:
        sizes = [50, 200, 800]
    else:
        sizes = [500, 2000, 4000]
    if args.smoke:
        batched_configs = [(200, 16), (500, 24)]
        indexed_sizes = [2000, 20000]
        scaling_sizes = [1000, 2000, 4000]
    else:
        batched_configs = [(2000, 32), (4000, 48)]
        indexed_sizes = [2000, 8000, 20000]
        scaling_sizes = [1000, 2000, 4000, 8000, 16000]
    do_assert = not (args.no_assert or args.smoke)
    # the naive nested-loop check of the cross-product query is quadratic;
    # only run it at smoke sizes
    return run(sizes, args.repeat, args.out, do_assert,
               batched_configs, check_naive_batched=args.smoke,
               indexed_sizes=indexed_sizes, scaling_sizes=scaling_sizes)


if __name__ == "__main__":
    sys.exit(main())
