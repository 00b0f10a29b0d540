"""The four workloads: their inputs, their store, and their reference answers.

Each workload is chosen so that one layer the roadmap will optimise does
most of the work in it and little in another (see ``README.md`` here for
the prediction table):

* ``serve-mix``          -- ``repro-xq serve`` over a four-member repository
  that fits its pool; Zipf-repeated constants exercise the result cache,
  HTTP, admission and queueing (``repro.repo`` / ``repro.serve``);
* ``warm-large-results`` -- broad selections and XPath value extraction over
  one warm 8k-person document: output-bound (``repro.core.builder`` and
  serialization);
* ``cold-oneshot``       -- open, one selective query, close, over a
  16k-person document through a 64-page pool: storage- and index-bound
  (``repro.storage`` / ``repro.index``), the store larger than the cache;
* ``join-scale``         -- value joins at two document sizes, warm:
  reduction-bound and quadratic (``repro.core.reduction``).

Everything here runs outside the timed region: document generation, the
ingest that ``setup_s`` times, and the reference answers every timed
answer is compared with byte for byte.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import time

from . import calib, gen, stats

WORKLOADS = ("serve-mix", "warm-large-results", "cold-oneshot", "join-scale")

#: people per document, full size and ``--smoke`` size
SIZES = {
    "serve-mix": {"member": (4000, 150)},
    "warm-large-results": {"doc": (8000, 300)},
    "cold-oneshot": {"doc": (16000, 400)},
    "join-scale": {"small": (500, 100), "large": (1000, 200)},
}
SERVE_MEMBERS = 4
#: member index generated without closed auctions: join queries prune it
#: from the catalog with zero page I/O (``repo.pruned_members``)
SERVE_PRUNABLE = 3
#: cold-oneshot's pool: far smaller than the ~1,950-page document
COLD_POOL_PAGES = 64
#: serve-mix's pool holds the whole repository (the store that fits)
SERVE_POOL_PAGES = 4096
#: serve-mix template rotation.  Needle selections are half the requests
#: and mostly miss the result cache, so the median latency falls inside
#: their (evaluated) cluster; broad selections (large outputs) are one in
#: six and nearly never repeat, so the tail falls inside theirs
SERVE_CYCLE = ("needle", "broad", "needle", "xpath", "needle",
               "selective-join")
#: the naive oracle runs every template at this size (people)
ORACLE_PEOPLE = (150, 60)
#: join probe reported as ``join_slope`` by the workloads without joins
PROBE_PEOPLE = ((250, 500), (60, 120))
PROBE_REPS = 11
#: goodput latency limit per in-process workload (ms): a correct answer
#: slower than this does not count towards ``goodput_qps``
GOODPUT_LIMIT_MS = {"warm-large-results": 250.0, "cold-oneshot": 500.0,
                    "join-scale": 2000.0}
#: ingests per run, at least ``SETUP_REPS`` and until they took
#: ``SETUP_MIN_S`` seconds (at most ``SETUP_MAX_REPS``); ``setup_s`` is
#: their median
SETUP_REPS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPS = 12
#: requests generated per run (a run that exhausts them cycles); serve-mix
#: sends a fixed number per run at the default --seconds
STREAM_LEN = {"serve-mix": 1000, "warm-large-results": 3000,
              "cold-oneshot": 300, "join-scale": 600}


def size(workload: str, key: str, smoke: bool) -> int:
    return SIZES[workload][key][1 if smoke else 0]


def digest(body: bytes) -> str:
    return hashlib.sha1(body).hexdigest()


# -- documents ---------------------------------------------------------------

def documents(workload: str, seed: int, smoke: bool) -> dict[str, str]:
    """Document key -> XML text, all drawn from ``seed``."""
    if workload == "serve-mix":
        n = size(workload, "member", smoke)
        return {f"m{k}": gen.auction_xml(n, gen.rng(seed, workload, k),
                                         closed_auctions=k != SERVE_PRUNABLE)
                for k in range(SERVE_MEMBERS)}
    return {key: gen.auction_xml(size(workload, key, smoke),
                                 gen.rng(seed, workload, key))
            for key in SIZES[workload]}


# -- query streams -----------------------------------------------------------

def _req(tpl: str, kind: str, q: str, doc: str = "doc") -> dict:
    return {"tpl": tpl, "kind": kind, "q": q, "doc": doc}


def stream(workload: str, seed: int, smoke: bool) -> list[dict]:
    """The workload's request sequence.  Templates rotate in a fixed
    cycle, so every run holds them in the same proportions and the median
    latency falls inside one template's cluster rather than in the gap
    between two."""
    r = gen.rng(seed, workload, "stream")
    out: list[dict] = []
    n_req = STREAM_LEN[workload]
    if workload == "warm-large-results":
        while len(out) < n_req:
            lo = r.randint(18, 66)
            out.append(_req("broad-people", "xq", gen.q_age_band(lo, lo + 15)))
            out.append(_req("broad-items", "xq",
                            gen.q_items_at(r.choice(gen.LOCATIONS))))
            lo = r.randint(18, 66)
            out.append(_req("xpath-values", "values",
                            gen.q_xpath_values(lo, lo + 15)))
    elif workload == "cold-oneshot":
        n = size(workload, "doc", smoke)
        while len(out) < n_req:
            out.append(_req("needle", "xq", gen.q_needle(r.randrange(n))))
            out.append(_req("selective-join", "xq",
                            gen.q_selective_join(r.randrange(n))))
            out.append(_req("dict-eq", "xq",
                            gen.q_dict_eq(r.choice(gen.LOCATIONS),
                                          r.randint(1, 9))))
    elif workload == "join-scale":
        # XQ4's age stays fixed: a drawn age would change its selectivity
        # and with it the median
        locs = list(gen.LOCATIONS)
        r.shuffle(locs)
        while len(out) < n_req:
            loc = locs[len(out) // 6 % len(locs)]
            for doc in ("large", "small"):
                out.append(_req("join-buyer", "xq", gen.q_join_buyer(), doc))
                out.append(_req("join-buyer-age", "xq",
                                gen.q_join_buyer_age(40), doc))
                out.append(_req("join-item", "xq", gen.q_join_item(loc), doc))
    elif workload == "serve-mix":
        n = size(workload, "member", smoke)
        # equal-width bands, so every broad query costs about the same;
        # the result tag multiplies the distinct queries by ten
        ranges = [(lo, lo + 3, f"r{tag}") for lo in range(18, 78)
                  for tag in range(10)]
        people = list(range(n))
        r.shuffle(ranges)
        r.shuffle(people)
        cycles = -(-n_req // len(SERVE_CYCLE))
        # Zipf exponents: band constants nearly never repeat within a run,
        # about a third of person constants do (and hit the result cache)
        draws = {tpl: iter(gen.Zipf(*((len(ranges), 0.3) if tpl == "broad"
                                      else (n, 1.0))).sequence(
                     cycles * SERVE_CYCLE.count(tpl), r))
                 for tpl in dict.fromkeys(SERVE_CYCLE)}
        templates = {"needle": gen.q_needle, "xpath": gen.q_xpath_needle,
                     "selective-join": gen.q_selective_join}
        for _ in range(cycles):
            for tpl in SERVE_CYCLE:
                rank = next(draws[tpl])
                q = (gen.q_age_band(*ranges[rank]) if tpl == "broad"
                     else templates[tpl](people[rank]))
                out.append(_req(tpl, "xpath" if tpl == "xpath" else "xq", q))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out[:n_req]


def oracle_queries() -> list[tuple[str, str]]:
    """One instance of every query template, for the naive oracle."""
    return [
        ("xq", gen.q_age_band(30, 45)), ("xq", gen.q_items_at("Kenya")),
        ("values", gen.q_xpath_values(30, 45)), ("xq", gen.q_needle(7)),
        ("xq", gen.q_selective_join(7)), ("xq", gen.q_dict_eq("Kenya", 3)),
        ("xpath", gen.q_xpath_needle(7)), ("xq", gen.q_join_buyer()),
        ("xq", gen.q_join_buyer_age(40)), ("xq", gen.q_join_item("Japan")),
    ]


# -- answers -----------------------------------------------------------------

def answer(doc, req: dict, mode: str = "vx") -> bytes:
    """The bytes a caller receives for one in-process request: the
    serialized XQ result, or the XPath's text values (``values``) or
    result count (``xpath``), one per line."""
    from repro.core import engine

    if req["kind"] == "xq":
        return engine.eval_xq(doc, req["q"], mode=mode).to_xml().encode()
    res = engine.eval_query(doc, req["q"], mode=mode)
    if req["kind"] == "values":
        return ("\n".join(res.text_values()) + "\n").encode()
    return f"count {res.count()}\n".encode()


def repo_answer(repo, req: dict) -> bytes:
    """The bytes ``repro-xq serve`` returns for one request (the code
    behind its handler, called in-process)."""
    if req["kind"] == "xq":
        return (repo.xq(req["q"]).to_xml() + "\n").encode()
    lines = [f"{name}: count {res.count()}"
             for name, res in repo.xpath(req["q"])]
    return ("\n".join(lines) + "\n").encode()


def check_oracle(seed: int, smoke: bool) -> list[str]:
    """Every template, vectorized against the naive evaluator on a small
    document; returns the templates whose bytes differ."""
    from repro.core.vdoc import VectorizedDocument

    n = ORACLE_PEOPLE[1 if smoke else 0]
    doc = VectorizedDocument.from_xml(
        gen.auction_xml(n, gen.rng(seed, "oracle")))
    bad = []
    for kind, q in oracle_queries():
        req = {"kind": kind, "q": q}
        if answer(doc, req) != answer(doc, req, mode="naive"):
            bad.append(q)
    return bad


def references(workload: str, store: dict, reqs: list[dict]) -> None:
    """Set ``digest`` on every request from an in-process evaluation over
    the stored documents through an unbounded pool (for ``serve-mix``,
    through a repository without result cache)."""
    from repro.repo import Repository
    from repro.storage.vdocfile import open_vdoc

    memo: dict[tuple, str] = {}
    if workload == "serve-mix":
        with Repository.open(store["repo"]) as repo:
            for req in reqs:
                key = (req["kind"], req["q"])
                if key not in memo:
                    memo[key] = digest(repo_answer(repo, req))
                req["digest"] = memo[key]
        return
    docs = {k: open_vdoc(p) for k, p in store["docs"].items()}
    try:
        for req in reqs:
            key = (req["doc"], req["kind"], req["q"])
            if key not in memo:
                memo[key] = digest(answer(docs[req["doc"]], req))
            req["digest"] = memo[key]
    finally:
        for d in docs.values():
            d.close()


# -- ingest (what setup_s times) ---------------------------------------------

def ingest(workload: str, xmls: dict[str, str], dest: str) -> dict:
    """Vectorize, save (format v4, every vector indexed) and, for
    ``serve-mix``, add to a repository.  Returns the store's paths and
    its size on disk."""
    from repro.core.vdoc import VectorizedDocument
    from repro.repo import Repository
    from repro.storage import vdocfile

    os.makedirs(dest)
    docs = {}
    for key, xml in xmls.items():
        path = os.path.join(dest, f"{key}.vdoc")
        vdoc = VectorizedDocument.from_xml(xml)
        vdocfile.save_vdoc(vdoc, path, index_paths="all")
        docs[key] = path
    if workload != "serve-mix":
        return {"docs": docs, "bytes": sum(os.path.getsize(p)
                                           for p in docs.values())}
    repo_dir = os.path.join(dest, "repo")
    repo = Repository.init(repo_dir, "auctions")
    try:
        for key, path in docs.items():
            repo.add(path, name=key)
    finally:
        repo.close()
    for path in docs.values():
        os.unlink(path)
    return {"repo": repo_dir,
            "bytes": sum(os.path.getsize(os.path.join(repo_dir, f))
                         for f in os.listdir(repo_dir))}


#: reference slices timed before and after every ingest
SETUP_CAL_SLICES = 40


def timed_setup(workload: str, xmls: dict[str, str], workdir: str,
                reps: int, min_s: float) -> tuple[dict, list[float],
                                                  list[float]]:
    """Ingest into fresh directories, at least ``reps`` times and until
    the ingests took ``min_s`` seconds; keep the last store.  Returns the
    store, the measured seconds of each ingest, and each scaled to the
    reference speed by the slices around it."""
    times, scaled = [], []
    after = calib.block(SETUP_CAL_SLICES)
    while True:
        before = after
        dest = os.path.join(workdir, f"store{len(times)}")
        t0 = time.perf_counter()
        store = ingest(workload, xmls, dest)
        times.append(time.perf_counter() - t0)
        after = calib.block(SETUP_CAL_SLICES)
        scaled.append(times[-1] / calib.factor(before + after))
        if len(times) >= SETUP_MAX_REPS or (len(times) >= reps
                                            and sum(times) >= min_s):
            return store, times, scaled
        shutil.rmtree(dest)


# -- the join probe ----------------------------------------------------------

def join_probe(seed: int, smoke: bool) -> float:
    """``join_slope`` for the workloads that run no joins of their own:
    the log-log slope of the median value-join latency between two small
    in-memory documents, one twice the size of the other."""
    from repro.core import engine
    from repro.core.vdoc import VectorizedDocument

    sizes = PROBE_PEOPLE[1 if smoke else 0]
    docs = [VectorizedDocument.from_xml(
        gen.auction_xml(n, gen.rng(seed, "probe", n))) for n in sizes]
    q = gen.q_join_buyer()
    for d in docs:
        engine.eval_xq(d, q).to_xml()          # warm the columns
    times: list[list[float]] = [[], []]
    for _ in range(PROBE_REPS):
        for k, d in enumerate(docs):
            t0 = time.perf_counter()
            engine.eval_xq(d, q).to_xml()
            times[k].append(time.perf_counter() - t0)
    return (math.log(stats.median(times[1]) / stats.median(times[0]))
            / math.log(sizes[1] / sizes[0]))
