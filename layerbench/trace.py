"""Spans around the program's public layer boundaries, recorded from outside.

:func:`instrument` replaces the public names that ``repro.core.engine``
and ``repro.repo.Repository`` call -- parse, compile, plan, reduce,
build, serialize, XPath evaluation, document open, member lookup, the
``LazyVector`` column accessors, ``DiskValueIndex.get`` and the lazily
built path catalog (``PathsCatalog``, which a freshly opened document
builds during its first query) -- with thin
wrappers that open a span, call the original and close the span, and
restores every original on exit.  Nothing in the program changes; the
untraced measurement never runs with the wrappers installed.

A span is ``[name, start, end, parent, request]`` plus optional
attributes (row counts, output bytes, plan access paths).  Spans stay in
memory and are written once, when the run ends.  A layer's *self* time is
its span's duration minus the part covered by child spans, so nested
layers (reduction inside a repository query, say) are not counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time

from . import stats

_NOW = time.perf_counter


class Tracer:
    """Single-threaded span recorder (the traced replay runs on one
    thread, so a plain stack gives every span its parent)."""

    def __init__(self):
        self.spans: list[list] = []   # [name, t0, t1, parent, request, attrs]
        self._stack: list[int] = []
        self.request = None

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _NOW(), None, parent, self.request, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, attrs: dict | None = None) -> None:
        span = self.spans[idx]
        span[2] = _NOW()
        if attrs:
            span[5] = attrs
        popped = self._stack.pop()
        assert popped == idx, "spans closed out of order"

    @contextlib.contextmanager
    def span(self, name: str, request=None):
        """A root span; ``request`` becomes the id of every span inside."""
        if request is not None:
            self.request = request
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, t0, t1, parent, req, attrs in self.spans:
                f.write(json.dumps({"name": name, "start": t0, "end": t1,
                                    "parent": parent, "request": req,
                                    **({"attrs": attrs} if attrs else {})})
                        + "\n")


def _plan_attrs(plan) -> dict:
    acc = [op.access for op in plan.ops]
    return {"index_ops": acc.count("index"), "dict_ops": acc.count("dict"),
            "scan_ops": acc.count("scan")}


def _wrap(tracer: Tracer, name: str, fn, annotate=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        attrs = None
        try:
            result = fn(*args, **kwargs)
            if annotate is not None:
                attrs = annotate(result)
            return result
        finally:
            tracer.close(idx, attrs)
    return traced


def _targets():
    """``(owner, attribute, span name, annotate)`` for every wrapped
    boundary.  Module-level names are patched where they are *looked up*
    (the engine and the repository import them by name)."""
    from repro.core import engine, paths, vdoc
    from repro.core.xpath import vx_eval
    from repro.repo import repository
    from repro.storage import vdocfile

    def out_bytes(s):
        return {"out_bytes": len(s)}

    return [
        (engine, "parse_xq", "xquery.parse", None),
        (repository, "parse_xq", "xquery.parse", None),
        (engine, "compile_query", "qgraph.compile", None),
        (repository, "compile_query", "qgraph.compile", None),
        (engine, "plan_query", "planner.plan", _plan_attrs),
        (engine, "reduce_query", "reduction.reduce",
         lambda t: {"rows_out": t.n_rows}),
        (engine, "build_result", "builder.build", None),
        (engine.XQVXResult, "to_xml", "serialize", out_bytes),
        (engine.XQVXResult, "fragment", "serialize", out_bytes),
        (engine, "evaluate_vx", "vx_eval.eval", None),
        (vx_eval.VXResult, "text_values", "vx_eval.values", None),
        (paths.PathsCatalog, "index", "paths.build", None),
        (paths.PathsCatalog, "order_keys", "paths.build", None),
        (paths.PathsCatalog, "dataguide", "paths.build", None),
        (vdocfile, "open_vdoc", "storage.open", None),
        (repository, "open_vdoc", "storage.open", None),
        (vdocfile, "save_vdoc", "storage.save",
         lambda s: {"pages_written": s["pages"]}),
        (vdocfile.LazyVector, "_col", "storage.materialize", None),
        (vdocfile.LazyVector, "dict_codes", "storage.materialize", None),
        (vdocfile.LazyVector, "floats", "storage.materialize", None),
        (vdocfile.DiskValueIndex, "get", "index.load", None),
        (repository.Repository, "member", "repo.member", None),
        (repository.Repository, "xq", "repo.query",
         lambda res: {"pruned": len(res.pruned)}),
        (repository.Repository, "xpath", "repo.query", None),
        (repository.Repository, "add", "repo.add", None),
        (repository.RepoXQResult, "to_xml", "repo.assemble", None),
        (vdoc.VectorizedDocument, "from_xml", "vectorize", None),
    ]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install span wrappers on every layer boundary; restore on exit."""
    saved = []
    try:
        for owner, attr, name, annotate in _targets():
            raw = owner.__dict__[attr]
            saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(_wrap(tracer, name, raw.__func__,
                                            annotate))
            else:
                wrapped = _wrap(tracer, name, raw, annotate)
            setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


# -- analysis ----------------------------------------------------------------

#: per-request time metrics: metric name -> span name (outermost inclusive
#: time of that span name within the request, in milliseconds)
TIME_METRICS = {
    "xquery.parse_ms": "xquery.parse",
    "qgraph.compile_ms": "qgraph.compile",
    "planner.plan_ms": "planner.plan",
    "reduction.reduce_ms": "reduction.reduce",
    "builder.build_ms": "builder.build",
    "serialize.ms": "serialize",
    "vx_eval.eval_ms": "vx_eval.eval",
    "vx_eval.values_ms": "vx_eval.values",
    "paths.build_ms": "paths.build",
    "storage.open_ms": "storage.open",
    "storage.materialize_ms": "storage.materialize",
    "index.load_ms": "index.load",
}

#: per-request counts carried as span attributes: metric -> (span, attr)
ATTR_METRICS = {
    "planner.index_ops": ("planner.plan", "index_ops"),
    "planner.dict_ops": ("planner.plan", "dict_ops"),
    "planner.scan_ops": ("planner.plan", "scan_ops"),
    "reduction.rows_out": ("reduction.reduce", "rows_out"),
    "serialize.out_bytes": ("serialize", "out_bytes"),
}

#: layers whose self-time share of the traced query time is reported;
#: ``other`` is the request span's own time (engine glue, guards, the
#: caller) that no wrapped boundary covers
QUERY_LAYERS = ("xquery", "qgraph", "planner", "reduction", "builder",
                "serialize", "vx_eval", "paths", "storage", "index", "repo",
                "other")


def layer_of(name: str) -> str:
    layer = name.split(".", 1)[0]
    return "other" if layer == "request" else layer


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus the union of its children's intervals."""
    children: list[list] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    return [s[2] - s[1] - _covered(children[i])
            for i, s in enumerate(spans)]


def analyze(spans: list[list]) -> dict:
    """Per-layer metrics over every ``request`` root span: time metrics
    and counts are per-request medians over the requests that reached the
    layer (0 when none did); ``<layer>.self_share`` is the layer's summed
    self time over the summed request time."""
    selfs = self_times(spans)
    per_req: dict[object, dict] = {}
    req_time = 0.0
    layer_self: dict[str, float] = {layer: 0.0 for layer in QUERY_LAYERS}
    names = [s[0] for s in spans]
    for i, s in enumerate(spans):
        if s[0] == "request":
            req_time += s[2] - s[1]
        layer = layer_of(s[0])
        if layer in layer_self:
            layer_self[layer] += selfs[i]
        rec = per_req.setdefault(s[4], {})
        # outermost inclusive time: skip a span nested in one of its kind
        p, nested = s[3], False
        while p >= 0:
            if names[p] == s[0]:
                nested = True
                break
            p = spans[p][3]
        if not nested:
            rec[s[0]] = rec.get(s[0], 0.0) + (s[2] - s[1])
        for key, val in (s[5] or {}).items():
            k = (s[0], key)
            rec[k] = rec.get(k, 0) + val
    out: dict[str, float] = {}
    reqs = list(per_req.values())
    for metric, span in TIME_METRICS.items():
        vals = [r[span] * 1e3 for r in reqs if span in r]
        out[metric] = stats.median(vals) if vals else 0.0
    for metric, key in ATTR_METRICS.items():
        vals = [r[key] for r in reqs if key in r]
        out[metric] = float(stats.median(vals)) if vals else 0.0
    # most requests prune nothing: a median would hide the ones that do
    pruned = [r.get(("repo.query", "pruned"), 0) for r in reqs
              if "repo.query" in r]
    out["repo.pruned_members"] = (sum(pruned) / len(pruned) if pruned
                                  else 0.0)
    for layer, t in layer_self.items():
        out[f"{layer}.self_share"] = stats.ratio(t, req_time)
    return out
