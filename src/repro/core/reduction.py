"""Graph reduction over extended vectors (paper §4.2) — the XQ hot path.

The query graph ``Gq`` is evaluated collection-at-a-time.  The state is a
list of **component tables**: each holds one int64 occurrence-ordinal
column per variable it binds, all of equal length, so a row is one
candidate binding of *those* variables.  Root variables stay in separate
components until an edge connects them.  The planner's operations reduce
``Gq`` edge by edge:

* **instantiate** (tree edge) — a root variable starts a new component
  from one vectorized XPath evaluation; a relative variable extends its
  parent's component by a positional join: ``extension_ranges`` +
  prefix-sum materialization, with the other columns replicated by
  ``np.repeat``;
* **select** (constant edge) — one vectorized comparison over the text
  vector plus a prefix-sum existential per row of one component;
* **join** (equality edge) — when both variables already share a
  component, an existential set comparison per row filters it (shared
  value codes matched per row for ``=`` / ``!=``; per-row min/max for
  the ordering operators).  A join across two components *merges* them with
  an output-sensitive join that never builds the cross product: ``=`` is
  a sort-merge on shared value codes (merged index dictionaries under
  ``access='index'``, else one ``np.unique`` over both sides), ``!=``
  emits the non-empty pairs minus those whose sides hold the same single
  value, and the ordering operators compare per-row min/max against a
  sorted ``searchsorted`` band.  Work is O((n₁+n₂) log + output).

Only components that no edge connects are combined, at the end, by an
explicit cartesian product (``Plan.explain`` labels it).  Every expansion
knows its output size before it allocates and passes a cooperative
deadline checkpoint there.

Variables range over *concrete* label paths, so a query with wildcard or
descendant bindings is a union over concrete-path *combos* — one per
assignment of variables to dataguide paths, exactly the paper's expansion
of ``//`` against the skeleton.  The combo set is the product of the
per-tree combo sets (a relative variable's path depends only on its
parent's), so each component carries a per-row combo id (``cid``) into
the global combos *projected* onto its own variables; a merge pairs the
projected ids and, once every variable is bound, they map back to the
global ids.  The default executor is **batched**: the plan runs *once*
over all combos.  Each operation partitions its rows by the distinct
concrete paths involved — not by combo — so every full-column kernel
(predicate mask, prefix sum) runs at most once per plan operation per
vector no matter how many combos the dataguide yields; the
:class:`~repro.core.context.EvalContext` counts those sweeps and the
engine asserts the bound.  The pre-existing combo-at-a-time executor is
kept as ``batched=False`` — it re-sweeps per combo and builds each
combo's cross product — as the measured baseline.

Each touched vector is loaded through the context's per-document cache
(scanned at most once for the whole query) and the skeleton is never
decompressed.  The final cross-combo ordering uses the catalog's global
preorder ranks: sorting rows by the rank of each variable (outermost
first) reproduces the nested-loop document order of the naive evaluator
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..index import merge_codings
from ..index import select_keep as vindex_select_keep
from .context import EvalContext
from .paths import ranges_to_ordinals
from .planner import Plan
from .qgraph import ConstEdge, EqEdge, QueryGraph
from .xpath.vx_eval import _alignments, evaluate_vx, pred_mask

_EMPTY = np.empty(0, dtype=np.int64)


@dataclass
class ComboRows:
    """Surviving rows of one variable→concrete-path assignment."""

    var_paths: dict[str, tuple]      # variable -> concrete label path
    cols: dict[str, np.ndarray]      # variable -> ordinal column
    rows_global: np.ndarray          # per-row index into the global order

    def __len__(self) -> int:
        return len(self.rows_global)


@dataclass
class ReducedTable:
    """Union of all combination tables, globally ordered."""

    variables: list[str]
    combos: list[ComboRows]
    n_rows: int


def _enumerate_combos(gq: QueryGraph, vdoc, ctx: EvalContext,
                      plan: Plan | None = None) -> list[dict]:
    """All assignments of variables to concrete dataguide paths.

    Root variables carry their (already predicate-filtered) ordinal sets
    from a single vectorized XPath evaluation per source; relative
    variables only fix a path here — their ordinals come from positional
    expansion during reduction.  The planner's precomputed candidate paths
    (``plan.var_paths``) narrow the dataguide scan for relative variables.
    """
    catalog = vdoc.catalog
    guide = catalog.dataguide()
    cand = plan.var_paths if plan is not None else {}
    root_groups: dict[str, list[tuple]] = {}
    for var in gq.variables:
        edge = gq.tree_edges[var]
        if edge.parent is None:
            root_groups[var] = evaluate_vx(vdoc, edge.abs_path, ctx).groups

    combos: list[dict] = []

    def rec(i: int, assign: dict) -> None:
        if i == len(gq.variables):
            ctx.checkpoint()   # combo enumeration can be combinatorial
            combos.append(dict(assign))
            return
        var = gq.variables[i]
        edge = gq.tree_edges[var]
        if edge.parent is None:
            for cpath, ids in root_groups[var]:
                assign[var] = (cpath, ids)
                rec(i + 1, assign)
        else:
            base = assign[edge.parent][0]
            k = len(base)
            for g in cand.get(var, guide):
                if len(g) > k and g[:k] == base \
                        and _alignments(edge.steps, g[k:]):
                    assign[var] = (g, None)
                    rec(i + 1, assign)
        assign.pop(var, None)

    rec(0, {})
    return combos


def _combo_groups(cid: np.ndarray, assigns: list[dict], key):
    """Partition row indices by ``key(assign)`` of their combo.

    Yields ``(rows, representative assignment)`` per distinct key with at
    least one surviving row — the batched executor's unit of kernel work
    (distinct concrete paths, *not* combos)."""
    by: dict = {}
    for ci, a in enumerate(assigns):
        by.setdefault(key(a), []).append(ci)
    gid = np.empty(len(assigns), dtype=np.int64)
    reps = []
    for g, cis in enumerate(by.values()):
        gid[cis] = g
        reps.append(assigns[cis[0]])
    row_g = gid[cid] if len(cid) else np.empty(0, dtype=np.int64)
    for g, rep in enumerate(reps):
        rows = np.flatnonzero(row_g == g)
        if len(rows):
            yield rows, rep


def _existential_keep(mask: np.ndarray, starts: np.ndarray,
                      lengths: np.ndarray) -> np.ndarray:
    """Per-row ∃: does any ordinal in ``[start, start+length)`` satisfy
    ``mask``?  One prefix sum, no per-row loop."""
    cum = np.concatenate(([0], np.cumsum(mask, dtype=np.int64)))
    return cum[starts + lengths] > cum[starts]


class _SideResolver:
    """Shared operand resolution for both executors."""

    def __init__(self, vdoc, ctx: EvalContext):
        self.vdoc = vdoc
        self.catalog = vdoc.catalog
        self.ctx = ctx
        self.cache = ctx.cache(vdoc)

    def _side(self, cpath: tuple, col: np.ndarray, rel: tuple):
        """Resolve one comparison operand to per-row contiguous ranges in
        the ordinal space of a text path: ``(qpath, starts, lengths)``.
        ``None`` means no such text exists anywhere (∃ fails for all rows).
        A variable bound directly to a text node compares its own value
        (identity ranges)."""
        if cpath[-1] == "#":
            if rel == ("#",):
                return cpath, col, np.ones(len(col), dtype=np.int64)
            return None
        qpath = (*cpath, *rel)
        if self.catalog.index(qpath) is None:
            return None
        starts, lengths = self.catalog.extension_ranges(cpath, col, rel)
        return qpath, starts, lengths

    def _vindex(self, qpath: tuple, access: str):
        """The value index to probe for ``qpath`` under the plan's chosen
        access path — ``None`` means execute as a scan (also the runtime
        degradation when a planned index is missing)."""
        if access != "index":
            return None
        return self.vdoc.vindex(qpath)

    def _index_join_codes(self, parts1, parts2, access: str):
        """Row ids + *shared-space* value codes for both join sides via
        the per-path indexes: local row codes remapped through one
        dictionary merge — all row-proportional work is integer work.
        ``None`` means scan (chosen by the plan, or an index is missing)."""
        if access != "index":
            return None
        idx: dict = {}
        for _, q, _ in (*parts1, *parts2):
            if q not in idx:
                vi = self.vdoc.vindex(q)
                if vi is None:
                    return None
                idx[q] = vi
        qlist = list(idx)
        remaps, m = merge_codings([idx[q] for q in qlist])
        remap = dict(zip(qlist, remaps))

        def side(parts):
            rs = [p[0] for p in parts]
            gs = [remap[q][idx[q].row_codes()[o]] for _, q, o in parts]
            return (np.concatenate(rs) if rs else _EMPTY,
                    np.concatenate(gs) if gs else _EMPTY)

        r1, g1 = side(parts1)
        r2, g2 = side(parts2)
        return r1, g1, r2, g2, max(m, 1)


#: ordering operators -> their elementwise numpy comparison
_ORDER_CMP = {"<": np.less, "<=": np.less_equal,
              ">": np.greater, ">=": np.greater_equal}


@dataclass
class _Component:
    """One connected piece of the batched reduction state.

    Holds the ordinal columns of the variables it binds (all of equal
    length — a row is one candidate binding of *those* variables) and a
    per-row ``cid`` into the component's own combos: the global combos
    projected onto its variables.  ``proj`` maps every global combo id to
    its projected id, ``reps`` gives one representative global assignment
    per projected id (the key source of :func:`_combo_groups`)."""

    proj: np.ndarray
    reps: list[dict]
    cid: np.ndarray
    cols: dict[str, np.ndarray]

    def keep(self, mask: np.ndarray) -> None:
        self.cid = self.cid[mask]
        self.cols = {v: c[mask] for v, c in self.cols.items()}


def _multi(rows: np.ndarray) -> bool:
    """Does a sorted row-id array repeat a row (a multi-valued side)?"""
    return bool(len(rows) > 1 and (rows[1:] == rows[:-1]).any())


def _representatives(proj: np.ndarray, n_local: int,
                     assigns: list[dict]) -> list[dict]:
    """One global assignment per projected combo id (every id occurs:
    the global combos are the product of the per-tree combos)."""
    rep = np.zeros(n_local, dtype=np.int64)
    rep[proj] = np.arange(len(proj), dtype=np.int64)
    return [assigns[g] for g in rep]


class _BatchReducer(_SideResolver):
    """One plan execution over the whole combo table, kept as separate
    component tables until an edge connects them.

    Rows carry a per-component combo id; every operation groups rows by
    the distinct concrete path(s) it touches.  Full-column sweeps (mask +
    prefix sum) are keyed by (plan operation, vector path) and cached, so
    each data vector is swept at most once per plan operation across all
    combos — the invariant ``EvalContext.check_passes`` asserts."""

    def __init__(self, vdoc, ctx: EvalContext):
        super().__init__(vdoc, ctx)
        self._cums: dict[tuple, np.ndarray] = {}
        #: the largest row set materialized so far (tables and join pairs)
        self.peak_rows = 0

    def _expanding(self, total: int) -> None:
        """About to materialize ``total`` rows: account them, then the
        cancellation point — the size is known, nothing is allocated."""
        self.peak_rows = max(self.peak_rows, int(total))
        self.ctx.checkpoint()

    def _cum_mask(self, op_idx: int, qpath: tuple, op: str,
                  value: str) -> np.ndarray:
        key = (qpath, op, value)
        cum = self._cums.get(key)
        if cum is None:
            self.ctx.note_pass(self.vdoc, (op_idx, qpath))
            mask = pred_mask(self.cache, qpath, op, value)
            cum = np.concatenate(([0], np.cumsum(mask, dtype=np.int64)))
            self._cums[key] = cum
        return cum

    # -- operand resolution --------------------------------------------------

    def _operand(self, comp: _Component, var: str, rel: tuple):
        """Resolve one comparison operand over a component's rows: the
        per-row extension lengths plus ``(expanded row ids, qpath,
        ordinals)`` parts, one per distinct concrete path."""
        lengths_all = np.zeros(len(comp.cid), dtype=np.int64)
        parts = []
        for rows, a in _combo_groups(comp.cid, comp.reps,
                                     key=lambda a: a[var][0]):
            side = self._side(a[var][0], comp.cols[var][rows], rel)
            if side is None:
                continue
            qpath, s, ln = side
            lengths_all[rows] = ln
            parts.append((np.repeat(rows, ln), qpath,
                          ranges_to_ordinals(s, ln)))
        return lengths_all, parts

    def _codes(self, parts1, parts2, access: str):
        """``(r1, g1, r2, g2, m)``: row ids and shared-space value codes
        of both operands — merged index dictionaries under
        ``access='index'``, otherwise ONE ``np.unique`` over the gathered
        values of both sides — O((n₁+n₂) log), never O(n₁·n₂)."""
        coded = self._index_join_codes(parts1, parts2, access)
        if coded is not None:
            return coded

        def gather(parts):
            if not parts:
                return _EMPTY, np.empty(0, dtype=np.str_)
            return (np.concatenate([p[0] for p in parts]),
                    np.concatenate([self.cache.column(q)[o]
                                    for _, q, o in parts]))

        r1, v1 = gather(parts1)
        r2, v2 = gather(parts2)
        uniq, codes = np.unique(np.concatenate([v1, v2]),
                                return_inverse=True)
        codes = codes.reshape(-1)
        return r1, codes[: len(v1)], r2, codes[len(v1):], max(len(uniq), 1)

    def _extrema(self, parts, n: int, use_min: bool):
        """Per-row min (or max) of an operand's numeric values — fmin/fmax
        skip NaN, i.e. non-numeric text — plus the per-row "holds a
        number" flag.  The existential ordering comparison of two value
        sets reduces to one comparison of these aggregates."""
        agg = np.full(n, np.inf if use_min else -np.inf)
        num = np.zeros(n, dtype=bool)
        for r, q, o in parts:
            v = self.cache.floats(q)[o]
            (np.fmin if use_min else np.fmax).at(agg, r, v)
            num[r[~np.isnan(v)]] = True
        return agg, num

    # -- operations within one component -------------------------------------

    def _root(self, var: str, proj: np.ndarray, n_local: int,
              assigns: list[dict]) -> _Component:
        """Instantiate a root variable: a new component whose rows are the
        variable's ordinals, one block per projected combo of its tree."""
        reps = _representatives(proj, n_local, assigns)
        ids_list = [np.asarray(a[var][1], dtype=np.int64) for a in reps]
        counts = np.array([len(x) for x in ids_list], dtype=np.int64)
        self._expanding(counts.sum())
        cid = np.repeat(np.arange(n_local, dtype=np.int64), counts)
        return _Component(proj, reps, cid, {var: np.concatenate(ids_list)})

    def _relative(self, edge, comp: _Component) -> None:
        """Relative binding: positional join, grouped by the distinct
        (parent path, own path) pairs — not by combo."""
        v, p = edge.var, edge.parent
        n = len(comp.cid)
        starts_all = np.zeros(n, dtype=np.int64)
        lengths_all = np.zeros(n, dtype=np.int64)
        for rows, a in _combo_groups(comp.cid, comp.reps,
                                     key=lambda a: (a[p][0], a[v][0])):
            pcp = a[p][0]
            rel = a[v][0][len(pcp):]
            starts, lengths = self.catalog.extension_ranges(
                pcp, comp.cols[p][rows], rel)
            starts_all[rows] = starts
            lengths_all[rows] = lengths
        self._expanding(lengths_all.sum())
        comp.cols = {u: np.repeat(c, lengths_all)
                     for u, c in comp.cols.items()}
        comp.cols[v] = ranges_to_ordinals(starts_all, lengths_all)
        comp.cid = np.repeat(comp.cid, lengths_all)

    def _select(self, op_idx, sel: ConstEdge, comp: _Component,
                access: str = "scan"):
        keep = np.zeros(len(comp.cid), dtype=bool)
        for rows, a in _combo_groups(comp.cid, comp.reps,
                                     key=lambda a: a[sel.var][0]):
            side = self._side(a[sel.var][0], comp.cols[sel.var][rows],
                              sel.rel)
            if side is None:
                continue
            qpath, starts, lengths = side
            vi = self._vindex(qpath, access)
            if vi is not None:
                # IndexProbe: sorted matching rows from the index, two
                # searchsorted calls per row group — no column sweep
                keep[rows] = vindex_select_keep(vi, sel.op, sel.value,
                                                starts, lengths)
                continue
            cum = self._cum_mask(op_idx, qpath, sel.op, sel.value)
            keep[rows] = cum[starts + lengths] > cum[starts]
        return keep

    def _join_keep(self, join: EqEdge, comp: _Component,
                   access: str = "scan"):
        """A join whose variables already share a component filters its
        rows: the existential comparison per row, entirely columnar."""
        n = len(comp.cid)
        l1, parts1 = self._operand(comp, join.var1, join.rel1)
        l2, parts2 = self._operand(comp, join.var2, join.rel2)
        op = join.op
        if op in ("=", "!="):
            r1, g1, r2, g2, m = self._codes(parts1, parts2, access)
            k1 = r1 * m + g1
            k2 = r2 * m + g2
            if op == "=":
                keep = np.zeros(n, dtype=bool)
                keep[np.intersect1d(k1, k2) // m] = True
                return keep
            # ∃ a≠b  ⟺  both sides non-empty and the union holds ≥2 values
            distinct = np.bincount(
                np.unique(np.concatenate([k1, k2])) // m, minlength=n)
            return (l1 > 0) & (l2 > 0) & (distinct >= 2)
        lo1 = op in ("<", "<=")
        a1, num1 = self._extrema(parts1, n, lo1)
        a2, num2 = self._extrema(parts2, n, not lo1)
        return _ORDER_CMP[op](a1, a2) & num1 & num2

    # -- merging two components ----------------------------------------------

    def _merge_join(self, join: EqEdge, c1: _Component, c2: _Component,
                    access: str = "scan"):
        """A join across two components: the matching ``(row₁, row₂)``
        pairs, found without the cross product.

        ``=`` is a sort-merge on shared value codes (side 2 sorted by
        code, one ``searchsorted`` range per distinct side-1 (row, code)
        pair); ``!=`` emits every non-empty pair except those whose sides
        hold the same single value (two ranges per side-1 row around that
        value's block); the ordering operators compare per-row min/max
        against a sorted band.  Work is O((n₁+n₂) log + output)."""
        _, parts1 = self._operand(c1, join.var1, join.rel1)
        _, parts2 = self._operand(c2, join.var2, join.rel2)
        op = join.op
        if op in ("=", "!="):
            r1, g1, r2, g2, m = self._codes(parts1, parts2, access)
            # distinct (row, code) pairs, sorted by row: a row holding a
            # value twice must not emit a pair twice
            k1 = np.unique(r1 * m + g1)
            k2 = np.unique(r2 * m + g2)
            r1, g1 = k1 // m, k1 % m
            r2, g2 = k2 // m, k2 % m
            if op == "=":
                order = np.argsort(g2, kind="stable")
                g2s, r2s = g2[order], r2[order]
                lo = np.searchsorted(g2s, g1, side="left")
                cnt = np.searchsorted(g2s, g1, side="right") - lo
                self._expanding(cnt.sum())
                i1 = np.repeat(r1, cnt)
                i2 = r2s[ranges_to_ordinals(lo, cnt)]
                if _multi(r1) and _multi(r2):
                    # several shared values per row on both sides: one
                    # pair per (row₁, row₂), existential semantics
                    key = np.unique(i1 * len(c2.cid) + i2)
                    i1, i2 = key // len(c2.cid), key % len(c2.cid)
                return i1, i2
            # ∃ a≠b  ⟺  both non-empty, unless both hold one same value
            rows1, first1, n1 = np.unique(r1, return_index=True,
                                          return_counts=True)
            rows2, first2, n2 = np.unique(r2, return_index=True,
                                          return_counts=True)
            code1 = np.where(n1 == 1, g1[first1], -2)   # -2: matches none
            code2 = np.where(n2 == 1, g2[first2], -1)   # -1: multi block
            order = np.argsort(code2, kind="stable")
            code2, rows2 = code2[order], rows2[order]
            lo = np.searchsorted(code2, code1, side="left")
            hi = np.searchsorted(code2, code1, side="right")
            starts = np.stack([np.zeros_like(hi), hi], axis=1).reshape(-1)
            lens = np.stack([lo, len(rows2) - hi], axis=1).reshape(-1)
            self._expanding(lens.sum())
            i1 = np.repeat(rows1, lo + len(rows2) - hi)
            return i1, rows2[ranges_to_ordinals(starts, lens)]
        lo1 = op in ("<", "<=")
        a1, num1 = self._extrema(parts1, len(c1.cid), lo1)
        a2, num2 = self._extrema(parts2, len(c2.cid), not lo1)
        rows1, rows2 = np.flatnonzero(num1), np.flatnonzero(num2)
        v1 = a1[rows1]
        order = np.argsort(a2[rows2], kind="stable")
        v2, rows2 = a2[rows2][order], rows2[order]
        if op in ("<", "<="):
            # a1 < a2 (<=): the band of side-2 values above a1
            lo = np.searchsorted(v2, v1, side="right" if op == "<"
                                 else "left")
            cnt = len(v2) - lo
        else:
            # a1 > a2 (>=): the band of side-2 values below a1
            cnt = np.searchsorted(v2, v1, side="left" if op == ">"
                                  else "right")
            lo = np.zeros_like(cnt)
        self._expanding(cnt.sum())
        return np.repeat(rows1, cnt), rows2[ranges_to_ordinals(lo, cnt)]

    def _merge(self, c1: _Component, c2: _Component, i1: np.ndarray,
               i2: np.ndarray, assigns: list[dict]) -> _Component:
        """The component of the row pairs ``(i1, i2)``; its combos are
        the pairs of projected combos, ``id₁ · |combos₂| + id₂``."""
        m2 = len(c2.reps)
        proj = c1.proj * m2 + c2.proj
        cols = {u: c[i1] for u, c in c1.cols.items()}
        cols.update({u: c[i2] for u, c in c2.cols.items()})
        return _Component(
            proj, _representatives(proj, len(c1.reps) * m2, assigns),
            c1.cid[i1] * m2 + c2.cid[i2], cols)

    # -- the one plan execution --------------------------------------------

    def run(self, plan: Plan, gq: QueryGraph, assigns: list[dict]):
        """Execute the plan; returns ``(global combo id, columns)`` per
        surviving row."""
        if not assigns:
            return _EMPTY, {}
        # each root variable's tree (itself + relative descendants) starts
        # one component; project the global combos onto every tree
        root_of: dict[str, str] = {}
        for v in gq.variables:
            parent = gq.tree_edges[v].parent
            root_of[v] = v if parent is None else root_of[parent]
        tree_proj: dict[str, tuple[np.ndarray, int]] = {}
        for r in gq.variables:
            if r != root_of[r]:
                continue
            tvars = [v for v in gq.variables if root_of[v] == r]
            ids: dict[tuple, int] = {}
            proj = np.array([ids.setdefault(tuple(a[v][0] for v in tvars),
                                             len(ids)) for a in assigns],
                            dtype=np.int64)
            tree_proj[r] = (proj, len(ids))

        comp_of: dict[str, _Component] = {}
        for op_idx, op in enumerate(plan.ops):
            self.ctx.checkpoint()   # cancellation point between plan ops
            edge = op.payload
            if op.kind == "instantiate":
                if edge.parent is None:
                    comp = self._root(edge.var, *tree_proj[edge.var],
                                      assigns)
                else:
                    comp = comp_of[edge.parent]
                    self._relative(edge, comp)
                comp_of[edge.var] = comp
            elif op.kind == "select":
                comp = comp_of[edge.var]
                comp.keep(self._select(op_idx, edge, comp, op.access))
            elif comp_of[edge.var1] is comp_of[edge.var2]:
                comp = comp_of[edge.var1]
                comp.keep(self._join_keep(edge, comp, op.access))
            else:
                c1, c2 = comp_of[edge.var1], comp_of[edge.var2]
                i1, i2 = self._merge_join(edge, c1, c2, op.access)
                comp = self._merge(c1, c2, i1, i2, assigns)
                for v in comp.cols:
                    comp_of[v] = comp
            if len(comp.cid) == 0:
                return _EMPTY, {}

        # components no edge connects: the one explicit cartesian product,
        # over the components the plan reports (and explains) as such
        comps = [comp_of[vs[0]] for vs in plan.components]
        assert sorted(sorted(c.cols) for c in comps) == \
            sorted(sorted(vs) for vs in plan.components) and \
            len({id(c) for c in comps}) == len(comps), \
            "reduction components diverge from plan.components"
        comp = comps[0]
        for other in comps[1:]:
            n1, n2 = len(comp.cid), len(other.cid)
            self._expanding(n1 * n2)
            i1 = np.repeat(np.arange(n1, dtype=np.int64), n2)
            i2 = np.tile(np.arange(n2, dtype=np.int64), n1)
            comp = self._merge(comp, other, i1, i2, assigns)
        # every variable is bound now: projected ids are global ids
        glob = np.empty(len(assigns), dtype=np.int64)
        glob[comp.proj] = np.arange(len(assigns), dtype=np.int64)
        return glob[comp.cid], comp.cols


class _ComboReducer(_SideResolver):
    """The pre-batching executor: re-run the plan once per combo.

    Kept as the measured baseline — its full-column prefix sums repeat per
    combo (the pass counters show > 1 sweep per operation), which is the
    regression batching removes; the engine only arms the strict pass
    assertion in batched mode."""

    def __init__(self, vdoc, ctx: EvalContext):
        super().__init__(vdoc, ctx)
        self._masks: dict[tuple, np.ndarray] = {}

    def _mask(self, qpath: tuple, op: str, value: str) -> np.ndarray:
        key = (qpath, op, value)
        m = self._masks.get(key)
        if m is None:
            m = pred_mask(self.cache, qpath, op, value)
            self._masks[key] = m
        return m

    def select_keep(self, op_idx: int, sel: ConstEdge, cpath: tuple,
                    col: np.ndarray,
                    access: str = "scan") -> np.ndarray:
        side = self._side(cpath, col, sel.rel)
        if side is None:
            return np.zeros(len(col), dtype=bool)
        qpath, starts, lengths = side
        vi = self._vindex(qpath, access)
        if vi is not None:
            return vindex_select_keep(vi, sel.op, sel.value, starts,
                                      lengths)
        # one full prefix-sum sweep *per combo* — the cost being benchmarked
        self.ctx.note_pass(self.vdoc, (op_idx, qpath))
        return _existential_keep(self._mask(qpath, sel.op, sel.value),
                                 starts, lengths)

    def join_keep(self, join: EqEdge, n: int, side1, side2,
                  access: str = "scan") -> np.ndarray:
        if side1 is None or side2 is None:
            return np.zeros(n, dtype=bool)
        q1, s1, l1 = side1
        q2, s2, l2 = side2
        cache = self.cache
        op = join.op
        if op in ("=", "!="):
            parts1 = [(np.repeat(np.arange(n, dtype=np.int64), l1), q1,
                       ranges_to_ordinals(s1, l1))]
            parts2 = [(np.repeat(np.arange(n, dtype=np.int64), l2), q2,
                       ranges_to_ordinals(s2, l2))]
            coded = self._index_join_codes(parts1, parts2, access)
            if coded is not None:
                r1, g1, r2, g2, m = coded
                k1 = r1 * m + g1
                k2 = r2 * m + g2
                if op == "=":
                    keep = np.zeros(n, dtype=bool)
                    keep[np.intersect1d(k1, k2) // m] = True
                    return keep
                distinct = np.bincount(
                    np.unique(np.concatenate([k1, k2])) // m, minlength=n)
                return (l1 > 0) & (l2 > 0) & (distinct >= 2)
            c1, c2 = cache.column(q1), cache.column(q2)
            if np.all(l1 == 1) and np.all(l2 == 1):
                # singleton sets on both sides: direct elementwise compare
                return c1[s1] == c2[s2] if op == "=" else c1[s1] != c2[s2]
            o1, o2 = ranges_to_ordinals(s1, l1), ranges_to_ordinals(s2, l2)
            r1 = np.repeat(np.arange(n, dtype=np.int64), l1)
            r2 = np.repeat(np.arange(n, dtype=np.int64), l2)
            v1, v2 = c1[o1], c2[o2]
            uniq, codes = np.unique(np.concatenate([v1, v2]),
                                    return_inverse=True)
            m = max(len(uniq), 1)
            k1 = r1 * m + codes[: len(v1)]
            k2 = r2 * m + codes[len(v1):]
            if op == "=":
                keep = np.zeros(n, dtype=bool)
                keep[np.intersect1d(k1, k2) // m] = True
                return keep
            # ∃ a≠b  ⟺  both sides non-empty and the union holds ≥2 values
            distinct = np.bincount(
                np.unique(np.concatenate([k1, k2])) // m, minlength=n)
            return (l1 > 0) & (l2 > 0) & (distinct >= 2)

        # ordering operators: existential reduces to min/max of the numeric
        # values per row (fmin/fmax skip NaN = non-numeric text)
        f1, f2 = cache.floats(q1), cache.floats(q2)
        o1, o2 = ranges_to_ordinals(s1, l1), ranges_to_ordinals(s2, l2)
        r1 = np.repeat(np.arange(n, dtype=np.int64), l1)
        r2 = np.repeat(np.arange(n, dtype=np.int64), l2)
        v1, v2 = f1[o1], f2[o2]
        num1 = np.bincount(r1[~np.isnan(v1)], minlength=n) > 0
        num2 = np.bincount(r2[~np.isnan(v2)], minlength=n) > 0
        if op in ("<", "<="):
            a1 = np.full(n, np.inf)
            np.fmin.at(a1, r1, v1)       # min over side 1
            a2 = np.full(n, -np.inf)
            np.fmax.at(a2, r2, v2)       # max over side 2
            keep = a1 < a2 if op == "<" else a1 <= a2
        else:
            a1 = np.full(n, -np.inf)
            np.fmax.at(a1, r1, v1)       # max over side 1
            a2 = np.full(n, np.inf)
            np.fmin.at(a2, r2, v2)       # min over side 2
            keep = a1 > a2 if op == ">" else a1 >= a2
        return keep & num1 & num2

    def run_combo(self, plan: Plan, gq: QueryGraph, assign: dict):
        catalog = self.catalog
        cols: dict[str, np.ndarray] = {}
        n = 1
        for op_idx, op in enumerate(plan.ops):
            if n == 0:
                return None
            self.ctx.checkpoint()   # per combo *and* per op: the baseline
            edge = op.payload       # executor's loops nest both ways
            if op.kind == "instantiate":
                cpath, ids = assign[edge.var]
                if edge.parent is None:
                    m = len(ids)
                    cols = {v: np.repeat(c, m) for v, c in cols.items()}
                    cols[edge.var] = np.tile(ids, n)
                    n *= m
                else:
                    pcp = assign[edge.parent][0]
                    starts, lengths = catalog.extension_ranges(
                        pcp, cols[edge.parent], cpath[len(pcp):])
                    cols = {v: np.repeat(c, lengths)
                            for v, c in cols.items()}
                    cols[edge.var] = ranges_to_ordinals(starts, lengths)
                    n = len(cols[edge.var])
            elif op.kind == "select":
                keep = self.select_keep(op_idx, edge, assign[edge.var][0],
                                        cols[edge.var], op.access)
                cols = {v: c[keep] for v, c in cols.items()}
                n = len(cols[edge.var])
            else:
                side1 = self._side(assign[edge.var1][0], cols[edge.var1],
                                   edge.rel1)
                side2 = self._side(assign[edge.var2][0], cols[edge.var2],
                                   edge.rel2)
                keep = self.join_keep(edge, n, side1, side2, op.access)
                cols = {v: c[keep] for v, c in cols.items()}
                n = len(cols[edge.var1])
        if n == 0:
            return None
        return {v: assign[v][0] for v in gq.variables}, cols, n


def _order_table(vdoc, gq: QueryGraph,
                 raw: list[tuple]) -> ReducedTable:
    """Global nested-loop document order across combinations: lexicographic
    by the preorder rank of each variable's binding, outermost variable
    first.  Ranks are unique per node, so the order is total."""
    catalog = vdoc.catalog
    total = sum(n for _, _, n in raw)
    combos: list[ComboRows] = []
    if total:
        keys = [
            np.concatenate([catalog.order_keys(var_paths[v])[cols[v]]
                            for var_paths, cols, _ in raw])
            for v in gq.variables
        ]
        order = np.lexsort(tuple(reversed(keys)))
        inv = np.empty(total, dtype=np.int64)
        inv[order] = np.arange(total, dtype=np.int64)
        off = 0
        for var_paths, cols, n in raw:
            combos.append(ComboRows(var_paths, cols, inv[off:off + n]))
            off += n
    return ReducedTable(list(gq.variables), combos, total)


def reduce_query(vdoc, gq: QueryGraph, plan: Plan,
                 ctx: EvalContext | None = None,
                 batched: bool = True) -> ReducedTable:
    """Reduce ``Gq`` to its binding-tuple table, globally ordered."""
    if ctx is None:
        ctx = EvalContext.for_doc(vdoc, strict_passes=batched)
    assigns = _enumerate_combos(gq, vdoc, ctx, plan)

    if batched:
        cid, cols = _BatchReducer(vdoc, ctx).run(plan, gq, assigns)
        order = np.argsort(cid, kind="stable")
        bounds = np.searchsorted(cid[order],
                                 np.arange(len(assigns) + 1))
        raw = []
        for ci in range(len(assigns)):
            ctx.checkpoint()
            rows = order[bounds[ci]:bounds[ci + 1]]
            if len(rows) == 0:
                continue
            a = assigns[ci]
            raw.append(({v: a[v][0] for v in gq.variables},
                        {v: cols[v][rows] for v in gq.variables},
                        len(rows)))
        return _order_table(vdoc, gq, raw)

    reducer = _ComboReducer(vdoc, ctx)
    raw = []
    for assign in assigns:
        combo = reducer.run_combo(plan, gq, assign)
        if combo is not None:
            raw.append(combo)
    return _order_table(vdoc, gq, raw)
