"""XQ cross-evaluator property tests (satellite): graph reduction over
extended vectors must produce results *byte-identical* (after
serialization) to the naive decompress-and-evaluate reference — over a
fixed corpus and over random documents with generated queries covering
wildcard and descendant bindings, constant selections and two-variable
joins.  Every ``vx`` run also exercises the machine-checked invariants
(no skeleton decompression, each vector scanned at most once), since
``eval_xq`` enforces both."""

import random

import pytest

from repro.core import reconstruct as reconstruct_mod
from repro.core import reduction
from repro.core.context import EvalContext
from repro.core.engine import eval_query, eval_xq
from repro.core.vdoc import VectorizedDocument
from repro.datasets.synth import xmark_like_xml
from repro.errors import DeadlineExceededError
from repro.storage.vdocfile import open_vdoc, save_vdoc

from test_roundtrip_property import random_tree
from test_xpath_cross import DOCS

XQ_QUERIES = [
    # projections and nested constructors
    "for $b in /bib/book return <r>{$b/title}</r>",
    "for $b in //book, $a in $b/author return <r><who>{$a/text()}</who></r>",
    "<out>{ for $t in //title return {$t} }</out>",
    # constant selections (string and numeric, both orientations)
    "for $b in /bib/book where $b/publisher = 'SBP' return <r>{$b/title}</r>",
    "for $x in /r/x where $x/y > '4' return {$x}",
    "for $x in //x where '6' <= $x/y return <n>{$x/y/text()}</n>",
    "for $p in //person where $p/profile/age >= '60' return <r>{$p/name}</r>",
    # wildcard and descendant bindings
    "for $r in /site/regions/*, $i in $r/item where $i/quantity < '3' "
    "return <hit>{$i/name/text()}</hit>",
    "for $x in /r, $y in $x//y return <v>{$y/text()}</v>",
    "for $e in //*, $y in $e/y return <p>{$y}</p>",
    # text- and attribute-bound variables
    "for $t in //interest/text() where $t = 'databases' return <x>{$t}</x>",
    "for $i in //item, $a in $i/@id return <id>{$a}</id>",
    # two-variable joins (equality, inequality, ordering)
    "for $c in //closed_auction, $p in /site/people/person "
    "where $c/buyer = $p/@id return <pair>{$c/price}{$p/name}</pair>",
    "for $i in /site/regions/africa/item, $j in /site/regions/asia/item "
    "where $i/location != $j/location return <d>{$i/name/text()}</d>",
    "for $i in //item, $c in //closed_auction "
    "where $i/quantity < $c/price return <q>{$i/@id}</q>",
    # let aliases and multiple comparisons
    "for $p in //person let $pr := $p/profile "
    "where $pr/age < '25' and $pr/interest = 'databases' "
    "return <y>{$p/@id}{$pr/interest}</y>",
    # whole-subtree and attribute splices, multiple template items
    "for $b in /bib/book where $b/author = 'B' return {$b}",
    "for $p in //person where $p/profile/education = 'Graduate School' "
    "return <r>{$p/@id}</r><sep/>",
]


def _assert_same(vdoc, query):
    vx = eval_xq(vdoc, query, mode="vx")
    naive = eval_xq(vdoc, query, mode="naive")
    assert vx.to_xml() == naive.to_xml(), query
    return vx


@pytest.mark.parametrize("query", XQ_QUERIES)
@pytest.mark.parametrize("doc", sorted(DOCS))
def test_xq_cross_corpus(doc, query):
    _assert_same(VectorizedDocument.from_xml(DOCS[doc]), query)


def _random_query(rng: random.Random) -> str:
    """A random XQ query over the label/text alphabet of ``random_tree``.

    Besides one variable and a parent/child pair, it draws an
    *independent* second root (``$y in <absolute>``) and three-variable
    chains, so joins between separately instantiated variables (all six
    operators, multi-valued operands, ``//``/``*`` multi-combo roots) and
    disconnected products are covered."""
    absolutes = ["//a", "//b", "//item", "//*", "/a/b", "/a//c", "//data"]
    # narrower roots for the second/third variable keep the naive
    # nested loop small
    narrow = ["//a", "//b", "//item", "/a/b", "/a//c", "//data", "//c"]
    rels = ["/b", "//c", "/*", "/@id", "/b/text()", "//item", "/data/b"]
    crels = ["", "/b", "/c", "/@k", "/@id", "/b/c"]
    # operands that usually hold text, so linking joins find matches
    jrels = ["", "", "/@id", "/@k", "/@lang", "/b", "/a"]
    consts = ["x", "42", "hello world", "-3.5"]
    ops = ["=", "!=", "<", "<=", ">", ">="]

    shape = rng.choice(["single", "child", "child", "independent",
                        "chain"])
    variables = ["x"]
    parts = [f"$x in {rng.choice(absolutes)}"]
    if shape == "child":
        variables.append("y")
        parts.append(f"$y in $x{rng.choice(rels)}")
    elif shape in ("independent", "chain"):
        variables.append("y")
        parts.append(f"$y in {rng.choice(narrow)}")
    if shape == "chain":
        variables.append("z")
        base = rng.choice(["x", "y", None])
        parts.append(f"$z in ${base}{rng.choice(rels)}" if base
                     else f"$z in {rng.choice(narrow)}")
    wheres = []
    if shape in ("independent", "chain"):
        # link consecutive variables most of the time; an unlinked pair
        # stays disconnected and takes the explicit product
        for v, w in zip(variables, variables[1:]):
            if rng.random() < 0.75:
                wheres.append(f"${v}{rng.choice(jrels)} {rng.choice(ops)} "
                              f"${w}{rng.choice(jrels)}")
    for _ in range(rng.randrange(0, 3)):
        v = rng.choice(variables)
        if len(variables) > 1 and rng.random() < 0.4:
            w = rng.choice(variables)
            wheres.append(f"${v}{rng.choice(crels)} {rng.choice(ops)} "
                          f"${w}{rng.choice(crels)}")
        else:
            wheres.append(f"${v}{rng.choice(crels)} {rng.choice(ops)} "
                          f"'{rng.choice(consts)}'")
    splices = "".join(f"{{${rng.choice(variables)}{rng.choice(crels)}}}"
                      for _ in range(rng.randrange(1, 3)))
    q = "for " + ", ".join(parts)
    if wheres:
        q += " where " + " and ".join(wheres)
    return q + f" return <row>{splices}</row>"


@pytest.mark.parametrize("seed", range(25))
def test_xq_cross_random_docs(seed):
    rng = random.Random(seed + 900)
    vdoc = VectorizedDocument.from_tree(random_tree(rng))
    saw_join = False
    for _ in range(8):
        query = _random_query(rng)
        saw_join = saw_join or ("$x" in query.split("where")[-1]
                                and "$y" in query.split("where")[-1]
                                and "where" in query)
        _assert_same(vdoc, query)
    # fixed two-variable join on every random doc, so each seed exercises
    # a join even if the generator rolled none
    _assert_same(vdoc, "for $u in //*, $v in //* where $u/@id = $v/@k "
                       "return <j>{$u/@id}</j>")


def test_xq_result_shares_store_and_compresses_stepwise():
    vdoc = VectorizedDocument.from_xml(xmark_like_xml(60, seed=5))
    before = len(vdoc.store)
    res = eval_xq(vdoc, "for $p in /site/people/person "
                        "return <r><tag/>{$p/profile/education}</r>")
    out = res.vdoc
    # the result document shares the input's node store (subtree splices
    # are id reuse, not copies) ...
    assert out.store is vdoc.store
    assert res.n_tuples == 60
    # ... and hash-consing during construction collapses the 60 structurally
    # similar rows to a handful of fresh skeleton nodes
    fresh = len(vdoc.store) - before
    assert fresh < 12, fresh
    stats = out.stats()
    assert stats["document_nodes"] >= 60
    assert stats["skeleton_nodes"] < 20


def test_xq_vx_forbids_decompression_and_counts_scans():
    vdoc = VectorizedDocument.from_xml(xmark_like_xml(25, seed=2))
    base = reconstruct_mod.DECOMPRESSION_COUNT
    ctx = EvalContext.for_doc(vdoc)
    res = eval_xq(vdoc, "for $c in //closed_auction, $p in //person "
                        "where $c/buyer = $p/@id and $p/profile/age > '30' "
                        "return <r>{$p/name}{$c/price}</r>", ctx=ctx)
    # reduction + construction decompress nothing ...
    assert reconstruct_mod.DECOMPRESSION_COUNT == base
    # ... and no input vector was scanned more than once for the whole query
    counts = ctx.scan_counts(vdoc)
    assert all(c <= 1 for c in counts.values())
    assert any(c == 1 for c in counts.values())
    # serializing the *result* decompresses only the result document
    res.to_xml()
    assert reconstruct_mod.DECOMPRESSION_COUNT == base + 1


def test_xq_empty_result_is_bare_root():
    vdoc = VectorizedDocument.from_xml(DOCS["fig1"])
    res = eval_xq(vdoc, "<none>{ for $b in //book "
                        "where $b/title = 'no such' return {$b} }</none>")
    assert res.n_tuples == 0
    assert res.to_xml() == "<none/>"
    assert res.to_xml() == eval_xq(
        vdoc, "<none>{ for $b in //book where $b/title = 'no such' "
              "return {$b} }</none>", mode="naive").to_xml()


def _join_doc(rng: random.Random) -> str:
    """A random document over ``random_tree``'s labels whose elements
    mostly carry text (and ``@id``/``@k``/``@lang``) drawn from a small, half
    numeric vocabulary — dense enough that random joins between
    independently bound variables find matches for every operator, with
    several values per operand."""
    vocab = ["x", "42", "7", "-3.5", "7.0", "hello world", "", "1e1"]
    labels = ["a", "b", "c", "data", "item"]

    def elem(label: str, depth: int) -> str:
        attrs = "".join(f' {a}="{rng.choice(vocab)}"'
                        for a in ("id", "k", "lang") if rng.random() < 0.5)
        kids = []
        width = rng.randrange(6, 12) if depth == 0 else \
            rng.randrange(0, 5 - depth) if depth < 3 else 0
        for _ in range(width):
            if rng.random() < 0.3:
                kids.append(rng.choice(vocab))
            else:
                kids.append(elem(rng.choice(labels), depth + 1))
        if rng.random() < 0.6:
            kids.append(rng.choice(vocab))
        return f"<{label}{attrs}>{''.join(kids)}</{label}>"

    return elem("a", 0)


def _configs(vdoc, tmp_path, tag):
    """Every executor configuration of one document, as ``(name, run)``:
    memory and disk, value indexes on and off, codecs on and off."""
    mem = VectorizedDocument.from_xml(vdoc.to_xml())
    mem.build_indexes()
    path = str(tmp_path / f"{tag}.vdoc")
    save_vdoc(vdoc, path, page_size=512, index_paths="all")
    disk = open_vdoc(path, pool_pages=16)

    def on_disk(**kw):
        def run(q):
            disk.drop_caches()
            return eval_xq(disk, q, **kw).to_xml()
        return run

    return disk, [
        ("memory/scan", lambda q: eval_xq(vdoc, q).to_xml()),
        ("memory/index", lambda q: eval_xq(mem, q).to_xml()),
        ("disk/index/codecs", on_disk()),
        ("disk/index/no-codecs", on_disk(use_codecs=False)),
        ("disk/scan/codecs", on_disk(use_indexes=False)),
        ("disk/scan/no-codecs", on_disk(use_indexes=False,
                                        use_codecs=False)),
    ]


@pytest.mark.parametrize("seed", range(20))
def test_xq_cross_component_joins_all_configs(seed, tmp_path):
    """Random independent-root and chain queries, byte for byte against
    the naive oracle and the per-combo executor, in every configuration.
    Pin accounting must come back to zero on disk."""
    rng = random.Random(seed + 4200)
    vdoc = VectorizedDocument.from_xml(_join_doc(rng))
    disk, configs = _configs(vdoc, tmp_path, f"d{seed}")
    with disk:
        for _ in range(6):
            query = _random_query(rng)
            expected = eval_xq(vdoc, query, mode="naive").to_xml()
            assert eval_xq(vdoc, query, batched=False).to_xml() == \
                expected, query
            for name, run in configs:
                assert run(query) == expected, (name, query)
            assert disk.pool.pinned_total() == 0


def _multi_valued_doc(rng: random.Random) -> str:
    """Records ``p`` (values under ``v``) and ``q`` (values under ``w``),
    each holding zero to three values from a tiny, partly numeric
    vocabulary: joins between them see empty, single- and multi-valued
    operands, often sharing several values per row pair."""
    vocab = ["1", "2", "3", "x", "2.0"]

    def rec(tag: str, kid: str, i: int) -> str:
        vals = "".join(f"<{kid}>{rng.choice(vocab)}</{kid}>"
                       for _ in range(rng.randrange(0, 4)))
        return f'<{tag} n="{i}">{vals}</{tag}>'

    ps = "".join(rec("p", "v", i) for i in range(rng.randrange(3, 9)))
    qs = "".join(rec("q", "w", i) for i in range(rng.randrange(3, 9)))
    return f"<r>{ps}{qs}</r>"


@pytest.mark.parametrize("seed", range(8))
def test_cross_component_joins_multi_valued_operands(seed):
    """Every operator across two components whose operands hold several
    values per row: each qualifying row pair appears exactly once (the
    existential semantics), also over ``*`` bindings with several
    combos per side, with and without value indexes."""
    rng = random.Random(seed + 77)
    xml = _multi_valued_doc(rng)
    vdoc = VectorizedDocument.from_xml(xml)
    indexed = VectorizedDocument.from_xml(xml)
    indexed.build_indexes()
    for op in ("=", "!=", "<", "<=", ">", ">="):
        for bind in ("$p in /r/p, $q in /r/q", "$p in /r/*, $q in /r/*"):
            query = (f"for {bind} where $p/v {op} $q/w "
                     "return <m>{$p/@n}{$q/@n}</m>")
            expected = eval_xq(vdoc, query, mode="naive").to_xml()
            assert eval_xq(vdoc, query).to_xml() == expected, query
            assert eval_xq(indexed, query).to_xml() == expected, query
            assert eval_xq(vdoc, query, batched=False).to_xml() == \
                expected, query


XQ3 = ("for $c in /site/closed_auctions/closed_auction, "
       "$p in /site/people/person where $c/buyer = $p/@id "
       "return <pair>{$p/name}{$c/price}</pair>")


def test_xq3_intermediates_are_output_sensitive(monkeypatch):
    """No wall clock: count the rows the reducer materializes.  The value
    join merges two separately instantiated variables, so its largest
    intermediate table is bounded by input plus output rows — never the
    |$c|·|$p| cross product."""
    vdoc = VectorizedDocument.from_xml(xmark_like_xml(2000, seed=42))
    peaks = []
    run = reduction._BatchReducer.run

    def spy(self, *args):
        out = run(self, *args)
        peaks.append(self.peak_rows)
        return out

    monkeypatch.setattr(reduction._BatchReducer, "run", spy)
    res = eval_xq(vdoc, XQ3)
    n_c = eval_query(vdoc, "/site/closed_auctions/closed_auction").count()
    n_p = eval_query(vdoc, "/site/people/person").count()
    assert len(peaks) == 1 and res.n_tuples > 0
    assert peaks[0] <= n_c + n_p + res.n_tuples < n_c * n_p


def test_deadline_fires_inside_cross_component_join(tmp_path, monkeypatch):
    """The merge join checkpoints after the pair count is known and before
    the pairs are materialized: expiring exactly there unwinds from inside
    the join with zero leaked pins, and the document stays usable."""
    path = str(tmp_path / "j.vdoc")
    save_vdoc(VectorizedDocument.from_xml(xmark_like_xml(60, seed=3)),
              path, page_size=512)
    entered, windows = [], []
    merge_join = reduction._BatchReducer._merge_join

    def spy(self, *args):
        start = self.ctx.checkpoints
        entered.append(start)
        out = merge_join(self, *args)
        windows.append((start, self.ctx.checkpoints))
        return out

    monkeypatch.setattr(reduction._BatchReducer, "_merge_join", spy)
    with open_vdoc(path, pool_pages=8) as doc:
        expected = eval_xq(doc, XQ3).to_xml()
    [(start, end)] = windows
    assert end > start
    with open_vdoc(path, pool_pages=8) as doc:   # same cold state
        ctx = EvalContext()
        ctx.expire_at_checkpoint = end - 1
        with pytest.raises(DeadlineExceededError):
            eval_xq(doc, XQ3, ctx=ctx)
        assert len(entered) == 2 and len(windows) == 1  # died inside
        assert doc.pool.pinned_total() == 0
        assert eval_xq(doc, XQ3).to_xml() == expected
