"""Tests for N2/N3 (mention detection, LinkScorer tasks), N4 (distributed
union-find), N5 (dedup + salted partitioned write), N6/N7 (manifest,
resume)."""

import os

import pyarrow as pa
import pytest

from kgruntime.stages import canon
from kgruntime.stages.canon import canonicalize_triples, union_find
from kgruntime.stages.extract import triples_dataset
from kgruntime.stages.linking import (
    LinkScorer, build_alias_table, detect_mentions, link_edges_dataset,
    mentions_dataset, normalize_name,
)
from kgruntime.stages.materialize import (
    commit_fragment, committed_fragments, dedup_triples, pending_fragments,
)
from kgruntime.synth import DOCUMENTS_SCHEMA

import kg_corpus

FOAF_NAME = "http://xmlns.com/foaf/0.1/name"


def test_normalize_name():
    assert normalize_name("  Green   Goblin! ") == "green goblin"
    assert normalize_name("Человек-паук") == ""  # non-latin strips (heuristic)
    assert normalize_name("Dave Beckett") == "dave beckett"


def test_link_scorer_unit():
    aliases = build_alias_table(["Green Goblin", "Dave Beckett", "Bob"])
    s = LinkScorer(alias_table=aliases, threshold=0.5)
    assert s.score("green goblin") == ("http://kb.example/entity/green-goblin", 1.0)
    ent, sim = s.score("green goblin jr")
    assert ent == "http://kb.example/entity/green-goblin" and 0.5 <= sim < 1.0
    assert s.score("zzz unknown") is None


def test_mention_detection_vectorized(ray_session):
    tri = triples_dataset(kg_corpus.documents(5))  # one of each payload
    m = mentions_dataset(tri).take_all()
    texts = {r["mention_text"] for r in m}
    assert "Green Goblin" in texts and "Spiderman" in texts
    # lang-tagged literal is a mention too
    assert "Человек-паук" in texts
    # typed non-string literals are not mentions
    assert all(r["mention_text"] not in ("1", "2", "42") for r in m)


def test_union_find_merges_star(ray_session):
    import ray.data as rd

    edges = rd.from_items([
        {"src": "_:d1/0", "dst": "http://kb.example/entity/bob", "score": 1.0,
         "doc_id": "d1", "mention_text": "Bob"},
        {"src": "_:d2/0", "dst": "http://kb.example/entity/bob", "score": 1.0,
         "doc_id": "d2", "mention_text": "Bob"},
        # a chain: c1 - c2 - c3 (tests multi-round propagation)
        {"src": "http://x/c1", "dst": "http://x/c2", "score": 1.0,
         "doc_id": "d3", "mention_text": "c"},
        {"src": "http://x/c2", "dst": "http://x/c3", "score": 1.0,
         "doc_id": "d3", "mention_text": "c"},
    ])
    mapping = {r["node"]: r["label"] for r in union_find(edges)[0].take_all()}
    # IRI-ranked canonical: blanks map to the KB IRI, not vice versa
    assert mapping["_:d1/0"] == "http://kb.example/entity/bob"
    assert mapping["_:d2/0"] == "http://kb.example/entity/bob"
    assert mapping["http://kb.example/entity/bob"] == "http://kb.example/entity/bob"
    assert mapping["http://x/c1"] == "http://x/c1"
    assert mapping["http://x/c2"] == "http://x/c1"
    assert mapping["http://x/c3"] == "http://x/c1"


def test_union_find_driver_vs_distributed(ray_session, monkeypatch):
    """The driver union-find and the distributed rounds must compute the
    identical assignment, including on a long chain that needs one round
    per hop (the rounds run to their fixpoint, not to a round cap)."""
    import random

    import ray.data as rd

    rng = random.Random(5)
    rows = []
    # small graph: the distributed path pays O(diameter) shuffle rounds,
    # which is the >20M-edge regime's tool — keep the parity check tiny
    for c in range(6):
        nodes = [f"http://x/{c}/{i}" for i in range(rng.randint(2, 3))]
        nodes += [f"_:d{c}/{i}" for i in range(rng.randint(0, 2))]
        rng.shuffle(nodes)
        for a, b in zip(nodes, nodes[1:]):
            rows.append({"src": a, "dst": b})
    chain = [f"http://x/c{i:02d}" for i in range(15)]
    rows += [{"src": a, "dst": b} for a, b in zip(chain, chain[1:])]
    edges = rd.from_items(rows)
    asn, mapping = union_find(edges)
    drv = {r["node"]: r["label"] for r in asn.take_all()}
    assert drv["http://x/c14"] == "http://x/c00"
    # the driver's mapping is the non-identity part of its assignment
    assert dict(zip(*(a.to_pylist() for a in mapping))) == {
        n: l for n, l in drv.items() if n != l}

    monkeypatch.setattr(canon, "DRIVER_CC_MAX_EDGES", 0)
    strategy = edges.context.shuffle_strategy
    asn, mapping = union_find(edges)
    assert mapping is None
    dist = {r["node"]: r["label"] for r in asn.take_all()}
    assert drv == dist
    # the rounds switch the shuffle strategy only for their own duration
    assert edges.context.shuffle_strategy == strategy


def test_canonicalize_broadcast_and_join(ray_session):
    import ray.data as rd

    tri = rd.from_items([
        {"doc_id": "d1", "subj": "_:d1/0", "subj_kind": 1,
         "pred": "http://p/", "obj": "_:d2/0", "obj_kind": 1,
         "obj_datatype": "", "obj_lang": "",
         "span_start": 0, "span_end": 1, "stmt_index": 0},
        {"doc_id": "d1", "subj": "http://s/", "subj_kind": 0,
         "pred": "http://p/", "obj": "x", "obj_kind": 2,
         "obj_datatype": "http://www.w3.org/2001/XMLSchema#string",
         "obj_lang": "", "span_start": 0, "span_end": 1, "stmt_index": 1},
    ])
    mapping = (pa.array(["_:d1/0", "_:d2/0"]),
               pa.array(["http://kb/a", "http://kb/b"]))
    out = canonicalize_triples(tri, mapping=mapping).take_all()
    remapped = {(r["subj"], r["subj_kind"], r["obj"], r["obj_kind"])
                for r in out}
    assert remapped == {("http://kb/a", 0, "http://kb/b", 0),
                        ("http://s/", 0, "x", 2)}

    labels = rd.from_items([
        {"node": "_:d1/0", "label": "http://kb/a"},
        {"node": "_:d2/0", "label": "http://kb/b"},
    ])
    out2 = canonicalize_triples(tri, labels_ds=labels).take_all()
    assert {(r["subj"], r["subj_kind"], r["obj"], r["obj_kind"])
            for r in out2} == remapped


def test_global_dedup(ray_session):
    # "\n" short-string escape ≡ real newline in long string → 1 triple
    import ray.data as rd

    text = ('<http://example.org/s> <http://example.org/p> '
            '"The first line\\nThe second line\\n  more" .\n'
            '<http://example.org/s> <http://example.org/p> """The first line\n'
            'The second line\n  more""" .\n')
    tri = triples_dataset(rd.from_arrow(pa.Table.from_pylist(
        [{"doc_id": "doc-esc", "spans": [{"kind": "text", "text": text,
                                          "media_ref": "", "offset": 0}]}],
        schema=DOCUMENTS_SCHEMA)))
    assert tri.count() == 2
    rows = dedup_triples(tri).take_all()
    assert len(rows) == 1
    assert rows[0]["obj"] == "The first line\nThe second line\n  more"


def test_end_to_end_pipeline_and_checkpoint(ray_session, tmp_path):
    from kgruntime.pipelines.kg import run_checkpointed

    corpus = str(tmp_path / "corpus")
    kg_corpus.write_corpus(corpus, 40, seed=11, rows_per_file=10)  # 4 frags
    out_dir = str(tmp_path / "store")

    res = run_checkpointed(corpus, out_dir, epoch=0, fragments_per_round=2)
    assert len(res["processed"]) == 4 and not res["skipped"]
    assert committed_fragments(out_dir) == {f"part-{i:05d}" for i in range(4)}

    # resume: nothing left to do
    res2 = run_checkpointed(corpus, out_dir, epoch=0, fragments_per_round=2)
    assert res2["processed"] == [] and len(res2["skipped"]) == 4

    # partial-commit resume: drop one manifest → the WHOLE round (its
    # commit unit) reruns, so no fragment's triples can end up in two
    # round directories (exactly-once store)
    os.remove(os.path.join(out_dir, "_manifest", "fragment-part-00002.json"))
    res3 = run_checkpointed(corpus, out_dir, epoch=0, fragments_per_round=2)
    assert res3["processed"] == ["part-00002", "part-00003"]
    assert sorted(res3["skipped"]) == ["part-00000", "part-00001"]

    # exactly-once: the resumed store is identical to a fresh one-shot run
    # (zero duplicate and zero missing rows from the partial rerun)
    import ray.data as rd
    fresh_dir = str(tmp_path / "store_fresh")
    run_checkpointed(corpus, fresh_dir, epoch=0, fragments_per_round=2)
    key_cols = ["subj", "pred", "obj", "obj_datatype", "obj_lang"]

    def rows(d):
        df = rd.read_parquet(os.path.join(d, "data")).to_pandas()
        return sorted(map(tuple, df[key_cols].itertuples(index=False)))

    assert rows(out_dir) == rows(fresh_dir)

    # manifests carry lineage + counters
    from kgruntime.stages.materialize import read_manifests
    m = read_manifests(out_dir)
    assert all(x["parser_version"] for x in m)
    assert all("docs" in x["counters"] and "round_triples" in x["counters"]
               and "malformed_span_rejects" in x["counters"] for x in m)


def test_linking_to_canonical_flow(ray_session):
    """Same name in several docs → blanks canonicalize to one KB entity."""
    from kgruntime.pipelines.kg import build_kg

    res = build_kg(kg_corpus.documents(24))  # four clones of every payload
    assert "edges" in res
    canon = res["canonical"].take_all()
    names = {}
    for r in canon:
        if r["pred"] == FOAF_NAME:
            names.setdefault(r["obj"], set()).add(r["subj"])
    # every clone's [ foaf:name "Bob" ] blank collapses onto one KB IRI,
    # and the clones' identical rows dedup to one
    bob = "http://kb.example/entity/bob"
    assert names["Bob"] == {bob}
    bob_rows = [r for r in canon if r["pred"] == FOAF_NAME
                and r["obj"] == "Bob"]
    assert len(bob_rows) == 1 and bob_rows[0]["subj"] == bob
    # a named IRI keeps its own id: it ranks before its KB entity
    assert names["Alice"] == {"http://example.org/people/alice"}
    # the two-name blank bridges both KB entities into the IRI's
    # component, so its second name lands on the IRI
    goblin = "http://example.org/#green-goblin"
    assert names["Green Goblin"] == {goblin}
    assert names["Norman Osborn"] == {goblin}
    # the malformed payload is quarantined whole
    assert "Carol" not in names
    assert res["errors"].count() == 4


def test_build_kg_fused_matches_build_kg(ray_session, tmp_path):
    """The fused parse+link shape must produce the identical canonical
    store and quarantine as build_kg (given the same alias table).  The
    second table runs after the first in the same Ray session, so a task
    worker that served the previous job's cached scorer would show."""
    from kgruntime.pipelines.kg import build_kg, build_kg_fused

    full = kg_corpus.kb_alias_table()
    fewer = {k: v for k, v in full.items() if k != "bob"}
    key = ["subj", "subj_kind", "pred", "obj", "obj_kind",
           "obj_datatype", "obj_lang"]
    stores = []
    for i, aliases in enumerate((full, fewer)):
        ref = build_kg(kg_corpus.documents(36, seed=7, malformed_every=5),
                       alias_table=aliases, materialize_intermediate=True)
        fused = build_kg_fused(kg_corpus.documents(36, seed=7,
                                                   malformed_every=5),
                               alias_table=aliases,
                               staging_dir=str(tmp_path / f"staging{i}"),
                               keep_buckets=False)
        rows = [sorted(tuple(r[k] for k in key)
                       for r in res["canonical"].take_all())
                for res in (ref, fused)]
        assert rows[0] and rows[0] == rows[1]
        assert fused["errors"].count() == ref["errors"].count() > 0
        stores.append(rows[0])
    # dropping "bob" leaves its blank nodes unlinked: the stores differ
    assert stores[0] != stores[1]


def test_cached_get_keeps_one_entry_per_tag(ray_session):
    """A new ref under a tag replaces the entry (a worker that outlives
    jobs does not keep every old job's state) and its value is served;
    a repeated ref is served without rebuilding."""
    from kgruntime.stages import broadcast

    tag = "test-one-entry"
    builds = []

    def build(d):
        builds.append(d["v"])
        return d["v"]

    first = ray_session.put({"v": 1})
    second = ray_session.put({"v": 2})
    before = len(broadcast._CACHE)
    try:
        assert broadcast.cached_get(first, build=build, tag=tag) == 1
        assert broadcast.cached_get(first, build=build, tag=tag) == 1
        assert broadcast.cached_get(second, build=build, tag=tag) == 2
        assert len(broadcast._CACHE) == before + 1
        assert broadcast.cached_get(second, build=build, tag=tag) == 2
        assert builds == [1, 2]
    finally:
        broadcast._CACHE.pop(tag, None)


@pytest.mark.parametrize("kb", ["corpus", "given"])
def test_build_kg_join_regime_matches_broadcast(ray_session, monkeypatch,
                                                kb):
    """build_kg's canonical store is the same whether the union-find
    runs on the driver (broadcast remap) or as distributed rounds (no
    mapping: the exploded join remap against the assignment)."""
    from kgruntime.pipelines.kg import build_kg

    aliases = kg_corpus.kb_alias_table() if kb == "given" else None
    key = ["subj", "subj_kind", "pred", "obj", "obj_kind",
           "obj_datatype", "obj_lang"]

    def rows():
        res = build_kg(kg_corpus.documents(36, seed=7, malformed_every=5),
                       alias_table=aliases)
        return sorted(tuple(r[k] for k in key)
                      for r in res["canonical"].take_all())

    broadcast = rows()
    monkeypatch.setattr(canon, "DRIVER_CC_MAX_EDGES", 0)
    joined = rows()
    assert len(broadcast) == 68 and joined == broadcast


def test_corpus_alias_table_drops_rare_and_empty_names(ray_session):
    """Only names seen at least min_count times become KB entities;
    names that normalize to "" never do."""
    import ray.data as rd

    from kgruntime.pipelines.kg import corpus_alias_table

    texts = ["Bob", "bob!", "Alice", "Человек-паук", "Человек-паук",
             "Carol", "Carol", "Carol"]
    mentions = rd.from_items([{"mention_text": t} for t in texts])
    assert corpus_alias_table(mentions) == {
        "bob": "http://kb.example/entity/bob",
        "carol": "http://kb.example/entity/carol"}
    assert corpus_alias_table(mentions, min_count=3) == {
        "carol": "http://kb.example/entity/carol"}


def test_remap_never_rewrites_literals(ray_session):
    """A literal whose lexical value equals a mapped node id must keep
    its original value (kind 2 masks the remap on both paths)."""
    import ray.data as rd

    tri = rd.from_items([
        {"doc_id": "d1", "subj": "http://s/", "subj_kind": 0,
         "pred": "http://p/",
         "obj": "_:d1/0", "obj_kind": 2,   # literal that LOOKS like a node
         "obj_datatype": "http://www.w3.org/2001/XMLSchema#string",
         "obj_lang": "", "span_start": 0, "span_end": 1, "stmt_index": 0},
        {"doc_id": "d1", "subj": "_:d1/0", "subj_kind": 1,
         "pred": "http://p/", "obj": "_:d1/0", "obj_kind": 1,
         "obj_datatype": "", "obj_lang": "",
         "span_start": 0, "span_end": 1, "stmt_index": 1},
    ])
    mapping = (pa.array(["_:d1/0"]), pa.array(["http://kb/a"]))
    out = canonicalize_triples(tri, mapping=mapping).take_all()
    by_stmt = {r["stmt_index"]: r for r in out}
    assert by_stmt[0]["obj"] == "_:d1/0"          # literal untouched
    assert by_stmt[0]["obj_kind"] == 2
    assert by_stmt[1]["obj"] == "http://kb/a"     # node remapped

    labels = rd.from_items([{"node": "_:d1/0", "label": "http://kb/a"}])
    out2 = canonicalize_triples(tri, labels_ds=labels).take_all()
    by_stmt2 = {r["stmt_index"]: r for r in out2}
    assert by_stmt2[0]["obj"] == "_:d1/0"
    assert by_stmt2[0]["obj_kind"] == 2
    assert by_stmt2[1]["obj"] == "http://kb/a"


def test_link_scorer_tfidf_properties():
    """Char-trigram TF-IDF scorer: exact hit = 1.0, typo'd variants score
    high, unrelated text scores None/low, and scoring is deterministic
    across separately-built instances (retry safety)."""
    aliases = build_alias_table(
        ["Green Goblin", "Green Lantern", "Dave Beckett", "Bob"])
    a = LinkScorer(alias_table=aliases, threshold=0.5)
    b = LinkScorer(alias_table=aliases, threshold=0.5)

    assert a.score("dave beckett") == ("http://kb.example/entity/dave-beckett", 1.0)
    ent, sim = a.score("dave becket")          # single-char typo
    assert ent == "http://kb.example/entity/dave-beckett" and sim > 0.7
    # shared-prefix confusables rank correctly
    ent_g, sim_g = a.score("green goblin sr")
    assert ent_g == "http://kb.example/entity/green-goblin"
    assert a.score("xyzzy") is None
    # determinism across instances
    for q in ["dave becket", "green goblin sr", "green lan", "bob"]:
        assert a.score(q) == b.score(q)


def test_exploded_join_remap_matches_legacy(ray_session, monkeypatch):
    """The single-shuffle exploded join remap (hits-broadcast AND
    co-shuffle variants) must agree with the broadcast remap of the
    same assignment on a collection-shaped table where many triples
    share (doc_id, stmt_index) and the same blank node recurs as subj
    and obj — the shape that would multiply rows under a (doc,
    stmt)-only join key."""
    import pyarrow.compute as pc
    import ray.data as rd

    tri = pa.table({
        "doc_id": ["d1"] * 5 + ["d2"] * 2,
        "stmt_index": pa.array([0, 0, 0, 0, 1, 0, 0], pa.int32()),
        "subj": ["_:c0", "_:c0", "_:c1", "_:c1", "http://x/s",
                 "_:c0", "_:z"],
        "subj_kind": pa.array([1, 1, 1, 1, 0, 1, 1], pa.uint8()),
        "pred": ["first", "rest", "first", "rest", "p", "first", "p"],
        "obj": ["A", "_:c1", "B", "nil", "_:c0", "_:q", "_:c0"],
        # obj "A"/"B" are literals; "_:c0" also appears as a LITERAL
        # lexical value nowhere here (covered by
        # test_remap_never_rewrites_literals)
        "obj_kind": pa.array([2, 1, 2, 0, 1, 1, 1], pa.uint8()),
    })
    labels = pa.table({
        "node": ["_:c0", "_:c1", "_:q", "_:z"],
        "label": ["http://kb/L", "_:c1", "http://kb/Q", "_:z"],
    })
    tds, lds = rd.from_arrow(tri), rd.from_arrow(labels)
    changed = pc.not_equal(labels["node"], labels["label"])
    mapping = (labels["node"].filter(changed).combine_chunks(),
               labels["label"].filter(changed).combine_chunks())

    def run(**kw):
        rows = canonicalize_triples(tds, **kw).take_all()
        assert len(rows) == tri.num_rows          # no multiplication
        rows.sort(key=lambda r: (r["doc_id"], r["stmt_index"],
                                 r["pred"], r["subj"], r["obj"]))
        return [(r["doc_id"], r["stmt_index"], r["subj"], r["subj_kind"],
                 r["obj"], r["obj_kind"]) for r in rows]

    expected = run(mapping=mapping)
    assert ("d1", 0, "http://kb/L", 0, "A", 2) in expected
    assert run(labels_ds=lds) == expected                   # hits bcast
    monkeypatch.setattr(canon, "HITS_BROADCAST_MAX", 0)     # co-shuffle
    assert run(labels_ds=lds) == expected


def _write_staging(path, parts_per_kind: int, kinds=(0, 1, 2)) -> str:
    """The fused build's staged parse table, written by hand with
    ``parts_per_kind`` parquet files in each record_kind partition."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from kgruntime.stages.fused_link import FusedParseLink

    staged = FusedParseLink(alias_table=kg_corpus.kb_alias_table())(
        kg_corpus.documents_table(36, seed=7, malformed_every=5))
    for kind in kinds:
        t = staged.filter(pc.equal(staged["record_kind"], kind)) \
            .drop_columns(["record_kind"])
        d = os.path.join(path, f"record_kind={kind}")
        os.makedirs(d)
        cut = [i * t.num_rows // parts_per_kind
               for i in range(parts_per_kind + 1)]
        for i in range(parts_per_kind):
            pq.write_table(t.slice(cut[i], cut[i + 1] - cut[i]),
                           os.path.join(d, f"part-{i}.parquet"))
    return str(path)


def test_staged_read_makes_one_block_per_file(ray_session, tmp_path):
    """The staged read never splits a file and never merges files, also
    past the session's CPUs; a missing partition is a zero-row Dataset
    with the schema pinned."""
    import ray

    from kgruntime.pipelines.kg import _ERROR_COLS, _TRIPLE_COLS, _read_kind

    assert int(ray.cluster_resources()["CPU"]) < 6
    for n in (1, 3, 6):
        staging = _write_staging(tmp_path / f"n{n}", n)
        for kind, cols in ((0, _TRIPLE_COLS), (1, _ERROR_COLS),
                           (2, ["subj", "obj"])):
            ds = _read_kind([staging], kind, cols)
            assert ds.materialize().num_blocks() == n
            assert ds.schema().names == cols
    staging = _write_staging(tmp_path / "no_errors", 3, kinds=(0, 2))
    errors = _read_kind([staging], 1, _ERROR_COLS)
    assert errors.count() == 0 and errors.schema().names == _ERROR_COLS


def test_staged_tail_same_store_and_schema_over_split_staging(ray_session,
                                                              tmp_path):
    """The fused build's tail over a 3- and a 6-file staging gives the
    store of the 1-file staging, and every block of its canonical
    output, empty or not, carries the full schema."""
    import ray

    from kgruntime.pipelines.kg import _staged_tail

    key = ["subj", "subj_kind", "pred", "obj", "obj_kind",
           "obj_datatype", "obj_lang"]
    stores = {}
    for n in (1, 3, 6):
        res = _staged_tail(_write_staging(tmp_path / f"n{n}", n),
                           dedup_buckets=64, keep_buckets=True)
        tables = ray.get(res["canonical"].to_arrow_refs())
        want = set(key + ["subj_bucket", "sub_salt"])
        assert all(set(t.schema.names) == want for t in tables)
        stores[n] = sorted(tuple(r[k] for k in key)
                           for t in tables for r in t.to_pylist())
    assert stores[1] and stores[3] == stores[1] == stores[6]
