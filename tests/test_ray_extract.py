"""End-to-end Ray Data extraction over the seeded input_hint corpus
(perfbench/corpus.py; SURVEY.md §5 harness contract + FIXTURES.md §5)."""

from kgruntime.stages.extract import (
    errors_dataset, extract_triples, normalize_spans, triples_dataset,
)
from kgruntime.ttl.nquads import canonical_lines
from kg_corpus import doc_local
from perfbench.corpus import Profile, corpus_hash, make_corpus

N_DOCS = 58


def _corpus(n=N_DOCS, bad_every=5, pool=0, seed=7):
    return make_corpus(seed, Profile(n, pool, 1.0, 100, bad_every))


def _docs_ds(ray, n=N_DOCS, bad_every=5):
    import ray.data as rd
    return rd.from_arrow(_corpus(n, bad_every).table)


def test_synth_deterministic():
    a = _corpus(40).table
    assert corpus_hash(a) == corpus_hash(_corpus(40).table)
    assert corpus_hash(a) != corpus_hash(_corpus(40, seed=8).table)


def test_span_sequence_equality(ray_session):
    """N1 invariant: output spans == input spans (kind, text, media_ref,
    order) — BASELINE.json input_hint per-row invariant."""
    table = _corpus().table
    ds = _docs_ds(ray_session).map_batches(normalize_spans,
                                           batch_format="pyarrow")
    out = ds.take_all()
    assert len(out) == N_DOCS
    by_id = {r["doc_id"]: r for r in out}
    for r in table.to_pylist():
        got = by_id[r["doc_id"]]
        assert got["span_ok"] is True or got["span_ok"] == True  # noqa: E712
        got_seq = [(s["kind"], s["text"], s["media_ref"]) for s in got["spans"]]
        exp_seq = [(s["kind"], s["text"], s["media_ref"]) for s in r["spans"]]
        assert got_seq == exp_seq


def test_full_corpus_parity(ray_session):
    """Every good document's triples, with the doc-scoped blank labels
    mapped back, are exactly its ground-truth N-Quads (corpus P/R = 1.0);
    every malformed document is quarantined and emits no triple."""
    c = _corpus()
    rows = extract_triples(_docs_ds(ray_session)).take_all()
    per_doc: dict[str, list] = {}
    for r in rows:
        if r["record_kind"] == 0:
            d = r["doc_id"]
            per_doc.setdefault(d, []).append(
                (doc_local(r["subj"], r["subj_kind"], d), r["subj_kind"],
                 r["pred"], doc_local(r["obj"], r["obj_kind"], d),
                 r["obj_kind"], r["obj_datatype"], r["obj_lang"]))
    bad = {r["doc_id"] for r in rows if r["record_kind"] == 1}
    ids = c.table["doc_id"].to_pylist()
    assert bad == {d for d, t in zip(ids, c.truth) if t is None}
    assert len(bad) == N_DOCS // 5
    for doc_id, exp in zip(ids, c.truth):
        if exp is not None:
            assert tuple(canonical_lines(per_doc[doc_id])) == exp, doc_id
    assert bad.isdisjoint(per_doc)


def test_quarantine_path(ray_session):
    c = _corpus(30)
    combined = extract_triples(_docs_ds(ray_session, n=30))
    rows = combined.take_all()
    errors = [r for r in rows if r["record_kind"] == 1]
    triples = [r for r in rows if r["record_kind"] == 0]
    bad_docs = {r["doc_id"] for r in errors}
    assert bad_docs == {d for d, t in zip(c.table["doc_id"].to_pylist(),
                                          c.truth) if t is None}
    assert len(bad_docs) == 6
    # malformed docs emit no triples; good docs aren't quarantined
    assert bad_docs.isdisjoint({r["doc_id"] for r in triples})
    err_ds = errors_dataset(_docs_ds(ray_session, n=30))
    schema_names = err_ds.schema().names
    assert schema_names == ["doc_id", "span_start", "span_end",
                            "error_layer", "error_kind", "error_msg"]


def test_blank_labels_are_doc_scoped(ray_session):
    tri = triples_dataset(_docs_ds(ray_session, n=29)).take_all()
    blanks = {r["subj"] for r in tri if r["subj_kind"] == 1}
    for b in blanks:
        assert b.startswith("_:doc-"), b
    # generated and labeled namespaces are disjoint
    gen = {b for b in blanks if "/L/" not in b}
    lab = {b for b in blanks if "/L/" in b}
    assert gen and lab and gen.isdisjoint(lab)


def test_parse_memo_parity():
    """The per-process parse memo (sentinel template + per-doc blank
    substitution) must be byte-identical to a direct labeled parse, on a
    corpus drawn from 20 payloads so most texts hit the memo."""
    import kgruntime.stages.extract as X
    from kgruntime.stages.extract import RECORD_TRIPLE, concat_text_spans
    from kgruntime.ttl import parse_turtle

    t = _corpus(120, bad_every=10, pool=20).table
    out = X.parse_batch(t)
    got = {}
    for r in out.to_pylist():
        if r["record_kind"] == RECORD_TRIPLE:
            got.setdefault(r["doc_id"], []).append(
                (r["subj"], r["subj_kind"], r["pred"], r["obj"],
                 r["obj_kind"], r["obj_datatype"], r["obj_lang"],
                 r["span_start"], r["span_end"], r["stmt_index"]))

    # reference: the ORIGINAL per-doc labeled parse, no memo involved
    doc_ids, texts, errs = concat_text_spans(t)
    assert len(set(texts)) < 40
    n_ok = 0
    for doc_id, text, err in zip(doc_ids, texts, errs):
        if err:
            continue
        prefix = "_:" + doc_id + "/"
        try:
            rows = parse_turtle(
                text,
                labeler=lambda n, p=prefix: p + str(n),
                relabel=lambda lbl, p=prefix: p + "L/" + lbl[2:])
        except Exception:
            assert doc_id not in got
            continue
        assert got.get(doc_id, []) == [tuple(r) for r in rows], doc_id
        n_ok += 1
    assert n_ok > 100
