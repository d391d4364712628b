"""Skew salting, media-only documents, CLI, N-Quads source/sink."""

import os
import subprocess
import sys

import pyarrow as pa
import pytest

from kg_corpus import doc_local
from kgruntime.stages.extract import parse_batch
from kgruntime.stages.materialize import (
    dedup_triples, find_hot_subjects, write_triple_store,
)
from kgruntime.synth import DOCUMENTS_SCHEMA, SPAN_STRUCT
from perfbench.corpus import Profile, make_corpus

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
needs_ref = pytest.mark.skipif(not os.path.isdir("/root/reference"),
                               reason="/root/reference absent")


def _triples_table(n_hot=500, n_cold=50):
    rows = []
    for i in range(n_hot):
        rows.append(("http://hot.example/celebrity", f"http://p/{i % 7}",
                     f"http://o/{i}"))
    for i in range(n_cold):
        rows.append((f"http://cold.example/{i}", "http://p/x", f"http://o/{i}"))
    return pa.table({
        "subj": [r[0] for r in rows],
        "subj_kind": pa.array([0] * len(rows), pa.uint8()),
        "pred": [r[1] for r in rows],
        "obj": [r[2] for r in rows],
        "obj_kind": pa.array([0] * len(rows), pa.uint8()),
        "obj_datatype": [""] * len(rows),
        "obj_lang": [""] * len(rows),
    })


def test_find_hot_subjects_and_salting(ray_session, tmp_path):
    import ray.data as rd

    ds = rd.from_arrow(_triples_table())
    hot = find_hot_subjects(ds, threshold=100)
    assert hot == {"http://hot.example/celebrity"}

    deduped = dedup_triples(ds, num_buckets=8, hot_subjects=hot,
                            salt_factor=4, keep_buckets=True).take_all()
    hot_rows = [r for r in deduped if r["subj"] == "http://hot.example/celebrity"]
    cold_rows = [r for r in deduped if r["subj"] != "http://hot.example/celebrity"]
    # the hot subject's rows spread over multiple salt sub-buckets...
    assert len({r["sub_salt"] for r in hot_rows}) > 1
    # ...while cold subjects stay unsalted
    assert {r["sub_salt"] for r in cold_rows} == {0}
    # dedup correctness unaffected by salting
    assert len(deduped) == 550

    out = str(tmp_path / "store")
    write_triple_store(rd.from_items(deduped), out, pre_bucketed=True)
    buckets = [d for d in os.listdir(out) if d.startswith("subj_bucket=")]
    assert len(buckets) > 1


def test_media_only_document_emits_nothing():
    spans = [[{"kind": "media", "text": "", "media_ref": "media://d/0",
               "offset": 0}]]
    t = pa.Table.from_arrays(
        [pa.array(["doc-media"], pa.string()),
         pa.array(spans, pa.list_(SPAN_STRUCT))],
        schema=DOCUMENTS_SCHEMA)
    out = parse_batch(t)
    assert out.num_rows == 0  # no triples, no quarantine row


def _cli(path: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "kgruntime.cli", path],
                          capture_output=True, text=True, cwd=REPO)


@needs_ref
def test_cli_parse_and_diagnostics():
    r = _cli("/root/reference/tests/positive/p02.ttl")
    assert r.returncode == 0
    assert r.stdout.strip().endswith(".")
    r2 = _cli("/root/reference/examples/syntax_error.ttl")
    assert r2.returncode == 1
    assert "error[lex/" in r2.stderr and "^" in r2.stderr


def test_cli_parse_and_diagnostics_generated(tmp_path):
    """The CLI prints a good generated document's ground truth, and for
    the lex-bad line exits 1 with a diagnostic pointing at the space."""
    c = make_corpus(17, Profile(40, 0, 1.0, 100, bad_every=4))
    good = next(i for i, t in enumerate(c.truth) if t)
    bad = next(t for t in c.texts if "<http://bad.example/a b>" in t)
    (tmp_path / "good.ttl").write_text(c.texts[good])
    (tmp_path / "bad.ttl").write_text(bad)
    r = _cli(str(tmp_path / "good.ttl"))
    assert r.returncode == 0
    assert tuple(r.stdout.splitlines()) == c.truth[good]
    r2 = _cli(str(tmp_path / "bad.ttl"))
    assert r2.returncode == 1
    pos = bad.index("<http://bad.example/a b>") + len("<http://bad.example/a")
    line, col = bad.count("\n", 0, pos) + 1, pos - bad.rfind("\n", 0, pos)
    assert "error[lex/Unexpected]" in r2.stderr
    assert f"bad.ttl:{line}:{col}\n" in r2.stderr and "^" in r2.stderr


def test_nquads_roundtrip_sink(ray_session, tmp_path):
    import ray.data as rd

    from kgruntime.sources.documents import read_nquads, write_nquads

    t = _triples_table(n_hot=3, n_cold=2)
    path = str(tmp_path / "nq")
    write_nquads(rd.from_arrow(t), path)
    back = read_nquads(path).take_all()
    orig = {(r["subj"], r["pred"], r["obj"]) for r in t.to_pylist()}
    got = {(r["subj"], r["pred"], r["obj"]) for r in back}
    assert got == orig


def test_bad_span_sequence_quarantined():
    spans = [[{"kind": "text", "text": "<http://a/s> <http://a/p> <http://a/o> .",
               "media_ref": "", "offset": 100},
              {"kind": "media", "text": "", "media_ref": "media://d/0",
               "offset": 5}]]  # offset goes backwards → invariant violation
    t = pa.Table.from_arrays(
        [pa.array(["doc-bad"], pa.string()),
         pa.array(spans, pa.list_(SPAN_STRUCT))],
        schema=DOCUMENTS_SCHEMA)
    out = parse_batch(t).to_pylist()
    assert len(out) == 1
    assert out[0]["record_kind"] == 1
    assert out[0]["error_layer"] == "span"
    assert out[0]["error_kind"] == "InvalidSpanSequence"


def test_unknown_span_kind_quarantined():
    spans = [[{"kind": "video?", "text": "", "media_ref": "x", "offset": 0}]]
    t = pa.Table.from_arrays(
        [pa.array(["doc-kind"], pa.string()),
         pa.array(spans, pa.list_(SPAN_STRUCT))],
        schema=DOCUMENTS_SCHEMA)
    out = parse_batch(t).to_pylist()
    assert out[0]["error_layer"] == "span"


@needs_ref
def test_from_ttl_files_migration_path(ray_session):
    """Reference users' .ttl files stream straight through the pipeline."""
    import glob

    from kgruntime.sources.documents import from_ttl_files
    from kgruntime.stages.extract import triples_dataset
    from kgruntime.ttl.nquads import canonical_lines, parse_nquads

    files = sorted(glob.glob("/root/reference/tests/positive/p0[1-5].ttl"))
    docs = from_ttl_files(files)
    tri = triples_dataset(docs).take_all()
    per_doc = {}
    for r in tri:
        per_doc.setdefault(r["doc_id"], []).append(
            (r["subj"], r["subj_kind"], r["pred"], r["obj"], r["obj_kind"],
             r["obj_datatype"], r["obj_lang"]))
    for f in files:
        name = os.path.basename(f)
        with open(f[:-4] + ".nq") as fh:
            exp_rows = parse_nquads(fh.read())
        # blank labels are doc-scoped in the pipeline
        def rw(v, k):
            if k != 1:
                return v
            body = v[2:]
            return (f"_:{name}/{body}" if body.isdigit()
                    else f"_:{name}/L/{body}")
        exp = canonical_lines([(rw(s, sk), sk, p, rw(o, ok), ok, dt, lg)
                               for s, sk, p, o, ok, dt, lg in exp_rows])
        assert canonical_lines(per_doc[name]) == exp, name


def test_from_ttl_files_migration_path_generated(ray_session, tmp_path):
    """Generated documents written as .ttl files stream through the
    pipeline and give exactly their ground truth."""
    from kgruntime.sources.documents import from_ttl_files
    from kgruntime.stages.extract import triples_dataset
    from kgruntime.ttl.nquads import canonical_lines

    c = make_corpus(19, Profile(8, 0, 1.0, 50, bad_every=9))
    files = []
    for doc_id, text in zip(c.table["doc_id"].to_pylist(), c.texts):
        files.append(str(tmp_path / f"{doc_id}.ttl"))
        with open(files[-1], "w") as f:
            f.write(text)
    per_doc = {}
    for r in triples_dataset(from_ttl_files(files)).take_all():
        d = r["doc_id"]
        per_doc.setdefault(d, []).append(
            (doc_local(r["subj"], r["subj_kind"], d), r["subj_kind"],
             r["pred"], doc_local(r["obj"], r["obj_kind"], d),
             r["obj_kind"], r["obj_datatype"], r["obj_lang"]))
    assert len(per_doc) == len(files)
    for f, truth in zip(files, c.truth):
        name = os.path.basename(f)
        assert tuple(canonical_lines(per_doc[name])) == truth, name


def test_read_triple_store_bucket_pruning(ray_session, tmp_path):
    import ray.data as rd

    from kgruntime.stages.materialize import read_triple_store

    ds = rd.from_arrow(_triples_table(n_hot=0, n_cold=40))
    deduped = dedup_triples(ds, num_buckets=4, keep_buckets=True)
    out = str(tmp_path / "store")
    write_triple_store(deduped, out, pre_bucketed=True)

    full = read_triple_store(out).take_all()
    assert len(full) == 40
    one = read_triple_store(out, buckets=[0]).take_all()
    assert 0 < len(one) < 40
    assert all(r["subj_bucket"] == 0 or str(r.get("subj_bucket")) == "0"
               for r in one)


def test_cli_corpus_pipeline(tmp_path):
    """`python -m kgruntime.cli --corpus` runs the checkpointed pipeline
    end-to-end in its own process (owns its own Ray session)."""
    from kg_corpus import write_corpus

    corpus = str(tmp_path / "c")
    out = str(tmp_path / "o")
    write_corpus(corpus, 20, seed=3, rows_per_file=10)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    r = subprocess.run(
        [sys.executable, "-m", "kgruntime.cli", "--corpus", corpus, out],
        capture_output=True, text=True, cwd=root, timeout=280)
    assert r.returncode == 0, r.stderr[-500:]
    assert "processed 2 fragments" in r.stdout
    assert len(os.listdir(os.path.join(out, "_manifest"))) == 2
