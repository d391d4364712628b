"""Tests for training-data operators: dedup family, ANN, text analysis,
media plumbing."""

import numpy as np
import pyarrow as pa
import pytest

from kgruntime.ops.ann import brute_force_topk, lsh_topk
from kgruntime.ops.dedup import (
    MinHasher, SimHasher, embedding_near_dups, exact_jaccard,
    minhash_near_dups, simhash_near_dups,
)
from kgruntime.ops.media import (
    MediaDecoder, decode_features, sample_frames, synth_media_table,
)
from kgruntime.ops.text import (
    LangId, fingerprint_tokens, fingerprints, quality_scores, token_stats,
)


def _doc_table(texts):
    return pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                     "text": pa.array(texts, pa.string())})


BASE = ("the quick brown fox jumps over the lazy dog and runs far away "
        "into the deep green forest tonight while stars shine bright") * 3


def test_minhash_signature_similarity():
    m = MinHasher()
    a = m.signature(BASE)
    b = m.signature(BASE.replace("lazy", "sleepy"))
    c = m.signature("completely different words entirely unrelated text "
                    "about quantum physics and space travel")
    assert (a == b).mean() > 0.6
    assert (a == c).mean() < 0.2
    # deterministic across instances (seeded)
    assert (MinHasher().signature(BASE) == a).all()


def test_minhash_lsh_finds_planted_dups(ray_session):
    import ray.data as rd

    texts = [f"unique document number {i} with some random filler words "
             f"alpha beta gamma delta {i * 7} epsilon" for i in range(30)]
    texts.append(BASE)
    texts.append(BASE.replace("lazy", "sleepy"))  # planted near-dup pair
    ds = rd.from_arrow(_doc_table(texts))
    pairs = minhash_near_dups(ds, threshold=0.5).take_all()
    assert any({p["doc_a"], p["doc_b"]} == {30, 31} for p in pairs)


def test_exact_jaccard_and_verify(ray_session):
    assert exact_jaccard(BASE, BASE) == 1.0
    assert exact_jaccard(BASE, "nothing in common here at all") < 0.05


def test_simhash_close_and_far(ray_session):
    import ray.data as rd

    s = SimHasher()
    a = s.signature(BASE)
    b = s.signature(BASE + " extra")
    assert bin(a ^ b).count("1") <= 8
    ds = rd.from_arrow(_doc_table([BASE, BASE + " extra",
                                   "totally different content about ships"]))
    pairs = simhash_near_dups(ds, max_hamming=8).take_all()
    assert any({p["doc_a"], p["doc_b"]} == {0, 1} for p in pairs)


def _embedding_ds(ray, n=50, dim=16, seed=3):
    import ray.data as rd

    rng = np.random.RandomState(seed)
    emb = rng.normal(size=(n, dim))
    emb[1] = emb[0] + rng.normal(scale=0.01, size=dim)  # planted near-dup
    return rd.from_arrow(pa.table({
        "vec_id": pa.array(range(n), pa.int64()),
        "embedding": pa.array([list(map(float, e)) for e in emb],
                              pa.list_(pa.float64()))})), emb


def test_embedding_near_dups(ray_session):
    ds, emb = _embedding_ds(ray_session)
    out = embedding_near_dups(ds, dim=16, threshold=0.99).take_all()
    assert any({r["vec_a"], r["vec_b"]} == {0, 1} for r in out)


def test_brute_force_topk_matches_numpy(ray_session):
    ds, emb = _embedding_ds(ray_session)
    q = emb[:3]
    out = brute_force_topk(ds, q, [0, 1, 2], k=4).take_all()
    # numpy oracle
    normed = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    sims = normed[:3] @ normed.T
    for qi in range(3):
        order = [i for i in np.argsort(-sims[qi]) if i != qi][:4]
        got = sorted((r["neighbor_id"] for r in out if r["query_id"] == qi))
        assert got == sorted(order)


def test_lsh_topk_recall(ray_session):
    ds, emb = _embedding_ds(ray_session, n=200)
    q = emb[:5]
    exact = brute_force_topk(ds, q, list(range(5)), k=3).take_all()
    approx = lsh_topk(ds, q, list(range(5)), k=3,
                      n_planes=4).take_all()
    exact_set = {(r["query_id"], r["neighbor_id"]) for r in exact}
    approx_set = {(r["query_id"], r["neighbor_id"]) for r in approx}
    # bucketing must at least find each query's own near region
    recall = len(exact_set & approx_set) / len(exact_set)
    assert recall >= 0.4  # approximate by design with 4 planes


def test_token_and_quality_and_fingerprints():
    t = _doc_table(["the quick brown fox", "", "  spaced   out  words "])
    ts = token_stats(t).to_pylist()
    assert [r["n_tokens"] for r in ts] == [4, 0, 3]
    qs = quality_scores(t).to_pylist()
    assert qs[0]["stopword_ratio"] == 0.25
    assert qs[1]["quality"] == 0.0
    fp = fingerprints(t).to_pylist()
    assert fp[0]["fingerprint"] == fingerprint_tokens(
        ["the", "quick", "brown", "fox"])
    assert fp[0]["fingerprint"] != fp[2]["fingerprint"]


def test_langid_profiles():
    lid = LangId()
    assert lid.classify("the meeting of the board and the committee") == "en"
    assert lid.classify("la reunión de los señores en el pueblo") == "es"


def test_media_plumbing(ray_session):
    import ray.data as rd

    refs = [f"media://doc-{i:06d}/0" for i in range(12)]
    media = rd.from_arrow(synth_media_table(refs))
    feats = decode_features(media, feat_dim=8).take_all()
    assert len(feats) == 12
    assert all(len(r["features"]) == 8 for r in feats)
    # deterministic decode
    d = MediaDecoder(feat_dim=8)
    tbl = synth_media_table(refs)
    f1 = d(tbl)["features"].to_pylist()
    f2 = MediaDecoder(feat_dim=8)(tbl)["features"].to_pylist()
    assert f1 == f2
    # real frame sampling: MJPEG/AVI container walk (ops/avi.py)
    from kgruntime.ops.media import synth_avi_table

    avi = rd.from_arrow(synth_avi_table(refs))
    frames = sample_frames(avi).take_all()
    assert all(r["frame_index"] >= 0 for r in frames)
    assert len({r["media_ref"] for r in frames}) == 12
    # fake payloads (no container) reject loudly on the real path
    with pytest.raises(Exception):
        sample_frames(media).take_all()
    legacy = sample_frames(media, fake=True).take_all()
    assert len({r["media_ref"] for r in legacy}) == 4  # every 3rd is video


def test_media_real_decode_is_gated():
    d = MediaDecoder(fake=False)
    with pytest.raises(NotImplementedError):
        d._decode(b"payload", "image")


def test_sessionize_and_tumbling(ray_session):
    import datetime as dt

    import ray.data as rd

    from kgruntime.ops.sessions import sessionize, tumbling_hourly

    base = dt.datetime(2024, 1, 1, 10, 0, 0)
    rows = [
        {"event_id": 1, "user_id": 7, "ts": base, "event_type": "a",
         "value": 1.0, "props": ""},
        {"event_id": 2, "user_id": 7, "ts": base + dt.timedelta(minutes=10),
         "event_type": "a", "value": 2.0, "props": ""},
        # 45-minute gap → new session
        {"event_id": 3, "user_id": 7, "ts": base + dt.timedelta(minutes=55),
         "event_type": "b", "value": 4.0, "props": ""},
        {"event_id": 4, "user_id": 9, "ts": base, "event_type": "a",
         "value": 8.0, "props": ""},
    ]
    events = rd.from_items(rows)
    sess = sessionize(events).to_pandas().sort_values(
        ["user_id", "session_start"]).reset_index(drop=True)
    assert len(sess) == 3
    assert list(sess["n_events"]) == [2, 1, 1]
    assert sess.loc[0, "total_value"] == 3.0

    tw = tumbling_hourly(events).to_pandas()
    assert set(tw["event_type"]) == {"a", "b"}
    a_row = tw[tw["event_type"] == "a"]
    assert a_row["n_events"].sum() == 3


def test_hot_bucket_cap_logs(caplog):
    import logging

    from kgruntime.ops.dedup import _cap_hot_bucket

    with caplog.at_level(logging.WARNING, logger="kgruntime.ops.dedup"):
        out = _cap_hot_bucket(list(range(250)), 200, "unit_test")
    assert len(out) == 200
    assert any("truncated 250 -> 200" in r.message for r in caplog.records)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="kgruntime.ops.dedup"):
        out = _cap_hot_bucket(list(range(10)), 200, "unit_test")
    assert len(out) == 10 and not caplog.records


def test_band_hash_process_stable():
    """band_hash must be identical across worker processes (builtin
    hash() is SipHash-salted per process and was silently breaking the
    cross-actor LSH bucket groupby)."""
    import subprocess
    import sys

    from kgruntime.ops.dedup import _stable_hash64

    local = _stable_hash64(b"some band bytes")
    code = ("from kgruntime.ops.dedup import _stable_hash64;"
            "print(_stable_hash64(b'some band bytes'))")
    remote = int(subprocess.check_output(
        [sys.executable, "-c", code], env={"PYTHONHASHSEED": "99",
                                           "PATH": "/usr/bin:/bin"},
        cwd="/root/repo").strip())
    assert local == remote


def test_exact_dedup_groups_hash_collision_safe(ray_session):
    """Distinct texts must never merge: text stays in the aggregate key
    (hash leading), so even a 128-bit hash collision cannot merge two
    different documents; duplicates combine across batches."""
    import pyarrow as pa
    import ray.data as rd

    from kgruntime.ops.dedup import _local_exact_combine, exact_dedup_groups

    g = pa.table({"doc_id": [3, 2, 1, 9], "text": ["aaa", "bbb", "aaa", "ccc"]})
    local = _local_exact_combine(g).to_pydict()
    rows = sorted(zip(local["text"], local["keep_id"], local["cnt"]))
    assert rows == [("aaa", 1, 2), ("bbb", 2, 1), ("ccc", 9, 1)]

    ds = rd.from_arrow(g).repartition(3)
    out = exact_dedup_groups(ds).to_pandas()
    got = sorted(zip(out["text"], out["keep_id"], out["n_dups"]))
    assert got == [("aaa", 1, 2), ("bbb", 2, 1), ("ccc", 9, 1)]


def test_jaccard_adjacent_pairs(ray_session):
    import ray.data as rd

    from kgruntime.ops.dedup import jaccard_adjacent_pairs

    docs = rd.from_items([
        {"doc_id": 0, "text": "a b c d"},
        {"doc_id": 1, "text": "a b c d"},       # identical -> 1.0
        {"doc_id": 2, "text": "x y z w"},
        {"doc_id": 3, "text": "p q r s"},       # disjoint -> 0.0
        {"doc_id": 4, "text": "one two"},       # <3 tokens: whole-string gram
        {"doc_id": 5, "text": "one two"},
    ])
    out = jaccard_adjacent_pairs(docs).to_pandas() \
        .sort_values("doc_a").reset_index(drop=True)
    assert list(out["doc_a"]) == [0, 2, 4]
    assert list(out["doc_b"]) == [1, 3, 5]
    assert list(out["jaccard"]) == [1.0, 0.0, 1.0]


def test_distinct_corpus_mode():
    """pool=0 makes every document text unique and parseable (one
    doc-unique statement per doc); pool=k draws every text from k
    payloads."""
    import pyarrow.compute as pc

    from kgruntime.stages.extract import concat_text_spans, parse_batch
    from perfbench.corpus import Profile, make_corpus

    c = make_corpus(3, Profile(100, 0, 1.0, 100, bad_every=101))
    _, texts, errs = concat_text_spans(c.table)
    assert len(set(texts)) == 100
    assert not any(errs)
    out = parse_batch(c.table)
    assert pc.sum(pc.cast(pc.equal(out["record_kind"], 1),
                          "int64")).as_py() == 0
    assert out.num_rows == sum(map(len, c.triples))
    pooled = make_corpus(3, Profile(100, 10, 1.0, 100, bad_every=101))
    assert len(set(concat_text_spans(pooled.table)[1])) <= 10
