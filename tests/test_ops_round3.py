"""Round-3 operators: rare-shingle blocking, PII scan, normalized
dedup, sequence trigrams, session conversion, dyadic decay, per-source
top terms, integer k-means clustering."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _docs(rows):
    import ray.data as rd

    return rd.from_arrow(pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": pa.array([r[1] for r in rows], pa.string()),
    }))


def _ts(s):
    return pd.Timestamp(s).to_datetime64()


def test_rare_token_pairs_blocking_and_overflow(ray_session):
    from kgruntime.ops.dedup import rare_token_pairs

    # "alpha beta" bigram shared by docs 1,2 (df=2 → pair); the
    # "common x" bigram appears in 6 docs (df>3 → suppressed by the
    # overflow gate); docs 1,2 also share "beta gamma" → n_shared_rare=2
    rows = [(1, "alpha beta gamma"), (2, "alpha beta gamma"),
            (3, "solo unique words")] + \
           [(10 + i, f"common x tail{i}") for i in range(6)]
    out = rare_token_pairs(_docs(rows).repartition(3), max_df=3) \
        .to_pandas().sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    assert out[["doc_a", "doc_b"]].values.tolist() == [[1, 2]]
    assert out["n_shared_rare"].tolist() == [2]


def test_rare_token_pairs_repartition_invariant(ray_session):
    from kgruntime.ops.dedup import rare_token_pairs

    # docs 2k and 2k+1 share the df=2 bigram "p{k} m{k}"
    rows = [(i, f"p{i // 2} m{i // 2} tok{i}") for i in range(20)]
    a = rare_token_pairs(_docs(rows).repartition(1), max_df=3).to_pandas()
    b = rare_token_pairs(_docs(rows).repartition(7), max_df=3).to_pandas()
    key = ["doc_a", "doc_b"]
    assert sorted(map(tuple, a[key].values.tolist())) == \
        sorted(map(tuple, b[key].values.tolist()))


def test_pii_scan_counts(ray_session):
    from kgruntime.ops.text import pii_scan

    rows = [(1, "mail a@b.com and c@d.org plus http://x.y/z"),
            (2, "call +1 (555) 123-4567 today"),
            (3, "clean text only"),
            (4, "")]
    out = pii_scan(_docs(rows)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert out["n_emails"].tolist() == [2, 0, 0, 0]
    assert out["n_urls"].tolist() == [1, 0, 0, 0]
    assert out["n_phones"].tolist() == [0, 1, 0, 0]
    assert out["has_pii"].tolist() == [True, True, False, False]


def test_normalized_dup_docs(ray_session):
    from kgruntime.ops.text import normalized_dup_docs

    rows = [(1, "Hello, World!"), (2, "hello   world"), (3, "HELLO WORLD."),
            (4, "different text")]
    out = normalized_dup_docs(_docs(rows)).to_pandas() \
        .sort_values("keep_id").reset_index(drop=True)
    assert out["keep_id"].tolist() == [1, 4]
    assert out["n_copies"].tolist() == [3, 1]


def test_event_path_trigrams(ray_session):
    import ray.data as rd

    from kgruntime.ops.sessions import event_path_trigrams

    ds = rd.from_arrow(pa.table({
        "user_id": [1, 1, 1, 1, 2, 2],
        "event_id": [1, 2, 3, 4, 5, 6],
        "event_type": ["view", "click", "purchase", "view",
                       "view", "click"],
        "ts": pa.array([_ts(f"2024-01-01 00:0{i}:00") for i in
                        [0, 1, 2, 3, 0, 1]]),
    }))
    out = event_path_trigrams(ds).to_pandas() \
        .sort_values(["t1", "t2", "t3"]).reset_index(drop=True)
    # user 1: (view,click,purchase), (click,purchase,view); user 2 < 3
    assert out[["t1", "t2", "t3"]].values.tolist() == \
        [["click", "purchase", "view"], ["view", "click", "purchase"]]
    assert out["n_paths"].tolist() == [1, 1]


def test_session_conversion_by_dow(ray_session):
    import ray.data as rd

    from kgruntime.ops.sessions import session_conversion_by_dow

    # 1970-01-01 is a Thursday → dow 4 in the shared epoch-day formula.
    # user 1: two sessions (90-min gap), first converts; user 2: one
    # session, no purchase
    ds = rd.from_arrow(pa.table({
        "user_id": [1, 1, 1, 2],
        "event_id": [1, 2, 3, 4],
        "event_type": ["view", "purchase", "view", "view"],
        "ts": pa.array([_ts("1970-01-01 10:00:00"),
                        _ts("1970-01-01 10:10:00"),
                        _ts("1970-01-01 12:00:00"),
                        _ts("1970-01-01 09:00:00")]),
    }))
    out = session_conversion_by_dow(ds).to_pandas()
    assert out["dow"].tolist() == [4]
    assert out["n_sessions"].tolist() == [3]
    assert out["n_converted"].tolist() == [1]
    assert out["conversion_rate"].tolist() == [round(1 / 3, 6)]


def test_decayed_user_value_exact_dyadic(ray_session):
    import ray.data as rd

    from kgruntime.ops.sessions import decayed_user_value

    # ref day = 1970-01-10; event ages 0, 1, 40 days (beyond horizon)
    ds = rd.from_arrow(pa.table({
        "user_id": [1, 1, 2],
        "ts": pa.array([_ts("1970-01-10 05:00:00"),
                        _ts("1970-01-09 05:00:00"),
                        _ts("1969-12-01 05:00:00")]),
        "value": [2.0, 4.0, 100.0],
    }))
    out = decayed_user_value(ds).to_pandas() \
        .sort_values("user_id").reset_index(drop=True)
    # user 1: 200¢·2^30 + 400¢·2^29 → /(2^30·100) = 2 + 2 = 4.0
    assert out["decayed_value"].tolist() == [4.0, 0.0]
    assert out["decayed_cents_x"].tolist() == [
        200 * (1 << 30) + 400 * (1 << 29), 0]


def test_top_terms_per_source(ray_session):
    import ray.data as rd

    from kgruntime.ops.text import top_terms_per_source

    ds = rd.from_arrow(pa.table({
        "source": ["a", "a", "b"],
        "text": ["x x y", "y z", "w w w"],
    }))
    out = top_terms_per_source(ds, k=2).to_pandas() \
        .sort_values(["source", "rnk"]).reset_index(drop=True)
    assert out.values.tolist() == [
        ["a", 1, "x", 2], ["a", 2, "y", 2], ["b", 1, "w", 3]]


def test_kmeans_clusters_deterministic_and_complete(ray_session):
    import ray.data as rd

    from kgruntime.ops.ann import kmeans_clusters

    rng = np.random.RandomState(5)
    n, dim = 300, 8
    emb = rng.randn(n, dim)
    ds = rd.from_arrow(pa.table({
        "vec_id": np.arange(n, dtype=np.int64),
        "embedding": list(emb),
    })).repartition(4)
    a = kmeans_clusters(ds, n_centroids=4).to_pandas() \
        .sort_values("vec_id").reset_index(drop=True)
    assert len(a) == n and a["cid"].nunique() > 1
    # population column agrees with the assignment itself
    pop = a.groupby("cid")["vec_id"].count()
    assert all(pop[c] == k for c, k in zip(a["cid"], a["cluster_n"]))
    b = kmeans_clusters(ds.repartition(2), n_centroids=4) \
        .to_pandas().sort_values("vec_id").reset_index(drop=True)
    assert a["cid"].tolist() == b["cid"].tolist()


def test_user_components_vs_networkless_reference(ray_session):
    import ray.data as rd

    from kgruntime.ops.graph import user_components

    # components {1,2,3} via chained co-sessions, {4,5}; user 6 isolated
    # (no co-occurrence → absent, matching the SQL's edge-derived nodes)
    rows = []
    eid = 0
    for u, b in [(1, "a"), (2, "a"), (2, "b"), (3, "b"),
                 (4, "c"), (5, "c"), (6, "d")]:
        eid += 1
        rows.append((u, eid, b))
    ds = rd.from_arrow(pa.table({
        "user_id": [r[0] for r in rows],
        "event_id": [r[1] for r in rows],
        "event_type": ["view"] * len(rows),
        # same bucket hour → co-occurrence within the bucket
        "ts": pa.array([_ts(f"2024-01-01 0{ord(r[2]) - 96}:30:00")
                        for r in rows]),
    }))
    out = user_components(ds).to_pandas() \
        .sort_values("user_id").reset_index(drop=True)
    got = dict(zip(out["user_id"], out["component"]))
    assert got == {1: 1, 2: 1, 3: 1, 4: 4, 5: 4}


def test_bloom_distinct_user_days_merge_invariance(ray_session):
    import ray.data as rd

    from kgruntime.ops.sketch import bloom_distinct_user_days

    rows = [(u, f"2024-01-{d:02d} 12:00:00")
            for u in range(40) for d in range(1, 11)]
    t = pa.table({
        "user_id": [r[0] for r in rows],
        "event_id": list(range(len(rows))),
        "ts": pa.array([_ts(r[1]) for r in rows]),
    })
    a = bloom_distinct_user_days(rd.from_arrow(t).repartition(1))
    b = bloom_distinct_user_days(rd.from_arrow(t).repartition(9))
    assert a["n_set_bits"].iloc[0] == b["n_set_bits"].iloc[0]
    # 400 distinct pairs, m=32768: estimator within 10%
    assert abs(a["est_distinct"].iloc[0] - 400) < 40


def test_reservoir_per_group_deterministic_topk(ray_session):
    import ray.data as rd

    from kgruntime.ops.dedup import _md5_60
    from kgruntime.ops.sample import reservoir_per_group

    ds = rd.from_arrow(pa.table({
        "lang": ["en"] * 50 + ["de"] * 5,
        "doc_id": pa.array(list(range(55)), pa.int64()),
    })).repartition(6)
    out = reservoir_per_group(ds, k=10).to_pandas()
    en = sorted(out[out["lang"] == "en"]["doc_id"])
    expect = sorted(sorted(range(50),
                           key=lambda i: (_md5_60(str(i).encode()), i))[:10])
    assert en == expect
    assert sorted(out[out["lang"] == "de"]["doc_id"]) == list(range(50, 55))


def test_div_half_away_matches_fraction_rounding():
    from fractions import Fraction

    from kgruntime.ops.ann import _div_half_away

    rng = np.random.RandomState(11)
    s = rng.randint(-10**12, 10**12, size=500)
    for n in (1, 2, 3, 7, 4096):
        got = _div_half_away(s, n)
        for si, gi in zip(s.tolist(), got.tolist()):
            f = Fraction(si, n)
            frac = f - int(f)
            # half-away-from-zero reference via exact rationals
            if f >= 0:
                want = int(f) + (1 if frac >= Fraction(1, 2) else 0)
            else:
                want = int(f) - (1 if -frac >= Fraction(1, 2) else 0)
            assert gi == want, (si, n, gi, want)


def test_units_matrix_matches_duckdb_round():
    import duckdb

    from kgruntime.ops.ann import _units_matrix

    vals = [0.0000005, -0.0000005, 1.5e-6, -1.5e-6, 0.1234565,
            -0.9999995, 3.25, 0.0]
    got = _units_matrix(np.array([vals])).ravel().tolist()
    want = [duckdb.sql("SELECT CAST(round(? * 1000000) AS BIGINT)",
                       params=[v]).fetchone()[0] for v in vals]
    assert got == want


def test_table_profile_counts(ray_session):
    import ray.data as rd

    from kgruntime.ops.stats import table_profile

    ds = rd.from_arrow(pa.table({
        "a": pa.array([1, 1, 2, None], pa.int64()),
        "b": pa.array(["x", None, None, "y"], pa.string()),
    })).repartition(2)
    out = table_profile(ds, ["a", "b"])
    assert out["column"].tolist() == ["a", "b"]
    assert out["n_rows"].tolist() == [4, 4]
    assert out["n_nulls"].tolist() == [1, 2]
    # count(DISTINCT) semantics: nulls excluded on both engines
    assert out["n_distinct"].tolist() == [2, 2]


def test_value_percentile_ranks_cume_dist(ray_session):
    import ray.data as rd

    from kgruntime.ops.stats import value_percentile_ranks

    ds = rd.from_arrow(pa.table({
        "event_id": [1, 2, 3, 4, 5],
        "event_type": ["a"] * 4 + ["b"],
        "value": [1.0, 2.0, 2.0, 3.0, 9.0],
    })).repartition(2)
    out = value_percentile_ranks(ds).to_pandas() \
        .sort_values("event_id").reset_index(drop=True)
    # cume_dist: 1.0→0.25, 2.0→0.75 (both), 3.0→1.0; solo group → 1.0
    assert out["pct_rank"].tolist() == [0.25, 0.75, 0.75, 1.0, 1.0]


def test_curate_corpus_composition(ray_session):
    import ray.data as rd

    from kgruntime.ops.text import curate_corpus

    good = ("the quick brown fox jumps over a lazy dog and keeps on "
            "running through fields of green grass every single day " * 2)
    rows = [
        (1, good),                       # survives
        (2, good),                       # normalized dup of 1 → dropped
        (3, good + " mail me a@b.com"),  # PII → dropped
        (4, "short"),                    # n_chars < 20 → dropped
        (5, good.upper()),               # normalized dup of 1 → dropped
        (6, good + " extra distinct tail words here"),   # survives
    ]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": pa.array([r[1] for r in rows], pa.string()),
        "n_chars": pa.array([len(r[1]) for r in rows], pa.int64()),
    })).repartition(3)
    out = curate_corpus(ds, budget=30).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert out["doc_id"].tolist() == [1, 6]
    # shard ids follow the doc_id-ordered token prefix scan
    assert out["shard_id"].iloc[0] == 0
    assert (out["shard_id"].diff().fillna(0) >= 0).all()


def test_split_leakage_detects_cross_split_dups(ray_session):
    from kgruntime.ops.sample import _KNUTH, _M32, split_leakage

    def split_of(i):
        h = (i * _KNUTH) % _M32
        # sorted names: test [0,0.1), train [0.1,0.9), val [0.9,1)
        if h < int(0.1 * _M32):
            return "test"
        if h < int(0.9 * _M32):
            return "train"
        return "val"

    ids = list(range(200))
    a = next(i for i in ids if split_of(i) == "train")
    b = next(i for i in ids if split_of(i) == "test")
    c, d = [i for i in ids if split_of(i) == "train"][:2]
    rows = [(a, "Leaky DOC one!"), (b, "leaky doc ONE"),    # cross-split
            (c, "same split twice"), (d, "Same Split TWICE"),  # same split
            (99, "unique text")]
    out = split_leakage(_docs(rows)).to_pandas()
    assert out["keep_id"].tolist() == [min(a, b)]
    assert out["n_docs"].tolist() == [2]
    assert out["n_splits"].tolist() == [2]


def test_embedding_dup_clusters_groups_duplicates(ray_session):
    import ray.data as rd

    from kgruntime.ops.dedup import embedding_dup_clusters

    rng = np.random.RandomState(9)
    base = rng.randn(6, 16)
    # vectors 0,1,2 near-identical; 3,4 near-identical; 5 alone
    emb = np.vstack([base[0], base[0] * 1.001, base[0] * 0.999,
                     base[3], base[3] * 1.002, base[5]])
    ds = rd.from_arrow(pa.table({
        "vec_id": np.arange(6, dtype=np.int64),
        "embedding": list(emb),
    })).repartition(2)
    out = embedding_dup_clusters(ds, dim=16, threshold=0.99,
                                 n_planes=4, n_tables=8).to_pandas() \
        .sort_values("vec_id").reset_index(drop=True)
    got = dict(zip(out["vec_id"], out["cluster"]))
    assert got.get(0) == 0 and got.get(1) == 0 and got.get(2) == 0
    assert got.get(3) == 3 and got.get(4) == 3
    assert 5 not in got  # singleton → implicit


def test_incremental_dup_check(ray_session):
    from kgruntime.ops.dedup import incremental_dup_check

    rows = [(1, "Shared Text!"), (2, "prior only"), (3, "another prior"),
            (10, "shared   text"),     # normalized dup of prior doc 1
            (11, "genuinely new")]
    out = incremental_dup_check(_docs(rows), cutoff=10).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert out["doc_id"].tolist() == [10, 11]
    assert out["dup_of_prior"].tolist() == [True, False]


def test_incremental_dup_check_empty_sides(ray_session):
    from kgruntime.ops.dedup import incremental_dup_check

    # no prior side (all ids >= cutoff): every new doc is non-dup
    out = incremental_dup_check(
        _docs([(60, "a text"), (61, "b text")]), cutoff=5).to_pandas()
    assert sorted(out["doc_id"]) == [60, 61]
    assert out["dup_of_prior"].tolist() == [False, False]
    # no new side: empty result, no crash (Ray drops even a pinned
    # empty schema on to_pandas — the registry wrapper reindexes)
    out2 = incremental_dup_check(
        _docs([(1, "a"), (2, "b")]), cutoff=100).to_pandas()
    assert len(out2) == 0
    # default cutoff on an ingest-shaped table (min >= max//2)
    out3 = incremental_dup_check(
        _docs([(60, "x"), (100, "y")])).to_pandas()
    assert len(out3) == 2 and not out3["dup_of_prior"].any()


def test_jsonl_corpus_round_trip(ray_session, tmp_path):
    import ray.data as rd

    from kgruntime.ops.text import pii_scan
    from kgruntime.sources.documents import (read_documents_jsonl,
                                             write_documents_jsonl)

    src = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": ["alpha beta", "mail x@y.zz", "plain"],
        "lang": ["en", "en", "de"],
        "source": ["s1", "s1", "s2"],
        "n_chars": pa.array([10, 11, 5], pa.int64()),
    }))
    out_dir = str(tmp_path / "jsonl")
    write_documents_jsonl(src, out_dir)
    back = read_documents_jsonl(out_dir).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert back["text"].tolist() == ["alpha beta", "mail x@y.zz", "plain"]
    assert back["n_chars"].tolist() == [10, 11, 5]
    # minimal {"doc_id","text"} JSONL ingests directly into text ops
    minimal = str(tmp_path / "min.jsonl")
    with open(minimal, "w") as f:
        f.write('{"doc_id": 7, "text": "short one"}\n')
    ds = read_documents_jsonl(minimal)
    got = pii_scan(ds).to_pandas()
    assert got["doc_id"].tolist() == [7]
    assert not got["has_pii"].iloc[0]


def test_capped_duplicate_sample(ray_session):
    from kgruntime.ops.text import capped_duplicate_sample

    rows = [(1, "Dup Text!"), (2, "dup text"), (3, "DUP, text."),
            (4, "unique")]
    out = capped_duplicate_sample(_docs(rows), k=2).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    # 3 copies of the dup group → smallest two kept; doc 3 dropped
    assert out["doc_id"].tolist() == [1, 2, 4]
    assert out["copy_rank"].tolist() == [1, 2, 1]


def test_csv_corpus_ingest(ray_session, tmp_path):
    from kgruntime.ops.text import token_stats
    from kgruntime.sources.documents import read_documents_csv

    p = str(tmp_path / "docs.csv")
    with open(p, "w") as f:
        f.write("doc_id,text\n5,alpha beta gamma\n6,one two\n")
    ds = read_documents_csv(p)
    out = ds.map_batches(token_stats, batch_format="pyarrow").to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert out["doc_id"].tolist() == [5, 6]
    assert out["n_tokens"].tolist() == [3, 2]


def test_registry_contract_invariants():
    """Driver-contract guards under the SELF-MAINTAINING order
    (round 5): every query-table row names each query once and its
    op / SQL refs import and resolve, every input table is one the
    driver registers, every oracle key resolves to a query,
    never-driver-checked entries lead (in one contiguous block), and
    the flagships follow immediately after that block — inside the
    50-slot window whenever saturation permits.  No Ray session."""
    import importlib.util
    from pathlib import Path

    import __ray_entry__ as E

    spec = importlib.util.spec_from_file_location(
        "check_oracle",
        Path(__file__).resolve().parents[1] / "scripts" / "check_oracle.py")
    check_oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_oracle)
    names = [row.name for row in E._QUERIES]
    assert len(names) == len(set(names))
    for row in E._QUERIES:
        assert callable(row.op) or callable(E._resolve(row.op)), row.name
        assert callable(row.src) or row.src == "sf_dir" \
            or row.src in check_oracle.TABLES, row.name
        if row.sql is not None and E._REF.fullmatch(row.sql):
            ref = E._resolve(row.sql)
            assert isinstance(ref, str) or callable(ref), row.name

    q = list(E.queries())
    o = E.oracle_sql()
    assert sorted(q) == sorted(names)
    assert set(o) <= set(q)
    seen = E._driver_checked()
    never = [k for k in q if k not in seen]
    # contiguous leading block of never-checked entries
    assert q[:len(never)] == never
    # flagships come right after (so they re-enter the window as soon
    # as rotation frees slots)
    after = q[len(never):len(never) + len(E._FLAGSHIPS)]
    assert set(after) == set(E._FLAGSHIPS) or len(never) == 0
    # rows-only entries inside the window are either awaiting their
    # first driver row (the window IS how they get one) or the
    # golden-parity KG/media legacy set
    legacy = {
        "kg_triples", "kg_quarantine", "kg_mentions", "kg_link_edges",
        "kg_assignment", "kg_canonical_store", "kg_canonical_staged",
        "kg_canonical_fused", "media_features", "media_png_features",
        "media_frames", "media_resize", "media_frame_features",
        "media_jpeg_features", "media_wav_features"}
    for k in q[:50]:
        if k not in o:
            assert k not in seen or k in legacy, k


def test_png_codec_roundtrip_and_filters():
    from kgruntime.ops.png import decode_png, encode_png

    rng = np.random.RandomState(3)
    for shape in [(5, 7, 3), (48, 64, 3), (9, 4, 4)]:
        img = rng.randint(0, 256, shape).astype(np.uint8)
        assert np.array_equal(decode_png(encode_png(img)), img)
    with pytest.raises(ValueError):
        decode_png(b"not a png at all")


def test_media_decoder_real_png_path(ray_session):
    import ray.data as rd

    from kgruntime.ops.media import (MediaDecoder, decode_features,
                                     synth_png_table)
    from kgruntime.ops.png import decode_png

    refs = [f"media://png-{i}" for i in range(10)]
    t = synth_png_table(refs, w=16, h=12)
    # the feature vector is derived from ACTUAL pixels: channel means
    # match an independent decode
    dec = MediaDecoder(feat_dim=8)
    f0 = dec._decode(t["payload"][0].as_py(), "image")
    img = decode_png(t["payload"][0].as_py()).astype(np.float32)
    assert abs(f0[0] - img[:, :, 0].mean() / 255.0) < 1e-6
    assert abs(f0[1] - img[:, :, 0].std() / 255.0) < 1e-6
    out = decode_features(rd.from_arrow(t), feat_dim=8).to_pandas()
    assert len(out) == 10
    assert all(len(v) == 8 for v in out["features"])
