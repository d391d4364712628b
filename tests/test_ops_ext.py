"""Unit tests for the round-2 extension operators: as-of join, band
(interval) join, grouped quantiles, grouped mode, hopping windows, and
per-user gap stats."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _ts(s):
    return pd.Timestamp(s).to_datetime64()


def test_asof_join_basic(ray_session):
    import ray.data as rd

    from kgruntime.ops.asof import asof_join

    left = rd.from_arrow(pa.table({
        "lid": [1, 2, 3, 4],
        "k": [10, 10, 10, 20],
        "t": pa.array([100, 250, 50, 100], pa.int64()),
    }))
    right = rd.from_arrow(pa.table({
        "k": [10, 10, 20],
        "t": pa.array([100, 200, 999], pa.int64()),
        "payload": [7.0, 8.0, 9.0],
    }))
    out = asof_join(left, right, by="k", on="t", how="left") \
        .to_pandas().sort_values("lid").reset_index(drop=True)
    # lid=1: exact match t=100 -> 7; lid=2: t=250 -> latest ≤ is 200 -> 8
    # lid=3: t=50 -> no prior -> NaN; lid=4: k=20 t=100 < 999 -> NaN
    assert list(out["lid"]) == [1, 2, 3, 4]
    assert out["payload"].tolist()[:2] == [7.0, 8.0]
    assert np.isnan(out["payload"].iloc[2]) and np.isnan(out["payload"].iloc[3])

    inner = asof_join(left, right, by="k", on="t", how="inner") \
        .to_pandas().sort_values("lid").reset_index(drop=True)
    assert list(inner["lid"]) == [1, 2]
    assert inner["lid"].dtype == np.int64  # no float promotion leaks out


def test_asof_join_unique_right_keeps_max(ray_session):
    import ray.data as rd

    from kgruntime.ops.asof import asof_join

    left = rd.from_arrow(pa.table({
        "lid": [1], "k": [5], "t": pa.array([10], pa.int64())}))
    right = rd.from_arrow(pa.table({
        "k": [5, 5], "t": pa.array([10, 10], pa.int64()),
        "payload": [3.0, 4.0]}))   # duplicate (k, t): max payload wins
    out = asof_join(left, right, by="k", on="t", how="inner").to_pandas()
    assert out["payload"].tolist() == [4.0]


def test_band_join_edges(ray_session):
    import ray.data as rd

    from kgruntime.ops.asof import band_join

    bands = pa.table({"band": ["a", "b"], "lo": [0.0, 10.0],
                      "hi": [10.0, 20.0]})
    ds = rd.from_arrow(pa.table({
        "x": [0.0, 9.99, 10.0, 19.99, 20.0, -0.01]}))
    out = band_join(ds, bands, value_col="x").to_pandas() \
        .sort_values("x").reset_index(drop=True)
    # lo inclusive, hi exclusive; 20.0 and -0.01 dropped
    assert out["x"].tolist() == [0.0, 9.99, 10.0, 19.99]
    assert out["band"].tolist() == ["a", "a", "b", "b"]

    overlapping = pa.table({"band": ["a", "b"], "lo": [0.0, 5.0],
                            "hi": [10.0, 20.0]})
    with pytest.raises(ValueError):
        band_join(ds, overlapping, value_col="x")


def test_grouped_quantiles_matches_numpy(ray_session):
    import ray.data as rd

    from kgruntime.ops.stats import grouped_quantiles

    rng = np.random.RandomState(7)
    vals_a = np.round(rng.uniform(0, 50, 101), 2)
    vals_b = np.round(rng.uniform(0, 9, 40), 2)
    ds = rd.from_arrow(pa.table({
        "k": ["a"] * 101 + ["b"] * 40,
        "v": np.concatenate([vals_a, vals_b]),
    })).repartition(4)
    out = grouped_quantiles(ds, key="k", value_col="v",
                            qs=(0.5, 0.9), names=("p50", "p90"))
    for k, vals in (("a", vals_a), ("b", vals_b)):
        row = out[out["k"] == k].iloc[0]
        cents = np.round(vals * 100).astype(np.int64)
        for q, name in ((0.5, "p50"), (0.9, "p90")):
            expect = round(float(np.percentile(cents, q * 100,
                                               method="linear")) / 100, 6)
            assert abs(row[name] - expect) < 1e-9, (k, name)


def test_grouped_mode_tie_breaks_lexical(ray_session):
    import ray.data as rd

    from kgruntime.ops.stats import grouped_mode

    ds = rd.from_arrow(pa.table({
        "k": [1, 1, 1, 1, 2, 2],
        "c": ["zz", "zz", "aa", "aa", "mm", "zz"],
    })).repartition(3)
    out = grouped_mode(ds, key="k", cat_col="c").to_pandas() \
        .sort_values("k").reset_index(drop=True)
    # k=1: tie 2-2 -> lexicographically smallest "aa"; k=2: tie -> "mm"
    assert out["top_cat"].tolist() == ["aa", "mm"]
    assert out["n"].tolist() == [2, 1]


def test_hopping_windows_boundary(ray_session):
    import ray.data as rd

    from kgruntime.ops.sessions import hopping_windows

    ds = rd.from_arrow(pa.table({
        "event_type": ["x"],
        "ts": pa.array([_ts("2024-01-01 05:30:00")]),
        "value": [2.0],
    }))
    out = hopping_windows(ds, size_hours=2, hop_hours=1).to_pandas() \
        .sort_values("window_start").reset_index(drop=True)
    # one event -> exactly the 04:00 and 05:00 windows
    assert len(out) == 2
    assert [str(w) for w in out["window_start"]] == \
        ["2024-01-01 04:00:00", "2024-01-01 05:00:00"]
    assert out["n_events"].tolist() == [1, 1]
    assert out["total_value"].tolist() == [2.0, 2.0]


def test_user_gap_stats_single_event_user(ray_session):
    import ray.data as rd

    from kgruntime.ops.sessions import user_gap_stats

    ds = rd.from_arrow(pa.table({
        "user_id": [1, 1, 1, 2],
        "event_id": [1, 2, 3, 4],
        "ts": pa.array([_ts("2024-01-01 00:00:00"),
                        _ts("2024-01-01 00:00:10"),
                        _ts("2024-01-01 00:01:10"),
                        _ts("2024-01-01 00:00:00")]),
    }))
    out = user_gap_stats(ds).to_pandas()
    assert out["user_id"].tolist() == [1]   # user 2 has no gaps
    assert out["n_gaps"].tolist() == [2]
    assert out["avg_gap_sec"].tolist() == [35.0]
    assert out["max_gap_sec"].tolist() == [60.0]


def test_ivf_topk_recall(ray_session):
    import ray.data as rd

    from kgruntime.ops.ann import brute_force_topk, ivf_topk

    rng = np.random.RandomState(3)
    n, dim = 400, 16
    emb = rng.randn(n, dim)
    ds = rd.from_arrow(pa.table({
        "vec_id": np.arange(n, dtype=np.int64),
        "embedding": list(emb),
    })).repartition(4)
    q_ids = list(range(8))
    q = emb[:8]
    exact = brute_force_topk(ds, q, q_ids, k=5).to_pandas()
    approx = ivf_topk(ds, q, q_ids, k=5,
                      n_centroids=8, n_probe=4).to_pandas()
    exact_pairs = set(zip(exact["query_id"], exact["neighbor_id"]))
    approx_pairs = set(zip(approx["query_id"], approx["neighbor_id"]))
    recall = len(exact_pairs & approx_pairs) / len(exact_pairs)
    assert recall >= 0.5, recall
    # determinism: a second run reproduces the same result exactly
    again = ivf_topk(ds, q, q_ids, k=5,
                     n_centroids=8, n_probe=4).to_pandas()
    assert approx_pairs == set(zip(again["query_id"], again["neighbor_id"]))


def test_grouped_corr_matches_numpy(ray_session):
    import ray.data as rd

    from kgruntime.ops.stats import grouped_corr

    rng = np.random.RandomState(7)
    n = 500
    key = rng.choice(["a", "b"], n)
    x = rng.randint(1, 51, n).astype(float)
    y = (x * 3.0 + rng.randn(n) * 10.0).round(2)
    ds = rd.from_arrow(pa.table({"k": key, "x": x, "y": y})).repartition(4)
    out = grouped_corr(ds, "k", "x", "y", x_scale=1, y_scale=100,
                       out="corr")
    assert out["k"].tolist() == ["a", "b"]
    for k in ["a", "b"]:
        m = key == k
        expect = np.corrcoef(np.round(x[m]),
                             np.round(y[m] * 100))[0, 1]
        got = float(out.loc[out["k"] == k, "corr"].iloc[0])
        assert abs(got - expect) < 1e-6, (k, got, expect)


def test_running_user_totals_order(ray_session):
    import ray.data as rd

    from kgruntime.ops.sessions import running_user_totals

    ds = rd.from_arrow(pa.table({
        "user_id": [1, 1, 1, 2],
        "event_id": [3, 1, 2, 9],
        "ts": pa.array([_ts("2024-01-01 00:00:30"),
                        _ts("2024-01-01 00:00:10"),
                        _ts("2024-01-01 00:00:20"),
                        _ts("2024-01-01 00:00:00")]),
        "value": [1.25, 2.00, 0.50, 4.00],
    }))
    out = running_user_totals(ds).to_pandas() \
        .sort_values(["user_id", "event_id"]).reset_index(drop=True)
    # user 1 in ts order: 2.00, +0.50, +1.25 → cum by event_id 1,2,3 =
    # 200, 250, 375
    assert out["cum_value_cents"].tolist() == [200, 250, 375, 400]


def test_term_frequencies_counts(ray_session):
    import ray.data as rd

    from kgruntime.ops.text import term_frequencies

    ds = rd.from_arrow(pa.table({
        "text": ["b a a", "a  b", "c"],
    })).repartition(3)
    out = term_frequencies(ds, top_n=2).to_pandas()
    assert out["word"].tolist() == ["a", "b"]
    assert out["cnt"].tolist() == [3, 2]


def test_vocab_per_lang(ray_session):
    import ray.data as rd

    from kgruntime.ops.text import vocab_per_lang

    ds = rd.from_arrow(pa.table({
        "text": ["a b a", "b c", "x  y"],
        "lang": ["en", "en", "fr"],
    })).repartition(2)
    out = vocab_per_lang(ds).to_pandas().sort_values("lang")
    assert out["lang"].tolist() == ["en", "fr"]
    assert out["vocab_size"].tolist() == [3, 2]


def test_stratified_sample_deterministic(ray_session):
    import ray.data as rd

    from kgruntime.ops.sample import _KNUTH, _M32, stratified_sample

    n = 1000
    ds = rd.from_arrow(pa.table({
        "doc_id": np.arange(n, dtype=np.int64),
        "lang": ["en" if i % 2 == 0 else "fr" for i in range(n)],
    })).repartition(4)
    rates = {"en": 0.5, "fr": 0.1}
    out = stratified_sample(ds, rates, key_col="doc_id") \
        .to_pandas().sort_values("doc_id")
    # exact replication of the predicate
    expect = [i for i in range(n)
              if (i * _KNUTH) % _M32 <
              int(rates["en" if i % 2 == 0 else "fr"] * _M32)]
    assert out["doc_id"].tolist() == expect
    # roughly the requested rates
    n_en = sum(1 for i in expect if i % 2 == 0)
    assert 0.4 < n_en / (n / 2) < 0.6


def _grouped_topk_ref(t: pa.Table, k: int, descending: bool):
    """(k, id, rnk) of each key's first k rows under (v, id ASC), by
    one stable sort of the whole table."""
    df = t.to_pandas().sort_values(["k", "v", "id"],
                                   ascending=[True, not descending, True],
                                   kind="mergesort")
    df = df.groupby("k", sort=True).head(k).reset_index(drop=True)
    df["rnk"] = df.groupby("k").cumcount() + 1
    return list(df[["k", "id", "rnk"]].itertuples(index=False, name=None))


def test_grouped_topk_partial_and_ties(ray_session):
    """Each key's first k rows by (v, tie ASC) against one sorted
    reference: value ties within and across blocks, int and float
    values both ways, an int and a string tie column, an empty
    input."""
    import ray.data as rd

    from kgruntime.ops.stats import grouped_topk

    def got(ds, k, descending=True):
        out = grouped_topk(ds, key="k", val="v", k=k, tie_col="id",
                           descending=descending)
        rows = out.take_all()
        return sorted((r["k"], r["id"], r["rnk"]) for r in rows)

    rng = np.random.default_rng(7)
    n = 500
    t = pa.table({
        "k": rng.integers(0, 5, n),
        "v": np.round(rng.random(n) * 10, 1),  # plenty of value ties
        "id": np.arange(n, dtype=np.int64),
    })
    out = grouped_topk(rd.from_arrow(t).repartition(8), key="k", val="v",
                       k=3, tie_col="id").to_pandas()
    assert out["rnk"].dtype == np.int64
    assert sorted(zip(out["k"], out["id"], out["rnk"])) == \
        sorted(_grouped_topk_ref(t, 3, True))

    # four 60-row blocks over 3 keys × 6 values: every cut falls inside
    # a value tie that spans the blocks
    for kind in ("int", "float", "str"):
        parts = []
        for b in range(4):
            v = rng.integers(-3, 3, 60)
            ids = rng.permutation(1000)[:60] + 1000 * b
            parts.append(pa.table({
                "k": rng.integers(0, 3, 60),
                "v": v if kind != "float" else v * 0.5,
                "id": ids.astype(str) if kind == "str" else ids}))
        whole = pa.concat_tables(parts)
        for desc in (True, False):
            for k in (1, 4):
                assert got(rd.from_arrow(parts), k, desc) == \
                    sorted(_grouped_topk_ref(whole, k, desc)), \
                    (kind, desc, k)

    empty = pa.table({"k": pa.array([], pa.int64()),
                      "v": pa.array([], pa.float64()),
                      "id": pa.array([], pa.int64())})
    assert got(rd.from_arrow(empty), 3) == []


def test_label_centroids_matches_numpy(ray_session):
    import ray.data as rd

    from kgruntime.ops.ann import label_centroids

    rng = np.random.default_rng(3)
    n, dim = 120, 8
    vecs = rng.normal(size=(n, dim)).astype(np.float32)
    labels = rng.integers(0, 3, n).astype(np.int32)
    t = pa.table({
        "label": labels,
        "embedding": pa.array(list(vecs), pa.list_(pa.float32())),
    })
    out = label_centroids(rd.from_arrow(t).repartition(5))

    units = np.copysign(np.floor(np.abs(vecs.astype(np.float64)) * 1e6
                                 + 0.5), vecs).astype(np.int64)
    for lab in np.unique(labels):
        m = units[labels == lab].sum(axis=0) / \
            ((labels == lab).sum() * 1e6)
        got = out[out["label"] == lab].sort_values("i")["centroid"] \
            .to_numpy()
        expect = np.copysign(np.floor(np.abs(m) * 1e6 + 0.5), m) / 1e6
        assert np.array_equal(got, expect)
    assert out["label"].dtype == np.int32 and out["i"].dtype == np.int64


def test_clean_corpus_filters_then_dedups(ray_session):
    import ray.data as rd

    from kgruntime.ops.text import clean_corpus

    good = ("the quick brown fox jumps over the lazy dog and keeps "
            "running through fields of green grass all day long " * 3)
    t = pa.table({
        "doc_id": pa.array([5, 2, 9, 1, 7], pa.int64()),
        "text": [good, good, "x", good, "!!! ### $$$ %%% ^^^ &&&"],
        "n_chars": pa.array([len(good), len(good), 1, len(good), 23],
                            pa.int64()),
    })
    out = clean_corpus(rd.from_arrow(t).repartition(3)).to_pandas() \
        .sort_values("keep_id").reset_index(drop=True)
    # doc 9 fails min_chars, doc 7 fails quality; the three copies of
    # `good` collapse to keep_id=1 with n_copies=3
    assert out["keep_id"].tolist() == [1]
    assert out["n_copies"].tolist() == [3]
    assert (out["quality"] >= 0.5).all()


def test_token_budget_shards_matches_window(ray_session, monkeypatch):
    import ray.data as rd

    from kgruntime.ops import shard
    from kgruntime.ops.shard import token_budget_shards

    monkeypatch.setattr(shard, "_SCAN_BUCKET", 2)

    texts = ["a b c", "", "d e", "f g h i j", "k", "l m n o p q r s"]
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(6), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }))
    out = token_budget_shards(docs, budget=4) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    n = np.array([3, 0, 2, 5, 1, 8])
    starts = np.cumsum(n) - n
    assert out["n_tokens"].tolist() == n.tolist()
    assert out["shard_id"].tolist() == (starts // 4).tolist()


def test_repetition_scores_values(ray_session):
    from kgruntime.ops.text import repetition_scores

    t = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": ["x x x y", "a b c d", ""],
    })
    out = repetition_scores(t).to_pylist()
    # doc 0: 4 tokens, 2 distinct, top=3/4, bigrams: "x x","x x","x y"
    assert out[0] == {"doc_id": 0, "n_tokens": 4, "distinct_ratio": 0.5,
                      "top_word_frac": 0.75, "dup_2gram_frac": 0.333333}
    assert out[1]["distinct_ratio"] == 1.0
    assert out[1]["dup_2gram_frac"] == 0.0
    assert out[2]["n_tokens"] == 0 and out[2]["top_word_frac"] == 0.0


def test_contamination_check_hits(ray_session):
    import ray.data as rd

    from kgruntime.ops.text import contamination_check

    # doc 0 is the eval doc (0 % 3 == 0 with every=3); doc 1 repeats its
    # text (full contamination), doc 2 shares nothing
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": ["one two three", "one two three", "alpha beta gamma"],
    }))
    out = contamination_check(docs, every=3, n=8).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert out["doc_id"].tolist() == [1, 2]     # eval doc excluded
    assert out["contam_frac"].tolist() == [1.0, 0.0]


def test_tfidf_doc_terms_ranks(ray_session):
    import math

    import ray.data as rd

    from kgruntime.ops.text import tfidf_doc_terms

    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": ["cat cat dog", "dog fish"],
    }))
    out = tfidf_doc_terms(docs, k=2).to_pandas() \
        .sort_values(["doc_id", "rnk"]).reset_index(drop=True)
    # 'dog' appears in both docs -> idf 0; cat/fish are doc-unique
    d0 = out[out["doc_id"] == 0]
    assert d0.iloc[0]["word"] == "cat"
    assert d0.iloc[0]["tfidf"] == round(2 * math.log(2), 6)
    assert d0.iloc[1]["word"] == "dog" and d0.iloc[1]["tfidf"] == 0.0
    d1 = out[out["doc_id"] == 1]
    assert d1.iloc[0]["word"] == "fish"


def test_fingerprint_sql_parity():
    import duckdb

    from kgruntime.ops.text import FINGERPRINTS_SQL, fingerprint_tokens

    texts = ["hello world", "", "héllo wörld rép", "a", "one one one"]
    con = duckdb.connect()
    con.execute("CREATE TABLE documents AS SELECT * FROM (VALUES " +
                ", ".join(f"({i}, '{t}')" for i, t in enumerate(texts)) +
                ") v(doc_id, text)")
    out = con.sql(FINGERPRINTS_SQL).df()
    for i, t in enumerate(texts):
        assert out["fingerprint"][i] == fingerprint_tokens(t.split())
        assert out["prefix_fingerprint"][i] == \
            fingerprint_tokens(t.split()[:32])


def test_chunk_documents_windows(ray_session):
    import ray.data as rd

    from kgruntime.ops.text import chunk_documents

    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": ["w0 w1 w2 w3 w4 w5 w6", "solo", ""],
    }))
    out = chunk_documents(docs, size=4, stride=3).to_pandas() \
        .sort_values(["doc_id", "chunk_id"]).reset_index(drop=True)
    # doc 0: 7 tokens -> windows at 0,3,6 -> lengths 4,4,1
    d0 = out[out["doc_id"] == 0]
    assert d0["chunk_id"].tolist() == [0, 1, 2]
    assert d0["n_tokens"].tolist() == [4, 4, 1]
    assert d0["chunk_text"].tolist() == ["w0 w1 w2 w3", "w3 w4 w5 w6", "w6"]
    # doc 1: a single short chunk; doc 2 (empty) emits nothing
    d1 = out[out["doc_id"] == 1]
    assert d1["chunk_text"].tolist() == ["solo"] and \
        d1["n_tokens"].tolist() == [1]
    assert (out["doc_id"] == 2).sum() == 0


def test_bigram_counts_top_and_ties(ray_session):
    import ray.data as rd

    from kgruntime.ops.text import bigram_counts

    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": ["a b a b c", "a b z"],
    }))
    out = bigram_counts(docs, top_n=3).to_pandas().reset_index(drop=True)
    # pairs: (a,b)x3, (b,a)x1, (b,c)x1, (b,z)x1 — ties break (w1,w2) asc,
    # and no pair crosses the doc boundary (c->a is absent)
    assert out.iloc[0][["w1", "w2", "cnt"]].tolist() == ["a", "b", 3]
    assert out.iloc[1][["w1", "w2"]].tolist() == ["b", "a"]
    assert out.iloc[2][["w1", "w2"]].tolist() == ["b", "c"]


def test_minhash_dup_clusters_transitive(ray_session):
    import ray.data as rd

    from kgruntime.ops.dedup import minhash_dup_clusters

    base = ("the quick brown fox jumps over the lazy dog and then runs "
            "far away into the deep dark woods tonight")
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": [base, base + " extra", base + " extra word",
                 "completely different text about nothing at all here"],
    }))
    out = minhash_dup_clusters(docs, threshold=0.5).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    # 0~1~2 form one component labeled by the min member; 3 is absent
    assert set(out["doc_id"]) <= {0, 1, 2}
    assert (out["cluster_id"] == 0).all()
    assert len(out) >= 2


def test_split_assign_deterministic_and_partition(ray_session):
    import ray.data as rd

    from kgruntime.ops.sample import split_assign

    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(200), pa.int64()),
        "lang": ["en"] * 200,
    }))
    out = split_assign(docs).to_pandas().sort_values("doc_id") \
        .reset_index(drop=True)
    out2 = split_assign(docs).to_pandas().sort_values("doc_id") \
        .reset_index(drop=True)
    assert out.equals(out2)                       # retry-stable
    assert set(out["split"]) <= {"train", "val", "test"}
    assert len(out) == 200                        # every doc assigned
    # roughly the requested mix (hash-uniform, wide tolerance)
    assert (out["split"] == "train").mean() > 0.6


def test_source_mix_weights_math(ray_session):
    import ray.data as rd

    from kgruntime.ops.text import source_mix_weights

    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "source": ["a", "a", "b"],
        "text": ["w x y", "z", "p q"],
    }))
    out = source_mix_weights(docs)
    a = out[out["source"] == "a"].iloc[0]
    b = out[out["source"] == "b"].iloc[0]
    assert a["n_docs"] == 2 and a["n_tokens"] == 4
    assert b["n_docs"] == 1 and b["n_tokens"] == 2
    assert abs(a["token_share"] - 4 / 6) < 1e-6
    # uniform target: rate_a*weight_a tokens == rate_b*weight_b tokens
    assert abs(a["n_tokens"] * a["weight"] -
               b["n_tokens"] * b["weight"]) < 1e-4


def test_near_dedup_corpus_keeps_reps(ray_session):
    import ray.data as rd

    from kgruntime.ops.dedup import near_dedup_corpus

    base = ("the quick brown fox jumps over the lazy dog and then runs "
            "far away into the deep dark woods tonight")
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": [base, base + " extra", base + " extra word",
                 "completely different text about nothing at all here"],
        "lang": ["en"] * 4,
        "source": ["s"] * 4,
    }))
    out = near_dedup_corpus(docs, threshold=0.5).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    kept = set(out["doc_id"])
    assert 0 in kept and 3 in kept        # cluster rep + unclustered doc
    assert kept.isdisjoint({1, 2})        # near-dups of 0 removed


def test_event_transitions_counts(ray_session):
    import ray.data as rd

    from kgruntime.ops.sessions import event_transitions

    ds = rd.from_arrow(pa.table({
        "user_id": [1, 1, 1, 2, 2, 3],
        "event_id": [1, 2, 3, 4, 5, 6],
        "event_type": ["view", "click", "view", "view", "click", "view"],
        "ts": pa.array([_ts("2024-01-01 00:00:00"),
                        _ts("2024-01-01 00:01:00"),
                        _ts("2024-01-01 00:02:00"),
                        _ts("2024-01-01 00:00:00"),
                        _ts("2024-01-01 00:01:00"),
                        _ts("2024-01-01 00:00:00")]),
    }))
    out = event_transitions(ds).to_pandas() \
        .sort_values(["from_type", "to_type"]).reset_index(drop=True)
    # user1: view->click, click->view; user2: view->click; user3: none
    assert out[["from_type", "to_type"]].values.tolist() == \
        [["click", "view"], ["view", "click"]]
    assert out["n_pairs"].tolist() == [1, 2]


def test_funnel_counts_ordered_reach(ray_session):
    import ray.data as rd

    from kgruntime.ops.sessions import funnel_counts

    # u1 reaches all 3 in order; u2 purchase BEFORE click -> depth 2;
    # u3 never views -> depth 0; u4 view only -> depth 1
    ds = rd.from_arrow(pa.table({
        "user_id": [1, 1, 1, 2, 2, 2, 3, 4],
        "event_type": ["view", "click", "purchase",
                       "view", "purchase", "click",
                       "purchase", "view"],
        "ts": pa.array([_ts(f"2024-01-01 00:0{i}:00") for i in
                        [0, 1, 2, 0, 1, 2, 0, 0]]),
    }))
    out = funnel_counts(ds).to_pandas() \
        .sort_values("stage_idx").reset_index(drop=True)
    assert out["stage"].tolist() == ["view", "click", "purchase"]
    assert out["n_users"].tolist() == [3, 2, 1]


def test_retention_cohorts_offsets(ray_session):
    import ray.data as rd

    from kgruntime.ops.sessions import retention_cohorts

    # u1 active day0+day2 (two events day0 dedup); u2 joins day1
    ds = rd.from_arrow(pa.table({
        "user_id": [1, 1, 1, 2],
        "ts": pa.array([_ts("2024-01-01 01:00:00"),
                        _ts("2024-01-01 23:00:00"),
                        _ts("2024-01-03 05:00:00"),
                        _ts("2024-01-02 00:00:00")]),
    }))
    out = retention_cohorts(ds).to_pandas() \
        .sort_values(["cohort_day", "day_offset"]).reset_index(drop=True)
    d0 = 19723  # 2024-01-01 in days-since-epoch
    assert out[["cohort_day", "day_offset"]].values.tolist() == \
        [[d0, 0], [d0, 2], [d0 + 1, 0]]
    assert out["n_users"].tolist() == [1, 1, 1]


def test_pack_sequences_budget_boundaries(ray_session):
    import ray.data as rd

    from kgruntime.ops.shard import pack_sequences

    # budget 5 tokens: docs of 3,3,2,4 tokens -> starts 0,3,6,8 ->
    # shards 0,0,1,1
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": ["a b c", "d e f", "g h", "i j k l"],
    }))
    out = pack_sequences(ds, budget=5).to_pandas() \
        .sort_values("shard_id").reset_index(drop=True)
    assert out["shard_id"].tolist() == [0, 1]
    assert out["packed"].tolist() == ["a b c d e f", "g h i j k l"]
    assert out["n_tokens"].tolist() == [6, 6]


def test_zscore_by_source_exact(ray_session):
    import ray.data as rd

    from kgruntime.ops.stats import zscore_by_source

    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "source": ["s1", "s1", "s1", "lone"],
        "n_chars": pa.array([10, 20, 30, 5], pa.int64()),
    }))
    out = zscore_by_source(ds).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert out["zscore"].tolist() == [-1.0, 0.0, 1.0, 0.0]  # std=10; n=1->0


def test_langid_mismatch_rollup(ray_session):
    import ray.data as rd

    from kgruntime.ops.text import langid_mismatch_by_source

    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": ["the thing and the other thing", "el que de la los"],
        "lang": ["en", "en"],     # second doc mislabeled
        "source": ["s"] * 2,
    }))
    out = langid_mismatch_by_source(ds).to_pandas()
    assert out["n_docs"].tolist() == [2]
    assert out["n_mismatch"].tolist() == [1]
    assert out["mismatch_rate"].tolist() == [0.5]


def test_dup_rate_by_source(ray_session):
    import ray.data as rd

    from kgruntime.ops.dedup import dup_rate_by_source

    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "source": ["s1", "s1", "s1", "s2"],
        "text": ["x", "x", "y", "z"],
        "lang": ["en"] * 4,
        "n_chars": pa.array([1] * 4, pa.int64()),
    }))
    out = dup_rate_by_source(ds).to_pandas() \
        .sort_values("source").reset_index(drop=True)
    assert out["n_docs"].tolist() == [3, 1]
    assert out["n_distinct"].tolist() == [2, 1]
    assert out["dup_rate"].tolist() == [0.333333, 0.0]


def test_doc_rarity_scores_exact(ray_session):
    import ray.data as rd

    from kgruntime.ops.text import doc_rarity_scores

    # freqs: a=3, b=2, c=1 -> doc0 "a b" mean=(3+2)/2, doc1 "a a b c"=(3+3+2+1)/4
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": ["a b", "a a b c"],
    }))
    out = doc_rarity_scores(ds).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert out["sum_freq"].tolist() == [5, 9]
    assert out["mean_token_freq"].tolist() == [2.5, 2.25]


def test_hll_distinct_accuracy_and_merge_invariance(ray_session):
    import ray.data as rd

    from kgruntime.ops.sketch import hll_distinct

    n = 1000
    t = pa.table({
        "event_type": ["a"] * n + ["b"] * n,
        "user_id": pa.array(list(range(n)) + [i % 37 for i in range(n)],
                            pa.int64()),
    })
    out1 = hll_distinct(rd.from_arrow(t))
    # different block layout -> identical registers (merge-invariant)
    out2 = hll_distinct(rd.from_arrow(t).repartition(7))
    assert out1.equals(out2)
    est = dict(zip(out1["event_type"], out1["est_distinct"]))
    assert abs(est["a"] - 1000) / 1000 < 0.4     # m=64 -> ~13% stderr
    assert abs(est["b"] - 37) / 37 < 1.5         # raw estimator, small-n bias


def test_raw_image_resize_bilinear_exact(ray_session):
    import ray.data as rd

    from kgruntime.ops.media import (MEDIA_SCHEMA, RawImageOps,
                                     resize_raw_images, synth_raw_images)

    # 2x2 -> 1x1 bilinear (align_corners=False) = mean of the 4 pixels
    img = np.array([[[0, 0, 0], [100, 0, 0]],
                    [[0, 200, 0], [100, 200, 0]]], np.uint8)
    ops = RawImageOps(out_w=1, out_h=1)
    small = ops.resize(img)
    assert small.reshape(3).tolist() == [50, 100, 0]
    # identity resize reproduces the image exactly
    ops2 = RawImageOps(out_w=2, out_h=2)
    assert np.array_equal(ops2.resize(img), img)

    # end-to-end through the Dataset stage on synthetic raw images
    t = synth_raw_images([f"m{i}" for i in range(6)], width=8, height=6)
    assert t.schema.equals(MEDIA_SCHEMA)
    out = resize_raw_images(rd.from_arrow(t), out_w=4, out_h=3) \
        .to_pandas().sort_values("media_ref").reset_index(drop=True)
    assert len(out) == 6
    assert all(len(p) == 4 * 3 * 3 for p in out["payload"])
    # gradient means: R ramps over x -> mean ~127.5, G over y
    assert abs(out["channel_mean"][0][0] - 127.5) < 20


def test_blocklist_filter_counts_and_gate(ray_session):
    import ray.data as rd

    from kgruntime.ops.text import blocklist_filter

    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": ["clean doc here", "one spark mention", "spark slow spark",
                 "sparkly unspark"],   # substrings don't count
        "lang": ["en"] * 4,
        "source": ["s"] * 4,
    }))
    out = blocklist_filter(docs, blocklist=("spark", "slow"),
                           max_hits=1).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert out["doc_id"].tolist() == [0, 1, 3]    # doc 2 gated (3 hits)
    assert out["n_hits"].tolist() == [0, 1, 0]


def test_blocklist_adjacent_repeats_globalreplace_semantics(ray_session):
    import ray.data as rd

    from kgruntime.ops.text import blocklist_filter

    # "slow slow": GlobalReplace consumes the boundary -> ONE match
    # (the count the DuckDB oracle sees), not two overlapping ones
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([0], pa.int64()),
        "text": ["slow slow"],
        "lang": ["en"], "source": ["s"],
    }))
    out = blocklist_filter(docs, blocklist=("slow",), max_hits=9) \
        .to_pandas()
    assert out["n_hits"].tolist() == [1]


def test_redact_terms_masks_and_counts(ray_session):
    import ray.data as rd

    from kgruntime.ops.text import redact_terms

    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": ["keep spark here", "slow slow spark"],
        "lang": ["en"] * 2, "source": ["s"] * 2,
    }))
    out = redact_terms(docs, terms=("spark", "slow"), mask="[X]") \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert out["redacted"].tolist() == \
        ["keep [X] here", "[X] slow [X]"]   # 2nd "slow" boundary consumed
    assert out["n_redacted"].tolist() == [1, 2]


def test_value_deciles_tie_stable(ray_session):
    import ray.data as rd

    from kgruntime.ops.stats import value_deciles

    # 10 rows, values with ties: all rows sharing a value share a bucket
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(list(range(10)), pa.int64()),
        "n_chars": pa.array([5, 5, 5, 7, 7, 9, 11, 13, 15, 17], pa.int64()),
    }))
    out = value_deciles(ds).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    # c_lt: 5->0, 7->3, 9->5, 11->6, 13->7, 15->8, 17->9
    assert out["bucket"].tolist() == [0, 0, 0, 3, 3, 5, 6, 7, 8, 9]


# --- property tests for the packing / decile / sketch ops ---

from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=8, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1,
                max_size=40),
       st.integers(min_value=1, max_value=15))
def test_pack_sequences_matches_sequential_reference(ray_session, tok_counts,
                                                     budget):
    import ray.data as rd

    from kgruntime.ops import shard
    from kgruntime.ops.shard import pack_sequences

    texts = [" ".join(["w"] * n) for n in tok_counts]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(list(range(len(texts))), pa.int64()),
        "text": texts,
    }))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shard, "_SCAN_BUCKET", 7)
        out = pack_sequences(ds, budget=budget).to_pandas() \
            .sort_values("shard_id").reset_index(drop=True)
    # sequential reference: exclusive prefix sum // budget
    start, ref = 0, {}
    for i, n in enumerate(tok_counts):
        ref.setdefault(start // budget, []).append(i)
        start += n
    assert out["shard_id"].tolist() == sorted(ref)
    for _, row in out.iterrows():
        docs = ref[row["shard_id"]]
        assert row["n_docs"] == len(docs)
        assert row["packed"] == " ".join(texts[i] for i in docs)


@settings(max_examples=8, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1,
                max_size=60))
def test_value_deciles_reference(ray_session, vals):
    import ray.data as rd

    from kgruntime.ops.stats import value_deciles

    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(list(range(len(vals))), pa.int64()),
        "n_chars": pa.array(vals, pa.int64()),
    }))
    out = value_deciles(ds).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    n = len(vals)
    for v, b in zip(vals, out["bucket"]):
        c_lt = sum(1 for x in vals if x < v)
        assert b == (10 * c_lt) // n


def test_event_query_wrappers_survive_empty_corpus(ray_session, tmp_path):
    """Ray 2.49 drops schemas of all-empty datasets; the driver-gate
    queries pin their columns so a degenerate corpus returns an empty
    frame instead of KeyError."""
    import pyarrow.parquet as pq

    import __ray_entry__ as E

    pq.write_table(pa.table({
        "event_id": pa.array([], pa.int64()),
        "ts": pa.array([], pa.timestamp("us")),
        "user_id": pa.array([], pa.int64()),
        "event_type": pa.array([], pa.string()),
        "value": pa.array([], pa.float64()),
        "props": pa.array([], pa.string()),
    }), tmp_path / "events.parquet")
    for name in ("event_transitions", "funnel_counts", "retention_cohorts"):
        out = E.queries()[name](str(tmp_path))
        assert len(out) == 0, name


def test_event_anomalies_flags_outlier(ray_session):
    import ray.data as rd

    from kgruntime.ops.stats import event_anomalies

    vals = [10.0] * 20 + [11.0] * 20 + [500.0]   # one wild outlier
    ds = rd.from_arrow(pa.table({
        "event_id": pa.array(list(range(len(vals))), pa.int64()),
        "event_type": ["x"] * len(vals),
        "value": pa.array(vals, pa.float64()),
    }))
    out = event_anomalies(ds).to_pandas()
    assert out["event_id"].tolist() == [40]
    assert out["zscore"].iloc[0] > 3.0


def test_sorted_neighbor_overlap_boundaries_and_prefixes(ray_session):
    import ray.data as rd

    from kgruntime.ops.dedup import sorted_neighbor_overlap

    # "alpha beta gamma" run: d0 is a strict prefix of d1 (truncation
    # dup); d2 diverges after 12 chars; d3/d4 unrelated
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
        "text": ["alpha beta gamma",
                 "alpha beta gamma delta",
                 "alpha beta zzz",
                 "omega psi",
                 "zulu"],
    })).repartition(4)   # force multi-block sort -> boundary stitching
    out = sorted_neighbor_overlap(ds, min_prefix=10).to_pandas()
    got = {(a, b): c for a, b, c in
           zip(out["doc_a"], out["doc_b"], out["common_prefix_len"])}
    assert got == {(0, 1): 16, (1, 2): 11}


def test_cooccurrence_edges_pairs_and_counts(ray_session):
    import ray.data as rd

    from kgruntime.ops.sessions import cooccurrence_edges

    # hour bucket 0: users 1,2,3 (u1 twice -> dedup); bucket 1: users 1,2
    ds = rd.from_arrow(pa.table({
        "event_type": ["a"] * 5 + ["a"],
        "user_id": pa.array([1, 1, 2, 3, 1, 2], pa.int64()),
        "ts": pa.array([_ts("2024-01-01 00:05:00"),
                        _ts("2024-01-01 00:10:00"),
                        _ts("2024-01-01 00:20:00"),
                        _ts("2024-01-01 00:30:00"),
                        _ts("2024-01-01 01:05:00"),
                        _ts("2024-01-01 01:10:00")]),
    }))
    out = cooccurrence_edges(ds).to_pandas() \
        .sort_values(["user_a", "user_b"]).reset_index(drop=True)
    got = {(a, b): n for a, b, n in
           zip(out["user_a"], out["user_b"], out["n_shared"])}
    assert got == {(1, 2): 2, (1, 3): 1, (2, 3): 1}


def _ref_ranks(edges, iters, scale, damp=85, n_seeds=None):
    """Sequential integer PageRank with the SQL twins' inner-join
    semantics: a round ranks exactly the nodes that receive a
    contribution (a source that nothing points at drops out after round
    1; a dst-only node gets a rank); the teleport goes to every node, or
    to the ``n_seeds`` smallest sources only."""
    deg = {}
    for a, _ in edges:
        deg[a] = deg.get(a, 0) + 1
    seeds = sorted(deg)[:n_seeds]
    base = (scale * (100 - damp)) // (100 * len(seeds))
    r = {u: scale // len(deg) for u in deg}
    for _ in range(iters):
        s = {}
        for a, b in edges:
            if a in r:
                s[b] = s.get(b, 0) + r[a] // deg[a]
        r = {u: (base if n_seeds is None or u in seeds else 0)
             + (damp * v) // 100 for u, v in s.items()}
    return r


def _edge_ds(edges):
    import ray.data as rd

    t = pa.table({"src": pa.array([e[0] for e in edges], pa.int64()),
                  "dst": pa.array([e[1] for e in edges], pa.int64())})
    half = t.num_rows // 2
    return rd.from_arrow([t.slice(0, half), t.slice(half)])


def _ranks(out):
    return {int(u): int(r) for u, r in zip(out["user_id"].to_pylist(),
                                          out["rank_scaled"].to_pylist())}


def test_pagerank_integer_recurrence(ray_session):
    from kgruntime.ops.graph import pagerank

    # triangle 1-2-3 plus pendant 4-1 (undirected, symmetrized)
    und = [(1, 2), (2, 3), (1, 3), (1, 4)]
    edges = [(a, b) for a, b in und] + [(b, a) for a, b in und]
    r = _ref_ranks(edges, 3, 10 ** 6)
    assert _ranks(pagerank(_edge_ds(edges), iters=3, scale=10 ** 6)) == r
    assert set(r) == {1, 2, 3, 4}
    # pendant node ranks lowest, hub ranks highest
    assert r[4] < r[2] and r[1] == max(r.values())

    # directed: cycle 1→2→3→1, src-only 5→1, dst-only 3→6 and 1→6
    directed = [(1, 2), (2, 3), (3, 1), (5, 1), (3, 6), (1, 6)]
    for iters in (1, 3):
        r = _ref_ranks(directed, iters, 10 ** 6)
        assert _ranks(pagerank(_edge_ds(directed), iters=iters,
                               scale=10 ** 6)) == r
        assert 5 not in r and 6 in r


def test_personalized_pagerank_seed_without_mass(ray_session):
    """Seed 0 is a source that nothing points at: it teleports nothing
    back to itself and leaves the rank table after round 1, like any
    node that receives no contribution."""
    from kgruntime.ops.graph import personalized_pagerank

    directed = [(0, 2), (1, 2), (2, 1), (2, 3), (3, 1), (3, 7)]
    for iters in (1, 4):
        r = _ref_ranks(directed, iters, 10 ** 6, n_seeds=2)
        got = _ranks(personalized_pagerank(_edge_ds(directed), n_seeds=2,
                                           iters=iters, scale=10 ** 6))
        assert got == r
        assert 0 not in r and 1 in r and 7 in r


def test_windowed_event_dedup_burst_semantics(ray_session):
    import ray.data as rd

    from kgruntime.ops.sessions import windowed_event_dedup

    # burst at t=0,3,6 min with a 5-min window: keep 0 and 6 — the
    # suppressed t=3 row must NOT extend the window
    ds = rd.from_arrow(pa.table({
        "event_id": pa.array([1, 2, 3, 4], pa.int64()),
        "user_id": pa.array([7, 7, 7, 8], pa.int64()),
        "event_type": ["click"] * 3 + ["view"],
        "ts": pa.array([_ts("2024-01-01 00:00:00"),
                        _ts("2024-01-01 00:03:00"),
                        _ts("2024-01-01 00:06:00"),
                        _ts("2024-01-01 00:00:00")]),
    }))
    out = windowed_event_dedup(ds, window_min=5).to_pandas() \
        .sort_values("event_id").reset_index(drop=True)
    assert out["event_id"].tolist() == [1, 3, 4]
