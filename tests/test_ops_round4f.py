"""Round-4 (sixth wave) operators: exact-integer model-eval metrics
(tie-aware AUC, language-ID confusion), plus later 4f additions."""

import numpy as np
import pyarrow as pa
import pytest


# --------------------------------------------- binary_auc

def _brute_auc_ppm(scores, labels):
    """Reference tie-aware AUC over all pos×neg pairs, in exact ppm."""
    pos = [s for s, l in zip(scores, labels) if l]
    neg = [s for s, l in zip(scores, labels) if not l]
    u2 = sum(2 * (p > n) + (p == n) for p in pos for n in neg)
    return (1_000_000 * u2) // (2 * len(pos) * len(neg))


def _events_tbl(cents, types):
    return pa.table({
        "event_id": pa.array(range(len(cents)), pa.int64()),
        "event_type": pa.array(types, pa.string()),
        "value": pa.array([c / 100.0 for c in cents], pa.float64()),
    })


def test_binary_auc_matches_brute_force_with_ties(ray_session):
    import ray.data as rd

    from kgruntime.ops.evalm import binary_auc

    cents = [100, 250, 250, 250, 400, 400, 50, 999, 100, 300]
    types = ["purchase", "click", "purchase", "purchase", "click",
             "purchase", "click", "purchase", "click", "click"]
    out = binary_auc(rd.from_arrow(_events_tbl(cents, types))
                     .repartition(3))
    labels = [t == "purchase" for t in types]
    assert out["auc_ppm"][0].as_py() == _brute_auc_ppm(cents, labels)
    assert out["n_pos"][0].as_py() == 5
    assert out["n_neg"][0].as_py() == 5


def test_binary_auc_perfect_and_inverted(ray_session):
    import ray.data as rd

    from kgruntime.ops.evalm import binary_auc

    # all purchase values strictly above all click values -> AUC = 1
    out = binary_auc(rd.from_arrow(_events_tbl(
        [900, 800, 10, 20], ["purchase", "purchase", "click", "click"])))
    assert out["auc_ppm"][0].as_py() == 1_000_000
    # inverted -> AUC = 0
    out = binary_auc(rd.from_arrow(_events_tbl(
        [10, 20, 900, 800], ["purchase", "purchase", "click", "click"])))
    assert out["auc_ppm"][0].as_py() == 0


@pytest.mark.parametrize("seed", [0, 1])
def test_binary_auc_random_vs_brute(ray_session, seed):
    import ray.data as rd

    from kgruntime.ops.evalm import binary_auc

    rng = np.random.RandomState(seed)
    n = 300
    cents = rng.randint(0, 40, n).tolist()      # heavy ties
    types = [["purchase", "click"][b] for b in rng.randint(0, 2, n)]
    out = binary_auc(rd.from_arrow(_events_tbl(cents, types))
                     .repartition(5))
    labels = [t == "purchase" for t in types]
    assert out["auc_ppm"][0].as_py() == _brute_auc_ppm(cents, labels)


# --------------------------------------------- langid_confusion

def test_langid_confusion_counts_and_ppm(ray_session):
    import ray.data as rd

    from kgruntime.ops.text import LangId, langid_confusion

    docs = [
        ("the quick brown fox and the lazy dog with some water", "en"),
        ("the cat sat on the mat with the hat and the rat", "en"),
        ("le chat est sur la table avec le chien et les oiseaux", "fr"),
        ("der hund und die katze sind mit dem wasser im haus", "de"),
        ("zz qq xx vv kk jj ww yy", "en"),        # classifier -> und
    ]
    tbl = pa.table({
        "doc_id": pa.array(range(len(docs)), pa.int64()),
        "text": pa.array([d[0] for d in docs], pa.string()),
        "lang": pa.array([d[1] for d in docs], pa.string()),
    })
    out = langid_confusion(rd.from_arrow(tbl).repartition(2))
    rows = {r["lang"]: r for r in out.to_pylist()}

    clf = LangId()
    preds = [clf.classify(t) for t, _ in docs]
    trues = [l for _, l in docs]
    classes = sorted(set(preds) | set(trues))
    assert sorted(rows) == sorted(classes + ["__all__"])

    for c in classes:
        n_true = sum(t == c for t in trues)
        n_pred = sum(p == c for p in preds)
        tp = sum(p == t == c for p, t in zip(preds, trues))
        r = rows[c]
        assert (r["n_true"], r["n_pred"], r["tp"]) == (n_true, n_pred, tp)
        p_ppm = (1_000_000 * tp) // n_pred if n_pred else 0
        r_ppm = (1_000_000 * tp) // n_true if n_true else 0
        assert r["precision_ppm"] == p_ppm
        assert r["recall_ppm"] == r_ppm
        exp_f1 = ((2 * p_ppm * r_ppm) // (p_ppm + r_ppm)
                  if p_ppm + r_ppm else 0)
        assert r["f1_ppm"] == exp_f1

    overall = rows["__all__"]
    tp_all = sum(p == t for p, t in zip(preds, trues))
    acc = (1_000_000 * tp_all) // len(docs)
    assert overall["n_true"] == overall["n_pred"] == len(docs)
    assert (overall["precision_ppm"] == overall["recall_ppm"]
            == overall["f1_ppm"] == acc)
    # '__all__' sorts before every lowercase class (binary collation,
    # same on the DuckDB side)
    assert list(out["lang"])[0].as_py() == "__all__"


# --------------------------------------------- shingle_novelty

def _docs_tbl(texts):
    return pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })


def test_shingle_novelty_exact_vs_brute(ray_session, monkeypatch):
    """Exact on a 3-block input under any coarse bucket count (5, 7)."""
    import ray.data as rd

    from kgruntime.ops.dedup import shingle_novelty

    k = 3
    texts = [
        "a b c d e f",              # doc 0: all novel
        "a b c d x y",              # doc 1: shares 'a b c', 'b c d'
        "a b c d e f",              # doc 2: exact dup of 0 -> all copied
        "z z",                      # doc 3: < k tokens -> absent
        "p q r a b c",              # doc 4: 'a b c' copied
    ]
    # brute-force reference
    grams = {i: {" ".join(t.split()[j:j + k])
                 for j in range(len(t.split()) - k + 1)}
             for i, t in enumerate(texts) if len(t.split()) >= k}
    first = {}
    for i in sorted(grams):
        for g in grams[i]:
            first.setdefault(g, i)
    exp = {i: (len(gs), sum(first[g] < i for g in gs))
           for i, gs in grams.items()}
    assert exp[2][1] == exp[2][0]          # doc 2 fully copied
    assert 3 not in exp                    # short doc absent

    for nb in (5, 7):
        monkeypatch.setattr("kgruntime.ops.join.default_num_buckets",
                            lambda nb=nb: nb)
        out = shingle_novelty(
            rd.from_arrow(_docs_tbl(texts)).repartition(3), k=k) \
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        assert list(out["doc_id"]) == sorted(exp)
        for _, r in out.iterrows():
            ng, nc = exp[r["doc_id"]]
            assert (r["n_grams"], r["n_copied"]) == (ng, nc)
            assert r["copied_ppm"] == 1_000_000 * nc // ng


# --------------------------------------------- trigram_diversity

def test_trigram_diversity_exact(ray_session, monkeypatch):
    """Exact on a 2-block input under any coarse bucket count (5, 7)."""
    import ray.data as rd

    from kgruntime.ops.text import trigram_diversity

    tbl = pa.table({
        "source": pa.array(["s1", "s1", "s2", "s2"], pa.string()),
        "text": pa.array([
            "a b c a b c a b c",    # repeats heavily
            "a b c d",
            "u v w x y",            # all distinct
            "m n",                  # too short: no trigrams
        ], pa.string()),
    })

    def ref(texts):
        grams = []
        for t in texts:
            w = t.split()
            grams += [" ".join(w[i:i + 3]) for i in range(len(w) - 2)]
        return len(grams), len(set(grams))

    n1, d1 = ref(["a b c a b c a b c", "a b c d"])
    n2, d2 = ref(["u v w x y", "m n"])
    for nb in (5, 7):
        monkeypatch.setattr("kgruntime.ops.join.default_num_buckets",
                            lambda nb=nb: nb)
        out = trigram_diversity(rd.from_arrow(tbl).repartition(2)) \
            .to_pandas()
        got = {r["source"]: r for _, r in out.iterrows()}
        assert (got["s1"]["n_grams"], got["s1"]["n_distinct"]) == (n1, d1)
        assert (got["s2"]["n_grams"], got["s2"]["n_distinct"]) == (n2, d2)
        assert got["s1"]["diversity_ppm"] == 1_000_000 * d1 // n1
        assert got["s2"]["diversity_ppm"] == 1_000_000 * d2 // n2
        assert list(out["source"]) == ["s1", "s2"]


# --------------------------------------------- bpe_fertility

def test_bpe_fertility_matches_python_reference(ray_session):
    import ray.data as rd

    from kgruntime.ops.bpe import bpe_fertility

    texts = ["low low lower lowest", "low lower new newer",
             "newest new low", "wider wide wide low"]
    langs = ["en", "en", "de", "de"]
    tbl = pa.table({
        "doc_id": pa.array(range(4), pa.int64()),
        "lang": pa.array(langs, pa.string()),
        "text": pa.array(texts, pa.string()),
    })
    rounds = 5
    out = bpe_fertility(rd.from_arrow(tbl).repartition(2),
                        rounds=rounds).to_pandas()

    # pure-Python reference with identical replace semantics
    from collections import Counter
    wc = Counter(w for t in texts for w in t.split(" ") if w)
    sym = {w: " " + " ".join(w) + " _ " for w in wc}
    for _ in range(rounds):
        pc_ = Counter()
        for w, s in sym.items():
            toks = s.strip().split(" ")
            for a, b in zip(toks, toks[1:]):
                pc_[(a, b)] += wc[w]
        if not pc_:
            break
        (l, r), _n = min(pc_.items(),
                         key=lambda kv: (-kv[1], kv[0][0], kv[0][1]))
        for w in sym:
            sym[w] = sym[w].replace(f" {l} {r} ", f" {l}{r} ")
    nt = {w: len(s.strip().split(" ")) for w, s in sym.items()}

    exp = {}
    for lang in set(langs):
        lw = Counter(w for t, lg in zip(texts, langs) if lg == lang
                     for w in t.split(" ") if w)
        n_words = sum(lw.values())
        n_tokens = sum(c * nt[w] for w, c in lw.items())
        exp[lang] = (n_words, n_tokens,
                     1_000_000 * n_tokens // n_words)

    assert list(out["lang"]) == sorted(exp)
    for _, row in out.iterrows():
        assert (row["n_words"], row["n_tokens"],
                row["fertility_ppm"]) == exp[row["lang"]]


# --------------------------------------------- user_active_time

def test_user_active_time_merges_intervals(ray_session):
    import ray.data as rd

    from kgruntime.ops.sessions import user_active_time

    base = np.datetime64("2024-01-01T00:00:00", "us")
    m = np.timedelta64(60_000_000, "us")          # one minute
    rows = [
        # user 1: events at 0min and 10min -> one merged island
        (1, base), (1, base + 10 * m),
        # user 1: event at 100min -> second island
        (1, base + 100 * m),
        # user 2: exactly touching (30min apart) -> merge
        (2, base), (2, base + 30 * m),
        # user 3: single event
        (3, base),
    ]
    tbl = pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
        "event_id": pa.array(range(len(rows)), pa.int64()),
    })
    out = user_active_time(rd.from_arrow(tbl).repartition(2)) \
        .to_pandas().set_index("user_id")

    W = 30 * 60 * 1_000_000
    assert out.loc[1, "n_intervals"] == 2
    assert out.loc[1, "active_us"] == (10 * 60_000_000 + W) + W
    assert out.loc[2, "n_intervals"] == 1
    assert out.loc[2, "active_us"] == 30 * 60_000_000 + W
    assert out.loc[3, "n_intervals"] == 1
    assert out.loc[3, "active_us"] == W


# --------------------------------------------- revenue_cube

def test_revenue_cube_sets_are_consistent(ray_session):
    from kgruntime.relational import q_revenue_cube

    out = q_revenue_cube("/root/testdata/sf0.001").to_pandas()
    total = out[(out["o_orderpriority"] == "ALL")
                & (out["o_orderstatus"] == "ALL")]
    fine = out[(out["o_orderpriority"] != "ALL")
               & (out["o_orderstatus"] != "ALL")]
    by_p = out[(out["o_orderpriority"] != "ALL")
               & (out["o_orderstatus"] == "ALL")]
    by_s = out[(out["o_orderpriority"] == "ALL")
               & (out["o_orderstatus"] != "ALL")]
    for sub in (fine, by_p, by_s):
        assert sub["n_orders"].sum() == total["n_orders"].iloc[0]
        assert sub["revenue_cents"].sum() == total["revenue_cents"].iloc[0]
    # grouping-set identity per priority
    for p, g in fine.groupby("o_orderpriority"):
        row = by_p[by_p["o_orderpriority"] == p]
        assert g["n_orders"].sum() == row["n_orders"].iloc[0]
        assert g["revenue_cents"].sum() == row["revenue_cents"].iloc[0]


# --------------------------------------------- compression_quality

def test_compression_quality_signal_and_determinism(ray_session):
    import zlib

    import ray.data as rd

    from kgruntime.ops.text import compression_quality

    texts = ["spam spam spam spam spam spam spam spam",
             "the quick brown fox jumps over a lazy dog",
             ""]
    tbl = pa.table({
        "doc_id": pa.array(range(3), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    out = compression_quality(rd.from_arrow(tbl).repartition(2)) \
        .to_pandas().set_index("doc_id").sort_index()

    for i, t in enumerate(texts):
        b = t.encode()
        assert out.loc[i, "n_bytes"] == len(b)
        assert out.loc[i, "n_compressed"] == len(zlib.compress(b, 6))
        exp = (1_000_000 * len(zlib.compress(b, 6)) // len(b)
               if b else 0)
        assert out.loc[i, "ratio_ppm"] == exp
    # templated text compresses harder than natural text
    assert out.loc[0, "ratio_ppm"] < out.loc[1, "ratio_ppm"]


# --------------------------------------------- decile_lift

def test_decile_lift_matches_reference(ray_session):
    import ray.data as rd

    from kgruntime.ops.evalm import decile_lift

    rng = np.random.RandomState(7)
    n = 500
    cents = rng.randint(0, 200, n).tolist()
    # higher values more likely positive -> lift should rise with bin
    labels = [int(rng.rand() < c / 250) for c in cents]
    types = [["click", "purchase"][l] for l in labels]
    out = decile_lift(rd.from_arrow(_events_tbl(cents, types))
                      .repartition(4)).to_pandas()

    # reference: duckdb-rule deciles over the sorted multiset
    import math
    s = sorted(cents)
    bounds = [s[(k * n + 9) // 10 - 1] for k in range(1, 10)]
    import bisect
    bins = [1 + bisect.bisect_left(bounds, c) for c in cents]
    p_tot = sum(labels)
    exp = {}
    for b in sorted(set(bins)):
        idx = [i for i, bb in enumerate(bins) if bb == b]
        n_b = len(idx)
        p_b = sum(labels[i] for i in idx)
        exp[b] = (n_b, p_b, 1_000_000 * p_b // n_b,
                  1_000_000 * p_b * n // (n_b * p_tot))
    assert list(out["bin"]) == sorted(exp)
    for _, r in out.iterrows():
        assert (r["n_events"], r["n_pos"], r["rate_ppm"],
                r["lift_ppm"]) == exp[r["bin"]]
    # totals preserved
    assert out["n_events"].sum() == n
    assert out["n_pos"].sum() == p_tot


# --------------------------------------------- basket_affinity

def test_basket_affinity_lift_semantics(ray_session):
    from kgruntime.relational import q_basket_affinity

    out = q_basket_affinity("/root/testdata/sf0.001").to_pandas()
    assert len(out) > 0
    assert (out["type_a"] < out["type_b"]).all()
    # pairs are unique and sorted
    keys = list(zip(out["type_a"], out["type_b"]))
    assert keys == sorted(keys) and len(set(keys)) == len(keys)

    # cross-check one pair against duckdb on the same files
    import duckdb

    con = duckdb.connect()
    sf = "/root/testdata/sf0.001"
    for t in ("lineitem", "orders", "part"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf}/{t}.parquet'")
    ref = con.execute("""
        WITH ct AS (SELECT DISTINCT o_custkey c, p_type t
                    FROM lineitem JOIN orders ON l_orderkey=o_orderkey
                                  JOIN part ON l_partkey=p_partkey)
        SELECT a.t, b.t, count(*) FROM ct a JOIN ct b
        ON a.c=b.c AND a.t<b.t GROUP BY 1,2 ORDER BY 1,2
    """).fetchall()
    got = [(r["type_a"], r["type_b"], r["n_ab"])
           for _, r in out.iterrows()]
    assert got == [(a, b, n) for a, b, n in ref]


# --------------------------------------------- ann_recall_audit

def test_ann_recall_audit_bounds_and_self_consistency(ray_session):
    import os

    import ray.data as rd

    from kgruntime.ops.ann import (ann_recall_audit, brute_force_topk,
                                   ivf_topk)

    sf = "/root/testdata/sf0.001"
    path = os.path.join(sf, "embeddings.parquet")

    def emb():
        return rd.read_parquet(path, columns=["vec_id", "embedding"])

    import duckdb
    t = duckdb.sql(f"SELECT vec_id, embedding FROM read_parquet('{path}') "
                   "ORDER BY vec_id LIMIT 5").arrow()
    ids = t["vec_id"].to_pylist()
    q = t["embedding"].combine_chunks().flatten() \
        .to_numpy(zero_copy_only=False).astype(np.float64) \
        .reshape(len(ids), -1)

    k = 5
    out = ann_recall_audit(emb, q, ids, k=k).to_pandas()
    assert list(out["query_id"]) == sorted(ids)
    assert ((out["n_hit"] >= 0) & (out["n_hit"] <= k)).all()
    assert (out["recall_ppm"] == 1_000_000 * out["n_hit"] // k).all()

    # recomputing the intersection by hand agrees
    bf = brute_force_topk(emb(), q, ids, k=k).to_pandas()
    iv = ivf_topk(emb(), q, ids, k=k).to_pandas()
    ivp = set(zip(iv["query_id"], iv["neighbor_id"]))
    for _, r in out.iterrows():
        nbrs = bf.loc[bf["query_id"] == r["query_id"], "neighbor_id"]
        assert r["n_hit"] == sum((r["query_id"], n) in ivp for n in nbrs)


# --------------------------------------------- bot_regularity_audit

def test_bot_regularity_flags_constant_cadence(ray_session):
    import ray.data as rd

    from kgruntime.ops.sessions import bot_regularity_audit

    base = np.datetime64("2024-03-01T00:00:00", "us")
    s = np.timedelta64(1_000_000, "us")            # one second
    rows = []
    # user 1: perfect 10s cadence, 10 events -> bot
    rows += [(1, base + 10 * i * s) for i in range(10)]
    # user 2: bursty human-ish gaps
    for i, off in enumerate([0, 3, 50, 51, 400, 1000, 1003, 5000]):
        rows.append((2, base + off * s))
    # user 3: regular but only 3 events (ng < 5) -> not flagged
    rows += [(3, base + 5 * i * s) for i in range(3)]
    tbl = pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
    })
    out = bot_regularity_audit(rd.from_arrow(tbl).repartition(2)) \
        .to_pandas().set_index("user_id")

    assert out.loc[1, "is_bot"] == 1
    assert out.loc[1, "mean_gap_us"] == 10_000_000
    assert out.loc[1, "rvar_ppm"] == 0
    assert out.loc[2, "is_bot"] == 0
    assert out.loc[3, "is_bot"] == 0
    # exact relative variance for user 2
    gaps = np.diff(sorted([3, 0, 50, 51, 400, 1000, 1003, 5000])) \
        * 1_000_000
    sg, sg2 = int(gaps.sum()), sum(int(g) * int(g) for g in gaps)
    exp = 1_000_000 * (len(gaps) * sg2 - sg * sg) // (sg * sg)
    assert out.loc[2, "rvar_ppm"] == exp


# --------------------------------------------- mmr_topk

def test_mmr_topk_diversifies_vs_plain_topk(ray_session):
    import ray.data as rd

    from kgruntime.ops.ann import _units_matrix, brute_force_topk, mmr_topk

    # 2 tight clusters of near-identical vectors + 1 loner; the query
    # sits in cluster A: plain top-3 stays inside A, MMR must escape.
    rng = np.random.RandomState(3)
    base_a = rng.rand(8); base_b = rng.rand(8); base_c = rng.rand(8)
    vecs = [base_a + 1e-4 * rng.rand(8) for _ in range(4)] \
        + [base_b + 1e-4 * rng.rand(8) for _ in range(3)] \
        + [base_c]
    vecs = [(v / np.linalg.norm(v)).astype(np.float64) for v in vecs]
    tbl = pa.table({
        "vec_id": pa.array(range(len(vecs)), pa.int64()),
        "embedding": pa.array([v.tolist() for v in vecs],
                              pa.list_(pa.float64())),
    })

    def emb():
        return rd.from_arrow(tbl).repartition(2)

    q = np.array([vecs[0]])
    out = mmr_topk(emb, q, [0], k=3, m=7).to_pandas()
    assert list(out["rank"]) == [1, 2, 3]
    mmr_set = set(out["neighbor_id"])
    plain = brute_force_topk(emb(), q, [0], k=3).to_pandas()
    plain_set = set(plain["neighbor_id"])
    # plain top-3 all from cluster A (ids 1-3); MMR keeps a cluster-A
    # hit at rank 1 (its round-1 criterion is the integer dot, which
    # may pick a different near-identical A member than the float
    # cosine) but pulls in at least one vector from outside cluster A
    assert plain_set <= {1, 2, 3}
    assert out.loc[out["rank"] == 1, "neighbor_id"].iloc[0] in {1, 2, 3}
    assert any(n >= 4 for n in mmr_set)
    del plain

    # greedy reference replay on integer dots
    units = {i: _units_matrix(v) for i, v in enumerate(vecs)}
    qu = _units_matrix(vecs[0])
    cand = sorted(plain_set | set(
        brute_force_topk(emb(), q, [0], k=7).to_pandas()["neighbor_id"]))
    dotq = {n: int(qu @ units[n]) for n in cand}
    sel, rest = [], list(cand)
    while rest and len(sel) < 3:
        if not sel:
            best = max(rest, key=lambda n: (dotq[n], -n))
        else:
            best = max(rest, key=lambda n: (
                dotq[n] - max(int(units[n] @ units[s]) for s in sel), -n))
        sel.append(best); rest.remove(best)
    assert list(out["neighbor_id"]) == sel
