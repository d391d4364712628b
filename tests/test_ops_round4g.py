"""Round-4 (seventh wave) operators: point-in-time training features
and later 4g additions."""

import numpy as np
import pyarrow as pa
import pytest


# --------------------------------------------- pit_training_features

_US_MIN = 60_000_000
_US_DAY = 86_400_000_000


def _pit_brute(rows):
    """Reference: per purchase, features over strictly-earlier events.

    rows: list of (event_id, user_id, ts_us, event_type, cents)."""
    out = {}
    for eid, uid, ts, et, cents in rows:
        if et != "purchase":
            continue
        mine = [r for r in rows if r[1] == uid]
        prior = [r for r in mine if r[2] < ts]
        p30 = sum(r[4] for r in prior
                  if r[3] == "purchase" and r[2] >= ts - 30 * _US_DAY)
        t7 = {r[3] for r in prior if r[2] >= ts - 7 * _US_DAY}
        ordered = sorted(mine, key=lambda r: (r[2], r[0]))
        pos = ordered.index((eid, uid, ts, et, cents))
        mins = -1 if pos == 0 else (ts - ordered[pos - 1][2]) // _US_MIN
        out[eid] = (len(prior), p30, len(t7), mins)
    return out


def _events_from(rows):
    import ray.data as rd

    return rd.from_arrow(pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "user_id": pa.array([r[1] for r in rows], pa.int64()),
        "ts": pa.array([r[2] for r in rows], pa.timestamp("us")),
        "event_type": pa.array([r[3] for r in rows], pa.string()),
        "value": pa.array([r[4] / 100.0 for r in rows], pa.float64()),
    })).repartition(3)


def test_pit_features_match_brute_force(ray_session):
    from kgruntime.ops.sessions import pit_training_features

    t0 = 1_700_000_000_000_000
    rows = [
        # user 1: purchase as very first event (mins_since_prev = -1)
        (1, 1, t0, "purchase", 500),
        (2, 1, t0 + 3 * _US_DAY, "click", 0),
        (3, 1, t0 + 8 * _US_DAY, "view", 0),
        # purchase exactly 30d after the first: the 30d window is
        # [ts-30d, ts) -> the t0 purchase IS included (>= boundary)
        (4, 1, t0 + 30 * _US_DAY, "purchase", 700),
        # purchase with a tie on ts against a click (tie excluded:
        # strictly-earlier only)
        (5, 1, t0 + 31 * _US_DAY, "click", 0),
        (6, 1, t0 + 31 * _US_DAY, "purchase", 900),
        # user 2: clicks only -> no label rows
        (7, 2, t0, "click", 0),
        (8, 2, t0 + _US_MIN, "click", 0),
        # user 3: purchase 7d + 1us after a view (outside 7d window)
        (9, 3, t0, "view", 0),
        (10, 3, t0 + 7 * _US_DAY + 1, "purchase", 100),
    ]
    got = pit_training_features(_events_from(rows)).to_pandas() \
        .set_index("event_id").sort_index()
    exp = _pit_brute(rows)
    assert set(got.index) == set(exp)
    for eid, (np_, p30, t7, mins) in exp.items():
        r = got.loc[eid]
        assert r["n_prior_events"] == np_, eid
        assert r["prior_purchase_cents_30d"] == p30, eid
        assert r["n_types_7d"] == t7, eid
        assert r["mins_since_prev"] == mins, eid


def test_pit_features_random_vs_brute(ray_session):
    from kgruntime.ops.sessions import pit_training_features

    rng = np.random.RandomState(7)
    t0 = 1_700_000_000_000_000
    rows = []
    for eid in range(200):
        rows.append((
            eid,
            int(rng.randint(0, 12)),
            t0 + int(rng.randint(0, 40 * _US_DAY)),
            ["click", "view", "purchase"][rng.randint(3)],
            int(rng.randint(0, 10_000)),
        ))
    got = pit_training_features(_events_from(rows)).to_pandas() \
        .set_index("event_id")
    exp = _pit_brute(rows)
    assert set(got.index) == set(exp)
    for eid, (np_, p30, t7, mins) in exp.items():
        r = got.loc[eid]
        assert (r["n_prior_events"], r["prior_purchase_cents_30d"],
                r["n_types_7d"], r["mins_since_prev"]) == \
            (np_, p30, t7, mins), eid


# --------------------------------------------- source_overlap_matrix

def _docs_from(rows):
    import ray.data as rd

    return rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(rows)), pa.int64()),
        "text": pa.array([r[0] for r in rows], pa.string()),
        "source": pa.array([r[1] for r in rows], pa.string()),
    })).repartition(3)


def _overlap_brute(rows, k):
    per_src = {}
    for txt, src in rows:
        toks = [w for w in txt.split(" ") if w]
        gs = {" ".join(toks[i:i + k]) for i in range(len(toks) - k + 1)}
        per_src.setdefault(src, set()).update(gs)
    out = {}
    srcs = sorted(per_src)
    for i, a in enumerate(srcs):
        for b in srcs[i + 1:]:
            sh = len(per_src[a] & per_src[b])
            if sh:
                un = len(per_src[a] | per_src[b])
                out[(a, b)] = (sh, 1_000_000 * sh // un)
    return out


def test_source_overlap_matrix_vs_brute(ray_session):
    from kgruntime.ops.dedup import source_overlap_matrix

    rows = [
        ("a b c d e", "s1"),
        ("c d e f g", "s2"),       # shares shingle "c d e" with s1
        ("x y z x y z x y", "s3"),  # repeated shingles, no overlap
        ("a b c q r", "s2"),        # s2 also shares "a b c"
        ("a b", "s1"),              # too short for k=3: no shingles
    ]
    got = source_overlap_matrix(_docs_from(rows), k=3).to_pandas()
    exp = _overlap_brute(rows, 3)
    assert {(r.src_a, r.src_b) for r in got.itertuples()} == set(exp)
    for r in got.itertuples():
        assert (r.n_shared, r.overlap_ppm) == exp[(r.src_a, r.src_b)]


def test_source_overlap_matrix_random_vs_brute(ray_session):
    from kgruntime.ops.dedup import source_overlap_matrix

    rng = np.random.RandomState(11)
    vocab = ["w%d" % i for i in range(9)]
    rows = [(" ".join(rng.choice(vocab, rng.randint(3, 15))),
             "s%d" % rng.randint(4)) for _ in range(60)]
    got = source_overlap_matrix(_docs_from(rows), k=3).to_pandas()
    exp = _overlap_brute(rows, 3)
    assert {(r.src_a, r.src_b) for r in got.itertuples()} == set(exp)
    for r in got.itertuples():
        assert (r.n_shared, r.overlap_ppm) == exp[(r.src_a, r.src_b)]


# --------------------------------------------- near_split_leakage

def test_near_split_leakage_is_cross_split_near_dups(ray_session):
    import ray.data as rd

    from kgruntime.ops.dedup import minhash_near_dups
    from kgruntime.ops.sample import near_split_leakage, split_array

    rng = np.random.RandomState(3)
    vocab = ["tok%d" % i for i in range(40)]
    base = [" ".join(rng.choice(vocab, 30)) for _ in range(20)]
    texts, ids = [], []
    for i, b in enumerate(base):
        texts.append(b)
        ids.append(2 * i)
        # near-dup twin: same text with one token changed
        toks = b.split()
        toks[5] = "tok_x"
        texts.append(" ".join(toks))
        ids.append(2 * i + 1)
    docs = pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    ds = rd.from_arrow(docs).repartition(4)

    leaks = near_split_leakage(ds).to_pandas()
    pairs = minhash_near_dups(rd.from_arrow(docs)).to_pandas()
    s = {i: split_array(pa.array([i], pa.int64()))[0].as_py()
         for i in ids}
    exp = {(a, b) for a, b in zip(pairs.doc_a, pairs.doc_b)
           if s[a] != s[b]}
    assert exp, "fixture must produce at least one cross-split pair"
    assert {(a, b) for a, b in zip(leaks.doc_a, leaks.doc_b)} == exp
    for r in leaks.itertuples():
        assert r.split_a == s[r.doc_a] and r.split_b == s[r.doc_b]
        assert r.split_a != r.split_b


# --------------------------------------------- dsir_importance

def test_dsir_importance_vs_brute(ray_session):
    import ray.data as rd

    from kgruntime.ops.dedup import _md5_60
    from kgruntime.ops.text import _DSIR_SCALE, dsir_importance

    rng = np.random.RandomState(5)
    voc_en = ["alpha", "beta", "gamma", "delta"]
    voc_de = ["eins", "zwei", "drei", "vier"]
    rows = []
    for i in range(40):
        lang = "en" if i % 2 == 0 else "de"
        voc = voc_en if lang == "en" else voc_de
        # some cross-vocab docs to mix bucket stats
        pool = voc + (voc_de if i % 5 == 0 else [])
        rows.append((i, " ".join(rng.choice(pool, rng.randint(1, 12))),
                     lang))
    B = 64
    docs = pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": pa.array([r[1] for r in rows], pa.string()),
        "lang": pa.array([r[2] for r in rows], pa.string()),
    })
    got = dsir_importance(rd.from_arrow(docs).repartition(4),
                          target_lang="en", num_buckets=B) \
        .to_pandas().set_index("doc_id")

    # brute force
    bk = {}
    occ = []  # (doc_id, lang, bucket)
    for did, txt, lang in rows:
        toks = [w for w in txt.split(" ") if w]
        for a, b in zip(toks, toks[1:]):
            bg = a + " " + b
            if bg not in bk:
                bk[bg] = _md5_60(bg.encode()) % B
            occ.append((did, lang, bk[bg]))
    w = {}
    for b in {o[2] for o in occ}:
        tgt = sum(1 for o in occ if o[2] == b and o[1] == "en")
        raw = sum(1 for o in occ if o[2] == b)
        w[b] = (tgt + 1) * _DSIR_SCALE // (raw + 1)
    exp = {}
    for did in {o[0] for o in occ}:
        ws = [w[o[2]] for o in occ if o[0] == did]
        avg = sum(ws) // len(ws)
        exp[did] = (len(ws), avg, int(avg >= _DSIR_SCALE))
    assert set(got.index) == set(exp)
    for did, (n, avg, sel) in exp.items():
        r = got.loc[did]
        assert (r["n_bigrams"], r["avg_weight"], r["selected"]) == \
            (n, avg, sel), did
    # the fixture must exercise both selection outcomes
    assert 0 < got["selected"].sum() < len(got)


# --------------------------------------------- rec_negative_samples

def test_rec_negative_samples_excludes_positives_sf0001(ray_session):
    import duckdb

    from kgruntime.relational import q_rec_negative_samples

    sf = "/root/testdata/sf0.001"
    got = q_rec_negative_samples(sf).to_pandas()
    pos = duckdb.sql(f"""
        SELECT DISTINCT o.o_custkey AS c, l.l_partkey AS p
        FROM '{sf}/orders.parquet' o
        JOIN '{sf}/lineitem.parquet' l ON l.l_orderkey = o.o_orderkey
    """).df()
    pset = set(zip(pos.c, pos.p))
    assert len(got) == 20 * 5
    assert not any((c, p) in pset
                   for c, p in zip(got.custkey, got.partkey))
    # ranks are 1..k per user, pairs unique
    for c, grp in got.groupby("custkey"):
        assert sorted(grp.neg_rank) == [1, 2, 3, 4, 5]
    assert len(set(zip(got.custkey, got.partkey))) == len(got)


# --------------------------------------------- markov_next_event_accuracy

def test_markov_next_event_vs_brute(ray_session):
    import ray.data as rd

    from kgruntime.ops.sample import _KNUTH, _M32
    from kgruntime.ops.sessions import markov_next_event_accuracy

    rng = np.random.RandomState(9)
    types = ["click", "view", "purchase"]
    rows = []
    eid = 0
    t0 = 1_700_000_000_000_000
    for uid in range(30):
        for j in range(rng.randint(2, 12)):
            rows.append((eid, uid, t0 + j * 60_000_000,
                         types[rng.randint(3)]))
            eid += 1
    ds = rd.from_arrow(pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "user_id": pa.array([r[1] for r in rows], pa.int64()),
        "ts": pa.array([r[2] for r in rows], pa.timestamp("us")),
        "event_type": pa.array([r[3] for r in rows], pa.string()),
    })).repartition(4)
    got = markov_next_event_accuracy(ds).to_pandas() \
        .set_index("prev_type")

    cut = int(0.2 * _M32)
    tr, te = {}, {}
    for uid in range(30):
        mine = sorted(r for r in rows if r[1] == uid)
        side = tr if (uid * _KNUTH) % _M32 >= cut else te
        for a, b in zip(mine, mine[1:]):
            side.setdefault(a[3], {})
            side[a[3]][b[3]] = side[a[3]].get(b[3], 0) + 1
    pred = {p: min(((-c, n) for n, c in v.items()))[1]
            for p, v in tr.items()}
    exp = {}
    for p in set(pred) & set(te):
        n = sum(te[p].values())
        c = te[p].get(pred[p], 0)
        exp[p] = (n, c, 1_000_000 * c // n)
    assert exp, "fixture must cover both splits"
    assert set(got.index) == set(exp)
    for p, (n, c, a) in exp.items():
        r = got.loc[p]
        assert (r["n_pairs"], r["n_correct"], r["acc_ppm"]) == (n, c, a)


# --------------------------------------------- rp_projection_recall

def test_rp_projection_recall_vs_brute(ray_session):
    import ray.data as rd

    from kgruntime.ops.ann import (_units_matrix, rp_projection_recall)

    rng = np.random.RandomState(13)
    n, dim, k, n_proj, seed = 60, 24, 4, 12, 29
    X = rng.randn(n, dim)
    ids = list(range(n))
    emb = pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "embedding": pa.array([list(map(float, x)) for x in X],
                              pa.list_(pa.float32())),
    })
    # query set = first 5 vectors; the Ray op reads float32-rounded
    # values, so brute-force from the same table contents
    Xf = np.array(emb["embedding"].combine_chunks().flatten()
                  .to_numpy(zero_copy_only=False),
                  np.float64).reshape(n, dim)
    q_ids = ids[:5]
    Q = Xf[:5]
    got = rp_projection_recall(
        rd.from_arrow(emb).repartition(4), Q, q_ids, k=k,
        n_proj=n_proj, seed=seed).to_pandas().set_index("query_id")

    U = _units_matrix(Xf)
    S = (np.random.RandomState(seed)
         .randint(0, 2, size=(n_proj, dim)) * 2 - 1).astype(np.int64)
    V = U @ S.T
    for qi, qid in enumerate(q_ids):
        se = U[qi] @ U.T
        sp = V[qi] @ V.T
        cand = [i for i in ids if i != qid]
        top_e = set(sorted(cand, key=lambda i: (-se[i], i))[:k])
        top_p = set(sorted(cand, key=lambda i: (-sp[i], i))[:k])
        m = len(top_e & top_p)
        r = got.loc[qid]
        assert (r["n_match"], r["recall_ppm"]) == (m, m * 1_000_000 // k)
    # projection must be lossy-but-informative on random data
    assert 0 < got["n_match"].sum() <= 5 * k


# --------------------------------------------- dp_noisy_counts

def test_dp_noisy_counts_vs_brute(ray_session):
    import ray.data as rd

    from kgruntime.ops.dedup import _md5_60
    from kgruntime.ops.stats import _dlaplace_thresholds, dp_noisy_counts

    rng = np.random.RandomState(21)
    t0 = 1_700_000_000_000_000
    US_DAY = 86_400_000_000
    rows = [(i, ["click", "view"][rng.randint(2)],
             t0 + int(rng.randint(0, 5)) * US_DAY + i)
            for i in range(300)]
    ds = rd.from_arrow(pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "event_type": pa.array([r[1] for r in rows], pa.string()),
        "ts": pa.array([r[2] for r in rows], pa.timestamp("us")),
    })).repartition(4)
    got = dp_noisy_counts(ds).to_pandas() \
        .set_index(["event_type", "day"])

    thr = _dlaplace_thresholds()
    true = {}
    for _, et, ts in rows:
        key = (et, ts // US_DAY)
        true[key] = true.get(key, 0) + 1
    assert set(got.index) == set(true)
    noises = set()
    for (et, day), c in true.items():
        h = _md5_60(f"{et}|{day}".encode())
        z = next((z for z, t in thr if h < t), thr[-1][0])
        noises.add(z)
        assert got.loc[(et, day)]["noisy_count"] == max(c + z, 0)
    assert len(noises) > 1, "fixture should draw varied noise"


def test_dlaplace_thresholds_shape():
    from kgruntime.ops.stats import _dlaplace_thresholds

    thr = _dlaplace_thresholds()
    zs = [z for z, _ in thr]
    ts = [t for _, t in thr]
    assert zs == list(range(-8, 9))
    assert ts == sorted(ts)
    assert ts[-1] <= 1 << 60
    # symmetric mass: P(0) is the largest single step
    steps = np.diff([0] + ts)
    assert np.argmax(steps) == 8


# --------------------------------------------- encoding_advisor

def test_encoding_advisor_vs_brute(ray_session):
    import ray.data as rd

    from kgruntime.ops.dq import _ea_bits, encoding_advisor

    rng = np.random.RandomState(17)
    n = 200
    et = [["click", "view"][rng.randint(2)] for _ in range(n)]
    props = ["p%d" % rng.randint(50) for _ in range(n)]
    uid = [int(rng.randint(8)) for _ in range(n)]
    ds = rd.from_arrow(pa.table({
        "event_id": pa.array(range(n), pa.int64()),
        "event_type": pa.array(et, pa.string()),
        "props": pa.array(props, pa.string()),
        "user_id": pa.array(uid, pa.int64()),
    })).repartition(5)
    got = encoding_advisor(ds).to_pandas().set_index("column")

    def runs(vals):
        return 1 + sum(1 for a, b in zip(vals, vals[1:]) if a != b)

    for col, vals, kind in [("event_type", et, "str"),
                            ("props", props, "str"),
                            ("user_id", uid, "int")]:
        nd = len(set(vals))
        tb = sum(len(v) for v in vals) if kind == "str" else 8 * n
        db = sum(len(v) for v in set(vals)) if kind == "str" \
            else 8 * nd
        nr = runs(vals)
        r = got.loc[col]
        assert r["n_rows"] == n and r["n_distinct"] == nd
        assert r["n_runs"] == nr, col
        plain = tb + (4 * n if kind == "str" else 0)
        dict_ = db + (n * _ea_bits(nd) + 7) // 8
        rle = nr * (4 + (tb + n - 1) // n)
        assert (r["plain_bytes"], r["dict_bytes"], r["rle_bytes"]) == \
            (plain, dict_, rle), col
        best = min((("plain", plain), ("dict", dict_), ("rle", rle)),
                   key=lambda kv: (kv[1], ("plain", "dict", "rle")
                                   .index(kv[0])))[0]
        assert r["best"] == best, col


def test_ea_bits_exact_powers():
    from kgruntime.ops.dq import _ea_bits

    assert _ea_bits(1) == 1
    assert _ea_bits(2) == 1
    assert _ea_bits(3) == 2
    assert _ea_bits(256) == 8
    assert _ea_bits(257) == 9


# --------------------------------------------- join_skew_audit

def test_join_skew_audit_vs_brute(ray_session):
    import ray.data as rd

    from kgruntime.ops.stats import join_skew_audit

    rng = np.random.RandomState(31)
    # zipf-ish skew: key 0 hot
    keys = np.concatenate([np.zeros(50, np.int64),
                           rng.randint(1, 30, 150)])
    ds = rd.from_arrow(pa.table({"l_partkey":
                                 pa.array(keys, pa.int64())})) \
        .repartition(4)
    got = join_skew_audit(ds, top=5).to_pandas()

    from collections import Counter
    cnt = Counter(int(x) for x in keys)
    total = len(keys)
    s2 = sum(c * c for c in cnt.values())
    best = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    assert list(got["rank"]) == [1, 2, 3, 4, 5]
    for i, (k, c) in enumerate(best):
        r = got.iloc[i]
        assert (r["l_partkey"], r["cnt"]) == (k, c)
        assert r["share_ppm"] == c * 1_000_000 // total
        assert r["hhi_ppm"] == s2 * 1_000_000 // (total * total)
    assert got.iloc[0]["l_partkey"] == 0  # the planted hot key wins


# --------------------------------------------- range_partition_planner

def test_range_partition_planner_covers_and_balances(ray_session):
    import ray.data as rd

    from kgruntime.ops.shard import (_RPP_SENTINEL,
                                     range_partition_planner)

    rng = np.random.RandomState(41)
    n = 2000
    vals = np.round(rng.gamma(2.0, 50.0, n), 2)
    ds = rd.from_arrow(pa.table({
        "event_id": pa.array(range(n), pa.int64()),
        "value": pa.array(vals, pa.float64()),
    })).repartition(5)
    k = 8
    got = range_partition_planner(ds, k=k, sample_n=400).to_pandas()
    assert list(got["bucket"]) == list(range(k))
    # counts cover every row exactly once
    assert got["n_rows"].sum() == n
    # boundaries strictly ordered (sentinel last)
    ub = list(got["upper_cents"])
    assert ub[-1] == _RPP_SENTINEL
    assert all(a <= b for a, b in zip(ub, ub[1:]))
    # exact bucket membership: recount with numpy
    cents = np.copysign(np.floor(np.abs(vals * 100) + 0.5),
                        vals).astype(np.int64)
    b = np.array(ub[:-1], np.int64)
    recount = np.bincount(np.searchsorted(b, cents, side="right"),
                          minlength=k)
    assert list(got["n_rows"]) == list(recount)
    # skew_ppm consistent with counts
    for r in got.itertuples():
        assert r.skew_ppm == (1_000_000 * r.n_rows * k) // n - 1_000_000
    # a 400-point sample should land within ±40% of uniform
    assert max(abs(got["skew_ppm"])) < 400_000


# --------------------------------------------- community_modularity

def _edges_ds(pairs):
    import ray.data as rd

    return rd.from_arrow(pa.table({
        "user_a": pa.array([a for a, _ in pairs], pa.int64()),
        "user_b": pa.array([b for _, b in pairs], pa.int64()),
    })).repartition(3)


def test_community_modularity_two_cliques(ray_session):
    from kgruntime.ops.graph import community_modularity

    # two 4-cliques joined by one bridge edge
    c1, c2 = [0, 1, 2, 3], [10, 11, 12, 13]
    pairs = [(a, b) for i, a in enumerate(c1) for b in c1[i + 1:]] + \
            [(a, b) for i, a in enumerate(c2) for b in c2[i + 1:]] + \
            [(3, 10)]
    got = community_modularity(_edges_ds(pairs), rounds=4).to_pandas()

    # LPA on two cliques must find exactly two communities
    assert len(got) == 2
    assert sorted(got["n_nodes"]) == [4, 4]
    m = len(pairs)
    # brute-force Q from the reported per-community stats
    num = sum(4 * m * r.l_c - r.d_c ** 2 for r in got.itertuples())
    q = (1_000_000 * num) // (4 * m * m) if num >= 0 \
        else -((1_000_000 * -num) // (4 * m * m))
    assert got["q_ppm"].iloc[0] == q
    assert q > 300_000  # strong structure
    # degree sums cover every edge end exactly twice
    assert got["d_c"].sum() == 2 * m
    assert got["l_c"].sum() == m - 1  # all but the bridge are internal


def test_community_modularity_empty_edges(ray_session):
    from kgruntime.ops.graph import community_modularity

    got = community_modularity(_edges_ds([]), rounds=2)
    assert got.num_rows == 0


# --------------------------------------------- stickiness_dau_mau

def test_stickiness_dau_mau_vs_brute(ray_session):
    import datetime as dt

    import ray.data as rd

    from kgruntime.ops.sessions import stickiness_dau_mau

    rng = np.random.RandomState(23)
    rows = []
    for i in range(400):
        d = dt.datetime(2024, 1 + rng.randint(3), 1 + rng.randint(28),
                        rng.randint(24))
        rows.append((i, int(rng.randint(25)),
                     int(d.timestamp() * 1_000_000)))
    ds = rd.from_arrow(pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "user_id": pa.array([r[1] for r in rows], pa.int64()),
        "ts": pa.array([r[2] for r in rows], pa.timestamp("us")),
    })).repartition(4)
    got = stickiness_dau_mau(ds).to_pandas().set_index("mon")

    per_mon_day, per_mon = {}, {}
    for _, uid, us in rows:
        t = dt.datetime.utcfromtimestamp(us / 1_000_000)
        mon = t.year * 12 + t.month - 1
        day = us // 86_400_000_000
        per_mon_day.setdefault(mon, {}).setdefault(day, set()).add(uid)
        per_mon.setdefault(mon, set()).add(uid)
    assert set(got.index) == set(per_mon)
    assert len(per_mon) == 3
    for mon, days in per_mon_day.items():
        sum_dau = sum(len(v) for v in days.values())
        nd, mau = len(days), len(per_mon[mon])
        r = got.loc[mon]
        assert (r["n_active_days"], r["sum_dau"], r["mau"]) == \
            (nd, sum_dau, mau)
        assert r["stickiness_ppm"] == 1_000_000 * sum_dau // (nd * mau)


# --------------------------------------------- cdc_upsert_merge

def test_cdc_upsert_merge_vs_brute(ray_session):
    import ray.data as rd

    from kgruntime.ops.dedup import _md5_60, cdc_upsert_merge

    rng = np.random.RandomState(29)
    n = 150
    # leave gaps in the id space so some changes are pure INSERTS
    ids = sorted(rng.choice(300, n, replace=False))
    types = ["click", "view", "purchase"]
    rows = [(int(i), types[rng.randint(3)],
             round(float(rng.uniform(-50.0, 200.0)), 2)) for i in ids]
    ds = rd.from_arrow(pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "event_type": pa.array([r[1] for r in rows], pa.string()),
        "value": pa.array([r[2] for r in rows], pa.float64()),
    })).repartition(4)
    got = cdc_upsert_merge(ds).to_pandas().set_index("event_type")

    # brute force
    table = {}
    for i, t, v in rows:
        cents = int(np.copysign(np.floor(abs(v * 100) + 0.5), v))
        table[i] = (t, cents)
    mx = max(ids)
    for i in range(mx + 1):
        h = _md5_60(f"u{i}".encode())
        if h % 10 == 0:
            table[i] = ("click", h % 10000)
        elif h % 10 == 1:
            table.pop(i, None)
    exp = {}
    for t, cents in table.values():
        a, b = exp.get(t, (0, 0))
        exp[t] = (a + 1, b + cents)
    assert set(got.index) == set(exp)
    for t, (cn, cs) in exp.items():
        assert (got.loc[t]["n_rows"], got.loc[t]["sum_cents"]) == \
            (cn, cs), t
    # fixture must exercise inserts (keys absent from base)
    assert any(i not in ids and i in table for i in range(mx + 1))


# --------------------------------------------- feature_cross_hash

def test_feature_cross_hash_vs_brute(ray_session):
    import datetime as dt

    import ray.data as rd

    from kgruntime.ops.dedup import _md5_60
    from kgruntime.ops.text import feature_cross_hash

    rng = np.random.RandomState(37)
    rows = []
    for i in range(300):
        d = dt.datetime(2024, 3, 1 + rng.randint(14), rng.randint(24))
        rows.append((i, int(rng.randint(20)),
                     ["click", "view"][rng.randint(2)],
                     int(d.timestamp() * 1_000_000)))
    ds = rd.from_arrow(pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "user_id": pa.array([r[1] for r in rows], pa.int64()),
        "event_type": pa.array([r[2] for r in rows], pa.string()),
        "ts": pa.array([r[3] for r in rows], pa.timestamp("us")),
    })).repartition(4)
    B = 64  # tiny width to force collisions
    got = feature_cross_hash(ds, num_buckets=B).to_pandas().iloc[0]

    crosses = set()
    for _, uid, et, us in rows:
        t = dt.datetime.utcfromtimestamp(us / 1_000_000)
        crosses.add((uid, et, t.isoweekday()))
    from collections import Counter
    bk = Counter(_md5_60(f"{u}|{e}|{d}".encode()) % B
                 for u, e, d in crosses)
    n_coll = sum(c for c in bk.values() if c > 1)
    assert got["n_crosses"] == len(crosses)
    assert got["n_buckets_used"] == len(bk)
    assert got["n_collided"] == n_coll
    assert got["collision_ppm"] == 1_000_000 * n_coll // len(crosses)
    assert n_coll > 0, "tiny width must collide"


# --------------------------------------------- zorder_layout_audit

def test_zorder_layout_audit_2d_win(ray_session):
    import ray.data as rd

    from kgruntime.ops.shard import zorder_layout_audit

    # events whose insertion order is UNcorrelated with the query box:
    # ids assigned randomly, so insertion files can't prune anything,
    # while z-order clusters the (user, day) plane
    rng = np.random.RandomState(43)
    n = 2000
    t0 = 1_700_000_000_000_000
    US_DAY = 86_400_000_000
    uid = rng.randint(0, 200, n)
    day = rng.randint(0, 30, n)
    perm = rng.permutation(n)
    ds = rd.from_arrow(pa.table({
        "event_id": pa.array(perm, pa.int64()),
        "user_id": pa.array(uid, pa.int64()),
        "ts": pa.array(t0 + day * US_DAY, pa.timestamp("us")),
    })).repartition(4)
    got = zorder_layout_audit(ds, n_files=32, d_lo=0, d_hi=4,
                              u_lo=0, u_hi=40).to_pandas() \
        .set_index("layout")
    # exact row accounting
    match = int(np.sum((day <= 4) & (uid <= 40)))
    assert (got["rows_matched"] == match).all()
    assert got.loc["insertion"]["n_files_used"] == 32
    # random insertion order -> every file spans the whole box: no prune
    assert got.loc["insertion"]["scan_ppm"] == 1_000_000
    # z-order must prune substantially on the 2-D box
    assert got.loc["zorder"]["scan_ppm"] < 500_000
    assert got.loc["zorder"]["files_scanned"] < 32


def test_interleave16_bits():
    from kgruntime.ops.shard import _interleave16

    u = np.array([0b10101010], np.int64)
    d = np.array([0b01010101], np.int64)
    z = _interleave16(u, d)[0]
    # odd bits from u, even bits from d
    exp = sum(((0b10101010 >> b) & 1) << (2 * b + 1)
              | ((0b01010101 >> b) & 1) << (2 * b) for b in range(8))
    assert z == exp


# --------------------------------------------- max_coverage_selection

def test_max_coverage_selection_vs_brute(ray_session):
    import ray.data as rd

    from kgruntime.ops.text import max_coverage_selection

    rng = np.random.RandomState(47)
    vocab = ["w%d" % i for i in range(25)]
    texts = [" ".join(rng.choice(vocab, rng.randint(3, 20)))
             for _ in range(40)]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(40), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })).repartition(4)
    got = max_coverage_selection(ds, k_picks=4, k=3).to_pandas()

    # brute-force greedy on gram strings
    def grams(t):
        toks = [w for w in t.split(" ") if w]
        return {" ".join(toks[i:i + 3])
                for i in range(len(toks) - 2)} if len(toks) >= 3 \
            else set()

    gsets = {i: grams(t) for i, t in enumerate(texts)}
    cov, picked, exp = set(), set(), []
    for rank in range(1, 5):
        best = min(((-(len(gsets[i] - cov)), i)
                    for i in gsets if i not in picked))
        gain, i = -best[0], best[1]
        exp.append((rank, i, gain))
        picked.add(i)
        cov |= gsets[i]
    assert [(r.pick_rank, r.doc_id, r.gain)
            for r in got.itertuples()] == exp
    # greedy gains are non-increasing
    assert all(a >= b for a, b in zip(got["gain"], got["gain"][1:]))


# --------------------------------------------- gzip JSONL source/sink

def test_gzjsonl_roundtrip_exact(ray_session, tmp_path):
    import ray.data as rd

    from kgruntime.sources.documents import (read_documents_jsonl_gz,
                                             write_documents_jsonl_gz)

    docs = pa.table({
        "doc_id": pa.array(range(30), pa.int64()),
        "text": pa.array([f'd{i} "quote" \\ and ünicode' for i in
                          range(30)], pa.string()),
        "lang": pa.array(["en"] * 30, pa.string()),
        "source": pa.array(["s%d" % (i % 3) for i in range(30)],
                           pa.string()),
        "n_chars": pa.array([7] * 30, pa.int64()),
    })
    out = str(tmp_path / "gz")
    write_documents_jsonl_gz(rd.from_arrow(docs).repartition(3), out)
    import glob
    import gzip

    files = glob.glob(out + "/*.jsonl.gz")
    assert len(files) >= 2, "partitioned output, never one giant file"
    # files are REALLY gzip on disk
    with open(files[0], "rb") as f:
        assert f.read(2) == b"\x1f\x8b"
    back = read_documents_jsonl_gz(out).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    exp = docs.to_pandas()
    assert back[["doc_id", "text", "lang", "source", "n_chars"]] \
        .equals(exp)
    # decode path also handles raw (pre-decompressed) bytes
    raw = gzip.decompress(open(files[0], "rb").read())
    assert raw[:1] == b"{"


# --------------------------------------------- scd2_segment_revenue

def test_scd2_segment_revenue_vs_duckdb(ray_session):
    import duckdb

    from kgruntime.relational import (Q_SCD2_SEGMENT_REVENUE_SQL,
                                      q_scd2_segment_revenue)

    sf = "/root/testdata/sf0.001"
    got = q_scd2_segment_revenue(sf).to_pandas()
    con = duckdb.connect()
    for t in ["customer", "orders"]:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf}/{t}.parquet')")
    exp = con.execute(Q_SCD2_SEGMENT_REVENUE_SQL).df()
    assert got["segment"].tolist() == exp["segment"].tolist()
    assert got["n_orders"].tolist() == exp["n_orders"].tolist()
    assert got["revenue_cents"].tolist() == \
        exp["revenue_cents"].astype(int).tolist()
    # every order lands in exactly one version window
    n_orders = duckdb.sql(
        f"SELECT count(*) FROM '{sf}/orders.parquet'").fetchone()[0]
    assert got["n_orders"].sum() == n_orders


# --------------------------------------------- rank_agreement

def test_rank_agreement_extremes(ray_session):
    import ray.data as rd

    from kgruntime.ops.ann import rank_agreement

    # identical rankings -> tau = 1: make embeddings where inner
    # product order follows doc frequency of the query word exactly,
    # and docs where lexical score does too
    n, dim = 12, 4
    texts = [" ".join(["hit"] * (n - i) + ["pad"] * (i + 1))
             for i in range(n)]
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }))
    vecs = np.zeros((n, dim))
    vecs[:, 0] = np.arange(n, 0, -1)  # same order as lexical
    emb = rd.from_arrow(pa.table({
        "vec_id": pa.array(range(n), pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in vecs],
                              pa.list_(pa.float32())),
    }))
    q = np.zeros(dim)
    q[0] = 1.0
    got = rank_agreement(docs, emb, "hit", q, r=n).to_pandas().iloc[0]
    assert got["tau_ppm"] == 1_000_000
    assert got["n_discordant"] == 0
    assert got["n_common"] >= 2

    # reversed embedding order -> tau = -1
    vecs[:, 0] = np.arange(n)
    emb2 = rd.from_arrow(pa.table({
        "vec_id": pa.array(range(n), pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in vecs],
                              pa.list_(pa.float32())),
    }))
    got2 = rank_agreement(docs, emb2, "hit", q, r=n).to_pandas().iloc[0]
    assert got2["tau_ppm"] == -1_000_000
    assert got2["n_concordant"] == 0


# --------------------------------------------- epoch_shuffle_audit

def test_epoch_shuffle_audit_vs_brute(ray_session):
    import ray.data as rd

    from kgruntime.ops.dedup import _md5_60
    from kgruntime.ops.sample import epoch_shuffle_audit

    ids = list(range(100, 160))
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(ids, pa.int64())})).repartition(5)
    got = epoch_shuffle_audit(ds, n_epochs=3, k=6).to_pandas()
    orders = {}
    for e in range(3):
        order = sorted(ids, key=lambda d: (
            _md5_60(f"{e}|{d}".encode()), d))[:6]
        orders[e] = order
        sub = got[got.epoch == e].sort_values("rank")
        assert sub["doc_id"].tolist() == order
    # epochs produce different permutations
    assert orders[0] != orders[1] != orders[2]


# --------------------------------------------- dedup_sensitivity_sweep

def test_dedup_sensitivity_sweep_vs_brute(ray_session):
    import ray.data as rd

    from kgruntime.ops.dedup import dedup_sensitivity_sweep

    texts = [
        "Hello, World!",
        "hello world",          # dup of #0 only after normalization
        "HELLO WORLD",          # dup of #1 after casefold? no: "HELLO
                                # WORLD".lower() == "hello world" yes
        "Hello, World!",        # raw dup of #0
        " ".join("t%d" % i for i in range(150)),
        " ".join("t%d" % i for i in range(150)) + " tail extra",
        # same first 100 tokens as #4 -> prefix100 dup
    ]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })).repartition(3)
    got = dedup_sensitivity_sweep(ds).to_pandas().set_index("level")

    import re

    def count(fn):
        vals = [fn(t) for t in texts]
        return len(vals), len(set(vals))

    for level, fn in [
            ("raw", lambda t: t),
            ("casefold", str.lower),
            ("normalized", lambda t: re.sub(
                r"[^a-z0-9]+", " ", t.lower()).strip()),
            ("prefix100", lambda t: " ".join(
                [w for w in t.split(" ") if w][:100]))]:
        n, nd = count(fn)
        r = got.loc[level]
        assert (r["n_docs"], r["n_distinct"], r["n_dup_docs"]) == \
            (n, nd, n - nd), level
    # the ladder is monotone: more normalization, more dups
    assert got.loc["raw"]["n_dup_docs"] <= \
        got.loc["casefold"]["n_dup_docs"] <= \
        got.loc["normalized"]["n_dup_docs"]
    assert got.loc["prefix100"]["n_dup_docs"] >= \
        got.loc["raw"]["n_dup_docs"]


# --------------------------------------------- triplet_mining

def test_triplet_mining_vs_brute(ray_session):
    import ray.data as rd

    from kgruntime.ops.ann import _units_matrix, triplet_mining

    rng = np.random.RandomState(53)
    n, dim = 50, 16
    X = rng.randn(n, dim)
    labels = [int(rng.randint(3)) for _ in range(n)]
    emb = pa.table({
        "vec_id": pa.array(range(n), pa.int64()),
        "embedding": pa.array([list(map(float, x)) for x in X],
                              pa.list_(pa.float32())),
        "label": pa.array(labels, pa.int32()),
    })
    Xf = np.array(emb["embedding"].combine_chunks().flatten()
                  .to_numpy(zero_copy_only=False),
                  np.float64).reshape(n, dim)
    q_ids, q_labels, Q = list(range(5)), labels[:5], Xf[:5]
    got = triplet_mining(rd.from_arrow(emb).repartition(4),
                         Q, q_ids, q_labels).to_pandas() \
        .set_index("query_id")

    U = _units_matrix(Xf)
    for qi, qid in enumerate(q_ids):
        s = U[qi] @ U.T
        pos = min(((-s[i], i) for i in range(n)
                   if labels[i] == q_labels[qi] and i != qid))
        neg = min(((-s[i], i) for i in range(n)
                   if labels[i] != q_labels[qi]))
        r = got.loc[qid]
        assert (r["positive_id"], r["negative_id"]) == (pos[1], neg[1])
        assert r["margin"] == -pos[0] - (-neg[0])


# --------------------------------------------- pareto skyline

def test_skyline_mask_vs_brute():
    from kgruntime.relational import _skyline_mask

    rng = np.random.RandomState(59)
    for _ in range(100):
        n = rng.randint(1, 50)
        price = rng.randint(0, 15, n).astype(np.int64)
        size = rng.randint(0, 15, n).astype(np.int64)
        got = _skyline_mask(price, size)
        for a in range(n):
            dom = any(
                (price[b] <= price[a] and size[b] >= size[a]
                 and (price[b] < price[a] or size[b] > size[a]))
                for b in range(n))
            assert got[a] == (not dom)


def test_pareto_front_parts_sf0001(ray_session):
    import duckdb

    from kgruntime.relational import (Q_PARETO_FRONT_PARTS_SQL,
                                      q_pareto_front_parts)

    sf = "/root/testdata/sf0.001"
    got = q_pareto_front_parts(sf).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW part AS SELECT * FROM "
                f"read_parquet('{sf}/part.parquet')")
    exp = con.execute(Q_PARETO_FRONT_PARTS_SQL).df()
    assert got["p_partkey"].tolist() == exp["p_partkey"].tolist()
    assert got["price_cents"].tolist() == \
        exp["price_cents"].astype(int).tolist()
    assert got["p_size"].tolist() == exp["p_size"].astype(int).tolist()
    assert len(got) >= 1


# --------------------------------------------- BMP codec

def test_bmp_roundtrip_exact():
    from kgruntime.ops.bmp import decode_bmp, encode_bmp

    rng = np.random.RandomState(61)
    for h, w in [(1, 1), (3, 5), (24, 32), (7, 3)]:
        img = rng.randint(0, 256, (h, w, 3)).astype(np.uint8)
        data = encode_bmp(img)
        assert data[:2] == b"BM"
        back = decode_bmp(data)
        assert back.shape == img.shape
        assert (back == img).all(), (h, w)
    # row padding: widths not divisible by 4 must still roundtrip
    img = rng.randint(0, 256, (5, 2, 3)).astype(np.uint8)
    assert (decode_bmp(encode_bmp(img)) == img).all()


def test_bmp_top_down_and_rejects():
    import struct

    import pytest as _pytest

    from kgruntime.ops.bmp import decode_bmp, encode_bmp

    img = np.arange(2 * 2 * 3, dtype=np.uint8).reshape(2, 2, 3)
    data = bytearray(encode_bmp(img))
    # flip to top-down (negative height) and reverse rows in body
    struct.pack_into("<i", data, 14 + 8, -2)
    row_bytes = (2 * 3 + 3) & ~3
    off = len(data) - 2 * row_bytes
    r0 = bytes(data[off:off + row_bytes])
    r1 = bytes(data[off + row_bytes:])
    data[off:off + row_bytes] = r1
    data[off + row_bytes:] = r0
    assert (decode_bmp(bytes(data)) == img).all()

    with _pytest.raises(ValueError):
        decode_bmp(b"XX123456")
    # 8-bit palette BMP must be loudly unsupported
    bad = bytearray(encode_bmp(img))
    struct.pack_into("<H", bad, 14 + 14, 8)
    with _pytest.raises(NotImplementedError):
        decode_bmp(bytes(bad))


def test_media_bmp_features_real_pixels(ray_session):
    import ray.data as rd

    from kgruntime.ops.bmp import decode_bmp
    from kgruntime.ops.media import decode_features, synth_bmp_table

    refs = [f"media://t-{i}/bmp" for i in range(6)]
    tbl = synth_bmp_table(refs)
    out = decode_features(rd.from_arrow(tbl)).to_pandas() \
        .set_index("media_ref")
    # features must derive from the REAL pixels: recompute channel-0
    # mean from the decoded payload and compare to feature[0]
    for r, payload in zip(refs, tbl["payload"].to_pylist()):
        img = decode_bmp(payload)
        exp = float(img[:, :, 0].astype(np.float32).mean()) / 255.0
        got = out.loc[r]["features"][0]
        assert abs(got - exp) < 1e-6


# --------------------------------------------- empty-input hardening

def _empty_events():
    import ray.data as rd

    return rd.from_arrow(pa.table({
        "event_id": pa.array([], pa.int64()),
        "user_id": pa.array([], pa.int64()),
        "ts": pa.array([], pa.timestamp("us")),
        "event_type": pa.array([], pa.string()),
        "value": pa.array([], pa.float64()),
    }))


def _empty_docs():
    import ray.data as rd

    return rd.from_arrow(pa.table({
        "doc_id": pa.array([], pa.int64()),
        "text": pa.array([], pa.string()),
        "lang": pa.array([], pa.string()),
        "source": pa.array([], pa.string()),
        "n_chars": pa.array([], pa.int64()),
    }))


def test_round4g_ops_survive_empty_inputs(ray_session):
    """Every round-4g operator must degrade to an empty/zero result on
    an empty table, never crash (the pipeline-wide quarantine rule)."""
    from kgruntime.ops.dedup import (cdc_upsert_merge,
                                     dedup_sensitivity_sweep,
                                     source_overlap_matrix)
    from kgruntime.ops.dq import encoding_advisor
    from kgruntime.ops.sessions import (markov_next_event_accuracy,
                                        pit_training_features,
                                        stickiness_dau_mau)
    from kgruntime.ops.shard import (range_partition_planner,
                                     zorder_layout_audit)
    from kgruntime.ops.stats import dp_noisy_counts, join_skew_audit

    ev, docs = _empty_events(), _empty_docs()

    def nrows(r):
        return r.num_rows if isinstance(r, pa.Table) else r.count()

    assert nrows(pit_training_features(ev)) == 0
    assert nrows(markov_next_event_accuracy(ev)) == 0
    assert nrows(stickiness_dau_mau(ev)) == 0
    assert nrows(dp_noisy_counts(ev)) == 0
    assert nrows(range_partition_planner(ev)) == 0
    assert nrows(zorder_layout_audit(ev)) == 0
    assert nrows(cdc_upsert_merge(ev)) == 0
    assert nrows(source_overlap_matrix(docs)) == 0
    li = ev.map_batches(
        lambda t: pa.table({"l_partkey": t["user_id"]}),
        batch_format="pyarrow")
    assert nrows(join_skew_audit(li)) == 0
    sweep = dedup_sensitivity_sweep(docs).to_pandas()
    assert len(sweep) == 4 and (sweep["n_docs"] == 0).all()
    evp = ev.map_batches(
        lambda t: t.append_column("props", pa.array([], pa.string())),
        batch_format="pyarrow")
    assert nrows(encoding_advisor(evp)) == 0


# --------------------------------------------- peak_user_rate

def test_peak_user_rate_vs_brute(ray_session):
    import ray.data as rd

    from kgruntime.ops.sessions import peak_user_rate

    rng = np.random.RandomState(67)
    t0 = 1_700_000_000_000_000
    US_MIN = 60_000_000
    rows = []
    eid = 0
    for uid in range(15):
        n = rng.randint(1, 30)
        ts = np.sort(rng.randint(0, 300 * US_MIN, n)) + t0
        # inject duplicates sometimes
        if n > 3:
            ts[1] = ts[2]
        for t in ts:
            rows.append((eid, uid, int(t)))
            eid += 1
    ds = rd.from_arrow(pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "user_id": pa.array([r[1] for r in rows], pa.int64()),
        "ts": pa.array([r[2] for r in rows], pa.timestamp("us")),
    })).repartition(4)
    got = peak_user_rate(ds, window_min=60, cap=5).to_pandas() \
        .set_index("user_id")

    win = 60 * US_MIN
    for uid in range(15):
        ts = sorted(r[2] for r in rows if r[1] == uid)
        peak = max(sum(1 for b in ts if a - win < b <= a) for a in ts)
        r = got.loc[uid]
        assert (r["n_events"], r["peak_in_window"], r["over_cap"]) == \
            (len(ts), peak, int(peak > 5)), uid


# --------------------------------------------- validate_and_quarantine

def test_validate_and_quarantine_vs_brute(ray_session):
    import ray.data as rd

    from kgruntime.ops.dedup import _md5_60
    from kgruntime.ops.dq import (_DQ_TS_BOUND_US, _DQ_TS_SHIFT_US,
                                  validate_and_quarantine)

    rng = np.random.RandomState(71)
    t0 = 1_700_000_000_000_000
    n = 400
    rows = [(i, ["click", "view"][rng.randint(2)],
             round(float(rng.uniform(0.01, 50.0)), 2),
             t0 + int(rng.randint(0, 10**9)))
            for i in range(n)]
    ds = rd.from_arrow(pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "event_type": pa.array([r[1] for r in rows], pa.string()),
        "value": pa.array([r[2] for r in rows], pa.float64()),
        "ts": pa.array([r[3] for r in rows], pa.timestamp("us")),
    })).repartition(4)
    got = validate_and_quarantine(ds).to_pandas() \
        .set_index("event_id")

    exp = {}
    for i, et, v, ts in rows:
        h = _md5_60(f"q{i}".encode()) % 20
        v2 = -1.0 if h == 0 else v
        et2 = "bogus" if h == 1 else et
        ts2 = ts + (_DQ_TS_SHIFT_US if h == 2 else 0)
        if v2 < 0:
            exp[i] = "negative_value"
        elif et2 not in {"click", "view"}:
            exp[i] = "unknown_type"
        elif ts2 >= _DQ_TS_BOUND_US:
            exp[i] = "ts_out_of_range"
    assert set(got.index) == set(exp)
    for i, reason in exp.items():
        assert got.loc[i]["reason"] == reason
    # all three reasons exercised by the corruption rates
    assert set(exp.values()) == {"negative_value", "unknown_type",
                                 "ts_out_of_range"}


# --------------------------------------------- embedding_gram_matrix

def test_embedding_gram_matrix_vs_numpy(ray_session):
    import ray.data as rd

    from kgruntime.ops.ann import _units_matrix, embedding_gram_matrix

    rng = np.random.RandomState(73)
    n, dim = 80, 12
    X = rng.randn(n, dim)
    emb = pa.table({
        "vec_id": pa.array(range(n), pa.int64()),
        "embedding": pa.array([list(map(float, x)) for x in X],
                              pa.list_(pa.float32())),
    })
    Xf = np.array(emb["embedding"].combine_chunks().flatten()
                  .to_numpy(zero_copy_only=False),
                  np.float64).reshape(n, dim)
    got = embedding_gram_matrix(rd.from_arrow(emb).repartition(5)) \
        .to_pandas()
    U = _units_matrix(Xf)
    G = U.T @ U
    assert len(got) == dim * (dim + 1) // 2
    for r in got.itertuples():
        assert r.v == G[r.i - 1, r.j - 1], (r.i, r.j)


def test_embedding_gram_matrix_empty(ray_session):
    import ray.data as rd

    from kgruntime.ops.ann import embedding_gram_matrix

    emb = rd.from_arrow(pa.table({
        "embedding": pa.array([], pa.list_(pa.float32()))}))
    assert embedding_gram_matrix(emb).num_rows == 0


# --------------------------------------------- join_strategy_advisor

def test_join_strategy_advisor_sf0001(ray_session):
    import duckdb

    from kgruntime.relational import q_join_strategy_advisor

    sf = "/root/testdata/sf0.001"
    got = q_join_strategy_advisor(sf).to_pandas().iloc[0]
    n_orders = duckdb.sql(
        f"SELECT count(*) FROM '{sf}/orders.parquet'").fetchone()[0]
    n_cust = duckdb.sql(
        f"SELECT count(*) FROM '{sf}/customer.parquet'").fetchone()[0]
    mx = duckdb.sql(
        f"SELECT max(c) FROM (SELECT count(*) AS c FROM "
        f"'{sf}/orders.parquet' GROUP BY o_custkey)").fetchone()[0]
    assert (got["left_rows"], got["right_rows"],
            got["max_key_cnt"]) == (n_orders, n_cust, mx)
    assert got["strategy"] == "broadcast"  # dim side is tiny here
    # rule thresholds flip the decision
    big = q_join_strategy_advisor(sf, broadcast_limit=0,
                                  skew_factor=10**9) \
        .to_pandas().iloc[0]
    assert big["strategy"] == "salted_bucketed"
    mid = q_join_strategy_advisor(sf, broadcast_limit=0,
                                  skew_factor=1).to_pandas().iloc[0]
    assert mid["strategy"] == "bucketed"


# --------------------------------------------- ks_two_samples

def test_ks_two_samples_vs_scipy_style_brute(ray_session):
    import ray.data as rd

    from kgruntime.ops.sessions import pd  # noqa: F401  (import check)
    from kgruntime.ops.stats import ks_two_samples

    rng = np.random.RandomState(79)
    rows = []
    for i in range(500):
        et = "click" if i % 2 == 0 else "purchase"
        base = 10.0 if et == "click" else 25.0
        rows.append((i, et, round(float(rng.gamma(2.0, base)), 2)))
    ds = rd.from_arrow(pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "event_type": pa.array([r[1] for r in rows], pa.string()),
        "value": pa.array([r[2] for r in rows], pa.float64()),
    })).repartition(4)
    got = ks_two_samples(ds).to_pandas().iloc[0]

    a = sorted(int(round(r[2] * 100)) for r in rows if r[1] == "click")
    b = sorted(int(round(r[2] * 100)) for r in rows
               if r[1] == "purchase")
    support = sorted(set(a) | set(b))
    best, at = -1, 0
    for c in support:
        d = abs(sum(1 for x in a if x <= c) * len(b)
                - sum(1 for x in b if x <= c) * len(a))
        if d > best:
            best, at = d, c
    assert (got["n_a"], got["n_b"]) == (len(a), len(b))
    assert got["d_ppm"] == 1_000_000 * best // (len(a) * len(b))
    assert got["at_cents"] == at
    assert got["d_ppm"] > 100_000  # shifted distributions must differ


def test_ks_two_samples_identical_is_zero(ray_session):
    import ray.data as rd

    from kgruntime.ops.stats import ks_two_samples

    vals = [1.0, 2.0, 3.0] * 10
    ds = rd.from_arrow(pa.table({
        "event_type": pa.array(["click", "purchase"] * 15, pa.string()),
        "value": pa.array(vals, pa.float64()),
    }))
    got = ks_two_samples(ds).to_pandas().iloc[0]
    assert got["d_ppm"] == 0


# --------------------------------------------- benford_audit

def test_benford_audit_vs_brute(ray_session):
    import ray.data as rd

    from kgruntime.ops.stats import _benford_ppm, benford_audit

    rng = np.random.RandomState(83)
    # log-uniform values follow Benford closely
    vals = np.round(10 ** rng.uniform(-1, 3, 2000), 2)
    ds = rd.from_arrow(pa.table({
        "value": pa.array(vals, pa.float64())})).repartition(4)
    got = benford_audit(ds).to_pandas().set_index("digit")

    from collections import Counter
    cents = [int(np.copysign(np.floor(abs(v * 100) + 0.5), v))
             for v in vals]
    cnt = Counter(int(str(c)[0]) for c in cents if c > 0)
    total = sum(cnt.values())
    bf = _benford_ppm()
    for d in range(1, 10):
        r = got.loc[d]
        share = 1_000_000 * cnt.get(d, 0) // total
        assert (r["n"], r["share_ppm"]) == (cnt.get(d, 0), share)
        assert r["benford_ppm"] == bf[d - 1]
        assert r["dev_ppm"] == share - bf[d - 1]
    # log-uniform data: every digit within 3% of Benford
    assert max(abs(got["dev_ppm"])) < 30_000


# --------------------------------------------- subtree_balance_rollup

def test_subtree_balance_rollup_vs_brute(ray_session):
    import ray.data as rd

    from kgruntime.ops.graph import subtree_balance_rollup

    rng = np.random.RandomState(89)
    n, fanout = 200, 3
    bal = np.round(rng.uniform(-100, 1000, n), 2)
    ds = rd.from_arrow(pa.table({
        "c_custkey": pa.array(range(n), pa.int64()),
        "c_acctbal": pa.array(bal, pa.float64()),
    })).repartition(4)
    got = subtree_balance_rollup(ds, fanout=fanout).to_pandas() \
        .set_index("node")

    cents = [int(np.copysign(np.floor(abs(v * 100) + 0.5), v))
             for v in bal]
    desc = {i: [i] for i in range(n)}
    # accumulate bottom-up: every node contributes to all ancestors
    exp_n = {i: 0 for i in range(n)}
    exp_c = {i: 0 for i in range(n)}
    for i in range(n):
        j = i
        while True:
            exp_n[j] += 1
            exp_c[j] += cents[i]
            if j == 0:
                break
            j = (j - 1) // fanout
    assert set(got.index) == set(range(n))
    for i in range(n):
        assert (got.loc[i]["n_desc"], got.loc[i]["subtree_cents"]) == \
            (exp_n[i], exp_c[i]), i
    # root aggregates everything
    assert got.loc[0]["n_desc"] == n
    assert got.loc[0]["subtree_cents"] == sum(cents)


# --------------------------------------------- streaming_emit_audit

def test_streaming_emit_audit_vs_brute(ray_session):
    import ray.data as rd

    from kgruntime.ops.dedup import _md5_60
    from kgruntime.ops.sessions import streaming_emit_audit

    rng = np.random.RandomState(97)
    t0 = 1_700_000_000_000_000
    HR = 3_600_000_000
    n = 300
    rows = [(i, t0 + int(rng.randint(0, 24 * HR))) for i in range(n)]
    ds = rd.from_arrow(pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
    })).repartition(4)
    late_min = 30
    got = streaming_emit_audit(ds, lateness_min=late_min).to_pandas() \
        .set_index("whour")

    arr = sorted(((ts + (_md5_60(f"arr{i}".encode()) % 7200)
                   * 1_000_000, i, ts) for i, ts in rows))
    wm = None
    stat = {}
    late_us = late_min * 60_000_000
    for a, i, ts in arr:
        whour = ts // HR
        wend = (whour + 1) * HR
        if wm is None or wm < wend:
            s = "on"
        elif wm < wend + late_us:
            s = "late"
        else:
            s = "drop"
        d = stat.setdefault(whour, [0, 0, 0])
        d[{"on": 0, "late": 1, "drop": 2}[s]] += 1
        wm = a and (ts if wm is None else max(wm, ts))
    assert set(got.index) == set(stat)
    for w, (on, late, drop) in stat.items():
        r = got.loc[w]
        assert (r["n_on_time"], r["n_late_included"],
                r["n_dropped"]) == (on, late, drop), w
        assert r["batch_count"] == on + late + drop
    # the jittered fixture must exercise all three outcomes
    tot = got[["n_on_time", "n_late_included", "n_dropped"]].sum()
    assert (tot > 0).all()


# --------------------------------------------- pq_quant_recall

def test_pq_quant_recall_vs_brute(ray_session):
    import ray.data as rd

    from kgruntime.ops.ann import (_assign_int, _kmeans_fit_int,
                                   _units_matrix, pq_quant_recall)
    from kgruntime.ops.dedup import _md5_60

    rng = np.random.RandomState(101)
    n, dim, m, kc, ts, iters, k = 60, 8, 2, 4, 32, 2, 4
    X = rng.randn(n, dim)
    emb = pa.table({
        "vec_id": pa.array(range(n), pa.int64()),
        "embedding": pa.array([list(map(float, x)) for x in X],
                              pa.list_(pa.float32())),
    })
    Xf = np.array(emb["embedding"].combine_chunks().flatten()
                  .to_numpy(zero_copy_only=False),
                  np.float64).reshape(n, dim)
    q_ids, Q = list(range(5)), Xf[:5]
    got = pq_quant_recall(rd.from_arrow(emb).repartition(4), Q, q_ids,
                          k=k, m=m, n_centroids=kc, train_size=ts,
                          iters=iters).to_pandas().set_index("query_id")

    # brute force replay
    mod = max(1, n // ts)
    samp = sorted(i for i in range(n)
                  if _md5_60(str(i).encode()) % mod == 0)[:ts]
    U = _units_matrix(Xf)
    sub = dim // m
    books = [_kmeans_fit_int(U[samp][:, s * sub:(s + 1) * sub], kc,
                             iters) for s in range(m)]
    for qi, qid in enumerate(q_ids):
        se = U[qi] @ U.T
        adc = np.zeros(n, np.int64)
        for s in range(m):
            codes = _assign_int(U[:, s * sub:(s + 1) * sub], books[s])
            lut = U[qi, s * sub:(s + 1) * sub] @ books[s].T
            adc += lut[codes]
        cand = [i for i in range(n) if i != qid]
        te = set(sorted(cand, key=lambda i: (-se[i], i))[:k])
        tp = set(sorted(cand, key=lambda i: (-adc[i], i))[:k])
        mth = len(te & tp)
        r = got.loc[qid]
        assert (r["n_match"], r["recall_ppm"]) == \
            (mth, mth * 1_000_000 // k), qid


def test_pq_perfect_recall_on_codebook_points(ray_session):
    import ray.data as rd

    from kgruntime.ops.ann import pq_quant_recall

    # vectors drawn FROM a tiny set of distinct prototypes: PQ codes
    # reconstruct them exactly, so ADC ranking == exact ranking
    rng = np.random.RandomState(103)
    protos = rng.randn(4, 8) * 10
    X = protos[rng.randint(0, 4, 48)]
    emb = pa.table({
        "vec_id": pa.array(range(48), pa.int64()),
        "embedding": pa.array([list(map(float, x)) for x in X],
                              pa.list_(pa.float32())),
    })
    Xf = np.array(emb["embedding"].combine_chunks().flatten()
                  .to_numpy(zero_copy_only=False),
                  np.float64).reshape(48, 8)
    got = pq_quant_recall(rd.from_arrow(emb), Xf[:3], [0, 1, 2], k=3,
                          m=2, n_centroids=4, train_size=48,
                          iters=4).to_pandas()
    assert (got["recall_ppm"] == 1_000_000).all()


# --------------------------------------------- bitmap_index_queries

def test_bitmap_index_queries_vs_brute(ray_session):
    import ray.data as rd

    from kgruntime.ops.shard import bitmap_index_queries

    rng = np.random.RandomState(107)
    t0 = 1_700_000_000_000_000
    US_DAY = 86_400_000_000
    n = 500
    # ids beyond one 65536-partition to exercise multi-partition fold
    ids = sorted(rng.choice(200_000, n, replace=False))
    types = ["click", "purchase", "view"]
    rows = [(int(i), types[rng.randint(3)],
             t0 + int(rng.randint(0, 15)) * US_DAY) for i in ids]
    ds = rd.from_arrow(pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "event_type": pa.array([r[1] for r in rows], pa.string()),
        "ts": pa.array([r[2] for r in rows], pa.timestamp("us")),
    })).repartition(4)
    got = bitmap_index_queries(ds).to_pandas().set_index("query_id")

    base = min(r[2] for r in rows) // US_DAY
    day = {r[0]: r[2] // US_DAY - base for r in rows}
    q0 = sum(1 for i, et, ts in rows
             if et == "click" and 0 <= day[i] <= 2)
    q1 = sum(1 for i, et, ts in rows
             if et == "purchase" and 3 <= day[i] <= 9)
    q2 = sum(1 for i, et, ts in rows if et == "view")
    assert (got.loc[0]["n_rows"], got.loc[1]["n_rows"],
            got.loc[2]["n_rows"]) == (q0, q1, q2)
    assert q0 > 0 and q1 > 0 and q2 > 0
    # multi-partition: ids really span > 1 bitmap partition
    assert max(ids) >> 16 != min(ids) >> 16


# --------------------------------------------- multi_query_lexical

def test_multi_query_lexical_matches_single(ray_session):
    import ray.data as rd

    from kgruntime.ops.text import lexical_topk, multi_query_lexical

    rng = np.random.RandomState(109)
    vocab = ["alpha", "beta", "gamma", "delta", "eps", "zeta", "eta"]
    texts = [" ".join(rng.choice(vocab, rng.randint(3, 25)))
             for _ in range(80)]
    docs = pa.table({
        "doc_id": pa.array(range(80), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    queries = ["alpha beta", "gamma", "delta eps zeta"]
    got = multi_query_lexical(
        rd.from_arrow(docs).repartition(4), queries, k=5).to_pandas()

    # batched result must equal three independent single-query runs
    for qi, q in enumerate(queries):
        single = lexical_topk(rd.from_arrow(docs), q, k=5).to_pandas()
        sub = got[got.query_id == qi].sort_values("rank")
        assert sub["doc_id"].tolist() == single["doc_id"].tolist(), q
        assert sub["score"].tolist() == single["score"].tolist(), q
    # ranks well-formed
    for qi in range(3):
        assert got[got.query_id == qi]["rank"].tolist() == \
            list(range(1, 6))


def test_late_round4g_ops_survive_empty_inputs(ray_session):
    import pandas as pd
    import ray.data as rd

    from kgruntime.ops.ann import embedding_outliers, kmeans_clusters, \
        label_centroids, pq_quant_recall
    from kgruntime.ops.sessions import late_event_audit, peak_user_rate, \
        streaming_emit_audit
    from kgruntime.ops.shard import bitmap_index_queries, \
        curriculum_order, pack_sequences, token_budget_shards
    from kgruntime.ops.stats import benford_audit, ks_two_samples
    from kgruntime.ops.text import multi_query_lexical

    ev = _empty_events()
    docs = _empty_docs()

    def nrows(r):
        return r.num_rows if isinstance(r, pa.Table) else r.count()

    assert nrows(peak_user_rate(ev)) == 0
    assert nrows(streaming_emit_audit(ev)) == 0
    assert nrows(bitmap_index_queries(ev)) == 0
    assert ks_two_samples(ev).to_pandas().iloc[0]["d_ppm"] == 0
    bf = benford_audit(ev).to_pandas()
    assert len(bf) == 9 and (bf["n"] == 0).all()
    assert nrows(multi_query_lexical(docs, ["a b", "c"])) == 0
    emb = rd.from_arrow(pa.table({
        "vec_id": pa.array([], pa.int64()),
        "embedding": pa.array([], pa.list_(pa.float32()))}))
    assert nrows(pq_quant_recall(emb, np.zeros((0, 4)), [])) == 0

    def columns(r):
        """The columns of a zero-row result."""
        if isinstance(r, pd.DataFrame):
            assert len(r) == 0
            return list(r.columns)
        assert nrows(r) == 0
        return (r.schema if isinstance(r, pa.Table) else r.schema()).names

    # the prefix-scan ops and the ANN label/k-means ops keep their
    # columns on a zero-row input
    assert columns(token_budget_shards(docs)) == \
        ["doc_id", "n_tokens", "shard_id"]
    assert columns(pack_sequences(docs)) == \
        ["shard_id", "n_docs", "n_tokens", "packed"]
    assert columns(curriculum_order(docs)) == \
        ["doc_id", "stratum", "pos", "shard_id"]
    assert columns(late_event_audit(ev)) == \
        ["event_type", "n_events", "n_late", "max_lateness_ms"]
    assert columns(streaming_emit_audit(ev)) == \
        ["whour", "n_on_time", "n_late_included", "n_dropped",
         "batch_count"]
    # no schema at all: every row filtered out of a one-row table
    gone = rd.from_arrow(pa.table({
        "event_id": pa.array([1], pa.int64()),
        "user_id": pa.array([1], pa.int64()),
        "ts": pa.array([0], pa.timestamp("us")),
        "event_type": pa.array(["view"], pa.string()),
        "value": pa.array([1.0], pa.float64())})).filter(lambda r: False)
    assert columns(late_event_audit(gone)) == \
        ["event_type", "n_events", "n_late", "max_lateness_ms"]
    assert columns(streaming_emit_audit(gone)) == \
        ["whour", "n_on_time", "n_late_included", "n_dropped",
         "batch_count"]
    emb = rd.from_arrow(pa.table({
        "vec_id": pa.array([], pa.int64()),
        "embedding": pa.array([], pa.list_(pa.float32())),
        "label": pa.array([], pa.int32())}))
    assert columns(embedding_outliers(emb)) == \
        ["label", "vec_id", "dist2", "rnk"]
    assert columns(label_centroids(emb)) == ["label", "i", "centroid"]
    assert columns(kmeans_clusters(emb)) == ["vec_id", "cid", "cluster_n"]


# --------------------------------------------- k_anonymity_audit

def test_k_anonymity_audit_vs_brute(ray_session):
    import ray.data as rd

    from kgruntime.ops.dq import k_anonymity_audit

    rng = np.random.RandomState(127)
    rows = [(i, ["en", "de"][rng.randint(2)],
             "s%d" % rng.randint(4), int(rng.randint(50, 450)))
            for i in range(120)]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "lang": pa.array([r[1] for r in rows], pa.string()),
        "source": pa.array([r[2] for r in rows], pa.string()),
        "n_chars": pa.array([r[3] for r in rows], pa.int64()),
    })).repartition(4)
    got = k_anonymity_audit(ds).to_pandas().set_index("k")

    from collections import Counter
    cls = Counter((r[1], r[2], r[3] // 100) for r in rows)
    for k in (2, 5, 10):
        small = [n for n in cls.values() if n < k]
        r = got.loc[k]
        assert r["n_groups"] == len(cls)
        assert r["n_small_groups"] == len(small)
        assert r["n_risky_docs"] == sum(small)
        assert r["risky_ppm"] == 1_000_000 * sum(small) // 120
    # risk is monotone in k
    assert got["n_risky_docs"].is_monotonic_increasing


# --------------------------------------------- personalized_pagerank

def test_ppr_concentrates_on_seeds_and_reduces_to_pagerank(ray_session):
    import ray.data as rd

    from kgruntime.ops.graph import pagerank, personalized_pagerank

    # a path graph 0-1-2-...-9, symmetrized
    pairs = [(i, i + 1) for i in range(9)]
    edges = pa.table({
        "src": pa.array([a for a, b in pairs]
                        + [b for a, b in pairs], pa.int64()),
        "dst": pa.array([b for a, b in pairs]
                        + [a for a, b in pairs], pa.int64()),
    })
    ds = rd.from_arrow(edges)
    ppr = personalized_pagerank(ds, n_seeds=2).to_pandas() \
        .set_index("user_id")
    # teleport mass only reaches near the seeds {0, 1}
    assert ppr.loc[0]["rank_scaled"] > ppr.loc[9]["rank_scaled"]
    assert ppr.loc[1]["rank_scaled"] > ppr.loc[8]["rank_scaled"]

    # seeds = all nodes reduces to the uniform-teleport pagerank
    ppr_all = personalized_pagerank(
        rd.from_arrow(edges), n_seeds=10).to_pandas() \
        .sort_values("user_id").reset_index(drop=True)
    pr = pagerank(rd.from_arrow(edges)).to_pandas() \
        .sort_values("user_id").reset_index(drop=True)
    assert ppr_all["rank_scaled"].tolist() == \
        pr["rank_scaled"].tolist()


# --------------------------------------------- copy_genealogy

def test_copy_genealogy_vs_brute(ray_session):
    import ray.data as rd

    from kgruntime.ops.dedup import copy_genealogy

    rng = np.random.RandomState(131)
    vocab = ["w%d" % i for i in range(12)]
    base = [" ".join(rng.choice(vocab, 20)) for _ in range(10)]
    texts = list(base)
    # doc 10..14 copy doc i with a small edit -> provenance edges
    for i in range(5):
        toks = base[i].split()
        toks[0] = "edit"
        texts.append(" ".join(toks))
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })).repartition(4)
    K, MS = 4, 3
    got = copy_genealogy(ds, k=K, min_shared=MS).to_pandas() \
        .set_index("doc_id")

    def grams(t):
        toks = [w for w in t.split(" ") if w]
        return {" ".join(toks[i:i + K])
                for i in range(len(toks) - K + 1)}

    gs = [grams(t) for t in texts]
    first = {}
    for d, g in enumerate(gs):
        for x in g:
            first.setdefault(x, d)
    exp = {}
    for d, g in enumerate(gs):
        cnt = {}
        for x in g:
            s = first[x]
            if s < d:
                cnt[s] = cnt.get(s, 0) + 1
        cand = [(n, s) for s, n in cnt.items() if n >= MS]
        if cand:
            best = max(cand, key=lambda t: (t[0], -t[1]))
            exp[d] = (best[1], best[0])
    assert set(got.index) == set(exp)
    for d, (s, n) in exp.items():
        assert (got.loc[d]["source_doc"], got.loc[d]["n_shared"]) == \
            (s, n), d
    # the five edited copies must point at their originals
    for i in range(5):
        assert got.loc[10 + i]["source_doc"] == i


# --------------------------------------------- composition_drift

def test_composition_drift_vs_brute(ray_session):
    import ray.data as rd

    from kgruntime.ops.dq import composition_drift

    rng = np.random.RandomState(137)
    rows = []
    for i in range(300):
        src = "s%d" % rng.randint(3)
        # source s2 drifts: even ids mostly en, odd ids mostly de
        if src == "s2":
            lang = "en" if (i % 2 == 0) == (rng.rand() < 0.9) else "de"
        else:
            lang = ["en", "de", "fr"][rng.randint(3)]
        rows.append((i, src, lang))
    # a one-sided source: only even ids
    rows += [(1000 + 2 * j, "s3", "en") for j in range(5)]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "source": pa.array([r[1] for r in rows], pa.string()),
        "lang": pa.array([r[2] for r in rows], pa.string()),
    })).repartition(4)
    got = composition_drift(ds).to_pandas().set_index("source")

    from collections import Counter
    for src in ["s0", "s1", "s2", "s3"]:
        a = Counter(l for i, s, l in rows if s == src and i % 2 == 0)
        b = Counter(l for i, s, l in rows if s == src and i % 2 == 1)
        n_a, n_b = sum(a.values()), sum(b.values())
        r = got.loc[src]
        assert (r["n_a"], r["n_b"]) == (n_a, n_b)
        if n_a == 0 or n_b == 0:
            assert r["l1_ppm"] == 1_000_000
        else:
            num = sum(abs(a.get(l, 0) * n_b - b.get(l, 0) * n_a)
                      for l in set(a) | set(b))
            assert r["l1_ppm"] == 1_000_000 * num // (2 * n_a * n_b)
    # the planted drift shows: s2 far above s0/s1; s3 total
    assert got.loc["s2"]["l1_ppm"] > 3 * got.loc["s0"]["l1_ppm"]
    assert got.loc["s3"]["l1_ppm"] == 1_000_000


# --------------------------------------------- conversion_delay_percentiles

def test_conversion_delay_percentiles_vs_brute(ray_session):
    import datetime as dt

    import ray.data as rd

    from kgruntime.ops.sessions import conversion_delay_percentiles

    rng = np.random.RandomState(139)
    rows = []
    eid = 0
    t0 = 1_700_000_000_000_000
    for uid in range(25):
        t = t0 + int(rng.randint(0, 10**10))
        for _ in range(rng.randint(2, 14)):
            t += int(rng.randint(1, 10**8))
            rows.append((eid, uid, t,
                         ["click", "view", "purchase"][rng.randint(3)]))
            eid += 1
    ds = rd.from_arrow(pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "user_id": pa.array([r[1] for r in rows], pa.int64()),
        "ts": pa.array([r[2] for r in rows], pa.timestamp("us")),
        "event_type": pa.array([r[3] for r in rows], pa.string()),
    })).repartition(4)
    got = conversion_delay_percentiles(ds).to_pandas() \
        .set_index("dow")

    delays = {}
    for e, u, t, et in rows:
        if et != "purchase":
            continue
        clicks = [r[2] for r in rows
                  if r[1] == u and r[3] == "click" and r[2] < t]
        if not clicks:
            continue
        d = (t - max(clicks)) // 1_000_000
        dow = dt.datetime.utcfromtimestamp(t / 1e6).isoweekday()
        delays.setdefault(dow, []).append(d)
    assert set(got.index) == set(delays)
    for dow, ds_ in delays.items():
        s = sorted(ds_)
        n = len(s)
        r = got.loc[dow]
        assert r["n_pairs"] == n
        assert r["p50_s"] == s[(n + 1) // 2 - 1]
        assert r["p90_s"] == s[(9 * n + 9) // 10 - 1]


# --------------------------------------------- supplier_performance

def test_supplier_performance_vs_duckdb(ray_session):
    import duckdb

    from kgruntime.relational import (Q_SUPPLIER_PERFORMANCE_SQL,
                                      q_supplier_performance)

    sf = "/root/testdata/sf0.001"
    got = q_supplier_performance(sf).to_pandas()
    con = duckdb.connect()
    for t in ["lineitem", "orders", "supplier", "nation"]:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf}/{t}.parquet')")
    exp = con.execute(Q_SUPPLIER_PERFORMANCE_SQL).df()
    assert got["n_name"].tolist() == exp["n_name"].tolist()
    for c in ["n_suppliers", "n_items", "revenue_cents", "late_ppm"]:
        assert got[c].tolist() == exp[c].astype(int).tolist(), c
    assert got["late_ppm"].between(0, 1_000_000).all()


# --------------------------------------------- kg star query (PRoST VP)

def test_kg_star_query_matches_direct_join(ray_session, tmp_path):
    import ray.data as rd

    from kgruntime.stages.materialize import (star_bgp,
                                              write_pred_partitioned)

    triples = pa.table({
        "subj": pa.array(["s1", "s1", "s2", "s2", "s3", "s3", "s4"],
                         pa.string()),
        "pred": pa.array(["p:type", "p:name", "p:type", "p:name",
                          "p:type", "p:other", "p:name"], pa.string()),
        "obj": pa.array(["T1", "Alice", "T2", "Bob", "T1", "x", "Eve"],
                        pa.string()),
    })
    path = write_pred_partitioned(rd.from_arrow(triples).repartition(3),
                                  str(tmp_path / "vp"))
    got = star_bgp(path, "p:type", "p:name").to_pandas() \
        .sort_values(["s", "a", "b"]).reset_index(drop=True)

    df = triples.to_pandas()
    t = df[df.pred == "p:type"][["subj", "obj"]] \
        .rename(columns={"obj": "a"})
    n = df[df.pred == "p:name"][["subj", "obj"]] \
        .rename(columns={"obj": "b"})
    exp = t.merge(n, on="subj").rename(columns={"subj": "s"}) \
        .sort_values(["s", "a", "b"]).reset_index(drop=True)
    assert got[["s", "a", "b"]].equals(exp[["s", "a", "b"]])
    # subjects lacking one of the two predicates must be absent
    assert "s3" not in set(got["s"]) and "s4" not in set(got["s"])
    # the layout really is predicate-partitioned on disk
    import os

    parts = [d for d in os.listdir(path) if d.startswith("pk=")]
    assert len(parts) >= 2


# --------------------------------------------- trending_part_types

def test_trending_part_types_vs_duckdb(ray_session):
    import duckdb

    from kgruntime.relational import (Q_TRENDING_PART_TYPES_SQL,
                                      q_trending_part_types)

    sf = "/root/testdata/sf0.001"
    got = q_trending_part_types(sf).to_pandas() \
        .sort_values(["mon", "rnk"]).reset_index(drop=True)
    con = duckdb.connect()
    for t in ["lineitem", "orders", "part"]:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf}/{t}.parquet')")
    exp = con.execute(Q_TRENDING_PART_TYPES_SQL).df()
    for c in ["mon", "p_type", "rnk", "prev_rnk", "delta"]:
        assert got[c].tolist() == exp[c].tolist(), c
    # ranks are a contiguous 1..n prefix per month (a thin final month
    # can have fewer than k ranked types); movement must occur
    assert (got.groupby("mon")["rnk"].apply(
        lambda s: sorted(s) == list(range(1, len(s) + 1)))).all()
    assert (got["delta"] != 0).any()


# --------------------------------------------- build_kg_incremental

def test_incremental_kg_build_matches_single_shot(ray_session,
                                                  tmp_path):
    import ray.data as rd

    from kg_corpus import documents_table
    from kgruntime.pipelines.kg import build_kg, build_kg_incremental

    docs = documents_table(48, seed=42)
    half = docs.num_rows // 2

    full = build_kg(rd.from_arrow(docs))["canonical"].to_pandas()

    staged = str(tmp_path / "stage")
    r1 = build_kg_incremental(rd.from_arrow(docs.slice(0, half)),
                              staged)
    n1 = r1["canonical"].count()
    r2 = build_kg_incremental(
        rd.from_arrow(docs.slice(half)), staged)
    inc = r2["canonical"].to_pandas()

    cols = sorted(full.columns)
    a = full[cols].sort_values(cols).reset_index(drop=True)
    b = inc[cols].sort_values(cols).reset_index(drop=True)
    assert a.equals(b), "incremental store must equal single-shot"
    # the first increment alone was a genuine partial store
    assert 0 < n1 < len(b)
    import os

    assert len(os.listdir(staged)) == 2  # two staged increments


# --------------------------------------------- predicate_catalog

def test_predicate_catalog_vs_brute(ray_session):
    import ray.data as rd

    from kgruntime.stages.materialize import predicate_catalog

    triples = pa.table({
        "subj": pa.array(["a", "a", "b", "c", "c", "c", "d"],
                         pa.string()),
        "pred": pa.array(["p1", "p1", "p1", "p2", "p2", "p2", "p2"],
                         pa.string()),
        "obj": pa.array(["x", "y", "x", "z", "z", "w", "z"],
                        pa.string()),
    })
    got = predicate_catalog(rd.from_arrow(triples).repartition(3)) \
        .to_pandas().set_index("pred")

    df = triples.to_pandas()
    for p in ["p1", "p2"]:
        sub = df[df.pred == p]
        n, ns, no = len(sub), sub.subj.nunique(), sub.obj.nunique()
        r = got.loc[p]
        assert (r["n_triples"], r["n_subj"], r["n_obj"]) == (n, ns, no)
        assert r["subj_fanout_ppm"] == 1_000_000 * n // ns
        assert r["obj_fanout_ppm"] == 1_000_000 * n // no
