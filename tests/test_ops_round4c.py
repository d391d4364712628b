"""Round-4 (fourth wave) operators: prefix-filtered exact set-similarity
join, PMI collocations, phrase search, RFM segmentation, GIF codec."""

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


# --------------------------------------------- set-similarity join

def test_set_sim_join_identical_and_disjoint(ray_session):
    from kgruntime.ops.dedup import set_sim_join

    rows = [(1, "a b c d e f"), (2, "a b c d e f"),
            (3, "p q r s t u"), (4, "v w x y z aa")]
    out = set_sim_join(_docs(rows).repartition(2)).to_pandas() \
        .sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    assert out[["doc_a", "doc_b"]].values.tolist() == [[1, 2]]
    assert out["jaccard"].tolist() == [1.0]
    assert out["n_inter"].tolist() == [4]   # 4 distinct trigrams
    assert out["n_union"].tolist() == [4]


def test_set_sim_join_threshold_is_exact(ray_session):
    from kgruntime.ops.dedup import set_sim_join

    # docs 1/2 share 3 of 5 union trigrams (J=0.6, exactly τ); doc 3
    # shares only 1 trigram with doc 1 (J=1/7 < τ)
    rows = [(1, "a b c d e f"),       # abc bcd cde def  (4)
            (2, "a b c d e g"),       # abc bcd cde deg  (4) ∩=3 ∪=5
            (3, "a b c z1 z2 z3 z4")]
    out = set_sim_join(_docs(rows), tau_num=3, tau_den=5).to_pandas() \
        .sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    assert out[["doc_a", "doc_b"]].values.tolist() == [[1, 2]]
    assert out["n_inter"].tolist() == [3]
    assert out["n_union"].tolist() == [5]
    assert out["jaccard"].tolist() == [0.6]


def test_set_sim_join_size_filter_blocks_containment(ray_session):
    from kgruntime.ops.dedup import set_sim_join

    # doc 2's trigram set strictly contains doc 1's, but sizes 2 vs 8
    # fail τ·max ≤ min, so the pair must not appear even though they
    # share every prefix token
    rows = [(1, "a b c d"),
            (2, "a b c d e f g h i j")]
    out = set_sim_join(_docs(rows)).to_pandas()
    assert len(out) == 0


def test_set_sim_join_repartition_invariant(ray_session):
    from kgruntime.ops.dedup import set_sim_join

    rows = [(i, f"common base words here t{i % 3}") for i in range(12)]
    a = set_sim_join(_docs(rows).repartition(1)).to_pandas() \
        .sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    b = set_sim_join(_docs(rows).repartition(5)).to_pandas() \
        .sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    # cross-group pairs share 2 of 4 union trigrams (J=0.5 < τ); only
    # the 3 identical groups pair up: 3 * C(4,2)
    assert len(a) == 18
    assert (a["jaccard"] == 1.0).all()


# --------------------------------------------------- PMI collocations

def test_pmi_collocations_exact_integer(ray_session):
    from kgruntime.ops.text import pmi_collocations

    # corpus: "x y" always together (perfect collocation), "p q" and
    # "p r" split p's right-context (weaker)
    rows = [(1, "x y p q"), (2, "x y p r"), (3, "x y p q"),
            (4, "x y p r")]
    out = pmi_collocations(_docs(rows), top_k=10, min_count=2)
    # N_u = 16 tokens, N_b = 12 bigrams
    # c(x y)=4, c(x)=4, c(y)=4 → 4·256·1e6 // (12·16) = 5333333;
    # "p q" (c_ab=2, c_p=4, c_q=2) ties exactly and sorts first
    want = (4 * 16 * 16 * 10**6) // (12 * 4 * 4)
    xy = out[out["term"] == "x y"].iloc[0]
    assert int(xy["pmi_ppm"]) == want
    assert out.iloc[0]["term"] == "p q"
    assert int(out.iloc[0]["pmi_ppm"]) == want
    # min_count filters the c=2 "p q"/"p r" IN but "y p" (c=4) scores
    # lower than x y; every returned count ≥ 2
    assert (out["c_ab"] >= 2).all()
    # deterministic ordering: pmi desc, then term asc
    key = list(zip(-out["pmi_ppm"], out["term"]))
    assert key == sorted(key)


def test_pmi_collocations_repartition_invariant(ray_session):
    import pandas as pd

    from kgruntime.ops.text import pmi_collocations

    rows = [(i, f"a b c d w{i % 5} a b") for i in range(20)]
    a = pmi_collocations(_docs(rows).repartition(1), top_k=20,
                         min_count=2)
    b = pmi_collocations(_docs(rows).repartition(7), top_k=20,
                         min_count=2)
    pd.testing.assert_frame_equal(a.reset_index(drop=True),
                                  b.reset_index(drop=True))


# ------------------------------------------------------ phrase search

def test_phrase_search_positions_and_counts(ray_session):
    from kgruntime.ops.text import phrase_search

    rows = [(1, "a b c a b c"),      # "a b c" at 1 and 4
            (2, "x a b c y"),        # at 2
            (3, "a b x c"),          # partial only
            (4, "c b a")]            # reversed
    out = phrase_search(_docs(rows), "a b c").to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert out["doc_id"].tolist() == [1, 2]
    assert out["n_matches"].tolist() == [2, 1]
    assert out["first_pos"].tolist() == [1, 2]


def test_phrase_search_repeated_term_phrase(ray_session):
    from kgruntime.ops.text import phrase_search

    rows = [(1, "go go go stop"), (2, "go stop go")]
    out = phrase_search(_docs(rows), "go go").to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    # doc 1: starts 1 and 2; doc 2: none (no adjacent pair)
    assert out["doc_id"].tolist() == [1]
    assert out["n_matches"].tolist() == [2]
    assert out["first_pos"].tolist() == [1]


def test_phrase_search_single_term_and_boundary(ray_session):
    from kgruntime.ops.text import phrase_search

    rows = [(1, "end of doc match"), (2, "match at start"),
            (3, "no hit here")]
    out = phrase_search(_docs(rows).repartition(3), "match") \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert out["doc_id"].tolist() == [1, 2]
    assert out["first_pos"].tolist() == [4, 1]


# --------------------------------------------------- RFM segmentation

def test_rfm_segments_bands_and_ties(ray_session):
    import datetime as dt

    import ray.data as rd

    from kgruntime.ops.sessions import rfm_segments

    base = dt.datetime(2025, 1, 1)
    rows = []
    # 5 users: user i has i+1 events of value 10*(i+1), last event on
    # day i → strictly increasing metrics, so bands = 1..5 exactly
    eid = 0
    for u in range(5):
        for j in range(u + 1):
            rows.append((u, base + dt.timedelta(days=u, hours=j),
                         10.0 * (u + 1)))
            eid += 1
    ev = rd.from_arrow(pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
        "value": pa.array([r[2] for r in rows], pa.float64())}))
    out = rfm_segments(ev).to_pandas().sort_values("user_id") \
        .reset_index(drop=True)
    assert out["freq"].tolist() == [1, 2, 3, 4, 5]
    assert out["mon_cents"].tolist() == [1000, 4000, 9000, 16000, 25000]
    # recency: user 4 is most recent (rec_days 0), user 0 oldest
    assert out["rec_days"].tolist() == [4, 3, 2, 1, 0]
    assert out["f_score"].tolist() == [1, 2, 3, 4, 5]
    assert out["m_score"].tolist() == [1, 2, 3, 4, 5]
    assert out["r_score"].tolist() == [5, 4, 3, 2, 1]
    assert out["rfm"].tolist() == [511, 422, 333, 244, 155]


def test_rfm_segments_tied_metric_shares_band(ray_session):
    import datetime as dt

    import ray.data as rd

    from kgruntime.ops.sessions import rfm_segments

    base = dt.datetime(2025, 6, 1)
    ev = rd.from_arrow(pa.table({
        "user_id": pa.array([1, 2, 3, 4], pa.int64()),
        "ts": pa.array([base] * 4, pa.timestamp("us")),
        "value": pa.array([5.0, 5.0, 5.0, 5.0], pa.float64())}))
    out = rfm_segments(ev).to_pandas()
    # every metric identical → every user lands in band 1 for all three
    assert (out["rfm"] == 111).all()


# ------------------------------------------------------ GIF codec

def test_gif_roundtrip_multiframe():
    from kgruntime.ops.gif import decode_gif, encode_gif

    rng = np.random.RandomState(3)
    palette = rng.randint(0, 256, size=(16, 3)).astype(np.uint8)
    frames = [rng.randint(0, 16, size=(13, 17)).astype(np.uint8)
              for _ in range(3)]
    out = decode_gif(encode_gif(frames, palette))
    assert len(out) == 3
    for fr, dec in zip(frames, out):
        assert dec.shape == (13, 17, 3)
        np.testing.assert_array_equal(dec, palette[fr])


def test_gif_decoder_against_independent_flat_encoder():
    # a spec-valid LZW stream produced WITHOUT the main encoder's
    # dictionary logic — catches cancelling encoder/decoder bug pairs
    import struct

    from kgruntime.ops.gif import (GIF_MAGIC, _lzw_encode_flat,
                                   _sub_blocks, decode_gif)

    rng = np.random.RandomState(7)
    palette = rng.randint(0, 256, size=(8, 3)).astype(np.uint8)
    idx = rng.randint(0, 8, size=(6, 9)).astype(np.uint8)
    bits = 3
    payload = bytearray(GIF_MAGIC)
    payload += struct.pack("<HHBBB", 9, 6,
                           0x80 | ((bits - 1) << 4) | (bits - 1), 0, 0)
    payload += palette.tobytes()
    payload += b"\x2c" + struct.pack("<HHHHB", 0, 0, 9, 6, 0)
    payload.append(bits)
    payload += _sub_blocks(_lzw_encode_flat(idx.reshape(-1), bits))
    payload.append(0x3B)
    out = decode_gif(bytes(payload))
    assert len(out) == 1
    np.testing.assert_array_equal(out[0], palette[idx])


def test_gif_lzw_dictionary_full_reset_path():
    # 256-color noise at 64x64 forces codes through every width up to
    # 12 bits and across ≥1 mid-stream CLEAR reset
    from kgruntime.ops.gif import decode_gif, encode_gif

    rng = np.random.RandomState(11)
    palette = rng.randint(0, 256, size=(256, 3)).astype(np.uint8)
    frame = rng.randint(0, 256, size=(64, 64)).astype(np.uint8)
    out = decode_gif(encode_gif([frame], palette))
    np.testing.assert_array_equal(out[0], palette[frame])


def test_gif_frame_sampling_stage(ray_session):
    import ray.data as rd

    from kgruntime.ops.gif import decode_gif
    from kgruntime.ops.media import gif_frame_features, synth_gif_table

    refs = [f"media://t-{i}/gif" for i in range(6)]
    tbl = synth_gif_table(refs, w=16, h=12)
    out = gif_frame_features(rd.from_arrow(tbl), stride=2,
                             max_frames=4).to_pandas() \
        .sort_values(["media_ref", "frame_index"]).reset_index(drop=True)
    # ref i has 2 + i%5 frames → sampled indices 0,2,4.. capped at 4
    got = out.groupby("media_ref")["frame_index"].apply(list).to_dict()
    for i, r in enumerate(refs):
        n = 2 + i % 5
        assert got[r] == list(range(0, n, 2))[:4]
    # sampled frame payloads are the REAL decoded pixels
    row = out[(out["media_ref"] == refs[3])
              & (out["frame_index"] == 2)].iloc[0]
    src = tbl.filter(
        pa.compute.equal(tbl["media_ref"], refs[3]))["payload"][0] \
        .as_py()
    expect = decode_gif(src)[2]
    assert row["frame_rgb"] == expect.tobytes()
    assert row["width"] == 16 and row["height"] == 12
    assert len(row["features"]) == 8


# ------------------------------------------------------ BGP 2-hop join

def test_bgp_2hop_join(ray_session):
    import ray.data as rd

    from kgruntime.stages.materialize import bgp_2hop

    t = pa.table({
        "subj": pa.array(["a", "b", "b", "c"], pa.string()),
        "pred": pa.array(["p1", "p1", "p2", "p2"], pa.string()),
        "obj": pa.array(["b", "c", "vb", "vc"], pa.string())})
    out = bgp_2hop(rd.from_arrow(t), "p1", "p2").to_pandas() \
        .sort_values(["x", "y"]).reset_index(drop=True)
    # a -p1-> b -p2-> vb ; b -p1-> c -p2-> vc
    assert out[["x", "y", "v"]].values.tolist() == [
        ["a", "b", "vb"], ["b", "c", "vc"]]


def test_bgp_2hop_empty_side(ray_session):
    import ray.data as rd

    from kgruntime.stages.materialize import bgp_2hop

    t = pa.table({
        "subj": pa.array(["a"], pa.string()),
        "pred": pa.array(["p1"], pa.string()),
        "obj": pa.array(["b"], pa.string())})
    ds = bgp_2hop(rd.from_arrow(t), "p1", "nope")
    assert ds.count() == 0
    # (to_pandas on an all-empty Dataset drops columns — the known
    # Ray 2.49 empty-schema quirk; count is the meaningful assert)


# ------------------------------------------------------ median + MAD

def test_mad_by_group_exact_lower_median(ray_session):
    import ray.data as rd

    from kgruntime.ops.stats import mad_by_group

    t = pa.table({
        "event_type": pa.array(["a"] * 6 + ["b"] * 3, pa.string()),
        # a: cents 100,200,300,400,500,600 → lower median 300 (n even);
        #    deviations 200,100,0,100,200,300 → sorted 0,100,100,200,
        #    200,300 → lower median 100
        # b: 50,50,1000 → median 50; deviations 0,0,950 → MAD 0
        "value": pa.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0,
                           0.5, 0.5, 10.0], pa.float64())})
    out = mad_by_group(rd.from_arrow(t)).to_pandas() \
        .sort_values("event_type").reset_index(drop=True)
    assert out["n_events"].tolist() == [6, 3]
    assert out["median_cents"].tolist() == [300, 50]
    assert out["mad_cents"].tolist() == [100, 0]


def test_mad_by_group_fold_equidistant(ray_session):
    import ray.data as rd

    from kgruntime.ops.stats import mad_by_group

    # med=200; dev multiset {100×2 (from 100 and 300), 0×1} → counts
    # must FOLD across the ± sides: lower median of {0,100,100} = 100
    t = pa.table({
        "event_type": pa.array(["x"] * 3, pa.string()),
        "value": pa.array([1.0, 2.0, 3.0], pa.float64())})
    out = mad_by_group(rd.from_arrow(t)).to_pandas()
    assert out["median_cents"].tolist() == [200]
    assert out["mad_cents"].tolist() == [100]


# --------------------------------------------------- curriculum order

def test_curriculum_order_interleaves_strata(ray_session):
    import ray.data as rd

    from kgruntime.ops.shard import curriculum_order

    # 40 docs, 2 strata by length (20 short, 20 long)
    t = pa.table({
        "doc_id": pa.array(list(range(40)), pa.int64()),
        "n_chars": pa.array([10] * 20 + [99] * 20, pa.int64())})
    out = curriculum_order(rd.from_arrow(t), n_strata=2, n_shards=4) \
        .to_pandas().sort_values("pos").reset_index(drop=True)
    assert len(out) == 40
    # pos is a strict total order key
    assert out["pos"].is_unique
    # parity of pos encodes the stratum → perfect interleave
    assert (out["pos"] % 2 == out["stratum"]).all()
    assert set(out["stratum"]) == {0, 1}
    # round-robin shards inherit the mix
    assert out["shard_id"].tolist() == (out["pos"] % 4).tolist()


def test_curriculum_order_rank_is_seeded_md5(ray_session):
    import hashlib

    import ray.data as rd

    from kgruntime.ops.shard import curriculum_order

    t = pa.table({
        "doc_id": pa.array(list(range(12)), pa.int64()),
        "n_chars": pa.array([7] * 12, pa.int64())})
    out = curriculum_order(rd.from_arrow(t).repartition(5), n_strata=1,
                           n_shards=3, seed=29).to_pandas() \
        .sort_values("pos").reset_index(drop=True)
    want = sorted(range(12), key=lambda d: (
        int(hashlib.md5(f"29:{d}".encode()).hexdigest()[:15], 16), d))
    assert out["doc_id"].tolist() == want


# ------------------------------------------------- weighted sampling

def test_weighted_priority_sample_exact_topk(ray_session):
    import hashlib

    import ray.data as rd

    from kgruntime.ops.sample import weighted_priority_sample

    t = pa.table({
        "doc_id": pa.array(list(range(100)), pa.int64()),
        "n_chars": pa.array([(d % 10) * 50 + 1 for d in range(100)],
                            pa.int64())})
    out = weighted_priority_sample(rd.from_arrow(t).repartition(7),
                                   k=10, seed=31)
    # exact reference: global smallest h//w with doc_id tie-break
    pri = {d: int(hashlib.md5(f"31:{d}".encode()).hexdigest()[:15], 16)
           // max((d % 10) * 50 + 1, 1) for d in range(100)}
    want = sorted(sorted(pri, key=lambda d: (pri[d], d))[:10])
    assert out["doc_id"].tolist() == want
    assert len(out) == 10


def test_weighted_priority_sample_keeps_a_tie_by_doc_id(ray_session):
    """Weights of 2^61 make every priority 0 (h < 2^60): the sample is
    decided by the doc_id tie-break alone, as in the SQL twin's
    ``ORDER BY priority, doc_id``, however the ids are spread over the
    blocks."""
    import random

    import ray.data as rd

    from kgruntime.ops.sample import weighted_priority_sample

    ids = list(range(100))
    random.Random(4).shuffle(ids)
    t = pa.table({"doc_id": pa.array(ids, pa.int64()),
                  "n_chars": pa.array([1 << 61] * 100, pa.int64())})
    out = weighted_priority_sample(rd.from_arrow(t).repartition(4), k=5)
    assert out["doc_id"].tolist() == [0, 1, 2, 3, 4]
    assert (out["priority"] == 0).all()


def test_weighted_priority_sample_bias_toward_heavy(ray_session):
    import ray.data as rd

    from kgruntime.ops.sample import weighted_priority_sample

    # weights 1 vs 10000: the heavy half should dominate the sample
    t = pa.table({
        "doc_id": pa.array(list(range(2000)), pa.int64()),
        "n_chars": pa.array([1 if d < 1000 else 10000
                             for d in range(2000)], pa.int64())})
    out = weighted_priority_sample(rd.from_arrow(t), k=100)
    heavy = (out["doc_id"] >= 1000).sum()
    assert heavy > 90


# -------------------------------------------------- click attribution

def test_click_attribution_dyadic_weights(ray_session):
    import datetime as dt

    import ray.data as rd

    from kgruntime.ops.sessions import click_attribution

    base = dt.datetime(2025, 3, 1, 12, 0, 0)
    rows = [
        # user 1: clicks at t-10min and t-5min, purchase $2 at t
        (1, 1, base - dt.timedelta(minutes=10), "click", 0.0),
        (2, 1, base - dt.timedelta(minutes=5), "click", 0.0),
        (3, 1, base, "purchase", 2.0),
        # user 2: click OUTSIDE the 120-min window, purchase $1
        (4, 2, base - dt.timedelta(minutes=200), "click", 0.0),
        (5, 2, base, "purchase", 1.0),
        # user 3: clicks only, no purchase → no output row
        (6, 3, base, "click", 0.0),
    ]
    ev = rd.from_arrow(pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "user_id": pa.array([r[1] for r in rows], pa.int64()),
        "ts": pa.array([r[2] for r in rows], pa.timestamp("us")),
        "event_type": pa.array([r[3] for r in rows], pa.string()),
        "value": pa.array([r[4] for r in rows], pa.float64())}))
    out = click_attribution(ev).to_pandas().sort_values("user_id") \
        .reset_index(drop=True)
    assert out["user_id"].tolist() == [1, 2]
    # user 1: rank 0 = t-5 click (200 << 19), rank 1 = t-10 (200 << 18)
    assert out["attr_units"].tolist() == [
        (200 << 19) + (200 << 18), 0]
    assert out["n_attributed"].tolist() == [2, 0]
    assert out["n_purchases"].tolist() == [1, 1]


def test_click_attribution_tie_break_and_strictly_before(ray_session):
    import datetime as dt

    import ray.data as rd

    from kgruntime.ops.sessions import click_attribution

    base = dt.datetime(2025, 3, 1, 12, 0, 0)
    rows = [
        # click AT the purchase instant is NOT attributed (strict <)
        (1, 1, base, "click", 0.0),
        (2, 1, base - dt.timedelta(minutes=1), "click", 0.0),
        (3, 1, base, "purchase", 4.0),
    ]
    ev = rd.from_arrow(pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "user_id": pa.array([r[1] for r in rows], pa.int64()),
        "ts": pa.array([r[2] for r in rows], pa.timestamp("us")),
        "event_type": pa.array([r[3] for r in rows], pa.string()),
        "value": pa.array([r[4] for r in rows], pa.float64())}))
    out = click_attribution(ev).to_pandas()
    assert out["n_attributed"].tolist() == [1]
    assert out["attr_units"].tolist() == [400 << 19]


# --------------------------------------------- principal component

def _emb_ds(mat):
    import ray.data as rd

    return rd.from_arrow(pa.table({
        "embedding": pa.array([row.tolist() for row in mat],
                              pa.list_(pa.float32()))}))


def test_principal_component_matches_float_pca(ray_session):
    from kgruntime.ops.ann import principal_component

    rng = np.random.RandomState(5)
    # anisotropic cloud: dominant direction = d
    d = rng.randn(16)
    d /= np.linalg.norm(d)
    x = (np.outer(rng.randn(400) * 5.0, d)
         + rng.randn(400, 16) * 0.3).astype(np.float32)
    out = principal_component(_emb_ds(x), iters=5)
    v = out["component_fp"].to_numpy(np.float64)
    # float reference
    xc = x.astype(np.float64) - x.mean(axis=0)
    _, _, vt = np.linalg.svd(xc, full_matrices=False)
    ref = vt[0]
    cos = abs(v @ ref) / (np.linalg.norm(v) * np.linalg.norm(ref))
    assert cos > 0.999


def test_principal_component_repartition_invariant(ray_session):
    import pandas as pd

    from kgruntime.ops.ann import principal_component

    rng = np.random.RandomState(9)
    x = rng.randn(120, 8).astype(np.float32)
    a = principal_component(_emb_ds(x).repartition(1))
    b = principal_component(_emb_ds(x).repartition(7))
    pd.testing.assert_frame_equal(a, b)


# ------------------------------------- curate_corpus staging escape hatch

def test_curate_corpus_staged_parity(ray_session, tmp_path):
    import ray.data as rd

    from kgruntime.ops.text import curate_corpus

    docs = rd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                           columns=["doc_id", "text", "lang", "source",
                                    "n_chars"])
    a = curate_corpus(docs).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    b = curate_corpus(docs, staging_dir=str(tmp_path / "gated")) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    assert len(a) > 0


# ------------------------------------------------ minhash error audit

def test_minhash_error_audit_identical_docs(ray_session):
    from kgruntime.ops.dedup import minhash_error_audit

    # two identical docs: LSH estimates J=1 exactly, exact join agrees
    rows = [(1, "w1 w2 w3 w4 w5 w6 w7 w8"),
            (2, "w1 w2 w3 w4 w5 w6 w7 w8"),
            (3, "z1 z2 z3 z4 z5 z6 z7 z8")]
    out = minhash_error_audit(_docs(rows))
    assert out["n_lsh_pairs"].tolist() == [1]
    assert out["n_exact_pairs"].tolist() == [1]
    assert out["n_both"].tolist() == [1]
    assert out["mean_err_ppm"].tolist() == [0]
    assert out["max_err_ppm"].tolist() == [0]


def test_minhash_error_audit_no_pairs(ray_session):
    from kgruntime.ops.dedup import minhash_error_audit

    rows = [(1, "a b c d e"), (2, "p q r s t")]
    out = minhash_error_audit(_docs(rows))
    assert out["n_both"].tolist() == [0]
    assert out["mean_err_ppm"].tolist() == [0]


# ---------------------------------------------------- late event audit

def test_late_event_audit_watermark_semantics(ray_session):
    import datetime as dt

    import ray.data as rd

    from kgruntime.ops.sessions import late_event_audit

    base = dt.datetime(2025, 4, 1)
    rows = [
        # arrival order = event_id; watermark = running max BEFORE
        (1, base + dt.timedelta(hours=5), "a"),   # first: never late
        (2, base + dt.timedelta(hours=1), "a"),   # 4 h behind → late
        (3, base + dt.timedelta(hours=6), "b"),   # ahead: not late
        (4, base + dt.timedelta(hours=5, minutes=30), "b"),  # 30 m: ok
    ]
    ev = rd.from_arrow(pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
        "event_type": pa.array([r[2] for r in rows], pa.string())}))
    out = late_event_audit(ev, late_ms=3_600_000).to_pandas() \
        .sort_values("event_type").reset_index(drop=True)
    assert out["n_events"].tolist() == [2, 2]
    assert out["n_late"].tolist() == [1, 0]
    assert out["max_lateness_ms"].tolist() == [4 * 3_600_000,
                                               30 * 60_000]


def test_late_event_audit_bucket_boundary(ray_session):
    import datetime as dt

    import ray.data as rd

    from kgruntime.ops.sessions import late_event_audit

    base = dt.datetime(2025, 4, 1)
    # watermark must carry ACROSS buckets: event 4096 sits in bucket 1
    # but its watermark comes from bucket 0's max
    ev = rd.from_arrow(pa.table({
        "event_id": pa.array([0, 4096], pa.int64()),
        "ts": pa.array([base + dt.timedelta(hours=10), base],
                       pa.timestamp("us")),
        "event_type": pa.array(["x", "x"], pa.string())}))
    out = late_event_audit(ev, late_ms=3_600_000).to_pandas()
    assert out["n_late"].tolist() == [1]
    assert out["max_lateness_ms"].tolist() == [10 * 3_600_000]


# ---------------------------------------------------- embedding drift

def test_embedding_drift_exact_means(ray_session):
    import ray.data as rd

    from kgruntime.ops.ann import embedding_drift

    cur = np.array([[0.1, -0.2], [0.3, 0.2], [0.5, 0.0]], np.float32)
    pri = np.array([[0.1, -0.2]], np.float32)
    out = embedding_drift(_emb_ds(cur).repartition(3), _emb_ds(pri))
    # units scale 1e4: cur sums (9000, 0) over 3 → means (3000, 0);
    # prior means (1000, -2000)
    assert out["mean_cur"].tolist() == [3000, 0]
    assert out["mean_prior"].tolist() == [1000, -2000]
    assert out["delta"].tolist() == [2000, 2000]


def test_embedding_drift_half_away_negative_mean(ray_session):
    from kgruntime.ops.ann import embedding_drift

    # sum −3 units over 2 rows → −1.5 → half-away −2 (banker's gives −2
    # too here; use −1/2e4 each → sum −2/2 = −1 exact, then a true .5
    # case: −0.00015 sums to −3 units over 2 → mean −2)
    cur = np.array([[-0.0001], [-0.0002]], np.float32)
    out = embedding_drift(_emb_ds(cur), _emb_ds(cur))
    assert out["mean_cur"].tolist() == [-2]
    assert out["delta"].tolist() == [0]


def test_gif_interlaced_roundtrip():
    from kgruntime.ops.gif import decode_gif, encode_gif

    rng = np.random.RandomState(21)
    palette = rng.randint(0, 256, size=(32, 3)).astype(np.uint8)
    # heights exercising all four interlace passes incl. short images
    for h, w in ((13, 9), (1, 5), (2, 3), (8, 8)):
        fr = rng.randint(0, 32, size=(h, w)).astype(np.uint8)
        enc = encode_gif([fr], palette, interlace=True)
        out = decode_gif(enc)
        np.testing.assert_array_equal(out[0], palette[fr])
        # interlaced and progressive encodings decode identically
        out2 = decode_gif(encode_gif([fr], palette, interlace=False))
        np.testing.assert_array_equal(out[0], out2[0])
