"""Round-5 operators: planner-driven BGP, MJPEG/AVI frame sampling,
registry index, and the round's new pipelines."""

from __future__ import annotations

import pyarrow as pa
import pytest

RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
FOAF = "http://xmlns.com/foaf/0.1/"
REL = "http://www.perceive.net/schemas/relationship/enemyOf"


def _catalog(counts: dict[str, int]) -> pa.Table:
    preds = sorted(counts)
    n = [counts[p] for p in preds]
    return pa.table({
        "pred": pa.array(preds, pa.string()),
        "n_triples": pa.array(n, pa.int64()),
        "n_subj": pa.array(n, pa.int64()),
        "n_obj": pa.array(n, pa.int64()),
        "subj_fanout_ppm": pa.array([1_000_000] * len(n), pa.int64()),
        "obj_fanout_ppm": pa.array([1_000_000] * len(n), pa.int64()),
    })


# ----------------------------------------------------------- planner


def test_plan_star_join_orders_cheapest_first():
    from kgruntime.stages.materialize import plan_star_join

    preds = ["p:a", "p:b", "p:c"]
    assert plan_star_join(
        _catalog({"p:a": 100, "p:b": 1, "p:c": 50}), preds) == [1, 2, 0]
    # flipping the statistics flips the chosen plan
    assert plan_star_join(
        _catalog({"p:a": 1, "p:b": 100, "p:c": 50}), preds) == [0, 2, 1]
    # absent predicate plans as empty → first
    assert plan_star_join(
        _catalog({"p:a": 5, "p:c": 9}), preds)[0] == 1


@pytest.fixture(scope="module")
def kg_store(ray_session):
    from kg_corpus import documents
    from kgruntime.pipelines.kg import build_kg

    return build_kg(documents(48, seed=42))["canonical"].materialize()


def test_planned_star_bgp_plan_invariant(kg_store):
    """The planner's answer equals BOTH fixed join orders (inner joins
    on one key commute), and is non-empty on the synthetic store."""
    from kgruntime.stages.materialize import planned_star_bgp

    preds = [RDF + "type", FOAF + "name", REL]

    def run(catalog=None):
        df = planned_star_bgp(kg_store, preds, catalog=catalog) \
            .to_pandas().sort_values(["s", "v0", "v1", "v2"]) \
            .reset_index(drop=True)
        return df

    chosen = run()
    fwd = run(_catalog({preds[0]: 1, preds[1]: 2, preds[2]: 3}))
    rev = run(_catalog({preds[0]: 3, preds[1]: 2, preds[2]: 1}))
    assert len(chosen) > 0
    assert chosen.equals(fwd)
    assert chosen.equals(rev)


def test_planned_star_bgp_uses_catalog_order(kg_store):
    """The executed order follows the statistics: with the real catalog,
    the cheapest pattern (enemyOf, 2 triples) leads, not rdf:type."""
    from kgruntime.stages.materialize import (plan_star_join,
                                              predicate_catalog)

    preds = [RDF + "type", FOAF + "name", REL]
    cat = predicate_catalog(kg_store)
    order = plan_star_join(cat, preds)
    counts = {p: c for p, c in zip(cat["pred"].to_pylist(),
                                   cat["n_triples"].to_pylist())}
    assert order[0] == min(range(3),
                           key=lambda i: (counts.get(preds[i], 0),
                                          preds[i]))
    assert order != [0, 1, 2] or \
        counts[preds[0]] <= counts[preds[1]] <= counts[preds[2]]


# -------------------------------------------- incremental-build hardening


def test_incremental_numbering_ignores_stray_files(ray_session, tmp_path):
    """ADVICE r4: a stray marker/temp file in staged_dir must not shift
    the increment numbering into a collision, and the delta's parse
    errors come back like build_kg's."""
    import ray.data as rd

    from kg_corpus import documents_table
    from kgruntime.pipelines.kg import build_kg_incremental

    staged = str(tmp_path / "stage")
    docs = documents_table(40, seed=7, malformed_every=5)
    r1 = build_kg_incremental(rd.from_arrow(docs.slice(0, 20)), staged)
    assert "errors" in r1 and r1["errors"].count() > 0
    # drop a stray file + dir that the old len(listdir) count would trip on
    (tmp_path / "stage" / "_marker.tmp").write_text("x")
    (tmp_path / "stage" / "editor-backup").mkdir()
    r2 = build_kg_incremental(rd.from_arrow(docs.slice(20)), staged)
    import os

    incs = sorted(d for d in os.listdir(staged) if d.startswith("inc-"))
    assert incs == ["inc-0000", "inc-0001"]
    assert r2["canonical"].count() > 0


def test_incremental_refuses_unpartitioned_staging(ray_session, tmp_path):
    """An increment staged in the old layout (bare parquet files, no
    record_kind= partition) raises instead of being silently skipped."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from kg_corpus import documents_table
    from kgruntime.pipelines.kg import build_kg_incremental

    legacy = tmp_path / "stage" / "inc-0000"
    legacy.mkdir(parents=True)
    pq.write_table(pa.table({"subj": ["_:b0"]}), str(legacy / "0.parquet"))
    with pytest.raises(ValueError, match="old unpartitioned"):
        build_kg_incremental(rd.from_arrow(documents_table(6)),
                             str(tmp_path / "stage"))
    assert sorted(p.name for p in (tmp_path / "stage").iterdir()) \
        == ["inc-0000"]


def test_incremental_errors_read_back_from_staging(ray_session, tmp_path):
    """An increment's quarantine is its staged record_kind=1 partition
    (the delta is parsed once, not re-parsed for the errors)."""
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    from kg_corpus import documents_table
    from kgruntime.pipelines.kg import build_kg_incremental

    staged = str(tmp_path / "stage")
    docs = documents_table(30, seed=3, malformed_every=4)
    build_kg_incremental(rd.from_arrow(docs.slice(0, 12)), staged)
    res = build_kg_incremental(rd.from_arrow(docs.slice(12)), staged)
    part = os.path.join(staged, "inc-0001", "record_kind=1")
    staged_errors = pq.ParquetDataset(part).read().num_rows
    # docs 12..29: malformed_every hits 15, 19, 23, 27; the malformed
    # payload hits 17, 23, 29
    assert staged_errors == res["errors"].count() == 6


# ------------------------------------------------- round-5 new pipelines


def _docs(rows):
    import ray.data as rd

    return rd.from_arrow(pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": pa.array([r[1] for r in rows], pa.string()),
        "lang": pa.array(["en"] * len(rows), pa.string()),
        "source": pa.array([r[2] for r in rows], pa.string()),
        "n_chars": pa.array([len(r[1]) for r in rows], pa.int64()),
    }))


def test_loo_source_influence_hand_computed(ray_session):
    from kgruntime.ops.valuation import loo_source_influence

    # s1: 2 docs (dup pair, 2+2 tokens); s2: 1 doc 4 tokens
    ds = _docs([(1, "a b", "s1"), (2, "a b", "s1"),
                (3, "c d e f", "s2")])
    out = loo_source_influence(ds).set_index("source")
    # all: N=3 T=8 H=2 dups=1
    # drop s1 → N'=1 T'=4 mean=4.0; H'=1 (s1 owned 'a b'), dups'=0
    assert out.loc["s1", "loo_mean_tok_ppm"] == 4_000_000
    assert out.loc["s1", "loo_dup_ppm"] == 0
    # drop s2 → N'=2 T'=4 mean=2.0; dups'=1 → 500000 ppm
    assert out.loc["s2", "loo_mean_tok_ppm"] == 2_000_000
    assert out.loc["s2", "loo_dup_ppm"] == 500_000
    assert out.loc["s2", "delta_dup_ppm"] == 500_000 - 333_333


def test_loo_source_influence_empty_string_source(ray_session):
    """A genuine '' source owning exclusive texts keeps its own-hash
    count (the per-bucket distinct-hash total is a flagged row, not a
    '' source); the result equals the DuckDB oracle twin."""
    import duckdb

    from kgruntime.ops.valuation import (loo_source_influence,
                                         loo_source_influence_sql)

    rows = [(1, "a b", ""), (2, "a b", ""), (3, "x y z", ""),
            (4, "c d e f", "s2"), (5, "a b", "s2"), (6, "g h", "s3")]
    got = loo_source_influence(_docs(rows))
    con = duckdb.connect()
    documents = pa.table({"source": [r[2] for r in rows],
                          "text": [r[1] for r in rows]})
    con.register("documents", documents)
    want = con.execute(loo_source_influence_sql()).fetchdf()
    assert got["source"].tolist() == want["source"].tolist() == \
        ["", "s2", "s3"]
    for col in want.columns[1:]:
        assert got[col].astype("int64").tolist() == \
            want[col].astype("int64").tolist(), col
    # drop '' → N'=3, H=4 distinct texts, '' owns only "x y z" →
    # H'=3, dups'=0
    assert got.set_index("source").loc["", "loo_dup_ppm"] == 0


def test_quality_threshold_sweep_monotone(ray_session):
    from kgruntime.ops.valuation import quality_threshold_sweep

    ds = _docs([(i, " ".join(["word"] * (i + 1)), "s") for i in range(20)]
               + [(99, "the a of in is", "s")])
    out = quality_threshold_sweep(ds)
    assert out["tau"].tolist() == list(range(0, 1000, 100))
    # keeping counts are non-increasing in tau; tau=0 keeps everything
    assert out["docs_kept"].is_monotonic_decreasing
    assert out["docs_kept"].iloc[0] == 21
    assert out["docs_kept_ppm"].iloc[0] == 1_000_000
    # the all-stopword doc scores low: gone by tau 500
    assert out["docs_kept"].iloc[5] < 21


def test_canonicalize_urls_folds():
    from kgruntime.ops.valuation import canonicalize_urls

    raw = pa.array([
        "https://EXAMPLE.com:443/page/1/",
        "https://example.com/page/1",
        "HTTP://Example.Com:80/x/?utm_source=feed",
        "https://example.com/page/1?utm_campaign=x",
        "https://example.com/page/1/extra",
    ], pa.string())
    out = canonicalize_urls(raw).to_pylist()
    assert out[0] == out[1] == "https://example.com/page/1"
    assert out[2] == "http://example.com/x"
    assert out[3] == "https://example.com/page/1"
    assert out[4] == "https://example.com/page/1/extra"


def test_url_canonical_dups_groups(ray_session):
    from kgruntime.ops.valuation import url_canonical_dups

    # ids 0 and 10: same source, both % 5 == 0 → same canonical URL
    # despite different raw variants (case/port/slash/utm)
    ds = _docs([(0, "x", "s1"), (10, "x", "s1"), (3, "x", "s2")])
    out = url_canonical_dups(ds).to_pandas()
    assert len(out) == 1
    assert out["canonical_url"].iloc[0] == \
        "https://s1.example.com/page/0"
    assert out["n_docs"].iloc[0] == 2
    assert out["min_doc_id"].iloc[0] == 0


def test_source_token_budget_water_fill(ray_session):
    from kgruntime.ops.valuation import source_token_budget

    # tokens per source: s1=2, s2=4, s3=10 → total 16, budget 8
    # water level: C=2 gives 2+2+2=6 ≤ 8; C=3 gives 2+3+3=8 ≤ 8;
    # C=4 gives 2+4+4=10 > 8 → cap 3
    ds = _docs([(1, "a b", "s1"), (2, "a b c d", "s2"),
                (3, " ".join(["w"] * 10), "s3")])
    out = source_token_budget(ds).set_index("source")
    assert out.loc["s1", "water_cap"] == 3
    assert out.loc["s1", "alloc_tokens"] == 2
    assert out.loc["s2", "alloc_tokens"] == 3
    assert out.loc["s3", "alloc_tokens"] == 3
    assert out["capped"].tolist() == [0, 1, 1]
    # budget ≥ total → nobody capped, cap = max T
    out2 = source_token_budget(ds, budget_num=2, budget_den=1) \
        .set_index("source")
    assert out2["capped"].sum() == 0
    assert out2.loc["s3", "alloc_tokens"] == 10


def test_term_concentration_hand_computed(ray_session):
    from kgruntime.ops.valuation import term_concentration_by_source

    # s1: counts a:3 b:1 → T=4, Σc²=10, eff = 16e6//10 = 1.6M ppm
    # s2: uniform x y → eff 2.0M ppm; top term tie → min('x','y')='x'
    ds = _docs([(1, "a a a b", "s1"), (2, "x y", "s2")])
    out = term_concentration_by_source(ds).to_pandas() \
        .set_index("source")
    assert out.loc["s1", "n_tokens"] == 4
    assert out.loc["s1", "n_terms"] == 2
    assert out.loc["s1", "eff_terms_ppm"] == 1_600_000
    assert out.loc["s1", "top_term"] == "a"
    assert out.loc["s1", "top_share_ppm"] == 750_000
    assert out.loc["s2", "eff_terms_ppm"] == 2_000_000
    assert out.loc["s2", "top_term"] == "x"


def test_term_concentration_sql_past_bigint_square():
    """The SQL twin's T²·10⁶ numerator must not overflow BIGINT: one
    source of 3.1M tokens of a single term is 1,000,000 ppm."""
    import duckdb
    import pandas as pd

    from kgruntime.ops.valuation import term_concentration_by_source_sql

    n = 3_100_000   # 3100 docs of 1000 tokens (one huge text splits slowly)
    documents = pd.DataFrame({"source": ["s1"] * 3100,
                              "text": [" ".join(["a"] * 1000)] * 3100})
    con = duckdb.connect()
    con.register("documents", documents)
    row = con.execute(term_concentration_by_source_sql()).fetchall()
    assert row == [("s1", n, 1, 1_000_000, "a", 1_000_000)]


def test_coarse_group_map_matches_plain_groupby(ray_session):
    """coarse_group_map must reproduce groupby(keys).map_groups(fn)
    exactly — per-key groups arrive intact in one coarse block — and
    honor min_group_size; so must the segment primitive under it, for
    integer and string keys, and an empty block must reach fn."""
    import numpy as np
    import ray.data as rd

    from kgruntime.ops.groups import (_per_group, coarse_group_map,
                                      segment_map, sort_segments)

    rng = np.random.RandomState(0)
    k1 = rng.randint(-50, 50, 500).astype("int64")
    k2 = rng.randint(0, 7, 500).astype("int64")
    v = np.arange(500, dtype="int64")
    ds = rd.from_arrow(pa.table({"k1": k1, "k2": k2, "v": v}))

    out_schema = pa.schema([("k1", pa.int64()), ("k2", pa.int64()),
                            ("n", pa.int64()), ("sv", pa.int64())])

    def summarize(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:       # Ray probes map_groups fns on empties
            return out_schema.empty_table()
        vv = g["v"].combine_chunks().to_numpy(zero_copy_only=False)
        return pa.table({"k1": g["k1"].slice(0, 1),
                         "k2": g["k2"].slice(0, 1),
                         "n": pa.array([len(vv)], pa.int64()),
                         "sv": pa.array([int(vv.sum())], pa.int64())},
                        schema=out_schema)

    want = ds.groupby(["k1", "k2"]).map_groups(
        summarize, batch_format="pyarrow").to_pandas() \
        .sort_values(["k1", "k2"]).reset_index(drop=True)
    got = coarse_group_map(ds, ["k1", "k2"], summarize).to_pandas() \
        .sort_values(["k1", "k2"]).reset_index(drop=True)
    assert want.equals(got)

    # min_group_size drops exactly the small groups
    got2 = coarse_group_map(ds, ["k1", "k2"], summarize,
                            min_group_size=3).to_pandas()
    assert set(map(tuple, got2[["k1", "k2"]].values)) == \
        set(map(tuple, want[want["n"] >= 3][["k1", "k2"]].values))

    # the segment primitive: one vectorized call per coarse block, the
    # block lexsorted by the keys and ``starts`` its key segments
    def summarize_segments(t: pa.Table, starts) -> pa.Table:
        vv = t["v"].to_numpy()
        sums = np.add.reduceat(vv, starts) if len(starts) else vv
        return pa.table({"k1": t["k1"].take(starts),
                         "k2": t["k2"].take(starts),
                         "n": pa.array(np.diff(np.append(starts, len(vv))),
                                       pa.int64()),
                         "sv": pa.array(sums, pa.int64())},
                        schema=out_schema)

    got4 = segment_map(ds, ["k1", "k2"], summarize_segments).to_pandas() \
        .sort_values(["k1", "k2"]).reset_index(drop=True)
    assert want.equals(got4)

    # string keys (hashed for the exchange), alone and mixed with ints
    names = np.array([f"name-{i}" for i in range(40)] + [""])
    ds_s = rd.from_arrow(pa.table({"s": names[rng.randint(0, 41, 500)],
                                   "k2": k2, "v": v}))

    def count_by(keys):
        def count(g: pa.Table) -> pa.Table:
            return pa.table({**{k: g[k].slice(0, 1) for k in keys},
                             "n": pa.array([g.num_rows], pa.int64())})
        return count

    for keys in (["s"], ["s", "k2"]):
        want_s = ds_s.groupby(keys).map_groups(
            count_by(keys), batch_format="pyarrow").to_pandas() \
            .sort_values(keys).reset_index(drop=True)
        got_s = coarse_group_map(ds_s, keys, count_by(keys)).to_pandas() \
            .sort_values(keys).reset_index(drop=True)
        assert want_s.equals(got_s)
        if keys == ["s"]:
            assert len(got_s) == 41     # the empty string is a key too

    # a zero-row block reaches fn as an empty block (no IndexError) and
    # yields fn's empty result
    empty = pa.table({"k1": k1, "k2": k2, "v": v}).slice(0, 0)
    blk, starts = sort_segments(empty, ["k1", "k2"])
    assert blk.num_rows == 0 and len(starts) == 0
    assert _per_group(summarize)(blk, starts).schema == out_schema
    assert summarize_segments(blk, starts).num_rows == 0


def test_minhash_two_phase_parity(ray_session):
    """Cost-based minhash paths must be bit-identical: single-phase
    (small corpus) vs two-phase (candidate joins, forced via
    threshold=0) on a dup-heavy corpus."""
    from kgruntime.ops.dedup import minhash_near_dups

    rows = []
    for i in range(40):
        base = f"alpha beta gamma delta epsilon zeta eta theta g{i // 4}"
        rows.append((i, base + (f" tail{i}" if i % 4 else ""), "s"))
    ds = _docs(rows)

    def run(**kw):
        return minhash_near_dups(ds, threshold=0.5, **kw).to_pandas() \
            .sort_values(["doc_a", "doc_b"]).reset_index(drop=True)

    single = run()
    two_phase = run(small_corpus_threshold=0)
    assert len(single) > 0
    assert single.equals(two_phase)


def test_incremental_near_dups_two_phase_parity(ray_session):
    from kgruntime.ops.dedup import incremental_near_dups

    prior = _docs([(i, f"alpha beta gamma delta epsilon g{i % 3}", "s")
                   for i in range(12)])
    new = _docs([(100 + i,
                  f"alpha beta gamma delta epsilon g{i % 3} x{i % 2}",
                  "s") for i in range(8)])

    def run(**kw):
        return incremental_near_dups(new, prior, threshold=0.5, **kw) \
            .to_pandas().sort_values("doc_id").reset_index(drop=True)

    single = run()
    two_phase = run(small_corpus_threshold=0)
    assert len(single) > 0
    assert single.equals(two_phase)


def test_page_stitch_pairs_seams(ray_session):
    from kgruntime.ops.dedup import page_stitch_pairs

    ds = _docs([
        (1, "alpha beta gamma delta", "s"),     # suffix: gamma delta
        (2, "gamma delta epsilon zeta", "s"),   # prefix: gamma delta
        (3, "epsilon zeta eta theta", "s"),     # prefix: epsilon zeta
        (4, "unrelated words here now", "s"),
        (5, "x", "s"),                          # < n tokens: excluded
    ])
    out = page_stitch_pairs(ds, n=2).to_pandas()
    assert list(zip(out["doc_a"], out["doc_b"])) == [(1, 2), (2, 3)]
    # a doc whose suffix equals its own prefix must not self-pair
    ds2 = _docs([(7, "a b c a b", "s")])
    assert page_stitch_pairs(ds2, n=2).count() == 0


def test_maxsim_topk_brute_force(ray_session):
    import numpy as np

    from kgruntime.ops.text import (_maxsim_vec, maxsim_topk)

    rows = [(i, t, "s") for i, t in enumerate(
        ["table scan", "join hash merge", "window agg stream the",
         "scan scan scan", "value row column"])]
    out = maxsim_topk(_docs(rows), queries=("table scan",), k=3) \
        .to_pandas()
    # brute-force reference
    want = []
    qm = np.stack([_maxsim_vec(t) for t in sorted({"table", "scan"})])
    for i, t, _ in rows:
        dm = np.stack([_maxsim_vec(w)
                       for w in sorted(set(t.split(" ")))])
        want.append((i, int((qm @ dm.T).max(axis=1).sum())))
    want.sort(key=lambda x: (-x[1], x[0]))
    assert list(zip(out["doc_id"], out["score"])) == want[:3]
    assert (out["query_id"] == 0).all()


# ----------------------------------------------------- registry index


def test_query_index_is_current():
    """QUERY_INDEX.md is generated (scripts/gen_query_index.py) and must
    match the live registry + the CORRECTNESS artifacts it was built
    from — audit state stays machine-checkable (VERDICT r4 item 8).
    The comparison is AS-OF the artifact list stamped in the file, so
    a driver artifact landing AFTER the round does not turn the
    committed index stale-red (the r4 rotation-test lesson); registry
    drift (add/remove/rename a query, change an oracle) still fails."""
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "scripts"))
    try:
        import gen_query_index
    finally:
        sys.path.pop(0)
    committed = (root / "QUERY_INDEX.md").read_text()
    files = gen_query_index.as_of_files(committed)
    assert committed == gen_query_index.build_index(files or None), \
        "QUERY_INDEX.md stale — rerun scripts/gen_query_index.py"


# ------------------------------------------------------ MJPEG/AVI codec


def _gradient_frames(n=4, h=24, w=32, seed=7):
    import numpy as np

    rng = __import__("numpy").random.RandomState(seed)
    yy, xx = np.mgrid[0:h, 0:w]
    base = rng.randint(0, 64, size=3)
    out = []
    for f in range(n):
        img = np.empty((h, w, 3), np.uint8)
        for c in range(3):
            img[:, :, c] = ((xx * (c + 1) + yy + 7 * f + base[c])
                            % 192 + 32).astype(np.uint8)
        out.append(img)
    return out


def test_avi_mjpeg_roundtrip_real_pixels():
    import numpy as np

    from kgruntime.ops.avi import (avi_info, avi_mjpeg_frame_chunks,
                                   decode_avi_mjpeg, encode_avi_mjpeg)
    from kgruntime.ops.jpeg import encode_jpeg

    frames = _gradient_frames(n=5)
    payload = encode_avi_mjpeg(frames, fps=10, quality=90)
    info = avi_info(payload)
    assert (info["n_frames"], info["width"], info["height"]) == (5, 32, 24)
    assert info["compression"] == b"MJPG"
    # container walk returns the embedded JPEGs BYTE-EXACT
    chunks = avi_mjpeg_frame_chunks(payload)
    assert chunks == [encode_jpeg(f, quality=90) for f in frames]
    # full decode: real pixels within JPEG tolerance on smooth content
    dec = decode_avi_mjpeg(payload)
    assert len(dec) == 5 and dec[0].shape == (24, 32, 3)
    err = np.abs(dec[0].astype(int) - frames[0].astype(int)).mean()
    assert err < 8.0


def test_avi_rejects_non_mjpeg_loudly():
    import struct

    import pytest as _pt

    from kgruntime.ops.avi import (avi_info, decode_avi_mjpeg,
                                   encode_avi_mjpeg)

    payload = bytearray(encode_avi_mjpeg(_gradient_frames(n=2)))
    # flip the strf biCompression fourcc to XVID
    i = payload.find(b"MJPG", payload.find(b"strf"))
    payload[i:i + 4] = b"XVID"
    assert avi_info(bytes(payload))["compression"] == b"XVID"
    with _pt.raises(NotImplementedError, match="ffmpeg"):
        decode_avi_mjpeg(bytes(payload))
    with _pt.raises(ValueError, match="RIFF/AVI"):
        avi_info(b"\x00" * 32)
    # declared-count mismatch: truncate the movi list after frame 1
    good = encode_avi_mjpeg(_gradient_frames(n=3))
    j = good.find(b"00dc", good.find(b"movi") + 4)
    k = good.find(b"00dc", j + 4)
    sz = struct.unpack("<I", good[j + 4:j + 8])[0]
    with _pt.raises(ValueError, match="declares"):
        decode_avi_mjpeg(good[:k])


def test_avi_rejects_truncated_avih():
    """A short avih chunk raises a truncation ValueError instead of a
    struct.error or a read into the next chunk."""
    import struct

    import pytest as _pt

    from kgruntime.ops.avi import avi_info, encode_avi_mjpeg

    good = encode_avi_mjpeg(_gradient_frames(n=2))
    i = good.find(b"avih")
    # the payload ends 20 bytes into the avih body
    with _pt.raises(ValueError, match="avih header truncated: 20 of 40"):
        avi_info(good[:i + 8 + 20])
    # the chunk declares fewer than the 40 bytes its fields need
    short = good[:i + 4] + struct.pack("<I", 16) + good[i + 8:]
    with _pt.raises(ValueError, match="avih header truncated: 16 of 40"):
        avi_info(short)


def test_frame_sampler_real_path(ray_session):
    import ray.data as rd

    from kgruntime.ops.media import (frame_features, sample_frames,
                                     synth_avi_table)

    refs = [f"m://{i}" for i in range(10)]
    tbl = synth_avi_table(refs)
    frames = sample_frames(rd.from_arrow(tbl)).take_all()
    # ≤ max_frames evenly spaced per clip, JPEG payloads
    by_ref = {}
    for r in frames:
        by_ref.setdefault(r["media_ref"], []).append(r)
        assert r["frame_payload"][:2] == b"\xff\xd8"
    assert set(by_ref) == set(refs)
    assert all(len(v) <= 4 for v in by_ref.values())
    feats = frame_features(
        sample_frames(rd.from_arrow(tbl)), feat_dim=8).take_all()
    assert len(feats) == len(frames)
    assert all(len(r["features"]) == 8 for r in feats)


def test_planned_star_bgp_empty_pattern(kg_store):
    from kgruntime.stages.materialize import planned_star_bgp

    out = planned_star_bgp(
        kg_store, [RDF + "type", "http://nowhere/px", FOAF + "name"])
    assert out.count() == 0
    assert list(out.schema().names) == ["s", "v0", "v1", "v2"]
