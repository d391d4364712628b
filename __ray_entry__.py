"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in kgruntime) calls ``ray.init`` / ``ray.shutdown``.

* ``entry()`` — flagship KG-construction pipeline at sf0.001 scale.
* ``queries()`` — one callable per implemented operator/pipeline
  (SURVEY.md §2 + training-data ops); each takes ``sf_dir``.
* ``oracle_sql()`` — DuckDB-equivalent SQL for every SQL-expressible
  query (same column names; floats rounded identically on both sides).
  KG/fuzzy-hash/LSH pipelines are genuinely non-SQL-expressible and are
  covered by pytest golden parity instead (rows-only here).

Every query is one row of ``_QUERIES`` (a ``Q``): the op it runs, its
input, the post-step and the SQL twin.  ``_registry()`` and
``oracle_sql()`` are derived from that table and ``run()`` executes a
row; a hand-written ``_q_*`` function exists only where a query really
composes stages, and its row points at it.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import re
import shutil
from collections.abc import Callable
from functools import partial
from typing import Any, NamedTuple

import numpy as np
import pyarrow.parquet as pq

from perfbench.corpus import Profile, make_corpus


def _n_docs_for(sf_dir: str) -> int:
    """Deterministic synthetic-corpus size keyed to the scale factor."""
    try:
        return max(58, pq.read_metadata(
            os.path.join(sf_dir, "documents.parquet")).num_rows)
    except Exception:
        return 290


# the KG queries' corpus: seeded Turtle documents (perfbench/corpus.py)
# with distinct texts and every 40th document malformed
PROFILE = Profile(n_docs=0, pool=0, subj_skew=1.0, n_subjects=500)


def _corpus(sf_dir: str, prof: Profile = PROFILE):
    return make_corpus(42, prof._replace(n_docs=_n_docs_for(sf_dir)))


def _synth_docs(sf_dir: str, prof: Profile = PROFILE):
    import ray.data as rd

    return rd.from_arrow(_corpus(sf_dir, prof).table)


def entry() -> Any:
    """Flagship: synthesize the input_hint corpus at sf0.001 size, run
    extract → link → union-find canonicalize → dedup, return the
    canonical triple store Dataset."""
    from kgruntime.pipelines.kg import build_kg

    docs = _synth_docs("/root/testdata/sf0.001")
    res = build_kg(docs)
    return res["canonical"]


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

_FLAGSHIPS = ("kg_canonical_fused", "minhash_near_dups",
              "near_dedup_corpus", "ann_topk_ivf", "kmeans_clusters",
              "curate_corpus", "user_components")


def _driver_checked() -> set[str]:
    """Names that already have a driver CORRECTNESS row (any round)."""
    import glob
    import json

    here = os.path.dirname(os.path.abspath(__file__))
    seen: set[str] = set()
    for f in sorted(glob.glob(os.path.join(here, "CORRECTNESS_r*.json"))):
        try:
            with open(f) as fh:
                seen |= set(json.load(fh))
        except Exception:
            pass
    return seen


def _window_order(names, seen: set[str]) -> list[str]:
    """The driver-window order of the registry ``names``, given the set
    of names that already have a driver CORRECTNESS row: the
    never-checked entries lead in registration order, then the
    flagships, then everything else (``scripts/gen_query_index.py``
    calls this with the seen-set of its as-of artifacts)."""
    order = dict.fromkeys(k for k in names if k not in seen)
    order.update(dict.fromkeys(k for k in _FLAGSHIPS if k in names))
    order.update(dict.fromkeys(names))
    return list(order)


def queries() -> dict[str, Callable[[str], Any]]:
    """Registry, ordered for the driver's 50-slot correctness window.

    The order is SELF-MAINTAINING (VERDICT r4 item 1): entries that have
    never had a driver CORRECTNESS row (per the committed
    CORRECTNESS_r*.json artifacts) lead in registration order, then the
    flagship set, then everything else.  A new registration therefore
    rotates into the window automatically, and committing a round's
    CORRECTNESS file re-derives the next round's window with zero manual
    bookkeeping.  The FULL registry is gated locally every round by
    scripts/check_oracle.py regardless of window position.
    """
    q = _registry()
    return {k: q[k] for k in _window_order(q, _driver_checked())}


def _registry() -> dict[str, Callable[[str], Any]]:
    """Every row of ``_QUERIES`` as a ``fn(sf_dir)``, in table order
    (which only breaks ties inside queries()'s never-checked group)."""
    return {q.name: partial(run, q) for q in _QUERIES}


def oracle_sql() -> dict[str, str]:
    return {q.name: _sql_text(q) for q in _QUERIES if q.sql is not None}


class Q(NamedTuple):
    """One registered query.

    ``op`` is a ``"module:function"`` ref, or a hand-written ``_q_*``
    function of ``sf_dir`` (then only ``name`` and ``sql`` apply).
    ``src`` is the op's input: a table under ``sf_dir`` read with
    ``cols`` (``_read``), ``"sf_dir"`` for ops that take the directory,
    or a loader ``fn(sf_dir)`` returning the input (or a tuple of the
    op's positional args).
    ``kw`` are the op's keyword args.  With ``sort`` set the result
    goes to pandas (columns pinned to ``pin`` if it is empty) and is
    sorted by ``sort``.  ``sql`` is the twin: literal SQL, or a
    ``"module:name"`` ref to a SQL string or to a function called with
    ``sql_kw`` (default: the op's ``kw``).
    """
    name: str
    op: str | Callable[[str], Any]
    src: str | Callable[[str], tuple] = "documents"
    cols: list[str] | None = None
    kw: dict = {}
    sort: str | list[str] | None = None
    pin: list[str] | None = None
    sql: str | None = None
    sql_kw: dict | None = None


_REF = re.compile(r"[\w.]+:\w+")


def _resolve(ref: str) -> Any:
    mod, attr = ref.split(":")
    return getattr(importlib.import_module(mod), attr)


def run(spec: Q, sf_dir: str) -> Any:
    """Execute one table row against the tables under ``sf_dir``."""
    if callable(spec.op):
        return spec.op(sf_dir)
    if callable(spec.src):
        args = spec.src(sf_dir)
        args = args if isinstance(args, tuple) else (args,)
    elif spec.src == "sf_dir":
        args = (sf_dir,)
    else:
        args = (_read(sf_dir, spec.src, spec.cols),)
    out = _resolve(spec.op)(*args, **spec.kw)
    if spec.sort is None:
        return out
    import pandas as pd

    df = out if isinstance(out, pd.DataFrame) else out.to_pandas()
    if spec.pin:
        df = _pin_cols(df, spec.pin)
    return df.sort_values(spec.sort).reset_index(drop=True)


def _sql_text(spec: Q) -> str:
    if not _REF.fullmatch(spec.sql):
        return spec.sql
    obj = _resolve(spec.sql)
    if isinstance(obj, str):
        return obj
    return obj(**(spec.kw if spec.sql_kw is None else spec.sql_kw))


def _pin_cols(df, cols):
    """Ray 2.49 drops the schema of an all-empty dataset (CLAUDE.md
    gotcha); pin the expected columns so degenerate corpora sort/compare
    instead of KeyError-ing."""
    return df.reindex(columns=cols) if df.empty else df


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

# documents rows read the text-pipeline columns unless they name others
_READ_COLS = {"documents": ["doc_id", "text", "lang", "source", "n_chars"]}


def _read(sf_dir, table, cols=None):
    import ray.data as rd

    return rd.read_parquet(os.path.join(sf_dir, f"{table}.parquet"),
                           columns=cols or _READ_COLS.get(table))


_EMB_DIM = 64   # testdata embeddings.parquet dimension (all scale factors)
_ANN_N_QUERIES = 10
_ANN_K = 5
# sampling rates per language for the deterministic hash sample (the
# oracle CASE thresholds are generated from the same dict)
_SAMPLE_RATES = {"en": 0.5, "de": 0.25, "fr": 0.25, "es": 0.1, "zh": 0.1}
_PHRASE = "table value"
_LEX_QUERY = "dup scan filter"   # one rare term (df≈5%) + two common
_MQ_QUERIES = [_LEX_QUERY, "merge sort window", "vector batch stream"]
_PROFILE_COLS = ["event_id", "user_id", "event_type", "value", "ts"]
_STOPWORDS_SQL = ("['the','a','an','and','or','of','to','in','is','are',"
                  "'was','were','be','been','for','on','with','as','at',"
                  "'by','it','this','that','from']")


def _strong_ties(sf_dir):
    """Strong-tie (n_shared ≥ 5) co-occurrence graph: the raw graph is
    near-complete at bench scale (avg degree ~1000 — 197M triangles at
    sf0.1), so the graph queries run on the edges that carry signal;
    the threshold is replicated in the twins' HAVING."""
    from kgruntime.ops.sessions import cooccurrence_edges

    ev = _read(sf_dir, "events", ["user_id", "event_type", "ts"])
    return cooccurrence_edges(ev).filter(expr="n_shared >= 5")


def _user_graph(sf_dir):
    """The co-occurrence edges in both directions (src, dst)."""
    import pyarrow as pa

    from kgruntime.ops.sessions import cooccurrence_edges

    def both_dirs(t: pa.Table) -> pa.Table:
        return pa.concat_tables([
            pa.Table.from_arrays([t["user_a"], t["user_b"]],
                                 names=["src", "dst"]),
            pa.Table.from_arrays([t["user_b"], t["user_a"]],
                                 names=["src", "dst"])])

    pairs = cooccurrence_edges(_read(sf_dir, "events")) \
        .select_columns(["user_a", "user_b"])
    return pairs.map_batches(both_dirs, batch_format="pyarrow")


def _with_prior(sf_dir):
    """The corpus and its synthetic prior snapshot."""
    from kgruntime.ops.dedup import synth_prior_snapshot

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return docs, synth_prior_snapshot(docs)


def _load_queries(sf_dir):
    """(query matrix, query ids, query labels) of the first
    ``_ANN_N_QUERIES`` embeddings."""
    # ORDER BY vec_id LIMIT N as a DuckDB streaming top-k over the
    # parquet: only the N query rows ever reach the driver.  (The r3
    # version read + sorted the WHOLE embeddings table driver-side — a
    # full-corpus materialization at 100x.)  Vectors go list<float> →
    # matrix via flatten().to_numpy().reshape, never to_pylist.
    import duckdb

    path = os.path.join(sf_dir, "embeddings.parquet")
    t = duckdb.sql(
        f"SELECT vec_id, embedding, label FROM read_parquet('{path}') "
        f"ORDER BY vec_id LIMIT {_ANN_N_QUERIES}").arrow()
    ids = t["vec_id"].to_pylist()
    q = t["embedding"].combine_chunks().flatten() \
        .to_numpy(zero_copy_only=False) \
        .astype(np.float64, copy=False).reshape(len(ids), -1)
    return q, ids, t["label"].to_pylist()


def _query_vec(sf_dir):
    """The min-vec_id embedding via a pushdown LIMIT-1 read."""
    import duckdb

    path = os.path.join(sf_dir, "embeddings.parquet")
    t = duckdb.sql(f"SELECT embedding FROM read_parquet('{path}') "
                   f"ORDER BY vec_id LIMIT 1").arrow()
    return t["embedding"].combine_chunks().flatten() \
        .to_numpy(zero_copy_only=False).astype(np.float64, copy=False)


def _ann_probe(sf_dir):
    """(embeddings, query matrix, query ids) for the recall audits."""
    return (_read(sf_dir, "embeddings", ["vec_id", "embedding"]),
            *_load_queries(sf_dir)[:2])


def _ann_probe_factory(sf_dir):
    """``_ann_probe`` with a fresh-Dataset factory for ops that scan the
    embeddings more than once."""
    return (partial(_read, sf_dir, "embeddings", ["vec_id", "embedding"]),
            *_load_queries(sf_dir)[:2])


# ---------------------------------------------------------------------------
# hand-written pipelines (queries that compose stages)
# ---------------------------------------------------------------------------

def _docs_ds(sf_dir):
    return _read(sf_dir, "documents")


def _per_batch(sf_dir, fn):
    return _docs_ds(sf_dir).map_batches(fn, batch_format="pyarrow") \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)


def _media(synth, tag, sf_dir):
    """100 synthesized media payloads from ``synth`` (a ref to one of
    ops/media.py's ``synth_*`` builders): REAL codec bytes (PNG, BMP,
    baseline JPEG, PCM WAV, MJPEG/AVI, animated GIF), so features derive
    from true pixels and waveforms — rows-only (binary inputs are
    synthesized, not SQL-visible)."""
    import ray.data as rd

    refs = [f"media://doc-{i:06d}/{tag}" for i in range(100)]
    return rd.from_arrow(_resolve(synth)(refs))


def _sha256_col(df, col, sort):
    """Sort a media frame and replace its binary payload column by
    hashes for a stable driver value compare."""
    df = df.sort_values(sort).reset_index(drop=True)
    df[col] = df.pop(col).map(lambda b: hashlib.sha256(b).hexdigest())
    return df


def _q_media_frames(sf_dir):
    """Video frame sampling over MJPEG/AVI: each sampled frame is its
    embedded baseline-JPEG byte string — container-only sampling,
    unsampled frames never decode."""
    from kgruntime.ops.media import sample_frames

    avi = _media("kgruntime.ops.media:synth_avi_table", "0", sf_dir)
    return _sha256_col(sample_frames(avi).to_pandas(), "frame_payload",
                       ["media_ref", "frame_index"])


def _q_media_frame_features(sf_dir):
    """Composed media pipeline over MJPEG/AVI: container walk → sampled
    frames (embedded JPEG bytes) → per-frame features decoded by the
    real baseline-JPEG codec (ops/jpeg.py)."""
    from kgruntime.ops.media import frame_features, sample_frames

    avi = _media("kgruntime.ops.media:synth_avi_table", "0", sf_dir)
    return frame_features(sample_frames(avi), feat_dim=8)


def _q_media_gif(sf_dir):
    """Sampled animated-GIF frames (stdlib LZW + palette decode,
    ops/gif.py) and their features."""
    from kgruntime.ops.media import gif_frame_features

    gif = _media("kgruntime.ops.media:synth_gif_table", "gif", sf_dir)
    return _sha256_col(gif_frame_features(gif).to_pandas(), "frame_rgb",
                       ["media_ref", "frame_index"])


def _q_media_resize(sf_dir):
    from kgruntime.ops.media import resize_raw_images

    raw = _media("kgruntime.ops.media:synth_raw_images", "raw", sf_dir)
    return _sha256_col(resize_raw_images(raw).to_pandas(), "payload",
                       "media_ref")


def _q_media_phash_dups(sf_dir):
    """Perceptual-hash (dHash) near-dup image pairs over REAL PNG
    bytes — rows-only (binary inputs are synthesized)."""
    import ray.data as rd

    from kgruntime.ops.media import phash_near_dups, synth_png_neardup_table

    return phash_near_dups(rd.from_arrow(synth_png_neardup_table()))


def _q_doc_stats(sf_dir):
    from ray.data.aggregate import Count, Mean, Sum

    df = _docs_ds(sf_dir).groupby("source") \
        .aggregate(Count(alias_name="n_docs"),
                   Mean("n_chars", alias_name="avg_chars"),
                   Sum("n_chars", alias_name="total_chars")) \
        .to_pandas().sort_values("source").reset_index(drop=True)
    # half-away-from-zero like the DuckDB oracle round(); integer means
    # can be exactly dyadic (odd-sum/2^k) where banker's rounding differs
    v = df["avg_chars"].to_numpy(np.float64)
    df["avg_chars"] = np.copysign(np.floor(np.abs(v) * 1e4 + 0.5), v) / 1e4
    return df


def _q_lang_distribution(sf_dir):
    from ray.data.aggregate import Count

    return _docs_ds(sf_dir).groupby("lang") \
        .aggregate(Count(alias_name="n_docs")) \
        .to_pandas().sort_values("lang").reset_index(drop=True)


def _q_token_stats(sf_dir):
    from kgruntime.ops.text import token_stats

    return _per_batch(sf_dir, token_stats)


def _q_quality_scores(sf_dir):
    from kgruntime.ops.text import quality_scores

    return _per_batch(sf_dir, quality_scores)


def _q_repetition(sf_dir):
    from kgruntime.ops.text import repetition_scores

    return _per_batch(sf_dir, repetition_scores)


def _q_fingerprints(sf_dir):
    from kgruntime.ops.text import fingerprints

    return _per_batch(sf_dir, fingerprints)


def _q_langid(sf_dir):
    from kgruntime.ops.text import LangId
    from kgruntime.runtime import pool_range

    return _docs_ds(sf_dir).map_batches(
        LangId, batch_format="pyarrow",
        concurrency=pool_range(frac=0.25, lo=1), num_cpus=1) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)


def _q_term_freqs(sf_dir):
    from kgruntime.ops.text import term_frequencies

    return term_frequencies(_docs_ds(sf_dir)).to_pandas() \
        .sort_values(["cnt", "word"], ascending=[False, True]) \
        .reset_index(drop=True)


def _q_strat_sample(sf_dir):
    from kgruntime.ops.sample import stratified_sample

    out = stratified_sample(_docs_ds(sf_dir), _SAMPLE_RATES) \
        .select_columns(["doc_id", "lang", "source"]).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_bloom_user_days(sf_dir):
    from kgruntime.ops.sketch import bloom_distinct_user_days

    # hash-checked projection is the exact part of the sketch
    return bloom_distinct_user_days(_read(sf_dir, "events"))[
        ["m", "k", "n_set_bits"]]


def _roundtrip_stats(sf_dir, writer, reader, fmt):
    """Write the documents table through a format sink into /tmp, read
    it back through the matching source, and aggregate — proving the
    sink+source pair preserves the corpus (oracle: the same aggregate
    straight off the parquet)."""
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    tag = os.path.basename(os.path.normpath(sf_dir))
    out = f"/tmp/kgio/{fmt}-{tag}"
    shutil.rmtree(out, ignore_errors=True)
    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"))
    writer(docs, out)
    return reader(out).groupby("source").aggregate(
        Count(alias_name="n_docs"),
        Sum("n_chars", alias_name="total_chars"))


def _q_gzjsonl_roundtrip(sf_dir):
    from kgruntime.sources.documents import (read_documents_jsonl_gz,
                                             write_documents_jsonl_gz)

    return _roundtrip_stats(sf_dir, write_documents_jsonl_gz,
                            read_documents_jsonl_gz, "gzjsonl")


def _q_orc_roundtrip(sf_dir):
    from kgruntime.sources.documents import (read_documents_orc,
                                             write_documents_orc)

    return _roundtrip_stats(sf_dir, write_documents_orc,
                            read_documents_orc, "orc")


def _q_ipc_roundtrip(sf_dir):
    from kgruntime.sources.documents import (read_documents_ipc,
                                             write_documents_ipc)

    return _roundtrip_stats(sf_dir, write_documents_ipc,
                            read_documents_ipc, "ipc")


def _q_partitioned_prune(sf_dir):
    """Write the corpus hive-partitioned by lang, then answer an
    English-only aggregate by reading ONLY the lang=en partition
    directory — partition pruning at the read (the resumable-output +
    prune-at-the-read conventions in one query)."""
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    tag = os.path.basename(os.path.normpath(sf_dir))
    out = f"/tmp/kgio/hive-{tag}"
    shutil.rmtree(out, ignore_errors=True)
    rd.read_parquet(os.path.join(sf_dir, "documents.parquet")) \
        .write_parquet(out, partition_cols=["lang"])
    pruned = rd.read_parquet(os.path.join(out, "lang=en"))
    return pruned.groupby("source").aggregate(
        Count(alias_name="n_docs"),
        Sum("n_chars", alias_name="total_chars"))


def _q_incremental_near_dups(sf_dir):
    """New docs (absent from the prior snapshot) LSH-matched against
    the prior corpus — the incremental-ingest near-dup shape."""
    from kgruntime.ops.dedup import incremental_near_dups

    docs, prior = _with_prior(sf_dir)

    def only_new(t):
        import pyarrow as pa

        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(ids % 11 == 0))

    new = docs.map_batches(only_new, batch_format="pyarrow",
                           zero_copy_batch=True)
    return incremental_near_dups(new, prior)


def _q_embedding_drift(sf_dir):
    """Per-dimension mean drift vs a prior snapshot (vec_id % 5 != 0,
    the synth-prior convention)."""
    import pyarrow.compute as pc

    from kgruntime.ops.ann import embedding_drift

    cur = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def prior_mask(t):
        # Ray filter(expr=...) can't parse `%` BinOps — Arrow mask
        mod5 = pc.subtract(t["vec_id"],
                           pc.multiply(pc.divide(t["vec_id"], 5), 5))
        return t.filter(pc.not_equal(mod5, 0))

    prior = cur.map_batches(prior_mask, batch_format="pyarrow")
    return embedding_drift(cur.select_columns(["embedding"]),
                           prior.select_columns(["embedding"]))


def _q_dq_audit(sf_dir):
    """Data-quality constraint audit: nulls, domains, PK uniqueness,
    FK integrity, policy thresholds."""
    from kgruntime.ops.dq import dq_audit

    return dq_audit(
        _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"]),
        _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity", "l_discount"]),
        _read(sf_dir, "customer", ["c_custkey"]))


def _q_rrf_fusion(sf_dir):
    """Hybrid retrieval: reciprocal-rank fusion of the lexical and
    embedding rankings of the min-vec_id query vector."""
    from kgruntime.ops.ann import rrf_fusion

    return rrf_fusion(_docs_ds(sf_dir),
                      _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
                      _LEX_QUERY, _query_vec(sf_dir))


def _q_rank_agreement(sf_dir):
    """Kendall-tau agreement between the lexical and embedding top-r
    rankings of the min-vec_id query vector."""
    from kgruntime.ops.ann import rank_agreement

    return rank_agreement(_docs_ds(sf_dir),
                          _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
                          _LEX_QUERY, _query_vec(sf_dir))


def _q_emb_near_dups(sf_dir):
    from kgruntime.ops.dedup import embedding_near_dups

    path = os.path.join(sf_dir, "embeddings.parquet")
    dim = len(pq.read_table(path, columns=["embedding"])["embedding"][0])
    # random-ish synthetic embeddings: cosine ≥ 0.35 is already the
    # ~99.9th percentile; 6-plane × 8-table LSH gives ~0.7 recall there
    return embedding_near_dups(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]), dim=dim,
        threshold=0.35, n_planes=6, n_tables=8)


def _neighbors(out):
    return out.to_pandas()[["query_id", "neighbor_id"]] \
        .sort_values(["query_id", "neighbor_id"]).reset_index(drop=True)


def _q_ann_topk(sf_dir):
    from kgruntime.ops.ann import brute_force_topk

    return _neighbors(brute_force_topk(*_ann_probe(sf_dir), k=_ANN_K))


def _q_ann_ivf(sf_dir):
    from kgruntime.ops.ann import ivf_topk

    return _neighbors(ivf_topk(*_ann_probe(sf_dir), k=_ANN_K))


def _q_ann_lsh(sf_dir):
    from kgruntime.ops.ann import lsh_topk

    return _neighbors(lsh_topk(*_ann_probe(sf_dir), k=_ANN_K))


def _q_triplet_mining(sf_dir):
    """Contrastive triplet mining: hardest positive + hardest negative
    per anchor."""
    from kgruntime.ops.ann import triplet_mining

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])
    return triplet_mining(emb, *_load_queries(sf_dir))


def _q_hard_negatives(sf_dir):
    from kgruntime.ops.ann import hard_negatives

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])
    return hard_negatives(emb, *_load_queries(sf_dir), k=_ANN_K)


def _q_knn_label_vote(sf_dir):
    # composition: broadcast brute-force top-k (ops/ann.py) + majority
    # label vote over the tiny (queries × k) result on the driver
    from kgruntime.ops.ann import brute_force_topk

    out = brute_force_topk(*_ann_probe(sf_dir), k=_ANN_K).to_pandas()

    # labels for ONLY the ≤ queries×k neighbor ids, via a
    # predicate-pushdown parquet read (pattern: relational.py
    # q_top_customers) — never a whole-table driver dict
    labels = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "label"],
        filters=[("vec_id", "in",
                  sorted(set(out["neighbor_id"].tolist())))]).to_pandas()
    out = out.merge(labels.rename(columns={"vec_id": "neighbor_id"}),
                    on="neighbor_id", how="left")
    votes = out.groupby(["query_id", "label"]).size() \
        .reset_index(name="n_votes") \
        .sort_values(["query_id", "n_votes", "label"],
                     ascending=[True, False, True], kind="mergesort") \
        .groupby("query_id", sort=True).head(1).reset_index(drop=True)
    votes["pred_label"] = votes.pop("label").astype("int32")
    return votes[["query_id", "pred_label", "n_votes"]]


# --- KG pipeline queries (rows-only checks) ---

_RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
_EX = "http://ex.org/ns/"


def _q_kg_canonical(sf_dir):
    from kgruntime.pipelines.kg import build_kg

    return build_kg(_synth_docs(sf_dir))["canonical"]


def _q_kg_mentions(sf_dir):
    from kgruntime.stages.extract import triples_dataset
    from kgruntime.stages.linking import mentions_dataset

    return mentions_dataset(triples_dataset(_synth_docs(sf_dir)))


def _q_kg_link_edges(sf_dir):
    from kgruntime.pipelines.kg import build_kg

    return build_kg(_synth_docs(sf_dir))["edges"]


def _q_kg_assignment(sf_dir):
    from kgruntime.pipelines.kg import build_kg

    return build_kg(_synth_docs(sf_dir))["assignment"]


def _q_kg_fused(sf_dir):
    """Fused parse + doc-local blank linking (the production shape;
    parity with build_kg is pytest-verified)."""
    import tempfile

    import ray.data as rd

    from kgruntime.pipelines.kg import build_kg_fused
    from kgruntime.stages.linking import build_alias_table

    corpus = _corpus(sf_dir)
    staging = tempfile.mkdtemp(prefix="kg-fused-")
    return build_kg_fused(rd.from_arrow(corpus.table),
                          alias_table=build_alias_table(corpus.gazetteer),
                          keep_buckets=False,
                          staging_dir=staging)["canonical"]


def _q_kg_bgp(sf_dir):
    """SPARQL-style 2-hop BGP join over the canonical store:
    ``?x rdf:rest ?y . ?y rdf:first ?v`` — collection-cell traversal
    (kgruntime/stages/materialize.py:bgp_2hop); rows-only (the store
    is parser output, not SQL-visible)."""
    from kgruntime.stages.materialize import bgp_2hop

    return bgp_2hop(_q_kg_canonical(sf_dir), _RDF + "rest", _RDF + "first") \
        .to_pandas().sort_values(["x", "y", "v"]).reset_index(drop=True)


def _q_kg_star(sf_dir):
    """PRoST-style star BGP over a predicate-partitioned (vertical)
    store layout: ``?s rdf:type ?t . ?s ex:name ?n`` — the store is
    re-materialized hive-partitioned by predicate hash and each
    pattern reads ONLY its predicate's partition
    (kgruntime/stages/materialize.py:write_pred_partitioned/star_bgp);
    rows-only (parser output, not SQL-visible)."""
    from kgruntime.stages.materialize import (star_bgp,
                                              write_pred_partitioned)

    store = _q_kg_canonical(sf_dir)
    tag = os.path.basename(os.path.normpath(sf_dir))
    path = write_pred_partitioned(store, f"/tmp/kgio/vp-{tag}")
    return star_bgp(path, _RDF + "type", _EX + "name").to_pandas() \
        .sort_values(["s", "a", "b"]).reset_index(drop=True)


def _q_kg_planned_bgp(sf_dir):
    """3-pattern star BGP whose join order is CHOSEN from the
    predicate_catalog statistics (cheapest-pattern-first; plan-invariant
    result parity-tested against both fixed orders)
    (kgruntime/stages/materialize.py:planned_star_bgp); rows-only
    (parser output, not SQL-visible)."""
    from kgruntime.stages.materialize import planned_star_bgp

    return planned_star_bgp(_q_kg_canonical(sf_dir), [
        _RDF + "type", _EX + "name", _EX + "worksFor"]) \
        .to_pandas().sort_values(["s", "v0", "v1", "v2"]) \
        .reset_index(drop=True)


def _q_kg_incremental(sf_dir):
    """Two-increment KG build (parse only the delta, rerun global
    stages over the staged parsed layer) — reproduces the single-shot
    store exactly (kgruntime/pipelines/kg.py:build_kg_incremental);
    rows-only (parser output, not SQL-visible)."""
    import ray.data as rd

    from kgruntime.pipelines.kg import build_kg_incremental

    docs = _corpus(sf_dir).table
    n = docs.num_rows
    tag = os.path.basename(os.path.normpath(sf_dir))
    staged = f"/tmp/kgio/incr-{tag}"
    shutil.rmtree(staged, ignore_errors=True)
    build_kg_incremental(rd.from_arrow(docs.slice(0, n // 2)), staged)
    res = build_kg_incremental(rd.from_arrow(docs.slice(n // 2)),
                               staged)
    return res["canonical"].to_pandas() \
        .sort_values(["subj", "pred", "obj"]).reset_index(drop=True)


def _q_kg_pred_catalog(sf_dir):
    """Per-predicate cardinality catalog over the canonical store —
    the SPARQL-planner statistics table
    (kgruntime/stages/materialize.py:predicate_catalog); rows-only
    (parser output, not SQL-visible)."""
    from kgruntime.stages.materialize import predicate_catalog

    return predicate_catalog(_q_kg_canonical(sf_dir))


# ---------------------------------------------------------------------------
# literal SQL twins (DuckDB; views pre-registered by the driver)
# ---------------------------------------------------------------------------

_ROUNDTRIP_STATS_SQL = """
    SELECT source, count(*) AS n_docs,
           sum(n_chars)::BIGINT AS total_chars
    FROM documents GROUP BY source ORDER BY source
"""

_PARTITIONED_PRUNE_SQL = """
    SELECT source, count(*) AS n_docs,
           sum(n_chars)::BIGINT AS total_chars
    FROM documents WHERE lang = 'en' GROUP BY source ORDER BY source
"""

_DOC_STATS_SQL = """
            SELECT source, count(*) AS n_docs,
                   round(avg(n_chars), 4) AS avg_chars,
                   sum(n_chars)::BIGINT AS total_chars
            FROM documents GROUP BY source ORDER BY source
        """

_TOKEN_STATS_SQL = r"""
            SELECT doc_id,
                   CASE WHEN trim(text) = '' THEN 0
                        ELSE len(regexp_split_to_array(trim(text), '\s+'))
                   END AS n_tokens,
                   len(regexp_extract_all(text,
                       '[A-Za-z]+|[0-9]+|[^\sA-Za-z0-9]+')) AS n_bpe_tokens,
                   CASE WHEN trim(text) = '' THEN 0.0
                        ELSE round(
                          length(regexp_replace(trim(text), '\s+', '', 'g'))
                          ::DOUBLE /
                          len(regexp_split_to_array(trim(text), '\s+')), 6)
                   END AS avg_token_len
            FROM documents ORDER BY doc_id
        """

_QUALITY_SCORES_SQL = rf"""
            WITH toks AS (
              SELECT doc_id,
                     CASE WHEN trim(text) = '' THEN []::VARCHAR[]
                          ELSE regexp_split_to_array(trim(text), '\s+')
                     END AS t
              FROM documents)
            SELECT doc_id, len(t) AS n_tokens,
                   CASE WHEN len(t) = 0 THEN 0.0 ELSE
                     round(len(list_filter(t, x ->
                       list_contains({_STOPWORDS_SQL}, lower(x))))::DOUBLE
                       / len(t), 6) END AS stopword_ratio,
                   CASE WHEN len(t) = 0 THEN 0.0 ELSE
                     round(len(list_filter(t, x ->
                       regexp_matches(x, '^[A-Za-z]+$')))::DOUBLE
                       / len(t), 6) END AS alpha_ratio,
                   CASE WHEN len(t) = 0 THEN 0.0 ELSE
                     round(least(1.0, len(t) / 50.0)
                       * (0.5 + 0.5 * (len(list_filter(t, x ->
                            regexp_matches(x, '^[A-Za-z]+$')))::DOUBLE
                            / len(t)))
                       * (1.0 - 0.5 * (len(list_filter(t, x ->
                            list_contains({_STOPWORDS_SQL}, lower(x))))::DOUBLE
                            / len(t))), 6) END AS quality
            FROM toks ORDER BY doc_id
        """

_CLEAN_CORPUS_SQL = rf"""
        WITH toks AS (
          SELECT doc_id, n_chars, text,
                 CASE WHEN trim(text) = '' THEN []::VARCHAR[]
                      ELSE regexp_split_to_array(trim(text), '\s+')
                 END AS t
          FROM documents),
        q AS (
          SELECT doc_id, text, n_chars,
                 CASE WHEN len(t) = 0 THEN 0.0 ELSE
                   round(least(1.0, len(t) / 50.0)
                     * (0.5 + 0.5 * (len(list_filter(t, x ->
                          regexp_matches(x, '^[A-Za-z]+$')))::DOUBLE
                          / len(t)))
                     * (1.0 - 0.5 * (len(list_filter(t, x ->
                          list_contains({_STOPWORDS_SQL}, lower(x))))::DOUBLE
                          / len(t))), 6) END AS quality
          FROM toks),
        pass AS (
          SELECT * FROM q WHERE quality >= 0.5 AND n_chars >= 20)
        SELECT min(doc_id) AS keep_id, count(*) AS n_copies, quality
        FROM pass GROUP BY text, quality ORDER BY keep_id
    """

_LANG_DISTRIBUTION_SQL = """
            SELECT lang, count(*) AS n_docs
            FROM documents GROUP BY lang ORDER BY lang
        """

_EXACT_DUP_DOCS_SQL = """
            SELECT text, min(doc_id) AS keep_id, count(*) AS n_dups
            FROM documents GROUP BY text ORDER BY keep_id
        """

_JACCARD_ADJACENT_SQL = r"""
            WITH toks AS (
              SELECT doc_id,
                     CASE WHEN trim(text) = '' THEN []::VARCHAR[]
                          ELSE regexp_split_to_array(trim(text), '\s+')
                     END AS t
              FROM documents),
            grams AS (
              SELECT doc_id,
                     CASE WHEN len(t) = 0 THEN []::VARCHAR[]
                          WHEN len(t) < 3 THEN [array_to_string(t, ' ')]
                          ELSE list_distinct(list_transform(
                            range(1, len(t) - 1),
                            i -> concat_ws(' ', t[i], t[i+1], t[i+2])))
                     END AS g
              FROM toks)
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                   CASE WHEN len(list_distinct(list_concat(a.g, b.g))) = 0
                        THEN 1.0
                        ELSE round(len(list_intersect(a.g, b.g))::DOUBLE
                          / len(list_distinct(list_concat(a.g, b.g))), 6)
                   END AS jaccard
            FROM grams a JOIN grams b ON b.doc_id = a.doc_id + 1
            WHERE a.doc_id % 2 = 0
            ORDER BY doc_a
        """

_ANN_TOPK_SQL = f"""
            WITH q AS (SELECT vec_id, embedding FROM embeddings
                       ORDER BY vec_id LIMIT {_ANN_N_QUERIES})
            SELECT query_id, neighbor_id FROM (
              SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id,
                     row_number() OVER (
                       PARTITION BY q.vec_id
                       ORDER BY list_cosine_similarity(
                         q.embedding::DOUBLE[], e.embedding::DOUBLE[]) DESC,
                         e.vec_id ASC) AS rnk
              FROM q CROSS JOIN embeddings e
              WHERE e.vec_id != q.vec_id)
            WHERE rnk <= {_ANN_K}
            ORDER BY query_id, neighbor_id
        """

_LABEL_CENTROIDS_SQL = """
            WITH e AS (
              SELECT label, generate_subscripts(embedding, 1) AS i,
                     CAST(round(CAST(unnest(embedding) AS DOUBLE)
                                * 1000000) AS BIGINT) AS u
              FROM embeddings)
            SELECT label, i,
                   round(sum(u) / (count(*) * 1000000.0), 6) AS centroid
            FROM e GROUP BY label, i ORDER BY label, i
        """

_KNN_LABEL_VOTE_SQL = f"""
            WITH q AS (SELECT vec_id, embedding FROM embeddings
                       ORDER BY vec_id LIMIT {_ANN_N_QUERIES}),
            nn AS (
              SELECT query_id, neighbor_id FROM (
                SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id,
                       row_number() OVER (
                         PARTITION BY q.vec_id
                         ORDER BY list_cosine_similarity(
                           q.embedding::DOUBLE[], e.embedding::DOUBLE[])
                           DESC, e.vec_id ASC) AS rnk
                FROM q CROSS JOIN embeddings e
                WHERE e.vec_id != q.vec_id)
              WHERE rnk <= {_ANN_K}),
            v AS (
              SELECT nn.query_id, e.label, count(*) AS n_votes
              FROM nn JOIN embeddings e ON nn.neighbor_id = e.vec_id
              GROUP BY nn.query_id, e.label),
            r AS (
              SELECT *, row_number() OVER (
                PARTITION BY query_id
                ORDER BY n_votes DESC, label ASC) AS rn
              FROM v)
            SELECT query_id, label AS pred_label, n_votes
            FROM r WHERE rn = 1 ORDER BY query_id
        """


# ---------------------------------------------------------------------------
# the query table
# ---------------------------------------------------------------------------

_QUERIES: tuple[Q, ...] = (
    # Row order only breaks ties inside queries()'s never-driver-checked
    # group (the driver window itself is derived).
    # --- round-5 registrations first: within the never-checked block
    # the window takes registration order, and the round's NEW claims
    # should earn their driver rows first ---
    Q("kg_planned_bgp", _q_kg_planned_bgp),
    Q("maxsim_topk", "kgruntime.ops.text:maxsim_topk",
      sql="kgruntime.ops.text:maxsim_topk_sql"),
    Q("loo_source_influence", "kgruntime.ops.valuation:loo_source_influence",
      sql="kgruntime.ops.valuation:loo_source_influence_sql"),
    Q("quality_threshold_sweep",
      "kgruntime.ops.valuation:quality_threshold_sweep",
      sql="kgruntime.ops.valuation:quality_threshold_sweep_sql"),
    Q("url_canonical_dups", "kgruntime.ops.valuation:url_canonical_dups",
      sql="kgruntime.ops.valuation:url_canonical_dups_sql"),
    Q("source_token_budget", "kgruntime.ops.valuation:source_token_budget",
      sql="kgruntime.ops.valuation:source_token_budget_sql"),
    Q("page_stitch_pairs", "kgruntime.ops.dedup:page_stitch_pairs",
      sql="kgruntime.ops.dedup:page_stitch_pairs_sql"),
    Q("term_concentration",
      "kgruntime.ops.valuation:term_concentration_by_source",
      sql="kgruntime.ops.valuation:term_concentration_by_source_sql"),
    # --- never driver-checked (late r3 registrations) ---
    Q("incremental_dup_check", "kgruntime.ops.dedup:incremental_dup_check",
      sort="doc_id", pin=["doc_id", "dup_of_prior"],
      sql="kgruntime.ops.dedup:incremental_dup_check_sql"),
    Q("split_leakage", "kgruntime.ops.sample:split_leakage", sort="keep_id",
      pin=["keep_id", "n_docs", "n_splits"],
      sql="kgruntime.ops.sample:split_leakage_sql"),
    Q("embedding_dup_clusters", "kgruntime.ops.dedup:embedding_dup_clusters",
      src="embeddings", cols=["vec_id", "embedding"],
      kw=dict(dim=_EMB_DIM, threshold=0.35, n_planes=6, n_tables=8),
      sort="vec_id", pin=["vec_id", "cluster"],
      sql="kgruntime.ops.dedup:embedding_dup_clusters_sql"),
    Q("value_percentile_ranks", "kgruntime.ops.stats:value_percentile_ranks",
      src="events", sort="event_id",
      sql="kgruntime.ops.stats:value_percentile_ranks_sql"),
    Q("events_profile", "kgruntime.ops.stats:table_profile", src="events",
      kw=dict(columns=_PROFILE_COLS),
      sql="kgruntime.ops.stats:table_profile_sql",
      sql_kw=dict(columns=_PROFILE_COLS, table="events")),
    Q("capped_duplicate_sample", "kgruntime.ops.text:capped_duplicate_sample",
      sort="doc_id", sql="kgruntime.ops.text:capped_duplicate_sample_sql"),
    Q("reservoir_per_lang", "kgruntime.ops.sample:reservoir_per_group",
      sort=["lang", "doc_id"],
      sql="kgruntime.ops.sample:reservoir_per_group_sql"),
    Q("asof_purchase_next_click",
      "kgruntime.relational:q_asof_purchase_next_click", src="sf_dir",
      sql="kgruntime.relational:Q_ASOF_PURCHASE_NEXT_CLICK_SQL"),
    Q("nation_trade_volume", "kgruntime.relational:q_nation_trade_volume",
      src="sf_dir", sql="kgruntime.relational:Q_NATION_TRADE_VOLUME_SQL"),
    Q("media_png_features", "kgruntime.ops.media:decode_features",
      src=partial(_media, "kgruntime.ops.media:synth_png_table", "png")),
    Q("media_resize", _q_media_resize),
    Q("media_frame_features", _q_media_frame_features),
    # --- new round-4 ops (must be inside the window) ---
    Q("media_jpeg_features", "kgruntime.ops.media:decode_features",
      src=partial(_media, "kgruntime.ops.media:synth_jpeg_table", "jpg")),
    Q("media_wav_features", "kgruntime.ops.media:decode_features",
      src=partial(_media, "kgruntime.ops.media:synth_wav_table", "wav")),
    Q("char_entropy", "kgruntime.ops.quality:char_entropy_scores",
      sql="kgruntime.ops.quality:char_entropy_sql"),
    Q("bigram_lm_scores", "kgruntime.ops.quality:bigram_lm_scores",
      sql="kgruntime.ops.quality:bigram_lm_sql"),
    Q("embedding_outliers", "kgruntime.ops.ann:embedding_outliers",
      src="embeddings", cols=["vec_id", "label", "embedding"],
      sql="kgruntime.ops.ann:embedding_outliers_sql"),
    Q("purchase_click_window", "kgruntime.ops.sessions:purchase_click_window",
      src="events", sql="kgruntime.ops.sessions:purchase_click_window_sql"),
    Q("knn_graph", "kgruntime.ops.ann:knn_graph", src="embeddings",
      cols=["vec_id", "embedding"],
      kw=dict(k=5, n_planes=6, n_tables=2),
      sql="kgruntime.ops.ann:knn_graph_sql",
      sql_kw=dict(dim=_EMB_DIM, k=5, n_planes=6, n_tables=2)),
    Q("cms_heavy_bigrams", "kgruntime.ops.sketch:cms_heavy_bigrams",
      cols=["doc_id", "text"],
      sql="kgruntime.ops.sketch:cms_heavy_bigrams_sql"),
    Q("kmv_distinct_users", "kgruntime.ops.sketch:kmv_distinct", src="events",
      cols=["event_type", "user_id"],
      sql="kgruntime.ops.sketch:kmv_distinct_sql"),
    Q("temperature_mix_sample", "kgruntime.ops.sample:temperature_mix_sample",
      cols=["source", "doc_id"],
      sql="kgruntime.ops.sample:temperature_mix_sample_sql"),
    Q("corpus_diff", "kgruntime.ops.dedup:corpus_diff", src=_with_prior,
      sql="kgruntime.ops.dedup:corpus_diff_sql"),
    Q("user_value_trend", "kgruntime.ops.sessions:user_value_trend",
      src="events", cols=["user_id", "ts", "value"],
      sql="kgruntime.ops.sessions:user_value_trend_sql"),
    Q("bloom_filtered_brand_revenue",
      "kgruntime.relational:q_bloom_filtered_brand_revenue", src="sf_dir",
      sql="kgruntime.relational:bloom_filtered_brand_revenue_sql"),
    Q("hll_hopping_users", "kgruntime.ops.sessions:hll_distinct_hopping",
      src="events", cols=["user_id", "ts"],
      sql="kgruntime.ops.sessions:hll_distinct_hopping_sql"),
    Q("trimmed_mean_value", "kgruntime.ops.stats:trimmed_mean_by_group",
      src="events", cols=["event_type", "value"],
      sql="kgruntime.ops.stats:trimmed_mean_by_group_sql"),
    Q("triangle_census", "kgruntime.ops.graph:triangle_count",
      src=_strong_ties, sql="kgruntime.ops.graph:triangle_count_sql"),
    Q("span_corrupt", "kgruntime.ops.text:span_corrupt",
      cols=["doc_id", "text"], sql="kgruntime.ops.text:span_corrupt_sql"),
    Q("ngram_dedup_rewrite", "kgruntime.ops.dedup:ngram_dedup_rewrite",
      cols=["doc_id", "text"],
      sql="kgruntime.ops.dedup:ngram_dedup_rewrite_sql"),
    Q("bpe_merges", "kgruntime.ops.bpe:bpe_merges", cols=["text"],
      kw=dict(rounds=8), sql="kgruntime.ops.bpe:bpe_merges_sql"),
    Q("k_core_members", "kgruntime.ops.graph:k_core", src=_strong_ties,
      kw=dict(k=2, rounds=8), sql="kgruntime.ops.graph:k_core_sql"),
    Q("vocab_drift", "kgruntime.ops.dedup:vocab_drift", src=_with_prior,
      sql="kgruntime.ops.dedup:vocab_drift_sql"),
    Q("orc_roundtrip_stats", _q_orc_roundtrip, sql=_ROUNDTRIP_STATS_SQL),
    Q("ipc_roundtrip_stats", _q_ipc_roundtrip, sql=_ROUNDTRIP_STATS_SQL),
    Q("int8_quant_recall", "kgruntime.ops.ann:int8_quant_recall",
      src=_ann_probe, kw=dict(k=_ANN_K),
      sql="kgruntime.ops.ann:int8_quant_recall_sql",
      sql_kw=dict(k=_ANN_K, n_queries=_ANN_N_QUERIES)),
    Q("peak_concurrent_users", "kgruntime.ops.sessions:peak_concurrent_users",
      src="events", sql="kgruntime.ops.sessions:PEAK_CONCURRENT_USERS_SQL"),
    Q("incremental_near_dups", _q_incremental_near_dups,
      sql="kgruntime.ops.dedup:incremental_near_dups_sql"),
    Q("hard_negatives", _q_hard_negatives,
      sql="kgruntime.ops.ann:hard_negatives_sql",
      sql_kw=dict(k=_ANN_K, n_queries=_ANN_N_QUERIES)),
    Q("padding_waste", "kgruntime.ops.shard:padding_waste",
      sql="kgruntime.ops.shard:padding_waste_sql"),
    Q("partitioned_export_prune", _q_partitioned_prune,
      sql=_PARTITIONED_PRUNE_SQL),
    Q("fuzzy_name_matches", "kgruntime.ops.linkage:fuzzy_name_matches",
      src="part", cols=["p_name"],
      sql="kgruntime.ops.linkage:fuzzy_name_matches_sql"),
    Q("winnow_dup_pairs", "kgruntime.ops.dedup:winnow_dup_pairs",
      sql="kgruntime.ops.dedup:winnow_dup_pairs_sql"),
    # --- r3-green entries kept inside the window (flagship KG,
    # dedup/ANN/curation core) ---
    Q("kg_canonical_fused", _q_kg_fused),
    Q("curate_corpus", "kgruntime.ops.text:curate_corpus", sort="doc_id",
      sql="kgruntime.ops.text:curate_corpus_sql"),
    Q("near_dedup_corpus", "kgruntime.ops.dedup:near_dedup_corpus",
      kw=dict(threshold=0.5), sort="doc_id",
      sql="kgruntime.ops.dedup:near_dedup_corpus_sql"),
    Q("minhash_near_dups", "kgruntime.ops.dedup:minhash_near_dups",
      kw=dict(threshold=0.5), sql="kgruntime.ops.dedup:minhash_near_dups_sql"),
    Q("ann_topk_ivf", _q_ann_ivf, sql="kgruntime.ops.ann:ivf_topk_sql",
      sql_kw=dict(k=_ANN_K, n_queries=_ANN_N_QUERIES)),
    Q("kmeans_clusters", "kgruntime.ops.ann:kmeans_clusters", src="embeddings",
      cols=["vec_id", "embedding"], sort="vec_id",
      sql="kgruntime.ops.ann:kmeans_clusters_sql"),
    Q("user_components", "kgruntime.ops.graph:user_components", src="events",
      sort="user_id", pin=["user_id", "component"],
      sql="kgruntime.ops.graph:user_components_sql"),
    # --- below slot 50: every entry has a green driver row ---
    Q("embedding_near_dups", _q_emb_near_dups,
      sql="kgruntime.ops.dedup:embedding_near_dups_sql",
      sql_kw=dict(dim=_EMB_DIM, threshold=0.35, n_planes=6, n_tables=8)),
    Q("ann_topk", _q_ann_topk, sql=_ANN_TOPK_SQL),
    Q("simhash_near_dups", "kgruntime.ops.dedup:simhash_near_dups",
      kw=dict(max_hamming=3), sql="kgruntime.ops.dedup:simhash_near_dups_sql"),
    Q("kg_canonical_staged", _q_kg_canonical),
    Q("kg_triples", "kgruntime.stages.extract:triples_dataset",
      src=_synth_docs),
    Q("ann_topk_lsh", _q_ann_lsh, sql="kgruntime.ops.ann:lsh_topk_sql",
      sql_kw=dict(dim=_EMB_DIM, k=_ANN_K, n_queries=_ANN_N_QUERIES)),
    Q("knn_label_vote", _q_knn_label_vote, sql=_KNN_LABEL_VOTE_SQL),
    Q("clean_corpus", "kgruntime.ops.text:clean_corpus",
      cols=["doc_id", "text", "n_chars"], sort="keep_id",
      sql=_CLEAN_CORPUS_SQL),
    Q("pii_scan", "kgruntime.ops.text:pii_scan", sort="doc_id",
      sql="kgruntime.ops.text:pii_scan_sql"),
    Q("normalized_dup_docs", "kgruntime.ops.text:normalized_dup_docs",
      sort="keep_id", sql="kgruntime.ops.text:normalized_dup_docs_sql"),
    Q("rare_token_pairs", "kgruntime.ops.dedup:rare_token_pairs",
      sort=["doc_a", "doc_b"], pin=["doc_a", "doc_b", "n_shared_rare"],
      sql="kgruntime.ops.dedup:rare_token_pairs_sql"),
    Q("pack_sequences", "kgruntime.ops.shard:pack_sequences", sort="shard_id",
      sql="kgruntime.ops.shard:pack_sequences_sql"),
    Q("pagerank_users", "kgruntime.ops.graph:pagerank", src=_user_graph,
      sort="user_id", pin=["user_id", "rank_scaled"],
      sql="kgruntime.ops.graph:pagerank_cooccurrence_sql"),
    Q("decayed_user_value", "kgruntime.ops.sessions:decayed_user_value",
      src="events", sort="user_id",
      sql="kgruntime.ops.sessions:decayed_user_value_sql"),
    Q("event_path_trigrams", "kgruntime.ops.sessions:event_path_trigrams",
      src="events", sort=["t1", "t2", "t3"], pin=["t1", "t2", "t3", "n_paths"],
      sql="kgruntime.ops.sessions:EVENT_PATH_TRIGRAMS_SQL"),
    Q("session_conversion_by_dow",
      "kgruntime.ops.sessions:session_conversion_by_dow", src="events",
      sort="dow", pin=["dow", "n_sessions", "n_converted", "conversion_rate"],
      sql="kgruntime.ops.sessions:SESSION_CONVERSION_BY_DOW_SQL"),
    Q("top_terms_per_source", "kgruntime.ops.text:top_terms_per_source",
      sort=["source", "rnk"], pin=["source", "rnk", "word", "cnt"],
      sql="kgruntime.ops.text:top_terms_per_source_sql"),
    Q("bloom_distinct_user_days", _q_bloom_user_days,
      sql="kgruntime.ops.sketch:bloom_distinct_sql"),
    Q("hll_distinct_users", "kgruntime.ops.sketch:hll_distinct", src="events",
      sql="kgruntime.ops.sketch:hll_distinct_sql"),
    Q("doc_rarity_scores", "kgruntime.ops.text:doc_rarity_scores",
      sort="doc_id", sql="kgruntime.ops.text:DOC_RARITY_SQL"),
    Q("dup_rate_by_source", "kgruntime.ops.dedup:dup_rate_by_source",
      sort="source", pin=["source", "n_docs", "n_distinct", "dup_rate"],
      sql="kgruntime.ops.dedup:DUP_RATE_BY_SOURCE_SQL"),
    Q("prefix_overlap_pairs", "kgruntime.ops.dedup:sorted_neighbor_overlap",
      kw=dict(min_prefix=10), sort=["doc_a", "doc_b"],
      pin=["doc_a", "doc_b", "common_prefix_len"],
      sql="kgruntime.ops.dedup:sorted_neighbor_overlap_sql"),
    Q("suffix_overlap_pairs", "kgruntime.ops.dedup:suffix_overlap_pairs",
      kw=dict(min_suffix=10), sort=["doc_a", "doc_b"],
      pin=["doc_a", "doc_b", "common_prefix_len"],
      sql="kgruntime.ops.dedup:sorted_neighbor_overlap_sql",
      sql_kw=dict(min_prefix=10, text_expr="reverse(text)")),
    # --- round-4d/4e/4f/4g registrations: below slot 50 on purpose;
    # they rotate into the window, and check_oracle.py gates them
    # locally every round ---
    Q("set_sim_join_pairs", "kgruntime.ops.dedup:set_sim_join",
      sql="kgruntime.ops.dedup:set_sim_join_sql"),
    Q("pmi_collocations", "kgruntime.ops.text:pmi_collocations",
      sql="kgruntime.ops.text:pmi_collocations_sql"),
    Q("phrase_search_hits", "kgruntime.ops.text:phrase_search",
      kw=dict(phrase=_PHRASE), sql="kgruntime.ops.text:phrase_search_sql"),
    Q("rfm_segments", "kgruntime.ops.sessions:rfm_segments", src="events",
      cols=["user_id", "ts", "value"],
      sql="kgruntime.ops.sessions:rfm_segments_sql"),
    Q("media_gif_frames", _q_media_gif),
    Q("kg_bgp_rest_first", _q_kg_bgp),
    Q("mad_by_type", "kgruntime.ops.stats:mad_by_group", src="events",
      cols=["event_type", "value"],
      sql="kgruntime.ops.stats:mad_by_group_sql"),
    Q("curriculum_order", "kgruntime.ops.shard:curriculum_order",
      sql="kgruntime.ops.shard:curriculum_order_sql"),
    Q("weighted_sample", "kgruntime.ops.sample:weighted_priority_sample",
      sql="kgruntime.ops.sample:weighted_priority_sample_sql"),
    Q("click_attribution", "kgruntime.ops.sessions:click_attribution",
      src="events", cols=["user_id", "ts", "event_id", "event_type", "value"],
      sql="kgruntime.ops.sessions:click_attribution_sql"),
    Q("principal_component", "kgruntime.ops.ann:principal_component",
      src="embeddings", cols=["embedding"],
      sql="kgruntime.ops.ann:principal_component_sql"),
    Q("minhash_error_audit", "kgruntime.ops.dedup:minhash_error_audit",
      sql="kgruntime.ops.dedup:minhash_error_audit_sql"),
    Q("late_event_audit", "kgruntime.ops.sessions:late_event_audit",
      src="events", cols=["event_id", "event_type", "ts"],
      sql="kgruntime.ops.sessions:late_event_audit_sql"),
    Q("embedding_drift", _q_embedding_drift,
      sql="kgruntime.ops.ann:embedding_drift_sql"),
    Q("dq_audit", _q_dq_audit, sql="kgruntime.ops.dq:DQ_AUDIT_SQL"),
    Q("lexical_topk", "kgruntime.ops.text:lexical_topk",
      kw=dict(query=_LEX_QUERY), sql="kgruntime.ops.text:lexical_topk_sql"),
    Q("rrf_fusion", _q_rrf_fusion, sql="kgruntime.ops.ann:rrf_fusion_sql",
      sql_kw=dict(query_text=_LEX_QUERY)),
    Q("entity_clusters", "kgruntime.ops.linkage:entity_clusters", src="part",
      cols=["p_name"], sql="kgruntime.ops.linkage:entity_clusters_sql"),
    Q("session_incident_overlap",
      "kgruntime.ops.sessions:session_incident_overlap", src="events",
      sql="kgruntime.ops.sessions:session_incident_overlap_sql"),
    Q("user_hourly_locf", "kgruntime.ops.sessions:user_hourly_locf",
      src="events", sql="kgruntime.ops.sessions:USER_HOURLY_LOCF_SQL"),
    Q("mg_heavy_trigrams", "kgruntime.ops.sketch:mg_heavy_trigrams",
      sql="kgruntime.ops.sketch:mg_heavy_trigrams_sql"),
    Q("lpa_communities", "kgruntime.ops.graph:lpa_communities",
      src=_strong_ties, kw=dict(rounds=4),
      sql="kgruntime.ops.graph:lpa_communities_sql"),
    Q("bootstrap_stats", "kgruntime.ops.sample:bootstrap_stats",
      sql="kgruntime.ops.sample:bootstrap_stats_sql"),
    Q("media_phash_dups", _q_media_phash_dups),
    Q("cdc_chunk_dedup", "kgruntime.ops.dedup:cdc_chunk_dedup",
      sql="kgruntime.ops.dedup:cdc_chunk_dedup_sql"),
    Q("embargo_split_audit", "kgruntime.ops.sample:embargo_split_audit",
      src="events", sql="kgruntime.ops.sample:embargo_split_audit_sql"),
    Q("cluster_safe_split", "kgruntime.ops.dedup:cluster_safe_split",
      sql="kgruntime.ops.dedup:cluster_safe_split_sql"),
    Q("vocab_coverage", "kgruntime.ops.text:vocab_coverage",
      sql="kgruntime.ops.text:vocab_coverage_sql"),
    Q("value_purchase_auc", "kgruntime.ops.evalm:binary_auc", src="events",
      sql="kgruntime.ops.evalm:binary_auc_sql"),
    Q("langid_confusion", "kgruntime.ops.text:langid_confusion",
      sql="kgruntime.ops.text:langid_confusion_sql"),
    Q("shingle_novelty", "kgruntime.ops.dedup:shingle_novelty",
      sql="kgruntime.ops.dedup:shingle_novelty_sql"),
    Q("trigram_diversity", "kgruntime.ops.text:trigram_diversity",
      sql="kgruntime.ops.text:trigram_diversity_sql"),
    Q("bpe_fertility", "kgruntime.ops.bpe:bpe_fertility",
      sql="kgruntime.ops.bpe:bpe_fertility_sql"),
    Q("revenue_cube", "kgruntime.relational:q_revenue_cube", src="sf_dir",
      sql="kgruntime.relational:Q_REVENUE_CUBE_SQL"),
    Q("user_active_time", "kgruntime.ops.sessions:user_active_time",
      src="events", sql="kgruntime.ops.sessions:user_active_time_sql"),
    Q("compression_quality", "kgruntime.ops.text:compression_quality"),
    Q("decile_lift", "kgruntime.ops.evalm:decile_lift", src="events",
      sql="kgruntime.ops.evalm:decile_lift_sql"),
    Q("basket_affinity", "kgruntime.relational:q_basket_affinity",
      src="sf_dir", sql="kgruntime.relational:Q_BASKET_AFFINITY_SQL"),
    Q("ann_recall_audit", "kgruntime.ops.ann:ann_recall_audit",
      src=_ann_probe_factory, kw=dict(k=_ANN_K),
      sql="kgruntime.ops.ann:ann_recall_audit_sql",
      sql_kw=dict(k=_ANN_K, n_queries=_ANN_N_QUERIES)),
    Q("bot_regularity", "kgruntime.ops.sessions:bot_regularity_audit",
      src="events", sql="kgruntime.ops.sessions:bot_regularity_audit_sql"),
    Q("mmr_diverse_topk", "kgruntime.ops.ann:mmr_topk", src=_ann_probe_factory,
      kw=dict(k=_ANN_K), sql="kgruntime.ops.ann:mmr_topk_sql",
      sql_kw=dict(k=_ANN_K, n_queries=_ANN_N_QUERIES)),
    Q("pit_training_features", "kgruntime.ops.sessions:pit_training_features",
      src="events", sql="kgruntime.ops.sessions:pit_training_features_sql"),
    Q("source_overlap_matrix", "kgruntime.ops.dedup:source_overlap_matrix",
      sql="kgruntime.ops.dedup:source_overlap_matrix_sql"),
    Q("near_split_leakage", "kgruntime.ops.sample:near_split_leakage",
      sql="kgruntime.ops.sample:near_split_leakage_sql"),
    Q("dsir_importance", "kgruntime.ops.text:dsir_importance",
      sql="kgruntime.ops.text:dsir_importance_sql"),
    Q("rec_negative_samples", "kgruntime.relational:q_rec_negative_samples",
      src="sf_dir", sql="kgruntime.relational:Q_REC_NEGATIVE_SAMPLES_SQL"),
    Q("markov_next_event", "kgruntime.ops.sessions:markov_next_event_accuracy",
      src="events",
      sql="kgruntime.ops.sessions:markov_next_event_accuracy_sql"),
    Q("rp_projection_recall", "kgruntime.ops.ann:rp_projection_recall",
      src=_ann_probe, kw=dict(k=_ANN_K),
      sql="kgruntime.ops.ann:rp_projection_recall_sql",
      sql_kw=dict(dim=_EMB_DIM, k=_ANN_K, n_queries=_ANN_N_QUERIES)),
    Q("dp_noisy_counts", "kgruntime.ops.stats:dp_noisy_counts", src="events",
      sql="kgruntime.ops.stats:dp_noisy_counts_sql"),
    Q("encoding_advisor", "kgruntime.ops.dq:encoding_advisor", src="events",
      sql="kgruntime.ops.dq:encoding_advisor_sql"),
    Q("join_skew_audit", "kgruntime.ops.stats:join_skew_audit", src="lineitem",
      cols=["l_partkey"], sql="kgruntime.ops.stats:join_skew_audit_sql"),
    Q("range_partition_plan", "kgruntime.ops.shard:range_partition_planner",
      src="events", sql="kgruntime.ops.shard:range_partition_planner_sql"),
    Q("community_modularity", "kgruntime.ops.graph:community_modularity",
      src=_strong_ties, kw=dict(rounds=4),
      sql="kgruntime.ops.graph:community_modularity_sql"),
    Q("stickiness_dau_mau", "kgruntime.ops.sessions:stickiness_dau_mau",
      src="events", sql="kgruntime.ops.sessions:stickiness_dau_mau_sql"),
    Q("cdc_upsert_merge", "kgruntime.ops.dedup:cdc_upsert_merge", src="events",
      sql="kgruntime.ops.dedup:cdc_upsert_merge_sql"),
    Q("feature_cross_hash", "kgruntime.ops.text:feature_cross_hash",
      src="events", sql="kgruntime.ops.text:feature_cross_hash_sql"),
    Q("zorder_layout_audit", "kgruntime.ops.shard:zorder_layout_audit",
      src="events", sql="kgruntime.ops.shard:zorder_layout_audit_sql"),
    Q("max_coverage_picks", "kgruntime.ops.text:max_coverage_selection",
      sql="kgruntime.ops.text:max_coverage_selection_sql"),
    Q("gzjsonl_roundtrip_stats", _q_gzjsonl_roundtrip,
      sql=_ROUNDTRIP_STATS_SQL),
    Q("scd2_segment_revenue", "kgruntime.relational:q_scd2_segment_revenue",
      src="sf_dir", sql="kgruntime.relational:Q_SCD2_SEGMENT_REVENUE_SQL"),
    Q("retrieval_rank_agreement", _q_rank_agreement,
      sql="kgruntime.ops.ann:rank_agreement_sql",
      sql_kw=dict(query_text=_LEX_QUERY)),
    Q("epoch_shuffle_audit", "kgruntime.ops.sample:epoch_shuffle_audit",
      sql="kgruntime.ops.sample:epoch_shuffle_audit_sql"),
    Q("dedup_sensitivity_sweep", "kgruntime.ops.dedup:dedup_sensitivity_sweep",
      sql="kgruntime.ops.dedup:dedup_sensitivity_sweep_sql"),
    Q("triplet_mining", _q_triplet_mining,
      sql="kgruntime.ops.ann:triplet_mining_sql",
      sql_kw=dict(n_queries=_ANN_N_QUERIES)),
    Q("pareto_front_parts", "kgruntime.relational:q_pareto_front_parts",
      src="sf_dir", sql="kgruntime.relational:Q_PARETO_FRONT_PARTS_SQL"),
    Q("media_bmp_features", "kgruntime.ops.media:decode_features",
      src=partial(_media, "kgruntime.ops.media:synth_bmp_table", "bmp")),
    Q("peak_user_rate", "kgruntime.ops.sessions:peak_user_rate", src="events",
      sql="kgruntime.ops.sessions:peak_user_rate_sql"),
    Q("events_quarantine", "kgruntime.ops.dq:validate_and_quarantine",
      src="events", sql="kgruntime.ops.dq:validate_and_quarantine_sql"),
    Q("embedding_gram", "kgruntime.ops.ann:embedding_gram_matrix",
      src="embeddings", cols=["embedding"],
      sql="kgruntime.ops.ann:embedding_gram_matrix_sql"),
    Q("join_strategy_advisor", "kgruntime.relational:q_join_strategy_advisor",
      src="sf_dir", sql="kgruntime.relational:Q_JOIN_STRATEGY_ADVISOR_SQL"),
    Q("ks_value_drift", "kgruntime.ops.stats:ks_two_samples", src="events",
      sql="kgruntime.ops.stats:ks_two_samples_sql"),
    Q("benford_audit", "kgruntime.ops.stats:benford_audit", src="events",
      sql="kgruntime.ops.stats:benford_audit_sql"),
    Q("subtree_balance_rollup", "kgruntime.ops.graph:subtree_balance_rollup",
      src="customer", cols=["c_custkey", "c_acctbal"],
      sql="kgruntime.ops.graph:subtree_balance_rollup_sql"),
    Q("streaming_emit_audit", "kgruntime.ops.sessions:streaming_emit_audit",
      src="events", sql="kgruntime.ops.sessions:streaming_emit_audit_sql"),
    Q("pq_quant_recall", "kgruntime.ops.ann:pq_quant_recall", src=_ann_probe,
      kw=dict(k=_ANN_K), sql="kgruntime.ops.ann:pq_quant_recall_sql",
      sql_kw=dict(dim=_EMB_DIM, k=_ANN_K, n_queries=_ANN_N_QUERIES)),
    Q("bitmap_index_queries", "kgruntime.ops.shard:bitmap_index_queries",
      src="events", sql="kgruntime.ops.shard:bitmap_index_queries_sql"),
    Q("multi_query_lexical", "kgruntime.ops.text:multi_query_lexical",
      kw=dict(queries=_MQ_QUERIES),
      sql="kgruntime.ops.text:multi_query_lexical_sql"),
    Q("k_anonymity_audit", "kgruntime.ops.dq:k_anonymity_audit",
      sql="kgruntime.ops.dq:k_anonymity_audit_sql"),
    Q("personalized_pagerank", "kgruntime.ops.graph:personalized_pagerank",
      src=_user_graph, sort="user_id",
      sql="kgruntime.ops.graph:personalized_pagerank_sql"),
    Q("copy_genealogy", "kgruntime.ops.dedup:copy_genealogy",
      sql="kgruntime.ops.dedup:copy_genealogy_sql"),
    Q("composition_drift", "kgruntime.ops.dq:composition_drift",
      sql="kgruntime.ops.dq:composition_drift_sql"),
    Q("conversion_delay_pcts",
      "kgruntime.ops.sessions:conversion_delay_percentiles", src="events",
      sql="kgruntime.ops.sessions:conversion_delay_percentiles_sql"),
    Q("supplier_performance", "kgruntime.relational:q_supplier_performance",
      src="sf_dir", sql="kgruntime.relational:Q_SUPPLIER_PERFORMANCE_SQL"),
    Q("kg_star_query", _q_kg_star),
    Q("trending_part_types", "kgruntime.relational:q_trending_part_types",
      src="sf_dir", sql="kgruntime.relational:Q_TRENDING_PART_TYPES_SQL"),
    Q("kg_incremental_build", _q_kg_incremental),
    Q("kg_pred_catalog", _q_kg_pred_catalog),
    # --- outside the driver's 50-query window (every one has a green
    # driver row from r1–r3) ---
    Q("media_frames", _q_media_frames),
    Q("minhash_dup_clusters", "kgruntime.ops.dedup:minhash_dup_clusters",
      kw=dict(threshold=0.5), sort="doc_id",
      sql="kgruntime.ops.dedup:minhash_dup_clusters_sql"),
    Q("label_centroids", "kgruntime.ops.ann:label_centroids", src="embeddings",
      cols=["label", "embedding"], sort=["label", "i"],
      sql=_LABEL_CENTROIDS_SQL),
    Q("langid_mismatch", "kgruntime.ops.text:langid_mismatch_by_source",
      sort="source", sql="kgruntime.ops.text:langid_mismatch_sql"),
    Q("zscore_by_source", "kgruntime.ops.stats:zscore_by_source",
      sort="doc_id", pin=["doc_id", "source", "n_chars", "zscore"],
      sql="kgruntime.ops.stats:zscore_by_source_sql"),
    Q("chunk_documents", "kgruntime.ops.text:chunk_documents",
      sort=["doc_id", "chunk_id"],
      sql="kgruntime.ops.text:chunk_documents_sql"),
    # sort=[]: to pandas in the order the op produced
    Q("bigram_counts", "kgruntime.ops.text:bigram_counts", sort=[],
      sql="kgruntime.ops.text:bigram_counts_sql"),
    Q("redact_terms", "kgruntime.ops.text:redact_terms", sort="doc_id",
      sql="kgruntime.ops.text:redact_terms_sql"),
    Q("length_deciles", "kgruntime.ops.stats:value_deciles", sort="doc_id",
      sql="kgruntime.ops.stats:value_deciles_sql"),
    Q("kg_quarantine", "kgruntime.stages.extract:errors_dataset",
      src=partial(_synth_docs, prof=PROFILE._replace(bad_every=10))),
    Q("kg_mentions", _q_kg_mentions),
    Q("kg_link_edges", _q_kg_link_edges),
    Q("kg_assignment", _q_kg_assignment),
    Q("kg_canonical_store", _q_kg_canonical),
    Q("media_features", "kgruntime.ops.media:decode_features",
      src=partial(_media, "kgruntime.ops.media:synth_media_table", "0")),
    Q("cooccurrence_edges", "kgruntime.ops.sessions:cooccurrence_edges",
      src="events", sort=["user_a", "user_b"],
      pin=["user_a", "user_b", "n_shared"],
      sql="kgruntime.ops.sessions:cooccurrence_edges_sql"),
    Q("windowed_event_dedup", "kgruntime.ops.sessions:windowed_event_dedup",
      src="events", sort="event_id",
      pin=["event_id", "user_id", "event_type", "ts"],
      sql="kgruntime.ops.sessions:windowed_event_dedup_sql"),
    Q("event_anomalies", "kgruntime.ops.stats:event_anomalies", src="events",
      sort="event_id", pin=["event_id", "event_type", "value", "zscore"],
      sql="kgruntime.ops.stats:event_anomalies_sql"),
    Q("split_assign", "kgruntime.ops.sample:split_assign", sort="doc_id",
      sql="kgruntime.ops.sample:split_assign_sql"),
    Q("source_mix_weights", "kgruntime.ops.text:source_mix_weights",
      sql="kgruntime.ops.text:source_mix_weights_sql"),
    Q("blocklist_filter", "kgruntime.ops.text:blocklist_filter", sort="doc_id",
      sql="kgruntime.ops.text:blocklist_filter_sql"),
    # long-green suite (driver-verified green in rounds 1 and 2)
    Q("pricing_summary", "kgruntime.relational:q_pricing_summary",
      src="sf_dir", sql="kgruntime.relational:Q_PRICING_SUMMARY_SQL"),
    Q("orders_by_status", "kgruntime.relational:q_orders_by_status",
      src="sf_dir", sql="kgruntime.relational:Q_ORDERS_BY_STATUS_SQL"),
    Q("top_customers", "kgruntime.relational:q_top_customers", src="sf_dir",
      sql="kgruntime.relational:Q_TOP_CUSTOMERS_SQL"),
    Q("customers_per_region", "kgruntime.relational:q_customers_per_region",
      src="sf_dir", sql="kgruntime.relational:Q_CUSTOMERS_PER_REGION_SQL"),
    Q("events_by_type_day", "kgruntime.relational:q_events_by_type_day",
      src="sf_dir", sql="kgruntime.relational:Q_EVENTS_BY_TYPE_DAY_SQL"),
    Q("user_activity", "kgruntime.relational:q_user_activity", src="sf_dir",
      sql="kgruntime.relational:Q_USER_ACTIVITY_SQL"),
    Q("parts_by_brand", "kgruntime.relational:q_parts_by_brand", src="sf_dir",
      sql="kgruntime.relational:Q_PARTS_BY_BRAND_SQL"),
    Q("revenue_by_part_type", "kgruntime.relational:q_revenue_by_part_type",
      src="sf_dir", sql="kgruntime.relational:Q_REVENUE_BY_PART_TYPE_SQL"),
    Q("discounted_orders", "kgruntime.relational:q_discounted_orders",
      src="sf_dir", sql="kgruntime.relational:Q_DISCOUNTED_ORDERS_SQL"),
    Q("customers_without_orders",
      "kgruntime.relational:q_customers_without_orders", src="sf_dir",
      sql="kgruntime.relational:Q_CUSTOMERS_WITHOUT_ORDERS_SQL"),
    Q("distinct_users_per_type",
      "kgruntime.relational:q_distinct_users_per_type", src="sf_dir",
      sql="kgruntime.relational:Q_DISTINCT_USERS_PER_TYPE_SQL"),
    Q("shipping_priority", "kgruntime.relational:q_shipping_priority",
      src="sf_dir", sql="kgruntime.relational:Q_SHIPPING_PRIORITY_SQL"),
    Q("top_event_per_user", "kgruntime.relational:q_top_event_per_user",
      src="sf_dir", sql="kgruntime.relational:Q_TOP_EVENT_PER_USER_SQL"),
    Q("asof_click_purchase", "kgruntime.relational:q_asof_click_purchase",
      src="sf_dir", sql="kgruntime.relational:Q_ASOF_CLICK_PURCHASE_SQL"),
    Q("value_bands", "kgruntime.relational:q_value_bands", src="sf_dir",
      sql="kgruntime.relational:Q_VALUE_BANDS_SQL"),
    Q("top_type_per_user", "kgruntime.relational:q_top_type_per_user",
      src="sf_dir", sql="kgruntime.relational:Q_TOP_TYPE_PER_USER_SQL"),
    Q("event_value_quantiles", "kgruntime.relational:q_event_value_quantiles",
      src="sf_dir", sql="kgruntime.relational:Q_EVENT_VALUE_QUANTILES_SQL"),
    Q("local_supplier_revenue",
      "kgruntime.relational:q_local_supplier_revenue", src="sf_dir",
      sql="kgruntime.relational:Q_LOCAL_SUPPLIER_REVENUE_SQL"),
    Q("props_k_stats", "kgruntime.relational:q_props_k_stats", src="sf_dir",
      sql="kgruntime.relational:Q_PROPS_K_STATS_SQL"),
    Q("corr_qty_price", "kgruntime.relational:q_corr_qty_price", src="sf_dir",
      sql="kgruntime.relational:Q_CORR_QTY_PRICE_SQL"),
    Q("user_event_pivot", "kgruntime.relational:q_user_event_pivot",
      src="sf_dir", sql="kgruntime.relational:Q_USER_EVENT_PIVOT_SQL"),
    Q("rollup_region_nation", "kgruntime.relational:q_rollup_region_nation",
      src="sf_dir", sql="kgruntime.relational:Q_ROLLUP_REGION_NATION_SQL"),
    Q("top3_per_nation", "kgruntime.relational:q_top3_per_nation",
      src="sf_dir", sql="kgruntime.relational:Q_TOP3_PER_NATION_SQL"),
    Q("monthly_revenue_ma3", "kgruntime.relational:q_monthly_revenue_ma3",
      src="sf_dir", sql="kgruntime.relational:Q_MONTHLY_REVENUE_MA3_SQL"),
    Q("long_docs_p90", "kgruntime.relational:q_long_docs_p90", src="sf_dir",
      sql="kgruntime.relational:Q_LONG_DOCS_P90_SQL"),
    Q("events_dow_hour", "kgruntime.relational:q_events_dow_hour",
      src="sf_dir", sql="kgruntime.relational:Q_EVENTS_DOW_HOUR_SQL"),
    Q("orders_priority_share", "kgruntime.relational:q_orders_priority_share",
      src="sf_dir", sql="kgruntime.relational:Q_ORDERS_PRIORITY_SHARE_SQL"),
    Q("doc_stats", _q_doc_stats, sql=_DOC_STATS_SQL),
    Q("token_stats", _q_token_stats, sql=_TOKEN_STATS_SQL),
    Q("quality_scores", _q_quality_scores, sql=_QUALITY_SCORES_SQL),
    Q("lang_distribution", _q_lang_distribution, sql=_LANG_DISTRIBUTION_SQL),
    Q("exact_dup_docs", "kgruntime.ops.dedup:exact_dedup_groups",
      sort="keep_id", sql=_EXACT_DUP_DOCS_SQL),
    Q("jaccard_adjacent", "kgruntime.ops.dedup:jaccard_adjacent_pairs",
      sort="doc_a", sql=_JACCARD_ADJACENT_SQL),
    Q("term_frequencies", _q_term_freqs,
      sql="kgruntime.ops.text:TERM_FREQUENCIES_SQL"),
    Q("vocab_per_lang", "kgruntime.ops.text:vocab_per_lang", sort="lang",
      pin=["lang", "vocab_size"], sql="kgruntime.ops.text:VOCAB_PER_LANG_SQL"),
    Q("stratified_sample", _q_strat_sample,
      sql="kgruntime.ops.sample:stratified_sample_sql",
      sql_kw=dict(rates=_SAMPLE_RATES, columns="doc_id, lang, source")),
    Q("repetition_scores", _q_repetition,
      sql="kgruntime.ops.text:REPETITION_SCORES_SQL"),
    Q("contamination_check", "kgruntime.ops.text:contamination_check",
      sort="doc_id", sql="kgruntime.ops.text:contamination_sql"),
    Q("tfidf_doc_terms", "kgruntime.ops.text:tfidf_doc_terms",
      sort=["doc_id", "rnk"], sql="kgruntime.ops.text:tfidf_doc_terms_sql"),
    Q("token_shards", "kgruntime.ops.shard:token_budget_shards", sort="doc_id",
      sql="kgruntime.ops.shard:token_budget_shards_sql"),
    Q("langid_pred", _q_langid, sql="kgruntime.ops.text:LANGID_SQL"),
    Q("doc_fingerprints", _q_fingerprints,
      sql="kgruntime.ops.text:FINGERPRINTS_SQL"),
    Q("sessionize", "kgruntime.ops.sessions:sessionize", src="events",
      sort=["user_id", "session_start"],
      sql="kgruntime.ops.sessions:SESSIONIZE_SQL"),
    Q("tumbling_hourly", "kgruntime.ops.sessions:tumbling_hourly",
      src="events", sort=["event_type", "window_start"],
      pin=["event_type", "window_start", "n_events", "total_value"],
      sql="kgruntime.ops.sessions:TUMBLING_HOURLY_SQL"),
    Q("hopping_2h_1h", "kgruntime.ops.sessions:hopping_windows", src="events",
      sort=["event_type", "window_start"],
      pin=["event_type", "window_start", "n_events", "total_value"],
      sql="kgruntime.ops.sessions:HOPPING_2H_1H_SQL"),
    Q("user_gap_stats", "kgruntime.ops.sessions:user_gap_stats", src="events",
      sort="user_id", sql="kgruntime.ops.sessions:USER_GAP_STATS_SQL"),
    Q("running_user_totals", "kgruntime.ops.sessions:running_user_totals",
      src="events", sort=["user_id", "event_id"],
      sql="kgruntime.ops.sessions:RUNNING_USER_TOTALS_SQL"),
    Q("event_transitions", "kgruntime.ops.sessions:event_transitions",
      src="events", sort=["from_type", "to_type"],
      pin=["from_type", "to_type", "n_pairs"],
      sql="kgruntime.ops.sessions:EVENT_TRANSITIONS_SQL"),
    Q("funnel_counts", "kgruntime.ops.sessions:funnel_counts", src="events",
      sort="stage_idx", pin=["stage_idx", "stage", "n_users"],
      sql="kgruntime.ops.sessions:funnel_counts_sql"),
    Q("retention_cohorts", "kgruntime.ops.sessions:retention_cohorts",
      src="events", sort=["cohort_day", "day_offset"],
      pin=["cohort_day", "day_offset", "n_users"],
      sql="kgruntime.ops.sessions:RETENTION_COHORTS_SQL"),

)
