"""Text-analysis operators for large-scale training-data pipelines:
language-ID, quality scoring, token counting, document fingerprinting.

All operate on the flat ``documents`` testdata table
(doc_id:int64, text:string, lang:string, source:string, n_chars:int64)
as stateless vectorized ``map_batches`` stages; the regex/profile state
lives module-level (compiled once per worker process import) or in an
actor ``__init__`` where noted.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_TOKEN_RE = r"\S+"
# BPE-ish word/punct splitter (GPT-2 style, simplified, no lookbehind)
_BPE_RE = re.compile(r"[A-Za-z]+|[0-9]+|[^\sA-Za-z0-9]+")

STOPWORDS = frozenset(
    "the a an and or of to in is are was were be been for on with as at by "
    "it this that from".split())


def _round6(x: float) -> float:
    """Round-half-away-from-zero at 6 decimals for non-negative ratios —
    matches DuckDB's ROUND so oracle value-hashes agree (Python's builtin
    round is banker's and differs on exact dyadic halves like 125/128)."""
    import math

    return math.floor(x * 1e6 + 0.5) / 1e6


def token_stats(batch: pa.Table) -> pa.Table:
    """(doc_id, n_tokens, n_bpe_tokens, avg_token_len) — fully vectorized
    whitespace counting via Arrow regex kernels; BPE-ish count via a
    compiled regex per row (C-speed findall)."""
    text = batch["text"]
    trimmed = pc.utf8_trim_whitespace(text)
    n_tokens = pc.if_else(
        pc.equal(trimmed, ""), pa.scalar(0, pa.int64()),
        pc.cast(pc.count_substring_regex(trimmed, _TOKEN_RE), pa.int64()))
    compact_len = pc.utf8_length(pc.replace_substring_regex(trimmed, r"\s+", ""))
    avg_len = pc.if_else(
        pc.equal(n_tokens, 0), pa.scalar(0.0),
        pc.divide(pc.cast(compact_len, pa.float64()),
                  pc.cast(pc.max_element_wise(n_tokens, 1), pa.float64())))
    n_bpe = pa.array([len(_BPE_RE.findall(t)) for t in text.to_pylist()],
                     pa.int64())
    return pa.Table.from_arrays(
        [batch["doc_id"], n_tokens, n_bpe,
         pc.round(avg_len, ndigits=6, round_mode="half_towards_infinity")],
        names=["doc_id", "n_tokens", "n_bpe_tokens", "avg_token_len"])


def quality_scores(batch: pa.Table) -> pa.Table:
    """(doc_id, n_tokens, stopword_ratio, alpha_ratio, quality) — length /
    stopword / alphabetic heuristics à la C4/Gopher filtering rules."""
    texts = batch["text"].to_pylist()
    n_tok, sw_ratio, alpha_ratio, quality = [], [], [], []
    for t in texts:
        toks = t.split()
        n = len(toks)
        n_tok.append(n)
        if n == 0:
            sw_ratio.append(0.0); alpha_ratio.append(0.0); quality.append(0.0)
            continue
        sw = sum(1 for w in toks if w.lower() in STOPWORDS) / n
        al = sum(1 for w in toks if w.isalpha()) / n
        q = min(1.0, n / 50.0) * (0.5 + 0.5 * al) * (1.0 - 0.5 * sw)
        sw_ratio.append(_round6(sw))
        alpha_ratio.append(_round6(al))
        quality.append(_round6(q))
    return pa.Table.from_arrays(
        [batch["doc_id"], pa.array(n_tok, pa.int64()),
         pa.array(sw_ratio, pa.float64()), pa.array(alpha_ratio, pa.float64()),
         pa.array(quality, pa.float64())],
        names=["doc_id", "n_tokens", "stopword_ratio", "alpha_ratio",
               "quality"])


# --- language ID: character n-gram profiles (tiny, deterministic) ---

_LANG_PROFILES = {
    "en": "the and ing ion to of in er re he",
    "es": "de la que el en los se del las un",
    "fr": "de la le et les des en un du que",
    "de": "der die und den von sch ein ich das mit",
    "it": "di la che il non per una del gli con",
}


class LangId:
    """N-gram-overlap language classifier — actor-pool stage: profiles
    compiled once per actor in ``__init__`` (stateful-stage pattern)."""

    def __init__(self):
        self.profiles = {lang: set(p.split())
                         for lang, p in _LANG_PROFILES.items()}

    def classify(self, text: str) -> str:
        toks = set(re.findall(r"[a-zà-ÿ]+", text.lower()))
        grams = set()
        for t in toks:
            grams.add(t)
            for i in range(len(t) - 2):
                grams.add(t[i:i + 3])
        best, best_score = "und", 0
        for lang, prof in self.profiles.items():
            score = len(grams & prof)
            if score > best_score:
                best, best_score = lang, score
        return best

    def __call__(self, batch: pa.Table) -> pa.Table:
        preds = [self.classify(t) for t in batch["text"].to_pylist()]
        return pa.Table.from_arrays(
            [batch["doc_id"], pa.array(preds, pa.string())],
            names=["doc_id", "pred_lang"])


# --- document fingerprint: rolling polynomial hash over tokens ---

_FP_BASE = 1099511628211
_FP_OFFSET = 14695981039346656037
_FP_MASK = (1 << 64) - 1
_TOK_BASE = 257

# per-worker memo: the corpus vocabulary repeats heavily, so each token's
# char-polynomial is computed once per worker (capped to bound memory on
# high-cardinality vocabularies)
_tok_hash_cache: dict[str, int] = {}
_TOK_CACHE_MAX = 1 << 20


def _token_hash(t: str) -> int:
    """Per-token 64-bit polynomial over code points:
    ``h = (h·257 + ord(c)) mod 2^64`` — chosen (over crc32) because a
    SQL oracle can replicate it verbatim with HUGEINT ``list_reduce``."""
    h = _tok_hash_cache.get(t)
    if h is None:
        h = 0
        for c in t:
            h = (h * _TOK_BASE + ord(c)) & _FP_MASK
        if len(_tok_hash_cache) >= _TOK_CACHE_MAX:
            _tok_hash_cache.clear()
        _tok_hash_cache[t] = h
    return h


def fingerprint_tokens(tokens: list[str]) -> int:
    """FNV-style rolling hash over the token sequence (order-sensitive):
    ``h = ((h XOR token_hash) · FNV_PRIME) mod 2^64`` starting from the
    FNV offset basis.  Exact Python ints with an explicit 64-bit mask;
    the DuckDB oracle (``FINGERPRINTS_SQL``) reproduces it bit-for-bit
    in HUGEINT arithmetic."""
    h = _FP_OFFSET
    for t in tokens:
        h = ((h ^ _token_hash(t)) * _FP_BASE) & _FP_MASK
    return h


_M64 = "18446744073709551616"  # 2^64 as a HUGEINT literal

FINGERPRINTS_SQL = rf"""
WITH toks AS (
  SELECT doc_id,
         CASE WHEN trim(text) = '' THEN []::VARCHAR[]
              ELSE regexp_split_to_array(trim(text), '\s+')
         END AS t
  FROM documents),
th AS (
  SELECT doc_id,
         list_transform(t, tok -> list_reduce(
           list_transform(str_split(tok, ''), c -> unicode(c)::HUGEINT),
           (a, b) -> (a * {_TOK_BASE} + b) % {_M64}::HUGEINT)) AS h
  FROM toks)
SELECT doc_id,
       list_reduce(list_prepend({_FP_OFFSET}::HUGEINT, h),
         (a, b) -> (xor(a, b) * {_FP_BASE}) % {_M64}::HUGEINT
       )::UBIGINT AS fingerprint,
       list_reduce(list_prepend({_FP_OFFSET}::HUGEINT, h[1:32]),
         (a, b) -> (xor(a, b) * {_FP_BASE}) % {_M64}::HUGEINT
       )::UBIGINT AS prefix_fingerprint
FROM th ORDER BY doc_id
"""


def fingerprints(batch: pa.Table) -> pa.Table:
    """(doc_id, fingerprint:uint64, prefix_fingerprint:uint64) — full-doc
    rolling hash + first-32-token prefix hash (prefix collisions catch
    truncation-style near-dups)."""
    fps, pfps = [], []
    for t in batch["text"].to_pylist():
        toks = t.split()
        fps.append(fingerprint_tokens(toks))
        pfps.append(fingerprint_tokens(toks[:32]))
    return pa.Table.from_arrays(
        [batch["doc_id"], pa.array(fps, pa.uint64()),
         pa.array(pfps, pa.uint64())],
        names=["doc_id", "fingerprint", "prefix_fingerprint"])


# DuckDB oracle for LangId: the identical gram construction (distinct
# tokens of [a-zà-ÿ]+ over lower(text), each with its char trigrams),
# per-language intersection sizes against the inlined profiles, and the
# same first-max-in-profile-order tie-break ('und' when all scores are 0).
def _langid_sql(order_by: bool = True) -> str:
    score_cols, cases = [], []
    for lang, prof in _LANG_PROFILES.items():
        lst = "[" + ", ".join(f"'{w}'" for w in prof.split()) + "]"
        score_cols.append(
            f"len(list_intersect(grams, {lst})) AS s_{lang}")
        cases.append(f"WHEN s_{lang} = m THEN '{lang}'")
    return rf"""
WITH g AS (
  SELECT doc_id,
         list_distinct(flatten(list_transform(
           list_distinct(regexp_extract_all(lower(text), '[a-zà-ÿ]+')),
           t -> list_prepend(t, list_transform(
                  range(1, length(t) - 1), i -> substr(t, i, 3)))
         ))) AS grams
  FROM documents),
s AS (SELECT doc_id, {', '.join(score_cols)} FROM g),
m AS (SELECT *, greatest({', '.join('s_' + l for l in _LANG_PROFILES)}) AS m
      FROM s)
SELECT doc_id,
       CASE WHEN m = 0 THEN 'und' {' '.join(cases)} END AS pred_lang
FROM m{" ORDER BY doc_id" if order_by else ""}
"""


LANGID_SQL = _langid_sql()


# --- repetition scores: Gopher-style duplicate-content heuristics ---

def repetition_scores(batch: pa.Table) -> pa.Table:
    """(doc_id, n_tokens, distinct_ratio, top_word_frac, dup_2gram_frac)
    — within-document repetition signals used by Gopher/C4-style
    filters: distinct-token ratio, most-frequent-token mass, and the
    fraction of duplicated token bigrams.  Per-row loop over tokens is
    deliberate: the ratios must follow exact Python/SQL counting
    semantics for the value-hash oracle."""
    from collections import Counter

    n_tok, d_ratio, top_frac, dup2 = [], [], [], []
    for t in batch["text"].to_pylist():
        toks = t.split()
        n = len(toks)
        n_tok.append(n)
        if n == 0:
            d_ratio.append(0.0); top_frac.append(0.0); dup2.append(0.0)
            continue
        c = Counter(toks)
        d_ratio.append(_round6(len(c) / n))
        top_frac.append(_round6(max(c.values()) / n))
        if n < 2:
            dup2.append(0.0)
        else:
            grams = [f"{toks[i]} {toks[i + 1]}" for i in range(n - 1)]
            dup2.append(_round6(1.0 - len(set(grams)) / (n - 1)))
    return pa.Table.from_arrays(
        [batch["doc_id"], pa.array(n_tok, pa.int64()),
         pa.array(d_ratio, pa.float64()), pa.array(top_frac, pa.float64()),
         pa.array(dup2, pa.float64())],
        names=["doc_id", "n_tokens", "distinct_ratio", "top_word_frac",
               "dup_2gram_frac"])


REPETITION_SCORES_SQL = r"""
WITH toks AS (
  SELECT doc_id,
         CASE WHEN trim(text) = '' THEN []::VARCHAR[]
              ELSE regexp_split_to_array(trim(text), '\s+')
         END AS t
  FROM documents)
SELECT doc_id, len(t) AS n_tokens,
       CASE WHEN len(t) = 0 THEN 0.0 ELSE
         round(len(list_distinct(t))::DOUBLE / len(t), 6) END
         AS distinct_ratio,
       CASE WHEN len(t) = 0 THEN 0.0 ELSE
         round(list_aggregate(list_transform(list_distinct(t),
                 w -> len(list_filter(t, x -> x = w))), 'max')::DOUBLE
               / len(t), 6) END AS top_word_frac,
       CASE WHEN len(t) < 2 THEN 0.0 ELSE
         round(1.0 - len(list_distinct(list_transform(
                 range(1, len(t)), i -> concat_ws(' ', t[i], t[i+1]))))
               ::DOUBLE / (len(t) - 1), 6) END AS dup_2gram_frac
FROM toks ORDER BY doc_id
"""


# --- contamination check: n-gram overlap against a broadcast eval set ---

def _doc_ngrams(toks: list[str], n: int) -> set[str]:
    if not toks:
        return set()
    if len(toks) < n:
        return {" ".join(toks)}
    return {" ".join(toks[i:i + n]) for i in range(len(toks) - n + 1)}


def contamination_check(docs_ds, every: int = 97, n: int = 8,
                        digits: int = 6):
    """Benchmark-contamination scan: fraction of each training doc's
    distinct token ``n``-grams that appear in the eval set (docs with
    ``doc_id % every == 0``; eval docs themselves are excluded from the
    output).

    Scale shape: the eval set is small by construction (real eval
    benchmarks are MBs against a 100 TB corpus), so its distinct grams
    are collected once — per-batch distinct partials, driver union —
    and broadcast via ``ray.put``; the corpus-side pass is a single
    streamed ``map_batches`` membership test with no shuffle at all.
    At production scale the broadcast would carry 8-byte gram hashes;
    here it carries the raw strings so the DuckDB oracle can join on
    them verbatim.
    """
    import ray

    def eval_grams(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].combine_chunks().to_numpy(zero_copy_only=False)
        keep = pa.array(ids % every == 0)
        grams: set[str] = set()
        for txt in t.filter(keep)["text"].to_pylist():
            grams |= _doc_ngrams(txt.split(), n)
        return pa.Table.from_arrays(
            [pa.array(sorted(grams), pa.string())], names=["gram"])

    ev = docs_ds.select_columns(["doc_id", "text"]) \
        .map_batches(eval_grams, batch_format="pyarrow",
                     zero_copy_batch=True).to_pandas()
    ev_ref = ray.put(frozenset(ev["gram"].tolist()))

    def score(t: pa.Table) -> pa.Table:
        evset = ray.get(ev_ref)
        ids_np = t["doc_id"].combine_chunks().to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(ids_np % every != 0))
        ids, n_grams, n_hit, frac = [], [], [], []
        for did, txt in zip(t["doc_id"].to_pylist(),
                            t["text"].to_pylist()):
            g = _doc_ngrams(txt.split(), n)
            hit = sum(1 for x in g if x in evset)
            ids.append(did)
            n_grams.append(len(g))
            n_hit.append(hit)
            frac.append(_round6(hit / len(g)) if g else 0.0)
        return pa.Table.from_arrays(
            [pa.array(ids, pa.int64()), pa.array(n_grams, pa.int64()),
             pa.array(n_hit, pa.int64()), pa.array(frac, pa.float64())],
            names=["doc_id", "n_grams", "n_hit", "contam_frac"])

    return docs_ds.select_columns(["doc_id", "text"]) \
        .map_batches(score, batch_format="pyarrow", zero_copy_batch=True)


def contamination_sql(every: int = 97, n: int = 8) -> str:
    win = ", ".join(f"t[i+{j}]" for j in range(n))
    return rf"""
WITH toks AS (
  SELECT doc_id,
         CASE WHEN trim(text) = '' THEN []::VARCHAR[]
              ELSE regexp_split_to_array(trim(text), '\s+')
         END AS t
  FROM documents),
grams AS (
  SELECT doc_id,
         CASE WHEN len(t) = 0 THEN []::VARCHAR[]
              WHEN len(t) < {n} THEN [array_to_string(t, ' ')]
              ELSE list_distinct(list_transform(
                range(1, len(t) - {n - 2}),
                i -> concat_ws(' ', {win})))
         END AS g
  FROM toks),
ev AS (SELECT DISTINCT unnest(g) AS gram FROM grams
       WHERE doc_id % {every} = 0),
tgt AS (SELECT doc_id, g FROM grams WHERE doc_id % {every} <> 0),
hits AS (
  SELECT ex.doc_id, count(*) AS n_hit
  FROM (SELECT doc_id, unnest(g) AS gram FROM tgt) ex
  JOIN ev ON ex.gram = ev.gram
  GROUP BY ex.doc_id)
SELECT tgt.doc_id, len(tgt.g) AS n_grams,
       coalesce(hits.n_hit, 0)::BIGINT AS n_hit,
       CASE WHEN len(tgt.g) = 0 THEN 0.0 ELSE
         round(coalesce(hits.n_hit, 0)::DOUBLE / len(tgt.g), 6) END
         AS contam_frac
FROM tgt LEFT JOIN hits ON tgt.doc_id = hits.doc_id
ORDER BY tgt.doc_id
"""


def _explode_words(t: pa.Table, with_lang: bool) -> "object":
    """Batch → polars frame of non-empty single-space-split words
    (str_split(' ') semantics, matching DuckDB's str_split exactly:
    consecutive spaces yield empty tokens, which both sides drop)."""
    import polars as pl

    cols = {"text": pl.from_arrow(t["text"].combine_chunks())}
    if with_lang:
        cols["lang"] = pl.from_arrow(t["lang"].combine_chunks())
    df = pl.DataFrame(cols)
    out = df.with_columns(pl.col("text").str.split(" ").alias("word")) \
        .drop("text").explode("word") \
        .filter(pl.col("word") != "")
    return out


def term_frequencies(docs_ds, top_n: int = 100):
    """Corpus-level top-N word counts — the classic wordcount, shaped
    for scale: each batch pre-aggregates its own (word, cnt) partials
    with a vectorized polars explode+groupby (Rust-side, no Python row
    loop), so the ``groupby(word)`` shuffle carries per-batch-distinct
    words, not one row per token.  The final distributed sort + limit
    keeps only N rows on the driver.  Ties break by word ascending so
    the boundary of the top-N is deterministic."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        import polars as pl

        g = _explode_words(t, with_lang=False) \
            .group_by("word").agg(pl.len().cast(pl.Int64).alias("cnt"))
        return g.to_arrow().cast(
            pa.schema([("word", pa.string()), ("cnt", pa.int64())]))

    return docs_ds.select_columns(["text"]) \
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True) \
        .groupby("word").aggregate(Sum("cnt", alias_name="cnt")) \
        .sort(["cnt", "word"], descending=[True, False]) \
        .limit(top_n)


TERM_FREQUENCIES_SQL = """
SELECT word, count(*) AS cnt
FROM (SELECT unnest(str_split(text, ' ')) AS word FROM documents)
WHERE word <> ''
GROUP BY word
ORDER BY cnt DESC, word
LIMIT 100
"""


def vocab_per_lang(docs_ds):
    """Distinct-word count per language — exact distributed COUNT
    DISTINCT: per-batch polars explode + unique reduces each block to
    its distinct (lang, word) pairs, one ``groupby`` dedups globally,
    and a second tiny ``groupby(lang)`` counts.  The heavy shuffle
    carries deduplicated pairs (bounded by vocab × langs), never
    one row per token."""
    from ray.data.aggregate import Count

    def partial(t: pa.Table) -> pa.Table:
        g = _explode_words(t, with_lang=True).unique(["lang", "word"])
        return g.to_arrow().cast(
            pa.schema([("lang", pa.string()), ("word", pa.string())]))

    return docs_ds.select_columns(["text", "lang"]) \
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True) \
        .groupby(["lang", "word"]).count() \
        .groupby("lang").aggregate(Count(alias_name="vocab_size"))


VOCAB_PER_LANG_SQL = """
SELECT lang, count(DISTINCT word) AS vocab_size
FROM (SELECT lang, unnest(str_split(text, ' ')) AS word FROM documents)
WHERE word <> ''
GROUP BY lang
ORDER BY lang
"""


# --- per-doc TF-IDF top terms ---

def _per_doc_tf(t: pa.Table) -> pa.Table:
    """Batch → (doc_id, word, tf) via a Rust-side polars explode+groupby
    (one row per distinct word per doc; batches hold whole docs, so a
    doc's terms never span batches)."""
    import polars as pl

    df = pl.DataFrame({
        "doc_id": pl.from_arrow(t["doc_id"].combine_chunks()),
        "word": pl.from_arrow(t["text"].combine_chunks()),
    })
    g = df.with_columns(pl.col("word").str.split(" ")) \
        .explode("word").filter(pl.col("word") != "") \
        .group_by(["doc_id", "word"]) \
        .agg(pl.len().cast(pl.Int64).alias("tf"))
    return g.to_arrow().cast(pa.schema(
        [("doc_id", pa.int64()), ("word", pa.string()),
         ("tf", pa.int64())]))


def tfidf_doc_terms(docs_ds, k: int = 3):
    """Top-``k`` TF-IDF terms per document (ties → lexicographically
    smallest word), as a Dataset of (doc_id, word, tf, tfidf, rnk).

    Two streamed passes: (1) per-batch (doc, word, tf) partials feed a
    native ``groupby(word)`` that reduces to the document-frequency
    table — vocabulary-sized, brought to the driver and broadcast via
    ``ray.put`` (natural-language vocabularies are broadcast-scale;
    a beyond-broadcast lexicon would use the bucketed-join path in
    ``ops/join.py`` instead); (2) the same partials rank locally per
    doc against the broadcast idf — no shuffle carries per-token rows.
    ``idf = ln(N / df)`` with both sides computing the identical
    float64 expression, rounded half-away at 6 digits.
    """
    import math

    import ray
    from ray.data.aggregate import Count

    cols = docs_ds.select_columns(["doc_id", "text"])
    n_docs = cols.count()
    df_tbl = cols.map_batches(_per_doc_tf, batch_format="pyarrow",
                              zero_copy_batch=True) \
        .groupby("word").aggregate(Count(alias_name="df")).to_pandas()
    idf = {w: math.log(n_docs / d)
           for w, d in zip(df_tbl["word"], df_tbl["df"])}
    idf_ref = ray.put(idf)

    def rank(t: pa.Table) -> pa.Table:
        import pandas as pd

        lut = ray.get(idf_ref)
        df = _per_doc_tf(t).to_pandas()
        v = (df["tf"] * df["word"].map(lut)).to_numpy()
        df["tfidf"] = np.floor(np.abs(v) * 1e6 + 0.5) / 1e6
        df = df.sort_values(["doc_id", "tfidf", "word"],
                            ascending=[True, False, True],
                            kind="mergesort")
        df["rnk"] = df.groupby("doc_id", sort=False).cumcount() + 1
        out = df[df["rnk"] <= k].reset_index(drop=True)
        out["rnk"] = out["rnk"].astype("int64")
        return pa.Table.from_pandas(out, preserve_index=False)

    return cols.map_batches(rank, batch_format="pyarrow",
                            zero_copy_batch=True)


def tfidf_doc_terms_sql(k: int = 3) -> str:
    return f"""
WITH w AS (SELECT doc_id, unnest(str_split(text, ' ')) AS word
           FROM documents),
tf AS (SELECT doc_id, word, count(*)::BIGINT AS tf
       FROM w WHERE word <> '' GROUP BY doc_id, word),
df AS (SELECT word, count(*)::BIGINT AS df FROM tf GROUP BY word),
s AS (SELECT tf.doc_id, tf.word, tf.tf,
             round(tf.tf * ln((SELECT count(*) FROM documents)::DOUBLE
                              / df.df), 6) AS tfidf
      FROM tf JOIN df USING (word)),
r AS (SELECT *, row_number() OVER (
        PARTITION BY doc_id ORDER BY tfidf DESC, word) AS rnk
      FROM s)
SELECT doc_id, word, tf, tfidf, rnk FROM r WHERE rnk <= {k}
ORDER BY doc_id, rnk
"""


# --- end-to-end corpus cleaning (filter → exact-dedup keep-first) ---

def clean_corpus(docs_ds, min_quality: float = 0.5, min_chars: int = 20):
    """Training-corpus cleaning pipeline: quality/length filter FIRST
    (cheap vectorized predicates shrink the stream before any exchange),
    then collision-safe exact dedup keeping the smallest ``doc_id`` per
    surviving text.  Returns a Dataset of (keep_id, n_copies, quality).

    The dedup shuffle is keyed on (16-byte content hash, text) exactly
    like ``ops/dedup.py:exact_dedup_groups`` — partitioning resolves on
    the hash, the text in the key makes silent collision merges
    impossible, and each batch pre-collapses its duplicates so the
    exchange carries per-batch-distinct rows only.
    """
    from ray.data.aggregate import Min, Sum

    from .dedup import add_text_hash

    def prep(t: pa.Table) -> pa.Table:
        q = quality_scores(t)["quality"]
        keep = pc.and_(pc.greater_equal(q, pa.scalar(min_quality)),
                       pc.greater_equal(t["n_chars"],
                                        pa.scalar(min_chars)))
        t = t.append_column("quality", q).filter(keep)
        t = add_text_hash(t.select(["doc_id", "text", "quality"]))
        # batch-local combiner before the exchange
        g = t.group_by(["text_hash", "text", "quality"],
                       use_threads=False) \
            .aggregate([("doc_id", "min"), ("doc_id", "count")])
        return g.rename_columns(
            ["text_hash", "text", "quality", "keep_id", "cnt"])

    return docs_ds.map_batches(prep, batch_format="pyarrow",
                               zero_copy_batch=True) \
        .groupby(["text_hash", "text", "quality"]) \
        .aggregate(Min("keep_id", alias_name="keep_id"),
                   Sum("cnt", alias_name="n_copies")) \
        .select_columns(["keep_id", "n_copies", "quality"])


# --- context-window chunking (training-example preparation) ---

def chunk_documents(docs_ds, size: int = 32, stride: int = 24):
    """Split each document into overlapping token windows — the standard
    context-window preparation step before tokenized training shards.

    Tokens are the non-empty single-space-split words (DuckDB
    ``str_split`` parity, like ``term_frequencies``).  Window ``k``
    covers tokens ``[k*stride, k*stride+size)``; windows start while
    ``k*stride < n_tokens``, so every token lands in ≥1 chunk and tail
    chunks may be short.  Entirely polars/Rust per batch: the only
    Python loop is over the ≤ ceil(max_tokens/stride) window indices.

    Returns (doc_id, chunk_id, n_tokens, chunk_text) rows.
    """
    schema = pa.schema([("doc_id", pa.int64()), ("chunk_id", pa.int64()),
                        ("n_tokens", pa.int64()),
                        ("chunk_text", pa.string())])

    def chunks(t: pa.Table) -> pa.Table:
        import polars as pl

        df = pl.DataFrame({
            "doc_id": pl.from_arrow(t["doc_id"].combine_chunks()),
            "text": pl.from_arrow(t["text"].combine_chunks()),
        })
        df = df.with_columns(
            pl.col("text").str.split(" ")
              .list.eval(pl.element().filter(pl.element() != ""))
              .alias("t")).drop("text")
        df = df.with_columns(pl.col("t").list.len().cast(pl.Int64)
                             .alias("n"))
        max_n = df["n"].max()
        outs = []
        k = 0
        while max_n is not None and k * stride < max_n:
            s = k * stride
            sub = df.filter(pl.col("n") > s).select(
                "doc_id",
                pl.lit(k).cast(pl.Int64).alias("chunk_id"),
                pl.min_horizontal(pl.lit(size).cast(pl.Int64),
                                  pl.col("n") - s).alias("n_tokens"),
                pl.col("t").list.slice(s, size).list.join(" ")
                  .alias("chunk_text"))
            outs.append(sub)
            k += 1
        if not outs:
            return schema.empty_table()
        return pl.concat(outs).to_arrow().cast(schema)

    return docs_ds.select_columns(["doc_id", "text"]) \
        .map_batches(chunks, batch_format="pyarrow", zero_copy_batch=True)


def chunk_documents_sql(size: int = 32, stride: int = 24) -> str:
    return f"""
        WITH toks AS (
          SELECT doc_id,
                 list_filter(str_split(text, ' '), x -> x <> '') AS t
          FROM documents),
        st AS (
          SELECT doc_id, t,
                 unnest(range(0, len(t), {stride})) AS s
          FROM toks WHERE len(t) > 0)
        SELECT doc_id, s // {stride} AS chunk_id,
               least({size}, len(t) - s) AS n_tokens,
               array_to_string(t[s+1 : least(s+{size}, len(t))], ' ')
                 AS chunk_text
        FROM st ORDER BY doc_id, chunk_id
    """


# --- bigram counts (corpus n-gram statistics) ---

def bigram_counts(docs_ds, top_n: int = 100):
    """Corpus-level top-N adjacent-word-pair counts.  Same partial-
    aggregation shape as ``term_frequencies``: each batch explodes to
    tokens, pairs them with a grouped shift (Rust-side), and
    pre-aggregates its own (w1, w2, cnt) partials, so the global
    ``groupby`` shuffle carries per-batch-distinct pairs, not one row
    per token.  Ties break by (w1, w2) ascending."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        import polars as pl

        df = pl.DataFrame({
            "doc_id": pl.from_arrow(t["doc_id"].combine_chunks()),
            "text": pl.from_arrow(t["text"].combine_chunks()),
        })
        pairs = df.with_columns(
            pl.col("text").str.split(" ")
              .list.eval(pl.element().filter(pl.element() != ""))
              .alias("w1")).drop("text") \
            .explode("w1") \
            .with_columns(pl.col("w1").shift(-1).over("doc_id")
                          .alias("w2")) \
            .drop_nulls("w2") \
            .group_by(["w1", "w2"]) \
            .agg(pl.len().cast(pl.Int64).alias("cnt"))
        return pairs.select(["w1", "w2", "cnt"]).to_arrow().cast(
            pa.schema([("w1", pa.string()), ("w2", pa.string()),
                       ("cnt", pa.int64())]))

    return docs_ds.select_columns(["doc_id", "text"]) \
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby(["w1", "w2"]).aggregate(Sum("cnt", alias_name="cnt")) \
        .sort(["cnt", "w1", "w2"], descending=[True, False, False]) \
        .limit(top_n)


def bigram_counts_sql(top_n: int = 100) -> str:
    return f"""
        WITH toks AS (
          SELECT doc_id,
                 list_filter(str_split(text, ' '), x -> x <> '') AS t
          FROM documents),
        pairs AS (
          SELECT doc_id, t,
                 unnest(range(1, len(t))) AS i
          FROM toks WHERE len(t) >= 2)
        SELECT t[i] AS w1, t[i+1] AS w2, count(*) AS cnt
        FROM pairs
        GROUP BY t[i], t[i+1]
        ORDER BY cnt DESC, w1, w2
        LIMIT {top_n}
    """


# --- source mix / rebalance weights (data mixing) ---

def source_mix_weights(docs_ds):
    """Per-source corpus composition and uniform-target resampling
    weights — the "data mixing" step that decides how to up/down-sample
    each source before training.

    Scale shape: one vectorized pass counts tokens per doc and
    pre-aggregates per-batch (source, n_docs, n_tokens) partials, so
    the ``groupby`` shuffle carries one row per source per batch; the
    per-source table (a handful of rows) is finished on the driver with
    exact integer sums and single-IEEE-op divisions rounded
    half-away-from-zero, matching the DuckDB oracle bit for bit.

    Returns (source, n_docs, n_tokens, token_share, weight) where
    ``weight = total_tokens / (n_sources * n_tokens)`` — multiplying
    each source's sampling rate by its weight yields a uniform token
    mix.
    """
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        trimmed = pc.utf8_trim_whitespace(t["text"])
        n_tok = pc.if_else(
            pc.equal(trimmed, ""), pa.scalar(0, pa.int64()),
            pc.cast(pc.count_substring_regex(trimmed, r"\S+"), pa.int64()))
        g = pa.Table.from_arrays([t["source"], n_tok],
                                 names=["source", "n_tokens"]) \
            .group_by("source", use_threads=False) \
            .aggregate([("n_tokens", "sum"), ("n_tokens", "count")])
        return g.rename_columns(["source", "n_tokens", "n_docs"]) \
            .cast(pa.schema([("source", pa.string()),
                             ("n_tokens", pa.int64()),
                             ("n_docs", pa.int64())]))

    per_src = docs_ds.select_columns(["source", "text"]) \
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby("source") \
        .aggregate(Sum("n_docs", alias_name="n_docs"),
                   Sum("n_tokens", alias_name="n_tokens")) \
        .to_pandas().sort_values("source").reset_index(drop=True)

    total = int(per_src["n_tokens"].sum())
    n_src = len(per_src)
    per_src["token_share"] = [
        _round6(int(v) / total) for v in per_src["n_tokens"]]
    per_src["weight"] = [
        _round6(total / (n_src * int(v))) for v in per_src["n_tokens"]]
    return per_src


def source_mix_weights_sql(table: str = "documents") -> str:
    return rf"""
WITH tok AS (
  SELECT source,
         CASE WHEN trim(text) = '' THEN 0
              ELSE len(regexp_split_to_array(trim(text), '\s+'))
         END AS n_tokens
  FROM {table}),
per_src AS (
  SELECT source, count(*)::BIGINT AS n_docs,
         sum(n_tokens)::BIGINT AS n_tokens
  FROM tok GROUP BY source)
SELECT source, n_docs, n_tokens,
       round(n_tokens::DOUBLE / (sum(n_tokens) OVER ()), 6)
         AS token_share,
       round((sum(n_tokens) OVER ())::DOUBLE
             / ((count(*) OVER ()) * n_tokens), 6) AS weight
FROM per_src ORDER BY source
"""


# --- blocklist filtering (content policy / bad-word gating) ---

_DEFAULT_BLOCKLIST = ("spark", "slow", "window")


def blocklist_filter(docs_ds, blocklist: tuple[str, ...] = _DEFAULT_BLOCKLIST,
                     max_hits: int = 1):
    """Blocklist gating — the content-policy filter every training
    corpus runs: count whole-token blocklist hits per doc and keep docs
    with at most ``max_hits``.

    Fully vectorized: one Arrow RE2 pass per blocklist term (compiled
    once, applied columnar), no per-row Python.  The blocklist is driver
    state baked into the closure — at 100 TB the list (KBs) ships once
    per task, never per batch.  Word boundaries are whitespace/edges,
    matching the single-space tokenization of the rest of the text ops.

    Hits are counted as GlobalReplace matches via the length delta of a
    removal-replace, NOT ``count_substring_regex`` — the Arrow count
    kernel counts adjacent repeats ("slow slow") overlappingly, while
    RE2 GlobalReplace (and DuckDB's regexp functions) consume the
    boundary and see one match; the replace semantics agree exactly
    across engines, so counts derived from them do too.

    Returns (doc_id, lang, source, n_hits) for surviving docs.
    """
    terms = sorted(blocklist)
    pats = [rf"(^|\s){re.escape(w)}(\s|$)" for w in terms]

    def gate(t: pa.Table) -> pa.Table:
        text = t["text"]
        lens = pc.cast(pc.utf8_length(text), pa.int64())
        total = None
        for w, p in zip(terms, pats):
            removed = pc.replace_substring_regex(text, p, r"\1\2")
            rl = pc.cast(pc.utf8_length(removed), pa.int64())
            c = pc.divide(pc.subtract(lens, rl),
                          pa.scalar(len(w), pa.int64()))
            total = c if total is None else pc.add(total, c)
        hits = total if total is not None else \
            pa.array([0] * t.num_rows, pa.int64())
        out = pa.Table.from_arrays(
            [t["doc_id"], t["lang"], t["source"], hits],
            names=["doc_id", "lang", "source", "n_hits"])
        return out.filter(pc.less_equal(hits,
                                        pa.scalar(max_hits, pa.int64())))

    return docs_ds.select_columns(["doc_id", "text", "lang", "source"]) \
        .map_batches(gate, batch_format="pyarrow", zero_copy_batch=True)


def redact_terms(docs_ds, terms: tuple[str, ...] = _DEFAULT_BLOCKLIST,
                 mask: str = "[REDACTED]"):
    """PII-style term redaction — rewrite the corpus with sensitive
    whole tokens masked, keeping a per-doc hit count for lineage.

    The scrub shape every training pipeline needs: one RE2
    ``replace_substring_regex`` per term (vectorized, captured
    boundaries re-emitted via backrefs so adjacent tokens still match),
    term passes applied in sorted order on the evolving text.  Hit
    counts come from the length delta of a removal-replace on the same
    text (GlobalReplace match count — see blocklist_filter on why the
    Arrow count kernel can't be used).  Output
    (doc_id, n_redacted, redacted).
    """
    srt = sorted(terms)
    pats = [rf"(^|\s){re.escape(w)}(\s|$)" for w in srt]
    repl = rf"\1{mask}\2"

    def scrub(t: pa.Table) -> pa.Table:
        text = t["text"]
        total = None
        for w, p in zip(srt, pats):
            removed = pc.replace_substring_regex(text, p, r"\1\2")
            c = pc.divide(
                pc.subtract(pc.cast(pc.utf8_length(text), pa.int64()),
                            pc.cast(pc.utf8_length(removed), pa.int64())),
                pa.scalar(len(w), pa.int64()))
            total = c if total is None else pc.add(total, c)
            text = pc.replace_substring_regex(text, p, repl)
        if total is None:
            total = pa.array([0] * t.num_rows, pa.int64())
        return pa.Table.from_arrays(
            [t["doc_id"], total, text],
            names=["doc_id", "n_redacted", "redacted"])

    return docs_ds.select_columns(["doc_id", "text"]) \
        .map_batches(scrub, batch_format="pyarrow", zero_copy_batch=True)


def redact_terms_sql(terms: tuple[str, ...] = _DEFAULT_BLOCKLIST,
                     mask: str = "[REDACTED]",
                     table: str = "documents") -> str:
    """DuckDB oracle: a CTE chain applying the identical sorted term
    passes — regexp_replace('g') is the same RE2 GlobalReplace as the
    Arrow kernel, and counts use the same removal-replace length
    delta on the same evolving text."""
    ctes = [f"s0 AS (SELECT doc_id, text AS t, 0 AS n FROM {table})"]
    for i, w in enumerate(sorted(terms)):
        p = rf"(^|\s){re.escape(w)}(\s|$)"
        ctes.append(
            f"s{i + 1} AS (SELECT doc_id, "
            f"regexp_replace(t, '{p}', '\\1{mask}\\2', 'g') AS t, "
            f"n + (length(t) - length(regexp_replace(t, '{p}', "
            f"'\\1\\2', 'g'))) // {len(w)} AS n FROM s{i})")
    last = f"s{len(tuple(terms))}"
    return f"""
WITH {', '.join(ctes)}
SELECT doc_id, n::BIGINT AS n_redacted, t AS redacted
FROM {last} ORDER BY doc_id
"""


def blocklist_filter_sql(blocklist: tuple[str, ...] = _DEFAULT_BLOCKLIST,
                         max_hits: int = 1,
                         table: str = "documents") -> str:
    """DuckDB oracle: the same removal-replace length-delta counts —
    RE2 GlobalReplace semantics on both sides, so adjacent repeats
    ("w w w" → boundary consumed → fewer matches) agree exactly."""
    counts = " + ".join(
        "(length(text) - length(regexp_replace(text, '{p}', "
        "'\\1\\2', 'g'))) // {n}".format(
            p=rf"(^|\s){re.escape(w)}(\s|$)", n=len(w))
        for w in sorted(blocklist))
    return f"""
WITH hits AS (
  SELECT doc_id, lang, source, ({counts})::BIGINT AS n_hits
  FROM {table})
SELECT doc_id, lang, source, n_hits
FROM hits WHERE n_hits <= {max_hits}
ORDER BY doc_id
"""


# --- declared-vs-detected language mismatch audit ---

_langid_singleton = None


def langid_mismatch_by_source(docs_ds):
    """Per-source audit of declared ``lang`` vs detected language —
    (source, n_docs, n_mismatch, mismatch_rate), the metadata-quality
    check run before trusting a crawl's self-reported languages.

    Scale shape: the classifier state is one cached instance per worker
    process (task pool); each doc becomes one (source, mismatch) row and
    one ``groups.fold`` counts them per source on the driver — per-batch
    partials of |sources| rows, no exchange.  The rate divides the exact
    integer counts once at the end (same IEEE op sequence as the
    oracle's round(sum/count, 6)).
    """
    from .groups import fold

    def mismatch(t: pa.Table) -> pa.Table:
        global _langid_singleton
        if _langid_singleton is None:
            _langid_singleton = LangId()
        clf = _langid_singleton
        preds = [clf.classify(x) for x in t["text"].to_pylist()]
        return pa.table({"source": t["source"], "mm": pa.array(
            [int(p != d) for p, d in zip(preds, t["lang"].to_pylist())],
            pa.int64())})

    t = fold(docs_ds.select_columns(["text", "lang", "source"])
             .map_batches(mismatch, batch_format="pyarrow",
                          zero_copy_batch=True),
             "source", {"n_docs": ("count", None),
                        "n_mismatch": ("sum", "mm")})
    rate = pa.array(
        [_round6(m / n) for m, n in
         zip(t["n_mismatch"].to_pylist(), t["n_docs"].to_pylist())],
        pa.float64())
    return t.append_column("mismatch_rate", rate)


def langid_mismatch_sql() -> str:
    """DuckDB oracle: the langid prediction query (emitted without its
    ORDER BY via _langid_sql(order_by=False) — no string surgery) joined
    back to the declared lang, rolled up per source."""
    pred = _langid_sql(order_by=False)
    return f"""
WITH pred AS ({pred})
SELECT d.source, count(*) AS n_docs,
       sum((p.pred_lang != d.lang)::BIGINT)::BIGINT AS n_mismatch,
       round(sum((p.pred_lang != d.lang)::BIGINT) / count(*)::DOUBLE, 6)
         AS mismatch_rate
FROM documents d JOIN pred p ON p.doc_id = d.doc_id
GROUP BY d.source ORDER BY d.source
"""


def langid_confusion(docs_ds):
    """Per-class confusion summary of the n-gram language classifier vs
    the declared ``lang`` column — one row per class
    ``(lang, n_true, n_pred, tp, precision_ppm, recall_ppm, f1_ppm)``
    plus an ``__all__`` summary row whose three ppm columns all carry
    overall accuracy.

    Scale shape: each doc becomes one (true, pred) row and one
    ``groups.fold`` counts them on the driver (≤ |classes|² partial
    rows per batch, no exchange); the class-bounded table finishes
    there.  Every ratio is an exact integer ppm (``10⁶·tp // denom``,
    F1 = ``2·p·r // (p + r)`` with p, r ≤ 10⁶ so the product fits
    int64) — floor division on non-negative ints is identical in Python
    and DuckDB, so the twin replays bit-for-bit.
    """
    from .groups import fold

    def predict(t: pa.Table) -> pa.Table:
        global _langid_singleton
        if _langid_singleton is None:
            _langid_singleton = LangId()
        clf = _langid_singleton
        return pa.table({"lang": t["lang"], "pred": pa.array(
            [clf.classify(x) for x in t["text"].to_pylist()],
            pa.string())})

    cm = fold(docs_ds.select_columns(["text", "lang"])
              .map_batches(predict, batch_format="pyarrow",
                           zero_copy_batch=True),
              ["lang", "pred"], {"n": ("count", None)}) \
        .to_pylist()                     # ≤ |classes|² rows

    counts = {(r["lang"], r["pred"]): int(r["n"]) for r in cm}
    classes = sorted({k[0] for k in counts} | {k[1] for k in counts})
    total = sum(counts.values())
    tp_all = sum(v for (t_, p_), v in counts.items() if t_ == p_)

    rows = []
    for c in classes:
        n_true = sum(v for (t_, _), v in counts.items() if t_ == c)
        n_pred = sum(v for (_, p_), v in counts.items() if p_ == c)
        tp = counts.get((c, c), 0)
        p = (_PPM_I * tp) // n_pred if n_pred else 0
        r = (_PPM_I * tp) // n_true if n_true else 0
        f1 = (2 * p * r) // (p + r) if p + r else 0
        rows.append((c, n_true, n_pred, tp, p, r, f1))
    acc = (_PPM_I * tp_all) // total if total else 0
    rows.append(("__all__", total, total, tp_all, acc, acc, acc))
    rows.sort(key=lambda x: x[0])
    cols = list(zip(*rows))
    return pa.table({
        "lang": pa.array(cols[0], pa.string()),
        "n_true": pa.array(cols[1], pa.int64()),
        "n_pred": pa.array(cols[2], pa.int64()),
        "tp": pa.array(cols[3], pa.int64()),
        "precision_ppm": pa.array(cols[4], pa.int64()),
        "recall_ppm": pa.array(cols[5], pa.int64()),
        "f1_ppm": pa.array(cols[6], pa.int64()),
    })


_PPM_I = 1_000_000


def langid_confusion_sql() -> str:
    """DuckDB twin: the langid prediction CTE joined to the declared
    lang, per-class scalar-subquery counts (class-bounded), integer
    ppm ratios, plus the ``__all__`` accuracy row."""
    pred = _langid_sql(order_by=False)
    return f"""
WITH pred AS ({pred}),
j AS (
  SELECT d.lang AS tl, p.pred_lang AS pl
  FROM documents d JOIN pred p ON p.doc_id = d.doc_id),
cls AS (
  SELECT DISTINCT tl AS c FROM j
  UNION SELECT DISTINCT pl FROM j),
per AS (
  SELECT c,
         (SELECT count(*) FROM j WHERE tl = c)::BIGINT AS n_true,
         (SELECT count(*) FROM j WHERE pl = c)::BIGINT AS n_pred,
         (SELECT count(*) FROM j WHERE tl = c AND pl = c)::BIGINT AS tp
  FROM cls),
pr AS (
  SELECT c, n_true, n_pred, tp,
         CASE WHEN n_pred = 0 THEN 0
              ELSE (1000000 * tp) // n_pred END AS p_ppm,
         CASE WHEN n_true = 0 THEN 0
              ELSE (1000000 * tp) // n_true END AS r_ppm
  FROM per),
allr AS (
  SELECT count(*)::BIGINT AS total,
         coalesce(sum((tl = pl)::BIGINT), 0)::BIGINT AS tp_all
  FROM j)
SELECT c AS lang, n_true, n_pred, tp,
       p_ppm AS precision_ppm, r_ppm AS recall_ppm,
       CASE WHEN p_ppm + r_ppm = 0 THEN 0
            ELSE (2 * p_ppm * r_ppm) // (p_ppm + r_ppm) END AS f1_ppm
FROM pr
UNION ALL
SELECT '__all__', total, total, tp_all,
       CASE WHEN total = 0 THEN 0 ELSE (1000000 * tp_all) // total END,
       CASE WHEN total = 0 THEN 0 ELSE (1000000 * tp_all) // total END,
       CASE WHEN total = 0 THEN 0 ELSE (1000000 * tp_all) // total END
FROM allr
ORDER BY lang
"""


# --- rarity scoring: a perplexity proxy on exact integers ---

def doc_rarity_scores(docs_ds):
    """Per-doc mean corpus-frequency of its tokens — the rare-token
    quality signal (a unigram-perplexity proxy with NO transcendentals:
    exact integer token counts, one float division at the end, so the
    result is bit-deterministic and SQL-replayable).

    Scale shape: pass 1 is the wordcount (per-batch polars partials,
    one ``groupby(word)`` shuffle carrying per-batch-distinct words);
    the vocabulary ships once via ``ray.put`` and every pass-2 batch
    does a zero-copy polars join against it (the broadcast-lookup
    pattern — valid while vocab ≪ worker memory; beyond that, swap the
    join for ops/join.py:bucketed_hash_join on word).  Output
    (doc_id, n_tokens, sum_freq, mean_token_freq); docs with no tokens
    produce no row.
    """
    import polars as pl
    import ray
    from ray.data.aggregate import Sum

    def count_partial(t: pa.Table) -> pa.Table:
        g = _explode_words(t, with_lang=False) \
            .group_by("word").agg(pl.len().cast(pl.Int64).alias("cnt"))
        return g.to_arrow().cast(
            pa.schema([("word", pa.string()), ("cnt", pa.int64())]))

    vocab = docs_ds.select_columns(["text"]) \
        .map_batches(count_partial, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby("word").aggregate(Sum("cnt", alias_name="cnt")) \
        .to_pandas()
    vocab_ref = ray.put(pa.table({
        "word": pa.array(vocab["word"], pa.string()),
        "cnt": pa.array(vocab["cnt"], pa.int64())}))

    def score(t: pa.Table) -> pa.Table:
        v = pl.from_arrow(ray.get(vocab_ref))
        df = pl.DataFrame({
            "doc_id": pl.from_arrow(t["doc_id"].combine_chunks()),
            "text": pl.from_arrow(t["text"].combine_chunks()),
        })
        ex = df.with_columns(pl.col("text").str.split(" ").alias("word")) \
            .drop("text").explode("word").filter(pl.col("word") != "")
        g = ex.join(v, on="word", how="left") \
            .group_by("doc_id") \
            .agg(pl.len().cast(pl.Int64).alias("n_tokens"),
                 pl.col("cnt").sum().cast(pl.Int64).alias("sum_freq"))
        out = g.to_arrow().cast(pa.schema([
            ("doc_id", pa.int64()), ("n_tokens", pa.int64()),
            ("sum_freq", pa.int64())]))
        mean = pa.array(
            [_round6(s / n) for s, n in
             zip(out["sum_freq"].to_pylist(), out["n_tokens"].to_pylist())],
            pa.float64())
        return out.append_column("mean_token_freq", mean)

    return docs_ds.select_columns(["doc_id", "text"]) \
        .map_batches(score, batch_format="pyarrow", zero_copy_batch=True)


DOC_RARITY_SQL = """
WITH tk AS (
  SELECT doc_id, unnest(str_split(text, ' ')) AS word FROM documents),
tk2 AS (SELECT * FROM tk WHERE word <> ''),
f AS (SELECT word, count(*) AS cnt FROM tk2 GROUP BY word),
d AS (
  SELECT t.doc_id, count(*) AS n_tokens, sum(f.cnt)::BIGINT AS sum_freq
  FROM tk2 t JOIN f ON f.word = t.word GROUP BY t.doc_id)
SELECT doc_id, n_tokens, sum_freq,
       round(sum_freq::DOUBLE / n_tokens::DOUBLE, 6) AS mean_token_freq
FROM d ORDER BY doc_id
"""


# --- PII scan: email / URL / phone detection per doc -----------------------

# RE2-safe patterns, shared verbatim with the SQL twin; counts are
# non-overlapping leftmost matches on BOTH engines because they derive
# from regex SPLIT list lengths (split consumes each match exactly once,
# unlike count_substring_regex's overlap on adjacent repeats)
PII_EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_URL_RE = r"https?://[^\s]+"
PII_PHONE_RE = r"\+?[0-9][0-9()\-\s]{6,}[0-9]"


def pii_scan(docs_ds):
    """Per-doc PII/link inventory — (doc_id, n_emails, n_urls, n_phones,
    has_pii) — the pre-redaction scan a training corpus runs before
    release.  One vectorized RE2 split per pattern per batch; no per-row
    Python; no shuffle (embarrassingly parallel scan)."""
    def scan(t: pa.Table) -> pa.Table:
        text = t["text"]
        counts = {}
        for name, pat in (("n_emails", PII_EMAIL_RE),
                          ("n_urls", PII_URL_RE),
                          ("n_phones", PII_PHONE_RE)):
            parts = pc.split_pattern_regex(text, pat)
            counts[name] = pc.cast(
                pc.subtract(pc.list_value_length(parts), 1), pa.int64())
        has = pc.greater(
            pc.add(counts["n_emails"],
                   pc.add(counts["n_urls"], counts["n_phones"])), 0)
        return pa.Table.from_arrays(
            [t["doc_id"], counts["n_emails"], counts["n_urls"],
             counts["n_phones"], has],
            names=["doc_id", "n_emails", "n_urls", "n_phones", "has_pii"])

    return docs_ds.select_columns(["doc_id", "text"]) \
        .map_batches(scan, batch_format="pyarrow", zero_copy_batch=True)


def pii_scan_sql(table: str = "documents") -> str:
    return f"""
SELECT doc_id,
       len(regexp_extract_all(text, '{PII_EMAIL_RE}')) AS n_emails,
       len(regexp_extract_all(text, '{PII_URL_RE}')) AS n_urls,
       len(regexp_extract_all(text, '{PII_PHONE_RE}')) AS n_phones,
       (len(regexp_extract_all(text, '{PII_EMAIL_RE}'))
        + len(regexp_extract_all(text, '{PII_URL_RE}'))
        + len(regexp_extract_all(text, '{PII_PHONE_RE}'))) > 0 AS has_pii
FROM {table} ORDER BY doc_id
"""


# --- normalized exact dedup: casefold + punctuation/whitespace collapse ----

def normalized_text_hash(text_col) -> pa.Array:
    """Canonical normalize-and-hash used by normalized_dup_docs,
    curate_corpus, and ops/sample.split_leakage (ONE definition — a
    drift here would silently desynchronize the three audits): casefold,
    strip non-alphanumerics to spaces, collapse whitespace, blake2b-128.
    The SQL twins all use the matching
    ``trim(regexp_replace(lower(text), '[^a-z0-9]+', ' ', 'g'))``."""
    import hashlib

    s = pc.utf8_lower(text_col)
    s = pc.replace_substring_regex(s, r"[^a-z0-9]+", " ")
    s = pc.utf8_trim_whitespace(s)
    return pa.array([hashlib.blake2b(x.encode(), digest_size=16).digest()
                     for x in s.to_pylist()], pa.binary(16))


def _hash_halves(h: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """``normalized_text_hash`` output → its (hi, lo) big-endian int64
    halves, decoded zero-copy from the binary(16) buffer."""
    raw = np.frombuffer(h.buffers()[1], np.uint8)[
        h.offset * 16:(h.offset + len(h)) * 16]
    pair = np.ascontiguousarray(raw.reshape(-1, 16)).view(">i8")
    return pair[:, 0].astype(np.int64), pair[:, 1].astype(np.int64)


def normalized_dup_docs(docs_ds):
    """Exact dedup AFTER text normalization (casefold, strip
    non-alphanumerics to spaces, collapse whitespace) — catches the
    trivial near-dups ("Hello, World!" vs "hello world") that raw exact
    dedup misses and MinHash wastes banding on.  Same 128-bit-hash
    group shape as exact_dedup_groups: the shuffle key is the blake2b
    of the NORMALIZED text, groups verify the normalized text exactly.
    Returns (keep_id, n_copies) per normalized-distinct text."""
    from ray.data.aggregate import Count, Min

    def norm(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [t["doc_id"], normalized_text_hash(t["text"])],
            names=["doc_id", "h"])

    return docs_ds.select_columns(["doc_id", "text"]) \
        .map_batches(norm, batch_format="pyarrow", zero_copy_batch=True) \
        .groupby("h") \
        .aggregate(Min("doc_id", alias_name="keep_id"),
                   Count(alias_name="n_copies")) \
        .drop_columns(["h"])


def normalized_dup_docs_sql(table: str = "documents") -> str:
    # the oracle groups by the normalized TEXT itself — equality of the
    # 128-bit blake2b group key and equality of the normalized string
    # coincide (collision probability ~2^-128)
    return rf"""
WITH n AS (
  SELECT doc_id,
         trim(regexp_replace(lower(text), '[^a-z0-9]+', ' ', 'g')) AS nt
  FROM {table})
SELECT min(doc_id) AS keep_id, count(*) AS n_copies
FROM n GROUP BY nt ORDER BY keep_id
"""


# --- per-source top-k vocabulary profile -----------------------------------

def top_terms_per_source(docs_ds, k: int = 10):
    """Per-source top-``k`` words by count — (source, rnk, word, cnt),
    ranked (cnt DESC, word ASC).  The grouped-top-k shape over text:
    the explode shuffle carries pre-combined (source, word) partial
    counts, and ``stats.grouped_topk`` ranks them (each block keeps its
    first k per source; one ``segment_map(source)`` merge), so the
    ranking groups are vocabulary-bounded, never corpus-bounded."""
    import polars as pl
    from ray.data.aggregate import Sum

    from .stats import grouped_topk

    def partial(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t.select(["source", "text"]))
        ex = df.with_columns(pl.col("text").str.split(" ").alias("word")) \
            .drop("text").explode("word").filter(pl.col("word") != "")
        g = ex.group_by(["source", "word"]).agg(
            pl.len().cast(pl.Int64).alias("cnt"))
        return g.to_arrow().cast(pa.schema([
            ("source", pa.string()), ("word", pa.string()),
            ("cnt", pa.int64())]))

    counts = docs_ds.select_columns(["source", "text"]) \
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby(["source", "word"]) \
        .aggregate(Sum("cnt", alias_name="cnt"))
    return grouped_topk(counts, "source", "cnt", k, "word") \
        .select_columns(["source", "rnk", "word", "cnt"])


def top_terms_per_source_sql(k: int = 10,
                             table: str = "documents") -> str:
    return f"""
WITH tk AS (
  SELECT source, unnest(str_split(text, ' ')) AS word FROM {table}),
tk2 AS (SELECT * FROM tk WHERE word <> ''),
c AS (SELECT source, word, count(*) AS cnt FROM tk2
      GROUP BY source, word),
r AS (
  SELECT source, word, cnt, row_number() OVER (
    PARTITION BY source ORDER BY cnt DESC, word ASC) AS rnk
  FROM c)
SELECT source, rnk, word, cnt FROM r WHERE rnk <= {k}
ORDER BY source, rnk
"""


# --- flagship curation composition -----------------------------------------

def curate_corpus(docs_ds, min_quality: float = 0.5, min_chars: int = 20,
                  budget: int = 2000, staging_dir: str | None = None):
    """End-to-end corpus curation — the pipeline a training-data user
    actually runs, composed from the proven pieces: PII gate (zero
    emails/URLs/phones) → quality/length gate → normalized exact dedup
    keep-first → token-budget shard assignment over the survivors.
    Returns (doc_id, n_tokens, shard_id) for the curated corpus.

    Scale shape: both gates are ONE vectorized pass; normalized-dedup
    keep-first runs as a SINGLE segment exchange on the 16-byte
    normalized hash (``groups.segment_map``) and each coarse block
    does a vectorized lexsort keep-first locally (equal texts share a
    hash segment, so segment-local keep-first IS global keep-first).
    This
    replaced the r4 shape (16-byte-hash groupby + text semi-join): at
    38.4M docs the ``groupby(h)`` sort-aggregate over ~32M
    NEAR-UNIQUE groups cost 253 s and the join another 49 s — one
    coarse-bucketed text exchange does the same work in a fraction
    (measured r5, BASELINE.md).  The shard assignment is the
    text-free two-phase prefix scan.  When ``staging_dir`` is given
    the gated stream stages to parquet instead of materializing (the
    ``build_kg_fused`` staging pattern for beyond-object-store scale).
    """
    from .shard import token_budget_shards

    def gate(t: pa.Table) -> pa.Table:
        total = None
        for pat in (PII_EMAIL_RE, PII_URL_RE, PII_PHONE_RE):
            parts = pc.split_pattern_regex(t["text"], pat)
            c = pc.subtract(pc.list_value_length(parts), 1)
            total = c if total is None else pc.add(total, c)
        q = quality_scores(t)["quality"]
        keep = pc.and_(
            pc.equal(total, 0),
            pc.and_(pc.greater_equal(q, pa.scalar(min_quality)),
                    pc.greater_equal(t["n_chars"], pa.scalar(min_chars))))
        return t.select(["doc_id", "text"]).filter(keep)

    gated_pipe = docs_ds.select_columns(["doc_id", "text", "n_chars"]) \
        .map_batches(gate, batch_format="pyarrow", zero_copy_batch=True)
    if staging_dir is None:
        gated = gated_pipe.materialize()
    else:
        import ray.data as rd

        gated_pipe.write_parquet(staging_dir)
        gated = rd.read_parquet(staging_dir,
                                columns=["doc_id", "text"])

    from .groups import segment_map

    def add_hash(t: pa.Table) -> pa.Table:
        hi, lo = _hash_halves(normalized_text_hash(t["text"]))
        return pa.table({"doc_id": t["doc_id"], "text": t["text"],
                         "hi": hi, "lo": lo})

    def keep_first(g: pa.Table, starts: np.ndarray) -> pa.Table:
        # within each (hi, lo) segment: doc_id ASC, the first row wins
        order = np.lexsort((g["doc_id"].to_numpy(), g["lo"].to_numpy(),
                            g["hi"].to_numpy()))
        return g.take(order[starts]).select(["doc_id", "text"])

    surv = segment_map(gated.map_batches(add_hash, batch_format="pyarrow",
                                         zero_copy_batch=True),
                       ["hi", "lo"], keep_first)
    return token_budget_shards(surv, budget=budget)


def curate_corpus_sql(min_quality: float = 0.5, min_chars: int = 20,
                      budget: int = 2000, table: str = "documents") -> str:
    sw = "[" + ",".join(f"'{w}'" for w in sorted(STOPWORDS)) + "]"
    return rf"""
WITH toks AS (
  SELECT doc_id, text, n_chars,
         CASE WHEN trim(text) = '' THEN []::VARCHAR[]
              ELSE regexp_split_to_array(trim(text), '\s+') END AS t
  FROM {table}),
gated AS (
  SELECT doc_id, text FROM toks
  WHERE len(regexp_extract_all(text, '{PII_EMAIL_RE}'))
        + len(regexp_extract_all(text, '{PII_URL_RE}'))
        + len(regexp_extract_all(text, '{PII_PHONE_RE}')) = 0
    AND n_chars >= {min_chars}
    AND (CASE WHEN len(t) = 0 THEN 0.0 ELSE
           round(least(1.0, len(t) / 50.0)
             * (0.5 + 0.5 * (len(list_filter(t, x ->
                  regexp_matches(x, '^[A-Za-z]+$')))::DOUBLE / len(t)))
             * (1.0 - 0.5 * (len(list_filter(t, x ->
                  list_contains({sw}, lower(x))))::DOUBLE / len(t))), 6)
         END) >= {min_quality}),
norm AS (
  SELECT min(doc_id) AS keep_id
  FROM (SELECT doc_id,
               trim(regexp_replace(lower(text), '[^a-z0-9]+', ' ', 'g'))
                 AS nt
        FROM gated)
  GROUP BY nt),
surv AS (
  SELECT g.doc_id, g.text FROM gated g
  JOIN norm k ON k.keep_id = g.doc_id),
tok AS (
  SELECT doc_id,
         CASE WHEN trim(text) = '' THEN 0
              ELSE len(regexp_split_to_array(trim(text), '\s+'))
         END AS n_tokens
  FROM surv)
SELECT doc_id, n_tokens,
       ((sum(n_tokens) OVER (ORDER BY doc_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
         - n_tokens) // {budget})::BIGINT AS shard_id
FROM tok ORDER BY doc_id
"""


def capped_duplicate_sample(docs_ds, k: int = 2):
    """Duplication-aware retention: keep at most ``k`` copies of each
    normalized-distinct text (smallest doc_ids win) — (doc_id,
    copy_rank).  The middle ground between keep-all and keep-first
    dedup: repeated documents stay represented (bounded) so frequency
    still carries signal, but no dup cluster can dominate a shard.

    One segment exchange on the 16-byte normalized hash
    (``groups.segment_map``; hash-group count ≈ distinct texts,
    corpus-growing — the r5 coarse-group lesson); each coarse block
    ranks ALL its hash groups in one vectorized lexsort pass."""
    from .groups import segment_map

    def norm(t: pa.Table) -> pa.Table:
        hi, lo = _hash_halves(normalized_text_hash(t["text"]))
        return pa.table({"doc_id": t["doc_id"], "hi": hi, "lo": lo})

    def cap(g: pa.Table, starts: np.ndarray) -> pa.Table:
        dv = g["doc_id"].to_numpy()
        order = np.lexsort((dv, g["lo"].to_numpy(), g["hi"].to_numpy()))
        # rank within hash group = position since its segment start
        sizes = np.diff(np.append(starts, g.num_rows))
        rank = np.arange(g.num_rows) - np.repeat(starts, sizes) + 1
        keep = rank <= k
        return pa.table({
            "doc_id": pa.array(dv[order[keep]], pa.int64()),
            "copy_rank": pa.array(rank[keep], pa.int64()),
        })

    return segment_map(docs_ds.select_columns(["doc_id", "text"])
                       .map_batches(norm, batch_format="pyarrow",
                                    zero_copy_batch=True),
                       ["hi", "lo"], cap)


def capped_duplicate_sample_sql(k: int = 2,
                                table: str = "documents") -> str:
    norm = "trim(regexp_replace(lower(text), '[^a-z0-9]+', ' ', 'g'))"
    return f"""
WITH r AS (
  SELECT doc_id, row_number() OVER (
    PARTITION BY {norm} ORDER BY doc_id) AS copy_rank
  FROM {table})
SELECT doc_id, copy_rank FROM r WHERE copy_rank <= {k}
ORDER BY doc_id
"""


# --- T5-style span corruption (LLM pre-training example synthesis) ---------

def span_corrupt(docs_ds, start_pct: int = 13, window: int = 3):
    """Deterministic T5-style span corruption: ~``start_pct``% of token
    positions open a masked span of 2-4 tokens (length hash-derived,
    overlaps merged), each maximal run is replaced by a ``<extra_id_k>``
    sentinel, and the target sequence pairs each sentinel with the
    tokens it hides — (doc_id, n_tokens, n_masked, masked_text,
    target_text).

    NO RNG: span starts and lengths are md5-60 functions of
    (doc_id, position), so every worker, retry, and the DuckDB twin
    produce byte-identical examples (the repo determinism rule, same
    rationale as hash-sampling in ops/sample.py).  Pure per-batch map —
    zero exchanges; the only non-vectorized part is the per-doc run
    assembly (string building, inherently per-row like every text
    kernel here).
    """
    from .dedup import _md5_60

    empty = pa.table({
        "doc_id": pa.array([], pa.int64()),
        "n_tokens": pa.array([], pa.int64()),
        "n_masked": pa.array([], pa.int64()),
        "masked_text": pa.array([], pa.string()),
        "target_text": pa.array([], pa.string())})

    def corrupt(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        out_id, out_nt, out_nm, out_mt, out_tt = [], [], [], [], []
        for doc_id, text in zip(t["doc_id"].to_pylist(),
                                t["text"].to_pylist()):
            toks = text.split(" ")
            n = len(toks)
            h = np.array([_md5_60(f"{doc_id}:{i}".encode())
                          for i in range(1, n + 1)], dtype=np.int64)
            is_start = (h % 100) < start_pct
            sl = 2 + ((h >> 20) % 3)              # span length 2..4
            masked = np.zeros(n, bool)
            for s in range(window + 1):           # j = i - s covers i
                cond = is_start & (sl > s)
                if s == 0:
                    masked |= cond
                else:
                    masked[s:] |= cond[:-s]
            mt, tt = [], []
            k = 0
            prev = False
            for i in range(n):
                if masked[i]:
                    if not prev:
                        k += 1
                        mt.append(f"<extra_id_{k}>")
                        tt.append(f"<extra_id_{k}>")
                    tt.append(toks[i])
                else:
                    mt.append(toks[i])
                prev = bool(masked[i])
            out_id.append(doc_id)
            out_nt.append(n)
            out_nm.append(int(masked.sum()))
            out_mt.append(" ".join(mt))
            out_tt.append(" ".join(tt))
        return pa.table({
            "doc_id": pa.array(out_id, pa.int64()),
            "n_tokens": pa.array(out_nt, pa.int64()),
            "n_masked": pa.array(out_nm, pa.int64()),
            "masked_text": pa.array(out_mt, pa.string()),
            "target_text": pa.array(out_tt, pa.string())})

    return docs_ds.select_columns(["doc_id", "text"]) \
        .map_batches(corrupt, batch_format="pyarrow",
                     zero_copy_batch=True)


def span_corrupt_sql(start_pct: int = 13, window: int = 3) -> str:
    """SQL twin: identical md5-60 start/length draws, overlap merge via
    a bounded self-join (span length ≤ window+1), run islands via
    lag()+running sum, and string_agg assembly."""
    return f"""
WITH toks AS (
  SELECT doc_id, generate_subscripts(str_split(text, ' '), 1) AS i,
         unnest(str_split(text, ' ')) AS tok
  FROM documents),
fl AS (
  SELECT doc_id, i, tok,
         (h % 100 < {start_pct}) AS is_start,
         2 + ((h >> 20) % 3) AS sl
  FROM (SELECT doc_id, i, tok,
               ('0x' || substr(md5(doc_id::VARCHAR || ':'
                                   || i::VARCHAR), 1, 15))::BIGINT AS h
        FROM toks)),
mk AS (
  SELECT f.doc_id, f.i, f.tok,
         bool_or(g.is_start AND g.i + g.sl > f.i) AS masked
  FROM fl f JOIN fl g ON g.doc_id = f.doc_id
                     AND g.i BETWEEN f.i - {window} AND f.i
  GROUP BY f.doc_id, f.i, f.tok),
rid AS (
  SELECT *, sum(run_start) OVER (PARTITION BY doc_id ORDER BY i) AS k
  FROM (SELECT *,
               CASE WHEN masked AND NOT lag(masked, 1, false)
                    OVER (PARTITION BY doc_id ORDER BY i)
                    THEN 1 ELSE 0 END AS run_start
        FROM mk)),
m AS (
  SELECT doc_id, count(*) AS n_tokens,
         count(*) FILTER (WHERE masked) AS n_masked,
         string_agg(CASE WHEN NOT masked THEN tok
                         WHEN run_start = 1
                           THEN '<extra_id_' || k || '>' END,
                    ' ' ORDER BY i) AS masked_text,
         string_agg(CASE WHEN masked THEN
                      (CASE WHEN run_start = 1
                            THEN '<extra_id_' || k || '> '
                            ELSE '' END) || tok END,
                    ' ' ORDER BY i) AS target_text
  FROM rid GROUP BY doc_id)
SELECT doc_id, n_tokens, n_masked,
       coalesce(masked_text, '') AS masked_text,
       coalesce(target_text, '') AS target_text
FROM m ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# PMI collocations
# ---------------------------------------------------------------------------

def pmi_collocations(docs_ds, top_k: int = 50, min_count: int = 5):
    """Top-k word-bigram collocations by pointwise mutual information,
    scored in EXACT integer arithmetic: ``pmi_ppm = floor(c_ab · N_u² ·
    10⁶ / (N_b · c_a · c_b))`` — a monotone transform of
    ``exp(PMI)`` (``P(a,b)/(P(a)P(b))`` in parts-per-million), so the
    ranking equals the float PMI ranking while every value replays
    bit-exactly in SQL HUGEINT (no ``log``/float divergence).

    Scale shape: ONE corpus pass emits per-batch polars combiner
    partials for unigrams and bigrams into a shared (term, c_uni,
    c_bi) key space (a bigram term contains a space, so the key spaces
    never collide — the vocab_drift trick); one ``groupby(term)``
    merges them.  The merged table is VOCABULARY-bounded, so the final
    PMI decoration runs driver-side over ≤|V|+|V²| rows (the
    bpe_merges vocab-bounded-materialize precedent); corpus text
    crosses exactly one exchange as distinct terms.
    """
    import pandas as pd
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        import polars as pl

        g = pl.from_arrow(t.select(["text"])) \
            .with_row_index("rid") \
            .with_columns(pl.col("text").str.split(" ").alias("w")) \
            .explode("w")
        uni = g.group_by("w").agg(pl.len().cast(pl.Int64).alias("c")) \
            .select(pl.col("w").alias("term"), pl.col("c").alias("c_uni"),
                    pl.lit(0, dtype=pl.Int64).alias("c_bi"))
        bi = g.with_columns(pl.col("w").shift(-1).over("rid").alias("w2")) \
            .drop_nulls("w2") \
            .select((pl.col("w") + " " + pl.col("w2")).alias("term")) \
            .group_by("term").agg(pl.len().cast(pl.Int64).alias("c_bi")) \
            .select("term", pl.lit(0, dtype=pl.Int64).alias("c_uni"),
                    "c_bi")
        return pl.concat([uni, bi]).to_arrow()

    counts = docs_ds.select_columns(["text"]) \
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby("term").aggregate(
            Sum("c_uni", alias_name="c_uni"),
            Sum("c_bi", alias_name="c_bi")) \
        .to_pandas()   # vocab-bounded, independent of corpus size

    uni = counts[counts["c_bi"] == 0].set_index("term")["c_uni"]
    bi = counts[counts["c_bi"] > 0]
    n_u = int(uni.sum())
    n_b = int(bi["c_bi"].sum())
    rows = []
    for term, c_ab in zip(bi["term"], bi["c_bi"]):
        c_ab = int(c_ab)
        if c_ab < min_count:
            continue
        a, b = term.split(" ")
        # Python big ints: c_ab·N_u²·1e6 overflows int64 long before
        # 100 TB — the table is vocab-bounded so this loop is O(|V²|)
        ppm = (c_ab * n_u * n_u * 10**6) // (n_b * int(uni[a])
                                             * int(uni[b]))
        rows.append((term, c_ab, ppm))
    rows.sort(key=lambda r: (-r[2], r[0]))
    return pd.DataFrame(rows[:top_k],
                        columns=["term", "c_ab", "pmi_ppm"])


def pmi_collocations_sql(top_k: int = 50, min_count: int = 5,
                         table: str = "documents") -> str:
    """Oracle twin: identical integer PMI-ppm in HUGEINT."""
    return f"""
WITH pm_tok AS (
  SELECT t[pos] AS w, t[pos + 1] AS w2
  FROM (SELECT str_split(text, ' ') AS t,
               unnest(range(1, len(str_split(text, ' ')) + 1)) AS pos
        FROM {table})),
pm_uni AS (SELECT w, count(*)::HUGEINT AS c FROM pm_tok GROUP BY w),
pm_nu AS (SELECT sum(c) AS n FROM pm_uni),
pm_bi AS (
  SELECT w || ' ' || w2 AS term, w, w2, count(*)::HUGEINT AS c_ab
  FROM pm_tok WHERE w2 IS NOT NULL GROUP BY w, w2),
pm_nb AS (SELECT sum(c_ab) AS n FROM pm_bi)
SELECT b.term, b.c_ab::BIGINT AS c_ab,
       ((b.c_ab * nu.n * nu.n * 1000000)
        // (nb.n * ua.c * ub.c))::BIGINT AS pmi_ppm
FROM pm_bi b
JOIN pm_uni ua ON ua.w = b.w
JOIN pm_uni ub ON ub.w = b.w2
CROSS JOIN pm_nu nu CROSS JOIN pm_nb nb
WHERE b.c_ab >= {min_count}
ORDER BY pmi_ppm DESC, term LIMIT {top_k}
"""


# ---------------------------------------------------------------------------
# positional inverted index + phrase search
# ---------------------------------------------------------------------------

def phrase_search(docs_ds, phrase: str):
    """Exact phrase search served from a PRUNED positional inverted
    index: per-doc ``(doc_id, n_matches, first_pos)`` for every doc
    containing the word sequence ``phrase`` (1-based token position).

    Scale shape: tokenization emits postings ONLY for the phrase's
    terms (column-prune at the read, term-prune at the index — the
    posting exchange is |phrase-term occurrences|, not |corpus|); each
    posting for ``terms[i]`` votes for candidate start ``pos − i``, one
    ``groupby(doc, start)`` counts votes, a start with
    ``len(terms)`` votes is a match (each slot contributes at most one
    vote, so vote-count equality IS sequence equality — duplicate
    phrase terms included), and a second small groupby rolls up per
    doc.  The same postings shape materialized term-bucketed to parquet
    is the serving index; here it is built and consumed in one
    streaming pass.
    """
    from ray.data.aggregate import Count, Max, Min

    terms = phrase.split(" ")
    k = len(terms)
    slot_by_term: dict[str, list[int]] = {}
    for i, w in enumerate(terms):
        slot_by_term.setdefault(w, []).append(i)

    post_schema = pa.schema([("doc_id", pa.int64()),
                             ("start", pa.int64())])

    def postings(t: pa.Table) -> pa.Table:
        out_d, out_s = [], []
        for d, txt in zip(t["doc_id"].to_pylist(),
                          t["text"].to_pylist()):
            toks = np.array(txt.split(" "))
            for w, slots in slot_by_term.items():
                hits = np.nonzero(toks == w)[0]
                for i in slots:
                    # 1-based candidate starts (SQL list indexing twin)
                    out_d.append(np.full(len(hits), d, np.int64))
                    out_s.append(hits - i + 1)
        if not out_d:
            return post_schema.empty_table()
        return pa.table({"doc_id": np.concatenate(out_d),
                         "start": np.concatenate(out_s)},
                        schema=post_schema)

    votes = docs_ds.select_columns(["doc_id", "text"]) \
        .map_batches(postings, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby(["doc_id", "start"]) \
        .aggregate(Count(alias_name="n_votes"))

    def matches(t: pa.Table) -> pa.Table:
        keep = pc.and_(pc.equal(t["n_votes"], k),
                       pc.greater_equal(t["start"], 1))
        return t.filter(keep).select(["doc_id", "start"])

    return votes.map_batches(matches, batch_format="pyarrow") \
        .groupby("doc_id") \
        .aggregate(Count(alias_name="n_matches"),
                   Min("start", alias_name="first_pos"))


def phrase_search_sql(phrase: str, table: str = "documents") -> str:
    """Oracle twin: direct positional alignment over split tokens."""
    terms = phrase.split(" ")
    conds = " AND ".join(
        f"t[pos + {i}] = '{w}'" if i else f"t[pos] = '{w}'"
        for i, w in enumerate(terms))
    return f"""
WITH ph_pos AS (
  SELECT doc_id, t, unnest(range(1, len(t) + 1)) AS pos
  FROM (SELECT doc_id, str_split(text, ' ') AS t FROM {table})),
ph_hit AS (
  SELECT doc_id, pos AS start FROM ph_pos WHERE {conds})
SELECT doc_id, count(*)::BIGINT AS n_matches,
       min(start)::BIGINT AS first_pos
FROM ph_hit GROUP BY doc_id ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# lexical top-k retrieval (integer BM25-family scoring)
# ---------------------------------------------------------------------------

def lexical_topk(docs_ds, query: str, k: int = 10, scale: int = 10 ** 6):
    """Lexical retrieval: the top-k ``(doc_id, score)`` for ``query``,
    ranked (score DESC, doc_id ASC) — ``multi_query_lexical`` with one
    query (its docstring has the integer-exact scoring), as a
    pa.Table."""
    return multi_query_lexical(docs_ds, [query], k, scale) \
        .select(["doc_id", "score"])


_MAXSIM_QUERIES = ("table scan fast", "join merge hash",
                   "stream window agg")
_MAXSIM_DIM = 8
_MAXSIM_MOD = 17


def _maxsim_vec(token: str) -> np.ndarray:
    """Deterministic int8-range token embedding, SQL-replicable per
    component: ``md5-60(token || '#' || k) % 17 − 8`` ∈ [−8, 8]."""
    from .dedup import _md5_60

    return np.array([_md5_60(f"{token}#{k}".encode()) % _MAXSIM_MOD - 8
                     for k in range(_MAXSIM_DIM)], np.int64)


def maxsim_topk(docs_ds, queries: tuple = _MAXSIM_QUERIES, k: int = 10):
    """Late-interaction (ColBERT-style) retrieval: ``score(q, d) =
    Σ_{t∈q} max_{u∈d} ⟨E(t), E(u)⟩`` over per-token embeddings — the
    multi-vector scoring family between single-vector ANN and
    cross-encoders.  Embeddings are deterministic integer vectors
    (hash-derived, the synthetic stand-in for a real token encoder), so
    every max/sum is exact int64 and the ranking replays bit-identically
    in SQL.  Output: ``(query_id, doc_id, score)`` — top-``k`` per
    query, ties by doc_id ASC.

    Scale shape: the query token matrix broadcasts (|q-tokens| × dim
    ints, KB at any corpus); each batch computes doc-distinct token
    embeddings through a per-process memo (O(1) hash per distinct
    token — NOT vocabulary-bounded state, just a speed cache), one
    integer matmul per doc, and keeps its first k per query by
    (score DESC, doc_id) (``groups.take_first_k``);
    ``groups.collect`` brings ≤ k·n_blocks
    rows per query to the driver, and the same prune makes the global
    cut — no exchange, no global sort, no full score table.  Returns a
    pa.Table in (query_id, rank) order.
    """
    from .groups import collect, take_first_k

    qvecs = []   # (query_id, |qtok| × dim int matrix)
    for qi, q in enumerate(queries):
        toks = sorted(set(q.split(" ")))
        qvecs.append(np.stack([_maxsim_vec(t) for t in toks]))

    out_schema = pa.schema([("query_id", pa.int64()),
                            ("doc_id", pa.int64()),
                            ("score", pa.int64())])
    memo: dict[str, np.ndarray] = {}

    def first(t: pa.Table) -> pa.Table:
        return take_first_k(t, ["query_id"], "score", "doc_id", k)

    def score_local(t: pa.Table) -> pa.Table:
        rows_q, rows_d, rows_s = [], [], []
        ids = t["doc_id"].combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        for d, txt in zip(ids, t["text"].to_pylist()):
            toks = sorted(set(txt.split(" ")))
            mats = []
            for w in toks:
                v = memo.get(w)
                if v is None:
                    v = _maxsim_vec(w)
                    if len(memo) < 1_000_000:
                        memo[w] = v
                mats.append(v)
            dmat = np.stack(mats)                      # n_tok × dim
            for qi, qm in enumerate(qvecs):
                sims = qm @ dmat.T                     # q_tok × n_tok
                rows_q.append(qi)
                rows_d.append(int(d))
                rows_s.append(int(sims.max(axis=1).sum()))
        return first(pa.table({"query_id": pa.array(rows_q, pa.int64()),
                               "doc_id": pa.array(rows_d, pa.int64()),
                               "score": pa.array(rows_s, pa.int64())},
                              schema=out_schema))

    cands = collect(docs_ds.select_columns(["doc_id", "text"])
                    .map_batches(score_local, batch_format="pyarrow",
                                 zero_copy_batch=True))
    return first(out_schema.empty_table() if cands is None else cands)


def maxsim_topk_sql(queries: tuple = _MAXSIM_QUERIES, k: int = 10,
                    table: str = "documents") -> str:
    """Oracle twin: identical hash embeddings, integer dot/max/sum."""
    qrows = ", ".join(
        f"({qi}, '{t}')"
        for qi, q in enumerate(queries)
        for t in sorted(set(q.split(" "))))
    return f"""
WITH mx_q(query_id, qt) AS (VALUES {qrows}),
mx_dims AS (SELECT unnest(range(0, {_MAXSIM_DIM}))::BIGINT AS kd),
mx_dtok AS (
  SELECT DISTINCT doc_id, w
  FROM (SELECT doc_id, unnest(str_split(text, ' ')) AS w FROM {table})),
mx_qe AS (
  SELECT query_id, qt, kd,
         ('0x' || substr(md5(qt || '#' || kd), 1, 15))::BIGINT
           % {_MAXSIM_MOD} - 8 AS v
  FROM mx_q CROSS JOIN mx_dims),
mx_de AS (
  SELECT doc_id, w, kd,
         ('0x' || substr(md5(w || '#' || kd), 1, 15))::BIGINT
           % {_MAXSIM_MOD} - 8 AS v
  FROM mx_dtok CROSS JOIN mx_dims),
mx_dot AS (
  SELECT q.query_id, q.qt, d.doc_id, d.w,
         sum(q.v * d.v)::BIGINT AS s
  FROM mx_qe q JOIN mx_de d USING (kd)
  GROUP BY q.query_id, q.qt, d.doc_id, d.w),
mx_max AS (
  SELECT query_id, qt, doc_id, max(s) AS m
  FROM mx_dot GROUP BY query_id, qt, doc_id),
mx_score AS (
  SELECT query_id, doc_id, sum(m)::BIGINT AS score
  FROM mx_max GROUP BY query_id, doc_id),
mx_rank AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY score DESC, doc_id) AS rn
  FROM mx_score)
SELECT query_id::BIGINT AS query_id, doc_id, score
FROM mx_rank WHERE rn <= {k}
ORDER BY query_id, score DESC, doc_id
"""


def lexical_topk_sql(query: str, k: int = 10, scale: int = 10 ** 6,
                     table: str = "documents") -> str:
    """Oracle twin: identical integer RSJ-ratio scoring."""
    terms = sorted(set(query.split(" ")))
    in_list = ", ".join(f"'{t}'" for t in terms)
    return f"""
WITH lx_tf AS (
  SELECT doc_id, w, count(*)::BIGINT AS tf
  FROM (SELECT doc_id, unnest(str_split(text, ' ')) AS w FROM {table})
  WHERE w IN ({in_list}) GROUP BY doc_id, w),
lx_df AS (SELECT w, count(*)::BIGINT AS df FROM lx_tf GROUP BY w),
lx_n AS (SELECT count(*)::BIGINT AS n FROM {table}),
lx_w AS (SELECT w, ((n - df) * {scale}) // (df + 1) AS wt
         FROM lx_df CROSS JOIN lx_n)
SELECT doc_id, sum(tf * wt)::BIGINT AS score
FROM lx_tf JOIN lx_w USING (w)
GROUP BY doc_id ORDER BY score DESC, doc_id LIMIT {k}
"""


# ---------------------------------------------------------------------------
# vocabulary coverage curve
# ---------------------------------------------------------------------------

def vocab_coverage(docs_ds, pcts: tuple = (50, 90, 99)):
    """Vocabulary coverage curve — for each target percent, the
    smallest k such that the k most frequent terms (ties → term ASC)
    cover ≥ pct% of all token occurrences: ``(pct, k_terms,
    covered_tokens, total_tokens)``.  The tokenizer-budget question
    ("how big a vocab covers 99% of the stream?") answered exactly.

    Scale shape: one corpus pass of per-batch polars term counts into
    a ``groupby(term)`` merge; the merged table is VOCABULARY-bounded,
    so the cumulative scan runs driver-side (the pmi/bpe precedent).
    Exact integer compare ``cum·100 ≥ pct·total`` — no float shares.
    """
    import pandas as pd
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        import polars as pl

        g = pl.from_arrow(t.select(["text"])) \
            .with_columns(pl.col("text").str.split(" ").alias("w")) \
            .explode("w").group_by("w") \
            .agg(pl.len().cast(pl.Int64).alias("c"))
        return g.rename({"w": "term"}).to_arrow()

    counts = docs_ds.select_columns(["text"]) \
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby("term").aggregate(Sum("c", alias_name="c")) \
        .to_pandas()
    counts = counts.sort_values(["c", "term"],
                                ascending=[False, True],
                                kind="mergesort").reset_index(drop=True)
    total = int(counts["c"].sum())
    cum = counts["c"].cumsum().to_numpy()
    rows = []
    for pct in pcts:
        k = int(np.searchsorted(cum * 100, pct * total, side="left") + 1)
        rows.append((int(pct), k, int(cum[k - 1]), total))
    return pd.DataFrame(rows, columns=["pct", "k_terms",
                                       "covered_tokens",
                                       "total_tokens"]).astype(np.int64)


def vocab_coverage_sql(pcts: tuple = (50, 90, 99),
                       table: str = "documents") -> str:
    """Oracle twin: frequency-ranked cumulative window, same integer
    threshold compare."""
    pct_list = ", ".join(str(p) for p in pcts)
    return f"""
WITH vc_cnt AS (
  SELECT w AS term, count(*)::BIGINT AS c
  FROM (SELECT unnest(str_split(text, ' ')) AS w FROM {table})
  GROUP BY 1),
vc_tot AS (SELECT sum(c)::BIGINT AS total FROM vc_cnt),
vc_cum AS (
  SELECT row_number() OVER (ORDER BY c DESC, term) AS k,
         sum(c) OVER (ORDER BY c DESC, term
                      ROWS BETWEEN UNBOUNDED PRECEDING
                               AND CURRENT ROW) AS cum
  FROM vc_cnt),
vc_p AS (SELECT unnest([{pct_list}]) AS pct)
SELECT p.pct::BIGINT AS pct,
       min(v.k)::BIGINT AS k_terms,
       min_by(v.cum, v.k)::BIGINT AS covered_tokens,
       any_value(t.total) AS total_tokens
FROM vc_p p CROSS JOIN vc_tot t
JOIN vc_cum v ON v.cum * 100 >= p.pct * t.total
GROUP BY p.pct ORDER BY pct
"""


# --- n-gram diversity: distinct/total trigram ratio per source ---

def trigram_diversity(docs_ds):
    """Per-source lexical diversity — distinct token trigrams over
    total trigram occurrences, in exact ppm:
    ``(source, n_grams, n_distinct, diversity_ppm)``.  The
    self-repetition health check run per crawl/source before mixing
    training data (a collapsed or templated source scores low).

    Scale shape: each batch pre-aggregates to ``(h, source, cnt)``
    combiner rows (distinct gram × source per batch, memoized md5-60
    hashing); ONE segment exchange on ``h`` (``groups.segment_map``)
    co-locates all copies of a gram, so per-block distinct
    ``(h, source)`` counts are exact global distincts and ``sum(cnt)``
    exact totals; a final |sources|-row groupby merges block partials.
    Text never crosses an exchange.
    """
    from ray.data.aggregate import Sum

    from .dedup import _md5_60_memo
    from .groups import segment_map

    def partial(t: pa.Table) -> pa.Table:
        agg: dict[tuple[int, str], int] = {}
        for src, txt in zip(t["source"].to_pylist(),
                            t["text"].to_pylist()):
            toks = [w for w in txt.split(" ") if w]
            for i in range(len(toks) - 2):
                h = _md5_60_memo(" ".join(toks[i:i + 3]))
                key = (h, src)
                agg[key] = agg.get(key, 0) + 1
        hs = np.fromiter((k[0] for k in agg), np.uint64, len(agg)) \
            .astype(np.int64)
        return pa.table({
            "h": pa.array(hs, pa.int64()),
            "source": pa.array([k[1] for k in agg], pa.string()),
            "cnt": pa.array(list(agg.values()), pa.int64()),
        })

    def per_block(g: pa.Table, starts: np.ndarray) -> pa.Table:
        d = g.group_by(["h", "source"], use_threads=False) \
            .aggregate([("cnt", "sum")]) \
            .group_by("source", use_threads=False) \
            .aggregate([("cnt_sum", "sum"), ("h", "count")])
        return pa.table({"source": d["source"],
                         "n_grams": d["cnt_sum_sum"],
                         "n_distinct": d["h_count"]})

    agg = segment_map(docs_ds.select_columns(["source", "text"])
                      .map_batches(partial, batch_format="pyarrow",
                                   zero_copy_batch=True),
                      "h", per_block) \
        .groupby("source").aggregate(
            Sum("n_grams", alias_name="n_grams"),
            Sum("n_distinct", alias_name="n_distinct"))

    def finish(t: pa.Table) -> pa.Table:
        ng = t["n_grams"].to_numpy(zero_copy_only=False)
        nd = t["n_distinct"].to_numpy(zero_copy_only=False)
        return pa.table({
            "source": t["source"],
            "n_grams": pa.array(ng, pa.int64()),
            "n_distinct": pa.array(nd, pa.int64()),
            "diversity_ppm": pa.array(1_000_000 * nd // ng, pa.int64()),
        })

    return agg.map_batches(finish, batch_format="pyarrow") \
        .sort("source")


def trigram_diversity_sql(table: str = "documents") -> str:
    return f"""
WITH td_t AS (
  SELECT source,
         list_filter(string_split(text, ' '), w -> w != '') AS s
  FROM {table}),
td_e AS (
  SELECT source,
         unnest(list_transform(range(1, len(s) - 1),
           i -> array_to_string(s[i : i + 2], ' '))) AS gr
  FROM td_t WHERE len(s) >= 3)
SELECT source,
       count(*)::BIGINT AS n_grams,
       count(DISTINCT gr)::BIGINT AS n_distinct,
       ((1000000 * count(DISTINCT gr)) // count(*))::BIGINT
         AS diversity_ppm
FROM td_e GROUP BY source ORDER BY source
"""


# --- compression-ratio quality signal (Gopher/DCLM-style) ---

def compression_quality(docs_ds, level: int = 6):
    """Per-doc zlib compressibility — ``(doc_id, n_bytes,
    n_compressed, ratio_ppm)`` with ``ratio_ppm = 10⁶ · compressed //
    raw``.  Highly compressible text (boilerplate, templated spam,
    repeated n-grams) scores LOW; the signal quality filters threshold
    on (DCLM / Gopher pipelines).  zlib level fixed → byte-deterministic
    output, so the op is retry-stable; rows-only at the gate (DuckDB
    has no codec), verified by the pytest reference instead.

    Scale shape: embarrassingly parallel map_batches (C-speed DEFLATE
    per doc, no exchange); emit is 4 int columns — feed the ratio into
    a downstream gate instead of materializing text."""
    import zlib

    def score(t: pa.Table) -> pa.Table:
        raw, comp = [], []
        for txt in t["text"].to_pylist():
            b = txt.encode()
            raw.append(len(b))
            comp.append(len(zlib.compress(b, level)))
        raw_a = np.array(raw, np.int64)
        comp_a = np.array(comp, np.int64)
        return pa.table({
            "doc_id": t["doc_id"],
            "n_bytes": pa.array(raw_a, pa.int64()),
            "n_compressed": pa.array(comp_a, pa.int64()),
            "ratio_ppm": pa.array(
                np.where(raw_a > 0, 1_000_000 * comp_a // np.maximum(raw_a, 1), 0),
                pa.int64()),
        })

    return docs_ds.select_columns(["doc_id", "text"]) \
        .map_batches(score, batch_format="pyarrow", zero_copy_batch=True)


# --- DSIR-style hashed-bigram importance scoring (data selection) ---

_DSIR_SCALE = 1 << 20


def dsir_importance(docs_ds, target_lang: str = "en",
                    num_buckets: int = 1024):
    """Data Selection with Importance Resampling (DSIR, Xie et al.
    2023) re-expressed in exact integers: score every doc by how much
    its hashed-bigram distribution resembles a TARGET domain (here:
    ``lang == target_lang`` docs) relative to the raw corpus, then flag
    docs whose average importance ratio ≥ 1 for selection.

    Per hashed bucket ``b`` (md5-60 of the bigram mod ``num_buckets``):
    ``w[b] = (target_cnt+1) * 2^20 // (raw_cnt+1)`` — the add-1-
    smoothed importance ratio in fixed point.  Per doc: the mean of
    ``w`` over its bigram OCCURRENCES (floor), selected iff ≥ 2^20.

    Scale shape: pass 1 emits one (bucket, is-target) row per bigram
    occurrence and one ``groups.fold`` counts them per bucket on the
    driver (≤ num_buckets partial rows per batch, no exchange) into
    the weight table; the table (num_buckets ints, ~8 KB) broadcasts
    into pass 2, which scores each batch independently — no further
    exchange.  Docs with < 2 tokens have no bigrams and are absent
    (matching the twin's ``len(t) >= 2`` guard).
    """
    import polars as pl

    from .dedup import _md5_60_memo
    from .groups import fold

    def _explode(t: pa.Table, cols: list[str]) -> "pl.DataFrame":
        df = pl.DataFrame({c: pl.from_arrow(t[c].combine_chunks())
                           for c in cols})
        return df.with_columns(
            pl.col("text").str.split(" ")
              .list.eval(pl.element().filter(pl.element() != ""))
              .alias("w1")).drop("text") \
            .explode("w1") \
            .with_columns(pl.col("w1").shift(-1).over("doc_id")
                          .alias("w2")) \
            .drop_nulls("w2") \
            .with_columns((pl.col("w1") + " " + pl.col("w2"))
                          .alias("bg")).drop(["w1", "w2"])

    def _buckets_for(bgs: "pl.Series") -> "pl.DataFrame":
        uniq = bgs.unique().sort()
        bk = np.array([_md5_60_memo(s) % num_buckets for s in uniq],
                      np.int64)
        return pl.DataFrame({"bg": uniq, "bucket": pl.Series(bk)})

    def bucket_rows(t: pa.Table) -> pa.Table:
        ex = _explode(t, ["doc_id", "text", "lang"])
        ex = ex.join(_buckets_for(ex["bg"]), on="bg")
        return pa.table({
            "bucket": pa.array(ex["bucket"].to_numpy(), pa.int64()),
            "tgt": pa.array((ex["lang"] == target_lang).fill_null(False)
                            .cast(pl.Int64).to_numpy())})

    wt = fold(docs_ds.select_columns(["doc_id", "text", "lang"])
              .map_batches(bucket_rows, batch_format="pyarrow",
                           zero_copy_batch=True),
              "bucket", {"tgt": ("sum", "tgt"), "raw": ("count", None)})
    W = np.ones(num_buckets, np.int64) * _DSIR_SCALE  # unseen: (0+1)/(0+1)
    W[wt["bucket"].to_numpy()] = \
        ((wt["tgt"].to_numpy() + 1) * _DSIR_SCALE) \
        // (wt["raw"].to_numpy() + 1)

    def score(t: pa.Table) -> pa.Table:
        ex = _explode(t, ["doc_id", "text"])
        if ex.height == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "n_bigrams": pa.array([], pa.int64()),
                             "avg_weight": pa.array([], pa.int64()),
                             "selected": pa.array([], pa.int64())})
        ex = ex.join(_buckets_for(ex["bg"]), on="bg")
        ex = ex.with_columns(
            pl.Series("w", W[ex["bucket"].to_numpy()]))
        agg = ex.group_by("doc_id").agg(
            pl.len().cast(pl.Int64).alias("n_bigrams"),
            pl.col("w").sum().cast(pl.Int64).alias("score"))
        agg = agg.with_columns(
            (pl.col("score") // pl.col("n_bigrams")).alias("avg_weight"))
        agg = agg.with_columns(
            (pl.col("avg_weight") >= _DSIR_SCALE).cast(pl.Int64)
            .alias("selected"))
        return agg.select(["doc_id", "n_bigrams", "avg_weight",
                           "selected"]).to_arrow().cast(pa.schema(
            [("doc_id", pa.int64()), ("n_bigrams", pa.int64()),
             ("avg_weight", pa.int64()), ("selected", pa.int64())]))

    return docs_ds.select_columns(["doc_id", "text"]) \
        .map_batches(score, batch_format="pyarrow", zero_copy_batch=True)


def dsir_importance_sql(target_lang: str = "en",
                        num_buckets: int = 1024) -> str:
    return f"""
WITH dsir_t AS (
  SELECT doc_id, lang,
         list_filter(str_split(text, ' '), x -> x <> '') AS t
  FROM documents),
dsir_p AS (
  SELECT doc_id, lang, t[i] || ' ' || t[i+1] AS bg
  FROM (SELECT doc_id, lang, t, unnest(range(1, len(t))) AS i
        FROM dsir_t WHERE len(t) >= 2)),
dsir_b AS (
  SELECT doc_id, lang,
         ('0x' || substr(md5(bg), 1, 15))::BIGINT % {num_buckets}
           AS bucket
  FROM dsir_p),
dsir_w AS (
  SELECT bucket,
         ((sum((lang = '{target_lang}')::BIGINT) + 1) * {_DSIR_SCALE})
           // (count(*) + 1) AS w
  FROM dsir_b GROUP BY bucket),
dsir_s AS (
  SELECT d.doc_id, count(*) AS n_bigrams, sum(w.w) AS score
  FROM dsir_b d JOIN dsir_w w USING (bucket)
  GROUP BY d.doc_id)
SELECT doc_id, n_bigrams,
       (score // n_bigrams)::BIGINT AS avg_weight,
       (score // n_bigrams >= {_DSIR_SCALE})::BIGINT AS selected
FROM dsir_s ORDER BY doc_id
"""


# --- feature-hashing collision audit ---

def feature_cross_hash(events_ds, num_buckets: int = 1 << 14):
    """Feature-hashing audit for the (user × event_type × day-of-week)
    cross: how many distinct crosses exist, how many hash buckets they
    occupy at ``num_buckets``, and how many crosses collide — the
    "is my hashing-trick width big enough" check run before training on
    hashed crosses.  Output (one row): (n_crosses, n_buckets_used,
    n_collided, collision_ppm).

    Scale shape: per-batch distinct combos (arrow group_by combiner),
    ONE global groupby on the 8-byte cross hash (collision-free md5-60
    keyspace for distinctness; the BUCKET is its mod), then a
    bucket-keyed count — every exchange row is two int64s.
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Count

    from .dedup import _md5_60

    def combos(t: pa.Table) -> pa.Table:
        ts = pc.cast(t["ts"], pa.timestamp("us"))
        # isodow alignment (Monday=1..Sunday=7) — the q_events_dow_hour
        # pairing; Arrow's default Monday=0 would desync the cross key
        dow = pc.day_of_week(ts, count_from_zero=False, week_start=1)
        b = pa.table({"u": t["user_id"], "et": t["event_type"],
                      "dow": pc.cast(dow, pa.int64())})
        b = b.group_by(["u", "et", "dow"], use_threads=False) \
            .aggregate([])
        h = np.array([_md5_60(f"{u}|{e}|{d}".encode())
                      for u, e, d in zip(b["u"].to_pylist(),
                                         b["et"].to_pylist(),
                                         b["dow"].to_pylist())],
                     np.int64)
        return pa.table({"h": pa.array(h, pa.int64())})

    buckets = events_ds.select_columns(["user_id", "event_type", "ts"]) \
        .map_batches(combos, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby("h").aggregate(Count()) \
        .map_batches(lambda t: pa.table(
            {"bucket": pc.call_function(
                "subtract", [t["h"], pc.multiply(
                    pc.divide(t["h"],
                              pa.scalar(num_buckets, pa.int64())),
                    pa.scalar(num_buckets, pa.int64()))])}),
            batch_format="pyarrow") \
        .groupby("bucket").aggregate(Count(alias_name="n")) \
        .take_all()
    n_buckets_used = len(buckets)
    n_crosses = sum(int(r["n"]) for r in buckets)
    n_collided = sum(int(r["n"]) for r in buckets if int(r["n"]) > 1)
    return pa.table({
        "n_crosses": pa.array([n_crosses], pa.int64()),
        "n_buckets_used": pa.array([n_buckets_used], pa.int64()),
        "n_collided": pa.array([n_collided], pa.int64()),
        "collision_ppm": pa.array(
            [(1_000_000 * n_collided) // max(n_crosses, 1)],
            pa.int64()),
    })


def feature_cross_hash_sql(num_buckets: int = 1 << 14) -> str:
    return f"""
WITH fx_c AS (
  SELECT DISTINCT user_id AS u, event_type AS et,
         isodow(ts) AS dow
  FROM events),
fx_h AS (
  SELECT ('0x' || substr(md5(u || '|' || et || '|' || dow), 1, 15))
           ::BIGINT % {num_buckets} AS bucket
  FROM fx_c),
fx_b AS (SELECT bucket, count(*) AS n FROM fx_h GROUP BY bucket),
fx_s AS (
  SELECT count(*) AS n_buckets_used, sum(n) AS n_crosses,
         coalesce(sum(CASE WHEN n > 1 THEN n END), 0) AS n_collided
  FROM fx_b)
SELECT n_crosses::BIGINT AS n_crosses,
       n_buckets_used::BIGINT AS n_buckets_used,
       n_collided::BIGINT AS n_collided,
       ((1000000 * n_collided)
        // greatest(n_crosses, 1))::BIGINT AS collision_ppm
FROM fx_s
"""


# --- greedy max-coverage corpus selection (facility location) ---

def max_coverage_selection(docs_ds, k_picks: int = 5, k: int = 3):
    """Greedy maximum-coverage corpus selection: pick ``k_picks`` docs
    that together cover the most distinct ``k``-token shingles — the
    classic (1−1/e)-approximate facility-location objective used to
    choose a small diverse seed corpus.  Deterministic ties → smallest
    doc_id.  Output: (pick_rank, doc_id, gain) with gain = NEW
    shingles the pick covers.

    Scale shape (the MMR unrolled-round shape): each of the ``k_picks``
    rounds is one streamed pass — the covered-set (md5-60 ints, bounded
    by the SELECTED docs' shingles, KB-scale) broadcasts via
    ``ray.put``; every batch scores its docs vectorized-per-doc and
    emits only its LOCAL best row (gain, doc_id, gram list), so the
    driver folds n_blocks candidate rows per round.
    """
    import ray

    from .dedup import _md5_60_memo

    picked: list[tuple[int, int, int]] = []   # (rank, doc_id, gain)
    picked_ids: set[int] = set()
    covered: frozenset = frozenset()

    docs = docs_ds.select_columns(["doc_id", "text"]).materialize()
    for rnd in range(1, k_picks + 1):
        ref = ray.put((covered, picked_ids))

        def best_local(t: pa.Table, ref=ref) -> pa.Table:
            cov, skip = ray.get(ref)
            best_key, best_gs = None, None
            for d, txt in zip(t["doc_id"].to_pylist(),
                              t["text"].to_pylist()):
                if d in skip:
                    continue
                toks = [w for w in txt.split(" ") if w]
                if len(toks) < k:
                    gs: set = set()
                else:
                    gs = {_md5_60_memo(" ".join(toks[i:i + k]))
                          for i in range(len(toks) - k + 1)}
                key = (-len(gs - cov), d)
                if best_key is None or key < best_key:
                    best_key, best_gs = key, gs
            if best_key is None:
                return pa.table({"gain": pa.array([], pa.int64()),
                                 "doc_id": pa.array([], pa.int64()),
                                 "gs": pa.array([], pa.list_(
                                     pa.int64()))})
            return pa.table({
                "gain": pa.array([-best_key[0]], pa.int64()),
                "doc_id": pa.array([best_key[1]], pa.int64()),
                "gs": pa.array([sorted(best_gs)],
                               pa.list_(pa.int64()))})

        cand = docs.map_batches(best_local, batch_format="pyarrow",
                                zero_copy_batch=True).take_all()
        if not cand:
            break
        win = min(cand, key=lambda r: (-int(r["gain"]),
                                       int(r["doc_id"])))
        picked.append((rnd, int(win["doc_id"]), int(win["gain"])))
        picked_ids.add(int(win["doc_id"]))
        covered = covered | set(int(g) for g in win["gs"])
    return pa.table({
        "pick_rank": pa.array([p[0] for p in picked], pa.int64()),
        "doc_id": pa.array([p[1] for p in picked], pa.int64()),
        "gain": pa.array([p[2] for p in picked], pa.int64()),
    })


def max_coverage_selection_sql(k_picks: int = 5, k: int = 3) -> str:
    """Unrolled-round DuckDB twin (the mmr_diverse_topk shape): gram
    STRINGS stand in for md5-60 ints; each round's winner is the max
    new-coverage doc, ties to smallest doc_id."""
    parts = [f"""mc_t AS (
  SELECT doc_id, list_filter(string_split(text, ' '), w -> w != '') AS s
  FROM documents),
mc_g AS MATERIALIZED (
  SELECT doc_id, list_distinct(list_transform(
           range(1, len(s) - {k} + 2),
           i -> array_to_string(s[i : i + {k} - 1], ' '))) AS gs
  FROM mc_t WHERE len(s) >= {k}),
mc_s1 AS MATERIALIZED (
  SELECT doc_id, gs, len(gs) AS gain FROM mc_g
  ORDER BY gain DESC, doc_id LIMIT 1),
mc_c1 AS (SELECT list_distinct(gs) AS cov FROM mc_s1)"""]
    for r in range(2, k_picks + 1):
        prev_sel = " UNION ALL ".join(
            f"SELECT doc_id FROM mc_s{i}" for i in range(1, r))
        parts.append(f"""mc_s{r} AS MATERIALIZED (
  SELECT g.doc_id, g.gs,
         len(list_filter(g.gs,
             x -> NOT list_contains(c.cov, x))) AS gain
  FROM mc_g g CROSS JOIN mc_c{r - 1} c
  WHERE g.doc_id NOT IN ({prev_sel})
  ORDER BY gain DESC, g.doc_id LIMIT 1),
mc_c{r} AS (
  SELECT list_distinct(list_concat(c.cov, s.gs)) AS cov
  FROM mc_c{r - 1} c CROSS JOIN mc_s{r} s)""")
    union = " UNION ALL ".join(
        f"SELECT {i} AS pick_rank, doc_id, gain FROM mc_s{i}"
        for i in range(1, k_picks + 1))
    chain = ",\n".join(parts)
    return f"""
WITH {chain}
SELECT pick_rank, doc_id, gain FROM ({union})
ORDER BY pick_rank
"""


def multi_query_lexical(docs_ds, queries: list[str], k: int = 10,
                        scale: int = 10 ** 6):
    """Batched lexical retrieval: top-k docs for EVERY query in ONE
    shared corpus scan — the serving shape when a query log replays
    against a corpus (N separate single-query runs would re-scan the
    corpus N times).  Output: (query_id, doc_id, rank, score), ranked
    (score DESC, doc_id ASC); ``lexical_topk`` is the one-query case.

    Scoring is integer-exact BM25-family: per term ``w(t) = ((N − df_t)
    · scale) // (df_t + 1)`` (the Robertson–Sparck-Jones idf ratio
    WITHOUT the log: a monotone transform, so rare terms dominate
    exactly as in BM25) and ``score(q, d) = Σ_{t∈q} tf(t,d) · w(t)``.
    All arithmetic is int64 with explicit overflow guards (``w < 2⁴⁴``,
    ``tf < 2¹⁸``, so ``w·tf < 2⁶²``; at 10¹²-doc corpora drop
    ``scale`` to 10³), so the ranking replays bit-exactly in SQL.

    Scale shape: postings are emitted once for the UNION of all query
    terms (``(doc_id, term_id, tf)`` int rows — the exchange is
    |union-term occurrences|, never |corpus|) and materialized once,
    because both df-counting and scoring read them; the |union
    terms|-row weight table broadcasts; one streamed pass produces
    per-(query, doc) partial scores into a single groupby, each of its
    blocks keeps its first k per query (``groups.take_first_k``), and
    ``groups.collect`` brings ≤ k rows per (query, block) to the
    driver, where the same prune ranks them.
    """
    from ray.data.aggregate import Count, Sum

    from .groups import collect, take_first_k

    terms = sorted({w for q in queries for w in q.split(" ")})
    tid_of = {t: i for i, t in enumerate(terms)}
    member = np.zeros((len(queries), len(terms)), bool)   # query × term
    for qi, q in enumerate(queries):
        member[qi, [tid_of[w] for w in q.split(" ")]] = True
    n_docs = int(docs_ds.count())

    post_schema = pa.schema([("doc_id", pa.int64()),
                             ("term_id", pa.int64()),
                             ("tf", pa.int64())])

    def postings(t: pa.Table) -> pa.Table:
        import polars as pl

        g = pl.from_arrow(t.select(["doc_id", "text"])) \
            .with_columns(pl.col("text").str.split(" ").alias("w")) \
            .explode("w") \
            .filter(pl.col("w").is_in(terms)) \
            .with_columns(
                pl.col("w").replace_strict(
                    terms, list(range(len(terms))),
                    return_dtype=pl.Int64).alias("term_id")) \
            .group_by("doc_id", "term_id") \
            .agg(pl.len().cast(pl.Int64).alias("tf")) \
            .select("doc_id", "term_id", "tf")
        out = g.to_arrow()
        return out.cast(post_schema) if out.num_rows else \
            post_schema.empty_table()

    post = docs_ds.select_columns(["doc_id", "text"]) \
        .map_batches(postings, batch_format="pyarrow",
                     zero_copy_batch=True).materialize()

    # docs are unique per input row, so per-batch (doc, term) rows are
    # globally unique and a plain Count IS the document frequency
    df_rows = post.groupby("term_id") \
        .aggregate(Count(alias_name="df")).take_all()
    w_by_tid = np.zeros(len(terms), np.int64)
    for r in df_rows:
        dfv = int(r["df"])
        w = ((n_docs - dfv) * scale) // (dfv + 1)
        if w >= (1 << 44):
            raise OverflowError(
                f"idf weight {w} too large for int64 tf·w scoring — "
                f"reduce scale= (corpus N={n_docs})")
        w_by_tid[int(r["term_id"])] = w

    def score_part(t: pa.Table) -> pa.Table:
        tf = t["tf"].to_numpy()
        tid = t["term_id"].to_numpy()
        if len(tf) and int(tf.max()) >= (1 << 18):
            raise OverflowError("tf too large for guarded int64 tf·w")
        qi, row = np.nonzero(member[:, tid])
        return pa.table({"query_id": qi.astype(np.int64),
                         "doc_id": t["doc_id"].to_numpy()[row],
                         "s": tf[row] * w_by_tid[tid[row]]}) \
            .group_by(["query_id", "doc_id"], use_threads=False) \
            .aggregate([("s", "sum")])

    def first(t: pa.Table, rank: str | None = None) -> pa.Table:
        return take_first_k(t, ["query_id"], "score", "doc_id", k,
                            rank_col=rank)

    cands = collect(post.map_batches(score_part, batch_format="pyarrow",
                                     zero_copy_batch=True)
                    .groupby(["query_id", "doc_id"])
                    .aggregate(Sum("s_sum", alias_name="score"))
                    .map_batches(first, batch_format="pyarrow"))
    if cands is None:
        cands = pa.table({c: pa.array([], pa.int64())
                          for c in ("query_id", "doc_id", "score")})
    return first(cands, "rank").select(["query_id", "doc_id", "rank",
                                        "score"])


def multi_query_lexical_sql(queries: list[str], k: int = 10,
                            scale: int = 10 ** 6,
                            table: str = "documents") -> str:
    terms = sorted({w for q in queries for w in q.split(" ")})
    in_list = ", ".join(f"'{t}'" for t in terms)
    blocks = []
    for qi, q in enumerate(queries):
        q_in = ", ".join(f"'{t}'" for t in sorted(set(q.split(" "))))
        blocks.append(f"""
  SELECT {qi} AS query_id, doc_id, rank, score FROM (
    SELECT doc_id,
           row_number() OVER (ORDER BY score DESC, doc_id) AS rank,
           score
    FROM (SELECT doc_id, sum(tf * wt)::BIGINT AS score
          FROM mq_tf JOIN mq_w USING (w)
          WHERE w IN ({q_in}) GROUP BY doc_id))
  WHERE rank <= {k}""")
    union = " UNION ALL ".join(blocks)
    return f"""
WITH mq_tf AS MATERIALIZED (
  SELECT doc_id, w, count(*)::BIGINT AS tf
  FROM (SELECT doc_id, unnest(str_split(text, ' ')) AS w FROM {table})
  WHERE w IN ({in_list}) GROUP BY doc_id, w),
mq_df AS (SELECT w, count(*)::BIGINT AS df FROM mq_tf GROUP BY w),
mq_n AS (SELECT count(*)::BIGINT AS n FROM {table}),
mq_w AS (SELECT w, ((n - df) * {scale}) // (df + 1) AS wt
         FROM mq_df CROSS JOIN mq_n)
SELECT * FROM ({union}) ORDER BY query_id, rank
"""
