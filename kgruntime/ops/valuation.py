"""Data-valuation and curation-policy operators.

The 100-TB curation questions that come AFTER dedup and scoring:
which source is pulling the corpus down (leave-one-out influence),
what does each quality threshold actually cost (threshold sweep), and
which pages are the same page behind different URLs (canonical-URL
dedup).  All exact-integer so every result replays bit-identically in
the DuckDB oracle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .text import STOPWORDS

# ---------------------------------------------------------------------------
# leave-one-out source influence (data valuation)
# ---------------------------------------------------------------------------


def _token_rows(t: pa.Table) -> pa.Table:
    """(source, nt) per doc: its count of single-space tokens."""
    return pa.table({"source": t["source"], "nt": pc.cast(
        pc.list_value_length(pc.split_pattern(t["text"], " ")),
        pa.int64())})


def loo_source_influence(docs_ds):
    """Per-source leave-one-out influence on two corpus health metrics
    — mean tokens/doc and exact-duplicate rate: for each source ``s``,
    recompute each metric over ``corpus \\ s`` in closed form from
    partial aggregates (the Shapley-lite valuation every big corpus
    mix decision starts from).  Output per source: ``(source, n_docs,
    n_tokens, loo_mean_tok_ppm, delta_mean_ppm, loo_dup_ppm,
    delta_dup_ppm)``; all ratios exact integer ppm.

    Scale shape: NO per-source rescan — one ``groups.fold`` of
    per-doc (source, tokens) rows gives per-source (docs, tokens) on
    the driver with no exchange, and the dup side is ONE text-hash
    segment exchange: distinct ``(h, source)`` rows, then a per-hash
    rollup marking hashes exclusive to a single source, whose
    per-block counts a second ``fold`` merges.  The closed forms:
    ``loo_mean(s) = (T − T_s)/(N − N_s)`` and ``loo_dups(s) =
    (N − N_s) − (H − own_s)`` where ``H`` is distinct texts and
    ``own_s`` counts hashes appearing ONLY in ``s`` (removing ``s``
    deletes exactly those from the distinct set).  Driver state is
    |sources| rows — mix decisions are per-source by definition.
    """
    import pandas as pd

    from .dedup import _md5_60
    from .groups import fold, segment_map

    # --- pass 1: per-source docs/tokens ---
    src = fold(docs_ds.select_columns(["source", "text"])
               .map_batches(_token_rows, batch_format="pyarrow",
                            zero_copy_batch=True),
               "source", {"n_docs": ("count", None),
                          "n_tokens": ("sum", "nt")})

    # --- pass 2: text-hash ownership via ONE segment exchange on the
    # hash (``groups.segment_map``; groupby(h) would make |distinct
    # texts| groups — the r5 coarse-group lesson); each coarse block
    # computes its distinct-hash count and per-source exclusive-hash
    # counts in Arrow and emits |sources|+1 partial rows ---
    def hash_rows(t: pa.Table) -> pa.Table:
        h = np.array([_md5_60(x.encode())
                      for x in t["text"].to_pylist()], np.int64)
        tt = pa.table({"h": pa.array(h, pa.int64()),
                       "source": t["source"]})
        # per-batch (h, source) pre-dedup shrinks the exchange on
        # duplicate-heavy batches
        return tt.group_by(["h", "source"], use_threads=False).aggregate([])

    # one distinct-hash total row per block, flagged by ``total`` (any
    # source value, '' included, can be a genuine source)
    part_schema = pa.schema([("source", pa.string()), ("own", pa.int64()),
                             ("nh", pa.int64()), ("total", pa.bool_())])

    def per_block(g: pa.Table, starts: np.ndarray) -> pa.Table:
        u = g.group_by(["h", "source"], use_threads=False).aggregate([])
        ns = u.group_by("h", use_threads=False) \
            .aggregate([([], "count_all")])
        excl = ns.filter(pc.equal(ns["count_all"], 1))["h"]
        own = u.filter(pc.is_in(u["h"], value_set=excl.combine_chunks())) \
            .group_by("source", use_threads=False) \
            .aggregate([([], "count_all")])
        n = own.num_rows
        return pa.concat_tables([
            pa.table({"source": [None], "own": [0], "nh": [ns.num_rows],
                      "total": [True]}, schema=part_schema),
            pa.table({"source": own["source"], "own": own["count_all"],
                      "nh": pa.array(np.zeros(n, np.int64)),
                      "total": pa.array(np.zeros(n, bool))},
                     schema=part_schema)])

    parts = fold(segment_map(docs_ds.select_columns(["source", "text"])
                             .map_batches(hash_rows, batch_format="pyarrow",
                                          zero_copy_batch=True),
                             "h", per_block),
                 ["total", "source"], {"own": ("sum", "own"),
                                       "nh": ("sum", "nh")})
    n_hashes = sum(parts["nh"].to_pylist())
    owned = {s: o for s, o, tot in zip(parts["source"].to_pylist(),
                                       parts["own"].to_pylist(),
                                       parts["total"].to_pylist())
             if not tot}

    nd = src["n_docs"].to_numpy()
    tk = src["n_tokens"].to_numpy()
    ow = np.array([owned.get(s, 0) for s in src["source"].to_pylist()],
                  np.int64)
    n_total = int(nd.sum())
    t_total = int(tk.sum())
    dup_all = n_total - n_hashes
    rem = n_total - nd
    loo_mean = np.where(rem > 0, (1_000_000 * (t_total - tk)) // np.maximum(rem, 1), 0)
    mean_all = (1_000_000 * t_total) // max(n_total, 1)
    loo_dups = rem - (n_hashes - ow)
    loo_dup_ppm = np.where(rem > 0, (1_000_000 * loo_dups) // np.maximum(rem, 1), 0)
    dup_ppm_all = (1_000_000 * dup_all) // max(n_total, 1)
    return pd.DataFrame({
        "source": src["source"].to_pandas(),
        "n_docs": nd, "n_tokens": tk,
        "loo_mean_tok_ppm": loo_mean.astype("int64"),
        "delta_mean_ppm": (loo_mean - mean_all).astype("int64"),
        "loo_dup_ppm": loo_dup_ppm.astype("int64"),
        "delta_dup_ppm": (loo_dup_ppm - dup_ppm_all).astype("int64"),
    })


def loo_source_influence_sql(table: str = "documents") -> str:
    """Oracle twin: identical closed-form integer arithmetic; a null
    source is one source, which owns its exclusive texts."""
    return f"""
WITH loo_src AS (
  SELECT source, count(*)::BIGINT AS n_docs,
         sum(len(str_split(text, ' ')))::BIGINT AS n_tokens
  FROM {table} GROUP BY source),
loo_h AS (
  SELECT ('0x' || substr(md5(text), 1, 15))::BIGINT AS h, source,
         count(*)::BIGINT AS c
  FROM {table} GROUP BY 1, 2),
loo_ht AS (
  SELECT h, count(*)::BIGINT AS ns, min(source) AS owner
  FROM loo_h GROUP BY h),
loo_own AS (
  SELECT owner AS source, count(*)::BIGINT AS own
  FROM loo_ht WHERE ns = 1 GROUP BY owner),
loo_tot AS (
  SELECT sum(n_docs)::BIGINT AS n, sum(n_tokens)::BIGINT AS t,
         (SELECT count(*)::BIGINT FROM loo_ht) AS hh
  FROM loo_src)
SELECT s.source, s.n_docs, s.n_tokens,
       CASE WHEN n > s.n_docs
            THEN (1000000 * (t - s.n_tokens)) // (n - s.n_docs)
            ELSE 0 END AS loo_mean_tok_ppm,
       CASE WHEN n > s.n_docs
            THEN (1000000 * (t - s.n_tokens)) // (n - s.n_docs)
            ELSE 0 END - (1000000 * t) // n AS delta_mean_ppm,
       CASE WHEN n > s.n_docs
            THEN (1000000 * ((n - s.n_docs)
                             - (hh - coalesce(o.own, 0))))
                 // (n - s.n_docs)
            ELSE 0 END AS loo_dup_ppm,
       CASE WHEN n > s.n_docs
            THEN (1000000 * ((n - s.n_docs)
                             - (hh - coalesce(o.own, 0))))
                 // (n - s.n_docs)
            ELSE 0 END - (1000000 * (n - hh)) // n AS delta_dup_ppm
FROM loo_src s
LEFT JOIN loo_own o ON o.source IS NOT DISTINCT FROM s.source
CROSS JOIN loo_tot
ORDER BY s.source
"""


# ---------------------------------------------------------------------------
# quality threshold sweep (curation policy curve)
# ---------------------------------------------------------------------------

_SW_LIST = ", ".join(f"'{w}'" for w in sorted(STOPWORDS))


def _q_pm(n: np.ndarray, alpha: np.ndarray, sw: np.ndarray) -> np.ndarray:
    """Integer per-mille quality score (C4/Gopher-style heuristics made
    exactly replayable): ``len_pm = min(1000, 20n)``, ``alpha_pm =
    500 + 500·alpha//n``, ``sw_pm = 1000 − 500·sw//n``; ``q_pm =
    ((len_pm·alpha_pm)//1000 · sw_pm)//1000`` ∈ [0, 1000]."""
    n1 = np.maximum(n, 1)
    len_pm = np.minimum(1000, 20 * n)
    alpha_pm = 500 + (500 * alpha) // n1
    sw_pm = 1000 - (500 * sw) // n1
    return ((len_pm * alpha_pm) // 1000 * sw_pm) // 1000


def quality_threshold_sweep(docs_ds):
    """The curation tradeoff curve: for each candidate quality
    threshold τ ∈ {0, 100, …, 900} per-mille, how many documents and
    tokens survive ``q_pm ≥ τ`` — the docs-vs-quality frontier read
    before committing a filter at 100 TB.  Output: ``(tau, docs_kept,
    tokens_kept, docs_kept_ppm)``.

    Scale shape: ONE corpus pass computes each doc's integer score and
    its per-mille BUCKET (q_pm // 100); one ``groups.fold`` counts the
    ≤ 11 buckets on the driver (no exchange), and the
    cumulative-from-the-top sweep runs over the 11-row rollup.
    Thresholds sit on bucket boundaries, so bucket cumsum IS the exact
    per-τ count.
    """
    import pandas as pd

    from .groups import fold

    def bucket_rows(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        n = np.empty(len(texts), np.int64)
        al = np.empty(len(texts), np.int64)
        sw = np.empty(len(texts), np.int64)
        for i, x in enumerate(texts):
            toks = x.split(" ")
            n[i] = len(toks)
            al[i] = sum(1 for w in toks if w.isascii() and w.isalpha())
            sw[i] = sum(1 for w in toks if w.lower() in STOPWORDS)
        return pa.table({"bucket": _q_pm(n, al, sw) // 100, "n": n})

    roll = fold(docs_ds.select_columns(["text"])
                .map_batches(bucket_rows, batch_format="pyarrow",
                             zero_copy_batch=True),
                "bucket", {"d": ("count", None), "tk": ("sum", "n")})
    docs_by_b = np.zeros(11, np.int64)
    toks_by_b = np.zeros(11, np.int64)
    docs_by_b[roll["bucket"].to_numpy()] = roll["d"].to_numpy()
    toks_by_b[roll["bucket"].to_numpy()] = roll["tk"].to_numpy()
    n_total = int(docs_by_b.sum())
    taus = np.arange(0, 1000, 100, dtype=np.int64)
    docs_kept = np.array([docs_by_b[ti:].sum()
                          for ti in range(10)], np.int64)
    toks_kept = np.array([toks_by_b[ti:].sum()
                          for ti in range(10)], np.int64)
    return pd.DataFrame({
        "tau": taus, "docs_kept": docs_kept, "tokens_kept": toks_kept,
        "docs_kept_ppm":
            (1_000_000 * docs_kept) // max(n_total, 1)})


def quality_threshold_sweep_sql(table: str = "documents") -> str:
    """Oracle twin: identical integer score, thresholds replayed as a
    grid join (bucket boundaries ⇒ identical counts)."""
    return f"""
WITH qs_tok AS (
  SELECT doc_id, unnest(str_split(text, ' ')) AS w FROM {table}),
qs_per AS (
  SELECT doc_id, count(*)::BIGINT AS n,
         sum(CASE WHEN regexp_matches(w, '^[A-Za-z]+$')
                  THEN 1 ELSE 0 END)::BIGINT AS ac,
         sum(CASE WHEN lower(w) IN ({_SW_LIST})
                  THEN 1 ELSE 0 END)::BIGINT AS sc
  FROM qs_tok GROUP BY doc_id),
qs_q AS (
  SELECT doc_id, n,
         (least(1000, 20 * n) * (500 + (500 * ac) // greatest(n, 1))
          // 1000 * (1000 - (500 * sc) // greatest(n, 1))) // 1000
           AS q_pm
  FROM qs_per),
qs_grid AS (SELECT unnest(range(0, 1000, 100))::BIGINT AS tau)
SELECT g.tau,
       count(q.doc_id)::BIGINT AS docs_kept,
       coalesce(sum(q.n), 0)::BIGINT AS tokens_kept,
       (1000000 * count(q.doc_id))
         // greatest((SELECT count(*) FROM qs_q), 1) AS docs_kept_ppm
FROM qs_grid g
LEFT JOIN qs_q q ON q.q_pm >= g.tau
GROUP BY g.tau ORDER BY g.tau
"""


# ---------------------------------------------------------------------------
# per-source token budget (water-filling cap)
# ---------------------------------------------------------------------------


def source_token_budget(docs_ds, budget_num: int = 1,
                        budget_den: int = 2):
    """Mixture rebalancing by WATER-FILLING: given a total token budget
    ``B = total · budget_num // budget_den``, find the largest integer
    cap ``C`` with ``Σ_s min(T_s, C) ≤ B`` and allocate ``min(T_s, C)``
    tokens per source — the standard way to stop a few dominant domains
    from eating a training mix while small sources keep everything.
    Output per source: ``(source, n_tokens, water_cap, alloc_tokens,
    capped)``; exact integers.

    Scale shape: ONE per-source token rollup (``groups.fold``, no
    exchange);
    the water level solves in closed form over the |sources|-row table
    (sorted prefix sums — no bisection, no second corpus pass):
    with ``T`` ascending and ``P(k) = Σ_{i≤k} T_i``, the largest
    feasible rank is ``k* = max{k : P(k−1) + (m−k+1)·T_k ≤ B}`` and
    ``C = (B − P(k*)) // (m − k*)`` (``C = max T`` when every source
    fits).  ``C < T_{k*+1}`` holds automatically, so the floor is the
    exact integer optimum.
    """
    import pandas as pd

    from .groups import fold

    src = fold(docs_ds.select_columns(["source", "text"])
               .map_batches(_token_rows, batch_format="pyarrow",
                            zero_copy_batch=True),
               "source", {"tk": ("sum", "nt")}) \
        .to_pandas().sort_values(["tk", "source"]).reset_index(drop=True)

    tk = src["tk"].to_numpy(np.int64)
    m = len(tk)
    total = int(tk.sum())
    budget = (total * budget_num) // budget_den
    pfx = np.cumsum(tk)
    # cond(k), 1-indexed: P(k−1) + (m−k+1)·T_k ≤ B
    ks = 0
    for k in range(1, m + 1):
        if (pfx[k - 1] - tk[k - 1]) + (m - k + 1) * tk[k - 1] <= budget:
            ks = k
    if m == 0:
        cap = 0
    elif ks >= m:
        cap = int(tk[-1])
    else:
        pk = int(pfx[ks - 1]) if ks > 0 else 0
        cap = (budget - pk) // (m - ks)
    alloc = np.minimum(tk, cap)
    out = pd.DataFrame({
        "source": src["source"],
        "n_tokens": tk,
        "water_cap": np.full(m, cap, np.int64),
        "alloc_tokens": alloc.astype("int64"),
        "capped": (tk > cap).astype("int64"),
    })
    return out.sort_values("source").reset_index(drop=True)


def source_token_budget_sql(budget_num: int = 1, budget_den: int = 2,
                            table: str = "documents") -> str:
    """Oracle twin: identical closed-form integer water level."""
    return f"""
WITH stb_src AS (
  SELECT source, sum(len(str_split(text, ' ')))::BIGINT AS tk
  FROM {table} GROUP BY source),
stb_b AS (
  SELECT (sum(tk) * {budget_num}) // {budget_den} AS b,
         count(*)::BIGINT AS m
  FROM stb_src),
stb_ord AS (
  SELECT source, tk,
         row_number() OVER (ORDER BY tk, source) AS rn,
         sum(tk) OVER (ORDER BY tk, source) AS pfx
  FROM stb_src),
stb_k AS (
  SELECT coalesce(max(o.rn), 0) AS ks
  FROM stb_ord o CROSS JOIN stb_b
  WHERE (o.pfx - o.tk) + (m - o.rn + 1) * o.tk <= b),
stb_c AS (
  SELECT CASE
           WHEN ks >= m THEN (SELECT max(tk) FROM stb_src)
           ELSE (b - coalesce((SELECT pfx FROM stb_ord WHERE rn = ks),
                              0)) // (m - ks)
         END AS cap
  FROM stb_k CROSS JOIN stb_b)
SELECT source, tk AS n_tokens, cap::BIGINT AS water_cap,
       least(tk, cap)::BIGINT AS alloc_tokens,
       (CASE WHEN tk > cap THEN 1 ELSE 0 END)::BIGINT AS capped
FROM stb_src CROSS JOIN stb_c
ORDER BY source
"""


# ---------------------------------------------------------------------------
# per-source term concentration (inverse-Simpson effective vocabulary)
# ---------------------------------------------------------------------------


def term_concentration_by_source(docs_ds):
    """Token-distribution concentration per source — the "is this
    domain just one template repeated?" audit: per source, total
    tokens, distinct terms, the inverse-Simpson EFFECTIVE term count
    in ppm (``T²·10⁶ // Σ_t c_t²`` — the number of equally-frequent
    terms that would give the same concentration), and the top term
    with its exact share (ties → lexicographically smallest term).
    Output: ``(source, n_tokens, n_terms, eff_terms_ppm, top_term,
    top_share_ppm)``.

    Scale shape: per-batch polars (source, term) partial counts into
    ONE ``groupby(source, term)`` exchange; the per-source rollup runs
    as ``groupby(source).map_groups`` over vocabulary-bounded groups
    (Σc, Σc², argmax — all integer).
    """
    from ray.data.aggregate import Sum

    def term_partial(t: pa.Table) -> pa.Table:
        import polars as pl

        g = pl.from_arrow(t.select(["source", "text"])) \
            .with_columns(pl.col("text").str.split(" ").alias("w")) \
            .explode("w").group_by("source", "w") \
            .agg(pl.len().cast(pl.Int64).alias("c"))
        return pa.table({"source": pa.array(g["source"].to_list(),
                                            pa.string()),
                         "term": pa.array(g["w"].to_list(), pa.string()),
                         "c": pa.array(g["c"].to_list(), pa.int64())})

    counts = docs_ds.select_columns(["source", "text"]) \
        .map_batches(term_partial, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby(["source", "term"]).aggregate(Sum("c", alias_name="c"))

    out_schema = pa.schema([
        ("source", pa.string()), ("n_tokens", pa.int64()),
        ("n_terms", pa.int64()), ("eff_terms_ppm", pa.int64()),
        ("top_term", pa.string()), ("top_share_ppm", pa.int64())])

    def rollup(g: pa.Table) -> pa.Table:
        c = g["c"].combine_chunks().to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        terms = g["term"].to_pylist()
        total = int(c.sum())
        sq = int((c * c).sum())
        cmax = int(c.max())
        top = min(t for t, cc in zip(terms, c) if cc == cmax)
        return pa.table({
            "source": g["source"].slice(0, 1),
            "n_tokens": pa.array([total], pa.int64()),
            "n_terms": pa.array([len(terms)], pa.int64()),
            "eff_terms_ppm": pa.array(
                [(total * total * 1_000_000) // sq], pa.int64()),
            "top_term": pa.array([top], pa.string()),
            "top_share_ppm": pa.array(
                [(cmax * 1_000_000) // total], pa.int64())},
            schema=out_schema)

    return counts.groupby("source").map_groups(
        rollup, batch_format="pyarrow").sort("source")


def term_concentration_by_source_sql(table: str = "documents") -> str:
    """Oracle twin: identical integer inverse-Simpson arithmetic.  The
    T²·10⁶ numerator runs in HUGEINT: in BIGINT it overflows above about
    3.04M tokens per source."""
    return f"""
WITH tc_c AS (
  SELECT source, w AS term, count(*)::BIGINT AS c
  FROM (SELECT source, unnest(str_split(text, ' ')) AS w FROM {table})
  GROUP BY source, w),
tc_roll AS (
  SELECT source, sum(c)::BIGINT AS n_tokens,
         count(*)::BIGINT AS n_terms,
         sum(c * c)::BIGINT AS sq, max(c)::BIGINT AS cmax
  FROM tc_c GROUP BY source),
tc_top AS (
  SELECT c.source, min(c.term) AS top_term
  FROM tc_c c JOIN tc_roll r
    ON r.source = c.source AND c.c = r.cmax
  GROUP BY c.source)
SELECT r.source, r.n_tokens, r.n_terms,
       ((r.n_tokens::HUGEINT * r.n_tokens * 1000000) // r.sq)::BIGINT
         AS eff_terms_ppm,
       t.top_term,
       ((r.cmax * 1000000) // r.n_tokens)::BIGINT AS top_share_ppm
FROM tc_roll r JOIN tc_top t USING (source)
ORDER BY r.source
"""


# ---------------------------------------------------------------------------
# canonical-URL duplicate groups
# ---------------------------------------------------------------------------


def canonicalize_urls(urls) -> pa.Array:
    """Vectorized URL canonicalization (the CommonCrawl-style dedup
    key): lower-case the scheme+host, drop a default ``:443``/``:80``
    port, strip ``utm_*``-only query strings, and trim one trailing
    slash from a non-root path.  Pure Arrow regex kernels — no Python
    loop."""
    u = pa.chunked_array([urls]) if isinstance(urls, pa.Array) else urls
    # scheme+host lower: split at the first '/' after '://'
    parts = pc.extract_regex(u, r"^(?P<head>[a-zA-Z]+://[^/]*)(?P<rest>.*)$")
    head = pc.ascii_lower(pc.struct_field(parts, "head"))
    rest = pc.struct_field(parts, "rest")
    head = pc.replace_substring_regex(head, r":443$|:80$", "")
    rest = pc.replace_substring_regex(rest, r"\?utm_[a-z]+=[^&]*$", "")
    rest = pc.replace_substring_regex(rest, r"(.)/$", "\\1")
    return pc.binary_join_element_wise(head, rest, "")


def url_canonical_dups(docs_ds):
    """Canonical-URL duplicate groups over a synthesized per-doc URL
    column (deterministic from table columns so the oracle replays it):
    raw URLs vary by host case, default port, utm query and trailing
    slash; canonicalization folds them and groups with > 1 doc are the
    refetch candidates.  Output: ``(canonical_url, n_docs,
    min_doc_id)`` ordered by url.

    Scale shape: URL synthesis + canonicalization are per-batch Arrow
    kernels; ONE canonical-url-keyed exchange (count + min rollup);
    emitted rows are bounded by |dup groups|.
    """
    from ray.data.aggregate import Count, Min

    def add_urls(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        src = t["source"].to_pylist()
        raw = []
        for i, s in zip(ids, src):
            host = f"{s}.example.com"
            if i % 3 == 0:
                host = host.upper()
            port = ":443" if i % 5 == 0 else ""
            path = f"/page/{i % 5}"
            slash = "/" if i % 2 == 0 else ""
            query = "?utm_source=feed" if i % 7 == 0 else ""
            raw.append(f"https://{host}{port}{path}{slash}{query}")
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "canonical_url": canonicalize_urls(
                pa.array(raw, pa.string()))})

    grouped = docs_ds.select_columns(["doc_id", "source"]) \
        .map_batches(add_urls, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby("canonical_url") \
        .aggregate(Count(alias_name="n_docs"),
                   Min("doc_id", alias_name="min_doc_id"))

    def dups_only(t: pa.Table) -> pa.Table:
        sel = t.filter(pc.greater(t["n_docs"], 1))
        return pa.table({
            "canonical_url": sel["canonical_url"],
            "n_docs": pc.cast(sel["n_docs"], pa.int64()),
            "min_doc_id": pc.cast(sel["min_doc_id"], pa.int64())})

    import ray.data as rd

    out = grouped.map_batches(dups_only, batch_format="pyarrow") \
        .sort("canonical_url").materialize()
    if out.count() == 0:   # pin the schema (Ray empty-dataset gotcha)
        return rd.from_arrow(pa.table({
            "canonical_url": pa.array([], pa.string()),
            "n_docs": pa.array([], pa.int64()),
            "min_doc_id": pa.array([], pa.int64())}))
    return out


def url_canonical_dups_sql(table: str = "documents") -> str:
    """Oracle twin: same synthesized raw URLs, same canonical folds."""
    return f"""
WITH uc_raw AS (
  SELECT doc_id,
         'https://'
         || CASE WHEN doc_id % 3 = 0
                 THEN upper(source || '.example.com')
                 ELSE source || '.example.com' END
         || CASE WHEN doc_id % 5 = 0 THEN ':443' ELSE '' END
         || '/page/' || (doc_id % 5)
         || CASE WHEN doc_id % 2 = 0 THEN '/' ELSE '' END
         || CASE WHEN doc_id % 7 = 0 THEN '?utm_source=feed'
                 ELSE '' END AS raw
  FROM {table}),
uc_canon AS (
  SELECT doc_id,
         lower(regexp_replace(regexp_extract(
                 raw, '^([a-zA-Z]+://[^/]*)', 1), ':443$|:80$', ''))
         || regexp_replace(regexp_replace(
              regexp_extract(raw, '^[a-zA-Z]+://[^/]*(.*)$', 1),
              '\\?utm_[a-z]+=[^&]*$', ''), '(.)/$', '\\1')
           AS canonical_url
  FROM uc_raw)
SELECT canonical_url, count(*)::BIGINT AS n_docs,
       min(doc_id)::BIGINT AS min_doc_id
FROM uc_canon GROUP BY canonical_url HAVING count(*) > 1
ORDER BY canonical_url
"""
